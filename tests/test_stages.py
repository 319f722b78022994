"""Each chart stage runs once: one kernel per presentation, one t-table per
singular scan, one normal form per Jacobian entry, one division by h per
distinct nonzero minor coordinate and one variable table per (chart,
depth); no product by one and no computed pivot column in the
presentation's elimination; cusp sums over the larger denominator where
one divides the other; no ``GeomPoly`` arithmetic in the foliations
suite; primality tests in the numerics suite only for the primes its
scans and tables visit.  Also the negative controls of
the dehomogenisation, p-closure, ideal-preservation, field-of-constants,
presentation, singular-locus, cusp, fibre-injectivity and reducedness
witness checks, and a check that every name the benchmark's tracer wraps
still exists."""

import hashlib
import importlib
import json
import os
import runpy

import pytest

from delpezzo import algebra, cli, numerics, quotient, surfaces
from delpezzo.algebra import Derivation, ParamRational, SparsePoly, VarTable
from delpezzo.quotient import BaseRingS, Presentation, to_module_vector, verify_presentation
from delpezzo.surfaces import (
    QuadricChart,
    build_presentation,
    chart_table,
    singular_locus,
)
from randpoly import parse

CHARTS = (0, 1, 2, 3)
MODULES = (algebra, quotient, surfaces, cli)
TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def count_calls(monkeypatch, name: str) -> list:
    """Wrap ``quotient.<name>`` in every module namespace that binds it;
    the returned list gets one entry per call."""
    orig = getattr(quotient, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)
    for mod in MODULES:
        if vars(mod).get(name) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


def count_geom_calls(monkeypatch) -> dict:
    """Wrap the ``GeomPoly`` product, sum, scaling and substitution; the
    returned map counts the calls of each."""
    calls = {name: 0 for name in ("__mul__", "__add__", "scaled", "substituted")}

    def wrap(name, orig):
        def counted(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return counted
    for name in calls:
        monkeypatch.setattr(algebra.GeomPoly, name, wrap(name, getattr(algebra.GeomPoly, name)))
    return calls


def traced_cusp(divisor_rule: bool):
    """One ``cusp_curve()`` with ``ParamRational``'s divisor rule on or off:
    its report, and counts of the sums over unequal denominators, of the
    trial divisions that found a cofactor and of the most denominator
    terms a built value held."""
    add, make, divide = ParamRational.__add__, ParamRational._make.__func__, ParamRational.divide
    counts = {"unequal": 0, "divided": 0, "den_terms": 0}

    def counted_add(a, b):
        counts["unequal"] += bool(a.num.terms and b.num.terms and a.den != b.den)
        return add(a, b)

    def counted_divide(f, g):
        q = divide(f, g)
        counts["divided"] += q is not None
        return q

    def counted_make(cls, num, den):
        value = make(cls, num, den)
        counts["den_terms"] = max(counts["den_terms"], len(value.den.terms))
        return value
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ParamRational, "__add__", counted_add)
        mp.setattr(ParamRational, "divide", staticmethod(counted_divide) if divisor_rule else None)
        mp.setattr(ParamRational, "_make", classmethod(counted_make))
        report, checks = surfaces.cusp_curve()
    assert checks and all(c.passed for c in checks)
    return report, counts


class TestStageCounts:
    @pytest.mark.parametrize("chart", CHARTS)
    def test_presentation_suite_builds_one_kernel(self, monkeypatch, chart):
        matrices = count_calls(monkeypatch, "derivation_matrix")
        kernels = count_calls(monkeypatch, "kernel_basis")
        checks = cli.suite_checks("presentation", chart)
        assert checks and all(c.passed for c in checks)
        assert (len(matrices), len(kernels)) == (1, 1)

    def test_singular_locus_normal_forms_each_minor_once(self, monkeypatch):
        orig, split = quotient.normal_form, []

        def counted(f, t_table):
            split.append(f)
            return orig(f, t_table)
        monkeypatch.setattr(surfaces, "normal_form", counted)
        tables = count_calls(monkeypatch, "TTable")
        pres = build_presentation(0)
        checks = singular_locus(pres)
        assert all(c.passed for c in checks)
        # the 525 4x4 and 9 t-block 2x2 minors come from one t-table, into
        # which each of the 42 Jacobian entries is taken once; no raw minor
        rels = list(pres.relations.values())
        assert len(tables) == 1
        assert split == [e for row in quotient.jacobian(rels, pres.generators) for e in row]

    def test_singular_locus_takes_each_jacobian_entry_once(self, monkeypatch):
        orig = algebra._TermMap.partial
        calls = []

        def counted(self, name):
            calls.append(name)
            return orig(self, name)
        monkeypatch.setattr(algebra._TermMap, "partial", counted)
        checks = singular_locus(build_presentation(0))
        assert all(c.passed for c in checks)
        # the 7x6 Jacobian; the u-block and t-block minors are read off it
        assert len(calls) == 7 * 6

    @pytest.mark.parametrize("chart", CHARTS)
    def test_singular_locus_divides_each_distinct_coordinate_once(self, monkeypatch, chart):
        pres = build_presentation(chart)
        minors = table_minors(pres)[2]
        distinct = {tuple(sorted(c.terms.items()))
                    for _, minor in minors for c in minor.coords if not c.is_zero()}
        orig, divided = surfaces.exact_divide, []

        def counted(f, g):
            divided.append(f)
            return orig(f, g)
        monkeypatch.setattr(surfaces, "exact_divide", counted)
        checks = singular_locus(pres)
        assert all(c.passed for c in checks)
        # of the 4 x 525 coordinates only the distinct nonzero ones are divided
        assert len(divided) == len(distinct) == 18

    def test_flat_products_lift_once_and_rescan_no_content(self, monkeypatch):
        fol = surfaces.FoliationSpec.build("deg1", QuadricChart.build(0))
        pres = build_presentation(0)
        lifted, scanned, rescans, outside, depth = [], [], [], [], [0]
        lift, scan, product, content = (algebra._lifted, algebra._monomial_dens,
                                        algebra._laurent_product, algebra._content_key)

        def counted_lift(table, terms, split):
            lifted.append(terms)  # kept alive, so no id is reused
            return lift(table, terms, split)

        def counted_scan(terms):
            scanned.append(terms)
            return scan(terms)

        def counted_product(a, b):
            depth[0] += 1
            try:
                return product(a, b)
            finally:
                depth[0] -= 1

        def counted_content(table, keys):
            (rescans if depth[0] else outside).append(keys)
            return content(table, keys)
        monkeypatch.setattr(algebra, "_lifted", counted_lift)
        monkeypatch.setattr(algebra, "_monomial_dens", counted_scan)
        monkeypatch.setattr(algebra, "_laurent_product", counted_product)
        monkeypatch.setattr(algebra, "_content_key", counted_content)
        checks = verify_presentation(pres, BaseRingS(pres.table, 0), fol.theta)
        assert checks and all(c.passed for c in checks)
        # each GeomPoly owns its term map: none is lifted twice
        assert lifted and len({id(t) for t in lifted}) == len(lifted)
        # a kept lift proves its denominators monomial: no term map is rescanned
        assert scanned and len({id(t) for t in scanned}) == len(scanned)
        # _content_key is live on the other routes, never inside a flat product
        assert outside and not rescans

    def test_all_suite_builds_each_chart_stage_once(self, monkeypatch):
        quad_build, fol_build = QuadricChart.build.__func__, surfaces.FoliationSpec.build.__func__
        pres_build, built = surfaces.build_presentation, {"quad": [], "fol": [], "pres": []}

        def quad(cls, i0=0, depth=0):
            built["quad"].append((i0, depth))
            return quad_build(cls, i0, depth)

        def fol(cls, kind, chart):
            built["fol"].append((kind, chart.i0, chart.table.root_depth))
            return fol_build(cls, kind, chart)

        def pres(i0=0, depth=0):
            built["pres"].append((i0, depth))
            return pres_build(i0, depth)
        monkeypatch.setattr(QuadricChart, "build", classmethod(quad))
        monkeypatch.setattr(surfaces.FoliationSpec, "build", classmethod(fol))
        monkeypatch.setattr(surfaces, "build_presentation", pres)
        checks = cli.suite_checks("all", 2)
        assert checks and all(c.passed for c in checks)
        # chart 2 once for the foliations, the presentation and the singular
        # scan; the reducedness witness works at depth 1, the cusp at depth 3
        assert built == {"quad": [(2, 0), (0, 1)],
                         "fol": [("deg1", 2, 0), ("deg2", 2, 0), ("deg1", 0, 1)],
                         "pres": [(2, 0), (0, 3)]}

    @pytest.mark.parametrize("chart", CHARTS)
    def test_presentation_multiplies_nothing_by_one(self, monkeypatch, chart):
        fol = surfaces.FoliationSpec.build("deg1", QuadricChart.build(chart))
        pres = build_presentation(chart)
        flat, routed, subtractions = [], [], []
        product, nested, sub = (algebra._laurent_product, algebra._nested_product,
                                quotient.SFraction.__sub__)

        def counted_product(a, b):
            flat.append((a, b))
            return product(a, b)

        def counted_nested(a, b):
            routed.extend(algebra.GeomPoly._raw(pres.table, t) for t in (a, b))
            return nested(a, b)

        def counted_sub(a, b):
            subtractions.append(a)
            return sub(a, b)
        monkeypatch.setattr(algebra, "_laurent_product", counted_product)
        monkeypatch.setattr(algebra, "_nested_product", counted_nested)
        monkeypatch.setattr(quotient.SFraction, "__sub__", counted_sub)
        checks = verify_presentation(pres, BaseRingS(pres.table, chart), fol.theta)
        assert checks and all(c.passed for c in checks)
        # a product by one is the other factor, and no pivot column is
        # computed: before, 584 flat products (322 by one) and 76 subtractions;
        # 200 until derivation_matrix stopped squaring the three coordinates,
        # 197 until the derivation acted on flat values (9 products on the
        # basis monomials, 6 on the t-embedding images, each now in one dot),
        # 182 until the relation images and the x^2 -> u rewrite were flat
        assert not any(f.is_one() for pair in flat for f in pair)
        assert not any(f.is_one() for f in routed)
        assert (len(flat), len(subtractions)) == (120, 50)

    def test_cusp_sums_over_the_larger_denominator(self):
        report, counts = traced_cusp(divisor_rule=True)
        reference, cross = traced_cusp(divisor_rule=False)
        # the denominators are monomials times powers of a2 + a3: in 63 of
        # the 74 sums over unequal ones the smaller divides the larger, so
        # 11 sums cross-multiply where all 81 did, and no denominator is
        # built with more than 24 terms where one reached 96
        assert counts == {"unequal": 74, "divided": 63, "den_terms": 24}
        assert cross == {"unequal": 81, "divided": 0, "den_terms": 96}
        assert report.coefficients.keys() == reference.coefficients.keys()
        for name, value in report.coefficients.items():
            assert value == reference.coefficients[name], name
        assert report.cusp_u == reference.cusp_u
        assert report.curve_relation == reference.curve_relation

    def test_emit_round_trip_compares_no_distinct_tables(self, monkeypatch, tmp_path):
        distinct = []
        orig = VarTable.__eq__

        def eq(self, other):
            if self is not other:
                distinct.append((self, other))
            return orig(self, other)
        monkeypatch.setattr(VarTable, "__eq__", eq)
        path = tmp_path / "presentation.json"
        assert cli.main(["presentation", "--chart", "1", "--out", str(path)]) == 0
        loaded = cli.load_presentation(json.loads(path.read_text(encoding="utf-8")))
        assert loaded == build_presentation(1)
        assert distinct == []

    @pytest.mark.parametrize("chart", CHARTS)
    def test_foliations_suite_does_no_rational_arithmetic(self, monkeypatch, chart):
        calls = count_geom_calls(monkeypatch)
        checks = cli.suite_checks("foliations", chart)
        assert checks and all(c.passed for c in checks)
        # the reducedness witness evaluates its point fraction-free too
        assert calls == {"__mul__": 0, "__add__": 0, "scaled": 0, "substituted": 0}

    def test_cusp_substitutes_eight_times(self, monkeypatch):
        calls = count_geom_calls(monkeypatch)
        _, checks = surfaces.cusp_curve()
        assert checks and all(c.passed for c in checks)
        # two locus checks, three cubics and three curve relations
        assert calls["substituted"] == 8

    def test_numerics_suite_tests_only_the_visited_primes(self, monkeypatch):
        orig, tested = numerics.is_prime, []

        def counted(n):
            tested.append(n)
            return orig(n)
        monkeypatch.setattr(numerics, "is_prime", counted)
        checks = numerics.numerics_suite()
        assert checks and all(c.passed for c in checks)
        # 2..13 in solve_q1 and in scan_is_conclusive, then the three
        # feasibility tables; the 1,200-triple chi sweep tests none
        assert tested == [*range(2, 14), *range(2, 14), 2, 3, 5]


class TestTableInterning:
    def test_same_values_same_table(self):
        assert chart_table(0) is chart_table(0, 0) is chart_table(i0=0, depth=0)
        assert chart_table(2, 1) is chart_table(2, depth=1)

    @pytest.mark.parametrize("chart", CHARTS)
    def test_chart_builders_share_the_table(self, chart):
        pres = build_presentation(chart)
        table = QuadricChart.build(chart).table
        assert pres.table is table
        assert cli.load_presentation(pres.to_json()).table is table

    def test_different_values_different_tables(self):
        tables = [chart_table(c, d) for c in CHARTS for d in (0, 1, 3)]
        assert len({id(t) for t in tables}) == len(tables)


def table_minors(pres):
    """The t-table of a presentation, its flat relations, and the 4x4
    minors taken on the table values of the Jacobian entries."""
    t_table = quotient.TTable(pres)
    rels = list(pres.relations.values())
    values = [[quotient.normal_form(e, t_table) for e in row]
              for row in quotient.jacobian(rels, pres.generators)]
    return t_table, rels, quotient.jacobian_minors(values, 4)


def t_poly(pres, value):
    """The flat polynomial c_0 + c_1 t_a + c_2 t_b + c_3 t_c of a TValue."""
    out = value.coords[0]
    for c, name in zip(value.coords[1:], pres.t_names):
        out = out + c * SparsePoly.var(pres.table, name)
    return out


def embedded(f, pres, ring):
    """The image in M, through the embedding, of a flat value of the
    quotient ring, substituted over K by ``GeomPoly.substituted``."""
    image = f.as_geom().substituted({g: img.as_geom() for g, img in pres.embedding.items()})
    return to_module_vector(image.as_sparse(), ring)


def perturbed(pres: Presentation, name: str, monomial: str) -> Presentation:
    """``pres`` with ``monomial`` added to the relation ``name``."""
    relations = dict(pres.relations)
    relations[name] = relations[name] + parse(pres.table, monomial).as_sparse()
    return Presentation(chart=pres.chart, generators=pres.generators, relations=relations,
                        embedding=pres.embedding, table=pres.table)


def a2_moved():
    """The chart-0 deg1 foliation with a2 -> a0 added to its theta."""
    fol = surfaces.FoliationSpec.build("deg1", QuadricChart.build(0))
    table = fol.chart.table
    return fol._replace(theta=Derivation(
        table, {**fol.theta.images, "a2": SparsePoly.var(table, "a0")}))


def failed_witnesses(checks) -> dict:
    return {c.name: c.witness for c in checks if not c.passed}


@pytest.fixture
def a1_vanishes(monkeypatch):
    """``surfaces.alpha_value`` sends the parameter a1 to zero."""
    orig = surfaces.alpha_value

    def alpha(table, i):
        return SparsePoly.zero(table) if i == 1 else orig(table, i)
    monkeypatch.setattr(surfaces, "alpha_value", alpha)


class TestNegativeControls:
    def test_changed_quadric_coefficient_fails_dehomogenisation(self):
        quad = QuadricChart.build(0)
        a1, a2, X1 = (SparsePoly.var(quad.table, n) for n in ("a1", "a2", "X1"))
        # Q with a2*X1^2 in place of a1*X1^2
        result = quad._replace(Q=quad.Q + (a1 + a2) * X1 ** 2).dehomogenisation_check()
        assert (result.name, result.passed, result.witness) == (
            "dehomogenisation[chart0]", False, "difference=(a1 + a2)*x1^2")

    def test_parameter_image_fails_p_closure(self):
        # theta(a2) = a0, and theta(a0) = 0
        assert failed_witnesses(surfaces.check_p_closure(a2_moved())) == {
            "p_closure[a2]": "difference=a0"}

    def test_parameter_image_fails_ideal_preservation(self):
        # theta(q) = dq/da2 * a0, which q does not divide
        assert failed_witnesses(surfaces.check_ideal_preserved(a2_moved())) == {
            "ideal_preserved": "image=a0*x2^2"}

    def test_parameter_image_fails_kills(self):
        assert failed_witnesses(surfaces.field_of_constants_check(a2_moved())) == {
            "kills[a2]": "image=a0"}

    def test_deg1_derivation_in_the_deg2_slot_fails_moves(self):
        deg1 = surfaces.FoliationSpec.build("deg1", QuadricChart.build(0))
        checks = surfaces.field_of_constants_check(deg1._replace(kind="deg2"))
        assert failed_witnesses(checks) == {"moves[a0]": "image=0"}

    def test_zero_derivation_fails_exactly_the_rank_checks(self):
        pres = build_presentation(0)
        ring = BaseRingS(pres.table, 0)
        checks = verify_presentation(pres, ring, Derivation(pres.table, {}))
        failed = {c.name: c.witness for c in checks if not c.passed}
        assert failed == {"kernel_rank": "rank=8",
                          "kernel_rank[4]": "rank=8",
                          "quotient_degree[2]": "degrees=(8, 8, 1)"}

    def test_perturbed_relation_breaks_divisibility_by_h(self):
        bad = perturbed(build_presentation(0), "r_4", "u1*t1")
        named = {c.name: c for c in singular_locus(bad)}
        assert not named["minors_divisible_by_h"].passed
        assert "failures at" in named["minors_divisible_by_h"].witness

    def test_perturbed_relation_breaks_the_cusp_curve(self, monkeypatch):
        orig = surfaces.build_presentation
        monkeypatch.setattr(surfaces, "build_presentation",
                            lambda i0=0, depth=0: perturbed(orig(i0, depth), "r_4", "u1*t1"))
        _, checks = surfaces.cusp_curve()
        failed = {c.name: c.witness for c in checks if not c.passed}
        assert list(failed) == ["curve_relation_reduces[r_4]"]
        # the image of r_4 + u1*t1 on the curve, which s^2 + u (c11 + c13 u^2)
        # does not divide; its terms are in u1^3, u1^2, u1*s, s^2 and u1, and
        # the 1,824 characters are pinned by their digest
        witness = failed["curve_relation_reduces[r_4]"]
        assert witness.startswith("image=((a1^16*a2^16 + a1^16*a3^16 + a1^8*a2^24 + ")
        assert "*u1^3 + ((a0^4*a1^8*a2^20 + " in witness and ")*u1^2 + u1*s + ((" in witness
        assert witness.endswith("/(a2^12*a3^4 + a2^4*a3^12))*u1")
        assert (len(witness), hashlib.sha256(witness.encode()).hexdigest()) == (
            1824, "97e7615d0865ac35df0cd9c153db307a20fb1b1d43213f1fd17c10e2c4306cba")

    def test_unread_t_square_coefficient_stops_the_cusp(self, monkeypatch, capsys):
        # r_1 + a0*t1^2 on the locus is (1 + a0)*t1^2 plus a cubic in u1
        orig = surfaces.build_presentation
        monkeypatch.setattr(surfaces, "build_presentation",
                            lambda i0=0, depth=0: perturbed(orig(i0, depth), "r_1", "a0*t1^2"))
        with pytest.raises(ArithmeticError, match="r_1 on the locus"):
            surfaces.cusp_curve()
        assert cli.main(["verify", "--suite", "cusp"]) == 3
        assert "internal arithmetic error" in capsys.readouterr().err

    def test_vanishing_parameter_puts_a_point_on_the_quadric(self, a1_vanishes):
        checks = surfaces.check_fibre_injectivity()
        assert [c.name for c in checks if not c.passed] == ["point_off_quadric[0100]"]

    def test_vanishing_parameter_breaks_the_square_root_of_the_quadric(self, a1_vanishes):
        checks = surfaces.reducedness_witness()
        assert [c.name for c in checks if not c.passed] == ["square_recovers_quadric"]

    def test_degree_two_foliation_breaks_the_reducedness_witness(self, monkeypatch):
        build = surfaces.FoliationSpec.build.__func__
        monkeypatch.setattr(surfaces.FoliationSpec, "build",
                            classmethod(lambda cls, kind, chart: build(cls, "deg2", chart)))
        checks = surfaces.reducedness_witness()
        assert [c.name for c in checks if not c.passed] == [
            "derivative_identity", "evaluation_value"]
        assert failed_witnesses(checks)["evaluation_value"] == (
            "value=(a0^3 + a0*a3^2 + a0^2 + a0*a3)/(a3)")

    def test_zero_derivation_fails_the_reducedness_evaluation(self, monkeypatch):
        build = surfaces.FoliationSpec.build.__func__
        monkeypatch.setattr(surfaces.FoliationSpec, "build", classmethod(
            lambda cls, kind, chart: build(cls, kind, chart)._replace(
                theta=Derivation(chart.table, {}))))
        checks = surfaces.reducedness_witness()
        assert [c.name for c in checks] == [
            "derivative_identity", "evaluation_value", "evaluation_nonzero",
            "square_recovers_quadric"]
        assert failed_witnesses(checks) == {"derivative_identity": "image=0",
                                            "evaluation_value": "value=0",
                                            "evaluation_nonzero": "value=0"}

    def test_perturbed_relation_fails_the_u_block_minors(self):
        bad = perturbed(build_presentation(0), "r_1", "u1*u2")
        failed = {c.name: c.witness for c in singular_locus(bad) if not c.passed}
        assert sorted(failed) == [
            "minors_divisible_by_h",
            "t_block_minor[rows=(1, 2),cols=(1, 2)]",
            "u_block_minor[r_0,r_1,r_2]",
            "u_block_minor[r_0,r_1,r_3]",
            "u_block_minor[r_1,r_2,r_3]",
        ]
        assert failed["u_block_minor[r_0,r_1,r_2]"] == (
            "minor=((a1^4 + a1^3*a3)/(a3^3))*u1^4 + ((a1^2*a2 + a1*a2^2)/(a3^2))*u1^2*u2^2"
            " + ((a2^4 + a2^3*a3)/(a3^3))*u2^4 + ((a1^3 + a1*a3^2)/(a3^2))*u1^3"
            " + ((a1^2*a2 + a1*a2*a3 + a2*a3^2)/(a3^2))*u1^2*u2"
            " + ((a1*a2^2 + a1*a2*a3 + a2^2*a3)/(a3^2))*u1*u2^2"
            " + ((a2^3 + a2^2*a3)/(a3^2))*u2^3 + ((a0^2*a1 + a0*a1*a3)/(a3^2))*u1^2"
            " + ((a0^2*a2 + a0*a2*a3)/(a3^2))*u2^2"
            " + ((a0^2*a1 + a0^2*a3 + a0*a1*a3 + a0*a3^2)/(a3^2))*u1"
            " + ((a0^2*a2 + a0*a2*a3)/(a3^2))*u2 + ((a0^4 + a0^2*a3^2)/(a3^3))")
        assert failed["u_block_minor[r_0,r_1,r_3]"] == (
            "minor=((a1^2 + a1*a3)/(a3))*u1^2*u2^2 + ((a2^2 + a2*a3)/(a3))*u2^4"
            " + ((a1^2 + a1*a3 + a3^2)/(a3))*u1^2*u2 + a3*u1*u2^2"
            " + ((a2^2 + a2*a3)/(a3))*u2^3 + ((a0^2 + a0*a3)/(a3))*u2^2"
            " + ((a0^2 + a0*a3)/(a3))*u2")
        assert failed["u_block_minor[r_1,r_2,r_3]"] == (
            "minor=u1^4*u2 + u1^3*u2^2 + u1^3*u2 + u1^2*u2^2")


def test_tracer_targets_resolve():
    """Every (module, attribute path) in the tracer's TARGETS names a
    function in the owner's own namespace, where the tracer looks it up."""
    tracer = runpy.run_path(TRACER)
    missing = []
    for metric, modname, path, _ in tracer["TARGETS"]:
        owner, attr = tracer["_resolve"](importlib.import_module(f"delpezzo.{modname}"), path)
        if not callable(owner.__dict__.get(attr)):
            missing.append((metric, modname, path))
    assert tracer["TARGETS"] and missing == []
