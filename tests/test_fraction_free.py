"""The fraction-free routes.  The singular locus: the flat ``SparsePoly``
primitives it runs on, a cross-check against the same generic functions
called on ``GeomPoly`` values with rational coefficients, and the guards
that stop the scan with ArithmeticError (exit 3) instead of reporting a
FAIL.  The ``GeomPoly`` product: the flat route over monomial
denominators gives the nested route's exact representation, falls back
on other denominators and past the degree limit, and is the route the
kernel layer takes."""

import random
from dataclasses import replace

import pytest

from delpezzo import algebra, cli, surfaces
from delpezzo.algebra import (
    MAX_DEGREE,
    GeomPoly,
    ParamRational,
    SparsePoly,
    exact_divide,
    parse,
    pseudo_substitute,
)
from delpezzo.quotient import (
    BaseRingS,
    alpha_value,
    jacobian_minors,
    t_coordinates,
    t_rewrite_rules,
    verify_presentation,
)
from delpezzo.surfaces import build_presentation, others, singular_locus, undivided_minors
from randpoly import (
    make_table,
    random_laurent_geom,
    random_nonzero_sparse,
    random_sparse,
)
from test_stages import perturbed


def random_chart_poly(rng, pres, terms=5):
    """A flat polynomial in the parameters and the chart's u's and t's."""
    table = pres.table
    names = [f"a{i}" for i in range(4)] + list(pres.generators)
    out = SparsePoly.zero(table)
    for _ in range(terms):
        exps = {n: rng.randint(0, 2) for n in rng.sample(names, 3)}
        out = out + SparsePoly.monomial(table, exps)
    return out


class TestFlatPrimitives:
    @pytest.mark.parametrize("p", [2, 3])
    def test_geom_round_trip(self, p):
        rng = random.Random(801 + p)
        table = make_table(p)
        for _ in range(30):
            f = random_sparse(rng, table)
            g = f.as_geom()
            assert g.as_sparse() == f
            for name in ("x1", "x2", "x3"):
                assert g.partial(name).as_sparse() == f.partial(name)

    def test_rational_coefficient_is_not_flat(self):
        table = make_table()
        a0, a1 = SparsePoly.var(table, "a0"), SparsePoly.var(table, "a1")
        x1 = GeomPoly.var(table, "x1")
        assert x1.scaled(ParamRational(a0 * a1, a1)).as_sparse() == a0 * x1.as_sparse()
        with pytest.raises(ArithmeticError, match="not a polynomial"):
            x1.scaled(ParamRational(a0, a1)).as_sparse()

    def test_polynomial_coefficient_over_a_denominator_is_flat(self):
        table = make_table()
        a0, a1 = SparsePoly.var(table, "a0"), SparsePoly.var(table, "a1")
        x1 = GeomPoly.var(table, "x1")
        # a0 stored as (a0^2 + a0*a1)/(a0 + a1): no monomial factor to strip
        stored = ParamRational(a0 * a0 + a0 * a1, a0 + a1)
        assert not stored.den.is_one()
        assert x1.scaled(stored).as_sparse() == a0 * x1.as_sparse()

    def test_relation_over_a_denominator_verifies(self):
        pres = build_presentation(0)
        payload = pres.to_json()
        a0, a1 = (SparsePoly.var(pres.table, n) for n in ("a0", "a1"))
        stored = ParamRational(a0 * a0 + a0 * a1, a0 + a1).to_json()
        (r0,) = [rel for rel in payload["relations"] if rel["name"] == "r_0"]
        (const,) = [row for row in r0["terms"] if not any(row["exponents"])]
        const["coeff_num"], const["coeff_den"] = stored["num"], stored["den"]
        loaded = cli.load_presentation(payload)
        assert loaded == pres
        assert not loaded.relations["r_0"].coefficient({}).den.is_one()
        assert singular_locus(loaded) == singular_locus(pres)

    @pytest.mark.parametrize("p", [2, 3])
    def test_exact_divide_in_the_flat_ring(self, p):
        rng = random.Random(811 + p)
        table = make_table(p)
        outcomes = set()
        for _ in range(30):
            f = random_nonzero_sparse(rng, table)
            g = random_nonzero_sparse(rng, table).scaled(rng.randrange(1, p))
            assert exact_divide(f * g, g) == f
            quotient = exact_divide(f + SparsePoly.var(table, "x1"), g)
            if quotient is not None:
                assert quotient * g == f + SparsePoly.var(table, "x1")
            outcomes.add(quotient is None)
        assert True in outcomes

    def test_pseudo_reduction_is_a_power_of_a_elim_times_the_reduction(self):
        rng = random.Random(821)
        for chart in (0, 1, 2, 3):
            pres = build_presentation(chart)
            table = pres.table
            ring = BaseRingS(table, chart)
            for _ in range(10):
                f = random_chart_poly(rng, pres)
                scale = alpha_value(table, others(chart)[-1]) ** f.degree_in(ring.elim_name)
                expected = ring.reduce(f.as_geom()).scaled(scale).as_sparse()
                assert ring.pseudo_reduce(f) == expected

    def test_pseudo_substitution_clears_every_power(self):
        table = build_presentation(0).table
        a3, u3 = SparsePoly.var(table, "a3"), SparsePoly.var(table, "u3")
        rest = parse(table, "a0 + a1*u1 + a2*u2").as_sparse()
        f = a3 * u3 ** 2 + u3 + SparsePoly.var(table, "a1")
        assert pseudo_substitute(f, "u3", a3, rest) == (
            a3 * rest * rest + a3 * rest + a3 * a3 * SparsePoly.var(table, "a1"))
        assert pseudo_substitute(rest, "u3", a3, rest) == rest

    def test_linear_parts_reject_a_quadratic_term(self):
        table = build_presentation(0).table
        f = parse(table, "a0*u1 + u2*t1 + t3").as_sparse()
        assert f.linear_parts(["t1", "t3"]) == (
            parse(table, "a0*u1").as_sparse(), SparsePoly.var(table, "u2"),
            SparsePoly.const(table, 1))
        with pytest.raises(ValueError, match="degree above one"):
            parse(table, "t1*t3").as_sparse().linear_parts(["t1", "t3"])


def failing_minors(pres, flat: bool) -> list:
    """The 4x4 minors that fail divisibility by h, on the flat route or on
    the GeomPoly route with rational coefficients."""
    ring = BaseRingS(pres.table, pres.chart)
    rels = list(pres.relations.values())
    h = surfaces._h_polynomial(pres.table, pres.chart)
    if flat:
        rels = [rel.as_sparse() for rel in rels]
        reduce = ring.pseudo_reduce
        divisor = exact_divide(reduce(h), alpha_value(pres.table, others(pres.chart)[-1]).num)
    else:
        reduce, divisor = ring.reduce, ring.reduce(h.as_geom())
    minors = jacobian_minors(rels, pres.generators, 4)
    return undivided_minors(minors, pres, t_rewrite_rules(pres, flat), reduce, divisor)


class TestCrossCheck:
    def test_coordinates_agree_on_every_chart_0_minor(self):
        pres = build_presentation(0)
        ring = BaseRingS(pres.table, 0)
        rels = list(pres.relations.values())
        geom = jacobian_minors(rels, pres.generators, 4)
        flat = jacobian_minors([rel.as_sparse() for rel in rels], pres.generators, 4)
        geom_rules, flat_rules = t_rewrite_rules(pres), t_rewrite_rules(pres, flat=True)
        assert len(geom) == len(flat) == 525
        compared = 0
        for (index, g), (flat_index, f) in zip(geom, flat):
            assert index == flat_index and g.as_sparse() == f
            for gc, fc in zip(t_coordinates(g, pres, geom_rules),
                              t_coordinates(f, pres, flat_rules), strict=True):
                k = fc.degree_in("u3")
                cleared = ring.reduce(gc).scaled(alpha_value(pres.table, 3) ** k)
                assert cleared.as_sparse() == ring.pseudo_reduce(fc)
                compared += 1
        assert compared == 4 * 525

    @pytest.mark.parametrize("chart, name, first, count", [
        *[(c, "r_4", "u{n}*t{n}", 137) for c in (0, 1, 2, 3)],
        (0, "r_1", "u1*u2", 134)])
    def test_failing_minors_agree(self, chart, name, first, count):
        n = others(chart)[0]
        pres = perturbed(build_presentation(chart), name, first.format(n=n))
        flat = failing_minors(pres, flat=True)
        assert len(flat) == count
        assert flat == failing_minors(pres, flat=False)
        named = {c.name: c for c in singular_locus(pres)}
        assert named["minors_divisible_by_h"].witness == (
            f"checked 525 minors, failures at {flat[:4]}")


class TestSoundnessGuards:
    def stops(self, capsys):
        with pytest.raises(ArithmeticError):
            singular_locus(cli.build_presentation(0))
        assert cli.main(["verify", "--suite", "singular", "--json"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "internal arithmetic error" in out.err

    def test_divisor_with_content_stops_the_scan(self, monkeypatch, capsys):
        orig = surfaces._h_polynomial

        def with_content(table, i0):
            return orig(table, i0) * parse(table, "a0 + a1").as_sparse()
        monkeypatch.setattr(surfaces, "_h_polynomial", with_content)
        self.stops(capsys)

    def test_rational_relation_coefficient_stops_the_scan(self, monkeypatch, capsys):
        orig = cli.build_presentation

        def build(i0=0, depth=0):
            pres = orig(i0, depth)
            table = pres.table
            odd = GeomPoly.monomial(table, {"u1": 1, "t1": 1}, ParamRational(
                SparsePoly.var(table, "a0"), SparsePoly.var(table, "a1")))
            return replace(pres, relations=dict(pres.relations, r_4=pres.relations["r_4"] + odd))
        monkeypatch.setattr(cli, "build_presentation", build)
        self.stops(capsys)


def representation(poly):
    """The packed terms of a GeomPoly with each coefficient's num and den maps."""
    return {key: (c.num._t, c.den._t) for key, c in poly._t.items()}


def nested(f, g):
    return GeomPoly._raw(f.table, algebra._nested_product(f._t, g._t))


class TestLaurentProduct:
    @pytest.mark.parametrize("p", [2, 3])
    def test_flat_route_gives_the_nested_representation(self, p):
        rng = random.Random(1001 + p)
        table = make_table(p)
        distinct = 0
        for _ in range(60):
            f, g = random_laurent_geom(rng, table), random_laurent_geom(rng, table)
            flat = algebra._laurent_product(table, f._t, g._t)
            assert flat is not None
            assert representation(GeomPoly._raw(table, flat)) == representation(nested(f, g))
            assert representation(f * g) == representation(nested(f, g))
            distinct += len({max(c.den._t) for c in f._t.values()}) > 1
        assert distinct > 10

    def test_cancelling_terms_leave_no_zero_coefficient(self):
        table = make_table(3)
        a0, x1 = SparsePoly.var(table, "a0"), GeomPoly.var(table, "x1")
        f = x1.scaled(ParamRational(SparsePoly.const(table, 1), a0)) + GeomPoly.one(table)
        g = x1.scaled(ParamRational(SparsePoly.const(table, 1), a0)) - GeomPoly.one(table)
        product = f * g
        assert representation(product) == representation(nested(f, g))
        assert product == x1 * x1 * GeomPoly.const(table, ParamRational(
            SparsePoly.const(table, 1), a0 * a0)) - GeomPoly.one(table)

    @pytest.mark.parametrize("p", [2, 3])
    def test_other_denominator_takes_the_nested_route(self, p, monkeypatch):
        rng = random.Random(1011 + p)
        table = make_table(p)
        a0, a1 = SparsePoly.var(table, "a0"), SparsePoly.var(table, "a1")
        odd = GeomPoly.var(table, "x2").scaled(ParamRational(a0, a0 + a1))
        monkeypatch.setattr(algebra, "_laurent_product", None)
        for _ in range(20):
            f = random_laurent_geom(rng, table) + odd
            g = random_laurent_geom(rng, table)
            assert representation(f * g) == representation(nested(f, g))
            assert representation(g * f) == representation(nested(g, f))

    def test_lifted_degree_past_the_limit_falls_back(self):
        table = make_table()
        power = SparsePoly.var(table, "a1", MAX_DEGREE // 2 + 1)
        x1, x2 = GeomPoly.var(table, "x1"), GeomPoly.var(table, "x2")
        # clearing 1/a1^k lifts a1^k to a1^2k, one past the a1 field
        f = (x1.scaled(ParamRational(power))
             + x2.scaled(ParamRational(SparsePoly.const(table, 1), power)))
        assert algebra._laurent_product(table, f._t, x1._t) is None
        assert representation(f * x1) == representation(nested(f, x1))
        assert (f * x1).coefficient({"x1": 2}) == ParamRational(power)

    def test_denominator_past_the_limit_raises_on_both_routes(self):
        table = make_table()
        inv = ParamRational(SparsePoly.const(table, 1),
                            SparsePoly.var(table, "a0", MAX_DEGREE // 2 + 1))
        f = GeomPoly.var(table, "x1").scaled(inv)
        assert algebra._laurent_product(table, f._t, f._t) is None
        with pytest.raises(OverflowError):
            nested(f, f)
        with pytest.raises(OverflowError):
            f * f


class TestProductRoutes:
    def test_kernel_layer_stays_on_the_flat_route(self, monkeypatch):
        fol = surfaces.FoliationSpec.build("deg1", surfaces.QuadricChart.build(0))
        pres = build_presentation(0)
        ring = BaseRingS(pres.table, 0)

        def refuse(a, b):
            raise AssertionError("nested GeomPoly product")
        monkeypatch.setattr(algebra, "_nested_product", refuse)
        checks = verify_presentation(pres, ring, fol.theta)
        assert checks and all(c.passed for c in checks)

    def test_cusp_curve_reaches_the_nested_route(self, monkeypatch):
        calls = []
        orig = algebra._nested_product

        def counted(a, b):
            calls.append(len(a) * len(b))
            return orig(a, b)
        monkeypatch.setattr(algebra, "_nested_product", counted)
        _, checks = surfaces.cusp_curve()
        assert all(c.passed for c in checks)
        assert calls
