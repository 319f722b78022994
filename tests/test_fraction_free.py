"""The fraction-free routes.  The reducedness witness's evaluation point
against the substitution over K.  The singular locus: the flat ``SparsePoly``
primitives it runs on, a cross-check against the same generic functions
called on ``GeomPoly`` values with rational coefficients, the t-table's
minors and products against their images in M, and the guards that stop the scan
with ArithmeticError (exit 3) instead of reporting a FAIL.  The
``GeomPoly`` product: the flat route over monomial denominators gives the
nested route's exact representation, falls back on other denominators
and past the degree limit, and is the route the kernel layer takes; a
product by one is the other factor, as both routes would build it."""

import random
import signal
import time
from contextlib import contextmanager

import pytest

from delpezzo import algebra, cli, quotient, surfaces
from delpezzo.algebra import (
    MAX_DEGREE,
    GeomPoly,
    ParamRational,
    SparsePoly,
    TableMismatchError,
    exact_divide,
    pseudo_substitute,
)
from delpezzo.quotient import (
    BaseRingS,
    TTable,
    alpha_value,
    jacobian,
    jacobian_minors,
    normal_form,
    t_parts,
    verify_presentation,
)
from delpezzo.surfaces import (
    FoliationSpec,
    QuadricChart,
    build_presentation,
    chart_table,
    others,
    singular_locus,
    witness_point_value,
)
from randpoly import (
    constant_value,
    make_table,
    parse,
    random_laurent_geom,
    random_nonzero_geom,
    random_nonzero_sparse,
    random_sparse,
    random_t_linear,
)
from test_stages import embedded, perturbed, t_poly, table_minors


def random_chart_poly(rng, pres, terms=5):
    """A flat polynomial in the parameters and the chart's u's and t's."""
    table = pres.table
    names = [f"a{i}" for i in range(4)] + list(pres.generators)
    out = SparsePoly.zero(table)
    for _ in range(terms):
        exps = {n: rng.randint(0, 2) for n in rng.sample(names, 3)}
        out = out + SparsePoly.monomial(table, exps)
    return out


def substituted_reduce(f: SparsePoly, ring: BaseRingS) -> GeomPoly:
    """The reduction mod r_0 by substitution over K, independent of
    ``BaseRingS``: u_elim = rest/a_elim bound by ``GeomPoly.substituted``."""
    table = ring.table
    a = {i: ParamRational(alpha_value(table, i)) for i in range(4)}
    rest = GeomPoly.const(table, a[ring.chart])
    for m in ring.others[:-1]:
        rest = rest + GeomPoly.var(table, f"u{m}").scaled(a[m])
    return f.as_geom().substituted({ring.elim_name: rest.scaled(a[ring.others[-1]].inverse())})


class TestFlatPrimitives:
    @pytest.mark.parametrize("seed", [2, 3])
    def test_geom_round_trip(self, seed):
        rng = random.Random(801 + seed)
        table = make_table()
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
        params = ["a0", "a1", "a2", "a3"]
        (r0,) = [rel for rel in payload["relations"] if rel["name"] == "r_0"]
        (const,) = [row for row in r0["terms"] if not any(row["exponents"])]
        const["coeff_num"] = (a0 * a0 + a0 * a1).to_json(params)
        const["coeff_den"] = (a0 + a1).to_json(params)
        loaded = cli.load_presentation(payload)
        assert loaded == pres
        assert singular_locus(loaded) == singular_locus(pres)

    def test_embedding_over_a_denominator_is_refused(self):
        pres = build_presentation(0)
        payload = pres.to_json()
        a0 = SparsePoly.var(pres.table, "a0")
        payload["embedding"]["t1"][0]["coeff_den"] = a0.to_json(["a0", "a1", "a2", "a3"])
        with pytest.raises(ValueError, match="embedding image of t1 has a coefficient"):
            cli.load_presentation(payload)

    def test_embedding_of_a_parameter_is_refused(self):
        # relation_vanishes substitutes every embedding key, a parameter too
        payload = build_presentation(0).to_json()
        payload["embedding"]["a0"] = payload["embedding"]["u1"]
        with pytest.raises(ValueError, match="exactly the generators"):
            cli.load_presentation(payload)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_exact_divide_in_the_flat_ring(self, seed):
        rng = random.Random(811 + seed)
        table = make_table()
        outcomes = set()
        for _ in range(30):
            f = random_nonzero_sparse(rng, table)
            g = random_nonzero_sparse(rng, table)
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
                expected = substituted_reduce(f, ring).scaled(ParamRational(scale)).as_sparse()
                assert ring.pseudo_reduce(f) == expected

    @pytest.mark.parametrize("depth", [0, 3])
    @pytest.mark.parametrize("chart", [0, 1, 2, 3])
    def test_reduction_is_the_substitution_over_k(self, chart, depth):
        # the same num and den maps, so every S-value prints the same bytes
        rng = random.Random(1701 + 10 * depth + chart)
        pres = build_presentation(chart, depth)
        ring = BaseRingS(pres.table, chart)
        degrees = set()
        for _ in range(12):
            f = random_chart_poly(rng, pres)
            degrees.add(f.degree_in(ring.elim_name))
            assert representation(ring.reduce(f)) == representation(substituted_reduce(f, ring))
        assert 0 in degrees and len(degrees) > 1

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


def undivided_minors(minors, reduce, divisor) -> list:
    """Index pairs of the minors, given as (index pair, t-coordinates), with
    a coordinate that ``divisor`` does not divide once ``reduce`` has taken
    it into S."""
    return [index for index, coords in minors
            if any(exact_divide(reduce(coord), divisor) is None for coord in coords)]


def failing_minors(pres, flat: bool) -> list:
    """The 4x4 minors that fail divisibility by h, from their table
    coordinates: on the flat route, or lifted to ``GeomPoly`` values,
    reduced by substitution over K and divided by h over Frac(a)."""
    ring = BaseRingS(pres.table, pres.chart)
    h = surfaces._h_polynomial(pres.table, pres.chart)
    minors = [(index, value.coords) for index, value in table_minors(pres)[2]]
    if flat:
        reduce = ring.pseudo_reduce
        divisor = exact_divide(reduce(h), alpha_value(pres.table, others(pres.chart)[-1]))
    else:
        def reduce(c):
            return substituted_reduce(c, ring)
        divisor = reduce(h)
    return undivided_minors(minors, reduce, divisor)


class TestCrossCheck:
    def test_coordinates_agree_on_every_chart_0_minor(self):
        pres = build_presentation(0)
        ring = BaseRingS(pres.table, 0)
        rels = list(pres.relations.values())
        geom = jacobian_minors(jacobian([rel.as_geom() for rel in rels], pres.generators), 4)
        flat = jacobian_minors(jacobian(rels, pres.generators), 4)
        values = table_minors(pres)[2]
        assert len(geom) == len(flat) == len(values) == 525
        compared = 0
        for (index, g), (flat_index, f), (_, value) in zip(geom, flat, values, strict=True):
            assert index == flat_index and g.as_sparse() == f
            for fc in value.coords:
                k = fc.degree_in("u3")
                cleared = substituted_reduce(fc, ring).scaled(
                    ParamRational(alpha_value(pres.table, 3) ** k))
                assert cleared.as_sparse() == ring.pseudo_reduce(fc)
                compared += 1
        assert compared == 4 * 525

    @pytest.mark.parametrize("chart, name, first, count", [
        *[(c, "r_4", "u{n}*t{n}", 135) for c in (0, 1, 2, 3)],
        (0, "r_1", "u1*u2", 134)])
    def test_failing_minors_agree(self, chart, name, first, count):
        n = others(chart)[0]
        pres = perturbed(build_presentation(chart), name, first.format(n=n))
        flat = failing_minors(pres, flat=True)
        assert len(flat) == count
        assert flat == failing_minors(pres, flat=False)
        named = {c.name: c for c in singular_locus(pres)}
        skew = {"r_4": "[(0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2)] (12 of 27)",
                "r_1": "[(0, 0, 1), (0, 0, 2), (0, 1, 2), (0, 2, 1)] (8 of 27)"}[name]
        assert named["minors_divisible_by_h"].witness == (
            f"checked 525 minors, failures at {flat[:4]}, t-table not associative at {skew}")


def substituted_point_value(f: SparsePoly) -> ParamRational:
    """f at (0, 0, a0/a3) over K, independent of ``witness_point_value``:
    x3 = a0/a3 bound by ``GeomPoly.substituted``, read off the constant."""
    table = f.table
    a0, a3 = SparsePoly.var(table, "a0"), SparsePoly.var(table, "a3")
    point = {"x1": 0, "x2": 0, "x3": GeomPoly.const(table, ParamRational(a0, a3))}
    return constant_value(f.as_geom().substituted(point))


class TestWitnessPoint:
    @pytest.mark.parametrize("kind", ["deg1", "deg2"])
    def test_foliation_image_is_the_substitution_over_k(self, kind):
        quad = QuadricChart.build(0, depth=1)
        table = quad.table
        ell = sum((SparsePoly.var(table, f"a{m}") * SparsePoly.var(table, f"x{m}")
                   for m in (1, 2, 3)), SparsePoly.var(table, "a0"))
        image = FoliationSpec.build(kind, quad).theta(ell)
        value, reference = witness_point_value(image), substituted_point_value(image)
        assert value == reference and str(value) == str(reference)
        assert not value.is_zero()

    def test_random_values_are_the_substitution_over_k(self):
        # the same text too: over the monomial a3^k the normal form is unique
        rng = random.Random(3001)
        table = chart_table(0, 1)
        names = ["a0", "a1", "a2", "a3", "x1", "x2", "x3"]
        degrees, texts = set(), set()
        for _ in range(12):
            f = SparsePoly.zero(table)
            for _ in range(5):
                f = f + SparsePoly.monomial(
                    table, {n: rng.randint(0, 3) for n in rng.sample(names, 3)})
            value, reference = witness_point_value(f), substituted_point_value(f)
            assert value == reference and str(value) == str(reference)
            degrees.add(f.degree_in("x3"))
            texts.add(str(value))
        # denominators a3^0..a3^3 before stripping; "a0" lost all of its
        assert degrees == {0, 1, 2, 3} and "a0" in texts and len(texts) == 11


class TestTTable:
    @pytest.mark.parametrize("chart", (0, 1, 2, 3))
    def test_table_coordinates_equal_the_rewritten_ones(self, chart):
        # the table coordinates and the raw minor are one element of the
        # quotient ring, so they have one image in M; tests/test_oracle.py
        # compares the coordinates themselves with a sympy reduction
        pres = build_presentation(chart)
        ring = BaseRingS(pres.table, chart)
        t_table, rels, minors = table_minors(pres)
        raw = jacobian_minors(jacobian(rels, pres.generators), 4)
        assert len(minors) == len(raw) == 525
        assert [index for index, _ in minors] == [index for index, _ in raw]
        sample = random.Random(1201 + chart).sample(range(525), 12)
        for k in sample:
            assert embedded(t_poly(pres, minors[k][1]), pres, ring) == \
                embedded(raw[k][1], pres, ring)
        assert t_table.nonassociative() == []

    @pytest.mark.parametrize("chart", (0, 1, 2, 3))
    def test_products_are_normal_forms_of_the_raw_products(self, chart):
        rng = random.Random(1101 + chart)
        pres = build_presentation(chart)
        ring = BaseRingS(pres.table, chart)
        t_table = TTable(pres)
        one = normal_form(SparsePoly.const(pres.table, 1), t_table)
        quadratic = 0
        for _ in range(25):
            f, g, k = (random_t_linear(rng, pres) for _ in range(3))
            x, y, z = (normal_form(v, t_table) for v in (f, g, k))
            assert (x * (y * z)).coords == ((x * y) * z).coords
            # TValue has no +: a sum is the fused x*1 + y*1
            assert quotient.TValue.dot(t_table, [(x, one), (y, one)]).coords == \
                t_parts(f + g, pres)
            quadratic += all(any(not c.is_zero() for c in v.coords[1:]) for v in (x, y))
        for f, g, k in [[random_t_linear(rng, pres) for _ in range(3)] for _ in range(3)]:
            x, y, z = (normal_form(v, t_table) for v in (f, g, k))
            assert embedded(t_poly(pres, x * y), pres, ring) == embedded(f * g, pres, ring)
            assert embedded(t_poly(pres, (x * y) * z), pres, ring) == \
                embedded(f * g * k, pres, ring)
        assert quadratic > 10

    @pytest.mark.parametrize("chart, name, first, flagged, skew", [
        *[(c, "r_4", "u{n}*t{n}", 135, 12) for c in (0, 1, 2, 3)],
        (0, "r_1", "u1*u2", 134, 8)])
    def test_non_associative_table_fails_the_scan(self, chart, name, first, flagged, skew):
        pres = perturbed(build_presentation(chart), name, first.format(n=others(chart)[0]))
        t_table, _, minors = table_minors(pres)
        ring = BaseRingS(pres.table, chart)
        divisor = exact_divide(ring.pseudo_reduce(surfaces._h_polynomial(pres.table, chart)),
                               alpha_value(pres.table, others(chart)[-1]))
        bad = undivided_minors([(index, m.coords) for index, m in minors],
                               ring.pseudo_reduce, divisor)
        triples = t_table.nonassociative()
        assert (len(bad), len(triples)) == (flagged, skew)
        check = {c.name: c for c in singular_locus(pres)}["minors_divisible_by_h"]
        assert not check.passed
        assert check.witness == {
            "r_4": "checked 525 minors, failures at [((0, 1, 4, 5), (0, 1, 2, 3)),"
                   " ((0, 1, 4, 5), (0, 1, 2, 4)), ((0, 1, 4, 5), (0, 1, 2, 5)),"
                   " ((0, 1, 4, 5), (0, 1, 3, 4))], t-table not associative at"
                   " [(0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2)] (12 of 27)",
            "r_1": "checked 525 minors, failures at [((0, 1, 2, 4), (0, 1, 2, 3)),"
                   " ((0, 1, 2, 4), (0, 1, 2, 4)), ((0, 1, 2, 4), (0, 1, 2, 5)),"
                   " ((0, 1, 2, 5), (0, 1, 2, 3))], t-table not associative at"
                   " [(0, 0, 1), (0, 0, 2), (0, 1, 2), (0, 2, 1)] (8 of 27)"}[name]

    @pytest.mark.parametrize("chart, name, first, flagged", [
        *[(c, None, None, 0) for c in (0, 1, 2, 3)],
        *[(c, "r_4", "u{n}*t{n}", 135) for c in (0, 1, 2, 3)],
        (0, "r_1", "u1*u2", 134)])
    def test_shared_verdicts_equal_the_per_coordinate_ones(self, chart, name, first, flagged):
        pres = build_presentation(chart)
        if name:
            pres = perturbed(pres, name, first.format(n=others(chart)[0]))
        minors = table_minors(pres)[2]
        ring = BaseRingS(pres.table, chart)
        divisor = exact_divide(ring.pseudo_reduce(surfaces._h_polynomial(pres.table, chart)),
                               alpha_value(pres.table, others(chart)[-1]))
        bad = undivided_minors([(index, m.coords) for index, m in minors],
                               ring.pseudo_reduce, divisor)
        assert len(bad) == flagged
        assert surfaces._undivided(minors, ring.pseudo_reduce, divisor) == bad


def two_factor_product(x, y):
    """The coordinates of x * y by the per-pair table product the fused sums
    replaced: every coordinate pair is one ``SparsePoly`` product, and each
    summed t-quadratic part goes through c_ij on its own."""
    t_table = x.table
    parts, quads = ([], [], [], []), {}
    for i, a in enumerate(x.coords):
        for j, b in enumerate(y.coords):
            if a.is_zero() or b.is_zero():
                continue
            if i and j:
                quads.setdefault((min(i, j) - 1, max(i, j) - 1), []).append(a * b)
            else:
                parts[i + j].append(a * b)
    for pair, qs in quads.items():
        q = sum(qs[1:], qs[0])
        for part, c in zip(parts, t_table.consts[pair]):
            part.append(q * c)
    return tuple(sum(p, t_table.zero) for p in parts)


def two_factor_minor(mat, rows, cols, cache):
    """The coordinates of a minor of ``TValue`` entries by cofactor
    expansion along the first row, folding ``sum`` of the two-factor
    products coordinate by coordinate."""
    if len(rows) == 1:
        return mat[rows[0]][cols[0]].coords
    if (rows, cols) not in cache:
        t_table = mat[0][0].table
        total = (t_table.zero,) * 4
        for k, col in enumerate(cols):
            sub = two_factor_minor(mat, rows[1:], cols[:k] + cols[k + 1:], cache)
            term = two_factor_product(mat[rows[0]][col], quotient.TValue(t_table, sub))
            total = tuple(a + b for a, b in zip(total, term))
        cache[rows, cols] = total
    return cache[rows, cols]


class TestFusedSums:
    @pytest.mark.parametrize("chart", (0, 1, 2, 3))
    def test_fused_minors_equal_the_two_factor_fold(self, chart):
        pres = build_presentation(chart)
        t_table = TTable(pres)
        rels = list(pres.relations.values())
        values = [[normal_form(e, t_table) for e in row] for row in jacobian(rels, pres.generators)]
        block = [row[3:] for row in values[4:]]
        for mat, size, count in ((values, 4, 525), (block, 2, 9)):
            minors, cache = jacobian_minors(mat, size), {}
            assert len(minors) == count
            for (rows, cols), minor in minors:
                assert minor.coords == two_factor_minor(mat, rows, cols, cache)
            # the t-block minors are relations, so they vanish in the table
            assert any(not minor.is_zero() for _, minor in minors) == (size == 4)


@contextmanager
def deadline(seconds: int):
    """Turn a computation still running after ``seconds`` into an error
    that no ArithmeticError handler catches; the per-test limit of
    ``conftest.py`` then runs on with what is left of it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, previous)
        left = outer - (time.monotonic() - started)
        signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3) if outer else 0)


def watch_products(monkeypatch) -> list:
    """Record every t-table product, fused sums included, and let it run."""
    steps = []
    mul, fused = quotient.TValue.__mul__, quotient.TValue.dot
    monkeypatch.setattr(quotient.TValue, "__mul__",
                        lambda x, y: steps.append("mul") or mul(x, y))
    monkeypatch.setattr(quotient.TValue, "dot", staticmethod(
        lambda table, pairs: steps.append("dot") or fused(table, pairs)))
    return steps


class TestSoundnessGuards:
    def test_the_product_watcher_sees_the_scan(self, monkeypatch):
        # positive control: an unperturbed scan makes both kinds of product
        steps = watch_products(monkeypatch)
        assert all(c.passed for c in singular_locus(surfaces.build_presentation(0)))
        assert "dot" in steps and "mul" in steps

    def stops(self, capsys, match=None):
        with deadline(20):
            with pytest.raises(ArithmeticError, match=match):
                singular_locus(surfaces.build_presentation(0))
            assert cli.main(["verify", "--suite", "singular", "--json"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "internal arithmetic error" in out.err

    @pytest.mark.parametrize("name, monomial, match, in_table", [
        ("r_4", "t1*t2*t3", "not t-linear", True),
        ("r_4", "t2*t3", "5 of the 6 t-pairs", True),
        ("r_0", "t1^2", r"two relations rewrite the t-pair \(0, 0\)", True),
        ("r_0", "a0*t1^2", r"the t-pair \(0, 0\) has a coefficient other than 1", True),
        ("r_0", "t1*t2*t3", "not t-linear: t2\\*t3", False),
    ])
    def test_rules_outside_the_termination_argument_stop_the_scan(
            self, monkeypatch, capsys, name, monomial, match, in_table):
        # a right side or an entry outside the t-linear values has no
        # table coordinates: the scan stops before its first product
        orig = surfaces.build_presentation
        monkeypatch.setattr(surfaces, "build_presentation",
                            lambda i0=0, depth=0: perturbed(orig(i0, depth), name, monomial))
        steps = watch_products(monkeypatch)
        self.stops(capsys, match)
        assert steps == []
        pres = surfaces.build_presentation(0)
        if in_table:
            with pytest.raises(ArithmeticError, match=match):
                TTable(pres)
        else:
            assert len(TTable(pres).consts) == 6

    def test_divisor_with_content_stops_the_scan(self, monkeypatch, capsys):
        orig = surfaces._h_polynomial

        def with_content(table, i0):
            return orig(table, i0) * parse(table, "a0 + a1").as_sparse()
        monkeypatch.setattr(surfaces, "_h_polynomial", with_content)
        self.stops(capsys)

    def test_rational_relation_coefficient_is_refused_on_load(self):
        # the record is flat, so a rational coefficient never reaches the
        # scan: the loader refuses it and names the relation
        pres = surfaces.build_presentation(0)
        table, payload = pres.table, pres.to_json()
        odd = GeomPoly.monomial(table, {"u1": 1, "t1": 1}, ParamRational(
            SparsePoly.var(table, "a0"), SparsePoly.var(table, "a1")))
        (r4,) = [rel for rel in payload["relations"] if rel["name"] == "r_4"]
        r4["terms"] = (pres.relations["r_4"].as_geom() + odd).to_json(pres.generators)
        with pytest.raises(ValueError, match="relation r_4 has a coefficient that is not"):
            cli.load_presentation(payload)


def representation(poly):
    """The packed terms of a GeomPoly with each coefficient's num and den maps."""
    return {key: (c.num._t, c.den._t) for key, c in poly._t.items()}


def nested(f, g):
    return GeomPoly._raw(f.table, algebra._nested_product(f._t, g._t))


class TestLaurentProduct:
    @pytest.mark.parametrize("seed", [2, 3])
    def test_flat_route_gives_the_nested_representation(self, seed):
        rng = random.Random(1001 + seed)
        table = make_table()
        distinct = 0
        for _ in range(60):
            f, g = random_laurent_geom(rng, table), random_laurent_geom(rng, table)
            flat = algebra._laurent_product(f, g)
            assert flat is not None
            assert representation(GeomPoly._raw(table, flat)) == representation(nested(f, g))
            assert representation(f * g) == representation(nested(f, g))
            distinct += len({max(c.den._t) for c in f._t.values()}) > 1
        assert distinct > 10

    def test_cancelling_terms_leave_no_zero_coefficient(self):
        table = make_table()
        a0, x1 = SparsePoly.var(table, "a0"), GeomPoly.var(table, "x1")
        f = x1.scaled(ParamRational(SparsePoly.const(table, 1), a0)) + GeomPoly.one(table)
        g = x1.scaled(ParamRational(SparsePoly.const(table, 1), a0)) - GeomPoly.one(table)
        product = f * g
        assert representation(product) == representation(nested(f, g))
        assert product == x1 * x1 * GeomPoly.const(table, ParamRational(
            SparsePoly.const(table, 1), a0 * a0)) - GeomPoly.one(table)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_other_denominator_takes_the_nested_route(self, seed, monkeypatch):
        rng = random.Random(1011 + seed)
        table = make_table()
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
        assert algebra._laurent_product(f, x1) is None
        assert representation(f * x1) == representation(nested(f, x1))
        assert (f * x1).coefficient({"x1": 2}) == ParamRational(power)

    def test_denominator_past_the_limit_raises_on_both_routes(self):
        table = make_table()
        inv = ParamRational(SparsePoly.const(table, 1),
                            SparsePoly.var(table, "a0", MAX_DEGREE // 2 + 1))
        f = GeomPoly.var(table, "x1").scaled(inv)
        assert algebra._laurent_product(f, f) is None
        with pytest.raises(OverflowError):
            nested(f, f)
        with pytest.raises(OverflowError):
            f * f

    @pytest.mark.parametrize("seed", [2, 3])
    def test_chained_products_keep_the_nested_representation(self, seed):
        # as in ``_rref``: one pivot times many values, then products of
        # those products, so each factor's kept lift is read many times
        rng = random.Random(1021 + seed)
        table = make_table()
        pivot = random_laurent_geom(rng, table, max_terms=3)
        level = [random_laurent_geom(rng, table, max_terms=3) for _ in range(8)]

        def step(f, g):
            assert algebra._laurent_product(f, g) is not None
            product = f * g
            assert representation(product) == representation(nested(f, g))
            return product
        kept = None
        for _ in range(2):
            level = [step(pivot, f) for f in level] + [step(f, pivot) for f in level[:2]]
            kept = kept or pivot._lift
            level = [step(f, g) for f, g in zip(level, level[1:])] + level[:3]
        assert pivot._lift is kept

    @pytest.mark.parametrize("seed", [2, 3])
    def test_kept_lift_equals_a_fresh_one(self, seed):
        rng = random.Random(1031 + seed)
        table = make_table()
        split = table._deg_shift + algebra.FIELD_BITS + 2  # as in _laurent_product
        for _ in range(10):
            f = random_laurent_geom(rng, table)
            for _ in range(4):
                g = random_laurent_geom(rng, table)
                assert representation(f * g) == representation(nested(f, g))
                assert representation(g * f) == representation(nested(g, f))
            assert f._lift == algebra._lifted(table, f._t, split)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_fused_coefficient_is_the_normal_form(self, seed):
        table = make_table()

        def key(**exps):
            return algebra._pack_named(table, exps)
        cases = [
            # a constant term: nothing is stripped
            ({0: 1, key(a0=2): 1}, key(a0=1, a1=1)),
            # the content is the whole denominator: den becomes 1
            ({key(a0=2, a1=1): 1, key(a0=3): 1}, key(a0=2)),
            ({key(a0=1): 1}, key(a0=1)),
            # a denominator key of 0
            ({key(a1=2): 1, key(a2=1): 1}, 0),
            # numerator exponents past the denominator's are capped by it
            ({key(a0=5, a1=4): 1, key(a0=4, a1=3): 1}, key(a0=1, a1=2)),
            # the least exponent sits in a later key than the first
            ({key(a0=3, a2=2): 1, key(a0=1, a2=1): 1, key(a0=2): 1}, key(a0=2, a2=2)),
        ]
        rng = random.Random(1041 + seed)
        for _ in range(40):
            nt = random_nonzero_sparse(rng, table, max_terms=3, params_only=True)._t
            # times a random monomial, so that there is content to strip
            factor = max(random_sparse(rng, table, max_terms=1, params_only=True)._t,
                         default=0)
            cases.append(({k + factor: c for k, c in nt.items()},
                          key(**{f"a{i}": rng.randint(0, 3) for i in range(3)})))
        stripped = 0
        for nt, den_key in cases:
            fused = algebra._laurent_coefficient(
                table, dict(nt), den_key, algebra._den_fields(table, den_key))
            num, den = algebra._normalised(SparsePoly._raw(table, dict(nt)),
                                           SparsePoly._raw(table, {den_key: 1}))
            assert (fused.num._t, fused.den._t) == (num._t, den._t)
            stripped += max(den._t) != den_key
        assert stripped > 10


def ordered(poly):
    """``representation`` with its key order."""
    return list(representation(poly).items())


def sparse_product(f, g):
    """The general term-by-term product of two SparsePoly values."""
    out = {}
    for k1, c1 in f._t.items():
        for k2, c2 in g._t.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return {k: r for k, c in out.items() if (r := c % 2)}


class TestProductsByOne:
    @pytest.mark.parametrize("seed", [2, 3])
    def test_a_product_by_one_is_what_the_routes_build(self, seed):
        rng = random.Random(1051 + seed)
        table = make_table()
        one = GeomPoly.one(table)
        for make in (random_laurent_geom, random_nonzero_geom):
            for _ in range(30):
                f = make(rng, table)
                routes = [nested(one, f), nested(f, one)]
                if make is random_laurent_geom:
                    routes += [GeomPoly._raw(table, algebra._laurent_product(one, f)),
                               GeomPoly._raw(table, algebra._laurent_product(f, one))]
                assert one * f is f and (f * one is f or f.is_one())
                assert all(ordered(route) == ordered(f) for route in routes)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_other_constants_are_multiplied(self, seed):
        rng = random.Random(1061 + seed)
        table = make_table()
        a0, a1 = SparsePoly.var(table, "a0"), SparsePoly.var(table, "a1")
        # one stored as (a0 + a1)/(a0 + a1): a product keeps a0 + a1 in
        # every coefficient, so it is not the other factor
        unit = GeomPoly.const(table, ParamRational(a0 + a1, a0 + a1))
        constants = [unit, GeomPoly.const(table, ParamRational(a0)),
                     GeomPoly.const(table, ParamRational(SparsePoly.const(table, 1), a1))]
        for c in constants:
            for _ in range(10):
                f = random_laurent_geom(rng, table)
                assert ordered(c * f) == ordered(nested(c, f))
                assert ordered(f * c) == ordered(nested(f, c))
        assert unit.is_one() and ordered(unit * f) != ordered(f)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_zero_factors_give_zero(self, seed):
        table = make_table()
        rng = random.Random(1071 + seed)
        for cls, x in ((GeomPoly, random_laurent_geom(rng, table)),
                       (SparsePoly, random_nonzero_sparse(rng, table))):
            one, zero = cls.const(table, 1), cls.zero(table)
            for a, b in ((one, zero), (zero, one), (x, zero), (zero, x)):
                assert (a * b).is_zero()

    @pytest.mark.parametrize("seed", [2, 3])
    def test_one_is_the_constant_one(self, seed):
        table = make_table()
        one, const = GeomPoly.one(table), GeomPoly.const(table, 1)
        assert one.is_one() and ordered(one) == ordered(const)
        geom = [table.names[i] for i in table.geom_indices]
        assert one.to_json(geom) == const.to_json(geom)

    def test_a_unit_on_another_table_is_refused(self):
        this, that = make_table(), make_table(depth=1)
        for cls in (GeomPoly, SparsePoly):
            one, x = cls.const(this, 1), cls.var(that, "x1")
            for a, b in ((one, x), (x, one)):
                with pytest.raises(TableMismatchError):
                    a * b

    @pytest.mark.parametrize("seed", [2, 3])
    def test_a_sparse_product_by_one_is_what_the_product_builds(self, seed):
        rng = random.Random(1081 + seed)
        table = make_table()
        one = SparsePoly.const(table, 1)
        others = [SparsePoly.var(table, "a0"), SparsePoly.var(table, "x1", 2)]
        for _ in range(30):
            f = random_nonzero_sparse(rng, table)
            assert one * f is f and (f * one is f or f.is_one())
            assert list((one * f)._t.items()) == list((f * one)._t.items()) == list(f._t.items())
            assert list(sparse_product(one, f).items()) == list(f._t.items())
            assert list(sparse_product(f, one).items()) == list(f._t.items())
            for c in others:
                assert (c * f)._t == sparse_product(c, f)
                assert (f * c)._t == sparse_product(f, c)


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
