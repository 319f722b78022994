"""The fraction-free singular-locus route: the flat ``SparsePoly`` primitives
it runs on, a cross-check against the same generic functions called on
``GeomPoly`` values with rational coefficients, and the guards that stop
the scan with ArithmeticError (exit 3) instead of reporting a FAIL."""

import random
from dataclasses import replace

import pytest

from delpezzo import cli, surfaces
from delpezzo.algebra import (
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
)
from delpezzo.surfaces import build_presentation, others, singular_locus, undivided_minors
from randpoly import make_table, random_nonzero_sparse, random_sparse
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
