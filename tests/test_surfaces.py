"""Geometric verification suite: foliations, presentation, locus, cusp."""

from itertools import permutations

import pytest

from delpezzo.algebra import (
    Derivation,
    GeomPoly,
    ParamRational,
    exact_divide,
    parse,
)
from delpezzo.quotient import BaseRingS, derivation_matrix, jacobian_minors, kernel_basis
from delpezzo.reports import failures
from delpezzo.surfaces import (
    FoliationSpec,
    QuadricChart,
    build_presentation,
    check_fibre_injectivity,
    check_ideal_preserved,
    check_p_closure,
    cusp_curve,
    field_of_constants_check,
    frobenius_factorization_check,
    quotient_presentation,
    reducedness_witness,
    singular_locus,
)

CHARTS = (0, 1, 2, 3)

# chart-0 relations of the quotient ring, written out in full
EXPECTED_RELATIONS = {
    "r_0": "a0 + a1*u1 + a2*u2 + a3*u3",
    "r_1": "t1^2 + u2*u3 + u2*u3^2 + u2^2*u3",
    "r_2": "t2^2 + u1*u3 + u1^2*u3 + u1*u3^2",
    "r_3": "t3^2 + u1*u2 + u1^2*u2 + u1*u2^2",
    "r_4": "t2*t3 + u1*u2*u3 + u1*t1 + u1^2*t1 + u1*u2*t2 + u1*u3*t3",
    "r_5": "t1*t3 + u1*u2*u3 + u1*u2*t1 + u2*t2 + u2^2*t2 + u2*u3*t3",
    "r_6": "t1*t2 + u1*u2*u3 + u1*u3*t1 + u2*u3*t2 + u3*t3 + u3^2*t3",
}


def det3_oracle(m):
    # independent determinant: signed permutation expansion
    acc = None
    for perm in permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        term = m[0][perm[0]] * m[1][perm[1]] * m[2][perm[2]]
        term = term if sign == 1 else -term
        acc = term if acc is None else acc + term
    return acc


class TestQuadricChart:
    @pytest.mark.parametrize("i0", CHARTS)
    def test_dehomogenisation(self, i0):
        assert QuadricChart.build(i0).dehomogenisation_check().passed


class TestFoliationAxioms:
    @pytest.mark.parametrize("i0", CHARTS)
    @pytest.mark.parametrize("kind", ("deg1", "deg2"))
    def test_p_closure(self, kind, i0):
        fol = FoliationSpec.build(kind, QuadricChart.build(i0))
        assert not failures(check_p_closure(fol))

    def test_p_closure_negative_control(self):
        tbl = QuadricChart.build(0).table
        delta = Derivation(tbl, {"x1": GeomPoly.var(tbl, "x1"),
                                 "x2": GeomPoly.one(tbl)})
        x2 = GeomPoly.var(tbl, "x2")
        assert delta(delta(x2)) != delta(x2)

    @pytest.mark.parametrize("i0", CHARTS)
    def test_ideal_preserved_with_expected_cofactors(self, i0):
        quad = QuadricChart.build(i0)
        tbl = quad.table
        deg1 = FoliationSpec.build("deg1", quad)
        assert exact_divide(deg1.theta(quad.q), quad.q).is_zero()
        deg2 = FoliationSpec.build("deg2", quad)
        envelope = GeomPoly.one(tbl)
        for m in range(4):
            if m != i0:
                envelope = envelope + GeomPoly.var(tbl, f"x{m}")
        assert exact_divide(deg2.theta(quad.q), quad.q) == envelope
        assert not failures(check_ideal_preserved(deg1))
        assert not failures(check_ideal_preserved(deg2))

    def test_ideal_preservation_negative_control(self):
        tbl = QuadricChart.build(0).table
        not_preserved = parse(tbl, "a0 + x1")
        delta = Derivation(tbl, {"x1": GeomPoly.one(tbl)})
        assert exact_divide(delta(not_preserved), not_preserved) is None

    def test_field_of_constants(self):
        quad = QuadricChart.build(0)
        tbl = quad.table
        assert not failures(field_of_constants_check(FoliationSpec.build("deg1", quad)))
        deg2 = FoliationSpec.build("deg2", quad)
        results = {c.name: c for c in field_of_constants_check(deg2)}
        assert results["kills[a0*a1]"].passed
        assert results["moves[a0]"].passed
        moved = deg2.theta(GeomPoly.const(tbl, ParamRational.var(tbl, "a0")))
        expected = parse(tbl, "a0 + a0*x1 + a0*x2 + a0*x3")
        assert moved == expected


class TestFibreInjectivity:
    def test_all_checks_pass(self):
        assert not failures(check_fibre_injectivity())

    def test_minor_shape(self):
        tbl = QuadricChart.build(0).table
        X0, X1 = GeomPoly.var(tbl, "X0"), GeomPoly.var(tbl, "X1")
        assert X0 ** 2 * X1 - X1 ** 2 * X0 == X0 * X1 * (X0 + X1)

    def test_every_indicator_point_misses_the_quadric(self):
        results = check_fibre_injectivity()
        points = [c for c in results if c.name.startswith("point_off_quadric")]
        assert len(points) == 15 and all(c.passed for c in points)


class TestPresentation:
    def test_chart_zero_relations_are_the_expected_ones(self):
        pres = build_presentation(0)
        assert list(pres.relations) == [f"r_{i}" for i in range(7)]
        for name, text in EXPECTED_RELATIONS.items():
            assert pres.relations[name] == parse(pres.table, text), name
        assert pres.embedding["t1"] == parse(pres.table,
                                             "x2*x3 + x2^2*x3 + x2*x3^2")
        assert pres.embedding["u2"] == parse(pres.table, "x2^2")

    @pytest.mark.parametrize("i0", CHARTS)
    def test_verifies_on_every_chart(self, i0):
        fol = FoliationSpec.build("deg1", QuadricChart.build(i0))
        _, checks = quotient_presentation(fol)
        assert checks and not failures(checks)

    def test_deg2_presentation_out_of_scope(self):
        fol = FoliationSpec.build("deg2", QuadricChart.build(0))
        with pytest.raises(ValueError):
            quotient_presentation(fol)

    @pytest.mark.parametrize("i0", CHARTS)
    def test_factorisation_degrees(self, i0):
        fol = FoliationSpec.build("deg1", QuadricChart.build(i0))
        ring = BaseRingS(fol.chart.table, i0)
        kern = kernel_basis(derivation_matrix(fol.theta, ring), ring)
        triple, checks = frobenius_factorization_check(ring, kern)
        assert triple == (8, 4, 2)
        assert not failures(checks)


@pytest.fixture(scope="module")
def locus():
    pres = build_presentation(0)
    return pres, singular_locus(pres)


@pytest.fixture(scope="module")
def cusp():
    return cusp_curve()


class TestSingularLocus:
    def test_all_checks_pass(self, locus):
        _, checks = locus
        assert not failures(checks)

    def test_every_minor_divisible(self, locus):
        _, checks = locus
        named = {c.name: c for c in checks}
        blanket = named["minors_divisible_by_h"]
        assert blanket.passed and "525 minors" in blanket.witness

    def test_block_minors_factor_through_h(self):
        pres = build_presentation(0)
        tbl = pres.table
        ring = BaseRingS(tbl, 0)
        h = ring.reduce(parse(tbl, "a0 + a1*u1^2 + a2*u2^2 + a3*u3^2"))
        rels = list(pres.relations.values())
        minors = dict(jacobian_minors(rels[:4], ["u1", "u2", "u3"], 3))
        assert ring.is_zero(minors[((1, 2, 3), (0, 1, 2))])
        for dropped, m in ((1, 1), (2, 2), (3, 3)):
            rows = tuple(sorted(set(range(4)) - {dropped}))
            cof = parse(tbl, f"u{m} + u{m}^2")
            assert ring.eq(minors[(rows, (0, 1, 2))], cof * h)
            quotient = exact_divide(ring.reduce(minors[(rows, (0, 1, 2))]), h)
            assert quotient is not None and ring.eq(quotient, cof)

    def test_unit_certificate_enumerates_all_sums(self, locus):
        _, checks = locus
        eps = [c for c in checks if c.name.startswith("unit_certificate")]
        assert len(eps) == 8 and all(c.passed for c in eps)

    @pytest.mark.parametrize("i0", (1, 2, 3))
    def test_chart_symmetry(self, i0):
        assert not failures(singular_locus(build_presentation(i0)))


class TestCuspCurve:
    def test_all_checks_pass(self, cusp):
        _, checks = cusp
        assert not failures(checks)

    def test_low_order_coefficients(self, cusp):
        report, _ = cusp
        assert report.coefficients["c_20"].is_zero()
        assert report.coefficients["c_30"].is_zero()
        assert not report.coefficients["c_10"].is_zero()

    def test_coefficient_relation_all_pairs(self, cusp):
        report, _ = cusp
        c = report.coefficients
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                lhs = c[f"c_{i}1"] * c[f"c_{j}3"]
                rhs = c[f"c_{j}1"] * c[f"c_{i}3"]
                assert lhs == rhs, (i, j)

    def test_cramer_identity_against_independent_determinant(self, cusp):
        report, _ = cusp
        det_a = det3_oracle(report.cramer_a)
        det_a1 = det3_oracle(report.cramer_a1)
        assert det_a == report.det_a and det_a1 == report.det_a1
        lhs = ParamRational(det_a1) ** 4 * report.coefficients["c_13"]
        rhs = ParamRational(det_a) ** 4 * report.coefficients["c_11"]
        assert lhs == rhs

    def test_cusp_coordinate_squares_to_the_ratio(self, cusp):
        report, _ = cusp
        ratio = report.coefficients["c_11"] / report.coefficients["c_13"]
        assert report.cusp_u * report.cusp_u == ratio

    def test_curve_relation_shape(self, cusp):
        report, _ = cusp
        rel = report.curve_relation
        assert rel.degree_in("s") == 2 and rel.degree_in("u1") == 3
        assert rel.coefficient({"s": 2}).is_one()
        assert rel.coefficient({"u1": 1}) == report.coefficients["c_11"]
        assert rel.coefficient({"u1": 3}) == report.coefficients["c_13"]

    def test_report_serialises(self, cusp):
        report, _ = cusp
        payload = report.to_json()
        assert payload["root_depth"] == 3
        assert set(payload["cramer"]) == {"A", "A_1", "b", "det_A", "det_A_1"}


class TestReducednessWitness:
    def test_all_checks_pass(self):
        checks = reducedness_witness()
        assert not failures(checks)
        named = {c.name: c for c in checks}
        assert "evaluation_nonzero" in named
