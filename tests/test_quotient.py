"""Module vectors, derivation matrix, kernel and presentation machinery."""

import json
import random

import pytest

from delpezzo.algebra import Derivation, GeomPoly, ParamRational, parse
from delpezzo.quotient import (
    BaseRingS,
    DerivationNotLinearError,
    ModuleVector,
    Presentation,
    basis_monomial,
    derivation_matrix,
    jacobian_minors,
    kernel_basis,
    matrix_apply,
    normal_form,
    t_coordinates,
    to_module_vector,
    verify_presentation,
)
from delpezzo.surfaces import (
    FoliationSpec,
    QuadricChart,
    build_presentation,
    chart_table,
)


@pytest.fixture(scope="module")
def setup():
    quad = QuadricChart.build(0)
    fol = FoliationSpec.build("deg1", quad)
    ring = BaseRingS(quad.table, 0)
    pres = build_presentation(0)
    return quad, fol, ring, pres


def random_x_poly(rng, table, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * len(table.names)
        for name in ("x1", "x2", "x3"):
            exp[table.index(name)] = rng.randint(0, 3)
        terms[tuple(exp)] = ParamRational.var(table, f"a{rng.randint(0, 3)}")
    return GeomPoly(table, terms)


def x_poly(vec):
    """Inverse of to_module_vector: the coordinates against the basis
    monomials, with each u_m written back as x_m^2."""
    ring = vec.ring
    mixed = GeomPoly.zero(ring.table)
    for slot, c in enumerate(vec.coords):
        mixed = mixed + c * basis_monomial(ring, slot)
    return mixed.substituted({un: GeomPoly.var(ring.table, xn) ** 2
                              for un, xn in zip(ring.u_names, ring.x_names)})


class TestBaseRing:
    def test_defining_relation_reduces_to_zero(self, setup):
        _, _, ring, pres = setup
        assert ring.is_zero(pres.relations["r_0"])

    def test_reduction_is_idempotent_and_constant_on_cosets(self, setup):
        _, _, ring, pres = setup
        tbl = ring.table
        rng = random.Random(7)
        for _ in range(10):
            f = parse(tbl, f"u1^{rng.randint(0, 2)}*u2^{rng.randint(0, 2)}"
                           f" + u3^{rng.randint(0, 2)}")
            g = GeomPoly.var(tbl, "u2", rng.randint(0, 2))
            assert ring.reduce(ring.reduce(f)) == ring.reduce(f)
            assert ring.eq(f + pres.relations["r_0"] * g, f)


class TestModuleVector:
    def test_cube_rewrites_to_slot_one(self, setup):
        _, _, ring, _ = setup
        vec = to_module_vector(GeomPoly.var(ring.table, "x1", 3), ring)
        assert vec.coords[1] == GeomPoly.var(ring.table, "u1")
        assert all(c.is_zero() for i, c in enumerate(vec.coords) if i != 1)

    def test_kernel_generator_coordinates(self, setup):
        _, _, ring, _ = setup
        tbl = ring.table
        vec = to_module_vector(parse(tbl, "x2*x3 + x2^2*x3 + x2*x3^2"), ring)
        # slots: 1, x1, x2, x3, x1x2, x1x3, x2x3, x1x2x3
        assert vec.coords[6].is_one()
        assert vec.coords[3] == GeomPoly.var(tbl, "u2")
        # u3 is the eliminated variable, so compare inside S
        assert ring.eq(vec.coords[2], GeomPoly.var(tbl, "u3"))
        assert all(vec.coords[i].is_zero() for i in (0, 1, 4, 5, 7))

    def test_quadric_image_is_the_defining_relation(self, setup):
        quad, _, ring, _ = setup
        assert to_module_vector(quad.q, ring).is_zero()

    def test_round_trip(self, setup):
        _, _, ring, _ = setup
        rng = random.Random(11)
        for _ in range(10):
            f = random_x_poly(rng, ring.table)
            vec = to_module_vector(f, ring)
            assert to_module_vector(x_poly(vec), ring) == vec

    def test_rejects_foreign_variables(self, setup):
        _, _, ring, _ = setup
        with pytest.raises(ValueError):
            to_module_vector(GeomPoly.var(ring.table, "t1"), ring)


class TestDerivationMatrix:
    def test_distinguished_columns(self, setup):
        _, fol, ring, _ = setup
        tbl = ring.table
        mat = derivation_matrix(fol.theta, ring)
        assert all(mat[i][0].is_zero() for i in range(8))
        assert mat[0][1] == GeomPoly.var(tbl, "u1") and mat[1][1].is_one()
        assert all(mat[i][1].is_zero() for i in range(8) if i not in (0, 1))
        # last column: the triple product column of the block matrix;
        # u3 is eliminated, so its entry is compared inside S
        assert ring.eq(mat[4][7], GeomPoly.var(tbl, "u3"))
        assert mat[5][7] == GeomPoly.var(tbl, "u2")
        assert mat[6][7] == GeomPoly.var(tbl, "u1")
        assert mat[7][7].is_one()

    def test_block_product_vanishes(self, setup):
        _, fol, ring, _ = setup
        mat = derivation_matrix(fol.theta, ring)
        # row block A = (u1, u2, u3) against column block B
        for j in range(3):
            acc = GeomPoly.zero(ring.table)
            for k in range(3):
                acc = acc + mat[0][1 + k] * mat[1 + k][4 + j]
            assert ring.is_zero(acc)

    def test_matrix_matches_action(self, setup):
        _, fol, ring, _ = setup
        rng = random.Random(13)
        for _ in range(8):
            f = random_x_poly(rng, ring.table)
            mat = derivation_matrix(fol.theta, ring)
            assert matrix_apply(mat, to_module_vector(f, ring)) == \
                to_module_vector(fol.theta(f), ring)

    def test_non_linear_derivation_reports_generator(self, setup):
        quad, _, ring, _ = setup
        theta2 = FoliationSpec.build("deg2", quad).theta
        with pytest.raises(DerivationNotLinearError, match="a0"):
            derivation_matrix(theta2, ring)


class TestKernel:
    def test_identity_matrix_has_empty_kernel(self, setup):
        _, _, ring, _ = setup
        tbl = ring.table
        one, zero = GeomPoly.one(tbl), GeomPoly.zero(tbl)
        identity = [[one if i == j else zero for j in range(8)] for i in range(8)]
        assert kernel_basis(identity, ring) == []

    def test_zero_matrix_has_unit_kernel(self, setup):
        _, _, ring, _ = setup
        zero = GeomPoly.zero(ring.table)
        mat = [[zero] * 8 for _ in range(8)]
        basis = kernel_basis(mat, ring)
        assert len(basis) == 8
        for j, vec in enumerate(basis):
            assert vec.coords[j].is_one()
            assert all(c.is_zero() for i, c in enumerate(vec.coords) if i != j)

    def test_foliation_kernel_structure(self, setup):
        _, fol, ring, _ = setup
        mat = derivation_matrix(fol.theta, ring)
        basis = kernel_basis(mat, ring)
        assert len(basis) == 4
        for vec in basis:
            assert matrix_apply(mat, vec).is_zero()
            # block shape: last coordinate zero, x-block = B * (xx-block)
            assert vec.coords[7].is_zero()
            for i in range(3):
                acc = GeomPoly.zero(ring.table)
                for j in range(3):
                    acc = acc + mat[1 + i][4 + j] * vec.coords[4 + j]
                assert ring.eq(vec.coords[1 + i], acc)


class TestPresentation:
    def test_verifies_cleanly(self, setup):
        _, fol, ring, pres = setup
        checks = verify_presentation(pres, ring, fol.theta)
        assert checks and all(c.passed for c in checks)

    def test_tampered_relation_fails_loudly(self, setup):
        _, fol, ring, pres = setup
        bad = dict(pres.relations)
        bad["r_1"] = bad["r_1"] + GeomPoly.var(pres.table, "u1")
        tampered = Presentation(chart=pres.chart, generators=pres.generators,
                                relations=bad, embedding=pres.embedding,
                                table=pres.table)
        checks = verify_presentation(tampered, ring, fol.theta)
        failed = [c.name for c in checks if not c.passed]
        assert failed == ["relation_vanishes[r_1]"]

    def test_json_round_trip(self, setup):
        _, fol, ring, pres = setup
        payload = pres.to_json()
        again = Presentation.from_json(payload, chart_table(0))
        assert json.dumps(payload, sort_keys=True) == \
            json.dumps(again.to_json(), sort_keys=True)
        checks = verify_presentation(again, ring, fol.theta)
        assert all(c.passed for c in checks)


class TestNormalForm:
    def test_square_rewrites(self, setup):
        _, _, _, pres = setup
        tbl = pres.table
        t1 = GeomPoly.var(tbl, "t1")
        assert normal_form(t1 * t1, pres) == \
            parse(tbl, "u2*u3 + u2*u3^2 + u2^2*u3")

    def test_mixed_product_rewrites(self, setup):
        _, _, _, pres = setup
        tbl = pres.table
        f = GeomPoly.var(tbl, "t2") * GeomPoly.var(tbl, "t3")
        expected = parse(
            tbl, "u1*u2*u3 + u1*t1 + u1^2*t1 + u1*u2*t2 + u1*u3*t3")
        assert normal_form(f, pres) == expected

    def test_idempotent_and_consistent_with_embedding(self, setup):
        _, _, ring, pres = setup
        tbl = pres.table
        rng = random.Random(17)
        for _ in range(6):
            f = GeomPoly.one(tbl)
            for _ in range(rng.randint(1, 3)):
                name = rng.choice(["u1", "u2", "u3", "t1", "t2", "t3"])
                f = f * (GeomPoly.var(tbl, name) + GeomPoly.one(tbl))
            nf = normal_form(f, pres)
            assert normal_form(nf, pres) == nf
            lhs = to_module_vector(nf.substituted(pres.embedding), ring)
            rhs = to_module_vector(f.substituted(pres.embedding), ring)
            assert lhs == rhs

    def test_products_agree_through_the_embedding(self, setup):
        _, _, ring, pres = setup
        tbl = pres.table
        rng = random.Random(19)
        for _ in range(4):
            f = parse(tbl, f"t1*t{rng.randint(2, 3)} + u{rng.randint(1, 3)}")
            g = parse(tbl, f"t{rng.randint(1, 3)}^2 + t2")
            direct = normal_form(f * g, pres)
            stepwise = normal_form(normal_form(f, pres) * normal_form(g, pres), pres)
            assert direct == stepwise


    def test_missing_rule_is_an_error(self, setup):
        _, _, _, pres = setup
        t1 = GeomPoly.var(pres.table, "t1")
        with pytest.raises(ValueError):
            normal_form(t1 * t1, pres, rules=[])


class TestJacobianMinors:
    def test_single_entries(self, setup):
        _, _, _, pres = setup
        tbl = pres.table
        rels = list(pres.relations.values())
        (_, d_r1_u2), = jacobian_minors([rels[1]], ["u2"], 1)
        assert d_r1_u2 == parse(tbl, "u3 + u3^2")
        for m, name in ((1, "u1"), (2, "u2"), (3, "u3")):
            (_, entry), = jacobian_minors([rels[0]], [name], 1)
            assert entry == GeomPoly.const(tbl, ParamRational.var(tbl, f"a{m}"))

    def test_lower_block_minors_are_relations(self, setup):
        _, _, ring, pres = setup
        rels = list(pres.relations.values())
        minors = jacobian_minors(rels[4:], ["t1", "t2", "t3"], 2)
        assert len(minors) == 9
        relation_polys = list(pres.relations.values())[1:]
        for _, minor in minors:
            assert any(minor == rel for rel in relation_polys)
            coords = t_coordinates(minor, pres)
            assert all(ring.is_zero(c) for c in coords)

    def test_size_validation(self, setup):
        _, _, _, pres = setup
        rels = list(pres.relations.values())
        with pytest.raises(ValueError):
            jacobian_minors(rels, ["u1"], 2)

    def test_parameter_variable_rejected(self, setup):
        _, _, _, pres = setup
        rels = list(pres.relations.values())
        with pytest.raises(ValueError, match="not a geometric variable"):
            jacobian_minors(rels, ["a0"], 1)
