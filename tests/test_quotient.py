"""Module vectors, derivation matrix, kernel and presentation machinery."""

import json
import random

import pytest

from delpezzo.algebra import Derivation, GeomPoly, ParamRational, SparsePoly
from delpezzo.quotient import (
    BaseRingS,
    DerivationNotLinearError,
    Presentation,
    SFraction,
    TTable,
    basis_monomial,
    derivation_matrix,
    jacobian,
    jacobian_minors,
    kernel_basis,
    matrix_apply,
    normal_form,
    _rref,
    to_module_vector,
    verify_presentation,
)
from delpezzo.surfaces import (
    FoliationSpec,
    QuadricChart,
    build_presentation,
    chart_table,
)
from randpoly import make_table, parse, random_laurent_geom
from test_fraction_free import deadline
from test_stages import embedded, t_poly


@pytest.fixture(scope="module")
def setup():
    quad = QuadricChart.build(0)
    fol = FoliationSpec.build("deg1", quad)
    ring = BaseRingS(quad.table, 0)
    pres = build_presentation(0)
    return quad, fol, ring, pres


def random_x_poly(rng, table, max_terms=4, x_names=("x1", "x2", "x3")):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * len(table.names)
        for name in x_names:
            exp[table.index(name)] = rng.randint(0, 3)
        exp[table.index(f"a{rng.randint(0, 3)}")] = 1
        terms[tuple(exp)] = 1
    return SparsePoly(table, terms)


def x_poly(vec, ring):
    """Inverse of to_module_vector up to a unit of K: a power d of a_elim
    and the flat d * (the coordinates against the basis monomials), with
    each u_m written back as x_m^2."""
    table = ring.table
    mixed = GeomPoly.zero(table)
    for slot, c in enumerate(vec):
        mixed = mixed + c * basis_monomial(ring, slot).as_geom()
    mixed = mixed.substituted({un: GeomPoly.var(table, xn) ** 2
                               for un, xn in zip(ring.u_names, ring.x_names)})
    elim = f"a{ring.others[-1]}"
    d = ParamRational(SparsePoly.var(
        table, elim, max(c.den.degree_in(elim) for c in mixed.terms.values())))
    return mixed.scaled(d).as_sparse(), d


class TestBaseRing:
    def test_defining_relation_reduces_to_zero(self, setup):
        _, _, ring, pres = setup
        assert ring.reduce(pres.relations["r_0"]).is_zero()

    def test_reduction_is_idempotent_and_constant_on_cosets(self, setup):
        _, _, ring, pres = setup
        tbl = ring.table
        rng = random.Random(7)
        for _ in range(10):
            f = parse(tbl, f"u1^{rng.randint(0, 2)}*u2^{rng.randint(0, 2)}"
                           f" + u3^{rng.randint(0, 2)}").as_sparse()
            g = SparsePoly.var(tbl, "u2", rng.randint(0, 2))
            # a pseudo-reduction is free of u_elim, so it reduces to itself
            assert ring.reduce(ring.pseudo_reduce(f)) == ring.pseudo_reduce(f).as_geom()
            assert ring.reduce(f + pres.relations["r_0"] * g) == ring.reduce(f)

    def test_a_value_free_of_the_eliminated_u_is_returned_itself(self, setup):
        _, _, ring, _ = setup
        f = parse(ring.table, "a0*u1^2*u2 + u2 + x1*t1 + 1").as_sparse()
        assert ring.reduce(f) == f.as_geom() and ring.pseudo_reduce(f) == f
        g = parse(ring.table, "u3^2 + u1").as_sparse()
        assert ring.reduce(g) != g.as_geom() and not ring.reduce(g).degree_in("u3")


def eliminated_free(values, ring) -> bool:
    return not any(v.degree_in(ring.elim_name) for v in values)


@pytest.mark.parametrize("chart", [0, 1, 2, 3])
def test_module_values_are_canonical_by_construction(chart):
    """Only ``to_module_vector`` reduces; every value the kernel pipeline
    builds from its output is free of the eliminated u already."""
    pres = build_presentation(chart)
    ring = BaseRingS(pres.table, chart)
    delta = FoliationSpec.build("deg1", QuadricChart.build(chart)).theta
    mat = derivation_matrix(delta, ring)
    assert eliminated_free([e for row in mat for e in row], ring)
    claimed = [to_module_vector(g, ring) for g in
               [SparsePoly.const(pres.table, 1)] + [pres.embedding[t] for t in pres.t_names]]
    kern = kernel_basis(mat, ring)
    rng = random.Random(1901 + chart)
    drawn = [to_module_vector(random_x_poly(rng, ring.table, x_names=ring.x_names), ring)
             for _ in range(4)]
    assert len(kern) == 4
    for vec in claimed + kern + drawn:
        assert len(vec) == 8 and eliminated_free(vec, ring)
        assert eliminated_free(matrix_apply(mat, vec), ring)


class TestModuleVector:
    def test_cube_rewrites_to_slot_one(self, setup):
        _, _, ring, _ = setup
        vec = to_module_vector(SparsePoly.var(ring.table, "x1", 3), ring)
        assert vec[1] == GeomPoly.var(ring.table, "u1")
        assert all(c.is_zero() for i, c in enumerate(vec) if i != 1)

    def test_kernel_generator_coordinates(self, setup):
        _, _, ring, _ = setup
        tbl = ring.table
        vec = to_module_vector(parse(tbl, "x2*x3 + x2^2*x3 + x2*x3^2").as_sparse(), ring)
        # slots: 1, x1, x2, x3, x1x2, x1x3, x2x3, x1x2x3
        assert vec[6].is_one()
        assert vec[3] == GeomPoly.var(tbl, "u2")
        # u3 is the eliminated variable, so compare canonical forms in S
        assert vec[2] == ring.reduce(SparsePoly.var(tbl, "u3"))
        assert all(vec[i].is_zero() for i in (0, 1, 4, 5, 7))

    def test_quadric_image_is_the_defining_relation(self, setup):
        quad, _, ring, _ = setup
        assert all(c.is_zero() for c in to_module_vector(quad.q, ring))

    def test_round_trip(self, setup):
        _, _, ring, _ = setup
        rng = random.Random(11)
        for _ in range(10):
            f = random_x_poly(rng, ring.table)
            vec = to_module_vector(f, ring)
            flat, d = x_poly(vec, ring)
            assert to_module_vector(flat, ring) == tuple(c.scaled(d) for c in vec)

    def test_rejects_foreign_variables(self, setup):
        _, _, ring, _ = setup
        with pytest.raises(ValueError):
            to_module_vector(SparsePoly.var(ring.table, "t1"), ring)


class TestDerivationMatrix:
    def test_distinguished_columns(self, setup):
        _, fol, ring, _ = setup
        tbl = ring.table
        mat = derivation_matrix(fol.theta, ring)
        assert all(mat[i][0].is_zero() for i in range(8))
        assert mat[0][1] == GeomPoly.var(tbl, "u1") and mat[1][1].is_one()
        assert all(mat[i][1].is_zero() for i in range(8) if i not in (0, 1))
        # last column: the triple product column of the block matrix;
        # u3 is eliminated, so its entry is compared with u3's canonical form
        assert mat[4][7] == ring.reduce(SparsePoly.var(tbl, "u3"))
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
            # a product of canonical values is canonical: no reduction
            assert acc.is_zero()

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
            assert vec[j].is_one()
            assert all(c.is_zero() for i, c in enumerate(vec) if i != j)

    def test_foliation_kernel_structure(self, setup):
        _, fol, ring, _ = setup
        mat = derivation_matrix(fol.theta, ring)
        basis = kernel_basis(mat, ring)
        assert len(basis) == 4
        for vec in basis:
            assert all(c.is_zero() for c in matrix_apply(mat, vec))
            # block shape: last coordinate zero, x-block = B * (xx-block)
            assert vec[7].is_zero()
            for i in range(3):
                acc = GeomPoly.zero(ring.table)
                for j in range(3):
                    acc = acc + mat[1 + i][4 + j] * vec[4 + j]
                assert vec[1 + i] == acc


def reference_rref(rows, width: int):
    """The elimination that computed the pivot columns too: the pivot as
    p * p^-1 and the other rows' entries as a - a * 1."""
    nrows = len(rows)
    pivots = []
    r = 0
    for col in range(width):
        pivot_row = None
        for i in range(r, nrows):
            if not rows[i][col].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [e if e.is_zero() else e * inv for e in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][col].is_zero():
                factor = rows[i][col]
                rows[i] = [a if b.is_zero() else a - factor * b
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots


def parts(x):
    """An SFraction's num and den term maps, each coefficient as its maps."""
    return tuple({k: (c.num._t, c.den._t) for k, c in g._t.items()} for g in (x.num, x.den))


def same_elimination(rows, width: int) -> list:
    """``_rref`` and ``reference_rref`` on copies of rows: equal pivots,
    equal entries off the pivot columns, and each pivot column exactly e_r
    with the (1, 1) and (0, 1) representations."""
    new, old = [list(row) for row in rows], [list(row) for row in rows]
    pivots = _rref(new, width)
    assert pivots == reference_rref(old, width)
    one = parts(SFraction(GeomPoly.one(rows[0][0].table)))[0]
    for r, (row, ref) in enumerate(zip(new, old)):
        for col, (x, y) in enumerate(zip(row, ref)):
            if col in pivots:
                assert parts(x) == ((one if pivots.index(col) == r else {}), one)
            else:
                assert str(x) == str(y) and parts(x) == parts(y)
    return pivots


def span_rows(basis, target) -> list:
    """The system ``_solve_span`` eliminates: basis | target, by rows."""
    return [[SFraction(v[i]) for v in (*basis, *target)] for i in range(8)]


class TestPivotColumns:
    @pytest.mark.parametrize("chart", [0, 1, 2, 3])
    @pytest.mark.parametrize("control", [False, True], ids=["deg1", "zero"])
    def test_eliminations_equal_the_computed_ones(self, chart, control):
        pres = build_presentation(chart)
        ring = BaseRingS(pres.table, chart)
        delta = (Derivation(pres.table, {}) if control
                 else FoliationSpec.build("deg1", QuadricChart.build(chart)).theta)
        mat = derivation_matrix(delta, ring)
        kern = kernel_basis(mat, ring)
        claimed = [to_module_vector(g, ring) for g in
                   [SparsePoly.const(pres.table, 1)] + [pres.embedding[t] for t in pres.t_names]]
        ranks = [len(same_elimination([[SFraction(e) for e in row] for row in mat], 8)),
                 len(same_elimination(span_rows(kern, claimed), len(kern))),
                 len(same_elimination(span_rows(claimed, kern), 4))]
        assert ranks == ([0, 8, 4] if control else [4, 4, 4])

    # the draw from seed 3 swells past the deadline (unreduced fractions)
    @pytest.mark.parametrize("seed", [2])
    def test_rank_deficient_matrices(self, seed):
        rng = random.Random(1501 + seed)
        table = make_table()
        # single-term entries: fractions are never gcd-reduced, so larger
        # ones swell past what a test can afford
        for _ in range(3):
            base = [[random_laurent_geom(rng, table, max_terms=1) if rng.random() < 0.6
                     else GeomPoly.zero(table) for _ in range(7)] for _ in range(3)]
            g, h = (random_laurent_geom(rng, table, max_terms=1) for _ in range(2))
            rows = base + [[x * g + y for x, y in zip(base[0], base[1])],
                           [x * h for x in base[2]]]
            rng.shuffle(rows)
            # wrong products make the entries swell without bound
            with deadline(30):
                pivots = same_elimination([[SFraction(e) for e in row] for row in rows], 7)
            assert len(pivots) == 3


class TestPresentation:
    def test_verifies_cleanly(self, setup):
        _, fol, ring, pres = setup
        checks = verify_presentation(pres, ring, fol.theta)
        assert checks and all(c.passed for c in checks)

    def test_tampered_relation_fails_loudly(self, setup):
        _, fol, ring, pres = setup
        bad = dict(pres.relations)
        bad["r_1"] = bad["r_1"] + SparsePoly.var(pres.table, "u1")
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
    def t_value(self, pres, text):
        return normal_form(parse(pres.table, text).as_sparse(), TTable(pres))

    def test_square_rewrites(self, setup):
        _, _, _, pres = setup
        t1 = self.t_value(pres, "t1")
        assert (t1 * t1).coords == self.t_value(pres, "u2*u3 + u2*u3^2 + u2^2*u3").coords

    def test_mixed_product_rewrites(self, setup):
        _, _, _, pres = setup
        product = self.t_value(pres, "t2") * self.t_value(pres, "t3")
        expected = self.t_value(pres, "u1*u2*u3 + u1*t1 + u1^2*t1 + u1*u2*t2 + u1*u3*t3")
        assert product.coords == expected.coords

    def test_idempotent_and_consistent_with_embedding(self, setup):
        _, _, ring, pres = setup
        tbl = pres.table
        t_table = TTable(pres)
        rng = random.Random(17)
        one = SparsePoly.const(tbl, 1)
        for _ in range(6):
            f = one
            nf = self.t_value(pres, "1")
            for _ in range(rng.randint(1, 3)):
                name = rng.choice(["u1", "u2", "u3", "t1", "t2", "t3"])
                f = f * (SparsePoly.var(tbl, name) + one)
                nf = nf * self.t_value(pres, f"{name} + 1")
            assert normal_form(t_poly(pres, nf), t_table).coords == nf.coords
            assert embedded(t_poly(pres, nf), pres, ring) == embedded(f, pres, ring)

    def test_products_agree_through_the_embedding(self, setup):
        _, _, ring, pres = setup
        tbl = pres.table
        rng = random.Random(19)
        for _ in range(4):
            f = parse(tbl, f"t1 + t{rng.randint(2, 3)} + u{rng.randint(1, 3)}").as_sparse()
            g = parse(tbl, f"t{rng.randint(1, 3)} + t2 + u1*u2").as_sparse()
            x, y = (self.t_value(pres, str(v)) for v in (f, g))
            assert embedded(t_poly(pres, x * y), pres, ring) == embedded(f * g, pres, ring)
            assert embedded(t_poly(pres, (x * y) * x), pres, ring) == \
                embedded(f * g * f, pres, ring)

    def test_missing_rule_is_an_error(self, setup):
        _, _, _, pres = setup
        relations = {n: r for n, r in pres.relations.items() if n != "r_4"}
        with pytest.raises(ArithmeticError, match="the relations rewrite 5 of the 6 t-pairs"):
            TTable(pres._replace(relations=relations))
        t1 = SparsePoly.var(pres.table, "t1")
        with pytest.raises(ArithmeticError, match="not t-linear"):
            normal_form(t1 * t1, TTable(pres))


class TestJacobianMinors:
    def test_single_entries(self, setup):
        _, _, _, pres = setup
        tbl = pres.table
        rels = list(pres.relations.values())
        (_, d_r1_u2), = jacobian_minors(jacobian([rels[1]], ["u2"]), 1)
        assert d_r1_u2 == parse(tbl, "u3 + u3^2").as_sparse()
        for m, name in ((1, "u1"), (2, "u2"), (3, "u3")):
            (_, entry), = jacobian_minors(jacobian([rels[0]], [name]), 1)
            assert entry == SparsePoly.var(tbl, f"a{m}")

    def test_lower_block_minors_are_relations(self, setup):
        _, _, ring, pres = setup
        rels = list(pres.relations.values())
        minors = jacobian_minors(jacobian(rels[4:], ["t1", "t2", "t3"]), 2)
        t_table = TTable(pres)
        entries = [[normal_form(rel.partial(t), t_table) for t in pres.t_names]
                   for rel in rels[4:]]
        values = jacobian_minors(entries, 2)
        assert len(minors) == len(values) == 9
        relation_polys = list(pres.relations.values())[1:]
        for (_, minor), (_, value) in zip(minors, values, strict=True):
            assert any(minor == rel for rel in relation_polys)
            assert all(ring.reduce(c).is_zero() for c in value.coords)

    def test_size_validation(self, setup):
        _, _, _, pres = setup
        rels = list(pres.relations.values())
        with pytest.raises(ValueError):
            jacobian_minors(jacobian(rels, ["u1"]), 2)

    def test_parameter_variable_rejected(self, setup):
        _, _, _, pres = setup
        # a GeomPoly holds the parameters in its coefficients
        rels = [rel.as_geom() for rel in pres.relations.values()]
        with pytest.raises(ValueError, match="not a geometric variable"):
            jacobian_minors(jacobian(rels, ["a0"]), 1)
