"""Exact arithmetic kernel: worked examples and randomized axioms."""

import random

import pytest

from delpezzo.algebra import (
    GEOM,
    PARAM,
    Derivation,
    GeomPoly,
    ParamRational,
    RootDepthError,
    SparsePoly,
    TableMismatchError,
    VarTable,
    ZeroDenominatorError,
    dot,
    exact_divide,
    parse,
    root_monomial,
    strip_common_monomial,
)
from randpoly import (
    check_exact_divide_round_trip,
    check_frobenius_endomorphism,
    check_geom_ring_axioms,
    check_leibniz,
    check_rational_equivalence,
    check_sparse_ring_axioms,
    make_table,
    random_geom,
)


def table(depth=0):
    names = ["a0", "a1", "a2", "a3", "x1", "x2", "x3", "u1", "u2", "u3"]
    return VarTable(names, [PARAM] * 4 + [GEOM] * 6, root_depth=depth)


def theta_p(tbl):
    return Derivation(tbl, {f"x{m}": parse(tbl, f"x{m} + x{m}^2") for m in (1, 2, 3)})


def quadric(tbl):
    scale = 2 ** tbl.root_depth
    return parse(tbl, f"a0^{scale} + a1^{scale}*x1^2 + a2^{scale}*x2^2 + a3^{scale}*x3^2")


class TestPrimeField:
    def test_char_two_self_cancellation(self):
        tbl = table()
        f = SparsePoly.var(tbl, "a0") + SparsePoly.const(tbl, 1)
        assert (f + f).is_zero()

    def test_integer_coefficients_reduce_mod_two(self):
        tbl = table()
        one, a0 = SparsePoly.const(tbl, 1), SparsePoly.var(tbl, "a0")
        exp = (1,) + (0,) * 9
        for c in (1, 3, -1, -7):
            assert SparsePoly.const(tbl, c) == one
            assert SparsePoly.monomial(tbl, {"a0": 1}, c) == a0
            assert SparsePoly(tbl, {exp: c}) == a0
        for c in (0, 2, -4):
            assert SparsePoly.const(tbl, c).is_zero()
            assert SparsePoly.monomial(tbl, {"a0": 1}, c).is_zero()
            assert SparsePoly(tbl, {exp: c}).is_zero()

    @pytest.mark.parametrize("c", [1.5, 1.0, True, False, "1", None],
                             ids=["float", "integral-float", "true", "false", "str", "none"])
    def test_non_integer_coefficients_rejected(self, c):
        tbl = table()
        exp = (1,) + (0,) * 9
        with pytest.raises(ValueError, match="must be an integer"):
            SparsePoly(tbl, {exp: c})
        with pytest.raises(ValueError, match="must be an integer"):
            SparsePoly.const(tbl, c)
        with pytest.raises(ValueError, match="must be an integer"):
            SparsePoly.monomial(tbl, {"a0": 1}, c)
        with pytest.raises(ValueError, match="must be an integer"):
            SparsePoly.from_json(tbl, [{"coeff": c, "exponents": list(exp)}], tbl.names)


class TestVarTable:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            VarTable(["a", "a"], [PARAM, GEOM])

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            table().index("y9")

    def test_mismatched_tables_rejected(self):
        t1, t2 = table(), table(depth=1)
        with pytest.raises(TableMismatchError):
            parse(t1, "x1") + parse(t2, "x1")
        x1, x2 = parse(t1, "x1").as_sparse(), parse(t2, "x1").as_sparse()
        for on, pair in ((t1, (x1, x2)), (t2, (x1, x1))):
            with pytest.raises(TableMismatchError):
                dot(on, [pair])
        # an equal table that is another object is the same table
        assert dot(table(), [(x1, x1)]) == x1 * x1


class TestPolyMul:
    def test_char_two_squaring(self):
        tbl = table()
        f = parse(tbl, "x1 + x2")
        assert f * f == parse(tbl, "x1^2 + x2^2")

    def test_multiplicative_identity(self):
        tbl = table()
        f = parse(tbl, "a0*x1^2 + x2*x3 + 1")
        assert GeomPoly.one(tbl) * f == f

    def test_kernel_generator_square(self):
        # cross terms cancel pairwise in characteristic two
        tbl = table()
        f = parse(tbl, "x2*x3 + x2^2*x3 + x2*x3^2")
        expected = parse(tbl, "x2^2*x3^2 + x2^4*x3^2 + x2^2*x3^4")
        assert f * f == expected
        # independent route: squaring is the Frobenius for p = 2
        assert f * f == f.frobenius()


class TestFrobenius:
    def test_freshmans_dream(self):
        tbl = table()
        assert parse(tbl, "a0 + x1").frobenius() == parse(tbl, "a0^2 + x1^2")

    def test_zero(self):
        tbl = table()
        assert GeomPoly.zero(tbl).frobenius().is_zero()

    def test_root_form_recovers_quadric(self):
        # at depth 1 the symbols are square roots; squaring the linear
        # form gives back the quadric relation in those roots
        t1 = table(depth=1)
        ell = parse(t1, "a0 + a1*x1 + a2*x2 + a3*x3")
        assert ell.frobenius() == quadric(t1)


class TestSubstitute:
    def test_point_on_quadric(self):
        tbl = table(depth=1)
        q = quadric(tbl)
        b0 = ParamRational.var(tbl, "a0")
        b3 = ParamRational.var(tbl, "a3")
        point = {"x1": 0, "x2": 0, "x3": GeomPoly.const(tbl, b0 / b3)}
        assert q.substituted(point).is_zero()

    def test_derivative_of_linear_form_at_point(self):
        tbl = table(depth=1)
        ell = parse(tbl, "a0 + a1*x1 + a2*x2 + a3*x3")
        image = theta_p(tbl)(ell)
        b0 = ParamRational.var(tbl, "a0")
        b3 = ParamRational.var(tbl, "a3")
        value = image.substituted(
            {"x1": 0, "x2": 0, "x3": GeomPoly.const(tbl, b0 / b3)})
        expected = b0 + b0 * b0 / b3
        assert value.as_param_rational() == expected
        assert not value.is_zero()

    def test_indicator_vector_evaluation(self):
        names = ["a0", "a1", "a2", "a3", "X0", "X1", "X2", "X3"]
        tbl = VarTable(names, [PARAM] * 4 + [GEOM] * 4)
        q_form = parse(tbl, "a0*X0^2 + a1*X1^2 + a2*X2^2 + a3*X3^2")
        value = q_form.substituted(
            {"X0": 1, "X1": 1, "X2": 0, "X3": 0}).as_param_rational()
        assert value == ParamRational.var(tbl, "a0") + ParamRational.var(tbl, "a1")

    def test_zero_denominator_detected(self):
        tbl = table()
        with pytest.raises(ZeroDenominatorError):
            ParamRational(SparsePoly.const(tbl, 1), SparsePoly.const(tbl, 0))

    def test_parameter_binding_rejected(self):
        tbl = table()
        f = parse(tbl, "a0*x1 + x2")
        with pytest.raises(ValueError, match="not a geometric variable"):
            f.substituted({"a0": GeomPoly.var(tbl, "a1")})


class TestDerive:
    def test_theta_on_coordinate(self):
        tbl = table()
        assert theta_p(tbl)(parse(tbl, "x1")) == parse(tbl, "x1 + x1^2")

    def test_theta_kills_quadric(self):
        tbl = table()
        assert theta_p(tbl)(quadric(tbl)).is_zero()

    def test_parameter_scaling_derivation(self):
        tbl = table()
        envelope = parse(tbl, "1 + x1 + x2 + x3")
        theta_a = Derivation(tbl, {
            f"a{k}": envelope.scaled(ParamRational.var(tbl, f"a{k}"))
            for k in range(4)})
        q = quadric(tbl)
        assert theta_a(q) == envelope * q

    @pytest.mark.parametrize("seed", [2, 3])
    def test_partial_matches_unit_derivation(self, seed):
        rng = random.Random(106 + seed)
        tbl = make_table()
        for name in ("x1", "x2", "x3"):
            unit = Derivation(tbl, {name: GeomPoly.one(tbl)})
            for _ in range(20):
                f = random_geom(rng, tbl)
                assert f.partial(name) == unit(f)


class TestRationalEq:
    def test_common_factor(self):
        tbl = table()
        a0, a1, a3 = (SparsePoly.var(tbl, n) for n in ("a0", "a1", "a3"))
        assert ParamRational(a0, a3) == ParamRational(a0 * a1, a1 * a3)

    def test_independent_parameters(self):
        tbl = table()
        assert ParamRational.var(tbl, "a0") != ParamRational.var(tbl, "a1")

    def test_depth_two_translation(self):
        # at depth 2 the depth-0 ratio a0/a3 reads a0^4/a3^4, and the ratio
        # of first-level roots squares onto it
        t2 = table(depth=2)
        quartic = (ParamRational.var(t2, "a0", 4)
                   / ParamRational.var(t2, "a3", 4))
        root_ratio = (ParamRational(root_monomial(t2, "a0", 1))
                      / ParamRational(root_monomial(t2, "a3", 1)))
        assert root_ratio ** 2 == quartic


class TestRootExtend:
    def test_depth_one_definitional(self):
        t1 = table(depth=1)
        assert root_monomial(t1, "a0", 1) == SparsePoly.var(t1, "a0")

    def test_depth_three_ladder(self):
        t3 = table(depth=3)
        assert root_monomial(t3, "a1", 3) == SparsePoly.var(t3, "a1")
        assert root_monomial(t3, "a1", 2) == SparsePoly.var(t3, "a1", 2)
        assert root_monomial(t3, "a1", 1) == SparsePoly.var(t3, "a1", 4)

    def test_locus_equation_square_root(self):
        # h = a0 + a1*u1^2 + a2*u2^2 + a3*u3^2 read at depth 3
        t3 = table(depth=3)
        h = parse(t3, "a0^8 + a1^8*u1^2 + a2^8*u2^2 + a3^8*u3^2")
        sqrt_h = parse(t3, "a0^4 + a1^4*u1 + a2^4*u2 + a3^4*u3")
        assert sqrt_h.frobenius() == h

    def test_root_beyond_depth_fails(self):
        with pytest.raises(RootDepthError):
            root_monomial(table(depth=2), "a0", 3)


class TestExactDivide:
    def test_minor_factorisation(self):
        tbl = table()
        h = parse(tbl, "a0 + a1*u1^2 + a2*u2^2 + a3*u3^2")
        cofactor = parse(tbl, "u1 + u1^2")
        assert exact_divide(cofactor * h, h) == cofactor

    def test_divide_by_one(self):
        tbl = table()
        f = parse(tbl, "a0*x1^3 + x2")
        assert exact_divide(f, GeomPoly.one(tbl)) == f

    def test_not_divisible(self):
        tbl = table()
        assert exact_divide(GeomPoly.var(tbl, "u1"), GeomPoly.var(tbl, "u2")) is None

    def test_zero_divisor_rejected(self):
        tbl = table()
        with pytest.raises(ZeroDivisionError):
            exact_divide(GeomPoly.var(tbl, "u1"), GeomPoly.zero(tbl))

    def test_zero_dividend(self):
        tbl = table()
        assert exact_divide(GeomPoly.zero(tbl), GeomPoly.var(tbl, "u1")).is_zero()

    def test_strip_common_monomial(self):
        tbl = table()
        polys = [parse(tbl, "a0*x1^2*x2 + x1*x2^2"), parse(tbl, "x1*x2*x3")]
        assert strip_common_monomial(polys) == [parse(tbl, "a0*x1 + x2"), parse(tbl, "x3")]
        assert strip_common_monomial(polys[:1] + [GeomPoly.one(tbl)]) == \
            polys[:1] + [GeomPoly.one(tbl)]


class TestRandomizedProperties:
    def test_sparse_ring_axioms(self):
        rng = random.Random(101)
        assert check_sparse_ring_axioms(rng, make_table(), 40) > 0

    def test_geom_ring_axioms(self):
        rng = random.Random(102)
        assert check_geom_ring_axioms(rng, make_table(), 25) > 0

    def test_frobenius_endomorphism(self):
        rng = random.Random(103)
        assert check_frobenius_endomorphism(rng, make_table(), 30) > 0

    def test_leibniz_and_power_kill(self):
        rng = random.Random(104)
        assert check_leibniz(rng, make_table(), 25) > 0

    def test_rational_equivalence_and_compatibility(self):
        rng = random.Random(105)
        assert check_rational_equivalence(rng, make_table(), 40) > 0

    def test_exact_divide_round_trip(self):
        rng = random.Random(107)
        assert check_exact_divide_round_trip(rng, make_table(), 20) > 0
