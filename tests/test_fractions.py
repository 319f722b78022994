"""The fraction arithmetic that ``ParamRational`` and ``SFraction`` share
through ``RingFraction``: seeded identities on both classes, each class's
normal form, the divisor rule of ``ParamRational`` sums against the
cross-multiplied sum, and a check that the operators are one
implementation."""

import random

import pytest

from delpezzo import algebra
from delpezzo.algebra import GeomPoly, ParamRational, RingFraction, SparsePoly, exact_divide
from delpezzo.quotient import SFraction
from randpoly import (
    make_table,
    random_geom,
    random_nonzero_geom,
    random_nonzero_sparse,
    random_rational,
)

SHARED = ("table", "is_zero", "is_one", "__add__", "__neg__", "__sub__", "__mul__",
          "__truediv__", "inverse", "__eq__", "__str__", "__repr__")


def rational_value(rng, table, nonzero=False):
    while True:
        value = random_rational(rng, table)
        if not (nonzero and value.is_zero()):
            return value


def s_value(rng, table, nonzero=False):
    num = (random_nonzero_geom if nonzero else random_geom)(rng, table, max_terms=2)
    return SFraction(num) / SFraction(random_nonzero_geom(rng, table, max_terms=2))


def rational_lift(rng, table):
    """A nonzero element of the domain of ParamRational's parts."""
    return ParamRational(random_nonzero_sparse(rng, table, max_terms=2, max_exp=1,
                                               params_only=True))


def s_lift(rng, table):
    return SFraction(random_nonzero_geom(rng, table, max_terms=2))


KINDS = {
    "ParamRational": (ParamRational, rational_value, rational_lift),
    "SFraction": (SFraction, s_value, s_lift),
}


# two seeded draws per kind; the ids keep the suffixes p2 and p3 of the
# former GF(2)/GF(3) split, and p2 draws exactly what it drew then
@pytest.fixture(params=[(kind, seed) for kind in KINDS for seed in (2, 3)],
                ids=lambda ks: f"{ks[0]}-p{ks[1]}")
def kind(request):
    name, seed = request.param
    cls, value, lift = KINDS[name]
    rng = random.Random(901 + 10 * seed + len(name))
    table = make_table()
    return (cls, lambda nonzero=False: value(rng, table, nonzero),
            lambda: lift(rng, table), table)


def rep(value):
    """The exact stored representation: fraction parts and term maps
    unfolded down to their integer coefficients."""
    if isinstance(value, RingFraction):
        return rep(value.num), rep(value.den)
    if isinstance(value, int):
        return value
    return {exp: rep(c) for exp, c in value.terms.items()}


def normal_form_holds(value):
    num, den = value.num, value.den
    if num.is_zero():
        return den.is_one()
    lc = den.lead_term()[1]
    if not (lc == 1 if isinstance(lc, int) else lc.is_one()):
        return False
    if isinstance(value, ParamRational):
        # no variable divides every monomial of both parts
        exps = [*num.terms, *den.terms]
        return not any(all(e[i] for e in exps) for i in range(len(exps[0])))
    return True


TRIALS = 12


def test_zero_has_no_inverse(kind):
    _, value, _, _ = kind
    x = value()
    zero = x - x
    assert zero.is_zero()
    with pytest.raises(ZeroDivisionError):
        zero.inverse()
    with pytest.raises(ZeroDivisionError):
        value(nonzero=True) / zero


def test_adding_zero_keeps_the_representation(kind):
    _, value, _, _ = kind
    for _ in range(TRIALS):
        x = value()
        zero = x - x
        assert zero.is_zero()
        assert rep(zero + x) == rep(x) and rep(x + zero) == rep(x)


def test_two_representations_compare_equal(kind):
    _, value, lift, _ = kind
    moved = 0
    for _ in range(TRIALS):
        x, s = value(), lift()
        y = x * (s / s)
        assert x == y and y == x
        moved += rep(x) != rep(y)
    assert moved, "every scaled copy kept the representation; cross multiplication went untested"


def test_field_identities(kind):
    _, value, _, _ = kind
    for _ in range(TRIALS):
        x, y = value(), value(nonzero=True)
        assert (x * y) / y == x
        assert (x - x).is_zero()
        one = y * y.inverse()
        assert one.is_one() and x.is_one() == (x == one)
        assert (x + y) - y == x


def test_results_are_in_normal_form(kind):
    cls, value, _, _ = kind
    for _ in range(TRIALS):
        x, y = value(), value(nonzero=True)
        for result in (x, y, x + y, x - y, x * y, x / y, y.inverse(), -x):
            assert type(result) is cls
            assert normal_form_holds(result)
            assert tuple(map(rep, cls.normalise(result.num, result.den))) == rep(result)


def test_negation_is_the_value_itself_only_in_characteristic_two(kind):
    _, value, _, _ = kind
    for _ in range(TRIALS):
        x = value(nonzero=True)
        assert -x is x
        assert (x + (-x)).is_zero() and x - x == x + x


def test_parts_never_mix():
    table = make_table()
    rational = ParamRational(SparsePoly.var(table, "a0"))
    fraction = SFraction(random_nonzero_geom(random.Random(5), table))
    assert rational != fraction and not (rational == fraction)


@pytest.mark.parametrize("cls", [ParamRational, SFraction], ids=lambda c: c.__name__)
def test_one_implementation(cls):
    for name in SHARED:
        assert getattr(cls, name) is getattr(RingFraction, name), name
    # what a class binds again in its own namespace is the base's function
    assert all(attr is vars(RingFraction)[name] for name, attr in vars(cls).items()
               if callable(attr) and name in vars(RingFraction))


def test_sfraction_defines_only_its_normal_form():
    own = {name for name, attr in vars(SFraction).items()
           if callable(attr) or isinstance(attr, staticmethod)}
    shared = own - {"__init__", "normalise"}
    assert shared == {"__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
                      "inverse", "__eq__"}
    assert all(vars(SFraction)[name] is vars(RingFraction)[name] for name in shared)


def cross_sum(x, y):
    """x + y by cross multiplication alone, as a sum without the divisor rule."""
    return type(x)._make(x.num * y.den + y.num * x.den, x.den * y.den)


@pytest.fixture
def trial_divisions(monkeypatch):
    """Every ``algebra.exact_divide`` call as (dividend, divisor, quotient)."""
    calls = []

    def spy(f, g):
        q = exact_divide(f, g)
        calls.append((f, g, q))
        return q
    monkeypatch.setattr(algebra, "exact_divide", spy)
    return calls


def unit_poly(rng, table):
    """A nonconstant parameter polynomial with a nonzero constant term: no
    monomial divides it, so a denominator built from such factors is never
    stripped."""
    while True:
        poly = random_nonzero_sparse(rng, table, max_terms=3, max_exp=2,
                                     params_only=True)
        if len(poly.terms) > 1 and (0,) * len(table.names) in poly.terms:
            return poly


def divisor_cases(rng, table):
    """(case, x, y) pairs of nonzero ParamRationals with unequal denominators."""
    for _ in range(TRIALS):
        d, m = unit_poly(rng, table), unit_poly(rng, table)
        n1, n2 = unit_poly(rng, table), unit_poly(rng, table)
        yield "divides", ParamRational(n1, d), ParamRational(n2, d * m)
        yield "cancels", ParamRational(n1, d), ParamRational(-(n1 * m), d * m)
        d2 = unit_poly(rng, table)
        if exact_divide(d, d2) is None and exact_divide(d2, d) is None:
            yield "neither", ParamRational(n1, d), ParamRational(n2, d2)
        d3 = unit_poly(rng, table)
        if len(d3.terms) == len(d.terms) and ParamRational(n2, d3).den.terms != (
                ParamRational(n1, d).den.terms):
            yield "equal term counts", ParamRational(n1, d), ParamRational(n2, d3)
    # in characteristic 2, a0^2 + 1 = (a0 + 1)^2 has as many terms as its
    # divisor, and a0^3 + 1 = (a0 + 1)(a0^2 + a0 + 1) fewer
    a0 = SparsePoly.var(table, "a0")
    one = SparsePoly.const(table, 1)
    yield "equal term counts", ParamRational(one, a0 + one), ParamRational(a0, a0 ** 2 + one)
    yield ("fewer terms", ParamRational(a0 + one, a0 ** 2 + a0 + one),
           ParamRational(one, a0 ** 3 + one))


def lead(poly):
    """The leading monomial in the graded lexicographic order of the keys."""
    return max((sum(e), e) for e in poly.terms)


@pytest.mark.parametrize("seed", (2, 3))
def test_divisor_rule_sums_equal_the_cross_multiplied_sum(seed, trial_divisions):
    rng = random.Random(1601 + seed)
    table = make_table()
    seen = dict.fromkeys(("divides", "cancels", "neither", "equal term counts"), 0)
    ruled = 0
    for case, x, y in divisor_cases(rng, table):
        for a, b in ((x, y), (y, x)):
            trial_divisions.clear()
            got = a + b
            assert got == cross_sum(a, b), case
            assert normal_form_holds(got)
            # one trial division, of the denominator with the larger leading
            # monomial by the other
            ((big, small, q),) = trial_divisions
            assert {id(big), id(small)} == {id(a.den), id(b.den)}
            assert lead(big) >= lead(small)
            if q is None:
                # the fallback is the cross-multiplied sum, representation and all
                assert rep(got) == rep(cross_sum(a, b))
            else:
                # the sum lies over the larger denominator, not over the product
                assert exact_divide(big, got.den) is not None
                ruled += 1
            if case in ("divides", "fewer terms"):
                assert q is not None
            if case == "cancels":
                assert got.is_zero() and got.den.is_one()
            if case == "neither":
                assert q is None
        seen[case] = seen.get(case, 0) + 1
    assert all(seen.values()), seen
    assert ruled


def test_sfraction_sums_never_trial_divide(trial_divisions):
    rng = random.Random(1611)
    table = make_table()
    assert SFraction.divide is None and "divide" not in vars(RingFraction)
    sums = 0
    for _ in range(TRIALS):
        d = random_nonzero_geom(rng, table, max_terms=2)
        m = random_nonzero_geom(rng, table, max_terms=2)
        x = SFraction(random_nonzero_geom(rng, table, max_terms=2)) / SFraction(d)
        y = SFraction(random_nonzero_geom(rng, table, max_terms=2)) / SFraction(d * m)
        if x.den == y.den:
            continue
        for a, b in ((x, y), (y, x)):
            got = a + b
            assert rep(got) == rep(cross_sum(a, b))
            sums += 1
    assert sums
    # the coefficient sums inside GeomPoly arithmetic do trial-divide
    # parameter polynomials; no SFraction denominator is ever divided
    assert trial_divisions
    assert not any(isinstance(f, GeomPoly) or isinstance(g, GeomPoly)
                   for f, g, _ in trial_divisions)
