"""The fraction arithmetic that ``ParamRational`` and ``SFraction`` share
through ``RingFraction``: seeded identities on both classes, each class's
normal form, and a check that the operators are one implementation."""

import random

import pytest

from delpezzo.algebra import ParamRational, RingFraction, SparsePoly
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


@pytest.fixture(params=[(kind, p) for kind in KINDS for p in (2, 3)],
                ids=lambda kp: f"{kp[0]}-p{kp[1]}")
def kind(request):
    name, p = request.param
    cls, value, lift = KINDS[name]
    rng = random.Random(901 + 10 * p + len(name))
    table = make_table(p)
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
