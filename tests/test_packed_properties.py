"""Properties of the packed monomial keys on random 18-wide exponents."""

import random
from collections import Counter

import pytest

from delpezzo.algebra import GeomPoly, SparsePoly, _pack, _unpack, dot

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from randpoly import make_table, random_sparse  # noqa: E402
from test_packed import WIDE, WIDTH  # noqa: E402


def grlex_key(exp):
    """Reference graded lexicographic order on exponent tuples."""
    return (sum(exp), exp)


def exps(max_exp):
    return st.tuples(*[st.integers(0, max_exp)] * WIDTH)


# 18 * 3000 and 2 * 18 * 1800 stay below the degree limit
@settings(max_examples=200, deadline=None)
@given(exps(3000))
def test_pack_round_trip(exp):
    assert _unpack(WIDE, _pack(WIDE, exp)) == exp


@settings(max_examples=200, deadline=None)
@given(exps(3000), exps(3000))
def test_integer_order_is_grlex(e1, e2):
    k1, k2 = _pack(WIDE, e1), _pack(WIDE, e2)
    assert (k1 < k2) == (grlex_key(e1) < grlex_key(e2))
    assert (k1 == k2) == (e1 == e2)


@settings(max_examples=200, deadline=None)
@given(exps(1800), exps(1800))
def test_product_key_is_sum_of_keys(e1, e2):
    product = tuple(a + b for a, b in zip(e1, e2))
    assert _pack(WIDE, e1) + _pack(WIDE, e2) == _pack(WIDE, product)
    f = SparsePoly(WIDE, {e1: 1}) * SparsePoly(WIDE, {e2: 1})
    assert dict(f.terms) == {product: 1}


@settings(max_examples=100, deadline=None)
@given(st.lists(exps(40), min_size=1, max_size=6))
def test_lead_term_and_serialisation_follow_grlex(exp_list):
    f = SparsePoly(WIDE, {e: 1 for e in exp_list})
    top = max(exp_list, key=grlex_key)
    assert f.lead_term() == (top, 1)
    ordered = sorted(set(exp_list), key=grlex_key, reverse=True)
    assert [item["exponents"] for item in f.to_json(WIDE.names)] == [list(e) for e in ordered]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 40)] * (WIDTH - 4)), min_size=1, max_size=6))
def test_geom_lead_term_and_serialisation_follow_grlex(geom_exps):
    # WIDE's first four variables are the parameters
    exp_list = [(0,) * 4 + e for e in geom_exps]
    f = GeomPoly(WIDE, {e: 1 for e in exp_list})
    exp, c = f.lead_term()
    assert exp == max(exp_list, key=grlex_key) and c.is_one()
    ordered = sorted(set(exp_list), key=grlex_key, reverse=True)
    rows = f.to_json(WIDE.names[4:])
    assert [item["exponents"] for item in rows] == [list(e[4:]) for e in ordered]


def schoolbook(table, pairs):
    """Reference sum of products: each pair of exponent tuples of the two
    factors' ``terms`` is added, and each sum is counted mod 2."""
    counts = Counter(tuple(a + b for a, b in zip(e1, e2))
                     for x, y in pairs for e1 in x.terms for e2 in y.terms)
    return SparsePoly(table, {e: n % 2 for e, n in counts.items()})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 6))
def test_dot_is_the_sum_of_the_products(seed, n):
    # random_sparse draws zero factors; a repeated pair cancels, and so do
    # the products of (x, y), (x, z), (y + z, x) together; zero, one and a
    # monomial meet a random factor on either side
    rng = random.Random(seed)
    table = make_table()
    pairs = [(random_sparse(rng, table), random_sparse(rng, table)) for _ in range(n)]
    if pairs:
        pairs.append(rng.choice(pairs))
    x, y, z = (random_sparse(rng, table) for _ in range(3))
    cancelling = [(x, y), (x, z), (y + z, x)]
    at = rng.randint(0, len(pairs))
    pairs[at:at] = cancelling
    zero, one = SparsePoly.zero(table), SparsePoly.const(table, 1)
    mono = SparsePoly(table, {tuple(rng.randint(0, 2) for _ in table.names[1:]) + (1,): 1})
    for f in (zero, one, mono):
        pairs.insert(rng.randint(0, len(pairs)), (f, random_sparse(rng, table)))
        pairs.insert(rng.randint(0, len(pairs)), (random_sparse(rng, table), f))
    assert dot(table, pairs) == sum((a * b for a, b in pairs), zero) == schoolbook(table, pairs)
    assert all(a * b == schoolbook(table, [(a, b)]) for a, b in pairs)
    assert dot(table, cancelling) == zero
    assert dot(table, []) == zero
