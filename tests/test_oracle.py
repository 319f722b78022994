"""Cross-checks of the exact arithmetic against sympy as an independent
implementation, on seeded random inputs."""

import random

import pytest

from delpezzo.algebra import (
    GEOM,
    PARAM,
    ParamRational,
    SparsePoly,
    VarTable,
    exact_divide,
)
from randpoly import (
    make_table,
    random_nonzero_geom,
    random_nonzero_sparse,
    random_rational,
)

sp = pytest.importorskip("sympy")

PRIMES = (2, 3)


def symbols(table):
    return [sp.Symbol(n) for n in table.names]


def sparse_expr(f, syms):
    return sp.Add(*[c * sp.Mul(*[s ** e for s, e in zip(syms, exp)])
                    for exp, c in f.terms.items()])


def rational_expr(r, syms):
    return sparse_expr(r.num, syms) / sparse_expr(r.den, syms)


def as_gf_poly(f, syms, p):
    return sp.Poly(sparse_expr(f, syms), *syms, modulus=p)


def random_wide(rng, table, terms, max_exp):
    out = {}
    for _ in range(terms):
        exp = tuple(rng.randint(0, max_exp) if rng.random() < 0.6 else 0
                    for _ in table.names)
        out[exp] = rng.randrange(1, table.p)
    return SparsePoly(table, out)


@pytest.mark.parametrize("p", PRIMES)
def test_products_and_powers_match_sympy(p):
    rng = random.Random(1000 + p)
    table = VarTable(["a0", "a1", "x1", "x2"], [PARAM, PARAM, GEOM, GEOM], p=p)
    syms = symbols(table)
    largest = 0
    for _ in range(25):
        f = random_wide(rng, table, rng.randint(1, 6), 100)
        g = random_wide(rng, table, rng.randint(1, 6), 100)
        product = f * g
        assert as_gf_poly(product, syms, p) == as_gf_poly(f, syms, p) * as_gf_poly(g, syms, p)
        largest = max([largest] + [max(e) for e in product.terms])
    for _ in range(10):
        base = random_wide(rng, table, rng.randint(1, 3), 40)
        n = rng.randint(2, 5)
        assert as_gf_poly(base ** n, syms, p) == as_gf_poly(base, syms, p) ** n
    assert largest >= 150


def geom_poly(f, table, syms, domain):
    geom = [syms[i] for i in table.geom_indices]
    expr = sp.Add(*[rational_expr(c, syms) * sp.Mul(*[s ** e for s, e in zip(syms, exp)])
                    for exp, c in f.terms.items()])
    return sp.Poly(expr, *geom, domain=domain)


@pytest.mark.parametrize("p", PRIMES)
def test_exact_divide_matches_sympy_div(p):
    rng = random.Random(2000 + p)
    table = make_table(p)
    syms = symbols(table)
    params = [syms[i] for i in table.param_indices]
    domain = sp.FF(p).frac_field(*params)
    outcomes = set()
    for _ in range(12):
        g = random_nonzero_geom(rng, table, max_terms=2)
        q = random_nonzero_geom(rng, table, max_terms=2)
        f = q * g
        if rng.random() < 0.5:
            f = f + random_nonzero_geom(rng, table, max_terms=1)
        ours = exact_divide(f, g)
        quo, rem = sp.div(geom_poly(f, table, syms, domain),
                          geom_poly(g, table, syms, domain))
        assert (ours is not None) == rem.is_zero
        if ours is not None:
            assert geom_poly(ours, table, syms, domain) == quo
        outcomes.add(ours is not None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p", PRIMES)
def test_rational_equality_matches_sympy_cancel(p):
    rng = random.Random(3000 + p)
    table = make_table(p)
    syms = symbols(table)
    outcomes = set()
    for _ in range(40):
        a = random_rational(rng, table)
        if rng.random() < 0.5:
            # the same value over a scaled numerator and denominator
            scale = random_nonzero_sparse(rng, table, max_terms=2, max_exp=2,
                                          params_only=True)
            b = ParamRational(a.num * scale, a.den * scale)
            if rng.random() < 0.5:
                b = b + ParamRational(SparsePoly.var(table, "a1"), a.den * scale)
        else:
            b = random_rational(rng, table)
        diff = sp.cancel(rational_expr(a, syms) - rational_expr(b, syms), modulus=p)
        assert (a == b) == (diff == 0)
        outcomes.add(a == b)
    assert outcomes == {True, False}
