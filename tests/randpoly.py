"""Seeded random values, a polynomial text parser and the shared property
checks.

Each check_* function performs `trials` independent random instances,
asserts every identity it tests, and returns the number of individual
identity checks it ran, so the acceptance suite can count instances.
"""

import random

from delpezzo.algebra import (
    GEOM,
    PARAM,
    Derivation,
    GeomPoly,
    ParamRational,
    SparsePoly,
    VarTable,
    exact_divide,
)


def make_table(depth=0):
    names = ["a0", "a1", "a2", "x1", "x2", "x3"]
    kinds = [PARAM] * 3 + [GEOM] * 3
    return VarTable(names, kinds, root_depth=depth)


def parse(table, text):
    """'x1^2*x2 + a0*x3 + 2' as a ``GeomPoly``: a sum of ``SparsePoly``
    monomials, integer factors reduced mod 2, moved into coefficients by
    ``as_geom``; an unknown variable raises ValueError."""
    result = SparsePoly.zero(table)
    for chunk in text.split("+"):
        if not chunk.strip():
            raise ValueError("empty term in polynomial text")
        coeff, exps = 1, {}
        for factor in chunk.split("*"):
            name, _, e_text = factor.partition("^")
            name, e = name.strip(), int(e_text) if e_text else 1
            if name.lstrip("-").isdigit():
                coeff *= int(name) ** e
            else:
                exps[name] = exps.get(name, 0) + e
        result = result + SparsePoly.monomial(table, exps, coeff)
    return result.as_geom()


def constant_value(g):
    """The coefficient of a ``GeomPoly`` that is constant in the geometry."""
    assert set(g.terms) <= {(0,) * len(g.table.names)}, g
    return g.coefficient({})


def random_sparse(rng, table, max_terms=4, max_exp=3, params_only=False):
    pool = table.param_indices if params_only else tuple(range(len(table.names)))
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = [0] * len(table.names)
        for _ in range(rng.randint(0, 3)):
            exp[rng.choice(pool)] += rng.randint(1, max_exp)
        terms[tuple(exp)] = 1
    return SparsePoly(table, terms)


def random_nonzero_sparse(rng, table, **kw):
    while True:
        poly = random_sparse(rng, table, **kw)
        if not poly.is_zero():
            return poly


def random_rational(rng, table):
    # kept small: denominators are never gcd-reduced, so products of large
    # random fractions would grow without bound
    num = random_sparse(rng, table, max_terms=2, max_exp=1, params_only=True)
    den = random_nonzero_sparse(rng, table, max_terms=2, max_exp=1,
                                params_only=True)
    return ParamRational(num, den)


def random_geom(rng, table, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = [0] * len(table.names)
        for _ in range(rng.randint(0, 2)):
            exp[rng.choice(table.geom_indices)] += rng.randint(1, 2)
        coeff = random_rational(rng, table)
        if not coeff.is_zero():
            terms[tuple(exp)] = coeff
    return GeomPoly(table, terms)


def random_laurent_geom(rng, table, max_terms=4):
    """A nonzero GeomPoly whose coefficients are polynomials over random
    monomials, distinct ones within one polynomial as a rule."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exp = [0] * len(table.names)
            for _ in range(rng.randint(0, 2)):
                exp[rng.choice(table.geom_indices)] += rng.randint(1, 2)
            den = [0] * len(table.names)
            for _ in range(rng.randint(0, 2)):
                den[rng.choice(table.param_indices)] += rng.randint(1, 3)
            num = random_nonzero_sparse(rng, table, max_terms=3, params_only=True)
            terms[tuple(exp)] = ParamRational(num, SparsePoly(table, {tuple(den): 1}))
        poly = GeomPoly(table, terms)
        if not poly.is_zero():
            return poly


def random_t_linear(rng, pres, terms=4):
    """A flat c_0 + c_1 t_a + c_2 t_b + c_3 t_c on a quotient chart, each
    coefficient a random polynomial in the parameters and the chart's u's."""
    table = pres.table
    names = [f"a{i}" for i in range(4)] + list(pres.u_names)
    out = SparsePoly.zero(table)
    for _ in range(terms):
        exps = {n: rng.randint(0, 2) for n in rng.sample(names, 3)}
        t = rng.choice([None, *pres.t_names])
        if t is not None:
            exps[t] = 1
        out = out + SparsePoly.monomial(table, exps)
    return out


def random_nonzero_geom(rng, table, **kw):
    while True:
        poly = random_geom(rng, table, **kw)
        if not poly.is_zero():
            return poly


def random_derivation(rng, table, with_params=True):
    images = {}
    geom_names = [table.names[i] for i in table.geom_indices]
    for name in rng.sample(geom_names, rng.randint(1, len(geom_names))):
        images[name] = random_sparse(rng, table, max_terms=2)
    if with_params and rng.random() < 0.5:
        param_names = [table.names[i] for i in table.param_indices]
        for name in rng.sample(param_names, rng.randint(1, 2)):
            images[name] = random_sparse(rng, table, max_terms=2)
    return Derivation(table, images)


def check_sparse_ring_axioms(rng, table, trials):
    count = 0
    for _ in range(trials):
        a = random_sparse(rng, table)
        b = random_sparse(rng, table)
        c = random_sparse(rng, table)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        count += 5
    return count


def check_geom_ring_axioms(rng, table, trials):
    count = 0
    for _ in range(trials):
        a = random_geom(rng, table)
        b = random_geom(rng, table)
        c = random_geom(rng, table)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        count += 5
    return count


def check_frobenius_endomorphism(rng, table, trials):
    count = 0
    for _ in range(trials):
        f = random_sparse(rng, table)
        g = random_sparse(rng, table)
        assert (f * g).frobenius() == f.frobenius() * g.frobenius()
        assert (f + g).frobenius() == f.frobenius() + g.frobenius()
        count += 2
    return count


def check_leibniz(rng, table, trials):
    count = 0
    for _ in range(trials):
        delta = random_derivation(rng, table)
        f = random_sparse(rng, table)
        g = random_sparse(rng, table)
        assert delta(f * g) == delta(f) * g + f * delta(g)
        assert delta(f + g) == delta(f) + delta(g)
        assert delta(f.frobenius()).is_zero()
        count += 3
    return count


def check_rational_equivalence(rng, table, trials):
    count = 0
    for _ in range(trials):
        a = random_rational(rng, table)
        scale = random_nonzero_sparse(rng, table, params_only=True)
        b = ParamRational(a.num * scale, a.den * scale)
        scale2 = random_nonzero_sparse(rng, table, params_only=True)
        c = ParamRational(b.num * scale2, b.den * scale2)
        d = random_rational(rng, table)
        assert a == a
        assert a == b and b == a
        assert b == c and a == c
        assert a + d == b + d
        assert a * d == b * d
        count += 7
    return count


def check_exact_divide_round_trip(rng, table, trials):
    count = 0
    for _ in range(trials):
        f = random_geom(rng, table)
        g = random_nonzero_geom(rng, table)
        quotient = exact_divide(f * g, g)
        assert quotient is not None and quotient == f
        count += 1
    return count
