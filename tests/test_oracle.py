"""Cross-checks of the exact arithmetic against sympy over GF(2) as an
independent implementation, on seeded random inputs."""

import random
from dataclasses import replace
from itertools import product

import pytest

from delpezzo.algebra import (
    GEOM,
    PARAM,
    ParamRational,
    SparsePoly,
    VarTable,
    exact_divide,
    parse,
)
from delpezzo.quotient import BaseRingS, TTable, jacobian, jacobian_minors, normal_form
from delpezzo.surfaces import _h_polynomial, build_presentation, cusp_curve, others
from randpoly import (
    make_table,
    random_nonzero_geom,
    random_nonzero_sparse,
    random_rational,
)

sp = pytest.importorskip("sympy")

SEEDS = (2, 3)


def symbols(table):
    return [sp.Symbol(n) for n in table.names]


def sparse_expr(f, syms):
    return sp.Add(*[c * sp.Mul(*[s ** e for s, e in zip(syms, exp)])
                    for exp, c in f.terms.items()])


def rational_expr(r, syms):
    return sparse_expr(r.num, syms) / sparse_expr(r.den, syms)


def as_gf_poly(f, syms):
    return sp.Poly(sparse_expr(f, syms), *syms, modulus=2)


def random_wide(rng, table, terms, max_exp):
    out = {}
    for _ in range(terms):
        exp = tuple(rng.randint(0, max_exp) if rng.random() < 0.6 else 0
                    for _ in table.names)
        out[exp] = 1
    return SparsePoly(table, out)


@pytest.mark.parametrize("seed", SEEDS)
def test_products_and_powers_match_sympy(seed):
    rng = random.Random(1000 + seed)
    table = VarTable(["a0", "a1", "x1", "x2"], [PARAM, PARAM, GEOM, GEOM])
    syms = symbols(table)
    largest = 0
    for _ in range(25):
        f = random_wide(rng, table, rng.randint(1, 6), 100)
        g = random_wide(rng, table, rng.randint(1, 6), 100)
        product = f * g
        assert as_gf_poly(product, syms) == as_gf_poly(f, syms) * as_gf_poly(g, syms)
        largest = max([largest] + [max(e) for e in product.terms])
    for _ in range(10):
        base = random_wide(rng, table, rng.randint(1, 3), 40)
        n = rng.randint(2, 5)
        assert as_gf_poly(base ** n, syms) == as_gf_poly(base, syms) ** n
    assert largest >= 150


def geom_poly(f, table, syms, domain):
    geom = [syms[i] for i in table.geom_indices]
    expr = sp.Add(*[rational_expr(c, syms) * sp.Mul(*[s ** e for s, e in zip(syms, exp)])
                    for exp, c in f.terms.items()])
    return sp.Poly(expr, *geom, domain=domain)


def quotient_matches(ours, quo, table, syms):
    """Same geometric monomials, and each coefficient N/D of ours equals
    sympy's n/d, checked as N d == n D over GF(2)[a].  Cross-multiplying
    keeps our unreduced coefficients out of sympy's fraction field, whose
    gcds can take half a minute on one draw."""
    geom = table.geom_indices
    theirs = {}
    for monom, c in quo.as_dict(native=True).items():
        exp = [0] * len(table.names)
        for i, e in zip(geom, monom):
            exp[i] = e
        theirs[tuple(exp)] = (gf2(c.numer.as_expr(), syms), gf2(c.denom.as_expr(), syms))
    if set(ours.terms) != set(theirs):
        return False
    return all(as_gf_poly(c.num, syms) * theirs[exp][1]
               == theirs[exp][0] * as_gf_poly(c.den, syms)
               for exp, c in ours.terms.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_divide_matches_sympy_div(seed):
    rng = random.Random(2000 + seed)
    table = make_table()
    syms = symbols(table)
    params = [syms[i] for i in table.param_indices]
    domain = sp.FF(2).frac_field(*params)
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
            assert quotient_matches(ours, quo, table, syms)
        outcomes.add(ours is not None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", SEEDS)
def test_rational_equality_matches_sympy_cancel(seed):
    rng = random.Random(3000 + seed)
    table = make_table()
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
        diff = sp.cancel(rational_expr(a, syms) - rational_expr(b, syms), modulus=2)
        assert (a == b) == (diff == 0)
        outcomes.add(a == b)
    assert outcomes == {True, False}


def chart_setup(chart):
    """Presentation, ring, sympy symbols by name, and the sympy expression
    of h on the chart."""
    pres = build_presentation(chart)
    table = pres.table
    sym = {n: sp.Symbol(n) for n in table.names}
    h = sym[f"a{chart}"] + sp.Add(*[sym[f"a{m}"] * sym[f"u{m}"] ** 2 for m in others(chart)])
    return pres, BaseRingS(table, chart), sym, h


def reduced_mod_r0(expr, chart, sym):
    """The numerator of expr with u_e = (a_i0 + the other a_m u_m)/a_e
    substituted, e the chart's eliminated index, as a GF(2) polynomial."""
    *kept, e = others(chart)
    rest = sym[f"a{chart}"] + sp.Add(*[sym[f"a{m}"] * sym[f"u{m}"] for m in kept])
    num, _ = sp.fraction(sp.together(expr.subs(sym[f"u{e}"], rest / sym[f"a{e}"])))
    return sp.Poly(sp.expand(num), *sym.values(), modulus=2)


@pytest.mark.parametrize("chart", (0, 1, 2, 3))
def test_primitive_divisor_has_content_one(chart):
    pres, ring, sym, h = chart_setup(chart)
    table = pres.table
    e = others(chart)[-1]
    reduced = ring.pseudo_reduce(_h_polynomial(table, chart))
    divisor = exact_divide(reduced, SparsePoly.var(table, f"a{e}"))
    syms = list(sym.values())
    # h' = a_e * h mod r_0, computed by sympy
    assert reduced_mod_r0(sym[f"a{e}"] * h, chart, sym) == as_gf_poly(divisor, syms)
    params = [sym[f"a{i}"] for i in range(4)]
    coeffs: dict = {}
    for exp, c in divisor.terms.items():
        geom = tuple(x if k == GEOM else 0 for x, k in zip(exp, table.kinds))
        param = sp.Mul(*[s ** x for s, x, k in zip(syms, exp, table.kinds) if k == PARAM])
        coeffs[geom] = coeffs.get(geom, 0) + c * param
    assert len(coeffs) == 3
    content = sp.Poly(0, *params, modulus=2)
    for coeff in coeffs.values():
        content = content.gcd(sp.Poly(coeff, *params, modulus=2))
    assert content == sp.Poly(1, *params, modulus=2)


@pytest.mark.parametrize("chart", (0, 1, 2, 3))
def test_u_block_minors_are_h_multiples(chart):
    pres, ring, sym, h = chart_setup(chart)
    syms = list(sym.values())
    u_syms = [sym[n] for n in pres.u_names]
    rels = [sparse_expr(rel.as_sparse(), syms) for rel in list(pres.relations.values())[:4]]
    jac = sp.Matrix([[sp.diff(r, u) for u in u_syms] for r in rels])
    ours = dict(jacobian_minors(jacobian([rel.as_sparse() for rel in pres.relations.values()][:4],
                                         pres.u_names), 3))
    assert len(ours) == 4
    for dropped in range(4):
        rows = tuple(r for r in range(4) if r != dropped)
        minor = jac.extract(list(rows), [0, 1, 2]).det()
        assert as_gf_poly(ours[(rows, (0, 1, 2))], syms) == sp.Poly(minor, *syms, modulus=2)
        if dropped == 0:
            expected = 0
        else:
            u = sym[pres.u_names[dropped - 1]]
            expected = (u + u ** 2) * h
        assert reduced_mod_r0(minor - expected, chart, sym).is_zero


def t_table_setup(pres):
    """The sympy symbols by name, the t symbols, and the sympy expression
    of each t-table entry c_ij0 + sum_k c_ijk t_k by t-pair."""
    t_table = TTable(pres)
    sym = {n: sp.Symbol(n) for n in pres.table.names}
    syms = list(sym.values())
    t_syms = [sym[n] for n in pres.t_names]
    linear = {pair: sparse_expr(coords[0], syms)
              + sp.Add(*[sparse_expr(c, syms) * t for c, t in zip(coords[1:], t_syms)])
              for pair, coords in t_table.consts.items()}
    return sym, t_syms, linear


def sympy_associators(pres):
    """The basis triples (i, j, k) with (t_i t_j) t_k != t_i (t_j t_k) when
    every t-quadratic monomial is replaced by its table entry, in sympy."""
    sym, t_syms, linear = t_table_setup(pres)
    gens = t_syms + [s for s in sym.values() if s not in t_syms]

    def reduce(expr):
        # expr has t-degree at most 2, so one pass removes every quadratic
        out = sp.Integer(0)
        for monom, c in sp.Poly(sp.expand(expr), *gens, modulus=2).terms():
            tdeg = monom[:3]
            rest = sp.Mul(*[g ** e for g, e in zip(gens[3:], monom[3:])])
            if sum(tdeg) == 2:
                pair = tuple(sorted(i for i, e in enumerate(tdeg) for _ in range(e)))
                out += c * rest * linear[pair]
            else:
                out += c * rest * sp.Mul(*[t ** e for t, e in zip(t_syms, tdeg)])
        return sp.Poly(out, *gens, modulus=2)

    def prod(i, j):
        return linear[tuple(sorted((i, j)))]

    bad = []
    for i, j, k in product(range(3), repeat=3):
        left = reduce(prod(i, j) * t_syms[k])
        right = reduce(t_syms[i] * prod(j, k))
        if left != right:
            bad.append((i, j, k))
    return bad


@pytest.mark.parametrize("chart", (0, 1, 2, 3))
def test_t_table_rebuilds_the_relations_and_is_associative(chart):
    pres = build_presentation(chart)
    sym, t_syms, linear = t_table_setup(pres)
    syms = list(sym.values())
    relations = {as_gf_poly(rel.as_sparse(), syms) for rel in pres.relations.values()}
    for (i, j), entry in linear.items():
        rebuilt = sp.Poly(t_syms[i] * t_syms[j] - entry, *syms, modulus=2)
        assert rebuilt in relations
    assert len(linear) == 6
    assert sympy_associators(pres) == []


def test_t_table_of_a_perturbed_relation_is_not_associative():
    pres = build_presentation(0)
    relations = dict(pres.relations)
    relations["r_4"] = relations["r_4"] + parse(pres.table, "u1*t1")
    bad = replace(pres, relations=relations)
    triples = sympy_associators(bad)
    assert len(triples) == 12
    assert triples == TTable(bad).nonassociative()


class RelationReduction:
    """An independent t-reduction in sympy's sparse polynomials over GF(2):
    each t_i t_j right side is read from the presentation's relations, not
    from ``TTable``, and every monomial of t-degree >= 2 has its first two
    t-factors replaced by one until the t-degree is at most 1."""

    def __init__(self, pres):
        table = pres.table
        names = list(pres.t_names) + [f"a{i}" for i in range(4)] + list(pres.u_names)
        self.idx = [table.index(n) for n in names]
        self.ring, *_ = sp.ring(names, sp.GF(2))
        self.rhs = {}
        for rel in pres.relations.values():
            poly = self.poly(rel.as_sparse())
            quads = [m for m in poly.monoms() if sum(m[:3]) == 2]
            if quads:
                (monom,) = quads
                assert not any(monom[3:]) and poly.coeff(self.ring.from_dict({monom: 1})) == 1
                pair = tuple(k for k in range(3) for _ in range(monom[k]))
                self.rhs[pair] = poly - self.ring.from_dict({monom: 1})
        assert len(self.rhs) == 6

    def poly(self, f):
        """A flat value in the a's, u's and t's as a sympy ring element."""
        assert all(sum(exp[i] for i in self.idx) == sum(exp) for exp in f.terms)
        return self.ring.from_dict({tuple(exp[i] for i in self.idx): c
                                    for exp, c in f.terms.items()})

    def coordinates(self, f) -> list:
        """The coefficients of 1, t_a, t_b, t_c of the reduced value."""
        p = self.poly(f)
        while True:
            heavy = {m: c for m, c in p.terms() if sum(m[:3]) >= 2}
            if not heavy:
                break
            p = p - self.ring.from_dict(heavy)
            for monom, c in heavy.items():
                pair = tuple(k for k in range(3) for _ in range(monom[k]))[:2]
                rest = list(monom)
                for k in pair:
                    rest[k] -= 1
                p = p + self.ring.from_dict({tuple(rest): c}) * self.rhs[pair]
        coords = [{} for _ in range(4)]
        for monom, c in p.terms():
            slot = next((k + 1 for k in range(3) if monom[k]), 0)
            coords[slot][(0, 0, 0) + monom[3:]] = c
        return [self.ring.from_dict(c) if c else self.ring.zero for c in coords]


def t_degree(f, pres) -> int:
    idx = [pres.table.index(n) for n in pres.t_names]
    return max((sum(exp[i] for i in idx) for exp in f.terms), default=0)


def table_and_raw_minors(pres, size, rows, cols):
    """The minors of one Jacobian block on the table values of its entries,
    and the raw flat minors."""
    t_table = TTable(pres)
    rels = [rel.as_sparse() for rel in pres.relations.values()]
    jac = [[jac_row[c] for c in cols] for jac_row in jacobian(rels, pres.generators)]
    jac = [jac[r] for r in rows]
    values = [[normal_form(e, t_table) for e in row] for row in jac]
    return jacobian_minors(values, size), jacobian_minors(jac, size)


def assert_same_coordinates(reference, minors, raw, picks):
    for k in picks:
        (index, value), (raw_index, minor) = minors[k], raw[k]
        assert index == raw_index
        assert [reference.poly(c) for c in value.coords] == reference.coordinates(minor)


@pytest.mark.parametrize("chart", (0, 1, 2, 3))
def test_table_minors_match_a_reduction_by_the_relations(chart):
    pres = build_presentation(chart)
    reference = RelationReduction(pres)
    minors, raw = table_and_raw_minors(pres, 2, range(4, 7), range(3, 6))
    assert len(minors) == 9
    assert_same_coordinates(reference, minors, raw, range(9))
    minors, raw = table_and_raw_minors(pres, 4, range(7), range(6))
    by_degree: dict = {}
    for k, (_, minor) in enumerate(raw):
        if not minor.is_zero():
            by_degree.setdefault(t_degree(minor, pres), []).append(k)
    if chart == 0:
        assert (len(by_degree[2]), len(by_degree[3])) == (225, 48)
    rng = random.Random(1401 + chart)
    picks = rng.sample(by_degree[2], 20) + rng.sample(by_degree[3], 10)
    assert_same_coordinates(reference, minors, raw, picks)


def test_perturbed_t_block_minors_match_a_reduction_by_the_relations():
    pres = build_presentation(0)
    relations = dict(pres.relations)
    relations["r_4"] = relations["r_4"] + parse(pres.table, "u1*t1")
    bad = replace(pres, relations=relations)
    minors, raw = table_and_raw_minors(bad, 2, range(4, 7), range(3, 6))
    # a t-block minor has t-degree 2, so its reduction is one step and
    # needs no associativity
    assert TTable(bad).nonassociative()
    assert_same_coordinates(RelationReduction(bad), minors, raw, range(9))


def cramer_setup():
    """The cusp report, sympy symbols for the depth-3 parameters, and the
    Cramer matrices rebuilt from the root monomials: row j holds the
    2^j-th roots of the depth-0 a_i, which are symbol^(2^(3-j))."""
    report, _ = cusp_curve()
    syms = symbols(build_presentation(0, report.root_depth).table)
    a = syms[:4]
    roots = [[a[i] ** 2 ** (report.root_depth - j) for i in range(4)] for j in (1, 2, 3)]
    matrix_a = sp.Matrix([[row[i] for i in (1, 2, 3)] for row in roots])
    b_column = sp.Matrix([row[0] for row in roots])
    return report, syms, matrix_a, b_column


def gf2(expr, syms):
    return sp.Poly(expr, *syms, modulus=2)


def cramer_identity_holds(report, syms, det_a1, det_a):
    """det_A_1^4 c13 = det_A^4 c11, cross-multiplied over GF(2)."""
    c11, c13 = report.coefficients["c_11"], report.coefficients["c_13"]
    left = gf2(det_a1, syms) ** 4 * as_gf_poly(c13.num, syms) * as_gf_poly(c11.den, syms)
    right = gf2(det_a, syms) ** 4 * as_gf_poly(c11.num, syms) * as_gf_poly(c13.den, syms)
    return left == right


def test_cusp_cramer_determinants_match_sympy():
    report, syms, matrix_a, b_column = cramer_setup()
    matrix_a1 = matrix_a.copy()
    matrix_a1[:, 0] = b_column
    assert as_gf_poly(report.det_a, syms) == gf2(matrix_a.det(), syms)
    assert as_gf_poly(report.det_a1, syms) == gf2(matrix_a1.det(), syms)
    assert cramer_identity_holds(report, syms, matrix_a1.det(), matrix_a.det())


def test_cusp_cramer_identity_fails_for_a_swapped_column():
    report, syms, matrix_a, b_column = cramer_setup()
    # b in the second column is Cramer's numerator of the wrong unknown
    swapped = matrix_a.copy()
    swapped[:, 1] = b_column
    assert not gf2(swapped.det(), syms).is_zero
    assert not cramer_identity_holds(report, syms, swapped.det(), matrix_a.det())
