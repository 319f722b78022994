"""Verification suite for the quadric double plane and its foliation quotients.

The ambient object is the quasi-linear quadric surface cut out in
projective 3-space by a0*X0^2 + a1*X1^2 + a2*X2^2 + a3*X3^2 over the
rational function field GF(2)(a0..a3).  On the affine chart (X_{i0} != 0)
with coordinates x_m = X_m/X_{i0}, two derivations generate the foliations
of interest:

* ``deg1``: sum over m != i0 of (x_m + x_m^2) d/dx_m, killing every
  parameter; the quotient has anti-canonical degree 1.
* ``deg2``: the deg1 derivation plus (1 + sum x_m) * sum_k a_k d/da_k,
  killing every product a_i a_j but moving a_0; the quotient has degree 2
  and lives over the index-2 subfield generated by the products.

Every routine here produces exact pass/fail ``CheckResult`` records: the
p-closure and ideal-preservation axioms of both foliations, injectivity of
the defining bundle map on fibres, the six-generator presentation of the
deg1 quotient chart ring with its seven relations (with the degree-2
factorisation tower checked on the same kernel), the principal equation
h = a0 + a1*u1^2 + a2*u2^2 + a3*u3^2 of the singular locus via 4x4
Jacobian minors, the cuspidal curve hiding inside that locus (computed at
parameter root depth 3), and the explicit witness that the deg1 quotient
is geometrically reduced.  No check carries a tolerance; everything is an
identity in polynomial or rational arithmetic.  Foliations, presentation,
singular scan and reducedness witness compute on flat ``SparsePoly``
values, printed through ``as_geom``; only the cusp and S-values read over
K are rational.  The records are immutable ``NamedTuple``s.

Each stage runs once per chart: ``chart_table`` hands out one table per
(chart, depth), and ``singular_locus`` takes each Jacobian entry, normal
form and reduction once.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple

from .algebra import (
    GEOM,
    PARAM,
    Derivation,
    GeomPoly,
    ParamRational,
    SparsePoly,
    VarTable,
    exact_divide,
    pseudo_substitute,
    root_monomial,
)
from .quotient import (
    BaseRingS,
    Presentation,
    TTable,
    alpha_value,
    determinant,
    frobenius_factorization_check,  # noqa: F401  (bench/tracer.py traces it here)
    jacobian,
    jacobian_minors,
    normal_form,
    others,
    verify_presentation,
)
from .reports import CheckResult, check

FOLIATION_KINDS = ("deg1", "deg2")


_CHART_TABLES: dict[tuple[int, int], VarTable] = {}


def chart_table(i0: int = 0, depth: int = 0) -> VarTable:
    """Variable table over GF(2) for one affine chart of the quadric.

    Parameters a0..a3 (read as 2^depth-th roots when depth > 0), the
    homogeneous coordinates X0..X3, the chart coordinates x_m, the squares
    u_m, the kernel generators t_m and the cusp curve coordinate s.
    There is one table per (i0, depth) value, however the arguments are
    passed, so every table check on a chart is an identity test.
    """
    rest, key = others(i0), (i0, depth)
    if key not in _CHART_TABLES:
        names = [f"a{i}" for i in range(4)]
        names += [f"X{i}" for i in range(4)]
        names += [f"x{m}" for m in rest]
        names += [f"u{m}" for m in rest]
        names += [f"t{m}" for m in rest]
        names += ["s"]
        kinds = [PARAM] * 4 + [GEOM] * (len(names) - 4)
        _CHART_TABLES[key] = VarTable(names, kinds, root_depth=depth)
    return _CHART_TABLES[key]


class QuadricChart(NamedTuple):
    """One affine chart of the quadric: the chart relation q and the
    homogeneous form Q it dehomogenises, both flat in GF(2)[a][X, x]."""

    table: VarTable
    i0: int
    q: SparsePoly
    Q: SparsePoly

    @classmethod
    def build(cls, i0: int = 0, depth: int = 0) -> "QuadricChart":
        table = chart_table(i0, depth)
        alpha = {i: alpha_value(table, i) for i in range(4)}
        q = alpha[i0]
        for m in others(i0):
            q = q + alpha[m] * SparsePoly.var(table, f"x{m}", 2)
        Q = SparsePoly.zero(table)
        for i in range(4):
            Q = Q + alpha[i] * SparsePoly.var(table, f"X{i}", 2)
        return cls(table=table, i0=i0, q=q, Q=Q)

    def dehomogenisation_check(self) -> CheckResult:
        """Q at X_i0 = 1, X_m = x_m is q; lead 1 makes pseudo_substitute plain.
        A FAIL names the difference of the two."""
        one = SparsePoly.const(self.table, 1)
        image = pseudo_substitute(self.Q, f"X{self.i0}", one, one)
        for m in others(self.i0):
            image = pseudo_substitute(image, f"X{m}", one, SparsePoly.var(self.table, f"x{m}"))
        diff = image + self.q
        return check(f"dehomogenisation[chart{self.i0}]", diff.is_zero(),
                     None if diff.is_zero() else f"difference={diff.as_geom()}")


class FoliationSpec(NamedTuple):
    """A foliation generator on one chart, as an explicit derivation."""

    kind: str
    chart: QuadricChart
    theta: Derivation

    @classmethod
    def build(cls, kind: str, chart: QuadricChart) -> "FoliationSpec":
        if kind not in FOLIATION_KINDS:
            raise ValueError(f"unknown foliation kind {kind!r}")
        table = chart.table
        images = {}
        for m in others(chart.i0):
            x = SparsePoly.var(table, f"x{m}")
            images[f"x{m}"] = x + x * x
        if kind == "deg2":
            envelope = SparsePoly.const(table, 1)
            for m in others(chart.i0):
                envelope = envelope + SparsePoly.var(table, f"x{m}")
            for k in range(4):
                images[f"a{k}"] = alpha_value(table, k) * envelope
        return cls(kind=kind, chart=chart, theta=Derivation(table, images))


def check_p_closure(fol: FoliationSpec) -> list[CheckResult]:
    """theta^2 = theta on every generator; in characteristic 2 a
    derivation's square is a derivation again, so generator agreement
    settles the operator identity."""
    table = fol.chart.table
    theta = fol.theta
    names = [f"x{m}" for m in others(fol.chart.i0)] + [f"a{k}" for k in range(4)]
    out = []
    for name in names:
        once = theta(SparsePoly.var(table, name))
        twice = theta(once)
        diff = twice - once
        out.append(check(f"p_closure[{name}]", diff.is_zero(),
                         None if diff.is_zero() else f"difference={diff.as_geom()}"))
    return out


def check_ideal_preserved(fol: FoliationSpec) -> list[CheckResult]:
    """theta(q) must be an exact multiple of q; the witness is the cofactor.
    q has content 1, so by Gauss's lemma division in GF(2)[a][x] decides it."""
    image = fol.theta(fol.chart.q)
    cofactor = exact_divide(image, fol.chart.q)
    ok = cofactor is not None
    return [check("ideal_preserved", ok,
                  f"cofactor={cofactor.as_geom()}" if ok else f"image={image.as_geom()}")]


def field_of_constants_check(fol: FoliationSpec) -> list[CheckResult]:
    """deg1 kills every parameter; deg2 kills every product a_i*a_j while
    visibly moving a_0, the witness for the index-2 constant subfield."""
    table = fol.chart.table
    theta = fol.theta
    out = []
    if fol.kind == "deg1":
        for k in range(4):
            img = theta(SparsePoly.var(table, f"a{k}"))
            out.append(check(f"kills[a{k}]", img.is_zero(),
                             None if img.is_zero() else f"image={img.as_geom()}"))
        return out
    alpha = {i: alpha_value(table, i) for i in range(4)}
    for i in range(4):
        for j in range(i, 4):
            img = theta(alpha[i] * alpha[j])
            out.append(check(f"kills[a{i}*a{j}]", img.is_zero(),
                             None if img.is_zero() else f"image={img.as_geom()}"))
    moved = theta(alpha[0])
    out.append(check("moves[a0]", not moved.is_zero(), f"image={moved.as_geom()}"))
    return out


def check_fibre_injectivity(table: VarTable | None = None) -> list[CheckResult]:
    """The bundle map defining the foliation drops rank exactly where all
    2x2 minors of the rows (X_i^2) and (X_i) vanish.

    Part one confirms each minor is X_i X_j (X_i + X_j).  Part two runs the
    finite consequence of their vanishing: up to scaling a common zero has
    0/1 coordinates, and every such point evaluates the quadric form to a
    nonzero sum of parameters.
    """
    if table is None:
        table = chart_table(0)
    out = []
    X = [SparsePoly.var(table, f"X{i}") for i in range(4)]
    for i, j in combinations(range(4), 2):
        minor = X[i] ** 2 * X[j] - X[j] ** 2 * X[i]
        expected = X[i] * X[j] * (X[i] + X[j])
        ok = minor == expected
        out.append(check(f"minor_identity[X{i},X{j}]", ok,
                         None if ok else f"minor={minor.as_geom()}"))
    alpha = {i: alpha_value(table, i) for i in range(4)}
    for eps in product((0, 1), repeat=4):
        if not any(eps):
            continue
        value = sum((alpha[i] for i, bit in enumerate(eps) if bit), SparsePoly.zero(table))
        ok = not value.is_zero()
        out.append(check(f"point_off_quadric[{''.join(map(str, eps))}]", ok,
                         f"Q={value}"))
    return out


def build_presentation(i0: int = 0, depth: int = 0) -> Presentation:
    """The expected chart presentation of the deg1 quotient: generators
    u_a, u_b, u_c, t_a, t_b, t_c with relations r_0..r_6 and the embedding
    u_m -> x_m^2, t_i -> x_j x_k (1 + x_j + x_k)."""
    table = chart_table(i0, depth)
    n1, n2, n3 = others(i0)
    alpha = {i: alpha_value(table, i) for i in range(4)}
    u = {m: SparsePoly.var(table, f"u{m}") for m in (n1, n2, n3)}
    t = {m: SparsePoly.var(table, f"t{m}") for m in (n1, n2, n3)}
    x = {m: SparsePoly.var(table, f"x{m}") for m in (n1, n2, n3)}
    one = SparsePoly.const(table, 1)

    relations: dict[str, SparsePoly] = {}
    relations["r_0"] = sum((alpha[m] * u[m] for m in (n1, n2, n3)), alpha[i0])
    for pos, (i, j, k) in enumerate(
            ((n1, n2, n3), (n2, n1, n3), (n3, n1, n2)), start=1):
        relations[f"r_{pos}"] = t[i] ** 2 + u[j] * u[k] * (one + u[j] + u[k])
    for pos, (i, j, k) in enumerate(
            ((n1, n2, n3), (n2, n1, n3), (n3, n1, n2)), start=4):
        relations[f"r_{pos}"] = (t[j] * t[k] + u[n1] * u[n2] * u[n3]
                                 + (u[i] + u[i] ** 2) * t[i]
                                 + u[i] * u[j] * t[j] + u[i] * u[k] * t[k])

    embedding: dict[str, SparsePoly] = {}
    for m in (n1, n2, n3):
        embedding[f"u{m}"] = x[m] ** 2
    for i, j, k in ((n1, n2, n3), (n2, n1, n3), (n3, n1, n2)):
        embedding[f"t{i}"] = x[j] * x[k] * (one + x[j] + x[k])

    generators = [f"u{m}" for m in (n1, n2, n3)] + [f"t{m}" for m in (n1, n2, n3)]
    return Presentation(chart=i0, generators=generators, relations=relations,
                        embedding=embedding, table=table)


def quotient_presentation(fol: FoliationSpec) -> tuple[Presentation, list[CheckResult]]:
    """Run the kernel pipeline on the deg1 foliation and certify the
    expected presentation, and the degree of the factorisation tower,
    against its one kernel."""
    if fol.kind != "deg1":
        raise ValueError("only the deg1 quotient has an in-scope presentation")
    pres = build_presentation(fol.chart.i0, fol.chart.table.root_depth)
    ring = BaseRingS(pres.table, pres.chart)
    checks = verify_presentation(pres, ring, fol.theta)
    return pres, checks


def _h_polynomial(table: VarTable, i0: int) -> SparsePoly:
    return sum((alpha_value(table, m) * SparsePoly.var(table, f"u{m}", 2) for m in others(i0)),
               alpha_value(table, i0))


def singular_locus(pres: Presentation) -> list[CheckResult]:
    """Jacobian criterion for the deg1 quotient chart.

    Every 4x4 minor of the 7x6 Jacobian must be exactly divisible by
    h = a0 + a1*u1^2 + a2*u2^2 + a3*u3^2 (coefficientwise on the
    1, t_a, t_b, t_c coordinates); the 3x3 minors of the u-block are 0 and
    (u_m + u_m^2) h; the 2x2 minors of the t-block all collapse to
    relations; and the 0/1 parameter sums certify that the t-block's
    diagonal entries generate the unit ideal.  The 42 Jacobian entries are
    taken once and both blocks are read off them.

    The scan runs fraction-free on flat values in R = GF(2)[a][u, t]: a
    value f of S = K[u]/(r_0) becomes F = a_e^k f reduced mod r_0 by
    pseudo-division (``BaseRingS.pseudo_reduce``, e the eliminated index),
    zero exactly when f is, a_e being a unit of K.  The divisor is
    h' = a_e h mod r_0 = sum_j a_j (a_j + a_e) u_j^2 (u_i0 := 1); its
    coefficients are products of pairwise coprime linear forms, so its
    content is 1.  Then h | f in S iff h' | F in K[u], and by Gauss's
    lemma iff h' | F in R (if h' c q0 = F with c in K and q0 in R
    primitive, h' q0 is primitive, so c lies in GF(2)[a]), which trial
    division over GF(2) decides.  The argument needs that closed form, so
    a_e h' is checked against a_e^2 h mod r_0; a mismatch raises
    ArithmeticError instead of reporting a FAIL.  Only a failing u-block
    minor is read over K (``BaseRingS.reduce``), for its witness.  Of the
    4 x 525 coordinates most are 0, which is h' * 0, and the rest repeat
    few values; as the verdict depends on the value alone, each distinct
    nonzero one is decided once.

    The minors are taken in the t-algebra (``TTable``), into which
    ``normal_form`` turns each Jacobian entry once.  If its table is
    associative on the 27 basis triples, t_k -> t_k is a ring map from R
    onto it killing the relations and fixing t-linear values, so the
    table's coordinates of a product are those of its image, unique in
    GF(2)[a][u] (Bergman's diamond lemma: associativity of the structure
    constants is the confluence of the reductions they define).  So the
    4x4 check also needs associativity.  A 2x2 t-block minor is a sum of
    products of two t-linear entries, each one table lookup, so its
    coordinates need none.
    """
    table = pres.table
    i0 = pres.chart
    ring = BaseRingS(table, i0)
    t_table = TTable(pres)
    rel_names, rels = list(pres.relations), list(pres.relations.values())
    a, e = {i: alpha_value(table, i) for i in range(4)}, others(i0)[-1]
    closed = sum((a[m] * (a[m] + a[e]) * SparsePoly.var(table, f"u{m}", 2)
                  for m in others(i0)), a[i0] * (a[i0] + a[e]))
    h = _h_polynomial(table, i0)
    if ring.pseudo_reduce(h) != a[e] * closed:
        raise ArithmeticError("a_e*h reduced mod r_0 is not its primitive closed form")
    out = []

    jac = jacobian(rels, pres.generators)
    values = [[normal_form(entry, t_table) for entry in row] for row in jac]
    minors = jacobian_minors(values, 4)
    bad = _undivided(minors, ring.pseudo_reduce, closed)
    skew = t_table.nonassociative()
    out.append(check("minors_divisible_by_h", not bad and not skew,
                     f"checked {len(minors)} minors"
                     + (f", failures at {bad[:4]}" if bad else "")
                     + (f", t-table not associative at {skew[:4]} ({len(skew)} of 27)"
                        if skew else "")))

    top = jacobian_minors([row[:3] for row in jac[:4]], 3)
    expected = {(1, 2, 3): SparsePoly.zero(table)}
    for drop, m in enumerate(others(i0)):
        rows = tuple(sorted(set(range(4)) - {drop + 1}))
        u = SparsePoly.var(table, f"u{m}")
        expected[rows] = (u + u ** 2) * h
    for (rows, _cols), minor in top:
        ok = ring.pseudo_reduce(minor - expected[rows]).is_zero()
        label = ",".join(rel_names[r] for r in rows)
        out.append(check(f"u_block_minor[{label}]", ok,
                         None if ok else f"minor={ring.reduce(minor)}"))

    lower = jacobian_minors([row[3:] for row in values[4:]], 2)
    raw = jacobian_minors([row[3:] for row in jac[4:]], 2)
    for ((rows, cols), minor), (_, raw_minor) in zip(lower, raw, strict=True):
        vanishes = all(ring.pseudo_reduce(c).is_zero() for c in minor.coords)
        named = [n for n, rel in zip(rel_names, rels) if rel == raw_minor]
        witness = f"equals {named[0]}" if named else None
        out.append(check(f"t_block_minor[rows={rows},cols={cols}]",
                         vanishes, witness))

    for eps in product((0, 1), repeat=3):
        value = sum((a[m] for bit, m in zip(eps, others(i0)) if bit), a[i0])
        ok = not value.is_zero()
        out.append(check(f"unit_certificate[{''.join(map(str, eps))}]", ok,
                         f"sum={value}"))
    return out


def _undivided(minors, reduce, divisor) -> list:
    """Index pairs of the minors, given as (index pair, ``TValue``), with a
    coordinate that ``divisor`` does not divide once ``reduce`` has taken it
    into S; one verdict per distinct nonzero coordinate, one lookup each."""
    fails, bad = {}, {}
    for index, minor in minors:
        for i in minor.support:
            c = minor.coords[i]
            if (fail := fails.get(c)) is None:
                fail = fails[c] = exact_divide(reduce(c), divisor) is None
            if fail:
                bad[index] = True
    return list(bad)


class CuspReport(NamedTuple):
    """Data of the cuspidal curve in the singular locus, at root depth 3."""

    root_depth: int
    coefficients: dict[str, ParamRational]
    curve_relation: GeomPoly
    cusp_u: ParamRational
    cramer_a: list[list[SparsePoly]]
    cramer_a1: list[list[SparsePoly]]
    det_a: SparsePoly
    det_a1: SparsePoly


def cusp_curve() -> tuple[CuspReport, list[CheckResult]]:
    """Restrict the chart-0 presentation to the singular locus and identify
    the rational cuspidal curve inside it.

    Working at parameter root depth 3, the locus equation and r_0 solve
    u2, u3 linearly in u := u1; the quadratic relations then read
    t_i^2 + cubic(u), and after the square-root change of variables the
    curve ring is k[u, s]/(s^2 + u (c11 + c13 u^2)).  The cusp sits at
    u = sqrt(c11/c13), pinned down independently by the Cramer determinant
    identity (det A_1 / det A_0)^4 = c11 / c13.
    """
    depth = 3
    pres = build_presentation(0, depth)
    table = pres.table
    rels = {name: rel.as_geom() for name, rel in pres.relations.items()}
    out = []

    sqrt_a = {i: ParamRational(root_monomial(table, f"a{i}", 1)) for i in range(4)}
    alpha = {i: ParamRational(alpha_value(table, i)) for i in range(4)}
    u1 = GeomPoly.var(table, "u1")

    den = alpha[2] + sqrt_a[2] * sqrt_a[3]
    u2_of_u = (GeomPoly.const(table, (alpha[0] + sqrt_a[0] * sqrt_a[3]) / den)
               + u1.scaled((alpha[1] + sqrt_a[1] * sqrt_a[3]) / den))
    u3_of_u = (GeomPoly.const(table, alpha[0]) + u1.scaled(alpha[1])
               + u2_of_u.scaled(alpha[2])).scaled(alpha[3].inverse())
    locus_subs = {"u2": u2_of_u, "u3": u3_of_u}

    # the substitution solves r_0 and the square root of the locus equation
    sqrt_h = GeomPoly.const(table, sqrt_a[0])
    for m in (1, 2, 3):
        sqrt_h = sqrt_h + GeomPoly.var(table, f"u{m}").scaled(sqrt_a[m])
    for name, rel in (("r_0", rels["r_0"]), ("sqrt_h", sqrt_h)):
        image = rel.substituted(locus_subs)
        out.append(check(f"locus_solved[{name}]", image.is_zero(),
                         None if image.is_zero() else f"image={image}"))

    c = {}
    for i in (1, 2, 3):
        t_square = GeomPoly.var(table, f"t{i}") ** 2
        cubic = rels[f"r_{i}"].substituted(locus_subs) - t_square
        c.update({(i, j): cubic.coefficient({"u1": j}) for j in range(4)})
        if cubic != sum(((u1 ** j).scaled(c[(i, j)]) for j in range(4)), GeomPoly.zero(table)):
            raise ArithmeticError(f"r_{i} on the locus is not t{i}^2 plus a cubic in u1")

    for i in (2, 3):
        out.append(check(f"constant_term_vanishes[c{i}0]", c[(i, 0)].is_zero(),
                         None if c[(i, 0)].is_zero() else str(c[(i, 0)])))
    out.append(check("constant_term_nonzero[c10]", not c[(1, 0)].is_zero()))

    for i, j in combinations((1, 2, 3), 2):
        rel_sum = c[(i, 1)] * c[(j, 3)] + c[(j, 1)] * c[(i, 3)]
        out.append(check(f"coefficient_relation[{i},{j}]", rel_sum.is_zero(),
                         None if rel_sum.is_zero() else str(rel_sum)))

    ratios = {i: c[(i, 1)] / c[(1, 1)] for i in (2, 3)}
    roots = {}
    for label, value in (("c10", c[(1, 0)]), ("c12", c[(1, 2)]),
                         ("c22", c[(2, 2)]), ("c32", c[(3, 2)]),
                         ("c21/c11", ratios[2]), ("c31/c11", ratios[3])):
        root = value.p_root()
        out.append(check(f"square_root_exists[{label}]", root is not None))
        roots[label] = root

    # s_i^2 = (c_i1/c_11) s_1^2 as cubic identities in u
    base = u1.scaled(c[(1, 1)]) + (u1 ** 3).scaled(c[(1, 3)])
    for i in (2, 3):
        lhs = u1.scaled(c[(i, 1)]) + (u1 ** 3).scaled(c[(i, 3)])
        out.append(check(f"s_square_ratio[{i}]", lhs == base.scaled(ratios[i])))

    if any(root is None for root in roots.values()):
        raise ArithmeticError("cusp computation needs square roots beyond depth 3")

    s = GeomPoly.var(table, "s")
    t_subs = {
        "t1": s + GeomPoly.const(table, roots["c10"]) + u1.scaled(roots["c12"]),
        "t2": s.scaled(roots["c21/c11"]) + u1.scaled(roots["c22"]),
        "t3": s.scaled(roots["c31/c11"]) + u1.scaled(roots["c32"]),
    }
    curve_relation = s ** 2 + u1.scaled(c[(1, 1)]) + (u1 ** 3).scaled(c[(1, 3)])
    # the generator of a principal ideal is a Groebner basis for any order,
    # so exact division decides membership in it
    for m in (4, 5, 6):
        g = rels[f"r_{m}"].substituted(locus_subs | t_subs)
        ok = exact_divide(g, curve_relation) is not None
        out.append(check(f"curve_relation_reduces[r_{m}]", ok,
                         None if ok else f"image={g}"))

    ratio = c[(1, 1)] / c[(1, 3)]
    cusp_u = ratio.p_root()
    out.append(check("cusp_coordinate_is_square_root", cusp_u is not None))
    quarter = cusp_u.p_root() if cusp_u is not None else None
    out.append(check("ratio_is_fourth_power", quarter is not None))
    if cusp_u is None:
        raise ArithmeticError("c11/c13 is not a square at depth 3")

    a_matrix = [[root_monomial(table, f"a{i}", j) for i in (1, 2, 3)]
                for j in (1, 2, 3)]
    b_column = [root_monomial(table, "a0", j) for j in (1, 2, 3)]
    a1_matrix = [[b_column[r]] + a_matrix[r][1:] for r in range(3)]
    zero = SparsePoly.zero(table)
    det_a = determinant(a_matrix, zero)
    det_a1 = determinant(a1_matrix, zero)
    det_a_r = ParamRational(det_a)
    det_a1_r = ParamRational(det_a1)
    out.append(check("cramer_fourth_power",
                     det_a1_r ** 4 * c[(1, 3)] == det_a_r ** 4 * c[(1, 1)],
                     f"det_A={det_a}, det_A_1={det_a1}"))
    out.append(check("cusp_matches_cramer_point",
                     cusp_u == (det_a1_r / det_a_r) ** 2))

    X = [SparsePoly.var(table, f"X{i}") for i in range(4)]
    double_line = sum((root_monomial(table, f"a{i}", 2) * X[i] for i in range(4)), zero)
    squared = sum((root_monomial(table, f"a{i}", 1) * X[i] for i in range(4)), zero)
    one = SparsePoly.const(table, 1)
    for i in range(4):
        # lead 1: the plain substitution X_i -> X_i^2, each X_i^e to X_i^(2e)
        squared = pseudo_substitute(squared, f"X{i}", one, X[i] ** 2)
    out.append(check("double_line_frobenius", double_line.frobenius() == squared))

    coefficients = {f"c_{i}{j}": c[(i, j)] for i in (1, 2, 3) for j in range(4)}
    report = CuspReport(
        root_depth=depth,
        coefficients=coefficients,
        curve_relation=curve_relation,
        cusp_u=cusp_u,
        cramer_a=a_matrix,
        cramer_a1=a1_matrix,
        det_a=det_a,
        det_a1=det_a1,
    )
    return report, out


def witness_point_value(f: SparsePoly) -> ParamRational:
    """f at (x1, x2, x3) = (0, 0, a0/a3), fraction-free as in
    ``dehomogenisation_check``: F/a3^k, where k is the degree in x3 and F
    is a3^k f at the point by pseudo-division.  Over a monomial denominator
    the normal form is the unique one of a Laurent polynomial."""
    table = f.table
    one, zero = SparsePoly.const(table, 1), SparsePoly.zero(table)
    a0, a3 = SparsePoly.var(table, "a0"), SparsePoly.var(table, "a3")
    flat = pseudo_substitute(pseudo_substitute(f, "x1", one, zero), "x2", one, zero)
    return ParamRational(pseudo_substitute(flat, "x3", a3, a0), a3 ** flat.degree_in("x3"))


def reducedness_witness() -> list[CheckResult]:
    """Witness that the deg1 quotient is geometrically reduced.

    At root depth 1 the quadric form is the square of the linear form
    l = a0 + a1 x1 + a2 x2 + a3 x3 (symbols denote square roots here).
    The deg1 derivation sends l to l plus the Frobenius-twisted form, and
    evaluating at (0, 0, a0/a3) gives a0 + a0^2/a3 != 0, so l does not
    divide its own derivative (``witness_point_value``)."""
    quad = QuadricChart.build(0, depth=1)
    table = quad.table
    fol = FoliationSpec.build("deg1", quad)
    b = {i: SparsePoly.var(table, f"a{i}") for i in range(4)}
    x = {m: SparsePoly.var(table, f"x{m}") for m in (1, 2, 3)}
    out = []

    ell = b[0]
    for m in (1, 2, 3):
        ell = ell + b[m] * x[m]
    image = fol.theta(ell)
    expected = ell + b[0]
    for m in (1, 2, 3):
        expected = expected + b[m] * x[m] ** 2
    out.append(check("derivative_identity", image == expected,
                     None if image == expected else f"image={image.as_geom()}"))

    value = witness_point_value(image)
    expected_value = ParamRational(b[0] * (b[0] + b[3]), b[3])
    out.append(check("evaluation_value", value == expected_value, f"value={value}"))
    out.append(check("evaluation_nonzero", not value.is_zero(), f"value={value}"))

    out.append(check("square_recovers_quadric", ell.frobenius() == quad.q))
    return out
