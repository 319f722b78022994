"""Linear algebra over the chart base ring for the quotient computation.

Over K = GF(2)(a0..a3), on the chart i0 the double cover has coordinate
ring M = K[x]/(q), a free rank-8 module over the base ring S = K[u]/(r_0)
with the square-free basis 1, x_a, x_b, x_c, x_a x_b, ..., x_a x_b x_c,
where u_m stands for x_m^2.  S itself is realised canonically as a
polynomial ring in two of the u's by eliminating the u with the highest
index, u_elim, through r_0: ``BaseRingS.pseudo_reduce`` pseudo-divides a
flat value, and ``reduce`` reads the result over K.  A module vector is
the 8-tuple of its coordinates, each a canonical S-value: a ``GeomPoly``
free of u_elim, its coefficients over powers of a_elim.  Sums, products
and scalings of canonical values are canonical, so the one reduction is
at the flat rewrite x_m^2 -> u_m in ``to_module_vector``, and equality
and zero tests on S-values are the polynomial ones.  The ring has
characteristic 2, so negation is the identity.

The quotient surface's chart ring is the kernel of the foliation
derivation acting S-linearly on M.  The kernel is computed by exact
Gaussian elimination over Frac(S) (``SFraction``, an ``algebra.RingFraction``)
and denominators are cleared afterwards, so every returned coordinate
lies in S and the matrix identity mat * v = 0 is rechecked exactly.

``Presentation``, an immutable ``NamedTuple`` like every record of the
package, carries the expected generators, relations and embedding of the
quotient ring, all flat; ``verify_presentation`` certifies them against
the computed kernel and, from the same kernel, checks the degree of the
factorisation tower, so each presentation's matrix and kernel are
computed once.  The normal form of the quotient ring is ``TTable``, the
structure constants of the t-algebra read from the relations:
``normal_form`` turns a t-linear value into a ``TValue`` on 1, t_a, t_b,
t_c, and a sum of products sends each t-quadratic part through one table
entry, so no t-quadratic monomial is ever built.  The table product is
bilinear, so sum_k x_k y_k is the table map of the summed raw parts of
all its terms: summing first needs no associativity, nor does a product
of two t-linear values, a single lookup.  Longer products are unique when
the table is associative, the one premise, which ``TTable.nonassociative``
alone checks, on two-factor products.  The table holds flat ``SparsePoly``
values, which ``BaseRingS.pseudo_reduce`` reduces fraction-free
(``surfaces.singular_locus`` shows by Gauss's lemma that divisibility by
h survives).
"""

from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple

from .algebra import (
    GeomPoly,
    ParamRational,
    RingFraction,
    SparsePoly,
    VarTable,
    dot,
    pseudo_substitute,
    strip_common_monomial,
)
from .reports import CheckResult, check

# basis slots as subsets of the three chart coordinates, in the fixed order
# 1, x_a, x_b, x_c, x_a x_b, x_a x_c, x_b x_c, x_a x_b x_c
_SUBSETS = ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))
_SLOT_OF = {bits: slot for slot, bits in enumerate(_SUBSETS)}


class DerivationNotLinearError(ValueError):
    """The derivation fails S-linearity; the message names the generator."""


def others(chart: int) -> tuple[int, ...]:
    """The indices m != chart of the chart coordinates x_m: the one check
    of a chart index, which must be an int (not a bool) in 0..3."""
    if type(chart) is not int or not 0 <= chart <= 3:
        raise ValueError(f"chart index must be an integer in 0..3, got {chart!r}")
    return tuple(m for m in range(4) if m != chart)


def alpha_value(table: VarTable, i: int) -> SparsePoly:
    """The depth-0 parameter a_i expressed in the table's root symbols."""
    return SparsePoly.var(table, f"a{i}", 2 ** table.root_depth)


class BaseRingS:
    """The ring K[u_a, u_b, u_c]/(r_0) on chart i0, canonically a polynomial
    ring in two u's after eliminating the highest-index one via r_0."""

    __slots__ = ("table", "chart", "others", "x_names", "u_names",
                 "elim_name", "_lead", "_rest")

    def __init__(self, table: VarTable, chart: int):
        self.table = table
        self.chart = chart
        self.others = others(chart)
        self.x_names = tuple(f"x{m}" for m in self.others)
        self.u_names = tuple(f"u{m}" for m in self.others)
        self.elim_name = self.u_names[-1]
        a = {i: alpha_value(table, i) for i in range(4)}
        self._lead = a[self.others[-1]]
        self._rest = sum((a[m] * SparsePoly.var(table, f"u{m}") for m in self.others[:-1]),
                         a[chart])

    def reduce(self, f: SparsePoly) -> GeomPoly:
        """The canonical S-value of f: ``pseudo_reduce`` read over K."""
        if not (k := f.degree_in(self.elim_name)):
            return f.as_geom()
        return self.pseudo_reduce(f).as_geom().scaled(
            ParamRational(SparsePoly.const(self.table, 1), self._lead ** k))

    def pseudo_reduce(self, f: SparsePoly) -> SparsePoly:
        """a_elim^k * f reduced mod r_0 without fractions, k the degree of
        f in u_elim: a_elim^k times ``reduce`` of f, zero exactly when f is
        zero in S, a_elim being a unit of K."""
        return pseudo_substitute(f, self.elim_name, self._lead, self._rest)


def basis_monomial(ring: BaseRingS, slot: int) -> SparsePoly:
    return SparsePoly.monomial(ring.table, {ring.x_names[i]: 1 for i in _SUBSETS[slot]})


def to_module_vector(f: SparsePoly, ring: BaseRingS) -> tuple:
    """The eight coordinates of f in the square-free basis, rewriting
    x_m^2 -> u_m; the one place u_elim enters, so each is reduced here."""
    table = ring.table
    x_idx = tuple(table.index(n) for n in ring.x_names)
    u_idx = tuple(table.index(n) for n in ring.u_names)
    foreign = [i for i in table.geom_indices if i not in x_idx]
    coords = [{} for _ in range(8)]
    for exp in f.terms:
        if any(exp[i] for i in foreign):
            raise ValueError("expected a polynomial in the chart coordinates")
        slot = _SLOT_OF[tuple(pos for pos, i in enumerate(x_idx) if exp[i] & 1)]
        u_exp = list(exp)
        for x, u in zip(x_idx, u_idx):
            u_exp[x], u_exp[u] = 0, exp[x] >> 1
        coords[slot][tuple(u_exp)] = 1
    return tuple(ring.reduce(SparsePoly(table, c)) for c in coords)


def derivation_matrix(delta, ring: BaseRingS):
    """8x8 matrix of the derivation on M over S; column j is the vector of
    the image of the j-th basis monomial.

    S-linearity is verified first: the derivation must kill every
    parameter.  The squares u_m = x_m^2 need no test, as over GF(2) any
    derivation sends x^2 to 2x*delta(x) = 0.
    """
    table = ring.table
    for i in table.param_indices:
        name = table.names[i]
        if name in delta.images:
            raise DerivationNotLinearError(
                f"derivation does not kill the parameter {name}")
    cols = [to_module_vector(delta(basis_monomial(ring, j)), ring) for j in range(8)]
    return [[cols[j][i] for j in range(8)] for i in range(8)]


def matrix_apply(mat, vec: tuple) -> tuple:
    """mat * vec over S.  Entries and coordinates must be canonical (free
    of u_elim); sums and products of canonical values are canonical, so
    nothing is reduced."""
    zero = GeomPoly.zero(mat[0][0].table)
    return tuple(sum((entry * c for entry, c in zip(row, vec)
                      if not (entry.is_zero() or c.is_zero())), zero)
                 for row in mat)


class SFraction(RingFraction):
    """Fraction of canonical S-elements, used for exact elimination; its
    normal form makes the denominator's leading coefficient one."""

    __slots__ = ()

    def __init__(self, num: GeomPoly):
        # num/1 is already in normal form: a denominator of one is monic
        self.num, self.den = num, GeomPoly.one(num.table)

    @staticmethod
    def normalise(num: GeomPoly, den: GeomPoly):
        if num.is_zero():
            return num, GeomPoly.one(num.table)
        _, lc = den.lead_term()
        if lc.is_one():
            return num, den
        inv = lc.inverse()
        return num.scaled(inv), den.scaled(inv)

    divide = None  # no divisor rule in sums: see RingFraction

    # bound here as well: bench/tracer.py wraps them in this class's namespace
    __add__, __sub__, __neg__, __mul__, __truediv__, inverse, __eq__ = (
        RingFraction.__add__, RingFraction.__sub__, RingFraction.__neg__,
        RingFraction.__mul__, RingFraction.__truediv__, RingFraction.inverse,
        RingFraction.__eq__)


def _rref(rows, width: int):
    """Reduced row echelon form in place over SFraction entries.

    Pivots are the first nonzero entries in column order; row operations
    act on the full row so trailing augmented columns stay consistent.
    A pivot column is written as e_r (1/1, and a shared 0/1 for a - a*1)
    and never read again: ``kernel_basis`` reads free columns,
    ``_solve_span`` augmented ones, and a later pivot row is zero in
    earlier columns.  Other entries are computed as before; zeros are
    kept, as 0 * p^-1 and a - factor * 0 give the same values.
    """
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
        row, table = rows[r], rows[r][col].table
        inv = row[col].inverse()
        tail = [e if e.is_zero() else e * inv for e in row[col + 1:]]
        rows[r] = row[:col] + [SFraction(GeomPoly.one(table))] + tail
        zero = SFraction(GeomPoly.zero(table))
        for i in range(nrows):
            if i != r and not rows[i][col].is_zero():
                other, factor = rows[i], rows[i][col]
                rows[i] = other[:col] + [zero] + [a if b.is_zero() else a - factor * b
                                                  for a, b in zip(other[col + 1:], tail)]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots


def kernel_basis(mat, ring: BaseRingS) -> list[tuple]:
    """Kernel of the matrix over Frac(S), denominators cleared into S.

    Every returned vector is rechecked against mat * v = 0 exactly.
    """
    n = len(mat)
    table = ring.table
    rows = [[SFraction(e) for e in row] for row in mat]
    pivots = _rref(rows, n)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        coords = [SFraction(GeomPoly.zero(table))] * n
        coords[free] = SFraction(GeomPoly.one(table))
        for r, pc in enumerate(pivots):
            coords[pc] = -rows[r][free]
        vec = _clear_denominators(coords)
        if not all(c.is_zero() for c in matrix_apply(mat, vec)):
            raise ArithmeticError("kernel vector fails the exact matrix identity")
        basis.append(vec)
    return basis


def _clear_denominators(coords) -> tuple:
    out = []
    for i, c in enumerate(coords):
        num = c.num
        for j, other in enumerate(coords):
            if j != i:
                num = num * other.den
        out.append(num)
    # tidy by the common monomial factor and a leading unit; both are
    # invertible scalings over Frac(S), so the kernel property is kept
    out = strip_common_monomial(out)
    lead = next((g for g in out if not g.is_zero()), None)
    if lead is not None:
        _, lc = lead.lead_term()
        if not lc.is_one():
            inv = lc.inverse()
            out = [g.scaled(inv) for g in out]
    return tuple(out)


class Presentation(NamedTuple):
    """Named generators and relations of a quotient chart ring, with the
    embedding of each generator into the double cover's chart ring."""

    chart: int
    generators: list[str]
    relations: dict[str, SparsePoly]
    embedding: dict[str, SparsePoly]
    table: VarTable

    @property
    def u_names(self):
        return self.generators[:3]

    @property
    def t_names(self):
        return self.generators[3:]

    @property
    def x_names(self):
        return [f"x{m}" for m in others(self.chart)]

    def to_json(self) -> dict:
        return {
            "chart": self.chart,
            "generators": list(self.generators),
            "relations": [{"name": name, "terms": rel.as_geom().to_json(self.generators)}
                          for name, rel in self.relations.items()],
            "embedding": {name: img.as_geom().to_json(self.x_names)
                          for name, img in self.embedding.items()},
        }

    @classmethod
    def from_json(cls, data: dict, table: VarTable) -> "Presentation":
        """An entry with a coefficient that is not a polynomial raises ValueError,
        as does an embedding that does not map exactly the generators."""
        x_names = [f"x{m}" for m in others(data["chart"])]
        generators = list(data["generators"])
        if set(data["embedding"]) != set(generators):
            raise ValueError("the embedding must map exactly the generators")

        def flat(label, terms, names):
            geom = GeomPoly.from_json(table, terms, names)
            try:
                return geom.as_sparse()
            except ArithmeticError:
                raise ValueError(f"{label} has a coefficient that is not a polynomial") from None
        relations = {item["name"]: flat(f"relation {item['name']}", item["terms"], generators)
                     for item in data["relations"]}
        embedding = {name: flat(f"embedding image of {name}", terms, x_names)
                     for name, terms in data["embedding"].items()}
        return cls(chart=data["chart"], generators=generators,
                   relations=relations, embedding=embedding, table=table)


def t_parts(f, pres: Presentation) -> tuple:
    """``linear_parts`` on the t generators, raising ArithmeticError."""
    try:
        return f.linear_parts(pres.t_names)
    except ValueError as exc:
        raise ArithmeticError(f"not t-linear: {f}") from exc


class TTable:
    """Structure constants t_i t_j = c_ij0 + sum_k c_ijk t_k (t-positions
    i <= j) of the rank-4 t-algebra: the normal form of the quotient ring.

    Each c_ij is read straight from the one relation whose t-quadratic
    part is c * t_i t_j, c in GF(2)[a], as the coordinates of the right
    side relation + t_i t_j on 1, t_a, t_b, t_c: over GF(2) a bare t_i t_j
    has coefficient 1, so no division is needed, and any other c raises
    ArithmeticError.  So do a right side that is not t-linear, a t-pair
    two relations rewrite, and fewer than six t-pairs."""

    __slots__ = ("pres", "consts", "zero")

    def __init__(self, pres: Presentation):
        table = pres.table
        t_idx = [table.index(n) for n in pres.t_names]
        self.pres, self.zero, self.consts = pres, SparsePoly.zero(table), {}
        for rel in pres.relations.values():
            quads = [exp for exp in rel.terms if sum(exp[i] for i in t_idx) == 2]
            shapes = {tuple(exp[i] for i in table.geom_indices) for exp in quads}
            if len(shapes) != 1 or sum(shapes.pop()) != 2:
                continue
            exp = quads[0]
            pair = tuple(pos for pos, i in enumerate(t_idx) for _ in range(exp[i]))
            if pair in self.consts:
                raise ArithmeticError(f"two relations rewrite the t-pair {pair}")
            if len(quads) != 1 or sum(exp) != 2:
                raise ArithmeticError(f"the t-pair {pair} has a coefficient other than 1")
            self.consts[pair] = t_parts(rel + SparsePoly(table, {exp: 1}), pres)
        if len(self.consts) != 6:
            raise ArithmeticError(f"the relations rewrite {len(self.consts)} of the 6 t-pairs")

    def nonassociative(self) -> list:
        """The basis triples (i, j, k) of t-positions with
        (t_i t_j) t_k != t_i (t_j t_k), compared exactly in GF(2)[a][u];
        t_i t_j is read off the table."""
        one = SparsePoly.const(self.pres.table, 1)
        t = [TValue(self, [one if k == i else self.zero for k in range(4)]) for i in (1, 2, 3)]
        tt = {(i, j): TValue(self, self.consts[min(i, j), max(i, j)])
              for i, j in product(range(3), repeat=2)}
        return [(i, j, k) for i, j, k in product(range(3), repeat=3)
                if (tt[i, j] * t[k]).coords != (t[i] * tt[j, k]).coords]


class TValue:
    """c_0 + c_1 t_a + c_2 t_b + c_3 t_c, the positions of its nonzero
    coordinates in ``support``.  ``dot`` takes a sum of products in one pass,
    sound by bilinearity alone (see the module): ``TTable.nonassociative``
    alone carries the associativity premise.  A product is one pair."""

    __slots__ = ("table", "coords", "support")

    def __init__(self, table: TTable, coords):
        self.table, self.coords = table, tuple(coords)
        self.support = tuple(i for i, c in enumerate(self.coords) if not c.is_zero())

    @classmethod
    def zero(cls, table: TTable) -> TValue:
        return cls(table, [table.zero] * 4)

    def is_zero(self) -> bool:
        return not self.support

    def __mul__(self, other):
        return TValue.dot(self.table, ((self, other),))

    @staticmethod
    def dot(table: TTable, pairs) -> TValue:
        """sum_k x_k y_k over nonempty ``pairs``: the t-quadratic parts of all pairs
        are gathered to meet each c_ij once, and each coordinate is one ``algebra.dot``."""
        flat, parts, quads = table.pres.table, ([], [], [], []), {}
        for x, y in pairs:
            xs, ys = x.coords, y.coords
            for i in x.support:
                for j in y.support:
                    if i and j:
                        quads.setdefault((min(i, j) - 1, max(i, j) - 1), []).append((xs[i], ys[j]))
                    else:
                        parts[i + j].append((xs[i], ys[j]))
        for pair, qs in quads.items():
            q = dot(flat, qs)
            for part, c in zip(parts, table.consts[pair]):
                part.append((q, c))
        return TValue(table, [dot(flat, part) if part else table.zero for part in parts])


def normal_form(f: SparsePoly, t_table: TTable) -> TValue:
    """The ``TValue`` of a t-linear flat value f, whose products are taken
    in the table; any other value raises ArithmeticError."""
    return TValue(t_table, t_parts(f, t_table.pres))


def jacobian(relations, var_names) -> list[list]:
    """The matrix d(relation)/d(var), one row per relation and one column
    per variable, each entry taken once."""
    return [[rel.partial(v) for v in var_names] for rel in relations]


def jacobian_minors(jac, size: int):
    """All size x size minors of the matrix ``jac``: a Jacobian from
    ``jacobian``, or a block of one, with entries of any ring type
    (``TValue`` ones, say); the zero comes from those entries.  Returns
    ((row indices, column indices), minor) pairs with the minors as
    computed.  Subdeterminants are memoised across minors, which keeps the
    full 4x4 scan cheap.
    """
    if size < 1 or size > min(len(jac), len(jac[0])):
        raise ValueError("minor size exceeds the Jacobian")
    zero = jac[0][0].zero(jac[0][0].table)
    cache: dict = {}
    return [((rows, cols), determinant(jac, zero, rows, cols, cache))
            for rows in combinations(range(len(jac)), size)
            for cols in combinations(range(len(jac[0])), size)]


def determinant(mat, zero, rows: tuple | None = None, cols: tuple | None = None,
                cache: dict | None = None):
    """Determinant of the square matrix ``mat``, or of its minor on the
    index tuples ``rows`` and ``cols``, by cofactor expansion along the
    first row.  The ring has characteristic 2, so the cofactor signs are
    all +1.

    Entries may be any ring values with ``is_zero`` and a static
    ``dot(table, pairs)``, the ring's sum of products, which takes each
    cofactor sum: fused for ``SparsePoly`` and ``TValue`` (sound by
    bilinearity alone, see ``TValue``), else the left fold in column order
    of ``RingFraction.dot``, which alone keeps the bytes of unreduced sums.
    Subdeterminants are memoised in ``cache`` under (rows, cols), so
    callers taking many minors of one matrix share one cache.  Zero entries
    and subdeterminants are skipped; with no term left, ``zero`` is returned.
    """
    if rows is None:
        rows = cols = tuple(range(len(mat)))
    cache = {} if cache is None else cache
    key = (rows, cols)
    if (got := cache.get(key)) is not None:
        return got
    if len(rows) == 1:
        val = mat[rows[0]][cols[0]]
    else:
        top, rest, pairs = mat[rows[0]], rows[1:], []
        for k, col in enumerate(cols):
            if not (entry := top[col]).is_zero():
                sub = determinant(mat, zero, rest, cols[:k] + cols[k + 1:], cache)
                if not sub.is_zero():
                    pairs.append((entry, sub))
        val = type(zero).dot(zero.table, pairs) if pairs else zero
    cache[key] = val
    return val


def _solve_span(basis, target):
    """Matrix X with basis * X = target over Frac(S), or None."""
    nb = len(basis)
    rows = []
    for i in range(8):
        row = [SFraction(v[i]) for v in basis]
        row += [SFraction(v[i]) for v in target]
        rows.append(row)
    pivots = _rref(rows, nb)
    if pivots != list(range(nb)):
        return None
    for i in range(nb, 8):
        if any(not rows[i][nb + j].is_zero() for j in range(len(target))):
            return None
    return [[rows[r][nb + j] for j in range(len(target))] for r in range(nb)]


def frobenius_factorization_check(ring: BaseRingS, kern) -> tuple[tuple[int, int, int], list[CheckResult]]:
    """Arithmetic of the factorisation tower: M has rank 8 over S, the
    derivation kernel ``kern`` has rank 4, so the quotient map has degree
    8/4 = 2."""
    bijective = all(
        c.is_one() if k == slot else c.is_zero()
        for slot in range(8)
        for k, c in enumerate(to_module_vector(basis_monomial(ring, slot), ring)))
    degree = 8 // len(kern) if kern else 0
    return (8, len(kern), degree), [
        check("module_rank[8]", bijective, "basis maps to unit vectors"),
        check("kernel_rank[4]", len(kern) == 4, f"rank={len(kern)}"),
        check("quotient_degree[2]", degree == 2, f"degrees=(8, {len(kern)}, {degree})")]


def verify_presentation(pres: Presentation, ring: BaseRingS, delta) -> list[CheckResult]:
    """Certify a presentation against the derivation kernel.

    Checks, in order: every relation maps to zero in M under the
    embedding; the embedding images are killed by the derivation; the
    computed kernel has rank four and spans the same Frac(S)-subspace as
    the four claimed generators (both change-of-basis determinants are
    nonzero); and the tower checks of ``frobenius_factorization_check``
    on that same kernel.  The derivation matrix and its kernel are
    computed once.  The relations, the embedding images and their
    substitution are flat; only the module coordinates are read over K.
    """
    checks = []
    table = pres.table
    one = SparsePoly.const(table, 1)
    for name, rel in pres.relations.items():
        image = rel
        for gname, img in pres.embedding.items():
            image = pseudo_substitute(image, gname, one, img)
        vec = to_module_vector(image, ring)
        ok = all(c.is_zero() for c in vec)
        checks.append(check(f"relation_vanishes[{name}]", ok,
                            None if ok else "image=(" + ", ".join(map(str, vec)) + ")"))
    for gname in pres.generators:
        img = delta(pres.embedding[gname])
        checks.append(check(f"embedding_killed[{gname}]", img.is_zero(),
                            None if img.is_zero() else f"image={img.as_geom()}"))
    mat = derivation_matrix(delta, ring)
    kern = kernel_basis(mat, ring)
    checks.append(check("kernel_rank", len(kern) == 4, f"rank={len(kern)}"))
    claimed = [one] + [pres.embedding[t] for t in pres.t_names]
    claimed_vecs = [to_module_vector(g, ring) for g in claimed]
    if len(kern) == 4:
        zero = SFraction(GeomPoly.zero(table))
        fwd = _solve_span(kern, claimed_vecs)
        det_fwd = determinant(fwd, zero) if fwd is not None else None
        ok_fwd = det_fwd is not None and not det_fwd.is_zero()
        checks.append(check("span_change_of_basis[kernel_to_claimed]", ok_fwd,
                            f"det={det_fwd}" if det_fwd is not None else "unsolvable"))
        rev = _solve_span(claimed_vecs, kern)
        det_rev = determinant(rev, zero) if rev is not None else None
        ok_rev = det_rev is not None and not det_rev.is_zero()
        checks.append(check("span_change_of_basis[claimed_to_kernel]", ok_rev,
                            f"det={det_rev}" if det_rev is not None else "unsolvable"))
    return checks + frobenius_factorization_check(ring, kern)[1]
