"""Exact sparse polynomial and rational-function arithmetic over GF(2),
the characteristic of the quadric quotients this package verifies.

The value model has two term maps and one fraction arithmetic:

* ``SparsePoly``: a sparse polynomial over GF(2) in the variables of one
  ``VarTable``, kept as a canonical map from packed monomial keys to the
  coefficient 1, so a sum is the symmetric difference of two key sets and
  dict equality decides polynomial equality.
* ``RingFraction``: num/den over an integral domain, one implementation
  of the field operations, with equality by cross multiplication; a
  subclass supplies only its normal form and, optionally, an exact division.
  ``ParamRational``, a quotient of parameter-only sparse polynomials,
  strips a common monomial factor (no multivariate gcd is ever computed,
  but a sum is taken over the larger denominator when the smaller divides
  it); its constructor checks that both parts are parameter-only, which
  ring operations cannot break, and ``GeomPoly.from_json`` builds each
  coefficient through it.  The other subclass is ``quotient.SFraction``.
* ``GeomPoly``: a polynomial in the geometric variables whose coefficients
  are ``ParamRational`` values, on the same packed keys with every
  parameter field zero.  Its ``substituted`` binds geometric variables
  only.  With polynomial coefficients it is a ``SparsePoly`` on the same
  table (``as_sparse``), the fraction-free form in GF(2)[a][x], where
  ``pseudo_substitute`` eliminates a variable by pseudo-division; both
  types share ``partial`` and ``exact_divide``.  A product by one is the
  other factor, already in the normal form a product would rebuild.  Any
  other product of two ``GeomPoly`` values takes one of two routes.  When
  every coefficient's denominator is a monomial, each factor is lifted to
  one flat term map (denominators cleared by their lcm, geometric keys
  above the parameter keys) and the two maps are multiplied once; else
  each pair of terms costs one ``ParamRational`` product and sum.  Both
  give the same representation: over a monomial denominator the normal
  form is the unique one of a Laurent polynomial.  A value is lifted at
  most once, as term maps never change, and a product coefficient over a
  monomial is normalised by stripping the common monomial alone.

Both polynomial types share one monomial layout, known only to this
module.  A key is one int: a ``FIELD_BITS``-bit field per variable (the
table's first variable most significant) with the total degree in the
field above them, so integer order is the graded lexicographic order that
leading terms and trial division use, a product of monomials is a sum of
keys, a quotient of monomials is a difference of keys and the Frobenius
map doubles keys (after Monagan and Pearce, "Polynomial Division
Using Dynamic Arrays, Heaps, and Packed Exponent Vectors", CASC 2007).
Total degrees are limited to ``MAX_DEGREE`` = 65535; a result beyond it
raises ``OverflowError`` and never wraps.  Outside this module monomials
are exponent tuples: the public constructors and ``from_json`` take them
and validate them, and ``terms`` is a read-only view keyed by them.  All
values are immutable and every operation is a pure function, so values may
be shared freely between threads.

Roots of parameters never use fractional exponents.  A table of root depth
k reinterprets every parameter symbol as the 2^k-th root of its depth-0
value, keeping all arithmetic inside one ordinary polynomial ring; values
never move between depths, and ``root_monomial`` names the 2^j-th root of
a depth-0 parameter as a plain monomial of the table.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping

PARAM = "param"
GEOM = "geom"

# packed monomial layout: one field per variable, an unsigned short to struct
FIELD_BITS = 16
MAX_DEGREE = (1 << FIELD_BITS) - 1


class TableMismatchError(ValueError):
    """Operands were built over different variable tables."""


class RootDepthError(ValueError):
    """A parameter root beyond the table's depth was requested."""


class ZeroDenominatorError(ZeroDivisionError):
    """A ``ParamRational`` was constructed with a zero denominator."""


class VarTable:
    """Ordered variable context shared by all polynomials built over it.

    Variables are tagged ``param`` (generators of the coefficient field) or
    ``geom`` (geometric coordinates) over GF(2).  ``root_depth`` k means
    each param symbol denotes the 2^k-th root of its depth-0 value, so the
    depth-0 parameter equals symbol**(2**k).

    The table also holds the constants of the packed monomial layout: the
    bit offset of each variable's field, the offset of the total-degree
    field above them, the key of each single variable, the masks of the
    geometric and of the parameter fields, the lowest bit of every field
    that a lower field borrows from when it underflows, the lowest bit of
    every variable field, and the struct that reads a key's fields as
    big-endian bytes, degree first.
    """

    __slots__ = ("names", "kinds", "root_depth",
                 "_index", "param_indices", "geom_indices",
                 "_shifts", "_deg_shift", "_units", "_geom_mask", "_param_mask",
                 "_borrows", "_odd", "_layout")

    def __init__(self, names, kinds, root_depth: int = 0):
        names = tuple(names)
        kinds = tuple(kinds)
        if len(kinds) != len(names):
            raise ValueError("one kind tag per variable required")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        for k in kinds:
            if k not in (PARAM, GEOM):
                raise ValueError(f"unknown variable kind {k!r}")
        if root_depth < 0:
            raise ValueError("root depth must be nonnegative")
        self.names = names
        self.kinds = kinds
        self.root_depth = root_depth
        self._index = {n: i for i, n in enumerate(names)}
        self.param_indices = tuple(i for i, k in enumerate(kinds) if k == PARAM)
        self.geom_indices = tuple(i for i, k in enumerate(kinds) if k == GEOM)
        width = len(names)
        self._shifts = tuple(FIELD_BITS * (width - 1 - i) for i in range(width))
        self._deg_shift = FIELD_BITS * width
        self._units = tuple((1 << s) | (1 << self._deg_shift) for s in self._shifts)
        self._geom_mask = sum(MAX_DEGREE << self._shifts[i] for i in self.geom_indices)
        self._param_mask = sum(MAX_DEGREE << self._shifts[i] for i in self.param_indices)
        self._borrows = sum(1 << s for s in self._shifts[:-1]) | (1 << self._deg_shift)
        self._odd = sum(1 << s for s in self._shifts)
        self._layout = struct.Struct(f">{width + 1}H")

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def kind(self, name: str) -> str:
        return self.kinds[self.index(name)]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, VarTable):
            return NotImplemented
        return (self.names == other.names and self.kinds == other.kinds
                and self.root_depth == other.root_depth)

    def __hash__(self):
        return hash((self.names, self.kinds, self.root_depth))

    def __repr__(self):
        return f"VarTable({len(self.names)} vars, depth={self.root_depth})"


def _same_table(a, b) -> None:
    if a.table is not b.table and a.table != b.table:
        raise TableMismatchError("mismatched variable tables")


def _pack(table: VarTable, exp) -> int:
    """Packed key of an exponent tuple, validating width, type, sign and
    degree; an exponent that is not an int, bool included, is refused."""
    exp = tuple(exp)
    if len(exp) != len(table.names):
        raise ValueError("exponent tuple has wrong width")
    deg = key = 0
    for e, s in zip(exp, table._shifts):
        if type(e) is not int:
            raise ValueError(f"an exponent must be an integer, got {e!r}")
        if e < 0:
            raise ValueError("exponents must be nonnegative")
        deg += e
        key |= e << s
    _check_degree(deg)
    return key | deg << table._deg_shift


def _pack_named(table: VarTable, exps: dict) -> int:
    """Packed key of a monomial given as variable name -> exponent; an
    exponent past the degree limit shows in the unbounded degree field."""
    key = 0
    for name, e in exps.items():
        if e < 0:
            raise ValueError("exponents must be nonnegative")
        key += e * table._units[table.index(name)]
    _check_degree(key >> table._deg_shift)
    return key


def _unpack(table: VarTable, key: int) -> tuple:
    layout = table._layout
    return layout.unpack(key.to_bytes(layout.size, "big"))[1:]


def _check_degree(deg: int) -> None:
    if deg > MAX_DEGREE:
        raise OverflowError(f"total degree {deg} exceeds {MAX_DEGREE}")


def _divided_key(table: VarTable, key: int, by: int) -> int | None:
    """key - by when the monomial ``by`` divides ``key``, else None: a
    field of ``by`` larger than the same field of ``key`` borrows from the
    lowest bit of the field above, which key ^ by ^ (key - by) shows."""
    step = key - by
    if step < 0 or (key ^ by ^ step) & table._borrows:
        return None
    return step


def _power(base, n: int):
    """base**n for n >= 1 by square-and-multiply from the lowest set bit:
    bit_length(n) - 1 squarings and popcount(n) - 1 multiplications."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


class _TermsView(Mapping):
    """Read-only view of packed terms keyed by exponent tuples."""

    __slots__ = ("_table", "_t")

    def __init__(self, table: VarTable, packed: dict):
        self._table = table
        self._t = packed

    def __getitem__(self, exp):
        try:
            key = _pack(self._table, exp)
        except (TypeError, ValueError, OverflowError):
            raise KeyError(exp) from None
        return self._t[key]

    def __iter__(self):
        table = self._table
        return (_unpack(table, key) for key in self._t)

    def __len__(self):
        return len(self._t)

    def items(self):
        """The (exponent tuple, coefficient) pairs as a list, unpacking
        each key once."""
        table = self._table
        return [(_unpack(table, key), c) for key, c in self._t.items()]

    def __repr__(self):
        return repr(dict(self.items()))


class _TermMap:
    """What ``SparsePoly`` and ``GeomPoly`` share: a table and a map
    ``_t`` from packed monomial keys to nonzero coefficients.

    Results are built directly from packed keys through ``_raw``; the
    public constructors validate exponent tuples instead.
    """

    __slots__ = ("table", "_t")

    @classmethod
    def _raw(cls, table: VarTable, packed: dict):
        poly = object.__new__(cls)
        poly.table = table
        poly._t = packed
        return poly

    @classmethod
    def zero(cls, table: VarTable):
        return cls._raw(table, {})

    @property
    def terms(self) -> _TermsView:
        return _TermsView(self.table, self._t)

    def is_zero(self) -> bool:
        return not self._t

    def is_one(self) -> bool:
        return self._t.keys() == {0} and self._unit_coeff(self._t[0])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ((self.table is other.table or self.table == other.table)
                and self._t == other._t)

    def __neg__(self):
        # -1 = 1 in characteristic 2
        return self

    def __sub__(self, other):
        return self + other

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n) if n else self.const(self.table, 1)

    def lead_term(self):
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        key = max(self._t)
        return _unpack(self.table, key), self._t[key]

    def degree_in(self, name: str) -> int:
        shift = self.table._shifts[self.table.index(name)]
        return max(((key >> shift) & MAX_DEGREE for key in self._t), default=0)

    def partial(self, name: str):
        """Formal partial derivative; a ``GeomPoly``, whose coefficients
        hold the parameters, takes it by geometric variables only.

        A term c*name^e derives to e*c*name^(e-1), which is c*name^(e-1)
        for odd e and zero for even e.  Lowering one exponent maps distinct
        monomials to distinct ones, so the kept terms never collide.
        """
        table = self.table
        idx = table.index(name)
        if table.kinds[idx] != GEOM and not isinstance(self, SparsePoly):
            raise ValueError(f"{name!r} is not a geometric variable")
        shift, unit = table._shifts[idx], table._units[idx]
        return self._raw(table, {key - unit: c for key, c in self._t.items()
                                 if (key >> shift) & 1})

    def linear_parts(self, names) -> tuple:
        """The terms free of ``names``, then the cofactor of each name, for
        a polynomial of degree at most one in ``names`` (else ValueError)."""
        table = self.table
        idxs = [table.index(n) for n in names]
        mask = sum(MAX_DEGREE << table._shifts[i] for i in idxs)
        slot_of = {0: 0} | {1 << table._shifts[i]: pos for pos, i in enumerate(idxs, 1)}
        units = [0] + [table._units[i] for i in idxs]
        parts = [{} for _ in units]
        for key, c in self._t.items():
            slot = slot_of.get(key & mask)
            if slot is None:
                raise ValueError(f"a term has degree above one in {list(names)}")
            parts[slot][key - units[slot]] = c
        return tuple(self._raw(table, part) for part in parts)

    def _json_rows(self, names) -> list:
        """(coefficient, exponents of ``names``) per term, largest first."""
        table = self.table
        idxs = [table.index(n) for n in names]
        allowed = set(idxs)
        outside = sum(MAX_DEGREE << s for i, s in enumerate(table._shifts)
                      if i not in allowed)
        rows = []
        for key in sorted(self._t, reverse=True):
            if key & outside:
                raise ValueError("term uses a variable outside the serialised list")
            exp = _unpack(table, key)
            rows.append((self._t[key], [exp[i] for i in idxs]))
        return rows

    def __str__(self):
        if not self._t:
            return "0"
        names = self.table.names
        parts = []
        for key in sorted(self._t, reverse=True):
            c = self._t[key]
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(_unpack(self.table, key)) if e]
            if factors and self._unit_coeff(c):
                parts.append("*".join(factors))
            else:
                parts.append("*".join([self._coeff_text(c)] + factors))
        return " + ".join(parts)


def _bit(c) -> int:
    """c mod 2 for an int c; any other value, bool included, is refused."""
    if type(c) is not int:
        raise ValueError(f"a coefficient must be an integer, got {c!r}")
    return c & 1


def _key_sums(a, b, out: dict) -> dict:
    """The one XOR-accumulate loop of every GF(2) product (``dot``, so ``*``,
    ``pseudo_substitute`` and ``_laurent_product``): each key sum k1 + k2, in
    first-hit order, XORed as a hit count mod 2 into ``out``, then returned."""
    get = out.get
    for k1 in a:
        for k2 in b:
            k = k1 + k2
            out[k] = get(k, 0) ^ 1
    return out


def dot(table: VarTable, pairs) -> SparsePoly:
    """The sum of x * y over the (x, y) ``pairs`` of ``SparsePoly`` values on
    ``table``, every key sum XORed into one map by ``_key_sums``; no product
    is built.  ``*`` is its one-pair case, so the table and degree checks
    (``OverflowError`` past ``MAX_DEGREE``, even if a pair cancels) live here."""
    acc, shift = {}, table._deg_shift
    for x, y in pairs:
        if (x.table is not table or y.table is not table) and not x.table == table == y.table:
            raise TableMismatchError("mismatched variable tables")
        a, b = x._t, y._t
        if a and b:
            _check_degree((max(a) >> shift) + (max(b) >> shift))
            _key_sums(a, b, acc)
    return SparsePoly._raw(table, {k: 1 for k, c in acc.items() if c})


class SparsePoly(_TermMap):
    """Canonical sparse polynomial over GF(2) in the table's variables.

    Terms map packed monomial keys to the coefficient 1.  Every total
    degree, and so every exponent, is at most ``MAX_DEGREE``; an operation
    whose result would exceed it raises ``OverflowError`` instead of
    wrapping.  The constructor takes a map from exponent tuples to
    integers, reduces them mod 2 and validates width, signs and the degree
    limit; ``terms`` is a read-only view keyed by exponent tuples.  A value
    hashes by its term map, which never changes once built.
    """

    __slots__ = ()

    def __init__(self, table: VarTable, terms=()):
        clean = {}
        for exp, c in dict(terms).items():
            key = _pack(table, exp)
            if _bit(c):
                clean[key] = 1
        self.table = table
        self._t = clean

    @classmethod
    def const(cls, table: VarTable, c: int) -> SparsePoly:
        return cls._raw(table, {0: 1} if _bit(c) else {})

    @classmethod
    def var(cls, table: VarTable, name: str, power: int = 1) -> SparsePoly:
        if power < 0:
            raise ValueError("variable power must be nonnegative")
        _check_degree(power)
        return cls._raw(table, {power * table._units[table.index(name)]: 1})

    @classmethod
    def monomial(cls, table: VarTable, exps: dict, coeff: int = 1) -> SparsePoly:
        if not _bit(coeff):
            return cls.zero(table)
        return cls._raw(table, {_pack_named(table, exps): 1})

    def __hash__(self):
        return hash(frozenset(self._t))

    def __add__(self, other: SparsePoly) -> SparsePoly:
        _same_table(self, other)
        out = dict(self._t)
        for key in other._t:
            if key in out:
                del out[key]
            else:
                out[key] = 1
        return SparsePoly._raw(self.table, out)

    dot = staticmethod(dot)

    def __mul__(self, other: SparsePoly) -> SparsePoly:
        """The one-pair ``dot``; a product by one is the other factor."""
        _same_table(self, other)
        if self._t == {0: 1} or other._t == {0: 1}:
            return other if self._t == {0: 1} else self
        return dot(self.table, ((self, other),))

    def frobenius(self) -> SparsePoly:
        # c**2 = c in GF(2), so only exponents double
        table = self.table
        if self._t:
            _check_degree((max(self._t) >> table._deg_shift) * 2)
        return SparsePoly._raw(table, {k << 1: 1 for k in self._t})

    def p_root(self) -> SparsePoly | None:
        """Square root, or None when some exponent is odd."""
        odd = self.table._odd
        if any(key & odd for key in self._t):
            return None
        return SparsePoly._raw(self.table, {key >> 1: 1 for key in self._t})

    def is_param_only(self) -> bool:
        mask = self.table._geom_mask
        return not any(key & mask for key in self._t)

    def to_json(self, var_names) -> list:
        return [{"coeff": c, "exponents": exps} for c, exps in self._json_rows(var_names)]

    @classmethod
    def from_json(cls, table: VarTable, data, var_names) -> SparsePoly:
        idxs = [table.index(n) for n in var_names]
        return cls(table, {_spread(table, idxs, item["exponents"]): item["coeff"]
                           for item in data})

    def as_geom(self) -> GeomPoly:
        """The same polynomial, parameter monomials moved into coefficients."""
        parts: dict = {}
        for exp, c in self.terms.items():
            geom = tuple(e if kind == GEOM else 0 for e, kind in zip(exp, self.table.kinds))
            parts.setdefault(geom, {})[tuple(e - g for e, g in zip(exp, geom))] = c
        return GeomPoly(self.table, {g: SparsePoly(self.table, t) for g, t in parts.items()})

    @staticmethod
    def _unit_coeff(c) -> bool:
        return True

    @staticmethod
    def _over(c: int, d: int) -> int:
        return 1

    _coeff_text = staticmethod(str)

    def __repr__(self):
        return f"SparsePoly({self})"


def _spread(table: VarTable, idxs, exponents) -> tuple:
    """Full-width exponent tuple from the exponents of the listed slots."""
    if len(exponents) != len(idxs):
        raise ValueError(f"expected {len(idxs)} exponents, got {len(exponents)}")
    exp = [0] * len(table.names)
    for pos, e in zip(idxs, exponents):
        exp[pos] = e
    return tuple(exp)


def _content_key(table: VarTable, keys: list) -> int:
    """Packed key of the largest monomial dividing every key given; only
    the fields of the first key can be nonzero in it."""
    first = keys[0] if keys else 0
    content = 0
    for shift, unit in zip(table._shifts, table._units):
        if (first >> shift) & MAX_DEGREE:
            content += min((key >> shift) & MAX_DEGREE for key in keys) * unit
    return content


def _lcm_key(table: VarTable, keys: set) -> int:
    """Packed key of the smallest monomial that every key given divides."""
    if len(keys) == 1:
        return next(iter(keys))
    used = 0
    for key in keys:
        used |= key
    lcm = 0
    for shift, unit in zip(table._shifts, table._units):
        if (used >> shift) & MAX_DEGREE:
            lcm += max((key >> shift) & MAX_DEGREE for key in keys) * unit
    return lcm


def _normalised(num: SparsePoly, den: SparsePoly):
    """Strip the common monomial factor (over GF(2) every den is monic)."""
    table = num.table
    nt, dt = num._t, den._t
    if not nt:
        return num, SparsePoly._raw(table, {0: 1})
    if 0 not in nt and 0 not in dt:
        common = _content_key(table, [*dt, *nt])
        if common:
            num = SparsePoly._raw(table, {k - common: 1 for k in nt})
            den = SparsePoly._raw(table, {k - common: 1 for k in dt})
    return num, den


class RingFraction:
    """num/den over an integral domain of characteristic 2, the arithmetic
    ``ParamRational`` and ``quotient.SFraction`` share, so negation is the
    identity and subtraction is addition.  A subclass supplies the
    idempotent hook ``normalise(num, den)``, through which ``_make`` builds
    every result, and ``divide``, an exact division (quotient or None) or
    None.  Equality is by cross multiplication, so the normal form is
    cosmetic; adding zero returns the other operand as it is.

    Over unequal denominators b and d, where d divides b with cofactor q,
    a sum is (a + c q)/b, else (a d + c b)/(b d) (Knuth, TAOCP vol. 2,
    4.5.1): ``normalise`` strips no polynomial factor, so powers of one
    polynomial would square as sums grow.  ``SFraction`` has no ``divide``:
    in its elimination the trial divisions cost more products than they
    save (277 flat products for a presentation that takes 200)."""

    __slots__ = ("num", "den")

    @staticmethod
    def dot(table: VarTable, pairs):
        """Sum of products of nonempty ``pairs``, a left fold in pair order."""
        return sum((x * y for x, y in pairs[1:]), pairs[0][0] * pairs[0][1])

    @classmethod
    def _make(cls, num, den):
        """Normal form of num/den, unvalidated: one table, den nonzero."""
        value = object.__new__(cls)
        value.num, value.den = cls.normalise(num, den)
        return value

    @property
    def table(self) -> VarTable:
        return self.num.table

    def is_zero(self) -> bool:
        return not self.num._t

    def is_one(self) -> bool:
        return self.num._t == self.den._t

    def __add__(self, other):
        _same_table(self.num, other.num)
        if not self.num._t:
            return other
        if not other.num._t:
            return self
        if self.den._t == other.den._t:
            return self._make(self.num + other.num, self.den)
        if self.divide is not None:
            # a divisor's leading monomial divides the dividend's, so only
            # the denominator with the larger leading key can be divisible
            big, small = ((self, other) if max(self.den._t) > max(other.den._t)
                          else (other, self))
            q = self.divide(big.den, small.den)
            if q is not None:
                return self._make(big.num + small.num * q, big.den)
        return self._make(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    def __neg__(self):
        return self

    def __sub__(self, other):
        return self + other

    def __mul__(self, other):
        _same_table(self.num, other.num)
        return self._make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by a zero fraction")
        return self._make(self.num * other.den, self.den * other.num)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("a zero fraction has no inverse")
        return self._make(self.den, self.num)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _same_table(self.num, other.num)
        if self.den._t == other.den._t:
            return self.num._t == other.num._t
        return (self.num * other.den)._t == (other.num * self.den)._t

    __hash__ = None

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class ParamRational(RingFraction):
    """Quotient of parameter-only sparse polynomials.  The constructor
    validates that; ``_make`` skips the check, since sums, products, powers
    and square roots of such polynomials are parameter-only.
    """

    __slots__ = ()

    def __init__(self, num: SparsePoly, den: SparsePoly | None = None):
        if den is None:
            den = SparsePoly.const(num.table, 1)
        _same_table(num, den)
        if den.is_zero():
            raise ZeroDenominatorError("denominator is zero")
        if not (num.is_param_only() and den.is_param_only()):
            raise ValueError("rational coefficients must involve parameters only")
        self.num, self.den = _normalised(num, den)

    normalise = staticmethod(_normalised)

    @staticmethod
    def divide(f: SparsePoly, g: SparsePoly) -> SparsePoly | None:
        # looked up at call time, so a wrapper bound over exact_divide sees it
        return exact_divide(f, g)

    # bound here as well: bench/tracer.py wraps them in this class's namespace
    __add__, __mul__, __eq__ = RingFraction.__add__, RingFraction.__mul__, RingFraction.__eq__

    @classmethod
    def zero(cls, table: VarTable) -> ParamRational:
        return cls(SparsePoly.zero(table))

    @classmethod
    def one(cls, table: VarTable) -> ParamRational:
        return cls(SparsePoly.const(table, 1))

    @classmethod
    def var(cls, table: VarTable, name: str, power: int = 1) -> ParamRational:
        return cls(SparsePoly.var(table, name, power))

    def __pow__(self, n: int) -> ParamRational:
        return ParamRational._make(self.num ** n, self.den ** n)

    def frobenius(self) -> ParamRational:
        return ParamRational._make(self.num.frobenius(), self.den.frobenius())

    def p_root(self) -> ParamRational | None:
        """Square root, or None when the value is not a square.

        Uses (n/d)^(1/2) = (n * d)^(1/2) / d, which keeps the computation
        inside the polynomial ring.
        """
        root = (self.num * self.den).p_root()
        if root is None:
            return None
        return ParamRational._make(root, self.den)


def _as_rational(table: VarTable, value) -> ParamRational:
    if isinstance(value, ParamRational):
        if value.table is not table and value.table != table:
            raise TableMismatchError("mismatched variable tables")
        return value
    if isinstance(value, SparsePoly):
        return ParamRational(value)
    if isinstance(value, int):
        return ParamRational(SparsePoly.const(table, value))
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


class GeomPoly(_TermMap):
    """Polynomial in geometric variables with ``ParamRational`` coefficients.

    Terms map the packed keys that ``SparsePoly`` uses, with every
    parameter field zero, to nonzero coefficients, so products are key
    sums and leading terms are key maxima.  Total degrees are limited to
    ``MAX_DEGREE`` and a result beyond it raises ``OverflowError``.  The
    constructor takes exponent tuples and rejects a nonzero parameter
    slot; ``terms`` is a read-only view keyed by exponent tuples.  The
    ring axioms hold exactly and the Frobenius square is a ring
    endomorphism.

    A product is one flat product of GF(2) term maps when every
    coefficient of both factors has a monomial denominator
    (``_laurent_product``) and a nested loop with ``ParamRational``
    arithmetic otherwise (``_nested_product``).  Both give the same ``num``
    and ``den`` maps, the unique normal form of a Laurent polynomial.  A
    value's lift is kept in the lazily filled ``_lift`` slot: only ``_raw``
    and the constructors assign ``_t`` and no code mutates one, and two
    threads filling the slot at once store equal lifts.  A product by one
    (stored as 1/1; ``is_one`` also holds for P/P, which a product keeps)
    is the other factor, lift included: coefficients are stored in normal
    form and one sits on key 0, so a route would rebuild the same maps.
    """

    __slots__ = ("_lift",)

    dot = staticmethod(RingFraction.dot)

    def __init__(self, table: VarTable, terms=()):
        param_mask = table._param_mask
        clean = {}
        for exp, c in dict(terms).items():
            key = _pack(table, exp)
            if key & param_mask:
                raise ValueError("geometric keys cannot carry parameter exponents")
            c = _as_rational(table, c)
            if not c.is_zero():
                clean[key] = c
        self.table = table
        self._t = clean

    @classmethod
    def one(cls, table: VarTable) -> GeomPoly:
        return cls._raw(table, {0: _laurent_coefficient(table, {0: 1}, 0, [])})

    @classmethod
    def const(cls, table: VarTable, value) -> GeomPoly:
        c = _as_rational(table, value)
        if c.is_zero():
            return cls._raw(table, {})
        return cls._raw(table, {0: c})

    @classmethod
    def var(cls, table: VarTable, name: str, power: int = 1) -> GeomPoly:
        # a parameter name yields the constant with that rational coefficient
        if table.kind(name) == PARAM:
            return cls.const(table, ParamRational.var(table, name, power))
        if power < 0:
            raise ValueError("variable power must be nonnegative")
        _check_degree(power)
        return cls._raw(table, {power * table._units[table.index(name)]:
                                ParamRational.one(table)})

    @classmethod
    def monomial(cls, table: VarTable, exps: dict, coeff=1) -> GeomPoly:
        c = _as_rational(table, coeff)
        if c.is_zero():
            return cls.zero(table)
        for name in exps:
            if table.kind(name) != GEOM:
                raise ValueError(f"{name!r} is not a geometric variable")
        return cls._raw(table, {_pack_named(table, exps): c})

    @classmethod
    def coerce(cls, table: VarTable, value) -> GeomPoly:
        if isinstance(value, GeomPoly):
            if value.table is not table and value.table != table:
                raise TableMismatchError("mismatched variable tables")
            return value
        return cls.const(table, value)

    def __add__(self, other: GeomPoly) -> GeomPoly:
        _same_table(self, other)
        out = dict(self._t)
        for key, c in other._t.items():
            cur = out.get(key)
            s = c if cur is None else cur + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return GeomPoly._raw(self.table, out)

    def __mul__(self, other: GeomPoly) -> GeomPoly:
        _same_table(self, other)
        table = self.table
        a, b = self._t, other._t
        if not a or not b:
            return GeomPoly._raw(table, {})
        if _is_unit(a):
            return other
        if _is_unit(b):
            return self
        shift = table._deg_shift
        _check_degree((max(a) >> shift) + (max(b) >> shift))
        out = None
        # a kept lift proves its value's denominators are monomials, and a
        # square scans its one term map once
        if ((hasattr(self, "_lift") or _monomial_dens(a))
                and (other is self or hasattr(other, "_lift") or _monomial_dens(b))):
            out = _laurent_product(self, other)
        if out is None:
            out = _nested_product(a, b)
        return GeomPoly._raw(table, out)

    def scaled(self, c) -> GeomPoly:
        c = _as_rational(self.table, c)
        if c.is_zero():
            return GeomPoly.zero(self.table)
        return GeomPoly._raw(self.table, {k: v * c for k, v in self._t.items()})

    def frobenius(self) -> GeomPoly:
        table = self.table
        if self._t:
            _check_degree((max(self._t) >> table._deg_shift) * 2)
        return GeomPoly._raw(table, {k << 1: c.frobenius() for k, c in self._t.items()})

    def substituted(self, bindings: dict) -> GeomPoly:
        """Simultaneous substitution of geometric variables by GeomPoly
        values (or constants); binding a parameter raises ValueError.

        Terms are substituted and summed in the polynomial's term order,
        which fixes the term order of the result.
        """
        table = self.table
        bound = {}
        for name, value in bindings.items():
            idx = table.index(name)
            if table.kinds[idx] != GEOM:
                raise ValueError(f"{name!r} is not a geometric variable")
            bound[idx] = GeomPoly.coerce(table, value)
        acc = GeomPoly._raw(table, {})
        for key, c in self._t.items():
            pieces = []
            for i, val in bound.items():
                e = (key >> table._shifts[i]) & MAX_DEGREE
                if e:
                    key -= e * table._units[i]
                    pieces.append(val ** e)
            term = GeomPoly._raw(table, {key: c})
            for piece in pieces:
                term = term * piece
            acc = acc + term
        return acc

    def as_sparse(self) -> SparsePoly:
        """The same polynomial with each coefficient's parameter monomials
        moved into the keys, whose fields they do not share; a coefficient
        that is not a polynomial raises ArithmeticError.  A polynomial
        coefficient may be stored over a denominator dividing its numerator."""
        out = {}
        for key, c in self._t.items():
            num = c.num if c.den.is_one() else exact_divide(c.num, c.den)
            if num is None:
                raise ArithmeticError(f"a coefficient of {self} is not a polynomial")
            out.update({key + k: 1 for k in num._t})
        return SparsePoly._raw(self.table, out)

    def as_param_rational(self) -> ParamRational:
        if not self._t:
            return ParamRational.zero(self.table)
        if self._t.keys() != {0}:
            raise ValueError("polynomial is not constant in the geometry")
        return self._t[0]

    def coefficient(self, exps: dict) -> ParamRational:
        return self._t.get(_pack_named(self.table, exps),
                           ParamRational.zero(self.table))

    def to_json(self, var_names) -> list:
        table = self.table
        pnames = [table.names[i] for i in table.param_indices]
        return [{"coeff_num": c.num.to_json(pnames),
                 "coeff_den": c.den.to_json(pnames),
                 "exponents": exps}
                for c, exps in self._json_rows(var_names)]

    @classmethod
    def from_json(cls, table: VarTable, data, var_names) -> GeomPoly:
        idxs = [table.index(n) for n in var_names]
        pnames = [table.names[i] for i in table.param_indices]
        return cls(table, {
            _spread(table, idxs, item["exponents"]): ParamRational(
                SparsePoly.from_json(table, item["coeff_num"], pnames),
                SparsePoly.from_json(table, item["coeff_den"], pnames))
            for item in data})

    @staticmethod
    def _unit_coeff(c) -> bool:
        return c.is_one()

    @staticmethod
    def _over(c: ParamRational, d: ParamRational) -> ParamRational:
        return c / d

    @staticmethod
    def _coeff_text(c) -> str:
        cs = str(c)
        return f"({cs})" if " " in cs or "/" in cs else cs

    def __repr__(self):
        return f"GeomPoly({self})"


def _is_unit(terms: dict) -> bool:
    return len(terms) == 1 and 0 in terms and terms[0].num._t == {0: 1} == terms[0].den._t


def _monomial_dens(terms: dict) -> bool:
    return all(len(c.den._t) == 1 for c in terms.values())


def _nested_product(a: dict, b: dict) -> dict:
    """Product terms of two ``GeomPoly`` term maps, one ``ParamRational``
    product and sum per pair of terms."""
    out: dict = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            prod = c1 * c2
            cur = get(k)
            s = prod if cur is None else cur + prod
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _lifted(table: VarTable, terms: dict, split: int):
    """A term map whose coefficients have monomial denominators as one
    flat term map: each coefficient times the lcm L of the denominators,
    its parameter keys below bit ``split`` and its geometric key above.
    Returns the map, L and the largest total parameter degree in it."""
    lcm = _lcm_key(table, {next(iter(c.den._t)) for c in terms.values()})
    flat = {}
    top = 0
    for g, c in terms.items():
        nt = c.num._t
        base = lcm - next(iter(c.den._t))
        top = max(top, max(nt) + base)
        base += g << split
        for k, v in nt.items():
            flat[base + k] = v
    return flat, lcm, top >> table._deg_shift


def _laurent_product(a: GeomPoly, b: GeomPoly) -> dict | None:
    """Product terms of two ``GeomPoly`` values whose coefficients all
    have monomial denominators, by one product of their lifted flat
    term maps mod 2; None when a lifted parameter degree would pass
    ``MAX_DEGREE``, so that the caller's nested product decides (and
    raises ``OverflowError`` if the result itself is out of range).

    Each coefficient is N/m for a monomial m = a^d, i.e. the Laurent
    polynomial N a^(-d), and ``_normalised`` makes it unique: it strips
    the common monomial factor of N and m, which leaves the least d.  So
    the product coefficient at a geometric key, built as (its part of
    La Lb)/(a^(La+Lb)) and normalised once, has the same ``num`` and
    ``den`` maps as the nested route's sum of normalised products,
    whatever the order of evaluation; as den is a monomial that normal
    form only strips the common monomial.  Each value is lifted
    once and keeps the lift, as its term map never changes."""
    table = a.table
    # a parameter key of degree at most MAX_DEGREE, and the sum of two,
    # stays below bit ``split``, so no sum carries into the geometric key
    split = table._deg_shift + FIELD_BITS + 2
    for f in (a, b):
        if not hasattr(f, "_lift"):
            f._lift = _lifted(table, f._t, split)
    fa, la, top_a = a._lift
    fb, lb, top_b = b._lift
    den_key = la + lb
    if top_a + top_b > MAX_DEGREE or den_key >> table._deg_shift > MAX_DEGREE:
        return None
    low = (1 << split) - 1
    parts: dict = {}
    for k, c in _key_sums(fa, fb, {}).items():
        part = parts.setdefault(k >> split, {})
        if c:
            part[k & low] = 1
    caps = _den_fields(table, den_key)
    return {g: _laurent_coefficient(table, nt, den_key, caps)
            for g, nt in parts.items() if nt}


def _den_fields(table: VarTable, key: int) -> list:
    """(shift, unit, exponent) of each nonzero parameter field of key."""
    return [(shift, table._units[i], e) for i in table.param_indices
            if (e := (key >> (shift := table._shifts[i])) & MAX_DEGREE)]


def _laurent_coefficient(table: VarTable, nt: dict, den_key: int,
                         caps: list) -> ParamRational:
    """``_normalised`` of nonzero nt over the monomial den_key, with
    ``caps`` = ``_den_fields(table, den_key)``: only the common monomial is
    stripped, in each field the least exponent of den_key and the keys of
    nt, none when nt has a constant term."""
    common = 0
    if 0 not in nt:
        for shift, unit, cap in caps:
            for k in nt:
                if (e := (k >> shift) & MAX_DEGREE) < cap:
                    cap = e
            common += cap * unit
        if common:
            nt = {k - common: c for k, c in nt.items()}
    value = object.__new__(ParamRational)
    value.num = SparsePoly._raw(table, nt)
    value.den = SparsePoly._raw(table, {den_key - common: 1})
    return value


def strip_common_monomial(polys: list[GeomPoly]) -> list[GeomPoly]:
    """The polynomials divided by the largest monomial dividing every term
    of every one of them (all over one table)."""
    if not polys:
        return polys
    table = polys[0].table
    common = _content_key(table, [key for g in polys for key in g._t])
    if not common:
        return polys
    return [GeomPoly._raw(table, {k - common: c for k, c in g._t.items()})
            for g in polys]


class Derivation:
    """Map from variables to polynomial images, extended by the Leibniz rule.

    Variables without an image map to zero.  Images of parameter variables
    act on coefficients through the quotient rule; since derivations kill
    squares, a Frobenius image always derives to zero.
    """

    __slots__ = ("table", "images", "_geom", "_param")

    def __init__(self, table: VarTable, images: dict):
        self.table = table
        clean = {}
        for name, img in images.items():
            table.index(name)
            img = GeomPoly.coerce(table, img)
            if not img.is_zero():
                clean[name] = img
        self.images = clean
        self._geom = tuple((n, img) for n, img in clean.items() if table.kind(n) == GEOM)
        self._param = tuple((n, img) for n, img in clean.items() if table.kind(n) == PARAM)

    def __call__(self, f: GeomPoly) -> GeomPoly:
        _same_table(self, f)
        table = self.table
        acc = GeomPoly.zero(table)
        for name, img in self._geom:
            acc = acc + f.partial(name) * img
        # a parameter acts on each coefficient n/d by (n'd - nd')/d^2
        for key, c in f._t.items():
            for name, img in self._param:
                top = c.num.partial(name) * c.den - c.num * c.den.partial(name)
                if not top.is_zero():
                    dc = ParamRational._make(top, c.den * c.den)
                    acc = acc + GeomPoly._raw(table, {key: dc}) * img
        return acc


def exact_divide(f, g):
    """Quotient f/g when g divides f exactly, else None.

    Multivariate trial division against the fixed graded-lex order; the
    first leading term not divisible by g's leading term already certifies
    a nonzero remainder, so the scan can stop there.  On ``SparsePoly``
    values this decides divisibility in GF(2)[a][u], on ``GeomPoly``
    values over the parameter field; for a divisor of content 1 in
    GF(2)[a] the two agree by Gauss's lemma.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    _same_table(f, g)
    table = f.table
    g_key = max(g._t)
    g_c = g._t[g_key]
    quotient: dict = {}
    r = f
    while r._t:
        r_key = max(r._t)
        step = _divided_key(table, r_key, g_key)
        if step is None:
            return None
        c = f._over(r._t[r_key], g_c)
        quotient[step] = c
        r = r - f._raw(table, {step: c}) * g
    return f._raw(table, quotient)


def pseudo_substitute(f: SparsePoly, name: str, lead: SparsePoly,
                      rest: SparsePoly) -> SparsePoly:
    """lead^k * f, k the degree of f in ``name``, with every lead*name
    replaced by ``rest``, for a parameter monomial ``lead`` and a ``rest``
    free of ``name``: the substitution name = rest/lead made fraction-free,
    as in pseudo-division (Knuth, TAOCP vol. 2, 4.6.1).  A term c*m*name^e
    becomes c*m*lead^(k-e)*rest^e: its shifted key times the terms of rest^e,
    XORed into one map by ``_key_sums``, the loop of ``dot`` and so of ``*``.
    """
    _same_table(f, rest)
    table, k = f.table, f.degree_in(name)
    idx = table.index(name)
    shift, unit, deg = table._shifts[idx], table._units[idx], table._deg_shift
    ((lead_key, _),) = lead._t.items()
    _check_degree((max(f._t, default=0) >> deg)
                  + k * ((lead_key >> deg) + (max(rest._t, default=0) >> deg)))
    powers = [rest ** e for e in range(k + 1)]
    out: dict = {}
    for key in f._t:
        e = (key >> shift) & MAX_DEGREE
        _key_sums((key + (k - e) * lead_key - e * unit,), powers[e]._t, out)
    return SparsePoly._raw(table, {key: 1 for key, c in out.items() if c})


def root_monomial(table: VarTable, name: str, j: int) -> SparsePoly:
    """The 2^j-th root of the depth-0 parameter behind ``name``.

    At depth k this is symbol**(2**(k-j)); roots beyond the depth fail.
    """
    k = table.root_depth
    if j < 0 or j > k:
        raise RootDepthError(f"2^{j}-th root needs depth >= {j}, table has {k}")
    return SparsePoly.var(table, name, 2 ** (k - j))


def parse(table: VarTable, text: str) -> GeomPoly:
    """Small helper turning 'x1^2*x2 + a0*x3 + 2' into a GeomPoly."""
    result = GeomPoly.zero(table)
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty term in polynomial text")
        coeff = 1
        geom_exps: dict = {}
        param_exps: dict = {}
        for factor in chunk.split("*"):
            factor = factor.strip()
            if "^" in factor:
                name, _, e_text = factor.partition("^")
                name = name.strip()
                e = int(e_text)
            else:
                name, e = factor, 1
            if name.lstrip("-").isdigit():
                coeff *= int(name) ** e
                continue
            target = geom_exps if table.kind(name) == GEOM else param_exps
            target[name] = target.get(name, 0) + e
        term = GeomPoly.monomial(
            table, geom_exps, SparsePoly.monomial(table, param_exps, coeff))
        result = result + term
    return result
