"""Exact sparse polynomial and rational-function arithmetic over GF(p).

The value model has three layers:

* ``SparsePoly``: a sparse polynomial over GF(p) in the variables of one
  ``VarTable``, stored as a canonical map from packed monomial keys to
  nonzero residues.  Dict equality therefore decides polynomial equality.
* ``ParamRational``: a quotient of two parameter-only sparse polynomials.
  Equality is decided by cross multiplication, which is exact because the
  polynomial ring is an integral domain.  Normalisation only strips a
  common monomial factor and scales the denominator's leading coefficient
  to one; no multivariate gcd is ever computed.  The constructor,
  ``from_json`` and ``substituted`` check that both parts are
  parameter-only; ring operations skip the check, since they cannot leave
  the parameter subring.
* ``GeomPoly``: a polynomial in the geometric variables whose coefficients
  are ``ParamRational`` values, on the same packed keys with every
  parameter field zero.

Both polynomial types share one monomial layout, known only to this
module.  A key is one int: a ``FIELD_BITS``-bit field per variable (the
table's first variable most significant) with the total degree in the
field above them, so integer order is the graded lexicographic order, a
product of monomials is a sum of keys, a quotient of monomials is a
difference of keys and the Frobenius map multiplies keys by p (after
Monagan and Pearce, "Polynomial Division Using Dynamic Arrays, Heaps, and
Packed Exponent Vectors", CASC 2007).  Total degrees are limited to
``MAX_DEGREE`` = 65535; a result beyond it raises ``OverflowError`` and
never wraps.  Outside this module monomials are exponent tuples: the
public constructors and ``from_json`` take them and validate them, and
``terms`` is a read-only view keyed by them.  ``rewrite`` applies
monomial rewrite rules to a fixpoint, and ``strip_common_monomial``
divides polynomials by their common monomial factor.

All values are immutable after construction and every operation is a pure
function, so values may be shared freely between threads.

Roots of parameters never use fractional exponents.  A table of root depth
k reinterprets every parameter symbol as the p^k-th root of its depth-0
value, keeping all arithmetic inside one ordinary polynomial ring;
``lift_to`` and ``project_to`` translate between depths by rescaling
parameter exponents, and ``root_monomial`` names the p^j-th root of a
depth-0 parameter as a plain monomial.

The monomial order used for leading terms and trial division is graded
lexicographic in the variable order of the table, fixed globally, so
canonical forms and quotients are reproducible.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from dataclasses import dataclass

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
    """A substitution or construction produced a zero denominator."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """GF(p) arithmetic on int residues in [0, p)."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"characteristic must be a prime, got {self.p}")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(p)")
        return pow(a, self.p - 2, self.p)


class VarTable:
    """Ordered variable context shared by all polynomials built over it.

    Variables are tagged ``param`` (generators of the coefficient field) or
    ``geom`` (geometric coordinates).  ``root_depth`` k means each param
    symbol denotes the p^k-th root of its depth-0 value, so the depth-0
    parameter equals symbol**(p**k).

    The table also holds the constants of the packed monomial layout: the
    bit offset of each variable's field, the offset of the total-degree
    field above them, the key of each single variable, the masks of the
    geometric and of the parameter fields, the lowest bit of every field
    that a lower field borrows from when it underflows, and the struct
    that reads a key's fields as big-endian bytes, degree first.
    """

    __slots__ = ("names", "kinds", "field", "root_depth",
                 "_index", "param_indices", "geom_indices",
                 "_shifts", "_deg_shift", "_units", "_geom_mask", "_param_mask",
                 "_borrows", "_layout")

    def __init__(self, names, kinds, p: int = 2, root_depth: int = 0):
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
        self.field = PrimeField(p)
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
        self._layout = struct.Struct(f">{width + 1}H")

    @property
    def p(self) -> int:
        return self.field.p

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def kind(self, name: str) -> str:
        return self.kinds[self.index(name)]

    def root_extend(self, depth: int) -> VarTable:
        """Same variables, with param symbols read as p^depth-th roots."""
        return VarTable(self.names, self.kinds, self.p, depth)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, VarTable):
            return NotImplemented
        return (self.names == other.names and self.kinds == other.kinds
                and self.p == other.p and self.root_depth == other.root_depth)

    def __hash__(self):
        return hash((self.names, self.kinds, self.p, self.root_depth))

    def __repr__(self):
        return f"VarTable({len(self.names)} vars, p={self.p}, depth={self.root_depth})"


def _same_table(a, b) -> None:
    if a.table is not b.table and a.table != b.table:
        raise TableMismatchError("mismatched variable tables")


def _pack(table: VarTable, exp) -> int:
    """Packed key of an exponent tuple, validating width, sign and degree."""
    exp = tuple(exp)
    if len(exp) != len(table.names):
        raise ValueError("exponent tuple has wrong width")
    if min(exp, default=0) < 0:
        raise ValueError("exponents must be nonnegative")
    deg = sum(exp)
    _check_degree(deg)
    key = deg << table._deg_shift
    for e, s in zip(exp, table._shifts):
        key |= e << s
    return key


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

    def __sub__(self, other):
        return self + (-other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n) if n else self.const(self.table, 1)

    def lead_term(self):
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        key = max(self._t)
        return _unpack(self.table, key), self._t[key]

    def _substitute_keys(self, bound: dict, terms):
        """Sum of the (key, coefficient) terms with each variable index in
        ``bound`` replaced by its value."""
        table = self.table
        acc = self._raw(table, {})
        for key, c in terms:
            pieces = []
            for i, val in bound.items():
                e = (key >> table._shifts[i]) & MAX_DEGREE
                if e:
                    key -= e * table._units[i]
                    pieces.append(val ** e)
            term = self._raw(table, {key: c})
            for piece in pieces:
                term = term * piece
            acc = acc + term
        return acc

    def degree_in(self, name: str) -> int:
        shift = self.table._shifts[self.table.index(name)]
        return max(((key >> shift) & MAX_DEGREE for key in self._t), default=0)

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


class SparsePoly(_TermMap):
    """Canonical sparse polynomial over GF(p) in the table's variables.

    Terms map packed monomial keys to nonzero residues.  Every total
    degree, and so every exponent, is at most ``MAX_DEGREE``; an operation
    whose result would exceed it raises ``OverflowError`` instead of
    wrapping.  The constructor takes a map from exponent tuples to
    integers and validates width, signs and the degree limit; ``terms`` is
    a read-only view keyed by exponent tuples.
    """

    __slots__ = ()

    def __init__(self, table: VarTable, terms=()):
        p = table.p
        clean = {}
        for exp, c in dict(terms).items():
            key = _pack(table, exp)
            c %= p
            if c:
                clean[key] = c
        self.table = table
        self._t = clean

    @classmethod
    def const(cls, table: VarTable, c: int) -> SparsePoly:
        c %= table.p
        if not c:
            return cls._raw(table, {})
        return cls._raw(table, {0: c})

    @classmethod
    def var(cls, table: VarTable, name: str, power: int = 1) -> SparsePoly:
        if power < 0:
            raise ValueError("variable power must be nonnegative")
        _check_degree(power)
        return cls._raw(table, {power * table._units[table.index(name)]: 1})

    @classmethod
    def monomial(cls, table: VarTable, exps: dict, coeff: int = 1) -> SparsePoly:
        coeff %= table.p
        if not coeff:
            return cls.zero(table)
        return cls._raw(table, {_pack_named(table, exps): coeff})

    def is_one(self) -> bool:
        return self._t == {0: 1}

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return ((self.table is other.table or self.table == other.table)
                and self._t == other._t)

    def __add__(self, other: SparsePoly) -> SparsePoly:
        _same_table(self, other)
        p = self.table.field.p
        out = dict(self._t)
        for key, c in other._t.items():
            s = (out.get(key, 0) + c) % p
            if s:
                out[key] = s
            else:
                del out[key]
        return SparsePoly._raw(self.table, out)

    def __neg__(self) -> SparsePoly:
        p = self.table.field.p
        if p == 2:
            return self
        return SparsePoly._raw(self.table, {k: -c % p for k, c in self._t.items()})

    def scaled(self, c: int) -> SparsePoly:
        p = self.table.field.p
        c %= p
        if c == 0:
            return SparsePoly.zero(self.table)
        if c == 1:
            return self
        return SparsePoly._raw(self.table, {k: (v * c) % p for k, v in self._t.items()})

    def __mul__(self, other: SparsePoly) -> SparsePoly:
        _same_table(self, other)
        table = self.table
        a, b = self._t, other._t
        if not a or not b:
            return SparsePoly._raw(table, {})
        shift = table._deg_shift
        _check_degree((max(a) >> shift) + (max(b) >> shift))
        p = table.field.p
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # a monomial factor: keys stay distinct, residues stay nonzero
            ((k2, c2),) = b.items()
            return SparsePoly._raw(table, {k1 + k2: c1 * c2 % p for k1, c1 in a.items()})
        out = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return SparsePoly._raw(table, {k: r for k, c in out.items() if (r := c % p)})

    def frobenius(self) -> SparsePoly:
        # c**p = c in GF(p), so only exponents scale
        table = self.table
        p = table.p
        if self._t:
            _check_degree((max(self._t) >> table._deg_shift) * p)
        return SparsePoly._raw(table, {k * p: c for k, c in self._t.items()})

    def p_root(self) -> SparsePoly | None:
        """p-th root, or None when some exponent is not divisible by p."""
        table = self.table
        p = table.p
        out = {}
        for key, c in self._t.items():
            if any(e % p for e in _unpack(table, key)):
                return None
            out[key // p] = c
        return SparsePoly._raw(table, out)

    def substituted(self, bindings: dict) -> SparsePoly:
        """Simultaneous substitution of variables by SparsePoly values."""
        table = self.table
        idx_bind = {}
        for name, val in bindings.items():
            _same_table(self, val)
            idx_bind[table.index(name)] = val
        return self._substitute_keys(idx_bind, self._t.items())

    def is_param_only(self) -> bool:
        mask = self.table._geom_mask
        return not any(key & mask for key in self._t)

    def to_json(self, var_names=None) -> list:
        names = list(var_names) if var_names is not None else list(self.table.names)
        return [{"coeff": c, "exponents": exps} for c, exps in self._json_rows(names)]

    @classmethod
    def from_json(cls, table: VarTable, data, var_names=None) -> SparsePoly:
        names = list(var_names) if var_names is not None else list(table.names)
        idxs = [table.index(n) for n in names]
        return cls(table, {_spread(table, idxs, item["exponents"]): item["coeff"]
                           for item in data})

    @staticmethod
    def _unit_coeff(c) -> bool:
        return c == 1

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
    """Packed key of the largest monomial dividing every key given."""
    used = 0
    for key in keys:
        used |= key
    content = 0
    for shift, unit in zip(table._shifts, table._units):
        if (used >> shift) & MAX_DEGREE:
            content += min((key >> shift) & MAX_DEGREE for key in keys) * unit
    return content


def _normalised(num: SparsePoly, den: SparsePoly):
    """Strip the common monomial factor and make the denominator monic."""
    table = num.table
    nt, dt = num._t, den._t
    if not nt:
        return num, SparsePoly._raw(table, {0: 1})
    if 0 not in nt and 0 not in dt:
        common = _content_key(table, [*nt, *dt])
        if common:
            nt = {k - common: c for k, c in nt.items()}
            dt = {k - common: c for k, c in dt.items()}
            num = SparsePoly._raw(table, nt)
            den = SparsePoly._raw(table, dt)
    lc = dt[max(dt)]
    if lc != 1:
        inv = table.field.inv(lc)
        num = num.scaled(inv)
        den = den.scaled(inv)
    return num, den


class ParamRational:
    """Quotient of parameter-only sparse polynomials.

    The denominator is never zero.  Equality is tested by cross
    multiplication, so the light normalisation here (strip a common
    monomial factor, monic denominator) is cosmetic, not semantic.

    The constructor, ``from_json`` and ``substituted`` validate that both
    parts involve parameters only.  Arithmetic results are built by
    ``_make`` without that check: sums, products, powers and p-th roots
    of parameter-only polynomials are parameter-only.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: SparsePoly, den: SparsePoly | None = None):
        table = num.table
        if den is None:
            den = SparsePoly.const(table, 1)
        _same_table(num, den)
        if den.is_zero():
            raise ZeroDenominatorError("denominator is zero")
        if not (num.is_param_only() and den.is_param_only()):
            raise ValueError("rational coefficients must involve parameters only")
        self.num, self.den = _normalised(num, den)

    @staticmethod
    def _make(num: SparsePoly, den: SparsePoly) -> ParamRational:
        """Unvalidated construction from parameter-only parts over one
        table with a nonzero denominator."""
        value = object.__new__(ParamRational)
        value.num, value.den = _normalised(num, den)
        return value

    @property
    def table(self) -> VarTable:
        return self.num.table

    @classmethod
    def zero(cls, table: VarTable) -> ParamRational:
        return cls(SparsePoly.zero(table))

    @classmethod
    def one(cls, table: VarTable) -> ParamRational:
        return cls(SparsePoly.const(table, 1))

    @classmethod
    def const(cls, table: VarTable, c: int) -> ParamRational:
        return cls(SparsePoly.const(table, c))

    @classmethod
    def var(cls, table: VarTable, name: str, power: int = 1) -> ParamRational:
        return cls(SparsePoly.var(table, name, power))

    def is_zero(self) -> bool:
        return not self.num._t

    def is_one(self) -> bool:
        return self.num == self.den

    def __add__(self, other: ParamRational) -> ParamRational:
        _same_table(self.num, other.num)
        if self.den._t == other.den._t:
            return ParamRational._make(self.num + other.num, self.den)
        return ParamRational._make(self.num * other.den + other.num * self.den,
                                   self.den * other.den)

    def __neg__(self) -> ParamRational:
        return ParamRational._make(-self.num, self.den)

    def __sub__(self, other: ParamRational) -> ParamRational:
        return self + (-other)

    def __mul__(self, other: ParamRational) -> ParamRational:
        _same_table(self.num, other.num)
        return ParamRational._make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: ParamRational) -> ParamRational:
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational")
        return ParamRational._make(self.num * other.den, self.den * other.num)

    def inverse(self) -> ParamRational:
        if self.is_zero():
            raise ZeroDivisionError("zero rational has no inverse")
        return ParamRational._make(self.den, self.num)

    def scaled(self, c: int) -> ParamRational:
        return ParamRational._make(self.num.scaled(c), self.den)

    def __pow__(self, n: int) -> ParamRational:
        if n < 0:
            return self.inverse() ** (-n)
        return ParamRational._make(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if isinstance(other, int):
            other = ParamRational.const(self.table, other)
        if not isinstance(other, ParamRational):
            return NotImplemented
        _same_table(self.num, other.num)
        if self.den._t == other.den._t:
            return self.num._t == other.num._t
        return (self.num * other.den)._t == (other.num * self.den)._t

    __hash__ = None

    def frobenius(self) -> ParamRational:
        return ParamRational._make(self.num.frobenius(), self.den.frobenius())

    def p_root(self) -> ParamRational | None:
        """p-th root, or None when the value is not a p-th power.

        Uses (n/d)^(1/p) = (n * d^(p-1))^(1/p) / d, which keeps the
        computation inside the polynomial ring.
        """
        p = self.table.p
        prod = self.num * self.den ** (p - 1)
        root = prod.p_root()
        if root is None:
            return None
        return ParamRational._make(root, self.den)

    def substituted(self, bindings: dict) -> ParamRational:
        num = self.num.substituted(bindings)
        den = self.den.substituted(bindings)
        if den.is_zero():
            raise ZeroDenominatorError("substitution produced a zero denominator")
        return ParamRational(num, den)

    def to_json(self) -> dict:
        names = [self.table.names[i] for i in self.table.param_indices]
        return {"num": self.num.to_json(names), "den": self.den.to_json(names)}

    @classmethod
    def from_json(cls, table: VarTable, data: dict) -> ParamRational:
        names = [table.names[i] for i in table.param_indices]
        return cls(SparsePoly.from_json(table, data["num"], names),
                   SparsePoly.from_json(table, data["den"], names))

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"ParamRational({self})"


def _as_rational(table: VarTable, value) -> ParamRational:
    if isinstance(value, ParamRational):
        if value.table is not table and value.table != table:
            raise TableMismatchError("mismatched variable tables")
        return value
    if isinstance(value, SparsePoly):
        return ParamRational(value)
    if isinstance(value, int):
        return ParamRational.const(table, value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


class GeomPoly(_TermMap):
    """Polynomial in geometric variables with ``ParamRational`` coefficients.

    Terms map the packed keys that ``SparsePoly`` uses, with every
    parameter field zero, to nonzero coefficients, so products are key
    sums and leading terms are key maxima.  Total degrees are limited to
    ``MAX_DEGREE`` and a result beyond it raises ``OverflowError``.  The
    constructor takes exponent tuples and rejects a nonzero parameter
    slot; ``terms`` is a read-only view keyed by exponent tuples.  The
    ring axioms hold exactly and the Frobenius p-th power is a ring
    endomorphism.
    """

    __slots__ = ()

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
        return cls.const(table, 1)

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

    def to_sparse(self) -> SparsePoly:
        """Expand into a plain sparse polynomial; requires denominator-free
        coefficients."""
        table = self.table
        acc: dict = {}
        p = table.p
        for gkey, c in self._t.items():
            if not c.den.is_one():
                raise ValueError("polynomial has a nontrivial denominator")
            for pkey, pc in c.num._t.items():
                key = gkey + pkey
                s = (acc.get(key, 0) + pc) % p
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        if acc:
            _check_degree(max(acc) >> table._deg_shift)
        return SparsePoly._raw(table, acc)

    def is_one(self) -> bool:
        return self._t.keys() == {0} and self._t[0].is_one()

    def __eq__(self, other):
        if not isinstance(other, GeomPoly):
            return NotImplemented
        if self.table is not other.table and self.table != other.table:
            return False
        if self._t.keys() != other._t.keys():
            return False
        return all(c == other._t[k] for k, c in self._t.items())

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

    def __neg__(self) -> GeomPoly:
        if self.table.p == 2:
            return self
        return GeomPoly._raw(self.table, {k: -c for k, c in self._t.items()})

    def __mul__(self, other: GeomPoly) -> GeomPoly:
        _same_table(self, other)
        table = self.table
        a, b = self._t, other._t
        if not a or not b:
            return GeomPoly._raw(table, {})
        shift = table._deg_shift
        _check_degree((max(a) >> shift) + (max(b) >> shift))
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
        return GeomPoly._raw(table, out)

    def scaled(self, c) -> GeomPoly:
        c = _as_rational(self.table, c)
        if c.is_zero():
            return GeomPoly.zero(self.table)
        return GeomPoly._raw(self.table, {k: v * c for k, v in self._t.items()})

    def frobenius(self) -> GeomPoly:
        table = self.table
        p = table.p
        if self._t:
            _check_degree((max(self._t) >> table._deg_shift) * p)
        return GeomPoly._raw(table, {k * p: c.frobenius() for k, c in self._t.items()})

    def partial(self, name: str) -> GeomPoly:
        """Formal partial derivative with respect to a geometric variable."""
        table = self.table
        idx = table.index(name)
        if table.kinds[idx] != GEOM:
            raise ValueError(f"{name!r} is not a geometric variable")
        p = table.p
        shift, unit = table._shifts[idx], table._units[idx]
        out = {}
        for key, c in self._t.items():
            factor = ((key >> shift) & MAX_DEGREE) % p
            if not factor:
                continue
            lowered = key - unit
            nc = c.scaled(factor)
            cur = out.get(lowered)
            s = nc if cur is None else cur + nc
            if s.is_zero():
                out.pop(lowered, None)
            else:
                out[lowered] = s
        return GeomPoly._raw(table, out)

    def substituted(self, bindings: dict) -> GeomPoly:
        """Simultaneous substitution; geometric and parameter variables may
        both be bound.  Parameter bindings must be parameter polynomials
        and may not send any coefficient denominator to zero."""
        table = self.table
        geom_bind = {}
        param_bind = {}
        for name, value in bindings.items():
            idx = table.index(name)
            gval = GeomPoly.coerce(table, value)
            if table.kinds[idx] == GEOM:
                geom_bind[idx] = gval
            else:
                c = gval.as_param_rational()
                if not c.den.is_one():
                    raise ValueError(
                        "parameter substitution value must be a polynomial")
                param_bind[name] = c.num
        terms = self._t.items()
        if param_bind:
            terms = [(k, c.substituted(param_bind)) for k, c in terms]
            terms = [(k, c) for k, c in terms if not c.is_zero()]
        return self._substitute_keys(geom_bind, terms)

    def as_param_rational(self) -> ParamRational:
        if not self._t:
            return ParamRational.zero(self.table)
        if self._t.keys() != {0}:
            raise ValueError("polynomial is not constant in the geometry")
        return self._t[0]

    def coefficient(self, exps: dict) -> ParamRational:
        return self._t.get(_pack_named(self.table, exps),
                           ParamRational.zero(self.table))

    def to_json(self, var_names=None) -> list:
        table = self.table
        names = (list(var_names) if var_names is not None
                 else [table.names[i] for i in table.geom_indices])
        pnames = [table.names[i] for i in table.param_indices]
        return [{"coeff_num": c.num.to_json(pnames),
                 "coeff_den": c.den.to_json(pnames),
                 "exponents": exps}
                for c, exps in self._json_rows(names)]

    @classmethod
    def from_json(cls, table: VarTable, data, var_names=None) -> GeomPoly:
        names = (list(var_names) if var_names is not None
                 else [table.names[i] for i in table.geom_indices])
        idxs = [table.index(n) for n in names]
        return cls(table, {
            _spread(table, idxs, item["exponents"]): ParamRational.from_json(
                table, {"num": item["coeff_num"], "den": item["coeff_den"]})
            for item in data})

    @staticmethod
    def _unit_coeff(c) -> bool:
        return c.is_one()

    @staticmethod
    def _coeff_text(c) -> str:
        cs = str(c)
        return f"({cs})" if " " in cs or "/" in cs else cs

    def __repr__(self):
        return f"GeomPoly({self})"


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


def rewrite(f: GeomPoly, rules) -> GeomPoly:
    """Apply monomial rewrite rules until no rule applies.

    ``rules`` is a sequence of (lhs, rhs) pairs: a monomial with
    coefficient one and its replacement polynomial.  Each step takes the
    first term of the current polynomial, in its term order, that some
    lhs divides, and the first such rule in the order given, and replaces
    c*m*lhs by (c*m)*rhs.  The rules must strictly lower some
    well-founded measure, or the loop does not end.
    """
    table = f.table
    packed = []
    for lhs, rhs in rules:
        terms = list(lhs._t.items())
        if len(terms) != 1 or not terms[0][1].is_one():
            raise ValueError("a rewrite rule must start from a monomial")
        packed.append((terms[0][0], rhs))
    while True:
        redex = _first_redex(f, packed)
        if redex is None:
            return f
        key, step, rhs = redex
        c = f._t[key]
        f = f - GeomPoly._raw(table, {key: c}) + GeomPoly._raw(table, {step: c}) * rhs


def _first_redex(f: GeomPoly, packed: list):
    table = f.table
    for key in f._t:
        for lhs, rhs in packed:
            step = _divided_key(table, key, lhs)
            if step is not None:
                return key, step, rhs
    return None


class Derivation:
    """Map from variables to polynomial images, extended by the Leibniz rule.

    Variables without an image map to zero.  Images of parameter variables
    act on coefficients through the quotient rule; since derivations kill
    p-th powers, a Frobenius image always derives to zero.
    """

    __slots__ = ("table", "images", "_geom", "_param")

    def __init__(self, table: VarTable, images: dict):
        self.table = table
        clean = {}
        for name, img in images.items():
            idx = table.index(name)
            img = GeomPoly.coerce(table, img)
            if not img.is_zero():
                clean[name] = img
        self.images = clean
        self._geom = tuple((table.index(n), img) for n, img in clean.items()
                           if table.kind(n) == GEOM)
        self._param = tuple((table.index(n), img) for n, img in clean.items()
                            if table.kind(n) == PARAM)

    def of_var(self, name: str) -> GeomPoly:
        self.table.index(name)
        return self.images.get(name, GeomPoly.zero(self.table))

    def _apply_sparse(self, poly: SparsePoly) -> GeomPoly:
        table = self.table
        p = table.p
        acc = GeomPoly.zero(table)
        for key, c in poly._t.items():
            for idx, img in self._param:
                e = (key >> table._shifts[idx]) & MAX_DEGREE
                if not e:
                    continue
                factor = (e * c) % p
                if not factor:
                    continue
                lowered = key - table._units[idx]
                mono = ParamRational(SparsePoly._raw(table, {lowered: factor}))
                acc = acc + GeomPoly.const(table, mono) * img
        return acc

    def _apply_rational(self, c: ParamRational) -> GeomPoly:
        dn = self._apply_sparse(c.num)
        dd = self._apply_sparse(c.den)
        table = self.table
        if dn.is_zero() and dd.is_zero():
            return GeomPoly.zero(table)
        one = SparsePoly.const(table, 1)
        part = dn.scaled(ParamRational(one, c.den))
        if not dd.is_zero():
            part = part - dd.scaled(ParamRational(c.num, c.den * c.den))
        return part

    def __call__(self, f: GeomPoly) -> GeomPoly:
        _same_table(self, f)
        table = self.table
        p = table.p
        acc = GeomPoly.zero(table)
        for key, coeff in f._t.items():
            for idx, img in self._geom:
                factor = ((key >> table._shifts[idx]) & MAX_DEGREE) % p
                if not factor:
                    continue
                term = GeomPoly._raw(table, {key - table._units[idx]: coeff.scaled(factor)})
                acc = acc + term * img
            if self._param:
                dc = self._apply_rational(coeff)
                if not dc.is_zero():
                    acc = acc + dc * GeomPoly._raw(
                        table, {key: ParamRational.one(table)})
        return acc


def exact_divide(f: GeomPoly, g: GeomPoly) -> GeomPoly | None:
    """Quotient f/g when g divides f exactly, else None.

    Multivariate trial division against the fixed graded-lex order; the
    first leading term not divisible by g's leading term already certifies
    a nonzero remainder, so the scan can stop there.
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
        c = r._t[r_key] / g_c
        quotient[step] = c
        r = r - GeomPoly._raw(table, {step: c}) * g
    return GeomPoly._raw(table, quotient)


def lift_to(value, table: VarTable):
    """Rewrite a value over a deeper-rooted compatible table.

    A parameter exponent e becomes e * p^(depth difference): the depth-k
    symbol raised to p^k is the depth-0 parameter.
    """
    shift = _depth_shift(value.table, table)
    if shift < 0:
        raise RootDepthError("target table is shallower; use project_to")
    return _rescale_params(value, table, table.p ** shift)


def project_to(value, table: VarTable):
    """Inverse of lift_to; fails when an exponent is not divisible."""
    shift = _depth_shift(value.table, table)
    if shift > 0:
        raise RootDepthError("target table is deeper; use lift_to")
    return _rescale_params(value, table, 1, down=table.p ** -shift)


def _depth_shift(src: VarTable, table: VarTable) -> int:
    if (src.names, src.kinds, src.p) != (table.names, table.kinds, table.p):
        raise TableMismatchError("tables differ in more than root depth")
    return table.root_depth - src.root_depth


def _rescale_params(value, table: VarTable, scale: int, down: int = 1):
    """The value over ``table`` with each parameter exponent e replaced by
    e * scale / down; a field past the degree limit shows in the
    unbounded degree field."""
    if isinstance(value, SparsePoly):
        out = {}
        for key, c in value._t.items():
            for i in table.param_indices:
                e = (key >> table._shifts[i]) & MAX_DEGREE
                if e % down:
                    raise RootDepthError(
                        "expression does not descend to the shallower table")
                key += (e * scale // down - e) * table._units[i]
            _check_degree(key >> table._deg_shift)
            out[key] = c
        return SparsePoly._raw(table, out)
    if isinstance(value, ParamRational):
        return ParamRational(_rescale_params(value.num, table, scale, down),
                             _rescale_params(value.den, table, scale, down))
    if isinstance(value, GeomPoly):
        return GeomPoly._raw(table, {k: _rescale_params(c, table, scale, down)
                                     for k, c in value._t.items()})
    raise TypeError(f"cannot rescale {type(value).__name__}")


def root_monomial(table: VarTable, name: str, j: int) -> SparsePoly:
    """The p^j-th root of the depth-0 parameter behind ``name``.

    At depth k this is symbol**(p**(k-j)); roots beyond the depth fail.
    """
    k = table.root_depth
    if j < 0 or j > k:
        raise RootDepthError(f"p^{j}-th root needs depth >= {j}, table has {k}")
    return SparsePoly.var(table, name, table.p ** (k - j))


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
