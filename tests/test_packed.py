"""Packed monomial keys of SparsePoly: layout, degree limit, validation."""

import pytest

from delpezzo import algebra
from delpezzo.algebra import (
    GEOM,
    MAX_DEGREE,
    PARAM,
    GeomPoly,
    ParamRational,
    SparsePoly,
    VarTable,
    dot,
)
from randpoly import parse

WIDTH = 18
WIDE = VarTable([f"a{i}" for i in range(4)] + [f"g{i}" for i in range(WIDTH - 4)],
                [PARAM] * 4 + [GEOM] * (WIDTH - 4))


class TestDegreeLimit:
    def mono(self, table, **exps):
        exp = [0] * len(table.names)
        for name, e in exps.items():
            exp[table.index(name)] = e
        return tuple(exp)

    def test_constructor(self):
        ok = SparsePoly(WIDE, {self.mono(WIDE, g0=MAX_DEGREE): 1})
        assert ok.degree_in("g0") == MAX_DEGREE
        split = SparsePoly(WIDE, {self.mono(WIDE, a0=65000, g13=535): 1})
        assert split.lead_term()[0] == self.mono(WIDE, a0=65000, g13=535)
        with pytest.raises(OverflowError):
            SparsePoly(WIDE, {self.mono(WIDE, g0=MAX_DEGREE + 1): 1})
        with pytest.raises(OverflowError):
            SparsePoly(WIDE, {self.mono(WIDE, a0=65000, g13=536): 1})
        with pytest.raises(OverflowError):
            SparsePoly.var(WIDE, "g0", MAX_DEGREE + 1)

    def test_product(self):
        x = SparsePoly.var(WIDE, "g0")
        y = SparsePoly.var(WIDE, "g1")
        top = SparsePoly.var(WIDE, "g0", MAX_DEGREE - 1) * x
        assert top.lead_term()[0] == self.mono(WIDE, g0=MAX_DEGREE)
        with pytest.raises(OverflowError):
            top * x
        with pytest.raises(OverflowError):
            top * (y + SparsePoly.const(WIDE, 1))
        with pytest.raises(OverflowError):
            x ** (MAX_DEGREE + 1)
        assert (x ** MAX_DEGREE) == top

    def test_dot(self):
        x = SparsePoly.var(WIDE, "g0")
        y = SparsePoly.var(WIDE, "g1")
        below = SparsePoly.var(WIDE, "g0", MAX_DEGREE - 1)
        top = dot(WIDE, [(below, x), (y, x)])
        assert top == below * x + y * x
        assert top.lead_term()[0] == self.mono(WIDE, g0=MAX_DEGREE)
        with pytest.raises(OverflowError):
            dot(WIDE, [(y, x), (below * x, x)])
        # a product past the limit raises even where the sum cancels it
        with pytest.raises(OverflowError):
            dot(WIDE, [(below * x, y), (below * x, y)])

    def test_frobenius(self):
        half = SparsePoly.var(WIDE, "g0", (MAX_DEGREE + 1) // 2)
        below = SparsePoly.var(WIDE, "g0", (MAX_DEGREE + 1) // 2 - 1)
        assert below.frobenius().degree_in("g0") == MAX_DEGREE - 1
        with pytest.raises(OverflowError):
            half.frobenius()

    @pytest.mark.parametrize("cls", [SparsePoly, GeomPoly])
    def test_both_term_maps_at_the_limit(self, cls):
        assert cls(WIDE, {self.mono(WIDE, g0=MAX_DEGREE): 1}).degree_in("g0") == MAX_DEGREE
        with pytest.raises(OverflowError):
            cls(WIDE, {self.mono(WIDE, g0=65000, g13=536): 1})
        x = cls.var(WIDE, "g0")
        top = cls.var(WIDE, "g0", MAX_DEGREE - 1) * x
        assert top.lead_term()[0] == self.mono(WIDE, g0=MAX_DEGREE)
        assert x ** MAX_DEGREE == top
        with pytest.raises(OverflowError):
            top * cls.var(WIDE, "g1")
        with pytest.raises(OverflowError):
            x ** (MAX_DEGREE + 1)


def test_param_rational_rejects_geometric_variable():
    with pytest.raises(ValueError):
        ParamRational(SparsePoly.var(WIDE, "g0"))
    with pytest.raises(ValueError):
        ParamRational(SparsePoly.const(WIDE, 1), SparsePoly.var(WIDE, "g3"))


def test_divided_key_refuses_a_borrowing_difference():
    """g0 / g1: the key difference is positive, as the g0 field lies above
    the g1 field, but the g1 field borrows, so g1 does not divide g0; a
    sign test alone would accept it and send exact division into a descent
    that never ends."""
    g0, g1 = (max(SparsePoly.var(WIDE, n)._t) for n in ("g0", "g1"))
    assert g0 - g1 > 0
    assert algebra._divided_key(WIDE, g0, g1) is None
    assert algebra._divided_key(WIDE, g0 + g1, g1) == g0
    assert algebra._divided_key(WIDE, g1, g0) is None


def test_terms_view_is_tuple_keyed_and_read_only():
    f = SparsePoly.var(WIDE, "a0") * SparsePoly.var(WIDE, "g1") + SparsePoly.const(WIDE, 1)
    key = tuple(1 if i in (0, 5) else 0 for i in range(WIDTH))
    assert set(f.terms) == {key, (0,) * WIDTH}
    assert f.terms[key] == 1 and len(f.terms) == 2
    assert (1,) * 3 not in f.terms
    with pytest.raises(TypeError):
        f.terms[key] = 0
    assert SparsePoly(WIDE, f.terms) == f
    g = parse(WIDE, "a0*g1 + 1")
    geom_key = tuple(1 if i == 5 else 0 for i in range(WIDTH))
    assert set(g.terms) == {geom_key, (0,) * WIDTH}
    assert g.terms[geom_key] == ParamRational(SparsePoly.var(WIDE, "a0")) and len(g.terms) == 2
    with pytest.raises(TypeError):
        g.terms[geom_key] = ParamRational.zero(WIDE)
    assert GeomPoly(WIDE, g.terms) == g
    with pytest.raises(ValueError):
        GeomPoly(WIDE, {key: 1})


@pytest.mark.parametrize("n", [2, 3])
def test_equal_polynomials_hash_equal_whatever_their_insertion_order(n):
    # the integer coefficient n - 1 is reduced mod 2: n = 2 keeps all four
    # terms, n = 3 drops two of them
    table = VarTable(["a", "x", "y"], [PARAM, GEOM, GEOM])
    terms = {(1, 2, 0): 1, (0, 1, 1): n - 1, (0, 0, 0): 1, (2, 0, 3): n - 1}
    f = SparsePoly(table, terms)
    g = SparsePoly(table, dict(reversed(terms.items())))
    x, y = SparsePoly.var(table, "x"), SparsePoly.var(table, "y")
    # a sum that cancels a term on the way, built in the other order
    h = (y + x * y - y) + SparsePoly.const(table, 1)
    k = SparsePoly.const(table, 1) + x * y
    assert list(f.terms) != list(g.terms) and list(h.terms) != list(k.terms)
    assert f == g and hash(f) == hash(g)
    assert h == k and hash(h) == hash(k)
    seen = {f: "f", g: "g", h: "h", k: "k", f + x: "other"}
    assert seen == {f: "g", h: "k", f + x: "other"}
    assert hash(SparsePoly.zero(table)) == hash(x - x)
    with pytest.raises(TypeError):
        hash(parse(table, "a*x + y"))


def count_products(monkeypatch, cls):
    calls = []
    inner = cls.__mul__

    def counted(a, b):
        calls.append(1)
        return inner(a, b)
    monkeypatch.setattr(cls, "__mul__", counted)
    return calls


@pytest.mark.parametrize("n", range(1, 10))
def test_power_makes_minimal_products(monkeypatch, n):
    expected = n.bit_length() - 1 + bin(n).count("1") - 1
    t = VarTable(["a", "x", "y"], [PARAM, GEOM, GEOM])
    sparse = SparsePoly.var(t, "x") + SparsePoly.var(t, "a")
    geom = parse(t, "x + a*y")
    reference = {cls: cls.__mul__ for cls in (SparsePoly, GeomPoly)}
    for cls, base in ((SparsePoly, sparse), (GeomPoly, geom)):
        slow = base
        for _ in range(n - 1):
            slow = reference[cls](slow, base)
        calls = count_products(monkeypatch, cls)
        assert base ** n == slow
        assert len(calls) == expected
        monkeypatch.undo()


class TestStrictJson:
    t = VarTable(["a0", "a1", "x1", "x2"], [PARAM, PARAM, GEOM, GEOM])

    @pytest.mark.parametrize("exponents", [[1], [1, 0, 0], []])
    def test_sparse_wrong_length(self, exponents):
        data = [{"coeff": 1, "exponents": exponents}]
        with pytest.raises(ValueError):
            SparsePoly.from_json(self.t, data, ["a0", "a1"])

    @pytest.mark.parametrize("exponents", [[1], [1, 0, 0]])
    def test_geom_wrong_length(self, exponents):
        data = [{"coeff_num": [{"coeff": 1, "exponents": [0, 0]}],
                 "coeff_den": [{"coeff": 1, "exponents": [0, 0]}],
                 "exponents": exponents}]
        with pytest.raises(ValueError):
            GeomPoly.from_json(self.t, data, ["x1", "x2"])

    def test_geom_coefficient_wrong_length(self):
        data = [{"coeff_num": [{"coeff": 1, "exponents": [0, 0, 1]}],
                 "coeff_den": [{"coeff": 1, "exponents": [0, 0]}],
                 "exponents": [1, 0]}]
        with pytest.raises(ValueError):
            GeomPoly.from_json(self.t, data, ["x1", "x2"])

    def test_round_trip(self):
        f = parse(self.t, "a0^3*x1^2 + a1*x2 + x1*x2 + 1")
        g = f.scaled(ParamRational(SparsePoly.var(self.t, "a1"),
                                   SparsePoly.var(self.t, "a0") + SparsePoly.const(self.t, 1)))
        geom = ["x1", "x2"]
        assert GeomPoly.from_json(self.t, g.to_json(geom), geom) == g
        s = SparsePoly(self.t, {(3, 0, 2, 0): 1, (0, 1, 0, 1): 1, (0, 0, 1, 1): 1,
                                (0, 0, 0, 0): 1})
        assert SparsePoly.from_json(self.t, s.to_json(self.t.names), self.t.names) == s
