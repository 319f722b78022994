"""Exact integer arithmetic for degree and irregularity bookkeeping.

Everything here is bookkeeping for a degree-p inseparable cover Z -> X of
a del Pezzo surface X of anti-canonical degree d = K^2 and irregularity
q = h^1(O): Riemann-Roch, the Euler characteristic of the pushed-forward
structure sheaf, the equation tying q_Z to q_X, the resulting feasibility
region for (d, q), and the closed-form solution of the q = 1 case.  All
arithmetic is in integers: the closed-form term of the chi sum is one
(``_sum_slope``), and q_Z is None when it is not a nonnegative integer.
``Fraction`` holds only the two lower bounds on the irregularity and the
degree identity of ``cover_identities``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .reports import CheckResult, check


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def riemann_roch_chi(chi_O: int, D_self: int, D_dot_K: int) -> int:
    """chi(O(D)) = chi(O) + (D.D - D.K)/2 for a divisor on an l.c.i.
    surface.  The one caller, ``torsor_chi_sum``, takes D = -imK on X, so
    D.D - D.K = mi(mi + 1)d is even and the halving is exact."""
    return chi_O + (D_self - D_dot_K) // 2


def _sum_slope(p: int, m: int) -> int:
    """s = m p (p-1) (3 + m(2p-1)) / 12, so that the closed-form term of
    the chi sum is s d.  The division is exact for all integers p >= 2 and
    m >= 1.  For the factor 3: either 3 | p(p-1), or p = 2 (mod 3) and then
    3 | 2p - 1.  For the factor 4: p(p-1) is even, and either m is even or
    m(2p-1) is odd, so that 3 + m(2p-1) is even."""
    return m * p * (p - 1) * (3 + m * (2 * p - 1)) // 12


def torsor_chi_sum(p: int, m: int, d: int, q_X: int) -> int:
    """chi of the pushed-forward structure sheaf of the cover of X with
    characteristic p, twist exponent m, degree d and irregularity q_X.

    The closed form p chi(O_X) + s d (``_sum_slope``) must agree exactly
    with the term-by-term sum of chi(O(-i m K)) for i = 0..p-1.
    """
    chi_X = 1 - q_X  # h^2(O) = 0 on a del Pezzo surface
    closed = chi_X * p + _sum_slope(p, m) * d
    brute = 0
    for i in range(p):
        brute += riemann_roch_chi(chi_X, (m * i) ** 2 * d, -(m * i) * d)
    if closed != brute:
        raise ArithmeticError(
            f"closed form {closed} disagrees with the direct sum {brute}")
    return closed


def main_equation(p: int, m: int, e: int, d: int, q_X: int) -> int | None:
    """Solve p^e (1 - q_Z) = p - p q_X + s d (``_sum_slope``) for q_Z, where
    the cover's function field has degree p^e over the base and the other
    arguments are those of ``torsor_chi_sum``; None when the solution is
    not a nonnegative integer."""
    q, rem = divmod(p - p * q_X + _sum_slope(p, m) * d, p ** e)
    return None if rem or q > 1 else 1 - q


def torsor_degree(p: int, m: int, e: int, d: int) -> int:
    """Anti-canonical degree of the cover: p^(1-e) (1 + m(p-1))^2 d."""
    return p ** (1 - e) * (1 + m * (p - 1)) ** 2 * d


def scan_is_conclusive(p_max: int, m_max: int, d_max: int) -> bool:
    """Growth certificate for the finite q = 1 scan.

    The closed-form right side s d = m p (p-1) d (3 + m(2p-1)) / 12 is a
    product of factors each strictly increasing in m and in d, so once it
    exceeds the largest admissible left side p just past the box, no
    solution can hide beyond the box.
    """
    return all(_sum_slope(p, 1) * (d_max + 1) > p and _sum_slope(p, m_max + 1) > p
               for p in range(2, p_max + 1) if is_prime(p))


def solve_q1(p_max: int = 13, m_max: int = 20, d_max: int = 100) -> list[tuple[int, int, int, int]]:
    """All (p, m, e, d) with q_X = 1 forcing q_Z = 0 within the bounds, in
    ascending (p, m, e) order.  The equation collapses to p^e = s d with
    s = ``_sum_slope(p, m)`` > 0, linear and strictly increasing in d, so
    d = p^e / s is the only candidate: a solution when s divides p^e and
    d <= d_max.  ``scan_is_conclusive`` says whether the bounds cover every
    solution."""
    if p_max < 2 or m_max < 1 or d_max < 1:
        raise ValueError("bounds must be at least (2, 1, 1)")
    solutions = []
    for p in range(2, p_max + 1):
        if not is_prime(p):
            continue
        for m in range(1, m_max + 1):
            s = _sum_slope(p, m)
            for e in (0, 1):
                d, rem = divmod(p ** e, s)
                if not rem and 1 <= d <= d_max:
                    solutions.append((p, m, e, d))
    return solutions


def h0_anticanonical(n: int, e: int) -> int:
    """h^0 of the n-th anti-canonical power in the q = 1 family:
    n(n+1) / 2^(1-e) for n >= 1 and e in {0, 1}, the values that
    ``numerics_suite`` passes."""
    # n(n+1) is even, so the division is exact
    return n * (n + 1) // 2 ** (1 - e)


def cover_identities(e: int, chi_Z: int, chi_X: int, d_X: int, K_Z_sq: int) -> list[CheckResult]:
    """The two exact identities of a characteristic-2 degree-2 quotient
    cover: 2^e chi(O_Z) = 2 chi(O_X) + d_X and d_X = 2^e K_Z^2 / 8."""
    lhs = 2 ** e * chi_Z
    rhs = 2 * chi_X + d_X
    first = check("euler_characteristic_identity", lhs == rhs,
                  f"{lhs} vs {rhs}")
    deg = Fraction(2 ** e * K_Z_sq, 8)
    second = check("degree_identity", deg == d_X, f"{deg} vs {d_X}")
    return [first, second]


def inequality_bound(p: int, d: int) -> Fraction:
    """Lower bound d (p^2 - 1) / 6 on the irregularity."""
    return Fraction(d * (p * p - 1), 6)


def exact_lower_bound(p: int, m: int, e: int, d: int) -> Fraction:
    """The sharper bound 1 - 1/p^(1-e) + m d (p-1)(3 + m(2p-1)) / 12."""
    return (1 - Fraction(1, p ** (1 - e))
            + Fraction(_sum_slope(p, m) * d, p))


ATTAINED = {(1, 1), (2, 1)}


class FeasibilityTable(NamedTuple):
    """(d, q) pairs of a prime p, 1 <= d <= len(q_min_by_d), 1 <= q <= q_max.
    ``cells`` and ``to_csv`` decide each pair by 6q >= d(p^2 - 1) itself, a
    route independent of the stored minima that ``to_json`` reports."""

    p: int
    q_max: int
    q_min_by_d: tuple[int, ...]

    def cells(self):
        """(d, q, feasible, attained) in row order: d, then q ascending."""
        p, n = self.p, self.p * self.p - 1
        for d in range(1, len(self.q_min_by_d) + 1):
            for q in range(1, self.q_max + 1):
                yield d, q, 6 * q >= d * n, p == 2 and (d, q) in ATTAINED

    def to_csv(self) -> str:
        word = {True: "true", False: "false"}
        lines = ["p,d,q,feasible,attained"]
        lines += [f"{self.p},{d},{q},{word[f]},{word[a]}" for d, q, f, a in self.cells()]
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {"p": self.p, "q_min_by_d": list(self.q_min_by_d)}


def feasibility_region(p: int, d_max: int, q_max: int) -> FeasibilityTable:
    """Tabulate feasibility of (d, q) pairs under 6q >= d(p^2 - 1).

    Pure integer comparisons; for p = 2 the attained pairs (1, 1) and
    (2, 1) are flagged.  Cells are built on demand by the table.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if d_max < 1 or q_max < 1:
        raise ValueError("table bounds must be positive")
    n = p * p - 1
    return FeasibilityTable(p=p, q_max=q_max,
                            q_min_by_d=tuple((d * n + 5) // 6 for d in range(1, d_max + 1)))


def numerics_suite() -> list[CheckResult]:
    """The standard numeric consistency checks run by the CLI."""
    out = []

    found = solve_q1(13, 20, 100)
    expected = [(2, 1, 0, 1), (2, 1, 1, 2)]
    out.append(check("q1_solutions", found == expected, f"found={found}"))
    out.append(check("q1_scan_conclusive", scan_is_conclusive(13, 20, 100)))

    mismatch = None
    triples = [(p, m, d) for p in (2, 3, 5, 7, 11, 13) for m in range(1, 11) for d in range(1, 21)]
    for p, m, d in triples:
        try:
            torsor_chi_sum(p, m, d, 0)
        except ArithmeticError as exc:
            mismatch = str(exc)
    out.append(check("chi_sum_closed_form", mismatch is None,
                     mismatch or f"{len(triples)} parameter triples"))

    for e, d in ((0, 1), (1, 2)):
        results = cover_identities(e=e, chi_Z=1, chi_X=0, d_X=d, K_Z_sq=8)
        ok = all(c.passed for c in results)
        out.append(check(f"cover_identities[e={e}]", ok))
        deg = torsor_degree(2, 1, e, d)
        out.append(check(f"cover_degree_eight[e={e}]", deg == 8, f"K_Z^2={deg}"))
        q_Z = main_equation(2, 1, e, d, 1)
        out.append(check(f"irregularity_drops[e={e}]", q_Z == 0, f"q_Z={q_Z}"))
        out.append(check(f"h0_anticanonical[e={e}]",
                         h0_anticanonical(1, e) == 2 ** e))

    table2 = feasibility_region(2, 12, 8)
    flags = {(d, q): f for d, q, f, _ in table2.cells()}
    out.append(check("feasible_attained_p2",
                     flags[(1, 1)] and flags[(2, 1)] and not flags[(3, 1)]))
    out.append(check("q_min_p3", feasibility_region(3, 4, 8).q_min_by_d[0] == 2))
    out.append(check("q_min_p5", feasibility_region(5, 4, 8).q_min_by_d[0] == 4))
    return out
