"""Integer feasibility engine: worked examples, scans and monotonicity."""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from delpezzo import numerics
from delpezzo.numerics import (
    cover_identities,
    exact_lower_bound,
    feasibility_region,
    h0_anticanonical,
    inequality_bound,
    main_equation,
    numerics_suite,
    riemann_roch_chi,
    scan_is_conclusive,
    solve_q1,
    torsor_chi_sum,
    torsor_degree,
)
from delpezzo.reports import failures


class TestRiemannRoch:
    def test_anti_canonical_twist(self):
        # D = -K on a degree-1 surface with chi(O) = 0
        assert riemann_roch_chi(0, 1, -1) == 1

    def test_trivial_divisor(self):
        assert riemann_roch_chi(5, 0, 0) == 5

    def test_direct_evaluation(self):
        # chi(O) = 1, D = -2K with d = 8: chi = 1 + (32 + 16)/2 = 25
        assert riemann_roch_chi(1, 4 * 8, -2 * 8) == 25


class TestTorsorChiSum:
    def test_degree_one_example(self):
        assert torsor_chi_sum(2, 1, 1, 1) == 1

    def test_degree_two_example(self):
        assert torsor_chi_sum(2, 1, 2, 1) == 2

    def test_odd_characteristic_against_inline_sum(self):
        value = torsor_chi_sum(3, 1, 2, 0)
        # independent route: chi p + (d/2) sum_i (m^2 i^2 + m i), chi = 1 - q_X
        brute = (1 - 0) * 3 + Fraction(2, 2) * sum(i * i + i for i in range(3))
        assert value == brute == 11


def fraction_main_equation(p, m, e, d, q_X):
    """q_Z from p^e (1 - q_Z) = p - p q_X + m p (p-1) d (3 + m(2p-1)) / 12
    in exact fractions; None unless it is a nonnegative integer."""
    rhs = Fraction(p - p * q_X) + Fraction(m * p * (p - 1) * d * (3 + m * (2 * p - 1)), 12)
    q_Z = 1 - rhs / p ** e
    return int(q_Z) if q_Z.denominator == 1 and q_Z >= 0 else None


def test_closed_form_term_is_integral():
    # 12 | m p (p-1) (3 + m(2p-1)) for every integer p >= 2, composites included
    for p in range(2, 201):
        for m in range(1, 51):
            assert m * p * (p - 1) * (3 + m * (2 * p - 1)) % 12 == 0, (p, m)


class TestMainEquation:
    def test_degree_one_solution(self):
        assert main_equation(2, 1, 0, 1, 1) == 0

    def test_degree_two_solution(self):
        assert main_equation(2, 1, 1, 2, 1) == 0

    def test_degree_three_infeasible(self):
        result = main_equation(2, 1, 0, 3, 1)
        assert result is None

    def test_solutions_match_the_scan(self):
        hits = set(solve_q1(7, 6, 20))
        for p in (2, 3, 5, 7):
            for m in range(1, 7):
                for e in (0, 1):
                    for d in range(1, 21):
                        q_Z = main_equation(p, m, e, d, 1)
                        if (p, m, e, d) in hits:
                            assert q_Z == 0
                        else:
                            assert q_Z is None

    def test_integer_route_matches_the_fraction_formula(self):
        """Every q_X, not only q_X = 1: the integer solution and the Fraction
        formula it replaced agree on None and on every integer value."""
        solved = 0
        for p in (2, 3, 5, 7, 11, 13, 97):
            for m in range(1, 8):
                for e in (0, 1):
                    for d in range(1, 30):
                        for q_X in range(60):
                            q_Z = main_equation(p, m, e, d, q_X)
                            assert q_Z == fraction_main_equation(p, m, e, d, q_X)
                            solved += q_Z is not None
        # 10,542 of the 170,520 cells solve, so both outcomes are compared
        assert solved == 10542


class TestTorsorDegree:
    def test_degree_eight_covers(self):
        assert torsor_degree(2, 1, 0, 1) == 8
        assert torsor_degree(2, 1, 1, 2) == 8

    def test_formula_at_degenerate_twist(self):
        # m = 0 is no twist exponent, but the formula itself degenerates
        # to p^(1-e) d
        assert torsor_degree(2, 0, 0, 5) == 10


class TestSolveQ1:
    def test_reference_bounds(self):
        assert solve_q1(13, 20, 100) == [(2, 1, 0, 1), (2, 1, 1, 2)]

    def test_tight_bounds(self):
        assert solve_q1(2, 1, 1) == [(2, 1, 0, 1)]

    def test_small_bounds_still_both(self):
        assert solve_q1(3, 3, 3) == [(2, 1, 0, 1), (2, 1, 1, 2)]

    def test_against_inline_enumeration(self):
        expected = []
        for p in (2, 3, 5):
            for m in range(1, 5):
                for e in (0, 1):
                    for d in range(1, 11):
                        rhs = Fraction(m * p * (p - 1) * d * (3 + m * (2 * p - 1)), 12)
                        if rhs == p ** e:
                            expected.append((p, m, e, d))
        assert solve_q1(5, 4, 10) == expected

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            solve_q1(1, 1, 1)

    def test_default_bounds_are_conclusive(self):
        assert solve_q1() == [(2, 1, 0, 1), (2, 1, 1, 2)]
        assert scan_is_conclusive(13, 20, 100)
        # a box cut before d = 2 cannot certify itself: the degree-two
        # solution sits just outside it
        assert not scan_is_conclusive(2, 1, 1)


class TestFeasibility:
    def test_characteristic_two_row(self):
        table = feasibility_region(2, 4, 4)
        flags = {(d, q): (f, a) for d, q, f, a in table.cells()}
        assert flags[(1, 1)] == (True, True)
        assert flags[(2, 1)] == (True, True)
        assert flags[(3, 1)] == (False, False)

    def test_characteristic_three(self):
        table = feasibility_region(3, 4, 4)
        flags = {(d, q): f for d, q, f, _ in table.cells()}
        assert flags[(1, 1)] is False  # 6 < 8
        assert table.q_min_by_d[0] == 2

    def test_characteristic_five_minimum(self):
        assert feasibility_region(5, 2, 8).q_min_by_d[0] == 4

    def test_q_min_matches_rows(self):
        for p in (2, 3, 5):
            table = feasibility_region(p, 6, 40)
            for d in range(1, 7):
                q_min = table.q_min_by_d[d - 1]
                rows = {q: f for row_d, q, f, _ in table.cells() if row_d == d}
                assert all(not rows[q] for q in rows if q < q_min)
                assert all(rows[q] for q in rows if q >= q_min)

    def test_monotonicity(self):
        table = feasibility_region(3, 8, 8)
        flags = {(d, q): f for d, q, f, _ in table.cells()}
        for d in range(1, 9):
            for q in range(1, 8):
                if flags[(d, q)]:
                    assert flags[(d, q + 1)]
                    if d > 1:
                        assert flags[(d - 1, q)]

    def test_prime_required(self):
        with pytest.raises(ValueError):
            feasibility_region(6, 2, 2)


class TestBounds:
    def test_exact_bound_dominates_with_expected_equality_pattern(self):
        for p in (2, 3, 5, 7, 11, 13):
            for m in range(1, 11):
                for e in (0, 1):
                    for d in range(1, 21):
                        gap = exact_lower_bound(p, m, e, d) - inequality_bound(p, d)
                        assert gap >= 0
                        if gap == 0:
                            assert (e, m) == (1, 1)
        # and the equality case is actually attained
        assert exact_lower_bound(2, 1, 1, 2) == inequality_bound(2, 2)


class TestSmallOps:
    def test_h0_values(self):
        assert h0_anticanonical(1, 0) == 1
        assert h0_anticanonical(1, 1) == 2
        assert h0_anticanonical(3, 0) == 6

    def test_cover_identities(self):
        assert not failures(cover_identities(e=0, chi_Z=1, chi_X=0, d_X=1, K_Z_sq=8))
        assert not failures(cover_identities(e=1, chi_Z=1, chi_X=0, d_X=2, K_Z_sq=8))

    def test_cover_identities_negative_control(self):
        results = cover_identities(e=0, chi_Z=1, chi_X=0, d_X=2, K_Z_sq=8)
        assert [c.name for c in failures(results)] == [
            "euler_characteristic_identity", "degree_identity"]


def test_numerics_suite_is_green():
    assert not failures(numerics_suite())


def brute_force_q1(p_max, m_max, d_max):
    """Every (p, m, e, d) in the box with m p (p-1) d (3 + m(2p-1)) / 12
    equal to p^e, found by trying every d with exact fractions."""
    out = []
    for p in range(2, p_max + 1):
        if any(p % k == 0 for k in range(2, p)):
            continue
        for m in range(1, m_max + 1):
            for e in (0, 1):
                for d in range(1, d_max + 1):
                    if Fraction(m * p * (p - 1) * d * (3 + m * (2 * p - 1)), 12) == p ** e:
                        out.append((p, m, e, d))
    return out


# (2, 1, 1) stops just below the d = 2 solution, (2, 1, 2) reaches it
@pytest.mark.parametrize("box", [(2, 1, 1), (2, 1, 2), (3, 3, 3), (13, 20, 100), (47, 30, 200)])
def test_solve_q1_matches_brute_force(box):
    found = solve_q1(*box)
    assert found == brute_force_q1(*box)
    for p, m, e, d in found:
        c = m * p * (p - 1) * (3 + m * (2 * p - 1))
        assert Fraction(c * d, 12) == p ** e


def inequality_rows(p, d_max, q_max):
    """(p, d, q, feasible, attained) decided row by row by 6q >= d(p^2 - 1)."""
    return [(p, d, q, 6 * q >= d * (p * p - 1), p == 2 and (d, q) in {(1, 1), (2, 1)})
            for d in range(1, d_max + 1) for q in range(1, q_max + 1)]


# non-square tables catch swapped d and q loops
@pytest.mark.parametrize("p", [2, 3, 5, 97])
@pytest.mark.parametrize("d_max, q_max", [(7, 13), (13, 7), (12, 12)])
def test_feasibility_outputs_match_the_inequality(p, d_max, q_max):
    table = feasibility_region(p, d_max, q_max)
    expected = inequality_rows(p, d_max, q_max)
    assert [(p, *cell) for cell in table.cells()] == expected
    words = {True: "true", False: "false"}
    assert table.to_csv() == "p,d,q,feasible,attained\n" + "".join(
        f"{p},{d},{q},{words[f]},{words[a]}\n" for p, d, q, f, a in expected)
    assert table.to_json() == {
        "p": p, "q_min_by_d": [math.ceil(Fraction(d * (p * p - 1), 6))
                               for d in range(1, d_max + 1)]}


class TestNegativeControls:
    def test_dropped_q1_solution_fails_only_q1_solutions(self, monkeypatch):
        real = numerics.solve_q1
        monkeypatch.setattr(numerics, "solve_q1", lambda *bounds: real(*bounds)[:-1])
        assert [c.name for c in failures(numerics_suite())] == ["q1_solutions"]

    def test_off_by_one_riemann_roch_fails_chi_sum(self, monkeypatch):
        real = numerics.riemann_roch_chi
        monkeypatch.setattr(numerics, "riemann_roch_chi", lambda *args: real(*args) + 1)
        failed = failures(numerics_suite())
        assert [c.name for c in failed] == ["chi_sum_closed_form"]
        assert failed[0].witness.startswith("closed form ")
        assert "disagrees with the direct sum" in failed[0].witness


class TestByteGate:
    """The numerics outputs keep the sha256 digests recorded for the
    benchmark's output gate."""

    def test_verify_numerics_json(self, gate, stdout_digest):
        argv = ["verify", "--suite", "numerics", "--chart", "0", "--json"]
        assert stdout_digest(argv) == gate["numerics[0]"]

    def test_solve_q1_bench_box(self, gate):
        data = json.dumps(solve_q1(100, 60, 300)).encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == gate["solve_q1[100,60,300]"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("p", [2, 3, 61, 97])
    def test_feasibility_table(self, gate, stdout_digest, p, fmt):
        argv = ["feasibility", "--p", str(p), "--d-max", "120", "--q-max", "120",
                "--format", fmt]
        assert stdout_digest(argv) == gate[f"feasibility[{p},{fmt}]"]
