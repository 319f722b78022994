"""Acceptance criteria for the whole package.

Every criterion is an exact computation (tolerance zero).  Each test
prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``
to see them.
"""

import json
import os
import random
import subprocess
import sys
import time

from delpezzo.numerics import (
    DelPezzoParams,
    cover_identities,
    feasibility_region,
    solve_q1,
    torsor_chi_sum,
    torsor_degree,
)
from delpezzo.quotient import Presentation, verify_presentation, BaseRingS
from delpezzo.reports import failures
from delpezzo.surfaces import (
    FoliationSpec,
    QuadricChart,
    build_presentation,
    check_ideal_preserved,
    check_p_closure,
    cusp_curve,
    field_of_constants_check,
    quotient_presentation,
    reducedness_witness,
    singular_locus,
)
from randpoly import (
    check_frobenius_endomorphism,
    check_geom_ring_axioms,
    check_leibniz,
    check_rational_equivalence,
    check_sparse_ring_axioms,
    make_table,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
# one CLI call takes under a second: the bound turns a loop or swell into a failure, not a hang
CLI_TIMEOUT_S = 120


def report(number, name, ok):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_irregularity_one_classification():
    started = time.perf_counter()
    found = solve_q1(13, 20, 100)
    elapsed = time.perf_counter() - started
    ok = found == [(2, 1, 0, 1), (2, 1, 1, 2)] and elapsed < 1.0
    report(1, "q=1 brute force solutions", ok)


def test_02_feasibility_region():
    two = feasibility_region(2, 4, 2)
    flags = {(d, q): f for d, q, f, _ in two.cells()}
    ok = flags[(1, 1)] and flags[(2, 1)] and not flags[(3, 1)]
    ok = ok and feasibility_region(3, 1, 4).q_min_by_d[0] == 2
    ok = ok and feasibility_region(5, 1, 8).q_min_by_d[0] == 4
    report(2, "feasibility inequality", ok)


def test_03_chi_sum_closed_form_exhaustive():
    count = 0
    ok = True
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, 11):
            for d in range(1, 21):
                try:
                    torsor_chi_sum(DelPezzoParams(p=p, m=m, e=0, d=d, q_X=0))
                except (ValueError, ArithmeticError):
                    ok = False
                count += 1
    report(3, f"chi sum closed form on {count} triples", ok)


def test_04_foliation_axioms_all_charts():
    ok = True
    for i0 in range(4):
        quad = QuadricChart.build(i0)
        for kind in ("deg1", "deg2"):
            fol = FoliationSpec.build(kind, quad)
            ok = ok and not failures(check_p_closure(fol))
            ok = ok and not failures(check_ideal_preserved(fol))
        constants = {c.name: c.passed
                     for c in field_of_constants_check(FoliationSpec.build("deg2", quad))}
        ok = ok and all(constants[f"kills[a{i}*a{j}]"]
                        for i in range(4) for j in range(i, 4))
        ok = ok and constants["moves[a0]"]
    report(4, "foliation axioms on all charts", ok)


def test_05_presentation_reproduction():
    fol = FoliationSpec.build("deg1", QuadricChart.build(0))
    pres, checks = quotient_presentation(fol)
    named = {c.name: c.passed for c in checks}
    ok = named["kernel_rank"]
    ok = ok and all(named[f"relation_vanishes[r_{i}]"] for i in range(7))
    ok = ok and named["span_change_of_basis[kernel_to_claimed]"]
    ok = ok and named["span_change_of_basis[claimed_to_kernel]"]
    # negative control: a tampered relation must fail loudly
    from delpezzo.algebra import GeomPoly
    bad = dict(pres.relations)
    bad["r_1"] = bad["r_1"] + GeomPoly.var(pres.table, "u1")
    tampered = Presentation(chart=0, generators=pres.generators,
                            relations=bad, embedding=pres.embedding,
                            table=pres.table)
    ring = BaseRingS(pres.table, 0)
    bad_checks = verify_presentation(tampered, ring, fol.theta)
    ok = ok and [c.name for c in failures(bad_checks)] == ["relation_vanishes[r_1]"]
    report(5, "quotient presentation", ok)


def test_06_singular_locus():
    checks = singular_locus(build_presentation(0))
    named = {c.name: c.passed for c in checks}
    ok = named["minors_divisible_by_h"]
    ok = ok and all(v for n, v in named.items() if n.startswith("u_block_minor"))
    ok = ok and all(v for n, v in named.items() if n.startswith("t_block_minor"))
    ok = ok and all(v for n, v in named.items() if n.startswith("unit_certificate"))
    ok = ok and not failures(checks)
    report(6, "singular locus equation", ok)


def test_07_cuspidal_curve():
    rep, checks = cusp_curve()
    named = {c.name: c.passed for c in checks}
    ok = named["constant_term_vanishes[c20]"] and named["constant_term_vanishes[c30]"]
    ok = ok and all(v for n, v in named.items()
                    if n.startswith("coefficient_relation"))
    ok = ok and all(named[f"curve_relation_reduces[r_{m}]"] for m in (4, 5, 6))
    ok = ok and named["cramer_fourth_power"] and rep.root_depth == 3
    ok = ok and not failures(checks)
    report(7, "cuspidal curve at root depth 3", ok)


def test_08_reducedness_witness():
    checks = reducedness_witness()
    named = {c.name: c.passed for c in checks}
    ok = (named["derivative_identity"] and named["evaluation_value"]
          and named["evaluation_nonzero"] and not failures(checks))
    report(8, "geometric reducedness witness", ok)


def test_09_numeric_consistency_tower():
    ok = True
    for e, d in ((0, 1), (1, 2)):
        ok = ok and not failures(
            cover_identities(e=e, chi_Z=1, chi_X=0, d_X=d, K_Z_sq=8))
        ok = ok and torsor_degree(DelPezzoParams(p=2, m=1, e=e, d=d, q_X=1)) == 8
    report(9, "cover invariants and degree eight", ok)


def test_10a_randomized_property_suites():
    rng = random.Random(20240801)
    table = make_table()
    count = 0
    count += check_sparse_ring_axioms(rng, table, 80)
    count += check_geom_ring_axioms(rng, table, 60)
    count += check_frobenius_endomorphism(rng, table, 80)
    count += check_leibniz(rng, table, 60)
    count += check_rational_equivalence(rng, table, 40)
    ok = count >= 1000
    report(10, f"property suites ({count} randomized checks)", ok)


def test_10b_deterministic_cli_output():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "delpezzo", "verify", "--suite", "all", "--json"]
    first = subprocess.run(cmd, capture_output=True, env=env, timeout=CLI_TIMEOUT_S)
    second = subprocess.run(cmd, capture_output=True, env=env, timeout=CLI_TIMEOUT_S)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout)
    payload = json.loads(first.stdout)
    ok = ok and payload["counts"]["fail"] == 0
    report(10, "byte-identical verify output", ok)
