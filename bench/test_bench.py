"""Self-tests of the benchmark: negative controls, the comparison rule and
a smoke run of every workload in both modes.

    python3 -m pytest -q bench

The smoke runs take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402
from delpezzo import cli  # noqa: E402
from delpezzo.reports import CheckResult  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _cheap_job():
    return workloads.suite_job("foliations", 0)


def test_gate_passes_on_recorded_outputs():
    p = run.Pass([_cheap_job()], workloads.load_gate())
    assert p.failed == 0 and p.attempted > 1


def test_tampered_digest_is_a_failure():
    job = _cheap_job()
    gate = dict(workloads.load_gate(), **{job.key: "0" * 64})
    p = run.Pass([job], gate)
    assert p.failed == 1
    assert (f"{job.key}.digest", False) in p.outcomes[job.key]


def test_failing_check_result_is_a_failure(monkeypatch):
    orig = cli.suite_checks
    monkeypatch.setattr(cli, "suite_checks",
                        lambda suite, chart: orig(suite, chart) + [CheckResult("planted", False)])
    job = _cheap_job()
    p = run.Pass([job], workloads.load_gate())
    # the planted check fails, and so does the payload digest it changes
    assert p.failed == 2
    assert (f"{job.key}.planted", False) in p.outcomes[job.key]


def test_exception_is_a_failure(monkeypatch):
    def boom(suite, chart):
        raise ArithmeticError("planted")
    monkeypatch.setattr(cli, "suite_checks", boom)
    p = run.Pass([_cheap_job()], workloads.load_gate())
    assert p.failed == 1 and p.attempted == 1


def test_run_with_tampered_gate_is_not_correct(monkeypatch, capsys):
    gate = {k: "0" * 64 for k in workloads.load_gate()}
    monkeypatch.setattr(workloads, "load_gate", lambda: gate)
    out = os.path.join(workloads.OUT_DIR, "selftest-tampered.json")
    rc = run.main(["--workload", "kernel_emit", "--seconds", "0.01", "--out", out])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 1 and result["correct"] is False
    assert result["failed"] == len(workloads.jobs_for("kernel_emit", 1))


def test_verdicts():
    parent = [1.0, 1.01, 0.99, 1.0]
    assert compare.verdict(parent, [1.2, 1.21], 0.1, True)[0] == "worse"
    assert compare.verdict(parent, [1.02, 1.0], 0.1, True)[0] == "same"
    assert compare.verdict(parent, [0.8, 0.81], 0.1, True)[0] == "better"
    assert compare.verdict([1.0, 2.0, 1.0, 2.0], [1.1], 0.1, True)[0] == "unresolved"
    assert compare.verdict([1.0], [1.5], 0.1, True)[0] == "unresolved"
    assert compare.verdict(parent, [0.5], 0.1, False)[0] == "worse"


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _smoke(workload, trace, seed=1):
    out = os.path.join(workloads.OUT_DIR, f"selftest-{workload}-{trace}-{seed}.json")
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                "--trace", str(trace), "--out", out)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    return {k: m["value"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_untraced(workload):
    metrics = _smoke(workload, 0)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced(workload):
    metrics = _smoke(workload, 1)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    if workload == "numerics":
        assert all(v == 0 for k, v in metrics.items()
                   if k.startswith(("algebra.", "quotient.")) and k.endswith(".calls"))
        assert metrics["numerics.solve_q1.calls"] > 0
    if workload == "singular_cusp":
        assert metrics["quotient.kernel_basis.calls"] == 0
        assert metrics["algebra.Derivation.call.calls"] == 0
        assert metrics["quotient.jacobian_minors.minors"] > 0
    if workload == "kernel_emit":
        assert metrics["quotient.kernel_basis.calls"] > 0
        assert metrics["quotient.jacobian_minors.calls"] == 0


def test_traced_counts_repeat_across_runs():
    first, second = _smoke("kernel_emit", 1, seed=5), _smoke("kernel_emit", 1, seed=5)
    counts = [{k: v for k, v in m.items() if not k.endswith(("self_s", "overhead_ratio"))}
              for m in (first, second)]
    assert counts[0] == counts[1]


def test_fails_without_the_program():
    bare = os.path.join(workloads.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    try:
        proc = _run("--workload", "numerics", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
