"""Workload job lists and the output gate.

A job is one closed-loop request: ``run`` makes the program calls that
are timed and returns their output; afterwards ``data`` gives the job's
deterministic output bytes, whose sha256 must equal the one recorded in
``digests.json`` at the seed commit, and ``check`` gives the job's other
named pass/fail results (the program's own checks and closed forms).
The seed only shuffles the job order and picks the primes of the
feasibility tables; the program sees nothing but the job's own arguments.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from delpezzo import cli, numerics, surfaces

HERE = os.path.dirname(os.path.abspath(__file__))
GATE_PATH = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "_out")

CHARTS = (0, 1, 2, 3)
SOLVE_BOX = (100, 60, 300)
SOLVE_EXPECTED = [(2, 1, 0, 1), (2, 1, 1, 2)]
# the feasibility tables: each run samples FEAS_SAMPLE primes of the pool
PRIME_POOL = tuple(n for n in range(2, 100)
                   if all(n % k for k in range(2, int(n ** 0.5) + 1)))
FEAS_SAMPLE = 4
FEAS_D_MAX, FEAS_Q_MAX = 120, 120

WORKLOADS = ("singular_cusp", "kernel_emit", "numerics")

# Statements a fresh interpreter runs after ``import delpezzo`` to build a
# workload's inputs; their time plus the import's is ``setup_s``.
SETUP_CODE = {
    "singular_cusp": (
        "from delpezzo import cli, surfaces\n"
        "cli.build_parser()\n"
        "tables = [surfaces.chart_table(c) for c in range(4)]\n"
        "pres = [surfaces.build_presentation(c) for c in range(4)]\n"
        "deep = surfaces.build_presentation(0, 3)\n"),
    "kernel_emit": (
        "from delpezzo import cli, surfaces\n"
        "cli.build_parser()\n"
        "fols = [surfaces.FoliationSpec.build('deg1', surfaces.QuadricChart.build(c))"
        " for c in range(4)]\n"
        "pres = [surfaces.build_presentation(c) for c in range(4)]\n"),
    "numerics": (
        "from delpezzo import cli, numerics\n"
        "cli.build_parser()\n"),
}


@dataclass(frozen=True)
class Job:
    key: str
    run: Callable[[], object]
    data: Callable[[object], bytes]
    check: Callable[[object], list[tuple[str, bool]]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_gate() -> dict:
    with open(GATE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def gate_check(job: Job, out, gate: dict) -> tuple[str, bool]:
    return (f"{job.key}.digest", gate.get(job.key) == sha256(job.data(out)))


def verify_payload(suite: str, chart: int, checks) -> bytes:
    """The ``delpezzo verify --suite S --chart C --json`` payload."""
    failed = sum(1 for c in checks if not c.passed)
    payload = {"suite": suite, "chart": chart,
               "checks": [c.to_json() for c in checks],
               "counts": {"pass": len(checks) - failed, "fail": failed}}
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def suite_job(suite: str, chart: int) -> Job:
    key = f"{suite}[{chart}]"
    return Job(key, lambda: cli.suite_checks(suite, chart),
               lambda checks: verify_payload(suite, chart, checks),
               lambda checks: [(f"{key}.{c.name}", c.passed) for c in checks])


def emit_job(chart: int) -> Job:
    """``delpezzo presentation`` to a file, reloaded and compared with the
    presentation the library builds."""
    key = f"emit[{chart}]"
    path = os.path.join(OUT_DIR, f"presentation-{chart}.json")

    def run():
        rc = cli.main(["presentation", "--chart", str(chart), "--out", path])
        with open(path, "rb") as fh:
            data = fh.read()
        loaded = cli.load_presentation(json.loads(data))
        return rc, data, loaded == surfaces.build_presentation(chart)

    def check(out):
        rc, _, same = out
        return [(f"{key}.exit_code", rc == 0), (f"{key}.reload_equal", same)]
    return Job(key, run, lambda out: out[1], check)


def solve_job() -> Job:
    key = "solve_q1[{},{},{}]".format(*SOLVE_BOX)
    return Job(key, lambda: numerics.solve_q1(*SOLVE_BOX),
               lambda found: json.dumps(found).encode("utf-8"),
               lambda found: [(f"{key}.closed_form", found == SOLVE_EXPECTED)])


def q_min_closed_form(p: int, d: int) -> int:
    """ceil(d (p^2 - 1) / 6)."""
    return -(-d * (p * p - 1) // 6)


def feasibility_job(p: int, fmt: str) -> Job:
    key = f"feasibility[{p},{fmt}]"
    path = os.path.join(OUT_DIR, f"feasibility-{p}.{fmt}")
    argv = ["feasibility", "--p", str(p), "--d-max", str(FEAS_D_MAX),
            "--q-max", str(FEAS_Q_MAX), "--format", fmt, "--out", path]

    def run():
        rc = cli.main(argv)
        with open(path, "rb") as fh:
            return rc, fh.read()

    def check(out):
        rc, data = out
        text = data.decode("utf-8")
        q_min = [q_min_closed_form(p, d) for d in range(1, FEAS_D_MAX + 1)]
        if fmt == "json":
            closed = json.loads(text) == {"p": p, "q_min_by_d": q_min}
        else:
            rows = [line.split(",") for line in text.splitlines()[1:]]
            closed = len(rows) == FEAS_D_MAX * FEAS_Q_MAX and all(
                r[0] == str(p) and r[3] == str(int(r[2]) >= q_min[int(r[1]) - 1]).lower()
                for r in rows)
        return [(f"{key}.exit_code", rc == 0), (f"{key}.closed_form", closed)]
    return Job(key, run, lambda out: out[1], check)


def all_jobs() -> list[Job]:
    """Every job any workload can run."""
    jobs = [suite_job(s, c) for s in ("singular", "foliations", "presentation")
            for c in CHARTS]
    jobs += [suite_job("cusp", 0), suite_job("numerics", 0), solve_job()]
    jobs += [emit_job(c) for c in CHARTS]
    jobs += [feasibility_job(p, f) for p in PRIME_POOL for f in ("csv", "json")]
    return jobs


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's job list in the seed's order."""
    rng = random.Random(seed)
    if workload == "singular_cusp":
        jobs = [suite_job("singular", c) for c in CHARTS] + [suite_job("cusp", 0)]
    elif workload == "kernel_emit":
        jobs = [suite_job(s, c) for c in CHARTS for s in ("foliations", "presentation")]
        jobs += [emit_job(c) for c in CHARTS]
    elif workload == "numerics":
        primes = sorted(rng.sample(PRIME_POOL, FEAS_SAMPLE))
        jobs = [suite_job("numerics", 0), solve_job()]
        jobs += [feasibility_job(p, f) for p in primes for f in ("csv", "json")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def record_gate() -> None:
    """Write ``digests.json`` from the current program's outputs.  Run it
    only on a commit whose outputs are known to be right."""
    os.makedirs(OUT_DIR, exist_ok=True)
    gate = {job.key: sha256(job.data(job.run())) for job in all_jobs()}
    with open(GATE_PATH, "w", encoding="utf-8") as fh:
        json.dump(gate, fh, indent=1, sort_keys=True)
        fh.write("\n")
