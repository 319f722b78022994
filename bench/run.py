"""Benchmark of the delpezzo verifier: one closed-loop client, one thread.

    python3 bench/run.py --workload singular_cusp --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --runs 10 --seconds 40 --out results.json

A run repeats full passes over the workload's job list (see
``workloads.py``) for ``--seconds`` seconds, checks every job's output
against the recorded digests and closed forms, and prints one row per
workload followed by a JSON result line.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of ``tracer.py`` plus the tracing
overhead.  Every run also writes a result file (default under
``bench/_out/``) that ``compare.py`` reads.  The exit code is 0 only when
every check passed.

Untraced timings are reported in host-normalised seconds.  Before every
job (one per ``REF_EVERY_S`` of the job's latency in the previous pass, at
least one) and after each of a pass's set-up probes, the run times a fixed
pure-Python reference slice (``reference_slice``, no delpezzo code), and
every time measured in a pass is scaled by ``REF_NOMINAL_S`` over the mean
slice of that pass.  The shared host this was built on changes speed by
30-60% for seconds to minutes at a time; the slice slows with it while a
change to the program leaves it alone.  Raw times stay in the result file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_STARTS = 9  # at least this many set-up probes per untraced run
SETUP_PER_S = 0.4  # set-up probes per second of run, at least one after each pass
REF_EVERY_S = 0.2  # one reference slice per this much job time, at least one per job
REF_MAX_PER_JOB = 8

# The reference slice: products of two fixed sparse polynomials with 40-bit
# coefficients in plain dicts, and a burst of small tuples, the kind of work
# delpezzo.algebra does.  REF_NOMINAL_S is about its mean on the 2-vCPU
# machine the benchmark was built on, so normalised times read close to that
# machine's seconds.
REF_NOMINAL_S = 0.011
REF_ROUNDS = 8
_ref_rng = random.Random(20130417)
REF_A, REF_B = ({(_ref_rng.randrange(6), _ref_rng.randrange(6), _ref_rng.randrange(6)):
                 _ref_rng.getrandbits(40) for _ in range(40)} for _ in range(2))


def reference_slice():
    """Time one fixed slice of pure-Python work, with the collector off so
    that the program's live objects do not change it."""
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(REF_ROUNDS):
            out = {}
            for (a0, a1, a2), ca in REF_A.items():
                for (b0, b1, b2), cb in REF_B.items():
                    e = (a0 + b0, a1 + b1, a2 + b2)
                    out[e] = out.get(e, 0) + ca * cb
            burst = [tuple(range(i % 7)) for i in range(3000)]
        del burst
        return perf_counter() - t0
    finally:
        gc.enable()


def import_package():
    """Import delpezzo from this checkout's ``src`` or raise ImportError."""
    if not os.path.isfile(os.path.join(SRC, "delpezzo", "__init__.py")):
        raise ImportError(f"no delpezzo package under {SRC}")
    sys.path.insert(0, SRC)
    import delpezzo
    if not os.path.abspath(delpezzo.__file__).startswith(SRC + os.sep):
        raise ImportError(f"delpezzo imported from {delpezzo.__file__}, not {SRC}")


def machine_record():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    sha = dirty = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30,
                                   check=True).stdout.split()
        # a checkout that is not itself a repository records no sha
        if os.path.realpath(top) == os.path.realpath(ROOT):
            sha = head
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True, timeout=30,
                                    check=True).stdout
            dirty = bool(status.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "git_sha": sha, "dirty": dirty}


def setup_probe(code):
    """``import delpezzo`` plus building a workload's inputs in a fresh
    interpreter, timed inside the child."""
    probe = ("import time\nt0 = time.perf_counter()\nimport delpezzo\n" + code
             + "print(time.perf_counter() - t0)\nprint(delpezzo.__file__)\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    elapsed, where = proc.stdout.split()
    if not where.startswith(SRC + os.sep):
        raise RuntimeError(f"setup probe imported delpezzo from {where}")
    return float(elapsed)


class Pass:
    """One full pass over the job list.  With ``ref``, a list of counts,
    ``ref[i]`` reference slices are timed before job ``i``."""

    def __init__(self, jobs, gate, tracer=None, ref=None):
        import workloads

        self.job_s = []
        self.outcomes = {}
        self.attempted = self.failed = 0
        self.ref_s = []
        for i, job in enumerate(jobs):
            for _ in range(ref[i] if ref else 0):
                self.ref_s.append(reference_slice())
            sid = tracer.begin_job(job.key) if tracer else None
            t0 = perf_counter()
            try:
                out = job.run()
            except Exception:
                out = None
                error = traceback.format_exc()
            else:
                error = None
            self.job_s.append(perf_counter() - t0)
            if tracer:
                tracer.end_job(sid)
            if error is None:
                try:
                    results = job.check(out) + [workloads.gate_check(job, out, gate)]
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                results = [(f"{job.key}.exception", False)]
                print(f"error in {job.key}:\n{error}", file=sys.stderr)
            self.outcomes[job.key] = results
            self.attempted += len(results)
            for name, ok in results:
                if not ok:
                    self.failed += 1
                    print(f"FAIL {name}", file=sys.stderr)
        self.wall = sum(self.job_s)

    def ref_plan(self):
        """Slice counts for the next pass: about one per ``REF_EVERY_S`` of
        each job's latency in this pass, so the slices sample the host as
        often during long jobs as during short ones."""
        return [min(REF_MAX_PER_JOB, 1 + int(t / REF_EVERY_S)) for t in self.job_s]

    def scale(self):
        """Factor from this pass's seconds to host-normalised seconds.  A
        short slice lands either in a slow stretch of the host or not, so
        the share of slow time shows in the slices' mean."""
        return REF_NOMINAL_S / statistics.mean(self.ref_s)


def repeat(seconds, step):
    """Call ``step`` until another call would overrun ``seconds``; at least
    once.  ``step`` returns the time it measured."""
    started = perf_counter()
    took = []
    while True:
        took.append(step())
        if perf_counter() - started + statistics.median(took) > seconds:
            return


def run_one(workload, seed, seconds, trace):
    import workloads
    import tracer as tracing

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    gate = workloads.load_gate()
    jobs = workloads.jobs_for(workload, seed)
    plain, traced, layers = [], [], []
    run = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "jobs": [j.key for j in jobs]}

    if not trace:
        # set-up probes after each pass, so they sample the whole run rather
        # than one moment of a host whose speed drifts
        code = workloads.SETUP_CODE[workload]
        setup, setup_scaled = [], []
        started = perf_counter()

        def step():
            t0 = perf_counter()
            p = Pass(jobs, gate, ref=plain[-1].ref_plan() if plain else [1] * len(jobs))
            plain.append(p)
            probes = []
            while not probes or len(setup) + len(probes) < SETUP_PER_S * (perf_counter() - started):
                probes.append(setup_probe(code))
                p.ref_s.append(reference_slice())
            setup.extend(probes)
            setup_scaled.extend(t * p.scale() for t in probes)
            return perf_counter() - t0
        repeat(seconds, step)
        while len(setup) < SETUP_STARTS:
            setup.append(setup_probe(code))
            setup_scaled.append(setup[-1] * plain[-1].scale())
        scales = [p.scale() for p in plain]
        # each job's median latency over the passes; a pass's time is the
        # sum of its jobs', so wall_s is the pass these medians make up
        job_med = [statistics.median(p.job_s[i] * k for p, k in zip(plain, scales))
                   for i in range(len(jobs))]
        raw_med = [statistics.median(p.job_s[i] for p in plain) for i in range(len(jobs))]
        metrics = {"wall_s": sum(job_med),
                   "job_s_p50": statistics.median(job_med),
                   "setup_s": statistics.median(setup_scaled),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        raw = {"wall_s": sum(raw_med), "job_s_p50": statistics.median(raw_med),
               "setup_s": statistics.median(setup)}
        run["samples"] = {"host_scale": statistics.median(scales), "pass_scale": scales,
                          "raw": raw, "ref_s": [p.ref_s for p in plain],
                          "pass_wall_s": [p.wall for p in plain],
                          "job_s_count": len(jobs) * len(plain), "setup_s": setup,
                          "job_s": {j.key: [p.job_s[i] for p in plain]
                                    for i, j in enumerate(jobs)}}
    else:
        tr = tracing.Tracer()

        def step():
            plain.append(Pass(jobs, gate))
            tr.reset()
            tr.install()
            try:
                traced.append(Pass(jobs, gate, tr))
            finally:
                tr.uninstall()
            layers.append(tr.summary())
            return plain[-1].wall + traced[-1].wall
        repeat(seconds, step)
        metrics = dict(layers[-1][0])
        run["per_job_spans"] = layers[-1][1]
        exact = {k: v for k, v in metrics.items() if not k.endswith("self_s")}
        repeatable = all({k: v for k, v in m.items() if k in exact} == exact
                         for m, _ in layers)
        same_outputs = all(p.outcomes == t.outcomes for p, t in zip(plain, traced))
        for name in metrics:
            if name.endswith("self_s"):
                metrics[name] = statistics.median(m[name] for m, _ in layers)
        metrics["trace.overhead_ratio"] = (statistics.median(t.wall for t in traced)
                                           / statistics.median(p.wall for p in plain))
        run["samples"] = {"traced_passes": len(traced), "counts_repeat": repeatable,
                          "traced_outputs_match": same_outputs}
        # one file per workload, overwritten, to keep the checkout small
        spans_path = os.path.join(workloads.OUT_DIR, f"spans-{workload}.tsv.gz")
        tr.write_spans(spans_path)
        run["spans"] = os.path.relpath(spans_path, ROOT)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and (not trace or (repeatable and same_outputs))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    run.update(correct=correct, attempted=attempted, failed=failed,
               metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    return run


def row(run):
    """One human-readable line for a workload's run."""
    parts = [f"workload={run['workload']}"]
    for name, m in run["metrics"].items():
        parts.append(f"{name}={m['value']:.6g} {m['unit']}")
        if name == "job_s_p50":
            parts[-1] += f" (n={run['samples']['job_s_count']})"
    if "host_scale" in run.get("samples", {}):
        parts.append(f"host_scale={run['samples']['host_scale']:.4g}")
    ratio = run["failed"] / run["attempted"] if run["attempted"] else 0.0
    parts.append(f"fail_ratio={ratio:g} ({run['failed']}/{run['attempted']})")
    return "  ".join(parts)


def write_result(path, runs):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine_record(), "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def orchestrate(args, names):
    """Each workload and seed in a fresh process, so peak RSS is the
    workload's own; prints one row per workload of the medians."""
    runs = []
    for workload in names:
        for i in range(args.runs):
            out = os.path.join(HERE, "_out", f"child-{workload}-{i}.json")
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", out],
                stdout=subprocess.DEVNULL, timeout=900)
            if proc.returncode not in (0, 1):
                print(f"error: run of {workload} exited with {proc.returncode}",
                      file=sys.stderr)
                return 2
            with open(out, encoding="utf-8") as fh:
                runs += json.load(fh)["runs"]
            os.remove(out)
    write_result(args.out or os.path.join(HERE, "_out", "results.json"), runs)
    metrics = {}
    for workload in names:
        mine = [r for r in runs if r["workload"] == workload]
        merged = dict(mine[0], attempted=sum(r["attempted"] for r in mine),
                      failed=sum(r["failed"] for r in mine))
        merged["metrics"] = {
            k: {"value": statistics.median(r["metrics"][k]["value"] for r in mine),
                "unit": m["unit"]}
            for k, m in mine[0]["metrics"].items()}
        if not args.trace:
            merged["samples"] = {"job_s_count": sum(r["samples"]["job_s_count"] for r in mine)}
        print(row(merged))
        for k, m in merged["metrics"].items():
            metrics[f"{workload}.{k}"] = m
    correct = all(r["correct"] for r in runs)
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs), "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("singular_cusp", "kernel_emit", "numerics", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--out", default=None, help="result file to write")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds and --runs must be positive")

    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import the delpezzo package: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.workload == "all" or args.runs > 1:
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        return orchestrate(args, names)

    run = run_one(args.workload, args.seed, args.seconds, args.trace)
    write_result(args.out or os.path.join(
        workloads.OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        [run])
    print(row(run))
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": run["metrics"]}))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
