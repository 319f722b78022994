"""Compare two benchmark result files, one row per workload.

    python3 bench/compare.py parent.json change.json

Each file holds one or more untraced runs per workload (``run.py --runs
N --out FILE``).  For every end-to-end metric of ``BENCHMARK.json`` the
row gives the parent's and the change's median and a verdict:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: the parent's own spread (quartile distance over median,
  needing two or more runs) is wider than the bound, or unknown, and not
  every change run beats every parent run;
* ``better``: better by more than the parent's spread;
* ``same``: otherwise.

The exit code is 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    by_workload = {}
    for run in data["runs"]:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return data["machine"], by_workload


def verdict(parent, change, bound, lower_is_better):
    pm, cm = statistics.median(parent), statistics.median(change)
    sign = 1 if lower_is_better else -1
    worse_by = sign * (cm - pm) / pm
    spread = None
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        spread = (q3 - q1) / pm
    all_better = all(sign * c < sign * p for c in change for p in parent)
    if spread is None or spread > bound:
        return "better" if all_better else "unresolved", worse_by, spread
    if worse_by > bound:
        return "worse", worse_by, spread
    if -worse_by > spread:
        return "better", worse_by, spread
    return "same", worse_by, spread


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["end_to_end"]
    (pm, parent), (cmach, change) = load_runs(argv[0]), load_runs(argv[1])
    for label, mach in (("parent", pm), ("change", cmach)):
        print(f"{label}: sha={mach['git_sha']} dirty={mach['dirty']} nproc={mach['nproc']} "
              f"cpu={mach['cpu']} python={mach['python']}")
    any_worse = False
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"workload={workload}  missing from one file")
            continue
        cells = [f"workload={workload} (runs {len(parent[workload])} vs {len(change[workload])})"]
        for metric in spec:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parent[workload]]
            c = [r["metrics"][name]["value"] for r in change[workload]]
            v, worse_by, spread = verdict(p, c, metric["bound"], metric["better"] == "lower")
            any_worse |= v == "worse"
            spread_txt = "?" if spread is None else f"{spread:.1%}"
            pmed, cmed = statistics.median(p), statistics.median(c)
            cells.append(f"{name}: {pmed:.4g} -> {cmed:.4g} {metric['unit']} "
                         f"({(cmed - pmed) / pmed:+.1%}, spread {spread_txt}, "
                         f"bound {metric['bound']:.0%}) {v}")
        print("  |  ".join(cells))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
