"""Command line front end for the verification suites and emitters.

Subcommands:

* ``verify``: run a named suite of exact checks and report pass/fail,
  optionally as JSON.  Exit code 0 means every check passed, 1 means some
  check failed, 2 means the invocation itself was invalid.
* ``feasibility``: emit the (d, q) feasibility table for a prime p as CSV
  or a JSON summary of the minimal irregularity per degree; the input
  checks live in ``numerics``, and a value they reject exits 2.
* ``presentation``: emit the verified quotient chart presentation as JSON.

Every subcommand exits 3, with one line on stderr and no other output,
when an internal arithmetic error stops it.  An ``--out`` file that cannot
be opened for writing exits 2, the usage-error code, with one line on
stderr naming the path, and nothing is written.

Output is deterministic: JSON fields are sorted alphabetically, rows keep
a fixed order, and no timestamps enter any payload (timing goes to the
human-readable summary only).  Relative ``--out`` paths are resolved
against the DELPEZZO_OUT_DIR environment variable when it is set.

At module level this module imports only ``numerics`` and ``reports``, so
``verify --suite numerics`` and ``feasibility`` never load the geometry.
The other suites, ``presentation`` and ``load_presentation`` import
``surfaces`` (hence ``quotient`` and ``algebra``) when they run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .numerics import feasibility_region, numerics_suite
from .reports import CheckResult, failures, prefixed

SUITES = ("foliations", "presentation", "singular", "cusp", "numerics", "all")


def suite_checks(suite: str, chart: int) -> list[CheckResult]:
    """Assemble the named suite; results are sorted by check name so the
    output order never depends on evaluation order."""
    checks: list[CheckResult] = []
    if suite != "numerics":
        checks += _geometry_checks(suite, chart)
    if suite in ("numerics", "all"):
        checks += prefixed("numerics.", numerics_suite())
    return sorted(checks, key=lambda c: c.name)


def _geometry_checks(suite: str, chart: int) -> list[CheckResult]:
    """The checks of the geometric stages the suite names, each built once."""
    from . import surfaces
    checks: list[CheckResult] = []
    pres = None
    if suite in ("foliations", "presentation", "all"):
        quad = surfaces.QuadricChart.build(chart)
        deg1 = surfaces.FoliationSpec.build("deg1", quad)
    if suite in ("foliations", "all"):
        checks += prefixed("foliations.", [quad.dehomogenisation_check()])
        for fol in (deg1, surfaces.FoliationSpec.build("deg2", quad)):
            checks += prefixed(f"foliations.{fol.kind}.", surfaces.check_p_closure(fol))
            checks += prefixed(f"foliations.{fol.kind}.", surfaces.check_ideal_preserved(fol))
            checks += prefixed(f"foliations.{fol.kind}.", surfaces.field_of_constants_check(fol))
        checks += prefixed("foliations.", surfaces.check_fibre_injectivity(quad.table))
        checks += prefixed("witness.", surfaces.reducedness_witness())
    if suite in ("presentation", "all"):
        pres, pres_checks = surfaces.quotient_presentation(deg1)
        checks += prefixed("presentation.", pres_checks)
    if suite in ("singular", "all"):
        pres = pres or surfaces.build_presentation(chart)
        checks += prefixed("singular.", surfaces.singular_locus(pres))
    if suite in ("cusp", "all"):
        # the cusp pipeline is specified on chart 0 only
        _, cusp_checks = surfaces.cusp_curve()
        checks += prefixed("cusp.", cusp_checks)
    return checks


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _resolve_out(path: str) -> str:
    base = os.environ.get("DELPEZZO_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, out: str | None) -> int:
    """Write text to stdout or the ``--out`` file; the exit code."""
    if out is None:
        sys.stdout.write(text)
        return 0
    path = _resolve_out(out)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write --out {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def run_verify(args) -> int:
    started = time.perf_counter()
    checks = suite_checks(args.suite, args.chart)
    elapsed = time.perf_counter() - started
    failed = failures(checks)
    if args.json:
        payload = {
            "suite": args.suite,
            "chart": args.chart,
            "checks": [c.to_json() for c in checks],
            "counts": {"pass": len(checks) - len(failed), "fail": len(failed)},
        }
        sys.stdout.write(_json_dump(payload))
    else:
        for c in checks:
            line = f"{'PASS' if c.passed else 'FAIL'} {c.name}"
            if c.witness and not c.passed:
                line += f"  [{c.witness}]"
            print(line)
        print(f"suite={args.suite} chart={args.chart} checks={len(checks)} "
              f"failures={len(failed)} time={elapsed:.2f}s")
    return 1 if failed else 0


def run_feasibility(args) -> int:
    try:
        table = feasibility_region(args.p, args.d_max, args.q_max)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        return _emit(table.to_csv(), args.out)
    return _emit(_json_dump(table.to_json()), args.out)


def run_presentation(args) -> int:
    from . import surfaces
    fol = surfaces.FoliationSpec.build("deg1", surfaces.QuadricChart.build(args.chart))
    pres, checks = surfaces.quotient_presentation(fol)
    failed = failures(checks)
    if failed:
        for c in failed:
            print(f"FAIL {c.name}  [{c.witness}]", file=sys.stderr)
        return 1
    return _emit(_json_dump(pres.to_json()), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delpezzo",
        description="Exact verification of quadric foliation quotients and "
                    "del Pezzo degree/irregularity arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--chart", type=int, choices=(0, 1, 2, 3), default=0,
                          help="affine chart index (the cusp suite always "
                               "computes on chart 0)")
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable report")
    p_verify.set_defaults(func=run_verify)

    p_feas = sub.add_parser("feasibility",
                            help="emit the (degree, irregularity) table")
    p_feas.add_argument("--p", type=int, default=2, help="prime characteristic")
    p_feas.add_argument("--d-max", type=int, default=12)
    p_feas.add_argument("--q-max", type=int, default=8)
    p_feas.add_argument("--format", choices=("csv", "json"), default="csv")
    p_feas.add_argument("--out", default=None, help="write to a file")
    p_feas.set_defaults(func=run_feasibility)

    p_pres = sub.add_parser("presentation",
                            help="emit the verified chart presentation")
    p_pres.add_argument("--chart", type=int, choices=(0, 1, 2, 3), default=0)
    p_pres.add_argument("--out", default=None, help="write to a file")
    p_pres.set_defaults(func=run_presentation)
    return parser


def load_presentation(payload: dict):
    """Re-parse an emitted presentation JSON onto its canonical table; a
    coefficient, exponent or chart that is not an int raises ValueError."""
    from .quotient import Presentation
    from .surfaces import chart_table
    return Presentation.from_json(payload, chart_table(payload["chart"]))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ArithmeticError as exc:
        # raised before any output is written; exit 1 would read as a FAIL
        print(f"error: {args.command} stopped on an internal arithmetic error: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
