"""Command line front end for the verification suites and emitters.

Subcommands:

* ``verify``: run a named suite of exact checks and report pass/fail,
  optionally as JSON.  Exit code 0 means every check passed, 1 means some
  check failed, 2 means the invocation itself was invalid, 3 means an
  internal arithmetic error stopped the computation (one line on stderr).
* ``feasibility``: emit the (d, q) feasibility table for a prime p as CSV
  or a JSON summary of the minimal irregularity per degree.
* ``presentation``: emit the verified quotient chart presentation as JSON.

Output is deterministic: JSON fields are sorted alphabetically, rows keep
a fixed order, and no timestamps enter any payload (timing goes to the
human-readable summary only).  Relative ``--out`` paths are resolved
against the DELPEZZO_OUT_DIR environment variable when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .numerics import feasibility_region, is_prime, numerics_suite
from .quotient import Presentation
from .reports import CheckResult, prefixed
from .surfaces import (
    FOLIATION_KINDS,
    FoliationSpec,
    QuadricChart,
    build_presentation,
    chart_table,
    check_fibre_injectivity,
    check_ideal_preserved,
    check_p_closure,
    cusp_curve,
    field_of_constants_check,
    frobenius_factorization_check,
    quotient_presentation,
    reducedness_witness,
    singular_locus,
)

SUITES = ("foliations", "presentation", "singular", "cusp", "numerics", "all")


def suite_checks(suite: str, chart: int) -> list[CheckResult]:
    """Assemble the named suite; results are sorted by check name so the
    output order never depends on evaluation order."""
    checks: list[CheckResult] = []
    if suite in ("foliations", "all"):
        quad = QuadricChart.build(chart)
        checks += prefixed("foliations.", [quad.dehomogenisation_check()])
        for kind in FOLIATION_KINDS:
            fol = FoliationSpec.build(kind, quad)
            checks += prefixed(f"foliations.{kind}.", check_p_closure(fol))
            checks += prefixed(f"foliations.{kind}.", check_ideal_preserved(fol))
            checks += prefixed(f"foliations.{kind}.", field_of_constants_check(fol))
        checks += prefixed("foliations.", check_fibre_injectivity(quad.table))
        checks += prefixed("witness.", reducedness_witness())
    if suite in ("presentation", "all"):
        fol = FoliationSpec.build("deg1", QuadricChart.build(chart))
        _, pres_checks = quotient_presentation(fol)
        checks += prefixed("presentation.", pres_checks)
        _, tower_checks = frobenius_factorization_check(chart)
        checks += prefixed("presentation.", tower_checks)
    if suite in ("singular", "all"):
        checks += prefixed("singular.", singular_locus(build_presentation(chart)))
    if suite in ("cusp", "all"):
        # the cusp pipeline is specified on chart 0 only
        _, cusp_checks = cusp_curve()
        checks += prefixed("cusp.", cusp_checks)
    if suite in ("numerics", "all"):
        checks += prefixed("numerics.", numerics_suite())
    return sorted(checks, key=lambda c: c.name)


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _resolve_out(path: str) -> str:
    base = os.environ.get("DELPEZZO_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(_resolve_out(out), "w", encoding="utf-8") as fh:
            fh.write(text)


def run_verify(args) -> int:
    started = time.perf_counter()
    try:
        checks = suite_checks(args.suite, args.chart)
    except ArithmeticError as exc:
        print(f"error: suite {args.suite} stopped on an internal arithmetic "
              f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - started
    failed = [c for c in checks if not c.passed]
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
    if not is_prime(args.p):
        print(f"error: --p must be a prime, got {args.p}", file=sys.stderr)
        return 2
    if args.d_max < 1 or args.q_max < 1:
        print("error: --d-max and --q-max must be positive", file=sys.stderr)
        return 2
    table = feasibility_region(args.p, args.d_max, args.q_max)
    if args.format == "csv":
        _emit(table.to_csv(), args.out)
    else:
        _emit(_json_dump(table.to_json()), args.out)
    return 0


def run_presentation(args) -> int:
    fol = FoliationSpec.build("deg1", QuadricChart.build(args.chart))
    pres, checks = quotient_presentation(fol)
    failed = [c for c in checks if not c.passed]
    if failed:
        for c in failed:
            print(f"FAIL {c.name}  [{c.witness}]", file=sys.stderr)
        return 1
    _emit(_json_dump(pres.to_json()), args.out)
    return 0


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


def load_presentation(payload: dict) -> Presentation:
    """Re-parse an emitted presentation JSON onto its canonical table."""
    return Presentation.from_json(payload, chart_table(payload["chart"]))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
