"""Uniform pass/fail records produced by the verification routines; like
every record of the package, ``CheckResult`` is an immutable ``NamedTuple``."""

from __future__ import annotations

from typing import NamedTuple


class CheckResult(NamedTuple):
    """One named exact check; witness carries the interesting payload."""

    name: str
    passed: bool
    witness: str | None = None

    def to_json(self) -> dict:
        return {"check_name": self.name,
                "status": "pass" if self.passed else "fail",
                "witness": self.witness}


def check(name: str, passed: bool, witness: str | None = None) -> CheckResult:
    return CheckResult(name, bool(passed), witness)


def prefixed(prefix: str, checks) -> list[CheckResult]:
    return [CheckResult(prefix + c.name, c.passed, c.witness) for c in checks]


def failures(checks) -> list[CheckResult]:
    return [c for c in checks if not c.passed]
