"""Pass/fail reporting shared by the verification suites.

A Check records one comparison: an identifier, a human-readable
description, a status ("pass", "fail", or "error"), the two compared
values, and an error metric ("0" for exact agreement, a relative or
absolute error for numeric checks).  Exact checks keep the compared values
themselves (polynomials, scalars) and quadrature checks keep repr'd floats;
``to_json_dict`` renders both with ``str()``, so only JSON output pays for
rendering a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field


PASS = "pass"
FAIL = "fail"
ERROR = "error"

#: A report's exit codes: every check passed, a check failed, a check
#: errored (a quadrature that did not converge).  A graver outcome has the
#: larger code, so several reports exit with the largest of theirs.
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NO_CONVERGENCE = 3


@dataclass
class Check:
    id: str
    description: str
    status: str
    lhs: object = ""
    rhs: object = ""
    error_metric: str = ""

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "status": self.status,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "error_metric": self.error_metric,
        }


def exact_check(check_id: str, description: str, lhs, rhs) -> Check:
    """A check comparing two exactly-comparable values (== must be exact)."""
    if lhs == rhs:
        return Check(check_id, description, PASS, lhs, rhs, "0")
    return Check(check_id, description, FAIL, lhs, rhs, "exact mismatch")


@dataclass
class VerificationReport:
    suite: str
    checks: list = field(default_factory=list)

    def extend(self, checks) -> "VerificationReport":
        self.checks.extend(checks)
        return self

    @property
    def counts(self) -> dict:
        summary = {"total": len(self.checks), "passed": 0, "failed": 0, "errors": 0}
        for c in self.checks:
            if c.status == PASS:
                summary["passed"] += 1
            elif c.status == FAIL:
                summary["failed"] += 1
            else:
                summary["errors"] += 1
        return summary

    @property
    def all_passed(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    def exit_code(self) -> int:
        """EXIT_OK if every check passed, EXIT_NO_CONVERGENCE if any
        errored, else EXIT_CHECK_FAILED."""
        counts = self.counts
        if counts["errors"]:
            return EXIT_NO_CONVERGENCE
        if counts["failed"]:
            return EXIT_CHECK_FAILED
        return EXIT_OK

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [c.to_json_dict() for c in self.checks],
            "summary": self.counts,
        }
