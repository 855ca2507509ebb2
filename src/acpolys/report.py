"""Pass/fail reporting shared by the verification suites.

A Check records one comparison: an identifier, a human-readable
description, a status ("pass", "fail", or "error"), the two compared
values, and an error metric ("0" for exact agreement, a relative or
absolute error for numeric checks).  Exact checks keep the compared values
themselves (polynomials, scalars) and quadrature checks keep repr'd floats;
``to_json_dict`` renders both with ``str()``, so only JSON output pays for
rendering a polynomial.

A VerificationReport is an immutable value built once from one suite's
finished checks, in order; it compares, hashes and pickles by value.
"""

from __future__ import annotations

from typing import NamedTuple


PASS = "pass"
FAIL = "fail"
ERROR = "error"

#: A report's exit codes: every check passed, a check failed, a check
#: errored (a quadrature that did not converge).  A graver outcome has the
#: larger code, so several reports exit with the largest of theirs.
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NO_CONVERGENCE = 3

#: The integral suites of ``verify integrals`` (``operator_lab``).  They
#: are named here, in a module that does not load numpy, so that the CLI's
#: argument parser can offer them without loading it.  The largest n they
#: read, ``INTEGRALS_MAX_N``, is derived in ``operator_lab`` from the points
#: they evaluate at.
SUITES = ("cform", "aform", "classical", "moments", "eigen")

#: Their defaults, shared by ``integrals_report`` and the CLI's
#: ``--tolerance`` and ``--grid-size``: the tolerance of the pure
#: quadrature comparisons (the grid checks run at 10x), and the requested
#: node count of the eigenfunction checks' grid.
DEFAULT_TOLERANCE = 1e-8
DEFAULT_GRID_SIZE = 200


class Check(NamedTuple):
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


class VerificationReport(NamedTuple):
    """One suite's checks, in order: a value, never changed once built."""
    suite: str
    checks: tuple = ()

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
