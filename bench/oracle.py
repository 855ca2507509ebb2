"""Correctness oracles for the benchmark's CLI requests.

Each verdict is computed outside the timed region and cached by a digest of
(request, exit code, output), so a repeated request is not re-validated.

* ``selftest`` and ``integrals`` reports: every status is ``pass`` and the
  check ids equal the set recorded from the seed commit (``reference/``).
  Exact-suite lines must be byte-identical to the seed's; integral lines are
  compared by id and status only, because their float error metrics may
  legitimately change with a better discretization.
* Exact tables are checked against an independent construction: a polynomial
  against a second route, number tables against the series-quotient
  constructions, alpha/lambda against the coefficient-formula family, and
  u/v through ``check_uv_consistency`` against that family.

The oracle imports ``acpolys`` only for those second constructions, and only
when a table request is first checked.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from workloads import COEFFS_MAX_N, POLY_MAX_N, Request

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
EXACT_REFERENCE = "selftest-n48-exact.csv"
INTEGRALS_REFERENCE = "integrals-ids.csv"
INTEGRALS_SUITE = "integrals/all"

# The route each requested route is checked against.
SECOND_ROUTE = {
    "recurrence": "coefficient_formula",
    "coefficient_formula": "recurrence",
    "generating_function": "coefficient_formula",
}


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    checks: int = 0
    passed: int = 0


class Tally:
    """Counts attempted and failed requests; the only place a failure is counted."""

    def __init__(self, oracle: "Oracle"):
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, request: Request, exit_code: int, output: str) -> Verdict:
        verdict = self.oracle.verdict(request, exit_code, output)
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.failures.append({"request": request.label(), "reason": verdict.reason})
        return verdict


def csv_rows(output: str) -> list:
    text = output.rstrip("\n")
    return list(csv.reader(text.split("\n"))) if text else []


class _Independent:
    """Second constructions, built lazily at the largest size requested."""

    def __init__(self):
        import acpolys.ac_families as fam
        import acpolys.special_numbers as sn

        self._fam = fam
        self._series = {
            "bernoulli": sn.bernoulli_numbers_series,
            "cosecant": sn.cosecant_numbers_series,
            "tangent": sn.tangent_half_coeffs_series,
        }
        self._families = {}
        self._numbers = {}
        self._tables = None

    def family(self, route: str):
        if route not in self._families:
            if route == "recurrence":
                built = self._fam.build_by_recurrence(POLY_MAX_N)
            else:
                built = self._fam.build_by_coefficient_formula(COEFFS_MAX_N)
            self._families[route] = built
        return self._families[route]

    def numbers(self, kind: str, max_n: int) -> list:
        have = self._numbers.get(kind)
        if have is None or len(have) <= max_n:
            have = self._numbers[kind] = self._series[kind](max_n)
        return have[: max_n + 1]

    def alpha_lambda(self):
        if self._tables is None:
            family = self.family("coefficient_formula")
            self._tables = self._fam.lambda_alpha_tables(family)
        return self._tables


class Oracle:
    def __init__(self):
        exact = (REFERENCE_DIR / EXACT_REFERENCE).read_text()
        self.exact_lines = exact.rstrip("\n").split("\n")
        self.exact_ids = {(r[0], r[1]) for r in csv_rows(exact)}
        integrals = csv_rows((REFERENCE_DIR / INTEGRALS_REFERENCE).read_text())
        self.integral_ids = {(r[0], r[1]) for r in integrals}
        self._independent = None
        self._cache = {}

    def verdict(self, request: Request, exit_code: int, output: str) -> Verdict:
        key = hashlib.sha256(
            f"{request.label()}\0{exit_code}\0{output}".encode()
        ).digest()
        if key not in self._cache:
            if exit_code != 0:
                verdict = Verdict(False, f"exit code {exit_code}")
            else:
                try:
                    verdict = self._check(request, output)
                except (ValueError, KeyError, IndexError, TypeError,
                        ZeroDivisionError) as exc:
                    verdict = Verdict(False, f"unparsable output: {exc!r}")
            self._cache[key] = verdict
        return self._cache[key]

    def _check(self, request: Request, output: str) -> Verdict:
        if request.kind in ("selftest", "integrals"):
            return self._check_report(request, output)
        if self._independent is None:
            self._independent = _Independent()
        check = {
            "poly": self._check_poly,
            "numbers": self._check_numbers,
            "coeffs": self._check_coeffs,
        }[request.kind]
        if check(request.params, output):
            return Verdict(True)
        return Verdict(False, "output differs from the independent construction")

    # -- verification reports -------------------------------------------------

    def _check_report(self, request: Request, output: str) -> Verdict:
        lines = output.rstrip("\n").split("\n")
        rows = csv_rows(output)
        checks = len(rows)
        passed = sum(1 for r in rows if len(r) == 4 and r[2] == "pass")
        if passed != checks:
            return Verdict(False, f"{checks - passed} of {checks} checks did not pass",
                           checks, passed)
        ids = [(r[0], r[1]) for r in rows]
        expected = set(self.integral_ids)
        if request.kind == "selftest":
            expected |= self.exact_ids
            exact = [line for line, (suite, _) in zip(lines, ids)
                     if suite != INTEGRALS_SUITE]
            if exact != self.exact_lines:
                return Verdict(False, "exact-suite lines differ from the seed's",
                               checks, passed)
        if len(ids) != len(set(ids)) or set(ids) != expected:
            return Verdict(False, "check ids differ from the seed's", checks, passed)
        return Verdict(True, "", checks, passed)

    # -- exact tables ---------------------------------------------------------

    def _check_poly(self, params: dict, output: str) -> bool:
        family = self._independent.family(SECOND_ROUTE[params["route"]])
        n = params["n"]
        p = family.a(n) if params["family"] == "a" else family.c(n)
        coeffs = [str(Fraction(c)) for c in p.coeffs]
        if params["format"] == "json":
            return json.loads(output) == {
                "family": params["family"],
                "n": n,
                "route": params["route"],
                "coefficients": coeffs,
            }
        if params["format"] == "csv":
            return csv_rows(output) == [[str(k), c] for k, c in enumerate(coeffs)]
        from acpolys.cli import latex_polynomial

        return output.rstrip("\n") == latex_polynomial(p)

    def _check_numbers(self, params: dict, output: str) -> bool:
        values = [str(v) for v in
                  self._independent.numbers(params["kind"], params["max_n"])]
        if params["format"] == "json":
            return json.loads(output) == {
                "kind": params["kind"], "max_n": params["max_n"], "values": values,
            }
        return csv_rows(output) == [[str(n), v] for n, v in enumerate(values)]

    def _check_coeffs(self, params: dict, output: str) -> bool:
        if params["table"] == "uv":
            return self._check_uv(params, output)
        max_n = params["max_n"]
        tables = self._independent.alpha_lambda()
        if params["format"] == "json":
            rows = [
                {
                    "n": n,
                    "alpha": [str(tables.alpha[(n, k)]) for k in range(n + 2)],
                    "lambda": [str(tables.lam[(n, k)]) for k in range(n + 2)],
                }
                for n in range(max_n + 1)
            ]
            return json.loads(output) == {
                "table": "alpha-lambda", "max_n": max_n, "rows": rows,
            }
        return csv_rows(output) == [
            [str(n), str(k), str(tables.alpha[(n, k)]), str(tables.lam[(n, k)])]
            for n in range(max_n + 1)
            for k in range(n + 2)
        ]

    def _check_uv(self, params: dict, output: str) -> bool:
        from acpolys.generalized_uv import UVTables, check_uv_consistency, row_width

        max_n = params["max_n"]
        if params["format"] == "json":
            doc = json.loads(output)
            if (doc["table"], doc["max_n"]) != ("uv", max_n):
                return False
            rows = [(r["n"], r["k"], r["u"], r["v"]) for r in doc["rows"]]
        else:
            rows = [(int(n), int(k), u, v) for n, k, u, v in csv_rows(output)]
        keys = [(n, k) for n in range(1, max_n + 1)
                for k in range(1, row_width(n) + 1)]
        if [(n, k) for n, k, _, _ in rows] != keys:
            return False
        u = {(n, k): Fraction(text) for n, k, text, _ in rows}
        v = {(n, k): Fraction(text) for n, k, _, text in rows}
        canonical = all(str(u[(n, k)]) == tu and str(v[(n, k)]) == tv
                        for n, k, tu, tv in rows)
        family = self._independent.family("coefficient_formula")
        checks = check_uv_consistency(UVTables(u, v, max_n), family)
        return canonical and all(c.status == "pass" for c in checks)


_QUOTED_RATIONAL = re.compile(r'"-?\d+(?:/\d+)?"')


def corrupt(request: Request, output: str) -> str:
    """A wrong variant of a correct output: one dropped check line for a
    report, one altered digit of a table value otherwise."""
    if request.kind in ("selftest", "integrals"):
        lines = output.rstrip("\n").split("\n")
        del lines[len(lines) // 2]
        return "\n".join(lines) + "\n"
    match = _QUOTED_RATIONAL.search(output)
    if match:
        pos = match.end() - 2
    else:
        digits = [i for i, ch in enumerate(output) if ch.isdigit()]
        if not digits:
            return output.rstrip("\n") + "1\n"
        pos = digits[-1]
    bumped = str((int(output[pos]) + 1) % 10)
    return output[:pos] + bumped + output[pos + 1:]


def self_check(oracle: Oracle, request: Request, output: str) -> bool:
    """Whether a corrupted copy of an output, fed through a fresh Tally, is
    counted as one failed request."""
    tally = Tally(oracle)
    tally.record(request, 0, corrupt(request, output))
    return (tally.attempted, tally.failed) == (1, 1)
