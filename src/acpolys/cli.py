"""Command-line interface: table generation, polynomial emission, verification.

Subcommands::

    poly      emit A_n or C_n by a chosen construction route
    numbers   Bernoulli / cosecant / tangent-half number tables
    coeffs    the alpha/lambda triangles or the u/v triangles
    verify    run a verification suite (identities | uv | integrals)
    selftest  every exact suite plus every quadrature suite

Exact values are printed as "p/q" strings, never floats; floats appear
only inside ``verify integrals`` reports.  Exit codes: 0 all checks pass,
1 a check failed, 2 usage error, 3 quadrature failed to converge, 4 internal
error (an unexpected exception, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from .ac_families import (
    FAMILY_ROUTES,
    ROUTE_RECURRENCE,
    ROUTE_RESIDUE,
    build_a_by_residue_recurrence,
    build_by_recurrence,
    build_route,
    identities_report,
    lambda_alpha_tables,
)
from .exact_core import Polynomial, format_rational, poly_to_json
from .generalized_uv import build_uv, check_uv_consistency, row_width
from .operator_lab import SUITES, integrals_report
from .report import (
    EXIT_CHECK_FAILED,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    VerificationReport,
)
from .special_numbers import (
    bernoulli_numbers,
    cosecant_number,
    tangent_half_coeff,
)

ALL_ROUTES = FAMILY_ROUTES + (ROUTE_RESIDUE,)
VERIFY_SUITES = ("identities", "uv", "integrals")

#: The exit codes: a report's EXIT_OK, EXIT_CHECK_FAILED and
#: EXIT_NO_CONVERGENCE (imported above, so this module names all five),
#: and these two.
EXIT_USAGE = 2
EXIT_INTERNAL = 4


def canonical_json(obj) -> str:
    """Deterministic JSON rendering: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def emit_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# LaTeX rendering of exact polynomials.

_LCM_CAP = 10**6


def _power_string(k: int) -> str:
    if k == 0:
        return ""
    if k == 1:
        return "X"
    if k < 10:
        return f"X^{k}"
    return f"X^{{{k}}}"


def _join_terms(terms) -> str:
    """terms: list of (sign, body) with sign in {+1, -1}; joined compactly."""
    out = []
    for i, (sign, body) in enumerate(terms):
        if i == 0:
            out.append("-" + body if sign < 0 else body)
        else:
            out.append(("-" if sign < 0 else "+") + body)
    return "".join(out)


def _integer_terms(values) -> str:
    """Descending-power rendering of integer coefficients (low-first input)."""
    terms = []
    for k in range(len(values) - 1, -1, -1):
        v = values[k]
        if v == 0:
            continue
        mag = abs(v)
        body = ("" if mag == 1 and k > 0 else str(mag)) + _power_string(k)
        terms.append((1 if v > 0 else -1, body))
    return _join_terms(terms) if terms else "0"


def latex_polynomial(p: Polynomial) -> str:
    """Canonical LaTeX: a single common-denominator fraction when the
    denominator lcm stays small, per-term fractions otherwise."""
    coeffs = [Fraction(c) for c in p.coeffs]
    if not coeffs:
        return "0"
    denom = math.lcm(*(c.denominator for c in coeffs))
    if denom <= _LCM_CAP:
        numerators = [int(c * denom) for c in coeffs]
        body = _integer_terms(numerators)
        if denom == 1 or body == "0":
            return body
        return rf"\frac{{{body}}}{{{denom}}}"
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if mag.denominator == 1:
            coef = "" if mag == 1 and k > 0 else str(mag.numerator)
        else:
            coef = rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        body = coef + _power_string(k)
        terms.append((1 if c > 0 else -1, body or "1"))
    return _join_terms(terms)


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns (exit_code, output_text).


def _cmd_poly(args) -> tuple:
    n = args.n
    if args.route == ROUTE_RESIDUE:
        if args.family == "c":
            raise UsageError("the residue route builds only the A family")
        p = build_a_by_residue_recurrence(n)[n]
    else:
        family = build_route(args.route, n)
        p = family.a(n) if args.family == "a" else family.c(n)
    if args.format == "json":
        doc = {
            "family": args.family,
            "n": n,
            "route": args.route,
            "coefficients": poly_to_json(p),
        }
        return EXIT_OK, canonical_json(doc)
    if args.format == "csv":
        rows = [(k, format_rational(c)) for k, c in enumerate(p.coeffs)]
        return EXIT_OK, emit_csv(rows)
    return EXIT_OK, latex_polynomial(p)


_NUMBER_KINDS = {"cosecant": cosecant_number, "tangent": tangent_half_coeff}


def _cmd_numbers(args) -> tuple:
    if args.kind == "bernoulli":
        values = bernoulli_numbers(args.max_n)
    else:
        fn = _NUMBER_KINDS[args.kind]
        values = [fn(n) for n in range(args.max_n + 1)]
    if args.format == "json":
        doc = {
            "kind": args.kind,
            "max_n": args.max_n,
            "values": [format_rational(v) for v in values],
        }
        return EXIT_OK, canonical_json(doc)
    rows = [(n, format_rational(v)) for n, v in enumerate(values)]
    return EXIT_OK, emit_csv(rows)


def _cmd_coeffs(args) -> tuple:
    if args.table == "uv":
        uv = build_uv(args.max_n)
        entries = [
            (n, k, uv.u[(n, k)], uv.v[(n, k)])
            for n in range(1, args.max_n + 1)
            for k in range(1, row_width(n) + 1)
        ]
        if args.format == "json":
            doc = {
                "table": "uv",
                "max_n": args.max_n,
                "rows": [
                    {"n": n, "k": k, "u": format_rational(u), "v": format_rational(v)}
                    for n, k, u, v in entries
                ],
            }
            return EXIT_OK, canonical_json(doc)
        rows = [
            (n, k, format_rational(u), format_rational(v))
            for n, k, u, v in entries
        ]
        return EXIT_OK, emit_csv(rows)

    tables = lambda_alpha_tables(build_by_recurrence(args.max_n))
    if args.format == "json":
        doc = {
            "table": "alpha-lambda",
            "max_n": args.max_n,
            "rows": [
                {
                    "n": n,
                    "alpha": [
                        format_rational(tables.alpha[(n, k)]) for k in range(n + 2)
                    ],
                    "lambda": [
                        format_rational(tables.lam[(n, k)]) for k in range(n + 2)
                    ],
                }
                for n in range(args.max_n + 1)
            ],
        }
        return EXIT_OK, canonical_json(doc)
    rows = [
        (
            n,
            k,
            format_rational(tables.alpha[(n, k)]),
            format_rational(tables.lam[(n, k)]),
        )
        for n in range(args.max_n + 1)
        for k in range(n + 2)
    ]
    return EXIT_OK, emit_csv(rows)


def _report_rows(report: VerificationReport) -> list:
    return [(report.suite, c.id, c.status, c.error_metric) for c in report.checks]


def _suite_report(name: str, args, family) -> VerificationReport:
    """The report of one ``verify`` suite; ``family`` is the recurrence
    family to n = ``args.max_n`` (unused by ``integrals``)."""
    if name == "identities":
        return identities_report(family)
    if name == "uv":
        uv = build_uv(args.max_n)
        return VerificationReport(suite="uv").extend(check_uv_consistency(uv, family))
    return integrals_report(
        suite=args.suite, tolerance=args.tolerance, grid_size=args.grid_size
    )


def _cmd_verify(args) -> tuple:
    family = None  # verify integrals builds its own small family
    if args.suite_name != "integrals":
        family = build_by_recurrence(args.max_n)
    report = _suite_report(args.suite_name, args, family)
    if args.format == "json":
        return report.exit_code(), canonical_json(report.to_json_dict())
    return report.exit_code(), emit_csv(_report_rows(report))


def _cmd_selftest(args) -> tuple:
    family = build_by_recurrence(args.max_n)
    reports = [_suite_report(name, args, family) for name in VERIFY_SUITES]
    code = max(r.exit_code() for r in reports)
    if args.format == "json":
        totals = {"total": 0, "passed": 0, "failed": 0, "errors": 0}
        for r in reports:
            for key, val in r.counts.items():
                totals[key] += val
        doc = {
            "reports": [r.to_json_dict() for r in reports],
            "summary": totals,
        }
        return code, canonical_json(doc)
    return code, emit_csv(row for r in reports for row in _report_rows(r))


class UsageError(Exception):
    pass


def _checked(convert, accept, expected: str):
    """argparse type: ``convert(text)`` if it parses and passes ``accept``,
    else a usage error naming what was ``expected``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_non_negative = _checked(int, lambda v: v >= 0, "an integer >= 0")
#: The largest --grid-size: the Nystrom matrix of a G-node grid takes
#: 8 G^2 bytes, 512 MiB at this bound.
_MAX_GRID_SIZE = 8192

_grid_size = _checked(int, lambda v: 2 <= v <= _MAX_GRID_SIZE,
                      f"an integer from 2 to {_MAX_GRID_SIZE}")
_tolerance = _checked(
    float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acpolys",
        description="Exact polynomial families, coefficient tables, and "
        "verification of their integral and operator identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="emit A_n or C_n by a chosen route")
    p_poly.add_argument("--family", choices=("a", "c"), required=True)
    p_poly.add_argument("--n", type=_non_negative, required=True, metavar="N")
    p_poly.add_argument("--route", choices=ALL_ROUTES, default=ROUTE_RECURRENCE)
    p_poly.add_argument(
        "--format", choices=("json", "csv", "latex"), default="json"
    )

    p_num = sub.add_parser("numbers", help="special-number tables")
    p_num.add_argument(
        "--kind", choices=("bernoulli", *_NUMBER_KINDS), required=True
    )
    p_num.add_argument("--max-n", type=_non_negative, default=24, metavar="N")
    p_num.add_argument("--format", choices=("json", "csv"), default="json")

    p_coeffs = sub.add_parser("coeffs", help="coefficient triangles")
    p_coeffs.add_argument("table", choices=("alpha-lambda", "uv"))
    p_coeffs.add_argument("--max-n", type=_non_negative, default=24, metavar="N")
    p_coeffs.add_argument("--format", choices=("json", "csv"), default="json")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite_name", choices=VERIFY_SUITES)
    p_verify.add_argument(
        "--suite", choices=SUITES + ("all",), default="all",
        help="which integral suite (verify integrals only)",
    )

    p_self = sub.add_parser(
        "selftest", help="all exact suites plus all quadrature suites"
    )
    p_self.set_defaults(suite="all")

    for p_report in (p_verify, p_self):
        p_report.add_argument("--max-n", type=_non_negative, default=24, metavar="N")
        p_report.add_argument("--tolerance", type=_tolerance, default=1e-8)
        p_report.add_argument(
            "--grid-size", type=_grid_size, default=200,
            help="nodes of the eigenfunction checks' grid of equal 16-node "
            f"Gauss panels, rounded up to a multiple of 32 (2 to {_MAX_GRID_SIZE})",
        )
        p_report.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


_DISPATCH = {
    "poly": _cmd_poly,
    "numbers": _cmd_numbers,
    "coeffs": _cmd_coeffs,
    "verify": _cmd_verify,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    """Parse argv, execute, print the result; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, output = _DISPATCH[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"acpolys: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug: keep exit 1 meaning "a check failed"
        print(f"acpolys: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    if output:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(run())
