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

``selftest`` runs its integral suites in one forked worker process while
the exact suites run in the parent; the worker inherits the run's family
and sends back only its report.  An exception in the worker is raised in
the parent as if the suite had run there.  A worker that dies without a
report (killed by a signal, out of memory) is exit 4, on one line that
names the signal or exit status.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
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
from .report import (
    EXIT_CHECK_FAILED,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    SUITES,
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


def _latex_terms(values) -> str:
    """Descending-power rendering of rational coefficients (low-first input,
    not all zero), a non-integer magnitude as a fraction."""
    out = []
    for k in range(len(values) - 1, -1, -1):
        v = values[k]
        if v == 0:
            continue
        mag = abs(v)
        if mag.denominator != 1:
            coef = rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        elif mag == 1 and k > 0:
            coef = ""
        else:
            coef = str(mag.numerator)
        sign = "-" if v < 0 else "+" if out else ""
        out.append(sign + coef + _power_string(k))
    return "".join(out)


def latex_polynomial(p: Polynomial) -> str:
    """Canonical LaTeX: a single common-denominator fraction when the
    denominator lcm stays small, per-term fractions otherwise."""
    coeffs = [Fraction(c) for c in p.coeffs]
    if not coeffs:
        return "0"
    denom = math.lcm(*(c.denominator for c in coeffs))
    if denom > _LCM_CAP:
        return _latex_terms(coeffs)
    body = _latex_terms([int(c * denom) for c in coeffs])
    return body if denom == 1 else rf"\frac{{{body}}}{{{denom}}}"


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


def _operator_lab():
    """``operator_lab``, imported on first use: it loads numpy, which no
    exact request needs.  numpy's bundled OpenBLAS starts a worker thread at
    import that busy-waits for about 0.1 s of CPU, while the one BLAS
    product per grid (G x G by G x 4) takes milliseconds on one core: one
    thread cuts the CPU of a `verify integrals` request from about 0.43 to
    0.28 s (2-CPU x86 host) at unchanged wall time and output.  In
    ``selftest`` this runs only in the forked integrals worker, so the
    OPENBLAS_NUM_THREADS default is set there and the parent never loads
    numpy.  An OPENBLAS_NUM_THREADS already set still wins, and library
    users who import operator_lab keep numpy's default."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import operator_lab

    return operator_lab


def _suite_report(name: str, args, family) -> VerificationReport:
    """The report of one ``verify`` suite; ``family`` is the run's one
    recurrence family, to n = ``args.max_n``."""
    if name == "identities":
        return identities_report(family)
    if name == "uv":
        uv = build_uv(args.max_n)
        return VerificationReport(suite="uv").extend(check_uv_consistency(uv, family))
    return _operator_lab().integrals_report(
        family, suite=args.suite, tolerance=args.tolerance, grid_size=args.grid_size
    )


def _cmd_verify(args) -> tuple:
    max_n = args.max_n
    if args.suite_name == "integrals":
        max_n = min(max_n, _operator_lab().INTEGRALS_MAX_N)  # they read no more
    report = _suite_report(args.suite_name, args, build_by_recurrence(max_n))
    if args.format == "json":
        return report.exit_code(), canonical_json(report.to_json_dict())
    return report.exit_code(), emit_csv(_report_rows(report))


def _beside(here, there) -> tuple:
    """``(here(), there())``, with ``there()`` run in one forked worker
    process while this process runs ``here()``.

    The worker inherits everything ``there`` reads through the fork; only
    its result, or the exception it raised, comes back, pickled through a
    pipe.  The worker always leaves by ``os._exit``: it never flushes this
    process's stdio buffers or runs its exit handlers.  An exception that
    does not survive a pickle round trip comes back as
    ``RuntimeError(repr(exc))``.  A worker that ends without a result
    raises RuntimeError naming its signal or exit status.  The worker is
    reaped before this returns or raises, also when ``here()`` raises,
    whose exception then wins (it would have come first).  Without
    ``os.fork`` both run here, ``here()`` first.
    """
    if not hasattr(os, "fork"):
        return here(), there()
    import pickle
    import warnings

    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    with warnings.catch_warnings():
        # Python 3.12+ warns when a process with threads (an embedding
        # test runner's numpy, say) forks.  Raised as an error it would
        # leave a worker this function never learns of and cannot reap.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, there()))
            except BaseException as exc:
                try:
                    payload = pickle.dumps((False, exc))
                    pickle.loads(payload)
                except Exception:
                    payload = pickle.dumps((False, RuntimeError(repr(exc))))
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:  # closed first, so a writer never blocks the reap
            mine = here()
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code or not payload:
        if code < 0:
            import signal

            names = {s.value: s.name for s in signal.Signals}
            reason = f"killed by {names.get(-code, f'signal {-code}')}"
        else:
            reason = f"exit status {code}"
        raise RuntimeError(f"forked worker ended without a result ({reason})")
    ok, theirs = pickle.loads(payload)
    if not ok:
        raise theirs
    return mine, theirs


def _cmd_selftest(args) -> tuple:
    family = build_by_recurrence(args.max_n)
    exact, integrals = _beside(
        lambda: [_suite_report(name, args, family) for name in ("identities", "uv")],
        lambda: _suite_report("integrals", args, family),
    )
    reports = [*exact, integrals]
    code = max(r.exit_code() for r in reports)
    if args.format == "json":
        joined = VerificationReport("selftest", [c for r in reports for c in r.checks])
        doc = {
            "reports": [r.to_json_dict() for r in reports],
            "summary": joined.counts,
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
        p_report.add_argument("--max-n", type=_non_negative, default=24, metavar="N",
                              help="the largest n of any A_n, C_n a check reads, in every suite")
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
