"""Command-line interface: table generation, polynomial emission, verification.

Subcommands::

    poly      emit A_n or C_n by a chosen construction route
    numbers   Bernoulli / cosecant / tangent-half number tables
    coeffs    the alpha/lambda triangles or the u/v triangles
    verify    run a verification suite (identities | uv | integrals)
    selftest  every exact suite plus every quadrature suite

Exact values are printed as "p/q" strings of any length (``run`` lifts
Python's int-to-str digit limit while a command runs), never floats;
floats appear only inside ``verify integrals`` reports.  Exit codes:
0 all checks pass, 1 a check failed, 2 argv rejected before anything is
computed (by argparse, or ``poly``'s one rule it cannot state),
3 quadrature failed to converge, 4 any exception after that, or output
that could not be written, each reported on one stderr line.  Every code is decided in ``run``, so no
module picks an exception type to choose one.

Each subcommand returns its exit code and its output as chunks, strings
whose concatenation is the whole stdout, and ``run`` writes and flushes
them one at a time: ``coeffs`` yields one triangle row n per chunk, so no
table is held as text.  What can fail (a family, its tangent guard,
``build_uv``) runs before the first chunk, so exit 4 leaves stdout empty.

``selftest`` runs its integral suites in one forked worker process while
the exact suites run in the parent; the worker inherits the run's family
and sends back only its report.  An exception in the worker is raised in
the parent as if the suite had run there.  A worker that dies without a
report (killed by a signal, out of memory) is exit 4, on one line that
names the signal or exit status.

``python -m acpolys.cli`` and the ``acpolys`` script run ``main``, which
leaves by ``os._exit`` once ``run`` has written the output and stdout and
stderr are flushed: interpreter teardown would only free what the process
is about to drop.  Under a trace or profile hook (coverage, cProfile) it
exits the normal way, so the hook's exit handlers still run.  ``run``
itself never exits the process: for a usage error or ``--help`` it
returns argparse's code, 2 or 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .ac_families import (
    ALL_ROUTES,
    FAMILY_ROUTES,
    ROUTE_RECURRENCE,
    build_by_recurrence,
    identities_report,
    lambda_alpha_tables,
    route_rows,
)
from .exact_core import Polynomial, format_rational, poly_to_json
from .generalized_uv import build_uv, check_uv_consistency
from .report import (
    DEFAULT_GRID_SIZE,
    DEFAULT_TOLERANCE,
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
    csv.writer(buf, lineterminator="\n").writerows(rows)
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
    """Canonical LaTeX of a polynomial over Q: its integer numerators over its
    one denominator (the lcm of its coefficients' denominators) while that
    stays small, per-term fractions otherwise."""
    numerators, den = p.integers()
    if not numerators:
        return "0"
    if den > _LCM_CAP:
        return _latex_terms(p.coeffs)
    body = _latex_terms(numerators)
    return body if den == 1 else rf"\frac{{{body}}}{{{den}}}"


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns (exit_code, chunks).


def _cmd_poly(args) -> tuple:
    n = args.n
    if args.family == "c" and args.route not in FAMILY_ROUTES:  # a usage error
        return _complain("acpolys: error: the residue route builds only the A family",
                         EXIT_USAGE), ()
    a_rows, c_rows = route_rows(args.route, n)
    p = (a_rows if args.family == "a" else c_rows)[n]
    if not p.is_real:  # a bug, not a usage error
        raise RuntimeError(f"route {args.route} built a non-real "
                           f"{args.family.upper()}_{n} of degree {p.degree}")
    if args.format == "json":
        doc = {
            "family": args.family,
            "n": n,
            "route": args.route,
            "coefficients": poly_to_json(p),
        }
        return EXIT_OK, _printed(canonical_json(doc))
    if args.format == "csv":
        rows = [(k, format_rational(c)) for k, c in enumerate(p.coeffs)]
        return EXIT_OK, _printed(emit_csv(rows))
    return EXIT_OK, _printed(latex_polynomial(p))


# Each entry reads its function when called, so a rebound name (bench/tracing.py) runs.
_NUMBER_KINDS = {
    "bernoulli": lambda max_n: bernoulli_numbers(max_n),
    "cosecant": lambda max_n: [cosecant_number(n) for n in range(max_n + 1)],
    "tangent": lambda max_n: [tangent_half_coeff(n) for n in range(max_n + 1)],
}


def _cmd_numbers(args) -> tuple:
    values = _NUMBER_KINDS[args.kind](args.max_n)
    if args.format == "json":
        doc = {
            "kind": args.kind,
            "max_n": args.max_n,
            "values": [format_rational(v) for v in values],
        }
        return EXIT_OK, _printed(canonical_json(doc))
    rows = [(n, format_rational(v)) for n, v in enumerate(values)]
    return EXIT_OK, _printed(emit_csv(rows))


def _cmd_coeffs(args) -> tuple:
    """One chunk per triangle row n, rendered from the tables' views.  The
    family, its tangent guard and ``build_uv`` run here, before ``run``
    writes the first chunk, so whatever they raise (exit 4) leaves stdout
    empty."""
    max_n = args.max_n
    if args.table == "uv":  # first: the first row n and the first column k
        uv = build_uv(max_n)
        left, right, first = uv.u, uv.v, 1
    else:
        tables = lambda_alpha_tables(build_by_recurrence(max_n))
        left, right, first = tables.alpha, tables.lam, 0
    rows = ((n, left.formatted_row(n), right.formatted_row(n))
            for n in range(first, max_n + 1))
    if args.format == "csv":  # integers and "p/q" strings: nothing to quote
        return EXIT_OK, ("".join(f"{n},{k},{x},{y}\n"
                                 for k, (x, y) in enumerate(zip(xs, ys), first))
                         for n, xs, ys in rows)
    if args.table == "uv":
        rows = (canonical_json([{"n": n, "k": k, "u": x, "v": y}
                                for k, (x, y) in enumerate(zip(xs, ys), first)])[1:-1]
                for n, xs, ys in rows)
    else:
        rows = (canonical_json({"n": n, "alpha": xs, "lambda": ys}) for n, xs, ys in rows)
    return EXIT_OK, _json_chunks({"table": args.table, "max_n": max_n}, rows)


def _json_chunks(doc: dict, rows):
    """``canonical_json`` of ``doc`` with its "rows" list, as ``print``
    writes it, in chunks: the text before the list, each row's canonical
    JSON (``rows`` yields them), then the text after."""
    head, tail = canonical_json({**doc, "rows": []}).split("[]")
    yield head + "["
    for i, row in enumerate(rows):
        yield "," + row if i else row
    yield "]" + tail + "\n"


def _printed(text: str) -> tuple:
    """``text`` as chunks, with the newline ``print`` adds; none for an empty
    text, which writes nothing."""
    return (text + "\n",) if text else ()


def _report_rows(report: VerificationReport) -> list:
    return [(report.suite, c.id, c.status, c.error_metric) for c in report.checks]


def _operator_lab():
    """``operator_lab``, imported on first use: it loads numpy, which no
    exact request needs.  numpy's bundled OpenBLAS starts a worker thread at
    import that busy-waits for about 0.1 s of CPU, while the BLAS products
    of a pass over a grid (one ROW_BLOCK x G block at a time, by G x 2 or
    G x 4) take milliseconds on one core: one thread cuts the CPU of a
    `verify integrals` request from about 0.43 to 0.28 s (2-CPU x86 host)
    at unchanged wall time and output.  In
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
        return VerificationReport("uv", tuple(check_uv_consistency(uv, family)))
    return _operator_lab().integrals_report(
        family, suite=args.suite, tolerance=args.tolerance, grid_size=args.grid_size
    )


def _cmd_verify(args) -> tuple:
    max_n = args.max_n
    if args.suite_name == "integrals":
        max_n = min(max_n, _operator_lab().INTEGRALS_MAX_N)  # they read no more
    report = _suite_report(args.suite_name, args, build_by_recurrence(max_n))
    if args.format == "json":
        return report.exit_code(), _printed(canonical_json(report.to_json_dict()))
    return report.exit_code(), _printed(emit_csv(_report_rows(report)))


def _beside(here, there) -> tuple:
    """``(here(), there())``, with ``there()`` run in one forked worker
    process while this process runs ``here()``.

    The worker inherits everything ``there`` reads through the fork; only
    its result, or the exception it raised, comes back, pickled through a
    pipe.  The worker always leaves by ``os._exit``: it never flushes this
    process's stdio buffers or runs its exit handlers.  An exception that
    does not survive a pickle round trip comes back as
    ``RuntimeError(repr(exc))``, which ``run`` reports as exit 4 like any
    exception.  A worker that ends without a result raises RuntimeError
    naming its signal or exit status.  The worker is reaped before this
    returns or raises, also when ``here()`` raises, whose exception then
    wins (it would have come first).  Without ``os.fork`` both run here,
    ``here()`` first.
    """
    if not hasattr(os, "fork"):
        return here(), there()
    import pickle
    import warnings

    read_fd, write_fd = os.pipe()
    _flush_stdio()
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
        joined = VerificationReport("selftest", tuple(c for r in reports for c in r.checks))
        doc = {
            "reports": [r.to_json_dict() for r in reports],
            "summary": joined.counts,
        }
        return code, _printed(canonical_json(doc))
    return code, _printed(emit_csv(row for r in reports for row in _report_rows(r)))


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
#: The largest --grid-size, a bound on kernel work: one Nystrom pass on a
#: G-node grid builds all G^2 matrix entries (67 million at this bound),
#: though it holds only one block of rows at a time.
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
    p_num.add_argument("--kind", choices=tuple(_NUMBER_KINDS), required=True)
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
        p_report.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
        p_report.add_argument(
            "--grid-size", type=_grid_size, default=DEFAULT_GRID_SIZE,
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
    """Parse argv, execute, write the command's chunks to stdout, each one
    flushed; returns the exit code and never exits.  Exit 2 is decided from
    argv alone: argparse's rejection (its ``SystemExit``, whose code is
    returned, also 0 for ``--help``) or ``_cmd_poly``'s family/route rule.
    Any exception after parsing is exit 4.

    Once argv is parsed, Python's int-to-str digit limit, which guards the
    parsing of untrusted text such as argv, is lifted until ``run``
    returns (exit 4 included) and then restored: every integer a command
    prints is one it computed, such as the numerator of B_2064.  A forked
    worker inherits the lifted limit."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0), already printed
        return exc.code
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code, chunks = _DISPATCH[args.command](args)
        for chunk in chunks:
            try:
                if sys.stdout is None:  # the process started with fd 1 closed
                    raise OSError("stdout is closed")
                sys.stdout.write(chunk)
                sys.stdout.flush()
            except OSError as exc:  # a full disk, a pipe closed by its reader
                code = _complain(f"acpolys: error: cannot write output: {exc}", EXIT_INTERNAL)
                _discard_stdout()
                return code
    except Exception as exc:  # nothing computed is a usage error; exit 1 is a failed check
        return _complain(f"acpolys: internal error: {exc!r}", EXIT_INTERNAL)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return code


def _complain(line: str, code: int) -> int:
    """Write ``line`` to stderr and return ``code``.  With stderr closed the
    line is dropped and the code stands: it is all a caller can still read."""
    try:
        if sys.stderr is not None:  # None: the process started with fd 2 closed
            print(line, file=sys.stderr)
    except OSError:
        pass
    return code


def _discard_stdout() -> None:
    """Point stdout's file descriptor at os.devnull, so that what stdout
    still buffers is flushed there (by ``main``, or at exit) rather than
    into a second error."""
    if sys.stdout is None:  # nothing to flush
        return
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # an in-process caller's buffer: left as is
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _flush_stdio() -> None:
    """Flush stdout and stderr, skipping a stream whose descriptor was closed
    at start (None) and one that cannot be written: a failed write of the
    output is already exit 4, and a closed stderr leaves the code as it is."""
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            pass


def _watched() -> bool:
    """Whether a tracer or profiler (coverage, cProfile) is hooked into this
    process: it writes its results at interpreter exit."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    # From Python 3.12, cProfile (and coverage, optionally) hook in through
    # sys.monitoring rather than setprofile or settrace.
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6))


def main() -> None:
    """The process entry point: ``run()``, then leave by ``os._exit``.

    Once the output is written and flushed, interpreter teardown (freeing
    every module and object) buys nothing.  Under a trace or profile hook
    the process exits the normal way instead, so the hook's exit handlers
    still run.  A usage error or ``--help`` leaves the same way as any
    other run, its text flushed here.  ``run`` lifts Python's int-to-str
    digit limit for the command it runs, so ``main`` leaves it alone.
    """
    code = run()
    if _watched():
        sys.exit(code)
    _flush_stdio()
    os._exit(code)


if __name__ == "__main__":
    main()
