"""End-to-end CLI behavior: output formats, round-trips, exit codes."""

import hashlib
import io
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpolys import cli, operator_lab
from acpolys.ac_families import build_by_recurrence
from acpolys.cli import (
    ALL_ROUTES, VERIFY_SUITES, canonical_json, emit_csv, latex_polynomial, run)
from acpolys.operator_lab import SUITES
from acpolys.exact_core import Polynomial, format_rational, poly_from_json, poly_to_json
from acpolys.generalized_uv import build_uv, row_width

F = Fraction


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLatex:
    def test_common_denominator_golden(self, capsys):
        code, out, _ = invoke(
            capsys, "poly", "--family", "c", "--n", "3",
            "--route", "recurrence", "--format", "latex",
        )
        assert code == 0
        assert out.strip() == r"\frac{3X^4+4X^2+1}{4}"

    def test_linear(self):
        assert latex_polynomial(Polynomial([0, 1])) == "X"
        assert latex_polynomial(Polynomial([])) == "0"
        assert latex_polynomial(Polynomial([5])) == "5"

    def test_integer_polynomial_no_fraction_wrapper(self):
        assert latex_polynomial(Polynomial([-1, 2])) == "2X-1"
        assert latex_polynomial(Polynomial([1, 0, -1])) == "-X^2+1"

    def test_common_denominator_with_negative_lead(self):
        p = Polynomial([F(1, 2), 0, F(-3, 4)])
        assert latex_polynomial(p) == r"\frac{-3X^2+2}{4}"

    def test_unit_coefficients_elided(self):
        assert latex_polynomial(Polynomial([0, 0, 1])) == "X^2"
        assert latex_polynomial(Polynomial([0, -1])) == "-X"

    def test_high_powers_braced(self):
        assert latex_polynomial(Polynomial.monomial(12)) == "X^{12}"

    def test_huge_denominator_falls_back_to_per_term(self):
        p = Polynomial([F(1, 10**7), 1])
        assert latex_polynomial(p) == r"X+\frac{1}{10000000}"


class TestPolyCommand:
    def test_json_round_trip_is_byte_identical(self, capsys):
        code, out, _ = invoke(capsys, "poly", "--family", "a", "--n", "6")
        assert code == 0
        doc = json.loads(out)
        rebuilt = poly_from_json(doc["coefficients"])
        re_emitted = canonical_json(
            {
                "family": doc["family"],
                "n": doc["n"],
                "route": doc["route"],
                "coefficients": poly_to_json(rebuilt),
            }
        )
        assert re_emitted == out.strip()

    def test_routes_agree_through_cli(self, capsys):
        outputs = set()
        for route in (
            "recurrence",
            "closed_form",
            "coefficient_formula",
            "generating_function",
            "residue_recurrence",
        ):
            code, out, _ = invoke(
                capsys, "poly", "--family", "a", "--n", "5", "--route", route
            )
            assert code == 0
            outputs.add(tuple(json.loads(out)["coefficients"]))
        assert len(outputs) == 1

    def test_csv_lists_all_coefficients(self, capsys):
        code, out, _ = invoke(
            capsys, "poly", "--family", "c", "--n", "1", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["0,1/2", "1,0", "2,1/2"]

    def test_no_floats_in_exact_output(self, capsys):
        _, out, _ = invoke(capsys, "poly", "--family", "c", "--n", "7")
        assert "." not in out


class TestNumbersCommand:
    def test_bernoulli_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "numbers", "--kind", "bernoulli", "--max-n", "4",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["0,1", "1,-1/2", "2,1/6", "3,0", "4,-1/30"]

    def test_tangent_json(self, capsys):
        code, out, _ = invoke(
            capsys, "numbers", "--kind", "tangent", "--max-n", "7"
        )
        doc = json.loads(out)
        assert doc["values"] == ["0", "1/2", "0", "1/4", "0", "1/2", "0", "17/8"]

    def test_cosecant_json(self, capsys):
        _, out, _ = invoke(capsys, "numbers", "--kind", "cosecant", "--max-n", "4")
        assert json.loads(out)["values"] == ["1", "0", "1/3", "0", "7/15"]


class TestCoeffsCommand:
    def test_uv_csv_golden_row(self, capsys):
        code, out, _ = invoke(
            capsys, "coeffs", "uv", "--max-n", "1", "--format", "csv"
        )
        assert code == 0
        assert out.strip() == "1,1,0,1"

    def test_uv_csv_row_four(self, capsys):
        _, out, _ = invoke(capsys, "coeffs", "uv", "--max-n", "4", "--format", "csv")
        assert "4,1,10/3,20/3" in out.splitlines()
        assert "4,2,7/3,8/3" in out.splitlines()

    def test_alpha_lambda_csv(self, capsys):
        _, out, _ = invoke(
            capsys, "coeffs", "alpha-lambda", "--max-n", "2", "--format", "csv"
        )
        assert "2,1,1/3,2/3" in out.splitlines()

    def test_alpha_lambda_json_shape(self, capsys):
        _, out, _ = invoke(capsys, "coeffs", "alpha-lambda", "--max-n", "1")
        doc = json.loads(out)
        row1 = doc["rows"][1]
        assert row1["alpha"] == ["0", "0", "1/2"]
        assert row1["lambda"] == ["1/2", "0", "1/2"]


def coeffs_reference(table: str, max_n: int, fmt: str) -> str:
    """The stdout of ``coeffs``, rendered as a dict of Fractions per table and
    one document printed whole: the reference for the per-row chunks."""
    if table == "uv":
        uv = build_uv(max_n)
        u, v = dict(uv.u), dict(uv.v)
        entries = [(n, k, u[(n, k)], v[(n, k)])
                   for n in range(1, max_n + 1) for k in range(1, row_width(n) + 1)]
        if fmt == "json":
            text = canonical_json({"table": "uv", "max_n": max_n, "rows": [
                {"n": n, "k": k, "u": format_rational(x), "v": format_rational(y)}
                for n, k, x, y in entries]})
        else:
            text = emit_csv((n, k, format_rational(x), format_rational(y))
                            for n, k, x, y in entries)
    else:
        family = build_by_recurrence(max_n)
        alpha = {(n, k): family.a(n).coefficient(k)
                 for n in range(max_n + 1) for k in range(n + 2)}
        lam = {(n, k): family.c(n).coefficient(k)
               for n in range(max_n + 1) for k in range(n + 2)}
        if fmt == "json":
            text = canonical_json({"table": "alpha-lambda", "max_n": max_n, "rows": [
                {"n": n,
                 "alpha": [format_rational(alpha[(n, k)]) for k in range(n + 2)],
                 "lambda": [format_rational(lam[(n, k)]) for k in range(n + 2)]}
                for n in range(max_n + 1)]})
        else:
            text = emit_csv((n, k, format_rational(alpha[(n, k)]), format_rational(lam[(n, k)]))
                            for n in range(max_n + 1) for k in range(n + 2))
    return text + "\n" if text else ""


def first_difference(out: str, expected: str) -> str:
    """Where ``out`` first departs from ``expected``, with some context."""
    at = next((i for i, (a, b) in enumerate(zip(out, expected)) if a != b),
              min(len(out), len(expected)))
    return (f"byte {at} of {len(out)} (expected {len(expected)}): "
            f"{out[at - 40:at + 40]!r} != {expected[at - 40:at + 40]!r}")


class _Recording(io.StringIO):
    """stdout that keeps each write, to count them."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


class _Discarding(io.TextIOBase):
    """stdout that drops what is written to it."""

    def write(self, text):
        return len(text)


class TestCoeffsChunks:
    """``coeffs`` writes its tables one triangle row at a time, rendered from
    the tables' views, byte for byte as the whole-document rendering."""

    @pytest.mark.parametrize("max_n", [0, 1, 2, 3, 61, 120])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("table", ["alpha-lambda", "uv"])
    def test_rows_render_as_the_dict_tables_did(self, capsys, table, fmt, max_n):
        code, out, err = invoke(capsys, "coeffs", table, "--max-n", str(max_n), "--format", fmt)
        assert (code, err) == (0, "")
        expected = coeffs_reference(table, max_n, fmt)
        same = out == expected  # a diff of two long texts would take minutes
        assert same, first_difference(out, expected)

    @pytest.mark.parametrize("table, fmt, writes", [
        ("alpha-lambda", "csv", 6),   # rows n = 0..5
        ("alpha-lambda", "json", 8),  # the same, between the text before and after them
        ("uv", "csv", 5),             # rows n = 1..5
        ("uv", "json", 7),
    ])
    def test_one_write_per_row(self, table, fmt, writes):
        stdout = _Recording()
        with redirect_stdout(stdout):
            code = run(["coeffs", table, "--max-n", "5", "--format", fmt])
        assert code == 0
        assert len(stdout.writes) == writes

    def test_an_empty_table_prints_no_bytes(self, capsys):
        assert invoke(capsys, "coeffs", "uv", "--max-n", "0", "--format", "csv") == (0, "", "")
        result = subprocess.run(
            [sys.executable, "-m", "acpolys.cli", "coeffs", "uv", "--max-n", "0", "--format", "csv"],
            env=_subprocess_env(), capture_output=True, timeout=120)
        assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_failed_tangent_guard_is_an_internal_error_with_nothing_written(
            self, capsys, monkeypatch, fmt):
        # The guard runs before the first chunk: C_3 + 1 breaks the tangent
        # expansion at n = 3, and no row reaches stdout.
        def corrupted(n_max):
            family = build_by_recurrence(n_max)
            cs = list(family.c_polys)
            cs[3] = cs[3] + Polynomial([1])
            return family._replace(c_polys=tuple(cs))

        monkeypatch.setattr(cli, "build_by_recurrence", corrupted)
        assert invoke(capsys, "coeffs", "alpha-lambda", "--max-n", "5", "--format", fmt) == (
            cli.EXIT_INTERNAL, "",
            "acpolys: internal error: RuntimeError('tangent expansion failed: tangent_expansion/n=3')\n")

    @pytest.mark.parametrize("exc, code, line", [
        # Nothing computed is a usage error, whatever its exception type.
        (ValueError("bad row"), 4, "acpolys: internal error: ValueError('bad row')"),
        (RuntimeError("boom"), 4, "acpolys: internal error: RuntimeError('boom')"),
        # An OSError of the producer is a bug, not an output that cannot be written.
        (OSError(5, "Input/output error"), 4,
         "acpolys: internal error: OSError(5, 'Input/output error')"),
    ])
    @pytest.mark.parametrize("before", ["", "first row\n"])
    def test_an_exception_while_chunks_are_produced(
            self, capsys, monkeypatch, exc, code, line, before):
        def chunks():
            if before:
                yield before
            raise exc

        monkeypatch.setitem(cli._DISPATCH, "numbers", lambda args: (0, chunks()))
        assert invoke(capsys, "numbers", "--kind", "bernoulli") == (code, before, line + "\n")

    @pytest.mark.parametrize("table", ["alpha-lambda", "uv"])
    def test_a_table_is_never_held_whole(self, table):
        # With stdout discarded, the traced peak is the family and one row
        # at a time: under 2 MB at N = 120, where the tables printed as one
        # document peaked at about 6 MB.
        tracemalloc.start()
        try:
            with redirect_stdout(_Discarding()):
                code = run(["coeffs", table, "--max-n", "120", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2_000_000


class TestVerifyCommand:
    def test_identities_trivial_case_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "identities", "--max-n", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["errors"] == 0

    def test_uv_small(self, capsys):
        code, out, _ = invoke(capsys, "verify", "uv", "--max-n", "5")
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0

    def test_uv_zero_is_empty(self, capsys):
        # The uv rows start at n = 1, so n = 0 has nothing to check.
        code, out, err = invoke(capsys, "verify", "uv", "--max-n", "0")
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["checks"] == []
        assert doc["summary"] == {
            "total": 0, "passed": 0, "failed": 0, "errors": 0,
        }

    @pytest.mark.parametrize(
        "argv", [["selftest"], *(["verify", suite] for suite in VERIFY_SUITES)])
    def test_one_family_per_run(self, capsys, monkeypatch, argv):
        sizes = []

        def counted(n_max):
            sizes.append(n_max)
            return build_by_recurrence(n_max)

        monkeypatch.setattr(cli, "build_by_recurrence", counted)
        code, _, _ = invoke(capsys, *argv, "--max-n", "3")
        assert code == 0
        assert sizes == [3]

    def test_integrals_build_the_family_they_read(self, capsys, monkeypatch):
        # verify integrals reads no A_n, C_n past n = 3, whatever --max-n.
        sizes = []

        def counted(n_max):
            sizes.append(n_max)
            return build_by_recurrence(n_max)

        monkeypatch.setattr(cli, "build_by_recurrence", counted)
        code, out, _ = invoke(capsys, "verify", "integrals", "--max-n", "192")
        assert code == 0
        assert sizes == [3]
        assert out == invoke(capsys, "verify", "integrals", "--max-n", "3")[1]

    @pytest.mark.parametrize("max_n, total", [("0", 12), ("1", 17), ("2", 23), ("3", 25)])
    def test_max_n_bounds_integrals(self, capsys, max_n, total):
        # A check runs only if each A_n, C_n it reads has n <= --max-n.
        code, out, err = invoke(capsys, "verify", "integrals", "--max-n", max_n)
        assert code == 0
        assert err == ""
        assert json.loads(out)["summary"] == {
            "total": total, "passed": total, "failed": 0, "errors": 0,
        }

    def test_integrals_at_max_n_3_match_the_default(self, capsys):
        code, out, _ = invoke(capsys, "verify", "integrals", "--max-n", "3")
        assert code == 0
        assert out == invoke(capsys, "verify", "integrals")[1]

    def test_integrals_single_suite(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "integrals", "--suite", "classical"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"] == {
            "total": 3, "passed": 3, "failed": 0, "errors": 0,
        }

    def test_failing_check_exits_one(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "integrals", "--suite", "eigen",
            "--tolerance", "1e-18",
        )
        assert code == 1
        assert json.loads(out)["summary"]["failed"] > 0

    def test_corrupted_family_fails_uv_checks(self, capsys, monkeypatch):
        # C_3 + 1 changes lam_3^0, so v_3^2 = 4 lam_3^0 no longer holds:
        # a failed check (exit 1), not a usage error.
        def corrupted(n_max):
            family = build_by_recurrence(n_max)
            cs = list(family.c_polys)
            cs[3] = cs[3] + Polynomial([1])
            return family._replace(c_polys=tuple(cs))

        monkeypatch.setattr(cli, "build_by_recurrence", corrupted)
        code, out, err = invoke(capsys, "verify", "uv", "--max-n", "5")
        assert code == cli.EXIT_CHECK_FAILED == 1
        assert err == ""
        failed = [c["id"] for c in json.loads(out)["checks"] if c["status"] == "fail"]
        assert failed == ["uv/v/n=3,k=2"]

    def test_csv_report_format(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "uv", "--max-n", "2", "--format", "csv"
        )
        assert code == 0
        for line in out.splitlines():
            assert line.startswith("uv,")


class TestUsageErrors:
    def test_residue_route_for_c_family(self, capsys):
        code, _, err = invoke(
            capsys, "poly", "--family", "c", "--n", "3",
            "--route", "residue_recurrence",
        )
        assert code == 2
        assert "residue" in err

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_unknown_format(self):
        assert run(["poly", "--family", "a", "--n", "1", "--format", "yaml"]) == 2

    def test_verify_rejects_latex(self):
        assert run(["verify", "identities", "--format", "latex"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("poly", "--family", "a", "--n", "-1"),
            ("verify", "identities", "--max-n", "-1"),
            ("verify", "integrals", "--grid-size", "1"),
            ("numbers", "--kind", "bernoulli", "--max-n", "-3"),
            ("coeffs", "alpha-lambda", "--max-n", "-2"),
            ("selftest", "--max-n", "two"),
            ("verify", "integrals", "--tolerance", "nan"),
            ("verify", "integrals", "--tolerance", "-1"),
            ("selftest", "--tolerance", "inf"),
            # A Nystrom pass on a G-node grid builds G^2 entries; argparse
            # rejects G > 8192 before any grid is built.
            ("verify", "integrals", "--grid-size", "8193"),
        ],
    )
    def test_out_of_range_argument(self, capsys, argv):
        code, _, err = invoke(capsys, *argv)
        assert code == 2
        assert "usage:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [("--help",), ("coeffs", "-h")])
    def test_help_is_returned_as_exit_0(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: acpolys")


class TestInternalError:
    def test_unexpected_exception_exits_four(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._DISPATCH, "numbers", broken)
        code, out, err = invoke(capsys, "numbers", "--kind", "bernoulli")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "acpolys: internal error: RuntimeError('boom')\n"

    def test_value_error_is_an_internal_error(self, capsys, monkeypatch):
        def rejects(args):
            raise ValueError("bad input")

        monkeypatch.setitem(cli._DISPATCH, "numbers", rejects)
        code, out, err = invoke(capsys, "numbers", "--kind", "bernoulli")
        assert (code, out) == (cli.EXIT_INTERNAL, "")
        assert err == "acpolys: internal error: ValueError('bad input')\n"


def _subprocess_env() -> dict:
    """This environment, with the package under test first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH"))))
    return env


class TestFailedWrites:
    """Output that cannot be written is exit 4 on one stderr line, with no
    traceback, also none from the interpreter's flush at exit."""

    def _run_into(self, stdout, *argv, unbuffered=False, close_stdout=False):
        env = _subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        command = [sys.executable, "-m", "acpolys.cli", *argv]
        if close_stdout:  # the shell execs the CLI with fd 1 closed
            command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
        result = subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE,
                                env=env, text=True, timeout=120)
        assert result.returncode == cli.EXIT_INTERNAL == 4
        assert result.stderr.startswith("acpolys: error: cannot write output: ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
        return result.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_full_disk(self, unbuffered):
        # Buffered, a short output fails only when it is flushed, and what
        # stays buffered is flushed again at exit; unbuffered, print fails.
        with open("/dev/full", "w") as full:
            err = self._run_into(full, "numbers", "--kind", "tangent", "--max-n", "5",
                                 unbuffered=unbuffered)
        assert "No space left on device" in err

    def test_a_pipe_closed_by_its_reader(self):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            err = self._run_into(write_fd, "coeffs", "uv", "--max-n", "150", "--format", "csv")
        finally:
            os.close(write_fd)
        assert "Broken pipe" in err

    @pytest.mark.skipif(not shutil.which("sh"), reason="no POSIX shell")
    def test_a_closed_stdout(self):
        # Started with fd 1 closed, the interpreter sets sys.stdout to None.
        err = self._run_into(None, "poly", "--family", "a", "--n", "1", close_stdout=True)
        assert err == "acpolys: error: cannot write output: stdout is closed\n"

    def test_an_in_process_stdout_without_a_descriptor(self):
        class Refusing(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        stdout, stderr = Refusing(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = run(["numbers", "--kind", "tangent", "--max-n", "5"])
        assert code == cli.EXIT_INTERNAL
        assert stderr.getvalue() == "acpolys: error: cannot write output: [Errno 32] Broken pipe\n"


class _ClosedStream(io.StringIO):
    """A stream whose every write fails, as on a closed descriptor."""

    def write(self, text):
        raise OSError(9, "Bad file descriptor")


class TestClosedStderr:
    """With stderr closed, the line ``run`` would write there is dropped and
    its exit code stands."""

    def _run_closed(self, monkeypatch, argv, stdout=None):
        monkeypatch.setattr(sys, "stderr", _ClosedStream())
        with redirect_stdout(stdout or io.StringIO()):
            return run(list(argv))

    def test_a_usage_error(self, monkeypatch):
        code = self._run_closed(monkeypatch, ("poly", "--family", "c", "--n", "3",
                                              "--route", "residue_recurrence"))
        assert code == cli.EXIT_USAGE

    def test_an_internal_error(self, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._DISPATCH, "numbers", broken)
        code = self._run_closed(monkeypatch, ("numbers", "--kind", "bernoulli"))
        assert code == cli.EXIT_INTERNAL

    def test_a_failed_write(self, monkeypatch):
        code = self._run_closed(monkeypatch, ("numbers", "--kind", "tangent", "--max-n", "5"),
                                stdout=_ClosedStream())
        assert code == cli.EXIT_INTERNAL

    @staticmethod
    def _cli_without_fd_2(stdout, *argv):
        # The interpreter, started with fd 2 closed, sets sys.stderr to None.
        command = ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "acpolys.cli",
                   *argv]
        return subprocess.run(command, stdout=stdout, env=_subprocess_env(), text=True,
                              timeout=120)

    @pytest.mark.skipif(not shutil.which("sh"), reason="no POSIX shell")
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_full_disk_without_fd_2(self):
        with open("/dev/full", "w") as full:
            result = self._cli_without_fd_2(full, "coeffs", "uv", "--max-n", "150",
                                            "--format", "csv")
        assert result.returncode == cli.EXIT_INTERNAL

    @pytest.mark.skipif(not shutil.which("sh"), reason="no POSIX shell")
    @pytest.mark.parametrize("code, stdout, argv", [
        (2, "", ("poly", "--family", "c", "--n", "3", "--route", "residue_recurrence")),
        (0, "0,1/4\n1,0\n2,1\n3,0\n4,3/4\n",
         ("poly", "--family", "c", "--n", "3", "--format", "csv")),
    ], ids=lambda x: " ".join(x) if isinstance(x, tuple) else None)
    def test_no_error_line_reaches_stdout(self, code, stdout, argv):
        result = self._cli_without_fd_2(subprocess.PIPE, *argv)
        assert (result.returncode, result.stdout) == (code, stdout)

    @pytest.mark.skipif(not shutil.which("sh"), reason="no POSIX shell")
    def test_selftest_without_fd_2(self, capsys):
        # selftest flushes stdio before it forks its integrals worker.
        argv = ("selftest", "--max-n", "1", "--format", "csv")
        result = self._cli_without_fd_2(subprocess.PIPE, *argv)
        assert (result.returncode, result.stdout) == invoke(capsys, *argv)[:2]


class TestProcessExit:
    """``python -m acpolys.cli`` prints what ``run`` prints and exits with
    its code, then leaves by ``os._exit``, except under a profile or trace
    hook.  Exit 4 for output that cannot be written: ``TestFailedWrites``."""

    def _cli(self, *argv, python_args=()):
        return subprocess.run([sys.executable, *python_args, "-m", "acpolys.cli", *argv],
                              env=_subprocess_env(), capture_output=True, text=True,
                              timeout=120)

    def test_piped_output_is_the_in_process_output(self, capsys):
        argv = ("coeffs", "uv", "--max-n", "150", "--format", "csv")
        result = self._cli(*argv)
        assert (result.returncode, result.stdout, result.stderr) == invoke(capsys, *argv)

    @pytest.mark.parametrize("code, argv", [
        (0, ("numbers", "--kind", "tangent", "--max-n", "5")),
        (1, ("verify", "integrals", "--suite", "eigen", "--tolerance", "1e-18",
             "--format", "csv")),
        (2, ("poly", "--family", "c", "--n", "3", "--route", "residue_recurrence")),
        (2, ("poly", "--family", "x", "--n", "3")),
    ], ids=lambda x: " ".join(x) if isinstance(x, tuple) else str(x))
    def test_exit_codes(self, capsys, code, argv):
        result = self._cli(*argv)
        assert result.returncode == code
        assert (result.returncode, result.stdout, result.stderr) == invoke(capsys, *argv)

    @pytest.mark.parametrize("hook, runs", [
        ("", False),
        ("sys.settrace(lambda *args: None)", True),
        ("sys.setprofile(lambda *args: None)", True),
    ])
    def test_exit_handlers_run_only_under_a_hook(self, hook, runs):
        script = (
            "import atexit, sys\n"
            "from acpolys import cli\n"
            "atexit.register(print, 'exit handler')\n"
            f"{hook}\n"
            "cli.main()\n"
        )
        result = subprocess.run([sys.executable, "-c", script, "poly", "--family", "a",
                                 "--n", "1", "--format", "csv"], env=_subprocess_env(),
                                capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "0,0\n1,0\n2,1/2\n" + "exit handler\n" * runs

    def test_help_is_flushed_before_the_process_leaves(self):
        # main leaves by os._exit, which flushes nothing itself; the help
        # ends with its own option's line.  Buffered, as stdout is by default.
        env = _subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        result = subprocess.run([sys.executable, "-m", "acpolys.cli", "--help"], env=env,
                                capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith("usage: acpolys")
        assert result.stdout.endswith(" show this help message and exit\n")

    def test_values_past_the_int_to_str_digit_limit_are_printed(self):
        # B_448 is the first Bernoulli number whose numerator has over 640 digits.
        argv = ("numbers", "--kind", "bernoulli", "--max-n", "460", "--format", "csv")
        limited = self._cli(*argv, python_args=("-X", "int_max_str_digits=640"))
        assert (limited.returncode, limited.stderr) == (0, "")
        assert limited.stdout == self._cli(*argv).stdout

    def test_run_lifts_the_digit_limit_and_restores_it(self):
        # In a fresh interpreter: run prints what the process prints, and
        # leaves the limit as it found it, after exit 0 and after exit 4.
        argv = ("numbers", "--kind", "bernoulli", "--max-n", "460", "--format", "csv")
        script = (
            "import contextlib, io, sys\n"
            "from acpolys import cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    ok = cli.run(sys.argv[1:])\n"
            "after_ok = sys.get_int_max_str_digits()\n"
            "def broken(args):\n"
            "    raise RuntimeError(sys.get_int_max_str_digits())\n"
            "cli._DISPATCH['numbers'] = broken\n"
            "failed = cli.run(sys.argv[1:])\n"
            "sys.stdout.write(out.getvalue())\n"
            "print(ok, after_ok, failed, sys.get_int_max_str_digits(), file=sys.stderr)\n"
        )
        result = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-c", script, *argv],
            env=_subprocess_env(), capture_output=True, text=True, timeout=120)
        assert result.returncode == 0
        assert result.stderr == "acpolys: internal error: RuntimeError(0)\n0 640 4 640\n"
        assert result.stdout == self._cli(*argv).stdout

    def test_a_profiler_still_prints_its_stats(self):
        result = self._cli("poly", "--family", "c", "--n", "4",
                           python_args=("-m", "cProfile"))
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith('{"coefficients":')
        assert "function calls" in result.stdout


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


class _NeedsTwoArguments(Exception):
    """Pickles, but cannot be rebuilt from its args alone."""

    def __init__(self, message, extra):
        super().__init__(message)


@needs_fork
class TestIntegralsWorker:
    """selftest runs its integral suites in one forked worker: what the
    worker raises or how it dies maps to the exit codes of a serial run,
    and the worker is always reaped."""

    def test_a_passing_run_leaves_no_process(self, capsys):
        code, _, err = invoke(capsys, "selftest", "--max-n", "2")
        assert (code, err) == (0, "")
        assert_no_child_process()

    @pytest.mark.parametrize("exc, code, line", [
        (ValueError("bad input"), cli.EXIT_INTERNAL,
         "acpolys: internal error: ValueError('bad input')"),
        (RuntimeError("boom"), cli.EXIT_INTERNAL,
         "acpolys: internal error: RuntimeError('boom')"),
    ])
    def test_worker_exception_exits_as_serial_code_does(
            self, capsys, monkeypatch, exc, code, line):
        def raises(*args, **kwargs):
            raise exc

        monkeypatch.setattr(operator_lab, "integrals_report", raises)
        assert invoke(capsys, "selftest", "--max-n", "3") == (code, "", line + "\n")
        assert invoke(capsys, "verify", "integrals") == (code, "", line + "\n")
        assert_no_child_process()

    @pytest.mark.parametrize("exc_type", ["local", "two-argument"])
    def test_an_exception_that_does_not_round_trip_comes_back_as_its_repr(
            self, capsys, monkeypatch, exc_type):
        class Local(Exception):  # a local class does not pickle
            pass

        exc = Local("x") if exc_type == "local" else _NeedsTwoArguments("x", 1)

        def raises(*args, **kwargs):
            raise exc

        monkeypatch.setattr(operator_lab, "integrals_report", raises)
        code, out, err = invoke(capsys, "selftest", "--max-n", "3")
        assert (code, out) == (cli.EXIT_INTERNAL, "")
        assert err == f"acpolys: internal error: {RuntimeError(repr(exc))!r}\n"
        assert_no_child_process()

    @pytest.mark.parametrize("die, reason", [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os._exit(0), "exit status 0"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by SIGKILL"),
    ], ids=["exit-3", "exit-0", "SIGKILL"])
    def test_a_worker_that_dies_exits_four_on_one_line(
            self, capsys, monkeypatch, die, reason):
        monkeypatch.setattr(operator_lab, "integrals_report", lambda *a, **k: die())
        code, out, err = invoke(capsys, "selftest", "--max-n", "3")
        assert (code, out) == (cli.EXIT_INTERNAL, "")
        assert err == ("acpolys: internal error: RuntimeError('forked worker "
                       f"ended without a result ({reason})')\n")
        assert_no_child_process()

    def test_the_worker_is_reaped_when_the_parent_raises(self, capsys, monkeypatch):
        def broken(family):
            raise RuntimeError("parent")

        monkeypatch.setattr(cli, "identities_report", broken)
        code, out, err = invoke(capsys, "selftest", "--max-n", "48")
        assert (code, out) == (cli.EXIT_INTERNAL, "")
        assert err == "acpolys: internal error: RuntimeError('parent')\n"
        assert_no_child_process()

    def test_without_fork_the_suites_run_here(self, capsys, monkeypatch):
        expected = invoke(capsys, "selftest", "--max-n", "3", "--format", "csv")
        monkeypatch.delattr(os, "fork")
        assert invoke(capsys, "selftest", "--max-n", "3", "--format", "csv") == expected

    def test_the_worker_neither_flushes_nor_runs_exit_handlers(self):
        # Unflushed stdout and an atexit handler of the parent each appear
        # once, so the worker left by os._exit.
        script = (
            "import atexit, sys\n"
            "from acpolys import cli\n"
            "atexit.register(print, 'exit handler')\n"
            "sys.stdout.write('pending ')\n"
            "sys.exit(cli.run(['selftest', '--max-n', '0', '--format', 'csv']))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], env=_subprocess_env(),
                                capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.count("pending ") == 1
        assert result.stdout.count("exit handler") == 1
        assert result.stdout.startswith("pending identities,")


def _option(flag, values):
    """``[flag, value]`` or nothing, so each option may be left at its default."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


_small_n = st.integers(-2, 12)
_formats = st.sampled_from(("json", "csv", "latex"))
_report_options = (
    _option("--max-n", _small_n),
    _option(
        "--tolerance", st.sampled_from(("1e-8", "1e-14", "1e-300", "1", "0", "nan"))
    ),
    _option("--grid-size", st.integers(0, 64)),
    _option("--format", _formats),
)

_argv = st.one_of(
    st.tuples(
        st.just(["poly"]),
        st.sampled_from(("a", "c")).map(lambda f: ["--family", f]),
        _small_n.map(lambda n: ["--n", str(n)]),
        _option("--route", st.sampled_from(ALL_ROUTES)),
        _option("--format", _formats),
    ),
    st.tuples(
        st.just(["numbers"]),
        st.sampled_from(("bernoulli", "cosecant", "tangent")).map(
            lambda k: ["--kind", k]
        ),
        _option("--max-n", _small_n),
        _option("--format", _formats),
    ),
    st.tuples(
        st.just(["coeffs"]),
        st.sampled_from(("alpha-lambda", "uv")).map(lambda t: [t]),
        _option("--max-n", _small_n),
        _option("--format", _formats),
    ),
    st.tuples(
        st.just(["verify"]),
        st.sampled_from(VERIFY_SUITES).map(lambda s: [s]),
        _option("--suite", st.sampled_from(SUITES + ("all",))),
        *_report_options,
    ),
    st.tuples(st.just(["selftest"]), *_report_options),
).map(lambda parts: [arg for part in parts for arg in part])


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_argv)
def test_random_argv_has_a_defined_outcome(argv):
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in out + err, argv
    if code == 0:
        assert err == "", argv


class TestSelftest:
    def test_deterministic_and_passing(self, capsys):
        code1, out1, _ = invoke(capsys, "selftest", "--max-n", "2")
        code2, out2, _ = invoke(capsys, "selftest", "--max-n", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["errors"] == 0
        assert {r["suite"] for r in doc["reports"]} == {
            "identities", "uv", "integrals/all",
        }

    def test_reports_survive_a_pickle_round_trip(self):
        # The integrals worker sends its report back pickled.
        args = cli.build_parser().parse_args(["selftest", "--max-n", "3"])
        family = build_by_recurrence(3)
        for name in ("identities", "uv", "integrals"):
            report = cli._suite_report(name, args, family)
            copy = pickle.loads(pickle.dumps(report))
            assert copy == report and copy is not report
            assert copy.to_json_dict() == report.to_json_dict()

    def test_zero_max_passes(self, capsys):
        code, out, err = invoke(capsys, "selftest", "--max-n", "0")
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["summary"]["total"] > 0
        assert doc["summary"]["failed"] == doc["summary"]["errors"] == 0
        counts = {r["suite"]: len(r["checks"]) for r in doc["reports"]}
        assert counts["uv"] == 0
        assert counts["identities"] > 0


class TestByteStability:
    # SHA-256 of the stdout of the exact suites; exact output does not
    # depend on the platform.  At n = 24 the shifted and composed
    # coefficients are big integers.
    @pytest.mark.parametrize(
        "suite, digest, max_n",
        [
            ("identities",
             "614ae3fb82c6a844feacc567fb3bfc68e4923ef11bfd0af46a6a3e12ee524308", "8"),
            ("uv",
             "4e93a784930527489b174c006332882f7ef7cfd16811386d595c45875c7fb9bd", "8"),
            ("identities",
             "4b6f57f79b0c657dbaa97b501f1c0f332976f2a00f603d7851ac243b7e0c98df", "24"),
            ("identities",
             "be047ff19dee3ae600e309cbc2f3f5470a2d732098ccb36bceca49eaed464dfb", "48"),
            ("uv",
             "bf3d25cc6fe7cfad126d10013bd853bbfc83fe433a199d78437f1a84bfcc542e", "48"),
            ("identities",
             "3aa78141f5251cb06be203ee302ed066b47426707643bfc7d6db178383c033d8", "96"),
        ],
    )
    def test_exact_report_digest(self, capsys, suite, digest, max_n):
        code, out, _ = invoke(
            capsys, "verify", suite, "--max-n", max_n, "--format", "json"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "509d9aa928e7d18fac7ada64e8534aaf11693319ff3fb49dfb022ab4b48f6501"),
        ("csv", "682895a91e13ad51a05c58b411a6406b4cd18b85409af763ee0f3d84228f9c99"),
    ])
    def test_uv_table_digest(self, capsys, fmt, digest):
        # SHA-256 of the u/v tables up to N = 120, whose largest entries
        # have numerators of 150 digits.
        code, out, err = invoke(capsys, "coeffs", "uv", "--max-n", "120", "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "0fd38aca018f0a476cbd5f76bbff26e66f922403602afc41ea0af7fc62458ebb"),
        ("csv", "a40552f41945931db2bd3b22d8f58c56505ddfe5b529dc48406f6f5500731c36"),
    ])
    def test_selftest_digest(self, capsys, fmt, digest):
        # selftest --max-n 48 is its exact reports and summary, pinned here
        # by SHA-256, then its integrals report.  The integral error metrics
        # are rounding-level floats whose last digits depend on the BLAS
        # kernel (OpenBLAS's Haswell and SkylakeX kernels print different
        # ones), so that report is pinned to the serial `verify integrals`
        # output of this process instead.
        code, out, err = invoke(capsys, "selftest", "--max-n", "48", "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            doc = json.loads(out)
            integrals = canonical_json(doc["reports"].pop()) + "\n"
            exact = canonical_json(doc)
        else:
            lines = out.splitlines(keepends=True)
            integrals = "".join(x for x in lines if x.startswith("integrals/"))
            exact = "".join(x for x in lines if not x.startswith("integrals/"))
        assert hashlib.sha256(exact.encode()).hexdigest() == digest
        serial = invoke(capsys, "verify", "integrals", "--max-n", "48", "--format", fmt)
        assert serial == (0, integrals, "")

    def test_latex_digest(self, capsys):
        # SHA-256 of the LaTeX of A_n then C_n, n = 0..64, recurrence route.
        # The range covers both layouts: A_60 and C_60 render as per-term
        # fractions, every other polynomial over one common denominator.
        digest = hashlib.sha256()
        for family in ("a", "c"):
            for n in range(65):
                code, out, _ = invoke(
                    capsys, "poly", "--family", family, "--n", str(n),
                    "--format", "latex",
                )
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "b218dc0fe7919ec5cae6002610724754c39f651feec56f4804b65665ee844867")

    def test_selftest_csv_joins_verify_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "selftest", "--max-n", "4", "--format", "csv"
        )
        assert code == 0
        parts = [
            invoke(capsys, "verify", suite, "--max-n", "4", "--format", "csv")[1]
            for suite in ("identities", "uv", "integrals")
        ]
        assert out == "\n".join(part.removesuffix("\n") for part in parts) + "\n"
