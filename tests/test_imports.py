"""numpy is loaded only by the floating-point suites, and the CLI runs
its BLAS on one thread.  Importing the CLI loads neither ``dataclasses``
nor ``inspect``, which would import ``ast``, ``dis`` and ``tokenize`` too.

Each case runs in a fresh interpreter, because a module imported once
stays in ``sys.modules`` for the rest of the test process, and numpy reads
``OPENBLAS_NUM_THREADS`` only when it is first imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from acpolys.cli import ALL_ROUTES
from subprocess_env import subprocess_env

# Runs ``cli.run(argv)`` (if argv is given) with its output discarded, then
# prints whether numpy was loaded and, where /proc/self/status exists, the
# number of threads the process has.
RUN_CLI = """
import contextlib, io, os, sys
from acpolys import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(sys.argv[1:])
    if code:
        sys.exit(f"exit code {code}")
print("numpy" in sys.modules)
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("Threads:")))
"""


def fresh_python(*args, **extra_env) -> subprocess.CompletedProcess:
    """Runs ``python ARGS`` with acpolys importable, without the caller's
    OPENBLAS_NUM_THREADS, and with ``extra_env`` set."""
    env = subprocess_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(extra_env)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
    )


def run_cli(*argv, **extra_env) -> list:
    """The lines RUN_CLI prints for ``argv``, in a fresh interpreter."""
    result = fresh_python("-c", RUN_CLI, *argv, **extra_env)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def numpy_loaded(*argv) -> bool:
    return {"True": True, "False": False}[run_cli(*argv)[0]]


def cli_threads(*argv, **extra_env) -> int:
    return int(run_cli(*argv, **extra_env)[1])


EXACT_REQUESTS = [
    (),
    *(("poly", "--family", "a", "--n", "6", "--route", route, "--format", fmt)
      for route in ALL_ROUTES for fmt in ("json", "csv", "latex")),
    *(("numbers", "--kind", kind, "--max-n", "12")
      for kind in ("bernoulli", "cosecant", "tangent")),
    ("coeffs", "alpha-lambda", "--max-n", "6"),
    ("coeffs", "uv", "--max-n", "6"),
    ("verify", "identities", "--max-n", "6"),
    ("verify", "uv", "--max-n", "6"),
]


def test_importing_the_cli_loads_no_dataclasses_inspect_or_numpy():
    result = fresh_python("-c", """
import sys
import acpolys.cli
print(sorted({"dataclasses", "inspect", "numpy"} & set(sys.modules)))
""")
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("argv", EXACT_REQUESTS, ids=" ".join)
def test_exact_requests_do_not_load_numpy(argv):
    assert numpy_loaded(*argv) is False


def test_selftest_parent_does_not_load_numpy():
    # selftest runs its integral suites in a forked worker, which loads numpy.
    assert numpy_loaded("selftest", "--max-n", "3") is False


def test_integrals_load_numpy():
    assert numpy_loaded("verify", "integrals", "--suite", "classical") is True


def test_grids_do_not_load_numpy_polynomial():
    # The Gauss panel rule is built by Newton's method, not by leggauss.
    result = fresh_python("-c", """
import contextlib, io, sys
import numpy
print("numpy.polynomial" in sys.modules)
from acpolys import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["verify", "integrals", "--suite", "eigen"])
print(code, "numpy.polynomial" in sys.modules)
""")
    assert result.returncode == 0, result.stderr
    with_numpy, after_eigen = result.stdout.splitlines()
    if with_numpy == "True":
        pytest.skip("this numpy imports numpy.polynomial with numpy itself")
    assert after_eigen == "0 False"


def test_integrals_report_resolves_lazily():
    result = fresh_python("-c", """
import sys
import acpolys
assert "numpy" not in sys.modules
from acpolys import integrals_report
from acpolys.operator_lab import integrals_report as original
assert integrals_report is original is acpolys.integrals_report
namespace = {}
exec("from acpolys import *", namespace)
assert namespace["integrals_report"] is original
""")
    assert result.returncode == 0, result.stderr


def test_unknown_attribute_raises():
    result = fresh_python("-c", """
import acpolys
try:
    acpolys.nope
except AttributeError as exc:
    assert "nope" in str(exc)
else:
    raise SystemExit("acpolys.nope resolved")
""")
    assert result.returncode == 0, result.stderr


needs_proc_status = pytest.mark.skipif(
    not Path("/proc/self/status").is_file(), reason="no /proc/self/status"
)


@needs_proc_status
@pytest.mark.parametrize("argv", [
    ("verify", "integrals", "--suite", "classical"),
    # selftest loads numpy only in its forked integrals worker, so this case
    # counts the threads of the parent, which never loads numpy.
    ("selftest", "--max-n", "3"),
], ids=" ".join)
def test_float_requests_run_blas_on_one_thread(argv):
    assert cli_threads(*argv) == 1


@needs_proc_status
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_an_explicit_openblas_thread_count_wins():
    assert cli_threads("verify", "integrals", "--suite", "classical",
                       OPENBLAS_NUM_THREADS="2") == 2


@pytest.mark.parametrize("load", [
    "import acpolys.operator_lab",
    "import acpolys; acpolys.integrals_report",
])
def test_library_imports_leave_blas_threading_alone(load):
    result = fresh_python("-c", f"""
import os, sys
{load}
assert "numpy" in sys.modules
assert "OPENBLAS_NUM_THREADS" not in os.environ
""")
    assert result.returncode == 0, result.stderr
