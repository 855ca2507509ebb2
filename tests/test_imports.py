"""numpy is loaded only by the floating-point suites.

Each case runs in a fresh interpreter, because a module imported once
stays in ``sys.modules`` for the rest of the test process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from acpolys.cli import ALL_ROUTES

ROOT = Path(__file__).resolve().parent.parent

# Runs ``cli.run(argv)`` (if argv is given) with its output discarded, then
# prints whether numpy was loaded.
RUN_CLI = """
import contextlib, io, sys
from acpolys import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(sys.argv[1:])
    if code:
        sys.exit(f"exit code {code}")
print("numpy" in sys.modules)
"""


def fresh_python(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
    )


def numpy_loaded(*argv) -> bool:
    result = fresh_python("-c", RUN_CLI, *argv)
    assert result.returncode == 0, result.stderr
    return {"True\n": True, "False\n": False}[result.stdout]


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


@pytest.mark.parametrize("argv", EXACT_REQUESTS, ids=" ".join)
def test_exact_requests_do_not_load_numpy(argv):
    assert numpy_loaded(*argv) is False


def test_integrals_load_numpy():
    assert numpy_loaded("verify", "integrals", "--suite", "classical") is True


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
