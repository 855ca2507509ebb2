"""Every script under demos/ runs to completion, with warnings as errors."""

import subprocess
import sys
from pathlib import Path

import pytest

from subprocess_env import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(script):
    result = subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
