"""The environment for a test that runs the package in a fresh interpreter."""

import os
from pathlib import Path

import acpolys


def subprocess_env() -> dict:
    """This environment, with the package under test first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(acpolys.__file__).parents[1]), env.get("PYTHONPATH"))))
    return env
