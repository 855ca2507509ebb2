"""Record the oracle's reference check lists from the current program.

    python3 bench/record_reference.py

Writes ``bench/reference/selftest-n48-exact.csv`` (every exact-suite line of
``selftest --max-n 48 --format csv``, verbatim) and
``bench/reference/integrals-ids.csv`` (suite, id and status of every
integral check).  The committed files were recorded at the seed commit;
re-record only when a change adds or renames checks on purpose.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from oracle import (EXACT_REFERENCE, INTEGRALS_REFERENCE, INTEGRALS_SUITE,
                    REFERENCE_DIR, csv_rows)
from workloads import SELFTEST_MAX_N

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "acpolys.cli", "selftest",
            "--max-n", str(SELFTEST_MAX_N), "--format", "csv"]
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, check=True)
    lines = done.stdout.rstrip("\n").split("\n")
    rows = csv_rows(done.stdout)
    exact = [line for line, row in zip(lines, rows) if row[0] != INTEGRALS_SUITE]
    integrals = [",".join(f'"{f}"' if "," in f else f for f in row[:3])
                 for row in rows if row[0] == INTEGRALS_SUITE]
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / EXACT_REFERENCE).write_text("\n".join(exact) + "\n")
    (REFERENCE_DIR / INTEGRALS_REFERENCE).write_text("\n".join(integrals) + "\n")
    print(f"{len(exact)} exact lines, {len(integrals)} integral ids")
    return 0


if __name__ == "__main__":
    sys.exit(main())
