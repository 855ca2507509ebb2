"""Spawns and times benchmark requests from a process that stays small.

    python3 bench/launcher.py STDOUT_PATH STDERR_PATH

Reads one JSON argv list per line on stdin, runs ``python ARGV...`` with its
output sent to the two files, and answers with one JSON line: wall time,
user+sys CPU, max RSS and exit code of that child.

A child's ``ru_maxrss`` also counts the memory its spawning process had
before the child's exec, so children are spawned from here rather than from
``run.py``, whose oracle builds large exact tables.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> int:
    out_path, err_path = sys.argv[1:3]
    for line in sys.stdin:
        argv = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            child = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
            wall = perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "max_rss_kb": usage.ru_maxrss,
            "exit_code": child.returncode,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
