"""End-to-end and per-layer benchmark of the acpolys CLI.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is one of selftest-n48, tables-emit, operator-grid, or ``all``.

``--trace 0`` runs the workload's seeded requests as real CLI requests: one
fresh ``python -m acpolys.cli`` process per request, in a closed loop with
one client, until the requests have taken S seconds.  It reports the
end-to-end metrics.  ``--trace 1`` runs the same requests in-process through
``acpolys.cli.run``, once with span recording and once without, and reports
the per-layer metrics and the tracing overhead.  Every output is checked by
the workload's oracle outside the timed region (``oracle.py``).

Human-readable lines come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, where
``metrics`` holds exactly the end-to-end (trace 0) or per-layer (trace 1)
metrics named in BENCHMARK.json.  The full result, with provenance and every
request, is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from oracle import Oracle, Tally, self_check
from tracing import LAYER_GROUPS, Tracer, install
from workloads import WORKLOADS, requests

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 21
IMPORTTIME_SAMPLES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
REPORT_WORKLOADS = ("selftest-n48", "operator-grid")

# The end-to-end metrics.  BENCHMARK.json gates the five that every workload
# has; latency_tail_s needs enough requests, checks_per_s exists only for
# report workloads, and error_rate is 0 when all is well.  latency_mean_s
# (total request wall time / requests) stands in for the tail on every
# workload: large tables move it where they barely move the median.
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_mean_s": "s",
    "latency_tail_s": "s",
    "cpu_p50_s": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Launcher:
    """The small helper process (``launcher.py``) that spawns every request."""

    def __init__(self):
        OUT.mkdir(exist_ok=True)
        self._out, self._err = OUT / "request.out", OUT / "request.err"
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py")),
             str(self._out), str(self._err)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()  # the launcher exits once its current request ends

    def spawn(self, argv) -> tuple:
        """Run ``python ARGV`` to completion: (wall s, user+sys CPU s,
        max RSS KiB, exit code, stdout text, stderr text)."""
        self._proc.stdin.write(json.dumps(list(argv)) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the request launcher exited")
        done = json.loads(line)
        return (done["wall_s"], done["cpu_s"], done["max_rss_kb"], done["exit_code"],
                self._out.read_text(), self._err.read_text())


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_latency(walls) -> dict | None:
    """The highest percentile that still has at least TAIL_MIN_BEYOND
    samples above it, or None when the run is too short for one."""
    for pct in TAIL_PERCENTILES:
        value = percentile(walls, pct)
        beyond = sum(1 for w in walls if w > value)
        if beyond >= TAIL_MIN_BEYOND:
            return {"value": value, "percentile": pct, "beyond": beyond}
    return None


def keep_going(busy: float, walls: list, seconds: float) -> bool:
    """Start another request if it is expected to end nearer the deadline
    than stopping now would."""
    return not walls or busy + statistics.median(walls) / 2 <= seconds


# -- untraced: real CLI requests ----------------------------------------------


class SetupSampler:
    """Times fresh ``import acpolys.cli`` processes, spread through a run:
    before each request, as many as are due for the share of ``seconds``
    spent so far, so that SETUP_SAMPLES are taken over the whole run rather
    than in one burst that a passing slowdown of the host could decide."""

    ARGV = ("-c", "import acpolys.cli")

    def __init__(self, launcher: Launcher, seconds: float):
        self._launcher, self._seconds = launcher, seconds
        self._launcher.spawn(self.ARGV)  # compiles bytecode on a fresh checkout; not timed
        self.walls = []

    def catch_up(self, busy: float):
        due = min(SETUP_SAMPLES, -(-SETUP_SAMPLES * busy // self._seconds))
        while len(self.walls) < max(1, due):
            wall, _, _, code, _, err = self._launcher.spawn(self.ARGV)
            if code != 0:
                raise RuntimeError(f"import acpolys.cli failed: {err.strip()}")
            self.walls.append(wall)


def run_untraced(workload: str, seed: int, seconds: float, oracle: Oracle,
                 launcher: Launcher) -> dict:
    setup = SetupSampler(launcher, seconds)
    tally = Tally(oracle)
    samples, walls, busy = [], [], 0.0
    self_check_ok = None
    for request in requests(workload, seed):
        if not keep_going(busy, walls, seconds):
            break
        setup.catch_up(busy)
        wall, cpu, rss_kb, code, output, err = launcher.spawn(
            ["-m", "acpolys.cli", *request.argv])
        verdict = tally.record(request, code, output)
        if self_check_ok is None:
            self_check_ok = self_check(oracle, request, output)
        samples.append({
            "request": request.label(), "wall_s": wall, "cpu_s": cpu,
            "max_rss_kb": rss_kb, "exit_code": code, "ok": verdict.ok,
            "checks": verdict.checks, "passed": verdict.passed,
            "output_bytes": len(output.encode()),
            **({"stderr": err.strip()[-500:]} if code else {}),
        })
        walls.append(wall)
        busy += wall
    setup.catch_up(seconds)

    metrics = {
        "setup_s": statistics.median(setup.walls),
        "latency_p50_s": statistics.median(walls),
        "latency_mean_s": busy / len(walls),
        "cpu_p50_s": statistics.median(s["cpu_s"] for s in samples),
        "peak_rss_mb": max(s["max_rss_kb"] for s in samples) / 1024,
        "error_rate": tally.failed / tally.attempted,
    }
    tail = tail_latency(walls)
    if tail:
        metrics["latency_tail_s"] = tail["value"]
    if workload in REPORT_WORKLOADS:
        metrics["checks_per_s"] = sum(s["passed"] for s in samples) / busy
    return {
        "metrics": metrics,
        "samples_behind": {
            "setup_s": len(setup.walls), "latency_p50_s": len(walls),
            "latency_mean_s": len(walls),
            "cpu_p50_s": len(samples), "peak_rss_mb": len(samples),
            **({"latency_tail_s": len(walls)} if tail else {}),
        },
        "latency_tail": tail,
        "setup_samples_s": setup.walls,
        "requests": samples,
        "tally": tally,
        "self_check_ok": bool(self_check_ok),
    }


# -- traced: in-process spans --------------------------------------------------


def import_times(launcher: Launcher) -> tuple:
    """(acpolys import s, numpy import s) from ``-X importtime``, medians."""
    acpolys_s, numpy_s = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        _, _, _, code, _, err = launcher.spawn(
            ["-X", "importtime", "-c", "import acpolys.cli"])
        if code != 0:
            raise RuntimeError("import acpolys.cli failed under -X importtime")
        total, numpy = 0, None
        for line in err.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line.split("|")
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            module = name.strip()
            if depth == 0 and module.split(".")[0] == "acpolys":
                total += int(cumulative)
            if module == "numpy" and numpy is None:
                numpy = int(cumulative)
        acpolys_s.append(total / 1e6)
        numpy_s.append((numpy or 0) / 1e6)
    return statistics.median(acpolys_s), statistics.median(numpy_s)


def run_in_process(argv) -> tuple:
    """(exit code, stdout) of ``acpolys.cli.run(argv)``.  An exception that
    escapes the CLI counts as exit code 1, as it would for a process."""
    cli = importlib.import_module("acpolys.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, buf.getvalue()


def run_traced(workload: str, seed: int, seconds: float, oracle: Oracle,
               launcher: Launcher) -> dict:
    import_s, import_numpy_s = import_times(launcher)
    tracer = Tracer()
    tally = Tally(oracle)
    timed = {False: 0.0, True: 0.0}
    pair_walls, output_bytes, checks, passed = [], 0, 0, 0
    self_check_ok = None
    for index, request in enumerate(requests(workload, seed)):
        if not keep_going(sum(timed.values()), pair_walls, seconds):
            break
        pair = 0.0
        # Alternate which pass goes first, so neither gains from going second.
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            uninstall = install(tracer) if traced else None
            tracer.request = index
            start = perf_counter()
            try:
                code, output = run_in_process(request.argv)
            finally:
                wall = perf_counter() - start
                if uninstall:
                    uninstall()
            timed[traced] += wall
            pair += wall
            verdict = tally.record(request, code, output)
            if self_check_ok is None:
                self_check_ok = self_check(oracle, request, output)
            if traced:
                output_bytes += len(output.encode())
                checks += verdict.checks
                passed += verdict.passed
        pair_walls.append(pair)

    n = len(pair_walls)
    totals = tracer.totals()
    metrics = {
        "cli.import_s": import_s,
        "cli.import_numpy_s": import_numpy_s,
        "cli.output_bytes": output_bytes / n,
        "report.checks": checks / n,
        "report.passed": passed / n,
        "trace.overhead_ratio": timed[True] / timed[False],
    }
    for group in LAYER_GROUPS:
        stats = totals.get(group, {"s": 0.0, "calls": 0})
        metrics[f"{group}.s"] = stats["s"] / n
        metrics[f"{group}.calls"] = stats["calls"] / n
    for counter in ("operator_lab.quadrature.evaluations",
                    "operator_lab.nystrom.kernel_bytes"):
        metrics[counter] = tracer.counters.get(counter, 0.0) / n
    for module, own in tracer.module_self_times().items():
        metrics[f"{module}.self_s"] = own / n
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.csv"
    tracer.write_spans(spans_path)
    return {
        "metrics": metrics,
        "requests_traced": n,
        "spans": len(tracer.names),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "traced_s": timed[True],
        "untraced_s": timed[False],
        "kernel_bytes_note": "computed as sum of 8*G^2 per Nystrom apply, not measured",
        "tally": tally,
        "self_check_ok": bool(self_check_ok),
    }


# -- provenance ------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    with contextlib.suppress(OSError):
        # The ceiling keeps git from reporting an enclosing repository.
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if done.returncode == 0:
            return done.stdout.strip()
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_info() -> dict:
    import ctypes

    import numpy

    info = {"numpy": numpy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["threads_env"] = {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    info["blas_threads"] = None
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        **blas_info(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "client": "closed loop, 1 client",
    }


# -- reporting -------------------------------------------------------------------


def declared_metrics() -> tuple:
    """(end_to_end, per_layer) name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 oracle: Oracle, launcher: Launcher, declared: dict) -> dict:
    result = (run_traced if trace else run_untraced)(
        workload, seed, seconds, oracle, launcher)
    tally = result.pop("tally")
    result.update(workload=workload, trace=int(trace), seconds=seconds,
                  attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures[:20], provenance=provenance(seed))
    result["correct"] = tally.failed == 0 and result["self_check_ok"]
    metrics = result["metrics"]

    print(f"== {workload}  seed={seed}  trace={int(trace)}  "
          f"attempted={tally.attempted}  failed={tally.failed}")
    if trace:
        print(f"   tracing overhead: {result['traced_s']:.3f} s traced vs "
              f"{result['untraced_s']:.3f} s untraced "
              f"({result['requests_traced']} requests, {result['spans']} spans)")
        for name in sorted(metrics):
            print(f"   {name:48s} {metrics[name]:.6g}")
    else:
        notes = {
            "latency_tail_s": (f"p{result['latency_tail']['percentile']:g}, "
                               f"{result['latency_tail']['beyond']} beyond"
                               if result["latency_tail"] else
                               f"n/a: {len(result['requests'])} requests, "
                               f"needs {TAIL_MIN_BEYOND} beyond a percentile"),
            "checks_per_s": (None if workload in REPORT_WORKLOADS else
                             "n/a: no verification checks in this workload"),
            "error_rate": f"{tally.failed} failed of {tally.attempted}",
        }
        for name, unit in E2E_UNITS.items():
            value = metrics.get(name)
            shown = "n/a" if value is None else f"{value:.6g}"
            behind = result["samples_behind"].get(name)
            note = notes.get(name) or (f"{behind} samples" if behind else "")
            print(f"   {name:16s} {shown:>12s} {unit:6s} {note}")
    print(f"   self-check (corrupted output counted as failed): "
          f"{'ok' if result['self_check_ok'] else 'FAILED'}")
    for failure in tally.failures[:5]:
        print(f"   FAILED {failure['request']}: {failure['reason']}")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    print(f"   result: {path.relative_to(ROOT)}")
    result["reported"] = {name: {"value": metrics[name], "unit": unit}
                          for name, unit in declared.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "acpolys" / "cli.py").is_file():
        print(f"bench: no acpolys sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the oracle and the traced run import acpolys
    end_to_end, per_layer = declared_metrics()
    declared = per_layer if args.trace else end_to_end
    oracle = Oracle()
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    with Launcher() as launcher:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace),
                                oracle, launcher, declared) for w in chosen]
    if len(results) == 1:
        metrics = results[0]["reported"]
    else:
        metrics = {f"{r['workload']}/{name}": value
                   for r in results for name, value in r["reported"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
