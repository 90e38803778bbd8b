"""Benchmark of collatz-zigzag: seeded command-line workloads, end to end
and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload forge-zigzag --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seconds 32

A run first measures set-up, the median wall time of fresh interpreters
that import ``collatz_zigzag.cli`` and build its parser. It then starts
``worker.py`` in a fresh interpreter: one client calling ``cli.main`` with
``--json`` in a closed loop, one op at a time, on the ops that
``workloads.py`` generates from the seed. Every op is checked outside the
timed region (``checks.py``).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from a traced pass
(``tracer.py``). It prints human-readable lines, machine facts among them,
and then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Results and spans are also
written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s``, after one that only
#: fills the bytecode cache.
SETUP_RUNS = 9
SETUP_CODE = (
    "import time; t = time.perf_counter(); import collatz_zigzag.cli as cli; "
    "i = time.perf_counter() - t; cli.build_parser(); print(i)"
)
#: A worker that takes longer than this is stopped and the run fails.
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def measure_setup() -> tuple[float, float]:
    """Median wall seconds of a fresh interpreter importing the CLI and
    building its parser, and median milliseconds of the import alone."""
    walls, imports = [], []
    for run in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        wall = time.perf_counter() - start
        if run:
            walls.append(wall)
            imports.append(1e3 * float(done.stdout))
    return statistics.median(walls), statistics.median(imports)


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def git_commit() -> str:
    # the checkout may not be a git repository; read HEAD without git
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(summary: dict, setup_s: float) -> dict[str, tuple[float, str]]:
    latencies = summary["latencies"]
    correct = len(latencies) - summary["timed_failed"]
    return {
        "ops_per_s": (correct / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        # the 90th percentile: 100 or more ops per run leave 10 beyond it
        "op_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (summary["maxrss_kb"] / 1024, "MB"),
    }


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setup_s, import_ms = measure_setup()
    summary = run_worker(workload, seed, seconds, trace)
    if trace:
        metrics = {name: tuple(value) for name, value in summary["layers"].items()}
        metrics["setup.import_ms"] = (import_ms, "ms")
    else:
        metrics = end_to_end(summary, setup_s)
    facts = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "int_max_str_digits": summary["int_max_str_digits"],
        "commit": git_commit(),
    }
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"workload: {workload}  seed: {seed}  seconds: {seconds}  trace: {trace}")
    print(f"machine: {json.dumps(facts)}")
    print(f"timed ops: {len(summary['latencies'])} in {summary['passes']} passes"
          f"  answers: {summary['gate']}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for name in summary.get("absent", []):
        print(f"absent: {name}")
    for problem in summary["problems"]:
        print(f"problem: {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump(dict(result, workload=workload, seed=seed, machine=facts,
                       absent=summary.get("absent", []), problems=summary["problems"]), f, indent=1)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="collatz-zigzag benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "collatz_zigzag", "cli.py")):
        print(f"error: no collatz_zigzag package under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
