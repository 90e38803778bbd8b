"""The measuring process: one client calling ``cli.main`` in a closed loop.

``run.py`` starts this file in a fresh interpreter for every run, so the
peak RSS it reports belongs to the workload alone. It imports the package
from ``src/`` of the checkout, runs the workload's ops one at a time with
stdout captured, checks every op outside the timed region, and prints one
JSON summary line.

With ``--trace 1`` it wraps the package's layers (see ``tracer.py``) and
runs every op twice, back to back, untraced and then traced, so the
tracing overhead is measured on the same work at nearly the same time.

``--record`` runs every op of every workload once for the default and the
held-out seed and writes the answers the correctness gate compares with.
It is meant to be run once, at the commit whose outputs are the reference.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
ANSWERS = os.path.join(HERE, "answers.json")

sys.path.insert(0, SRC)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: Ops run once before timing starts, so first-call costs are not timed.
WARMUP_OPS = 2
#: Untraced runs time every op this many times, in passes over the same
#: ops in the same order, and keep each op's fastest time. On a shared
#: machine other tenants slow all work by 1.3-1.6x in episodes of seconds
#: to minutes; an op timed twice, half a run apart, often has one time
#: outside a short episode.
PASSES = 2


def import_program():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    from collatz_zigzag import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"collatz_zigzag was imported from {cli.__file__}, not {SRC}")
    return cli


def run_op(cli, argv: list[str]) -> tuple[int, str, float]:
    """Call ``cli.main`` once; returns exit code, stdout and seconds taken."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


class Loop:
    """Runs ops of one workload list and checks each of them."""

    def __init__(self, cli, ops, expected):
        self.cli = cli
        self.ops = ops
        self.expected = expected
        self.answers: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_output_bytes = 0

    def run(self, index: int) -> float:
        kind, argv = self.ops[index]
        gc.collect()
        code, out, elapsed = run_op(self.cli, argv)
        self.attempted += 1
        self.last_output_bytes = len(out)
        if index in self.answers:
            # a repeat must give exactly what the checked first run gave
            problems = checks.gate(self.answers[index], code, checks.output_digests(out))
        else:
            expected = None if self.expected is None else self.expected[index]
            digests, problems = checks.check(kind, argv, code, out, expected)
            self.answers[index] = {"exit": code, "fields": digests}
        if problems:
            self.failed += 1
            self.problems += [f"op {index} ({' '.join(argv)[:60]}): {p}" for p in problems]
        return elapsed

    def timed(self, seconds: float) -> list[float]:
        """Latencies of ops run in list order, cycling, until ``seconds`` of
        timed work."""
        latencies: list[float] = []
        while sum(latencies) < seconds:
            latencies.append(self.run(len(latencies) % len(self.ops)))
        return latencies


def load_answers(workload: str, seed: int):
    try:
        with open(ANSWERS) as f:
            return json.load(f).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def measure(loop: Loop, seconds: float) -> dict:
    """Time the ops in passes and keep each op's fastest time."""
    failed_before = loop.failed
    # the first pass sets how many ops the run covers
    passes = [loop.timed(seconds / PASSES)]
    for _ in range(PASSES - 1):
        passes.append([loop.run(i % len(loop.ops)) for i in range(len(passes[0]))])
    return {
        "latencies": [min(times) for times in zip(*passes)],
        "passes": PASSES,
        "timed_failed": loop.failed - failed_before,
    }


def measure_traced(loop: Loop, seconds: float, workload: str, seed: int) -> dict:
    """Run each op untraced and then traced, back to back, so the tracing
    overhead is measured on the same ops at nearly the same time."""
    tracer = tracing.Tracer()
    modules = {
        name.rpartition(".")[2]: module
        for name, module in list(sys.modules.items())
        if name == "collatz_zigzag" or name.startswith("collatz_zigzag.")
    }
    absent, patches = tracing.install(tracer, modules)
    untraced, traced, output_bytes = [], [], 0
    while sum(untraced) + sum(traced) < seconds:
        index = len(traced) % len(loop.ops)
        tracing.set_traced(patches, False)
        untraced.append(loop.run(index))
        tracing.set_traced(patches, True)
        tracer.op, tracer.op_kind = len(traced), loop.ops[index][0]
        traced.append(loop.run(index))
        output_bytes += loop.last_output_bytes
    tracing.set_traced(patches, False)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl"))
    metrics = tracing.layer_metrics(tracer, len(traced), sum(traced), sum(untraced), output_bytes)
    return {"latencies": untraced, "passes": 1, "layers": metrics, "absent": absent}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = import_program()
    expected = load_answers(workload, seed)
    loop = Loop(cli, workloads.generate(workload, seed), expected)
    for index in range(WARMUP_OPS):
        loop.run(index)
    if trace:
        summary = measure_traced(loop, seconds, workload, seed)
    else:
        summary = measure(loop, seconds)
    summary.update(
        gate="unchecked" if expected is None else "checked",
        int_max_str_digits=sys.get_int_max_str_digits(),
        attempted=loop.attempted,
        failed=loop.failed,
        problems=loop.problems[:10],
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return summary


def record() -> None:
    """Write the answers of every op for the default and held-out seeds."""
    cli = import_program()
    answers: dict = {}
    for workload in workloads.GENERATORS:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            rows = []
            for kind, argv in workloads.generate(workload, seed):
                code, out, _ = run_op(cli, argv)
                digests, problems = checks.check(kind, argv, code, out, None)
                if problems:
                    raise SystemExit(f"{workload} seed {seed} {argv[:2]}: {problems}")
                rows.append({"exit": code, "fields": digests})
            answers.setdefault(workload, {})[str(seed)] = rows
            print(f"recorded {workload} seed {seed}: {len(rows)} ops", file=sys.stderr)
    with open(ANSWERS, "w") as f:
        json.dump(answers, f, separators=(",", ":"), sort_keys=True)
        f.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
