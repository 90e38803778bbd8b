"""Spans around the package's public functions, recorded from outside it.

Each traced function is replaced, at every module attribute through which
callers look it up (``cli.forge``, ``forge.verify_pattern``, ...), by a
wrapper that records a span: name, start, end, parent span and op id. The
package itself is not changed. Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child
spans; on one thread children nest inside their parent, so that is the
time the children cover. Counts that a layer reports (steps, bits,
candidates) are read from arguments and return values after the span
closes, inside a ``trace.counters`` span of their own, so their cost is
charged to the tracer and not to the layer.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter, defaultdict

#: The functions traced, by the module that defines them. The per-step
#: ``step`` and ``collatz`` are left out on purpose: a span per step would
#: cost more than the step and swamp the measurement.
TARGETS = {
    "patterns": ("parse_pattern",),
    "chains": ("solve_odd_positive", "particular_solution", "kernel_primitive",
               "odd_positive_lift"),
    "forge": ("forge", "build_system", "segment_boundaries", "minimal_witness"),
    "dynamics": ("verify_pattern", "trajectory", "extract_pattern"),
    "cli": ("main",),
}

COUNTERS = "trace.counters"


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.op = -1
        self.op_kind = ""
        self.sums: Counter = Counter()
        self.max_bits = 0

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(math.nan)
        self.stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds, by span name."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - covered[i]
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(self.names)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "op": self.ops[i],
                }) + "\n")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_build_system(t, args, kwargs, system):
    t.sums["modulus_bits"] += math.prod(system.coeff_b).bit_length()


def _count_kernel(t, args, kwargs, kernel):
    t.sums["kernel_bits"] += max(v.bit_length() for v in kernel.entries)


def _count_solve(t, args, kwargs, certificate):
    t.sums["lift_shift_bits"] += certificate.shift.bit_length()


def _count_forge(t, args, kwargs, witness):
    t.sums["witness_bits"] += witness.m.bit_length()


def _count_minimal(t, args, kwargs, found):
    # odd m are tried in ascending order up to the first hit or the bound
    bound = int(_arg(args, kwargs, 1, "bound"))
    t.sums["candidates"] += (bound + 1) // 2 if found is None else (found + 1) // 2
    t.sums["hits"] += found is not None


def _count_verify(t, args, kwargs, result):
    pattern = _arg(args, kwargs, 2, "pattern")
    t.sums["verify_steps"] += sum(pattern.runs) if result.ok else result.failure_index + 1
    m = int(_arg(args, kwargs, 1, "m"))
    t.max_bits = max(t.max_bits, m.bit_length())


def _count_trajectory(t, args, kwargs, trajectory):
    t.sums["trajectory_steps"] += len(trajectory.exponents)
    t.max_bits = max(t.max_bits, max(trajectory.values).bit_length())


def _count_extract(t, args, kwargs, rle):
    # scan keys on the first run only; the rest of each walk is wasted
    if t.op_kind == "scan":
        t.sums["scan_useful_steps"] += rle.runs[0] if rle.runs else 0
        t.sums["scan_walked_steps"] += sum(rle.runs)


COUNTS = {
    "forge.build_system": _count_build_system,
    "chains.kernel_primitive": _count_kernel,
    "chains.solve_odd_positive": _count_solve,
    "forge.forge": _count_forge,
    "forge.minimal_witness": _count_minimal,
    "dynamics.verify_pattern": _count_verify,
    "dynamics.trajectory": _count_trajectory,
    "dynamics.extract_pattern": _count_extract,
}


def _wrap(tracer: Tracer, name: str, function, count):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:
            index = tracer.open(COUNTERS)
            try:
                count(tracer, args, kwargs, result)
            finally:
                tracer.close(index)
        return result

    return traced


def install(tracer: Tracer, modules: dict) -> tuple[list[str], list[tuple]]:
    """Wrap every target function found in ``modules`` (short module name
    to module). Returns the names of the targets that are absent, and the
    applied patches for ``set_traced``."""
    absent, patches = [], []
    for layer, functions in TARGETS.items():
        for function_name in functions:
            name = f"{layer}.{function_name}"
            original = getattr(modules.get(layer), function_name, None)
            if not callable(original):
                absent.append(name)
                continue
            traced = _wrap(tracer, name, original, COUNTS.get(name))
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original, traced))
    set_traced(patches, True)
    return absent, patches


def set_traced(patches: list[tuple], traced: bool) -> None:
    """Put the wrappers in place, or the original functions back."""
    for module, attr, original, wrapper in patches:
        setattr(module, attr, wrapper if traced else original)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, traced_s: float, untraced_s: float,
                  output_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced pass over ``n_ops`` ops.

    ``traced_s`` and ``untraced_s`` are the harness's times for the same
    ops with and without tracing. Self times and counts are per op.
    """
    self_s = tracer.self_times()
    calls = tracer.calls()
    sums = tracer.sums
    metrics: dict[str, tuple[float, str]] = {}
    for layer, functions in TARGETS.items():
        for function_name in functions:
            name = f"{layer}.{function_name}"
            metrics[f"{name}.self_ms"] = (1e3 * self_s.get(name, 0.0) / n_ops, "ms/op")
    for name in ("patterns.parse_pattern", "forge.forge"):
        metrics[f"{name}.calls"] = (calls[name] / n_ops, "calls/op")
    metrics["chains.modulus_bits"] = (_ratio(sums["modulus_bits"], calls["forge.build_system"]), "bits")
    metrics["chains.kernel_bits"] = (_ratio(sums["kernel_bits"], calls["chains.kernel_primitive"]), "bits")
    metrics["chains.lift_shift_bits"] = (
        _ratio(sums["lift_shift_bits"], calls["chains.solve_odd_positive"]), "bits")
    metrics["forge.witness_bits"] = (_ratio(sums["witness_bits"], calls["forge.forge"]), "bits")
    metrics["forge.minimal_witness.candidates"] = (sums["candidates"] / n_ops, "m/op")
    metrics["forge.minimal_witness.hit_ratio"] = (
        _ratio(sums["hits"], calls["forge.minimal_witness"]), "ratio")
    metrics["dynamics.verify_pattern.steps"] = (sums["verify_steps"] / n_ops, "steps/op")
    metrics["dynamics.trajectory.steps"] = (sums["trajectory_steps"] / n_ops, "steps/op")
    dynamics_s = sum(self_s.get(f"dynamics.{f}", 0.0) for f in TARGETS["dynamics"])
    steps = sums["verify_steps"] + sums["trajectory_steps"]
    metrics["dynamics.ns_per_step"] = (_ratio(1e9 * dynamics_s, steps), "ns/step")
    metrics["dynamics.max_bits"] = (float(tracer.max_bits), "bits")
    metrics["dynamics.scan_useful_step_ratio"] = (
        _ratio(sums["scan_useful_steps"], sums["scan_walked_steps"]), "ratio")
    metrics["cli.output_bytes"] = (output_bytes / n_ops, "bytes/op")
    layers_s = sum(s for name, s in self_s.items() if name != COUNTERS)
    metrics["trace.overhead_frac"] = (1 - _ratio(untraced_s, traced_s), "fraction")
    metrics["trace.remainder_frac"] = (_ratio(traced_s - layers_s, traced_s), "fraction")
    return metrics
