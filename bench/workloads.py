"""Seeded generators for the benchmark workloads.

Each generator turns a seed into a fixed list of ops. An op is a
``(kind, argv)`` pair; ``argv`` is exactly what ``collatz_zigzag.cli.main``
receives, and the program sees nothing else of the seed.

Sizes that decide an op's cost are drawn from a Kronecker (additive
recurrence) sequence started at a seeded offset, not drawn independently.
Every prefix of such a sequence covers its range evenly, so the mix of
cheap and expensive ops in a run is nearly the same for every seed and for
every run length. Independent draws would let one seed's run hold twice as
many large ops as another's and move the throughput by more than a
regression bound. Details that do not decide the cost, such as the run
lengths inside a long zigzag pattern or the start of a walk, come from a
plain ``random.Random(seed)``.

The first op of every list is the workload's largest: the worker runs it
while warming up, so the peak RSS of every run includes the workload's
worst case instead of depending on which large ops a run reached.
"""

from __future__ import annotations

import itertools
import random

#: Ops in one workload list. The timed loop cycles through the list, so a
#: faster program repeats ops rather than running out of them.
LIST_LENGTH = {"forge-zigzag": 256, "forge-tall": 256, "walk-small": 512}

#: The seed used when none is given, and a second seed whose answers were
#: recorded but which was not used while the workloads were tuned.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009

#: (p, ell, r) of the maps that ``trace`` ops walk: the Collatz map, the
#: 3x+5 map (which has cycles besides its fixed point), and four expanding
#: members of the family. Only the Collatz map could use a Collatz-only
#: fast path; the other five need the generic step.
TRACE_MAPS = ((2, 2, 1), (2, 2, 5), (3, 1, 1), (3, 2, 2), (5, 1, 3), (2, 3, 1))


def _kronecker(rng: random.Random, dims: int):
    """Points of the R_d low-discrepancy sequence in [0, 1)^dims, started
    at a seeded offset."""
    phi = 2.0
    for _ in range(64):  # phi solves x**(dims+1) == x + 1
        phi = (1 + phi) ** (1 / (dims + 1))
    alphas = [phi ** -(k + 1) for k in range(dims)]
    start = [rng.random() for _ in range(dims)]
    for i in itertools.count():
        yield [(s + i * a) % 1.0 for s, a in zip(start, alphas)]


def _span(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) onto the integers lo..hi inclusive."""
    return lo + int(u * (hi - lo + 1))


def forge_zigzag(seed: int, n: int) -> list[tuple[str, list[str]]]:
    """Forge long patterns of short runs: L in 100..1200 runs of 1..4.

    Why: this is the construction-heavy path. The O(L^2) coprimality check
    in ``ChainSystem``, the congruence sweep and the kernel grow with L,
    and the JSON record holds L multipliers and L+1 boundaries of thousands
    of digits each, so decimal rendering is large too. Verification walks
    only about 2.5 L steps and stays cheap.
    """
    rng = random.Random(seed)
    points = _kronecker(rng, 1)
    ops = []
    for i in range(n):
        (u,) = next(points)
        runs = [rng.randint(1, 4) for _ in range(1200 if i == 0 else _span(u, 100, 1200))]
        ops.append(("forge", ["forge", ",".join(map(str, runs)), "--json"]))
    return ops


def forge_tall(seed: int, n: int) -> list[tuple[str, list[str]]]:
    """Forge short patterns of long runs: 1..6 runs of 300..3000, and every
    twentieth op a single run of 8000..16000.

    Why: this is the verify-heavy path. Exact iteration of a witness with
    thousands of digits costs quadratic big-int work per pattern, while the
    chain system has at most five equations. It is the control on which a
    faster chain solver must change nothing.
    """
    rng = random.Random(seed)
    multi = _kronecker(rng, 2)
    single = _kronecker(rng, 1)
    ops = []
    for i in range(n):
        if i == 0:
            runs = [16000]
        elif i % 20 == 19:
            (u,) = next(single)
            runs = [_span(u, 8000, 16000)]
        else:
            u_count, u_len = next(multi)
            # spread the run lengths of one pattern over the whole range
            runs = [
                _span((u_len + j * 0.6180339887498949) % 1.0, 300, 3000)
                for j in range(_span(u_count, 1, 6))
            ]
        ops.append(("forge", ["forge", ",".join(map(str, runs)), "--json"]))
    return ops


def _all_patterns(min_runs: int, max_runs: int, max_len: int) -> list[str]:
    return [
        ",".join(map(str, runs))
        for k in range(min_runs, max_runs + 1)
        for runs in itertools.product(range(1, max_len + 1), repeat=k)
    ]


#: Six ops in ten are the cheap ``verify``, so the median falls inside
#: their narrow band of latencies rather than between two kinds of op,
#: where it would jump with the mix of a run. The two ``scan`` ops make up
#: the tail, so the 90th percentile falls in the middle of the scan sizes.
_WALK_BLOCK = ("verify", "scan", "verify", "trace", "verify",
               "minimal", "verify", "scan", "verify", "verify")


def walk_small(seed: int, n: int) -> list[tuple[str, list[str]]]:
    """Walker ops on small starting values: scan, minimal, verify, trace.

    Why: the same ``dynamics`` layer as forge-tall, but the cost is
    per-step Python overhead on small ints over many starts, as in the
    range sweeps by which Oliveira e Silva and Barina judge a checker.
    ``scan`` walks its full step budget although only the first run counts;
    ``minimal`` runs its own inline loop and sometimes misses its bound;
    ``verify`` mostly fails (exit 3); ``trace`` uses five generic maps that
    a Collatz-only fast path would bypass.
    """
    rng = random.Random(seed)
    scans = _kronecker(rng, 2)
    minimals = _kronecker(rng, 1)
    traces = _kronecker(rng, 1)
    maps = itertools.cycle(TRACE_MAPS)
    # ordered by pattern, so an evenly spread index spreads hits and misses
    patterns = _all_patterns(4, 7, 3)
    ops = [("trace", ["trace", "7", "--steps", "2000", "--p", "3", "--ell", "2", "--r", "2",
                      "--json"])]
    for i in range(n - 1):
        kind = _WALK_BLOCK[i % len(_WALK_BLOCK)]
        if kind == "scan":
            u_max, u_steps = next(scans)
            argv = ["scan", "--max-m", str(_span(u_max, 2000, 20000)),
                    "--steps", str(_span(u_steps, 10, 60))]
        elif kind == "minimal":
            (u,) = next(minimals)
            pattern = patterns[int(u * len(patterns))]
            argv = ["minimal", pattern, "--bound", "100001"]
        elif kind == "verify":
            runs = [rng.randint(1, 3) for _ in range(rng.randint(2, 6))]
            argv = ["verify", str(2 * rng.randrange(500_000) + 1), ",".join(map(str, runs))]
        else:
            (u,) = next(traces)
            p, ell, r = next(maps)
            m = rng.randrange(1, 100_000)
            while m % p == 0:
                m += 1
            argv = ["trace", str(m), "--steps", str(_span(u, 100, 2000)),
                    "--p", str(p), "--ell", str(ell), "--r", str(r)]
        ops.append((kind, argv + ["--json"]))
    return ops


GENERATORS = {
    "forge-zigzag": forge_zigzag,
    "forge-tall": forge_tall,
    "walk-small": walk_small,
}


def generate(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The op list of a workload for a seed; the same seed gives the same list."""
    return GENERATORS[workload](seed, LIST_LENGTH[workload])
