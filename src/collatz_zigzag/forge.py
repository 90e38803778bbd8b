"""Construct odd integers realizing a prescribed Collatz rise/fall pattern.

Each run of the pattern corresponds to a closed-form family: a run of v
rises starts at 2 * 2**v * w - 1 and ends at 2 * 3**v * w - 1, a run of v
falls starts at 2 * 4**v * w + 1 and ends at 2 * 3**v * w + 1, with an odd
multiplier w per run.  Gluing the end of one run to the start of the next
yields one linear equation per junction:

    3**v[i] * w[i] - 4**v[i+1] * w[i+1] = +1   (next run falls)
    3**v[i] * w[i] - 2**v[i+1] * w[i+1] = -1   (next run rises)

which is a bidiagonal chain system with odd right-hand sides.  The chain
solver always produces an all-odd all-positive multiplier vector, so every
finite pattern has a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .chains import ChainSystem, SolutionCertificate, solve_odd_positive
from .dynamics import COLLATZ, _verify_collatz, verify_pattern
from .patterns import Pattern, as_pattern


class InternalVerificationError(RuntimeError):
    """A forged witness failed its own trajectory check.

    This signals a defect in the solver, never bad user input.
    """


@dataclass(frozen=True)
class Witness:
    """An odd integer m realizing a pattern, with its run multipliers.

    ``w[i]`` is the odd multiplier of run i; ``m == 2 * 2**runs[0] * w[0] - 1``.
    ``certificate`` carries the underlying chain-system solution and is None
    for single-run patterns, which need no system.
    """

    m: int
    w: tuple[int, ...]
    pattern: Pattern
    certificate: Optional[SolutionCertificate]
    verified: bool


def build_system(pattern: Pattern) -> ChainSystem:
    """The junction equations of a pattern as a chain system.

    A pattern with L runs has L multipliers and L-1 junctions.  Equation i
    carries 3**runs[i] on the diagonal; the superdiagonal magnitude is
    4**runs[i+1] when run i+1 falls (even-indexed equation, counting from 0)
    and 2**runs[i+1] when it rises; right-hand sides alternate +1, -1, ...
    """
    pattern = as_pattern(pattern)
    runs = pattern.runs
    if len(runs) < 2:
        raise ValueError("a pattern with a single run has no junction system")
    coeff_a = tuple(3 ** runs[i] for i in range(len(runs) - 1))
    coeff_b = tuple(
        (4 if i % 2 == 0 else 2) ** runs[i + 1] for i in range(len(runs) - 1)
    )
    rhs = tuple(1 if i % 2 == 0 else -1 for i in range(len(runs) - 1))
    return ChainSystem(coeff_a=coeff_a, coeff_b=coeff_b, rhs=rhs)


def forge(pattern: Pattern) -> Witness:
    """An odd integer whose Collatz trajectory follows the pattern exactly.

    Deterministic: the multipliers come from the chain solver's canonical
    odd-positive solution (single-run patterns take multiplier 1, the
    smallest of their closed-form family).  The witness is re-verified
    exactly by ``verify_pattern`` before being returned; the witness is
    canonical but generally not the smallest possible.
    """
    pattern = as_pattern(pattern)
    runs = pattern.runs
    if len(runs) == 1:
        w: tuple[int, ...] = (1,)
        certificate = None
    else:
        certificate = solve_odd_positive(build_system(pattern))
        w = certificate.lifted
    m = 2 * 2 ** runs[0] * w[0] - 1
    check = verify_pattern(COLLATZ, m, pattern)
    if not check.ok:  # pragma: no cover - would indicate a solver defect
        raise InternalVerificationError(
            f"forged witness {m} fails its pattern at step {check.failure_index}"
        )
    return Witness(m=m, w=w, pattern=pattern, certificate=certificate, verified=True)


def segment_boundaries(witness: Witness) -> tuple[int, ...]:
    """The turning values of a forged witness: the start, then the value at
    the end of each run.

    Run i (0-based) ends at 2 * 3**runs[i] * w[i] - 1 when it rises and
    2 * 3**runs[i] * w[i] + 1 when it falls; these must equal the trajectory
    values at the cumulative run offsets.
    """
    if not witness.verified:
        raise ValueError("segment boundaries require a verified witness")
    values = [witness.m]
    for i, (v, wi) in enumerate(zip(witness.pattern.runs, witness.w)):
        end = 2 * 3**v * wi
        values.append(end - 1 if i % 2 == 0 else end + 1)
    return tuple(values)


def minimal_witness(pattern: Pattern, bound: int) -> Optional[int]:
    """The least odd m <= bound realizing the pattern, or None.

    Brute force by exhaustive ascending scan over odd m.  Even integers are
    outside the Collatz domain and are never considered.
    """
    pattern = as_pattern(pattern)
    bound = int(bound)
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    runs = pattern.runs
    for m in range(1, bound + 1, 2):
        if _verify_collatz(m, runs).ok:
            return m
    return None
