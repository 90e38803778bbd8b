"""Exact iteration of the Collatz map and its one-parameter family.

The general map acts on positive integers coprime to a prime p: it sends m
to ((q - 1) * m + r) / p**e with q = p**ell and e the exact power of p in
the numerator.  Collatz is p=2, ell=2, r=1, i.e. (3m + 1) / 2**e on odd m.
Besides plain iteration this module extracts and verifies rise/fall
patterns and evaluates the closed forms that force a trajectory to rise or
fall for a prescribed number of steps.

Collatz patterns are verified exactly but a whole run at a time, by two
2-adic identities on odd m: with m + 1 = 2**k * u (u odd), m rises exactly
k - 1 times in a row and v <= k - 1 rises land on 3**v * (m + 1) / 2**v - 1;
a fall from m with 2**3 dividing m - 1 divides out exactly 2**2, so it maps
m - 1 to 3 * (m - 1) / 4.  Plain ``step`` iteration is the test oracle for
this fast path, and the only path for the other maps of the family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .patterns import DECREASING, FIXED, INCREASING, Pattern, PatternRLE, as_pattern

#: Miller-Rabin with the first 13 primes as bases is exact for every p below
#: this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for 2 <= p < ``_PRIME_LIMIT``."""
    if p in _PRIME_BASES:
        return True
    # p - 1 = 2**s * d with d odd
    d = p - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class DynamicsParams:
    """Parameters (p, ell, r) of the generalized map, with q = p**ell cached.

    p must be prime, and below ``_PRIME_LIMIT`` (about 3.3e24), where
    primality is checked exactly.  r is the map's fixed point and must not
    be divisible by p.
    """

    p: int
    ell: int
    r: int = 1
    q: int = field(init=False)

    def __post_init__(self):
        p, ell, r = int(self.p), int(self.ell), int(self.r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "r", r)
        if p < 2:
            raise ValueError(f"p must be a prime >= 2, got {p}")
        if ell < 1:
            raise ValueError(f"ell must be >= 1, got {ell}")
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        if r % p == 0:
            raise ValueError(f"r = {r} must not be divisible by p = {p}")
        if p >= _PRIME_LIMIT:
            raise ValueError(f"p must be below {_PRIME_LIMIT}, the exact primality limit, got {p}")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        object.__setattr__(self, "q", p**ell)


#: The classic Collatz map (3m + 1) / 2**e on odd positive integers.
COLLATZ = DynamicsParams(p=2, ell=2, r=1)


class StepResult(NamedTuple):
    next: int
    exponent: int


class VerifyResult(NamedTuple):
    ok: bool
    failure_index: Optional[int]


@dataclass(frozen=True)
class Trajectory:
    """A recorded orbit: values[j+1] * p**exponents[j] == (q-1)*values[j] + r.

    ``hit_fixed_point`` is True when iteration stopped early because the next
    value would have repeated the current one; the repeated value is not
    recorded again.
    """

    start: int
    values: tuple[int, ...]
    exponents: tuple[int, ...]
    hit_fixed_point: bool = False

    def __post_init__(self):
        if not self.values or self.values[0] != self.start:
            raise ValueError("values must begin with the start value")
        if len(self.exponents) != len(self.values) - 1:
            raise ValueError("need exactly one exponent per step taken")


def _check_domain(params: DynamicsParams, m: int) -> int:
    m = int(m)
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    if m % params.p == 0:
        raise ValueError(f"m = {m} is divisible by p = {params.p}")
    return m


def step(params: DynamicsParams, m: int) -> StepResult:
    """One application of the map, returning the new value and the exact
    power of p divided out."""
    return StepResult(*_step(params, _check_domain(params, m)))


def _step(params: DynamicsParams, m: int) -> tuple[int, int]:
    """``step`` on an m already in the domain; the map keeps every value
    there (positive and coprime to p), so walks check only their start."""
    t = (params.q - 1) * m + params.r
    p = params.p
    e = 0
    while t % p == 0:
        t //= p
        e += 1
    return t, e


def collatz(m: int) -> int:
    """The Collatz map on odd positive integers: (3m + 1) / 2**e, e maximal.

    Self-contained fast path (bit tricks instead of the generic division
    loop); agrees with ``step(COLLATZ, m).next`` everywhere.
    """
    m = int(m)
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    if m % 2 == 0:
        raise ValueError(f"m must be odd, got {m}")
    t = 3 * m + 1
    return t >> ((t & -t).bit_length() - 1)


def trajectory(params: DynamicsParams, m: int, steps: int) -> Trajectory:
    """Iterate up to ``steps`` times, recording every value and exponent.

    Stops early, with ``hit_fixed_point`` set, once the map would repeat the
    current value (which happens at the fixed point r, and for some parameter
    choices at other self-fixed values as well).
    """
    m = _check_domain(params, m)
    steps = int(steps)
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    values = [m]
    exponents: list[int] = []
    hit = m == params.r
    if not hit:
        for _ in range(steps):
            nxt, e = _step(params, values[-1])
            if nxt == values[-1]:
                hit = True
                break
            values.append(nxt)
            exponents.append(e)
    return Trajectory(
        start=m,
        values=tuple(values),
        exponents=tuple(exponents),
        hit_fixed_point=hit,
    )


def extract_pattern(params: DynamicsParams, m: int, steps: int) -> PatternRLE:
    """Run-length encode the strict rises and falls over the first ``steps``
    steps of m's trajectory.

    The encoding is flagged truncated when the budget ran out before a fixed
    point, since the final run might have continued.
    """
    return _run_lengths(trajectory(params, m, steps))


def _run_lengths(traj: Trajectory) -> PatternRLE:
    """The run-length encoding of a recorded trajectory's rises and falls."""
    values = traj.values
    if len(values) < 2:
        return PatternRLE(FIXED, (), truncated=not traj.hit_fixed_point)
    runs: list[int] = []
    directions: list[str] = []
    for prev, cur in zip(values, values[1:]):
        direction = INCREASING if cur > prev else DECREASING
        if directions and directions[-1] == direction:
            runs[-1] += 1
        else:
            directions.append(direction)
            runs.append(1)
    return PatternRLE(directions[0], tuple(runs), truncated=not traj.hit_fixed_point)


def verify_pattern(params: DynamicsParams, m: int, pattern: Pattern) -> VerifyResult:
    """Check whether m's trajectory rises and falls exactly as the pattern
    prescribes.

    Only the first sum(pattern.runs) steps are constrained; the trajectory
    may do anything afterwards.  On failure, ``failure_index`` is the index
    of the first offending step (comparing values number failure_index and
    failure_index + 1 of the trajectory).

    The check is exact for every map.  For Collatz it jumps over whole
    stretches of a run by the rise and fall identities in the module
    docstring; other maps are iterated one ``step`` at a time.
    """
    pattern = as_pattern(pattern)
    cur = _check_domain(params, m)
    if params == COLLATZ:
        return _verify_collatz(cur, pattern.runs)
    index = 0
    for seg, v in enumerate(pattern.runs):
        rising = seg % 2 == 0
        for _ in range(v):
            nxt = _step(params, cur)[0]
            if (nxt <= cur) if rising else (nxt >= cur):
                return VerifyResult(False, index)
            cur = nxt
            index += 1
    return VerifyResult(True, None)


def _verify_collatz(m: int, runs: Sequence[int]) -> VerifyResult:
    """``verify_pattern`` for Collatz on an odd positive m, a run at a time."""
    index = 0
    for seg, v in enumerate(runs):
        if seg % 2 == 0:
            # m + 1 = 2**k * u rises k - 1 times, then stops rising
            d = m + 1
            rises = (d & -d).bit_length() - 2
            if rises < v:
                return VerifyResult(False, index + rises)
            m = (d >> v) * 3**v - 1
            index += v
            continue
        left = v
        while left:
            # m = 1 is fixed and m = 3 (mod 4) rises: neither falls
            if m == 1 or m & 3 != 1:
                return VerifyResult(False, index)
            # m - 1 = 2**s * u with s >= 2; while s >= 3 a fall divides out
            # exactly 2**2 and lowers s by 2, so j = (s - 1) // 2 falls jump
            d = m - 1
            j = min(((d & -d).bit_length() - 2) // 2, left)
            if j:
                m = (d >> 2 * j) * 3**j + 1
            else:
                # s = 2: one fall dividing out 2**e with e >= 3
                m = collatz(m)
                j = 1
            index += j
            left -= j
    return VerifyResult(True, None)


def increasing_segment(v: int, w: int) -> tuple[int, ...]:
    """The v+1 Collatz values starting at 2 * 2**v * w - 1 for odd w.

    Step j sits at 2 * 3**j * 2**(v-j) * w - 1: each step trades a factor 2
    for a factor 3, so the values strictly increase and every step divides
    out exactly one 2.
    """
    v, w = int(v), int(w)
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if w < 1 or w % 2 == 0:
        raise ValueError(f"w must be odd and positive, got {w}")
    return tuple(2 * 3**j * 2 ** (v - j) * w - 1 for j in range(v + 1))


def decreasing_segment(v: int, w: int) -> tuple[int, ...]:
    """The v+1 Collatz values starting at 2 * 4**v * w + 1 for odd w.

    Step j sits at 2 * 3**j * 4**(v-j) * w + 1: a factor 4 becomes a factor
    3 each step, so the values strictly decrease and every step divides out
    exactly two 2s.
    """
    v, w = int(v), int(w)
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if w < 1 or w % 2 == 0:
        raise ValueError(f"w must be odd and positive, got {w}")
    return tuple(2 * 3**j * 4 ** (v - j) * w + 1 for j in range(v + 1))


def general_segment(params: DynamicsParams, v: int, w: int) -> tuple[int, ...]:
    """The v+1 values of the general map starting at p * q**v * w + r.

    Step j sits at p * (q-1)**j * q**(v-j) * w + r, so relative to the fixed
    point each step scales by exactly (q-1)/q and the values strictly
    decrease toward r.
    """
    v, w = int(v), int(w)
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if w < 1:
        raise ValueError(f"w must be positive, got {w}")
    if w % params.p == 0:
        raise ValueError(f"w = {w} is divisible by p = {params.p}")
    p, q, r = params.p, params.q, params.r
    return tuple(p * (q - 1) ** j * q ** (v - j) * w + r for j in range(v + 1))
