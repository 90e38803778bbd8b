"""Exact solver for bidiagonal integer chain systems.

A chain system couples n+1 unknowns through n equations

    coeff_a[i] * x[i] - coeff_b[i] * x[i+1] = rhs[i],       i = 0 .. n-1,

where every diagonal coefficient is odd and positive, every superdiagonal
magnitude is even and positive, and the two coefficient families are pairwise
coprime.  Under those constraints the system is always solvable over the
integers, its kernel is one-dimensional with an all-positive primitive
generator whose last entry is odd and the rest even, and any solution with
odd right-hand sides can be shifted along the kernel into one whose entries
are all odd and positive.  All arithmetic is exact on Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ChainSystem:
    """The n x (n+1) bidiagonal system together with its right-hand side.

    ``coeff_a[i]`` sits on the diagonal of row i, ``-coeff_b[i]`` on the
    superdiagonal, and ``rhs[i]`` is what the row must produce.
    """

    coeff_a: tuple[int, ...]
    coeff_b: tuple[int, ...]
    rhs: tuple[int, ...]

    def __post_init__(self):
        a = tuple(int(v) for v in self.coeff_a)
        b = tuple(int(v) for v in self.coeff_b)
        h = tuple(int(v) for v in self.rhs)
        object.__setattr__(self, "coeff_a", a)
        object.__setattr__(self, "coeff_b", b)
        object.__setattr__(self, "rhs", h)
        if not a or not (len(a) == len(b) == len(h)):
            raise ValueError(
                "coeff_a, coeff_b and rhs must be nonempty and equally long, "
                f"got lengths {len(a)}, {len(b)}, {len(h)}"
            )
        for i, v in enumerate(a):
            if v <= 0:
                raise ValueError(f"coeff_a[{i}] must be positive, got {v}")
            if v % 2 == 0:
                raise ValueError(f"coeff_a[{i}] must be odd, got {v}")
        for j, v in enumerate(b):
            if v <= 0:
                raise ValueError(f"coeff_b[{j}] must be positive, got {v}")
            if v % 2 == 1:
                raise ValueError(f"coeff_b[{j}] must be even, got {v}")
        # a prime shared by some a[i] and b[j] divides both products; only
        # then search for the first such pair, to name it
        b_prod = math.prod(b)
        if math.gcd(math.prod(a), b_prod) != 1:
            i, av = next((i, av) for i, av in enumerate(a) if math.gcd(av, b_prod) != 1)
            j, g = next((j, g) for j, bv in enumerate(b) if (g := math.gcd(av, bv)) != 1)
            raise ValueError(
                f"coeff_a[{i}] and coeff_b[{j}] share the factor {g}; "
                "all coefficient pairs must be coprime"
            )

    @property
    def n(self) -> int:
        """Number of equations (one fewer than the number of unknowns)."""
        return len(self.coeff_a)


@dataclass(frozen=True)
class SolutionCertificate:
    """A particular solution plus its odd-positive shift along the kernel.

    ``lifted == particular + shift * kernel`` componentwise, every lifted
    entry is odd and strictly positive, and ``shift`` is the smallest
    nonnegative multiple that achieves this.
    """

    particular: tuple[int, ...]
    lifted: tuple[int, ...]
    shift: int


def apply(system: ChainSystem, x: Sequence[int]) -> tuple[int, ...]:
    """Multiply the system matrix by ``x`` exactly.

    Row i evaluates to ``coeff_a[i] * x[i] - coeff_b[i] * x[i+1]``.
    """
    x = tuple(int(v) for v in x)
    if len(x) != system.n + 1:
        raise ValueError(f"x must have length {system.n + 1}, got {len(x)}")
    return tuple(
        a * x[i] - b * x[i + 1]
        for i, (a, b) in enumerate(zip(system.coeff_a, system.coeff_b))
    )


class _Kernel(tuple):
    """A kernel generator: a plain tuple of its entries.

    ``entries`` returns the tuple itself, because the benchmark's tracer
    (``bench/tracer.py``) counts kernel bits through that attribute.
    """

    @property
    def entries(self) -> tuple[int, ...]:
        return self


def kernel_primitive(system: ChainSystem) -> tuple[int, ...]:
    """The unique primitive positive kernel generator, in closed form.

    Row i forces coeff_a[i] * z[i] == coeff_b[i] * z[i+1], so a kernel member
    is z[i] = (coeff_a[0]..coeff_a[i-1]) * (coeff_b[i]..coeff_b[n-1]).  It is
    already primitive: z[0] is the product of all coeff_b and z[n] the product
    of all coeff_a, which ``ChainSystem`` has checked to be coprime, so the
    gcd of all entries is 1.  Every entry is a product of positive
    coefficients; each but the last has the even coeff_b[n-1] as a factor,
    and the last is a product of odd ones.  No rational arithmetic is
    involved, so the result needs no check.
    """
    a, b = system.coeff_a, system.coeff_b
    n = system.n
    suffix_b = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_b[i] = b[i] * suffix_b[i + 1]
    entries = []
    prefix_a = 1
    for i in range(n):
        entries.append(prefix_a * suffix_b[i])
        prefix_a *= a[i]
    entries.append(prefix_a)
    return _Kernel(entries)


def particular_solution(system: ChainSystem) -> tuple[int, ...]:
    """One integer solution of the system, by a forward congruence sweep.

    Fixing x[0] determines every later entry through
    x[i+1] = (coeff_a[i] * x[i] - rhs[i]) / coeff_b[i], so the whole solve
    reduces to choosing x[0] in the single congruence class that keeps every
    division exact.  The sweep carries x[0], the current chain entry x[i],
    the modulus M = b[0]..b[i-1] and the product P = a[0]..a[i-1] forward:
    adding t * M to x[0] keeps equations 0..i-1 exact and adds t * P to x[i].
    Equation i then needs a[i] * P * t = rhs[i] - a[i] * x[i] (mod b[i]),
    whose coefficient is coprime to b[i] because ``ChainSystem`` has checked
    that every diagonal entry is coprime to every superdiagonal one.  Each t
    lies in [0, b[i]), so x[0] ends as the least nonnegative member of its
    class modulo b[0]..b[n-1].  The chain is then filled in by
    back-substitution, which checks every division for exactness.

    When every rhs entry is odd, entries 0..n-1 of the result are odd
    automatically (each equation forces it mod 2).
    """
    a, b, h = system.coeff_a, system.coeff_b, system.rhs
    x0 = xi = 0
    modulus = prod_a = 1
    for ai, bi, hi in zip(a, b, h):
        prod_a *= ai
        t = (hi - ai * xi) * pow(prod_a % bi, -1, bi) % bi
        x0 += t * modulus
        xi = (ai * xi + t * prod_a - hi) // bi
        modulus *= bi
    xs = [x0]
    for ai, bi, hi in zip(a, b, h):
        nxt, rem = divmod(ai * xs[-1] - hi, bi)
        if rem:  # pragma: no cover - the sweep made every division exact
            raise ArithmeticError("back-substitution produced a non-integer entry")
        xs.append(nxt)
    return tuple(xs)


def odd_positive_lift(system: ChainSystem, x: Sequence[int]) -> SolutionCertificate:
    """Shift a particular solution along the kernel until it is odd positive.

    Requires every rhs entry to be odd, which already makes x[0..n-1] odd;
    adding the kernel preserves those parities (its first n entries are even)
    while each increment flips the parity of the last entry (the kernel's
    last entry is odd).  The smallest nonnegative shift that makes every
    entry positive therefore needs at most one extra increment to fix the
    final parity, and the chosen shift is minimal.

    ``x`` comes from the caller, so it is checked against the system first;
    the kernel is the closed-form ``kernel_primitive(system)``.
    """
    _require_odd_rhs(system)
    x = tuple(int(v) for v in x)
    if apply(system, x) != system.rhs:
        raise ValueError("x does not solve the system")
    return _shift_odd_positive(x, kernel_primitive(system))


def _require_odd_rhs(system: ChainSystem) -> None:
    for i, hi in enumerate(system.rhs):
        if hi % 2 == 0:
            raise ValueError(
                f"rhs[{i}] = {hi} is even; the odd-positive lift needs every "
                "right-hand side entry odd"
            )


def _shift_odd_positive(x: tuple[int, ...], z: tuple[int, ...]) -> SolutionCertificate:
    """The minimal odd-positive shift of a solution ``x`` along the kernel
    generator ``z``, both already known to belong to a system whose rhs
    entries are all odd."""
    k = 0
    for xi, zi in zip(x, z):
        if xi < 1:
            k = max(k, (zi - xi) // zi)  # ceil((1 - xi) / zi)
    if (x[-1] + k * z[-1]) % 2 == 0:
        k += 1
    lifted = tuple(xi + k * zi for xi, zi in zip(x, z))
    return SolutionCertificate(particular=x, lifted=lifted, shift=k)


def solve_odd_positive(system: ChainSystem) -> SolutionCertificate:
    """Particular solution, kernel, and odd-positive lift in one call.

    Deterministic: the congruence sweep, the closed-form kernel, and the
    minimal shift each have a single possible output.  The sweep's exactness
    and the kernel's closed form already guarantee what ``odd_positive_lift``
    checks of outside input, so only the rhs parity is checked here.
    """
    _require_odd_rhs(system)
    return _shift_odd_positive(particular_solution(system), kernel_primitive(system))
