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
from typing import NamedTuple, Sequence


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

    def matrix(self) -> list[list[int]]:
        """The dense n x (n+1) coefficient matrix."""
        n = self.n
        rows = []
        for i in range(n):
            row = [0] * (n + 1)
            row[i] = self.coeff_a[i]
            row[i + 1] = -self.coeff_b[i]
            rows.append(row)
        return rows


@dataclass(frozen=True)
class KernelVector:
    """The primitive positive generator of a chain system's kernel.

    Entries are strictly positive with overall gcd 1; all but the last are
    even and the last is odd.  Those parities are what make the odd-positive
    lift work.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(v) for v in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 2:
            raise ValueError("a kernel vector has at least two entries")
        for i, v in enumerate(entries):
            if v <= 0:
                raise ValueError(f"kernel entry {i} must be positive, got {v}")
        for i, v in enumerate(entries[:-1]):
            if v % 2 == 1:
                raise ValueError(f"kernel entry {i} must be even, got {v}")
        if entries[-1] % 2 == 0:
            raise ValueError(f"last kernel entry must be odd, got {entries[-1]}")
        if math.gcd(*entries) != 1:
            raise ValueError("kernel vector must be primitive (gcd of entries 1)")

    def __len__(self) -> int:
        return len(self.entries)


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

    def __post_init__(self):
        particular = tuple(int(v) for v in self.particular)
        lifted = tuple(int(v) for v in self.lifted)
        object.__setattr__(self, "particular", particular)
        object.__setattr__(self, "lifted", lifted)
        object.__setattr__(self, "shift", int(self.shift))
        if len(particular) != len(lifted):
            raise ValueError("particular and lifted solutions must have equal length")
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")
        for i, v in enumerate(lifted):
            if v <= 0 or v % 2 == 0:
                raise ValueError(f"lifted entry {i} must be odd and positive, got {v}")


class CornerMinors(NamedTuple):
    """The two extreme maximal minors of a chain system and their coprimality."""

    det_drop_first: int
    det_drop_last: int
    coprime: bool


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


def kernel_primitive(system: ChainSystem) -> KernelVector:
    """The unique primitive positive kernel generator, in closed form.

    Row i forces coeff_a[i] * z[i] == coeff_b[i] * z[i+1], so a kernel member
    is z[i] = (coeff_a[0]..coeff_a[i-1]) * (coeff_b[i]..coeff_b[n-1]) with
    z[n] the product of all coeff_a; dividing out the common gcd leaves the
    primitive generator.  No rational arithmetic is involved.
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
    g = math.gcd(*entries)
    return KernelVector(tuple(v // g for v in entries))


def particular_solution(system: ChainSystem) -> tuple[int, ...]:
    """One integer solution of the system, by a forward congruence sweep.

    Fixing x[0] determines every later entry through
    x[i+1] = (coeff_a[i] * x[i] - rhs[i]) / coeff_b[i], so the whole solve
    reduces to choosing x[0] in the single congruence class that keeps every
    division exact.  The sweep tightens that class one equation at a time:
    at equation i the constraint is (a[0]..a[i]) * x[0] = c (mod b[0]..b[i]),
    and the new congruence's coefficient is a product of odd diagonal
    entries, hence invertible modulo the even modulus b[i].  The least
    nonnegative representative of the final class is taken, then the chain
    is filled in by back-substitution.

    When every rhs entry is odd, entries 0..n-1 of the result are odd
    automatically (each equation forces it mod 2).
    """
    a, b, h = system.coeff_a, system.coeff_b, system.rhs
    residue, modulus = 0, 1
    prod_a, const = 1, 0
    for ai, bi, hi in zip(a, b, h):
        const = ai * const + hi * modulus
        prod_a *= ai
        need = const - prod_a * residue
        quot, rem = divmod(need, modulus)
        if rem:  # pragma: no cover - the previous classes already guarantee this
            raise ArithmeticError("congruence sweep lost divisibility")
        try:
            inv = pow(prod_a % bi, -1, bi)
        except ValueError:  # pragma: no cover - excluded by pairwise coprimality
            raise ValueError(
                "system is not solvable: the diagonal product shares a factor "
                f"with coeff_b entry {bi}"
            ) from None
        residue += modulus * ((quot * inv) % bi)
        modulus *= bi
    xs = [residue]
    for ai, bi, hi in zip(a, b, h):
        nxt, rem = divmod(ai * xs[-1] - hi, bi)
        if rem:  # pragma: no cover - same guarantee as above
            raise ArithmeticError("back-substitution produced a non-integer entry")
        xs.append(nxt)
    return tuple(xs)


def odd_positive_lift(
    system: ChainSystem, x: Sequence[int], z: KernelVector
) -> SolutionCertificate:
    """Shift a particular solution along the kernel until it is odd positive.

    Requires every rhs entry to be odd, which already makes x[0..n-1] odd;
    adding the kernel preserves those parities (its first n entries are even)
    while each increment flips the parity of the last entry (the kernel's
    last entry is odd).  The smallest nonnegative shift that makes every
    entry positive therefore needs at most one extra increment to fix the
    final parity, and the chosen shift is minimal.
    """
    for i, hi in enumerate(system.rhs):
        if hi % 2 == 0:
            raise ValueError(
                f"rhs[{i}] = {hi} is even; the odd-positive lift needs every "
                "right-hand side entry odd"
            )
    if not isinstance(z, KernelVector):
        z = KernelVector(tuple(z))
    x = tuple(int(v) for v in x)
    if len(z.entries) != system.n + 1:
        raise ValueError(f"kernel vector must have length {system.n + 1}")
    if apply(system, x) != system.rhs:
        raise ValueError("x does not solve the system")
    if apply(system, z.entries) != (0,) * system.n:
        raise ValueError("z is not in the kernel of the system")
    k = 0
    for xi, zi in zip(x, z.entries):
        if xi < 1:
            k = max(k, (zi - xi) // zi)  # ceil((1 - xi) / zi)
    if (x[-1] + k * z.entries[-1]) % 2 == 0:
        k += 1
    lifted = tuple(xi + k * zi for xi, zi in zip(x, z.entries))
    return SolutionCertificate(particular=x, lifted=lifted, shift=k)


def solve_odd_positive(system: ChainSystem) -> SolutionCertificate:
    """Particular solution, kernel, and odd-positive lift in one call.

    Deterministic: the congruence sweep, the closed-form kernel, and the
    minimal shift each have a single possible output.
    """
    x = particular_solution(system)
    z = kernel_primitive(system)
    return odd_positive_lift(system, x, z)


def corner_minor_certificate(system: ChainSystem) -> CornerMinors:
    """The two corner minors that certify surjectivity over the integers.

    Dropping the first column leaves an upper-triangular matrix with the
    negated superdiagonal magnitudes on its diagonal; dropping the last
    leaves a lower-triangular one with the diagonal coefficients.  Both
    determinants are plain products, and their coprimality means the gcd of
    all maximal minors is 1.
    """
    n = system.n
    prod_b = math.prod(system.coeff_b)
    prod_a = math.prod(system.coeff_a)
    det_drop_first = -prod_b if n % 2 else prod_b
    return CornerMinors(
        det_drop_first=det_drop_first,
        det_drop_last=prod_a,
        coprime=math.gcd(prod_b, prod_a) == 1,
    )
