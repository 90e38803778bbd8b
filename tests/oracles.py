"""Reference implementations the tests compare the package against.

None of these is on a production path.  The file name has no ``test_``
prefix, so pytest imports it only through the test modules that use it.

- ``smith_normal_form``: invariant factors of a small dense integer
  matrix, by the classic elimination.  Pick the nonzero entry of smallest
  magnitude as pivot, reduce its row and column by division with
  remainder, repair any divisibility violation in the trailing block, and
  move on to the next diagonal position.  Exact arithmetic throughout,
  with a hard cap on the dimensions.
- ``dense_matrix`` and ``corner_minor_certificate``: the dense form of a
  chain system and the two corner minors that certify it is surjective
  over the integers.
- ``is_prime_by_trial_division``: the primality oracle for the exact
  Miller-Rabin check of ``DynamicsParams``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from collatz_zigzag.chains import ChainSystem

DEFAULT_MAX_DIM = 32


def smith_normal_form(
    matrix: Sequence[Sequence[int]], *, max_dim: int = DEFAULT_MAX_DIM
) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Returns min(rows, cols) nonnegative integers, zero-padded past the rank,
    each dividing the next nonzero one.
    """
    a = [[int(v) for v in row] for row in matrix]
    nrows = len(a)
    if nrows == 0 or len(a[0]) == 0:
        raise ValueError("matrix must have at least one row and one column")
    ncols = len(a[0])
    if any(len(row) != ncols for row in a):
        raise ValueError("matrix rows must all have the same length")
    if nrows > max_dim or ncols > max_dim:
        raise ValueError(
            f"matrix is {nrows}x{ncols}; this oracle is capped at {max_dim}x{max_dim}"
        )

    size = min(nrows, ncols)
    factors: list[int] = []
    for t in range(size):
        if _min_abs_nonzero(a, t, nrows, ncols) is None:
            break
        while True:
            i0, j0 = _min_abs_nonzero(a, t, nrows, ncols)
            a[t], a[i0] = a[i0], a[t]
            if j0 != t:
                for row in a:
                    row[t], row[j0] = row[j0], row[t]
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // pivot
                    if q:
                        for j in range(t, ncols):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // pivot
                    if q:
                        for i in range(t, nrows):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            offender = _non_multiple(a, t, nrows, ncols, pivot)
            if offender is None:
                break
            # folding the offending row into the pivot row re-exposes the
            # violation in the pivot's own row, where the reduction fixes it
            for j in range(t, ncols):
                a[t][j] += a[offender][j]
        factors.append(abs(a[t][t]))
    factors.extend([0] * (size - len(factors)))
    return tuple(factors)


def _min_abs_nonzero(a, t, nrows, ncols):
    best = None
    best_val = None
    for i in range(t, nrows):
        for j in range(t, ncols):
            v = a[i][j]
            if v and (best_val is None or abs(v) < best_val):
                best, best_val = (i, j), abs(v)
    return best


def _non_multiple(a, t, nrows, ncols, pivot):
    for i in range(t + 1, nrows):
        for j in range(t + 1, ncols):
            if a[i][j] % pivot:
                return i
    return None


def dense_matrix(system: ChainSystem) -> list[list[int]]:
    """The dense n x (n+1) coefficient matrix of a chain system."""
    n = system.n
    rows = []
    for i in range(n):
        row = [0] * (n + 1)
        row[i] = system.coeff_a[i]
        row[i + 1] = -system.coeff_b[i]
        rows.append(row)
    return rows


class CornerMinors(NamedTuple):
    """The two extreme maximal minors of a chain system and their coprimality."""

    det_drop_first: int
    det_drop_last: int
    coprime: bool


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


def is_prime_by_trial_division(p: int) -> bool:
    """Primality by trial division up to the square root of p."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    top = math.isqrt(p)
    while f <= top:
        if p % f == 0:
            return False
        f += 2
    return True
