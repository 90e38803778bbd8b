"""Smith normal form oracle, cross-checked against determinantal divisors."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_zigzag.chains import ChainSystem
from oracles import dense_matrix, smith_normal_form


def _det(rows):
    # cofactor expansion; only used on minors up to 4x4
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def factors_from_minor_gcds(matrix):
    """Independent oracle: d_k = D_k / D_{k-1} where D_k is the gcd of all
    k x k minors (D_0 = 1), and everything past the first zero D_k is zero."""
    rows = [list(r) for r in matrix]
    nrows, ncols = len(rows), len(rows[0])
    size = min(nrows, ncols)
    expected = []
    prev = 1
    for k in range(1, size + 1):
        minors = []
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                minors.append(_det([[rows[i][j] for j in ci] for i in ri]))
        dk = math.gcd(*minors) if minors else 0
        if dk == 0 or prev == 0:
            expected.append(0)
            prev = 0
        else:
            expected.append(dk // prev)
            prev = dk
    return tuple(expected)


class TestKnownForms:
    def test_single_row_coprime(self):
        assert smith_normal_form([[3, -4]]) == (1,)

    def test_diagonal_merges_factors(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)

    def test_zero_matrix(self):
        assert smith_normal_form([[0]]) == (0,)

    def test_rank_deficient(self):
        assert smith_normal_form([[2, 4], [1, 2]]) == (1, 0)

    def test_full_rank_with_nonunit_factors(self):
        # D_1 = 2, D_2 = 4, D_3 = |det| = 624, so the factors are 2, 2, 156
        assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == (2, 2, 156)


class TestValidation:
    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="capped at 32x32"):
            smith_normal_form([[1]] * 33)

    def test_dimension_cap_override(self):
        assert smith_normal_form([[1]] * 33, max_dim=40) == (1,)

    def test_ragged_rows(self):
        with pytest.raises(ValueError, match="same length"):
            smith_normal_form([[1, 2], [3]])

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one row"):
            smith_normal_form([])


class TestAgainstMinorOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.data(),
    )
    def test_matches_determinantal_divisors(self, nrows, ncols, data):
        matrix = [
            [data.draw(st.integers(-9, 9)) for _ in range(ncols)] for _ in range(nrows)
        ]
        assert smith_normal_form(matrix) == factors_from_minor_gcds(matrix)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_divisibility_chain(self, nrows, data):
        matrix = [
            [data.draw(st.integers(-20, 20)) for _ in range(nrows + 1)]
            for _ in range(nrows)
        ]
        factors = smith_normal_form(matrix)
        for prev, cur in zip(factors, factors[1:]):
            if cur != 0:
                assert prev != 0 and cur % prev == 0
            assert prev >= 0


class TestChainSystemMatrices:
    @pytest.mark.parametrize(
        "coeff_a,coeff_b",
        [
            ((3,), (4,)),
            ((3, 3), (4, 2)),
            ((27, 3, 9), (16, 2, 64)),
            ((9, 81, 3, 27, 3), (4, 8, 2, 16, 4)),
        ],
    )
    def test_unit_invariant_factors(self, coeff_a, coeff_b):
        system = ChainSystem(coeff_a, coeff_b, (1,) * len(coeff_a))
        assert smith_normal_form(dense_matrix(system)) == (1,) * system.n
