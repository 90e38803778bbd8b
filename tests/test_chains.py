"""Chain-system solver: construction, kernel, sweep, lift, and minors."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatz_zigzag.chains import (
    ChainSystem,
    apply,
    kernel_primitive,
    odd_positive_lift,
    particular_solution,
    solve_odd_positive,
)
from collatz_zigzag.forge import build_system
from collatz_zigzag.patterns import Pattern
from oracles import corner_minor_certificate, dense_matrix

S_1X2 = ChainSystem((3,), (4,), (1,))
S_2X3 = ChainSystem((3, 3), (4, 2), (1, -1))
S_9_4 = ChainSystem((9,), (4,), (1,))
# general even superdiagonals (not powers of two), still pairwise coprime
S_GENERAL = ChainSystem((7, 49), (6, 10), (3, -5))
S_GENERAL_3 = ChainSystem((11, 13, 17), (6, 10, 2 * 7**5), (1, -3, 5))
# forge-sized junction systems: 1200 short runs, and six runs of 3000
S_FORGE_WIDE = build_system(Pattern(tuple(random.Random(1200).randint(1, 4) for _ in range(1200))))
S_FORGE_TALL = build_system(Pattern((3000,) * 6))


@st.composite
def chain_systems(draw, max_n=6, odd_rhs=False):
    n = draw(st.integers(1, max_n))
    coeff_a = [2 * draw(st.integers(0, (3**20 - 1) // 2)) + 1 for _ in range(n)]
    # a power of two, or one times an odd part with every prime it shares
    # with the diagonal divided out
    prod_a = math.prod(coeff_a)
    coeff_b = []
    for _ in range(n):
        odd = draw(st.one_of(st.just(1), st.integers(0, 7**6).map(lambda k: 2 * k + 1)))
        while (g := math.gcd(odd, prod_a)) > 1:
            odd //= g
        coeff_b.append(2 ** draw(st.integers(1, 20)) * odd)
    if odd_rhs:
        rhs = [2 * draw(st.integers(-500, 500)) + 1 for _ in range(n)]
    else:
        rhs = [draw(st.integers(-1000, 1000)) for _ in range(n)]
    return ChainSystem(tuple(coeff_a), tuple(coeff_b), tuple(rhs))


class TestConstruction:
    def test_smallest_legal_instance(self):
        system = ChainSystem((3,), (4,), (1,))
        assert system.n == 1

    def test_two_equation_instance(self):
        system = ChainSystem((3, 3), (4, 2), (1, -1))
        assert system.n == 2
        assert dense_matrix(system) == [[3, -4, 0], [0, 3, -2]]

    def test_rejects_odd_superdiagonal(self):
        with pytest.raises(ValueError, match=r"coeff_b\[0\] must be even"):
            ChainSystem((3,), (3,), (1,))

    def test_rejects_even_diagonal(self):
        with pytest.raises(ValueError, match=r"coeff_a\[1\] must be odd"):
            ChainSystem((3, 4), (2, 2), (1, 1))

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError, match=r"coeff_a\[0\] and coeff_b\[1\]"):
            ChainSystem((3, 5), (4, 6), (1, 1))

    def test_shared_factor_in_last_pair_of_long_system(self):
        # only a[1999] = 5 and b[1999] = 10 share a factor
        n = 2000
        a = (3,) * (n - 1) + (5,)
        b = (4,) * (n - 1) + (10,)
        with pytest.raises(ValueError, match=r"coeff_a\[1999\] and coeff_b\[1999\] share the factor 5;"):
            ChainSystem(a, b, (1,) * n)

    @pytest.mark.parametrize("a,b", [((0,), (4,)), ((-3,), (4,)), ((3,), (0,)), ((3,), (-4,))])
    def test_rejects_nonpositive_coefficients(self, a, b):
        with pytest.raises(ValueError, match="must be positive"):
            ChainSystem(a, b, (1,))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equally long"):
            ChainSystem((3, 3), (4,), (1, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            ChainSystem((), (), ())


class TestApply:
    def test_by_hand(self):
        assert apply(S_1X2, (3, 2)) == (1,)

    def test_zero_vector(self):
        assert apply(S_1X2, (0, 0)) == (0,)

    def test_kernel_member(self):
        assert apply(S_1X2, (4, 3)) == (0,)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length 2"):
            apply(S_1X2, (1, 2, 3))


class TestKernelPrimitive:
    @pytest.mark.parametrize(
        "system,expected",
        [(S_1X2, (4, 3)), (S_2X3, (8, 6, 9)), (S_9_4, (4, 9))],
    )
    def test_known_kernels(self, system, expected):
        assert kernel_primitive(system) == expected

    def test_general_even_superdiagonals(self):
        z = kernel_primitive(S_GENERAL)
        assert apply(S_GENERAL, z) == (0, 0)

    @settings(max_examples=200)
    @given(chain_systems())
    def test_kernel_invariants(self, system):
        z = kernel_primitive(system)
        assert apply(system, z) == (0,) * system.n
        assert all(v > 0 for v in z)
        assert math.gcd(*z) == 1
        assert all(v % 2 == 0 for v in z[:-1])
        assert z[-1] % 2 == 1

    @settings(max_examples=150)
    @given(chain_systems())
    def test_kernel_matches_rational_back_substitution(self, system):
        # independent route: unit last entry, exact rational back-substitution,
        # clear denominators, reduce to a primitive integer vector
        vals = [Fraction(1)]
        for ai, bi in zip(reversed(system.coeff_a), reversed(system.coeff_b)):
            vals.append(Fraction(bi) * vals[-1] / ai)
        vals.reverse()
        scale = math.lcm(*(f.denominator for f in vals))
        ints = [int(f * scale) for f in vals]
        g = math.gcd(*ints)
        assert kernel_primitive(system) == tuple(v // g for v in ints)


class TestParticularSolution:
    @pytest.mark.parametrize(
        "system,expected",
        [(S_1X2, (3, 2)), (S_2X3, (7, 5, 8)), (S_9_4, (1, 2))],
    )
    def test_known_solutions(self, system, expected):
        assert particular_solution(system) == expected

    def test_general_even_superdiagonals(self):
        x = particular_solution(S_GENERAL)
        assert apply(S_GENERAL, x) == S_GENERAL.rhs

    @settings(max_examples=200)
    @given(chain_systems())
    @example(S_GENERAL_3)
    @example(S_FORGE_WIDE)
    @example(S_FORGE_TALL)
    def test_solves_exactly(self, system):
        x = particular_solution(system)
        assert apply(system, x) == system.rhs

    @settings(max_examples=150)
    @given(chain_systems(odd_rhs=True))
    def test_odd_rhs_forces_odd_entries(self, system):
        x = particular_solution(system)
        assert all(v % 2 == 1 for v in x[:-1])

    @settings(max_examples=100)
    @given(chain_systems())
    @example(S_GENERAL_3)
    @example(S_FORGE_WIDE)
    @example(S_FORGE_TALL)
    def test_first_entry_is_least_nonnegative(self, system):
        # the first entry is reduced modulo the product of all superdiagonals
        x = particular_solution(system)
        assert 0 <= x[0] < math.prod(system.coeff_b)


class TestOddPositiveLift:
    def test_parity_shift(self):
        cert = odd_positive_lift(S_1X2, (3, 2))
        assert cert.lifted == (7, 5)
        assert cert.shift == 1

    def test_parity_shift_two_equations(self):
        cert = odd_positive_lift(S_2X3, (7, 5, 8))
        assert cert.lifted == (15, 11, 17)
        assert cert.shift == 1

    def test_identity_lift(self):
        cert = odd_positive_lift(S_1X2, (7, 5))
        assert cert.lifted == (7, 5)
        assert cert.shift == 0

    def test_negative_entries_need_positivity_shift(self):
        x = (3 - 2 * 4, 2 - 2 * 3)  # particular minus two kernels
        assert apply(S_1X2, x) == S_1X2.rhs
        cert = odd_positive_lift(S_1X2, x)
        assert cert.lifted == (7, 5)
        assert cert.shift == 3

    def test_rejects_even_rhs(self):
        system = ChainSystem((3,), (4,), (2,))
        with pytest.raises(ValueError, match=r"rhs\[0\] = 2 is even"):
            odd_positive_lift(system, (2, 1))
        with pytest.raises(ValueError, match=r"rhs\[0\] = 2 is even"):
            solve_odd_positive(system)

    def test_rejects_non_solution(self):
        with pytest.raises(ValueError, match="does not solve"):
            odd_positive_lift(S_1X2, (1, 1))

    @settings(max_examples=200)
    @given(chain_systems(odd_rhs=True))
    def test_lift_is_minimal_and_valid(self, system):
        cert = solve_odd_positive(system)
        z = kernel_primitive(system)
        assert apply(system, cert.lifted) == system.rhs
        assert all(v > 0 and v % 2 == 1 for v in cert.lifted)
        assert tuple(l - p for l, p in zip(cert.lifted, cert.particular)) == tuple(
            cert.shift * zi for zi in z
        )
        if cert.shift:
            prev = tuple(l - zi for l, zi in zip(cert.lifted, z))
            assert any(v <= 0 for v in prev) or prev[-1] % 2 == 0


class TestSolveOddPositive:
    @pytest.mark.parametrize(
        "system,expected",
        [(S_1X2, (7, 5)), (S_2X3, (15, 11, 17)), (S_9_4, (5, 11))],
    )
    def test_known_lifts(self, system, expected):
        assert solve_odd_positive(system).lifted == expected

    def test_matches_exhaustive_scan_on_small_systems(self):
        # scan oracle: first odd positive (x1, x2) in ascending x1 order is
        # the lexicographically least odd positive solution
        for a in range(1, 65, 2):
            for b in range(2, 65, 2):
                if math.gcd(a, b) != 1:
                    continue
                for h in (-5, -1, 1, 3):
                    system = ChainSystem((a,), (b,), (h,))
                    expected = None
                    for x1 in range(1, a * b * 4 + 1, 2):
                        x2, rem = divmod(a * x1 - h, b)
                        if rem == 0 and x2 > 0 and x2 % 2 == 1:
                            expected = (x1, x2)
                            break
                    assert expected is not None
                    assert solve_odd_positive(system).lifted == expected


class TestCornerMinors:
    def test_single_equation(self):
        assert corner_minor_certificate(S_1X2) == (-4, 3, True)

    def test_two_equations(self):
        assert corner_minor_certificate(S_2X3) == (8, 9, True)

    @settings(max_examples=150)
    @given(chain_systems())
    def test_products_and_coprimality(self, system):
        cert = corner_minor_certificate(system)
        assert abs(cert.det_drop_first) == math.prod(system.coeff_b)
        assert cert.det_drop_last == math.prod(system.coeff_a)
        sign = -1 if system.n % 2 else 1
        assert cert.det_drop_first == sign * math.prod(system.coeff_b)
        assert cert.coprime
