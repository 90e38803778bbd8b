"""Pattern-to-witness construction and its brute-force cross-checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_zigzag.chains import apply
from collatz_zigzag.dynamics import COLLATZ, collatz, trajectory, verify_pattern
from collatz_zigzag.forge import build_system, forge, minimal_witness, segment_boundaries
from collatz_zigzag.patterns import Pattern

patterns = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(
    lambda runs: Pattern(tuple(runs))
)


class TestBuildSystem:
    def test_up_down(self):
        system = build_system(Pattern((1, 1)))
        assert (system.coeff_a, system.coeff_b, system.rhs) == ((3,), (4,), (1,))

    def test_up_down_up(self):
        system = build_system(Pattern((1, 1, 1)))
        assert (system.coeff_a, system.coeff_b, system.rhs) == ((3, 3), (4, 2), (1, -1))

    def test_longer_first_run(self):
        system = build_system(Pattern((2, 1)))
        assert (system.coeff_a, system.coeff_b, system.rhs) == ((9,), (4,), (1,))

    def test_alternation_of_powers(self):
        system = build_system(Pattern((1, 2, 3, 4, 5)))
        assert system.coeff_a == (3, 9, 27, 81)
        assert system.coeff_b == (4**2, 2**3, 4**4, 2**5)
        assert system.rhs == (1, -1, 1, -1)

    def test_single_run_has_no_system(self):
        with pytest.raises(ValueError, match="single run"):
            build_system(Pattern((3,)))


class TestForge:
    @pytest.mark.parametrize(
        "runs,m,w",
        [
            ((1, 1), 27, (7, 5)),
            ((1, 1, 1), 59, (15, 11, 17)),
            ((2, 1), 39, (5, 11)),
            ((3,), 15, (1,)),
        ],
    )
    def test_canonical_witnesses(self, runs, m, w):
        witness = forge(Pattern(runs))
        assert witness.m == m
        assert witness.w == w
        assert witness.verified

    def test_single_run_family(self):
        for v in range(1, 12):
            witness = forge(Pattern((v,)))
            assert witness.m == 2 ** (v + 1) - 1
            assert witness.certificate is None

    def test_accepts_plain_sequences(self):
        assert forge([1, 1]).m == 27

    def test_deterministic(self):
        a, b = forge(Pattern((2, 3, 1))), forge(Pattern((2, 3, 1)))
        assert a == b

    @settings(max_examples=150, deadline=None)
    @given(patterns)
    def test_every_pattern_gets_a_verified_witness(self, pattern):
        witness = forge(pattern)
        assert witness.verified
        assert verify_pattern(COLLATZ, witness.m, pattern).ok

    @settings(max_examples=150, deadline=None)
    @given(patterns)
    def test_witness_parity_structure(self, pattern):
        witness = forge(pattern)
        assert witness.m % 2 == 1
        assert all(wi % 2 == 1 and wi > 0 for wi in witness.w)
        modulus = 2 ** (pattern.runs[0] + 1)
        assert witness.m % modulus == modulus - 1

    @settings(max_examples=150, deadline=None)
    @given(patterns)
    def test_junction_equations_hold(self, pattern):
        witness = forge(pattern)
        if len(pattern.runs) >= 2:
            system = build_system(pattern)
            assert apply(system, witness.w) == system.rhs
            assert witness.certificate is not None
            assert witness.certificate.lifted == witness.w


class TestSegmentBoundaries:
    @pytest.mark.parametrize(
        "runs,expected",
        [
            ((1, 1), (27, 41, 31)),
            ((1, 1, 1), (59, 89, 67, 101)),
            ((2, 1), (39, 89, 67)),
        ],
    )
    def test_known_boundaries(self, runs, expected):
        assert segment_boundaries(forge(Pattern(runs))) == expected

    @settings(max_examples=100, deadline=None)
    @given(patterns)
    def test_boundaries_sit_on_the_trajectory(self, pattern):
        witness = forge(pattern)
        boundaries = segment_boundaries(witness)
        traj = trajectory(COLLATZ, witness.m, pattern.total_steps)
        offset = 0
        assert boundaries[0] == traj.values[0]
        for v, boundary in zip(pattern.runs, boundaries[1:]):
            offset += v
            assert traj.values[offset] == boundary


class TestMinimalWitness:
    def test_up_down(self):
        assert minimal_witness(Pattern((1, 1)), 100) == 3

    def test_up_down_up(self):
        assert minimal_witness(Pattern((1, 1, 1)), 100) == 19

    def test_absent_within_bound(self):
        assert minimal_witness(Pattern((50,)), 100) is None

    def test_bound_is_inclusive(self):
        assert minimal_witness(Pattern((1, 1)), 3) == 3
        assert minimal_witness(Pattern((1, 1)), 2) is None
        # the smallest legal bound covers m = 1 only, which is fixed
        assert minimal_witness(Pattern((1,)), 1) is None
        assert minimal_witness(Pattern((1,)), 3) == 3

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError, match="bound"):
            minimal_witness(Pattern((1,)), 0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    def test_result_verifies_and_nothing_smaller_does(self, runs):
        pattern = Pattern(tuple(runs))
        found = minimal_witness(pattern, 10**5)
        assert found is not None
        assert verify_pattern(COLLATZ, found, pattern).ok
        for m in range(1, found, 2):
            assert not verify_pattern(COLLATZ, m, pattern).ok

    def test_forge_is_canonical_not_minimal(self):
        assert forge(Pattern((1, 1))).m == 27
        assert minimal_witness(Pattern((1, 1)), 100) == 3


class TestFixedPointEdgeCases:
    def test_witness_one_step_into_fixed_point(self):
        # the smallest witness for (1, 1) rides through the fixed point: 3 < 5 > 1
        assert verify_pattern(COLLATZ, 3, Pattern((1, 1))).ok
        assert collatz(collatz(3)) == 1


class TestThreadSafety:
    def test_concurrent_forging_matches_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        jobs = [Pattern((1 + (i % 4), 1 + ((i * 7) % 3), 1 + (i % 2))) for i in range(64)]
        serial = [forge(p) for p in jobs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(pool.map(forge, jobs))
        assert concurrent == serial
