"""Iteration, pattern extraction/verification, and the segment closed forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_zigzag import dynamics
from collatz_zigzag.dynamics import (
    _PRIME_LIMIT,
    COLLATZ,
    DynamicsParams,
    VerifyResult,
    _is_prime,
    collatz,
    decreasing_segment,
    extract_pattern,
    general_segment,
    increasing_segment,
    step,
    trajectory,
    verify_pattern,
)
from collatz_zigzag.forge import forge
from collatz_zigzag.patterns import Pattern
from oracles import is_prime_by_trial_division

P3 = DynamicsParams(p=3, ell=1, r=1)


def step_oracle(params, m, runs):
    """verify_pattern by plain iteration, one step at a time."""
    index = 0
    for seg, v in enumerate(runs):
        for _ in range(v):
            nxt = step(params, m).next
            if (nxt <= m) if seg % 2 == 0 else (nxt >= m):
                return VerifyResult(False, index)
            m = nxt
            index += 1
    return VerifyResult(True, None)


def rise_then_fall(v, s, t):
    """An odd m that rises exactly v times and then reaches a value x with
    exactly s factors of 2 in x - 1, so that x starts to fall.

    m = 2**(v+1) * u - 1 rises to x = 2 * 3**v * u - 1, and
    x - 1 = 2 * (3**v * u - 1); u is picked mod 2**s to fix that valuation.
    """
    u = pow(3, -v, 2**s) * (1 + 2 ** (s - 1)) % 2**s + 2**s * t
    return 2 ** (v + 1) * u - 1


odd = st.integers(0, 10**6).map(lambda u: 2 * u + 1)
run_lists = st.lists(st.integers(1, 4) | st.integers(1, 200), min_size=1, max_size=6)
plain_starts = (
    st.just(1)
    | odd
    | st.builds(lambda k, u, sign: 2**k * u + sign, st.integers(1, 200), odd, st.sampled_from((-1, 1)))
)
fall_valuations = st.just(2) | st.integers(2, 200)


@st.composite
def collatz_cases(draw):
    """(m, runs) for the run-jumping checks.

    The starts stress the run identities: the fixed point, long rises
    (m = 2**k * u - 1 with k large), starts that cannot rise
    (m = 2**k * u + 1), and starts that rise v times, often exactly the
    first run, and then fall from a value x with 2**s exactly dividing
    x - 1: s = 2, where one step divides out 2**e with e >= 3, and large s,
    a long fall.  Runs of up to 200 outlast what most starts can sustain.
    """
    runs = draw(run_lists)
    if draw(st.booleans()):
        return draw(plain_starts), runs
    v = runs[0] if draw(st.booleans()) else draw(st.integers(1, 50))
    return rise_then_fall(v, draw(fall_valuations), draw(st.integers(0, 10**6))), runs


class TestParams:
    def test_collatz_specialization(self):
        assert (COLLATZ.p, COLLATZ.ell, COLLATZ.r, COLLATZ.q) == (2, 2, 1, 4)

    def test_rejects_composite(self):
        with pytest.raises(ValueError, match="not prime"):
            DynamicsParams(p=9, ell=1, r=1)

    @pytest.mark.parametrize("p", [2047, 2**32 + 1, 3215031751])
    def test_rejects_composites_that_pass_some_bases(self, p):
        # 2047 = 23 * 89 is a strong pseudoprime to base 2, 3215031751 to
        # bases 2 to 7; 2**32 + 1 = 641 * 6700417 is the Fermat number F5
        with pytest.raises(ValueError, match=f"p = {p} is not prime"):
            DynamicsParams(p=p, ell=1, r=1)

    def test_huge_prime_is_accepted(self):
        params = DynamicsParams(p=2**61 - 1, ell=1, r=1)
        assert params.q == 2**61 - 1

    def test_boundary_prime_is_verified(self):
        params = DynamicsParams(p=2**31 - 1, ell=1, r=1)
        assert params.q == 2**31 - 1

    def test_rejects_p_at_the_exact_limit(self):
        # the limit is itself a strong pseudoprime to all 13 bases
        with pytest.raises(ValueError, match=f"p must be below {_PRIME_LIMIT}"):
            DynamicsParams(p=_PRIME_LIMIT, ell=1, r=1)
        with pytest.raises(ValueError, match=f"p must be below {_PRIME_LIMIT}"):
            DynamicsParams(p=2**127 - 1, ell=1, r=1)

    def test_primality_matches_trial_division_below_1e5(self):
        for p in range(2, 10**5):
            assert _is_prime(p) == is_prime_by_trial_division(p), p

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(p=1, ell=1, r=1), "prime"),
            (dict(p=2, ell=0, r=1), "ell"),
            (dict(p=2, ell=2, r=0), "r must be"),
            (dict(p=3, ell=1, r=6), "divisible"),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            DynamicsParams(**kwargs)


class TestStep:
    def test_classic_rise(self):
        assert step(COLLATZ, 27) == (41, 1)

    def test_fixed_point_divides_out_q(self):
        assert step(COLLATZ, 1) == (1, 2)

    def test_mod_three_family(self):
        assert step(P3, 55) == (37, 1)

    def test_exponent_zero_when_numerator_coprime(self):
        # (3 - 1) * 2 + 1 = 5 is not divisible by 3
        assert step(P3, 2) == (5, 0)

    def test_rejects_multiples_of_p(self):
        with pytest.raises(ValueError, match="divisible"):
            step(COLLATZ, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            step(COLLATZ, 0)


class TestCollatzFastPath:
    @pytest.mark.parametrize("m,expected", [(27, 41), (41, 31), (1, 1)])
    def test_known_values(self, m, expected):
        assert collatz(m) == expected

    def test_rejects_even(self):
        with pytest.raises(ValueError, match="odd"):
            collatz(10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            collatz(-3)
        # 0 is even too, but is named as nonpositive
        with pytest.raises(ValueError, match="m must be positive, got 0"):
            collatz(0)

    def test_agrees_with_generic_step_below_1e5(self):
        for m in range(1, 10**5, 2):
            assert collatz(m) == step(COLLATZ, m).next


class TestTrajectory:
    def test_records_values(self):
        assert trajectory(COLLATZ, 27, 3).values == (27, 41, 31, 47)

    def test_fixed_point_stops_early(self):
        traj = trajectory(COLLATZ, 1, 5)
        assert traj.values == (1,)
        assert traj.exponents == ()
        assert traj.hit_fixed_point

    def test_large_exponent_step(self):
        assert trajectory(COLLATZ, 59, 4).values == (59, 89, 67, 101, 19)

    def test_reaches_fixed_point_midway(self):
        traj = trajectory(COLLATZ, 5, 3)
        assert traj.values == (5, 1)
        assert traj.hit_fixed_point

    def test_zero_steps(self):
        traj = trajectory(COLLATZ, 27, 0)
        assert traj.values == (27,)
        assert not traj.hit_fixed_point

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError, match="nonnegative"):
            trajectory(COLLATZ, 27, -1)

    def test_non_canonical_fixed_point_stops(self):
        # (m + 3) / 2**e fixes both 3 (the canonical point) and 1
        params = DynamicsParams(p=2, ell=1, r=3)
        assert step(params, 1) == (1, 2)
        traj = trajectory(params, 1, 5)
        assert traj.values == (1,)
        assert traj.hit_fixed_point

    @settings(max_examples=200)
    @given(st.integers(0, 5000), st.integers(1, 30))
    def test_reconstruction_identity(self, seed, steps):
        m = 2 * seed + 1
        traj = trajectory(COLLATZ, m, steps)
        q, r, p = COLLATZ.q, COLLATZ.r, COLLATZ.p
        for prev, cur, e in zip(traj.values, traj.values[1:], traj.exponents):
            assert cur * p**e == (q - 1) * prev + r
            assert cur % p != 0


class TestExtractPattern:
    def test_classic_zigzag(self):
        rle = extract_pattern(COLLATZ, 27, 8)
        assert rle.leading_direction == "increasing"
        assert rle.runs == (1, 1, 4, 2)
        assert rle.truncated

    def test_leading_decrease(self):
        rle = extract_pattern(COLLATZ, 9, 1)
        assert rle.leading_direction == "decreasing"
        assert rle.runs == (1,)
        assert rle.truncated

    def test_fixed_point(self):
        rle = extract_pattern(COLLATZ, 1, 3)
        assert rle.leading_direction == "fixed"
        assert rle.runs == ()
        assert not rle.truncated

    def test_complete_when_fixed_point_reached(self):
        rle = extract_pattern(COLLATZ, 3, 10)
        assert rle.leading_direction == "increasing"
        assert rle.runs == (1, 1)  # 3 < 5 > 1, then fixed
        assert not rle.truncated

    def test_zero_step_budget_is_flagged(self):
        rle = extract_pattern(COLLATZ, 27, 0)
        assert rle.leading_direction == "fixed"
        assert rle.runs == ()
        assert rle.truncated


class TestVerifyPattern:
    def test_up_down(self):
        assert verify_pattern(COLLATZ, 27, Pattern((1, 1))) == (True, None)

    def test_small_witness(self):
        assert verify_pattern(COLLATZ, 3, Pattern((1, 1))) == (True, None)

    def test_failure_reports_first_bad_step(self):
        # 19 < 29 > 11, then 17 > 11 breaks the second decrease at step 2
        result = verify_pattern(COLLATZ, 19, Pattern((1, 2)))
        assert result == (False, 2)

    def test_prefix_semantics(self):
        # the trajectory continues after the pattern, which never hurts
        assert verify_pattern(COLLATZ, 27, Pattern((2,))).ok is False
        assert verify_pattern(COLLATZ, 27, Pattern((1,))).ok is True

    def test_fixed_point_fails_immediately(self):
        assert verify_pattern(COLLATZ, 1, Pattern((1,))) == (False, 0)

    def test_rejects_invalid_start(self):
        with pytest.raises(ValueError, match="divisible"):
            verify_pattern(COLLATZ, 4, Pattern((1,)))

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError, match="at least one run"):
            verify_pattern(COLLATZ, 27, Pattern(()))

    @settings(max_examples=300)
    @given(
        st.integers(1, 50_000),
        st.lists(st.integers(1, 4), min_size=1, max_size=4),
    )
    def test_duality_with_extraction(self, seed, runs):
        # a pattern holds exactly when extraction over its total step count
        # reproduces the run lengths verbatim, starting upward
        m = 2 * seed + 1
        pattern = Pattern(tuple(runs))
        rle = extract_pattern(COLLATZ, m, pattern.total_steps)
        expected = rle.leading_direction == "increasing" and rle.runs == pattern.runs
        assert verify_pattern(COLLATZ, m, pattern).ok == expected


class TestVerifyCollatzRunJumps:
    @settings(max_examples=500)
    @given(collatz_cases())
    def test_agrees_with_step_oracle(self, case):
        m, runs = case
        assert verify_pattern(COLLATZ, m, Pattern(tuple(runs))) == step_oracle(COLLATZ, m, runs)

    @pytest.mark.parametrize(
        "m,runs,expected",
        [
            (1, (1,), (False, 0)),
            (5, (1,), (False, 0)),
            (2**40 - 1, (39,), (True, None)),
            (2**40 - 1, (40,), (False, 39)),
            # 2 * 3**3 - 1 = 53: 53 - 1 has two factors of 2, 53 -> 5 -> 1
            (15, (3, 2), (True, None)),
            (15, (3, 3), (False, 5)),
            (rise_then_fall(3, 41, 0), (3, 20), (True, None)),
            (rise_then_fall(3, 41, 0), (3, 21), (False, 23)),
        ],
    )
    def test_edge_cases(self, m, runs, expected):
        assert verify_pattern(COLLATZ, m, Pattern(runs)) == expected
        assert step_oracle(COLLATZ, m, runs) == expected

    def test_long_fall_is_jumped_not_stepped(self, monkeypatch):
        # a forged fall divides out exactly 2**2 at every step, so the fall
        # jump crosses all 500 steps; a step-by-step walk calls collatz 500 times
        m = forge(Pattern((1, 500))).m
        calls = []
        monkeypatch.setattr(dynamics, "collatz", lambda x: calls.append(x) or collatz(x))
        assert verify_pattern(COLLATZ, m, Pattern((1, 500))) == (True, None)
        assert calls == []

    @pytest.mark.parametrize("runs", [(16000,), (3000,) * 6])
    def test_long_forged_witnesses(self, runs):
        # one oracle walk one step past the pattern proves the witness too
        witness = forge(Pattern(runs))
        longer = runs[:-1] + (runs[-1] + 1,)
        expected = step_oracle(COLLATZ, witness.m, longer)
        assert expected.ok or expected.failure_index == sum(runs)
        assert verify_pattern(COLLATZ, witness.m, Pattern(longer)) == expected
        assert verify_pattern(COLLATZ, witness.m, Pattern(runs)) == (True, None)


class TestSegments:
    @pytest.mark.parametrize(
        "v,w,expected",
        [(1, 7, (27, 41)), (2, 5, (39, 59, 89)), (1, 1, (3, 5))],
    )
    def test_increasing_examples(self, v, w, expected):
        assert increasing_segment(v, w) == expected

    @pytest.mark.parametrize(
        "v,w,expected",
        [(1, 5, (41, 31)), (1, 11, (89, 67)), (2, 1, (33, 25, 19))],
    )
    def test_decreasing_examples(self, v, w, expected):
        assert decreasing_segment(v, w) == expected

    def test_general_examples(self):
        assert general_segment(COLLATZ, 1, 5) == (41, 31)
        assert general_segment(P3, 2, 2) == (55, 37, 25)
        assert general_segment(COLLATZ, 1, 1) == (9, 7)

    def test_rejects_even_multiplier(self):
        with pytest.raises(ValueError, match="odd"):
            increasing_segment(2, 4)
        with pytest.raises(ValueError, match="odd"):
            decreasing_segment(2, 4)

    def test_rejects_multiplier_divisible_by_p(self):
        with pytest.raises(ValueError, match="divisible"):
            general_segment(P3, 2, 6)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError, match="v must be"):
            increasing_segment(0, 3)

    def test_increasing_matches_iteration(self):
        for v in range(1, 7):
            for w in range(1, 22, 2):
                seg = increasing_segment(v, w)
                assert all(x < y for x, y in zip(seg, seg[1:]))
                cur = seg[0]
                for expected in seg[1:]:
                    nxt, e = step(COLLATZ, cur)
                    assert (nxt, e) == (expected, 1)
                    cur = nxt

    def test_decreasing_matches_iteration(self):
        for v in range(1, 7):
            for w in range(1, 22, 2):
                seg = decreasing_segment(v, w)
                assert all(x > y for x, y in zip(seg, seg[1:]))
                cur = seg[0]
                for expected in seg[1:]:
                    nxt, e = step(COLLATZ, cur)
                    assert (nxt, e) == (expected, 2)
                    cur = nxt

    def test_general_matches_iteration_and_ratio(self):
        for p, ell in ((2, 1), (2, 2), (3, 1), (5, 1)):
            q = p**ell
            for r in {1, q - 1}:
                params = DynamicsParams(p=p, ell=ell, r=r)
                for v in range(1, 5):
                    for w in range(1, 16):
                        if w % p == 0:
                            continue
                        seg = general_segment(params, v, w)
                        assert seg[0] == p * q**v * w + r
                        cur = seg[0]
                        for expected in seg[1:]:
                            nxt = step(params, cur).next
                            assert nxt == expected
                            assert Fraction(nxt - r, cur - r) == Fraction(q - 1, q)
                            cur = nxt
