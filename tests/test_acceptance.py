"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import time
from contextlib import contextmanager
from itertools import product

from collatz_zigzag import cli
from collatz_zigzag.chains import (
    ChainSystem,
    apply,
    kernel_primitive,
    solve_odd_positive,
)
from collatz_zigzag.dynamics import (
    COLLATZ,
    DynamicsParams,
    decreasing_segment,
    extract_pattern,
    general_segment,
    increasing_segment,
    step,
    verify_pattern,
)
from collatz_zigzag.forge import build_system, forge, minimal_witness
from collatz_zigzag.patterns import Pattern
from oracles import corner_minor_certificate, dense_matrix, smith_normal_form

from fractions import Fraction
import math


@contextmanager
def report(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_all_small_patterns_forge_and_verify():
    """Every pattern with at most 5 runs of length 1..4 gets a verified
    witness, re-checked by exact iteration, within 60 seconds."""
    with report(1, "1364 small patterns forge and verify by exact iteration"):
        start = time.perf_counter()
        count = 0
        for length in range(1, 6):
            for runs in product(range(1, 5), repeat=length):
                pattern = Pattern(runs)
                witness = forge(pattern)
                assert witness.verified
                # independent re-check: walk the trajectory run by run
                cur = witness.m
                for seg, v in enumerate(pattern.runs):
                    for _ in range(v):
                        nxt = step(COLLATZ, cur).next
                        assert nxt > cur if seg % 2 == 0 else nxt < cur
                        cur = nxt
                count += 1
        elapsed = time.perf_counter() - start
        assert count == 1364
        assert elapsed < 60.0, f"took {elapsed:.1f}s, target < 60s"


def test_criterion_2_canonical_outputs():
    """The deterministic sweep and lift produce the frozen canonical
    witnesses."""
    with report(2, "canonical witnesses 27, 59, 39 with their multipliers"):
        w1 = forge(Pattern((1, 1)))
        assert (w1.m, w1.w) == (27, (7, 5))
        w2 = forge(Pattern((1, 1, 1)))
        assert (w2.m, w2.w) == (59, (15, 11, 17))
        w3 = forge(Pattern((2, 1)))
        assert (w3.m, w3.w) == (39, (5, 11))
        for witness in (w1, w2, w3):
            assert verify_pattern(COLLATZ, witness.m, witness.pattern).ok


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _collatz_local(m):
    # deliberately independent of the library's implementations
    t = 3 * m + 1
    while t % 2 == 0:
        t //= 2
    return t


def _scan_local(runs, bound):
    for m in range(1, bound + 1, 2):
        cur, ok = m, True
        for seg, v in enumerate(runs):
            for _ in range(v):
                nxt = _collatz_local(cur)
                if (nxt <= cur) if seg % 2 == 0 else (nxt >= cur):
                    ok = False
                    break
                cur = nxt
            if not ok:
                break
        if ok:
            return m
    return None


def test_criterion_3_minimal_witness_matches_independent_scan():
    """Brute-force minimal witnesses agree with a from-scratch scan for all
    patterns whose runs sum to at most 7, at bound 10**6."""
    with report(3, "minimal witnesses match an independent scan (sum <= 7)"):
        bound = 10**6
        checked = 0
        for total in range(1, 8):
            for runs in _compositions(total):
                found = minimal_witness(Pattern(runs), bound)
                expected = _scan_local(runs, bound)
                assert found == expected, (runs, found, expected)
                assert found is not None
                assert verify_pattern(COLLATZ, found, Pattern(runs)).ok
                checked += 1
        assert checked == 127
        assert minimal_witness(Pattern((1, 1)), bound) == 3
        assert minimal_witness(Pattern((1, 1, 1)), bound) == 19


def test_criterion_4_segment_closed_form_equivalence():
    """Closed-form rise/fall segments match exact iteration on the full
    grids, with the stated per-step exponents and contraction ratio."""
    with report(4, "segment closed forms match iteration on the full grids"):
        for v in range(1, 13):
            for w in range(1, 52, 2):
                seg = increasing_segment(v, w)
                assert seg[0] == 2 * 2**v * w - 1
                cur = seg[0]
                for expected in seg[1:]:
                    nxt, e = step(COLLATZ, cur)
                    assert (nxt, e) == (expected, 1)
                    cur = nxt
                seg = decreasing_segment(v, w)
                assert seg[0] == 2 * 4**v * w + 1
                cur = seg[0]
                for expected in seg[1:]:
                    nxt, e = step(COLLATZ, cur)
                    assert (nxt, e) == (expected, 2)
                    cur = nxt
        for p, ell in ((2, 1), (2, 2), (3, 1), (5, 1)):
            q = p**ell
            for r in sorted({1, q - 1}):
                params = DynamicsParams(p=p, ell=ell, r=r)
                for v in range(1, 9):
                    for w in range(1, 31):
                        if w % p == 0:
                            continue
                        seg = general_segment(params, v, w)
                        assert seg[0] == p * q**v * w + r
                        assert all(x > y for x, y in zip(seg, seg[1:]))
                        cur = seg[0]
                        for expected in seg[1:]:
                            nxt = step(params, cur).next
                            assert nxt == expected
                            assert Fraction(nxt - r, cur - r) == Fraction(q - 1, q)
                            cur = nxt


def test_criterion_5_kernel_structure_on_random_systems():
    """500 random valid systems: kernel exactness, primitivity, positivity,
    parity; lifted solutions exact, odd positive, minimal shift."""
    with report(5, "kernel and lift structure on 500 random systems"):
        rng = random.Random(0xC011A72)
        for trial in range(500):
            n = rng.randint(1, 8)
            coeff_a = tuple(rng.randrange(1, 3**20, 2) for _ in range(n))
            if trial % 2 == 0:
                coeff_b = tuple(2 ** rng.randint(1, 20) for _ in range(n))
            else:
                # general even magnitudes, resampled until pairwise coprime
                coeff_b = []
                for _ in range(n):
                    while True:
                        candidate = 2 * rng.randint(1, 2**19)
                        if all(math.gcd(a, candidate) == 1 for a in coeff_a):
                            coeff_b.append(candidate)
                            break
                coeff_b = tuple(coeff_b)
            rhs = tuple(rng.choice((-1, 1)) * rng.randrange(1, 2000, 2) for _ in range(n))
            system = ChainSystem(coeff_a, coeff_b, rhs)

            z = kernel_primitive(system)
            assert apply(system, z) == (0,) * n
            assert math.gcd(*z) == 1
            assert all(v > 0 for v in z)
            assert all(v % 2 == 0 for v in z[:-1]) and z[-1] % 2 == 1

            cert = solve_odd_positive(system)
            assert apply(system, cert.lifted) == rhs
            assert all(v > 0 and v % 2 == 1 for v in cert.lifted)
            if cert.shift:
                prev = tuple(l - zi for l, zi in zip(cert.lifted, z))
                assert any(v <= 0 for v in prev) or prev[-1] % 2 == 0


def test_criterion_6_snf_oracle_and_corner_minors():
    """100 random patterns with up to 7 runs: the junction matrix has all
    unit invariant factors and the corner minors match the coefficient
    products with gcd 1."""
    with report(6, "unit invariant factors and corner minors on 100 patterns"):
        rng = random.Random(0x5EED5)
        for _ in range(100):
            length = rng.randint(2, 7)
            runs = tuple(rng.randint(1, 4) for _ in range(length))
            system = build_system(Pattern(runs))
            n = system.n
            assert smith_normal_form(dense_matrix(system)) == (1,) * n
            cert = corner_minor_certificate(system)
            assert cert.det_drop_last == math.prod(system.coeff_a)
            sign = -1 if n % 2 else 1
            assert cert.det_drop_first == sign * math.prod(system.coeff_b)
            assert cert.coprime
            assert math.gcd(abs(cert.det_drop_first), cert.det_drop_last) == 1


def test_criterion_7_scale_smoke_and_json_round_trip(capsys):
    """A 20-run pattern with runs up to 10 forges in under 5 seconds,
    verifies, and its witness survives a JSON round trip."""
    with report(7, "20-run witness in < 5s with lossless JSON round trip"):
        rng = random.Random(0xB16)
        runs = tuple(rng.randint(1, 10) for _ in range(20))
        pattern = Pattern(runs)
        start = time.perf_counter()
        witness = forge(pattern)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, target < 5s"
        assert witness.verified
        digits = len(str(witness.m))
        assert digits > 20  # far past 64-bit and double precision

        pattern_arg = ",".join(str(v) for v in runs)
        assert cli.main(["forge", pattern_arg, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        m_string = record["result"]["m"]
        assert int(m_string) == witness.m
        assert json.loads(json.dumps(record)) == record
        assert cli.main(["verify", m_string, pattern_arg]) == 0
        capsys.readouterr()
        print(f"  (witness has {digits} decimal digits, forged in {elapsed * 1000:.0f} ms)")


def test_criterion_8_extraction_verification_duality():
    """On 10**4 random (m, pattern) pairs the pattern check agrees with the
    run-length comparison rule."""
    with report(8, "verification agrees with run-length extraction, 10^4 pairs"):
        rng = random.Random(0xD0A117)
        agreements = 0
        for _ in range(10**4):
            m = rng.randrange(1, 10**5, 2)
            budget = 12
            runs = []
            length = rng.randint(1, 6)
            for _ in range(length):
                cap = budget - (length - len(runs) - 1)
                if cap < 1:
                    break
                v = rng.randint(1, min(4, cap))
                runs.append(v)
                budget -= v
            pattern = Pattern(tuple(runs))
            rle = extract_pattern(COLLATZ, m, pattern.total_steps)
            by_rle = rle.leading_direction == "increasing" and rle.runs == pattern.runs
            assert verify_pattern(COLLATZ, m, pattern).ok == by_rle
            agreements += 1
        assert agreements == 10**4
