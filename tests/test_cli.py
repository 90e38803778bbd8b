"""Command-line surface: output formats, exit codes, and round-trips."""

import json
import subprocess
import sys

import pytest

from collatz_zigzag import cli
from collatz_zigzag.forge import InternalVerificationError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert err == ""
    record = json.loads(out)
    assert record["schema_version"] == 1
    return code, record


class TestForgeCommand:
    def test_human_output(self, capsys):
        code, out, err = run_cli(capsys, "forge", "1,1")
        assert code == 0
        assert "m: 27" in out
        assert "w: 7,5" in out
        assert "boundaries: 27,41,31" in out
        assert "verified: true" in out

    def test_single_run(self, capsys):
        code, out, _ = run_cli(capsys, "forge", "3")
        assert code == 0
        assert "m: 15" in out

    def test_json_record(self, capsys):
        code, record = run_json(capsys, "forge", "1,1,1")
        assert code == 0
        assert record["command"] == "forge"
        assert record["inputs"] == {"pattern": ["1", "1", "1"]}
        assert record["result"]["m"] == "59"
        assert record["result"]["w"] == ["15", "11", "17"]
        assert record["result"]["verified"] is True

    def test_malformed_pattern_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "forge", "0,2")
        assert code == 1
        assert "run length must be >= 1" in err

    def test_internal_failure_exits_2(self, capsys, monkeypatch):
        def broken(pattern):
            raise InternalVerificationError("forced for the test")

        monkeypatch.setattr(cli, "forge", broken)
        code, _, err = run_cli(capsys, "forge", "1,1")
        assert code == 2
        assert "internal verification failure" in err


class TestVerifyCommand:
    def test_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "3", "1,1")
        assert code == 0
        assert "ok: true" in out

    def test_failure_exits_3(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "19", "1,2")
        assert code == 3
        assert "ok: false" in out
        assert "failure_index: 2" in out

    def test_json_failure(self, capsys):
        code, record = run_json(capsys, "verify", "19", "1,2")
        assert code == 3
        assert record["result"] == {"ok": False, "failure_index": "2"}

    def test_even_m_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "verify", "4", "1,1")
        assert code == 1
        assert "m must be odd" in err

    def test_nonpositive_m_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "verify", "-3", "1,1")
        assert code == 1
        assert "m must be positive" in err


class TestTraceCommand:
    def test_collatz_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "27", "--steps", "8")
        assert code == 0
        assert "values: 27,41,31,47,71,107,161,121,91" in out
        assert "runs: 1,1,4,2" in out
        assert "truncated: true" in out

    def test_fixed_point_stops(self, capsys):
        code, record = run_json(capsys, "trace", "1", "--steps", "5")
        assert code == 0
        assert record["result"]["values"] == ["1"]
        assert record["result"]["hit_fixed_point"] is True
        assert record["result"]["pattern"]["leading_direction"] == "fixed"

    def test_generalized_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "55", "--steps", "2", "--p", "3", "--ell", "1", "--r", "1"
        )
        assert code == 0
        assert "values: 55,37,25" in out

    def test_m_in_wrong_domain_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "trace", "4", "--steps", "3")
        assert code == 1
        assert "divisible" in err

    def test_composite_p_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "trace", "5", "--steps", "3", "--p", "9", "--ell", "1")
        assert code == 1
        assert "not prime" in err

    def test_negative_steps_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "trace", "27", "--steps", "-1")
        assert code == 1
        assert "steps must be nonnegative" in err


class TestMinimalCommand:
    def test_finds_small_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, "minimal", "1,1")
        assert code == 0
        assert "m: 3" in out
        code, out, _ = run_cli(capsys, "minimal", "1,1,1")
        assert code == 0
        assert "m: 19" in out

    def test_none_still_exits_0(self, capsys):
        code, record = run_json(capsys, "minimal", "50", "--bound", "100")
        assert code == 0
        assert record["result"]["m"] is None

    def test_bad_bound_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "minimal", "1,1", "--bound", "0")
        assert code == 1
        assert "bound" in err


class TestScanCommand:
    def test_small_range(self, capsys):
        code, record = run_json(capsys, "scan", "--max-m", "9", "--steps", "3")
        assert code == 0
        counts = {
            (entry["direction"], entry["first_run"]): int(entry["count"])
            for entry in record["result"]["counts"]
        }
        # m=1 fixed, m=3 up(1), m=5 down(1), m=7 up(2), m=9 down(1)
        assert counts == {
            ("fixed", None): 1,
            ("increasing", "1"): 1,
            ("increasing", "2"): 1,
            ("decreasing", "1"): 2,
        }
        assert record["result"]["total"] == "5"

    def test_fixed_point_only(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--max-m", "1", "--steps", "1")
        assert code == 0
        assert "fixed: 1" in out

    def test_ordering_is_deterministic(self, capsys):
        _, record = run_json(capsys, "scan", "--max-m", "199", "--steps", "6")
        keys = [(e["direction"], int(e["first_run"] or 0)) for e in record["result"]["counts"]]
        assert keys == sorted(keys)

    def test_bad_range_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--max-m", "0", "--steps", "3")
        assert code == 1
        assert "max-m" in err


class TestDigitLimit:
    # the interpreter caps int<->str conversion; lowering the cap here lets
    # small integers cross it

    @pytest.fixture
    def limit_5000(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(saved)

    def test_result_over_the_limit_exits_1(self, capsys, limit_5000):
        code, out, err = run_cli(capsys, "forge", "20000", "--json")
        assert (code, out) == (1, "")
        assert err == "error: a result exceeds the interpreter's limit of 5000 decimal digits\n"

    def test_input_over_the_limit_exits_1(self, capsys, limit_5000):
        m = "1" * 6001
        code, out, err = run_cli(capsys, "verify", m, "1")
        assert (code, out) == (1, "")
        assert err == (
            "error: the integer argument exceeds the interpreter's limit of 5000 decimal digits\n"
        )

    def test_invalid_integer_is_still_named(self, capsys, limit_5000):
        code, _, err = run_cli(capsys, "trace", "27x")
        assert code == 1
        assert "invalid integer '27x'" in err


# (argv, exit code, exact stdout) of every example in the README, human and JSON
README_EXAMPLES = [
    (["forge", "1,1"], 0, "m: 27\nw: 7,5\nboundaries: 27,41,31\nverified: true\n"),
    (["verify", "19", "1,2"], 3, "ok: false\nfailure_index: 2\n"),
    (["verify", "3", "1,1"], 0, "ok: true\n"),
    (
        ["trace", "27", "--steps", "8"],
        0,
        "values: 27,41,31,47,71,107,161,121,91\n"
        "exponents: 1,2,1,1,1,1,2,2\n"
        "leading_direction: increasing\n"
        "runs: 1,1,4,2\n"
        "truncated: true\n"
        "hit_fixed_point: false\n",
    ),
    (["minimal", "1,1,1"], 0, "m: 19\n"),
    (["minimal", "50", "--bound", "100"], 0, "m: none\n"),
    (
        ["scan", "--max-m", "9", "--steps", "3"],
        0,
        "total: 5\ndecreasing 1: 2\nfixed: 1\nincreasing 1: 1\nincreasing 2: 1\n",
    ),
    # the same examples with --json: key order and spacing are part of the record
    (
        ["forge", "1,1", "--json"],
        0,
        '{"schema_version": 1, "command": "forge", "inputs": {"pattern": ["1", "1"]}, '
        '"result": {"m": "27", "w": ["7", "5"], "boundaries": ["27", "41", "31"], '
        '"verified": true}}\n',
    ),
    (
        ["verify", "19", "1,2", "--json"],
        3,
        '{"schema_version": 1, "command": "verify", "inputs": {"m": "19", "pattern": ["1", "2"]}, '
        '"result": {"ok": false, "failure_index": "2"}}\n',
    ),
    (
        ["verify", "3", "1,1", "--json"],
        0,
        '{"schema_version": 1, "command": "verify", "inputs": {"m": "3", "pattern": ["1", "1"]}, '
        '"result": {"ok": true, "failure_index": null}}\n',
    ),
    (
        ["trace", "27", "--steps", "8", "--json"],
        0,
        '{"schema_version": 1, "command": "trace", '
        '"inputs": {"m": "27", "steps": "8", "p": "2", "ell": "2", "r": "1"}, '
        '"result": {"values": ["27", "41", "31", "47", "71", "107", "161", "121", "91"], '
        '"exponents": ["1", "2", "1", "1", "1", "1", "2", "2"], '
        '"pattern": {"leading_direction": "increasing", "runs": ["1", "1", "4", "2"], '
        '"truncated": true}, "hit_fixed_point": false}}\n',
    ),
    (
        ["minimal", "1,1,1", "--json"],
        0,
        '{"schema_version": 1, "command": "minimal", '
        '"inputs": {"pattern": ["1", "1", "1"], "bound": "1000000"}, "result": {"m": "19"}}\n',
    ),
    (
        ["minimal", "50", "--bound", "100", "--json"],
        0,
        '{"schema_version": 1, "command": "minimal", '
        '"inputs": {"pattern": ["50"], "bound": "100"}, "result": {"m": null}}\n',
    ),
    (
        ["scan", "--max-m", "9", "--steps", "3", "--json"],
        0,
        '{"schema_version": 1, "command": "scan", "inputs": {"max_m": "9", "steps": "3"}, '
        '"result": {"total": "5", "counts": ['
        '{"direction": "decreasing", "first_run": "1", "count": "2"}, '
        '{"direction": "fixed", "first_run": null, "count": "1"}, '
        '{"direction": "increasing", "first_run": "1", "count": "1"}, '
        '{"direction": "increasing", "first_run": "2", "count": "1"}]}}\n',
    ),
]


@pytest.mark.parametrize(
    "argv,code,stdout", README_EXAMPLES, ids=[" ".join(argv) for argv, _, _ in README_EXAMPLES]
)
def test_human_output_is_exact(capsys, argv, code, stdout):
    assert run_cli(capsys, *argv) == (code, stdout, "")


class TestUsageErrors:
    def test_unknown_command_exits_1(self, capsys):
        assert cli.main(["bogus"]) == 1

    def test_missing_arguments_exit_1(self, capsys):
        assert cli.main(["forge"]) == 1

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_leaves_the_shared_parser_clean(self, capsys):
        assert cli.main(["forge"]) == 1
        capsys.readouterr()
        argv, code, stdout = README_EXAMPLES[0]
        assert run_cli(capsys, *argv) == (code, stdout, "")

    def test_no_arguments_exit_1(self, capsys):
        assert cli.main([]) == 1


class TestRoundTrips:
    def test_forge_then_verify(self, capsys):
        code, record = run_json(capsys, "forge", "2,3,1,4")
        assert code == 0
        m = record["result"]["m"]
        code, _, _ = run_cli(capsys, "verify", m, "2,3,1,4")
        assert code == 0

    @pytest.mark.parametrize(
        "pattern",
        ["1", "9", "1,1", "4,4", "1,2,3", "3,1,3,1", "2,2,2,2,2", "10,1,10,1,10", "1,1,1,1,1,1,1"],
    )
    def test_forged_witness_always_verifies(self, capsys, pattern):
        code, record = run_json(capsys, "forge", pattern)
        assert code == 0
        assert cli.main(["verify", record["result"]["m"], pattern]) == 0
        capsys.readouterr()

    def test_forge_output_feeds_trace(self, capsys):
        runs = ",".join(["7"] * 10)
        code, record = run_json(capsys, "forge", runs)
        assert code == 0
        m = record["result"]["m"]
        assert int(m) > 2**64  # past native float/int64 territory
        code, traced = run_json(capsys, "trace", m, "--steps", "56")
        assert code == 0
        assert traced["result"]["values"][0] == m
        assert traced["result"]["pattern"]["runs"][:7] == ["7"] * 7

    def test_ten_thousand_digit_integers_survive(self, capsys):
        m = 10**9999 + 1  # odd, 10^4 decimal digits
        code, record = run_json(capsys, "trace", str(m), "--steps", "1")
        assert code == 0
        values = record["result"]["values"]
        assert values[0] == str(m)
        expected, e = divmod_collatz(m)
        assert int(values[1]) == expected
        assert record["result"]["exponents"] == [str(e)]


def divmod_collatz(m):
    t = 3 * m + 1
    e = 0
    while t % 2 == 0:
        t //= 2
        e += 1
    return t, e


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "collatz_zigzag", "forge", "1,1", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["result"]["m"] == "27"

    def test_module_invocation_error_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "collatz_zigzag", "verify", "19", "1,2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
