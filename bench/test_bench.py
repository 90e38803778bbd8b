"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from collatz_zigzag import cli  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(workload):
    ops = workloads.generate(workload, 5)
    assert ops == workloads.generate(workload, 5)
    assert ops != workloads.generate(workload, 6)
    assert len(ops) == workloads.LIST_LENGTH[workload]
    assert all(isinstance(a, str) for _, argv in ops for a in argv)


def test_generator_stays_in_stated_ranges():
    for _, argv in workloads.generate("forge-zigzag", 3):
        runs = [int(v) for v in argv[1].split(",")]
        assert 100 <= len(runs) <= 1200 and set(runs) <= {1, 2, 3, 4}
    for i, (_, argv) in enumerate(workloads.generate("forge-tall", 3)):
        runs = [int(v) for v in argv[1].split(",")]
        if i == 0 or i % 20 == 19:
            assert len(runs) == 1 and 8000 <= runs[0] <= 16000
        else:
            assert 1 <= len(runs) <= 6 and all(300 <= v <= 3000 for v in runs)


SMALL_OPS = [
    ("forge", ["forge", "3,1,2", "--json"]),
    ("verify", ["verify", "495", "3,1,2", "--json"]),
    ("verify", ["verify", "3", "1,3", "--json"]),
    ("minimal", ["minimal", "1,1,1", "--bound", "1001", "--json"]),
    ("minimal", ["minimal", "3,3,3,3", "--bound", "101", "--json"]),
    ("scan", ["scan", "--max-m", "301", "--steps", "12", "--json"]),
    ("trace", ["trace", "19", "--steps", "30", "--p", "2", "--ell", "2", "--r", "5", "--json"]),
    ("trace", ["trace", "7", "--steps", "40", "--p", "3", "--ell", "2", "--r", "2", "--json"]),
]


@pytest.mark.parametrize("kind,argv", SMALL_OPS)
def test_oracle_accepts_the_program_on_small_ops(kind, argv):
    code, out = run_cli(argv)
    digests, problems = checks.check(kind, argv, code, out, None)
    assert problems == []
    assert checks.check(kind, argv, code, out, {"exit": code, "fields": digests})[1] == []


def test_gate_rejects_a_corrupted_record():
    argv = ["forge", "3,1,2", "--json"]
    code, out = run_cli(argv)
    expected = {"exit": code, "fields": checks.output_digests(out)}
    record = json.loads(out)
    record["result"]["w"][1] = str(int(record["result"]["w"][1]) + 2)
    corrupted = json.dumps(record)
    assert checks.gate(expected, code, checks.output_digests(corrupted)) == [
        "field result.w differs from the recorded answer"
    ]
    # the oracle proves the corrupted witness wrong without the recording
    assert checks.check("forge", argv, code, corrupted, None)[1]


def test_gate_rejects_an_unexpected_exit_code():
    argv = ["verify", "495", "3,1,2", "--json"]
    code, out = run_cli(argv)
    expected = {"exit": code, "fields": checks.output_digests(out)}
    assert checks.gate(expected, 3, checks.output_digests(out)) == [
        "exit code 3, recorded 0"
    ]
    assert checks.check("verify", argv, 3, out, None)[1]


def test_gate_allows_additive_keys_but_not_missing_ones():
    argv = ["trace", "27", "--steps", "8", "--json"]
    code, out = run_cli(argv)
    expected = {"exit": code, "fields": checks.output_digests(out)}
    record = json.loads(out)
    record["stats"] = {"steps": "8"}
    record["result"]["cycle"] = None
    assert checks.check("trace", argv, code, json.dumps(record), expected)[1] == []
    del record["result"]["exponents"]
    assert checks.gate(expected, code, checks.field_digests(record))


def test_self_time_on_a_toy_call_tree():
    # root 0..10 holds a 1..8, which holds b 3..4 and b 5..6; a second
    # root runs 11..12
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 11.0, 12.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    root = t.open("root")
    a = t.open("a")
    t.close(t.open("b"))
    t.close(t.open("b"))
    t.close(a)
    t.close(root)
    t.close(t.open("root"))
    assert t.parents == [-1, 0, 1, 1, -1]
    assert t.self_times() == {"root": 4.0, "a": 5.0, "b": 2.0}


def test_install_wraps_every_lookup_and_reports_absent_functions():
    def parse_pattern(text):
        return text.split(",")

    patterns = types.ModuleType("patterns")
    patterns.parse_pattern = parse_pattern
    caller = types.ModuleType("cli")
    caller.parse_pattern = parse_pattern
    caller.main = lambda argv: len(caller.parse_pattern(argv[0]))
    t = tracing.Tracer()
    absent, patches = tracing.install(t, {"patterns": patterns, "cli": caller})
    assert "forge.build_system" in absent and "patterns.parse_pattern" not in absent
    assert caller.main(["1,2,3"]) == 3
    assert t.names == ["cli.main", "patterns.parse_pattern"]
    assert t.parents == [-1, 0]
    tracing.set_traced(patches, False)
    assert caller.parse_pattern is parse_pattern and patterns.parse_pattern is parse_pattern
