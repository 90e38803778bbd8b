"""The benchmark's tracer (``bench/tracer.py``) still fits the package.

The tracer looks its targets up by name and prints ``absent: <name>`` for
one that is gone, so a rename would only show in a traced benchmark run.
These tests make it fail here instead.  ``bench/`` is only read.
"""

import contextlib
import importlib
import io
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import tracer as tracing  # noqa: E402
from collatz_zigzag import cli  # noqa: E402


def test_every_target_resolves():
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"collatz_zigzag.{layer}"), name, None))
    ]
    assert missing == []


def test_counters_read_what_the_targets_return():
    modules = {
        name.rpartition(".")[2]: module
        for name, module in list(sys.modules.items())
        if name == "collatz_zigzag" or name.startswith("collatz_zigzag.")
    }
    t = tracing.Tracer()
    absent, patches = tracing.install(t, modules)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["forge", "3,1,2", "--json"]) == 0
    finally:
        tracing.set_traced(patches, False)
    assert absent == []
    # forge 3,1,2 has the kernel (16, 108, 81) and the witness 495
    assert t.sums["kernel_bits"] == 7
    assert t.sums["witness_bits"] == 9
