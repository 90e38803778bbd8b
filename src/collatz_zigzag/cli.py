"""Command-line interface.

Five subcommands: ``forge`` builds a witness for a pattern, ``verify``
checks a pattern against an integer, ``trace`` prints a trajectory with its
extracted pattern, ``minimal`` brute-forces the least witness, and ``scan``
histograms leading runs over a range.  Output is line-oriented
``key: value`` text, or with ``--json`` a stable one-line JSON record.
Integers appear as decimal strings in JSON so arbitrarily large witnesses
round-trip exactly.

Each subcommand's handler returns its exit code, its ``inputs`` and
``result`` dicts, and its human lines when they are not just the leaves of
``result``.  ``main`` alone wraps them in the ``schema_version`` /
``command`` / ``inputs`` / ``result`` record, prints it and maps exceptions
to exit codes.  The argument parser is built once per process, on first
use.

Exit codes: 0 success, 1 usage or validation error, 2 internal verification
failure, 3 pattern verification returned false.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .dynamics import (
    COLLATZ,
    DynamicsParams,
    _run_lengths,
    extract_pattern,
    trajectory,
    verify_pattern,
)
from .forge import InternalVerificationError, forge, minimal_witness, segment_boundaries
from .patterns import parse_pattern

# witnesses routinely exceed CPython's default 4300-digit cap on int<->str
# conversion; the whole point of this interface is printing and re-reading
# such integers losslessly
_INT_STR_DIGITS = 2_000_000
# the current cap; 0 means none, and int() gives 0 on interpreters without one
_digit_limit = getattr(sys, "get_int_max_str_digits", int)
if 0 < _digit_limit() < _INT_STR_DIGITS:
    sys.set_int_max_str_digits(_INT_STR_DIGITS)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_PATTERN_FALSE = 3

_DEFAULT_BOUND = 10**6


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for internal
    # verification failures here, so route usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _too_many_digits(what: str) -> ValueError:
    return ValueError(f"{what} exceeds the interpreter's limit of {_digit_limit()} decimal digits")


def _s(value: int) -> str:
    try:
        return str(value)
    except ValueError:
        raise _too_many_digits("a result") from None


def _seq(values) -> list[str]:
    return [_s(v) for v in values]


def _leaves(result: dict):
    """The ``(key, value)`` pairs of a result, nested dicts flattened in order."""
    for key, value in result.items():
        if isinstance(value, dict):
            yield from _leaves(value)
        else:
            yield key, value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        if len(text) > _digit_limit() > 0:
            raise _too_many_digits("the integer argument") from None
        raise ValueError(f"invalid integer {text!r}") from None


def _parse_odd_m(text: str) -> int:
    m = _parse_int(text)
    if m <= 0:
        raise ValueError("m must be positive")
    if m % 2 == 0:
        raise ValueError("m must be odd")
    return m


# Handlers return (exit code, inputs, result, human lines), the lines None
# when they are the leaves of result.


def _cmd_forge(args):
    pattern = parse_pattern(args.pattern)
    witness = forge(pattern)
    boundaries = _seq(segment_boundaries(witness))  # boundaries[0] is m
    result = {
        "m": boundaries[0],
        "w": _seq(witness.w),
        "boundaries": boundaries,
        "verified": witness.verified,
    }
    return EXIT_OK, {"pattern": _seq(pattern.runs)}, result, None


def _cmd_verify(args):
    m = _parse_odd_m(args.m)
    pattern = parse_pattern(args.pattern)
    found = verify_pattern(COLLATZ, m, pattern)
    failure_index = None if found.failure_index is None else _s(found.failure_index)
    inputs = {"m": _s(m), "pattern": _seq(pattern.runs)}
    result = {"ok": found.ok, "failure_index": failure_index}
    # a null failure_index is left out of the human lines
    lines = [("ok", found.ok)] if failure_index is None else None
    return (EXIT_OK if found.ok else EXIT_PATTERN_FALSE), inputs, result, lines


def _cmd_trace(args):
    params = DynamicsParams(p=args.p, ell=args.ell, r=args.r)
    traj = trajectory(params, _parse_int(args.m), args.steps)
    rle = _run_lengths(traj)
    values = _seq(traj.values)  # values[0] is m
    inputs = {
        "m": values[0],
        "steps": _s(args.steps),
        "p": _s(params.p),
        "ell": _s(params.ell),
        "r": _s(params.r),
    }
    result = {
        "values": values,
        "exponents": _seq(traj.exponents),
        "pattern": {
            "leading_direction": rle.leading_direction,
            "runs": _seq(rle.runs),
            "truncated": rle.truncated,
        },
        "hit_fixed_point": traj.hit_fixed_point,
    }
    return EXIT_OK, inputs, result, None


def _cmd_minimal(args):
    pattern = parse_pattern(args.pattern)
    found = minimal_witness(pattern, args.bound)
    inputs = {"pattern": _seq(pattern.runs), "bound": _s(args.bound)}
    return EXIT_OK, inputs, {"m": None if found is None else _s(found)}, None


def _cmd_scan(args):
    if args.max_m < 1:
        raise ValueError("max-m must be >= 1")
    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    counts: dict[tuple[str, Optional[int]], int] = {}
    for m in range(1, args.max_m + 1, 2):
        rle = extract_pattern(COLLATZ, m, args.steps)
        key = (rle.leading_direction, rle.runs[0] if rle.runs else None)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0))
    total = _s(sum(counts.values()))
    entries = [
        {"direction": d, "first_run": None if first is None else _s(first), "count": _s(count)}
        for (d, first), count in ordered
    ]
    lines = [("total", total)]
    for e in entries:
        key = e["direction"] if e["first_run"] is None else f"{e['direction']} {e['first_run']}"
        lines.append((key, e["count"]))
    inputs = {"max_m": _s(args.max_m), "steps": _s(args.steps)}
    return EXIT_OK, inputs, {"total": total, "counts": entries}, lines


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one; parsing leaves no state on it."""
    parser = _Parser(
        prog="collatz-zigzag",
        description="Forge and inspect rise/fall patterns of Collatz trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a one-line JSON record")

    p = sub.add_parser("forge", help="forge a witness realizing a pattern")
    p.add_argument("pattern", help="comma-separated run lengths, e.g. 1,2,1")
    add_json(p)
    p.set_defaults(handler=_cmd_forge)

    p = sub.add_parser("verify", help="check a pattern against an odd integer")
    p.add_argument("m", help="odd positive integer (decimal)")
    p.add_argument("pattern", help="comma-separated run lengths")
    add_json(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("trace", help="print a trajectory and its extracted pattern")
    p.add_argument("m", help="starting value (decimal, coprime to p)")
    p.add_argument("--steps", type=int, default=20, help="step budget (default 20)")
    p.add_argument("--p", type=int, default=2, help="prime p (default 2)")
    p.add_argument("--ell", type=int, default=2, help="exponent with q = p**ell (default 2)")
    p.add_argument("--r", type=int, default=1, help="fixed point r (default 1)")
    add_json(p)
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("minimal", help="least odd witness of a pattern by brute force")
    p.add_argument("pattern", help="comma-separated run lengths")
    p.add_argument("--bound", type=int, default=_DEFAULT_BOUND,
                   help=f"scan bound (default {_DEFAULT_BOUND})")
    add_json(p)
    p.set_defaults(handler=_cmd_minimal)

    p = sub.add_parser("scan", help="histogram leading runs over odd m up to a bound")
    p.add_argument("--max-m", type=int, required=True, dest="max_m",
                   help="largest odd start value to include")
    p.add_argument("--steps", type=int, required=True, help="step budget per value")
    add_json(p)
    p.set_defaults(handler=_cmd_scan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code, inputs, result, lines = args.handler(args)
    except InternalVerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        record = {"schema_version": SCHEMA_VERSION, "command": args.command,
                  "inputs": inputs, "result": result}
        print(json.dumps(record))
        return code
    # values are decimal strings, lists of them, booleans or None
    for key, value in _leaves(result) if lines is None else lines:
        if isinstance(value, list):
            value = ",".join(value)
        elif value is None or isinstance(value, bool):
            value = str(value).lower()
        print(f"{key}: {value}")
    return code


if __name__ == "__main__":
    sys.exit(main())
