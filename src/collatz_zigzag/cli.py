"""Command-line interface.

Five subcommands: ``forge`` builds a witness for a pattern, ``verify``
checks a pattern against an integer, ``trace`` prints a trajectory with its
extracted pattern, ``minimal`` brute-forces the least witness, and ``scan``
histograms leading runs over a range.  Output is line-oriented
``key: value`` text, or with ``--json`` a stable one-line JSON record.
Integers appear as decimal strings in JSON so arbitrarily large witnesses
round-trip exactly.

Exit codes: 0 success, 1 usage or validation error, 2 internal verification
failure, 3 pattern verification returned false.
"""

from __future__ import annotations

import argparse
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
if hasattr(sys, "set_int_max_str_digits"):
    if sys.get_int_max_str_digits() < _INT_STR_DIGITS:
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


def _s(value: int) -> str:
    return str(int(value))


def _seq(values) -> list[str]:
    return [_s(v) for v in values]


def _emit(record: dict, args, human_lines) -> None:
    if args.json:
        print(json.dumps(record))
    else:
        for key, value in human_lines:
            print(f"{key}: {value}")


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _parse_odd_m(text: str) -> int:
    try:
        m = int(text)
    except ValueError:
        raise ValueError(f"invalid integer {text!r}") from None
    if m <= 0:
        raise ValueError("m must be positive")
    if m % 2 == 0:
        raise ValueError("m must be odd")
    return m


def _cmd_forge(args) -> int:
    pattern = parse_pattern(args.pattern)
    witness = forge(pattern)
    boundaries = segment_boundaries(witness)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "forge",
        "inputs": {"pattern": _seq(pattern.runs)},
        "result": {
            "m": _s(witness.m),
            "w": _seq(witness.w),
            "boundaries": _seq(boundaries),
            "verified": witness.verified,
        },
    }
    _emit(
        record,
        args,
        [
            ("m", witness.m),
            ("w", _join(witness.w)),
            ("boundaries", _join(boundaries)),
            ("verified", "true" if witness.verified else "false"),
        ],
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    m = _parse_odd_m(args.m)
    pattern = parse_pattern(args.pattern)
    result = verify_pattern(COLLATZ, m, pattern)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "inputs": {"m": _s(m), "pattern": _seq(pattern.runs)},
        "result": {
            "ok": result.ok,
            "failure_index": None if result.failure_index is None else _s(result.failure_index),
        },
    }
    lines = [("ok", "true" if result.ok else "false")]
    if result.failure_index is not None:
        lines.append(("failure_index", result.failure_index))
    _emit(record, args, lines)
    return EXIT_OK if result.ok else EXIT_PATTERN_FALSE


def _cmd_trace(args) -> int:
    params = DynamicsParams(p=args.p, ell=args.ell, r=args.r)
    try:
        m = int(args.m)
    except ValueError:
        raise ValueError(f"invalid integer {args.m!r}") from None
    if args.steps < 0:
        raise ValueError("steps must be nonnegative")
    traj = trajectory(params, m, args.steps)
    rle = _run_lengths(traj)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "trace",
        "inputs": {
            "m": _s(m),
            "steps": _s(args.steps),
            "p": _s(params.p),
            "ell": _s(params.ell),
            "r": _s(params.r),
        },
        "result": {
            "values": _seq(traj.values),
            "exponents": _seq(traj.exponents),
            "pattern": {
                "leading_direction": rle.leading_direction,
                "runs": _seq(rle.runs),
                "truncated": rle.truncated,
            },
            "hit_fixed_point": traj.hit_fixed_point,
        },
    }
    _emit(
        record,
        args,
        [
            ("values", _join(traj.values)),
            ("exponents", _join(traj.exponents)),
            ("leading_direction", rle.leading_direction),
            ("runs", _join(rle.runs)),
            ("truncated", "true" if rle.truncated else "false"),
            ("hit_fixed_point", "true" if traj.hit_fixed_point else "false"),
        ],
    )
    return EXIT_OK


def _cmd_minimal(args) -> int:
    pattern = parse_pattern(args.pattern)
    if args.bound < 1:
        raise ValueError("bound must be >= 1")
    found = minimal_witness(pattern, args.bound)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "minimal",
        "inputs": {"pattern": _seq(pattern.runs), "bound": _s(args.bound)},
        "result": {"m": None if found is None else _s(found)},
    }
    _emit(record, args, [("m", "none" if found is None else found)])
    return EXIT_OK


def _cmd_scan(args) -> int:
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
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "scan",
        "inputs": {"max_m": _s(args.max_m), "steps": _s(args.steps)},
        "result": {
            "total": _s(sum(counts.values())),
            "counts": [
                {
                    "direction": direction,
                    "first_run": None if first is None else _s(first),
                    "count": _s(count),
                }
                for (direction, first), count in ordered
            ],
        },
    }
    lines = [("total", sum(counts.values()))]
    for (direction, first), count in ordered:
        key = direction if first is None else f"{direction} {first}"
        lines.append((key, count))
    _emit(record, args, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except InternalVerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
