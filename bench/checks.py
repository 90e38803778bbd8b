"""Correctness checks for benchmark ops.

Two checks run on every op, both outside the timed region:

- an oracle that recomputes or proves the answer independently of the
  package: forged witnesses are proved through the closed-form rise and
  fall segments, and the walker commands are recomputed by plain loops;
- a gate that compares the exit code and every field of the JSON record
  with answers recorded once for the default and the held-out seed. Fields
  are compared by digest, one per leaf path, and only the paths recorded
  are compared, so a later version may add keys (``stats``, ``cycle``)
  without failing the gate. A seed with no recorded answers is reported as
  unchecked by the gate; the oracle still runs.
"""

from __future__ import annotations

import hashlib
import json

EXIT_OK = 0
EXIT_PATTERN_FALSE = 3


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def field_digests(record: dict, prefix: str = "") -> dict[str, str]:
    """One digest per leaf of a JSON record, keyed by its dotted path.
    Lists are leaves."""
    digests = {}
    for key, value in record.items():
        path = prefix + key
        if isinstance(value, dict):
            digests.update(field_digests(value, path + "."))
        else:
            # hashed chunk by chunk, so a list of huge integers is never
            # held as one more string
            digest = hashlib.sha256()
            for chunk in _ENCODER.iterencode(value):
                digest.update(chunk.encode())
            digests[path] = digest.hexdigest()[:16]
    return digests


def gate(expected: dict, code: int, digests: dict[str, str]) -> list[str]:
    """Problems of an op measured against its recorded answer."""
    problems = []
    if code != expected["exit"]:
        problems.append(f"exit code {code}, recorded {expected['exit']}")
    for path, digest in expected["fields"].items():
        if digests.get(path) != digest:
            problems.append(f"field {path} differs from the recorded answer")
    return problems


def _runs(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _forge(argv: list[str], record: dict) -> list[str]:
    # The witness is proved without iterating the map: run i with odd
    # multiplier w starts at 2*2**v*w - 1 when it rises and at 2*4**v*w + 1
    # when it falls, and ends at 2*3**v*w -/+ 1. Every junction value must
    # therefore be the end of one run and the start of the next.
    runs = _runs(argv[1])
    result = record["result"]
    if record["inputs"]["pattern"] != [str(v) for v in runs]:
        return ["inputs.pattern does not echo the pattern"]
    w = [int(v) for v in result["w"]]
    bounds = [int(v) for v in result["boundaries"]]
    if len(w) != len(runs) or len(bounds) != len(runs) + 1:
        return ["w or boundaries have the wrong length"]
    if any(wi < 1 or wi % 2 == 0 for wi in w):
        return ["a multiplier is not odd and positive"]
    if result["verified"] is not True or int(result["m"]) != bounds[0]:
        return ["m is not the first boundary or is not verified"]
    for i, (v, wi) in enumerate(zip(runs, w)):
        rising = i % 2 == 0
        start = 2 * 2**v * wi - 1 if rising else 2 * 4**v * wi + 1
        end = 2 * 3**v * wi + (-1 if rising else 1)
        if bounds[i] != start or bounds[i + 1] != end:
            return [f"run {i} does not start and end at the boundaries"]
    return []


def _collatz_path_ok(m: int, runs: list[int]) -> tuple[bool, int | None]:
    index = 0
    for seg, v in enumerate(runs):
        for _ in range(v):
            t = 3 * m + 1
            while t % 2 == 0:
                t //= 2
            if not (t > m if seg % 2 == 0 else t < m):
                return False, index
            m = t
            index += 1
    return True, None


def _verify(argv: list[str], code: int, record: dict) -> list[str]:
    ok, failure = _collatz_path_ok(int(argv[1]), _runs(argv[2]))
    want_code = EXIT_OK if ok else EXIT_PATTERN_FALSE
    result = record["result"]
    if code != want_code or result["ok"] is not ok:
        return [f"verify said ok={result['ok']} with exit {code}, oracle ok={ok}"]
    if result["failure_index"] != (None if failure is None else str(failure)):
        return ["failure_index differs from the oracle"]
    return []


def _minimal(argv: list[str], record: dict) -> list[str]:
    runs = _runs(argv[1])
    bound = int(argv[3])
    found = next((m for m in range(1, bound + 1, 2) if _collatz_path_ok(m, runs)[0]), None)
    if record["result"]["m"] != (None if found is None else str(found)):
        return [f"minimal gave {record['result']['m']}, oracle {found}"]
    return []


def _first_run(m: int, steps: int) -> tuple[str, int | None]:
    # The leading direction and the length of the first run, walking only
    # until the direction changes, the budget ends or 1 repeats.
    if m == 1:
        return "fixed", None
    direction, length = None, 0
    for _ in range(steps):
        t = 3 * m + 1
        while t % 2 == 0:
            t //= 2
        if t == m:
            break
        d = "increasing" if t > m else "decreasing"
        if direction not in (None, d):
            break
        direction, length, m = d, length + 1, t
    return direction, length


def _scan(argv: list[str], record: dict) -> list[str]:
    max_m, steps = int(argv[2]), int(argv[4])
    counts: dict[tuple, int] = {}
    for m in range(1, max_m + 1, 2):
        key = _first_run(m, steps)
        counts[key] = counts.get(key, 0) + 1
    want = sorted(
        (d, None if first is None else str(first), str(c))
        for (d, first), c in counts.items()
    )
    got = sorted(
        (c["direction"], c["first_run"], c["count"]) for c in record["result"]["counts"]
    )
    if got != want or record["result"]["total"] != str(sum(counts.values())):
        return ["scan histogram differs from the oracle"]
    return []


def _trace(argv: list[str], record: dict) -> list[str]:
    options = {"--steps": "20", "--p": "2", "--ell": "2", "--r": "1"}
    options.update(zip(argv[2::2], argv[3::2]))
    m, steps = int(argv[1]), int(options["--steps"])
    p, ell, r = int(options["--p"]), int(options["--ell"]), int(options["--r"])
    q = p**ell
    values, exponents, hit = [m], [], m == r
    while not hit and len(exponents) < steps:
        t, e = (q - 1) * values[-1] + r, 0
        while t % p == 0:
            t, e = t // p, e + 1
        if t == values[-1]:
            hit = True
        else:
            values.append(t)
            exponents.append(e)
    runs, directions = [], []
    for prev, cur in zip(values, values[1:]):
        d = "increasing" if cur > prev else "decreasing"
        if directions and directions[-1] == d:
            runs[-1] += 1
        else:
            directions.append(d)
            runs.append(1)
    result = record["result"]
    pattern = result["pattern"]
    same = (
        len(result["values"]) == len(values)
        and all(a == str(b) for a, b in zip(result["values"], values))
        and result["exponents"] == [str(e) for e in exponents]
        and pattern["leading_direction"] == (directions[0] if directions else "fixed")
        and pattern["runs"] == [str(v) for v in runs]
        and pattern["truncated"] is (not hit)
        and result["hit_fixed_point"] is hit
    )
    return [] if same else ["trace differs from the oracle"]


def oracle(kind: str, argv: list[str], code: int, record: dict) -> list[str]:
    """Problems found by checking one op's output independently."""
    if record.get("command") != kind:
        return [f"record is for command {record.get('command')!r}, not {kind!r}"]
    if kind == "verify":
        return _verify(argv, code, record)
    if code != EXIT_OK:
        return [f"exit code {code}, expected {EXIT_OK}"]
    return {"forge": _forge, "minimal": _minimal, "scan": _scan, "trace": _trace}[kind](
        argv, record
    )


def output_digests(out: str) -> dict[str, str]:
    """Field digests of an op's output, or none when it is not one JSON
    object."""
    try:
        record = json.loads(out)
    except ValueError:
        return {}
    return field_digests(record) if isinstance(record, dict) else {}


def check(kind: str, argv: list[str], code: int, out: str, expected: dict | None):
    """Check one op. Returns its field digests and a list of problems;
    ``expected`` is the recorded answer, or None when the seed has none."""
    try:
        record = json.loads(out)
    except ValueError:
        record = None
    if not isinstance(record, dict):
        return {}, [f"exit code {code} with output that is not one JSON object"]
    digests = field_digests(record)
    try:
        problems = oracle(kind, argv, code, record)
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"record is malformed: {exc!r}"]
    if expected is not None:
        problems += gate(expected, code, digests)
    return digests, problems
