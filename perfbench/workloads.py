"""Seeded inputs of the four workloads and the reference checks.

The references in ``refs.json`` were recorded from the seed commit by
``python3 perfbench/make_refs.py``.  They hold SHA-256 digests of every
output the benchmark times, so any change in an output byte is caught.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

MATRIX_NAMES = ("k", "k1", "k1inv", "k2", "k2inv")
BUNDLE_DEGREES = (1, 2, 3, 4, 5, 6)
SCAN_MAX_N, SCAN_MAX_K = 5, 24
ORACLE_DEGREES = (1, 2, 3, 4, 5)
QUERY_N = 6
QUERY_KS = (0, 1, 2, 3, 4, 5)

# one round of the query stream: (class, kind) -> calls per round.  The
# rule is equal weight per class in wall_s: on the seed commit a light call
# takes about 0.6 s, a cold call 4.6 s and a cached call 0.67 s, so 15
# light, 2 cold and 15 cached calls each make about 9-10 s of a 29 s round.
# A 2x gain confined to one class then moves wall_s by about a sixth.
# Fixed counts keep each class median comparable between seeds; the seed
# picks the arguments and the order inside the round.
QUERY_ROUND = {
    ("light", "fstat"): 5,
    ("light", "reduce"): 5,
    ("light", "haglund"): 5,
    ("cold", "kcoeff"): 1,
    ("cold", "haglund"): 1,
    ("cached", "matrix"): 15,
}


def clock() -> float:
    """Monotonic seconds on a system-wide clock, so that stamps taken in a
    child process can be subtracted from the parent's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bundle_texts(bundle) -> dict[str, str]:
    """Each matrix of a degree's bundle as JSON text, in the cache-file
    format; the benchmark times this and digests it afterwards."""
    return {
        name: json.dumps(mat.to_obj(name), sort_keys=True)
        for name, mat in zip(MATRIX_NAMES, bundle)
    }


def verdict_digest(verdict) -> str:
    return digest(json.dumps(verdict.to_obj(), sort_keys=True))


def load_json(path) -> dict:
    """A JSON object from a file, or {} when it is missing or unreadable,
    so that a damaged reference fails its checks instead of crashing."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError):
        return {}
    return obj if isinstance(obj, dict) else {}


def lookup(refs: dict, *keys):
    """refs[k0][k1]..., or None where any level is missing or malformed."""
    node = refs
    for key in keys:
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    return node


def bundle_degrees(seed: int) -> list[int]:
    """The six degrees in a seeded order; each pass builds all of them cold."""
    order = list(BUNDLE_DEGREES)
    random.Random(seed).shuffle(order)
    return order


def oracle_degrees(seed: int) -> list[int]:
    order = list(ORACLE_DEGREES)
    random.Random(seed).shuffle(order)
    return order


def query_rounds(seed: int, refs: dict):
    """Endless seeded stream of rounds; each round is a list of
    (class, argv) with the counts of QUERY_ROUND, in a seeded order.

    The pool of each (class, kind) is the set of calls recorded in the
    references, so every call the stream can make has a checked output.
    """
    pools: dict[tuple[str, str], list[str]] = {key: [] for key in QUERY_ROUND}
    for call, ref in sorted((lookup(refs, "query") or {}).items()):
        key = (lookup(ref, "class"), lookup(ref, "kind"))
        if key in pools:
            pools[key].append(call)
    rng = random.Random(seed)
    while True:
        calls = []
        for key, count in QUERY_ROUND.items():
            pool = pools[key]
            if key == ("cached", "matrix"):  # each matrix equally often
                picked = [pool[i % len(pool)] for i in range(count)] if pool else []
            else:
                picked = [rng.choice(pool) for _ in range(count)] if pool else []
            calls.extend((key[0], c) for c in picked)
        rng.shuffle(calls)
        yield calls


def check_bundle(refs: dict, n: int, digests: dict) -> bool:
    return lookup(refs, "bundle", str(n)) == digests


def check_oracle(refs: dict, n: int, flags: dict) -> bool:
    return lookup(refs, "oracle", str(n)) == flags


def check_scan(refs: dict, verdict_digests: list[str]) -> list[bool]:
    """One flag per reference verdict; a missing or extra verdict fails."""
    ref = lookup(refs, "scan", "verdicts")
    if not isinstance(ref, list) or not ref:
        return [False] * max(1, len(verdict_digests))
    flags = [
        i < len(verdict_digests) and verdict_digests[i] == expected
        for i, expected in enumerate(ref)
    ]
    flags.extend(False for _ in verdict_digests[len(ref):])
    return flags


def check_query(refs: dict, call: str, stdout: str, code: int) -> bool:
    ref = lookup(refs, "query", call)
    return (
        isinstance(ref, dict)
        and ref.get("exit") == code
        and ref.get("stdout") == digest(stdout)
    )
