"""Record the reference outputs the benchmark checks against.

Run from the repository root at the commit whose outputs are the
reference (the seed):

    python3 perfbench/make_refs.py

It rewrites ``perfbench/refs.json`` with SHA-256 digests of:
every ``matrix`` JSON for n <= 6 (the cache-file bytes), every verdict of
``scan(max_n=5, max_k=24)``, the stdout and exit code of every CLI call
the ``query`` stream can make, and the oracle pass flags for n <= 5.
Query calls are run in-process through ``qtkostka.cli.dispatch``; their
stdout is the same bytes a separate process prints.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402
from qtkostka import cli, haglund, macdonald  # noqa: E402
from qtkostka.partitions import dominance_leq, partitions_of  # noqa: E402


def _fmt(p) -> str:
    return ",".join(str(x) for x in p)


def _run_cli(argv: list[str]) -> tuple[str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.dispatch(argv)
    return buf.getvalue(), code


def bundle_refs() -> dict:
    out = {}
    for n in W.BUNDLE_DEGREES:
        texts = W.bundle_texts(macdonald.build_matrices(n))
        out[str(n)] = {name: W.digest(text) for name, text in texts.items()}
    return out


def scan_refs() -> dict:
    report = haglund.scan(W.SCAN_MAX_N, W.SCAN_MAX_K, jobs=1)
    return {
        "summary": report.summary(),
        "routes": dict(sorted(Counter(v.route for v in report.verdicts).items())),
        "verdicts": [W.verdict_digest(v) for v in report.verdicts],
    }


def query_calls() -> list[tuple[str, str, list[str]]]:
    """(class, kind, argv) for every call the query stream may draw."""
    calls = []
    for n in range(1, W.QUERY_N + 1):
        parts = partitions_of(n)
        for mu in parts:
            calls.append(("light", "fstat", ["fstat", "--mu", _fmt(mu)]))
        for lam in parts:
            for mu in parts:
                if n > 1 and dominance_leq(mu, lam):
                    calls.append(("light", "reduce",
                                  ["reduce", "--lambda", _fmt(lam), "--mu", _fmt(mu)]))
                for k in W.QUERY_KS:
                    route = haglund.check_pair(lam, mu, k).route
                    if route != "reduction_pipeline":
                        cls = "light"
                    elif n == W.QUERY_N:
                        cls = "cold"
                    else:
                        continue  # builds a smaller bundle: neither class
                    calls.append((cls, "haglund", [
                        "haglund", "--lambda", _fmt(lam), "--mu", _fmt(mu),
                        "--k", str(k),
                    ]))
    parts = partitions_of(W.QUERY_N)
    for lam in parts:
        for mu in parts:
            if dominance_leq(mu, lam):
                calls.append(("cold", "kcoeff",
                              ["kcoeff", "--lambda", _fmt(lam), "--mu", _fmt(mu)]))
    for name in W.MATRIX_NAMES:
        calls.append(("cached", "matrix",
                      ["matrix", "--n", str(W.QUERY_N), "--which", name]))
    return calls


def query_refs() -> dict:
    out = {}
    scratch = HERE.parent / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as cache_dir:
        results = [
            (cls, kind, argv, _run_cli(
                argv + (["--cache-dir", cache_dir] if kind == "matrix" else [])
            ))
            for cls, kind, argv in query_calls()
        ]
    for cls, kind, argv, (stdout, code) in results:
        if code != 0:
            raise SystemExit(f"reference call failed: {argv} -> {code}")
        out[" ".join(argv)] = {
            "class": cls, "kind": kind, "stdout": W.digest(stdout), "exit": code,
        }
    return out


def oracle_refs() -> dict:
    return {str(n): cli.oracle_verify_degree(n) for n in W.ORACLE_DEGREES}


def main() -> None:
    refs = {
        "regenerate": "python3 perfbench/make_refs.py",
        "bundle": bundle_refs(),
        "scan": scan_refs(),
        "query": query_refs(),
        "oracle": oracle_refs(),
    }
    path = HERE / "refs.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}: {len(refs['query'])} query calls, "
          f"{len(refs['scan']['verdicts'])} verdicts")


if __name__ == "__main__":
    main()
