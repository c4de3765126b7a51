"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402

REFS = W.load_json(HERE / "refs.json")


@pytest.fixture
def scratch():
    """A temporary directory inside the checkout, like the harness uses."""
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=parent) as tmp:
        yield Path(tmp)


def test_tail_percentile_rule():
    assert bench.tail_percentile([1.0] * 10) is None
    assert bench.tail_percentile([float(x) for x in range(1, 101)]) == (90.0, 90.0, 100)
    samples = [0.6, 4.4, 0.7, 0.5, 4.6, 0.65, 0.55, 0.5, 0.62, 0.71, 0.58, 0.52, 0.66]
    value, pct, n = bench.tail_percentile(samples)
    assert n == 13 and pct == pytest.approx(100 * 3 / 13)
    assert sum(s > value for s in samples) == 10


def test_self_time_from_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tr = tracing.Tracer("t", clock=lambda: next(ticks))
    with tr.span("root"):          # 0 .. 10
        with tr.span("a"):         # 1 .. 4
            with tr.span("b"):     # 2 .. 3
                pass
        with tr.span("c"):         # 5 .. 9
            with tr.span("c"):     # 6 .. 7, recursion
                pass
    assert [s[1] for s in tr.spans] == [None, 0, 1, 0, 3]
    assert tracing.self_times(tr.spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0}
    table = tracing.breakdown([tr.dump()])
    assert table["c"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    assert table["root"]["self_s"] == 3.0


def _cli_stdout(argv):
    from qtkostka import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.dispatch(argv)
    return buf.getvalue(), code


def test_corrupted_reference_counts_as_failure_without_raising(scratch):
    call = "fstat --mu 3,2,1"
    stdout, code = _cli_stdout(call.split())
    assert W.check_query(REFS, call, stdout, code)

    bad = copy.deepcopy(REFS)
    bad["query"][call]["stdout"] = "0" * 64
    bad["bundle"]["2"]["k1"] = "0" * 64
    bad["oracle"]["1"] = "garbage"
    bad["scan"]["verdicts"][7] = None
    assert not W.check_query(bad, call, stdout, code)
    assert not W.check_oracle(bad, 1, REFS["oracle"]["1"])
    flags = W.check_scan(bad, REFS["scan"]["verdicts"])
    assert flags.count(False) == 1 and not flags[7]

    run = bench.Run("bundle", 0, bad, scratch, 25.0)
    p = bench.worker_pass(run, {"degrees": [1, 2, 3]}, False)
    assert p.ok == [True, False, True]

    unreadable = scratch / "refs.json"
    unreadable.write_text("{not json", encoding="utf-8")
    empty = W.load_json(unreadable)
    assert empty == {}
    assert not W.check_bundle(empty, 1, {})
    assert W.check_scan(empty, []) == [False]
    assert next(W.query_rounds(0, empty)) == []


def _compute():
    from qtkostka import haglund, macdonald, qt, reductions, tableaux

    k1 = macdonald.TriangularMatrix.from_function(4, macdonald.k1_entry)
    inv = k1.inverse()
    p = qt.binomial_poly(1, 1) * qt.binomial_poly(2, 0) * qt.t_number(3)
    return {
        "inverse": inv.to_obj("k1inv"),
        "matmul": (k1 @ inv).to_obj("id"),
        "from_obj": macdonald.TriangularMatrix.from_obj(k1.to_obj("k1")) == k1,
        "div": qt.exact_div_binomial(p, 1, 1),
        "inexact": qt.exact_div_binomial(p, 3, 3),
        "div_1mt": qt.divide_by_one_minus_t_power(p, 1),
        "rational": qt.QtRational(p, [(1, 1), (2, 0), (0, 1)]).to_obj(),
        "verdicts": [
            haglund.check_pair(lam, mu, k).to_obj()
            for lam, mu in [((4,), (2, 2)), ((2, 2), (1,) * 4), ((3, 1), (2, 2)),
                            ((2, 2), (3, 1)), ((3, 2), (2, 2, 1))]
            for k in (0, 2)
        ],
        "tree": reductions.decompose_irreducible((5, 3, 3), (4, 4, 1, 1, 1)).to_obj(),
        "fast_k": reductions.fast_k((3, 1), (2, 2)),
        "kostka": tableaux.kostka_number((3, 2, 1), (2, 2, 1, 1)),
    }


def test_wrapped_calls_return_what_unwrapped_calls_return():
    from qtkostka import haglund, macdonald, qt, reductions

    watched = [
        (qt, "exact_div_binomial"), (reductions, "exact_div_binomial"),
        (haglund, "kostka_number"), (qt.QtPolynomial, "__mul__"),
        (macdonald.TriangularMatrix, "from_obj"),
    ]
    originals = [vars(owner)[attr] for owner, attr in watched]
    plain = _compute()
    tr = tracing.Tracer("t")
    undo = tracing.install(tr)
    try:
        assert all(vars(o)[a] is not orig for (o, a), orig in zip(watched, originals))
        wrapped = _compute()
    finally:
        tracing.uninstall(undo)
    assert wrapped == plain
    assert [vars(owner)[attr] for owner, attr in watched] == originals
    names = {s[2] for s in tr.spans}
    assert {
        "qt.div", "qt.div_1mt", "qt.rational.new", "qt.poly.mul",
        "macdonald.k1", "macdonald.inverse", "macdonald.matmul",
        "macdonald.to_obj", "macdonald.from_obj", "reductions.decompose",
        "reductions.fast_k", "tableaux.kostka_number",
        "haglund.route.closed_row", "haglund.route.closed_column",
        "haglund.route.dominance_zero",
    } <= names
    assert all(s[4] is not None for s in tr.spans)
    assert tr.counters["qt.div.inexact"] >= 1


def _snapshot(root: Path) -> dict:
    skip = {"__pycache__", ".git", ".bench_tmp", ".pytest_cache", ".hypothesis"}
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for name in filenames:
            st = os.stat(os.path.join(dirpath, name))
            out[os.path.join(dirpath, name)] = (st.st_size, st.st_mtime_ns)
    return out


def test_no_file_is_written_outside_the_temporary_directory(scratch):
    before = _snapshot(ROOT)
    run = bench.Run("bundle", 0, REFS, scratch, 25.0)
    bench.worker_pass(run, {"degrees": [3, 2]}, True)
    run.workload = "query"
    cache = scratch / "cache-0"
    p = bench.query_pass(run, [("cached", "matrix --n 3 --which k1"),
                               ("light", "kcoeff --lambda 2 --mu 1,1")], cache, True)
    assert len(p.traces) == 2
    assert sorted(f.name for f in cache.iterdir()) == sorted(
        f"{name}_n3.json" for name in W.MATRIX_NAMES
    )
    assert _snapshot(ROOT) == before


def test_timed_out_call_counts_apart_from_wrong_output(scratch):
    assert bench.Run("query", 0, REFS, scratch, 200.0).deadline - W.clock() > 400
    run = bench.Run("query", 0, REFS, scratch, 25.0)
    run.deadline = W.clock()  # passed: the call is not started
    p = bench.query_pass(run, [("light", "fstat --mu 2,1")], scratch / "cache", False)
    assert p.ok == [False] and p.timeouts == 1
    result, extra = bench.summarize("query", [p], [0.5], False)
    assert (result["failed"], extra["timed_out"], extra["wrong_output"]) == (1, 1, 0)


def test_tracing_overhead_compares_pairs_and_flags_noise():
    Pass = bench.Pass
    passes = [Pass(False, 10.0, []), Pass(True, 11.0, []),
              Pass(False, 12.0, []), Pass(True, 13.2, [])]
    ratio, noise = bench.overhead(passes)
    assert ratio == pytest.approx(0.1) and noise == pytest.approx(2 / 11)
    assert bench.overhead(passes[:2]) == (pytest.approx(0.1), None)


def test_query_rounds_are_seeded_with_fixed_class_counts():
    a, b = W.query_rounds(5, REFS), W.query_rounds(5, REFS)
    first = [next(a) for _ in range(3)]
    assert first == [next(b) for _ in range(3)]
    assert first[0] != next(W.query_rounds(6, REFS))
    for calls in first:
        for cls in ("light", "cold", "cached"):
            expected = sum(n for (c, _), n in W.QUERY_ROUND.items() if c == cls)
            assert sum(c == cls for c, _ in calls) == expected


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == bench.E2E_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = list(tracing.layer_metrics([])) + ["trace.overhead_frac"]
    assert layer == {n: bench.layer_unit(n) for n in names}
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
