"""Seeded benchmark of qtkostka: four workloads, checked outputs, and a
traced per-layer breakdown.

    python3 perfbench/run.py --workload {bundle,scan,query,oracle,all}
                             [--seed N] [--seconds S] [--trace 0|1] [--out DIR]

Run from anywhere; the library is taken from ``src/`` next to this
directory.  Every pass of a workload runs in a fresh interpreter, so no
in-memory cache survives between passes; all disk state lives in a
temporary directory under ``.bench_tmp/`` that is removed at exit.
Passes repeat until the next one would end after ``--seconds``.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of the traced passes (untraced passes alternate with them, to measure
the tracing overhead).  Lines before it are a readable report.  The exit
code is 1 when any output differs from the reference, 2 when the
library is missing.  ``--out DIR`` also writes ``DIR/<workload>.json``
(or ``<workload>.trace.json``) with the environment and the details.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer as tracing
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("bundle", "scan", "query", "oracle")
CLI_MAIN = "from qtkostka.cli import main; main()"
QUERY_SETUPS = 3  # degree-6 cache fills per query run; setup_s is their median
SETUP_PROBES = 2  # import-only spawns before each in-process pass, for setup_s
# a run's children are killed, and no more are started, once the run has
# taken this long beyond twice --seconds; each such call counts as timed out
SETUP_ALLOWANCE_S = 60.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s"}


def tail_percentile(values: list[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count), or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ratio", "frac")):
        return "ratio"
    return "count"


@dataclass
class Pass:
    """One pass: a cold run of an in-process workload, or one round of
    CLI calls."""

    traced: bool
    wall_s: float
    ok: list[bool]
    timeouts: int = 0
    latencies: list[tuple[str, float]] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)


class Run:
    """Temporary directory, child environment, deadline and set-up times
    of one run."""

    def __init__(self, workload: str, seed: int, refs: dict, tmp: Path, seconds: float):
        self.workload = workload
        self.seed = seed
        self.refs = refs
        self.tmp = tmp
        self.ids = itertools.count()
        self.deadline = W.clock() + SETUP_ALLOWANCE_S + 2 * seconds
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.setups: list[float] = []

    def expired(self) -> bool:
        return W.clock() >= self.deadline

    def call(self, cmd: list[str]) -> tuple[subprocess.CompletedProcess | None, float, float]:
        """Run a child to completion; returns (process, or None when it
        timed out or the deadline had passed, spawn stamp, exit stamp)."""
        t0 = W.clock()
        if t0 >= self.deadline:
            return None, t0, t0
        try:
            proc = subprocess.run(
                cmd, cwd=self.tmp, env=self.env, capture_output=True,
                timeout=self.deadline - t0,
            )
        except subprocess.TimeoutExpired:
            proc = None
        return proc, t0, W.clock()


# -- in-process workloads: one fresh worker interpreter per pass -------------


def _worker_spec(workload: str, seed: int) -> dict:
    if workload == "bundle":
        return {"degrees": W.bundle_degrees(seed)}
    if workload == "scan":
        return {"max_n": W.SCAN_MAX_N, "max_k": W.SCAN_MAX_K}
    return {"degrees": W.oracle_degrees(seed)}


def _verify(run: Run, spec: dict, ops: list[dict]) -> list[bool]:
    refs = run.refs
    if run.workload == "scan":
        op = ops[0] if ops else {}
        return W.check_scan(refs, op.get("verdicts", []))
    found = {op.get("key"): op for op in ops}
    ok = []
    for n in spec["degrees"]:
        op = found.get(n, {})
        if run.workload == "bundle":
            ok.append("digests" in op and W.check_bundle(refs, n, op["digests"]))
        else:
            ok.append("flags" in op and W.check_oracle(refs, n, op["flags"]))
    return ok


def _spawn_worker(run: Run, spec: dict) -> tuple[dict | None, float, float]:
    """Run worker.py on a spec; returns (result, or None when the worker
    timed out, spawn stamp, exit stamp).  A worker that failed gives {}."""
    i = next(run.ids)
    out = run.tmp / f"pass-{i}.json"
    full = dict(spec, workload=run.workload, trace_id=f"{run.workload}-{run.seed}-{i}",
                out=str(out))
    spec_path = run.tmp / f"spec-{i}.json"
    spec_path.write_text(json.dumps(full), encoding="utf-8")
    proc, t0, t1 = run.call([sys.executable, str(HERE / "worker.py"), str(spec_path)])
    if proc is None:
        return None, t0, t1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        return {}, t0, t1
    return W.load_json(out), t0, t1


def probe_setup(run: Run) -> None:
    """Time one set-up alone: spawn a worker that imports and stops."""
    result, t0, _ = _spawn_worker(run, {"trace": False, "probe": True})
    if result:
        run.setups.append(result["start"] - t0)


def worker_pass(run: Run, spec: dict, traced: bool) -> Pass:
    result, t0, t1 = _spawn_worker(run, dict(spec, trace=traced))
    if not result:
        ok = _verify(run, spec, [])
        return Pass(traced, t1 - t0, ok, timeouts=len(ok) if result is None else 0)
    run.setups.append(result["start"] - t0)
    return Pass(
        traced,
        wall_s=result["end"] - result["start"],
        ok=_verify(run, spec, result["ops"]),
        traces=[result["trace"]] if traced else [],
    )


# -- query: a closed loop of CLI processes, one at a time --------------------


def query_setup(run: Run) -> Path:
    """Fill the degree-6 disk cache from a fresh CLI process, several
    times; the last cache directory serves the cached calls."""
    for i in range(QUERY_SETUPS):
        cache = run.tmp / f"cache-{i}"
        _, t0, t1 = run.call([
            sys.executable, "-c", CLI_MAIN, "matrix", "--n", str(W.QUERY_N),
            "--which", "k", "--cache-dir", str(cache),
        ])
        run.setups.append(t1 - t0)
    return cache


def query_pass(run: Run, calls: list[tuple[str, str]], cache: Path, traced: bool) -> Pass:
    p = Pass(traced, 0.0, [])
    for cls, call in calls:
        argv = call.split()
        if cls == "cached":
            argv += ["--cache-dir", str(cache)]
        spans = run.tmp / f"spans-{next(run.ids)}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "launcher.py"), str(spans),
                   f"query-{run.seed}-{spans.stem}", "--", *argv]
        else:
            cmd = [sys.executable, "-c", CLI_MAIN, *argv]
        proc, t0, t1 = run.call(cmd)
        p.wall_s += t1 - t0
        if proc is None:  # no latency to report for a call that did not end
            p.timeouts += 1
        else:
            p.latencies.append((cls, t1 - t0))
        p.ok.append(proc is not None and W.check_query(
            run.refs, call, proc.stdout.decode(errors="replace"), proc.returncode,
        ))
        if traced:
            trace = W.load_json(spans)
            if trace:
                p.traces.append(trace)
    return p


# -- measuring and reporting --------------------------------------------------


def measure(run: Run, seconds: float, trace: bool, run_pass) -> list[Pass]:
    """Passes until the next would end after ``seconds`` or the run's
    deadline has passed; at least one.  With tracing, passes come in
    pairs on the same inputs, untraced first, and end on a whole pair."""
    passes: list[Pass] = []
    start = W.clock()
    while True:
        passes.append(run_pass(trace and len(passes) % 2 == 1))
        elapsed = W.clock() - start
        if trace and len(passes) % 2 == 1:
            continue
        if elapsed + elapsed / len(passes) > seconds or run.expired():
            return passes


def run_workload(run: Run, seconds: float, trace: bool) -> list[Pass]:
    if run.workload == "query":
        cache = query_setup(run)
        rounds = W.query_rounds(run.seed, run.refs)
        first = next(rounds)
        if not first:  # no reference calls to draw from
            return [Pass(False, 0.0, [False])]
        rounds = itertools.chain([first], rounds)
        current = []

        def one(traced):
            if not traced:  # a traced pass repeats the round of its pair
                current[:] = next(rounds)
            return query_pass(run, list(current), cache, traced)

        return measure(run, seconds, trace, one)
    spec = _worker_spec(run.workload, run.seed)

    def one(traced):
        for _ in range(SETUP_PROBES):
            probe_setup(run)
        return worker_pass(run, spec, traced)

    return measure(run, seconds, trace, one)


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def overhead(passes: list[Pass]) -> tuple[float, float | None]:
    """Tracing overhead from pairs of an untraced and a traced pass on the
    same inputs: (median of traced/untraced - 1, spread of the untraced
    passes as (max - min) / median, or None with fewer than two)."""
    pairs = [(a.wall_s, b.wall_s) for a, b in zip(passes[::2], passes[1::2]) if a.wall_s > 0]
    ratio = _median((t / u - 1 for u, t in pairs), 0.0)
    plain = [u for u, _ in pairs]
    noise = (max(plain) - min(plain)) / statistics.median(plain) if len(plain) > 1 else None
    return ratio, noise


def summarize(workload: str, passes: list[Pass], setups: list[float], trace: bool):
    """(metrics for the last line, extra details for the report)."""
    plain = [p for p in passes if not p.traced]
    attempted = sum(len(p.ok) for p in passes)
    failed = attempted - sum(sum(p.ok) for p in passes)
    timeouts = sum(p.timeouts for p in passes)
    extra = {
        "passes": len(passes),
        "failed_frac": failed / attempted if attempted else 1.0,
        "timed_out": timeouts,
        "wrong_output": failed - timeouts,
        "pass_wall_s": [round(p.wall_s, 6) for p in passes],
        "setup_samples_s": [round(s, 6) for s in setups],
    }
    if workload == "query":
        lat = [(c, s) for p in plain for c, s in p.latencies]
        for cls in ("light", "cold", "cached"):
            extra[f"query_{cls}_p50_ms"] = 1000 * _median(s for c, s in lat if c == cls)
        tail = tail_percentile([s for _, s in lat])
        if tail is not None:
            extra["query_tail_ms"] = 1000 * tail[0]
            extra["query_tail_percentile"] = tail[1]
            extra["query_tail_samples"] = tail[2]
    if not trace:
        walls = [p.wall_s for p in plain]
        metrics = {
            "setup_s": _median(setups),
            "wall_s": _median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "ops_per_s": _median(len(p.ok) / p.wall_s for p in plain if p.wall_s > 0),
        }
        units = E2E_UNITS
    else:
        traced = [p for p in passes if p.traced]
        per_pass = [tracing.layer_metrics(p.traces) for p in traced if p.traces]
        metrics = {
            name: _median(m[name] for m in per_pass) for name in tracing.layer_metrics([])
        }
        metrics["trace.overhead_frac"], noise = overhead(passes)
        # an overhead inside the spread of the untraced passes is not resolved
        extra["trace.untraced_spread_frac"] = noise
        extra["trace.overhead_resolved"] = (
            noise is not None and abs(metrics["trace.overhead_frac"]) > noise
        )
        units = {name: layer_unit(name) for name in metrics}
        table = tracing.breakdown([t for p in traced for t in p.traces])
        extra["breakdown"] = {
            name: {k: round(v, 6) for k, v in row.items()}
            for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
        }
        stages = {n: table[n]["s"] for n in tracing.STAGES if n in table}
        if stages:
            extra["dominant_stage"] = max(stages, key=stages.get)
        if table:
            extra["largest_self_time"] = max(table, key=lambda n: table[n]["self_s"])
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    return result, extra


def environment(seed: int | list[int]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = "missing"
    return {
        "python": platform.python_version(),
        "sympy": sympy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def report(workload: str, args, result: dict, extra: dict) -> None:
    print(f"workload={workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={extra['passes']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<36} {extra['failed_frac']:>14.6g} "
          f"({result['failed']} of {result['attempted']} operations: "
          f"{extra['wrong_output']} wrong output, {extra['timed_out']} timed out)")
    for key in ("query_light_p50_ms", "query_cold_p50_ms", "query_cached_p50_ms"):
        if key in extra:
            print(f"  {key:<36} {extra[key]:>14.6g} ms")
    if "query_tail_ms" in extra:
        print(f"  {'query_tail_ms':<36} {extra['query_tail_ms']:>14.6g} ms "
              f"(p{extra['query_tail_percentile']:.1f} of {extra['query_tail_samples']} calls)")
    if "trace.overhead_resolved" in extra and not extra["trace.overhead_resolved"]:
        noise = extra["trace.untraced_spread_frac"]
        print("  trace.overhead_frac is unresolved: "
              + ("one untraced pass" if noise is None
                 else f"within the untraced passes' spread of {noise:.3g}"))
    if "dominant_stage" in extra:
        print(f"  dominant stage: {extra['dominant_stage']}; "
              f"largest self time: {extra['largest_self_time']}")


def run_one(workload: str, args) -> int:
    refs = W.load_json(HERE / "refs.json")
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        run = Run(workload, args.seed, refs, tmp, args.seconds)
        passes = run_workload(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    result, extra = summarize(workload, passes, run.setups, bool(args.trace))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        name = f"{workload}.trace.json" if args.trace else f"{workload}.json"
        doc = {
            "env": environment(args.seed),
            "workload": workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "result": result,
            "extra": extra,
        }
        (out / name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    report(workload, args, result, extra)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="directory for result files")
    args = parser.parse_args(argv)
    if not (SRC / "qtkostka" / "cli.py").is_file():
        sys.stderr.write(f"qtkostka sources not found under {SRC}\n")
        return 2
    if args.workload != "all":
        return run_one(args.workload, args)
    # one process per workload, so each reports its own peak RSS
    codes = []
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        codes.append(subprocess.run(cmd).returncode)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
