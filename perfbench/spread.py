"""Run one workload on several seeds and report the spread of each metric.

    python3 perfbench/spread.py --workload bundle --seeds 101-110
                                [--seconds 25] [--trace 0|1] [--out FILE]

Each seed is one run of ``run.py``, one after the other.  For each metric
of the last stdout line it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  ``--out`` also
writes these, every run's metrics and the environment, as JSON.  The
exit code is 1 when any run failed or reported a wrong output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import environment

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    """'101-105' or '1,4,9' (or a mix) -> the list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    runs, ok = [], True
    for seed in args.seeds:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if last is None or not last["correct"]:
            ok = False
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", flush=True)
            continue
        values = {k: m["value"] for k, m in last["metrics"].items()}
        runs.append({"seed": seed, "attempted": last["attempted"], "metrics": values})
        shown = " ".join(f"{k}={v:.4g}" for k, v in values.items())
        print(f"seed {seed}: {shown} ({time.monotonic() - t0:.1f} s)", flush=True)
    summary = {}
    if runs:
        for name in runs[0]["metrics"]:
            summary[name] = spread([r["metrics"][name] for r in runs])
            s = summary[name]
            print(f"{name:<36} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}")
    if args.out:
        doc = {"env": environment(args.seeds), "workload": args.workload,
               "seconds": args.seconds, "trace": args.trace, "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok and runs else 1


if __name__ == "__main__":
    sys.exit(main())
