"""One pass of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC names the workload, its seeded inputs, whether to trace, and the
file to write the result to.  The result holds monotonic-clock stamps
(comparable with the parent's, so the parent can time set-up from its
own spawn), the output digests of every operation, and, when traced,
the spans.  Nothing is printed.  With ``"probe": true`` the worker only
imports the library and writes its stamp, to time set-up.
"""

from __future__ import annotations

import importlib
import json
import sys

import tracer as tracing
import workloads as W


def _run_ops(workload: str, spec: dict, module) -> tuple[list, float, float]:
    """Run the timed region; returns (raw outputs, start, end)."""
    outputs = []
    start = W.clock()
    if workload == "bundle":
        for n in spec["degrees"]:
            try:
                outputs.append((n, W.bundle_texts(module.build_matrices(n)), None))
            except Exception as exc:  # counted as a failed operation
                outputs.append((n, None, repr(exc)))
    elif workload == "scan":
        try:
            report = module.scan(spec["max_n"], spec["max_k"], jobs=1)
            outputs.append(("scan", report, None))
        except Exception as exc:
            outputs.append(("scan", None, repr(exc)))
    elif workload == "oracle":
        for n in spec["degrees"]:
            try:
                outputs.append((n, module.oracle_verify_degree(n), None))
            except Exception as exc:
                outputs.append((n, None, repr(exc)))
    return outputs, start, W.clock()


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = spec["workload"]
    tracer = tracing.Tracer(spec["trace_id"]) if spec["trace"] else None
    # the oracle entry point lives in the CLI module, which imports sympy
    name = {"bundle": "macdonald", "scan": "haglund", "oracle": "cli"}[workload]
    if tracer is not None and name == "cli":
        with tracer.span("cli.import"):
            module = importlib.import_module(f"qtkostka.{name}")
    else:
        module = importlib.import_module(f"qtkostka.{name}")
    if spec.get("probe"):  # set-up only: spawn and import, then stop
        start = W.clock()
        with open(spec["out"], "w", encoding="utf-8") as fh:
            json.dump({"start": start, "end": start, "ops": []}, fh)
        return
    if tracer is not None:
        tracing.install(tracer)
        root = tracer.begin(f"pass.{workload}")
    outputs, start, end = _run_ops(workload, spec, module)
    if tracer is not None:
        tracer.end(root)

    ops = []
    for key, value, error in outputs:
        if error is not None:
            ops.append({"key": key, "error": error})
        elif workload == "bundle":
            ops.append({"key": key, "digests": {k: W.digest(t) for k, t in value.items()}})
        elif workload == "scan":
            ops.append({"key": key, "verdicts": [W.verdict_digest(v) for v in value.verdicts]})
        else:
            ops.append({"key": key, "flags": value})
    result = {"start": start, "end": end, "ops": ops}
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
