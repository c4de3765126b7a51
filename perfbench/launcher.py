"""A traced ``qtkostka`` CLI call, in a fresh interpreter.

    python3 perfbench/launcher.py SPANS.json TRACE_ID -- ARGS...

Times the import of ``qtkostka.cli``, installs the span wrappers, and
calls ``qtkostka.cli.dispatch(ARGS)``.  Stdout is the CLI's own, byte for
byte; spans go to SPANS.json when the call ends.  The exit code is the
CLI's.
"""

from __future__ import annotations

import json
import sys

import tracer as tracing


def main() -> int:
    spans_path, trace_id, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        raise SystemExit("usage: launcher.py SPANS.json TRACE_ID -- ARGS...")
    tracer = tracing.Tracer(trace_id)
    code = 2
    try:
        with tracer.span("cli.import"):
            import qtkostka.cli
        tracing.install(tracer)
        with tracer.span(f"cli.cmd.{argv[0]}"):
            try:
                code = qtkostka.cli.dispatch(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if code != 0:
            tracer.counters["cli.exit_nonzero"] += 1
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
