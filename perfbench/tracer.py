"""Spans and counters around the public functions of ``qtkostka``.

The library is not edited: ``install`` replaces each public function of
every layer module (and a few named methods) with a wrapper that records
a span, in the defining module and in every module that imported it by
name.  ``uninstall`` puts the originals back.  Spans are kept in memory
as ``[span_id, parent_id, name, start, end]`` lists and written out by
the caller when its run ends; every span of one tracer shares the
tracer's ``trace_id``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = (
    "partitions", "tableaux", "qt", "macdonald",
    "reductions", "haglund", "oracle", "cli",
)
ROUTES = (
    "closed_row", "closed_column", "mult_one_tree",
    "reduction_pipeline", "dominance_zero",
)
CLI_COMMANDS = ("kcoeff", "matrix", "reduce", "haglund", "fstat")

# span names used by the per-layer metrics, in place of <module>.<function>
_ALIASES = {
    "qt.exact_div_binomial": "qt.div",
    "qt.divide_by_one_minus_t_power": "qt.div_1mt",
    "macdonald.k1_entry": "macdonald.k1",
    "macdonald.build_matrices": "macdonald.build",
    "tableaux.horizontal_strip_extensions": "tableaux.strip_ext",
    "reductions.decompose_irreducible": "reductions.decompose",
    "oracle.gram_schmidt_P": "oracle.gram_schmidt",
    "oracle.orthogonality_audit": "oracle.orthogonality",
    "oracle.check_pairing_normalization": "oracle.normalization",
    "oracle.check_Qn_plethysm": "oracle.plethysm",
    "oracle.pair_equals_qtrational": "oracle.k1_match",
}

# (module, class, attribute, span name); the oracle's K1 comparison is
# the sympy-to-QtPolynomial conversion plus the cross-multiplication
_METHODS = (
    ("qt", "QtPolynomial", "__mul__", "qt.poly.mul"),
    ("qt", "QtPolynomial", "__rmul__", "qt.poly.mul"),
    ("qt", "QtRational", "__init__", "qt.rational.new"),
    ("macdonald", "TriangularMatrix", "inverse", "macdonald.inverse"),
    ("macdonald", "TriangularMatrix", "__matmul__", "macdonald.matmul"),
    ("macdonald", "TriangularMatrix", "to_obj", "macdonald.to_obj"),
    ("macdonald", "TriangularMatrix", "from_obj", "macdonald.from_obj"),
    ("reductions", "ReductionStep", "replay", "reductions.replay"),
    ("oracle", "SymFuncInBasis", "coefficient_pair", "oracle.k1_match"),
)

# stages whose inclusive time names the dominant one; the arithmetic
# leaves (qt.div, qt.poly.mul, qt.rational.new) show up in self time
STAGES = (
    "qt.div_1mt", "macdonald.k1", "macdonald.inverse", "macdonald.matmul",
    "macdonald.k_coeff", "macdonald.to_obj", "macdonald.from_obj",
    "tableaux.kostka_number", "tableaux.strip_ext",
    "reductions.decompose", "reductions.fast_k", "reductions.replay",
    "oracle.gram_schmidt", "oracle.orthogonality", "oracle.normalization",
    "oracle.plethysm", "oracle.k1_match",
) + tuple(f"haglund.route.{r}" for r in ROUTES)


class Tracer:
    """In-memory span recorder for one run or one CLI call."""

    def __init__(self, trace_id: str, clock=time.perf_counter):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.degrees_built: set = set()
        self._stack: list[int] = []
        self._clock = clock

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, name, self._clock(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def end(self, rec: list) -> None:
        rec[4] = self._clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def dump(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "spans": self.spans,
            "counters": dict(self.counters),
        }


# -- hooks: counters read off arguments and results --------------------------


def _div_hook(tr, rec, args, result):
    tr.counters["qt.div.terms_in"] += len(args[0])
    if result is None:
        tr.counters["qt.div.inexact"] += 1


def _mul_hook(tr, rec, args, result):
    a, b = args
    if type(b) is type(a):
        tr.counters["qt.poly.mul.term_products"] += len(a) * len(b)


def _build_hook(tr, rec, args, result):
    # count each degree's output once, however often it is served again
    n = args[0] if args else None
    if n in tr.degrees_built:
        return
    tr.degrees_built.add(n)
    tr.counters["macdonald.entry_terms"] += sum(
        len(e.num) + len(e.den)
        for mat in result
        for row in mat.entries
        for e in row
    )


def _route_hook(tr, rec, args, result):
    rec[2] = f"haglund.route.{result.route}"


def _fast_k_hook(tr, rec, args, result):
    if result is not None:
        tr.counters["reductions.fast_k.hits"] += 1


_HOOKS = {
    "qt.div": _div_hook,
    "qt.poly.mul": _mul_hook,
    "macdonald.build": _build_hook,
    "haglund.check_pair": _route_hook,
    "reductions.fast_k": _fast_k_hook,
}


def _wrap(tr: Tracer, fn, name: str):
    hook = _HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tr.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.end(rec)
        if hook is not None:
            hook(tr, rec, args, result)
        return result

    return wrapper


def _package_modules() -> list:
    return [
        m for key, m in sorted(sys.modules.items())
        if m is not None and (key == "qtkostka" or key.startswith("qtkostka."))
    ]


def install(tr: Tracer) -> list[tuple]:
    """Wrap every public function and named method of the loaded layer
    modules; returns the undo list for ``uninstall``."""
    wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = sys.modules.get(f"qtkostka.{layer}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if (
                attr.startswith("_")
                or isinstance(obj, type)
                or not callable(obj)
                or getattr(obj, "__module__", None) != mod.__name__
            ):
                continue
            name = _ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
            wrappers[id(obj)] = (obj, _wrap(tr, obj, name))
    undo = []
    for layer, cls_name, attr, name in _METHODS:
        mod = sys.modules.get(f"qtkostka.{layer}")
        if mod is None:
            continue
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[attr]
        if id(raw) in wrappers:  # __rmul__ is __mul__
            wrapped = wrappers[id(raw)][1]
        elif isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tr, raw.__func__, name))
        else:
            wrapped = _wrap(tr, raw, name)
        wrappers.setdefault(id(raw), (raw, wrapped))
        setattr(cls, attr, wrapped)
        undo.append((cls, attr, raw))
    for mod in _package_modules():
        for attr, obj in list(vars(mod).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
                undo.append((mod, attr, obj))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# -- analysis -----------------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    out = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] is not None:
            out[s[1]] -= s[4] - s[3]
    return out


def _outermost(spans: list[list]) -> list[list]:
    """Spans with no ancestor of the same name (recursion counted once)."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        parent = s[1]
        while parent is not None and by_id[parent][2] != s[2]:
            parent = by_id[parent][1]
        if parent is None:
            out.append(s)
    return out


def breakdown(traces: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds (outermost spans) and self seconds."""
    table: dict[str, dict] = {}
    for trace in traces:
        spans = trace["spans"]
        selfs = self_times(spans)
        for s in spans:
            row = table.setdefault(s[2], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[s[0]]
        for s in _outermost(spans):
            table[s[2]]["s"] += s[4] - s[3]
    return table


def _median_ms(traces: list[dict], name: str) -> float:
    values = [
        (s[4] - s[3]) * 1000.0
        for t in traces for s in t["spans"] if s[2] == name
    ]
    return statistics.median(values) if values else 0.0


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (one run, or one round of
    CLI calls), from its span traces and counters."""
    table = breakdown(traces)
    counters: Counter = Counter()
    for t in traces:
        counters.update(t["counters"])

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def secs(name):
        return table.get(name, {}).get("s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    div_calls = calls("qt.div")
    out = {
        "qt.div.calls": div_calls,
        "qt.div.inexact": counters["qt.div.inexact"],
        "qt.div.exact_ratio": ratio(div_calls - counters["qt.div.inexact"], div_calls),
        "qt.div.terms_in": counters["qt.div.terms_in"],
        "qt.div.s": secs("qt.div"),
        "qt.div_1mt.calls": calls("qt.div_1mt"),
        "qt.div_1mt.s": secs("qt.div_1mt"),
        "qt.rational.new.calls": calls("qt.rational.new"),
        "qt.rational.new.s": secs("qt.rational.new"),
        "qt.poly.mul.calls": calls("qt.poly.mul"),
        "qt.poly.mul.term_products": counters["qt.poly.mul.term_products"],
        "macdonald.k1.s": secs("macdonald.k1"),
        "macdonald.inverse.s": secs("macdonald.inverse"),
        "macdonald.matmul.s": secs("macdonald.matmul"),
        "macdonald.build.calls": calls("macdonald.build"),
        "macdonald.build.s": secs("macdonald.build"),
        "macdonald.entry_terms": counters["macdonald.entry_terms"],
        "macdonald.k_coeff.calls": calls("macdonald.k_coeff"),
        "macdonald.k_coeff.s": secs("macdonald.k_coeff"),
        "macdonald.to_obj.s": secs("macdonald.to_obj"),
        "macdonald.from_obj.s": secs("macdonald.from_obj"),
        "tableaux.kostka_number.calls": calls("tableaux.kostka_number"),
        "tableaux.kostka_number.s": secs("tableaux.kostka_number"),
        "tableaux.strip_ext.s": secs("tableaux.strip_ext"),
        "partitions.calls": sum(
            row["calls"] for name, row in table.items()
            if name.startswith("partitions.")
        ),
        "reductions.decompose.calls": calls("reductions.decompose"),
        "reductions.decompose.s": secs("reductions.decompose"),
        "reductions.fast_k.calls": calls("reductions.fast_k"),
        "reductions.fast_k.hit_ratio": ratio(
            counters["reductions.fast_k.hits"], calls("reductions.fast_k")
        ),
        "reductions.fast_k.s": secs("reductions.fast_k"),
        "reductions.replay.s": secs("reductions.replay"),
    }
    for r in ROUTES:
        out[f"haglund.route.{r}.calls"] = calls(f"haglund.route.{r}")
        out[f"haglund.route.{r}.s"] = secs(f"haglund.route.{r}")
    for stage in ("gram_schmidt", "orthogonality", "normalization", "plethysm", "k1_match"):
        out[f"oracle.{stage}.s"] = secs(f"oracle.{stage}")
    out["cli.import_s"] = _median_ms(traces, "cli.import") / 1000.0
    for c in CLI_COMMANDS:
        out[f"cli.cmd.{c}.p50_ms"] = _median_ms(traces, f"cli.cmd.{c}")
    out["cli.exit_nonzero"] = counters["cli.exit_nonzero"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in table.items()
            if name.split(".", 1)[0] == layer
        )
    return out
