"""Span tracer for the traced benchmark run.

The public functions of the layers are wrapped by rebinding them wherever
they are bound: in the defining module, in every `seymour` module that
imported them, in the `theorems._GATES` and `THEOREMS` tables, and on
`Digraph` for the two methods.  Each wrapped call records a span (name,
start, end, parent) in flat arrays; self time is a span's duration minus
the durations of its children, computed once at the end.

The run is single-threaded, so spans nest strictly and no layer ever waits
on another: there is no queue or lock whose wait time could be reported.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from seymour import dependency, digraph, forge, orders, stars, theorems
from seymour.errors import HypothesisFailedError

# (layer, module, attribute) of every wrapped module-level function
FUNCTIONS = (
    ("orders", orders, "exact_median_order"),
    ("orders", orders, "good_median_order"),
    ("orders", orders, "local_median_order"),
    ("orders", orders, "sediment"),
    ("orders", orders, "sed"),
    ("orders", orders, "analyze"),
    ("orders", orders, "forward_weight"),
    ("dependency", dependency, "dependency_digraph"),
    ("dependency", dependency, "component_index"),
    ("dependency", dependency, "goodness"),
    ("dependency", dependency, "j_of"),
    ("stars", stars, "decompose"),
    ("stars", stars, "convenient_orientations"),
    ("theorems", theorems, "has_snp"),
    ("forge", forge, "filtered_search"),
)
METHODS = (("digraph", digraph.Digraph, "induced"), ("digraph", digraph.Digraph, "complete"))
LAYERS = ("orders", "dependency", "stars", "digraph", "theorems", "forge")


def slug(theorem_id: str) -> str:
    """Metric-safe form of a theorem id (`star+matching` -> `star-matching`)."""
    return theorem_id.replace("+", "-")


def _exact_is_lex(args, kwargs) -> bool:
    """True when exact_median_order takes its lexicographic (tuple) DP path."""
    d = args[0]
    w = kwargs.get("w", args[1] if len(args) > 1 else None)
    tiebreak = kwargs.get("tiebreak", args[2] if len(args) > 2 else None)
    if tiebreak:
        return True
    return w is not None and d.n > 0 and (not w.is_uniform() or w[0] == 0)


class Tracer:
    """Spans and counters of one traced run; install() wraps, uninstall() undoes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._scope_inputs: dict[str, set] = defaultdict(set)
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        if not self._stack:
            # a root span ends: fold the distinct inputs seen inside it
            for name, seen in self._scope_inputs.items():
                self.counts[name + ".distinct"] += len(seen)
            self._scope_inputs.clear()

    def root(self, name: str, fn, *args):
        """Run fn(*args) inside a root span (one benchmark op or set-up)."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, name: str, layer: str, fn, on_call=None, on_result=None):
        nid = self._name_id(name)
        open_, close = self._open, self._close
        counts = self.counts

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                close(idx)
                if not isinstance(exc, HypothesisFailedError) and not getattr(
                    exc, "_perfbench_counted", False
                ):
                    # counted once, at the innermost wrapped call it escapes
                    exc._perfbench_counted = True
                    counts[layer + ".errors"] += 1
                raise
            close(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters attached to particular functions --------------------------

    def _distinct(self, name: str):
        scope = self._scope_inputs

        def on_call(args, kwargs):
            scope[name].add(args[0])

        return on_call

    def _hooks(self, name: str):
        c = self.counts
        if name == "orders.exact_median_order":
            def on_call(args, kwargs):
                n = args[0].n
                c[name + ".transitions"] += n << (n - 1) if n else 0
                c[name + ".lex_calls"] += _exact_is_lex(args, kwargs)
            return on_call, None
        if name == "orders.sediment":
            def on_result(args, kwargs, trace):
                c[name + ".steps"] += len(trace.orders)
                c[name + ".periodic"] += trace.outcome.kind == "periodic"
            return None, on_result
        if name == "dependency.dependency_digraph":
            distinct = self._distinct(name)

            def on_result(args, kwargs, dd):
                m = len(dd.edges)
                c[name + ".pairs"] += m * (m - 1)
            return distinct, on_result
        if name in ("dependency.component_index", "stars.decompose"):
            return self._distinct(name), None
        if name == "forge.filtered_search":
            def on_result(args, kwargs, res):
                c[name + ".attempts"] += res.attempts
                c[name + ".accepted"] += len(res.instances)
            return None, on_result
        return None, None

    # -- installation -------------------------------------------------------

    def _rebind_everywhere(self, original, wrapped) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "seymour" or modname.startswith("seymour.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((setattr, mod, attr, original))

    def _rebind_table(self, table: dict, key, wrapped) -> None:
        self._undo.append((dict.__setitem__, table, key, table[key]))
        table[key] = wrapped

    def install(self) -> None:
        for layer, mod, attr in FUNCTIONS:
            name = f"{layer}.{attr}"
            original = getattr(mod, attr)
            on_call, on_result = self._hooks(name)
            self._rebind_everywhere(
                original, self.wrap(name, layer, original, on_call, on_result)
            )
        for layer, cls, attr in METHODS:
            original = cls.__dict__[attr]
            self._undo.append((setattr, cls, attr, original))
            setattr(cls, attr, self.wrap(f"{layer}.{attr}", layer, original))
        original = stars.center_assignments
        self._rebind_everywhere(original, self._count_readings(original))
        for table, kind in ((theorems._GATES, "gate"), (theorems.THEOREMS, "procedure")):
            for tid, original in list(table.items()):
                wrapped = self.wrap(f"theorems.{kind}.{slug(tid)}", "theorems", original)
                self._rebind_everywhere(original, wrapped)
                self._rebind_table(table, tid, wrapped)

    def _count_readings(self, original):
        counts = self.counts

        def center_assignments(*args, **kwargs):
            for reading in original(*args, **kwargs):
                counts["stars.center_assignments.readings"] += 1
                yield reading

        return center_assignments

    def uninstall(self) -> None:
        while self._undo:
            op, target, key, value = self._undo.pop()
            op(target, key, value)

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        names = self.names
        for i in range(n):
            name = names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += own[i]
        return calls, self_s

    def write(self, path) -> None:
        """All spans as gzip'd CSV: span id, name, start, end, parent id."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{names[self.name_of[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]}\n"
                )


def layer_metrics(tracer: Tracer, witnesses: int) -> tuple[dict, dict]:
    """Per-layer metrics {name: (value, unit)} and self-time shares by layer."""
    calls, self_s = tracer.self_times()
    c = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}

    def timed(name: str) -> None:
        metrics[name + ".calls"] = (calls.get(name, 0), "count")
        metrics[name + ".self_s"] = (self_s.get(name, 0.0), "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for layer, _, attr in FUNCTIONS + METHODS:
        timed(f"{layer}.{attr}")
    for tid in theorems.THEOREM_IDS:
        timed(f"theorems.gate.{slug(tid)}")
        timed(f"theorems.procedure.{slug(tid)}")
    for name in ("exact_median_order.transitions", "exact_median_order.lex_calls",
                 "sediment.steps", "sediment.periodic"):
        metrics["orders." + name] = (int(c["orders." + name]), "count")
    metrics["dependency.dependency_digraph.pairs"] = (
        int(c["dependency.dependency_digraph.pairs"]), "count")
    for name in ("dependency.dependency_digraph", "dependency.component_index",
                 "stars.decompose"):
        metrics[name + ".distinct_ratio"] = (
            ratio(c[name + ".distinct"], calls.get(name, 0)), "ratio")
    metrics["stars.center_assignments.readings"] = (
        int(c["stars.center_assignments.readings"]), "count")
    metrics["theorems.oracle_per_witness"] = (
        ratio(calls.get("theorems.has_snp", 0), witnesses), "ratio")
    metrics["forge.filtered_search.attempts"] = (
        int(c["forge.filtered_search.attempts"]), "count")
    metrics["forge.filtered_search.acceptance_ratio"] = (
        ratio(c["forge.filtered_search.accepted"], c["forge.filtered_search.attempts"]),
        "ratio")
    for layer in LAYERS:
        metrics[layer + ".errors"] = (int(c[layer + ".errors"]), "count")

    total = sum(self_s.values())
    by_layer: dict[str, float] = defaultdict(float)
    for name, s in self_s.items():
        by_layer[name.split(".")[0]] += s
    shares = {
        "by_layer": {k: round(v / total, 4) for k, v in sorted(by_layer.items())},
        "top": {
            name: round(s / total, 4)
            for name, s in sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
        },
    }
    return metrics, shares
