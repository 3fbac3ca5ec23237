"""Spans recorded from outside the program, and the per-layer metrics made from them.

:class:`Instrumented` replaces the public functions of each ``nearchain`` module
with wrappers that record one span per call (name, start, end, parent span,
run id, thread); the runner spans each ``cli.main`` call itself.  Nothing
under ``src/`` changes: the wrappers are installed on the imported modules at
run time and removed by :meth:`Instrumented.restore`.
Calls between modules go through module attributes and calls inside a module
go through its globals, so both see the wrappers.

Work handed to a ``ThreadPoolExecutor`` keeps its parent span: the modules'
pool class is swapped for one whose ``submit`` carries the submitting
thread's current span into the worker thread.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

from workloads import METHODS

# Called once per input row; a span each would swamp the ingest it sits in.
PER_ROW = frozenset({"events.round_coord", "events.round_time", "projection.zone_for_lon"})
STAGES = ("ingest", "pairs", "stats", "decompose", "knox", "report")


class Tracer:
    """Thread-safe in-memory span and counter store."""

    def __init__(self, run_id: int) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, parent, name, start, end, run, thread)
        self.counters: dict[str, float] = defaultdict(float)

    def stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self.stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (sid, parent, name, start, end, self.run_id, threading.get_ident())
                )

    def pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer.stack()
                parent = stack[-1] if stack else 0

                def run(*a, **k):
                    st = tracer.stack()
                    saved = st[:]
                    st[:] = [parent] if parent else []
                    try:
                        return fn(*a, **k)
                    finally:
                        st[:] = saved

                return super().submit(run, *args, **kwargs)

        return TracedPool


# ---------------------------------------------------------------- wrappers


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _observe(tracer: Tracer, name: str, args, kwargs, result) -> None:
    """Counts taken at the layer boundary from arguments and results."""
    c = tracer.count
    if name == "events.ingest_events":
        s = result.summary
        c("events.rows", s["rows"])
        c("events.rejects", s["rejected"]["total"])
        c("events.duplicates", s["duplicates_removed"])
    elif name == "projection.project_many":
        c("projection.points", len(result[0]))
    elif name == "spatial.neighbor_pairs":
        c("spatial.pairs", len(result))
    elif name == "graph.write_edge_list":
        c("graph.edges", len(_arg(args, kwargs, 0, "edges")))
    elif name.startswith("cohesive.decompose."):
        method = name.rsplit(".", 1)[1]
        c(f"cohesive.{method}.levels", len(result.per_k))
        c(f"cohesive.{method}.subgraphs", sum(len(v) for v in result.per_k.values()))
        if method == "clique":
            c("cohesive.clique.truncated", int(result.truncated))
    elif name == "cohesive.enumerate_cliques":
        c("cohesive.cliques", len(result.cliques))
    elif name == "knox.build_table":
        cfg = _arg(args, kwargs, 1, "config")
        unresolved = cfg is None or cfg.distance_bins is None or cfg.time_bins is None
        # build_table makes one extra full pass to size the bins when they are unset
        c("knox.pair_evals", result.total_pairs * (2 if unresolved else 1))
    elif name == "knox.monte_carlo":
        table = _arg(args, kwargs, 1, "table")
        cfg = _arg(args, kwargs, 2, "config") or table.config
        c("knox.rounds", cfg.permutations)
        c("knox.pair_evals", table.total_pairs * cfg.permutations)


def _wrap(tracer: Tracer, name: str, fn, label=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        full = f"{name}.{label(args, kwargs)}" if label else name
        result = tracer.call(full, fn, *args, **kwargs)
        _observe(tracer, full, args, kwargs, result)
        return result

    return traced


def _wrap_query(tracer: Tracer, fn):
    """``RTree3.query_ids`` runs once per event, so it gets counts, not spans."""

    @functools.wraps(fn)
    def counted(self, lo, hi):
        ids = fn(self, lo, hi)
        with tracer._lock:
            tracer.counters["spatial.queries"] += 1
            tracer.counters["spatial.ids_returned"] += len(ids)
        return ids

    return counted


class Instrumented:
    """Wrappers installed on the ``nearchain`` modules; undo with :meth:`restore`."""

    def __init__(self, tracer: Tracer, modules: dict) -> None:
        self._saved: list[tuple[object, str, object]] = []
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or f"{layer}.{attr}" in PER_ROW
                ):
                    continue
                label = None
                if layer == "cohesive" and attr == "decompose":
                    label = lambda a, k: _arg(a, k, 1, "method")  # noqa: E731
                self._set(mod, attr, _wrap(tracer, f"{layer}.{attr}", obj, label))
            if "ThreadPoolExecutor" in vars(mod):
                self._set(mod, "ThreadPoolExecutor", tracer.pool_class())
        rtree = modules["spatial"].RTree3
        self._set(rtree, "query_ids", _wrap_query(tracer, rtree.query_ids))

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


# ----------------------------------------------------------- derived metrics


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    """Queries over one pass's spans."""

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list[tuple]] = defaultdict(list)
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        for s in spans:
            self.children[s[1]].append(s)
            self.by_name[s[2]].append(s)

    def _has_ancestor_named(self, span, name: str) -> bool:
        parent = self.by_id.get(span[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = self.by_id.get(parent[1])
        return False

    def named(self, name: str) -> list[tuple]:
        return self.by_name.get(name, [])

    def total(self, *names: str) -> float:
        """Summed duration of the outermost spans with these names.

        Spans in the two pool threads overlap in time, so this is busy time
        summed over threads, which can exceed the wall time it falls in.
        """
        return sum(
            s[4] - s[3]
            for name in names
            for s in self.named(name)
            if not self._has_ancestor_named(s, name)
        )

    def calls(self, *names: str) -> int:
        return sum(len(self.named(n)) for n in names)

    def self_time(self, span) -> float:
        """Span duration minus the part of it covered by other layers' spans."""
        layer = span[2].split(".", 1)[0]
        covered: list[tuple[float, float]] = []
        todo = list(self.children.get(span[0], []))
        while todo:
            child = todo.pop()
            if child[2].split(".", 1)[0] == layer:
                todo.extend(self.children.get(child[0], []))
            else:
                covered.append((max(child[3], span[3]), min(child[4], span[4])))
        return (span[4] - span[3]) - _union_length([c for c in covered if c[1] > c[0]])


GRAPH_TIMERS = {
    "build": ("build_graph",),
    "induced": ("induced_subgraph",),
    "components": ("connected_components",),
    "clustering": ("clustering_coefficient",),
    "diameter": ("diameter",),
    "supports": ("compute_supports",),
    "stats": ("graph_stats",),
    "edge_io": ("write_edge_list", "read_edge_list"),
}

#: Counts derived from array sizes rather than measured.
COMPUTED = ("knox.pair_evals", "knox.bytes_computed", "knox.pair_evals_per_s")
#: Bytes per pair evaluation: one float64 distance and one float64 time gap.
KNOX_BYTES_PER_PAIR = 16


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer figure of the traced pass, by metric name (seconds or counts)."""
    ix = SpanIndex(tracer.spans)
    cnt = tracer.counters
    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"cli.{stage}_s"] = ix.total(f"cli.{stage}")
    m["cli.events_reloads"] = ix.calls("events.read_events_csv")

    m["events.ingest_s"] = ix.total("events.ingest_events")
    m["events.read_s"] = ix.total("events.read_events_csv")
    m["events.write_s"] = ix.total("events.write_events_csv", "events.write_rejects_csv")
    for key in ("rows", "rejects", "duplicates"):
        m[f"events.{key}"] = cnt[f"events.{key}"]

    m["projection.project_s"] = ix.total("projection.project_many", "projection.project_to_utm")
    m["projection.points"] = cnt["projection.points"]

    m["spatial.build_s"] = ix.total("spatial.build")
    m["spatial.pairs_s"] = ix.total("spatial.neighbor_pairs")
    for key in ("queries", "ids_returned", "pairs"):
        m[f"spatial.{key}"] = cnt[f"spatial.{key}"]
    m["spatial.useful_ratio"] = (
        cnt["spatial.pairs"] / cnt["spatial.ids_returned"] if cnt["spatial.ids_returned"] else 0.0
    )

    for key, funcs in GRAPH_TIMERS.items():
        names = [f"graph.{f}" for f in funcs]
        m[f"graph.{key}_s"] = ix.total(*names)
        m[f"graph.{key}_calls"] = ix.calls(*names)
    m["graph.edges"] = cnt["graph.edges"]

    for method in METHODS:
        spans = ix.named(f"cohesive.decompose.{method}")
        m[f"cohesive.{method}_s"] = sum(s[4] - s[3] for s in spans)
        m[f"cohesive.{method}.self_s"] = sum(ix.self_time(s) for s in spans)
        m[f"cohesive.{method}.levels"] = cnt[f"cohesive.{method}.levels"]
        m[f"cohesive.{method}.subgraphs"] = cnt[f"cohesive.{method}.subgraphs"]
    m["cohesive.core_numbers_s"] = ix.total("cohesive.core_numbers")
    m["cohesive.truss_numbers_s"] = ix.total("cohesive.truss_numbers")
    m["cohesive.cliques"] = cnt["cohesive.cliques"]
    m["cohesive.clique.truncated"] = cnt["cohesive.clique.truncated"]

    m["knox.table_s"] = ix.total("knox.build_table")
    m["knox.mc_s"] = ix.total("knox.monte_carlo")
    m["knox.rounds"] = cnt["knox.rounds"]
    m["knox.round_s"] = m["knox.mc_s"] / cnt["knox.rounds"] if cnt["knox.rounds"] else 0.0
    m["knox.pair_evals"] = cnt["knox.pair_evals"]
    busy = m["knox.table_s"] + m["knox.mc_s"]
    m["knox.pair_evals_per_s"] = cnt["knox.pair_evals"] / busy if busy else 0.0
    m["knox.bytes_computed"] = cnt["knox.pair_evals"] * KNOX_BYTES_PER_PAIR
    m["knox.emit_s"] = ix.total("knox.emit_heatmap")
    m["trace.spans"] = len(ix.spans)
    return m
