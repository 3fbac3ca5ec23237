"""Output checks that share no code with ``nearchain``.

Each check reads the files a pass wrote, recomputes what they must hold from
the generator's expectations or by a different algorithm (a time-sorted sweep
for pairs, vectorised peeling for cores, dense ``pdist`` binning for Knox).
Later stages are checked against the oracle's pairs, not the program's.
Failures come back as ``(stage, message)`` pairs, so each one is charged to
the stage invocation that wrote the file.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist

import workloads as wl

#: Which stage writes each output file.
PRODUCER = {
    "events.csv": "ingest",
    "rejects.csv": "ingest",
    "ingest_summary.json": "ingest",
    "edges.txt": "pairs",
    "pairs_summary.json": "pairs",
    "graph_stats.json": "stats",
    "knox_meta.json": "knox",
    "observed.csv": "knox",
    "expected.csv": "knox",
    "residuals.csv": "knox",
    "pvalues.csv": "knox",
    "report.json": "report",
}
PRODUCER.update({f"decompose_{m}.json": "decompose" for m in wl.METHODS})

GEO_TOLERANCE_M = 0.01


def _json(path: Path):
    with open(path) as fh:
        return json.load(fh)


class Events:
    """The cleaned events table, parsed by this file, not by ``nearchain``."""

    def __init__(self, path: Path) -> None:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["id", "x", "y", "t", "category", "multiplicity"]:
            raise ValueError(f"events.csv header {rows[0]}")
        body = rows[1:]
        self.ids = np.array([int(r[0]) for r in body], dtype=np.int64)
        self.x = np.array([float(r[1]) for r in body])
        self.y = np.array([float(r[2]) for r in body])
        self.t = np.array([float(r[3]) for r in body])
        self.category = [r[4] for r in body]
        self.mult = np.array([int(r[5]) for r in body], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.ids)


def read_edges(path: Path) -> np.ndarray:
    with open(path) as fh:
        flat = np.array(fh.read().split(), dtype=np.int64)
    return flat.reshape(-1, 2)


def sweep_pairs(ev: Events) -> np.ndarray:
    """Near-repeat pairs by a sweep over the time-sorted events.

    Pair (i, j), i < j, is in when event j lies in the closed float64 box
    ``[c - r, c + r]`` around event i on every axis, which is the box query
    the pair stage documents.  Events are time-sorted with ids in that order.
    """
    t, x, y = ev.t, ev.x, ev.y
    if np.any(np.diff(t) < 0) or np.any(ev.ids != np.arange(len(ev))):
        raise ValueError("events.csv is not time-sorted with dense ids")
    n = len(t)
    hi = np.searchsorted(t, t + wl.R_T, side="right")
    counts = hi - np.arange(1, n + 1)
    out = []
    start = 0
    while start < n:
        stop = start
        budget = 0
        while stop < n and (budget + counts[stop] <= 4_000_000 or stop == start):
            budget += counts[stop]
            stop += 1
        i = np.repeat(np.arange(start, stop), counts[start:stop])
        offs = np.arange(len(i)) - np.repeat(
            np.cumsum(counts[start:stop]) - counts[start:stop], counts[start:stop]
        )
        j = i + 1 + offs
        keep = (
            (x[i] - wl.R_X <= x[j])
            & (x[j] <= x[i] + wl.R_X)
            & (y[i] - wl.R_Y <= y[j])
            & (y[j] <= y[i] + wl.R_Y)
            & (t[i] - wl.R_T <= t[j])
        )
        out.append(np.stack([i[keep], j[keep]], axis=1))
        start = stop
    return np.concatenate(out) if out else np.zeros((0, 2), dtype=np.int64)


def peel_cores(n: int, edges: np.ndarray) -> np.ndarray:
    """Core numbers by vectorised remove-below-k-until-stable peeling."""
    u, v = edges[:, 0], edges[:, 1]
    alive = np.ones(n, dtype=bool)
    core = np.zeros(n, dtype=np.int64)
    k = 0
    while alive.any():
        k += 1
        while True:
            live = alive[u] & alive[v]
            deg = np.bincount(u[live], minlength=n) + np.bincount(v[live], minlength=n)
            drop = alive & (deg < k)
            if not drop.any():
                break
            alive &= ~drop
        core[alive] = k
    return core


def _groups(n: int, edges: np.ndarray, members: np.ndarray) -> list[tuple[int, ...]]:
    """Connected components of the subgraph induced by ``members``."""
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    sub = edges[mask[edges[:, 0]] & mask[edges[:, 1]]]
    graph = coo_matrix((np.ones(len(sub)), (sub[:, 0], sub[:, 1])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    labels = labels[members]
    order = np.lexsort((members, labels))
    splits = np.nonzero(np.diff(labels[order]))[0] + 1
    groups = [tuple(int(a) for a in g) for g in np.split(members[order], splits)]
    return sorted(groups)


def _read_grid(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in r[1:]] for r in rows[1:]])


class Checker:
    """Runs every check that applies to a workload against one pass's outputs."""

    def __init__(self, workload: wl.Workload, expected: wl.Expected, schema: Path) -> None:
        self.w = workload
        self.exp = expected
        self.schema = schema

    def run(self, out: Path) -> list[tuple[str, str]]:
        stages = self.w.stage_names()
        try:
            ev = Events(out / "events.csv")
            edges = sweep_pairs(ev)
        except (OSError, ValueError, IndexError) as exc:
            return [(stage, f"no usable events.csv: {exc!r}") for stage in stages]
        fails: list[tuple[str, str]] = []
        for stage in stages:
            try:
                msgs = getattr(self, stage)(out, ev, edges)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                msgs = [f"unreadable output: {exc!r}"]
            fails += [(stage, m) for m in msgs]
        return fails

    # ------------------------------------------------------------ per stage

    def ingest(self, out: Path, ev: Events, edges: np.ndarray) -> list[str]:
        exp = self.exp
        msgs = []
        s = _json(out / "ingest_summary.json")
        want = {
            "rows": exp.rows,
            "events": exp.events,
            "duplicates_removed": exp.duplicates,
            "accepted": exp.events + exp.duplicates,
        }
        for key, value in want.items():
            if s[key] != value:
                msgs.append(f"ingest_summary {key} = {s[key]}, generator says {value}")
        for key in ("parse", "total"):
            if s["rejected"][key] != len(exp.reject_lines):
                msgs.append(
                    f"ingest_summary rejected.{key} = {s['rejected'][key]},"
                    f" generator injected {len(exp.reject_lines)}"
                )
        with open(out / "rejects.csv", newline="") as fh:
            lines = [int(r[0]) for r in list(csv.reader(fh))[1:]]
        if lines != exp.reject_lines:
            msgs.append("rejects.csv line numbers differ from the injected rows")
        if len(ev) != exp.events:
            return msgs + [f"events.csv has {len(ev)} rows, expected {exp.events}"]
        if not np.array_equal(ev.ids, np.arange(len(ev))):
            msgs.append("events.csv ids are not 0..n-1")
        if not np.array_equal(ev.t, exp.t):
            msgs.append("events.csv times differ from the generated timestamps")
        if ev.category != exp.category:
            msgs.append("events.csv categories differ from the generated rows")
        if int(ev.mult.sum()) != exp.events + exp.duplicates or int((ev.mult == 2).sum()) != exp.duplicates:
            msgs.append("events.csv multiplicities do not match the injected duplicates")
        if self.w.geographic:
            err = max(np.abs(ev.x - exp.x).max(), np.abs(ev.y - exp.y).max())
            if not err <= GEO_TOLERANCE_M:
                msgs.append(f"projected coordinates off by {err:.4f} m")
        elif not (np.array_equal(ev.x, exp.x) and np.array_equal(ev.y, exp.y)):
            msgs.append("events.csv coordinates differ from the generated rows")
        return msgs

    def pairs(self, out: Path, ev: Events, edges: np.ndarray) -> list[str]:
        got = read_edges(out / "edges.txt")
        msgs = []
        if not np.array_equal(got, edges):
            msgs.append(
                f"edges.txt ({len(got)} edges) differs from the sweep oracle"
                f" ({len(edges)} edges)"
            )
        s = _json(out / "pairs_summary.json")
        if s["edges"] != len(edges) or s["events"] != len(ev):
            msgs.append("pairs_summary counts differ from the sweep oracle")
        return msgs

    def stats(self, out: Path, ev: Events, edges: np.ndarray) -> list[str]:
        s = _json(out / "graph_stats.json")
        n = len(ev)
        graph = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
        ncomp, _ = connected_components(graph, directed=False)
        msgs = []
        if (s["vertices"], s["edges"], s["components"]) != (n, len(edges), ncomp):
            msgs.append("graph_stats vertex, edge or component count is wrong")
        if len(s["component_stats"]) != ncomp or sum(
            c["vertices"] for c in s["component_stats"]
        ) != n:
            msgs.append("graph_stats component_stats do not cover the graph")
        return msgs

    def decompose(self, out: Path, ev: Events, edges: np.ndarray) -> list[str]:
        n = len(ev)
        core = peel_cores(n, edges)
        deg = np.bincount(edges.ravel(), minlength=n)
        adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in edges.tolist():
            adj[a].add(b)
            adj[b].add(a)
        msgs = []
        docs = {m: _json(out / f"decompose_{m}.json") for m in wl.METHODS}
        for method, doc in docs.items():
            if doc["truncated"] or doc["k_min"] != wl.K_MIN:
                msgs.append(f"{method}: truncated or wrong k_min")
            for k, lvl in doc["levels"].items():
                subs = lvl.get("subgraphs")
                if subs is None or len(subs) != lvl["count"]:
                    msgs.append(f"{method} level {k}: members missing or miscounted")
                    continue
                if any(not 0.0 <= s["coefficient"] <= 1.0 for s in subs):
                    msgs.append(f"{method} level {k}: coefficient outside [0, 1]")

        kmax = int(core.max()) if n else 0
        want_levels = [str(k) for k in range(wl.K_MIN, kmax + 1)]
        levels = docs["core"]["levels"]
        if sorted(levels, key=int) != want_levels:
            msgs.append(f"core levels {sorted(levels, key=int)} != peeling {want_levels}")
        else:
            for k in range(wl.K_MIN, kmax + 1):
                groups = _groups(n, edges, np.nonzero(core >= k)[0])
                got = [tuple(s["vertices"]) for s in levels[str(k)]["subgraphs"]]
                if got != groups:
                    msgs.append(f"core level {k} differs from the peeling oracle")
                    continue
                for s in levels[str(k)]["subgraphs"]:
                    vs = s["vertices"]
                    inside = sum(len(adj[v].intersection(vs)) for v in vs) // 2
                    if s["edges"] != inside:
                        msgs.append(f"core level {k}: edge count {s['edges']} != {inside}")
                        break

        for k, lvl in docs["truss"]["levels"].items():
            for s in lvl["subgraphs"]:
                if core[s["vertices"]].min() < int(k) - 1:
                    msgs.append(f"truss level {k}: a subgraph leaves the (k-1)-core")
                    break

        for k, lvl in docs["dbscan"]["levels"].items():
            seen: set[int] = set()
            for s in lvl["subgraphs"]:
                vs = s["vertices"]
                if deg[vs].max() < int(k):
                    msgs.append(f"dbscan level {k}: a cluster has no vertex of degree >= k")
                    break
                if seen.intersection(vs):
                    msgs.append(f"dbscan level {k}: clusters overlap")
                    break
                seen.update(vs)

        for k, lvl in docs["clique"]["levels"].items():
            for s in lvl["subgraphs"]:
                vs = s["vertices"]
                if len(vs) != int(k) or s["coefficient"] != 1.0:
                    msgs.append(f"clique level {k}: wrong size or coefficient")
                    break
                if any(b not in adj[a] for i, a in enumerate(vs) for b in vs[i + 1 :]):
                    msgs.append(f"clique level {k}: {vs} is not a clique")
                    break
                common = set.intersection(*(adj[a] for a in vs))
                if common:
                    msgs.append(f"clique level {k}: {vs} is not maximal")
                    break
        return msgs

    def knox(self, out: Path, ev: Events, edges: np.ndarray) -> list[str]:
        n = len(ev)
        dist = pdist(np.stack([ev.x, ev.y], axis=1))
        gap = pdist(ev.t[:, None], "cityblock")
        db = max(1, math.ceil(dist.max() / wl.KNOX_DISTANCE_STEP))
        tb = max(1, math.ceil(gap.max() / wl.KNOX_TIME_STEP))
        bi = np.minimum(np.floor(dist / wl.KNOX_DISTANCE_STEP).astype(np.int64), db - 1)
        bj = np.minimum(np.floor(gap / wl.KNOX_TIME_STEP).astype(np.int64), tb - 1)
        want = np.bincount(bi * tb + bj, minlength=db * tb).reshape(db, tb)
        del dist, gap, bi, bj
        got = _read_grid(out / "observed.csv")
        msgs = []
        if got.shape != want.shape or not np.array_equal(got, want):
            msgs.append(f"observed.csv {got.shape} differs from dense binning {want.shape}")
        if got.sum() != n * (n - 1) // 2:
            msgs.append("observed.csv does not total n(n-1)/2 pairs under clamp")
        rounds = wl.knox_permutations(self.w)
        meta = _json(out / "knox_meta.json")
        if meta["permutations"] != rounds or meta["total_pairs"] != n * (n - 1) // 2:
            msgs.append("knox_meta permutations or total_pairs wrong")
        pv_path = out / "pvalues.csv"
        if rounds:
            pv = _read_grid(pv_path)
            scaled = pv * (rounds + 1)
            if pv.shape != want.shape:
                msgs.append("pvalues.csv has the wrong shape")
            elif not (pv.min() >= 1.0 / (rounds + 1) - 1e-12 and pv.max() <= 1.0 + 1e-12):
                msgs.append("p-values outside [1/(R+1), 1]")
            elif np.abs(scaled - np.round(scaled)).max() > 1e-6:
                msgs.append("p-values are not multiples of 1/(R+1)")
        elif pv_path.exists():
            msgs.append("pvalues.csv written with zero permutations")
        return msgs

    def report(self, out: Path, ev: Events, edges: np.ndarray) -> list[str]:
        doc = _json(out / "report.json")
        msgs = []
        try:
            jsonschema.validate(doc, _json(self.schema))
        except jsonschema.ValidationError as exc:
            msgs.append(f"report.json fails its schema: {exc.message}")
        if doc["dataset"]["rows"] != self.exp.rows or doc["dataset"]["events"] != self.exp.events:
            msgs.append("report.json dataset counts differ from the generator")
        return msgs
