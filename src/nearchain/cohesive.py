"""Cohesive-subgraph detectors: k-core, k-truss, k-DBSCAN, maximal cliques.

Each detector reports, per k >= k_min, an inventory of subgraphs canonically
ordered by smallest member id, each with its size, edge count, and mean local
clustering coefficient; a truss subgraph also carries the ids of its edges,
since it is edge-defined.  Truss numbers come from a level-synchronous numpy
peel over one triangle listing and its edge-to-triangle index.  The checks of
each subgraph's defining property live with the test suite's oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph as graphmod
from .config import DEFAULT_K_MIN, DEFAULT_MAX_CLIQUES


@dataclass(frozen=True)
class Subgraph:
    """One reported cohesive subgraph: vertex set plus induced stats."""

    vertices: tuple[int, ...]  # sorted ascending
    n_edges: int
    coefficient: float
    edge_ids: tuple[int, ...] | None = None  # ascending ids into g.edges; truss only


@dataclass
class DecompositionResult:
    """Map from k to the subgraph inventory produced by one method."""

    method: str
    k_min: int
    per_k: dict[int, list[Subgraph]]
    truncated: bool = False


@dataclass
class CliqueSet:
    """All maximal cliques of size >= k_min."""

    cliques: list[tuple[int, ...]]  # each sorted; list lexicographically sorted
    truncated: bool
    k_min: int


# --------------------------------------------------------------------- k-core


def core_numbers(g: graphmod.EventGraph, return_order: bool = False):
    """Per-vertex core numbers via bucket peeling (ascending-degree order).

    With ``return_order=True`` also returns the peeling order, which is a
    degeneracy order of the graph.
    """
    n = g.n
    deg = g.degrees.astype(np.int64).copy()
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return (empty, []) if return_order else empty
    # vertices sorted by degree, ties by id; bins[d] is where degree d starts
    vert = np.argsort(deg, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[vert] = np.arange(n)
    bins = np.searchsorted(deg[vert], np.arange(int(deg.max()) + 1))
    ro, ci = g.row_offsets, g.col_indices
    for i in range(n):
        v = int(vert[i])
        dv = deg[v]
        if bins[dv] <= i:
            bins[dv] = i + 1
        for w in ci[ro[v] : ro[v + 1]]:
            w = int(w)
            if deg[w] > dv:
                dw = deg[w]
                pw = int(pos[w])
                ps = int(bins[dw])
                u = int(vert[ps])
                if u != w:
                    vert[ps], vert[pw] = w, u
                    pos[w], pos[u] = ps, pw
                bins[dw] = ps + 1
                deg[w] -= 1
    if return_order:
        return deg, [int(v) for v in vert]
    return deg


def k_core_decompose(
    g: graphmod.EventGraph, k_min: int = DEFAULT_K_MIN
) -> DecompositionResult:
    """Maximal subgraphs of minimum internal degree k, per k >= k_min.

    Each level is reported as the connected components of the k-core, the
    vertices of core number >= k; levels run up to the largest core number.
    An edge or triangle joins the k-core at the smallest core number of its
    vertices, so one sweep over those numbers yields every level.
    """
    core = core_numbers(g)
    tris = graphmod.triangles(g)[0]
    e = g.edges
    levels = graphmod.level_components(
        g,
        tris,
        core,
        np.minimum(core[e[:, 0]], core[e[:, 1]]),
        core[tris].min(axis=1),
        k_min,
    )
    per_k = {
        k: [Subgraph(c.vertices, len(c.edge_ids), c.coefficient) for c in comps]
        for k, comps in levels.items()
    }
    return DecompositionResult("core", k_min, per_k)


# -------------------------------------------------------------------- k-truss


def truss_numbers(g: graphmod.EventGraph, sides: np.ndarray | None = None) -> np.ndarray:
    """Per-edge truss numbers by a level-synchronous peel.

    Edge e survives in the k-truss iff truss_number[e] >= k.  Edges with no
    triangles get truss number 2.  ``sides`` is the second array of
    :func:`graph.triangles`, listed here when the caller has not.

    Each round gives truss number k to every live edge of support <= k - 2,
    kills the live triangles they close, found through an edge-to-triangle
    index, and lowers their sides' supports; k rises to the smallest live
    support + 2 when no edge qualifies (Wang & Cheng, PVLDB 2012).
    """
    m = g.m
    if sides is None:
        sides = graphmod.triangles(g)[1]
    sup = np.bincount(sides.ravel(), minlength=m)
    # triangles of edge e: tri_of[start[e] : start[e + 1]], in no set order
    start = np.concatenate([[0], np.cumsum(sup)])
    tri_of = np.argsort(sides.ravel())
    tri_of //= 3
    owner = np.full(len(sides), -1)  # set once the triangle is dead
    dead = np.iinfo(np.int64).max  # the support of a peeled edge
    tn = np.zeros(m, dtype=np.int64)
    k = 2
    while (low := int(sup.min(initial=dead))) != dead:
        k = max(k, low + 2)
        frontier = np.flatnonzero(sup <= k - 2)
        tn[frontier] = k
        cnt = start[frontier + 1] - start[frontier]
        at = np.arange(cnt.sum()) + np.repeat(start[frontier] - np.cumsum(cnt) + cnt, cnt)
        hit = tri_of[at]
        hit = hit[owner[hit] < 0]
        # a triangle with two or three frontier sides is listed once per side:
        # the one occurrence whose position lands in owner kills it
        owner[hit] = np.arange(len(hit))
        hit = hit[owner[hit] == np.arange(len(hit))]
        sup -= np.bincount(sides[hit].ravel(), minlength=m)
        sup[frontier] = dead
    return tn


def k_truss_decompose(
    g: graphmod.EventGraph, k_min: int = DEFAULT_K_MIN
) -> DecompositionResult:
    """Maximal subgraphs where every edge closes >= k-2 triangles, per k.

    Subgraphs are edge-defined: each level keeps edges of truss number >= k,
    drops isolated vertices, and reports connected components.  A vertex
    joins at the largest truss number of its edges and a triangle at the
    smallest of its three, so one sweep over those numbers yields every level.
    """
    tris, sides = graphmod.triangles(g)
    tn = truss_numbers(g, sides)
    e = g.edges
    tri_level = tn[sides].min(axis=1)
    del sides  # the level sweep needs only the rows; this lowers its peak memory
    vertex_level = np.full(g.n, np.iinfo(np.int64).min)
    np.maximum.at(vertex_level, e[:, 0], tn)
    np.maximum.at(vertex_level, e[:, 1], tn)
    levels = graphmod.level_components(g, tris, vertex_level, tn, tri_level, k_min)
    per_k = {
        k: [
            Subgraph(
                c.vertices,
                len(c.edge_ids),
                c.coefficient,
                tuple(c.edge_ids.tolist()),
            )
            for c in comps
        ]
        for k, comps in levels.items()
    }
    return DecompositionResult("truss", k_min, per_k)


# ------------------------------------------------------------------- k-dbscan


def k_dbscan(
    g: graphmod.EventGraph, k_min: int = DEFAULT_K_MIN
) -> DecompositionResult:
    """Graph-form density clustering, per k starting at k_min.

    At each k, a vertex of working-graph degree >= k seeds a cluster that
    grows breadth-first through every working-graph neighbor, border members
    included; unclustered vertices leave the working graph and k increments
    until no seed is left.  A cluster is a whole component of the working
    graph, so removing the others changes no surviving degree: the clusters
    at level k are the components of ``g`` whose largest degree is >= k.
    """
    comps = graphmod.component_table(g)
    deg = g.degrees.tolist()
    top = [max(deg[v] for v in c.vertices) for c in comps]
    subs = [Subgraph(c.vertices, len(c.edge_ids), c.coefficient) for c in comps]
    per_k = {
        k: [sg for sg, t in zip(subs, top) if t >= k]
        for k in range(k_min, max(top, default=k_min - 1) + 1)
    }
    return DecompositionResult("dbscan", k_min, per_k)


# -------------------------------------------------------------------- cliques


class _Truncated(Exception):
    pass


def enumerate_cliques(
    g: graphmod.EventGraph,
    k_min: int = DEFAULT_K_MIN,
    max_count: int = DEFAULT_MAX_CLIQUES,
) -> CliqueSet:
    """All maximal cliques of size >= k_min via pivoted Bron-Kerbosch.

    The outer loop follows a degeneracy order; enumeration aborts with the
    ``truncated`` flag once ``max_count`` maximal cliques have been seen.
    """
    ro, ci = g.row_offsets, g.col_indices
    adj = [set(ci[ro[v] : ro[v + 1]].tolist()) for v in range(g.n)]
    _, order = core_numbers(g, return_order=True)
    rank = {v: i for i, v in enumerate(order)}
    found: list[tuple[int, ...]] = []
    seen = 0

    def expand(r: list[int], p: set[int], x: set[int]) -> None:
        nonlocal seen
        if not p and not x:
            seen += 1
            if len(r) >= k_min:
                found.append(tuple(sorted(r)))
            if seen >= max_count:
                raise _Truncated
            return
        pivot, best = -1, -1
        for u in sorted(p | x):
            c = len(p & adj[u])
            if c > best:
                pivot, best = u, c
        for v in sorted(p - adj[pivot]):
            r.append(v)
            expand(r, p & adj[v], x & adj[v])
            r.pop()
            p.remove(v)
            x.add(v)

    truncated = False
    try:
        for v in order:
            later = {w for w in adj[v] if rank[w] > rank[v]}
            earlier = adj[v] - later
            expand([v], later, earlier)
    except _Truncated:
        truncated = True
    found.sort()
    return CliqueSet(found, truncated, k_min)


def clique_decomposition(cliques: CliqueSet) -> DecompositionResult:
    """Adapt a CliqueSet to the per-k reporting shape (k = clique size)."""
    per_k: dict[int, list[Subgraph]] = {}
    for c in cliques.cliques:
        s = len(c)
        per_k.setdefault(s, []).append(Subgraph(c, s * (s - 1) // 2, 1.0))
    for subs in per_k.values():
        subs.sort(key=lambda sg: sg.vertices)
    return DecompositionResult(
        "clique", cliques.k_min, dict(sorted(per_k.items())), cliques.truncated
    )


# ------------------------------------------------------------------ dispatch


def decompose(
    g: graphmod.EventGraph,
    method: str,
    k_min: int = DEFAULT_K_MIN,
    max_count: int = DEFAULT_MAX_CLIQUES,
) -> DecompositionResult:
    """Run one method by name on the whole graph, in the calling thread."""
    runners = {
        "core": lambda: k_core_decompose(g, k_min),
        "truss": lambda: k_truss_decompose(g, k_min),
        "dbscan": lambda: k_dbscan(g, k_min),
        "clique": lambda: clique_decomposition(
            enumerate_cliques(g, k_min, max_count)
        ),
    }
    if method not in runners:
        raise ValueError(f"unknown method {method!r}; expected one of {sorted(runners)}")
    return runners[method]()
