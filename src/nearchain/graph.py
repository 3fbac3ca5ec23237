"""Undirected simple event graph in CSR form plus structural statistics.

An edge's id is its row in the sorted ``edges`` array.  :func:`triangles`
lists every triangle once together with the ids of its three sides, so
supports and the truss peel index edges without searching for them again.
One component engine, :func:`component_labels` (hooking plus pointer jumping
over an edge array), labels the pair graph, every level of a nested k-core /
k-truss / k-DBSCAN family (:func:`level_components`) and the whole graph for
the per-component statistics (:func:`component_table`, :func:`graph_stats`):
sizes, edge counts, mean local clustering coefficients and exact diameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import SCHEMA_VERSION


class EventGraph:
    """CSR adjacency: row offsets (n+1) and sorted column indices (2m)."""

    def __init__(self, n, edges, row_offsets, col_indices):
        self.n = int(n)
        self.edges = edges  # (m, 2) int64, u < v per row, lexicographically sorted
        self.m = int(len(edges))
        self.row_offsets = row_offsets
        self.col_indices = col_indices
        self._adj_sets: list[set[int]] | None = None

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def adjacency_sets(self) -> list[set[int]]:
        """Per-vertex neighbor sets (cached)."""
        if self._adj_sets is None:
            ro, ci = self.row_offsets, self.col_indices
            self._adj_sets = [
                set(map(int, ci[ro[v] : ro[v + 1]])) for v in range(self.n)
            ]
        return self._adj_sets



@dataclass(frozen=True)
class Component:
    """One connected component of a level: members, edges, mean coefficient."""

    vertices: tuple[int, ...]  # ascending
    edge_ids: np.ndarray  # ascending, so the edges are in lexicographic order
    coefficient: float


def _check_endpoints(n: int, edges: np.ndarray) -> None:
    if len(edges) and (edges.min() < 0 or edges.max() >= n):
        raise ValueError(
            f"edge endpoint out of range 0..{n - 1}: "
            f"min {edges.min()}, max {edges.max()}"
        )


def build_graph(n: int, pairs) -> EventGraph:
    """Build a CSR graph on n vertices from deduplicated undirected pairs."""
    arr = np.asarray(sorted(pairs) if isinstance(pairs, set) else list(pairs), dtype=np.int64)
    arr = arr.reshape(-1, 2)
    if len(arr):
        _check_endpoints(n, arr)
        if (arr[:, 0] == arr[:, 1]).any():
            bad = arr[arr[:, 0] == arr[:, 1]][0]
            raise ValueError(f"self-loop at vertex {int(bad[0])}")
        u = np.minimum(arr[:, 0], arr[:, 1])
        v = np.maximum(arr[:, 0], arr[:, 1])
        edges = np.unique(np.stack([u, v], axis=1), axis=0)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=row_offsets[1:])
    return EventGraph(n, edges, row_offsets, dst[order])


def component_labels(n: int, edges) -> tuple[np.ndarray, int]:
    """Dense component labels of n vertices under an (m, 2) edge array, and their count.

    Labels are ordered by smallest member; a vertex without edges is its own
    component.  Each round hooks every root under the smallest root across
    its edges, then jumps pointers until every vertex points at its root.  A
    root only ever hooks under a smaller one, so each component's final
    root is its smallest member.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    _check_endpoints(n, edges)
    parent = np.arange(n, dtype=np.int64)
    while True:
        a, b = parent[edges[:, 0]], parent[edges[:, 1]]
        split = a != b
        if not split.any():
            break
        np.minimum.at(parent, np.maximum(a, b)[split], np.minimum(a, b)[split])
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    roots, labels = np.unique(parent, return_inverse=True)
    return labels.astype(np.int64), len(roots)


def triangles(g: EventGraph) -> tuple[np.ndarray, np.ndarray]:
    """Every triangle once, and the edge ids of its three sides.

    Triangles are rows (u, v, w) with u < v < w, rows sorted; the matching
    row of side ids names the edges (u, v), (u, w) and (v, w).  The rows of
    ``g.edges`` starting at u list u's higher neighbors in ascending order;
    each pair (v, w) of them is a wedge, made of two of those rows, and a
    triangle when (v, w) is an edge, found by ``searchsorted``.
    """
    n, m, e = g.n, g.m, g.edges
    row_end = np.cumsum(np.bincount(e[:, 0], minlength=n))[e[:, 0]]
    later = row_end - np.arange(m) - 1  # higher neighbors after this one
    keys = e[:, 0] * n + e[:, 1]
    sides = [np.zeros((0, 3), dtype=np.int64)]
    # wedges in slices of whole edges, to bound the temporary arrays
    bounds = np.searchsorted(np.cumsum(later), np.arange(0, later.sum(), 1 << 16))
    for lo, hi in zip(bounds, [*bounds[1:], m]):
        cnt = later[lo:hi]
        uv = np.repeat(np.arange(lo, hi), cnt)
        uw = uv + 1 + np.arange(len(uv)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        v, w = e[uv, 1], e[uw, 1]
        vw = np.minimum(np.searchsorted(keys, v * n + w), m - 1)
        hit = keys[vw] == v * n + w
        sides.append(np.stack([uv[hit], uw[hit], vw[hit]], axis=1))
    sides = np.concatenate(sides)
    tris = np.empty_like(sides)  # filled in slices, again to bound temporaries
    for lo in range(0, len(sides), 1 << 16):
        part = sides[lo : lo + (1 << 16)]
        tris[lo : lo + len(part)] = np.column_stack([e[part[:, 0]], e[part[:, 1], 1]])
    return tris, sides


def _local_terms(deg: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Per-vertex local coefficients 2 t / (d (d - 1)), 0.0 below degree 2."""
    return 2.0 * tri / np.maximum(deg * (deg - 1), 1)


def level_components(
    g: EventGraph, tris, vertex_level, edge_level, triangle_level, k_min: int
) -> dict[int, list[Component]]:
    """Connected components of every level k >= k_min of a nested family.

    Level k keeps the vertices, edges and triangles (rows of ``tris``) whose
    level is >= k; an edge's level must not exceed its endpoints', and a
    triangle's must be the smallest of its edges'.  The sweep runs from the
    top level down.  Degrees and triangle counts grow incrementally, by the
    edges and triangles whose level is exactly k; each level is labelled
    afresh by :func:`component_labels` over its edges, whose labels already
    run in smallest-member order.  A component's mean local clustering
    coefficient is its ``np.bincount`` weight total, which adds the members'
    terms one at a time in ascending id, exactly as
    :func:`clustering_coefficient` sums them.
    """
    n, edges = g.n, g.edges
    deg = np.zeros(n, dtype=np.int64)
    tri = np.zeros(n, dtype=np.int64)
    comp_of = np.zeros(n, dtype=np.int64)
    out: dict[int, list[Component]] = {}
    for k in range(int(vertex_level.max(initial=k_min - 1)), k_min - 1, -1):
        deg += np.bincount(edges[edge_level == k].ravel(), minlength=n)
        tri += np.bincount(tris[triangle_level == k].ravel(), minlength=n)
        alive = np.flatnonzero(edge_level >= k)
        verts = np.flatnonzero(vertex_level >= k)
        labels, _ = component_labels(n, edges[alive])
        _, comp = np.unique(labels[verts], return_inverse=True)
        sizes = np.bincount(comp)
        coefficients = np.bincount(comp, weights=_local_terms(deg, tri)[verts]) / sizes
        members = verts[np.argsort(comp, kind="stable")].tolist()
        comp_of[verts] = comp
        edge_comp = comp_of[edges[alive, 0]]
        by_comp = alive[np.argsort(edge_comp, kind="stable")]
        edge_ends = np.cumsum(np.bincount(edge_comp, minlength=len(sizes)))
        ends = np.cumsum(sizes).tolist()
        out[k] = [
            Component(tuple(members[end - size : end]), ids, c)
            for end, size, ids, c in zip(
                ends, sizes.tolist(), np.split(by_comp, edge_ends[:-1]), coefficients.tolist()
            )
        ]
    return dict(sorted(out.items()))


def component_table(g: EventGraph) -> list[Component]:
    """Connected components of the whole graph, ordered by smallest member."""
    tris = triangles(g)[0]
    flat = [np.zeros(size, dtype=np.int64) for size in (g.n, g.m, len(tris))]
    return level_components(g, tris, *flat, 0).get(0, [])


def compute_supports(g: EventGraph) -> np.ndarray:
    """Per-edge triangle count."""
    return np.bincount(triangles(g)[1].ravel(), minlength=g.m)


def clustering_coefficient(g: EventGraph) -> float:
    """Mean local (Watts-Strogatz) coefficient of g, summed in ascending vertex id.

    Vertices of degree < 2 contribute 0.
    """
    if g.n == 0:
        raise ValueError("clustering coefficient of an empty graph")
    tri = np.bincount(triangles(g)[0].ravel(), minlength=g.n)
    total = 0.0
    for term in _local_terms(g.degrees, tri).tolist():
        total += term
    return total / g.n


def _diameter_floyd_warshall(sub: EventGraph) -> int:
    k = sub.n
    dist = np.full((k, k), np.inf)
    np.fill_diagonal(dist, 0.0)
    if sub.m:
        e = sub.edges
        dist[e[:, 0], e[:, 1]] = 1.0
        dist[e[:, 1], e[:, 0]] = 1.0
    for mid in range(k):
        np.minimum(dist, dist[:, mid : mid + 1] + dist[mid : mid + 1, :], out=dist)
    if np.isinf(dist).any():
        raise ValueError("diameter of a disconnected graph")
    return int(dist.max())


def _diameter_bfs(sub: EventGraph) -> int:
    k = sub.n
    ro, ci = sub.row_offsets, sub.col_indices
    best = 0
    for s in range(k):
        dist = np.full(k, -1, dtype=np.int64)
        dist[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in ci[ro[v] : ro[v + 1]]:
                    w = int(w)
                    if dist[w] < 0:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        if (dist < 0).any():
            raise ValueError("diameter of a disconnected graph")
        best = max(best, int(dist.max()))
    return best


FLOYD_WARSHALL_LIMIT = 512


def diameter(g: EventGraph) -> int:
    """Exact unweighted diameter of a connected graph.

    Uses Floyd-Warshall up to 512 vertices and repeated BFS above that;
    both are exact on unweighted graphs.  Disconnected input is an error.
    """
    if g.n == 0:
        raise ValueError("diameter of an empty graph")
    if g.n == 1:
        return 0
    if g.n <= FLOYD_WARSHALL_LIMIT:
        return _diameter_floyd_warshall(g)
    return _diameter_bfs(g)


def write_edge_list(edges, path) -> None:
    """Write one "u v" line per undirected edge, u < v."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in arr:
            fh.write(f"{u} {v}\n")


def read_edge_list(path) -> np.ndarray:
    """Load an edge-list file written by :func:`write_edge_list`.

    A non-blank line that is not two integers is a ``ValueError`` naming the
    file and the line.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                u, v = line.split()
                rows.append((int(u), int(v)))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'u v' (two integer vertex ids), "
                    f"got {line!r}"
                ) from None
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)


def graph_stats(g: EventGraph) -> dict:
    """Per-component and global stats mirroring the pipeline report columns."""
    component_stats = []
    for c in component_table(g):
        size = len(c.vertices)
        if size <= 2:
            dia = size - 1
        else:
            local = np.searchsorted(c.vertices, g.edges[c.edge_ids])
            dia = diameter(build_graph(size, local))
        component_stats.append(
            {
                "vertices": size,
                "edges": len(c.edge_ids),
                "diameter": dia,
                "mean_clustering_coefficient": c.coefficient,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "vertices": int(g.n),
        "edges": int(g.m),
        "components": len(component_stats),
        "component_stats": component_stats,
    }
