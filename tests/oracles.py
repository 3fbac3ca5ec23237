"""Independent brute-force oracles for the test suite.

Everything here is written from first principles — definitional fixpoints,
dense matrices, double loops, an independently sourced projection series —
so production results can be checked against implementations that share no
code or algorithmic structure with the package.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

# ------------------------------------------------------------- projection

_A = 6378137.0
_F = 1.0 / 298.257223563
_K0 = 0.9996
_E2 = _F * (2.0 - _F)
_EP2 = _E2 / (1.0 - _E2)


def snyder_utm(lat_deg: float, lon_deg: float, zone: int):
    """Forward UTM by the classic USGS truncated series (independent of the
    production flattening-series formulation).  Good to a few millimeters
    within about three degrees of the central meridian."""
    phi = math.radians(lat_deg)
    lam = math.radians(lon_deg)
    lam0 = math.radians(zone * 6 - 183)
    sin_phi, cos_phi, tan_phi = math.sin(phi), math.cos(phi), math.tan(phi)
    n_rad = _A / math.sqrt(1.0 - _E2 * sin_phi * sin_phi)
    t = tan_phi * tan_phi
    c = _EP2 * cos_phi * cos_phi
    a_ser = (lam - lam0) * cos_phi
    m_arc = _A * (
        (1 - _E2 / 4 - 3 * _E2**2 / 64 - 5 * _E2**3 / 256) * phi
        - (3 * _E2 / 8 + 3 * _E2**2 / 32 + 45 * _E2**3 / 1024) * math.sin(2 * phi)
        + (15 * _E2**2 / 256 + 45 * _E2**3 / 1024) * math.sin(4 * phi)
        - (35 * _E2**3 / 3072) * math.sin(6 * phi)
    )
    easting = (
        _K0
        * n_rad
        * (
            a_ser
            + (1 - t + c) * a_ser**3 / 6
            + (5 - 18 * t + t * t + 72 * c - 58 * _EP2) * a_ser**5 / 120
        )
        + 500000.0
    )
    northing = _K0 * (
        m_arc
        + n_rad
        * tan_phi
        * (
            a_ser**2 / 2
            + (5 - t + 9 * c + 4 * c * c) * a_ser**4 / 24
            + (61 - 58 * t + t * t + 600 * c - 330 * _EP2) * a_ser**6 / 720
        )
    )
    if lat_deg < 0:
        northing += 10000000.0
    return easting, northing


# ------------------------------------------------------------------ graphs


def adjacency_matrix(n: int, edges) -> np.ndarray:
    mat = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        mat[u, v] = mat[v, u] = True
    return mat


def edge_index(g) -> dict[tuple[int, int], int]:
    """Map each row (u, v) of ``g.edges`` to its row number, the edge id."""
    return {(u, v): e for e, (u, v) in enumerate(g.edges.tolist())}


def closure_components(n: int, edges) -> list[int]:
    """Component labels by boolean transitive closure (dense matrix powers)."""
    reach = adjacency_matrix(n, edges) | np.eye(n, dtype=bool)
    while True:
        nxt = reach | (reach @ reach)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    first = [int(np.nonzero(reach[v])[0][0]) for v in range(n)]
    order = sorted(set(first))
    remap = {root: i for i, root in enumerate(order)}
    return [remap[f] for f in first]


def peel_core_numbers(n: int, edges) -> list[int]:
    """Core numbers by remove-below-k-until-fixpoint, one k at a time."""
    adj = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    core = [0] * n
    k = 1
    alive = set(range(n))
    while alive:
        while True:
            drop = {v for v in alive if len(adj[v] & alive) < k}
            if not drop:
                break
            alive -= drop
        for v in alive:
            core[v] = k
        k += 1
    return core


def recount_truss_numbers(edges) -> dict[tuple[int, int], int]:
    """Truss numbers by remove-and-recount fixpoints, one k at a time."""
    alive = {(min(u, v), max(u, v)) for u, v in edges}
    tn = {e: 2 for e in alive}
    k = 3
    while alive:
        while True:
            adj = defaultdict(set)
            for u, v in alive:
                adj[u].add(v)
                adj[v].add(u)
            drop = [(u, v) for u, v in alive if len(adj[u] & adj[v]) < k - 2]
            if not drop:
                break
            alive -= set(drop)
        for e in alive:
            tn[e] = k
        k += 1
    return tn


def powerset_maximal_cliques(n: int, edges) -> list[tuple[int, ...]]:
    """Every maximal clique by checking all 2^n vertex subsets (n <= 16)."""
    if n > 16:
        raise ValueError("powerset oracle is for n <= 16")
    mat = adjacency_matrix(n, edges)
    cliques = []
    for mask in range(1, 1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        if not all(
            mat[u, v] for i, u in enumerate(members) for v in members[i + 1 :]
        ):
            continue
        if any(
            w not in members and all(mat[w, u] for u in members)
            for w in range(n)
        ):
            continue
        cliques.append(tuple(members))
    return sorted(cliques)


def plain_maximal_cliques(n: int, edges) -> list[tuple[int, ...]]:
    """Maximal cliques by the unpivoted, unordered textbook recursion."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    out: list[tuple[int, ...]] = []

    def grow(r: set, p: set, x: set) -> None:
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        for v in sorted(p):
            grow(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    grow(set(), set(range(n)), set())
    return sorted(out)


def straightline_dbscan(n: int, edges, k_min: int = 3) -> dict[int, list[tuple[int, ...]]]:
    """Seeded-expansion clustering written directly from the stated rules.

    Ascending-id scan; a vertex with degree >= k in the working graph seeds a
    cluster; expansion walks every reachable working-graph vertex (border
    members pass the frontier along); unvisited vertices are removed, k
    increments, repeat until the working graph empties.
    """
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(n))
    out: dict[int, list[tuple[int, ...]]] = {}
    k = k_min
    while alive:
        deg = {v: len(adj[v] & alive) for v in alive}
        visited: set[int] = set()
        clusters: list[tuple[int, ...]] = []
        for v in sorted(alive):
            if v in visited or deg[v] < k:
                continue
            queue = [v]
            visited.add(v)
            members = []
            while queue:
                u = queue.pop(0)
                members.append(u)
                for w in sorted(adj[u] & alive):
                    if w not in visited:
                        visited.add(w)
                        queue.append(w)
            clusters.append(tuple(sorted(members)))
        if not clusters:
            break
        out[k] = sorted(clusters)
        alive = set()
        for c in clusters:
            alive |= set(c)
        k += 1
    return out


def matrix_supports(n: int, edges) -> dict[tuple[int, int], int]:
    """Per-edge triangle counts from the dense adjacency matrix."""
    mat = adjacency_matrix(n, edges)
    return {
        (min(u, v), max(u, v)): int((mat[u] & mat[v]).sum()) for u, v in edges
    }


def matrix_coefficient(n: int, edges, scope=None) -> float:
    """Mean local clustering coefficient straight from the definition."""
    mat = adjacency_matrix(n, edges)
    scope = list(range(n)) if scope is None else sorted(scope)
    inside = np.zeros(n, dtype=bool)
    inside[scope] = True
    total = 0.0
    for v in scope:
        nbrs = [w for w in np.nonzero(mat[v])[0] if inside[w]]
        d = len(nbrs)
        if d < 2:
            continue
        links = sum(
            1 for i, u in enumerate(nbrs) for w in nbrs[i + 1 :] if mat[u, w]
        )
        total += 2.0 * links / (d * (d - 1))
    return total / len(scope)


def bfs_diameter(n: int, edges) -> int:
    """Diameter by queue-based BFS from every vertex (connected inputs)."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = 0
    for s in range(n):
        dist = {s: 0}
        queue = [s]
        while queue:
            u = queue.pop(0)
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) != n:
            raise ValueError("disconnected")
        best = max(best, max(dist.values()))
    return best


def rebuild_levels(n: int, edges, method: str, k_min: int = 3) -> dict[int, list[tuple]]:
    """Per-level inventories rebuilt independently at every k.

    Each level's subgraph comes from the oracles above (peeled core numbers,
    recounted truss numbers, straight-line DBSCAN clusters); its components
    are found by breadth-first search, each reported as (vertices, edge
    count, mean coefficient, edge ids for truss else None).  An edge's id is
    its position in the sorted, deduplicated edge list, as in ``g.edges``.
    """
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    eid = {e: i for i, e in enumerate(edges)}
    levels: dict[int, list[tuple[int, int]]] = {}
    if method == "core":
        core = peel_core_numbers(n, edges)
        for k in range(k_min, max(core, default=0) + 1):
            levels[k] = [(u, v) for u, v in edges if min(core[u], core[v]) >= k]
        keep_of = {k: {v for v in range(n) if core[v] >= k} for k in levels}
    elif method == "truss":
        tn = recount_truss_numbers(edges)
        for k in range(k_min, max(tn.values(), default=0) + 1):
            levels[k] = [e for e in edges if tn[e] >= k]
        keep_of = {k: {x for e in kept for x in e} for k, kept in levels.items()}
    elif method == "dbscan":
        keep_of = {
            k: {v for c in clusters for v in c}
            for k, clusters in straightline_dbscan(n, edges, k_min).items()
        }
        for k, keep in keep_of.items():
            levels[k] = [(u, v) for u, v in edges if u in keep and v in keep]
    else:
        raise ValueError(method)
    out: dict[int, list[tuple]] = {}
    for k, kept in levels.items():
        adj = defaultdict(list)
        for u, v in kept:
            adj[u].append(v)
            adj[v].append(u)
        seen: set[int] = set()
        comps = []
        for s in sorted(keep_of[k]):
            if s in seen:
                continue
            seen.add(s)
            queue, comp = [s], []
            while queue:
                u = queue.pop(0)
                comp.append(u)
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            inside = set(comp)
            comp_edges = tuple(e for e in kept if e[0] in inside)
            comps.append(
                (
                    tuple(sorted(comp)),
                    len(comp_edges),
                    matrix_coefficient(n, kept, comp),
                    tuple(eid[e] for e in comp_edges) if method == "truss" else None,
                )
            )
        out[k] = comps
    return out


# ------------------------------------------------------------------ spatial


def double_loop_pairs(coords: np.ndarray, r_x: float, r_y: float, r_t: float) -> np.ndarray:
    """All near-repeat pairs by the O(n^2) dense comparison, row-chunked."""
    n = len(coords)
    out = []
    cols = np.arange(n)
    chunk = max(1, 4_000_000 // max(n, 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        dx = np.abs(coords[start:stop, 0:1] - coords[None, :, 0].reshape(1, -1))
        dy = np.abs(coords[start:stop, 1:2] - coords[None, :, 1].reshape(1, -1))
        dt = np.abs(coords[start:stop, 2:3] - coords[None, :, 2].reshape(1, -1))
        hit = (dx <= r_x) & (dy <= r_y) & (dt <= r_t)
        hit &= cols[None, :] > np.arange(start, stop)[:, None]
        ii, jj = np.nonzero(hit)
        if len(ii):
            out.append(np.stack([ii + start, jj], axis=1))
    if not out:
        return np.zeros((0, 2), dtype=np.int64)
    pairs = np.concatenate(out).astype(np.int64)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def scan_box_query(coords: np.ndarray, ids: np.ndarray, lo, hi) -> np.ndarray:
    """Closed-box membership by a linear scan."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    keep = np.all((coords >= lo) & (coords <= hi), axis=1)
    return np.sort(ids[keep])


def check_rtree(tree, expect_ids) -> None:
    """Check every structural invariant of a flat R-tree, bottom up.

    Fill bounds on every non-root node and at least 2 children under an
    internal root; each stored child box holds the child's true box, which
    is recomputed from the leaf points, not read from the stored boxes;
    uniform leaf depth (each level's kids name every node of the next level
    exactly once); ``height`` equal to the number of internal levels; and
    every expected id exactly once, with NaN pads exactly where ids are -1.
    """
    from nearchain import spatial  # the fill bounds only

    fanout, min_fill = spatial.FANOUT, spatial.MIN_FILL
    pts, ids = tree.pts, tree.ids
    assert pts.shape == (len(ids), fanout, 3) and ids.shape == (len(ids), fanout)
    pad = ids == -1
    assert (np.isnan(pts).all(axis=2) == pad).all(), "NaN pads differ from -1 ids"
    assert not np.isnan(pts[~pad]).any(), "NaN coordinate in a stored point"
    real = ids[~pad]
    assert sorted(real.tolist()) == sorted(int(i) for i in expect_ids), "points lost or duplicated"
    assert tree.height == len(tree.levels), "height field does not match the internal levels"

    counts = [(~pad).sum(axis=1)]  # per level, bottom up: children (or points) per node
    true_lo = np.array([p[i >= 0].min(axis=0) for p, i in zip(pts, ids)])
    true_hi = np.array([p[i >= 0].max(axis=0) for p, i in zip(pts, ids)])
    for kids, lo, hi in reversed(tree.levels):
        below = len(true_lo)
        assert kids.shape[1] == fanout and lo.shape == hi.shape == (3, below)
        named = kids[kids >= 0]
        assert sorted(named.tolist()) == list(range(below)), "leaves at mixed depths"
        assert (lo.T <= true_lo).all() and (hi.T >= true_hi).all(), "child box escapes parent"
        counts.append((kids >= 0).sum(axis=1))
        true_lo = np.array([true_lo[row[row >= 0]].min(axis=0) for row in kids])
        true_hi = np.array([true_hi[row[row >= 0]].max(axis=0) for row in kids])
    assert len(counts[-1]) == 1, "more than one root"
    if tree.height:
        assert counts[-1][0] >= 2, "internal root must have >= 2 children"
    for count in [c for level in counts[:-1] for c in level.tolist()]:
        assert min_fill <= count <= fanout, f"node fill {count} outside [{min_fill}, {fanout}]"


# --------------------------------------------------------------------- knox


def dense_knox_table(
    xyt: np.ndarray,
    distance_step: float,
    time_step: float,
    distance_bins: int,
    time_bins: int,
    overflow: str = "clamp",
) -> np.ndarray:
    """Observed Knox table from full dense pairwise matrices."""
    x, y, t = xyt[:, 0], xyt[:, 1], xyt[:, 2]
    dist = np.sqrt((x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2)
    dt = np.abs(t[:, None] - t[None, :])
    iu = np.triu_indices(len(xyt), k=1)
    bi = np.floor(dist[iu] / distance_step).astype(np.int64)
    bj = np.floor(dt[iu] / time_step).astype(np.int64)
    table = np.zeros((distance_bins, time_bins), dtype=np.int64)
    if overflow == "clamp":
        bi = np.minimum(bi, distance_bins - 1)
        bj = np.minimum(bj, time_bins - 1)
    else:
        keep = (bi < distance_bins) & (bj < time_bins)
        bi, bj = bi[keep], bj[keep]
    for i, j in zip(bi, bj):
        table[i, j] += 1
    return table


def count_parseable_rows(path, time_format: str, numeric_cols, time_col) -> tuple[int, int]:
    """(parseable, rejected) totals by an independent line-by-line pass."""
    from datetime import datetime

    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    idx = {name: header.index(name) for name in header}
    good = bad = 0
    for line in lines[1:]:
        parts = line.split(",")
        try:
            for col in numeric_cols:
                value = float(parts[idx[col]])
                if not math.isfinite(value):
                    raise ValueError
            datetime.strptime(parts[idx[time_col]], time_format)
            good += 1
        except (ValueError, IndexError, KeyError):
            bad += 1
    return good, bad
