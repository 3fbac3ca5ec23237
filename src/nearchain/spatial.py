"""3-D R-tree over event points: box range queries and the near-repeat self-join.

The tree is bulk-loaded once with sort-tile-recursive packing, which is
deterministic for a fixed input and keeps every node within the fill bounds,
and is only read after that.  It is held as flat numpy arrays, one set per
level (see :class:`RTree3`), the form both the range query and the join
read.  Events reach it as an ``(ids, coords)`` pair of arrays: ids of shape
(n,) and coords of shape (n, 3) holding (x, y, t).  Near-repeat pairs come
from joining the tree with itself level by level (:func:`neighbor_pairs`);
the pair (u, v), u < v by id, is in when coords[v] lies in the closed
float64 box coords[u] -/+ (r_x, r_y, r_t), the box that ``query_ids``
around u would search.
"""

from __future__ import annotations

import struct

import numpy as np

FANOUT = 16
MIN_FILL = 6
_BATCH = 512  # node pairs per join step, which bounds its scratch arrays
_UPPER = np.triu(np.ones((FANOUT, FANOUT), dtype=bool), 1)


def _chunk_count(n: int, power: float) -> int:
    """STR's chunk count for n points, about (their leaf count) ** power,
    bounded so no near-equal chunk drops below MIN_FILL."""
    return max(1, min(round((-(-n // FANOUT)) ** power + 0.5), n // MIN_FILL or 1))


def _split(sizes, parts) -> np.ndarray:
    """Chunk sizes when each consecutive group of ``sizes`` items is cut into
    its ``parts`` near-equal chunks (1 <= parts <= size), longer chunks first."""
    sizes, parts = np.atleast_1d(sizes, parts)
    base, extra = np.divmod(sizes, parts)
    rank = np.arange(parts.sum()) - np.repeat(np.cumsum(parts) - parts, parts)
    return np.repeat(base, parts) + (rank < np.repeat(extra, parts))


def _tile(pts, ids, sizes, axes):
    """Sort each consecutive group of ``sizes`` points by the given axes in turn, then id."""
    group = np.repeat(np.arange(len(sizes)), sizes)
    order = np.lexsort((ids, *(pts[:, k] for k in reversed(axes)), group))
    return pts[order], ids[order]


def _pad(sizes, values, fill) -> np.ndarray:
    """Consecutive groups of ``sizes`` values laid out one group per row of FANOUT slots."""
    group = np.repeat(np.arange(len(sizes)), sizes)
    slot = np.arange(len(group)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    out = np.full((len(sizes), FANOUT) + values.shape[1:], fill, dtype=values.dtype)
    out[group, slot] = values
    return out


class RTree3:
    """Balanced 3-D R-tree with box range queries, held as flat level arrays.

    ``levels`` lists the internal levels top down, each as ``(kids, lo,
    hi)``: kids of shape (N, FANOUT) holds the indices of each node's
    children in the next level (-1 pads), and lo/hi of shape (3, N') hold
    the boxes of the next level's nodes, one row per axis.  The leaves are
    ``pts`` of shape (L, FANOUT, 3) (NaN pads) and ``ids`` of shape (L,
    FANOUT) (-1 pads).  The root is node 0 of the first level, or leaf 0 when
    there is no internal level.  A level lists its parents' children in
    order, so a node pair (a, b) with a <= b only has child pairs (c, d)
    with c <= d.
    """

    def __init__(self, levels, pts: np.ndarray, ids: np.ndarray) -> None:
        self.levels = levels
        self.pts = pts
        self.ids = ids
        self.height = len(levels)  # levels above the leaves; a lone leaf root is height 0

    def query_ids(self, lo, hi) -> np.ndarray:
        """Ids of all points p with lo <= p <= hi on every axis (closed)."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        nodes = np.zeros(1, dtype=np.int64)
        for kids, klo, khi in self.levels:
            c = kids[nodes].ravel()
            c = c[c >= 0]
            nodes = c[np.all((klo[:, c] <= hi[:, None]) & (khi[:, c] >= lo[:, None]), axis=0)]
        p = self.pts[nodes]
        return np.sort(self.ids[nodes][np.all((p >= lo) & (p <= hi), axis=2)])


def _arrays(points) -> tuple[np.ndarray, np.ndarray]:
    """Check an ``(ids, coords)`` pair: ids of shape (n,), coords of shape (n, 3)."""
    ids, coords = points
    ids = np.asarray(ids, dtype=np.int64)
    coords = np.asarray(coords, dtype=float)
    if ids.ndim != 1 or coords.shape != (len(ids), 3):
        raise ValueError(
            "expected ids of shape (n,) and coords of shape (n, 3),"
            f" got {ids.shape} and {coords.shape}"
        )
    return ids, coords


def build(points) -> RTree3:
    """Bulk-load an R-tree from an ``(ids, coords)`` pair of arrays.

    Sort-tile-recursive packing (Leutenegger, Lopez & Edgington, ICDE 1997):
    the points, sorted by (x, y, t, id), are cut into near-equal slabs; each
    slab, sorted by (y, t, x, id), into strips; each strip, sorted by (t, x,
    y, id), into leaves.  Each pass is one lexsort over all points, with the
    slab or strip as its first key.  Parents group the level below in order
    until one root remains, and their boxes come from ``reduceat``.
    """
    ids, coords = _arrays(points)
    n = len(ids)
    if n == 0:
        raise ValueError("cannot build an R-tree from zero points")
    if not np.isfinite(coords).all():
        raise ValueError("R-tree points must have finite coordinates")
    pts, ids = _tile(coords, ids, [n], (0, 1, 2))
    if n <= FANOUT:
        leaves = np.array([n])
    else:
        slabs = _split(n, _chunk_count(n, 1.0 / 3.0))
        pts, ids = _tile(pts, ids, slabs, (1, 2, 0))
        strips = _split(slabs, [_chunk_count(s, 0.5) for s in slabs.tolist()])
        pts, ids = _tile(pts, ids, strips, (2, 0, 1))
        leaves = _split(strips, -(-strips // FANOUT))
    start = np.cumsum(leaves) - leaves
    lo, hi = np.minimum.reduceat(pts, start), np.maximum.reduceat(pts, start)
    levels = []
    while len(lo) > 1:
        groups = _split(len(lo), -(-len(lo) // FANOUT))
        levels.append((_pad(groups, np.arange(len(lo)), -1), lo.T, hi.T))
        start = np.cumsum(groups) - groups
        lo, hi = np.minimum.reduceat(lo, start), np.maximum.reduceat(hi, start)
    return RTree3(levels[::-1], _pad(leaves, pts, np.nan), _pad(leaves, ids, -1))


def _batches(a: np.ndarray, b: np.ndarray):
    """Node pairs (a, b) in slices of at most ``_BATCH`` pairs."""
    for start in range(0, len(a), _BATCH):
        yield a[start : start + _BATCH], b[start : start + _BATCH]


def _expand(kids, lo, hi, off, a, b):
    """Child pairs (c, d), c <= d, of the node pairs (a, b) whose boxes may hold a pair.

    A child pair is pruned only when neither box, dilated by ``off``, meets
    the other.  Float rounding is monotone, so the dilated box [lo - off,
    hi + off] holds the query box [p - off, p + off] of every point p in
    [lo, hi], and no pair a query from either side would find is lost.
    """
    shape = (len(a), FANOUT, FANOUT)
    c = np.broadcast_to(kids[a][:, :, None], shape)
    d = np.broadcast_to(kids[b][:, None, :], shape)
    keep = (c >= 0) & (d >= 0) & ((a != b)[:, None, None] | (c <= d))
    c, d = c[keep], d[keep]
    c_meets = d_meets = True
    for k in range(3):
        lc, hc, ld, hd = lo[k][c], hi[k][c], lo[k][d], hi[k][d]
        c_meets = c_meets & (lc - off[k] <= hd) & (hc + off[k] >= ld)
        d_meets = d_meets & (ld - off[k] <= hc) & (hd + off[k] >= lc)
    meet = c_meets | d_meets
    return c[meet], d[meet]


def _leaf_pairs(pts, ids, off, a, b):
    """Pairs (u, v), u < v by id, of points in the leaf pairs (a, b) that qualify."""
    pa, pb = pts[a], pts[b]
    ia, ib = ids[a][:, :, None], ids[b][:, None, :]
    a_in_b = np.ones((len(a), FANOUT, FANOUT), dtype=bool)
    b_in_a = a_in_b.copy()
    for k in range(3):
        p, q = pa[:, :, k, None], pb[:, None, :, k]
        b_in_a &= (q >= p - off[k]) & (q <= p + off[k])
        a_in_b &= (p >= q - off[k]) & (p <= q + off[k])
    hit = np.where(ia < ib, b_in_a, a_in_b & (ib < ia))  # NaN pads never hit
    hit &= (a != b)[:, None, None] | _UPPER  # a leaf with itself: each pair once
    s, i, j = np.nonzero(hit)
    u, v = ids[a[s], i], ids[b[s], j]
    return np.minimum(u, v), np.maximum(u, v)


def neighbor_pairs(tree: RTree3, r_x: float, r_y: float, r_t: float) -> np.ndarray:
    """All unordered near-repeat pairs {u, v} of the tree's points within the limits.

    The pair (u, v) with u < v by id qualifies when coords[v] lies in the
    closed box [coords[u] - off, coords[u] + off], off = (r_x, r_y, r_t),
    computed in float64: the box a range query around u uses.  The pairs come
    from one self-join of the bulk-loaded tree (Brinkhoff, Kriegel & Seeger,
    SIGMOD 1993), run level by level from the node pair (root, root): each
    surviving node pair (a, b), a <= b, expands to the child pairs whose
    dilated boxes meet, and each surviving leaf pair is tested point against
    point.  Both steps run in numpy on batches of at most ``_BATCH`` pairs.
    Returns an (m, 2) int64 array with u < v, lexicographically sorted — a
    canonical set representation.
    """
    if not (r_x > 0 and r_y > 0 and r_t > 0):
        raise ValueError("query limits r_x, r_y, r_t must all be positive")
    off = np.array([r_x, r_y, r_t], dtype=float)
    a = b = np.zeros(1, dtype=np.int64)
    for kids, lo, hi in tree.levels:
        found = [_expand(kids, lo, hi, off, x, y) for x, y in _batches(a, b)]
        a = np.concatenate([c for c, _ in found])
        b = np.concatenate([d for _, d in found])
    found = [_leaf_pairs(tree.pts, tree.ids, off, x, y) for x, y in _batches(a, b)]
    pairs = np.stack(
        [np.concatenate([u for u, _ in found]), np.concatenate([v for _, v in found])], axis=1
    )
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def write_pairs_bin(path, pairs: np.ndarray) -> None:
    """Binary pair dump: little-endian u64 count, then u32 (i, j) pairs, i < j."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(arr)))
        fh.write(arr.astype("<u4").tobytes())


def read_pairs_bin(path) -> np.ndarray:
    """Load a binary pair dump written by :func:`write_pairs_bin`."""
    with open(path, "rb") as fh:
        (count,) = struct.unpack("<Q", fh.read(8))
        body = fh.read(8 * count)
    arr = np.frombuffer(body, dtype="<u4").astype(np.int64)
    if len(arr) != 2 * count:
        raise ValueError(f"{path}: truncated pair dump")
    return arr.reshape(-1, 2)
