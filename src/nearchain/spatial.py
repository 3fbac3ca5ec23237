"""3-D R-tree over event points: box range queries and the near-repeat self-join.

The tree is bulk-loaded once with sort-tile-recursive packing, which is
deterministic for a fixed input and keeps every node within the fill bounds,
and is only read after that.  Events reach it as an ``(ids, coords)`` pair
of arrays: ids of shape (n,) and coords of shape (n, 3) holding (x, y, t).
Near-repeat pairs come from joining the tree with itself level by level
(:func:`neighbor_pairs`); the pair (u, v), u < v by id, is in when coords[v]
lies in the closed float64 box coords[u] -/+ (r_x, r_y, r_t), the box that
``query_ids`` around u would search.
"""

from __future__ import annotations

import struct

import numpy as np

FANOUT = 16
MIN_FILL = 6
_BATCH = 512  # node pairs per join step, which bounds its scratch arrays
_UPPER = np.triu(np.ones((FANOUT, FANOUT), dtype=bool), 1)


class _Node:
    """Tree node; leaves store point rows, internals store child boxes."""

    __slots__ = ("leaf", "lo", "hi", "children", "ids")

    def __init__(self, leaf, lo, hi, children=None, ids=None):
        self.leaf = leaf
        self.lo = lo  # (c, 3) child lows; for a leaf these are the points
        self.hi = hi  # (c, 3) child highs; equal to lo for a leaf
        self.children = children
        self.ids = ids

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lo.min(axis=0), self.hi.max(axis=0)


def _split_even(n: int, parts: int) -> list[int]:
    """Near-equal partition of n items into the given number of parts."""
    parts = max(1, min(parts, n))
    base, extra = divmod(n, parts)
    return [base + 1] * extra + [base] * (parts - extra)


def _chunk_count(n: int, target: int, min_fill: int) -> int:
    """Number of chunks, bounded so no near-equal chunk drops below min_fill."""
    return max(1, min(target, n // min_fill or 1))


class RTree3:
    """Balanced 3-D R-tree with box range queries."""

    def __init__(self) -> None:
        self.fanout = FANOUT
        self.min_fill = MIN_FILL
        self.root: _Node | None = None
        self.height = 0  # levels above the leaves; a lone leaf root is height 0
        self.size = 0

    # ------------------------------------------------------------------ build

    @staticmethod
    def _leaf(pts: np.ndarray, ids: np.ndarray) -> _Node:
        return _Node(True, pts, pts, ids=ids)

    def _pack_leaves(self, pts: np.ndarray, ids: np.ndarray) -> list[_Node]:
        """Sort-tile-recursive packing of points into leaves, in tile order."""
        M, m = self.fanout, self.min_fill
        order = np.lexsort((ids, pts[:, 2], pts[:, 1], pts[:, 0]))
        pts, ids = pts[order], ids[order]
        n = len(ids)
        if n <= M:
            return [self._leaf(pts, ids)]
        n_leaves = -(-n // M)
        nx = _chunk_count(n, round(n_leaves ** (1.0 / 3.0) + 0.5), m)
        leaves: list[_Node] = []
        start = 0
        for xsize in _split_even(n, nx):
            xp, xi = pts[start : start + xsize], ids[start : start + xsize]
            start += xsize
            yorder = np.lexsort((xi, xp[:, 0], xp[:, 2], xp[:, 1]))
            xp, xi = xp[yorder], xi[yorder]
            p_chunk = -(-len(xi) // M)
            ny = _chunk_count(len(xi), round(p_chunk**0.5 + 0.5), m)
            ystart = 0
            for ysize in _split_even(len(xi), ny):
                yp, yi = xp[ystart : ystart + ysize], xi[ystart : ystart + ysize]
                ystart += ysize
                torder = np.lexsort((yi, yp[:, 1], yp[:, 0], yp[:, 2]))
                yp, yi = yp[torder], yi[torder]
                tstart = 0
                for tsize in _split_even(len(yi), -(-len(yi) // M)):
                    leaves.append(
                        self._leaf(yp[tstart : tstart + tsize], yi[tstart : tstart + tsize])
                    )
                    tstart += tsize
        return leaves

    def _pack_upward(self, nodes: list[_Node]) -> None:
        """Group a level of nodes into parents until a single root remains."""
        M = self.fanout
        height = 0
        while len(nodes) > 1:
            height += 1
            parents: list[_Node] = []
            start = 0
            for size in _split_even(len(nodes), -(-len(nodes) // M)):
                group = nodes[start : start + size]
                start += size
                los = np.stack([g.bbox()[0] for g in group])
                his = np.stack([g.bbox()[1] for g in group])
                parents.append(_Node(False, los, his, children=group))
            nodes = parents
        self.root = nodes[0]
        self.height = height

    # ----------------------------------------------------------------- query

    def query_ids(self, lo, hi) -> np.ndarray:
        """Ids of all points p with lo <= p <= hi on every axis (closed)."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if self.root is None:
            return np.zeros(0, dtype=np.int64)
        out: list[np.ndarray] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.leaf:
                mask = np.all((node.lo >= lo) & (node.lo <= hi), axis=1)
                if mask.any():
                    out.append(node.ids[mask])
            else:
                hit = np.all((node.lo <= hi) & (node.hi >= lo), axis=1)
                for i in np.nonzero(hit)[0]:
                    stack.append(node.children[i])
        if not out:
            return np.zeros(0, dtype=np.int64)
        return np.sort(np.concatenate(out))


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
    """Bulk-load an R-tree from an ``(ids, coords)`` pair of arrays."""
    ids, coords = _arrays(points)
    if len(ids) == 0:
        raise ValueError("cannot build an R-tree from zero points")
    if not np.isfinite(coords).all():
        raise ValueError("R-tree points must have finite coordinates")
    tree = RTree3()
    tree._pack_upward(tree._pack_leaves(coords, ids))
    tree.size = len(ids)
    return tree


def _levels(root: _Node):
    """The tree flattened level by level, top down, for the self-join.

    Each internal level is ``(kids, lo, hi)``: kids of shape (N, FANOUT)
    holds the indices of each node's children in the next level (-1 pads),
    and lo/hi of shape (3, N') hold the boxes of the next level's nodes, one
    row per axis.  The leaves follow as ``(L, FANOUT, 3)`` points (NaN pads)
    and ``(L, FANOUT)`` ids (-1 pads).  A level lists its parents' children
    in order, so a node pair (a, b) with a <= b only has child pairs (c, d)
    with c <= d.
    """
    internal = []
    level = [root]
    while not level[0].leaf:
        counts = np.array([len(node.children) for node in level])
        slot = np.arange(FANOUT)
        kids = np.where(slot < counts[:, None], (np.cumsum(counts) - counts)[:, None] + slot, -1)
        lo = np.concatenate([node.lo for node in level]).T
        hi = np.concatenate([node.hi for node in level]).T
        internal.append((kids, lo, hi))
        level = [child for node in level for child in node.children]
    pts = np.full((len(level), FANOUT, 3), np.nan)
    ids = np.full((len(level), FANOUT), -1, dtype=np.int64)
    for i, leaf in enumerate(level):
        pts[i, : len(leaf.ids)] = leaf.lo
        ids[i, : len(leaf.ids)] = leaf.ids
    return internal, pts, ids


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
    if tree.root is None:
        return np.zeros((0, 2), dtype=np.int64)
    off = np.array([r_x, r_y, r_t], dtype=float)
    internal, pts, ids = _levels(tree.root)
    a = b = np.zeros(1, dtype=np.int64)
    for kids, lo, hi in internal:
        found = [_expand(kids, lo, hi, off, x, y) for x, y in _batches(a, b)]
        a = np.concatenate([c for c, _ in found])
        b = np.concatenate([d for _, d in found])
    found = [_leaf_pairs(pts, ids, off, x, y) for x, y in _batches(a, b)]
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
