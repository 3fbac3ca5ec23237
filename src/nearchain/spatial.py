"""3-D R-tree over event points with axis-aligned box range queries.

The tree is bulk-loaded once with sort-tile-recursive packing, which is
deterministic for a fixed input and keeps every node within the fill bounds,
and is only queried after that.  Events reach it as an ``(ids, coords)`` pair
of arrays: ids of shape (n,) and coords of shape (n, 3) holding (x, y, t).
"""

from __future__ import annotations

import struct

import numpy as np

FANOUT = 16
MIN_FILL = 6


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


def neighbor_pairs(tree: RTree3, events, r_x: float, r_y: float, r_t: float) -> np.ndarray:
    """All unordered near-repeat pairs {i, j} within the per-axis limits.

    ``events`` is an ``(ids, coords)`` pair of arrays; each event queries the
    tree with the closed box around it.  A pair qualifies when |dx| <= r_x,
    |dy| <= r_y and |dt| <= r_t.  Returns an (m, 2) int64 array with u < v,
    lexicographically sorted — a canonical set representation.
    """
    if not (r_x > 0 and r_y > 0 and r_t > 0):
        raise ValueError("query limits r_x, r_y, r_t must all be positive")
    ids, coords = _arrays(events)
    off = np.array([r_x, r_y, r_t], dtype=float)
    us, vs = [], []
    for i, p in zip(ids, coords):
        found = tree.query_ids(p - off, p + off)
        found = found[found > i]
        if len(found):
            us.append(np.full(len(found), i, dtype=np.int64))
            vs.append(found)
    if not us:
        return np.zeros((0, 2), dtype=np.int64)
    pairs = np.stack([np.concatenate(us), np.concatenate(vs)], axis=1)
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
