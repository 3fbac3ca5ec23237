"""R-tree tests: structure invariants, query equivalence, pair generation."""

from __future__ import annotations

import numpy as np
import pytest

from nearchain import spatial
from oracles import check_rtree, double_loop_pairs, scan_box_query


def random_points(rng, n, span=1000.0, t_span=100.0):
    coords = np.column_stack(
        [
            rng.uniform(0, span, n),
            rng.uniform(0, span, n),
            rng.uniform(0, t_span, n),
        ]
    )
    return np.arange(n, dtype=np.int64), coords


def points(*rows):
    """An (ids, coords) pair numbering the given (x, y, t) rows from 0."""
    return np.arange(len(rows), dtype=np.int64), np.array(rows, dtype=float).reshape(-1, 3)


# ------------------------------------------------------------------- build


def test_build_single_point():
    tree = spatial.build(points((1.0, 2.0, 3.0)))
    assert tree.height == 0
    assert list(tree.query_ids((0, 0, 0), (5, 5, 5))) == [0]


def test_build_empty_is_error():
    with pytest.raises(ValueError):
        spatial.build(points())


def test_build_rejects_non_finite():
    with pytest.raises(ValueError):
        spatial.build((np.array([0]), np.array([[np.nan, 0.0, 0.0]])))


def test_build_rejects_two_column_coords():
    ids = np.arange(4, dtype=np.int64)
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        spatial.build((ids, np.zeros((4, 2))))


def test_build_identical_coordinate_points():
    pts = points(*[(5.0, 5.0, 5.0)] * 17)  # fanout + 1
    tree = spatial.build(pts)
    check_rtree(tree, range(17))
    got = tree.query_ids((5, 5, 5), (5, 5, 5))
    assert list(got) == list(range(17))


def test_build_invariants_random():
    rng = np.random.default_rng(91)
    for n in (2, 6, 16, 17, 100, 1000, 10_000):
        ids, coords = random_points(rng, n)
        tree = spatial.build((ids, coords))
        check_rtree(tree, ids)


def test_build_deterministic():
    rng = np.random.default_rng(14)
    ids, coords = random_points(rng, 500)
    t1 = spatial.build((ids, coords))
    t2 = spatial.build((ids, coords))

    def shape(node):
        if node.leaf:
            return ("leaf", node.ids.tolist())
        return ("node", [shape(c) for c in node.children])

    assert shape(t1.root) == shape(t2.root)


# ------------------------------------------------------------------ queries


def test_range_query_whole_and_degenerate():
    rng = np.random.default_rng(8)
    ids, coords = random_points(rng, 300)
    tree = spatial.build((ids, coords))
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    assert list(tree.query_ids(lo, hi)) == list(range(300))
    point = coords[123]
    got = tree.query_ids(point, point)
    assert 123 in got


def test_range_query_matches_scan_oracle():
    rng = np.random.default_rng(77)
    ids, coords = random_points(rng, 10_000)
    tree = spatial.build((ids, coords))
    for _ in range(1000):
        center = rng.uniform(0, 1000, 3)
        half = rng.uniform(1, 120, 3)
        lo = center - half
        hi = center + half
        lo[2] *= 0.1
        hi[2] *= 0.1
        got = tree.query_ids(lo, hi)
        want = scan_box_query(coords, ids, lo, hi)
        assert np.array_equal(got, want)


def test_query_bounds_are_closed():
    tree = spatial.build(points((0.0, 0.0, 0.0), (100.0, 0.0, 0.0)))
    assert list(tree.query_ids((0, 0, 0), (100, 0, 0))) == [0, 1]
    assert list(tree.query_ids((0, 0, 0), (99.999, 0, 0))) == [0]


# -------------------------------------------------------------------- pairs


def test_neighbor_pairs_trivial():
    near = points((0.0, 0.0, 0.0), (50.0, 0.0, 1.0))
    tree = spatial.build(near)
    pairs = spatial.neighbor_pairs(tree, near, 100.0, 100.0, 10.0)
    assert pairs.tolist() == [[0, 1]]

    far = points((0.0, 0.0, 0.0), (150.0, 0.0, 0.0))
    tree = spatial.build(far)
    pairs = spatial.neighbor_pairs(tree, far, 100.0, 100.0, 10.0)
    assert len(pairs) == 0


def test_neighbor_pairs_closed_bounds():
    pts = points((0.0, 0.0, 0.0), (100.0, 100.0, 10.0))
    tree = spatial.build(pts)
    pairs = spatial.neighbor_pairs(tree, pts, 100.0, 100.0, 10.0)
    assert pairs.tolist() == [[0, 1]]


def test_neighbor_pairs_requires_positive_limits():
    pts = points((0.0, 0.0, 0.0))
    tree = spatial.build(pts)
    with pytest.raises(ValueError):
        spatial.neighbor_pairs(tree, pts, 0.0, 100.0, 10.0)


def test_neighbor_pairs_rejects_ids_shorter_than_coords():
    # rows past len(ids) would never be queried, so their pairs would vanish
    pts = points((0.0, 0.0, 0.0), (500.0, 0.0, 0.0), (900.0, 0.0, 0.0), (950.0, 0.0, 0.0))
    tree = spatial.build(pts)
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        spatial.neighbor_pairs(tree, (np.arange(2), pts[1]), 100.0, 100.0, 10.0)
    assert spatial.neighbor_pairs(tree, pts, 100.0, 100.0, 10.0).tolist() == [[2, 3]]


def test_neighbor_pairs_rejects_two_column_coords():
    pts = points((0.0, 0.0, 0.0), (50.0, 0.0, 1.0))
    tree = spatial.build(pts)
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        spatial.neighbor_pairs(tree, (pts[0], pts[1][:, :2]), 100.0, 100.0, 10.0)


def test_neighbor_pairs_matches_double_loop():
    rng = np.random.default_rng(55)
    # clustered points to force plenty of pairs
    centers = rng.uniform(0, 2000, (20, 3))
    coords = np.concatenate(
        [
            c + rng.normal(0, [40, 40, 4], (60, 3))
            for c in centers
        ]
    )
    ids = np.arange(len(coords), dtype=np.int64)
    tree = spatial.build((ids, coords))
    got = spatial.neighbor_pairs(tree, (ids, coords), 100.0, 100.0, 10.0)
    want = double_loop_pairs(coords, 100.0, 100.0, 10.0)
    assert np.array_equal(got, want)


def test_neighbor_pairs_monotone_in_limits():
    rng = np.random.default_rng(12)
    ids, coords = random_points(rng, 300, span=300.0, t_span=30.0)
    tree = spatial.build((ids, coords))
    small = spatial.neighbor_pairs(tree, (ids, coords), 40.0, 40.0, 4.0)
    large = spatial.neighbor_pairs(tree, (ids, coords), 80.0, 60.0, 9.0)
    small_set = {tuple(p) for p in small.tolist()}
    large_set = {tuple(p) for p in large.tolist()}
    assert small_set <= large_set


# ------------------------------------------------------------------- binary


def test_pairs_bin_round_trip(tmp_path):
    pairs = np.array([[0, 1], [2, 5], [3, 4]], dtype=np.int64)
    path = tmp_path / "pairs.bin"
    spatial.write_pairs_bin(path, pairs)
    back = spatial.read_pairs_bin(path)
    assert np.array_equal(back, pairs)
    # u64 count header + 2 u32 per pair
    assert path.stat().st_size == 8 + 3 * 8


def test_pairs_bin_rejects_truncated(tmp_path):
    path = tmp_path / "pairs.bin"
    pairs = np.array([[0, 1]], dtype=np.int64)
    spatial.write_pairs_bin(path, pairs)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError):
        spatial.read_pairs_bin(path)
