"""R-tree tests: structure invariants, query equivalence, pair generation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
    for n in (2, 6, 16, 17, 96, 97, 100, 256, 257, 1000, 4096, 4097, 10_000):
        ids, coords = random_points(rng, n)
        tree = spatial.build((ids, coords))
        check_rtree(tree, ids)


def test_build_deterministic():
    rng = np.random.default_rng(14)
    ids, coords = random_points(rng, 500)
    t1 = spatial.build((ids, coords))
    t2 = spatial.build((ids, coords))
    assert t1.height == t2.height and len(t1.levels) == len(t2.levels)
    for level1, level2 in zip(t1.levels, t2.levels):
        assert all(np.array_equal(x, y) for x, y in zip(level1, level2))
    assert np.array_equal(t1.ids, t2.ids)
    assert np.array_equal(t1.pts, t2.pts, equal_nan=True)


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
    pairs = spatial.neighbor_pairs(tree, 100.0, 100.0, 10.0)
    assert pairs.tolist() == [[0, 1]]

    far = points((0.0, 0.0, 0.0), (150.0, 0.0, 0.0))
    tree = spatial.build(far)
    pairs = spatial.neighbor_pairs(tree, 100.0, 100.0, 10.0)
    assert len(pairs) == 0


def test_neighbor_pairs_closed_bounds():
    pts = points((0.0, 0.0, 0.0), (100.0, 100.0, 10.0))
    tree = spatial.build(pts)
    pairs = spatial.neighbor_pairs(tree, 100.0, 100.0, 10.0)
    assert pairs.tolist() == [[0, 1]]


def test_neighbor_pairs_requires_positive_limits():
    pts = points((0.0, 0.0, 0.0))
    tree = spatial.build(pts)
    with pytest.raises(ValueError):
        spatial.neighbor_pairs(tree, 0.0, 100.0, 10.0)


def test_neighbor_pairs_rejects_ids_shorter_than_coords():
    # the join reads its points from the tree, so the mismatch is caught when building it
    pts = points((0.0, 0.0, 0.0), (500.0, 0.0, 0.0), (900.0, 0.0, 0.0), (950.0, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        spatial.build((np.arange(2), pts[1]))
    tree = spatial.build(pts)
    assert spatial.neighbor_pairs(tree, 100.0, 100.0, 10.0).tolist() == [[2, 3]]


def test_neighbor_pairs_rejects_two_column_coords():
    pts = points((0.0, 0.0, 0.0), (50.0, 0.0, 1.0))
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        spatial.build((pts[0], pts[1][:, :2]))


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
    got = spatial.neighbor_pairs(tree, 100.0, 100.0, 10.0)
    want = double_loop_pairs(coords, 100.0, 100.0, 10.0)
    assert np.array_equal(got, want)


def test_neighbor_pairs_monotone_in_limits():
    rng = np.random.default_rng(12)
    ids, coords = random_points(rng, 300, span=300.0, t_span=30.0)
    tree = spatial.build((ids, coords))
    small = spatial.neighbor_pairs(tree, 40.0, 40.0, 4.0)
    large = spatial.neighbor_pairs(tree, 80.0, 60.0, 9.0)
    small_set = {tuple(p) for p in small.tolist()}
    large_set = {tuple(p) for p in large.tolist()}
    assert small_set <= large_set


def box_query_pairs(ids, coords, off):
    """Pairs (u, v), u < v, with coords[v] in the closed box coords[u] -/+ off, by scans."""
    out = []
    for i, p in zip(ids.tolist(), coords):
        found = scan_box_query(coords, ids, p - off, p + off)
        out.extend((i, int(j)) for j in found if j > i)
    return np.array(sorted(out), dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_neighbor_pairs_leaves_exactly_r_apart(axis):
    # two stacks of 20 identical points, exactly r apart on one axis, fill
    # leaves whose boxes touch only after dilation by r: a closed-bound join
    limits = np.array([100.0, 100.0, 10.0])
    coords = np.zeros((40, 3))
    coords[20:, axis] = limits[axis]
    ids = np.arange(40, dtype=np.int64)
    tree = spatial.build((ids, coords))
    assert tree.height >= 1
    pairs = spatial.neighbor_pairs(tree, *limits)
    assert len(pairs) == 40 * 39 // 2


@pytest.mark.parametrize("batch", [1, 7])
def test_neighbor_pairs_independent_of_batch_size(monkeypatch, batch):
    rng = np.random.default_rng(56)
    centers = rng.uniform(0, 1000, (8, 3))
    coords = np.concatenate([c + rng.normal(0, [40, 40, 4], (50, 3)) for c in centers])
    ids = rng.permutation(len(coords)).astype(np.int64)
    tree = spatial.build((ids, coords))
    want = spatial.neighbor_pairs(tree, 100.0, 100.0, 10.0)
    monkeypatch.setattr(spatial, "_BATCH", batch)
    assert np.array_equal(spatial.neighbor_pairs(tree, 100.0, 100.0, 10.0), want)
    assert np.array_equal(want, box_query_pairs(ids, coords, np.array([100.0, 100.0, 10.0])))


@st.composite
def lattice_events(draw):
    """Events on a lattice of half-limit steps, so many pairs sit at exactly +/- r.

    Sizes cover a lone leaf root (n <= FANOUT), one level of leaves and a
    tree of height 2 or more; small extents force duplicate points and flat
    boxes, an offset origin makes the box bounds round, and ids are a
    permutation.
    """
    n = draw(
        st.one_of(
            st.integers(1, spatial.FANOUT),
            st.integers(spatial.FANOUT + 1, spatial.FANOUT**2),
            st.integers(spatial.FANOUT**2 + 1, 400),
        )
    )
    extents = np.array(draw(st.tuples(*[st.integers(0, 30)] * 3)))
    cells = draw(arrays(np.int64, (n, 3), elements=st.integers(0, 30))) % (extents + 1)
    origin = np.array(draw(st.sampled_from([(0.0, 0.0, 0.0), (500_000.1, 4_100_000.3, 17.7)])))
    limits = np.array(draw(st.sampled_from([(100.0, 100.0, 10.0), (0.3, 0.7, 0.1)])))
    coords = origin + cells * (limits / 2)
    ids = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return ids, coords, limits


@settings(max_examples=120, deadline=None)
@given(lattice_events())
def test_neighbor_pairs_match_box_query_scan(case):
    ids, coords, limits = case
    tree = spatial.build((ids, coords))
    got = spatial.neighbor_pairs(tree, *limits)
    assert np.array_equal(got, box_query_pairs(ids, coords, limits))


@settings(max_examples=120, deadline=None)
@given(lattice_events(), st.data())
def test_query_ids_match_scan_oracle(case, data):
    # box corners sit on lattice points -/+ whole limits, so many bounds are
    # hit exactly; a corner above its opposite on some axis makes an empty box
    ids, coords, limits = case
    tree = spatial.build((ids, coords))
    index = st.integers(0, len(ids) - 1)
    steps = st.tuples(*[st.integers(-2, 2)] * 3).map(np.array)
    for _ in range(4):
        lo = coords[data.draw(index)] + data.draw(steps) * limits
        hi = coords[data.draw(index)] + data.draw(steps) * limits
        assert np.array_equal(tree.query_ids(lo, hi), scan_box_query(coords, ids, lo, hi))
    beyond = coords.max(axis=0) + limits  # past every point: hits nothing
    assert len(tree.query_ids(beyond, beyond + limits)) == 0


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
