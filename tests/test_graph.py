"""Graph tests: CSR invariants, worked-example pins, matrix oracles."""

from __future__ import annotations

import numpy as np
import pytest

from nearchain import graph as graphmod
from conftest import FIG_EDGES, FIG_N, random_graph
from oracles import (
    adjacency_matrix,
    bfs_diameter,
    closure_components,
    edge_index,
    matrix_coefficient,
    matrix_supports,
)


def complete_graph(n):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


# -------------------------------------------------------------------- build


def test_build_triangle():
    g = graphmod.build_graph(3, {(0, 1), (1, 2), (0, 2)})
    assert g.n == 3 and g.m == 3
    assert list(g.degrees) == [2, 2, 2]


def test_build_invariants():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n, edges = random_graph(rng, int(rng.integers(1, 40)), 0.15)
        g = graphmod.build_graph(n, edges)
        assert g.m == len(edges)
        assert int(g.degrees.sum()) == 2 * g.m
        assert g.row_offsets[0] == 0 and g.row_offsets[-1] == 2 * g.m
        for v in range(n):
            row = g.col_indices[g.row_offsets[v] : g.row_offsets[v + 1]]
            assert (np.diff(row) > 0).all(), "rows must be strictly ascending"


def test_build_matches_matrix_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n, edges = random_graph(rng, int(rng.integers(2, 32)), 0.2)
        g = graphmod.build_graph(n, edges)
        mat = adjacency_matrix(n, edges)
        for v in range(n):
            row = g.col_indices[g.row_offsets[v] : g.row_offsets[v + 1]]
            assert list(row) == list(np.nonzero(mat[v])[0])


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        graphmod.build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        graphmod.build_graph(3, [(1, 1)])


def test_build_dedups_pairs():
    g = graphmod.build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_fig_degrees():
    g = graphmod.build_graph(FIG_N, FIG_EDGES)
    assert g.degrees[1] == 5
    assert g.degrees[5] == 2
    assert g.n == 8 and g.m == 13


# --------------------------------------------------------------- components


def test_components_trivial():
    labels, count = graphmod.component_labels(4, np.zeros((0, 2), dtype=np.int64))
    assert labels.tolist() == [0, 1, 2, 3] and count == 4
    labels, count = graphmod.component_labels(3, [(0, 1), (1, 2), (0, 2)])
    assert labels.tolist() == [0, 0, 0] and count == 1


def test_component_labels_reject_out_of_range_endpoint():
    labels, count = graphmod.component_labels(3, np.array([[0, 2]]))
    assert labels.tolist() == [0, 1, 0] and count == 2
    for bad in ([[0, 3]], [[-1, 1]]):
        with pytest.raises(ValueError, match="out of range"):
            graphmod.component_labels(3, np.array(bad))


def test_components_match_closure_oracle():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n, edges = random_graph(rng, int(rng.integers(2, 64)), 0.06)
        g = graphmod.build_graph(n, edges)
        labels, count = graphmod.component_labels(n, g.edges)
        labels = labels.tolist()
        assert labels == closure_components(n, edges)
        # labels dense, ordered by smallest member; components partition V
        assert sorted(set(labels)) == list(range(count))
        firsts = [labels.index(c) for c in range(count)]
        assert firsts == sorted(firsts)


def blob_union(rng, blobs: int):
    """Disjoint dense random blobs, their vertex ids shuffled together."""
    edges, n = [], 0
    for _ in range(blobs):
        size, blob = random_graph(rng, int(rng.integers(1, 12)), 0.6)
        edges += [(u + n, v + n) for u, v in blob]
        n += size
    perm = rng.permutation(n)
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def test_stats_components_and_coefficient_bits_match_oracles():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n, edges = blob_union(rng, int(rng.integers(1, 8)))
        g = graphmod.build_graph(n, edges)
        labels = closure_components(n, edges)
        want = [
            tuple(v for v in range(n) if labels[v] == c) for c in range(max(labels) + 1)
        ]
        assert [c.vertices for c in graphmod.component_table(g)] == want
        rows = graphmod.graph_stats(g)["component_stats"]
        assert len(rows) == len(want)
        for row, comp in zip(rows, want):
            inside = [(u, v) for u, v in edges if u in comp]
            assert (row["vertices"], row["edges"]) == (len(comp), len(inside))
            # exact: the same ascending-id sum as the definition
            assert row["mean_clustering_coefficient"] == matrix_coefficient(n, edges, comp)


# ----------------------------------------------------------------- supports


def test_supports_k4_and_fig():
    n, edges = complete_graph(4)
    g = graphmod.build_graph(n, edges)
    assert graphmod.compute_supports(g).tolist() == [2] * 6

    g = graphmod.build_graph(FIG_N, FIG_EDGES)
    sup = graphmod.compute_supports(g)
    eidx = edge_index(g)
    assert sup[eidx[(1, 2)]] == 3
    assert sup[eidx[(2, 7)]] == 1


def test_supports_match_matrix_oracle():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n, edges = random_graph(rng, int(rng.integers(2, 64)), 0.12)
        g = graphmod.build_graph(n, edges)
        sup = graphmod.compute_supports(g)
        want = matrix_supports(n, edges)
        eidx = edge_index(g)
        for (u, v), s in want.items():
            assert sup[eidx[(u, v)]] == s
        # two global invariants: support bound and triangle-sum identity
        deg = g.degrees
        for (u, v), e in eidx.items():
            assert sup[e] <= min(deg[u], deg[v]) - 1
        mat = adjacency_matrix(n, edges).astype(np.int64)
        triangles = int(np.trace((mat @ mat) @ mat)) // 6
        assert int(sup.sum()) == 3 * triangles


# --------------------------------------------------------------- clustering


def test_coefficient_clique_and_star():
    n, edges = complete_graph(5)
    g = graphmod.build_graph(n, edges)
    assert graphmod.clustering_coefficient(g) == 1.0
    star = graphmod.build_graph(5, [(0, i) for i in range(1, 5)])
    assert graphmod.clustering_coefficient(star) == 0.0


def test_coefficient_matches_matrix_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n, edges = random_graph(rng, int(rng.integers(2, 48)), 0.15)
        g = graphmod.build_graph(n, edges)
        assert graphmod.clustering_coefficient(g) == pytest.approx(
            matrix_coefficient(n, edges), abs=1e-12
        )


def test_coefficient_empty_graph_is_error():
    g = graphmod.build_graph(0, [])
    with pytest.raises(ValueError, match="empty graph"):
        graphmod.clustering_coefficient(g)


# ----------------------------------------------------------------- diameter


def test_diameter_trivial():
    n, edges = complete_graph(6)
    assert graphmod.diameter(graphmod.build_graph(n, edges)) == 1
    path4 = graphmod.build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert graphmod.diameter(path4) == 3


def test_diameter_cross_algorithm():
    rng = np.random.default_rng(9)
    done = 0
    while done < 25:
        n, edges = random_graph(rng, int(rng.integers(2, 128)), 0.09)
        g = graphmod.build_graph(n, edges)
        if graphmod.component_labels(n, g.edges)[1] != 1:
            continue
        done += 1
        fw = graphmod._diameter_floyd_warshall(g)
        bfs = graphmod._diameter_bfs(g)
        assert fw == bfs == bfs_diameter(n, edges)


def test_diameter_disconnected_is_error():
    g = graphmod.build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        graphmod.diameter(g)


# --------------------------------------------------------- edge list, stats


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    n, edges = random_graph(rng, 30, 0.2)
    g = graphmod.build_graph(n, edges)
    path = tmp_path / "edges.txt"
    graphmod.write_edge_list(g.edges, path)
    back = graphmod.read_edge_list(path)
    rebuilt = graphmod.build_graph(n, back)
    assert np.array_equal(rebuilt.edges, g.edges)
    first = path.read_text().splitlines()[0].split()
    assert int(first[0]) < int(first[1])


@pytest.mark.parametrize("line", ["0 1 2", "0 x", "0"])
def test_malformed_edge_line_names_file_and_line(tmp_path, line):
    path = tmp_path / "bad.txt"
    path.write_text(f"0 1\n\n{line}\n")
    with pytest.raises(ValueError, match=r"bad\.txt: line 3: expected 'u v'"):
        graphmod.read_edge_list(path)


def test_graph_stats_shape():
    g = graphmod.build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    stats = graphmod.graph_stats(g)
    assert stats["vertices"] == 5 and stats["edges"] == 4
    assert stats["components"] == 2
    tri, pair = stats["component_stats"]
    assert tri == {
        "vertices": 3,
        "edges": 3,
        "diameter": 1,
        "mean_clustering_coefficient": 1.0,
    }
    assert pair["diameter"] == 1 and pair["mean_clustering_coefficient"] == 0.0
    assert stats["schema_version"]
