"""Property tests: level inventories against networkx on generated graphs."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearchain import cohesive, graph as graphmod
from oracles import edge_index, recount_truss_numbers

PROPERTY = settings(max_examples=150, deadline=None)


@st.composite
def graphs(draw, max_n: int = 18):
    """(n, sorted edge list) with n from 0 up, dense enough for many levels."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.sets(pair.filter(lambda p: p[0] != p[1]), max_size=4 * n))
    return n, sorted({(min(u, v), max(u, v)) for u, v in pairs})


def nx_graph(n, edges) -> nx.Graph:
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(edges)
    return ref


def nx_levels(level_of, k_min: int) -> dict[int, list[nx.Graph]]:
    """Components of ``level_of(k)`` for k = k_min, k_min + 1, ... while non-empty."""
    out = {}
    k = k_min
    while (sub := level_of(k)).number_of_nodes():
        out[k] = sorted(
            (sub.subgraph(c) for c in nx.connected_components(sub)),
            key=lambda c: min(c),
        )
        k += 1
    return out


def shape(sg_or_nx) -> tuple:
    if isinstance(sg_or_nx, nx.Graph):
        return tuple(sorted(sg_or_nx)), sg_or_nx.number_of_edges()
    return sg_or_nx.vertices, sg_or_nx.n_edges


def assert_levels_match(result, want, g=None):
    """Levels equal ``want``; with ``g``, so do the edge sets, read through ``g.edges``."""
    assert sorted(result.per_k) == sorted(want)
    for k, comps in want.items():
        got = result.per_k[k]
        assert [shape(sg) for sg in got] == [shape(c) for c in comps], k
        for sg, c in zip(got, comps):
            assert sg.coefficient == pytest.approx(nx.average_clustering(c), abs=1e-12)
            if g is not None:
                edges = tuple(map(tuple, g.edges[list(sg.edge_ids)].tolist()))
                assert edges == tuple(sorted((min(e), max(e)) for e in c.edges))


@PROPERTY
@given(graphs(), st.integers(1, 5))
def test_core_levels_match_networkx(graph, k_min):
    n, edges = graph
    ref = nx_graph(n, edges)
    result = cohesive.k_core_decompose(graphmod.build_graph(n, edges), k_min)
    assert_levels_match(result, nx_levels(lambda k: nx.k_core(ref, k), k_min))


@PROPERTY
@given(graphs(), st.integers(1, 5))
def test_truss_levels_match_networkx(graph, k_min):
    n, edges = graph
    ref = nx_graph(n, edges)
    g = graphmod.build_graph(n, edges)
    result = cohesive.k_truss_decompose(g, k_min)
    assert_levels_match(result, nx_levels(lambda k: nx.k_truss(ref, k), k_min), g)


@PROPERTY
@given(graphs(), st.integers(1, 5))
def test_dbscan_and_stats_coefficients_match_networkx(graph, k_min):
    n, edges = graph
    ref = nx_graph(n, edges)
    g = graphmod.build_graph(n, edges)
    result = cohesive.k_dbscan(g, k_min)
    assert cohesive.validate(result, g).ok
    for subs in result.per_k.values():
        for sg in subs:
            cluster = ref.subgraph(sg.vertices)
            assert sg.n_edges == cluster.number_of_edges()
            assert sg.coefficient == pytest.approx(nx.average_clustering(cluster), abs=1e-12)
    stats = graphmod.graph_stats(g)
    comps = sorted(nx.connected_components(ref), key=min)
    assert stats["components"] == len(comps)
    for row, comp in zip(stats["component_stats"], comps):
        sub = ref.subgraph(comp)
        assert (row["vertices"], row["edges"]) == (len(comp), sub.number_of_edges())
        assert row["diameter"] == nx.diameter(sub)
        assert row["mean_clustering_coefficient"] == pytest.approx(
            nx.average_clustering(sub), abs=1e-12
        )


@PROPERTY
@given(graphs())
def test_component_labels_match_networkx(graph):
    n, edges = graph
    labels, count = graphmod.component_labels(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    comps = sorted(nx.connected_components(nx_graph(n, edges)), key=min)
    want = [0] * n
    for i, comp in enumerate(comps):
        for v in comp:
            want[v] = i
    assert labels.tolist() == want
    assert count == len(comps)


@PROPERTY
@given(graphs())
def test_triangles_match_networkx(graph):
    n, edges = graph
    tris, _ = graphmod.triangles(graphmod.build_graph(n, edges))
    want = sorted(
        tuple(sorted(c)) for c in nx.enumerate_all_cliques(nx_graph(n, edges)) if len(c) == 3
    )
    assert tris.shape == (len(want), 3)
    assert [tuple(t) for t in tris.tolist()] == want


@PROPERTY
@given(graphs())
def test_triangle_sides_match_edge_index(graph):
    n, edges = graph
    g = graphmod.build_graph(n, edges)
    tris, sides = graphmod.triangles(g)
    eidx = edge_index(g)
    assert sides.shape == tris.shape
    for (u, v, w), ids in zip(tris.tolist(), sides.tolist()):
        assert ids == [eidx[(u, v)], eidx[(u, w)], eidx[(v, w)]]


def strip(rows: int, length: int, wrap: bool) -> tuple[int, list]:
    """A triangulated grid, rolled into a cylinder when ``wrap``.

    Border edges close fewer triangles, so the truss peel eats in from the
    borders over many rounds: a cylinder takes about ``length`` rounds.
    """

    def at(r: int, j: int) -> int:
        return (r % rows) * length + j

    edges = [(at(r, j), at(r, j + 1)) for r in range(rows) for j in range(length - 1)]
    for r in range(rows if wrap else rows - 1):
        edges += [(at(r, j), at(r + 1, j)) for j in range(length)]
        edges += [(at(r, j), at(r + 1, j + 1)) for j in range(length - 1)]
    return rows * length, edges


@st.composite
def peel_graphs(draw):
    """Cliques of 3-7 vertices (k jumps) and triangle strips (many peel
    rounds), joined in a row by bridges, with a few chords and relabelled."""
    n, edges = 0, []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            size = draw(st.integers(3, 7))
            piece = (size, [(u, v) for u in range(size) for v in range(u + 1, size)])
        else:
            wrap = draw(st.booleans())
            piece = strip(draw(st.integers(4 if wrap else 2, 5)), draw(st.integers(2, 25)), wrap)
        if n:
            edges.append((draw(st.integers(0, n - 1)), n + draw(st.integers(0, piece[0] - 1))))
        edges += [(n + u, n + v) for u, v in piece[1]]
        n += piece[0]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=4))
    perm = draw(st.permutations(range(n)))
    return n, sorted({(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges if u != v})


@PROPERTY
@given(peel_graphs())
def test_truss_numbers_match_recount_on_cliques_and_strips(graph):
    n, edges = graph
    g = graphmod.build_graph(n, edges)
    tn = cohesive.truss_numbers(g)
    eidx = edge_index(g)
    assert {e: int(tn[eidx[e]]) for e in edges} == recount_truss_numbers(edges)


@PROPERTY
@given(graphs(), st.integers(1, 5))
def test_cliques_match_networkx(graph, k_min):
    n, edges = graph
    found = cohesive.enumerate_cliques(graphmod.build_graph(n, edges), k_min)
    want = sorted(
        tuple(sorted(c)) for c in nx.find_cliques(nx_graph(n, edges)) if len(c) >= k_min
    )
    assert not found.truncated
    assert found.cliques == want


@pytest.mark.parametrize(
    "n, edges",
    [(0, []), (1, []), (6, []), (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])],
    ids=["empty", "single-vertex", "edgeless", "k4"],
)
def test_degenerate_graphs_and_high_k_min(n, edges):
    g = graphmod.build_graph(n, edges)
    for method in ("core", "truss", "dbscan"):
        top = max(cohesive.decompose(g, method, k_min=1).per_k, default=0)
        assert cohesive.decompose(g, method, k_min=top + 1).per_k == {}, method
        if not edges:
            assert cohesive.decompose(g, method).per_k == {}, method
    stats = graphmod.graph_stats(g)
    assert stats["components"] == nx.number_connected_components(nx_graph(n, edges))
    assert all(row["diameter"] == 0 for row in stats["component_stats"] if row["vertices"] == 1)
