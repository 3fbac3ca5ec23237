"""Detector tests: worked-example pins, brute-force oracles, validator."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from nearchain import cohesive, graph as graphmod
from conftest import FIG_EDGES, FIG_N, random_graph
from oracles import (
    adjacency_matrix,
    edge_index,
    peel_core_numbers,
    plain_maximal_cliques,
    powerset_maximal_cliques,
    rebuild_levels,
    recount_truss_numbers,
    straightline_dbscan,
    validate,
)


def complete_graph(n):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


def build(n, edges):
    return graphmod.build_graph(n, edges)


# ------------------------------------------------------------------- k-core


def test_core_k5_and_path():
    g = build(*complete_graph(5))
    result = cohesive.k_core_decompose(g)
    assert sorted(result.per_k) == [3, 4]
    for k in (3, 4):
        (sg,) = result.per_k[k]
        assert sg.vertices == (0, 1, 2, 3, 4)

    path = build(4, [(0, 1), (1, 2), (2, 3)])
    assert cohesive.k_core_decompose(path).per_k == {}


def test_core_numbers_match_peel_oracle():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n, edges = random_graph(rng, int(rng.integers(2, 48)), 0.12)
        g = build(n, edges)
        assert cohesive.core_numbers(g).tolist() == peel_core_numbers(n, edges)


def test_degeneracy_order_property():
    # every vertex has at most degeneracy(G) neighbors later in the order
    rng = np.random.default_rng(22)
    for _ in range(20):
        n, edges = random_graph(rng, 30, 0.2)
        g = build(n, edges)
        core, order = cohesive.core_numbers(g, return_order=True)
        assert sorted(order) == list(range(n))
        degeneracy = int(core.max()) if n else 0
        rank = {v: i for i, v in enumerate(order)}
        mat = adjacency_matrix(n, edges)
        for v in range(n):
            later = sum(1 for w in np.flatnonzero(mat[v]).tolist() if rank[w] > rank[v])
            assert later <= degeneracy


def test_core_fig_levels():
    g = build(FIG_N, FIG_EDGES)
    result = cohesive.k_core_decompose(g)
    # vertex 5 sits on a dangling path (5-6), so it peels at k=1 with the leaf
    assert cohesive.core_numbers(g).tolist() == [3, 3, 3, 3, 3, 1, 1, 2]
    assert sorted(result.per_k) == [3]
    (sg,) = result.per_k[3]
    assert sg.vertices == (0, 1, 2, 3, 4)
    assert sg.n_edges == 9
    assert sg.coefficient == pytest.approx(0.9)


# ------------------------------------------------------------------ k-truss


def test_truss_k4_and_cycle():
    g = build(*complete_graph(4))
    result = cohesive.k_truss_decompose(g)
    assert sorted(result.per_k) == [3, 4]
    for k in (3, 4):
        (sg,) = result.per_k[k]
        assert sg.vertices == (0, 1, 2, 3) and sg.n_edges == 6

    cycle = build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert cohesive.k_truss_decompose(cycle).per_k == {}


def test_truss_fig_matches_depicted_subgraph():
    g = build(FIG_N, FIG_EDGES)
    result = cohesive.k_truss_decompose(g)
    (sg3,) = result.per_k[3]
    assert sg3.vertices == (0, 1, 2, 3, 4, 7)
    assert sg3.n_edges == 11
    (sg4,) = result.per_k[4]
    assert sg4.vertices == (0, 1, 2, 3, 4)
    assert sg4.n_edges == 9
    assert 5 not in result.per_k


def test_truss_numbers_match_recount_oracle():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n, edges = random_graph(rng, int(rng.integers(2, 40)), 0.18)
        g = build(n, edges)
        tn = cohesive.truss_numbers(g)
        want = recount_truss_numbers(edges)
        eidx = edge_index(g)
        for (u, v), k in want.items():
            assert tn[eidx[(u, v)]] == k, (u, v)


def test_truss_subgraph_is_edge_defined():
    # two tetrahedra joined by one bridge edge: the bridge survives in no
    # 3-truss even though both endpoints do
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges += [(4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
    edges += [(3, 4)]
    g = build(8, edges)
    result = cohesive.k_truss_decompose(g)
    subs = result.per_k[3]
    assert [sg.vertices for sg in subs] == [(0, 1, 2, 3), (4, 5, 6, 7)]
    assert all(sg.n_edges == 6 for sg in subs)
    for sg in subs:
        assert (3, 4) not in [tuple(e) for e in g.edges[list(sg.edge_ids)].tolist()]


def test_truss_validates_against_its_own_edges():
    # K4s on {0,1,2,3} and {3,4,5,6} plus the chord (0, 6): the chord closes
    # one triangle, so the 4-truss spans {0..6} through vertex 3 without it,
    # and the induced edge set would wrongly include it
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u, v) for u in range(3, 7) for v in range(u + 1, 7)]
    edges += [(0, 6)]
    g = build(7, edges)
    result = cohesive.k_truss_decompose(g)
    (sg4,) = result.per_k[4]
    assert sg4.vertices == tuple(range(7)) and sg4.n_edges == 12
    assert validate(result, g).ok
    result.per_k[4] = [cohesive.Subgraph(sg4.vertices, sg4.n_edges, sg4.coefficient)]
    report = validate(result, g)
    assert [f["reason"] for f in report.failures] == ["truss subgraph without edge ids"]


# ----------------------------------------------------------------- k-dbscan


def test_dbscan_fig_single_cluster():
    g = build(FIG_N, FIG_EDGES)
    result = cohesive.k_dbscan(g)
    (cluster,) = result.per_k[3]
    assert cluster.vertices == tuple(range(8))


def test_dbscan_star_border_members():
    # center of the 5-star is core at k=3; the leaves attach as border
    g = build(6, [(0, i) for i in range(1, 6)])
    result = cohesive.k_dbscan(g)
    (cluster,) = result.per_k[3]
    assert cluster.vertices == (0, 1, 2, 3, 4, 5)
    assert sorted(result.per_k) == [3, 4, 5]


def test_dbscan_edgeless_empty():
    g = build(5, [])
    assert cohesive.k_dbscan(g).per_k == {}


def test_dbscan_matches_straightline_oracle():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n, edges = random_graph(rng, int(rng.integers(2, 48)), 0.14)
        g = build(n, edges)
        got = {
            k: [sg.vertices for sg in subs]
            for k, subs in cohesive.k_dbscan(g).per_k.items()
        }
        assert got == straightline_dbscan(n, edges)


def test_dbscan_removes_unvisited_between_levels():
    # disjoint K5 and K4: at k=3 both components hold a core vertex, at k=4
    # the K4 (all degrees 3) has none left and is removed entirely
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(5, 9) for v in range(u + 1, 9)]
    g = build(9, edges)
    result = cohesive.k_dbscan(g)
    assert [c.vertices for c in result.per_k[3]] == [
        (0, 1, 2, 3, 4),
        (5, 6, 7, 8),
    ]
    assert [c.vertices for c in result.per_k[4]] == [(0, 1, 2, 3, 4)]
    assert sorted(result.per_k) == [3, 4]


# ------------------------------------------------------------------ cliques


def test_cliques_k4_and_fig():
    g = build(*complete_graph(4))
    cs = cohesive.enumerate_cliques(g)
    assert cs.cliques == [(0, 1, 2, 3)]
    assert Counter(map(len, cs.cliques)) == {4: 1}
    assert cs.truncated is False

    g = build(FIG_N, FIG_EDGES)
    cs = cohesive.enumerate_cliques(g)
    assert (0, 1, 3, 4) in cs.cliques
    assert cs.cliques == [(0, 1, 3, 4), (1, 2, 3, 4), (1, 2, 7)]
    assert Counter(map(len, cs.cliques)) == {3: 1, 4: 2}


def test_cliques_match_powerset_oracle():
    rng = np.random.default_rng(51)
    for _ in range(50):
        n, edges = random_graph(rng, int(rng.integers(2, 16)), 0.3)
        g = build(n, edges)
        got = cohesive.enumerate_cliques(g, k_min=1).cliques
        assert got == powerset_maximal_cliques(n, edges)


def test_cliques_match_plain_recursion():
    rng = np.random.default_rng(52)
    for _ in range(30):
        n, edges = random_graph(rng, int(rng.integers(2, 40)), 0.2)
        g = build(n, edges)
        got = cohesive.enumerate_cliques(g, k_min=1).cliques
        assert got == plain_maximal_cliques(n, edges)


def test_cliques_k_min_filters_but_counts():
    g = build(FIG_N, FIG_EDGES)
    cs = cohesive.enumerate_cliques(g, k_min=4)
    assert cs.cliques == [(0, 1, 3, 4), (1, 2, 3, 4)]


def test_cliques_truncation_flag():
    g = build(FIG_N, FIG_EDGES)  # five maximal cliques in total
    cs = cohesive.enumerate_cliques(g, k_min=1, max_count=2)
    assert cs.truncated is True
    assert len(cs.cliques) <= 2
    full = cohesive.enumerate_cliques(g, k_min=1, max_count=10)
    assert full.truncated is False
    assert len(full.cliques) == 5  # includes the two size-2 cliques


def test_clique_decomposition_shape():
    g = build(FIG_N, FIG_EDGES)
    result = cohesive.clique_decomposition(cohesive.enumerate_cliques(g))
    assert sorted(result.per_k) == [3, 4]
    assert all(sg.coefficient == 1.0 for subs in result.per_k.values() for sg in subs)
    (sg,) = result.per_k[3]
    assert sg.n_edges == 3


# ---------------------------------------------------------------- validator


def test_validate_accepts_all_methods():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n, edges = random_graph(rng, 24, 0.25)
        g = build(n, edges)
        for method in ("core", "truss", "dbscan", "clique"):
            report = validate(cohesive.decompose(g, method), g)
            assert report.ok, (method, report.failures)


def test_validate_flags_low_degree_vertex():
    # K4 with a pendant vertex: injecting the pendant into the 3-core breaks
    # the minimum-degree property and must be flagged by name
    n, edges = complete_graph(4)
    g = build(n + 1, edges + [(0, 4)])
    result = cohesive.k_core_decompose(g)
    good = result.per_k[3][0]
    result.per_k[3] = [
        cohesive.Subgraph((0, 1, 2, 3, 4), good.n_edges + 1, good.coefficient)
    ]
    report = validate(result, g)
    assert not report.ok
    assert any(f.get("vertex") == 4 for f in report.failures)


def test_validate_flags_unsupported_truss_edge():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges += [(4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
    edges += [(3, 4)]
    g = build(8, edges)
    result = cohesive.k_truss_decompose(g)
    sg = result.per_k[3][0]
    result.per_k[3][0] = cohesive.Subgraph(
        tuple(sorted(set(sg.vertices) | {4})),
        sg.n_edges + 1,
        sg.coefficient,
        tuple(sorted(sg.edge_ids + (edge_index(g)[(3, 4)],))),
    )
    report = validate(result, g)
    assert not report.ok
    assert any(f.get("edge") == (3, 4) for f in report.failures)


def test_validate_flags_non_maximal_clique():
    g = build(*complete_graph(5))
    result = cohesive.clique_decomposition(cohesive.enumerate_cliques(g))
    result.per_k[4] = [cohesive.Subgraph((0, 1, 2, 3), 6, 1.0)]
    del result.per_k[5]
    report = validate(result, g)
    assert not report.ok
    assert any("maximal" in f["reason"] for f in report.failures)


def test_validate_flags_clique_missing_edge():
    g = build(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    result = cohesive.DecompositionResult(
        "clique", 3, {3: [cohesive.Subgraph((1, 2, 3), 3, 1.0)]}
    )
    report = validate(result, g)
    assert not report.ok
    assert any(f.get("edge") == (1, 3) for f in report.failures)


def test_validate_flags_dbscan_membership_drift():
    g = build(FIG_N, FIG_EDGES)
    result = cohesive.k_dbscan(g)
    (cluster,) = result.per_k[3]
    result.per_k[3] = [cohesive.Subgraph(cluster.vertices[:-1], 11, 0.5)]
    report = validate(result, g)
    assert not report.ok


def _k5_k4_dbscan():
    # disjoint K5 (0-4) and K4 (5-8): clusters {K5, K4} at k=3, {K5} at k=4
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(5, 9) for v in range(u + 1, 9)]
    g = build(9, edges)
    return g, cohesive.k_dbscan(g)


def _cluster(vertices):
    return cohesive.Subgraph(tuple(vertices), 0, 0.0)


K5, K4 = _cluster(range(5)), _cluster(range(5, 9))


@pytest.mark.parametrize(
    "levels, reason",
    [
        ({3: [K5, K4], 4: [K5, K4]}, "no seed of working-graph degree >= 4"),
        ({3: [_cluster(range(9))], 4: [K5]}, "cluster not connected"),
        ({3: [_cluster(range(4)), K4], 4: [K5]}, "neighbor outside the cluster"),
        ({3: [K5, K4, K4], 4: [K5]}, "clusters overlap"),
        ({3: [K4], 4: [K5]}, "vertex outside the previous level"),
        ({3: [K5], 4: [K5]}, "seed in no cluster"),
        ({3: [K5, K4]}, "seed in no cluster"),
        ({3: [K5, K4], 4: [K5], 6: [K5]}, "level outside k_min..last level"),
    ],
    ids=["seed", "connected", "closed", "disjoint", "nested", "covered", "last", "gap"],
)
def test_validate_flags_each_dbscan_rule(levels, reason):
    g, result = _k5_k4_dbscan()
    assert validate(result, g).ok
    result.per_k = levels
    report = validate(result, g)
    assert not report.ok
    assert any(reason in f["reason"] for f in report.failures), report.failures


def test_validate_rejects_fuzzed_mutations():
    rng = np.random.default_rng(71)
    flagged = 0
    for _ in range(30):
        n, edges = random_graph(rng, 20, 0.3)
        g = build(n, edges)
        result = cohesive.k_core_decompose(g)
        ks = [k for k, subs in result.per_k.items() if subs]
        if not ks:
            continue
        k = ks[0]
        sg = result.per_k[k][0]
        outside = sorted(set(range(n)) - set(sg.vertices))
        mat = adjacency_matrix(n, edges)
        breakers = [v for v in outside if mat[v, list(sg.vertices)].sum() < k]
        if not breakers:
            continue
        v = breakers[0]
        mutated = tuple(sorted(sg.vertices + (v,)))
        result.per_k[k][0] = cohesive.Subgraph(mutated, sg.n_edges, sg.coefficient)
        report = validate(result, g)
        assert not report.ok
        flagged += 1
    assert flagged >= 10  # the harness must actually exercise mutations


# ---------------------------------------------------- one pass and shape


def test_decompose_equals_per_level_rebuild():
    rng = np.random.default_rng(81)
    # several components of varying density
    edges = []
    base = 0
    for size, p in ((12, 0.5), (9, 0.7), (15, 0.3), (6, 0.9)):
        _, part = random_graph(rng, size, p)
        edges += [(u + base, v + base) for u, v in part]
        base += size
    g = build(base, edges)
    for method in ("core", "truss", "dbscan"):
        want = {
            k: [cohesive.Subgraph(*row) for row in rows]
            for k, rows in rebuild_levels(base, edges, method).items()
        }
        assert cohesive.decompose(g, method).per_k == want, method


def test_decompose_unknown_method():
    g = build(3, [(0, 1)])
    with pytest.raises(ValueError):
        cohesive.decompose(g, "nope")


def test_containment_theorems_quick():
    rng = np.random.default_rng(91)
    for _ in range(15):
        n, edges = random_graph(rng, 28, 0.25)
        g = build(n, edges)
        core = cohesive.core_numbers(g)
        tn = cohesive.truss_numbers(g)
        eidx = edge_index(g)
        for (u, v), e in eidx.items():
            k = int(tn[e])
            if k >= 3:
                # k-truss edge lives inside the (k-1)-core
                assert core[u] >= k - 1 and core[v] >= k - 1
        for c in cohesive.enumerate_cliques(g, k_min=3).cliques:
            k = len(c)
            for u, v in zip(c, c[1:]):
                assert tn[eidx[(min(u, v), max(u, v))]] >= k
