"""Acceptance criteria: one test per numbered criterion.

Each test records an ``ACCEPTANCE <n> PASS|FAIL <label>`` line through the
``acceptance`` fixture; the lines are printed in the terminal summary.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from nearchain import cohesive, graph as graphmod, knox, spatial, synth
from nearchain.cli import main as cli_main
from conftest import FIG_EDGES, FIG_N, random_graph
from oracles import (
    closure_components,
    double_loop_pairs,
    edge_index,
    peel_core_numbers,
    plain_maximal_cliques,
    recount_truss_numbers,
)


def partition(labels) -> list[tuple[int, ...]]:
    groups: dict[int, list[int]] = {}
    for v, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(v)
    return sorted(tuple(g) for g in groups.values())


def cli(args):
    code = cli_main([str(a) for a in args])
    assert code == 0, f"exit {code} for {args}"


def test_acceptance_1_oracle_equivalence(acceptance):
    passed = False
    try:
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        for _ in range(500):
            n = int(rng.integers(2, 65))
            p = float(rng.uniform(0.03, 0.22))
            n, edges = random_graph(rng, n, p)
            g = graphmod.build_graph(n, edges)

            assert cohesive.core_numbers(g).tolist() == peel_core_numbers(n, edges)

            tn = cohesive.truss_numbers(g)
            eidx = edge_index(g)
            want = recount_truss_numbers(edges)
            assert all(tn[eidx[e]] == k for e, k in want.items())

            got = cohesive.enumerate_cliques(g, k_min=1).cliques
            assert got == plain_maximal_cliques(n, edges)

            labels, _ = graphmod.component_labels(n, g.edges)
            assert partition(labels) == partition(closure_components(n, edges))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        passed = True
    finally:
        acceptance(1, passed, "oracle equivalence on 500 random graphs")


def test_acceptance_2_pair_generation_equivalence(acceptance):
    passed = False
    try:
        start = time.perf_counter()
        config = synth.SynthConfig(
            background=3500,
            clusters=30,
            cluster_size=50,
            extent_x=8000.0,
            extent_y=8000.0,
            days=180.0,
            seed=42,
        )
        xyt = synth.generate(config)
        assert len(xyt) == 5000
        ids = np.arange(len(xyt))
        tree = spatial.build((ids, xyt))
        got = spatial.neighbor_pairs(tree, 100.0, 100.0, 10.0)
        want = double_loop_pairs(xyt, 100.0, 100.0, 10.0)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        passed = True
    finally:
        acceptance(2, passed, "R-tree pairs equal the double loop on 5000 events")


def test_acceptance_3_containment_theorems(acceptance):
    passed = False
    try:
        rng = np.random.default_rng(1003)
        for _ in range(120):
            n, edges = random_graph(rng, int(rng.integers(2, 49)), 0.2)
            g = graphmod.build_graph(n, edges)
            core = cohesive.core_numbers(g)
            tn = cohesive.truss_numbers(g)
            eidx = edge_index(g)

            # k-truss inside the (k-1)-core
            for (u, v), e in eidx.items():
                k = int(tn[e])
                if k >= 3:
                    assert core[u] >= k - 1 and core[v] >= k - 1

            # every maximal k-clique inside the k-truss
            for c in cohesive.enumerate_cliques(g, k_min=3).cliques:
                k = len(c)
                for i in range(k):
                    for j in range(i + 1, k):
                        assert tn[eidx[(c[i], c[j])]] >= k

            # level nesting for core and truss decompositions
            for result in (cohesive.k_core_decompose(g), cohesive.k_truss_decompose(g)):
                union = {
                    k: set().union(*(sg.vertices for sg in subs))
                    for k, subs in result.per_k.items()
                }
                for k in sorted(union):
                    if k + 1 in union:
                        assert union[k + 1] <= union[k]
        passed = True
    finally:
        acceptance(3, passed, "containment theorems hold on random graphs")


def test_acceptance_4_coefficient_ranges(acceptance):
    passed = False
    try:
        rng = np.random.default_rng(1004)
        cliques_seen = 0
        for _ in range(80):
            n, edges = random_graph(rng, int(rng.integers(3, 40)), 0.25)
            g = graphmod.build_graph(n, edges)
            cliq = cohesive.clique_decomposition(cohesive.enumerate_cliques(g))
            for subs in cliq.per_k.values():
                for sg in subs:
                    assert sg.coefficient == 1.0  # exact, no tolerance
                    cliques_seen += 1
            for method in ("core", "truss", "dbscan"):
                for subs in cohesive.decompose(g, method).per_k.values():
                    for sg in subs:
                        assert 0.0 <= sg.coefficient <= 1.0
        assert cliques_seen > 100
        passed = True
    finally:
        acceptance(4, passed, "clique coefficient exactly 1.0; others in [0,1]")


def test_acceptance_5_knox_conservation(acceptance):
    passed = False
    try:
        rng = np.random.default_rng(1005)
        for trial in range(25):
            n = int(rng.integers(2, 400))
            xyt = rng.random((n, 3)) * [12000.0, 12000.0, 300.0]
            if trial % 2:  # tighten half the datasets into clusters
                xyt[: n // 2] = xyt[0] + rng.normal(0, 30.0, (n // 2, 3))
            config = knox.KnoxConfig(
                distance_bins=int(rng.integers(1, 9)),
                time_bins=int(rng.integers(1, 9)),
                overflow="clamp",
            )
            table = knox.build_table(xyt, config)
            assert int(table.observed.sum()) == n * (n - 1) // 2
            expected, _ = knox.expected_and_residuals(table)
            obs = table.observed.astype(float)
            assert np.allclose(expected.sum(axis=1), obs.sum(axis=1), rtol=1e-9, atol=0)
            assert np.allclose(expected.sum(axis=0), obs.sum(axis=0), rtol=1e-9, atol=0)
        passed = True
    finally:
        acceptance(5, passed, "Knox margins conserved under clamp")


def test_acceptance_6_knox_detects_planted_cluster(acceptance):
    passed = False
    try:
        start = time.perf_counter()
        rng = np.random.default_rng(1006)
        background = rng.random((500, 3)) * [10000.0, 10000.0, 365.0]
        # 20 events pairwise within 50 m / 2 d: a 25 m disc and a 1 d window
        center = np.array([4000.0, 6000.0, 120.0])
        angle = rng.random(20) * 2 * np.pi
        radius = rng.random(20) * 25.0
        planted = np.column_stack(
            [
                center[0] + radius * np.cos(angle),
                center[1] + radius * np.sin(angle),
                center[2] + rng.random(20) * 2.0 - 1.0,
            ]
        )
        xyt = np.vstack([background, planted])
        config = knox.KnoxConfig(
            distance_step=100.0, time_step=14.0, permutations=99, seed=2026
        )
        table = knox.build_table(xyt, config)
        _, residuals = knox.expected_and_residuals(table)
        pvalues = knox.monte_carlo(xyt, table)
        assert residuals[0, 0] > 0.0
        assert pvalues[0, 0] <= 0.05
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0, f"took {elapsed:.1f}s"
        passed = True
    finally:
        acceptance(6, passed, "planted 50 m / 2 d cluster flagged in cell (0,0)")


def test_acceptance_7_determinism_across_workers(acceptance, tmp_path):
    passed = False
    try:
        def pipeline(outdir: Path, workers: int) -> None:
            outdir.mkdir(exist_ok=True)
            cli(
                [
                    "synth",
                    "--output",
                    outdir,
                    "--background",
                    250,
                    "--clusters",
                    4,
                    "--cluster-size",
                    15,
                    "--extent-x",
                    5000,
                    "--extent-y",
                    5000,
                    "--days",
                    150,
                    "--seed",
                    9,
                    "--out",
                    outdir / "raw.csv",
                ]
            )
            cli(["ingest", "--output", outdir, "--input", outdir / "raw.csv",
                 "--workers", workers])
            cli(["pairs", "--output", outdir, "--binary", "--workers", workers])
            cli(["stats", "--output", outdir, "--workers", workers])
            cli(["decompose", "--output", outdir, "--workers", workers])
            cli(["knox", "--output", outdir, "--permutations", 19,
                 "--workers", workers])
            cli(["report", "--output", outdir, "--workers", workers])

        runs = {
            "w1": 1,
            "w1_rerun": 1,
            "w4": 4,
            "w8": 8,
        }
        for name, workers in runs.items():
            pipeline(tmp_path / name, workers)

        baseline = tmp_path / "w1"
        names = sorted(p.name for p in baseline.iterdir())
        assert "report.json" in names
        for other in ("w1_rerun", "w4", "w8"):
            other_dir = tmp_path / other
            assert sorted(p.name for p in other_dir.iterdir()) == names
            for fname in names:
                assert (baseline / fname).read_bytes() == (
                    other_dir / fname
                ).read_bytes(), (other, fname)
        passed = True
    finally:
        acceptance(7, passed, "byte-identical outputs for reruns and workers 1/4/8")


def test_acceptance_8_micro_example_pins(acceptance):
    passed = False
    try:
        g = graphmod.build_graph(FIG_N, FIG_EDGES)
        assert g.degrees[1] == 5
        assert g.degrees[5] == 2

        sup = np.bincount(graphmod.triangles(g)[1].ravel(), minlength=g.m)
        eidx = edge_index(g)
        assert sup[eidx[(1, 2)]] == 3
        assert sup[eidx[(2, 7)]] == 1

        cliques = cohesive.enumerate_cliques(g).cliques
        assert (0, 1, 3, 4) in cliques

        (cluster,) = cohesive.k_dbscan(g).per_k[3]
        assert cluster.vertices == tuple(range(FIG_N))
        passed = True
    finally:
        acceptance(8, passed, "micro example degrees, supports, clique, cluster")


def test_acceptance_9_performance_envelope(acceptance, tmp_path):
    passed = False
    try:
        cli(
            [
                "synth",
                "--output",
                tmp_path,
                "--background",
                86500,
                "--clusters",
                300,
                "--cluster-size",
                45,
                "--extent-x",
                30000,
                "--extent-y",
                30000,
                "--days",
                720,
                "--sigma-xy",
                60,
                "--sigma-t",
                3,
                "--seed",
                99,
                "--out",
                tmp_path / "raw.csv",
            ]
        )
        start = time.perf_counter()
        cli(["ingest", "--output", tmp_path, "--input", tmp_path / "raw.csv"])
        cli(["pairs", "--output", tmp_path])
        cli(["decompose", "--output", tmp_path, "--methods", "core,truss,dbscan"])
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"

        summary = json.loads((tmp_path / "ingest_summary.json").read_text())
        assert summary["events"] > 99000

        # clique enumeration on the full graph honors max_count
        edges = graphmod.read_edge_list(tmp_path / "edges.txt")
        g = graphmod.build_graph(summary["events"], edges)
        cs = cohesive.enumerate_cliques(g, max_count=50)
        assert cs.truncated is True
        assert len(cs.cliques) <= 50
        passed = True
    finally:
        acceptance(9, passed, "100k-event pipeline under budget; truncation safe")
