"""Stage-order state machine: the CLI stages run in any order over one raw CSV.

Hypothesis draws a small raw CSV on a lattice (10 m and whole days, so some
pairs sit exactly at the pair limits and Knox bin edges) and then runs
``ingest``, ``pairs``, ``stats``, ``decompose``, ``knox`` and ``report`` in any
order against one output directory.  Every run exits 0, or exits 1 with
exactly one ``error:`` line.  After exit 0 the stage's artifacts agree with a
model of the events: double-loop pairs, networkx components, k-cores and
k-trusses, and the dense Knox table.

The model follows the stale-output checks as they stand: a graph stage
refuses an edge list paired over a different number of events, and the
report refuses summaries whose event or component counts disagree.  A
re-ingest that keeps the event count is not detected, so the graph stages
are checked against the events the last ``pairs`` run saw.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import tempfile
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import networkx as nx
import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from nearchain.cli import main
from oracles import dense_knox_table, double_loop_pairs
from test_properties import nx_graph

STEP = 10.0  # lattice spacing, meters
EPOCH = datetime(2020, 1, 1)
CATEGORIES = ("burglary", "theft")

lattice_rows = st.lists(
    st.tuples(
        st.integers(0, 8), st.integers(0, 8), st.integers(0, 10), st.sampled_from(CATEGORIES)
    ),
    min_size=1,
    max_size=60,
)


@st.composite
def bounds(draw, top: int):
    """An optional (min, max) pair of lattice values, min < max when both are set."""
    lo = draw(st.none() | st.integers(0, top))
    hi = draw(st.none() | st.integers(0, top))
    if lo is not None and hi is not None:
        lo, hi = min(lo, hi), max(lo, hi, min(lo, hi) + 1)
    return lo, hi


whole = st.just((None, None))


@dataclass
class Paired:
    """What the last successful ``pairs`` run saw and wrote."""

    xyt: np.ndarray
    edges: list[tuple[int, int]]
    components: int


def component_sets(graph: nx.Graph) -> list[list[int]]:
    return sorted((sorted(c) for c in nx.connected_components(graph)), key=min)


class StageOrder(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="stage-order-"))
        self.out = self.root / "out"
        self.events: np.ndarray | None = None  # (n, 3) rows of the last ingest
        self.paired: Paired | None = None
        self.stats_components: int | None = None
        self.knox_meta: dict | None = None
        self.decomposed: set[str] = set()

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def run(self, *args) -> tuple[int, str]:
        """Run one command in-process; exit 1 must leave exactly one error line."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([str(a) for a in (*args, "--output", self.out, "--workers", 2)])
        text = err.getvalue()
        assert code in (0, 1), (args, code, text)
        errors = [line for line in text.splitlines() if line.startswith("error:")]
        assert len(errors) == (code == 1), (args, text)
        assert "Traceback" not in text, text
        return code, text

    def read_json(self, name: str) -> dict:
        return json.loads((self.out / name).read_text())

    def graph_refusal(self) -> str | None:
        """Why a graph stage must fail now, or None when it must succeed."""
        if self.events is None or self.paired is None:
            return "missing output"
        if len(self.events) != len(self.paired.xyt):
            return "stale output of stage 'pairs'"
        return None

    # --------------------------------------------------------------- rules

    @initialize(
        rows=lattice_rows,
        start=st.sampled_from(["paired", "paired", "ingested", "raw"]),
    )
    def raw_csv(self, rows, start) -> None:
        """Write the raw CSV; mostly ingest it whole, and pair it, to start deeper."""
        self.raw = self.root / "raw.csv"
        with open(self.raw, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["x", "y", "time", "category"])
            for i, j, day, category in rows:
                stamp = (EPOCH + timedelta(days=day)).strftime("%Y-%m-%d %H:%M:%S")
                w.writerow([i * STEP, j * STEP, stamp, category])
        if start != "raw":
            self.ingest(x=(None, None), y=(None, None), t=(None, None), categories=None)
        if start == "paired":
            self.pairs(r_x=2 * STEP, r_y=2 * STEP, r_t=2.0, binary=False)

    @rule(
        x=whole | bounds(80),
        y=whole | bounds(80),
        t=whole | bounds(10),
        categories=st.none() | st.sampled_from([*CATEGORIES, ",".join(CATEGORIES)]),
    )
    def ingest(self, x, y, t, categories) -> None:
        flags = [] if categories is None else ["--categories", categories]
        for axis, (lo, hi) in zip("xyt", (x, y, t)):
            if lo is not None:
                flags += [f"--{axis}-min", lo]
            if hi is not None:
                flags += [f"--{axis}-max", hi]
        code, text = self.run("ingest", "--input", self.raw, *flags)
        assert code == 0, text
        with open(self.out / "events.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["id"]) for r in rows] == list(range(len(rows)))
        if categories is not None:
            assert {r["category"] for r in rows} <= set(categories.split(","))
        self.events = np.array(
            [[float(r["x"]), float(r["y"]), float(r["t"])] for r in rows]
        ).reshape(-1, 3)
        assert self.read_json("ingest_summary.json")["events"] == len(rows)

    @rule(
        r_x=st.sampled_from([STEP, 2 * STEP, 3 * STEP]),
        r_y=st.sampled_from([STEP, 2 * STEP, 3 * STEP]),
        r_t=st.sampled_from([1.0, 2.0, 3.0]),
        binary=st.booleans(),
    )
    def pairs(self, r_x, r_y, r_t, binary) -> None:
        args = ["pairs", "--r-x", r_x, "--r-y", r_y, "--r-t", r_t]
        code, text = self.run(*args, *(["--binary"] if binary else []))
        if self.events is None or not len(self.events):
            assert code == 1, text
            return
        assert code == 0, text
        want = double_loop_pairs(self.events, r_x, r_y, r_t).tolist()
        got = [list(map(int, line.split())) for line in (self.out / "edges.txt").open()]
        assert got == want
        if binary:
            data = (self.out / "pairs.bin").read_bytes()
            assert int.from_bytes(data[:8], "little") == len(want)
            assert np.frombuffer(data[8:], dtype="<u4").reshape(-1, 2).tolist() == want
        n = len(self.events)
        components = nx.number_connected_components(nx_graph(n, want))
        summary = self.read_json("pairs_summary.json")
        assert (summary["events"], summary["edges"], summary["components"]) == (
            n,
            len(want),
            components,
        )
        self.paired = Paired(self.events, [tuple(e) for e in want], components)

    @rule()
    def stats(self) -> None:
        code, text = self.run("stats")
        if refusal := self.graph_refusal():
            assert code == 1 and refusal in text, text
            return
        assert code == 0, text
        ref = nx_graph(len(self.paired.xyt), self.paired.edges)
        stats = self.read_json("graph_stats.json")
        rows = [(r["vertices"], r["edges"]) for r in stats["component_stats"]]
        want = [(len(c), ref.subgraph(c).number_of_edges()) for c in component_sets(ref)]
        assert rows == want
        assert stats["components"] == len(want) == self.paired.components
        self.stats_components = stats["components"]

    @rule(
        methods=st.lists(
            st.sampled_from(["core", "truss", "dbscan", "clique"]), min_size=1, unique=True
        ),
        k_min=st.integers(1, 4),
        members=st.booleans(),
    )
    def decompose(self, methods, k_min, members) -> None:
        args = ["decompose", "--methods", ",".join(methods), "--k-min", k_min]
        code, text = self.run(*args, *(["--members"] if members else []))
        if refusal := self.graph_refusal():
            assert code == 1 and refusal in text, text
            return
        assert code == 0, text
        self.decomposed |= set(methods)
        ref = nx_graph(len(self.paired.xyt), self.paired.edges)
        levels_of = {"core": nx.k_core, "truss": nx.k_truss}
        for method in set(methods) & set(levels_of):
            want = {}
            k = k_min
            while (sub := levels_of[method](ref, k)).number_of_nodes():
                want[str(k)] = component_sets(sub)
                k += 1
            levels = self.read_json(f"decompose_{method}.json")["levels"]
            assert {k: lvl["count"] for k, lvl in levels.items()} == {
                k: len(comps) for k, comps in want.items()
            }, method
            if members:
                got = {k: [s["vertices"] for s in lvl["subgraphs"]] for k, lvl in levels.items()}
                assert got == want, method

    @rule(
        distance_step=st.sampled_from([STEP, 2.5 * STEP]),
        time_step=st.sampled_from([1.0, 2.0]),
        distance_bins=st.integers(1, 4),
        time_bins=st.integers(1, 4),
        permutations=st.integers(0, 3),
        overflow=st.sampled_from(["clamp", "drop"]),
    )
    def knox(self, distance_step, time_step, distance_bins, time_bins, permutations, overflow):
        code, text = self.run(
            "knox",
            *("--distance-step", distance_step, "--time-step", time_step),
            *("--distance-bins", distance_bins, "--time-bins", time_bins),
            *("--permutations", permutations, "--overflow", overflow),
        )
        if self.events is None or len(self.events) < 2:
            assert code == 1, text
            return
        assert code == 0, text
        want = dense_knox_table(
            self.events, distance_step, time_step, distance_bins, time_bins, overflow
        )
        with open(self.out / "observed.csv", newline="") as fh:
            got = [[int(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]]
        assert got == want.tolist()
        meta = self.read_json("knox_meta.json")
        n = len(self.events)
        assert (meta["events"], meta["permutations"]) == (n, permutations)
        assert meta["binned_pairs"] + meta["dropped_pairs"] == n * (n - 1) // 2
        assert (self.out / "pvalues.csv").exists() == (permutations > 0)
        self.knox_meta = meta

    @rule()
    def report(self) -> None:
        code, text = self.run("report")
        refusal = self.graph_refusal()
        if refusal is None and self.stats_components not in (None, self.paired.components):
            refusal = "stale output of stage 'stats'"
        if refusal is None and self.knox_meta and self.knox_meta["events"] != len(self.events):
            refusal = "stale output of stage 'knox'"
        if refusal:
            assert code == 1 and refusal in text, text
            return
        assert code == 0, text
        report = self.read_json("report.json")
        assert report["dataset"]["events"] == len(self.events)
        assert report["graph"]["edges"] == len(self.paired.edges)
        assert sorted(report.get("decompose", {})) == sorted(self.decomposed)
        assert ("component_stats" in report["graph"]) == (self.stats_components is not None)
        assert ("knox" in report) == (self.knox_meta is not None)
        if self.knox_meta:
            highlights = report["knox"]["highlights"]
            assert highlights["cells"] == (
                self.knox_meta["distance_bins"] * self.knox_meta["time_bins"]
            )
            assert ("min_pvalue" in highlights) == (self.knox_meta["permutations"] > 0)


StageOrder.TestCase.settings = settings(
    max_examples=100, stateful_step_count=20, deadline=None
)
TestStageOrder = StageOrder.TestCase
