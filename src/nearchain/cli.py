"""Command-line pipeline: ingest, pairs, stats, decompose, knox, report, synth.

Stages hand off through files in the output directory (cleaned events CSV,
edge list, JSON summaries), so each phase can be run, timed, and tested on
its own.  Diagnostics and timings go to stderr; data goes to files.  With a
fixed seed, every stage's outputs are byte-identical across reruns and
worker counts.

Each command imports the compute modules it runs (and numpy with them) inside
its own body, so ``--help`` and argument errors load only the standard
library, ``common`` and ``config``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .common import SCHEMA_VERSION, MarginError
from .config import (
    ALL_METHODS,
    PipelineConfig,
    RangeWindow,
    load_config,
    override,
)

if TYPE_CHECKING:
    import numpy as np

    from .cohesive import DecompositionResult


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _timed(label: str, func):
    start = time.perf_counter()
    out = func()
    _say(f"timing {label} {time.perf_counter() - start:.3f}s")
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _events_path(cfg: PipelineConfig, args) -> Path:
    path = Path(args.events) if getattr(args, "events", None) else cfg.outdir / "events.csv"
    if not path.exists():
        raise ValueError(f"missing output of stage 'ingest': {path.name}")
    return path


def _load_events(cfg: PipelineConfig, args) -> tuple[np.ndarray, np.ndarray]:
    """The cleaned events as ``(ids, xyt)``: ids of shape (n,), xyt of shape (n, 3)."""
    import numpy as np

    from . import events as eventsmod

    events = eventsmod.read_events_csv(_events_path(cfg, args))
    ids = np.array([e.id for e in events], dtype=np.int64)
    xyt = np.array([(e.x, e.y, e.t) for e in events], dtype=np.float64).reshape(-1, 3)
    return ids, xyt


def _count_events(cfg: PipelineConfig, args) -> int:
    """Data rows of the cleaned events CSV, without parsing them into events."""
    with open(_events_path(cfg, args), newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows, None)  # header
        return sum(1 for row in rows if row)


def _stale(stage: str, detail: str) -> ValueError:
    return ValueError(f"stale output of stage '{stage}': {detail} (rerun {stage})")


def _load_graph(cfg: PipelineConfig, args):
    from . import graph as graphmod

    n = _timed("load", lambda: _count_events(cfg, args))
    edges_path = Path(args.edges) if args.edges else cfg.outdir / "edges.txt"
    if not edges_path.exists():
        raise ValueError(f"missing output of stage 'pairs': {edges_path.name}")
    summary_path = cfg.outdir / "pairs_summary.json"
    if not (args.events or args.edges) and summary_path.exists():
        paired = _read_json(summary_path)["events"]
        if paired != n:
            raise _stale("pairs", f"pairs_summary.json has {paired} events, events.csv has {n}")
    edges = graphmod.read_edge_list(edges_path)
    return _timed("build", lambda: graphmod.build_graph(n, edges))


# ----------------------------------------------------------------- commands


def cmd_ingest(cfg: PipelineConfig, args) -> int:
    from . import events as eventsmod

    icfg = cfg.ingest
    window = icfg.window
    bounds = (args.x_min, args.x_max, args.y_min, args.y_max, args.t_min, args.t_max)
    if any(b is not None for b in bounds):
        window = RangeWindow(
            x=(
                bounds[0] if bounds[0] is not None else window.x[0],
                bounds[1] if bounds[1] is not None else window.x[1],
            ),
            y=(
                bounds[2] if bounds[2] is not None else window.y[0],
                bounds[3] if bounds[3] is not None else window.y[1],
            ),
            t=(
                bounds[4] if bounds[4] is not None else window.t[0],
                bounds[5] if bounds[5] is not None else window.t[1],
            ),
        )
    zone = args.utm_zone
    if zone is not None and zone != "auto":
        zone = int(zone)
    icfg = override(
        icfg,
        coordinate_mode=args.coordinate_mode,
        utm_zone=zone,
        time_format=args.time_format,
        window=window,
        category_filter=(
            frozenset(s.strip() for s in args.categories.split(",") if s.strip())
            if args.categories
            else None
        )
        if args.categories is not None
        else None,
    )
    input_path = args.input or cfg.input
    if not input_path:
        raise ValueError("no input CSV given: pass --input or set [ingest] input")
    result = _timed("ingest", lambda: eventsmod.ingest_events(input_path, icfg))
    outdir = cfg.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    eventsmod.write_events_csv(result.events, outdir / "events.csv")
    eventsmod.write_rejects_csv(result.rejects, outdir / "rejects.csv")
    _write_json(outdir / "ingest_summary.json", result.summary)
    if result.summary["warn_high_reject"]:
        _say("warning: more than half of the input lines were rejected")
    _say(
        f"ingest: {result.summary['events']} events"
        f" ({result.summary['duplicates_removed']} duplicates merged,"
        f" {result.summary['rejected']['total']} rejected)"
    )
    return 0


def cmd_pairs(cfg: PipelineConfig, args) -> int:
    from . import graph as graphmod, spatial

    r = override(
        cfg.pairs, r_x=args.r_x, r_y=args.r_y, r_t=args.r_t
    )
    r.validate()
    ids, xyt = _timed("load", lambda: _load_events(cfg, args))
    if not len(ids):
        raise ValueError("no events to pair: the cleaned events file is empty")
    tree = _timed("index", lambda: spatial.build((ids, xyt)))
    pairs = _timed("pairs", lambda: spatial.neighbor_pairs(tree, r.r_x, r.r_y, r.r_t))
    _, components = graphmod.component_labels(len(ids), pairs)
    outdir = cfg.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    graphmod.write_edge_list(pairs, outdir / "edges.txt")
    if args.binary:
        spatial.write_pairs_bin(outdir / "pairs.bin", pairs)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "events": len(ids),
        "vertices": len(ids),
        "edges": len(pairs),
        "components": components,
        "r_x": r.r_x,
        "r_y": r.r_y,
        "r_t": r.r_t,
    }
    _write_json(outdir / "pairs_summary.json", summary)
    _say(f"pairs: {len(pairs)} edges over {len(ids)} vertices in {components} components")
    return 0


def cmd_stats(cfg: PipelineConfig, args) -> int:
    from . import graph as graphmod

    g = _load_graph(cfg, args)
    stats = _timed("stats", lambda: graphmod.graph_stats(g))
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.outdir / "graph_stats.json", stats)
    _say(f"stats: {stats['components']} components analyzed")
    return 0


def _decomposition_report(result: DecompositionResult, members: bool) -> dict:
    levels = {}
    for k, subs in sorted(result.per_k.items()):
        hist: dict[int, int] = {}
        for sg in subs:
            size = len(sg.vertices)
            hist[size] = hist.get(size, 0) + 1
        mean = sum(sg.coefficient for sg in subs) / len(subs) if subs else 0.0
        entry = {
            "count": len(subs),
            "size_histogram": {str(s): c for s, c in sorted(hist.items())},
            "mean_coefficient": mean,
        }
        if members:
            entry["subgraphs"] = [
                {
                    "vertices": [int(v) for v in sg.vertices],
                    "edges": sg.n_edges,
                    "coefficient": sg.coefficient,
                }
                for sg in subs
            ]
        levels[str(k)] = entry
    return {
        "schema_version": SCHEMA_VERSION,
        "method": result.method,
        "k_min": result.k_min,
        "truncated": result.truncated,
        "levels": levels,
    }


def cmd_decompose(cfg: PipelineConfig, args) -> int:
    from . import cohesive

    dcfg = override(
        cfg.decompose,
        methods=tuple(s.strip() for s in args.methods.split(",") if s.strip())
        if args.methods
        else None,
        k_min=args.k_min,
        max_cliques=args.max_cliques,
        members=True if args.members else None,
    )
    dcfg.validate()
    g = _load_graph(cfg, args)
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    for method in dcfg.methods:
        result = _timed(
            method,
            lambda m=method: cohesive.decompose(
                g, m, k_min=dcfg.k_min, max_count=dcfg.max_cliques
            ),
        )
        if result.truncated:
            _say(f"warning: {method} enumeration truncated at {dcfg.max_cliques}")
        report = _decomposition_report(result, dcfg.members)
        _write_json(cfg.outdir / f"decompose_{method}.json", report)
        _say(f"decompose {method}: k levels {sorted(result.per_k) or 'none'}")
    return 0


def cmd_knox(cfg: PipelineConfig, args) -> int:
    from . import knox as knoxmod

    kcfg = override(
        cfg.knox,
        distance_step=args.distance_step,
        time_step=args.time_step,
        distance_bins=args.distance_bins,
        time_bins=args.time_bins,
        permutations=args.permutations,
        seed=args.seed,
        overflow=args.overflow,
    )
    kcfg.validate()
    _, xyt = _timed("load", lambda: _load_events(cfg, args))
    table = _timed("table", lambda: knoxmod.build_table(xyt, kcfg))
    expected, residuals = knoxmod.expected_and_residuals(table)
    pvalues = None
    if table.config.permutations > 0:
        pvalues = _timed(
            "permutations",
            lambda: knoxmod.monte_carlo(xyt, table, workers=cfg.effective_workers()),
        )
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    knoxmod.emit_heatmap(cfg.outdir, table, expected, residuals, pvalues)
    _say(
        f"knox: {table.config.distance_bins}x{table.config.time_bins} table"
        f" over {table.observed.sum()} binned pairs"
    )
    return 0


def _knox_highlights(outdir: Path, meta: dict) -> dict:
    from . import knox as knoxmod

    observed = knoxmod.load_grid(outdir / "observed.csv")
    expected = knoxmod.load_grid(outdir / "expected.csv")
    residuals = knoxmod.load_grid(outdir / "residuals.csv")
    pvalues_path = outdir / "pvalues.csv"
    pvalues = knoxmod.load_grid(pvalues_path) if pvalues_path.exists() else None
    cell = {
        "observed": int(observed[0, 0]),
        "expected": float(expected[0, 0]),
        "residual": float(residuals[0, 0]),
    }
    highlights = {"cells": int(observed.size), "cell_00": cell}
    if pvalues is not None:
        cell["pvalue"] = float(pvalues[0, 0])
        flat = int(pvalues.argmin())
        highlights["min_pvalue"] = float(pvalues.flat[flat])
        highlights["min_pvalue_cell"] = [
            flat // pvalues.shape[1],
            flat % pvalues.shape[1],
        ]
        highlights["significant_cells"] = int((pvalues <= 0.05).sum())
    return highlights


def cmd_report(cfg: PipelineConfig, args) -> int:
    outdir = cfg.outdir

    def need(stage: str, name: str) -> dict:
        path = outdir / name
        if not path.exists():
            raise ValueError(f"missing output of stage '{stage}': {name}")
        return _read_json(path)

    report = {
        "schema_version": SCHEMA_VERSION,
        "dataset": need("ingest", "ingest_summary.json"),
        "graph": need("pairs", "pairs_summary.json"),
    }
    events, paired = report["dataset"]["events"], report["graph"]["events"]
    if events != paired:
        raise _stale(
            "pairs", f"pairs_summary.json has {paired} events, ingest_summary.json has {events}"
        )
    stats_path = outdir / "graph_stats.json"
    if stats_path.exists():
        rows = _read_json(stats_path)["component_stats"]
        components = report["graph"]["components"]
        if len(rows) != components:
            raise _stale(
                "stats",
                f"graph_stats.json has {len(rows)} components,"
                f" pairs_summary.json has {components}",
            )
        report["graph"] = {**report["graph"], "component_stats": rows}
    decompose = {}
    for method in ALL_METHODS:
        path = outdir / f"decompose_{method}.json"
        if not path.exists():
            continue
        data = _read_json(path)
        decompose[method] = {
            "k_min": data["k_min"],
            "truncated": data["truncated"],
            "levels": {
                k: {
                    "count": lvl["count"],
                    "size_histogram": lvl["size_histogram"],
                    "mean_coefficient": lvl["mean_coefficient"],
                }
                for k, lvl in data["levels"].items()
            },
        }
    if decompose:
        report["decompose"] = decompose
    meta_path = outdir / "knox_meta.json"
    if meta_path.exists():
        meta = _read_json(meta_path)
        if meta["events"] != events:
            raise _stale(
                "knox",
                f"knox_meta.json has {meta['events']} events, ingest_summary.json has {events}",
            )
        report["knox"] = {**meta, "highlights": _knox_highlights(outdir, meta)}
    _write_json(outdir / "report.json", report)
    _say("report: wrote report.json")
    return 0


def cmd_synth(cfg: PipelineConfig, args) -> int:
    from . import synth as synthmod

    scfg = synthmod.SynthConfig(
        background=args.background,
        clusters=args.clusters,
        cluster_size=args.cluster_size,
        extent_x=args.extent_x,
        extent_y=args.extent_y,
        days=args.days,
        sigma_xy=args.sigma_xy,
        sigma_t=args.sigma_t,
        category=args.category,
        seed=args.seed,
    )
    out = Path(args.out) if args.out else cfg.outdir / "synthetic.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    n = synthmod.write_raw_csv(out, synthmod.generate(scfg), scfg.category)
    _say(f"synth: wrote {n} rows to {out.name}")
    return 0


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("-c", "--config", help="INI config file")
    shared.add_argument("--output", help="output directory")
    shared.add_argument(
        "--workers",
        type=int,
        help="threads for knox (0 = CPU count); pairs, stats and decompose are single-threaded",
    )

    parser = argparse.ArgumentParser(
        prog="nearchain",
        description="Near-repeat event chain detection pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[shared], help="clean and project raw events")
    p.add_argument("--input", help="raw CSV path")
    p.add_argument("--coordinate-mode", choices=("planar", "geographic"))
    p.add_argument("--utm-zone", help="1..60 or 'auto'")
    p.add_argument("--time-format", help="strptime format for the time column")
    p.add_argument("--categories", help="comma-separated category filter")
    for axis in ("x", "y", "t"):
        p.add_argument(f"--{axis}-min", type=float, dest=f"{axis}_min")
        p.add_argument(f"--{axis}-max", type=float, dest=f"{axis}_max")

    p = sub.add_parser("pairs", parents=[shared], help="generate near-repeat pairs")
    p.add_argument("--events", help="cleaned events CSV (default: <output>/events.csv)")
    p.add_argument("--r-x", type=float, dest="r_x", help="x half-extent, meters")
    p.add_argument("--r-y", type=float, dest="r_y", help="y half-extent, meters")
    p.add_argument("--r-t", type=float, dest="r_t", help="time half-extent, days")
    p.add_argument("--binary", action="store_true", help="also write pairs.bin")

    p = sub.add_parser("stats", parents=[shared], help="graph structure statistics")
    p.add_argument("--events", help="cleaned events CSV")
    p.add_argument("--edges", help="edge list (default: <output>/edges.txt)")

    p = sub.add_parser("decompose", parents=[shared], help="cohesive subgraph detectors")
    p.add_argument("--events", help="cleaned events CSV")
    p.add_argument("--edges", help="edge list (default: <output>/edges.txt)")
    p.add_argument("--methods", help=f"comma-separated subset of {','.join(ALL_METHODS)}")
    p.add_argument("--k-min", type=int, dest="k_min")
    p.add_argument("--max-cliques", type=int, dest="max_cliques")
    p.add_argument("--members", action="store_true", help="include member ids in reports")

    p = sub.add_parser("knox", parents=[shared], help="Knox space-time test")
    p.add_argument("--events", help="cleaned events CSV")
    p.add_argument("--distance-step", type=float, dest="distance_step")
    p.add_argument("--time-step", type=float, dest="time_step")
    p.add_argument("--distance-bins", type=int, dest="distance_bins")
    p.add_argument("--time-bins", type=int, dest="time_bins")
    p.add_argument("--permutations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--overflow", choices=("clamp", "drop"))

    sub.add_parser("report", parents=[shared], help="consolidate stage outputs")

    p = sub.add_parser("synth", parents=[shared], help="generate a synthetic dataset")
    p.add_argument("--background", type=int, default=1000)
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--cluster-size", type=int, dest="cluster_size", default=20)
    p.add_argument("--extent-x", type=float, dest="extent_x", default=10_000.0)
    p.add_argument("--extent-y", type=float, dest="extent_y", default=10_000.0)
    p.add_argument("--days", type=float, default=365.0)
    p.add_argument("--sigma-xy", type=float, dest="sigma_xy", default=30.0)
    p.add_argument("--sigma-t", type=float, dest="sigma_t", default=2.0)
    p.add_argument("--category", default="synthetic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output CSV (default: <output>/synthetic.csv)")
    return parser


COMMANDS = {
    "ingest": cmd_ingest,
    "pairs": cmd_pairs,
    "stats": cmd_stats,
    "decompose": cmd_decompose,
    "knox": cmd_knox,
    "report": cmd_report,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.output:
            cfg.output = args.output
        if args.workers is not None:
            cfg.workers = args.workers
        return COMMANDS[args.command](cfg, args)
    except (ValueError, OSError, MarginError, MemoryError) as exc:
        _say(f"error: {str(exc) or type(exc).__name__}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
