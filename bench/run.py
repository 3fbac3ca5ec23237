#!/usr/bin/env python3
"""nearchain pipeline benchmark: generated inputs, timed CLI stages, checked outputs.

Run from the root of a nearchain checkout::

    python3 bench/run.py --workload city-sparse --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run is one process and one workload.  It generates the workload's CSV
from ``--seed``, times fresh interpreters importing the package (set-up),
then runs the workload's stages back to back by calling
``nearchain.cli.main`` in-process, one client and one stage at a time, with
``--workers 2``.  It repeats that pass while another fits in ``--seconds``
(at least once) and reports medians over passes.  After timing, every pass's
outputs are checked by ``oracles.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
untraced pass and one traced pass and reports per-layer metrics from the
spans plus the tracing overhead; the spans are written to
``.bench_work/spans/`` at exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
stage invocations; ``failed`` counts those that returned non-zero or whose
output failed a check.  The exit code is 0 only when nothing failed.
``--workload all`` runs every workload ``ALL_RUNS`` times, each in its own
process with seeds ``seed, seed+1, ...``, and prints medians, quartiles and
sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# Set-up is sampled before the first pass and again after each pass, so its
# median spans the whole run instead of one moment of a host that drifts.
SETUP_SAMPLES = 3
ALL_RUNS = 10  # runs per workload with ``--workload all``
CHAIN_STAGES = ("ingest", "pairs", "decompose")
WORK_DIR = ".bench_work"


class SetupError(Exception):
    """The checkout cannot run the benchmark: nothing is measured."""


# ------------------------------------------------------------------ helpers


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_spec(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"no BENCHMARK.json in {root}")
    with open(path) as fh:
        return json.load(fh)


def source_dir(root: Path) -> Path:
    src = (root / "src").resolve()
    if not (src / "nearchain" / "__init__.py").is_file():
        raise SetupError(f"no nearchain package under {src}")
    return src


def import_package(src: Path):
    """Import ``nearchain`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(src))
    import nearchain
    import nearchain.cli

    if not Path(nearchain.__file__).resolve().is_relative_to(src):
        raise SetupError(f"imported nearchain from {nearchain.__file__}, not {src}")
    return nearchain


def measure_setup(root: Path, src: Path) -> list[float]:
    """Wall time of fresh interpreters importing ``nearchain`` and its CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import nearchain, nearchain.cli"],
            cwd=root,
            env=env,
            capture_output=True,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"importing nearchain failed: {proc.stderr.decode()[-500:]}")
    return times


def digests(outdir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.is_file()
    }


# ------------------------------------------------------------------- passes


class Pass:
    """One back-to-back run of a workload's stages."""

    def __init__(self, index: int, outdir: Path) -> None:
        self.index = index
        self.outdir = outdir
        self.stage_s: dict[str, float] = {}
        self.rc: dict[str, int] = {}
        self.wall_s = 0.0


def run_pass(cli_main, workload: wl.Workload, raw: Path, p: Pass, tracer=None) -> None:
    p.outdir.mkdir(parents=True)
    gc.collect()
    with open(p.outdir.parent / f"pass{p.index}.log", "w") as log, contextlib.redirect_stderr(log):
        start = time.perf_counter()
        for stage in workload.stages:
            name = stage[0]
            argv = [name, "--output", str(p.outdir), "--workers", str(wl.WORKERS), *stage[1:]]
            if name == "ingest":
                argv += ["--input", str(raw)]
            t0 = time.perf_counter()
            try:
                rc = tracer.call(f"cli.{name}", cli_main, argv) if tracer else cli_main(argv)
            except (Exception, SystemExit):  # a crashed stage is a failed stage
                traceback.print_exc()
                rc = -1
            p.stage_s[name] = time.perf_counter() - t0
            p.rc[name] = rc
        p.wall_s = time.perf_counter() - start


def failed_stages(passes: list[Pass], checker) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over all stage invocations of all passes."""
    first = passes[0]
    check_fails = checker.run(first.outdir)
    bad_checked = {stage for stage, _ in check_fails}
    messages = [f"pass 0 {stage}: {msg}" for stage, msg in check_fails]
    reference = digests(first.outdir)
    attempted = failed = 0
    for p in passes:
        bad = set(bad_checked)
        bad |= {stage for stage, rc in p.rc.items() if rc != 0}
        if p is not first:
            mine = digests(p.outdir)
            for name in set(reference) | set(mine):
                if reference.get(name) != mine.get(name):
                    stage = oracles.PRODUCER.get(name, "report")
                    bad.add(stage)
                    messages.append(f"pass {p.index} {stage}: {name} differs from pass 0")
        for stage, rc in p.rc.items():
            if rc != 0:
                messages.append(f"pass {p.index} {stage}: exit code {rc}")
        attempted += len(p.rc)
        failed += len(bad & set(p.rc))
    return attempted, failed, messages


# --------------------------------------------------------------- single run


def print_metric(name: str, unit: str, values: list[float], note: str = "") -> None:
    q1, med, q3 = quartiles(values)
    print(
        f"  {name:32s} {med:14.6f} {unit:6s} q1 {q1:.6f} q3 {q3:.6f} n {len(values)}{note}"
    )


def single_run(args, root: Path) -> int:
    spec = load_spec(root)
    workload = wl.WORKLOADS[args.workload]
    src = source_dir(root)
    setup = measure_setup(root, src)
    import_package(src)
    from nearchain import cli, cohesive, events, graph, knox, projection, spatial

    work = root / WORK_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        raw = work / "raw.csv"
        expected = wl.generate(workload, args.seed, raw)
        print(
            f"workload {workload.name} seed {args.seed}: {expected.rows} rows,"
            f" {expected.events} events; nproc {os.cpu_count()}, python"
            f" {platform.python_version()}, numpy {np.__version__}, workers {wl.WORKERS}"
        )
        passes: list[Pass] = []
        tracer = None
        if args.trace:
            passes.append(Pass(0, work / "pass0"))
            run_pass(cli.main, workload, raw, passes[0])
            tracer = tracing.Tracer(run_id=1)
            layers = (events, projection, spatial, graph, cohesive, knox)
            hooks = tracing.Instrumented(tracer, {m.__name__.split(".")[-1]: m for m in layers})
            try:
                passes.append(Pass(1, work / "pass1"))
                run_pass(cli.main, workload, raw, passes[1], tracer)
            finally:
                hooks.restore()
        else:
            measured = longest = 0.0
            while True:
                p = Pass(len(passes), work / f"pass{len(passes)}")
                run_pass(cli.main, workload, raw, p)
                passes.append(p)
                setup += measure_setup(root, src)
                measured += p.wall_s
                longest = max(longest, p.wall_s)
                if measured + longest > args.seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checker = oracles.Checker(workload, expected, src / "nearchain/schemas/report.schema.json")
        attempted, failed, messages = failed_stages(passes, checker)
        for msg in messages:
            print(f"FAIL {msg}")
        print(f"error_rate {failed / attempted:.6f} ratio ({failed} of {attempted} stage invocations)")

        if args.trace:
            untraced, traced = passes
            layer = tracing.layer_metrics(tracer)
            layer["trace.wall_s"] = traced.wall_s
            layer["trace.untraced_wall_s"] = untraced.wall_s
            layer["trace.overhead_s"] = traced.wall_s - untraced.wall_s
            layer["trace.uncovered_s"] = traced.wall_s - sum(
                layer[f"cli.{s}_s"] for s in tracing.STAGES
            )
            print("per-layer metrics of the traced pass (computed counts marked *):")
            for name, value in layer.items():
                star = " *" if name in tracing.COMPUTED else ""
                print(f"  {name:32s} {value:16.6f}{star}")
            dump_spans(root, workload, args.seed, tracer, layer)
            chosen = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = {k: {"value": float(layer[k]), "unit": u} for k, u in chosen.items()}
        else:
            values = {
                "setup_s": setup,
                "wall_s": [p.wall_s for p in passes],
                "peak_rss_mb": [peak_rss_mb],
            }
            chosen = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            print("end-to-end metrics (median over samples in this run):")
            for name, unit in chosen.items():
                print_metric(name, unit, values[name])
            stages = workload.stage_names()
            if "decompose" in stages:
                chains = [sum(p.stage_s[s] for s in CHAIN_STAGES) for p in passes]
                print_metric("chains_s", "s", chains, "  (ingest + pairs + decompose)")
            if "knox" in stages:
                print_metric("knox_s", "s", [p.stage_s["knox"] for p in passes], "  (knox stage)")
            metrics = {
                name: {"value": quartiles(values[name])[1], "unit": unit}
                for name, unit in chosen.items()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def dump_spans(root: Path, workload: wl.Workload, seed: int, tracer, layer: dict) -> None:
    out = root / WORK_DIR / "spans"
    out.mkdir(parents=True, exist_ok=True)
    t0 = min((s[3] for s in tracer.spans), default=0.0)
    doc = {
        "workload": workload.name,
        "seed": seed,
        "fields": ["id", "parent", "name", "start_s", "end_s", "run", "thread"],
        "spans": [
            [s[0], s[1], s[2], round(s[3] - t0, 7), round(s[4] - t0, 7), s[5], s[6]]
            for s in sorted(tracer.spans, key=lambda s: s[3])
        ],
        "counters": dict(tracer.counters),
        "metrics": layer,
    }
    with open(out / f"{workload.name}-seed{seed}.json", "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


# ------------------------------------------------------------ all workloads


def all_runs(args, root: Path) -> int:
    """Each workload ``ALL_RUNS`` times, a fresh process per run; medians across runs."""
    load_spec(root)
    per: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    attempted = failed = 0
    for name in wl.WORKLOADS:
        for i in range(ALL_RUNS):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write(proc.stdout if proc.returncode else "")
            if not lines or not lines[-1].startswith("{"):
                sys.stderr.write(proc.stderr)
                raise SetupError(f"{name} seed {args.seed + i} printed no result")
            res = json.loads(lines[-1])
            attempted += res["attempted"]
            failed += res["failed"]
            for metric, v in res["metrics"].items():
                per.setdefault(name, {}).setdefault(metric, []).append(v["value"])
                units[metric] = v["unit"]
            print(f"{name} seed {args.seed + i}: " + ", ".join(
                f"{m}={v['value']:.4f}" for m, v in res["metrics"].items()
            ), flush=True)
    summary = {}
    print(f"{'workload':14s} {'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} unit   n")
    for name, metrics in per.items():
        for metric, values in metrics.items():
            q1, med, q3 = quartiles(values)
            print(f"{name:14s} {metric:32s} {med:14.6f} {q1:14.6f} {q3:14.6f} {units[metric]:6s} {len(values)}")
            summary[f"{name}/{metric}"] = {
                "value": med, "unit": units[metric], "q1": q1, "q3": q3, "n": len(values)
            }
    print(f"error_rate {failed / max(attempted, 1):.6f} ({failed} of {attempted} stage invocations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if args.workload == "all":
            return all_runs(args, root)
        return single_run(args, root)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
