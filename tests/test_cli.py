"""CLI tests: pipeline wiring, exit codes, config precedence, report schema."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import nearchain
from nearchain import cohesive, common, config, events
from nearchain import knox as knoxmod
from nearchain.cli import main
from nearchain.config import load_config

SRC = Path(__file__).resolve().parent.parent / "src"
SCHEMA_PATH = SRC / "nearchain" / "schemas" / "report.schema.json"


def run(args, expect=0):
    code = main([str(a) for a in args])
    assert code == expect, f"exit {code} for {args}"
    return code


def synth_csv(outdir, seed=0, background=150, clusters=3):
    raw = outdir / "raw.csv"
    run(
        [
            "synth",
            "--output",
            outdir,
            "--background",
            background,
            "--clusters",
            clusters,
            "--cluster-size",
            12,
            "--extent-x",
            4000,
            "--extent-y",
            4000,
            "--days",
            120,
            "--seed",
            seed,
            "--out",
            raw,
        ]
    )
    return raw


def full_pipeline(outdir, seed=0):
    raw = synth_csv(outdir, seed=seed)
    run(["ingest", "--output", outdir, "--input", raw])
    run(["pairs", "--output", outdir, "--binary"])
    run(["stats", "--output", outdir])
    run(["decompose", "--output", outdir])
    run(
        [
            "knox",
            "--output",
            outdir,
            "--permutations",
            "19",
            "--distance-bins",
            "10",
            "--time-bins",
            "8",
        ]
    )
    run(["report", "--output", outdir])


# ----------------------------------------------------------------- pipeline


def test_pipeline_produces_all_outputs(tmp_path):
    full_pipeline(tmp_path)
    for name in (
        "raw.csv",
        "events.csv",
        "rejects.csv",
        "ingest_summary.json",
        "edges.txt",
        "pairs.bin",
        "pairs_summary.json",
        "graph_stats.json",
        "decompose_core.json",
        "decompose_truss.json",
        "decompose_dbscan.json",
        "decompose_clique.json",
        "observed.csv",
        "expected.csv",
        "residuals.csv",
        "pvalues.csv",
        "knox_meta.json",
        "report.json",
    ):
        assert (tmp_path / name).exists(), name
    # stats counts the event rows; pairs parses every event
    pairs = json.loads((tmp_path / "pairs_summary.json").read_text())
    stats = json.loads((tmp_path / "graph_stats.json").read_text())
    assert stats["vertices"] == pairs["vertices"] == pairs["events"]
    assert stats["components"] == pairs["components"]


def test_report_validates_against_schema(tmp_path):
    full_pipeline(tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(report, schema)
    assert report["graph"]["events"] == report["dataset"]["events"]
    assert set(report["decompose"]) == {"core", "truss", "dbscan", "clique"}
    assert "cell_00" in report["knox"]["highlights"]


def test_rerun_is_byte_identical(tmp_path):
    one = tmp_path / "one"
    two = tmp_path / "two"
    for outdir in (one, two):
        outdir.mkdir()
        full_pipeline(outdir)
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


# ------------------------------------------------------------------ imports

COMPUTE_MODULES = ("events", "spatial", "graph", "cohesive", "knox", "projection", "synth")


def test_import_loads_no_compute_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = (
        "import sys, nearchain, nearchain.cli; "
        "print(' '.join(m for m in sys.modules if m == 'numpy' or m.startswith('nearchain.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "numpy" not in out
    assert not {f"nearchain.{m}" for m in COMPUTE_MODULES} & set(out), out


def test_package_names_resolve_on_first_use():
    for name in nearchain.__all__:
        assert getattr(nearchain, name) is not None, name
    assert nearchain.build_graph.__module__ == "nearchain.graph"
    with pytest.raises(AttributeError, match="no_such_name"):
        nearchain.no_such_name  # noqa: B018


def test_moved_names_keep_their_identity():
    assert events.IngestConfig is config.IngestConfig
    assert events.RangeWindow is config.RangeWindow
    assert knoxmod.KnoxConfig is config.KnoxConfig
    assert knoxmod.OVERFLOW_POLICIES is config.OVERFLOW_POLICIES
    assert knoxmod.MarginError is common.MarginError
    assert cohesive.DEFAULT_K_MIN is config.DEFAULT_K_MIN
    assert cohesive.DEFAULT_MAX_CLIQUES is config.DEFAULT_MAX_CLIQUES


# --------------------------------------------------------------- exit codes


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_input_is_fatal(tmp_path, capsys):
    code = main(["ingest", "--output", str(tmp_path), "--input", str(tmp_path / "no.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_ingest_requires_input(tmp_path, capsys):
    assert main(["ingest", "--output", str(tmp_path)]) == 1
    assert "input" in capsys.readouterr().err


def test_pairs_before_ingest_names_stage(tmp_path, capsys):
    for stage in ("pairs", "stats", "decompose", "knox"):
        assert main([stage, "--output", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "ingest" in err and "events.csv" in err, stage


def test_stats_before_pairs_names_stage(tmp_path, capsys):
    raw = synth_csv(tmp_path)
    run(["ingest", "--output", tmp_path, "--input", raw])
    assert main(["stats", "--output", str(tmp_path)]) == 1
    assert "pairs" in capsys.readouterr().err


def test_malformed_edge_list_names_file(tmp_path, capsys):
    raw = synth_csv(tmp_path)
    run(["ingest", "--output", tmp_path, "--input", raw])
    (tmp_path / "bad.txt").write_text("0 1\n0 1 2\n")
    assert main(["stats", "--output", str(tmp_path), "--edges", str(tmp_path / "bad.txt")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "bad.txt" in err and "line 2" in err


def test_report_before_pipeline_names_stage(tmp_path, capsys):
    assert main(["report", "--output", str(tmp_path)]) == 1
    assert "ingest" in capsys.readouterr().err


def test_bad_radius_is_fatal(tmp_path, capsys):
    raw = synth_csv(tmp_path)
    run(["ingest", "--output", tmp_path, "--input", raw])
    assert main(["pairs", "--output", str(tmp_path), "--r-x", "-5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_stale_pairs_is_named_error(tmp_path, capsys):
    raw = synth_csv(tmp_path, background=500, clusters=5)
    run(["ingest", "--output", tmp_path, "--input", raw, "--t-max", "100"])
    run(["pairs", "--output", tmp_path])
    run(["ingest", "--output", tmp_path, "--input", raw])
    partial = json.loads((tmp_path / "pairs_summary.json").read_text())["events"]
    full = json.loads((tmp_path / "ingest_summary.json").read_text())["events"]
    assert partial < full
    capsys.readouterr()
    for stage in ("stats", "decompose", "report"):
        assert main([stage, "--output", str(tmp_path)]) == 1, stage
        err = capsys.readouterr().err
        assert "error: stale output of stage 'pairs'" in err, (stage, err)
        assert f"{partial} events" in err and err.rstrip().endswith("(rerun pairs)"), err
    assert not (tmp_path / "graph_stats.json").exists()
    assert not (tmp_path / "report.json").exists()

    # an explicit --events or --edges skips the check: the caller chose the files
    run(["stats", "--output", tmp_path, "--edges", tmp_path / "edges.txt"])

    run(["pairs", "--output", tmp_path])
    run(["stats", "--output", tmp_path])
    run(["report", "--output", tmp_path])
    run(["pairs", "--output", tmp_path, "--r-x", "1000", "--r-y", "1000"])
    stats = json.loads((tmp_path / "graph_stats.json").read_text())
    pairs = json.loads((tmp_path / "pairs_summary.json").read_text())
    assert stats["components"] != pairs["components"]
    capsys.readouterr()
    assert main(["report", "--output", str(tmp_path)]) == 1
    assert "error: stale output of stage 'stats'" in capsys.readouterr().err


def test_stale_knox_is_named_error(tmp_path, capsys):
    raw = synth_csv(tmp_path, background=500, clusters=5)
    run(["ingest", "--output", tmp_path, "--input", raw])
    run(["pairs", "--output", tmp_path])
    run(["knox", "--output", tmp_path, "--permutations", "0"])
    run(["report", "--output", tmp_path])
    consistent = (tmp_path / "report.json").read_bytes()
    (tmp_path / "report.json").unlink()
    run(["ingest", "--output", tmp_path, "--input", raw, "--t-max", "100"])
    run(["pairs", "--output", tmp_path])
    capsys.readouterr()
    assert main(["report", "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error: stale output of stage 'knox'" in err, err
    assert err.rstrip().endswith("(rerun knox)"), err
    assert not (tmp_path / "report.json").exists()
    # rerunning the stale stages restores the consistent run's bytes
    run(["ingest", "--output", tmp_path, "--input", raw])
    run(["pairs", "--output", tmp_path])
    run(["report", "--output", tmp_path])
    assert (tmp_path / "report.json").read_bytes() == consistent


# ----------------------------------------------------- config and overrides


def test_env_var_sets_output_dir(tmp_path, monkeypatch):
    outdir = tmp_path / "from_env"
    monkeypatch.setenv("NEARCHAIN_OUT", str(outdir))
    raw = synth_csv(tmp_path / "stash")
    run(["ingest", "--input", raw])
    assert (outdir / "events.csv").exists()


def test_output_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("NEARCHAIN_OUT", str(tmp_path / "ignored"))
    outdir = tmp_path / "flagged"
    raw = synth_csv(tmp_path / "stash")
    run(["ingest", "--output", outdir, "--input", raw])
    assert (outdir / "events.csv").exists()
    assert not (tmp_path / "ignored" / "events.csv").exists()


def test_config_file_applies_and_flags_override(tmp_path):
    raw = synth_csv(tmp_path)
    run(["ingest", "--output", tmp_path, "--input", raw])
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\n"
        f"output = {tmp_path}\n"
        "[pairs]\n"
        "r_x = 40\n"
        "r_y = 40\n"
        "r_t = 3\n"
    )
    run(["pairs", "-c", cfg])
    narrow = json.loads((tmp_path / "pairs_summary.json").read_text())
    assert narrow["r_x"] == 40.0 and narrow["r_t"] == 3.0

    run(["pairs", "-c", cfg, "--r-x", "400", "--r-y", "400", "--r-t", "30"])
    wide = json.loads((tmp_path / "pairs_summary.json").read_text())
    assert wide["r_x"] == 400.0
    assert wide["edges"] >= narrow["edges"]


def test_empty_config_sections_load_the_defaults(tmp_path):
    cfg = tmp_path / "empty.ini"
    cfg.write_text("[run]\n[ingest]\n[pairs]\n[decompose]\n[knox]\n")
    assert load_config(cfg) == load_config(None)


@pytest.mark.parametrize(
    "text, named",
    [
        ("[knox]\npermutation = 0\n", "unknown key 'permutation' in section [knox]"),
        ("[pair]\nr_x = 5\n", "unknown section [pair] (key 'r_x')"),
        ("[DEFAULT]\noutput = elsewhere\n[run]\n", "unknown section [DEFAULT] (key 'output')"),
    ],
    ids=["key", "section", "default"],
)
def test_unknown_config_name_is_fatal(tmp_path, capsys, text, named):
    cfg = tmp_path / "typo.ini"
    cfg.write_text(text)
    assert main(["report", "-c", str(cfg), "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err, err
    (line,) = err.splitlines()
    assert line.startswith(f"error: {cfg}: {named}"), line


def test_every_known_config_key_is_read(tmp_path, monkeypatch):
    monkeypatch.delenv(common.ENV_OUTPUT_DIR, raising=False)
    cfg = tmp_path / "all.ini"
    cfg.write_text(
        "[run]\noutput = o\nworkers = 3\n"
        "[ingest]\ninput = raw.csv\ncoordinate_mode = geographic\nutm_zone = 31\n"
        "time_format = %Y\ncategory_filter = a\ncol_x = X\ncol_y = Y\ncol_lat = LA\n"
        "col_lon = LO\ncol_time = T\ncol_category = C\n"
        "x_min = 0\nx_max = 1\ny_min = 0\ny_max = 1\nt_min = 0\nt_max = 1\n"
        "[pairs]\nr_x = 1\nr_y = 2\nr_t = 3\n"
        "[decompose]\nmethods = core\nk_min = 2\nmax_cliques = 5\nmembers = yes\n"
        "[knox]\ndistance_step = 1\ntime_step = 2\ndistance_bins = 3\ntime_bins = 4\n"
        "permutations = 5\nseed = 6\noverflow = drop\n"
    )
    got, default = load_config(cfg), load_config(None)
    assert (got.output, got.workers, got.input) == ("o", 3, "raw.csv")
    for section in ("ingest", "pairs", "decompose", "knox"):
        mine, base = getattr(got, section), getattr(default, section)
        same = [
            f.name
            for f in dataclasses.fields(mine)
            if getattr(mine, f.name) == getattr(base, f.name)
        ]
        assert same == [], (section, same)


def test_unreadable_config_is_fatal(tmp_path, capsys):
    assert main(["report", "-c", str(tmp_path / "none.ini")]) == 1
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------- subcommands


def test_synth_deterministic_per_seed(tmp_path):
    a = synth_csv(tmp_path / "a", seed=5)
    b = synth_csv(tmp_path / "b", seed=5)
    c = synth_csv(tmp_path / "c", seed=6)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "x,y,time,category"


def test_decompose_members_flag(tmp_path):
    raw = synth_csv(tmp_path)
    run(["ingest", "--output", tmp_path, "--input", raw])
    run(["pairs", "--output", tmp_path])
    run(["decompose", "--output", tmp_path, "--methods", "core", "--members"])
    doc = json.loads((tmp_path / "decompose_core.json").read_text())
    levels = doc["levels"]
    assert levels, "expected at least one k level"
    some = next(iter(levels.values()))
    assert "subgraphs" in some
    assert all(isinstance(v, int) for sg in some["subgraphs"] for v in sg["vertices"])

    run(["decompose", "--output", tmp_path, "--methods", "core"])
    doc = json.loads((tmp_path / "decompose_core.json").read_text())
    assert all("subgraphs" not in lvl for lvl in doc["levels"].values())


def test_decompose_method_subset_and_bad_method(tmp_path, capsys):
    raw = synth_csv(tmp_path)
    run(["ingest", "--output", tmp_path, "--input", raw])
    run(["pairs", "--output", tmp_path])
    run(["decompose", "--output", tmp_path, "--methods", "core,truss"])
    assert (tmp_path / "decompose_core.json").exists()
    assert not (tmp_path / "decompose_dbscan.json").exists()
    assert main(["decompose", "--output", str(tmp_path), "--methods", "zap"]) == 1
    assert "zap" in capsys.readouterr().err


def test_clique_truncation_is_reported(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    rows = [f"{x},{x},2019-01-01 00:00:00,{c}" for x in (10, 5000) for c in "abcd"]
    raw.write_text("x,y,time,category\n" + "".join(row + "\n" for row in rows))
    run(["ingest", "--output", tmp_path, "--input", raw])
    run(["pairs", "--output", tmp_path])
    run(["decompose", "--output", tmp_path, "--methods", "clique"])
    full = json.loads((tmp_path / "decompose_clique.json").read_text())
    assert full["truncated"] is False and full["levels"]["4"]["count"] == 2
    capsys.readouterr()
    run(["decompose", "--output", tmp_path, "--methods", "clique", "--max-cliques", "1"])
    doc = json.loads((tmp_path / "decompose_clique.json").read_text())
    assert doc["truncated"] is True
    assert "warning: clique enumeration truncated at 1" in capsys.readouterr().err


def test_report_without_decompose_omits_section(tmp_path):
    raw = synth_csv(tmp_path)
    run(["ingest", "--output", tmp_path, "--input", raw])
    run(["pairs", "--output", tmp_path])
    run(["report", "--output", tmp_path])
    report = json.loads((tmp_path / "report.json").read_text())
    assert "decompose" not in report
    assert "knox" not in report
    jsonschema.validate(report, json.loads(SCHEMA_PATH.read_text()))


def test_knox_flags_reach_output(tmp_path):
    raw = synth_csv(tmp_path)
    run(["ingest", "--output", tmp_path, "--input", raw])
    run(["pairs", "--output", tmp_path])
    run(
        [
            "knox",
            "--output",
            tmp_path,
            "--distance-step",
            "200",
            "--time-step",
            "7",
            "--distance-bins",
            "5",
            "--time-bins",
            "6",
            "--permutations",
            "9",
            "--seed",
            "11",
            "--overflow",
            "drop",
        ]
    )
    meta = json.loads((tmp_path / "knox_meta.json").read_text())
    assert meta["distance_step"] == 200.0
    assert meta["time_step"] == 7.0
    assert meta["distance_bins"] == 5
    assert meta["time_bins"] == 6
    assert meta["permutations"] == 9
    assert meta["seed"] == 11
    assert meta["overflow"] == "drop"
    grid = (tmp_path / "observed.csv").read_text().splitlines()
    assert len(grid) == 6  # header + 5 distance rows
    assert grid[0].count(",") == 6


def test_workers_flag_keeps_outputs_identical(tmp_path):
    dirs = []
    for workers in (1, 4):
        outdir = tmp_path / f"w{workers}"
        outdir.mkdir()
        raw = synth_csv(outdir)
        run(["ingest", "--output", outdir, "--input", raw, "--workers", workers])
        run(["pairs", "--output", outdir, "--workers", workers])
        run(["decompose", "--output", outdir, "--workers", workers])
        run(["knox", "--output", outdir, "--permutations", "9", "--workers", workers])
        dirs.append(outdir)
    one, four = dirs
    for path in sorted(one.iterdir()):
        assert path.read_bytes() == (four / path.name).read_bytes(), path.name


def test_knox_margin_failure_is_named_error(tmp_path, capsys, monkeypatch):
    raw = synth_csv(tmp_path)
    run(["ingest", "--output", tmp_path, "--input", raw])
    real = knoxmod._accumulate

    def skewed(xyt, times, config, workers=1):
        tables = real(xyt, times, config, workers)
        if not np.shares_memory(times, xyt):  # permuted rounds, not the observed table
            tables = tables.copy()
            tables[:, 0, 0] += 1
        return tables

    monkeypatch.setattr(knoxmod, "_accumulate", skewed)
    run(["knox", "--output", tmp_path, "--permutations", "3"], expect=1)
    assert "error: permutation round broke spatial margins" in capsys.readouterr().err


@pytest.mark.parametrize("message", ["Unable to allocate 9.29 TiB for an array", ""])
def test_knox_out_of_memory_is_named_error(tmp_path, capsys, monkeypatch, message):
    # bins far finer than the data make a table that cannot be allocated
    raw = synth_csv(tmp_path)
    run(["ingest", "--output", tmp_path, "--input", raw])

    def too_big(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(knoxmod, "_accumulate", too_big)
    capsys.readouterr()
    run(["knox", "--output", tmp_path, "--permutations", "3"], expect=1)
    err = capsys.readouterr().err
    assert "Traceback" not in err, err
    assert err.splitlines()[-1] == f"error: {message or 'MemoryError'}", err


# --------------------------------------------------------- degenerate inputs

RAW_HEADER = "x,y,time,category\n"
DEGENERATE_INPUTS = {
    "single_event": (["10,20,2019-01-01 00:00:00,a"], [0, 0, 0, 0, 1, 0]),
    "all_duplicates": (["10,20,2019-01-01 00:00:00,a"] * 3, [0, 0, 0, 0, 1, 0]),
    "k4_same_point": (
        [f"10,20,2019-01-01 00:00:00,{c}" for c in "abcd"],
        [0, 0, 0, 0, 0, 0],
    ),
    "pair_at_limits": (
        ["0,0,2019-01-01 00:00:00,a", "100,100,2019-01-11 00:00:00,a"],
        [0, 0, 0, 0, 0, 0],
    ),
    "header_only": ([], [0, 1, 1, 1, 1, 1]),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_INPUTS))
def test_degenerate_input_through_every_stage(tmp_path, capsys, case):
    rows, want_codes = DEGENERATE_INPUTS[case]
    raw = tmp_path / "raw.csv"
    raw.write_text(RAW_HEADER + "".join(row + "\n" for row in rows))
    out = tmp_path / "out"
    stages = [
        ["ingest", "--input", raw],
        ["pairs"],
        ["stats"],
        ["decompose", "--members"],
        ["knox", "--permutations", "9"],
        ["report"],
    ]
    codes = []
    for stage in stages:
        capsys.readouterr()
        code = main([str(a) for a in [*stage, "--output", out]])
        err = capsys.readouterr().err
        if code == 1:
            assert any(line.startswith("error: ") for line in err.splitlines()), (stage, err)
        codes.append(code)
    assert codes == want_codes
    if case == "pair_at_limits":  # default limits r_x = r_y = 100 m, r_t = 10 days
        assert (out / "edges.txt").read_text() == "0 1\n"
    if case == "k4_same_point":
        edges = (out / "edges.txt").read_text().splitlines()
        assert edges == ["0 1", "0 2", "0 3", "1 2", "1 3", "2 3"]
        core = json.loads((out / "decompose_core.json").read_text())
        assert core["levels"]["3"]["subgraphs"][0]["vertices"] == [0, 1, 2, 3]
