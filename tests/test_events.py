"""Ingest tests: parsing, projection, windows, dedup, file round-trips."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from nearchain import events as ev
from oracles import count_parseable_rows, snyder_utm


def write_csv(path, rows, header="x,y,time,category"):
    path.write_text("\n".join([header] + rows) + "\n")


def planar_config(**kw):
    return ev.IngestConfig(coordinate_mode="planar", **kw)


# ------------------------------------------------------------------ parsing


def test_parse_well_formed(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(
        path,
        [
            "10.0,20.0,2020-01-01 00:00:00,theft",
            "11.0,21.0,2020-01-02 06:00:00,theft",
            "12.0,22.0,2020-01-03 12:00:00,burglary",
        ],
    )
    records, rejects = ev.parse_csv(path, planar_config())
    assert len(records) == 3 and rejects == []
    assert records[0].source_line == 2
    assert records[2].category == "burglary"


def test_parse_bad_timestamp(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(path, ["1,2,not-a-date,theft"])
    records, rejects = ev.parse_csv(path, planar_config())
    assert records == []
    assert rejects == [(2, ev.REASON_TIMESTAMP)]


def test_parse_bad_number_and_missing_field(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(
        path,
        [
            "abc,2,2020-01-01 00:00:00,theft",
            "nan,2,2020-01-01 00:00:00,theft",
            "1,2,2020-01-01 00:00:00",
            "3,4,2020-01-05 00:00:00,theft",
        ],
    )
    records, rejects = ev.parse_csv(path, planar_config())
    assert len(records) == 1
    reasons = dict(rejects)
    assert reasons[2] == ev.REASON_NUMBER
    assert reasons[3] == ev.REASON_NUMBER
    assert reasons[4] == ev.REASON_MISSING
    assert len(rejects) == 3


def test_parse_missing_header_is_fatal(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        ev.parse_csv(path, planar_config())


def test_parse_mixed_counts_match_line_oracle(tmp_path):
    rng = np.random.default_rng(5)
    rows = []
    for i in range(300):
        roll = rng.random()
        if roll < 0.15:
            rows.append(f"bad,{i},2020-01-01 00:00:00,a")
        elif roll < 0.3:
            rows.append(f"{i},{i},99/99/99,a")
        else:
            rows.append(f"{i}.5,{i}.5,2020-01-{1 + i % 28:02d} 00:00:00,a")
    path = tmp_path / "in.csv"
    write_csv(path, rows)
    records, rejects = ev.parse_csv(path, planar_config())
    good, bad = count_parseable_rows(
        path, "%Y-%m-%d %H:%M:%S", numeric_cols=("x", "y"), time_col="time"
    )
    assert len(records) == good
    assert len(rejects) == bad


# ------------------------------------------------------- dedup and filtering


def _mk_events(tuples):
    return [
        ev.Event(i, x, y, t, cat) for i, (x, y, t, cat) in enumerate(tuples)
    ]


def test_deduplicate_merges_and_sorts():
    before = _mk_events(
        [
            (5.0, 5.0, 2.0, "a"),
            (1.0, 1.0, 1.0, "a"),
            (1.0, 1.0, 1.0, "a"),
            (1.0, 1.0, 1.0, "b"),
        ]
    )
    after = ev.deduplicate(before)
    assert [e.id for e in after] == [0, 1, 2]
    assert [e.multiplicity for e in after] == [2, 1, 1]
    assert after[0].t <= after[1].t <= after[2].t
    # multiplicities add up to the accepted record count
    assert sum(e.multiplicity for e in after) == len(before)


def test_deduplicate_idempotent_and_dense_ids():
    rng = np.random.default_rng(17)
    before = _mk_events(
        [
            (
                float(rng.integers(0, 4)),
                float(rng.integers(0, 4)),
                float(rng.integers(0, 3)),
                "c",
            )
            for _ in range(100)
        ]
    )
    once = ev.deduplicate(before)
    twice = ev.deduplicate(once)
    assert once == twice
    assert [e.id for e in once] == list(range(len(once)))
    keys = {(e.category, e.x, e.y, e.t) for e in before}
    assert len(once) == len(keys)


def test_filter_range_brute_force():
    rng = np.random.default_rng(23)
    evs = _mk_events(
        [
            (rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10), "a")
            for _ in range(200)
        ]
    )
    window = ev.RangeWindow(x=(2.0, 8.0), y=(1.0, 9.0), t=(0.0, 5.0))
    kept = [e for e in evs if window.contains(e.x, e.y, e.t)]
    expect = [
        e
        for e in evs
        if 2.0 <= e.x <= 8.0 and 1.0 <= e.y <= 9.0 and 0.0 <= e.t <= 5.0
    ]
    assert kept == expect
    everything = ev.RangeWindow()
    assert [e for e in evs if everything.contains(e.x, e.y, e.t)] == evs
    none = ev.RangeWindow(x=(100.0, 200.0))
    assert [e for e in evs if none.contains(e.x, e.y, e.t)] == []


def test_range_window_validates():
    with pytest.raises(ValueError):
        ev.RangeWindow(x=(5.0, 1.0))


# --------------------------------------------------------------- end to end


def test_ingest_planar_end_to_end(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(
        path,
        [
            "100.0,200.0,2020-01-03 00:00:00,theft",
            "100.0,200.0,2020-01-03 00:00:00,theft",
            "150.0,250.0,2020-01-01 00:00:00,theft",
            "bad,250.0,2020-01-01 00:00:00,theft",
        ],
    )
    result = ev.ingest_events(path, planar_config())
    assert [e.id for e in result.events] == [0, 1]
    # epoch is the earliest surviving timestamp: t starts at 0
    assert result.events[0].t == 0.0
    assert result.events[0].x == 150.0
    assert result.events[1].t == 2.0
    assert result.events[1].multiplicity == 2
    s = result.summary
    assert s["rows"] == 4
    assert s["rejected"]["parse"] == 1
    assert s["accepted"] == 3
    assert s["duplicates_removed"] == 1
    assert s["events"] == 2
    assert s["warn_high_reject"] is False
    assert s["input"] == "in.csv"


def test_ingest_geographic_projects_like_oracle(tmp_path):
    # one zone-16 city block; production projection must match the
    # independent series to centimeters
    rows = [
        f"{41.88 + i * 1e-4:.6f},{-87.63 + i * 1e-4:.6f},2020-01-0{1 + i} 00:00:00,theft"
        for i in range(3)
    ]
    path = tmp_path / "in.csv"
    write_csv(path, rows, header="lat,lon,time,category")
    result = ev.ingest_events(
        path, ev.IngestConfig(coordinate_mode="geographic", utm_zone="auto")
    )
    assert result.summary["utm_zone"] == 16
    assert len(result.events) == 3
    for e, i in zip(result.events, range(3)):
        oe, on = snyder_utm(41.88 + i * 1e-4, -87.63 + i * 1e-4, 16)
        assert e.x == pytest.approx(round(oe, 3), abs=0.02)
        assert e.y == pytest.approx(round(on, 3), abs=0.02)


def test_ingest_mixed_zone_auto_is_fatal(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(
        path,
        [
            "41.88,-87.63,2020-01-01 00:00:00,a",  # zone 16
            "40.71,-74.00,2020-01-02 00:00:00,a",  # zone 18
        ],
        header="lat,lon,time,category",
    )
    with pytest.raises(ValueError, match="zone"):
        ev.ingest_events(
            path, ev.IngestConfig(coordinate_mode="geographic", utm_zone="auto")
        )


def test_ingest_out_of_band_latitude_rejected(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(
        path,
        [
            "41.88,-87.63,2020-01-01 00:00:00,a",
            "85.0,-87.63,2020-01-02 00:00:00,a",
        ],
        header="lat,lon,time,category",
    )
    result = ev.ingest_events(
        path, ev.IngestConfig(coordinate_mode="geographic", utm_zone=16)
    )
    assert len(result.events) == 1
    assert (3, ev.REASON_COORDINATE) in result.rejects


def test_ingest_category_filter_and_window(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(
        path,
        [
            "10,10,2020-01-01 00:00:00,keep",
            "20,20,2020-01-02 00:00:00,drop",
            "9000,10,2020-01-03 00:00:00,keep",
        ],
    )
    cfg = planar_config(
        window=ev.RangeWindow(x=(0.0, 100.0)),
        category_filter=frozenset({"keep"}),
    )
    result = ev.ingest_events(path, cfg)
    assert [e.x for e in result.events] == [10.0]
    assert result.summary["filtered_category"] == 1
    assert result.summary["rejected"]["range"] == 1


def test_ingest_high_reject_warning(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(
        path,
        ["bad,1,2020-01-01 00:00:00,a"] * 3 + ["1,1,2020-01-01 00:00:00,a"],
    )
    result = ev.ingest_events(path, planar_config())
    assert result.summary["warn_high_reject"] is True


def test_rounding_precision():
    assert ev.round_coord(1.00049) == 1.0
    assert ev.round_coord(-0.0001) == 0.0  # no negative zero
    assert ev.round_time(1.23456789) == 1.234568


# ------------------------------------------------------------- file formats


def test_events_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    evs = ev.deduplicate(
        _mk_events(
            [
                (
                    round(rng.uniform(0, 1000), 3),
                    round(rng.uniform(0, 1000), 3),
                    round(rng.uniform(0, 30), 6),
                    "theft" if rng.random() < 0.5 else "burglary",
                )
                for _ in range(50)
            ]
        )
    )
    path = tmp_path / "events.csv"
    ev.write_events_csv(evs, path)
    ids, xyt = ev.read_events_csv(path)
    assert ids.dtype == np.int64 and xyt.dtype == np.float64 and xyt.shape == (len(evs), 3)
    assert ids.tolist() == [e.id for e in evs]
    assert xyt.tolist() == [[e.x, e.y, e.t] for e in evs]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["category"], int(r["multiplicity"])) for r in rows] == [
        (e.category, e.multiplicity) for e in evs
    ]
    # fixed-point formatting: 3 decimals for x/y, 6 for t
    line = path.read_text().splitlines()[1]
    parts = line.split(",")
    assert len(parts[1].split(".")[1]) == 3
    assert len(parts[3].split(".")[1]) == 6


def test_rejects_csv(tmp_path):
    path = tmp_path / "rejects.csv"
    ev.write_rejects_csv([(7, ev.REASON_RANGE), (2, ev.REASON_NUMBER)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "line,reason"
    assert lines[1] == f"2,{ev.REASON_NUMBER}"
    assert lines[2] == f"7,{ev.REASON_RANGE}"


def test_ingest_time_rounding_applies_before_window():
    # t is rounded to 6 decimals before the window test: a value that rounds
    # onto the closed boundary stays in
    window = ev.RangeWindow(t=(0.0, 2.0))
    assert window.contains(0.0, 0.0, ev.round_time(2.0000004))
    assert not window.contains(0.0, 0.0, ev.round_time(2.0000006))


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(path, ["inf,1,2020-01-01 00:00:00,a", "1,1,2020-01-01 00:00:00,a"])
    records, rejects = ev.parse_csv(path, planar_config())
    assert len(records) == 1 and rejects == [(2, ev.REASON_NUMBER)]
    assert all(math.isfinite(r.easting) for r in records)
