"""CSV ingest: parse raw event records, project, validate, and deduplicate.

The cleaned unit of work is an :class:`Event` — planar coordinates in meters,
time as real-valued days since the dataset epoch, a category label, and a
multiplicity counting how many raw duplicates were merged into it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from . import projection
from .common import SCHEMA_VERSION
from .config import IngestConfig, RangeWindow  # noqa: F401  (re-exported)

REASON_MISSING = "missing-field"
REASON_NUMBER = "bad-number"
REASON_TIMESTAMP = "bad-timestamp"
REASON_COORDINATE = "bad-coordinate"
REASON_RANGE = "out-of-range"

EVENTS_HEADER = ("id", "x", "y", "t", "category", "multiplicity")


@dataclass(frozen=True)
class RawRecord:
    """One parsed input row, before projection and cleaning."""

    source_line: int
    timestamp: datetime
    category: str
    lat: float | None = None
    lon: float | None = None
    easting: float | None = None
    northing: float | None = None


@dataclass(frozen=True)
class Event:
    """One cleaned incident: planar meters, days since epoch, category."""

    id: int
    x: float
    y: float
    t: float
    category: str
    multiplicity: int = 1


@dataclass
class IngestResult:
    """Cleaned events plus the reject ledger and a summary for reporting."""

    events: list[Event]
    rejects: list[tuple[int, str]]
    summary: dict


def _fmt(value: float, decimals: int) -> str:
    """Fixed-point format, normalizing negative zero."""
    s = f"{value:.{decimals}f}"
    if float(s) == 0.0:
        s = f"{0.0:.{decimals}f}"
    return s


def round_coord(value: float) -> float:
    """Snap a coordinate to the canonical 3-decimal output precision."""
    return float(_fmt(value, 3))


def round_time(value: float) -> float:
    """Snap a day value to the canonical 6-decimal output precision."""
    return float(_fmt(value, 6))


def parse_csv(path, config: IngestConfig) -> tuple[list[RawRecord], list[tuple[int, str]]]:
    """Parse a headered CSV into RawRecords plus (line, reason) rejects.

    Reject reasons are ``missing-field``, ``bad-number``, and ``bad-timestamp``.
    An unreadable file or a header lacking the mapped columns is fatal.
    """
    geographic = config.coordinate_mode == "geographic"
    if geographic:
        cols = [config.col_lat, config.col_lon, config.col_time, config.col_category]
    else:
        cols = [config.col_x, config.col_y, config.col_time, config.col_category]

    records: list[RawRecord] = []
    rejects: list[tuple[int, str]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        missing = [c for c in cols if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: header lacks mapped columns {missing}")
        for row in reader:
            line_no = reader.line_num
            raw = [row.get(c) for c in cols]
            if any(v is None or not v.strip() for v in raw):
                rejects.append((line_no, REASON_MISSING))
                continue
            try:
                c0 = float(raw[0])
                c1 = float(raw[1])
            except ValueError:
                rejects.append((line_no, REASON_NUMBER))
                continue
            if not (math.isfinite(c0) and math.isfinite(c1)):
                rejects.append((line_no, REASON_NUMBER))
                continue
            try:
                ts = datetime.strptime(raw[2].strip(), config.time_format)
            except ValueError:
                rejects.append((line_no, REASON_TIMESTAMP))
                continue
            category = raw[3].strip()
            if geographic:
                records.append(RawRecord(line_no, ts, category, lat=c0, lon=c1))
            else:
                records.append(RawRecord(line_no, ts, category, easting=c0, northing=c1))
    return records, rejects


def deduplicate(events: list[Event]) -> list[Event]:
    """Merge events sharing (category, x, y, t); reassign dense ids.

    Multiplicities sum across merged events.  Output is sorted by
    (t, x, y, category) and ids run 0..n-1 in that order.
    """
    merged: dict[tuple, list] = {}
    for e in events:
        key = (e.category, e.x, e.y, e.t)
        slot = merged.get(key)
        if slot is None:
            merged[key] = [e.x, e.y, e.t, e.category, e.multiplicity]
        else:
            slot[4] += e.multiplicity
    rows = sorted(merged.values(), key=lambda r: (r[2], r[0], r[1], r[3]))
    return [Event(i, x, y, t, cat, mult) for i, (x, y, t, cat, mult) in enumerate(rows)]


def ingest_events(path, config: IngestConfig) -> IngestResult:
    """Full ingest pipeline: parse, filter, project, window, deduplicate."""
    records, parse_rejects = parse_csv(path, config)
    rows_total = len(records) + len(parse_rejects)
    rejects = list(parse_rejects)

    if config.category_filter is not None:
        kept = [r for r in records if r.category in config.category_filter]
        n_category = len(records) - len(kept)
        records = kept
    else:
        n_category = 0

    zone: int | None = None
    n_coordinate = 0
    if config.coordinate_mode == "geographic":
        in_band = []
        for r in records:
            if projection.LAT_MIN < r.lat < projection.LAT_MAX:
                in_band.append(r)
            else:
                rejects.append((r.source_line, REASON_COORDINATE))
        n_coordinate = len(records) - len(in_band)
        records = in_band
        if records:
            if config.utm_zone == "auto":
                zones = sorted({projection.zone_for_lon(r.lon) for r in records})
                if len(zones) > 1:
                    raise ValueError(
                        f"mixed UTM zones {zones} in input; set utm_zone explicitly"
                    )
                zone = zones[0]
            else:
                zone = int(config.utm_zone)
            lats = np.array([r.lat for r in records], dtype=float)
            lons = np.array([r.lon for r in records], dtype=float)
            xs_arr, ys_arr = projection.project_many(lats, lons, zone)
            xs = [float(v) for v in xs_arr]
            ys = [float(v) for v in ys_arr]
        else:
            xs, ys = [], []
    else:
        xs = [r.easting for r in records]
        ys = [r.northing for r in records]

    epoch: datetime | None = None
    accepted: list[Event] = []
    n_range = 0
    if records:
        epoch = min(r.timestamp for r in records)
        window = config.window
        for r, x, y in zip(records, xs, ys):
            t = (r.timestamp - epoch).total_seconds() / 86400.0
            xr, yr, tr = round_coord(x), round_coord(y), round_time(t)
            if not window.contains(xr, yr, tr):
                rejects.append((r.source_line, REASON_RANGE))
                n_range += 1
                continue
            accepted.append(Event(len(accepted), xr, yr, tr, r.category))

    events = deduplicate(accepted)
    rejects.sort()

    categories: dict[str, int] = {}
    for e in events:
        categories[e.category] = categories.get(e.category, 0) + 1
    span = round_time(events[-1].t - events[0].t) if events else 0.0
    summary = {
        "schema_version": SCHEMA_VERSION,
        "input": Path(path).name,
        "coordinate_mode": config.coordinate_mode,
        "utm_zone": zone,
        "rows": rows_total,
        "parsed": rows_total - len(parse_rejects),
        "rejected": {
            "parse": len(parse_rejects),
            "coordinate": n_coordinate,
            "range": n_range,
            "total": len(rejects),
        },
        "filtered_category": n_category,
        "accepted": len(accepted),
        "duplicates_removed": len(accepted) - len(events),
        "events": len(events),
        "categories": categories,
        "epoch": epoch.strftime("%Y-%m-%d %H:%M:%S") if epoch else None,
        "time_span_days": span,
        "warn_high_reject": 2 * len(parse_rejects) > rows_total > 0,
    }
    return IngestResult(events, rejects, summary)


def write_events_csv(events: list[Event], path) -> None:
    """Write the cleaned-events CSV (x, y to 3 decimals; t to 6)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EVENTS_HEADER)
        for e in events:
            writer.writerow(
                [e.id, _fmt(e.x, 3), _fmt(e.y, 3), _fmt(e.t, 6), e.category, e.multiplicity]
            )


def read_events_csv(path) -> list[Event]:
    """Load a cleaned-events CSV written by :func:`write_events_csv`."""
    events: list[Event] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            events.append(
                Event(
                    id=int(row["id"]),
                    x=float(row["x"]),
                    y=float(row["y"]),
                    t=float(row["t"]),
                    category=row["category"],
                    multiplicity=int(row["multiplicity"]),
                )
            )
    return events


def write_rejects_csv(rejects: list[tuple[int, str]], path) -> None:
    """Write the reject ledger: one (line, reason) row per rejected line."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("line", "reason"))
        for line_no, reason in sorted(rejects):
            writer.writerow((line_no, reason))
