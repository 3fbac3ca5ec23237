"""Knox space-time contingency test with Monte-Carlo significance.

Every unordered event pair is binned by Euclidean distance and absolute time
separation into a contingency table.  Cell significance comes from comparing
the observed table against tables recomputed under random permutations of the
time stamps (spatial positions fixed), which preserves both marginal
processes while breaking any space-time linkage.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .common import SCHEMA_VERSION

OVERFLOW_POLICIES = ("clamp", "drop")


class MarginError(RuntimeError):
    """A permutation round changed the observed table's spatial margins."""


@dataclass(frozen=True)
class KnoxConfig:
    """Binning and significance parameters for the Knox test."""

    distance_step: float = 100.0
    time_step: float = 14.0
    distance_bins: int | None = None  # None: cover the widest observed pair
    time_bins: int | None = None
    permutations: int = 99
    seed: int = 0
    overflow: str = "clamp"  # or "drop": pairs beyond the last bin

    def validate(self) -> None:
        if not (self.distance_step > 0 and self.time_step > 0):
            raise ValueError("distance_step and time_step must be positive")
        for name in ("distance_bins", "time_bins"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.permutations < 0:
            raise ValueError("permutations must be >= 0")
        if self.overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {OVERFLOW_POLICIES}, got {self.overflow!r}"
            )


@dataclass
class KnoxTable:
    """Observed contingency table plus the fully resolved configuration."""

    observed: np.ndarray  # (distance_bins, time_bins) int64
    config: KnoxConfig  # bins resolved to concrete ints
    n_events: int
    dropped_pairs: int = 0

    @property
    def total_pairs(self) -> int:
        return self.n_events * (self.n_events - 1) // 2


def _extract_xyt(events) -> np.ndarray:
    """Accept a list of Event-likes (.x/.y/.t) or an (n, 3) array."""
    arr = np.asarray(events, dtype=np.float64) if not isinstance(events, list) else None
    if arr is not None and arr.ndim == 2 and arr.shape[1] == 3:
        return arr
    return np.array([(e.x, e.y, e.t) for e in events], dtype=np.float64).reshape(-1, 3)


def _chunk_rows(n: int) -> int:
    return max(1, 2_000_000 // max(n, 1))


def _pair_chunks(xyt: np.ndarray):
    """Yield (dist, dt) arrays for the upper triangle, row-chunked."""
    n = len(xyt)
    x, y, t = xyt[:, 0], xyt[:, 1], xyt[:, 2]
    cols = np.arange(n)
    step = _chunk_rows(n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        keep = cols[None, :] > np.arange(start, stop)[:, None]
        dist = np.hypot(
            x[start:stop, None] - x[None, :], y[start:stop, None] - y[None, :]
        )[keep]
        dt = np.abs(t[start:stop, None] - t[None, :])[keep]
        yield dist, dt


def _resolve_bins(xyt: np.ndarray, config: KnoxConfig) -> KnoxConfig:
    """Fill in bin counts left unset, covering the widest observed pair."""
    db, tb = config.distance_bins, config.time_bins
    if db is not None and tb is not None:
        return config
    max_d = 0.0
    max_t = 0.0
    for dist, dt in _pair_chunks(xyt):
        if len(dist):
            max_d = max(max_d, float(dist.max()))
            max_t = max(max_t, float(dt.max()))
    if db is None:
        db = max(1, math.ceil(max_d / config.distance_step))
    if tb is None:
        tb = max(1, math.ceil(max_t / config.time_step))
    return dataclasses.replace(config, distance_bins=db, time_bins=tb)


def _accumulate(xyt: np.ndarray, times: np.ndarray, config: KnoxConfig):
    """Bin all pairs under the given time stamps; return (table, dropped)."""
    db, tb = config.distance_bins, config.time_bins
    shifted = xyt.copy()
    shifted[:, 2] = times
    counts = np.zeros(db * tb, dtype=np.int64)
    dropped = 0
    for dist, dt in _pair_chunks(shifted):
        bi = np.floor(dist / config.distance_step).astype(np.int64)
        bj = np.floor(dt / config.time_step).astype(np.int64)
        if config.overflow == "clamp":
            np.minimum(bi, db - 1, out=bi)
            np.minimum(bj, tb - 1, out=bj)
        else:
            inside = (bi < db) & (bj < tb)
            dropped += int(len(bi) - inside.sum())
            bi, bj = bi[inside], bj[inside]
        if len(bi):
            counts += np.bincount(bi * tb + bj, minlength=db * tb)
    return counts.reshape(db, tb), dropped


def build_table(events, config: KnoxConfig | None = None) -> KnoxTable:
    """Bin every unordered event pair by distance and time separation."""
    config = config or KnoxConfig()
    config.validate()
    xyt = _extract_xyt(events)
    if len(xyt) < 2:
        raise ValueError("Knox table needs at least 2 events")
    config = _resolve_bins(xyt, config)
    observed, dropped = _accumulate(xyt, xyt[:, 2], config)
    return KnoxTable(observed, config, len(xyt), dropped)


def expected_and_residuals(table: KnoxTable):
    """Independence-model expectations and Pearson residuals.

    Expected cell counts are row_margin * column_margin / table_total, so the
    expected table always conserves the observed margins.  Residuals are
    (observed - expected) / sqrt(expected), zero where the expectation is.
    """
    obs = table.observed.astype(np.float64)
    total = obs.sum()
    if total == 0:
        zeros = np.zeros_like(obs)
        return zeros, zeros.copy()
    expected = obs.sum(axis=1)[:, None] * obs.sum(axis=0)[None, :] / total
    residuals = np.zeros_like(obs)
    nz = expected > 0
    residuals[nz] = (obs[nz] - expected[nz]) / np.sqrt(expected[nz])
    return expected, residuals


def monte_carlo(
    events,
    table: KnoxTable,
    config: KnoxConfig | None = None,
    workers: int = 1,
    permute: Callable[[int, int], np.ndarray] | None = None,
) -> np.ndarray:
    """Per-cell upper-tail p-values from time-permutation rounds.

    Round r draws its permutation from ``default_rng(seed + r)`` (or from the
    ``permute(r, n)`` hook when given), so results are identical for any
    worker count.  p = (1 + #{rounds with cell >= observed}) / (rounds + 1).
    """
    config = config or table.config
    xyt = _extract_xyt(events)
    times = xyt[:, 2]
    n = len(xyt)
    rounds = config.permutations

    def one_round(r: int):
        if permute is not None:
            perm = np.asarray(permute(r, n), dtype=np.int64)
        else:
            perm = np.random.default_rng(config.seed + r).permutation(n)
        sim, _ = _accumulate(xyt, times[perm], table.config)
        if table.config.overflow == "clamp":
            # distances never change, so spatial margins must be conserved
            if not np.array_equal(sim.sum(axis=1), table.observed.sum(axis=1)):
                raise MarginError("permutation round broke spatial margins")
        return sim >= table.observed

    ge = np.zeros(table.observed.shape, dtype=np.int64)
    if workers <= 1:
        for r in range(rounds):
            ge += one_round(r)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for hit in pool.map(one_round, range(rounds)):
                ge += hit
    return (1.0 + ge) / (rounds + 1.0)


# -------------------------------------------------------------------- output


def _labels(nbins: int, step: float) -> list[str]:
    return [f"[{i * step:g}..{(i + 1) * step:g})" for i in range(nbins)]


def _write_grid(path: Path, table: KnoxTable, values: np.ndarray, as_int: bool) -> None:
    cfg = table.config
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["distance"] + _labels(cfg.time_bins, cfg.time_step))
        for i, row_label in enumerate(_labels(cfg.distance_bins, cfg.distance_step)):
            row = [
                str(int(v)) if as_int else f"{float(v):.12g}" for v in values[i]
            ]
            w.writerow([row_label] + row)


def emit_heatmap(
    outdir,
    table: KnoxTable,
    expected: np.ndarray,
    residuals: np.ndarray,
    pvalues: np.ndarray | None = None,
) -> dict:
    """Write observed/expected/residuals (and p-values) grids plus metadata."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_grid(outdir / "observed.csv", table, table.observed, as_int=True)
    _write_grid(outdir / "expected.csv", table, expected, as_int=False)
    _write_grid(outdir / "residuals.csv", table, residuals, as_int=False)
    if pvalues is not None:
        _write_grid(outdir / "pvalues.csv", table, pvalues, as_int=False)
    cfg = table.config
    meta = {
        "schema_version": SCHEMA_VERSION,
        "events": table.n_events,
        "total_pairs": table.total_pairs,
        "binned_pairs": int(table.observed.sum()),
        "dropped_pairs": table.dropped_pairs,
        "distance_step": cfg.distance_step,
        "time_step": cfg.time_step,
        "distance_bins": cfg.distance_bins,
        "time_bins": cfg.time_bins,
        "overflow": cfg.overflow,
        "permutations": cfg.permutations if pvalues is not None else 0,
        "seed": cfg.seed,
    }
    with open(outdir / "knox_meta.json", "w") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return meta


def load_grid(path) -> np.ndarray:
    """Read back a grid CSV written by emit_heatmap (labels discarded)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row[1:]] for row in rows[1:]])
