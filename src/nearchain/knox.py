"""Knox space-time contingency test with Monte-Carlo significance.

Every unordered event pair is binned by Euclidean distance and absolute time
separation into a contingency table.  Cell significance comes from comparing
the observed table against tables recomputed under random permutations of the
time stamps (spatial positions fixed), which preserves both marginal
processes while breaking any space-time linkage.

Positions never move under a time permutation, so one kernel serves the
observed table and every permutation round: it walks the pairs in row chunks,
bins each chunk's distances once, and then bins the chunk's time gaps once per
round, with the rounds split between worker threads.  The observed table is
the identity round.  Memory stays per chunk; only the round tables and the
stacked round times grow with the number of rounds.
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

from .common import SCHEMA_VERSION, MarginError
from .config import OVERFLOW_POLICIES, KnoxConfig  # noqa: F401  (re-exported)


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


def _check_xyt(xyt) -> np.ndarray:
    """The events as an (n, 3) float array of (x, y, t) rows."""
    arr = np.asarray(xyt, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected events of shape (n, 3) holding (x, y, t), got {arr.shape}")
    return arr


def _chunk_rows(n_cols: int) -> int:
    """Rows per chunk, so that a chunk's pair block stays cache-sized."""
    return max(1, 65_536 // max(n_cols, 1))


def _blocks(xyt: np.ndarray):
    """Yield (rows, cols, dist) row chunks of the pairwise distance matrix.

    A chunk holds rows ``start:stop`` against columns ``start:n``, so every
    pair (i, j) with i < j falls in exactly one chunk, above its diagonal;
    entries on or below the diagonal are not pairs.
    """
    n = len(xyt)
    x, y = xyt[:, 0], xyt[:, 1]
    start = 0
    while start < n:
        stop = min(start + _chunk_rows(n - start), n)
        dist = np.hypot(
            x[start:stop, None] - x[None, start:], y[start:stop, None] - y[None, start:]
        )
        yield slice(start, stop), slice(start, n), dist
        start = stop


def _resolve_bins(xyt: np.ndarray, config: KnoxConfig) -> KnoxConfig:
    """Fill in bin counts left unset, covering the widest observed pair."""
    db, tb = config.distance_bins, config.time_bins
    if db is not None and tb is not None:
        return config
    if db is None:
        max_d = max(float(dist.max()) for _, _, dist in _blocks(xyt))
        db = max(1, math.ceil(max_d / config.distance_step))
    if tb is None:
        # rounded subtraction is monotone, so no pair's gap exceeds this one
        t = xyt[:, 2]
        tb = max(1, math.ceil(float(t.max() - t.min()) / config.time_step))
    return dataclasses.replace(config, distance_bins=db, time_bins=tb)


def _accumulate(
    xyt: np.ndarray, times: np.ndarray, config: KnoxConfig, workers: int = 1
) -> np.ndarray:
    """Bin all pairs under each round's time stamps; return (rounds, db, tb) tables.

    ``times`` is (rounds, n), one row of time stamps per round.  Each row
    chunk bins its distances once and then runs every round over them, the
    rounds split between ``workers`` threads.  Block entries that are not
    pairs, and under ``drop`` the pairs past the last bin, are counted in a
    sentinel row or column that is cut off at the end.
    """
    db, tb = config.distance_bins, config.time_bins
    cap_d, cap_t = (db - 1, tb - 1) if config.overflow == "clamp" else (db, tb)
    width = tb + 1
    try:
        counts = np.zeros((len(times), (db + 1) * width), dtype=np.int64)
    except (MemoryError, ValueError):  # ValueError: past numpy's largest array
        raise ValueError(
            f"no memory for a Knox table of {db} distance bins x {tb} time bins"
            f" over {len(times)} round(s): raise distance_step / time_step"
            " or set distance_bins / time_bins"
        ) from None
    workers = max(1, min(workers, len(times)))

    def run(rounds: range, rows: slice, cols: slice, cell: np.ndarray) -> None:
        dt = np.empty(cell.shape)
        bins = np.empty(cell.shape, dtype=np.int64)
        for r in rounds:
            t = times[r]
            np.subtract(t[rows, None], t[None, cols], out=dt)
            np.abs(dt, out=dt)
            np.divide(dt, config.time_step, out=dt)
            np.copyto(bins, dt, casting="unsafe")  # truncation: floor, as dt >= 0
            np.minimum(bins, cap_t, out=bins)
            bins += cell
            counts[r] += np.bincount(bins.ravel(), minlength=counts.shape[1])

    groups = [range(w, len(times), workers) for w in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for rows, cols, dist in _blocks(xyt):
            dist /= config.distance_step
            cell = dist.astype(np.int64)
            np.minimum(cell, cap_d, out=cell)
            cell *= width
            cell[np.tri(*cell.shape, dtype=bool)] = db * width
            list(pool.map(lambda g: run(g, rows, cols, cell), groups))
    return counts.reshape(-1, db + 1, width)[:, :db, :tb]


def build_table(xyt, config: KnoxConfig | None = None) -> KnoxTable:
    """Bin every unordered pair of the (n, 3) events by distance and time gap."""
    config = config or KnoxConfig()
    config.validate()
    xyt = _check_xyt(xyt)
    if len(xyt) < 2:
        raise ValueError("Knox table needs at least 2 events")
    config = _resolve_bins(xyt, config)
    # the observed table is the identity round of the permutation kernel
    (observed,) = _accumulate(xyt, xyt[None, :, 2], config)
    n = len(xyt)
    return KnoxTable(observed, config, n, n * (n - 1) // 2 - int(observed.sum()))


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
    xyt,
    table: KnoxTable,
    *,
    workers: int = 1,
    permute: Callable[[int, int], np.ndarray] | None = None,
) -> np.ndarray:
    """Per-cell upper-tail p-values from time-permutation rounds.

    Round r draws its permutation from ``default_rng(seed + r)`` (or from the
    ``permute(r, n)`` hook when given).  All rounds run through one kernel that
    goes chunk by chunk over the pair rows: a chunk bins its distances once,
    then ``workers`` threads split the rounds over it, each round counting
    into its own table, so results are identical for any worker count.
    p = (1 + #{rounds with cell >= observed}) / (rounds + 1).
    """
    config = table.config
    xyt = _check_xyt(xyt)
    n = len(xyt)
    if n != table.n_events:
        raise ValueError(f"got {n} events for a Knox table built from {table.n_events}")
    rounds = config.permutations
    times = np.empty((rounds, n))
    for r in range(rounds):
        if permute is not None:
            perm = np.asarray(permute(r, n), dtype=np.int64)
        else:
            perm = np.random.default_rng(config.seed + r).permutation(n)
        times[r] = xyt[perm, 2]
    sims = _accumulate(xyt, times, config, workers)
    if config.overflow == "clamp":
        # distances never change, so spatial margins must be conserved
        if not np.all(sims.sum(axis=2) == table.observed.sum(axis=1)):
            raise MarginError("permutation round broke spatial margins")
    ge = (sims >= table.observed).sum(axis=0)
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
    else:  # a run with permutations may have left one behind
        (outdir / "pvalues.csv").unlink(missing_ok=True)
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
