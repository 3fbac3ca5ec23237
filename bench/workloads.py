"""Benchmark workloads: seeded input generators and the CLI stages they run.

Every input comes from ``numpy.random.default_rng`` seeded with the workload
index and the ``--seed`` argument, so one seed always gives the same CSV.  The
generator also returns what a correct ingest must produce (row, reject and
duplicate counts, the reject line numbers and the cleaned event table), so the
output checks never take their expected values from the code under test.

Geographic inputs are made by this file's own inverse UTM series (the USGS
footpoint-latitude formulas), not by ``nearchain.projection``, so a change to
the projection module cannot change the inputs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date

import numpy as np

#: Worker threads passed to every stage.  Pinned so the numbers do not depend
#: on ``os.cpu_count()``; equal to ``nproc`` on the 2-core reference machine.
WORKERS = 2

_BASE_YEAR = 2019  # second 0 of every input is New Year 2019, 00:00:00
BLOB_GAP_M = 400.0
BLOB_GAP_D = 30.0
EDGE_SIGMAS = 4.0
CATEGORIES = ("burglary", "theft", "vandalism", "assault")
R_X = R_Y = 100.0
R_T = 10.0
PAIR_ARGS = ["--r-x", f"{R_X:g}", "--r-y", f"{R_Y:g}", "--r-t", f"{R_T:g}"]
K_MIN = 3  # the CLI default, relied on by the decompose checks
METHODS = ("core", "truss", "dbscan", "clique")
KNOX_DISTANCE_STEP = 100.0
KNOX_TIME_STEP = 14.0
KNOX_ARGS = ["--distance-step", f"{KNOX_DISTANCE_STEP:g}", "--time-step", f"{KNOX_TIME_STEP:g}"]


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape plus the stage list run on it."""

    name: str
    params: dict
    stages: tuple[tuple[str, ...], ...]  # argv after the subcommand's shared flags

    @property
    def geographic(self) -> bool:
        return self.params.get("utm_zone") is not None

    def stage_names(self) -> list[str]:
        return [s[0] for s in self.stages]


def knox_permutations(workload: Workload) -> int:
    """The ``--permutations`` value of the workload's knox stage."""
    (stage,) = [s for s in workload.stages if s[0] == "knox"]
    return int(stage[stage.index("--permutations") + 1])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="city-sparse",
            params=dict(
                background=9_500,
                blobs=55,
                blob_size=14,
                extent_x=12_000.0,
                extent_y=12_000.0,
                days=365.0,
                sigma_xy=40.0,
                sigma_t=2.0,
                malformed=0.005,
                duplicates=0.005,
                utm_zone=33,
                origin_easting=490_000.0,
                origin_northing=5_300_000.0,
            ),
            stages=(
                ("ingest", "--coordinate-mode", "geographic"),
                ("pairs", *PAIR_ARGS),
                ("stats",),
                ("decompose", "--methods", "core,truss,dbscan,clique", "--members"),
                ("report",),
            ),
        ),
        Workload(
            name="hotspot-dense",
            params=dict(
                background=800,
                blobs=5,
                blob_size=50,
                extent_x=2_500.0,
                extent_y=2_500.0,
                days=180.0,
                sigma_xy=36.0,
                sigma_t=3.0,
                malformed=0.005,
                duplicates=0.005,
            ),
            stages=(
                ("ingest",),
                ("pairs", *PAIR_ARGS),
                ("stats",),
                ("decompose", "--methods", "core,truss,dbscan,clique", "--members"),
                ("knox", *KNOX_ARGS, "--permutations", "0"),
                ("report",),
            ),
        ),
        Workload(
            name="knox-mc",
            params=dict(
                background=1_400,
                blobs=10,
                blob_size=30,
                extent_x=4_000.0,
                extent_y=4_000.0,
                days=365.0,
                sigma_xy=50.0,
                sigma_t=3.0,
                malformed=0.005,
                duplicates=0.005,
            ),
            stages=(
                ("ingest",),
                ("pairs", *PAIR_ARGS),
                ("knox", *KNOX_ARGS, "--permutations", "99"),
                ("report",),
            ),
        ),
    )
}


@dataclass
class Expected:
    """What a correct ingest of the generated CSV must report."""

    rows: int
    reject_lines: list[int]
    duplicates: int
    # cleaned events sorted by (t, x, y, category): x, y in meters, t in days
    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    category: list[str]

    @property
    def events(self) -> int:
        return len(self.t)


# ------------------------------------------------------------- inverse UTM

_A = 6378137.0
_F = 1.0 / 298.257223563
_K0 = 0.9996
_E2 = _F * (2.0 - _F)
_EP2 = _E2 / (1.0 - _E2)
_E1 = (1.0 - math.sqrt(1.0 - _E2)) / (1.0 + math.sqrt(1.0 - _E2))


def utm_inverse(easting: np.ndarray, northing: np.ndarray, zone: int):
    """Northern-hemisphere UTM metres to (lat, lon) degrees, Snyder's series.

    Good to well under a millimetre within a few tens of kilometres of the
    central meridian, which is where the generated city lies.
    """
    x = np.asarray(easting, float) - 500_000.0
    m = np.asarray(northing, float) / _K0
    mu = m / (_A * (1 - _E2 / 4 - 3 * _E2**2 / 64 - 5 * _E2**3 / 256))
    phi1 = (
        mu
        + (3 * _E1 / 2 - 27 * _E1**3 / 32) * np.sin(2 * mu)
        + (21 * _E1**2 / 16 - 55 * _E1**4 / 32) * np.sin(4 * mu)
        + (151 * _E1**3 / 96) * np.sin(6 * mu)
        + (1097 * _E1**4 / 512) * np.sin(8 * mu)
    )
    s, c, tn = np.sin(phi1), np.cos(phi1), np.tan(phi1)
    c1 = _EP2 * c * c
    t1 = tn * tn
    n1 = _A / np.sqrt(1 - _E2 * s * s)
    r1 = _A * (1 - _E2) / (1 - _E2 * s * s) ** 1.5
    d = x / (n1 * _K0)
    lat = phi1 - (n1 * tn / r1) * (
        d**2 / 2
        - (5 + 3 * t1 + 10 * c1 - 4 * c1**2 - 9 * _EP2) * d**4 / 24
        + (61 + 90 * t1 + 298 * c1 + 45 * t1**2 - 252 * _EP2 - 3 * c1**2) * d**6 / 720
    )
    lon = (
        d
        - (1 + 2 * t1 + c1) * d**3 / 6
        + (5 - 2 * c1 + 28 * t1 - 3 * c1**2 + 8 * _EP2 + 24 * t1**2) * d**5 / 120
    ) / c
    return np.degrees(lat), zone * 6.0 - 183.0 + np.degrees(lon)


# --------------------------------------------------------------- generator


def _timestamp(second: int) -> str:
    days, rem = divmod(int(second), 86400)
    d = date.fromordinal(date(_BASE_YEAR, 1, 1).toordinal() + days)
    return f"{d.isoformat()} {rem // 3600:02d}:{rem % 3600 // 60:02d}:{rem % 60:02d}"


def _spread(rng, sigma: float, size: int) -> np.ndarray:
    """Normal offsets rescaled to mean 0 and standard deviation ``sigma`` exactly."""
    z = rng.normal(0.0, 1.0, size)
    return sigma * (z - z.mean()) / z.std()


def generate(workload: Workload, seed: int, path) -> Expected:
    """Write the workload's raw CSV for ``seed`` and return the expected ingest."""
    p = workload.params
    index = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([index, seed])

    nb = p["background"]
    xs = [rng.uniform(0.0, p["extent_x"], nb)]
    ys = [rng.uniform(0.0, p["extent_y"], nb)]
    ts = [rng.uniform(0.0, p["days"], nb)]
    centers: list[tuple[float, float, float]] = []
    mxy, mt = EDGE_SIGMAS * p["sigma_xy"], EDGE_SIGMAS * p["sigma_t"]
    while len(centers) < p["blobs"]:
        # centres keep 4 sigma from the edges: a blob clipped onto an edge piles
        # its events up there and is much denser than the others
        cx = rng.uniform(mxy, p["extent_x"] - mxy)
        cy = rng.uniform(mxy, p["extent_y"] - mxy)
        ct = rng.uniform(mt, p["days"] - mt)
        # keep blobs apart so no seed merges two of them into one much denser
        # blob, which would make the cohesive work swing from seed to seed
        if any(
            max(abs(cx - bx), abs(cy - by)) < BLOB_GAP_M and abs(ct - bt) < BLOB_GAP_D
            for bx, by, bt in centers
        ):
            continue
        centers.append((cx, cy, ct))
        xs.append(cx + _spread(rng, p["sigma_xy"], p["blob_size"]))
        ys.append(cy + _spread(rng, p["sigma_xy"], p["blob_size"]))
        ts.append(ct + _spread(rng, p["sigma_t"], p["blob_size"]))
    x = np.clip(np.concatenate(xs), 0.0, p["extent_x"])
    y = np.clip(np.concatenate(ys), 0.0, p["extent_y"])
    sec = np.round(np.clip(np.concatenate(ts), 0.0, p["days"]) * 86400.0).astype(np.int64)
    n = len(x)
    cat = rng.integers(0, len(CATEGORIES), n)

    geographic = workload.geographic
    if geographic:
        east = p["origin_easting"] + x
        north = p["origin_northing"] + y
        lat, lon = utm_inverse(east, north, p["utm_zone"])
        c0 = [f"{v:.9f}" for v in lat]
        c1 = [f"{v:.9f}" for v in lon]
        true_x, true_y = east, north
        header = ["lat", "lon", "time", "category"]
    else:
        c0 = [f"{v:.3f}" for v in x]
        c1 = [f"{v:.3f}" for v in y]
        true_x = np.array([float(s) for s in c0])
        true_y = np.array([float(s) for s in c1])
        header = ["x", "y", "time", "category"]
    stamps = [_timestamp(s) for s in sec]
    rows = [[c0[i], c1[i], stamps[i], CATEGORIES[cat[i]]] for i in range(n)]

    # exact duplicates of distinct rows, and malformed rows, at random places
    n_dup = int(round(p["duplicates"] * n))
    n_bad = int(round(p["malformed"] * n))
    dup_src = rng.choice(n, n_dup, replace=False)
    bad_rows = []
    for j in range(n_bad):
        base = list(rows[int(rng.integers(n))])
        if j % 2 == 0:
            base[2] = base[2][:5] + "02-30" + base[2][10:]  # no such date
        else:
            base[int(rng.integers(4))] = ""  # missing field
        bad_rows.append(base)
    extra = [(list(rows[i]), False) for i in dup_src] + [(r, True) for r in bad_rows]
    order = rng.permutation(n + len(extra))
    body: list[list[str]] = []
    reject_lines: list[int] = []
    all_rows = [(r, False) for r in rows] + extra
    for k in order:
        row, bad = all_rows[k]
        if bad:
            reject_lines.append(len(body) + 2)  # header is line 1
        body.append(row)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(body)

    t_days = (sec - sec.min()) / 86400.0
    t_clean = np.array([float(f"{v:.6f}") for v in t_days])
    keys = np.lexsort((true_y, true_x, t_clean))
    return Expected(
        rows=len(body),
        reject_lines=sorted(reject_lines),
        duplicates=n_dup,
        x=true_x[keys],
        y=true_y[keys],
        t=t_clean[keys],
        category=[CATEGORIES[cat[i]] for i in keys],
    )
