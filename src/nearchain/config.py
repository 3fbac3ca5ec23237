"""Pipeline configuration: one INI-style file, flag overrides on top.

Sections: [run] (output, workers), [ingest], [pairs], [decompose], [knox].
Every value has a default, so an absent file or section still yields a full
configuration; command-line flags override file values field by field.

This module imports only the standard library, so the CLI can parse its
arguments and configuration without numpy.  The stage settings that
``events``, ``cohesive`` and ``knox`` use live here and are re-exported there.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .common import ENV_OUTPUT_DIR

ALL_METHODS = ("core", "truss", "dbscan", "clique")
OVERFLOW_POLICIES = ("clamp", "drop")
DEFAULT_K_MIN = 3
DEFAULT_MAX_CLIQUES = 10_000_000


@dataclass(frozen=True)
class RangeWindow:
    """Closed valid range per axis; events outside any axis are dropped."""

    x: tuple[float, float] = (-math.inf, math.inf)
    y: tuple[float, float] = (-math.inf, math.inf)
    t: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self) -> None:
        for name in ("x", "y", "t"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"range window {name}: min ({lo}) must be < max ({hi})")

    def contains(self, x: float, y: float, t: float) -> bool:
        return (
            self.x[0] <= x <= self.x[1]
            and self.y[0] <= y <= self.y[1]
            and self.t[0] <= t <= self.t[1]
        )


@dataclass
class IngestConfig:
    """Column mapping, coordinate convention, and validation settings."""

    coordinate_mode: str = "planar"  # "planar" | "geographic"
    utm_zone: int | str = "auto"
    time_format: str = "%Y-%m-%d %H:%M:%S"
    window: RangeWindow = field(default_factory=RangeWindow)
    category_filter: frozenset[str] | None = None
    col_x: str = "x"
    col_y: str = "y"
    col_lat: str = "lat"
    col_lon: str = "lon"
    col_time: str = "time"
    col_category: str = "category"

    def __post_init__(self) -> None:
        if self.coordinate_mode not in ("planar", "geographic"):
            raise ValueError(
                f"coordinate_mode must be 'planar' or 'geographic', got {self.coordinate_mode!r}"
            )
        if self.utm_zone != "auto":
            zone = int(self.utm_zone)
            if not 1 <= zone <= 60:
                raise ValueError(f"utm_zone must be 1..60 or 'auto', got {self.utm_zone!r}")


@dataclass
class PairsConfig:
    """Per-axis half-extents of the near-repeat box query."""

    r_x: float = 100.0
    r_y: float = 100.0
    r_t: float = 10.0

    def validate(self) -> None:
        if min(self.r_x, self.r_y, self.r_t) <= 0:
            raise ValueError("pair limits r_x, r_y, r_t must be positive")


@dataclass
class DecomposeConfig:
    """Method selection and shared knobs for the decompose stage."""

    methods: tuple[str, ...] = ALL_METHODS
    k_min: int = DEFAULT_K_MIN
    max_cliques: int = DEFAULT_MAX_CLIQUES
    members: bool = False  # include per-subgraph member ids in reports

    def validate(self) -> None:
        if not self.methods:
            raise ValueError("decompose needs at least one method")
        bad = [m for m in self.methods if m not in ALL_METHODS]
        if bad:
            raise ValueError(f"unknown decompose methods: {bad}")
        if self.k_min < 1:
            raise ValueError("k_min must be >= 1")
        if self.max_cliques < 1:
            raise ValueError("max_cliques must be >= 1")


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
class PipelineConfig:
    """Everything the CLI needs, resolved from file + environment + flags."""

    output: str = "out"
    workers: int = 0  # 0: use the machine's CPU count
    input: str | None = None
    ingest: IngestConfig = field(default_factory=IngestConfig)
    pairs: PairsConfig = field(default_factory=PairsConfig)
    decompose: DecomposeConfig = field(default_factory=DecomposeConfig)
    knox: KnoxConfig = field(default_factory=KnoxConfig)

    @property
    def outdir(self) -> Path:
        return Path(self.output)

    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)


def _window_from(section) -> RangeWindow:
    def bound(key: str, default: float) -> float:
        raw = section.get(key)
        return float(raw) if raw not in (None, "") else default

    d = RangeWindow()
    return RangeWindow(
        x=(bound("x_min", d.x[0]), bound("x_max", d.x[1])),
        y=(bound("y_min", d.y[0]), bound("y_max", d.y[1])),
        t=(bound("t_min", d.t[0]), bound("t_max", d.t[1])),
    )


def _split_list(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def load_config(path=None) -> PipelineConfig:
    """Parse the INI file (or defaults when path is None)."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        read = parser.read(path)
        if not read:
            raise ValueError(f"cannot read config file {path}")
    cfg = PipelineConfig()

    if parser.has_section("run"):
        run = parser["run"]
        cfg.output = run.get("output", cfg.output)
        cfg.workers = run.getint("workers", cfg.workers)

    if parser.has_section("ingest"):
        ing, d = parser["ingest"], cfg.ingest
        cfg.input = ing.get("input", cfg.input)
        zone = ing.get("utm_zone", str(d.utm_zone)).strip()
        cfg.ingest = IngestConfig(
            coordinate_mode=ing.get("coordinate_mode", d.coordinate_mode),
            utm_zone="auto" if zone == "auto" else int(zone),
            time_format=ing.get("time_format", d.time_format),
            window=_window_from(ing),
            category_filter=(
                frozenset(_split_list(ing["category_filter"]))
                if ing.get("category_filter")
                else d.category_filter
            ),
            col_x=ing.get("col_x", d.col_x),
            col_y=ing.get("col_y", d.col_y),
            col_lat=ing.get("col_lat", d.col_lat),
            col_lon=ing.get("col_lon", d.col_lon),
            col_time=ing.get("col_time", d.col_time),
            col_category=ing.get("col_category", d.col_category),
        )

    if parser.has_section("pairs"):
        pr = parser["pairs"]
        cfg.pairs = PairsConfig(
            r_x=pr.getfloat("r_x", cfg.pairs.r_x),
            r_y=pr.getfloat("r_y", cfg.pairs.r_y),
            r_t=pr.getfloat("r_t", cfg.pairs.r_t),
        )

    if parser.has_section("decompose"):
        dc, d = parser["decompose"], cfg.decompose
        cfg.decompose = DecomposeConfig(
            methods=_split_list(dc["methods"]) if dc.get("methods") else d.methods,
            k_min=dc.getint("k_min", d.k_min),
            max_cliques=dc.getint("max_cliques", d.max_cliques),
            members=dc.getboolean("members", d.members),
        )

    if parser.has_section("knox"):
        kn, d = parser["knox"], cfg.knox

        def opt_int(key: str) -> int | None:
            raw = kn.get(key)
            return int(raw) if raw not in (None, "") else getattr(d, key)

        cfg.knox = KnoxConfig(
            distance_step=kn.getfloat("distance_step", d.distance_step),
            time_step=kn.getfloat("time_step", d.time_step),
            distance_bins=opt_int("distance_bins"),
            time_bins=opt_int("time_bins"),
            permutations=kn.getint("permutations", d.permutations),
            seed=kn.getint("seed", d.seed),
            overflow=kn.get("overflow", d.overflow),
        )

    env_out = os.environ.get(ENV_OUTPUT_DIR)
    if env_out:
        cfg.output = env_out
    return cfg


def override(obj, **updates):
    """Apply non-None updates to a dataclass, returning a new instance."""
    current = {f.name: getattr(obj, f.name) for f in fields(obj)}
    current.update({k: v for k, v in updates.items() if v is not None})
    return type(obj)(**current)
