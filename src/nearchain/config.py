"""Pipeline configuration: one INI-style file, flag overrides on top.

Sections: [run] (output, workers), [ingest], [pairs], [decompose], [knox].
Every value has a default, so an absent file or section still yields a full
configuration; command-line flags override file values field by field.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .cohesive import DEFAULT_K_MIN, DEFAULT_MAX_CLIQUES
from .common import ENV_OUTPUT_DIR
from .events import IngestConfig, RangeWindow
from .knox import KnoxConfig

ALL_METHODS = ("core", "truss", "dbscan", "clique")


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
