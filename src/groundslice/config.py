"""Run configuration: dataclasses for every tunable, INI-style load/dump.

A run is reproducible from its config plus inputs alone, so every knob the
algorithms expose lives here and every manifest echoes the full effective
config in the same flat key=value format.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields

from .kitti_io import GROUND_CLASS_PRESETS


BACKENDS = ("process", "serial")  # parallel.backend
PARITIES = ("even", "odd")  # ssl.parity
# depth.smoothing_window: smoothing weights are tabled per validity pattern,
# 2**window columns, 832 KiB at 13
MAX_SMOOTHING_WINDOW = 13


@dataclass
class ProjectionConfig:
    """Spherical projection geometry for mechanical scans (HDL-64E defaults)."""

    rows: int = 64
    cols: int = 1024
    vertical_top_deg: float = 2.0
    vertical_bottom_deg: float = -24.8

    @property
    def vertical_span(self) -> tuple[float, float]:
        return (math.radians(self.vertical_top_deg), math.radians(self.vertical_bottom_deg))


@dataclass
class DepthConfig:
    """Range-image depth-ground segmentation parameters."""

    seed_threshold_deg: float = 5.0
    propagation_threshold_deg: float = 5.0
    smoothing_window: int = 5
    smoothing_order: int = 2
    sensor_height: float = 1.73

    @property
    def seed_threshold(self) -> float:
        return math.radians(self.seed_threshold_deg)

    @property
    def propagation_threshold(self) -> float:
        return math.radians(self.propagation_threshold_deg)


@dataclass
class RansacConfig:
    """Plane-consensus ground segmentation parameters."""

    iterations: int = 200
    dist_threshold: float = 0.2
    max_normal_tilt_deg: float = 15.0

    @property
    def max_normal_tilt(self) -> float:
        return math.radians(self.max_normal_tilt_deg)


@dataclass
class SmrfConfig:
    """Morphological-filter ground segmentation parameters."""

    cell_size: float = 0.5
    max_window_radius: int = 18
    slope: float = 0.15
    elevation_threshold: float = 0.5
    elevation_scale: float = 1.25


@dataclass
class DatasetConfig:
    """Scan/label ingestion options."""

    ground_classes: str = "default"  # "default" or "extended"


@dataclass
class SslConfig:
    """Raw solid-state frame decoding options."""

    parity: str = "even"  # rows with this 0-based parity are reversed
    sensor_height: float = 1.0


@dataclass
class ParallelConfig:
    """Slice execution options, and the warm-up and repeat counts of `bench`."""

    backend: str = "process"  # "process" (P-1 worker subprocesses) or "serial" (inline)
    bench_repeats: int = 11
    bench_warmup: int = 3


@dataclass
class RunConfig:
    """Bundle of all sections; the single object handed to drivers."""

    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    depth: DepthConfig = field(default_factory=DepthConfig)
    ransac: RansacConfig = field(default_factory=RansacConfig)
    smrf: SmrfConfig = field(default_factory=SmrfConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    ssl: SslConfig = field(default_factory=SslConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)


_SECTIONS = {
    "projection": ProjectionConfig,
    "depth": DepthConfig,
    "ransac": RansacConfig,
    "smrf": SmrfConfig,
    "dataset": DatasetConfig,
    "ssl": SslConfig,
    "parallel": ParallelConfig,
}


def default_config() -> RunConfig:
    return RunConfig()


def dump_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig to the flat sectioned key=value text format."""
    parser = configparser.ConfigParser()
    for section, _ in _SECTIONS.items():
        sub = getattr(cfg, section)
        parser[section] = {f.name: repr(getattr(sub, f.name)) for f in fields(sub)}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_config(cfg))


def load_config(path) -> RunConfig:
    """Load a config file, overlaying values onto the defaults.

    Unknown sections or keys, enum values outside their choices and numbers
    out of range (NaN included) are rejected, so typos do not silently fall
    back to defaults or fail mid-run.
    """
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    cfg = default_config()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        sub = getattr(cfg, section)
        known = {f.name: f.type for f in fields(sub)}
        for key, raw in parser[section].items():
            if key not in known:
                raise ValueError(f"unknown config key {section}.{key}")
            current = getattr(sub, key)
            setattr(sub, key, _parse_value(raw, type(current)))
    for key, value, allowed in (("parallel.backend", cfg.parallel.backend, BACKENDS),
                                ("ssl.parity", cfg.ssl.parity, PARITIES),
                                ("dataset.ground_classes", cfg.dataset.ground_classes,
                                 GROUND_CLASS_PRESETS)):
        if value not in allowed:
            raise ValueError(f"{key} must be one of {', '.join(allowed)}, got {value!r}")
    for key, value, low, closed in (
            ("projection.rows", cfg.projection.rows, 1, True),
            ("projection.cols", cfg.projection.cols, 1, True),
            ("depth.seed_threshold_deg", cfg.depth.seed_threshold_deg, 0, False),
            ("depth.propagation_threshold_deg", cfg.depth.propagation_threshold_deg, 0, False),
            ("smrf.cell_size", cfg.smrf.cell_size, 0, False),
            ("smrf.max_window_radius", cfg.smrf.max_window_radius, 1, True),
            ("smrf.slope", cfg.smrf.slope, 0, True),
            ("smrf.elevation_threshold", cfg.smrf.elevation_threshold, 0, True),
            ("smrf.elevation_scale", cfg.smrf.elevation_scale, 0, True),
            ("ransac.iterations", cfg.ransac.iterations, 1, True),
            ("ransac.dist_threshold", cfg.ransac.dist_threshold, 0, False),
            ("parallel.bench_repeats", cfg.parallel.bench_repeats, 1, True),
            ("parallel.bench_warmup", cfg.parallel.bench_warmup, 0, True)):
        if not (value >= low if closed else value > low):  # NaN fails too
            raise ValueError(f"{key} must be {'>=' if closed else '>'} {low}, got {value}")
    top, bottom = cfg.projection.vertical_top_deg, cfg.projection.vertical_bottom_deg
    if not top > bottom:
        raise ValueError("projection.vertical_top_deg must be above vertical_bottom_deg, "
                         f"got {top} and {bottom}")
    tilt = cfg.ransac.max_normal_tilt_deg
    if not 0 <= tilt <= 90:
        raise ValueError(f"ransac.max_normal_tilt_deg must be in 0..90, got {tilt}")
    window, order = cfg.depth.smoothing_window, cfg.depth.smoothing_order
    if window < 3 or window % 2 == 0 or window > MAX_SMOOTHING_WINDOW:
        raise ValueError("depth.smoothing_window must be an odd integer in 3.."
                         f"{MAX_SMOOTHING_WINDOW}, got {window}")
    if not 1 <= order < window:
        raise ValueError("depth.smoothing_order must satisfy 1 <= order < smoothing_window,"
                         f" got {order}")
    return cfg


def _parse_value(raw: str, kind: type):
    raw = raw.strip()
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    return raw.strip("'\"")
