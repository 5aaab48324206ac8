"""The three frame workloads and the one frame pipeline they share.

The reference pass (in the benchmark's checker process) and the timed loop
(in the program process) both call `run_frame`, so a timed frame does exactly
the work whose output the reference pass checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "default.cfg"
RANSAC_SEED = 0  # the CLI's default --seed


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str  # "street" (SemanticKITTI .bin/.label) or "ssl" (.sslraw)
    methods: tuple[str, ...]
    slices: int
    units: int
    pinned: bool = False  # timed launches restricted to one vCPU, workers included


WORKLOADS = {
    "street_depth": Workload("street_depth", "street", ("depth",), 1, 1),
    "street_points": Workload("street_points", "street", ("smrf", "ransac"), 1, 1),
    "ssl_units": Workload("ssl_units", "ssl", ("depth",), 5, 2, pinned=True),
}


def load_run_config(wl: Workload):
    """The default config, with the SSL sensor height as `segment --ssl-file` sets it."""
    from groundslice.config import load_config

    cfg = load_config(CONFIG)
    if wl.inputs == "ssl":
        cfg.depth.sensor_height = cfg.ssl.sensor_height
    return cfg


def load_frame(wl: Workload, path: Path, cfg):
    """Read one input file into a fresh `Frame` (never reused: it caches its projection)."""
    from groundslice import kitti_io, parallel_exec, ssl_frame

    if wl.inputs == "street":
        cloud, _ = kitti_io.load_velodyne_bin(path)
        return parallel_exec.frame_from_cloud(cloud, path.stem)
    raw = ssl_frame.load_sslraw(path)
    return parallel_exec.frame_from_ssl(ssl_frame.decode_ssl_frame(raw, cfg.ssl.parity),
                                        path.stem)


def run_frame(wl: Workload, path: Path, cfg, units: int, executor=None):
    """One whole frame: read, decode or project, segment, merge.

    Returns (point count of the loaded cloud, one mask per method).
    """
    from groundslice.parallel_exec import run_sliced

    frame = load_frame(wl, path, cfg)
    masks = [run_sliced(frame, m, wl.slices, units, cfg, seed=RANSAC_SEED,
                        executor=executor)[0]
             for m in wl.methods]
    return len(frame.cloud), masks


def input_files(wl: Workload, input_dir: Path) -> list[Path]:
    if wl.inputs == "street":
        return sorted(input_dir.glob("sequences/*/velodyne/*.bin"))
    return sorted(input_dir.glob("*.sslraw"))
