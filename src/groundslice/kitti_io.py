"""SemanticKITTI-layout ingestion: velodyne scans, per-point labels, sequences.

Scan files are headerless little-endian float32 quadruples (x, y, z,
intensity); the loader checks all four fields but keeps only xyz, since no
method reads intensity. Label files are one little-endian uint32 per point
whose lower 16 bits carry the semantic class. Ground-related classes are
remapped into a single binary ground-truth mask.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Semantic class ids merged into "ground". The default set covers road,
# parking, sidewalk and other-ground; the extended preset adds lane markings
# and terrain for stricter readings of what counts as ground.
GROUND_CLASSES_DEFAULT = frozenset({40, 44, 48, 49})
GROUND_CLASSES_EXTENDED = frozenset({40, 44, 48, 49, 60, 72})

GROUND_CLASS_PRESETS = {
    "default": GROUND_CLASSES_DEFAULT,
    "extended": GROUND_CLASSES_EXTENDED,
}

_SCAN_RECORD_BYTES = 16  # 4 x float32
_LABEL_RECORD_BYTES = 4  # 1 x uint32


@dataclass(frozen=True)
class PointCloud:
    """Ordered 3D points in meters, read-only.

    Point order is the universal index space: every mask produced downstream
    aligns with it, so no transform may reorder or drop points silently.
    The loaders, `ssl_to_point_cloud`, `make_random_cloud` and `Frame.cloud`
    use it; the segmenters, projection and azimuth slicing take its (N, 3)
    `xyz` array alone.
    """

    xyz: np.ndarray  # (N, 3) float64

    def __post_init__(self):
        xyz = np.ascontiguousarray(self.xyz, dtype=np.float64)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValueError(f"xyz must be (N, 3), got {xyz.shape}")
        xyz.setflags(write=False)
        object.__setattr__(self, "xyz", xyz)

    def __len__(self) -> int:
        return self.xyz.shape[0]


def load_velodyne_bin(path) -> tuple[PointCloud, np.ndarray]:
    """Load a velodyne scan's xyz, dropping non-finite points.

    Returns the cloud and the indices (into the raw file order) of records
    dropped for carrying NaN/Inf in any of their four fields, intensity
    included, so paired label masks can be filtered identically.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"scan not found: {path}")
    n_bytes = path.stat().st_size
    if n_bytes % _SCAN_RECORD_BYTES != 0:
        raise ValueError(
            f"malformed scan {path}: {n_bytes} bytes is not a multiple of {_SCAN_RECORD_BYTES}"
        )
    records = np.fromfile(path, dtype="<f4").reshape(-1, 4)
    finite = np.isfinite(records)
    if finite.all():  # the common case: no per-record test, no gather
        dropped = np.empty(0, dtype=np.intp)
    else:
        kept = finite.all(axis=1)
        dropped = np.flatnonzero(~kept)
        records = records[kept]
    # float32 -> float64 once, straight into a C-contiguous array
    return PointCloud(xyz=records[:, :3].astype(np.float64, order="C")), dropped


def load_labels(path, ground_classes=GROUND_CLASSES_DEFAULT) -> np.ndarray:
    """Load a label file as a boolean ground mask.

    The semantic class is the lower 16 bits of each record; upper bits carry
    instance ids and are ignored.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"label file not found: {path}")
    if path.stat().st_size % _LABEL_RECORD_BYTES != 0:
        raise ValueError(f"malformed label file {path}: size not a multiple of 4")
    raw = np.fromfile(path, dtype="<u4")
    classes = raw & 0xFFFF
    return np.isin(classes, np.fromiter(ground_classes, dtype=np.uint32))


def load_frame(scan_path, label_path, ground_classes=GROUND_CLASSES_DEFAULT):
    """Load a paired scan + label file with consistent non-finite filtering.

    Returns (cloud, truth_mask, dropped_indices). Raises if the label count
    does not match the scan's raw record count.
    """
    cloud, dropped = load_velodyne_bin(scan_path)
    truth = load_labels(label_path, ground_classes)
    n_raw = len(cloud) + dropped.size
    if truth.size != n_raw:
        raise ValueError(
            f"label/scan mismatch: {label_path} has {truth.size} labels "
            f"for {n_raw} scan records"
        )
    return cloud, np.delete(truth, dropped), dropped


def list_sequence(root, sequence, frame_range=None) -> list[tuple[Path, Path]]:
    """Enumerate (scan, label) path pairs of one sequence, sorted by frame.

    frame_range is an inclusive (first, last) interval of frame numbers.
    Every scan must have a matching label file.
    """
    root = Path(root)
    seq = sequence if isinstance(sequence, str) else f"{int(sequence):02d}"
    scan_dir = root / "sequences" / seq / "velodyne"
    label_dir = root / "sequences" / seq / "labels"
    if not scan_dir.is_dir():
        raise FileNotFoundError(f"no velodyne directory: {scan_dir}")
    pairs = []
    for scan_path in sorted(scan_dir.glob("*.bin")):
        m = re.fullmatch(r"(\d+)\.bin", scan_path.name)
        if not m:
            continue
        frame = int(m.group(1))
        if frame_range is not None and not frame_range[0] <= frame <= frame_range[1]:
            continue
        label_path = label_dir / f"{scan_path.stem}.label"
        if not label_path.is_file():
            raise FileNotFoundError(f"scan {scan_path.name} has no label file {label_path}")
        pairs.append((scan_path, label_path))
    pairs.sort(key=lambda p: int(p[0].stem))
    return pairs
