"""Solid-state LiDAR raw frame decoding.

A raw capture is a single column of 78,750 records split into five
consecutive blocks of 15,750. Each block fills a 126x125 subframe row-major,
with alternating rows emitted in reverse (serpentine scan), and the five
subframes sit side by side in one 126x625 organized frame. Records that the
sensor dropped keep valid=False through decoding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

SUBFRAME_ROWS = 126
SUBFRAME_COLS = 125
SUBFRAME_COUNT = 5
FRAME_COLS = SUBFRAME_COLS * SUBFRAME_COUNT  # 625
RECORDS_PER_SUBFRAME = SUBFRAME_ROWS * SUBFRAME_COLS  # 15,750
RECORDS_PER_FRAME = RECORDS_PER_SUBFRAME * SUBFRAME_COUNT  # 78,750
_SSL_RECORD_BYTES = 12  # 3 x float32


@dataclass(frozen=True)
class SslRawFrame:
    """One raw capture: xyz per record plus a validity flag.

    xyz keeps float32 records as given (a `.sslraw` capture's, as read);
    any other dtype is converted to float64.
    """

    xyz: np.ndarray  # (78750, 3) float32 or float64
    valid: np.ndarray  # (78750,) bool

    def __post_init__(self):
        xyz = np.asarray(self.xyz)
        xyz = np.ascontiguousarray(xyz, np.float32 if xyz.dtype == np.float32 else np.float64)
        valid = np.ascontiguousarray(self.valid, dtype=bool)
        if xyz.shape != (RECORDS_PER_FRAME, 3):
            raise ValueError(
                f"raw frame must have exactly {RECORDS_PER_FRAME} records, got {xyz.shape[0]}"
            )
        if valid.shape != (RECORDS_PER_FRAME,):
            raise ValueError("valid flags must match record count")
        xyz.setflags(write=False)
        valid.setflags(write=False)
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "valid", valid)


@dataclass(frozen=True)
class SslFrame:
    """Organized 126x625 frame; index_map[r, c] is the source record index."""

    xyz: np.ndarray  # (126, 625, 3) float64
    valid: np.ndarray  # (126, 625) bool
    index_map: np.ndarray  # (126, 625) int64, bijection onto 0..78749

    def __post_init__(self):
        for name in ("xyz", "valid", "index_map"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.xyz.shape[0]

    @property
    def cols(self) -> int:
        return self.xyz.shape[1]


def decode_index_map(parity: str = "even") -> np.ndarray:
    """Record index landing in each cell of the organized frame (read-only).

    Rows whose 0-based index matches `parity` are read right-to-left
    (serpentine de-interleave); the rest left-to-right.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return _index_map(parity)


@lru_cache(maxsize=2)
def _index_map(parity: str) -> np.ndarray:
    rows = np.arange(SUBFRAME_ROWS)[:, None]
    cols = np.arange(SUBFRAME_COLS)[None, :]
    reversed_rows = (rows % 2 == 0) if parity == "even" else (rows % 2 == 1)
    within = np.where(reversed_rows, SUBFRAME_COLS - 1 - cols, cols)
    sub = rows * SUBFRAME_COLS + within  # (126, 125) indices within one block
    blocks = [sub + s * RECORDS_PER_SUBFRAME for s in range(SUBFRAME_COUNT)]
    index_map = np.concatenate(blocks, axis=1).astype(np.int64)
    index_map.setflags(write=False)
    return index_map


def decode_ssl_frame(raw: SslRawFrame, parity: str = "even") -> SslFrame:
    """Decode a raw capture into the organized 126x625 frame, xyz as float64.

    float32 records are gathered first and widened once, which is exact.
    """
    index_map = decode_index_map(parity)
    return SslFrame(
        xyz=raw.xyz.take(index_map, axis=0).astype(np.float64, copy=False),
        valid=raw.valid[index_map],
        index_map=index_map,
    )


def encode_ssl_frame(frame: SslFrame) -> SslRawFrame:
    """Inverse of decode: rebuild the raw record order through index_map."""
    xyz = np.empty((RECORDS_PER_FRAME, 3), dtype=np.float64)
    valid = np.empty(RECORDS_PER_FRAME, dtype=bool)
    flat_idx = frame.index_map.ravel()
    xyz[flat_idx] = frame.xyz.reshape(-1, 3)
    valid[flat_idx] = frame.valid.ravel()
    return SslRawFrame(xyz=xyz, valid=valid)


def subframe(frame: SslFrame, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (xyz, valid) views of subframe i's 126x125 columns."""
    if not 0 <= i < SUBFRAME_COUNT:
        raise IndexError(f"subframe index {i} out of range 0..{SUBFRAME_COUNT - 1}")
    lo = i * SUBFRAME_COLS
    hi = lo + SUBFRAME_COLS
    xyz = frame.xyz[:, lo:hi]
    valid = frame.valid[:, lo:hi]
    xyz.setflags(write=False)
    valid.setflags(write=False)
    return xyz, valid


def ssl_to_point_cloud(frame: SslFrame):
    """Emit valid cells as a point cloud in row-major scan order.

    Returns (cloud, pixel_to_point) where pixel_to_point[r, c] is the point
    index of cell (r, c) or -1 for invalid cells, letting pixel masks be
    projected back onto points.
    """
    from .kitti_io import PointCloud

    cells = np.flatnonzero(frame.valid)
    pixel_to_point = np.full(frame.valid.shape, -1, dtype=np.int64)
    pixel_to_point.ravel()[cells] = np.arange(cells.size)
    return PointCloud(xyz=frame.xyz.reshape(-1, 3).take(cells, axis=0)), pixel_to_point


def load_sslraw(path) -> SslRawFrame:
    """Read a .sslraw capture: 78,750 little-endian float32 (x, y, z) triples.

    An all-zero triple marks an invalid (dropped) return, and so does a
    triple holding a NaN or an infinity; the coordinates are kept as read,
    as float32.
    A file of any other byte size raises ValueError naming it.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"capture not found: {path}")
    n_bytes = path.stat().st_size
    if n_bytes != RECORDS_PER_FRAME * _SSL_RECORD_BYTES:
        raise ValueError(f"capture {path} holds {n_bytes} bytes, expected {RECORDS_PER_FRAME} "
                         f"records of {_SSL_RECORD_BYTES}")
    records = np.fromfile(path, dtype="<f4").reshape(-1, 3)
    # a record is valid when its largest magnitude is neither zero nor
    # non-finite; np.maximum carries a NaN through
    mag = np.abs(records)
    peak = np.maximum(np.maximum(mag[:, 0], mag[:, 1]), mag[:, 2])
    return SslRawFrame(xyz=records, valid=(peak > 0) & (peak < np.inf))


def save_sslraw(raw: SslRawFrame, path) -> None:
    out = np.where(raw.valid[:, None], raw.xyz, 0.0).astype("<f4")
    out.tofile(path)


def load_ssl_csv(path) -> SslRawFrame:
    """Read the CSV fixture form: one `x,y,z,valid` line per record.

    A record is valid when its flag is nonzero and all four fields are
    finite. A file that is not RECORDS_PER_FRAME lines of four numbers
    raises ValueError naming it.
    """
    try:
        with warnings.catch_warnings():
            # an empty file warns, then fails the row count below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:  # unparsable text, or a line of another width
        raise ValueError(f"malformed CSV fixture {path}: {exc}") from exc
    if data.shape != (RECORDS_PER_FRAME, 4):
        raise ValueError(f"CSV fixture {path} must have {RECORDS_PER_FRAME} rows of "
                         f"x,y,z,valid, got {data.shape}")
    return SslRawFrame(xyz=data[:, :3], valid=(data[:, 3] != 0.0) & np.isfinite(data).all(axis=1))


def save_ssl_csv(raw: SslRawFrame, path) -> None:
    with open(path, "w") as fh:
        for (x, y, z), v in zip(raw.xyz, raw.valid):
            fh.write(f"{float(x)!r},{float(y)!r},{float(z)!r},{int(v)}\n")
