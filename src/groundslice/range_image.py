"""Range images: spherical projection, column slicing, mask merging.

The range image is the bridge between point clouds and image-space
segmentation. Projection and azimuth partitioning take an (N, 3) float64
xyz array. An image holds only its per-pixel returns and the point each
came from, so a column band is the same kind of image. Slicing cuts an
image into K near-equal column bands whose views share the parent's
point-index map, so per-slice pixel masks merge back into per-point masks
given only the column intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kitti_io import PointCloud
from .ssl_frame import SslFrame, ssl_to_point_cloud

EMPTY = -1  # point_index sentinel for pixels holding no return


@dataclass(frozen=True)
class RangeImage:
    """Per-pixel returns and the cloud point each came from; rows and cols are its shape."""

    xyz: np.ndarray  # (rows, cols, 3) float64
    point_index: np.ndarray  # (rows, cols) int64, EMPTY where no return
    n_points: int  # size of the source cloud the indices refer to
    n_out_of_span: int = 0  # points excluded for falling outside the vertical span

    def __post_init__(self):
        for name in ("xyz", "point_index"):
            getattr(self, name).setflags(write=False)

    @property
    def rows(self) -> int:
        return self.point_index.shape[0]

    @property
    def cols(self) -> int:
        return self.point_index.shape[1]

    @property
    def range_m(self) -> np.ndarray:
        """(rows, cols) float64 distance of each pixel's return, 0 = empty pixel.

        Computed on each access: only rendering reads it.
        """
        rng = np.where(self.point_index != EMPTY, np.linalg.norm(self.xyz, axis=2), 0.0)
        rng.setflags(write=False)
        return rng


def project_spherical(xyz: np.ndarray, rows: int, cols: int,
                      vertical_span: tuple[float, float]) -> RangeImage:
    """Spherically project points onto a rows x cols range image.

    Azimuth atan2(y, x) maps linearly onto columns over the full circle;
    elevation atan2(z, hypot(x, y)) maps onto rows with the top row at the
    span's upper angle. When two points fall into one bin the nearer wins
    (ties: lower original index). Points outside the vertical span are
    excluded and counted.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"degenerate image size {rows}x{cols}")
    v_top, v_bottom = vertical_span
    if not v_top > v_bottom:
        raise ValueError(f"degenerate vertical span {vertical_span}")

    point_index, n_binned = _nearest_in_each_pixel(xyz, rows, cols, v_top, v_bottom)
    if len(xyz):
        # EMPTY (-1) reads the last point, whose copies are then zeroed
        out_xyz = xyz.take(point_index, axis=0)
        out_xyz[np.flatnonzero(point_index == EMPTY)] = 0.0
    else:
        out_xyz = np.zeros((rows * cols, 3))
    out_xyz = out_xyz.reshape(rows, cols, 3)
    point_index = point_index.reshape(rows, cols)

    return RangeImage(xyz=out_xyz, point_index=point_index, n_points=len(xyz),
                      n_out_of_span=len(xyz) - n_binned)


def _nearest_in_each_pixel(xyz: np.ndarray, rows: int, cols: int, v_top: float,
                           v_bottom: float) -> tuple[np.ndarray, int]:
    """Flat pixel -> index of the nearest point binned there (EMPTY if none).

    Also returns how many points were binned. Each formula runs in place, in
    the order and rounding of its plain form, so that few point-length
    arrays are live at once.
    """
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    rng = x * x  # sqrt(x*x + y*y + z*z)
    tmp = y * y
    rng += tmp
    np.multiply(z, z, out=tmp)
    rng += tmp
    np.sqrt(rng, out=rng)

    # elevation = atan2(z, hypot(x, y)); row = floor((v_top - elevation) / span * rows)
    elevation = np.arctan2(z, np.hypot(x, y, out=tmp), out=tmp)
    keep = elevation <= v_top
    keep &= elevation >= v_bottom
    keep &= rng > 0
    np.subtract(v_top, elevation, out=tmp)
    tmp /= v_top - v_bottom
    tmp *= rows
    bins = np.floor(tmp, out=tmp).astype(np.int64)
    np.minimum(bins, rows - 1, out=bins)
    bins *= cols

    # column = floor((atan2(y, x) + pi) / 2pi * cols)
    np.arctan2(y, x, out=tmp)
    tmp += math.pi
    tmp /= 2.0 * math.pi
    tmp *= cols
    col = np.floor(tmp, out=tmp).astype(np.int64)
    del elevation, tmp
    col[col == cols] = 0  # azimuth == +pi wraps into the -pi bin
    bins += col
    del col

    idx = np.flatnonzero(keep)
    if idx.size < bins.size:  # else idx is every point in order
        bins = bins.take(idx)
    point_index = np.full(rows * cols, EMPTY, dtype=np.int64)
    point_index[bins] = idx  # a bin shared by several points holds one of them
    lost = point_index.take(bins) != idx
    if lost.any():
        # nearest-wins with lowest-index tiebreak, decided only where points
        # share a bin: the stable sort by (bin, range) puts each bin's winner first
        in_shared = np.zeros(rows * cols, dtype=bool)
        in_shared[bins[lost]] = True
        sharing = in_shared.take(bins)
        shared, shared_bins = idx[sharing], bins[sharing]
        order = np.lexsort((rng[shared], shared_bins))
        shared = shared[order]
        shared_bins = shared_bins[order]
        first = np.ones(shared.size, dtype=bool)
        first[1:] = shared_bins[1:] != shared_bins[:-1]
        point_index[shared_bins[first]] = shared[first]
    return point_index, idx.size


def from_ssl_frame(frame: SslFrame) -> tuple[RangeImage, PointCloud]:
    """Use a decoded solid-state frame directly as a range image.

    The organized grid bypasses spherical projection: the image shares the
    frame's read-only xyz, and the point indices address the valid-cell
    cloud that is returned alongside.
    """
    cloud, pixel_to_point = ssl_to_point_cloud(frame)
    return RangeImage(xyz=frame.xyz, point_index=pixel_to_point, n_points=len(cloud)), cloud


def slice_intervals(cols: int, k: int) -> tuple[tuple[int, int], ...]:
    """Near-equal partition of [0, cols) into k intervals; the first cols % k are one wider.

    Cuts image columns into slices, and slices into unit blocks.
    """
    base, rem = divmod(cols, k)
    intervals = []
    start = 0
    for i in range(k):
        width = base + (1 if i < rem else 0)
        intervals.append((start, start + width))
        start += width
    return tuple(intervals)


def slice_columns(image: RangeImage, k: int
                  ) -> tuple[tuple[tuple[int, int], ...], list[RangeImage]]:
    """Cut a range image into K contiguous column-band views.

    Returns the K column intervals [lo, hi) and the views. Views share the
    parent's arrays (read-only), so their point_index values still address
    the original cloud.
    """
    if not 1 <= k <= image.cols:
        raise ValueError(f"slice count {k} out of range 1..{image.cols}")
    intervals = slice_intervals(image.cols, k)
    views = [RangeImage(xyz=image.xyz[:, lo:hi], point_index=image.point_index[:, lo:hi],
                        n_points=image.n_points)
             for lo, hi in intervals]
    return intervals, views


def merge_masks(slice_masks: list[np.ndarray], image: RangeImage,
                intervals: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Merge per-slice pixel masks into one per-point ground mask.

    `intervals` are the column intervals `slice_columns` cut. A point is
    ground iff its pixel is marked in its owning slice. Points that never
    made it into the image (bin-collision losers, out-of-span) stay
    non-ground.
    """
    if len(slice_masks) != len(intervals):
        raise ValueError("mask count does not match slice count")
    out = np.zeros(image.n_points, dtype=bool)
    for mask, (lo, hi) in zip(slice_masks, intervals):
        if mask.shape != (image.rows, hi - lo):
            raise ValueError(
                f"slice mask shape {mask.shape} does not match view {(image.rows, hi - lo)}"
            )
        pidx = image.point_index[:, lo:hi]
        hit = mask & (pidx != EMPTY)
        out[pidx[hit]] = True
    return out


def partition_azimuth(xyz: np.ndarray, k: int) -> list[np.ndarray]:
    """Split points into K equal azimuth sectors of its occupied span.

    Used for point-domain methods; full-circle mechanical scans come out as
    fixed angular sectors, narrow-FoV solid-state clouds as their natural
    bands. Returns per-slice index arrays in ascending original order.
    """
    if k < 1:
        raise ValueError(f"slice count {k} must be >= 1")
    if len(xyz) == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(k)]
    azimuth = np.arctan2(xyz[:, 1], xyz[:, 0])
    lo, hi = float(azimuth.min()), float(azimuth.max())
    if hi <= lo:
        hi = lo + 1e-9
    assignment = np.floor((azimuth - lo) / (hi - lo) * k).astype(np.int64)
    np.clip(assignment, 0, k - 1, out=assignment)
    return [np.nonzero(assignment == s)[0] for s in range(k)]
