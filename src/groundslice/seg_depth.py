"""Range-image depth-ground segmentation.

Per column, the inclination angle between vertically consecutive returns is
computed bottom-up, smoothed with a Savitzky-Golay least-squares filter, and
ground labels grow from low-angle seeds on the lowest returns: the seeded
connected components of the angle-step graph, the same set a breadth-first
search from the seeds reaches, labelled over vertical runs with numpy alone.
The module needs no scipy, so a process that only runs depth never loads
it. Everything is a pure function of its inputs, so slices can run on
concurrent workers untouched.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import MAX_SMOOTHING_WINDOW, DepthConfig
from .range_image import RangeImage


@dataclass(frozen=True)
class AngleImage:
    """Per-pixel absolute inclination in radians; defined only where valid."""

    angle: np.ndarray  # (rows, cols) float64 in [0, pi/2]
    valid: np.ndarray  # (rows, cols) bool

    def __post_init__(self):
        self.angle.setflags(write=False)
        self.valid.setflags(write=False)

    @property
    def shape(self):
        return self.angle.shape


def compute_angle_image(image: RangeImage, sensor_height: float = 1.73) -> AngleImage:
    """Inclination between each return and the nearest valid return below it.

    Walking each column from the bottom row upward, consecutive valid pixels
    A (lower) and B (upper) produce angle = atan2(|z_B - z_A|, |d_B - d_A|)
    with d the planar distance hypot(x, y), stored at B's row. The lowest
    valid pixel of a column is paired with a virtual ground point at d = 0,
    z = -sensor_height. Empty pixels are skipped, pairing nearest valid ones.
    """
    if image.rows < 2:
        raise ValueError("angle image needs at least 2 rows")
    rows, cols = image.point_index.shape
    valid = image.point_index != -1

    # flat index of the nearest valid pixel at or below each row: valid
    # pixels hold their own, empty ones the ground row's, and a running
    # minimum from the bottom up carries the nearest one upward
    below = np.arange((rows + 1) * cols, dtype=np.intp).reshape(rows + 1, cols)
    np.copyto(below[:rows], below[rows], where=~valid)
    up = below[::-1]
    np.minimum.accumulate(up, axis=0, out=up)
    prev = below[1:]  # strictly below

    # one buffer holds z, then the planar distance d; row `rows` is the
    # virtual ground point below every column. Each difference is taken in
    # place as |below - here|, equal to |here - below| bit for bit, since
    # rounding to nearest is symmetric under negation.
    plane = np.empty((rows + 1, cols))
    plane[:rows] = image.xyz[:, :, 2]
    plane[rows] = -sensor_height
    dz = plane.take(prev)
    np.subtract(dz, plane[:rows], out=dz)
    np.abs(dz, out=dz)
    np.hypot(image.xyz[:, :, 0], image.xyz[:, :, 1], out=plane[:rows])
    plane[rows] = 0.0
    dd = plane.take(prev)
    del below, up, prev
    np.subtract(dd, plane[:rows], out=dd)
    np.abs(dd, out=dd)
    angle = plane[:rows]
    angle.fill(0.0)
    np.arctan2(dz, dd, out=angle, where=valid)
    return AngleImage(angle=angle, valid=valid)


def savitzky_golay_smooth(angles: AngleImage, window: int, order: int) -> AngleImage:
    """Least-squares polynomial smoothing along each column.

    Each valid angle is replaced by the center value of the degree-`order`
    polynomial fit over the valid samples inside its centered window. Windows
    truncated at column ends or punctured by invalid pixels fall back to
    fitting whatever valid samples remain (the fit degree drops to
    n_samples - 1 when fewer than order + 1 are available); a pixel with no
    valid neighbor passes through unchanged. Validity flags are untouched.
    The window is at most MAX_SMOOTHING_WINDOW.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be an odd integer >= 3, got {window}")
    if window > MAX_SMOOTHING_WINDOW:
        raise ValueError(f"window must be at most {MAX_SMOOTHING_WINDOW}, got {window}")
    if order < 1 or order >= window:
        raise ValueError(f"order must satisfy 1 <= order < window, got {order}")

    a = angles.angle
    v = angles.valid
    rows, cols = a.shape
    half = window // 2

    # window offset i of pixel (r, c) sits at (r + i, c) of the padded
    # copies; padding and invalid pixels read as 0 with validity off
    pad_a = np.zeros((rows + 2 * half, cols), dtype=np.float64)
    pad_v = np.zeros((rows + 2 * half, cols), dtype=np.uint8)
    np.copyto(pad_a[half:half + rows], a, where=v)
    pad_v[half:half + rows] = v

    # bit i: offset i holds a valid sample; an invalid pixel lacks the center
    # bit. 16 bits hold every window up to the cap, and shift fastest.
    pattern = np.zeros((rows, cols), dtype=np.uint16)
    for i in reversed(range(window)):
        pattern <<= 1
        pattern |= pad_v[i:i + rows]
    pattern = pattern.astype(np.intp)
    table = _sg_table(window, order)
    table.fill(pattern)

    # ascending offsets, absent ones adding 0 * 0: each pixel's float sum
    # runs in the order of its own present samples
    out = np.zeros((rows, cols), dtype=np.float64)
    term = np.empty((rows, cols), dtype=np.float64)
    for i in range(window):
        table.weights[i].take(pattern, out=term, mode="clip")  # "raise" buffers `out`
        term *= pad_a[i:i + rows]
        out += term
    np.copyto(out, a, where=table.passthrough.take(pattern))
    return AngleImage(angle=out, valid=v)


class _SgTable:
    """Center-fit weights of one (window, order), indexed by validity pattern.

    Column p holds the weights of pattern p, or zeros and a pass-through
    flag when p lacks the center sample or has no second one. Columns are
    filled as their patterns first occur; callers only read.
    """

    def __init__(self, window: int, order: int):
        self.window, self.order = window, order
        self.weights = np.zeros((window, 1 << window), dtype=np.float64)
        self.passthrough = np.ones(1 << window, dtype=bool)
        self._filled = np.zeros(1 << window, dtype=bool)

    def fill(self, pattern: np.ndarray) -> None:
        seen = self._filled.take(pattern)
        if seen.all():
            return
        for p in np.unique(pattern[~seen]).tolist():
            row = _sg_center_row(p, self.window, self.order)
            if row is not None:
                self.weights[:, p] = row
                self.passthrough[p] = False
            self._filled[p] = True  # after the column, for a concurrent reader


@functools.lru_cache(maxsize=8)
def _sg_table(window: int, order: int) -> _SgTable:
    return _SgTable(window, order)


def _sg_center_row(pattern: int, window: int, order: int):
    """Weights giving the LSQ fit's value at the window center, or None.

    Bit i of pattern marks offset i - window // 2 as a valid sample; absent
    offsets weigh 0. None when the center sample is absent or no other is
    present.
    """
    if not (pattern >> (window // 2)) & 1:
        return None
    pos = [i for i in range(window) if (pattern >> i) & 1]
    n = len(pos)
    if n < 2:
        return None
    x = np.array(pos, dtype=np.float64) - window // 2
    deg = min(order, n - 1)
    vander = np.vander(x, deg + 1, increasing=True)
    # value of the LSQ fit at the window center = first row of pinv
    row = np.zeros(window, dtype=np.float64)
    row[pos] = np.linalg.pinv(vander)[0]
    return row


def bfs_ground_label(angles: AngleImage, seed_threshold: float,
                     propagation_threshold: float) -> np.ndarray:
    """Grow ground labels from low-angle seeds on each column's lowest return.

    Seeds are the bottom-most valid pixels with angle below seed_threshold.
    Labels spread across 4-connected valid pixels whenever the angle step is
    below propagation_threshold and the neighbor's angle stays under
    seed_threshold + propagation_threshold. Returns the mask of every pixel
    a breadth-first search from the seeds would visit.

    That set does not depend on visit order: it is the union of the
    connected components holding a seed, in the graph whose nodes are the
    valid pixels under the angle cap and whose edges join 4-neighbors with
    an angle step below propagation_threshold. Each column's nodes joined by
    vertical edges form runs, numbered in column-major order; horizontal
    edges join runs of adjacent columns, one edge per pair of runs that
    touch on consecutive rows. The runs are labelled by min-label hooking
    with pointer jumping (Shiloach & Vishkin 1982): every root hooks to the
    smallest root across its edges, the forest is flattened, and edges
    inside one root drop out until none joins two roots. Memory is linear
    in the pixels.
    """
    if seed_threshold <= 0 or propagation_threshold <= 0:
        raise ValueError("thresholds must be positive")
    rows, cols = angles.shape
    if rows == 0 or cols == 0:
        return np.zeros((rows, cols), dtype=bool)
    # column-major layout: a column's pixels sit together, and so does each run
    a = np.ascontiguousarray(angles.angle.T)
    valid = angles.valid
    node = valid.T & (a < seed_threshold + propagation_threshold)
    with np.errstate(invalid="ignore"):  # a step between infinities is no edge
        down = node[:, :-1] & node[:, 1:] & (np.abs(a[:, 1:] - a[:, :-1]) < propagation_threshold)
        right = node[:-1] & node[1:] & (np.abs(a[1:] - a[:-1]) < propagation_threshold)

    # a run starts at a node with no edge from the pixel above; ids from 1
    start = node.copy()
    start[:, 1:] &= ~down
    run = start.astype(np.intp).ravel()
    np.cumsum(run, out=run)
    run_count = int(run[-1])
    run *= node.ravel()
    run = run.reshape(cols, rows)
    # a right edge whose row above joins the same two runs adds nothing
    right[:, 1:] &= ~(right[:, :-1] & down[:-1] & down[1:])
    # column-major ids grow with the column, so lo < hi on every edge
    lo, hi = run[:-1][right], run[1:][right]

    parent = np.arange(run_count + 1)
    while lo.size:
        np.minimum.at(parent, hi, lo)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        lo, hi = parent[lo], parent[hi]
        cross = lo != hi
        lo, hi = np.minimum(lo[cross], hi[cross]), np.maximum(lo[cross], hi[cross])

    # each column's lowest valid pixel seeds when its angle is low enough
    seed_cols = np.flatnonzero(valid.any(axis=0))
    seed_rows = rows - 1 - np.argmax(valid[::-1, seed_cols], axis=0)
    seeded = a[seed_cols, seed_rows] < seed_threshold
    # a seed is a node (its angle is under the cap), so run 0 is never kept
    keep = np.zeros(parent.size, dtype=bool)
    keep[parent[run[seed_cols[seeded], seed_rows[seeded]]]] = True
    return np.ascontiguousarray(keep[parent][run].T)


def depth_segment_image(image: RangeImage, cfg: DepthConfig) -> np.ndarray:
    """Full depth-ground pipeline on one range image (or slice view)."""
    angles = compute_angle_image(image, sensor_height=cfg.sensor_height)
    smoothed = savitzky_golay_smooth(angles, cfg.smoothing_window, cfg.smoothing_order)
    del angles  # the raw angles are not needed while labelling
    return bfs_ground_label(smoothed, cfg.seed_threshold, cfg.propagation_threshold)
