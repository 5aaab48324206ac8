"""The depth frame stages stay byte-identical to their straightforward forms.

`project_spherical`, `compute_angle_image` and `savitzky_golay_smooth` run
in place, over a virtual ground row and from a pattern-indexed weight table.
The oracles below are the plain forms they replaced, kept verbatim: a
vstack-padded gather, flipped copies with 2-D fancy indexing, and a
`np.unique` over the validity patterns. Every output must match its oracle
in dtype, shape, C order and every byte.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundslice import default_config
from groundslice.config import MAX_SMOOTHING_WINDOW
from groundslice.parallel_exec import frame_from_ssl
from groundslice.range_image import (EMPTY, RangeImage, project_spherical,
                                     slice_columns)
from groundslice.seg_depth import (AngleImage, compute_angle_image,
                                   savitzky_golay_smooth)
from groundslice.ssl_frame import decode_ssl_frame
from groundslice.synthetic import make_ssl_capture, make_street_scene, simulate_scan

V_SPAN = (math.radians(2.0), math.radians(-24.8))
SG_SETTINGS = ((5, 2), (3, 1), (7, 3), (MAX_SMOOTHING_WINDOW, 4))


def oracle_project_spherical(xyz, rows, cols, vertical_span):
    v_top, v_bottom = vertical_span
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    rng = np.sqrt(x * x + y * y + z * z)
    azimuth = np.arctan2(y, x)
    elevation = np.arctan2(z, np.hypot(x, y))
    col = np.floor((azimuth - -math.pi) / (2.0 * math.pi) * cols).astype(np.int64)
    col %= cols
    in_span = (elevation <= v_top) & (elevation >= v_bottom)
    row_f = (v_top - elevation) / (v_top - v_bottom) * rows
    row = np.minimum(np.floor(row_f).astype(np.int64), rows - 1)
    keep = in_span & (rng > 0)
    idx = np.nonzero(keep)[0]
    bins = row[idx] * cols + col[idx]
    alone = np.bincount(bins, minlength=rows * cols)[bins] == 1
    shared = idx[~alone]
    shared_bins = bins[~alone]
    order = np.lexsort((rng[shared], shared_bins))
    shared = shared[order]
    shared_bins = shared_bins[order]
    first = np.ones(shared.size, dtype=bool)
    first[1:] = shared_bins[1:] != shared_bins[:-1]
    point_index = np.full(rows * cols, EMPTY, dtype=np.int64)
    point_index[bins[alone]] = idx[alone]
    point_index[shared_bins[first]] = shared[first]
    out_xyz = np.vstack((xyz, np.zeros((1, 3)))).take(point_index, axis=0)
    return (out_xyz.reshape(rows, cols, 3), point_index.reshape(rows, cols),
            int(len(xyz) - keep.sum()))


def oracle_compute_angle_image(image, sensor_height):
    valid = image.point_index != -1
    d = np.hypot(image.xyz[:, :, 0], image.xyz[:, :, 1])
    z = image.xyz[:, :, 2]
    vf, df, zf = valid[::-1], d[::-1], z[::-1]
    rows, cols = vf.shape
    row_idx = np.where(vf, np.arange(rows)[:, None], -1)
    last_below = np.maximum.accumulate(row_idx, axis=0)
    prev = np.full((rows, cols), -1, dtype=np.int64)
    prev[1:] = last_below[:-1]
    col_idx = np.broadcast_to(np.arange(cols), (rows, cols))
    safe_prev = np.maximum(prev, 0)
    prev_d = np.where(prev >= 0, df[safe_prev, col_idx], 0.0)
    prev_z = np.where(prev >= 0, zf[safe_prev, col_idx], -sensor_height)
    angle_f = np.zeros((rows, cols), dtype=np.float64)
    np.arctan2(np.abs(zf - prev_z), np.abs(df - prev_d), out=angle_f, where=vf)
    angle_f[~vf] = 0.0
    return angle_f[::-1].copy(), valid.copy()


@functools.lru_cache(maxsize=4096)
def _oracle_center_row(pattern, window, order):
    pos = [i for i in range(window) if (pattern >> i) & 1]
    if len(pos) < 2:
        return None
    x = np.array(pos, dtype=np.float64) - window // 2
    vander = np.vander(x, min(order, len(pos) - 1) + 1, increasing=True)
    row = np.zeros(window, dtype=np.float64)
    row[pos] = np.linalg.pinv(vander)[0]
    return row


def oracle_savitzky_golay_smooth(a, v, window, order):
    rows, cols = a.shape
    half = window // 2
    pad_a = np.zeros((rows + 2 * half, cols), dtype=np.float64)
    pad_v = np.zeros((rows + 2 * half, cols), dtype=bool)
    pad_a[half:half + rows] = np.where(v, a, 0.0)
    pad_v[half:half + rows] = v
    pattern = np.zeros((rows, cols), dtype=np.int64)
    for i in range(window):
        pattern |= pad_v[i:i + rows].astype(np.int64) << i
    pattern[~v] = 0
    patterns, which = np.unique(pattern.ravel(), return_inverse=True)
    which = which.reshape(rows, cols)
    table = np.zeros((window, patterns.size), dtype=np.float64)
    fitted = np.zeros(patterns.size, dtype=bool)
    for k, p in enumerate(patterns.tolist()):
        row = _oracle_center_row(p, window, order)
        if row is not None:
            table[:, k] = row
            fitted[k] = True
    acc = np.zeros((rows, cols), dtype=np.float64)
    for i in range(window):
        acc += table[i][which] * pad_a[i:i + rows]
    return np.where(fitted[which], acc, a), v.copy()


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def assert_projection_identical(xyz, rows, cols, span=V_SPAN):
    image = project_spherical(xyz, rows, cols, span)
    want_xyz, want_index, want_out = oracle_project_spherical(xyz, rows, cols, span)
    assert_same_bytes(image.xyz, want_xyz)
    assert_same_bytes(image.point_index, want_index)
    assert image.n_out_of_span == want_out
    return image


def assert_angles_identical(view, sensor_height):
    angles = compute_angle_image(view, sensor_height)
    want_angle, want_valid = oracle_compute_angle_image(view, sensor_height)
    assert_same_bytes(angles.angle, want_angle)
    assert_same_bytes(angles.valid, want_valid)
    return angles


def assert_smoothing_identical(angles, window, order):
    got = savitzky_golay_smooth(angles, window, order)
    want_angle, want_valid = oracle_savitzky_golay_smooth(angles.angle, angles.valid,
                                                          window, order)
    assert_same_bytes(got.angle, want_angle)
    assert_same_bytes(got.valid, want_valid)


def assert_slices_identical(image, k, sensor_height):
    for view in slice_columns(image, k)[1]:
        angles = assert_angles_identical(view, sensor_height)
        for window, order in SG_SETTINGS:
            assert_smoothing_identical(angles, window, order)


def test_street_frames_identical_at_k_1_2_5():
    cfg = default_config()
    proj = cfg.projection
    for seed in (3, 8):
        xyz, _, _ = simulate_scan(make_street_scene(seed), (0.0, 0.0), seed=seed)
        image = assert_projection_identical(xyz, proj.rows, proj.cols, proj.vertical_span)
        for k in (1, 2, 5):
            assert_slices_identical(image, k, cfg.depth.sensor_height)


def test_ssl_capture_slices_identical_at_k_5():
    cfg = default_config()
    for seed in (4, 5):
        frame = frame_from_ssl(decode_ssl_frame(make_ssl_capture(seed), cfg.ssl.parity))
        assert_slices_identical(frame.range_image(cfg), 5, cfg.ssl.sensor_height)


def test_empty_cloud_identical():
    image = assert_projection_identical(np.zeros((0, 3)), 8, 16)
    assert (image.point_index == EMPTY).all()
    assert_slices_identical(image, 1, 1.73)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 120), rows=st.integers(1, 12), cols=st.integers(1, 24),
       grid=st.booleans(), seed=st.integers(0, 2**31))
def test_projection_identical_on_random_clouds(n, rows, cols, grid, seed):
    r = np.random.default_rng(seed)
    xyz = r.normal(scale=10.0, size=(n, 3))
    if grid:  # coarse coordinates put several points, even equal ones, into one bin
        xyz = np.round(xyz / 4.0) * 4.0
    xyz[r.uniform(size=n) < 0.1] = 0.0  # zero-range points are dropped
    assert_projection_identical(xyz, rows, cols)


def random_image(r, rows, cols, valid_share):
    valid = r.uniform(size=(rows, cols)) < valid_share
    valid[:, r.uniform(size=cols) < 0.3] = False  # some columns hold no return
    xyz = r.normal(scale=8.0, size=(rows, cols, 3)) * valid[:, :, None]
    point_index = np.where(valid, np.arange(rows * cols).reshape(rows, cols), EMPTY)
    return RangeImage(xyz=xyz, point_index=point_index, n_points=rows * cols)


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(2, 20), cols=st.integers(1, 6),
       valid_share=st.sampled_from([0.0, 0.3, 0.7, 1.0]), seed=st.integers(0, 2**31))
def test_angles_and_smoothing_identical_on_random_images(rows, cols, valid_share, seed):
    """Single row pairs, one-column slices and all-invalid columns included."""
    image = random_image(np.random.default_rng(seed), rows, cols, valid_share)
    angles = assert_angles_identical(image, 1.5)
    for window, order in SG_SETTINGS:
        assert_smoothing_identical(angles, window, order)
    # a one-column slice of a wider image is a strided view
    for view in slice_columns(image, cols)[1]:
        assert_angles_identical(view, 1.5)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 5), seed=st.integers(0, 2**31),
       setting=st.sampled_from(SG_SETTINGS))
def test_smoothing_identical_with_nan_in_invalid_pixels(rows, cols, seed, setting):
    r = np.random.default_rng(seed)
    valid = r.uniform(size=(rows, cols)) < 0.7
    angle = np.where(valid, r.uniform(0.0, 1.5, (rows, cols)), np.nan)
    assert_smoothing_identical(AngleImage(angle=angle, valid=valid), *setting)
