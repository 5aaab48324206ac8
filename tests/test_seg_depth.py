import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundslice import default_config
from groundslice.config import MAX_SMOOTHING_WINDOW, DepthConfig
from groundslice.kitti_io import PointCloud
from groundslice.parallel_exec import frame_from_cloud, frame_from_ssl
from groundslice.range_image import merge_masks, project_spherical, slice_columns
from groundslice.seg_depth import (AngleImage, bfs_ground_label,
                                   compute_angle_image, depth_segment_image,
                                   savitzky_golay_smooth)
from groundslice.ssl_frame import decode_ssl_frame
from groundslice.synthetic import make_ssl_capture, make_street_scene, simulate_scan

V_SPAN = (math.radians(2.0), math.radians(-24.8))


def flat_plane_cloud(z=-1.7, rows=64, cols=360, sensor_height=1.73):
    """One return per beam that would hit an infinite plane at height z."""
    v_top, v_bottom = V_SPAN
    elev = v_top - (np.arange(rows) + 0.5) * (v_top - v_bottom) / rows
    azim = -math.pi + (np.arange(cols) + 0.5) * 2 * math.pi / cols
    pts = []
    for e in elev:
        if e >= -1e-3:
            continue
        d = -z / math.tan(-e)
        if d > 80.0:
            continue
        for a in azim:
            pts.append((d * math.cos(a), d * math.sin(a), z))
    return np.array(pts)


def test_flat_plane_angles_below_one_degree():
    image = project_spherical(flat_plane_cloud(), 64, 360, V_SPAN)
    angles = compute_angle_image(image, sensor_height=1.7)
    assert angles.valid.any()
    assert np.degrees(angles.angle[angles.valid].max()) < 1.0


def test_vertical_wall_angles_near_ninety():
    # constant planar distance, increasing z: a wall slice in one column
    zs = np.linspace(-1.0, 2.0, 12)
    xyz = np.array([[5.0, 0.0, z] for z in zs])
    image = project_spherical(xyz, 48, 64, (math.radians(25), math.radians(-25)))
    angles = compute_angle_image(image, sensor_height=1.73)
    col_angles = angles.angle[angles.valid]
    # all but the virtual-seeded bottom entry are exactly vertical steps
    assert np.degrees(np.sort(col_angles)[1:]).min() > 89.0


def test_random_column_matches_pairwise_oracle(rng):
    rows, cols = 40, 4
    xyz = np.zeros((rows, cols, 3))
    valid = np.zeros((rows, cols), dtype=bool)
    r_valid = np.sort(rng.choice(rows, size=20, replace=False))
    col = 2
    xyz[r_valid, col, 0] = rng.uniform(2.0, 40.0, 20)
    xyz[r_valid, col, 1] = rng.uniform(-3.0, 3.0, 20)
    xyz[r_valid, col, 2] = rng.uniform(-2.0, 2.0, 20)
    valid[r_valid, col] = True

    from groundslice.range_image import RangeImage
    point_index = np.where(valid, np.arange(rows * cols).reshape(rows, cols), -1)
    image = RangeImage(xyz=xyz, point_index=point_index, n_points=rows * cols)
    sensor_height = 1.5
    angles = compute_angle_image(image, sensor_height=sensor_height)

    # independent per-pair oracle, bottom-up
    prev_d, prev_z = 0.0, -sensor_height
    for r in r_valid[::-1]:
        x, y, z = xyz[r, col]
        d = math.hypot(x, y)
        want = math.atan2(abs(z - prev_z), abs(d - prev_d))
        assert angles.angle[r, col] == pytest.approx(want, abs=1e-12)
        prev_d, prev_z = d, z


def test_angle_image_requires_two_rows():
    from groundslice.range_image import RangeImage
    image = RangeImage(xyz=np.zeros((1, 4, 3)), point_index=np.full((1, 4), -1), n_points=0)
    with pytest.raises(ValueError):
        compute_angle_image(image)


def test_column_permutation_equivariance(rng):
    from groundslice.range_image import RangeImage
    rows, cols = 16, 10
    valid = rng.uniform(size=(rows, cols)) < 0.7
    xyz = rng.uniform(1.0, 20.0, size=(rows, cols, 3)) * valid[:, :, None]
    point_index = np.where(valid, np.arange(rows * cols).reshape(rows, cols), -1)

    def build(v, x, p):
        return RangeImage(xyz=x, point_index=p, n_points=rows * cols)

    perm = rng.permutation(cols)
    a = compute_angle_image(build(valid, xyz, point_index))
    b = compute_angle_image(build(valid[:, perm], xyz[:, perm], point_index[:, perm]))
    np.testing.assert_allclose(b.angle, a.angle[:, perm])
    np.testing.assert_array_equal(b.valid, a.valid[:, perm])


# ---------------------------------------------------------------------------
# Savitzky-Golay smoothing
# ---------------------------------------------------------------------------

def column_image(values, valid=None):
    values = np.asarray(values, dtype=float)[:, None]
    if valid is None:
        valid = np.ones_like(values, dtype=bool)
    else:
        valid = np.asarray(valid, dtype=bool)[:, None]
    return AngleImage(angle=values * valid, valid=valid)


def direct_lsq_oracle(values, valid, window, order):
    """Solve every window's least-squares fit with lstsq, no shortcuts."""
    n = len(values)
    half = window // 2
    out = values.astype(float).copy()
    for i in range(n):
        if not valid[i]:
            continue
        pos, ys = [], []
        for off in range(-half, half + 1):
            j = i + off
            if 0 <= j < n and valid[j]:
                pos.append(off)
                ys.append(values[j])
        if len(pos) < 2:
            continue
        deg = min(order, len(pos) - 1)
        a = np.vander(np.asarray(pos, float), deg + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(a, np.asarray(ys, float), rcond=None)
        out[i] = coef[0]
    return out


def test_sg_bit_identical_to_per_pixel_sum(rng):
    """Same coefficients, products and summation order as a per-pixel loop."""
    rows, cols = 30, 7
    valid = rng.uniform(size=(rows, cols)) < 0.7
    angle = np.where(valid, rng.uniform(0.0, 1.5, (rows, cols)), np.nan)
    img = AngleImage(angle=angle, valid=valid)
    for window, order in ((5, 2), (7, 3), (9, 2)):
        half = window // 2
        want = angle.copy()
        for r, c in zip(*np.nonzero(valid)):
            pos = [off for off in range(-half, half + 1)
                   if 0 <= r + off < rows and valid[r + off, c]]
            if len(pos) < 2:
                continue
            deg = min(order, len(pos) - 1)
            vander = np.vander(np.asarray(pos, float), deg + 1, increasing=True)
            acc = 0.0
            for c_k, off in zip(np.linalg.pinv(vander)[0], pos):
                acc += c_k * angle[r + off, c]
            want[r, c] = acc
        got = savitzky_golay_smooth(img, window, order).angle
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_sg_constant_column_unchanged():
    img = column_image([0.1] * 5)
    sm = savitzky_golay_smooth(img, 5, 2)
    np.testing.assert_allclose(sm.angle[:, 0], [0.1] * 5, atol=1e-12)


def test_sg_preserves_linear_ramp():
    ramp = np.linspace(0.0, 0.8, 9)
    sm = savitzky_golay_smooth(column_image(ramp), 5, 2)
    np.testing.assert_allclose(sm.angle[:, 0], ramp, atol=1e-12)


def test_sg_matches_direct_lsq_oracle(rng):
    values = rng.uniform(0.0, 1.5, 60)
    valid = rng.uniform(size=60) < 0.8
    img = column_image(values, valid)
    for window, order in ((5, 2), (7, 3), (9, 2)):
        sm = savitzky_golay_smooth(img, window, order)
        want = direct_lsq_oracle(values, valid, window, order)
        got = sm.angle[:, 0]
        assert np.abs(got[valid] - want[valid]).max() < 1e-9
        np.testing.assert_array_equal(sm.valid, img.valid)
        # invalid entries untouched
        np.testing.assert_array_equal(got[~valid], (values * valid)[~valid])


def test_sg_multicolumn_matches_oracle(rng):
    rows, cols = 30, 7
    values = rng.uniform(0.0, 1.5, (rows, cols))
    valid = rng.uniform(size=(rows, cols)) < 0.75
    img = AngleImage(angle=values * valid, valid=valid)
    sm = savitzky_golay_smooth(img, 5, 2)
    for c in range(cols):
        want = direct_lsq_oracle((values * valid)[:, c], valid[:, c], 5, 2)
        assert np.abs(sm.angle[valid[:, c], c] - want[valid[:, c]]).max() < 1e-9


def test_sg_lone_sample_passthrough():
    img = column_image([0.3, 0.0, 0.0, 0.0, 0.7],
                       valid=[True, False, False, False, True])
    sm = savitzky_golay_smooth(img, 5, 2)
    # window of row 0 contains only itself among valid entries? no: row 4 is
    # outside its 5-window (offsets -2..2 cover rows 0..2), so pass through
    assert sm.angle[0, 0] == 0.3


def test_sg_matches_direct_lsq_oracle_at_the_window_cap(rng):
    rows, cols = 80, 3
    values = rng.uniform(0.0, 1.5, (rows, cols))
    valid = rng.uniform(size=(rows, cols)) < 0.8
    img = AngleImage(angle=values * valid, valid=valid)
    for order in (2, 4):
        sm = savitzky_golay_smooth(img, MAX_SMOOTHING_WINDOW, order)
        for c in range(cols):
            want = direct_lsq_oracle((values * valid)[:, c], valid[:, c],
                                     MAX_SMOOTHING_WINDOW, order)
            assert np.abs(sm.angle[valid[:, c], c] - want[valid[:, c]]).max() < 1e-9


def test_sg_invalid_parameters():
    img = column_image([0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="at most"):
        savitzky_golay_smooth(img, MAX_SMOOTHING_WINDOW + 2, 2)
    with pytest.raises(ValueError):
        savitzky_golay_smooth(img, 4, 2)
    with pytest.raises(ValueError):
        savitzky_golay_smooth(img, 5, 0)
    with pytest.raises(ValueError):
        savitzky_golay_smooth(img, 5, 5)


# ---------------------------------------------------------------------------
# BFS labeling
# ---------------------------------------------------------------------------

def bfs_oracle(angles, seed_threshold, propagation_threshold):
    """Breadth-first search from the seeds, one pixel at a time."""
    rows, cols = angles.shape
    cap = seed_threshold + propagation_threshold
    ang = angles.angle.tolist()
    val = angles.valid.tolist()
    visited = [[False] * cols for _ in range(rows)]

    queue = deque()
    for c in range(cols):
        for r in range(rows - 1, -1, -1):
            if val[r][c]:
                if ang[r][c] < seed_threshold:
                    visited[r][c] = True
                    queue.append((r, c))
                break

    while queue:
        r, c = queue.popleft()
        a0 = ang[r][c]
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < rows and 0 <= cc < cols and val[rr][cc] and not visited[rr][cc]:
                a1 = ang[rr][cc]
                if abs(a1 - a0) < propagation_threshold and a1 < cap:
                    visited[rr][cc] = True
                    queue.append((rr, cc))

    return np.array(visited, dtype=bool).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 20), cols=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       valid_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
       nonfinite_share=st.sampled_from([0.0, 0.1]), on_grid=st.booleans())
def test_labelling_matches_bfs_oracle(rows, cols, seed, valid_share, nonfinite_share,
                                      on_grid):
    r = np.random.default_rng(seed)
    valid = r.uniform(size=(rows, cols)) < valid_share
    if on_grid:
        # binary fractions hit angle steps and caps exactly at the thresholds
        seed_t, prop_t = 0.25, 0.125
        angle = r.integers(0, 12, (rows, cols)) * 0.0625
    else:
        seed_t, prop_t = math.radians(r.uniform(1, 15)), math.radians(r.uniform(1, 15))
        angle = r.uniform(0, math.radians(45), (rows, cols))
    odd = r.uniform(size=(rows, cols)) < nonfinite_share
    angle[odd] = r.choice([np.nan, np.inf, -np.inf], size=int(odd.sum()))
    img = AngleImage(angle=angle, valid=valid)
    got = bfs_ground_label(img, seed_t, prop_t)
    assert got.shape == (rows, cols) and got.dtype == bool
    np.testing.assert_array_equal(got, bfs_oracle(img, seed_t, prop_t))


def lattice_oracle(angles, seed_threshold, propagation_threshold):
    """The scipy labeller the run labeller replaced: nodes and edges on one lattice.

    Nodes sit at even coordinates of a (2R-1) x (2C-1) image and the edges
    between them at the odd ones; ndimage.label finds the components.
    """
    from scipy import ndimage

    rows, cols = angles.shape
    a = angles.angle
    valid = angles.valid
    node = valid & (a < seed_threshold + propagation_threshold)
    lattice = np.zeros((2 * rows - 1, 2 * cols - 1), dtype=bool)
    lattice[::2, ::2] = node
    with np.errstate(invalid="ignore"):
        lattice[1::2, ::2] = (node[:-1] & node[1:]
                              & (np.abs(a[1:] - a[:-1]) < propagation_threshold))
        lattice[::2, 1::2] = (node[:, :-1] & node[:, 1:]
                              & (np.abs(a[:, 1:] - a[:, :-1]) < propagation_threshold))
    labels, count = ndimage.label(lattice)
    labels = labels[::2, ::2]
    seed_cols = np.flatnonzero(valid.any(axis=0))
    seed_rows = rows - 1 - np.argmax(valid[::-1, seed_cols], axis=0)
    seeded = a[seed_rows, seed_cols] < seed_threshold
    keep = np.zeros(count + 1, dtype=bool)
    keep[labels[seed_rows[seeded], seed_cols[seeded]]] = True
    return keep[labels]


def assert_labels_match(img, oracle, seed_t, prop_t):
    got = bfs_ground_label(img, seed_t, prop_t)
    assert got.shape == img.shape and got.dtype == bool and got.flags.c_contiguous
    np.testing.assert_array_equal(got, oracle(img, seed_t, prop_t))


@settings(max_examples=100, deadline=None)
@given(length=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), column=st.booleans(),
       valid_share=st.sampled_from([0.5, 0.9, 1.0]))
def test_single_row_and_column_match_bfs_oracle(length, seed, column, valid_share):
    r = np.random.default_rng(seed)
    shape = (length, 1) if column else (1, length)
    valid = r.uniform(size=shape) < valid_share
    # binary fractions put some steps exactly on the threshold
    angle = r.integers(0, 6, shape) * 0.0625
    assert_labels_match(AngleImage(angle=angle, valid=valid), bfs_oracle, 0.25, 0.125)


def serpentine(rows, cols, step=0.11):
    """Rows of step * r joined at alternating ends: one path, one pixel per run.

    With a propagation threshold of 0.1 no vertical edge joins two rows but
    the half step at the end of each row.
    """
    angle = np.repeat(step * np.arange(rows)[:, None], cols, axis=1)
    for r in range(rows - 1):
        angle[r + 1, cols - 1 if r % 2 == 0 else 0] = step * (r + 0.5)
    return angle


@pytest.mark.parametrize("case", ["row_serpentine", "column_serpentine", "checkerboard"])
def test_worst_case_images_match_lattice_oracle(case):
    rows, cols = 64, 1024
    if case == "row_serpentine":
        angle, seed_t = serpentine(rows, cols), 8.0
    elif case == "column_serpentine":
        angle, seed_t = np.ascontiguousarray(serpentine(cols, rows).T), 120.0
    else:
        angle, seed_t = 0.11 * (np.add.outer(np.arange(rows), np.arange(cols)) % 2), 8.0
    img = AngleImage(angle=angle, valid=np.ones((rows, cols), dtype=bool))
    if case != "checkerboard":
        # the whole image is one path, reached from every seed
        assert bfs_ground_label(img, seed_t, 0.1).all()
    assert_labels_match(img, lattice_oracle, seed_t, 0.1)


def smoothed_slices(frame, cfg, k):
    image = frame.range_image(cfg)
    d = cfg.depth
    for view in slice_columns(image, k)[1]:
        yield savitzky_golay_smooth(compute_angle_image(view, d.sensor_height),
                                    d.smoothing_window, d.smoothing_order)


def threshold_pairs(d):
    return [(d.seed_threshold, d.propagation_threshold),
            (2 * d.seed_threshold, 0.5 * d.propagation_threshold),
            (0.5 * d.seed_threshold, 2 * d.propagation_threshold)]


def test_street_frame_slices_match_lattice_oracle():
    cfg = default_config()
    xyz, _, _ = simulate_scan(make_street_scene(7), (0.0, 0.0), seed=7)
    frame = frame_from_cloud(PointCloud(xyz=xyz))
    for k in (1, 2, 5):
        for img in smoothed_slices(frame, cfg, k):
            for seed_t, prop_t in threshold_pairs(cfg.depth):
                assert_labels_match(img, lattice_oracle, seed_t, prop_t)


def test_ssl_capture_slices_match_lattice_oracle():
    cfg = default_config()
    cfg.depth.sensor_height = cfg.ssl.sensor_height
    frame = frame_from_ssl(decode_ssl_frame(make_ssl_capture(9), cfg.ssl.parity))
    for k in (1, 5):
        for img in smoothed_slices(frame, cfg, k):
            for seed_t, prop_t in threshold_pairs(cfg.depth):
                assert_labels_match(img, lattice_oracle, seed_t, prop_t)


def test_bfs_all_zero_labels_every_valid_pixel():
    img = AngleImage(angle=np.zeros((10, 12)), valid=np.ones((10, 12), dtype=bool))
    mask = bfs_ground_label(img, math.radians(5), math.radians(5))
    assert mask.all()


def test_bfs_all_zero_with_gaps_labels_each_column_seed(rng):
    valid = rng.uniform(size=(10, 12)) < 0.8
    img = AngleImage(angle=np.zeros((10, 12)), valid=valid)
    mask = bfs_ground_label(img, math.radians(5), math.radians(5))
    assert not (mask & ~valid).any()
    for c in range(12):
        rows_v = np.nonzero(valid[:, c])[0]
        if rows_v.size:
            assert mask[rows_v[-1], c]  # the column's lowest return is seeded


def test_bfs_no_seed_no_ground():
    img = AngleImage(angle=np.full((6, 6), math.radians(45.0)),
                     valid=np.ones((6, 6), dtype=bool))
    mask = bfs_ground_label(img, math.radians(5), math.radians(5))
    assert not mask.any()


def test_bfs_wall_blocks_roof():
    # 5x5 grid: low-angle floor rows 3-4, a 30-degree wall row 2,
    # low-angle "roof" rows 0-1. Hand-traced: only floor is reached.
    deg = math.radians
    angle = np.zeros((5, 5))
    angle[2, :] = deg(30.0)
    img = AngleImage(angle=angle, valid=np.ones((5, 5), dtype=bool))
    mask = bfs_ground_label(img, seed_threshold=deg(5), propagation_threshold=deg(5))
    want = np.zeros((5, 5), dtype=bool)
    want[3:, :] = True  # hand-traced BFS result
    np.testing.assert_array_equal(mask, want)


def test_bfs_order_independence(rng):
    """Stack traversal (DFS) must reach the same set as queue traversal."""
    rows, cols = 12, 14
    valid = rng.uniform(size=(rows, cols)) < 0.85
    angle = rng.uniform(0, math.radians(40), (rows, cols)) * valid
    img = AngleImage(angle=angle, valid=valid)
    seed_t, prop_t = math.radians(12), math.radians(8)
    bfs = bfs_ground_label(img, seed_t, prop_t)

    # independent DFS with the same edge rule
    cap = seed_t + prop_t
    visited = np.zeros((rows, cols), dtype=bool)
    stack = []
    for c in range(cols):
        for r in range(rows - 1, -1, -1):
            if valid[r, c]:
                if angle[r, c] < seed_t:
                    visited[r, c] = True
                    stack.append((r, c))
                break
    while stack:
        r, c = stack.pop()
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < rows and 0 <= cc < cols and valid[rr, cc] \
                    and not visited[rr, cc] \
                    and abs(angle[rr, cc] - angle[r, c]) < prop_t \
                    and angle[rr, cc] < cap:
                visited[rr, cc] = True
                stack.append((rr, cc))
    np.testing.assert_array_equal(bfs, visited)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(1.0, 20.0), st.floats(1.0, 30.0))
def test_bfs_monotone_in_seed_threshold(seed, seed_deg, extra_deg):
    r = np.random.default_rng(seed)
    valid = r.uniform(size=(8, 8)) < 0.9
    angle = r.uniform(0, math.radians(50), (8, 8)) * valid
    img = AngleImage(angle=angle, valid=valid)
    prop = math.radians(6.0)
    small = bfs_ground_label(img, math.radians(seed_deg), prop)
    large = bfs_ground_label(img, math.radians(seed_deg + extra_deg), prop)
    assert (large | small == large).all()  # superset


def test_bfs_rejects_bad_thresholds():
    img = AngleImage(angle=np.zeros((3, 3)), valid=np.ones((3, 3), dtype=bool))
    with pytest.raises(ValueError):
        bfs_ground_label(img, 0.0, 0.1)


def test_flat_plane_slicing_exactly_stable():
    """Merged K-slice mask equals the unsliced mask on a flat-plane frame."""
    image = project_spherical(flat_plane_cloud(rows=32, cols=180), 32, 180, V_SPAN)
    cfg = DepthConfig()
    ref_intervals, ref_views = slice_columns(image, 1)
    ref = merge_masks([depth_segment_image(ref_views[0], cfg)], image, ref_intervals)
    assert ref.any()
    for k in range(2, 6):
        intervals, views = slice_columns(image, k)
        masks = [depth_segment_image(v, cfg) for v in views]
        merged = merge_masks(masks, image, intervals)
        np.testing.assert_array_equal(merged, ref)


def test_sg_interior_matches_scipy_coefficients(rng):
    """Full-window smoothing equals the classic filter away from edges."""
    from scipy.signal import savgol_filter

    values = rng.uniform(0.0, 1.5, 50)
    img = column_image(values)
    for window, order in ((5, 2), (7, 3), (9, 2)):
        sm = savitzky_golay_smooth(img, window, order)
        want = savgol_filter(values, window, order)
        half = window // 2
        np.testing.assert_allclose(sm.angle[half:-half, 0],
                                   want[half:-half], atol=1e-10)
