import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundslice.range_image import (EMPTY, merge_masks, partition_azimuth,
                                     project_spherical, slice_columns,
                                     slice_intervals)

V_SPAN = (math.radians(2.0), math.radians(-24.8))


def as_xyz(points):
    return np.asarray(points, dtype=float)


def binning_oracle(xyz, rows, cols, v_span):
    """Per-point loop: recompute every bin directly, apply nearest-wins."""
    v_top, v_bottom = v_span
    best = {}
    for i, (x, y, z) in enumerate(xyz):
        rng = math.sqrt(x * x + y * y + z * z)
        if rng == 0:
            continue
        elev = math.atan2(z, math.hypot(x, y))
        if elev > v_top or elev < v_bottom:
            continue
        col = int(math.floor((math.atan2(y, x) + math.pi) / (2 * math.pi) * cols)) % cols
        row = min(int(math.floor((v_top - elev) / (v_top - v_bottom) * rows)), rows - 1)
        key = (row, col)
        if key not in best or rng < best[key][0]:
            best[key] = (rng, i)
    return best


def test_single_axis_aligned_point():
    image = project_spherical(as_xyz([[10.0, 0.0, 0.0]]), 64, 1024, V_SPAN)
    v_top, v_bottom = V_SPAN
    row = int(math.floor((v_top - 0.0) / (v_top - v_bottom) * 64))
    col = int(math.floor((0.0 + math.pi) / (2 * math.pi) * 1024))
    assert image.point_index[row, col] == 0
    assert image.range_m[row, col] == pytest.approx(10.0)
    assert (image.point_index != EMPTY).sum() == 1


def test_nearest_wins_on_collision():
    image = project_spherical(as_xyz([[7.0, 0.0, 0.0], [5.0, 0.0, 0.0]]),
                              64, 1024, V_SPAN)
    filled = image.point_index[image.point_index != EMPTY]
    assert filled.tolist() == [1]
    assert image.range_m.max() == pytest.approx(5.0)


def test_projection_matches_binning_oracle(rng):
    n = 100
    xyz = rng.normal(scale=15.0, size=(n, 3))
    xyz[:, 2] = rng.uniform(-6.0, 1.0, n)
    rows, cols = 16, 90
    image = project_spherical(xyz, rows, cols, V_SPAN)
    oracle = binning_oracle(xyz, rows, cols, V_SPAN)
    got = {(r, c): (image.range_m[r, c], image.point_index[r, c])
           for r, c in zip(*np.nonzero(image.point_index != EMPTY))}
    assert set(got) == set(oracle)
    for key, (rng_o, idx_o) in oracle.items():
        assert got[key][1] == idx_o
        assert got[key][0] == pytest.approx(rng_o)


def test_projection_collisions_match_binning_oracle(rng):
    quad, pair, single = rng.normal(scale=15.0, size=(3, 60, 3))
    for p in (quad, pair, single):
        p[:, 2] = rng.uniform(-6.0, 1.0, 60)
    # rays of four points (a farther one and two equally near ones, a range
    # tie for the winner), rays of two, and single points; shuffled so the
    # winners sit at any index
    xyz = np.concatenate([quad, quad * 1.5, quad * 0.75, quad * 0.75,
                          pair, pair * 1.25, single])
    xyz = xyz[rng.permutation(len(xyz))]
    rows, cols = 16, 90
    image = project_spherical(xyz, rows, cols, V_SPAN)
    oracle = binning_oracle(xyz, rows, cols, V_SPAN)
    filled = image.point_index != EMPTY
    assert filled.sum() == len(oracle) < len(xyz) - image.n_out_of_span
    got = {(r, c): (image.range_m[r, c], image.point_index[r, c])
           for r, c in zip(*np.nonzero(filled))}
    assert got == {key: (rng_o, idx_o) for key, (rng_o, idx_o) in oracle.items()}
    np.testing.assert_array_equal(image.xyz[filled], xyz[image.point_index[filled]])
    assert not image.xyz[~filled].any() and not image.range_m[~filled].any()


def test_projection_deterministic(rng):
    xyz = rng.normal(scale=10.0, size=(500, 3))
    a = project_spherical(xyz, 32, 256, V_SPAN)
    b = project_spherical(xyz, 32, 256, V_SPAN)
    np.testing.assert_array_equal(a.range_m, b.range_m)
    np.testing.assert_array_equal(a.point_index, b.point_index)


def test_nonempty_pixels_reproject_into_own_bin(rng):
    xyz = rng.normal(scale=12.0, size=(800, 3))
    rows, cols = 24, 128
    image = project_spherical(xyz, rows, cols, V_SPAN)
    v_top, v_bottom = V_SPAN
    for r, c in zip(*np.nonzero(image.point_index != EMPTY)):
        x, y, z = image.xyz[r, c]
        elev = math.atan2(z, math.hypot(x, y))
        col = int(math.floor((math.atan2(y, x) + math.pi) / (2 * math.pi) * cols)) % cols
        row = min(int(math.floor((v_top - elev) / (v_top - v_bottom) * rows)), rows - 1)
        assert (row, col) == (r, c)


def test_out_of_span_counted(rng):
    xyz = np.array([[5.0, 0.0, 10.0], [5.0, 0.0, 0.0]])  # first is far above span
    image = project_spherical(xyz, 8, 16, V_SPAN)
    assert image.n_out_of_span == 1


def test_degenerate_configs():
    with pytest.raises(ValueError):
        project_spherical(as_xyz([[1, 0, 0]]), 0, 10, V_SPAN)
    with pytest.raises(ValueError):
        project_spherical(as_xyz([[1, 0, 0]]), 10, 10, (0.1, 0.1))


def test_slice_intervals_625_by_5():
    assert slice_intervals(625, 5) == ((0, 125), (125, 250), (250, 375),
                                       (375, 500), (500, 625))


def test_slice_intervals_identity():
    assert slice_intervals(777, 1) == ((0, 777),)


def test_slice_intervals_1024_by_5():
    ivs = slice_intervals(1024, 5)
    widths = [hi - lo for lo, hi in ivs]
    assert widths == [205, 205, 205, 205, 204]
    assert ivs[0][0] == 0 and ivs[-1][1] == 1024


@settings(max_examples=80, deadline=None)
@given(cols=st.integers(1, 4096), k=st.integers(1, 5))
def test_partition_property(cols, k):
    if k > cols:
        k = cols
    ivs = slice_intervals(cols, k)
    assert ivs[0][0] == 0 and ivs[-1][1] == cols
    widths = []
    for (lo, hi), (lo2, _) in zip(ivs, list(ivs[1:]) + [(cols, cols)]):
        assert hi == lo2  # contiguous, disjoint
        widths.append(hi - lo)
    assert max(widths) - min(widths) <= 1


def test_slice_views_share_parent(rng):
    xyz = rng.normal(scale=12.0, size=(600, 3))
    image = project_spherical(xyz, 16, 64, V_SPAN)
    intervals, views = slice_columns(image, 3)
    for view, (lo, hi) in zip(views, intervals):
        assert view.point_index.base is not None
        np.testing.assert_array_equal(view.point_index, image.point_index[:, lo:hi])
        with pytest.raises(ValueError):
            view.range_m[0, 0] = 1.0


def test_slice_out_of_range(rng):
    image = project_spherical(rng.normal(size=(50, 3)), 8, 16, V_SPAN)
    with pytest.raises(ValueError):
        slice_columns(image, 0)
    with pytest.raises(ValueError):
        slice_columns(image, 17)


def test_slicing_lossless_multiset(rng):
    xyz = rng.normal(scale=12.0, size=(700, 3))
    image = project_spherical(xyz, 16, 100, V_SPAN)
    parent = np.sort(image.point_index[image.point_index != EMPTY])
    for k in range(1, 6):
        _, views = slice_columns(image, k)
        pieces = [v.point_index[v.point_index != EMPTY] for v in views]
        np.testing.assert_array_equal(np.sort(np.concatenate(pieces)), parent)


def test_merge_all_ground_and_all_empty(rng):
    xyz = rng.normal(scale=12.0, size=(400, 3))
    image = project_spherical(xyz, 16, 64, V_SPAN)
    intervals, views = slice_columns(image, 4)
    full = [np.ones((v.rows, v.cols), dtype=bool) for v in views]
    merged = merge_masks(full, image, intervals)
    projected = np.zeros(len(xyz), dtype=bool)
    projected[image.point_index[image.point_index != EMPTY]] = True
    np.testing.assert_array_equal(merged, projected)  # losers stay non-ground
    empty = [np.zeros((v.rows, v.cols), dtype=bool) for v in views]
    assert not merge_masks(empty, image, intervals).any()


def test_merge_matches_ownership_oracle(rng):
    xyz = rng.normal(scale=12.0, size=(500, 3))
    image = project_spherical(xyz, 12, 90, V_SPAN)
    intervals, views = slice_columns(image, 3)
    masks = [rng.uniform(size=(v.rows, v.cols)) < 0.4 for v in views]
    merged = merge_masks(masks, image, intervals)

    # oracle: walk every pixel of the unsliced image, find its owning interval
    oracle = np.zeros(len(xyz), dtype=bool)
    for r in range(image.rows):
        for c in range(image.cols):
            idx = image.point_index[r, c]
            if idx == EMPTY:
                continue
            for s, (lo, hi) in enumerate(intervals):
                if lo <= c < hi:
                    if masks[s][r, c - lo]:
                        oracle[idx] = True
                    break
    np.testing.assert_array_equal(merged, oracle)


def test_merge_dimension_mismatch(rng):
    image = project_spherical(rng.normal(size=(100, 3)), 8, 30, V_SPAN)
    intervals, views = slice_columns(image, 2)
    bad = [np.zeros((8, 1), dtype=bool), np.zeros((8, 15), dtype=bool)]
    with pytest.raises(ValueError):
        merge_masks(bad, image, intervals)


def test_partition_azimuth_covers_and_orders(rng):
    xyz = rng.normal(scale=10.0, size=(300, 3))
    parts = partition_azimuth(xyz, 4)
    assembled = np.sort(np.concatenate(parts))
    np.testing.assert_array_equal(assembled, np.arange(300))
    for p in parts:
        assert (np.diff(p) > 0).all() or p.size <= 1


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("rows, cols", [(64, 1024), (32, 360)])
def test_range_matches_eager_projection_range(rows, cols):
    from groundslice.synthetic import make_street_scene, simulate_scan

    xyz, _, _ = simulate_scan(make_street_scene(3), (0.0, 0.0), seed=5)
    image = project_spherical(xyz, rows, cols, V_SPAN)
    if cols == 360:  # bins collide at this size: losers must not leak into range_m
        assert np.count_nonzero(image.point_index != EMPTY) < len(xyz) - image.n_out_of_span
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    eager = np.append(np.sqrt(x * x + y * y + z * z), 0.0)[image.point_index]
    np.testing.assert_array_equal(_bits(image.range_m), _bits(eager))
    with pytest.raises(ValueError):
        image.range_m[0, 0] = 1.0


def test_range_matches_eager_ssl_range():
    from groundslice.range_image import from_ssl_frame
    from groundslice.ssl_frame import decode_ssl_frame
    from groundslice.synthetic import make_ssl_capture

    for seed in (4, 8):
        frame = decode_ssl_frame(make_ssl_capture(seed=seed, dropout=0.1), "even")
        image, _ = from_ssl_frame(frame)
        eager = np.where(frame.valid, np.linalg.norm(frame.xyz, axis=2), 0.0)
        np.testing.assert_array_equal(_bits(image.range_m), _bits(eager))
        assert image.xyz is frame.xyz
