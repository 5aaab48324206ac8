import itertools
import math

import numpy as np
import pytest

from groundslice.seg_ransac import (PlaneModel, count_inliers, fit_plane_3pts,
                                    ransac_ground)


def as_xyz(points):
    return np.asarray(points, dtype=float)


def test_fit_xy_plane():
    plane = fit_plane_3pts((0, 0, 0), (1, 0, 0), (0, 1, 0))
    np.testing.assert_allclose(plane.normal, [0, 0, 1], atol=1e-12)
    assert plane.d == pytest.approx(0.0, abs=1e-12)


def test_fit_horizontal_plane_at_z5():
    plane = fit_plane_3pts((0, 0, 5), (1, 0, 5), (0, 1, 5))
    np.testing.assert_allclose(plane.normal, [0, 0, 1], atol=1e-12)
    assert plane.d == pytest.approx(-5.0)


def test_fit_canonical_orientation():
    # reversed winding still yields normal.z >= 0
    plane = fit_plane_3pts((0, 1, 0), (1, 0, 0), (0, 0, 0))
    assert plane.normal[2] >= 0


def test_fit_random_triples_residuals(rng):
    for _ in range(200):
        pts = rng.normal(scale=5.0, size=(3, 3))
        cross = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        if np.linalg.norm(cross) <= 1e-6:
            continue
        plane = fit_plane_3pts(*pts)
        assert np.linalg.norm(plane.normal) == pytest.approx(1.0, abs=1e-9)
        for p in pts:
            assert abs(plane.normal @ p + plane.d) < 1e-9


def test_fit_degenerate_triples():
    with pytest.raises(ValueError):
        fit_plane_3pts((0, 0, 0), (1, 1, 1), (2, 2, 2))
    with pytest.raises(ValueError):
        fit_plane_3pts((1, 2, 3), (1, 2, 3), (4, 5, 6))


def test_inliers_exactly_on_plane(rng):
    xy = rng.uniform(-10, 10, size=(100, 2))
    xyz = np.column_stack([xy, np.zeros(100)])
    plane = PlaneModel(normal=np.array([0.0, 0.0, 1.0]), d=0.0)
    count, mask = count_inliers(xyz, plane, 0.1)
    assert count == 100
    assert mask.all()


def test_inlier_boundary_is_closed():
    plane = PlaneModel(normal=np.array([0.0, 0.0, 1.0]), d=0.0)
    count, _ = count_inliers(as_xyz([[0, 0, 0.2]]), plane, 0.2)
    assert count == 1


def test_inliers_match_pointwise_oracle(rng):
    xyz = rng.normal(scale=4.0, size=(300, 3))
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    if n[2] < 0:
        n = -n
    plane = PlaneModel(normal=n, d=float(rng.normal()))
    thr = 0.5
    _, mask = count_inliers(xyz, plane, thr)
    for i, p in enumerate(xyz):
        want = abs(n[0] * p[0] + n[1] * p[1] + n[2] * p[2] + plane.d) <= thr
        assert mask[i] == want


def test_perfect_plane_recovered_any_seed(rng):
    xy = rng.uniform(-20, 20, size=(500, 2))
    xyz = np.column_stack([xy, np.full(500, -1.6)])
    for seed in (0, 1, 99):
        mask = ransac_ground(xyz, iterations=50, dist_threshold=0.2,
                             max_normal_tilt=math.radians(15), rng_seed=seed)
        assert mask.all()


def test_too_few_points():
    with pytest.raises(ValueError):
        ransac_ground(as_xyz([[0, 0, 0], [1, 1, 1]]), 10, 0.1,
                      math.radians(15), 0)


def test_deterministic_for_fixed_seed(rng):
    xyz = rng.normal(scale=8.0, size=(400, 3))
    a = ransac_ground(xyz, 100, 0.3, math.radians(20), rng_seed=7)
    b = ransac_ground(xyz, 100, 0.3, math.radians(20), rng_seed=7)
    np.testing.assert_array_equal(a, b)


def test_tilt_gate_rejects_steep_planes(rng):
    # all points on a vertical wall: no acceptable model -> all false
    ys = rng.uniform(-5, 5, 100)
    zs = rng.uniform(-2, 2, 100)
    xyz = np.column_stack([np.full(100, 3.0), ys, zs])
    mask = ransac_ground(xyz, 100, 0.2, math.radians(15), rng_seed=0)
    assert not mask.any()


def exhaustive_oracle(xyz, dist_threshold, max_tilt):
    """Evaluate every 3-index sample under the same acceptance rule."""
    cos_limit = math.cos(max_tilt)
    best_count, best_mask = 0, np.zeros(len(xyz), dtype=bool)
    for i, j, k in itertools.combinations(range(len(xyz)), 3):
        normal = np.cross(xyz[j] - xyz[i], xyz[k] - xyz[i])
        norm = np.linalg.norm(normal)
        if norm <= 1e-12:
            continue
        normal = normal / norm
        if normal[2] < 0:
            normal = -normal
        if normal[2] < cos_limit:
            continue
        dist = np.abs(xyz @ normal - normal @ xyz[i])
        mask = dist <= dist_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count, best_mask = count, mask
    return best_mask


def plane_plus_outliers(rng, n_plane=48, n_out=12, thr=0.2):
    xy = rng.uniform(-10, 10, size=(n_plane, 2))
    plane_pts = np.column_stack([xy, np.full(n_plane, -1.5)])
    out_xy = rng.uniform(-10, 10, size=(n_out, 2))
    out_z = -1.5 + rng.choice([-1, 1], n_out) * rng.uniform(5 * thr, 4.0, n_out)
    outliers = np.column_stack([out_xy, out_z])
    xyz = np.concatenate([plane_pts, outliers])
    return xyz[rng.permutation(len(xyz))]


def test_matches_exhaustive_oracle_small(rng):
    xyz = plane_plus_outliers(rng)
    thr, tilt = 0.2, math.radians(15)
    want = exhaustive_oracle(xyz, thr, tilt)
    got = ransac_ground(xyz, iterations=200, dist_threshold=thr,
                        max_normal_tilt=tilt, rng_seed=3)
    np.testing.assert_array_equal(got, want)


def test_slice_degradation_direction(rng):
    """Structured clutter scenes: mean slice IoU at K=5 <= IoU at K=1."""
    from groundslice.metrics import confusion, iou
    from groundslice.range_image import partition_azimuth

    deltas = []
    for seed in range(3):
        r = np.random.default_rng(seed)
        n_g = 4000
        az = r.uniform(-np.pi, np.pi, n_g)
        rad = np.sqrt(r.uniform(4, 1600, n_g))
        gx, gy = rad * np.cos(az), rad * np.sin(az)
        gz = -1.7 + 0.004 * gx + 0.05 * np.sin(gx / 7.0) + r.normal(0, 0.02, n_g)
        ground = np.column_stack([gx, gy, gz])
        clutter = []
        for _ in range(14):  # tilted panels: plausible competitors per slice
            cx, cy = r.uniform(-30, 30, 2)
            pts = r.uniform(-2.5, 2.5, size=(260, 2))
            tilt = r.uniform(-0.22, 0.22, 2)
            z = -1.7 + r.uniform(0.8, 2.6) + pts @ tilt
            clutter.append(np.column_stack([cx + pts[:, 0], cy + pts[:, 1], z]))
        xyz = np.concatenate([ground] + clutter)
        truth = np.zeros(len(xyz), dtype=bool)
        truth[:n_g] = True
        order = r.permutation(len(xyz))
        xyz, truth = xyz[order], truth[order]

        def run(k):
            mask = np.zeros(len(xyz), dtype=bool)
            for s, idx in enumerate(partition_azimuth(xyz, k)):
                if idx.size < 3:
                    continue
                mask[idx] = ransac_ground(xyz[idx], 120, 0.2, math.radians(15),
                                          rng_seed=9 ^ s)
            return iou(confusion(mask, truth))

        deltas.append(run(1) - run(5))
    assert np.mean(deltas) >= 0.0


def test_all_degenerate_samples_return_all_false():
    # every triple of a collinear cloud is degenerate: no model, no error
    xyz = np.array([[t, 2 * t, -1.0 + 0.0 * t] for t in np.linspace(0, 9, 12)])
    mask = ransac_ground(xyz, 50, 0.2, math.radians(15), rng_seed=1)
    assert not mask.any()
