"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 1-3 reproduce the
slice-count trends on a 50-frame synthetic street sequence written in the
real dataset format; 4-9 are exact property and oracle-equivalence suites.
The speedup criterion (6) preconditions a >= 4-core host and skips elsewhere.
"""

import itertools
import math
import os
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from groundslice.config import default_config
from groundslice.kitti_io import list_sequence, load_frame
from groundslice.metrics import EvalStats, aggregate, confusion, f1, iou
from groundslice.parallel_exec import (SliceExecutor, frame_from_cloud,
                                       frame_from_ssl, run_sliced)
from groundslice.range_image import (EMPTY, project_spherical, slice_columns)
from groundslice.seg_depth import AngleImage, savitzky_golay_smooth
from groundslice.seg_ransac import ransac_ground
from groundslice.seg_smrf import morphological_open
from groundslice.ssl_frame import (RECORDS_PER_FRAME, SUBFRAME_COLS,
                                   SUBFRAME_COUNT, SUBFRAME_ROWS,
                                   decode_ssl_frame, encode_ssl_frame)
from groundslice.synthetic import (make_random_cloud, make_ssl_capture,
                                   write_sequence)

V_SPAN = (math.radians(2.0), math.radians(-24.8))
SEQ_FRAMES = 50


NOTES = []  # conftest prints these in the terminal summary


def note(criterion, ok, detail):
    status = ok if isinstance(ok, str) else ("PASS" if ok else "FAIL")
    line = f"[criterion {criterion}] {status} - {detail}"
    NOTES.append(line)
    print("\n" + line)


@pytest.fixture(scope="session")
def street_sequence(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_kitti")
    write_sequence(root, "00", n_frames=SEQ_FRAMES, seed=42)
    return root


@pytest.fixture(scope="session")
def trend_table(street_sequence):
    """Mean IoU per (method, K) over the 50-frame sequence, computed once."""
    t0 = time.perf_counter()
    cfg = default_config()
    pairs = list_sequence(street_sequence, "00")
    assert len(pairs) == SEQ_FRAMES
    loaded = []
    for scan, label in pairs:
        cloud, truth, _ = load_frame(scan, label)
        loaded.append((frame_from_cloud(cloud, scan.stem), truth))

    wanted = [("depth", k) for k in range(1, 6)]
    wanted += [("ransac", k) for k in range(1, 6)]
    wanted += [("smrf", k) for k in (1, 2)]
    table = {}
    for method, k in wanted:
        values = []
        for frame, truth in loaded:
            mask, _ = run_sliced(frame, method, k, 1, cfg, seed=0)
            values.append(iou(confusion(mask, truth)))
        table[(method, k)] = aggregate(values)
    table["elapsed_s"] = time.perf_counter() - t0
    return table


def test_criterion_01_depth_trend_stability(trend_table):
    """Depth mean IoU varies by < 5 percentage points across K = 1..5."""
    means = [100 * trend_table[("depth", k)].mean for k in range(1, 6)]
    spread = max(means) - min(means)
    elapsed = trend_table["elapsed_s"]
    ok = spread < 5.0 and elapsed < 600.0
    note(1, ok, f"depth mean IoU by K: {[f'{m:.2f}' for m in means]}, "
                f"spread {spread:.2f} pts (< 5 required); whole trend sweep "
                f"took {elapsed:.0f}s (< 600 budget)")
    assert ok


def _mean_abs_slice_change(table, method):
    """Mean over frames of |IoU(K=2) - IoU(K=1)|, in IoU points."""
    pairs = zip(table[(method, 1)].values, table[(method, 2)].values)
    return 100 * statistics.fmean(abs(k2 - k1) for k1, k2 in pairs)


def test_criterion_02_smrf_fragility(trend_table):
    """Slicing at K=2 moves per-frame grid-method IoU more than depth IoU.

    The paper finds the range-image method the most resilient to slicing;
    this is the grid side of that comparison, with no margin.
    """
    k1 = 100 * trend_table[("smrf", 1)].mean
    k2 = 100 * trend_table[("smrf", 2)].mean
    smrf_change = _mean_abs_slice_change(trend_table, "smrf")
    depth_change = _mean_abs_slice_change(trend_table, "depth")
    ok = smrf_change > depth_change
    note(2, ok, f"smrf mean IoU K=1 {k1:.2f}, K=2 {k2:.2f}, drop {k1 - k2:.2f} "
                f"pts; mean |per-frame IoU change| K=1->2: smrf "
                f"{smrf_change:.3f} pts, depth {depth_change:.3f} pts (smrf > "
                f"depth required). Slicing is not confined to a band around "
                f"the cut: each slice anchors its own grid lattice and "
                f"inpaints empty cells from any distance.")
    assert ok


def test_criterion_03_ransac_degradation(trend_table):
    """Point-method mean IoU non-increasing across K within a 2-point band."""
    means = [100 * trend_table[("ransac", k)].mean for k in range(1, 6)]
    violations = [(k, means[k - 1], means[k])
                  for k in range(1, 5) if means[k] > means[k - 1] + 2.0]
    ok = not violations
    note(3, ok, f"ransac mean IoU by K: {[f'{m:.2f}' for m in means]} "
                f"(each step <= previous + 2.0)")
    assert ok


@pytest.fixture(scope="session")
def mixed_frames(street_sequence):
    """20 frames: 8 dataset scans, 6 decoded captures, 6 synthetic clouds."""
    frames = []
    pairs = list_sequence(street_sequence, "00", frame_range=(0, 7))
    for scan, label in pairs:
        cloud, _, _ = load_frame(scan, label)
        frames.append(frame_from_cloud(cloud, f"kitti_{scan.stem}"))
    for i in range(6):
        raw = make_ssl_capture(seed=100 + i, dropout=0.04)
        frames.append(frame_from_ssl(decode_ssl_frame(raw, "even"), f"ssl_{i}"))
    for i in range(6):
        frames.append(frame_from_cloud(make_random_cloud(200 + i, 2500),
                                       f"synth_{i}"))
    assert len(frames) == 20
    return frames


def test_criterion_04_parallel_determinism(mixed_frames):
    """Every (K, P) merged mask bit-identical to the P=1 run. Zero tolerance."""
    cfg = default_config()
    cfg.smrf.max_window_radius = 6  # determinism is parameter-independent
    cfg.ransac.iterations = 80
    checked = 0
    with SliceExecutor(5, "process") as pool:
        for frame in mixed_frames:
            for method in ("depth", "ransac", "smrf"):
                for k in range(1, 6):
                    ref, _ = run_sliced(frame, method, k, 1, cfg, seed=3)
                    for p in range(2, k + 1):
                        got, _ = run_sliced(frame, method, k, p, cfg, seed=3,
                                            executor=pool)
                        assert np.array_equal(got, ref), \
                            f"{frame.frame_id} {method} K={k} P={p} diverged"
                        checked += 1
    note(4, True, f"{checked} (frame, method, K, P) runs bit-identical to P=1 "
                  f"across 20 mixed frames")


def test_criterion_05_ssl_decode_roundtrip():
    """Decode -> inverse map recovers record order exactly; 126x625 grid."""
    raw = make_ssl_capture(seed=77, dropout=0.06)
    frame = decode_ssl_frame(raw, "even")
    assert (frame.rows, frame.cols) == (SUBFRAME_ROWS,
                                        SUBFRAME_COLS * SUBFRAME_COUNT)
    np.testing.assert_array_equal(np.sort(frame.index_map.ravel()),
                                  np.arange(RECORDS_PER_FRAME))
    back = encode_ssl_frame(frame)
    assert np.array_equal(back.xyz, raw.xyz)
    assert np.array_equal(back.valid, raw.valid)
    note(5, True, "78,750-record capture round-trips exactly; grid 126x625 "
                  "with five 126x125 subframes")


def test_criterion_06_software_speedup():
    """Depth wall time on 126x625 frames: P=5 <= 0.5x the P=1 median."""
    cores = os.cpu_count() or 1
    if cores < 4:
        note(6, "SKIP", f"host has {cores} core(s); the criterion "
                        f"preconditions a >= 4-core host")
        pytest.skip(f"speedup criterion requires >= 4 cores, host has {cores}")
    cfg = default_config()
    cfg.depth.sensor_height = 1.0
    frame = frame_from_ssl(decode_ssl_frame(make_ssl_capture(seed=8), "even"),
                           "bench")
    frame.range_image(cfg)  # projection outside all timing

    def median_ms(p, executor):
        times = []
        for _ in range(3):  # warmup
            run_sliced(frame, "depth", 5, p, cfg, executor=executor)
        for _ in range(11):
            _, wall_ms = run_sliced(frame, "depth", 5, p, cfg, executor=executor)
            times.append(wall_ms)
        return statistics.median(times)

    t1 = median_ms(1, None)
    with SliceExecutor(5, "process") as pool:
        t5 = median_ms(5, pool)
    ratio = t5 / t1
    ok = ratio <= 0.5
    note(6, ok, f"P=1 {t1:.2f} ms, P=5 {t5:.2f} ms, ratio {ratio:.3f} "
                f"(<= 0.5 required)")
    assert ok


def _exhaustive_ransac_oracle(xyz, thr, max_tilt):
    """All C(n,3) samples under the acceptance rule, vectorized in chunks."""
    n = len(xyz)
    cos_limit = math.cos(max_tilt)
    best_count, best_mask = 0, np.zeros(n, dtype=bool)
    triples = np.array(list(itertools.combinations(range(n), 3)))
    for chunk in np.array_split(triples, max(1, len(triples) // 40000)):
        p1 = xyz[chunk[:, 0]]
        normals = np.cross(xyz[chunk[:, 1]] - p1, xyz[chunk[:, 2]] - p1)
        norms = np.linalg.norm(normals, axis=1)
        ok = norms > 1e-12
        normals = normals[ok] / norms[ok, None]
        p1 = p1[ok]
        flip = normals[:, 2] < 0
        normals[flip] = -normals[flip]
        tilt_ok = normals[:, 2] >= cos_limit
        normals, p1 = normals[tilt_ok], p1[tilt_ok]
        if not len(normals):
            continue
        d = -(normals * p1).sum(axis=1)
        dist = np.abs(normals @ xyz.T + d[:, None])
        counts = (dist <= thr).sum(axis=1)
        idx = int(np.argmax(counts))
        if counts[idx] > best_count:
            best_count = int(counts[idx])
            best_mask = dist[idx] <= thr
    return best_count, best_mask


def test_criterion_07_oracle_equivalence_suite(rng):
    cfg = default_config()

    # consensus mask vs exhaustive-triple oracle on the 250-point fixture
    r = np.random.default_rng(31)
    xy = r.uniform(-12, 12, size=(200, 2))
    plane_pts = np.column_stack([xy, np.full(200, -1.55)])
    out_xy = r.uniform(-12, 12, size=(50, 2))
    out_z = -1.55 + r.choice([-1.0, 1.0], 50) * r.uniform(1.0, 4.0, 50)
    xyz = np.concatenate([plane_pts, np.column_stack([out_xy, out_z])])
    xyz = xyz[r.permutation(250)]
    thr, tilt = cfg.ransac.dist_threshold, cfg.ransac.max_normal_tilt
    _, oracle_mask = _exhaustive_ransac_oracle(xyz, thr, tilt)
    got = ransac_ground(xyz, 200, thr, tilt, rng_seed=5)
    assert np.array_equal(got, oracle_mask)

    # smoothing vs direct per-window least squares, < 1e-9 rad
    values = rng.uniform(0, 1.4, 80)
    valid = rng.uniform(size=80) < 0.8
    img = AngleImage(angle=(values * valid)[:, None], valid=valid[:, None])
    sm = savitzky_golay_smooth(img, 5, 2)
    half = 2
    worst = 0.0
    for i in np.nonzero(valid)[0]:
        pos = [o for o in range(-half, half + 1)
               if 0 <= i + o < 80 and valid[i + o]]
        if len(pos) < 2:
            want = values[i]
        else:
            a = np.vander(np.array(pos, float), min(2, len(pos) - 1) + 1,
                          increasing=True)
            ys = np.array([values[i + o] for o in pos])
            want = np.linalg.lstsq(a, ys, rcond=None)[0][0]
        worst = max(worst, abs(sm.angle[i, 0] - want))
    assert worst < 1e-9

    # disk opening vs exhaustive neighborhood min/max for radius <= 2
    surface = rng.uniform(-2, 2, size=(13, 12))
    for radius in (1, 2):
        offsets = [(dy, dx) for dy in range(-radius, radius + 1)
                   for dx in range(-radius, radius + 1)
                   if dy * dy + dx * dx <= radius * radius]
        ny, nx = surface.shape

        def sweep(arr, fn):
            out = np.empty_like(arr)
            for y in range(ny):
                for x in range(nx):
                    out[y, x] = fn(arr[y + dy, x + dx] for dy, dx in offsets
                                   if 0 <= y + dy < ny and 0 <= x + dx < nx)
            return out

        np.testing.assert_allclose(morphological_open(surface, radius),
                                   sweep(sweep(surface, min), max))

    # spherical projection vs per-point binning oracle
    pts = rng.normal(scale=14.0, size=(400, 3))
    rows, cols = 24, 180
    image = project_spherical(pts, rows, cols, V_SPAN)
    v_top, v_bottom = V_SPAN
    best = {}
    for i, (x, y, z) in enumerate(pts):
        rng_i = math.sqrt(x * x + y * y + z * z)
        elev = math.atan2(z, math.hypot(x, y))
        if not (v_bottom <= elev <= v_top) or rng_i == 0:
            continue
        col = int((math.atan2(y, x) + math.pi) / (2 * math.pi) * cols) % cols
        row = min(int((v_top - elev) / (v_top - v_bottom) * rows), rows - 1)
        if (row, col) not in best or rng_i < best[(row, col)][0]:
            best[(row, col)] = (rng_i, i)
    got_cells = {(r, c): image.point_index[r, c]
                 for r, c in zip(*np.nonzero(image.point_index != EMPTY))}
    assert got_cells == {k: v[1] for k, v in best.items()}

    # confusion counts vs elementwise tally
    pred = rng.uniform(size=1500) < 0.45
    truth = rng.uniform(size=1500) < 0.4
    st = confusion(pred, truth)
    tally = [0, 0, 0, 0]
    for p, t in zip(pred, truth):
        tally[0 if (p and t) else 1 if p else 2 if t else 3] += 1
    assert (st.tp, st.fp, st.fn, st.tn) == tuple(tally)

    note(7, True, "consensus==exhaustive on 250-pt fixture; smoothing vs "
                  f"direct LSQ worst {worst:.2e} rad; opening==exhaustive "
                  "r<=2; projection==binning oracle; confusion==tally")


def test_criterion_08_metric_identities(rng):
    """F1 == 2*IoU/(1+IoU) exactly (rational arithmetic), 1000 matrices."""
    for _ in range(1000):
        tp, fp, fn = (int(v) for v in rng.integers(0, 10**6, 3))
        if tp + fp + fn == 0:
            tp = 1
        stats = EvalStats(tp=tp, fp=fp, fn=fn, tn=int(rng.integers(0, 100)))
        iou_q = Fraction(tp, tp + fp + fn)
        f1_q = Fraction(2 * tp, 2 * tp + fp + fn)
        assert f1_q == 2 * iou_q / (1 + iou_q)
        assert abs(f1(stats) - float(f1_q)) <= 1e-15
        assert abs(iou(stats) - float(iou_q)) <= 1e-15
    perfect = confusion(np.array([True, False] * 10), np.array([True, False] * 10))
    assert iou(perfect) == 1.0 and f1(perfect) == 1.0
    note(8, True, "rational identity holds on 1000 random confusion matrices; "
                  "perfect prediction scores exactly 1.0")


def test_criterion_09_slicing_lossless(rng):
    """Multiset of non-empty pixels preserved for 100 images x K=1..5."""
    for i in range(100):
        n = int(rng.integers(40, 600))
        pts = rng.normal(scale=rng.uniform(4, 20), size=(n, 3))
        rows = int(rng.integers(4, 24))
        cols = int(rng.integers(8, 160))
        image = project_spherical(pts, rows, cols, V_SPAN)
        parent = np.sort(image.point_index[image.point_index != EMPTY])
        for k in range(1, min(5, cols) + 1):
            _, views = slice_columns(image, k)
            got = np.sort(np.concatenate(
                [v.point_index[v.point_index != EMPTY] for v in views]))
            assert np.array_equal(got, parent), (i, k)
    note(9, True, "100 random range images, K=1..5: slice pixel multisets "
                  "equal the parent image's")
