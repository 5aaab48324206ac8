"""The benchmark's hooks into the library still fit its signatures.

framebench/checks.py wraps `seg_ransac.count_inliers` under positional
arguments and recomputes depth masks from `compute_angle_image` and
`savitzky_golay_smooth`, and framebench/trace_layers.py swaps module
attributes of the segmenters, projection and executor for timing wrappers.
A signature or call-order change that breaks either shows up here.
"""

import sys
from pathlib import Path

import pytest

from groundslice import default_config
from groundslice.parallel_exec import FrameBand, SliceExecutor, frame_from_cloud, run_sliced
from groundslice.synthetic import make_random_cloud, write_sequence

FRAMEBENCH = str(Path(__file__).resolve().parent.parent / "framebench")


@pytest.fixture(scope="module")
def framebench():
    sys.path.insert(0, FRAMEBENCH)
    try:
        import checks
        import trace_layers
        yield checks, trace_layers
    finally:
        sys.path.remove(FRAMEBENCH)


def test_plane_capture_checks_a_ransac_frame(framebench):
    checks, _ = framebench
    cfg = default_config()
    frame = frame_from_cloud(make_random_cloud(3, 1500), "f")
    with checks.PlaneCapture() as capture:
        mask, _ = run_sliced(frame, "ransac", 1, 1, cfg)
    assert capture.planes
    assert checks.ransac_error(mask, frame.cloud.xyz, capture.planes, cfg.ransac) is None


def test_depth_check_passes_a_street_depth_frame(framebench, tmp_path):
    checks, _ = framebench
    from workloads import WORKLOADS, input_files, load_run_config, run_frame

    wl = WORKLOADS["street_depth"]
    write_sequence(tmp_path, "00", 1, seed=5)
    (path,) = input_files(wl, tmp_path)
    cfg = load_run_config(wl)
    n_points, masks = run_frame(wl, path, cfg, 1)
    ious = []
    assert checks.frame_errors(wl, path, cfg, n_points, masks, [], ious) == []
    assert len(ious) == 1


def test_spans_record_every_traced_layer(framebench):
    _, trace_layers = framebench
    cfg = default_config()
    frame = frame_from_cloud(make_random_cloud(3, 1500), "f")
    rec = trace_layers.Recorder()
    spans = trace_layers.Spans(rec)
    with SliceExecutor(2, "process") as executor:
        spans.install()
        try:
            for method in ("smrf", "ransac", "depth"):
                run_sliced(frame, method, 1, 1, cfg)
            # the executor layer is traced from the caller, with a worker-bound band
            run_sliced(frame, "depth", 5, 2, cfg, executor=executor)
        finally:
            spans.remove()
    for key in ("seg_smrf.rasterize_ms", "seg_ransac.ms", "ransac.accepted",
                "range_image.project_ms", "range_image.slice_merge_ms",
                "parallel_exec.dispatch_ms"):
        assert rec.frame.get(key, 0) > 0, key
    tasks, _ = rec.frame["ipc"]
    assert any(isinstance(task[2], FrameBand) for unit in tasks for task in unit)


def test_smrf_counters_match_the_grid(framebench):
    # the span around rasterize_min_surface reads grid.inpainted for the
    # seg_smrf.inpainted_ratio counters
    from groundslice.seg_smrf import rasterize_min_surface

    _, trace_layers = framebench
    cfg = default_config()
    frame = frame_from_cloud(make_random_cloud(3, 1500), "f")
    grid = rasterize_min_surface(frame.cloud.xyz, cfg.smrf.cell_size)
    rec = trace_layers.Recorder()
    spans = trace_layers.Spans(rec)
    spans.install()
    try:
        run_sliced(frame, "smrf", 1, 1, cfg)
    finally:
        spans.remove()
    assert 0 < rec.frame["smrf.inpainted"] < rec.frame["smrf.cells"]
    assert rec.frame["smrf.inpainted"] == int(grid.inpainted.sum())
    assert rec.frame["smrf.cells"] == grid.elevation.size
