"""Property checks of `run_sliced`'s P-invariance contract.

Any (K, P) run is bit-identical to the (K, 1) run, on the `process` and the
`serial` backend alike. Depth examples draw K not divisible by P, so the
worker-bound columns end inside a unit's block, on SSL captures and small
street scans; point examples (ransac, smrf) draw small street scans and
clouds of a few dozen points, so slices of 0, 1 and 2 points occur. Every
example runs on one executor per backend kept for the whole module, so the
process executor's frame buffer grows as the frames' sizes do. The last
test closes both and checks that no frame buffer is left.
"""

import functools
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groundslice import default_config
from groundslice.parallel_exec import (SliceError, SliceExecutor, frame_from_cloud,
                                       frame_from_ssl, run_sliced)
from groundslice.kitti_io import PointCloud
from groundslice.range_image import partition_azimuth
from groundslice.ssl_frame import FRAME_COLS, decode_ssl_frame
from groundslice.synthetic import (make_random_cloud, make_ssl_capture, make_street_scene,
                                   simulate_scan)
from test_parallel_exec import frame_buffers, open_fds

UNITS = 3
BACKENDS = ("process", "serial")
_held_before = {}  # fds and frame buffers of this process before the executors existed


@pytest.fixture(scope="module")
def executors():
    _held_before.update(fds=open_fds(), buffers=frame_buffers(os.getpid()))
    with SliceExecutor(UNITS, "process") as process, SliceExecutor(UNITS, "serial") as serial:
        yield {"process": process, "serial": serial}


@functools.lru_cache(maxsize=2)
def ssl_capture(seed: int):
    return decode_ssl_frame(make_ssl_capture(seed=seed, dropout=0.1), "even")


@functools.lru_cache(maxsize=8)
def street_scan(seed: int, rows: int, cols: int) -> np.ndarray:
    xyz, _, _ = simulate_scan(make_street_scene(seed, traffic=False), (0.0, 0.0), seed,
                              rows=rows, cols=cols)
    return xyz


def frame_and_config(spec):
    """(frame, config) of ("ssl", seed), ("street", seed, rows, cols) or ("cloud", seed, n)."""
    cfg = default_config()
    if spec[0] == "ssl":
        cfg.depth.sensor_height = cfg.ssl.sensor_height
        return frame_from_ssl(ssl_capture(spec[1]), "ssl"), cfg
    if spec[0] == "cloud":
        return frame_from_cloud(make_random_cloud(spec[1], spec[2]), "cloud"), cfg
    _, seed, rows, cols = spec
    cfg.projection.rows, cfg.projection.cols = rows, cols
    xyz = street_scan(seed, rows, cols)
    return frame_from_cloud(PointCloud(xyz=xyz), "street"), cfg


street_specs = st.tuples(st.just("street"), st.integers(0, 1), st.integers(2, 24),
                         st.integers(4, 160))


@st.composite
def depth_runs(draw):
    """(frame spec, K, P, backend) with P in 2..UNITS and K > P not divisible by P."""
    spec = draw(st.one_of(st.tuples(st.just("ssl"), st.integers(0, 1)), street_specs))
    cols = FRAME_COLS if spec[0] == "ssl" else spec[3]
    p = draw(st.integers(2, UNITS))
    k = draw(st.integers(p + 1, min(cols, 40)).filter(lambda k: k % p))
    return spec, k, p, draw(st.sampled_from(BACKENDS))


@settings(max_examples=10, deadline=None)
# a small scan, then a capture: the capture outgrows the scan's frame buffer
@example(sequence=[(("street", 0, 8, 64), 7, 2, "process"),
                   (("ssl", 0), 7, 3, "process")])
@given(sequence=st.lists(depth_runs(), min_size=2, max_size=3))
def test_depth_masks_equal_the_single_unit_mask(executors, sequence):
    for spec, k, p, backend in sequence:
        frame, cfg = frame_and_config(spec)
        ref, _ = run_sliced(frame, "depth", k, 1, cfg)
        got, _ = run_sliced(frame, "depth", k, p, cfg, executor=executors[backend])
        np.testing.assert_array_equal(got, ref)


def outcome(frame, method, k, p, cfg, executor=None):
    """The run's mask, or the index of the slice it failed in."""
    try:
        return run_sliced(frame, method, k, p, cfg, seed=k, executor=executor)[0]
    except SliceError as exc:
        return exc.slice_index


@st.composite
def point_runs(draw):
    """(method, frame spec, K, P, backend), P in 2..UNITS, on scans or clouds of <= 40 points."""
    spec = draw(st.one_of(street_specs,
                          st.tuples(st.just("cloud"), st.integers(0, 9), st.integers(0, 40))))
    k = draw(st.integers(2, 8))
    p = draw(st.integers(2, min(k, UNITS)))
    return draw(st.sampled_from(("ransac", "smrf"))), spec, k, p, draw(st.sampled_from(BACKENDS))


@settings(max_examples=12, deadline=None)
# an empty cloud; 8 points whose slice 1, on a worker, holds 1 (slices of
# 3, 1 and 4 points); 4 points in slices of 2, 0 and 2
@example(sequence=[("ransac", ("cloud", 0, 0), 3, 2, "process"),
                   ("ransac", ("cloud", 2, 8), 3, 3, "process"),
                   ("smrf", ("cloud", 0, 4), 3, 3, "serial")])
@given(sequence=st.lists(point_runs(), min_size=1, max_size=3))
def test_point_masks_and_slice_errors_equal_the_single_unit_run(executors, sequence):
    for method, spec, k, p, backend in sequence:
        frame, cfg = frame_and_config(spec)
        sizes = [idx.size for idx in partition_azimuth(frame.cloud.xyz, k)]
        ref = outcome(frame, method, k, 1, cfg)
        got = outcome(frame, method, k, p, cfg, executors[backend])
        tiny = [s for s, size in enumerate(sizes) if size in (1, 2)]
        if method == "ransac" and tiny:
            # the first slice of 1 or 2 points fails, and names itself
            assert isinstance(ref, int) and ref == got == tiny[0]
        else:
            # 0-point slices give empty masks; smrf runs on any nonempty slice
            assert not isinstance(ref, int), (sizes, ref)
            np.testing.assert_array_equal(got, ref)


def test_closed_executors_leave_no_frame_buffer(executors):
    for executor in executors.values():
        executor.close()
    assert frame_buffers(os.getpid()) <= _held_before["buffers"]
    assert open_fds().items() <= _held_before["fds"].items()
