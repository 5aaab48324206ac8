"""Property checks of `run_sliced`'s P-invariance contract for depth.

Any (K, P) run is bit-identical to the (K, 1) run. The examples draw K not
divisible by P, so the worker-bound columns end inside a unit's block, on
SSL captures and small street scans. Every example runs on one executor
kept for the whole module, so its frame buffer is replaced as the frames'
sizes grow.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groundslice import default_config
from groundslice.parallel_exec import (SliceExecutor, frame_from_cloud, frame_from_ssl,
                                       run_sliced)
from groundslice.kitti_io import PointCloud
from groundslice.ssl_frame import FRAME_COLS, decode_ssl_frame
from groundslice.synthetic import make_ssl_capture, make_street_scene, simulate_scan

UNITS = 3


@pytest.fixture(scope="module")
def executor():
    with SliceExecutor(UNITS, "process") as ex:
        yield ex


@functools.lru_cache(maxsize=2)
def ssl_capture(seed: int):
    return decode_ssl_frame(make_ssl_capture(seed=seed, dropout=0.1), "even")


@functools.lru_cache(maxsize=8)
def street_scan(seed: int, rows: int, cols: int) -> np.ndarray:
    xyz, _, _ = simulate_scan(make_street_scene(seed, traffic=False), (0.0, 0.0), seed,
                              rows=rows, cols=cols)
    return xyz


def frame_and_config(spec):
    """(frame, config) of ("ssl", seed) or ("street", seed, rows, cols)."""
    cfg = default_config()
    if spec[0] == "ssl":
        cfg.depth.sensor_height = cfg.ssl.sensor_height
        return frame_from_ssl(ssl_capture(spec[1]), "ssl"), cfg
    _, seed, rows, cols = spec
    cfg.projection.rows, cfg.projection.cols = rows, cols
    xyz = street_scan(seed, rows, cols)
    return frame_from_cloud(PointCloud(xyz=xyz, intensity=np.zeros(len(xyz))), "street"), cfg


@st.composite
def runs(draw):
    """(frame spec, K, P) with P in 2..UNITS and K > P not divisible by P."""
    spec = draw(st.one_of(
        st.tuples(st.just("ssl"), st.integers(0, 1)),
        st.tuples(st.just("street"), st.integers(0, 1), st.integers(2, 24),
                  st.integers(4, 160))))
    cols = FRAME_COLS if spec[0] == "ssl" else spec[3]
    p = draw(st.integers(2, UNITS))
    k = draw(st.integers(p + 1, min(cols, 40)).filter(lambda k: k % p))
    return spec, k, p


@settings(max_examples=10, deadline=None)
# a small scan, then a capture: the capture outgrows the scan's frame buffer
@example(sequence=[(("street", 0, 8, 64), 7, 2), (("ssl", 0), 7, 3)])
@given(sequence=st.lists(runs(), min_size=2, max_size=3))
def test_depth_masks_equal_the_single_unit_mask(executor, sequence):
    for spec, k, p in sequence:
        frame, cfg = frame_and_config(spec)
        ref, _ = run_sliced(frame, "depth", k, 1, cfg)
        got, _ = run_sliced(frame, "depth", k, p, cfg, executor=executor)
        np.testing.assert_array_equal(got, ref)
