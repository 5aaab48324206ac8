"""Sliced execution across processing units with deterministic merging.

A frame is cut into K slices (range-image column bands for the image-domain
method, equal azimuth sectors for point-domain methods), the slices are
dealt to P units in contiguous balanced blocks, each unit works through its
slices sequentially, and results merge in ascending slice order. Slice
seeds derive from the run seed xor the slice index before dispatch, so the
merged mask never depends on scheduling: any (K, P) run is bit-identical to
the (K, 1) run.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import BACKENDS, RunConfig
from .kitti_io import PointCloud
from .range_image import (RangeImage, from_ssl_frame, merge_masks,
                          partition_azimuth, project_spherical, slice_columns)
from .seg_depth import depth_segment_image
from .seg_ransac import ransac_ground
from .seg_smrf import smrf_segment
from .ssl_frame import SslFrame

METHODS = ("depth", "ransac", "smrf")


@dataclass(frozen=True)
class PuAllocation:
    """Balanced contiguous mapping of K slices onto P processing units."""

    slice_count: int
    unit_count: int
    assignment: tuple[int, ...]  # slice index -> unit index

    def unit_slices(self, unit: int) -> list[int]:
        return [s for s, u in enumerate(self.assignment) if u == unit]


@dataclass
class BenchmarkRecord:
    method: str
    slices: int
    units: int
    frame: str
    wall_ms: float
    speedup: float | None = None


@dataclass
class Frame:
    """One unit of work: a cloud plus (for grid sensors) its native image."""

    frame_id: str
    cloud: PointCloud
    native_image: RangeImage | None = None
    # (rows, cols, vertical_span) of the cached projection, and the image
    _projected: tuple[tuple, RangeImage] | None = field(default=None, repr=False)

    def range_image(self, cfg: RunConfig) -> RangeImage:
        if self.native_image is not None:
            return self.native_image
        proj = cfg.projection
        key = (proj.rows, proj.cols, proj.vertical_span)
        if self._projected is None or self._projected[0] != key:
            image = project_spherical(self.cloud, *key)
            self._projected = (key, image)
        return self._projected[1]


def frame_from_cloud(cloud: PointCloud, frame_id: str = "frame") -> Frame:
    return Frame(frame_id=frame_id, cloud=cloud)


def frame_from_ssl(ssl: SslFrame, frame_id: str = "frame") -> Frame:
    image, cloud = from_ssl_frame(ssl)
    return Frame(frame_id=frame_id, cloud=cloud, native_image=image)


def allocate(k: int, p: int) -> PuAllocation:
    """Contiguous balanced blocks; early units take the one-larger shares."""
    if not 1 <= p <= k:
        raise ValueError(f"unit count {p} out of range 1..{k}")
    base, rem = divmod(k, p)
    assignment = []
    for u in range(p):
        assignment.extend([u] * (base + (1 if u < rem else 0)))
    return PuAllocation(slice_count=k, unit_count=p, assignment=tuple(assignment))


class SliceError(RuntimeError):
    """Algorithm failure inside one slice, annotated with its index."""

    def __init__(self, slice_index: int, cause: Exception):
        super().__init__(f"slice {slice_index}: {cause}")
        self.slice_index = slice_index
        self.cause = cause

    def __reduce__(self):
        # pickle the constructor arguments, so a failure raised in a pool
        # worker arrives in the parent with its slice index
        return type(self), (self.slice_index, self.cause)


def _segment_slice(task) -> np.ndarray:
    # a task names its method instead of holding a function: the segmenters
    # are looked up as module globals here, where a tracer may have swapped
    # them for closures, and a closure in a task would not pickle
    method, slice_index, data, method_cfg, seed = task
    try:
        if method == "depth":
            return depth_segment_image(data, method_cfg)
        if data.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        cloud = PointCloud(xyz=data, intensity=np.zeros(data.shape[0]))
        if method == "ransac":
            return ransac_ground(cloud, method_cfg.iterations, method_cfg.dist_threshold,
                                 method_cfg.max_normal_tilt, seed)
        return smrf_segment(cloud, method_cfg)
    except Exception as exc:
        raise SliceError(slice_index, exc) from exc


def _run_unit(tasks) -> list[tuple[int, np.ndarray]]:
    """One processing unit: work through its slice tasks sequentially."""
    return [(task[1], _segment_slice(task)) for task in tasks]


def _noop():
    return None


class SliceExecutor:
    """Reusable pool of processing units.

    backend "process" gives real parallelism (spawned workers, warmed up at
    construction so pool startup never lands inside a timed region);
    "serial" runs every unit inline, one after another.
    """

    def __init__(self, units: int, backend: str = "process"):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.units = units
        self.backend = backend
        if backend == "process":
            ctx = multiprocessing.get_context("spawn")
            self._pool = ProcessPoolExecutor(max_workers=units, mp_context=ctx)
            # force workers to exist before any timing happens
            for fut in [self._pool.submit(_noop) for _ in range(units)]:
                fut.result()
        else:
            self._pool = None

    def run_units(self, unit_tasks: list[list]) -> list[list[tuple[int, np.ndarray]]]:
        if self._pool is None:
            return [_run_unit(tasks) for tasks in unit_tasks]
        futures = [self._pool.submit(_run_unit, tasks) for tasks in unit_tasks]
        return [f.result() for f in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_sliced(frame: Frame, method: str, k: int, p: int, cfg: RunConfig,
               seed: int = 0, executor: SliceExecutor | None = None
               ) -> tuple[np.ndarray, BenchmarkRecord]:
    """Segment one frame with K slices on P units.

    Returns the merged per-point ground mask and a timing record. The wall
    time covers slicing, per-slice segmentation and the merge; input
    preparation (projection, decoding) happens before the clock starts.
    P = 1 always runs inline regardless of executor.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    allocation = allocate(k, p)

    # cached; outside the timed region
    image = frame.range_image(cfg) if method == "depth" else None

    own_executor = None
    if p > 1 and executor is None:
        executor = own_executor = SliceExecutor(p, cfg.parallel.backend)
    try:
        t0 = time.perf_counter()
        if method == "depth":
            spec, data = slice_columns(image, k)
        else:
            slice_idx = partition_azimuth(frame.cloud, k)
            data = [frame.cloud.xyz[idx] for idx in slice_idx]
        method_cfg = getattr(cfg, method)
        tasks = [(method, s, data[s], method_cfg, seed ^ s) for s in range(k)]
        results = _dispatch(tasks, allocation, p, executor)
        if method == "depth":
            mask = merge_masks([results[s] for s in range(k)], image, spec)
        else:
            mask = np.zeros(len(frame.cloud), dtype=bool)
            for s in range(k):
                mask[slice_idx[s]] = results[s]
        wall_ms = (time.perf_counter() - t0) * 1000.0
    finally:
        if own_executor is not None:
            own_executor.close()

    record = BenchmarkRecord(method=method, slices=k, units=p,
                             frame=frame.frame_id, wall_ms=wall_ms)
    return mask, record


def _dispatch(tasks, allocation: PuAllocation, p: int,
              executor: SliceExecutor | None) -> dict[int, np.ndarray]:
    if p == 1 or executor is None:
        return {task[1]: _segment_slice(task) for task in tasks}
    unit_tasks = [[tasks[s] for s in allocation.unit_slices(u)]
                  for u in range(allocation.unit_count)]
    results: dict[int, np.ndarray] = {}
    for unit_result in executor.run_units(unit_tasks):
        for slice_index, mask in unit_result:
            results[slice_index] = mask
    return results


def time_baseline(frame: Frame, method: str, cfg: RunConfig, seed: int = 0,
                  repeats: int = 11, warmup: int = 3, *, k: int = 1, p: int = 1,
                  executor: SliceExecutor | None = None) -> float:
    """Median wall time (ms) of the K-slice, P-unit run, post-warmup.

    The defaults time the unsliced single-unit baseline.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        run_sliced(frame, method, k, p, cfg, seed=seed, executor=executor)
    times = []
    for _ in range(repeats):
        _, record = run_sliced(frame, method, k, p, cfg, seed=seed, executor=executor)
        times.append(record.wall_ms)
    return statistics.median(times)


def write_bench_csv(records: list[BenchmarkRecord], path) -> None:
    """Benchmark rows: method,slices,units,frame,wall_ms,speedup."""
    with open(path, "w") as fh:
        fh.write("method,slices,units,frame,wall_ms,speedup\n")
        for r in records:
            speedup = f"{r.speedup:.4f}" if r.speedup is not None else ""
            fh.write(f"{r.method},{r.slices},{r.units},{r.frame},"
                     f"{r.wall_ms:.4f},{speedup}\n")
