"""Sliced execution across processing units with deterministic merging.

A frame is cut into K slices (range-image column bands for the image-domain
method, equal azimuth sectors for point-domain methods), the slices are
dealt to P units in contiguous balanced blocks, each unit works through its
slices sequentially, and results merge in ascending slice order. Slice
seeds derive from the run seed xor the slice index before dispatch, so the
merged mask never depends on scheduling: any (K, P) run is bit-identical to
the (K, 1) run.

The caller runs the last unit's block itself: a P-unit `process` executor
spawns P-1 workers, and `serial` none. A worker's depth slices read a
shared-memory copy of their columns, so such a task pickles to a small
`FrameBand`; point slices are pickled whole.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import NamedTuple

import numpy as np

from .config import BACKENDS, RunConfig
from .kitti_io import PointCloud
from .range_image import (RangeImage, SliceSpec, from_ssl_frame, merge_masks,
                          partition_azimuth, project_spherical, slice_columns,
                          slice_intervals)
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
            image = project_spherical(self.cloud.xyz, *key)
            self._projected = (key, image)
        return self._projected[1]


def frame_from_cloud(cloud: PointCloud, frame_id: str = "frame") -> Frame:
    return Frame(frame_id=frame_id, cloud=cloud)


def frame_from_ssl(ssl: SslFrame, frame_id: str = "frame") -> Frame:
    image, cloud = from_ssl_frame(ssl)
    return Frame(frame_id=frame_id, cloud=cloud, native_image=image)


def allocate(k: int, p: int) -> PuAllocation:
    """Contiguous balanced blocks, split as columns are; early units take the larger ones."""
    if not 1 <= p <= k:
        raise ValueError(f"unit count {p} out of range 1..{k}")
    assignment = tuple(u for u, (lo, hi) in enumerate(slice_intervals(k, p))
                       for _ in range(lo, hi))
    return PuAllocation(slice_count=k, unit_count=p, assignment=assignment)


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


class FrameBand(NamedTuple):
    """Column band [lo, hi) of a frame held in an executor's frame buffer.

    A depth task for a worker carries this instead of the band's view, and
    the worker rebuilds the view that `slice_columns` gives.
    """

    segment: str  # shared-memory name of the frame buffer
    rows: int
    cols: int  # of the buffer: the frame's leading, worker-bound columns
    lo: int
    hi: int
    azimuth_span: tuple[float, float]
    vertical_span: tuple[float, float]
    n_points: int


def _frame_arrays(buf, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """(xyz, point_index) of a rows x cols frame laid out in `buf`, xyz first."""
    xyz = np.ndarray((rows, cols, 3), dtype=np.float64, buffer=buf)
    point_index = np.ndarray((rows, cols), dtype=np.int64, buffer=buf, offset=xyz.nbytes)
    return xyz, point_index


# (segment name, SharedMemory) of the one frame buffer this unit process maps
_mapped_frame = None


def _band_view(band: FrameBand) -> RangeImage:
    global _mapped_frame
    if _mapped_frame is None or _mapped_frame[0] != band.segment:
        if _mapped_frame is not None:
            # unmaps even while numpy views of it exist (they hold the mmap,
            # not a buffer export); a band's view is read only by its task
            _mapped_frame[1].close()
            _mapped_frame = None
        _mapped_frame = (band.segment, shared_memory.SharedMemory(name=band.segment))
    xyz, point_index = _frame_arrays(_mapped_frame[1].buf, band.rows, band.cols)
    return RangeImage(rows=band.rows, cols=band.hi - band.lo,
                      xyz=xyz[:, band.lo:band.hi],
                      point_index=point_index[:, band.lo:band.hi],
                      azimuth_span=band.azimuth_span, vertical_span=band.vertical_span,
                      n_points=band.n_points)


def _segment_slice(task) -> np.ndarray:
    # a task names its method instead of holding a function: the segmenters
    # are looked up as module globals here, where a tracer may have swapped
    # them for closures, and a closure in a task would not pickle
    method, slice_index, data, method_cfg, seed = task
    try:
        if isinstance(data, FrameBand):
            data = _band_view(data)
        if method == "depth":
            return depth_segment_image(data, method_cfg)
        if data.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        if method == "ransac":
            return ransac_ground(data, method_cfg.iterations, method_cfg.dist_threshold,
                                 method_cfg.max_normal_tilt, seed)
        return smrf_segment(data, method_cfg)
    except Exception as exc:
        raise SliceError(slice_index, exc) from exc


def _run_unit(tasks) -> list[tuple[int, np.ndarray]]:
    """One processing unit: work through its slice tasks sequentially."""
    return [(task[1], _segment_slice(task)) for task in tasks]


class SliceExecutor:
    """Reusable pool of processing units; the caller is the last one.

    backend "process" spawns units - 1 workers, warmed up at construction so
    pool startup never lands inside a timed region, and runs the last unit
    in the caller; "serial" has none and runs every unit in the caller. The
    executor owns the shared-memory frame buffer its workers' depth tasks
    read, unlinked by `close()`. A closed executor raises `RuntimeError`, and
    so does one whose worker died: callers close it and build a new one.
    """

    def __init__(self, units: int, backend: str = "process"):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.units = units
        self.backend = backend
        self._closed = False
        self._frame_buffer: shared_memory.SharedMemory | None = None
        self._pool = None
        if backend == "process" and units > 1:
            ctx = multiprocessing.get_context("spawn")
            self._pool = ProcessPoolExecutor(max_workers=units - 1, mp_context=ctx)
            # force workers to exist (each runs int()) before any timing happens
            try:
                for fut in [self._pool.submit(int) for _ in range(units - 1)]:
                    fut.result()
            except BrokenProcessPool as exc:
                self._pool.shutdown()
                raise self._unit_died(exc) from exc

    @property
    def frame_buffer_name(self) -> str | None:
        """Shared-memory name of the frame buffer, or None while there is none."""
        return None if self._frame_buffer is None else self._frame_buffer.name

    def _unit_died(self, exc: BrokenProcessPool) -> RuntimeError:
        return RuntimeError(f"a processing unit died; this {self.units}-unit "
                            f"executor cannot run again: {exc}")

    def _worker_units(self, unit_count: int) -> int:
        """How many leading units of a run go to workers; the caller runs the rest."""
        if self._closed:
            raise RuntimeError(f"this {self.units}-unit executor is closed")
        return 0 if self._pool is None else unit_count - 1

    def depth_slices(self, image: RangeImage, spec: SliceSpec,
                     views: list[RangeImage], allocation: PuAllocation) -> list:
        """What each depth task carries: a frame-buffer band for a worker, else its view."""
        workers = self._worker_units(allocation.unit_count)
        remote = sum(u < workers for u in allocation.assignment)
        if remote == 0:
            return views
        cols = spec.intervals[remote - 1][1]  # the worker-bound columns lead
        size = image.xyz[:, :cols].nbytes + image.point_index[:, :cols].nbytes
        if self._frame_buffer is None or self._frame_buffer.size < size:
            self._release_frame_buffer()
            self._frame_buffer = shared_memory.SharedMemory(create=True, size=size)
        xyz, point_index = _frame_arrays(self._frame_buffer.buf, image.rows, cols)
        xyz[...] = image.xyz[:, :cols]
        point_index[...] = image.point_index[:, :cols]
        return [FrameBand(self._frame_buffer.name, image.rows, cols, lo, hi, view.azimuth_span,
                          view.vertical_span, view.n_points)
                for (lo, hi), view in zip(spec.intervals[:remote], views)] + views[remote:]

    def run_units(self, unit_tasks: list[list]) -> list[list[tuple[int, np.ndarray]]]:
        """Per-unit results; raises the first failure in unit order."""
        workers = self._worker_units(len(unit_tasks))
        assert not any(isinstance(task[2], FrameBand) for tasks in unit_tasks[workers:]
                       for task in tasks), "the caller would map its own frame buffer"
        futures = []
        try:
            try:
                for tasks in unit_tasks[:workers]:
                    futures.append(self._pool.submit(_run_unit, tasks))
                inline = [_run_unit(tasks) for tasks in unit_tasks[workers:]]
            finally:
                # every unit is done before a failure is raised, so none is
                # still reading the frame buffer when the next frame fills it
                wait(futures)
                done = [f.result() for f in futures]
            return done + inline
        except BrokenProcessPool as exc:
            raise self._unit_died(exc) from exc

    def _release_frame_buffer(self) -> None:
        if self._frame_buffer is not None:
            self._frame_buffer.close()
            self._frame_buffer.unlink()
            self._frame_buffer = None

    def close(self) -> None:
        self._closed = True
        try:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
        finally:
            self._release_frame_buffer()

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
    P = 1 always runs inline regardless of executor; for P > 1 without an
    executor the run builds and closes its own. At K = 1 a point method
    segments `frame.cloud.xyz` itself, with no azimuth partition.
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
            if p > 1:
                data = executor.depth_slices(image, spec, data, allocation)
        elif k == 1:
            # one sector holds every point in order: no partition, gather or scatter
            data = [frame.cloud.xyz]
        else:
            slice_idx = partition_azimuth(frame.cloud.xyz, k)
            data = [frame.cloud.xyz[idx] for idx in slice_idx]
        method_cfg = getattr(cfg, method)
        tasks = [(method, s, data[s], method_cfg, seed ^ s) for s in range(k)]
        results = _dispatch(tasks, allocation, p, executor)
        if method == "depth":
            mask = merge_masks([results[s] for s in range(k)], image, spec)
        elif k == 1:
            mask = results[0]
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
    if p == 1:
        return dict(_run_unit(tasks))
    unit_tasks = [[tasks[s] for s in allocation.unit_slices(u)] for u in range(p)]
    return dict(result for unit in executor.run_units(unit_tasks) for result in unit)


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
