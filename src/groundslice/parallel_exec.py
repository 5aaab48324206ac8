"""Sliced execution across processing units with deterministic merging.

A frame is cut into K slices (range-image column bands for the image-domain
method, equal azimuth sectors for point-domain methods), the slices are
dealt to P units in contiguous balanced blocks, each unit works through its
slices sequentially, and results merge in ascending slice order. Slice
seeds derive from the run seed xor the slice index before dispatch, so the
merged mask never depends on scheduling: any (K, P) run is bit-identical to
the (K, 1) run.

The caller runs the last unit's block itself: a P-unit `process` executor
starts P-1 workers, and `serial` none. The workers, their socket transport
and the frame buffer live in `process_units`, which is imported only when
an executor starts workers. A worker's depth slices read a copy of their
columns in the executor's frame buffer, so such a task pickles to a small
`FrameBand`; point slices are pickled whole. The `process` backend needs
POSIX; `serial` runs anywhere.
"""

from __future__ import annotations

import pickle
import sys
import time
from dataclasses import dataclass, field
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
        # pickle the constructor arguments, so a failure raised in a worker
        # arrives in the caller with its slice index; a cause that does not
        # survive a pickle round trip travels as its message
        cause = self.cause
        try:
            pickle.loads(pickle.dumps(cause))
        except Exception:
            cause = RuntimeError(str(cause))
        return type(self), (self.slice_index, cause)


class FrameBand(NamedTuple):
    """Column band [lo, hi) of a frame held in an executor's frame buffer.

    A depth task for a worker carries this instead of the band's view, and
    the worker rebuilds the view that `slice_columns` gives.
    """

    buffer: int  # generation of the executor's frame buffer
    rows: int
    cols: int  # of the buffer: the frame's leading, worker-bound columns
    lo: int
    hi: int
    azimuth_span: tuple[float, float]
    vertical_span: tuple[float, float]
    n_points: int


def _segment_slice(task) -> np.ndarray:
    # a task names its method instead of holding a function: the segmenters
    # are looked up as module globals here, where a tracer may have swapped
    # them for closures, and a closure in a task would not pickle
    method, slice_index, data, method_cfg, seed = task
    try:
        if isinstance(data, FrameBand):
            from .process_units import band_view  # only a worker is handed a band

            data = band_view(data)
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
    """Reusable processing units; the caller is the last one.

    backend "process" starts units - 1 worker processes, warmed up at
    construction so start-up never lands inside a timed region, and runs
    the last unit in the caller; "serial" has none and runs every unit in
    the caller. The executor owns the frame buffer its workers' depth tasks
    read, released by `close()`. A closed executor raises `RuntimeError`,
    and so does one whose worker died: callers close it and build a new one.
    """

    def __init__(self, units: int, backend: str = "process"):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.units = units
        self.backend = backend
        self._closed = False
        self._died: str | None = None  # why the executor cannot run again
        self._frame_buffer = None  # a process_units.FrameBuffer, once a worker needs one
        self._generation = 0  # of the frame buffer; bumped on each replacement
        self._workers = []  # of process_units.Worker
        if backend == "process" and units > 1:
            from .process_units import Worker  # the transport loads only with workers

            try:
                for _ in range(units - 1):
                    self._workers.append(Worker())
                # one round trip each, importing nothing, before any timing happens
                for worker in self._workers:
                    worker.send(sys.path)
                    worker.send((int, 0))
                for worker in self._workers:
                    worker.recv()
            except (EOFError, OSError) as exc:
                raise self._unit_died() from exc

    @property
    def frame_buffer_generation(self) -> int | None:
        """Generation of the current frame buffer, or None while there is none."""
        return None if self._frame_buffer is None else self._frame_buffer.generation

    def _stop_workers(self) -> list[int]:
        """Close every worker's socket, so it exits at EOF; reap it; return exit codes."""
        for worker in self._workers:
            worker.sock.close()
        codes = [worker.process.wait() for worker in self._workers]
        self._workers = []
        return codes

    def _unit_died(self) -> RuntimeError:
        codes = self._stop_workers()
        self._died = (f"a processing unit died; this {self.units}-unit executor "
                      f"cannot run again (worker exit codes {codes})")
        return RuntimeError(self._died)

    def _worker_units(self, unit_count: int) -> int:
        """How many leading units of a run go to workers; the caller runs the rest."""
        if self._closed:
            raise RuntimeError(f"this {self.units}-unit executor is closed")
        if self._died is not None:
            raise RuntimeError(self._died)
        return unit_count - 1 if self._workers else 0

    def depth_slices(self, image: RangeImage, spec: SliceSpec,
                     views: list[RangeImage], allocation: PuAllocation) -> list:
        """What each depth task carries: a frame-buffer band for a worker, else its view."""
        workers = self._worker_units(allocation.unit_count)
        remote = sum(u < workers for u in allocation.assignment)
        if remote == 0:
            return views
        cols = spec.intervals[remote - 1][1]  # the worker-bound columns lead
        size = image.xyz[:, :cols].nbytes + image.point_index[:, :cols].nbytes
        # workers exist, so `process_units` is loaded
        from .process_units import FrameBuffer, frame_arrays

        if self._frame_buffer is None or self._frame_buffer.size < size:
            self._release_frame_buffer()
            self._generation += 1
            self._frame_buffer = FrameBuffer(size, self._generation)
        xyz, point_index = frame_arrays(self._frame_buffer.mapping, image.rows, cols)
        xyz[...] = image.xyz[:, :cols]
        point_index[...] = image.point_index[:, :cols]
        return [FrameBand(self._generation, image.rows, cols, lo, hi, view.azimuth_span,
                          view.vertical_span, view.n_points)
                for (lo, hi), view in zip(spec.intervals[:remote], views)] + views[remote:]

    def run_units(self, unit_tasks: list[list]) -> list[list[tuple[int, np.ndarray]]]:
        """Per-unit results; raises the first failure in unit order."""
        workers = self._worker_units(len(unit_tasks))
        assert not any(isinstance(task[2], FrameBand) for tasks in unit_tasks[workers:]
                       for task in tasks), "the caller would map its own frame buffer"
        if workers:
            # cleared once every reply is in: a run interrupted before that
            # leaves a reply unread, which the next run would take for its own
            self._died = (f"a run of this {self.units}-unit executor was interrupted; "
                          "it cannot run again")
        sent = []
        try:
            try:
                for worker, tasks in zip(self._workers, unit_tasks[:workers]):
                    worker.send_unit(tasks, self._frame_buffer)
                    sent.append(worker)
                inline = [_run_unit(tasks) for tasks in unit_tasks[workers:]]
            finally:
                # every unit is done before a failure is raised, so none is
                # still reading the frame buffer when the next frame fills it
                replies = [worker.recv() for worker in sent]
                self._died = None
                for ok, value in replies:
                    if not ok:
                        raise value
        except (EOFError, OSError) as exc:
            raise self._unit_died() from exc
        return [value for _, value in replies] + inline

    def _release_frame_buffer(self) -> None:
        if self._frame_buffer is not None:
            buffer, self._frame_buffer = self._frame_buffer, None
            buffer.close()

    def close(self) -> None:
        self._closed = True
        try:
            self._stop_workers()
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
    times.sort()
    mid = len(times) // 2
    return times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) / 2


def write_bench_csv(records: list[BenchmarkRecord], path) -> None:
    """Benchmark rows: method,slices,units,frame,wall_ms,speedup."""
    with open(path, "w") as fh:
        fh.write("method,slices,units,frame,wall_ms,speedup\n")
        for r in records:
            speedup = f"{r.speedup:.4f}" if r.speedup is not None else ""
            fh.write(f"{r.method},{r.slices},{r.units},{r.frame},"
                     f"{r.wall_ms:.4f},{speedup}\n")
