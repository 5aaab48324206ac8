"""Spans and counters around the calls into each module's public functions.

Wrappers are installed on the program's module attributes only for the
length of a traced frame, so the untraced frames of the same run pay
nothing. Spans set here do not reach spawned pool workers, so the segmenters
are traced inline at P=1 and the executor layer from the parent at P=2.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time
from collections import defaultdict

import numpy as np

from program import Tally, cpu_ms, descendants, host_cpu
from workloads import run_frame

EXECUTOR_SETUPS = 3

# span key -> per-layer metric; each is the median over traced frames of the
# per-frame sum of that layer's spans
TIME_METRICS = (
    "kitti_io.load_ms", "ssl_frame.decode_ms", "range_image.project_ms",
    "range_image.slice_merge_ms", "seg_depth.angle_ms", "seg_depth.smooth_ms",
    "seg_depth.bfs_ms", "seg_smrf.rasterize_ms", "seg_smrf.open_ms",
    "seg_smrf.classify_ms", "seg_ransac.ms", "parallel_exec.dispatch_ms",
)
RATIO_METRICS = {  # metric -> (numerator counter, denominator counter)
    "seg_depth.reach_ratio": ("bfs.reached", "bfs.valid"),
    "seg_smrf.inpainted_ratio": ("smrf.inpainted", "smrf.cells"),
    "seg_ransac.accept_ratio": ("ransac.accepted", "ransac.rounds"),
}


class Recorder:
    """Span sums and counters of the traced frame in progress."""

    def __init__(self):
        self.frame: dict = {}

    def add(self, key: str, value) -> None:
        self.frame[key] = self.frame.get(key, 0) + value


def _span(rec: Recorder, key: str, fn, after=None):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.add(key, (time.perf_counter_ns() - t0) / 1e6)
        if after is not None:
            after(rec, args, out)
        return out
    return wrapper


def _counter(rec: Recorder, key: str, fn):
    def wrapper(*args, **kwargs):
        rec.add(key, 1)  # counted before the call: a degenerate sample raises
        return fn(*args, **kwargs)
    return wrapper


def _lost_points(rec, args, image):
    """Out-of-span points plus bin-collision losers: points without a pixel."""
    kept = int(np.count_nonzero(image.point_index != -1))
    rec.add("range_image.lost_points", image.n_points - kept)


def _from_ssl_lost(rec, args, out):
    _lost_points(rec, args, out[0])


def _bfs_counts(rec, args, visited):
    rec.add("bfs.reached", int(np.count_nonzero(visited)))
    rec.add("bfs.valid", int(np.count_nonzero(args[0].valid)))


def _inpainted(rec, args, grid):
    rec.add("smrf.inpainted", int(np.count_nonzero(grid.inpainted)))
    rec.add("smrf.cells", grid.inpainted.size)


def _slice_time(rec, args, mask):
    rec.frame.setdefault("slice_ms", []).append(rec.frame.pop("segment_ms"))


def _keep_ipc(rec, args, results):
    rec.frame["ipc"] = (args[1], results)  # pickled after the frame's clock stops


class Spans:
    """Installs and removes the wrappers on the program's module attributes."""

    def __init__(self, rec: Recorder):
        from groundslice import (kitti_io, parallel_exec, seg_depth, seg_ransac, seg_smrf,
                                 ssl_frame)

        pe = parallel_exec
        self.targets = [  # (owner, attribute, wrapper factory)
            (kitti_io, "load_velodyne_bin", lambda f: _span(rec, "kitti_io.load_ms", f)),
            (ssl_frame, "load_sslraw", lambda f: _span(rec, "ssl_frame.decode_ms", f)),
            (ssl_frame, "decode_ssl_frame", lambda f: _span(rec, "ssl_frame.decode_ms", f)),
            (pe, "project_spherical",
             lambda f: _span(rec, "range_image.project_ms", f, _lost_points)),
            (pe, "from_ssl_frame",
             lambda f: _span(rec, "range_image.project_ms", f, _from_ssl_lost)),
            (pe, "slice_columns", lambda f: _span(rec, "range_image.slice_merge_ms", f)),
            (pe, "merge_masks", lambda f: _span(rec, "range_image.slice_merge_ms", f)),
            (pe, "partition_azimuth", lambda f: _span(rec, "range_image.slice_merge_ms", f)),
            (pe, "depth_segment_image", lambda f: _span(rec, "segment_ms", f, _slice_time)),
            (seg_depth, "compute_angle_image", lambda f: _span(rec, "seg_depth.angle_ms", f)),
            (seg_depth, "savitzky_golay_smooth",
             lambda f: _span(rec, "seg_depth.smooth_ms", f)),
            (seg_depth, "bfs_ground_label",
             lambda f: _span(rec, "seg_depth.bfs_ms", f, _bfs_counts)),
            (seg_smrf, "rasterize_min_surface",
             lambda f: _span(rec, "seg_smrf.rasterize_ms", f, _inpainted)),
            (seg_smrf, "progressive_open", lambda f: _span(rec, "seg_smrf.open_ms", f)),
            (seg_smrf, "classify_points", lambda f: _span(rec, "seg_smrf.classify_ms", f)),
            (pe, "ransac_ground", lambda f: _span(rec, "seg_ransac.ms", f)),
            (seg_ransac, "fit_plane_3pts", lambda f: _counter(rec, "ransac.rounds", f)),
            (seg_ransac, "count_inliers", lambda f: _counter(rec, "ransac.accepted", f)),
            (pe.SliceExecutor, "run_units",
             lambda f: _span(rec, "parallel_exec.dispatch_ms", f, _keep_ipc)),
        ]
        self.saved = [getattr(owner, name) for owner, name, _ in self.targets]

    def install(self) -> None:
        for (owner, name, wrap), orig in zip(self.targets, self.saved):
            setattr(owner, name, wrap(orig))

    def remove(self) -> None:
        for (owner, name, _), orig in zip(self.targets, self.saved):
            setattr(owner, name, orig)


def trace_pass(wl, files, refs, cfg, seconds: float, tally: Tally) -> dict:
    """Traced and untraced frames interleaved, in whole rounds until `seconds` pass.

    Variants per input: U (untraced) and T (traced) at the workload's own P;
    for a multi-unit workload also UI and TI, the same K inline at P=1, so the
    segmenters can be traced and the unit speed-up measured frame by frame.
    """
    from groundslice.parallel_exec import SliceExecutor, allocate

    rec = Recorder()
    spans = Spans(rec)
    metrics: dict[str, float] = {}
    executor = None
    if wl.units > 1:
        setup_ms = []
        for _ in range(EXECUTOR_SETUPS):
            if executor is not None:
                executor.close()
            t0 = time.perf_counter_ns()
            executor = SliceExecutor(wl.units, cfg.parallel.backend)
            setup_ms.append((time.perf_counter_ns() - t0) / 1e6)
        metrics["parallel_exec.executor_setup_ms"] = statistics.median(setup_ms)
    variants = [("U", wl.units, False), ("T", wl.units, True)]
    if wl.units > 1:
        variants += [("UI", 1, False), ("TI", 1, True)]
        units = [allocate(wl.slices, wl.units).unit_slices(u) for u in range(wl.units)]
        workers = [p for p in descendants(os.getpid()) if p != os.getpid()]
    walls = defaultdict(list)
    traced = []
    parent_cpu = worker_cpu = 0.0
    overhead, ipc_bytes = [], []
    try:
        t_end = time.monotonic() + seconds
        first = True
        while first or time.monotonic() < t_end:
            first = False
            for i, path in enumerate(files):
                wall, slice_ms = {}, None  # wall: variants that completed
                for tag, p, is_traced in variants:
                    if is_traced:
                        rec.frame = {}
                        spans.install()
                    elif p > 1:
                        cpu0 = cpu_ms([os.getpid()]), cpu_ms(workers)
                    t0 = time.perf_counter_ns()
                    try:
                        _, masks = run_frame(wl, path, cfg, p, executor)
                    except Exception as exc:  # a frame that raises counts as failed
                        tally.attempted += 1
                        tally.fail(f"{wl.name} {tag} {path.name}: {type(exc).__name__}: {exc}")
                        continue
                    finally:
                        elapsed = (time.perf_counter_ns() - t0) / 1e6
                        if is_traced:
                            spans.remove()
                    tally.check(str(i), masks)
                    wall[tag] = elapsed
                    walls[tag].append(elapsed)
                    if is_traced:
                        traced.append(rec.frame)
                        slice_ms = rec.frame.get("slice_ms", slice_ms)
                        if "ipc" in rec.frame:
                            tasks, results = rec.frame.pop("ipc")
                            ipc_bytes.append(len(pickle.dumps(tasks)) + len(pickle.dumps(results)))
                    elif p > 1:
                        parent_cpu += cpu_ms([os.getpid()]) - cpu0[0]
                        worker_cpu += cpu_ms(workers) - cpu0[1]
                if wl.units > 1 and "U" in wall and slice_ms is not None:
                    slowest = max(sum(slice_ms[s] for s in unit) for unit in units)
                    overhead.append(wall["U"] - slowest)
    finally:
        if executor is not None:
            executor.close()

    for key in TIME_METRICS:
        values = [f[key] for f in traced if key in f]
        if values:
            metrics[key] = statistics.median(values)
    for key, (num, den) in RATIO_METRICS.items():
        d = sum(f.get(den, 0) for f in traced)
        if d:
            metrics[key] = sum(f.get(num, 0) for f in traced) / d
    lost = [f["range_image.lost_points"] for f in traced if "range_image.lost_points" in f]
    if lost:
        metrics["range_image.lost_points"] = statistics.fmean(lost)
    metrics["trace.overhead_ms"] = statistics.median(walls["T"]) - statistics.median(walls["U"])
    if wl.units > 1:
        n = len(walls["U"])
        metrics.update({
            "parallel_exec.ipc_bytes": statistics.median(ipc_bytes),
            "parallel_exec.parent_cpu_ms": parent_cpu / n,
            "parallel_exec.worker_cpu_ms": worker_cpu / n,
            "parallel_exec.overhead_ms": statistics.median(overhead),
            "parallel_exec.unit_speedup":
                statistics.median(walls["UI"]) / statistics.median(walls["U"]),
        })
    return metrics


def traced_run(passes, seconds: float) -> dict:
    """The workload's own pass for `seconds`, then one round of each home pass.

    A layer the workload does not pass through is taken from the home pass
    that does; the workload's own measurement wins wherever it has one.
    """
    steal0, total0 = host_cpu()
    tallies, per_pass = [], []
    for n, (wl, files, refs, cfg) in enumerate(passes):
        tally = Tally(refs)
        per_pass.append(trace_pass(wl, files, refs, cfg, seconds if n == 0 else 0.0, tally))
        tallies.append(tally)
    steal1, total1 = host_cpu()
    metrics = {}
    for m in reversed(per_pass):
        metrics.update(m)
    return {
        "metrics": metrics,
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "errors": [e for t in tallies for e in t.errors][:5],
    }
