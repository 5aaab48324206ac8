import copy
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from groundslice import default_config
from groundslice.kitti_io import PointCloud
from groundslice.parallel_exec import (FrameBand, SliceError, SliceExecutor,
                                       allocate, frame_from_cloud,
                                       frame_from_ssl, run_sliced,
                                       time_baseline, write_bench_csv,
                                       BenchmarkRecord)
from groundslice.range_image import RangeImage, partition_azimuth
from groundslice.seg_ransac import ransac_ground
from groundslice.seg_depth import depth_segment_image
from groundslice.ssl_frame import decode_ssl_frame
from groundslice.synthetic import make_random_cloud, make_ssl_capture


def test_allocate_five_slices_three_units():
    alloc = allocate(5, 3)
    assert alloc.unit_slices(0) == [0, 1]
    assert alloc.unit_slices(1) == [2, 3]
    assert alloc.unit_slices(2) == [4]


def test_allocate_identity_and_sequential():
    assert allocate(5, 5).assignment == (0, 1, 2, 3, 4)
    assert allocate(5, 1).assignment == (0, 0, 0, 0, 0)


def test_allocate_out_of_range():
    with pytest.raises(ValueError):
        allocate(5, 6)
    with pytest.raises(ValueError):
        allocate(5, 0)


def test_allocate_balance_all_k_p():
    for k in range(1, 17):
        for p in range(1, k + 1):
            alloc = allocate(k, p)
            sizes = [len(alloc.unit_slices(u)) for u in range(p)]
            assert sum(sizes) == k
            assert max(sizes) - min(sizes) <= 1
            # contiguous blocks in ascending unit order
            assert list(alloc.assignment) == sorted(alloc.assignment)


def test_degenerate_pipeline_equals_direct_call(fast_cfg):
    cloud = make_random_cloud(3, 1500)
    frame = frame_from_cloud(cloud, "f")
    mask, record = run_sliced(frame, "ransac", 1, 1, fast_cfg, seed=4)
    direct = ransac_ground(cloud.xyz, fast_cfg.ransac.iterations,
                           fast_cfg.ransac.dist_threshold,
                           fast_cfg.ransac.max_normal_tilt, rng_seed=4)
    np.testing.assert_array_equal(mask, direct)
    assert record.wall_ms > 0
    assert record.slices == 1 and record.units == 1

    image = frame.range_image(fast_cfg)
    mask_d, _ = run_sliced(frame, "depth", 1, 1, fast_cfg)
    pix = depth_segment_image(image, fast_cfg.depth)
    want = np.zeros(len(cloud), dtype=bool)
    filled = image.point_index != -1
    want[image.point_index[filled & pix]] = True
    np.testing.assert_array_equal(mask_d, want)


@pytest.mark.parametrize("method", ["ransac", "smrf"])
def test_single_slice_segments_the_frame_xyz_itself(method, fast_cfg, monkeypatch):
    from groundslice import parallel_exec

    frame = frame_from_cloud(make_random_cloud(5, 1800), "f")
    # the explicit partition path: one azimuth sector, gathered and scattered
    (idx,) = partition_azimuth(frame.cloud.xyz, 1)
    want = np.zeros(len(frame.cloud), dtype=bool)
    want[idx] = parallel_exec._segment_slice(
        (method, 0, frame.cloud.xyz[idx], getattr(fast_cfg, method), 7))

    name = "ransac_ground" if method == "ransac" else "smrf_segment"
    segment, received = getattr(parallel_exec, name), []

    def recording(xyz, *args):
        received.append(xyz)
        return segment(xyz, *args)

    monkeypatch.setattr(parallel_exec, name, recording)
    mask, _ = run_sliced(frame, method, 1, 1, fast_cfg, seed=7)
    assert len(received) == 1 and received[0] is frame.cloud.xyz
    np.testing.assert_array_equal(mask, want)


def assert_unit_counts_bit_identical(method, cfg, executor):
    frame = frame_from_cloud(make_random_cloud(11, 2200), "f")
    ref, _ = run_sliced(frame, method, 5, 1, cfg, seed=2)
    for p in (2, 3, 5):
        got, rec = run_sliced(frame, method, 5, p, cfg, seed=2, executor=executor)
        np.testing.assert_array_equal(got, ref)
        assert rec.units == p


@pytest.mark.parametrize("method", ["depth", "ransac", "smrf"])
def test_all_unit_counts_bit_identical(method, fast_cfg, process_pool):
    assert_unit_counts_bit_identical(method, fast_cfg, process_pool)


@pytest.mark.parametrize("method", ["depth", "ransac", "smrf"])
def test_all_unit_counts_bit_identical_on_serial_units(method, fast_cfg):
    with SliceExecutor(5, "serial") as executor:
        assert_unit_counts_bit_identical(method, fast_cfg, executor)
        assert executor.frame_buffer_generation is None  # depth views are passed as they are


def test_ssl_frame_native_grid(fast_cfg, process_pool):
    raw = make_ssl_capture(seed=21)
    frame = frame_from_ssl(decode_ssl_frame(raw, "even"), "ssl")
    fast_cfg.depth.sensor_height = 1.0
    ref, _ = run_sliced(frame, "depth", 5, 1, fast_cfg)
    assert ref.size == int(raw.valid.sum())
    got, _ = run_sliced(frame, "depth", 5, 5, fast_cfg, executor=process_pool)
    np.testing.assert_array_equal(got, ref)
    # native image slices align with the physical subframes
    image = frame.range_image(fast_cfg)
    assert image.cols == 625 and image.rows == 126


def test_slice_error_annotated(fast_cfg):
    # a cloud whose azimuth span puts a single point in one slice: the
    # plane-consensus method cannot run on 1 point and must name the slice
    xyz = np.array([[10.0, 0.1, -1.0], [10.0, 0.2, -1.1], [10.0, 0.3, -1.2],
                    [-10.0, 0.1, -1.0]])
    cloud = PointCloud(xyz=xyz, intensity=np.zeros(4))
    frame = frame_from_cloud(cloud, "f")
    with pytest.raises(SliceError, match=r"slice \d"):
        run_sliced(frame, "ransac", 2, 1, fast_cfg)


def test_slice_error_pickles_with_its_index():
    err = pickle.loads(pickle.dumps(SliceError(3, ValueError("x"))))
    assert isinstance(err, SliceError)
    assert err.slice_index == 3 and str(err) == "slice 3: x"


def test_slice_error_annotated_on_process_units(fast_cfg, process_pool):
    fast_cfg.smrf.cell_size = -1
    frame = frame_from_cloud(make_random_cloud(3, 600), "f")
    with pytest.raises(SliceError, match=r"slice \d: cell_size must be positive"):
        run_sliced(frame, "smrf", 2, 2, fast_cfg, executor=process_pool)


def test_range_image_follows_projection_config(fast_cfg):
    frame = frame_from_cloud(make_random_cloud(3, 600), "f")
    wide = frame.range_image(fast_cfg)
    assert (wide.rows, wide.cols) == (64, 1024)
    assert frame.range_image(fast_cfg) is wide  # same config: cached
    fast_cfg.projection.rows, fast_cfg.projection.cols = 32, 360
    narrow = frame.range_image(fast_cfg)
    assert (narrow.rows, narrow.cols) == (32, 360)


def test_empty_slice_is_vacuous(fast_cfg):
    # K azimuth sectors over a narrow cluster still cover all points; an
    # empty sector contributes an empty mask rather than an error
    rng = np.random.default_rng(5)
    xyz = np.column_stack([rng.uniform(5, 10, 60),
                           rng.uniform(-0.5, 0.5, 60),
                           rng.uniform(-2.0, -1.0, 60)])
    # make one sector empty by construction: all azimuths in two tight bands
    xyz[30:, 1] += 8.0
    parts = partition_azimuth(xyz, 5)
    assert any(p.size == 0 for p in parts)
    frame = frame_from_cloud(PointCloud(xyz=xyz, intensity=np.zeros(60)), "f")
    mask, _ = run_sliced(frame, "smrf", 5, 1, fast_cfg)
    assert mask.size == 60


def test_unknown_method(fast_cfg):
    frame = frame_from_cloud(make_random_cloud(1, 100), "f")
    with pytest.raises(ValueError, match="unknown method"):
        run_sliced(frame, "voxel", 1, 1, fast_cfg)


def test_per_slice_seed_derivation(fast_cfg):
    """run_sliced hands slice s the seed (run_seed xor s)."""
    cloud = make_random_cloud(8, 1200)
    frame = frame_from_cloud(cloud, "f")
    seed = 17
    mask, _ = run_sliced(frame, "ransac", 3, 1, fast_cfg, seed=seed)
    want = np.zeros(len(cloud), dtype=bool)
    for s, idx in enumerate(partition_azimuth(cloud.xyz, 3)):
        want[idx] = ransac_ground(cloud.xyz[idx], fast_cfg.ransac.iterations,
                                  fast_cfg.ransac.dist_threshold,
                                  fast_cfg.ransac.max_normal_tilt,
                                  rng_seed=seed ^ s)
    np.testing.assert_array_equal(mask, want)


def test_time_baseline_positive_and_stable(fast_cfg):
    frame = frame_from_cloud(make_random_cloud(7, 4000), "f")
    # 20% stability gate; best of 3 attempts since shared hosts can stall
    # one measurement arbitrarily
    gaps = []
    for _ in range(3):
        a = time_baseline(frame, "depth", fast_cfg, repeats=11, warmup=2)
        b = time_baseline(frame, "depth", fast_cfg, repeats=11, warmup=0)
        assert a > 0 and b > 0
        gaps.append(abs(a - b) / max(a, b))
        if gaps[-1] < 0.2:
            break
    assert min(gaps) < 0.2, gaps


@pytest.mark.parametrize("repeats", [1, 4, 5])
def test_time_baseline_is_the_median_of_the_timed_runs(repeats, fast_cfg, monkeypatch):
    import statistics

    from groundslice import parallel_exec

    walls = [3.0, 0.5, 7.25, 1.0, 2.5, 9.0, 4.0][:repeats + 2]  # two warm-up runs first
    runs = iter(walls)
    monkeypatch.setattr(parallel_exec, "run_sliced", lambda *a, **kw: (
        None, BenchmarkRecord("depth", 1, 1, "f", next(runs))))
    frame = frame_from_cloud(make_random_cloud(1, 100), "f")
    got = time_baseline(frame, "depth", fast_cfg, repeats=repeats, warmup=2)
    assert got == statistics.median(walls[2:])


def test_time_baseline_empty_frame(fast_cfg):
    cloud = PointCloud(xyz=np.empty((0, 3)), intensity=np.empty(0))
    frame = frame_from_cloud(cloud, "empty")
    ms = time_baseline(frame, "depth", fast_cfg, repeats=3, warmup=1)
    assert ms > 0


def test_bench_csv_layout(tmp_path):
    rec = BenchmarkRecord(method="depth", slices=5, units=3, frame="f0",
                          wall_ms=12.5, speedup=2.0)
    path = tmp_path / "bench.csv"
    write_bench_csv([rec], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,slices,units,frame,wall_ms,speedup"
    assert lines[1] == "depth,5,3,f0,12.5000,2.0000"


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="wall-time monotonicity needs a multi-core host")
def test_unit_sweep_monotone_wall_time(fast_cfg):
    """More units never slow the sweep down beyond 10% timing noise."""
    raw = make_ssl_capture(seed=30)
    frame = frame_from_ssl(decode_ssl_frame(raw, "even"), "bench")
    fast_cfg.depth.sensor_height = 1.0
    frame.range_image(fast_cfg)
    medians = []
    for p in (1, 2, 3, 5):
        executor = SliceExecutor(p, "process") if p > 1 else None
        try:
            times = []
            for _ in range(3):
                run_sliced(frame, "depth", 5, p, fast_cfg, executor=executor)
            for _ in range(11):
                _, rec = run_sliced(frame, "depth", 5, p, fast_cfg,
                                    executor=executor)
                times.append(rec.wall_ms)
        finally:
            if executor is not None:
                executor.close()
        medians.append(sorted(times)[len(times) // 2])
    for prev, cur in zip(medians, medians[1:]):
        assert cur <= prev * 1.10


FRAME_BUFFER = "/memfd:groundslice-frame"


def frame_buffers(pid: int) -> set[int]:
    """Inodes of the frame buffers a process holds open or maps, from /proc."""
    held = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            if os.readlink(f"/proc/{pid}/fd/{fd}").startswith(FRAME_BUFFER):
                held.add(os.stat(f"/proc/{pid}/fd/{fd}").st_ino)
        except FileNotFoundError:  # the listing's own fd, closed meanwhile
            pass
    with open(f"/proc/{pid}/maps") as fh:
        for line in fh:
            fields = line.split(maxsplit=5)
            if len(fields) == 6 and fields[5].startswith(FRAME_BUFFER):
                held.add(int(fields[4]))
    return held


def children() -> set[int]:
    """This process's child processes, from /proc/self/task/*/children."""
    pids = set()
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as fh:
            pids.update(int(p) for p in fh.read().split())
    return pids


def open_fds() -> dict[int, str]:
    """This process's open fds and what each links to."""
    links = {}
    for fd in os.listdir("/proc/self/fd"):
        try:
            links[int(fd)] = os.readlink(f"/proc/self/fd/{fd}")
        except FileNotFoundError:  # the listing's own fd
            pass
    return links


def run_buffer_sequence(executor, probe=None) -> list:
    """Depth at K=5 on 2 units over 64x1024, 126x625, 128x1024 and 64x1024 frames.

    Each mask must equal its P=1 mask. Returns `probe()` after each frame,
    by default the executor's frame buffer generation.
    """
    probe = probe or (lambda: executor.frame_buffer_generation)
    cfg = default_config()
    ssl_cfg, tall_cfg = copy.deepcopy(cfg), copy.deepcopy(cfg)
    ssl_cfg.depth.sensor_height = 1.0
    tall_cfg.projection.rows = 128
    street = frame_from_cloud(make_random_cloud(11, 2200), "street")
    ssl = frame_from_ssl(decode_ssl_frame(make_ssl_capture(seed=21), "even"), "ssl")
    seen = []
    for frame, c in ((street, cfg), (ssl, ssl_cfg), (street, tall_cfg), (street, cfg)):
        ref, _ = run_sliced(frame, "depth", 5, 1, c)
        got, _ = run_sliced(frame, "depth", 5, 2, c, executor=executor)
        assert ref.any()
        np.testing.assert_array_equal(got, ref)
        seen.append(probe())
    return seen


def test_frame_buffer_replaced_only_when_a_frame_does_not_fit():
    baseline = frame_buffers(os.getpid())  # the session executor's, if any
    before = children()
    with SliceExecutor(2, "process") as executor:
        (worker,) = children() - before

        def probe():
            return (executor.frame_buffer_generation,
                    frame_buffers(os.getpid()) - baseline, frame_buffers(worker))

        seen = run_buffer_sequence(executor, probe)
    gens = [gen for gen, _, _ in seen]
    # each frame outgrows the buffer before it but the last, which fits the third's
    assert gens[3] == gens[2] != gens[1] != gens[0]
    for _, caller, worker_held in seen:
        # one buffer at a time: the outgrown one is gone from the caller and the worker
        assert len(caller) == 1 and worker_held == caller
    assert len({min(caller) for _, caller, _ in seen}) == 3


def test_frame_buffer_released_on_close_without_a_tracker():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    script = textwrap.dedent(f"""
        import os, sys
        sys.path[:0] = [{src_dir!r}, {tests_dir!r}]
        from groundslice.parallel_exec import SliceExecutor
        helpers = ("concurrent.futures", "multiprocessing.shared_memory",
                   "multiprocessing.resource_tracker")
        assert not any(name in sys.modules for name in helpers)
        from test_parallel_exec import children, frame_buffers, open_fds, run_buffer_sequence
        import subprocess
        flags = subprocess._args_from_interpreter_flags()  # the caller's, passed on
        fds = open_fds()
        with SliceExecutor(2, "process") as ex:
            (worker,) = children()
            with open(f"/proc/{{worker}}/cmdline") as fh:
                assert fh.read().split("\\0")[:len(flags) + 2] == [sys.executable, *flags, "-c"]
            gens = run_buffer_sequence(ex)
            assert children() == {{worker}}  # no resource tracker, no other helper
        assert ex.frame_buffer_generation is None
        assert not children() and not frame_buffers(os.getpid())
        assert open_fds().items() <= fds.items()
        assert "multiprocessing.resource_tracker" not in sys.modules
        print(*gens)
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    gens = out.stdout.split()
    assert len(gens) == 4 and len(set(gens)) == 3  # created, then outgrown twice


def _after_sleep(seconds, task):
    time.sleep(seconds)
    return task


class _SlowToUnpickle:
    """A task whose unpickling in a worker takes half a second; it then runs as `task`."""

    def __init__(self, task):
        self.task = task

    def __reduce__(self):
        return _after_sleep, (0.5, self.task)


def test_run_units_waits_for_every_unit_before_raising(fast_cfg, process_pool):
    # units 0 and 1 go to workers, the caller runs the empty unit 2
    failing = ("ransac", 0, np.zeros((1, 3)), fast_cfg.ransac, 0)
    slow = _SlowToUnpickle(("ransac", 1, np.zeros((0, 3)), fast_cfg.ransac, 1))
    t0 = time.perf_counter()
    with pytest.raises(SliceError, match="slice 0"):
        process_pool.run_units([[failing], [slow], []])
    assert time.perf_counter() - t0 >= 0.5


def test_run_units_waits_for_a_slow_worker_when_the_caller_fails(fast_cfg, process_pool):
    # unit 0 goes to a worker and succeeds late; the caller's unit 1 fails at once
    slow = _SlowToUnpickle(("ransac", 0, np.zeros((0, 3)), fast_cfg.ransac, 0))
    failing = ("ransac", 1, np.zeros((1, 3)), fast_cfg.ransac, 1)
    t0 = time.perf_counter()
    with pytest.raises(SliceError, match="slice 1"):
        process_pool.run_units([[slow], [failing]])
    assert time.perf_counter() - t0 >= 0.5


def test_run_units_raises_the_first_failure_in_unit_order(fast_cfg, process_pool):
    # unit 0 fails in a worker, unit 1 in the caller
    failing = [("ransac", s, np.zeros((1, 3)), fast_cfg.ransac, s) for s in range(2)]
    with pytest.raises(SliceError, match="slice 0"):
        process_pool.run_units([failing[:1], failing[1:]])


def test_run_interrupted_while_waiting_for_a_worker_cannot_run_again(fast_cfg):
    # the worker's reply is still unread; a later run must not take it for its own
    slow = _SlowToUnpickle(("ransac", 0, np.zeros((0, 3)), fast_cfg.ransac, 0))

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    before = children()
    executor = SliceExecutor(2, "process")
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(KeyboardInterrupt):
            executor.run_units([[slow], []])
        with pytest.raises(RuntimeError, match="executor was interrupted"):
            executor.run_units([[], []])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        executor.close()
    assert children() == before


@pytest.mark.parametrize("units", [1, 2])
def test_process_executor_spawns_one_worker_fewer_than_units(units):
    before = children()
    with SliceExecutor(units, "process"):
        assert len(children() - before) == units - 1


def test_caller_runs_the_last_block_on_its_own_views(fast_cfg, process_pool, monkeypatch):
    from groundslice import process_units

    frame = frame_from_cloud(make_random_cloud(11, 2200), "f")
    ref, _ = run_sliced(frame, "depth", 5, 1, fast_cfg)
    image = frame.range_image(fast_cfg)
    seen, run_units = [], SliceExecutor.run_units

    def recording(self, unit_tasks):
        seen.append(unit_tasks)
        return run_units(self, unit_tasks)

    monkeypatch.setattr(SliceExecutor, "run_units", recording)
    got, _ = run_sliced(frame, "depth", 5, 2, fast_cfg, executor=process_pool)
    np.testing.assert_array_equal(got, ref)
    (worker, caller), = seen
    assert [t[1] for t in worker] == [0, 1, 2] and [t[1] for t in caller] == [3, 4]
    assert all(isinstance(t[2], FrameBand) for t in worker)
    assert all(isinstance(t[2], RangeImage) and np.shares_memory(t[2].xyz, image.xyz)
               for t in caller)
    assert process_units._mapped_frame is None  # the caller never maps the buffer


@pytest.mark.parametrize("backend", ["process", "serial"])
def test_caller_refuses_a_frame_band(backend, fast_cfg):
    from groundslice import process_units

    band = FrameBand(1, 4, 8, 0, 8, (0.0, 1.0), (0.0, 1.0), 0)
    with SliceExecutor(2, backend) as executor:
        with pytest.raises(AssertionError, match="map its own frame buffer"):
            executor.run_units([[], [("depth", 1, band, fast_cfg.depth, 1)]])
    assert process_units._mapped_frame is None


@pytest.mark.parametrize("units, backend, unit_counts", [
    (1, "process", (1,)), (2, "process", (1,)), (2, "serial", (1, 2))])
def test_runs_without_workers_create_no_frame_buffer(units, backend, unit_counts, fast_cfg):
    frame = frame_from_cloud(make_random_cloud(11, 2200), "f")
    ref, _ = run_sliced(frame, "depth", 5, 1, fast_cfg)
    with SliceExecutor(units, backend) as executor:
        for p in unit_counts:
            got, _ = run_sliced(frame, "depth", 5, p, fast_cfg, executor=executor)
            np.testing.assert_array_equal(got, ref)
            assert executor.frame_buffer_generation is None


def test_dead_unit_raises_and_close_still_releases(fast_cfg, dying_task):
    frame = frame_from_cloud(make_random_cloud(11, 2200), "f")
    ref, _ = run_sliced(frame, "depth", 5, 1, fast_cfg)
    baseline = frame_buffers(os.getpid())  # the session executor's, if any
    executor = SliceExecutor(2, "process")
    try:
        got, _ = run_sliced(frame, "depth", 5, 2, fast_cfg, executor=executor)
        np.testing.assert_array_equal(got, ref)
        assert len(frame_buffers(os.getpid()) - baseline) == 1
        with pytest.raises(RuntimeError, match=r"processing unit died.*exit codes \[1\]"):
            executor.run_units([[dying_task], []])
        with pytest.raises(RuntimeError, match="processing unit died"):
            run_sliced(frame, "depth", 5, 2, fast_cfg, executor=executor)
    finally:
        executor.close()
    assert executor.frame_buffer_generation is None
    assert frame_buffers(os.getpid()) <= baseline


@pytest.mark.parametrize("dies", [False, True], ids=["closed", "died"])
def test_close_leaves_no_worker_and_no_frame_buffer_fd(dies, fast_cfg, dying_task):
    frame = frame_from_cloud(make_random_cloud(11, 2200), "f")
    before, fds = children(), open_fds()
    executor = SliceExecutor(3, "process")
    try:
        run_sliced(frame, "depth", 5, 3, fast_cfg, executor=executor)
        workers = children() - before
        assert len(workers) == 2
        for pid in workers:
            with open(f"/proc/{pid}/cmdline") as fh:
                assert "resource_tracker" not in fh.read()
        if dies:
            with pytest.raises(RuntimeError, match="processing unit died"):
                executor.run_units([[dying_task], [], []])
            assert not children() & workers  # reaped at once, not at close
    finally:
        executor.close()
    assert not children() & workers
    assert open_fds().items() <= fds.items()


@pytest.mark.parametrize("backend", ["process", "serial"])
def test_closed_executor_raises(backend, fast_cfg):
    # depth fails in `depth_slices`, smrf in `run_units`
    frame = frame_from_cloud(make_random_cloud(11, 2200), "f")
    executor = SliceExecutor(2, backend)
    executor.close()
    for method in ("depth", "smrf"):
        with pytest.raises(RuntimeError, match="executor is closed"):
            run_sliced(frame, method, 4, 2, fast_cfg, executor=executor)


def _run_script(tmp_path, body: str, *flags: str) -> subprocess.CompletedProcess:
    """Run `body` as a script file with interpreter `flags`, the package's sources on its path."""
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    script = tmp_path / "script.py"
    script.write_text(f"import sys\nsys.path.insert(0, {src_dir!r})\n" + textwrap.dedent(body))
    return subprocess.run([sys.executable, *flags, str(script)], capture_output=True,
                          text=True, timeout=120)


# A script's helper: a value computed in a worker, carried back as a slice
# index. `Evaluated` pickles as `fn(*args)`, so a worker evaluates it while
# unpickling its task, and imports nothing of the script to do so.
IN_WORKER = """
    import numpy as np

    class Evaluated:
        def __init__(self, fn, *args):
            self.fn, self.args = fn, args

        def __reduce__(self):
            return self.fn, self.args

    def in_worker(executor, value):
        [[(index, _)], []] = executor.run_units([[("ransac", value, np.zeros((0, 3)), None, 0)],
                                                 []])
        return index

    worker_sys = Evaluated(__import__, "sys")
"""


def test_single_unit_runs_load_no_transport(tmp_path):
    out = _run_script(tmp_path, """
        from groundslice import default_config
        from groundslice.parallel_exec import frame_from_cloud, run_sliced
        from groundslice.synthetic import make_random_cloud
        cfg = default_config()
        frame = frame_from_cloud(make_random_cloud(11, 2200), "f")
        for method in ("depth", "ransac", "smrf"):
            for k in (1, 3):
                run_sliced(frame, method, k, 1, cfg)
        transport = ("multiprocessing", "subprocess", "socket", "statistics")
        print(sorted(name for name in sys.modules if name.split(".")[0] in transport))
    """)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout == "[]\n"


def test_process_units_load_no_multiprocessing(tmp_path):
    out = _run_script(tmp_path, IN_WORKER + """
    from groundslice import default_config
    from groundslice.parallel_exec import SliceExecutor, frame_from_cloud, run_sliced
    from groundslice.synthetic import make_random_cloud
    cfg = default_config()
    frame = frame_from_cloud(make_random_cloud(11, 2200), "f")
    with SliceExecutor(2, "process") as executor:
        for method in ("depth", "ransac", "smrf"):
            got, _ = run_sliced(frame, method, 4, 2, cfg, executor=executor)
            assert np.array_equal(got, run_sliced(frame, method, 4, 1, cfg)[0])
        worker = in_worker(executor, Evaluated(list, Evaluated(getattr, worker_sys, "modules")))
    assert "groundslice.process_units" in worker  # it ran a frame-buffer band
    for modules in (sys.modules, worker):
        print(sorted(name for name in modules if name.split(".")[0] == "multiprocessing"))
    """)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout == "[]\n[]\n"


def test_workers_get_the_callers_interpreter_flags(tmp_path):
    out = _run_script(tmp_path, IN_WORKER + """
    from groundslice.parallel_exec import SliceExecutor
    flags = Evaluated(getattr, worker_sys, "flags")
    with SliceExecutor(2, "process") as executor:
        seen = in_worker(executor, Evaluated(list, [Evaluated(getattr, flags, "optimize"),
                                                    Evaluated(getattr, worker_sys, "warnoptions"),
                                                    Evaluated(getattr, worker_sys, "_xoptions")]))
    print(seen == [sys.flags.optimize, sys.warnoptions, sys._xoptions])
    print(seen[0], "ignore::FutureWarning" in seen[1], seen[2].get("faulthandler"))
    """, "-O", "-W", "ignore::FutureWarning", "-X", "faulthandler")
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout == "True\n1 True True\n"


def test_warm_up_death_raises_unit_died_and_exits(tmp_path):
    # a worker that exits before replying dies inside the executor's warm-up
    out = _run_script(tmp_path, """
        from groundslice import parallel_exec, process_units
        process_units._BOOT = "import os; os._exit(3)"
        parallel_exec.SliceExecutor(2, "process").close()
    """)
    assert out.returncode != 0
    last = out.stderr.strip().splitlines()[-1]
    assert last.startswith("RuntimeError: a processing unit died"), out.stderr[-2000:]
    assert last.endswith("(worker exit codes [3])")


def test_unguarded_script_runs_process_units(tmp_path):
    # workers never re-run the caller's main module, so it needs no __main__ guard
    out = _run_script(tmp_path, """
        import numpy as np
        from groundslice import default_config
        from groundslice.parallel_exec import SliceExecutor, frame_from_cloud, run_sliced
        from groundslice.synthetic import make_random_cloud
        cfg = default_config()
        frame = frame_from_cloud(make_random_cloud(11, 2200), "f")
        with SliceExecutor(2, "process") as executor:
            got, _ = run_sliced(frame, "depth", 5, 2, cfg, executor=executor)
        print(np.array_equal(got, run_sliced(frame, "depth", 5, 1, cfg)[0]))
    """)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout == "True\n"


def test_worker_start_up_loads_no_package():
    # a package import maps numpy's extension modules; the boot script imports none
    before = children()
    with SliceExecutor(2, "process") as executor:
        (worker,) = children() - before

        def numpy_mapped():
            with open(f"/proc/{worker}/maps") as fh:
                return "numpy" in fh.read()

        assert not numpy_mapped()
        executor.run_units([[("ransac", 0, np.zeros((0, 3)), None, 0)], []])
        assert numpy_mapped()  # the first real task imports the package


class _Unpicklable(ValueError):
    def __init__(self):
        super().__init__("bad")
        self.hook = lambda: None  # a local object: the exception does not pickle


class _RaisingRansacConfig:
    """Stands in for `cfg.ransac`: reading `iterations` raises an unpicklable error."""

    @property
    def iterations(self):
        raise _Unpicklable()


@pytest.mark.parametrize("backend", ["process", "serial"])
def test_unpicklable_slice_failure_names_its_slice(backend, fast_cfg, process_pool):
    frame = frame_from_cloud(make_random_cloud(3, 600), "f")
    ref, _ = run_sliced(frame, "ransac", 2, 1, fast_cfg)
    bad_cfg = copy.deepcopy(fast_cfg)
    bad_cfg.ransac = _RaisingRansacConfig()
    executor = process_pool if backend == "process" else SliceExecutor(2, "serial")
    with pytest.raises(SliceError, match=r"^slice 0: bad$") as info:
        run_sliced(frame, "ransac", 2, 2, bad_cfg, executor=executor)
    assert info.value.slice_index == 0
    # the executor still runs
    got, _ = run_sliced(frame, "ransac", 2, 2, fast_cfg, executor=executor)
    np.testing.assert_array_equal(got, ref)


def test_frame_buffer_falls_back_to_a_temporary_file(monkeypatch, fast_cfg):
    monkeypatch.delattr(os, "memfd_create")
    frame = frame_from_cloud(make_random_cloud(11, 2200), "f")
    ref, _ = run_sliced(frame, "depth", 5, 1, fast_cfg)
    fds = open_fds()
    with SliceExecutor(2, "process") as executor:
        got, _ = run_sliced(frame, "depth", 5, 2, fast_cfg, executor=executor)
        assert executor.frame_buffer_generation == 1
        held = [link for fd, link in open_fds().items() if fd not in fds]
        assert any(link.endswith("(deleted)") and not link.startswith(FRAME_BUFFER)
                   for link in held), held
    np.testing.assert_array_equal(got, ref)
    assert open_fds().items() <= fds.items()


def test_unit_maps_a_new_buffer_after_a_failed_slice():
    # a one-row image fails in every slice; the units, which keep the failed
    # slices' tracebacks, must still map the next, larger frame's buffer
    cfg = default_config()
    flat_cfg = copy.deepcopy(cfg)
    flat_cfg.projection.rows = 1
    frame = frame_from_cloud(make_random_cloud(11, 2200), "f")
    ref, _ = run_sliced(frame, "depth", 5, 1, cfg)
    with SliceExecutor(2, "process") as executor:
        with pytest.raises(SliceError, match="at least 2 rows"):
            run_sliced(frame, "depth", 5, 2, flat_cfg, executor=executor)
        small = executor.frame_buffer_generation
        got, _ = run_sliced(frame, "depth", 5, 2, cfg, executor=executor)
        assert executor.frame_buffer_generation != small
    np.testing.assert_array_equal(got, ref)
