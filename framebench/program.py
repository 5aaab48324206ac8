"""The measured program process: set up, say `ready`, then run frames on `go`.

run.py launches this script in a fresh interpreter and times the launch up
to the `ready` line (imports, config, executor spawn). On `go` it runs a
closed loop with one frame in flight and prints one JSON line of results.
On end of input instead of `go` it shuts down, so set-up can be sampled.

Top-level imports are kept to the standard library: spawned pool workers
re-import this file as their main module.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

CLK_TCK = os.sysconf("SC_CLK_TCK")
WARMUP_FRAMES = 2


def descendants(pid: int) -> list[int]:
    """pid and every process below it, from /proc/<pid>/task/*/children."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except FileNotFoundError:
            pass  # exited meanwhile
    return out


def cpu_ticks(pid: int) -> int:
    """utime + stime of a process (all its threads), in clock ticks."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


def cpu_ms(pids) -> float:
    return sum(cpu_ticks(p) for p in pids) * 1000.0 / CLK_TCK


def peak_rss_mb(pids) -> float:
    """Sum of VmHWM (peak resident set) over the given processes."""
    total_kb = 0
    for p in pids:
        with open(f"/proc/{p}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def host_cpu() -> tuple[int, int]:
    """(steal, total) jiffies of the host's `cpu` line in /proc/stat."""
    with open("/proc/stat") as fh:
        vals = [int(v) for v in fh.readline().split()[1:9]]
    return vals[7], sum(vals)


class Tally:
    """Attempted and failed frames; a frame fails on a raise or any mask differing."""

    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)

    def check(self, key: str, masks) -> None:
        import numpy as np

        self.attempted += 1
        for m, mask in enumerate(masks):
            ref = self.refs.get(f"{key}/{m}")
            if (ref is None or mask.dtype != np.bool_ or mask.shape != ref.shape
                    or not np.array_equal(mask, ref)):
                self.fail(f"{key} method {m}: mask differs from its reference")
                return


def timed_loop(wl, files, refs, cfg, seconds: float, executor) -> dict:
    """Warm-up frames, then whole rounds over the inputs until `seconds` have passed."""
    from workloads import run_frame

    tally = Tally(refs)

    def one(i, path, times):
        t0 = time.perf_counter_ns()
        try:
            _, masks = run_frame(wl, path, cfg, wl.units, executor)
        except Exception as exc:  # a frame that raises counts as failed
            tally.attempted += 1
            tally.fail(f"{path.name}: {type(exc).__name__}: {exc}")
            return
        if times is not None:
            times.append((time.perf_counter_ns() - t0) / 1e6)
        tally.check(str(i), masks)

    for i, path in enumerate(files[:WARMUP_FRAMES]):
        one(i, path, None)
    pids = descendants(os.getpid())
    times: list[float] = []
    steal0, total0 = host_cpu()
    cpu0 = cpu_ms(pids)
    t_end = time.monotonic() + seconds
    while time.monotonic() < t_end:
        for i, path in enumerate(files):
            one(i, path, times)
    cpu1 = cpu_ms(pids)
    steal1, total1 = host_cpu()
    return {
        "frame_ms": times,
        "cpu_ms": cpu1 - cpu0,
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "peak_rss_mb": peak_rss_mb(descendants(os.getpid())),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--reference", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--home", nargs=3, action="append", default=[],
                    metavar=("WORKLOAD", "INPUTS", "REFERENCE"),
                    help="traced runs: another workload that measures layers "
                         "this one does not pass through")
    args = ap.parse_args()

    from groundslice.parallel_exec import SliceExecutor

    from workloads import WORKLOADS, load_run_config

    wl = WORKLOADS[args.workload]
    cfg = load_run_config(wl)
    if wl.pinned and not args.trace:
        # before the pool spawns, so that its workers inherit the one vCPU
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    executor = None
    if wl.units > 1 and not args.trace:  # a traced run times executor spawn itself
        executor = SliceExecutor(wl.units, cfg.parallel.backend)
    try:
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        import numpy as np

        from workloads import input_files

        def load(name, inputs, reference):
            w = WORKLOADS[name]
            return w, input_files(w, Path(inputs)), dict(np.load(reference)), load_run_config(w)

        if args.trace:
            from trace_layers import traced_run

            passes = [load(args.workload, args.inputs, args.reference)]
            passes += [load(*home) for home in args.home]
            result = traced_run(passes, args.seconds)
        else:
            _, files, refs, _ = load(args.workload, args.inputs, args.reference)
            result = timed_loop(wl, files, refs, cfg, args.seconds, executor)
        result["cpus"] = sorted(os.sched_getaffinity(0))
        print(json.dumps(result), flush=True)
    finally:
        if executor is not None:
            executor.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
