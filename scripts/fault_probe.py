#!/usr/bin/env python3
"""Minor page faults per depth frame and peak resident set, per process.

    python3 scripts/fault_probe.py --kind street --slices 1 --units 1 --seed 1371
    python3 scripts/fault_probe.py --kind ssl --slices 5 --units 2 --pin --seed 1371

Runs framebench's frame path (read the file, project or decode, `run_sliced`
with the depth method) in a closed loop over the seed's framebench inputs,
generated in a process of their own when missing. After two warm-up frames
it reads `minflt` from /proc/<pid>/stat of this process and of every
executor worker (its children, from /proc/self/task/*/children), runs
whole rounds over the inputs for `--seconds`, reads them again and prints
one JSON line with the faults per frame and each process's `VmHWM` (peak
resident set, from /proc/<pid>/status) in MB; the caller's includes the
probe's own imports. `--pin` restricts the process to one vCPU before the
executor starts its workers, as the `ssl_units`
workload does. The probe sets no allocator policy and no environment
variable.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FRAMEBENCH = ROOT / "framebench"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(FRAMEBENCH))

WARMUP_FRAMES = 2


def minor_faults(pid: int) -> int:
    """Field 10 (minflt) of /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[7])


def peak_rss_mb(pid: int) -> float:
    """VmHWM of /proc/<pid>/status, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def children() -> list[int]:
    """This process's child processes, from /proc/self/task/*/children."""
    pids = []
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as fh:
            pids.extend(int(p) for p in fh.read().split())
    return sorted(pids)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--kind", choices=("street", "ssl"), required=True)
    ap.add_argument("--slices", type=int, required=True, help="K")
    ap.add_argument("--units", type=int, required=True, help="P")
    ap.add_argument("--pin", action="store_true", help="run on one vCPU, workers included")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=3.0)
    args = ap.parse_args()
    if not 1 <= args.units <= args.slices:
        ap.error("need 1 <= units <= slices")

    from inputs import input_dir
    from workloads import Workload, input_files, load_run_config, run_frame

    from groundslice.parallel_exec import SliceExecutor

    inputs = input_dir(args.kind, args.seed)
    if not inputs.is_dir():
        subprocess.run([sys.executable, str(FRAMEBENCH / "inputs.py"), "--kind", args.kind,
                        "--seed", str(args.seed), "--out", str(inputs)], check=True)
    wl = Workload("fault_probe", args.kind, ("depth",), args.slices, args.units, args.pin)
    files = input_files(wl, inputs)
    cfg = load_run_config(wl)
    if args.pin:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    executor = SliceExecutor(args.units, cfg.parallel.backend) if args.units > 1 else None
    try:
        for path in files[:WARMUP_FRAMES]:
            run_frame(wl, path, cfg, args.units, executor)
        # the executor's workers are this process's only children by now
        pids = [os.getpid()] + children()
        before = [minor_faults(p) for p in pids]
        frames = 0
        t_end = time.monotonic() + args.seconds
        while time.monotonic() < t_end:
            for path in files:
                run_frame(wl, path, cfg, args.units, executor)
                frames += 1
        per_frame = [round((minor_faults(p) - b) / frames, 1) for p, b in zip(pids, before)]
        peaks = [round(peak_rss_mb(p), 2) for p in pids]
    finally:
        if executor is not None:
            executor.close()
    print(json.dumps({"kind": args.kind, "slices": args.slices, "units": args.units,
                      "pinned": args.pin, "seed": args.seed, "frames": frames,
                      "caller_faults_per_frame": per_frame[0],
                      "worker_faults_per_frame": per_frame[1:],
                      "caller_vm_hwm_mb": peaks[0], "worker_vm_hwm_mb": peaks[1:]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
