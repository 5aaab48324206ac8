"""Self-test of the benchmark's own checks.

    python3 framebench/selftest.py

A mask with one flipped point, a mask of the wrong length, and a P=2 mask
that differs from the P=1 mask must each be counted as failed, both by the
reference checks and by the timed-frame comparison, and the run built from
them must report `correct: false`. Exits 0 when every case holds.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from checks import frame_errors
from program import Tally
from run import ensure_inputs, summarize
from workloads import WORKLOADS, input_files, load_run_config, run_frame

SEED = 0


def flipped(mask: np.ndarray) -> np.ndarray:
    out = mask.copy()
    out[len(out) // 2] = ~out[len(out) // 2]
    return out


def run_summary(tally: Tally, ref_errors: list[str]) -> dict:
    run = {"attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
           "frame_ms": [1.0], "cpu_ms": 1.0, "steal_share": 0.0, "peak_rss_mb": 1.0,
           "cpus": [0]}
    return summarize(1, [1.0], ref_errors, run, [1.0], False)[1]


def main() -> int:
    from groundslice.parallel_exec import SliceExecutor

    deadline = time.monotonic() + 170
    failures = []

    def expect(cond: bool, what: str) -> None:
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            failures.append(what)

    street = WORKLOADS["street_depth"]
    cfg = load_run_config(street)
    path = input_files(street, ensure_inputs("street", SEED, deadline))[0]
    n, (mask,) = run_frame(street, path, cfg, 1)
    expect(frame_errors(street, path, cfg, n, [mask], [], []) == [],
           "the program's own mask passes the reference checks")
    for name, bad in (("one flipped point", flipped(mask)), ("wrong length", mask[:-1])):
        errors = frame_errors(street, path, cfg, n, [bad], [], [])
        expect(errors != [], f"reference check fails a mask with {name}")
        tally = Tally({"0/0": mask})
        tally.check("0", [bad])
        expect(tally.failed == 1, f"timed-frame check fails a mask with {name}")
        result = run_summary(tally, errors)
        expect(result["correct"] is False and result["failed"] == 2,
               f"a run with {name} reports correct: false")

    ssl = WORKLOADS["ssl_units"]
    cfg = load_run_config(ssl)
    path = input_files(ssl, ensure_inputs("ssl", SEED, deadline))[0]
    _, (inline,) = run_frame(ssl, path, cfg, 1)
    with SliceExecutor(ssl.units, cfg.parallel.backend) as executor:
        _, (parallel,) = run_frame(ssl, path, cfg, ssl.units, executor)
    tally = Tally({"0/0": inline})
    tally.check("0", [parallel])
    expect(tally.failed == 0, "the program's P=2 mask equals its P=1 mask")
    tally.check("0", [flipped(parallel)])
    expect(tally.failed == 1, "a P=2 mask that differs from the P=1 mask fails")
    expect(run_summary(tally, [])["correct"] is False, "that run reports correct: false")

    print(f"{len(failures)} of the self-test's cases failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
