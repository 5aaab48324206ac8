"""Frame benchmark of groundslice: one closed-loop client, one frame in flight.

    python3 framebench/run.py --workload street_depth --seed 1 --seconds 25 --trace 0

Workloads (see README.md): street_depth, street_points, ssl_units. Run from
the root of a source tree; the program is imported from its `src/`.

Steps: generate the seed's inputs in a process of their own (cached under
.framebench_inputs/), run an untimed reference pass here and check every
mask, and let a launch of the program in a fresh interpreter run the timed
loop (or, with --trace 1, the traced run). Set-up is sampled on that launch
and on one more launch each at the start and at the end of the run. Context
lines come first; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from inputs import CACHE, input_dir  # noqa: E402
from workloads import CONFIG, WORKLOADS, input_files, run_frame  # noqa: E402

RUN_LIMIT_S = 170  # the whole run, set-up and checks included, ends within this

# metric name -> unit, for `--trace 0` and `--trace 1`
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def ensure_inputs(kind: str, seed: int, deadline: float) -> Path:
    out = input_dir(kind, seed)
    if not out.is_dir():
        subprocess.run([sys.executable, str(HERE / "inputs.py"), "--kind", kind,
                        "--seed", str(seed), "--out", str(out)],
                       check=True, timeout=max(1.0, deadline - time.monotonic()))
    return out


def reference_pass(wl, inputs: Path, ref_path: Path):
    """Untimed pass at P=1: every mask checked, masks saved as the references."""
    import numpy as np

    from checks import PlaneCapture, frame_errors
    from workloads import load_run_config

    cfg = load_run_config(wl)
    refs, ious, errors = {}, [], []
    files = input_files(wl, inputs)
    if not files:
        raise BenchError(f"no inputs under {inputs}")
    for i, path in enumerate(files):
        try:
            with PlaneCapture() as capture:
                n_points, masks = run_frame(wl, path, cfg, 1)
            errs = frame_errors(wl, path, cfg, n_points, masks, capture.planes, ious)
        except Exception as exc:  # a frame that raises counts as failed
            masks, errs = [], [f"{type(exc).__name__}: {exc}"]
        for m, mask in enumerate(masks):
            refs[f"{i}/{m}"] = mask
        if errs:
            errors.append(f"{wl.name} reference {path.name}: {'; '.join(errs)}")
    np.savez(ref_path, **refs)
    return len(files), ious, errors


class Program:
    """One launch of program.py; `setup_s` runs from the launch to its `ready` line."""

    def __init__(self, argv: list[str], deadline: float):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "program.py"), *argv],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self.kill()
            raise BenchError(f"program did not get ready (said {line.strip()!r})")

    def _left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def quit(self) -> None:
        self.proc.stdin.close()
        self._wait()

    def go(self) -> dict:
        try:
            out, _ = self.proc.communicate("go\n", timeout=self._left())
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("program ran past the time limit") from None
        self._wait()
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise BenchError(f"program exited with code {self.proc.returncode}")
        return json.loads(lines[-1])

    def _wait(self) -> None:
        try:
            self.proc.wait(timeout=self._left())
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("program did not exit") from None

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # its pool workers too
        except ProcessLookupError:
            pass
        self.proc.wait()


def tail_line(times: list[float]) -> str:
    """The frame time at the highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 40:
        return f"reference tail: none, {n} frames (< 40), median only"
    idx = n - 11
    return (f"reference tail: p{100 * (idx + 1) // n} = {sorted(times)[idx]:.3f} ms "
            f"over {n} frames ({n - 1 - idx} beyond)")


def summarize(n_ref: int, ious: list[float], ref_errors: list[str], run: dict,
              setup: list[float], trace: bool) -> tuple[list[str], dict]:
    """Context lines and the result object of one run."""
    import numpy
    import scipy

    attempted = n_ref + run["attempted"]
    failed = len(ref_errors) + run["failed"]
    lines = [f"frames: attempted {attempted}, failed {failed}"]
    lines += [f"error: {e}" for e in (ref_errors + run["errors"])[:5]]
    lines.append(f"host steal: {100 * run['steal_share']:.2f}% of host CPU time "
                 f"over the {'traced run' if trace else 'timed window'}")
    if trace:
        values, units = run["metrics"], PER_LAYER_UNITS
    else:
        times = run["frame_ms"]
        lines.append(tail_line(times))
        lines.append("setup samples (s): " + " ".join(f"{s:.4f}" for s in setup))
        values, units = {
            "frame_ms_p50": statistics.median(times),
            "cpu_ms_per_frame": run["cpu_ms"] / len(times),
            "mean_iou": statistics.fmean(ious),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": run["peak_rss_mb"],
        }, END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines.append(f"nproc: {os.cpu_count()}, program on vCPU {' '.join(map(str, run['cpus']))}")
    lines.append(f"versions: python {platform.python_version()}, numpy {numpy.__version__}, "
                 f"scipy {scipy.__version__}")
    return lines, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "groundslice" / "__init__.py").is_file() or not CONFIG.is_file():
        print(f"error: no groundslice source tree at {ROOT} (need src/groundslice "
              "and configs/default.cfg)", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    # a traced run also passes every other workload once, for the layers this
    # one does not go through
    names = [wl.name] + ([n for n in WORKLOADS if n != wl.name] if args.trace else [])
    ref_dir = CACHE / "references"
    ref_dir.mkdir(parents=True, exist_ok=True)
    passes = [(name, str(input_dir(WORKLOADS[name].inputs, args.seed)),
               str(ref_dir / f"{name}-{os.getpid()}.npz")) for name in names]
    argv = ["--workload", wl.name, "--inputs", passes[0][1], "--reference", passes[0][2],
            "--seconds", str(args.seconds)]
    if args.trace:
        argv.append("--trace")
        for home in passes[1:]:
            argv += ["--home", *home]
    n_ref, ious, ref_errors, setup = 0, [], [], []

    def setup_probe() -> None:
        probe = Program(argv, deadline)
        setup.append(probe.setup_s)
        probe.quit()

    try:
        # set-up is sampled at the start and at the end of the run as well as
        # by the measured launch, so that its median spans the whole run
        if not args.trace:
            setup_probe()
        for name, inputs, ref_path in passes:
            w = WORKLOADS[name]
            ensure_inputs(w.inputs, args.seed, deadline)
            n, w_ious, w_errors = reference_pass(w, Path(inputs), Path(ref_path))
            n_ref += n
            ref_errors += w_errors
            if name == wl.name:
                ious = w_ious
        program = Program(argv, deadline)
        setup.append(program.setup_s)
        run = program.go()
        if not args.trace:
            setup_probe()
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for _, _, ref_path in passes:
            Path(ref_path).unlink(missing_ok=True)
    lines, result = summarize(n_ref, ious, ref_errors, run, setup, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
