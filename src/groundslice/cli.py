"""Command-line front end: segment, eval, bench, render, decode-ssl.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error. Every
segment run writes a manifest echoing the full effective config, so a run
is reproducible from the manifest plus inputs alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import ssl_frame as sslmod
from .config import PARITIES, RunConfig, default_config, dump_config, load_config
from .kitti_io import GROUND_CLASS_PRESETS, load_frame, list_sequence, load_velodyne_bin
from .metrics import aggregate, confusion, f1, iou, write_frame_csv, write_summary_csv
from .parallel_exec import (METHODS, BenchmarkRecord, SliceExecutor,
                            frame_from_cloud, frame_from_ssl, run_sliced,
                            time_baseline, write_bench_csv)


class UsageError(Exception):
    """Bad arguments, paths or config: exit code 2."""


def _parse_frames(text: str | None):
    if text is None:
        return None
    a, sep, b = text.partition("..")
    try:
        return (int(a), int(b if sep else a))
    except ValueError:
        raise UsageError(f"bad frame interval {text!r}, expected a..b or a") from None


def _parse_int_list(text: str) -> list[int]:
    out = []
    try:
        for part in text.split(","):
            part = part.strip()
            if ".." in part:
                a, b = part.split("..", 1)
                out.extend(range(int(a), int(b) + 1))
            elif part:
                out.append(int(part))
    except ValueError:
        raise UsageError(f"bad integer list {text!r}, expected e.g. 1..5 or 1,3") from None
    if not out:
        raise UsageError(f"empty integer list: {text!r}")
    return out


def _load_cfg(args) -> RunConfig:
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            return load_config(path)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return default_config()


def _iter_kitti_frames(args, cfg: RunConfig, with_labels: bool):
    root = Path(args.root)
    if not root.is_dir():
        raise UsageError(f"dataset root not found: {root}")
    try:
        pairs = list_sequence(root, args.sequence, _parse_frames(args.frames))
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from exc
    if not pairs:
        raise UsageError(f"no frames matched in sequence {args.sequence}")
    classes = GROUND_CLASS_PRESETS[cfg.dataset.ground_classes]
    for scan_path, label_path in pairs:
        if with_labels:
            cloud, truth, dropped = load_frame(scan_path, label_path, classes)
        else:
            cloud, dropped = load_velodyne_bin(scan_path)
            truth = None
        frame = frame_from_cloud(cloud, frame_id=scan_path.stem)
        yield frame, truth, dropped


def _load_ssl_input(path, parity: str) -> sslmod.SslFrame:
    """Decode a raw capture (`.csv` fixture or `.sslraw`) with the given parity."""
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"capture not found: {path}")
    if path.suffix == ".csv":
        raw = sslmod.load_ssl_csv(path)
    else:
        raw = sslmod.load_sslraw(path)
    return sslmod.decode_ssl_frame(raw, parity)


def _load_inputs(args, cfg: RunConfig, method: str | None = None) -> list:
    """One (frame, record_of_point, n_records) triple per input frame.

    record_of_point[i] is the file record that cloud point i was read from;
    records with no point (dropped scan records, invalid capture cells) are
    absent from it. A depth run on a capture takes the SSL sensor height.
    """
    if args.ssl_file:
        ssl = _load_ssl_input(args.ssl_file, cfg.ssl.parity)
        if method == "depth":
            cfg.depth.sensor_height = cfg.ssl.sensor_height
        frame = frame_from_ssl(ssl, frame_id=Path(args.ssl_file).stem)
        return [(frame, ssl.index_map[ssl.valid], sslmod.RECORDS_PER_FRAME)]
    if args.root:
        inputs = []
        for frame, _, dropped in _iter_kitti_frames(args, cfg, with_labels=False):
            n_raw = len(frame.cloud) + dropped.size
            inputs.append((frame, np.delete(np.arange(n_raw), dropped), n_raw))
        return inputs
    raise UsageError(f"{args.command} needs --root or --ssl-file")


def _check_slice_counts(counts) -> None:
    """Refuse a slice count below 1, before the unit counts it bounds are checked."""
    if min(counts) < 1:
        raise UsageError("--slices counts must be >= 1")


def _check_depth_slices(frames, k: int, cfg: RunConfig) -> None:
    """A depth run cuts each frame's range image into k column bands."""
    for frame in frames:
        cols = frame.range_image(cfg).cols  # cached for the run
        if k > cols:
            raise UsageError(f"--slices {k} out of range 1..{cols} for depth: the range "
                             f"image of frame {frame.frame_id} has {cols} columns")


def cmd_segment(args) -> int:
    cfg = _load_cfg(args)
    if args.method not in METHODS:
        raise UsageError(f"--method must be one of {METHODS}")
    k, p = args.slices, args.units
    _check_slice_counts([k])
    if not 1 <= p <= k:
        raise UsageError(f"--units must be in 1..{k} for {k} slices")
    inputs = _load_inputs(args, cfg, args.method)
    if args.method == "depth":
        _check_depth_slices((frame for frame, _, _ in inputs), k, cfg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    source = (f"ssl_file={args.ssl_file}" if args.ssl_file else
              f"root={args.root} sequence={args.sequence} frames={args.frames}")
    manifest = [f"# groundslice segment method={args.method} slices={k} units={p} "
                f"seed={args.seed} {source}", ""]
    with SliceExecutor(p, cfg.parallel.backend) as executor:
        for frame, record_of_point, n_records in inputs:
            mask, wall_ms = run_sliced(frame, args.method, k, p, cfg,
                                       seed=args.seed, executor=executor)
            out = np.zeros(n_records, dtype=np.uint8)
            out[record_of_point] = mask
            (out_dir / f"{frame.frame_id}.mask").write_bytes(out.tobytes())
            manifest.append(f"# frame {frame.frame_id}: {int(mask.sum())} ground, "
                            f"{wall_ms:.3f} ms")
    manifest.append("")
    manifest.append(dump_config(cfg))
    (out_dir / "manifest.txt").write_text("\n".join(manifest))
    print(f"wrote {len(inputs)} mask file(s) to {out_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    methods = METHODS if args.method == "all" else tuple(args.method.split(","))
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")
    slice_counts = _parse_int_list(args.slices)
    _check_slice_counts(slice_counts)
    if args.units < 1:
        raise UsageError("--units must be >= 1")
    if not args.root:
        raise UsageError("eval needs --root (labelled dataset)")

    loaded = [(frame, truth) for frame, truth, _ in
              _iter_kitti_frames(args, cfg, with_labels=True)]
    if "depth" in methods:
        _check_depth_slices((frame for frame, _ in loaded), max(slice_counts), cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    frame_rows = []
    summary_rows = []
    # no run uses more units than it has slices
    with SliceExecutor(min(args.units, max(slice_counts)), cfg.parallel.backend) as executor:
        for method in methods:
            for k in slice_counts:
                iou_values, f1_values = [], []
                empty_ground = 0
                p = min(args.units, k)  # masks are P-independent by contract
                for frame, truth in loaded:
                    mask, _ = run_sliced(frame, method, k, p, cfg,
                                         seed=args.seed, executor=executor)
                    stats = confusion(mask, truth)
                    empty_ground += stats.empty_ground
                    iou_values.append(iou(stats))
                    f1_values.append(f1(stats))
                    frame_rows.append((method, k, frame.frame_id,
                                       iou_values[-1], f1_values[-1]))
                mean_iou, mean_f1 = aggregate(iou_values), aggregate(f1_values)
                summary_rows.append((method, k, mean_iou, mean_f1))
                line = (f"{method} K={k}: mean IoU {mean_iou.mean:.4f} ± {mean_iou.std:.4f}, "
                        f"F1 {mean_f1.mean:.4f} ± {mean_f1.std:.4f}")
                if empty_ground:
                    line += f"  ({empty_ground} empty-ground frames scored 1.0)"
                print(line)
    write_frame_csv(frame_rows, out_dir / "eval_frames.csv")
    write_summary_csv(summary_rows, out_dir / "eval_summary.csv")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    if args.method not in METHODS:
        raise UsageError(f"--method must be one of {METHODS}")
    k = args.slices
    _check_slice_counts([k])
    unit_set = _parse_int_list(args.units_set)
    for p in unit_set:
        if not 1 <= p <= k:
            raise UsageError(f"unit count {p} invalid for {k} slices")

    frames = [frame for frame, _, _ in _load_inputs(args, cfg, args.method)]
    if args.method == "depth":
        _check_depth_slices(frames, k, cfg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    timing = dict(seed=args.seed, repeats=cfg.parallel.bench_repeats,
                  warmup=cfg.parallel.bench_warmup)
    # one executor for the sweep: a run may use fewer units than it has
    with SliceExecutor(max(unit_set), cfg.parallel.backend) as executor:
        for frame in frames:
            baseline = time_baseline(frame, args.method, cfg, **timing)
            for p in unit_set:
                wall_ms = time_baseline(frame, args.method, cfg, **timing,
                                        k=k, p=p, executor=executor)
                rec = BenchmarkRecord(method=args.method, slices=k, units=p,
                                      frame=frame.frame_id, wall_ms=wall_ms,
                                      speedup=baseline / wall_ms)
                records.append(rec)
                print(f"{frame.frame_id} K={k} P={p}: {rec.wall_ms:.3f} ms "
                      f"(speedup {rec.speedup:.2f}x)")
    write_bench_csv(records, out_dir / "bench.csv")
    return 0


def _write_ppm(path, rgb: np.ndarray) -> None:
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(rgb.astype(np.uint8).tobytes())


def cmd_render(args) -> int:
    cfg = _load_cfg(args)
    inputs = _load_inputs(args, cfg)
    if len(inputs) != 1:
        raise UsageError("render needs exactly one frame; narrow --frames")
    frame, record_of_point, n_records = inputs[0]
    image = frame.range_image(cfg)

    pixel_ground = np.zeros((image.rows, image.cols), dtype=bool)
    if args.mask:
        mask_path = Path(args.mask)
        if not mask_path.is_file():
            raise UsageError(f"mask file not found: {mask_path}")
        record_mask = np.frombuffer(mask_path.read_bytes(), dtype=np.uint8).astype(bool)
        if record_mask.size != n_records:
            raise UsageError(f"mask length {record_mask.size} does not match "
                             f"{n_records} records")
        point_mask = record_mask[record_of_point]
        filled = image.point_index != -1
        pixel_ground[filled] = point_mask[image.point_index[filled]]

    range_m = image.range_m  # computed on each access
    valid = range_m > 0
    gray = np.zeros((image.rows, image.cols))
    if valid.any():
        inv = np.zeros_like(gray)
        inv[valid] = 1.0 / range_m[valid]
        lo, hi = inv[valid].min(), inv[valid].max()
        span = (hi - lo) if hi > lo else 1.0
        gray[valid] = (inv[valid] - lo) / span
    g8 = np.round(40 + gray * 215).astype(np.uint8)
    rgb = np.zeros((image.rows, image.cols, 3), dtype=np.uint8)
    for ch in range(3):
        rgb[:, :, ch] = np.where(valid, g8, 0)
    rgb[pixel_ground & valid] = (255, 40, 40)

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_ppm(out_path, rgb)
    print(f"wrote {out_path} ({image.cols}x{image.rows})")
    return 0


def cmd_decode_ssl(args) -> int:
    cfg = _load_cfg(args)
    # parity checked by both argparse choices and load_config
    frame = _load_ssl_input(args.ssl_file, args.parity or cfg.ssl.parity)
    path = Path(args.ssl_file)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{path.stem}.sslframe"
    with open(out_path, "wb") as fh:
        fh.write(np.array([frame.rows, frame.cols], dtype="<u4").tobytes())
        fh.write(frame.xyz.astype("<f4").tobytes())
        fh.write(frame.valid.astype(np.uint8).tobytes())

    print(f"decoded {path.name}: {frame.rows}x{frame.cols} grid, "
          f"{sslmod.SUBFRAME_COUNT} subframes of {sslmod.RECORDS_PER_SUBFRAME} points")
    for s in range(sslmod.SUBFRAME_COUNT):
        xyz, valid = sslmod.subframe(frame, s)
        n_valid = int(valid.sum())
        line = f"subframe {s}: valid {n_valid}/{sslmod.RECORDS_PER_SUBFRAME}"
        if n_valid:
            for axis, name in enumerate("xyz"):
                vals = xyz[:, :, axis][valid]
                line += f"  {name} [{vals.min():.3f}, {vals.max():.3f}]"
        print(line)
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundslice",
        description="Sliced-frame parallel LiDAR ground segmentation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--config", help="config file (flat sectioned key=value)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output directory/file")
        p.add_argument("--frames", help="inclusive frame interval a..b")
        p.add_argument("--root", help="dataset root (sequences/<id>/...)")
        p.add_argument("--sequence", default="00")
        p.add_argument("--ssl-file", help="raw solid-state capture (.sslraw or .csv)")

    p = sub.add_parser("segment", help="write per-frame ground masks")
    add_shared(p)
    p.add_argument("--method", required=True)
    p.add_argument("--slices", type=int, default=1)
    p.add_argument("--units", type=int, default=1)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="IoU/F1 per (method, slice count)")
    add_shared(p)
    p.add_argument("--method", default="all", help="method or comma list or 'all'")
    p.add_argument("--slices", default="1..5", help="slice counts, e.g. 1..5 or 1,3")
    p.add_argument("--units", type=int, default=1,
                   help="processing units (results are unit-independent)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="wall-time sweep over processing units")
    add_shared(p)
    p.add_argument("--method", required=True)
    p.add_argument("--slices", type=int, default=5)
    p.add_argument("--units-set", default="1,2,3,5", dest="units_set")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="range image to PPM, mask overlaid red")
    add_shared(p)
    p.add_argument("--mask", help="mask file from `segment`")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("decode-ssl", help="organize a raw capture, print stats")
    add_shared(p)
    p.add_argument("--parity", choices=PARITIES)
    p.set_defaults(func=cmd_decode_ssl)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
