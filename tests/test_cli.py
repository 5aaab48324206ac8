import numpy as np
import pytest

from groundslice.cli import main
from groundslice.ssl_frame import RECORDS_PER_FRAME, save_sslraw
from groundslice.synthetic import make_ssl_capture


@pytest.fixture(scope="module")
def ssl_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ssl") / "cap.sslraw"
    save_sslraw(make_ssl_capture(seed=4, dropout=0.05), path)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_segment_kitti_writes_masks_and_manifest(small_dataset, tmp_path):
    out = tmp_path / "out"
    code = run_cli("segment", "--root", small_dataset, "--sequence", "00",
                   "--method", "depth", "--slices", "2", "--out", out)
    assert code == 0
    masks = sorted(out.glob("*.mask"))
    assert len(masks) == 3
    data = np.frombuffer(masks[0].read_bytes(), dtype=np.uint8)
    assert set(np.unique(data)) <= {0, 1}
    manifest = (out / "manifest.txt").read_text()
    assert "[depth]" in manifest and "method=depth" in manifest


def test_segment_mask_aligns_with_scan_records(small_dataset, tmp_path):
    out = tmp_path / "out"
    run_cli("segment", "--root", small_dataset, "--method", "smrf",
            "--slices", "1", "--out", out, "--config", "configs/default.cfg")
    scan = small_dataset / "sequences" / "00" / "velodyne" / "000000.bin"
    n_records = scan.stat().st_size // 16
    mask = (out / "000000.mask").read_bytes()
    assert len(mask) == n_records


@pytest.fixture(scope="module")
def scan_with_dropped_records(tmp_path_factory):
    """A one-frame sequence whose scan holds NaN and infinite records."""
    from groundslice.synthetic import write_sequence

    root = tmp_path_factory.mktemp("nan_scan")
    write_sequence(root, "00", n_frames=1, seed=5, rows=24, cols=180, max_range=30.0)
    scan = root / "sequences" / "00" / "velodyne" / "000000.bin"
    records = np.fromfile(scan, dtype="<f4").reshape(-1, 4)
    dropped = np.arange(7, len(records), 97)
    records[dropped[0::3], 0] = np.nan
    records[dropped[1::3], 2] = np.inf
    records[dropped[2::3], 3] = -np.inf  # a bad intensity drops the record too
    records.tofile(scan)
    return root, len(records), dropped


def test_segment_and_render_map_dropped_records(scan_with_dropped_records, tmp_path,
                                                 capsys):
    from groundslice.config import default_config
    from groundslice.kitti_io import load_velodyne_bin
    from groundslice.parallel_exec import frame_from_cloud, run_sliced

    root, n_raw, dropped = scan_with_dropped_records
    seg_out = tmp_path / "m"
    assert run_cli("segment", "--root", root, "--method", "depth", "--slices", "2",
                   "--out", seg_out) == 0
    mask = np.frombuffer((seg_out / "000000.mask").read_bytes(), dtype=np.uint8)
    assert mask.size == n_raw  # one byte per raw record
    assert not mask[dropped].any()

    cfg = default_config()
    scan = root / "sequences" / "00" / "velodyne" / "000000.bin"
    cloud, loaded_dropped = load_velodyne_bin(scan)
    assert np.array_equal(loaded_dropped, dropped)
    frame = frame_from_cloud(cloud)
    want, _ = run_sliced(frame, "depth", 2, 1, cfg)
    assert want.any()
    assert np.array_equal(np.delete(mask, dropped), want.astype(np.uint8))

    out = tmp_path / "img.ppm"
    assert run_cli("render", "--root", root, "--mask", seg_out / "000000.mask",
                   "--out", out) == 0
    image = frame.range_image(cfg)
    body = out.read_bytes().split(b"\n", 3)[3]
    rgb = np.frombuffer(body, dtype=np.uint8).reshape(image.rows, image.cols, 3)
    red = np.all(rgb == (255, 40, 40), axis=2)
    filled = image.point_index != -1
    want_red = np.zeros_like(filled)
    want_red[filled] = want[image.point_index[filled]]
    assert want_red.any()
    assert np.array_equal(red, want_red)

    # a mask of one byte per cloud point is not a record mask
    capsys.readouterr()
    bad = tmp_path / "points.mask"
    bad.write_bytes(want.astype(np.uint8).tobytes())
    assert run_cli("render", "--root", root, "--mask", bad, "--out", tmp_path / "bad.ppm") == 2
    assert (f"mask length {len(cloud)} does not match {n_raw} records"
            in capsys.readouterr().err)
    assert not (tmp_path / "bad.ppm").exists()


@pytest.mark.parametrize("argv, limit", [
    (("segment", "--method", "depth", "--slices", "700"), 625),
    (("bench", "--method", "depth", "--slices", "700", "--units-set", "1"), 625),
], ids=["segment", "bench"])
def test_ssl_depth_slices_over_columns_exit_2(argv, limit, ssl_file, tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(*argv, "--ssl-file", ssl_file, "--out", out) == 2
    assert f"out of range 1..{limit}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("segment", "--method", "depth", "--slices", "1025"),
    ("bench", "--method", "depth", "--slices", "1025", "--units-set", "1"),
    ("eval", "--method", "ransac,depth", "--slices", "1,1025"),
], ids=["segment", "bench", "eval"])
def test_scan_depth_slices_over_columns_exit_2(argv, small_dataset, tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(*argv, "--root", small_dataset, "--out", out) == 2
    assert "out of range 1..1024" in capsys.readouterr().err
    assert not out.exists()


def test_point_method_slices_not_bounded_by_columns(ssl_file, tmp_path):
    cfg = tmp_path / "few.cfg"
    cfg.write_text("[ransac]\niterations = 5\n")
    out = tmp_path / "o"
    assert run_cli("segment", "--ssl-file", ssl_file, "--method", "ransac",
                   "--slices", "700", "--config", cfg, "--out", out) == 0
    assert (out / "cap.mask").stat().st_size == RECORDS_PER_FRAME


def test_segment_ssl_full_record_mask(ssl_file, tmp_path):
    out = tmp_path / "sslout"
    code = run_cli("segment", "--ssl-file", ssl_file, "--method", "depth",
                   "--slices", "5", "--units", "1", "--out", out)
    assert code == 0
    mask = np.frombuffer((out / "cap.mask").read_bytes(), dtype=np.uint8)
    assert mask.size == RECORDS_PER_FRAME
    assert mask.sum() > 0


def test_segment_reproducible(small_dataset, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("segment", "--root", small_dataset, "--method", "ransac",
                "--slices", "3", "--seed", "9", "--out", out)
    for name in ("000000.mask", "000001.mask", "000002.mask"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_segment_missing_root_exit_2(tmp_path):
    out = tmp_path / "never"
    code = run_cli("segment", "--root", tmp_path / "nope", "--method",
                   "depth", "--out", out)
    assert code == 2
    assert not out.exists()  # no partial outputs


def test_eval_csv_layout_and_reproducibility(small_dataset, tmp_path):
    outs = []
    for name in ("eval_a", "eval_b"):
        out = tmp_path / name
        code = run_cli("eval", "--root", small_dataset, "--method",
                       "depth,ransac", "--slices", "1,2", "--out", out)
        assert code == 0
        outs.append(out)
    summary = (outs[0] / "eval_summary.csv").read_text().splitlines()
    assert summary[0] == "method,slices,mean_iou,std_iou,mean_f1,std_f1"
    assert len(summary) == 1 + 2 * 2  # header + methods x slice counts
    frames = (outs[0] / "eval_frames.csv").read_text().splitlines()
    assert frames[0] == "method,slices,frame,iou,f1"
    assert len(frames) == 1 + 2 * 2 * 3  # header + methods x Ks x frames
    for csv in ("eval_summary.csv", "eval_frames.csv"):
        assert (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes()


def test_bench_csv_speedup_near_one_for_p1(ssl_file, tmp_path):
    out = tmp_path / "bench"
    code = run_cli("bench", "--ssl-file", ssl_file, "--method", "depth",
                   "--slices", "5", "--units-set", "1",
                   "--config", "tests/data/bench_fast.cfg", "--out", out)
    assert code == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "method,slices,units,frame,wall_ms,speedup"
    method, slices, units, frame, wall_ms, speedup = lines[1].split(",")
    assert (method, slices, units) == ("depth", "5", "1")
    assert float(wall_ms) > 0
    assert 0.5 < float(speedup) < 2.0  # self-baseline up to timing noise


def test_render_ssl_dimensions(ssl_file, tmp_path):
    out = tmp_path / "img.ppm"
    code = run_cli("render", "--ssl-file", ssl_file, "--out", out)
    assert code == 0
    header = out.read_bytes()[:20].split(b"\n")
    assert header[0] == b"P6"
    assert header[1] == b"625 126"


def test_render_all_invalid_is_black(tmp_path):
    zero = tmp_path / "zero.sslraw"
    zero.write_bytes(b"\x00" * (RECORDS_PER_FRAME * 12))
    out = tmp_path / "img.ppm"
    assert run_cli("render", "--ssl-file", zero, "--out", out) == 0
    payload = out.read_bytes()
    body = payload.split(b"\n", 3)[3]
    assert set(body) == {0}


def test_render_mask_overlay_and_length_check(ssl_file, tmp_path):
    seg_out = tmp_path / "m"
    run_cli("segment", "--ssl-file", ssl_file, "--method", "depth",
            "--slices", "1", "--out", seg_out)
    out = tmp_path / "img.ppm"
    code = run_cli("render", "--ssl-file", ssl_file, "--mask",
                   seg_out / "cap.mask", "--out", out)
    assert code == 0
    body = out.read_bytes().split(b"\n", 3)[3]
    rgb = np.frombuffer(body, dtype=np.uint8).reshape(126, 625, 3)
    red = (rgb[:, :, 0] == 255) & (rgb[:, :, 1] == 40)
    assert red.any()

    bad = tmp_path / "bad.mask"
    bad.write_bytes(b"\x01" * 100)
    out2 = tmp_path / "img2.ppm"
    code = run_cli("render", "--ssl-file", ssl_file, "--mask", bad, "--out", out2)
    assert code == 2
    assert not out2.exists()


def test_decode_ssl_stats_and_dump(ssl_file, tmp_path, capsys):
    out = tmp_path / "dec"
    code = run_cli("decode-ssl", "--ssl-file", ssl_file, "--out", out)
    assert code == 0
    text = capsys.readouterr().out
    assert "5 subframes of 15750 points" in text
    assert text.count("subframe ") == 5
    dump = out / "cap.sslframe"
    want = 8 + 126 * 625 * 3 * 4 + 126 * 625
    assert dump.stat().st_size == want
    rows_cols = np.frombuffer(dump.read_bytes()[:8], dtype="<u4")
    assert rows_cols.tolist() == [126, 625]


def test_decode_ssl_truncated_error(tmp_path):
    bad = tmp_path / "short.sslraw"
    bad.write_bytes(b"\x00" * 120)
    code = run_cli("decode-ssl", "--ssl-file", bad, "--out", tmp_path / "o")
    assert code in (1, 2)


def test_bad_config_key_exit_2(small_dataset, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[smrf]\nnot_a_key = 3\n")
    code = run_cli("segment", "--root", small_dataset, "--method", "depth",
                   "--config", cfg, "--out", tmp_path / "o")
    assert code == 2


@pytest.mark.parametrize("backend", ["threads", "thread"])
def test_bad_backend_in_config_exit_2(backend, small_dataset, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[parallel]\nbackend = {backend}\n")
    code = run_cli("segment", "--root", small_dataset, "--method", "depth", "--slices",
                   "2", "--units", "2", "--config", cfg, "--out", tmp_path / "o")
    assert code == 2
    assert not (tmp_path / "o").exists()


def test_bad_parity_in_config_exit_2(ssl_file, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[ssl]\nparity = sideways\n")
    code = run_cli("segment", "--ssl-file", ssl_file, "--method", "depth",
                   "--config", cfg, "--out", tmp_path / "o")
    assert code == 2


BAD_NUMBERS = {
    "smrf_cell_size_zero": "[smrf]\ncell_size = 0\n",
    "smrf_cell_size_nan": "[smrf]\ncell_size = nan\n",
    "smrf_max_window_radius": "[smrf]\nmax_window_radius = 0\n",
    "smrf_slope": "[smrf]\nslope = -0.1\n",
    "smrf_slope_nan": "[smrf]\nslope = nan\n",
    "smrf_elevation_threshold": "[smrf]\nelevation_threshold = -0.5\n",
    "smrf_elevation_scale": "[smrf]\nelevation_scale = -1\n",
    "ransac_iterations": "[ransac]\niterations = 0\n",
    "ransac_dist_threshold_zero": "[ransac]\ndist_threshold = 0\n",
    "ransac_dist_threshold_nan": "[ransac]\ndist_threshold = nan\n",
    "projection_rows": "[projection]\nrows = 0\n",
    "projection_cols": "[projection]\ncols = -4\n",
    "depth_window_even": "[depth]\nsmoothing_window = 4\n",
    "depth_window_small": "[depth]\nsmoothing_window = 1\nsmoothing_order = 1\n",
    "depth_window_large": "[depth]\nsmoothing_window = 15\n",
    "depth_order_zero": "[depth]\nsmoothing_order = 0\n",
    "depth_order_window": "[depth]\nsmoothing_window = 5\nsmoothing_order = 5\n",
    "depth_seed_threshold": "[depth]\nseed_threshold_deg = 0\n",
    "depth_propagation_threshold": "[depth]\npropagation_threshold_deg = -2\n",
    "projection_vertical_span": "[projection]\nvertical_top_deg = -30\n",
    "ransac_tilt_negative": "[ransac]\nmax_normal_tilt_deg = -5\n",
    "ransac_tilt_over_90": "[ransac]\nmax_normal_tilt_deg = 120\n",
}


@pytest.mark.parametrize("text", [
    "[dataset]\nground_classes = bogus\n",
    "[parallel]\nbench_repeats = 0\n",
    "[parallel]\nbench_warmup = -1\n",
    *BAD_NUMBERS.values(),
], ids=["ground_classes", "bench_repeats", "bench_warmup", *BAD_NUMBERS])
def test_bad_config_value_exit_2(text, ssl_file, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code = run_cli("segment", "--ssl-file", ssl_file, "--method", "depth",
                   "--config", cfg, "--out", tmp_path / "o")
    assert code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ("eval", "--frames", "x"),
    ("eval", "--slices", "1,a"),
    ("eval", "--slices", "0"),
    ("bench", "--method", "depth", "--units-set", "x"),
], ids=["frames", "slices_list", "slices_zero", "units_set"])
def test_bad_numbers_exit_2(argv, small_dataset, tmp_path):
    code = run_cli(*argv, "--root", small_dataset, "--out", tmp_path / "o")
    assert code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ("segment", "--method", "depth", "--slices", "0"),
    ("bench", "--method", "depth", "--slices", "0", "--units-set", "1"),
    ("eval", "--method", "depth", "--slices", "0"),
], ids=["segment", "bench", "eval"])
def test_zero_slices_names_slices_exit_2(argv, small_dataset, tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(*argv, "--root", small_dataset, "--out", out) == 2
    err = capsys.readouterr().err
    assert "--slices counts must be >= 1" in err
    assert "unit" not in err
    assert not out.exists()


def test_parity_flag_validated(ssl_file, tmp_path):
    code = run_cli("decode-ssl", "--ssl-file", ssl_file, "--parity", "even",
                   "--out", tmp_path / "o")
    assert code == 0


def test_flat_plane_slices_byte_identical(tmp_path):
    """Depth masks for K=1 and K=5 match exactly on flat-ground frames."""
    from groundslice.synthetic import Scene, Terrain, write_sequence

    root = tmp_path / "flat"
    scene = Scene(terrain=Terrain(amp_x=0.0, amp_y=0.0, crown=0.0))
    write_sequence(root, "00", n_frames=1, seed=3, scene=scene, traffic=False,
                   rows=24, cols=180, max_range=30.0)
    outs = []
    for k in (1, 5):
        out = tmp_path / f"k{k}"
        assert run_cli("segment", "--root", root, "--method", "depth",
                       "--slices", str(k), "--out", out) == 0
        outs.append((out / "000000.mask").read_bytes())
    assert outs[0] == outs[1]
    assert sum(outs[0]) > 0


def test_extended_ground_preset_via_config(small_dataset, tmp_path):
    cfg = tmp_path / "ext.cfg"
    cfg.write_text("[dataset]\nground_classes = extended\n")
    out = tmp_path / "eval_ext"
    code = run_cli("eval", "--root", small_dataset, "--method", "depth",
                   "--slices", "1", "--config", cfg, "--out", out)
    assert code == 0
    assert (out / "eval_summary.csv").exists()


def test_render_kitti_frame(small_dataset, tmp_path):
    seg_out = tmp_path / "m"
    run_cli("segment", "--root", small_dataset, "--method", "depth",
            "--slices", "1", "--frames", "0..0", "--out", seg_out)
    out = tmp_path / "kitti.ppm"
    code = run_cli("render", "--root", small_dataset, "--frames", "0..0",
                   "--mask", seg_out / "000000.mask", "--out", out)
    assert code == 0
    header = out.read_bytes().split(b"\n")[1].split()
    assert [int(v) for v in header] == [1024, 64]


def test_segment_units_exceeding_slices_exit_2(small_dataset, tmp_path):
    code = run_cli("segment", "--root", small_dataset, "--method", "depth",
                   "--slices", "2", "--units", "3", "--out", tmp_path / "o")
    assert code == 2


def test_eval_with_units_matches_serial(small_dataset, tmp_path):
    a, b = tmp_path / "u1", tmp_path / "u2"
    run_cli("eval", "--root", small_dataset, "--method", "depth",
            "--slices", "2", "--out", a)
    run_cli("eval", "--root", small_dataset, "--method", "depth",
            "--slices", "2", "--units", "2", "--out", b)
    assert (a / "eval_frames.csv").read_bytes() == (b / "eval_frames.csv").read_bytes()


@pytest.fixture
def executor_units(monkeypatch):
    """The unit count of every executor the CLI builds, in order."""
    from groundslice import cli

    built, make = [], cli.SliceExecutor

    def spy(units, backend="process"):
        built.append(units)
        return make(units, backend)

    monkeypatch.setattr(cli, "SliceExecutor", spy)
    return built


def test_eval_executor_has_no_more_units_than_its_largest_slice_count(
        small_dataset, tmp_path, executor_units):
    a, b = tmp_path / "u3", tmp_path / "u1"
    run_cli("eval", "--root", small_dataset, "--method", "depth",
            "--slices", "1,2", "--units", "3", "--out", a)
    assert executor_units == [2]
    run_cli("eval", "--root", small_dataset, "--method", "depth",
            "--slices", "1,2", "--out", b)
    assert (a / "eval_frames.csv").read_bytes() == (b / "eval_frames.csv").read_bytes()


def test_bench_sweeps_every_frame_on_one_executor(small_dataset, tmp_path, executor_units):
    out = tmp_path / "bench"
    code = run_cli("bench", "--root", small_dataset, "--frames", "0..1", "--method", "depth",
                   "--slices", "2", "--units-set", "1,2",
                   "--config", "tests/data/bench_fast.cfg", "--out", out)
    assert code == 0
    assert executor_units == [2]
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "method,slices,units,frame,wall_ms,speedup"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:4] for row in rows] == [["depth", "2", p, f] for f in ("000000", "000001")
                                         for p in ("1", "2")]
    assert all(float(row[4]) > 0 and float(row[5]) > 0 for row in rows)


def test_segment_exits_1_when_a_unit_dies(ssl_file, tmp_path, monkeypatch, capsys,
                                          dying_task):
    from groundslice.parallel_exec import SliceExecutor

    run_units = SliceExecutor.run_units
    monkeypatch.setattr(SliceExecutor, "run_units",
                        lambda self, unit_tasks: run_units(self, [[dying_task], *unit_tasks[1:]]))
    code = run_cli("segment", "--ssl-file", ssl_file, "--method", "depth",
                   "--slices", "5", "--units", "2", "--out", tmp_path / "out")
    assert code == 1
    assert "processing unit died" in capsys.readouterr().err
