import math

import pytest

from groundslice.config import (MAX_SMOOTHING_WINDOW, default_config, dump_config,
                                load_config, save_config)


def test_defaults_cover_documented_values():
    cfg = default_config()
    assert cfg.projection.rows == 64
    assert cfg.projection.cols == 1024
    assert cfg.projection.vertical_top_deg == 2.0
    assert cfg.projection.vertical_bottom_deg == -24.8
    assert cfg.depth.seed_threshold == pytest.approx(math.radians(5.0))
    assert cfg.depth.propagation_threshold == pytest.approx(math.radians(5.0))
    assert (cfg.depth.smoothing_window, cfg.depth.smoothing_order) == (5, 2)
    assert cfg.depth.sensor_height == 1.73
    assert cfg.ransac.iterations == 200
    assert cfg.ransac.dist_threshold == 0.2
    assert cfg.ransac.max_normal_tilt == pytest.approx(math.radians(15.0))
    assert cfg.smrf.cell_size == 0.5
    assert cfg.smrf.max_window_radius == 18
    assert cfg.smrf.slope == 0.15
    assert cfg.smrf.elevation_threshold == 0.5
    assert cfg.smrf.elevation_scale == 1.25
    assert cfg.ssl.parity == "even"


def test_roundtrip(tmp_path):
    cfg = default_config()
    cfg.smrf.cell_size = 0.75
    cfg.depth.seed_threshold_deg = 7.5
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_shipped_default_file_matches_defaults():
    from pathlib import Path
    shipped = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"
    assert load_config(shipped) == default_config()


def test_partial_file_overlays_defaults(tmp_path):
    path = tmp_path / "p.cfg"
    path.write_text("[smrf]\ncell_size = 1.0\n")
    cfg = load_config(path)
    assert cfg.smrf.cell_size == 1.0
    assert cfg.smrf.slope == 0.15  # untouched default


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[smrf]\ncelsize = 1.0\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[smurf]\ncell_size = 1.0\n")
    with pytest.raises(ValueError, match="unknown config section"):
        load_config(path)


def test_dump_contains_every_section():
    text = dump_config(default_config())
    for section in ("projection", "depth", "ransac", "smrf", "dataset",
                    "ssl", "parallel"):
        assert f"[{section}]" in text


def test_numeric_bounds_are_inclusive_where_zero_is_meaningful(tmp_path):
    path = tmp_path / "edge.cfg"
    path.write_text("[smrf]\nmax_window_radius = 1\nslope = 0\nelevation_threshold = 0\n"
                    "elevation_scale = 0\n[ransac]\niterations = 1\n"
                    "[projection]\nrows = 1\ncols = 1\n"
                    "[depth]\nsmoothing_window = 3\nsmoothing_order = 2\n")
    cfg = load_config(path)
    assert (cfg.smrf.slope, cfg.depth.smoothing_order) == (0.0, 2)


def test_numeric_error_names_key_and_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[smrf]\ncell_size = -0.5\n")
    with pytest.raises(ValueError, match=r"smrf\.cell_size must be > 0, got -0\.5"):
        load_config(path)


def test_smoothing_window_capped(tmp_path):
    path = tmp_path / "window.cfg"
    path.write_text(f"[depth]\nsmoothing_window = {MAX_SMOOTHING_WINDOW}\n")
    assert load_config(path).depth.smoothing_window == MAX_SMOOTHING_WINDOW
    path.write_text(f"[depth]\nsmoothing_window = {MAX_SMOOTHING_WINDOW + 2}\n")
    with pytest.raises(ValueError, match=rf"smoothing_window must be an odd integer in "
                                         rf"3\.\.{MAX_SMOOTHING_WINDOW}, got "
                                         rf"{MAX_SMOOTHING_WINDOW + 2}"):
        load_config(path)


@pytest.mark.parametrize("text, message", [
    ("[depth]\nseed_threshold_deg = 0\n", r"depth\.seed_threshold_deg must be > 0, got 0\.0"),
    ("[depth]\npropagation_threshold_deg = -1\n",
     r"depth\.propagation_threshold_deg must be > 0, got -1\.0"),
    ("[depth]\nseed_threshold_deg = nan\n", r"depth\.seed_threshold_deg must be > 0, got nan"),
    ("[projection]\nvertical_top_deg = -30\n",
     r"projection\.vertical_top_deg must be above vertical_bottom_deg, got -30\.0 and -24\.8"),
    ("[projection]\nvertical_top_deg = 5\nvertical_bottom_deg = 5\n",
     r"projection\.vertical_top_deg must be above vertical_bottom_deg, got 5\.0 and 5\.0"),
    ("[ransac]\nmax_normal_tilt_deg = -5\n",
     r"ransac\.max_normal_tilt_deg must be in 0\.\.90, got -5\.0"),
    ("[ransac]\nmax_normal_tilt_deg = 90.5\n",
     r"ransac\.max_normal_tilt_deg must be in 0\.\.90, got 90\.5"),
    ("[ransac]\nmax_normal_tilt_deg = nan\n",
     r"ransac\.max_normal_tilt_deg must be in 0\.\.90, got nan"),
], ids=["seed_zero", "propagation_negative", "seed_nan", "span_inverted", "span_empty",
        "tilt_negative", "tilt_over_90", "tilt_nan"])
def test_geometry_rejected_at_load(text, message, tmp_path):
    # each of these failed mid-run, or (a negative tilt) acted as its magnitude
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_config(path)


def test_tilt_bounds_are_inclusive(tmp_path):
    path = tmp_path / "tilt.cfg"
    for tilt in (0, 90):
        path.write_text(f"[ransac]\nmax_normal_tilt_deg = {tilt}\n")
        assert load_config(path).ransac.max_normal_tilt_deg == tilt
