import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groundslice.parallel_exec import frame_from_ssl, run_sliced
from groundslice.ssl_frame import (FRAME_COLS, RECORDS_PER_FRAME,
                                   RECORDS_PER_SUBFRAME, SUBFRAME_COLS,
                                   SUBFRAME_COUNT, SUBFRAME_ROWS,
                                   SslRawFrame, decode_index_map,
                                   decode_ssl_frame, encode_ssl_frame, load_ssl_csv,
                                   load_sslraw, save_ssl_csv, save_sslraw,
                                   ssl_to_point_cloud, subframe)
from groundslice.synthetic import make_ssl_capture


def index_raw():
    """Records whose x coordinate is their own record index."""
    xyz = np.zeros((RECORDS_PER_FRAME, 3))
    xyz[:, 0] = np.arange(RECORDS_PER_FRAME)
    return SslRawFrame(xyz=xyz, valid=np.ones(RECORDS_PER_FRAME, dtype=bool))


def expected_record(s, r, c, parity):
    """Index arithmetic oracle, written out cell by cell."""
    rev = (r % 2 == 0) if parity == "even" else (r % 2 == 1)
    within = (SUBFRAME_COLS - 1 - c) if rev else c
    return s * RECORDS_PER_SUBFRAME + r * SUBFRAME_COLS + within


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_decode_matches_index_oracle(parity):
    frame = decode_ssl_frame(index_raw(), parity)
    for s in range(SUBFRAME_COUNT):
        for r in range(0, SUBFRAME_ROWS, 17):
            for c in range(0, SUBFRAME_COLS, 13):
                want = expected_record(s, r, c, parity)
                got = frame.xyz[r, s * SUBFRAME_COLS + c, 0]
                assert got == want, (s, r, c)
    # and exhaustively via the map itself
    oracle = np.empty((SUBFRAME_ROWS, FRAME_COLS), dtype=np.int64)
    for s in range(SUBFRAME_COUNT):
        for r in range(SUBFRAME_ROWS):
            for c in range(SUBFRAME_COLS):
                oracle[r, s * SUBFRAME_COLS + c] = expected_record(s, r, c, parity)
    np.testing.assert_array_equal(frame.index_map, oracle)


def test_index_map_is_bijection():
    frame = decode_ssl_frame(index_raw(), "even")
    np.testing.assert_array_equal(np.sort(frame.index_map.ravel()),
                                  np.arange(RECORDS_PER_FRAME))


def test_wrong_record_count():
    xyz = np.zeros((RECORDS_PER_FRAME - 1, 3))
    with pytest.raises(ValueError, match="78750"):
        SslRawFrame(xyz=xyz, valid=np.ones(RECORDS_PER_FRAME - 1, dtype=bool))


def test_decode_encode_roundtrip():
    raw = make_ssl_capture(seed=7, dropout=0.1)
    frame = decode_ssl_frame(raw, "even")
    back = encode_ssl_frame(frame)
    np.testing.assert_array_equal(back.xyz, raw.xyz)
    np.testing.assert_array_equal(back.valid, raw.valid)


def test_invalid_records_stay_invalid():
    raw = make_ssl_capture(seed=3, dropout=0.2)
    frame = decode_ssl_frame(raw, "even")
    assert int(frame.valid.sum()) == int(raw.valid.sum())
    np.testing.assert_array_equal(frame.valid.ravel(),
                                  raw.valid[frame.index_map.ravel()])


def test_subframe_intervals():
    frame = decode_ssl_frame(index_raw(), "even")
    xyz0, _ = subframe(frame, 0)
    xyz4, _ = subframe(frame, 4)
    assert xyz0.shape == (126, 125, 3)
    np.testing.assert_array_equal(xyz0, frame.xyz[:, 0:125])
    np.testing.assert_array_equal(xyz4, frame.xyz[:, 500:625])
    with pytest.raises(IndexError):
        subframe(frame, 5)
    with pytest.raises(IndexError):
        subframe(frame, -1)


def test_subframe_views_are_readonly():
    frame = decode_ssl_frame(index_raw(), "even")
    xyz, valid = subframe(frame, 2)
    with pytest.raises(ValueError):
        xyz[0, 0, 0] = 99.0
    with pytest.raises(ValueError):
        valid[0, 0] = False


def test_to_point_cloud_counts():
    raw = index_raw()
    frame = decode_ssl_frame(raw, "even")
    cloud, pix2pt = ssl_to_point_cloud(frame)
    assert len(cloud) == RECORDS_PER_FRAME  # fully valid frame
    assert pix2pt.min() == 0 and pix2pt.max() == RECORDS_PER_FRAME - 1

    valid = np.zeros(RECORDS_PER_FRAME, dtype=bool)
    valid[[5, 100, 4242]] = True
    frame3 = decode_ssl_frame(SslRawFrame(xyz=raw.xyz, valid=valid), "even")
    cloud3, pix2pt3 = ssl_to_point_cloud(frame3)
    assert len(cloud3) == 3
    assert int((pix2pt3 >= 0).sum()) == 3

    none = decode_ssl_frame(
        SslRawFrame(xyz=raw.xyz, valid=np.zeros(RECORDS_PER_FRAME, dtype=bool)),
        "even")
    cloud0, _ = ssl_to_point_cloud(none)
    assert len(cloud0) == 0


def test_point_cloud_row_major_order():
    raw = make_ssl_capture(seed=5)
    frame = decode_ssl_frame(raw, "even")
    cloud, pix2pt = ssl_to_point_cloud(frame)
    rr, cc = np.nonzero(frame.valid)
    np.testing.assert_array_equal(pix2pt[rr, cc], np.arange(len(cloud)))
    np.testing.assert_array_equal(cloud.xyz, frame.xyz[rr, cc])


def test_sslraw_file_roundtrip(tmp_path):
    raw = make_ssl_capture(seed=9, dropout=0.05)
    path = tmp_path / "c.sslraw"
    save_sslraw(raw, path)
    assert path.stat().st_size == RECORDS_PER_FRAME * 12
    loaded = load_sslraw(path)
    np.testing.assert_array_equal(loaded.valid, raw.valid)
    np.testing.assert_allclose(loaded.xyz[loaded.valid],
                               raw.xyz[raw.valid].astype(np.float32))


def test_sslraw_truncated(tmp_path):
    path = tmp_path / "t.sslraw"
    path.write_bytes(b"\x00" * (12 * 100))
    with pytest.raises(ValueError, match="expected 78750"):
        load_sslraw(path)


def test_csv_fixture_roundtrip(tmp_path):
    raw = make_ssl_capture(seed=2, dropout=0.02)
    path = tmp_path / "c.csv"
    save_ssl_csv(raw, path)
    loaded = load_ssl_csv(path)
    np.testing.assert_array_equal(loaded.valid, raw.valid)
    np.testing.assert_allclose(loaded.xyz, raw.xyz)


def test_column_partition_exact():
    cols = np.arange(FRAME_COLS)
    owners = cols // SUBFRAME_COLS
    assert owners.min() == 0 and owners.max() == SUBFRAME_COUNT - 1
    counts = np.bincount(owners)
    assert (counts == SUBFRAME_COLS).all()


def sslraw_valid_oracle(xyz):
    """Per record: not all three coordinates zero, and all three finite."""
    return np.array([any(v != 0.0 for v in rec) and all(math.isfinite(v) for v in rec)
                     for rec in xyz.tolist()])


def test_sslraw_validity_matches_all_zero_rule(tmp_path):
    # every record is one of: signed zeros, NaN, infinities or a single
    # nonzero component in any position; all-zero and non-finite records
    # are invalid
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.0e-30],
                        dtype=np.float32)
    rng = np.random.default_rng(17)
    records = specials[rng.integers(0, specials.size, size=(RECORDS_PER_FRAME, 3))]
    records[:300] = 0.0
    records[300:600] = -0.0
    for axis in range(3):
        block = records[600 + 100 * axis:700 + 100 * axis]
        block[:] = 0.0
        block[:, axis] = rng.choice(specials, size=100)
    path = tmp_path / "specials.sslraw"
    records.astype("<f4").tofile(path)
    loaded = load_sslraw(path)
    xyz = records.astype(np.float64)
    np.testing.assert_array_equal(loaded.valid, sslraw_valid_oracle(xyz))
    assert loaded.valid.any() and not loaded.valid.all()
    assert loaded.xyz.dtype == np.float32 and loaded.xyz.tobytes() == records.tobytes()


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_decode_widens_float32_records_after_the_gather(parity, tmp_path):
    # a .sslraw capture keeps its float32 records; decoding gives the float64
    # frame that the widened records give, bit for bit
    path = tmp_path / "c.sslraw"
    save_sslraw(make_ssl_capture(seed=8, dropout=0.05), path)
    raw = load_sslraw(path)
    wide = SslRawFrame(xyz=raw.xyz.astype(np.float64), valid=raw.valid)
    assert raw.xyz.dtype == np.float32 and wide.xyz.dtype == np.float64
    frame, want = decode_ssl_frame(raw, parity), decode_ssl_frame(wide, parity)
    assert frame.xyz.dtype == np.float64
    assert frame.xyz.tobytes() == want.xyz.tobytes()
    np.testing.assert_array_equal(frame.valid, want.valid)
    assert encode_ssl_frame(frame).xyz.dtype == np.float64


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_decode_gather_matches_fancy_indexing(parity):
    raw = make_ssl_capture(seed=31, dropout=0.1)
    frame = decode_ssl_frame(raw, parity)
    np.testing.assert_array_equal(frame.xyz, raw.xyz[frame.index_map])
    np.testing.assert_array_equal(frame.valid, raw.valid[frame.index_map])


def test_index_map_cached_and_read_only():
    even = decode_index_map("even")
    assert decode_index_map("even") is even
    assert decode_index_map("odd") is not even
    with pytest.raises(ValueError):
        even[0, 0] = 1
    with pytest.raises(ValueError, match="parity"):
        decode_index_map("both")


def test_point_cloud_matches_boolean_mask_gather():
    for dropout in (0.0, 0.1, 1.0):
        frame = decode_ssl_frame(make_ssl_capture(seed=12, dropout=dropout), "odd")
        cloud, pix2pt = ssl_to_point_cloud(frame)
        np.testing.assert_array_equal(cloud.xyz, frame.xyz[frame.valid])
        want = np.full(frame.valid.shape, -1, dtype=np.int64)
        want[frame.valid] = np.arange(int(frame.valid.sum()))
        np.testing.assert_array_equal(pix2pt, want)


# non-finite, extreme finite and zero coordinates
RECORD_SPECIALS = [np.nan, np.inf, -np.inf, 3.4028235e38, -3.4028235e38, 1e-45, 0.0, -0.0]


@settings(max_examples=40, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 3 * RECORDS_PER_FRAME - 1),
                                st.sampled_from(RECORD_SPECIALS)), max_size=20),
       all_invalid=st.booleans(), resize=st.integers(-13, 13))
def test_fuzzed_sslraw_gives_a_frame_or_names_the_file(tmp_path_factory, edits,
                                                       all_invalid, resize):
    records = np.zeros(3 * RECORDS_PER_FRAME, dtype="<f4")
    if not all_invalid:
        records[:] = make_ssl_capture(seed=4, dropout=0.03).xyz.ravel()
        for i, v in edits:
            records[i] = v
    data = records.tobytes()
    data = data[:len(data) + resize] if resize < 0 else data + b"\x7f" * resize
    path = tmp_path_factory.getbasetemp() / "fuzzed.sslraw"
    path.write_bytes(data)
    try:
        raw = load_sslraw(path)
    except ValueError as exc:
        assert resize and str(path) in str(exc) and "expected 78750" in str(exc)
        return
    assert resize == 0
    xyz = records.reshape(-1, 3).astype(np.float64)
    assert raw.xyz.dtype == np.float32 and raw.xyz.tobytes() == records.tobytes()
    np.testing.assert_array_equal(raw.valid, sslraw_valid_oracle(xyz))
    cloud, _ = ssl_to_point_cloud(decode_ssl_frame(raw))
    assert len(cloud) == int(raw.valid.sum())
    assert len(cloud) == 0 if all_invalid else len(cloud) > 0


@functools.lru_cache(maxsize=1)
def csv_lines():
    raw = make_ssl_capture(seed=5, dropout=0.03)
    return tuple(f"{x!r},{y!r},{z!r},{int(v)}" for (x, y, z), v in zip(raw.xyz, raw.valid))


def csv_oracle(text):
    """Rows of four Python floats, or None where the text is not a capture."""
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 4:
            return None
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            return None
    return np.array(rows) if len(rows) == RECORDS_PER_FRAME else None


CSV_TOKENS = ["nan", "inf", "-inf", "1e308", "-1.7976931348623157e308", "1e400", "0", "abc", ""]


@settings(max_examples=30, deadline=None)
# dropping a line and cutting "1,2,3,1,5" to "1,2,3,1" leaves a valid last record
@example(edits=[], all_invalid=True, drop=1, extra="1,2,3,1,5", cut=3)
@given(edits=st.lists(st.tuples(st.integers(0, RECORDS_PER_FRAME - 1), st.integers(0, 3),
                                st.sampled_from(CSV_TOKENS)), max_size=6),
       all_invalid=st.booleans(), drop=st.integers(0, 2),
       extra=st.sampled_from(["", "1,2,3", "1,2,3,1", "1,2,3,1,5", "\x00\xff"]),
       cut=st.integers(0, 4))
def test_fuzzed_csv_gives_a_frame_or_names_the_file(tmp_path_factory, edits, all_invalid,
                                                    drop, extra, cut):
    lines = ["0,0,0,0"] * RECORDS_PER_FRAME if all_invalid else list(csv_lines())
    for row, col, token in edits:
        fields = lines[row].split(",")
        fields[col] = token
        lines[row] = ",".join(fields)
    text = "\n".join(lines[:len(lines) - drop] + ([extra] if extra else [])) + "\n"
    text = text[:len(text) - cut]
    path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
    path.write_text(text, encoding="latin-1")
    want = csv_oracle(text)
    try:
        raw = load_ssl_csv(path)
    except ValueError as exc:
        assert want is None and str(path) in str(exc)
        return
    assert want is not None
    assert raw.xyz.tobytes() == want[:, :3].tobytes()
    # a valid record has a nonzero flag and four finite fields; edits and the
    # extra line can make one even in an all-invalid capture
    want_valid = (want[:, 3] != 0) & np.isfinite(want).all(axis=1)
    np.testing.assert_array_equal(raw.valid, want_valid)
    cloud, _ = ssl_to_point_cloud(decode_ssl_frame(raw))
    assert len(cloud) == int(want_valid.sum())


def test_empty_csv_names_the_file_without_a_warning(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"CSV fixture {path} must have 78750 rows")):
            load_ssl_csv(path)


def test_non_finite_records_load_invalid_and_segment_without_warnings(tmp_path, fast_cfg):
    raw = make_ssl_capture(seed=1, dropout=0.03)
    # float32 values, so that the .sslraw and the CSV form load the same numbers
    records = np.where(raw.valid[:, None], raw.xyz, 0.0).astype(np.float32).astype(np.float64)
    hit = np.flatnonzero(raw.valid)[[5, 7, 4000, 40000, 76000]]
    records[hit[0], 0] = np.nan
    records[hit[1]] = (np.inf, 0.0, 0.0)
    records[hit[2], 1] = -np.inf
    records[hit[3]] = np.nan
    records[hit[4], 2] = np.inf
    dropped = records.copy()
    dropped[hit] = 0.0
    path = tmp_path / "odd.sslraw"
    records.astype("<f4").tofile(path)
    csv_path = tmp_path / "odd.csv"
    save_ssl_csv(SslRawFrame(xyz=records, valid=raw.valid), csv_path)
    want = SslRawFrame(xyz=dropped, valid=raw.valid & ~np.isin(np.arange(RECORDS_PER_FRAME), hit))

    cfg = fast_cfg
    cfg.depth.sensor_height = cfg.ssl.sensor_height
    ref = frame_from_ssl(decode_ssl_frame(want))
    for loaded in (load_sslraw(path), load_ssl_csv(csv_path)):
        np.testing.assert_array_equal(loaded.valid, want.valid)
        assert np.isnan(loaded.xyz[hit[0], 0]) and loaded.xyz[hit[1], 0] == np.inf
        frame = frame_from_ssl(decode_ssl_frame(loaded))
        # a non-finite record segments exactly as a dropped one
        np.testing.assert_array_equal(frame.cloud.xyz, ref.cloud.xyz)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in ("depth", "smrf", "ransac"):
                mask, _ = run_sliced(frame, method, 5, 1, cfg)
                want_mask, _ = run_sliced(ref, method, 5, 1, cfg)
                np.testing.assert_array_equal(mask, want_mask)
