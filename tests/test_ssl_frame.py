import numpy as np
import pytest

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


def test_sslraw_validity_matches_all_zero_rule(tmp_path):
    # every record is one of: signed zeros, NaN, infinities or a single
    # nonzero component in any position
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
    np.testing.assert_array_equal(loaded.valid, ~np.all(xyz == 0, axis=1))
    assert loaded.valid.any() and not loaded.valid.all()


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
