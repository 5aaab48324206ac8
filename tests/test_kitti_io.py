import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from groundslice.kitti_io import (GROUND_CLASSES_DEFAULT, GROUND_CLASSES_EXTENDED,
                                  PointCloud, list_sequence, load_frame,
                                  load_labels, load_velodyne_bin)


def write_scan(path, records):
    """Independent binary packing: struct, not numpy."""
    with open(path, "wb") as fh:
        for rec in records:
            fh.write(struct.pack("<4f", *rec))


def write_label(path, values):
    with open(path, "wb") as fh:
        for v in values:
            fh.write(struct.pack("<I", v))


def test_empty_scan(tmp_path):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    cloud, dropped = load_velodyne_bin(p)
    assert len(cloud) == 0
    assert dropped.size == 0


def test_two_point_scan_roundtrips_byte_values(tmp_path):
    p = tmp_path / "scan.bin"
    write_scan(p, [(1, 2, 3, 0.5), (-1, 0, 4, 0.0)])
    cloud, dropped = load_velodyne_bin(p)
    assert len(cloud) == 2
    assert dropped.size == 0
    np.testing.assert_array_equal(cloud.xyz, [[1, 2, 3], [-1, 0, 4]])


def test_malformed_scan_length(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"\x00" * 17)
    with pytest.raises(ValueError, match="multiple"):
        load_velodyne_bin(p)


def test_missing_scan(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_velodyne_bin(tmp_path / "nope.bin")


def test_nonfinite_points_dropped_with_indices(tmp_path):
    p = tmp_path / "scan.bin"
    write_scan(p, [(1, 1, 1, 0.1), (float("nan"), 0, 0, 0.2), (2, 2, 2, 0.3),
                   (0, float("inf"), 0, 0.4)])
    cloud, dropped = load_velodyne_bin(p)
    assert len(cloud) == 2
    np.testing.assert_array_equal(dropped, [1, 3])
    np.testing.assert_array_equal(cloud.xyz[:, 0], [1, 2])


def load_oracle(path):
    """The loader as a float64 (N, 4) copy and a boolean gather over all four fields."""
    records = np.fromfile(path, dtype="<f4").reshape(-1, 4).astype(np.float64)
    finite = np.all(np.isfinite(records), axis=1)
    return records[finite, :3], np.nonzero(~finite)[0]


@pytest.mark.parametrize("bad_rows", [(), (0,), (128,), (256,), (0, 128, 256)],
                         ids=["finite", "first", "middle", "last", "all_three"])
def test_loader_matches_oracle_with_nonfinite_rows(tmp_path, rng, bad_rows):
    records = rng.normal(size=(257, 4)).astype("<f4")
    # NaN in x of the first row, +inf in z of the middle one, -inf intensity last
    bad_field = {0: (0, np.nan), 128: (2, np.inf), 256: (3, -np.inf)}
    for row in bad_rows:
        col, bad = bad_field[row]
        records[row, col] = bad
    p = tmp_path / "scan.bin"
    records.tofile(p)
    cloud, dropped = load_velodyne_bin(p)
    xyz, want_dropped = load_oracle(p)
    np.testing.assert_array_equal(dropped, list(bad_rows))
    assert dropped.dtype == want_dropped.dtype == np.int64
    assert cloud.xyz.tobytes() == xyz.tobytes()
    assert cloud.xyz.shape == (257 - len(bad_rows), 3) and cloud.xyz.dtype == np.float64
    assert cloud.xyz.flags.c_contiguous and not cloud.xyz.flags.writeable


def test_labels_default_set(tmp_path):
    p = tmp_path / "f.label"
    write_label(p, [40, 10, 48])
    np.testing.assert_array_equal(load_labels(p), [True, False, True])


def test_labels_instance_bits_ignored(tmp_path):
    p = tmp_path / "f.label"
    write_label(p, [0x00010028])  # instance 1, class 40
    np.testing.assert_array_equal(load_labels(p), [True])


def test_labels_empty(tmp_path):
    p = tmp_path / "f.label"
    p.write_bytes(b"")
    assert load_labels(p).size == 0


def test_label_presets():
    assert GROUND_CLASSES_DEFAULT == {40, 44, 48, 49}
    assert GROUND_CLASSES_EXTENDED == GROUND_CLASSES_DEFAULT | {60, 72}


def _make_sequence(root, frames, with_labels=True):
    scan_dir = root / "sequences" / "00" / "velodyne"
    label_dir = root / "sequences" / "00" / "labels"
    scan_dir.mkdir(parents=True)
    label_dir.mkdir(parents=True)
    for f in frames:
        write_scan(scan_dir / f"{f:06d}.bin", [(1, 2, 3, 0.5)])
        if with_labels:
            write_label(label_dir / f"{f:06d}.label", [40])


def test_list_sequence_sorted(tmp_path):
    _make_sequence(tmp_path, [2, 0, 1])
    pairs = list_sequence(tmp_path, "00")
    assert [p[0].stem for p in pairs] == ["000000", "000001", "000002"]
    assert all(p[1].suffix == ".label" for p in pairs)


def test_list_sequence_frame_range(tmp_path):
    _make_sequence(tmp_path, [0, 1, 2])
    pairs = list_sequence(tmp_path, 0, frame_range=(1, 1))
    assert [p[0].stem for p in pairs] == ["000001"]


def test_list_sequence_missing_label(tmp_path):
    _make_sequence(tmp_path, [0, 1])
    (tmp_path / "sequences" / "00" / "labels" / "000001.label").unlink()
    with pytest.raises(FileNotFoundError, match="000001"):
        list_sequence(tmp_path, "00")


def test_list_sequence_missing_root(tmp_path):
    with pytest.raises(FileNotFoundError):
        list_sequence(tmp_path / "void", "00")


def test_load_frame_filters_truth_like_scan(tmp_path):
    scan = tmp_path / "s.bin"
    label = tmp_path / "s.label"
    write_scan(scan, [(1, 1, 1, 0.0), (float("nan"), 0, 0, 0.0), (2, 2, 2, 0.0)])
    write_label(label, [40, 40, 10])
    cloud, truth, dropped = load_frame(scan, label)
    assert len(cloud) == 2
    np.testing.assert_array_equal(truth, [True, False])
    np.testing.assert_array_equal(dropped, [1])


def test_load_frame_count_mismatch(tmp_path):
    scan = tmp_path / "s.bin"
    label = tmp_path / "s.label"
    write_scan(scan, [(1, 1, 1, 0.0)])
    write_label(label, [40, 40])
    with pytest.raises(ValueError, match="mismatch"):
        load_frame(scan, label)


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(xyz=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        PointCloud(xyz=np.zeros(3))


@settings(max_examples=200, deadline=None)
@given(records=arrays(np.float32, st.tuples(st.integers(0, 40), st.just(4)),
                      elements=st.floats(width=32)),
       tail=st.binary(max_size=15), cut=st.integers(0, 15))
def test_fuzzed_scan_gives_a_finite_cloud_or_names_the_file(tmp_path_factory, records,
                                                            tail, cut):
    # any float32 (NaN, +-inf, +-3.4e38, subnormals), then odd-sized files
    data = records.astype("<f4").tobytes() + tail
    data = data[:len(data) - cut]
    path = tmp_path_factory.getbasetemp() / "fuzzed.bin"
    path.write_bytes(data)
    try:
        cloud, dropped = load_velodyne_bin(path)
    except ValueError as exc:
        assert len(data) % 16 and str(path) in str(exc)
        return
    assert len(data) % 16 == 0
    want = np.frombuffer(data, dtype="<f4").reshape(-1, 4).astype(np.float64)
    finite = np.isfinite(want).all(axis=1)
    np.testing.assert_array_equal(dropped, np.flatnonzero(~finite))
    assert cloud.xyz.tobytes() == want[finite, :3].tobytes()
    assert np.isfinite(cloud.xyz).all()
