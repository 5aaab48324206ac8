"""Correctness checks, each made apart from the program's own code path.

Every check compares a mask against a computation of the benchmark's own
(connected components with scipy, the closed inlier set of a plane, floor
truth from the capture geometry) or against a property the method must have.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

GROUND_CLASSES = (40, 44, 48, 49)  # the `default` preset of the dataset config

# Per-frame IoU floors against ground truth; README.md gives their reasons.
IOU_FLOORS = {
    ("street", "depth"): 0.85,
    ("street", "smrf"): 0.50,
    ("street", "ransac"): 0.70,
    ("ssl", "depth"): 0.95,
}


def shape_error(mask, n_points: int) -> str | None:
    """The mask is boolean with one entry per point of the loaded cloud."""
    if not isinstance(mask, np.ndarray) or mask.dtype != np.bool_:
        return f"mask is {type(mask).__name__} of {getattr(mask, 'dtype', '?')}, not bool"
    if mask.shape != (n_points,):
        return f"mask shape {mask.shape} for a cloud of {n_points} points"
    return None


def iou(pred: np.ndarray, truth: np.ndarray) -> float:
    union = np.count_nonzero(pred | truth)
    return np.count_nonzero(pred & truth) / union if union else 1.0


def street_truth(label_path) -> np.ndarray:
    """Ground truth from the generator's label file (semantic class = low 16 bits)."""
    classes = np.fromfile(label_path, dtype="<u4") & 0xFFFF
    return np.isin(classes, GROUND_CLASSES)


def ssl_floor_truth(xyz: np.ndarray, sensor_height: float) -> np.ndarray:
    """Valid points on the floor plane z = -sensor_height, within float32 rounding."""
    return np.abs(xyz[:, 2] + sensor_height) <= sensor_height * 2.0 ** -22


def seeded_components(angle: np.ndarray, valid: np.ndarray, seed_threshold: float,
                      propagation_threshold: float) -> np.ndarray:
    """Pixels in a connected component that holds a seed.

    Nodes are valid pixels with angle below seed + propagation threshold;
    edges join 4-neighbours whose angle step is below the propagation
    threshold; seeds are each column's bottom-most valid pixel when its angle
    is below the seed threshold.
    """
    rows, cols = angle.shape
    node = valid & (angle < seed_threshold + propagation_threshold)
    ids = np.arange(rows * cols).reshape(rows, cols)
    down = node[:-1] & node[1:] & (np.abs(angle[1:] - angle[:-1]) < propagation_threshold)
    right = (node[:, :-1] & node[:, 1:]
             & (np.abs(angle[:, 1:] - angle[:, :-1]) < propagation_threshold))
    src = np.concatenate([ids[:-1][down], ids[:, :-1][right]])
    dst = np.concatenate([ids[1:][down], ids[:, 1:][right]])
    graph = coo_matrix((np.ones(src.size, dtype=np.int8), (src, dst)),
                       shape=(rows * cols, rows * cols))
    _, labels = connected_components(graph, directed=False)

    seed_cols = np.nonzero(valid.any(axis=0))[0]
    seed_rows = rows - 1 - np.argmax(valid[::-1, seed_cols], axis=0)
    is_seed = angle[seed_rows, seed_cols] < seed_threshold
    seed_labels = labels[ids[seed_rows[is_seed], seed_cols[is_seed]]]
    return np.isin(labels, seed_labels).reshape(rows, cols) & node


def expected_depth_mask(image, depth_cfg) -> np.ndarray:
    """Per-point depth mask from components over the program's smoothed angle image."""
    from groundslice.seg_depth import compute_angle_image, savitzky_golay_smooth

    smoothed = savitzky_golay_smooth(
        compute_angle_image(image, sensor_height=depth_cfg.sensor_height),
        depth_cfg.smoothing_window, depth_cfg.smoothing_order)
    reached = seeded_components(smoothed.angle, smoothed.valid,
                                depth_cfg.seed_threshold, depth_cfg.propagation_threshold)
    out = np.zeros(image.n_points, dtype=bool)
    out[image.point_index[reached]] = True
    return out


class PlaneCapture:
    """Records every plane `seg_ransac.count_inliers` is called with, in order."""

    def __init__(self):
        self.planes: list[tuple[np.ndarray, float, int]] = []

    def __enter__(self):
        from groundslice import seg_ransac

        self._module = seg_ransac
        self._orig = orig = seg_ransac.count_inliers

        def count_inliers(cloud, plane, dist_threshold):
            count, mask = orig(cloud, plane, dist_threshold)
            self.planes.append((plane.normal.copy(), plane.d, count))
            return count, mask

        seg_ransac.count_inliers = count_inliers
        return self

    def __exit__(self, *exc):
        self._module.count_inliers = self._orig


def ransac_error(mask: np.ndarray, xyz: np.ndarray,
                 planes: list[tuple[np.ndarray, float, int]], ransac_cfg) -> str | None:
    """The mask is the closed inlier set of the winning plane, whose tilt is in bounds.

    The winner is the first plane with the highest count; with no plane of
    positive count the mask must be empty.
    """
    counts = [count for _, _, count in planes]
    if not counts or max(counts) == 0:
        return None if not mask.any() else "mask is not empty though no plane won"
    normal, d, _ = planes[int(np.argmax(counts))]
    tilt = math.acos(min(1.0, max(-1.0, float(normal[2]))))
    if tilt > ransac_cfg.max_normal_tilt + 1e-12:
        return f"winning plane tilts {math.degrees(tilt):.3f} deg"
    expected = np.abs(xyz @ normal + d) <= ransac_cfg.dist_threshold
    if not np.array_equal(mask, expected):
        return (f"{np.count_nonzero(mask != expected)} points differ from the "
                "winning plane's inlier set")
    return None


def frame_errors(wl, path, cfg, n_points: int, masks, planes, ious: list[float]) -> list[str]:
    """Every check of one reference frame; appends one IoU per method to `ious`."""
    from workloads import load_frame

    frame = load_frame(wl, path, cfg)
    if wl.inputs == "street":
        truth = street_truth(path.parent.parent / "labels" / f"{path.stem}.label")
    else:
        truth = ssl_floor_truth(frame.cloud.xyz, cfg.depth.sensor_height)
    errors = []
    if n_points != len(frame.cloud) or truth.shape != (n_points,):
        errors.append(f"{n_points} points, {len(frame.cloud)} in the file, {truth.size} labels")
    for method, mask in zip(wl.methods, masks):
        error = shape_error(mask, len(frame.cloud))
        if error is None and wl.inputs == "street" and method == "depth":
            if not np.array_equal(mask, expected_depth_mask(frame.range_image(cfg), cfg.depth)):
                error = "mask is not the seeded components of the smoothed angle image"
        if error is None and method == "ransac":
            error = ransac_error(mask, frame.cloud.xyz, planes, cfg.ransac)
        if error is None and truth.shape == mask.shape:
            score = iou(mask, truth)
            ious.append(score)
            if score < IOU_FLOORS[(wl.inputs, method)]:
                error = f"IoU {score:.4f} below the floor {IOU_FLOORS[(wl.inputs, method)]}"
        if error is not None:
            errors.append(f"{method}: {error}")
    if len(masks) != len(wl.methods):
        errors.append(f"{len(masks)} masks for {len(wl.methods)} methods")
    return errors
