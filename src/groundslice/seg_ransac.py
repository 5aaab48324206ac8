"""Point-based ground segmentation by plane consensus.

The segmenter takes an (N, 3) float64 xyz array. Seeded, counter-based
sampling keeps runs reproducible: the same points, parameters and seed
always produce the same mask, which the parallel executor relies on when
it derives per-slice seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_DEGENERATE_EPS = 1e-12


@dataclass(frozen=True)
class PlaneModel:
    """Plane {p : normal . p + d = 0} with unit normal and normal.z >= 0."""

    normal: np.ndarray  # (3,) float64, unit length
    d: float

    def distances(self, xyz: np.ndarray) -> np.ndarray:
        dist = xyz @ self.normal
        dist += self.d
        return np.abs(dist, out=dist)


def fit_plane_3pts(p1, p2, p3) -> PlaneModel:
    """Plane through three points, canonically oriented.

    Raises on collinear or coincident triples (cross-product norm below
    1e-12). The cross product is written out on scalars, in the products
    and order `np.cross` uses, so it is the same to the bit.
    """
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    p3 = np.asarray(p3, dtype=np.float64)
    ax, ay, az = (p2 - p1).tolist()
    bx, by, bz = (p3 - p1).tolist()
    normal = np.array([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])
    norm = np.linalg.norm(normal)
    if norm <= _DEGENERATE_EPS:
        raise ValueError("degenerate triple: points are collinear or coincident")
    normal = normal / norm
    if normal[2] < 0:
        normal = -normal
    return PlaneModel(normal=normal, d=float(-normal @ p1))


def count_inliers(xyz: np.ndarray, plane: PlaneModel,
                  dist_threshold: float) -> tuple[int, np.ndarray]:
    """Points within dist_threshold of the plane (closed inequality)."""
    if dist_threshold <= 0:
        raise ValueError("dist_threshold must be positive")
    mask = plane.distances(xyz) <= dist_threshold
    return int(np.count_nonzero(mask)), mask


def ransac_ground(xyz: np.ndarray, iterations: int, dist_threshold: float,
                  max_normal_tilt: float, rng_seed: int) -> np.ndarray:
    """Consensus ground mask from seeded three-point plane sampling.

    Each round samples 3 distinct points, fits a plane, rejects it when the
    normal tilts more than max_normal_tilt from vertical, and otherwise
    counts inliers. The most-supported model wins (ties keep the earlier
    one); with no accepted model the mask is all false.
    """
    n = len(xyz)
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    cos_limit = math.cos(max_normal_tilt)

    best_count = 0
    best_mask = np.zeros(n, dtype=bool)
    for _ in range(iterations):
        i, j, k = rng.choice(n, size=3, replace=False)
        try:
            plane = fit_plane_3pts(xyz[i], xyz[j], xyz[k])
        except ValueError:
            continue
        if plane.normal[2] < cos_limit:
            continue
        count, mask = count_inliers(xyz, plane, dist_threshold)
        if count > best_count:
            best_count = count
            best_mask = mask
    return best_mask

