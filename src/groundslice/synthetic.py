"""Synthetic LiDAR scenes with exact ground truth.

Ray-cast urban street scenes stand in for full-size recorded sequences at
desk scale: a gently undulating ground surface plus boxes for buildings,
vehicles and poles, scanned by an HDL-64-like beam pattern. Frames are
written in the exact on-disk formats the loaders consume (velodyne .bin +
.label, .sslraw captures), so experiments exercise the same ingestion paths
as real data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ssl_frame as sslmod
from .kitti_io import PointCloud

# semantic classes used by the generator (ground set: 40/44/48)
CLASS_ROAD = 40
CLASS_PARKING = 44
CLASS_SIDEWALK = 48
CLASS_CAR = 10
CLASS_BUILDING = 50
CLASS_POLE = 80


@dataclass(frozen=True)
class Box:
    """Axis-aligned cuboid obstacle."""

    cx: float
    cy: float
    sx: float
    sy: float
    z0: float  # absolute base height
    z1: float  # absolute top height
    label: int = CLASS_BUILDING


@dataclass
class Terrain:
    """Smooth lateral height variation: two sine waves plus a road crown."""

    base: float = 0.0
    amp_x: float = 0.6
    wavelength_x: float = 80.0
    phase_x: float = 0.0
    amp_y: float = 0.4
    wavelength_y: float = 60.0
    phase_y: float = 0.0
    crown: float = 0.012  # height drop per meter of |y|, saturating at 8 m

    def height(self, x, y):
        hx = self.amp_x * np.sin(2 * np.pi * (np.asarray(x) + self.phase_x) / self.wavelength_x)
        hy = self.amp_y * np.sin(2 * np.pi * (np.asarray(y) + self.phase_y) / self.wavelength_y)
        return self.base + hx + hy - self.crown * np.minimum(np.abs(y), 8.0)


@dataclass
class Scene:
    terrain: Terrain
    boxes: list[Box] = field(default_factory=list)

    def ground_class(self, x, y):
        """Ground semantic class by lateral band: road, parking, sidewalk."""
        ay = np.abs(y)
        out = np.full(np.shape(ay), CLASS_SIDEWALK, dtype=np.uint32)
        out[ay < 5.5] = CLASS_PARKING
        out[ay < 3.2] = CLASS_ROAD
        return out


def _vehicle(rng, cx, cy, along_x=True, label=CLASS_CAR) -> Box:
    """A parked or driving vehicle; taller bodies have higher clearance."""
    length = rng.uniform(4.0, 5.4)
    width = rng.uniform(1.7, 2.1)
    clearance = rng.uniform(0.25, 0.5)
    top = rng.uniform(1.4, 2.2)
    sx, sy = (length, width) if along_x else (width, length)
    return Box(cx=cx, cy=cy, sx=sx, sy=sy, z0=clearance, z1=top, label=label)


def make_street_scene(seed: int, lead_gap: float = 6.5, trail_gap: float = 6.0,
                      traffic: bool = True) -> Scene:
    """Urban street corridor along +x with buildings, parked rows and traffic.

    With traffic enabled, queues of vehicles sit in the ego lane ahead and
    behind, the regime where bird's-eye-view methods are most stressed.
    Heights are expressed relative to the local terrain at placement time.
    """
    rng = np.random.default_rng(seed)
    terrain = Terrain(
        base=0.0,
        amp_x=rng.uniform(0.4, 0.7),
        wavelength_x=rng.uniform(70.0, 95.0),
        phase_x=rng.uniform(0.0, 80.0),
        amp_y=rng.uniform(0.25, 0.45),
        wavelength_y=rng.uniform(55.0, 75.0),
        phase_y=rng.uniform(0.0, 60.0),
    )
    scene = Scene(terrain=terrain)

    def ground(x, y):
        return float(terrain.height(x, y))

    def add(box: Box):
        scene.boxes.append(box)

    # building facades, both sides, broken into segments with gaps
    for side in (-1, 1):
        x = -30.0
        while x < 130.0:
            seg = rng.uniform(8.0, 22.0)
            if rng.uniform() < 0.8:
                depth = rng.uniform(3.0, 8.0)
                cy = side * rng.uniform(9.5, 13.0)
                g = ground(x + seg / 2, cy)
                add(Box(cx=x + seg / 2, cy=cy, sx=seg, sy=depth,
                        z0=g - 0.2, z1=g + rng.uniform(4.0, 9.0),
                        label=CLASS_BUILDING))
            x += seg + rng.uniform(2.0, 7.0)

    # parked vehicle rows
    for side in (-1, 1):
        x = -25.0
        while x < 125.0:
            if rng.uniform() < 0.62:
                cy = side * rng.uniform(3.9, 4.7)
                g = ground(x, cy)
                v = _vehicle(rng, x, cy)
                add(Box(v.cx, v.cy, v.sx, v.sy, g + v.z0, g + v.z1, v.label))
            x += rng.uniform(6.5, 12.0)

    # poles / trunks near the sidewalk line
    for side in (-1, 1):
        x = -25.0 + rng.uniform(0.0, 8.0)
        while x < 125.0:
            cy = side * rng.uniform(6.2, 7.4)
            g = ground(x, cy)
            add(Box(cx=x, cy=cy, sx=0.35, sy=0.35, z0=g - 0.1,
                    z1=g + rng.uniform(3.0, 6.0), label=CLASS_POLE))
            x += rng.uniform(9.0, 18.0)

    # ego-lane queues: positions are relative to x=0 and move with nothing,
    # the sensor trajectory is chosen to stay between them
    if traffic:
        for direction, first_gap in ((1, lead_gap), (-1, trail_gap)):
            gap = first_gap
            for _ in range(3):
                cx = direction * gap
                cy = rng.uniform(-0.35, 0.35)
                g = ground(cx, cy)
                v = _vehicle(rng, cx, cy)
                add(Box(v.cx, v.cy, v.sx, v.sy, g + v.z0, g + v.z1, v.label))
                gap += rng.uniform(7.0, 11.0)

    return scene


def _intersect_terrain(origin, dirs, terrain: Terrain, max_range: float,
                       coarse_steps: int = 64, refine: int = 14):
    """First ray/terrain crossing by coarse march + bisection.

    Returns (t, hit) with t = inf where the ray never dips below the surface
    within max_range.
    """
    n = dirs.shape[0]
    t_hit = np.full(n, np.inf)
    lo = np.zeros(n)
    hi = np.zeros(n)
    found = np.zeros(n, dtype=bool)

    ts = np.linspace(0.5, max_range, coarse_steps)
    prev_above = np.ones(n, dtype=bool)
    prev_t = 0.0
    for t in ts:
        p = origin[None, :] + dirs * t
        above = p[:, 2] > terrain.height(p[:, 0], p[:, 1])
        crossing = prev_above & ~above & ~found
        lo[crossing] = prev_t
        hi[crossing] = t
        found |= crossing
        prev_above = above
        prev_t = t
    if found.any():
        fl, fh = lo[found], hi[found]
        d = dirs[found]
        for _ in range(refine):
            mid = 0.5 * (fl + fh)
            p = origin[None, :] + d * mid[:, None]
            above = p[:, 2] > terrain.height(p[:, 0], p[:, 1])
            fl = np.where(above, mid, fl)
            fh = np.where(above, fh, mid)
        t_hit[found] = 0.5 * (fl + fh)
    return t_hit, found


def _intersect_boxes(origin, dirs, boxes, max_range: float):
    """Nearest box hit per ray (slab method). Returns (t, label, hit)."""
    n = dirs.shape[0]
    best_t = np.full(n, np.inf)
    best_label = np.zeros(n, dtype=np.uint32)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
    for box in boxes:
        lo = np.array([box.cx - box.sx / 2, box.cy - box.sy / 2, box.z0])
        hi = np.array([box.cx + box.sx / 2, box.cy + box.sy / 2, box.z1])
        t1 = (lo[None, :] - origin[None, :]) * inv
        t2 = (hi[None, :] - origin[None, :]) * inv
        t_near = np.nanmax(np.minimum(t1, t2), axis=1)
        t_far = np.nanmin(np.maximum(t1, t2), axis=1)
        ok = (t_near <= t_far) & (t_far > 0) & (t_near > 0.1) & (t_near < max_range)
        closer = ok & (t_near < best_t)
        best_t[closer] = t_near[closer]
        best_label[closer] = box.label
    return best_t, best_label, np.isfinite(best_t)


def simulate_scan(scene: Scene, sensor_xy: tuple[float, float], seed: int,
                  rows: int = 64, cols: int = 1024,
                  vertical_span_deg: tuple[float, float] = (2.0, -24.8),
                  sensor_height: float = 1.73, max_range: float = 48.0,
                  range_noise: float = 0.015, dropout: float = 0.02):
    """Scan the scene from one pose; returns (xyz, intensity, classes).

    Points are in the sensor frame (x forward, y left, z up); classes are
    semantic ids suitable for label files. Beams are one per range-image
    cell center so projections of the result are dense.
    """
    rng = np.random.default_rng(seed)
    sx, sy = sensor_xy
    sz = float(scene.terrain.height(sx, sy)) + sensor_height
    origin = np.array([sx, sy, sz])

    v_top, v_bottom = (math.radians(d) for d in vertical_span_deg)
    elev = v_top - (np.arange(rows) + 0.5) * (v_top - v_bottom) / rows
    azim = -math.pi + (np.arange(cols) + 0.5) * (2 * math.pi) / cols
    ee, aa = np.meshgrid(elev, azim, indexing="ij")
    dirs = np.stack([
        np.cos(ee) * np.cos(aa),
        np.cos(ee) * np.sin(aa),
        np.sin(ee),
    ], axis=-1).reshape(-1, 3)

    t_ground, hit_ground = _intersect_terrain(origin, dirs, scene.terrain, max_range)
    t_box, box_label, hit_box = _intersect_boxes(origin, dirs, scene.boxes, max_range)

    t = np.where(t_box < t_ground, t_box, t_ground)
    hit = (hit_ground | hit_box) & (t <= max_range)
    is_ground = hit & (t_ground <= t_box)

    t = t + rng.normal(0.0, range_noise, size=t.shape)
    keep = hit & (rng.uniform(size=t.shape) >= dropout) & (t > 0.5)

    pts_world = origin[None, :] + dirs[keep] * t[keep, None]
    classes = np.where(is_ground[keep],
                       scene.ground_class(pts_world[:, 0], pts_world[:, 1]),
                       box_label[keep]).astype(np.uint32)
    xyz = pts_world - origin[None, :]
    intensity = rng.uniform(0.0, 1.0, size=xyz.shape[0])
    return xyz, intensity, classes


def write_sequence(root, sequence: str, n_frames: int, seed: int,
                   step: float = 0.8, start_x: float = 0.0,
                   scene: Scene | None = None, traffic: bool = True,
                   **scan_kwargs) -> Path:
    """Write a synthetic sequence in SemanticKITTI layout under root.

    The sensor advances along +x by `step` per frame through a fixed scene.
    With traffic enabled, the ego-lane queue is re-anchored to the current
    pose each frame so a followed vehicle keeps its distance.
    """
    root = Path(root)
    seq_dir = root / "sequences" / sequence
    scan_dir = seq_dir / "velodyne"
    label_dir = seq_dir / "labels"
    scan_dir.mkdir(parents=True, exist_ok=True)
    label_dir.mkdir(parents=True, exist_ok=True)

    base_scene = scene if scene is not None else make_street_scene(seed, traffic=False)
    rng = np.random.default_rng(seed + 1)

    for i in range(n_frames):
        sx = start_x + i * step
        frame_scene = Scene(terrain=base_scene.terrain, boxes=list(base_scene.boxes))
        if traffic:
            queue_rng = np.random.default_rng(seed + 7)
            for direction in (1, -1):
                gap = queue_rng.uniform(5.5, 7.5)
                for _ in range(3):
                    cx = sx + direction * gap
                    cy = queue_rng.uniform(-0.35, 0.35)
                    g = float(frame_scene.terrain.height(cx, cy))
                    v = _vehicle(queue_rng, cx, cy)
                    frame_scene.boxes.append(
                        Box(v.cx, v.cy, v.sx, v.sy, g + v.z0, g + v.z1, v.label))
        xyz, intensity, classes = simulate_scan(
            frame_scene, (sx, 0.0), seed=int(rng.integers(1 << 31)), **scan_kwargs)
        records = np.empty((xyz.shape[0], 4), dtype="<f4")
        records[:, :3] = xyz
        records[:, 3] = intensity
        records.tofile(scan_dir / f"{i:06d}.bin")
        classes.astype("<u4").tofile(label_dir / f"{i:06d}.label")
    return seq_dir


def make_ssl_capture(seed: int, dropout: float = 0.03,
                     sensor_height: float = 1.0) -> sslmod.SslRawFrame:
    """Synthesize one raw solid-state capture of a floor-and-wall scene.

    Five subframes point at slightly different azimuth offsets with a small
    edge overlap; the organized grid is re-serialized into the sensor's
    serpentine record order with random dropouts marked invalid.
    """
    rng = np.random.default_rng(seed)
    rows = sslmod.SUBFRAME_ROWS
    xyz = np.zeros((rows, sslmod.FRAME_COLS, 3))
    valid = np.zeros((rows, sslmod.FRAME_COLS), dtype=bool)

    elev = np.radians(np.linspace(12.0, -13.0, rows))
    sub_width_deg = 25.0
    sub_centers = np.radians(np.linspace(-48.0, 48.0, sslmod.SUBFRAME_COUNT))
    wall_x = rng.uniform(10.0, 16.0)
    boxes = [
        Box(cx=rng.uniform(4.0, 8.0), cy=rng.uniform(-3.0, 3.0),
            sx=1.2, sy=1.2, z0=-sensor_height, z1=-sensor_height + 1.1,
            label=CLASS_BUILDING)
        for _ in range(2)
    ]

    for s in range(sslmod.SUBFRAME_COUNT):
        az = sub_centers[s] + np.radians(
            np.linspace(-sub_width_deg / 2, sub_width_deg / 2, sslmod.SUBFRAME_COLS))
        ee, aa = np.meshgrid(elev, az, indexing="ij")
        dirs = np.stack([np.cos(ee) * np.cos(aa),
                         np.cos(ee) * np.sin(aa),
                         np.sin(ee)], axis=-1).reshape(-1, 3)
        origin = np.zeros(3)
        # floor plane z = -sensor_height
        with np.errstate(divide="ignore"):
            t_floor = np.where(dirs[:, 2] < -1e-9, -sensor_height / dirs[:, 2], np.inf)
        # wall plane x = wall_x
        with np.errstate(divide="ignore"):
            t_wall = np.where(dirs[:, 0] > 1e-9, wall_x / dirs[:, 0], np.inf)
        t_box, _, _ = _intersect_boxes(origin, dirs, boxes, 60.0)
        t = np.minimum(np.minimum(t_floor, t_wall), t_box)
        ok = np.isfinite(t) & (t < 60.0)
        pts = dirs * np.where(ok, t, 0.0)[:, None]
        lo = s * sslmod.SUBFRAME_COLS
        xyz[:, lo:lo + sslmod.SUBFRAME_COLS] = pts.reshape(rows, sslmod.SUBFRAME_COLS, 3)
        valid[:, lo:lo + sslmod.SUBFRAME_COLS] = ok.reshape(rows, sslmod.SUBFRAME_COLS)

    valid &= rng.uniform(size=valid.shape) >= dropout
    frame = sslmod.SslFrame(xyz=xyz, valid=valid,
                            index_map=sslmod.decode_index_map("even"))
    return sslmod.encode_ssl_frame(frame)


def make_random_cloud(seed: int, n: int = 3000) -> PointCloud:
    """Small random scene: a tilted ground disc plus scattered clutter."""
    rng = np.random.default_rng(seed)
    n_ground = int(n * 0.6)
    r = np.sqrt(rng.uniform(1.0, 400.0, n_ground))
    az = rng.uniform(-np.pi, np.pi, n_ground)
    gx, gy = r * np.cos(az), r * np.sin(az)
    gz = -1.6 + 0.01 * gx + rng.normal(0, 0.03, n_ground)
    n_clutter = n - n_ground
    cx = rng.uniform(-20, 20, n_clutter)
    cy = rng.uniform(-20, 20, n_clutter)
    cz = rng.uniform(-1.2, 3.0, n_clutter)
    xyz = np.concatenate([
        np.stack([gx, gy, gz], axis=1),
        np.stack([cx, cy, cz], axis=1),
    ])
    return PointCloud(xyz=xyz[rng.permutation(n)])
