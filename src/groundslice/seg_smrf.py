"""Grid-based ground segmentation with a progressive morphological filter.

The stages take an (N, 3) float64 xyz array. The points are rasterized
into a minimum-elevation grid, openings with a linearly growing disk window
peel off protrusions whose height exceeds a slope-scaled threshold, and
points are classified against the resulting bare-earth surface.

Both grid stages are exact, linear in memory and need nothing beyond numpy.
Empty cells are inpainted from the squared Euclidean distance transform and
the lattice ring at the nearest distance (lowest z wins a tie), with no k-d
tree. The transform is a row pass of running maxima and minima followed by
the lower envelope of parabolas down every column at once, found by rounds
of exact integer hull elimination. The ring offsets come from a table
indexed by the squared distance D, cached at module level on first use and
grown by doubling up to RING_TABLE_CAP; a grid whose rings pass the cap or
whose fill radius passes its shorter side builds its own rings, so memory
stays linear in the grid cells. The progressive opening ranks the grid's
values once and runs every disk min/max on the small integer ranks in a
sentinel-padded flat buffer, walking the disk's column strips; the ranks
map back to the same elevations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SmrfConfig

# a slice's grid may cover at most the area of a square this many metres on
# a side, whatever the cell size: a KITTI frame spans about 240 x 240 m
MAX_GRID_SIDE_M = 500.0


@dataclass(frozen=True)
class SmrfGrid:
    """Minimum-elevation raster over the points' xy bounding box.

    elevation holds the per-cell minimum z with empty cells filled from their
    nearest occupied neighbor; inpainted marks those filled cells so
    diagnostics can exclude them.
    """

    cell_size: float
    origin: tuple[float, float]  # (min_x, min_y)
    elevation: np.ndarray  # (ny, nx) float64
    occupied: np.ndarray  # (ny, nx) bool

    @property
    def shape(self):
        return self.elevation.shape

    @property
    def inpainted(self) -> np.ndarray:
        """(ny, nx) bool, the cells no point fell in; computed on each access."""
        return ~self.occupied


def _cell_indices(grid: SmrfGrid, xy: np.ndarray):
    """Cell index per point plus an in-bounds mask (right edges inclusive)."""
    ny, nx = grid.shape
    fx = (xy[:, 0] - grid.origin[0]) / grid.cell_size
    fy = (xy[:, 1] - grid.origin[1]) / grid.cell_size
    inside = (fx >= 0) & (fy >= 0) & (fx <= nx) & (fy <= ny)
    ix = np.minimum(np.floor(fx).astype(np.int64), nx - 1)
    iy = np.minimum(np.floor(fy).astype(np.int64), ny - 1)
    return ix, iy, inside


def rasterize_min_surface(xyz: np.ndarray, cell_size: float) -> SmrfGrid:
    """Bucket points into cells keeping the minimum z, then inpaint gaps.

    Empty cells take the elevation of the nearest occupied cell by Euclidean
    cell-center distance; exact ties resolve to the smaller elevation (see
    _inpaint_nearest). Raises ValueError on an empty cloud, on a NaN/inf
    coordinate, which has no cell or no rank in the opening, and on a grid
    covering more than a MAX_GRID_SIDE_M square, before any grid array exists.
    """
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    if len(xyz) == 0:
        raise ValueError("cannot rasterize an empty cloud")
    if not np.isfinite(xyz).all():
        raise ValueError("cannot rasterize non-finite points")
    min_x, min_y = xyz[:, 0].min(), xyz[:, 1].min()
    max_x, max_y = xyz[:, 0].max(), xyz[:, 1].max()
    nx = max(1, int(np.ceil((max_x - min_x) / cell_size)))
    ny = max(1, int(np.ceil((max_y - min_y) / cell_size)))
    if nx * ny * cell_size ** 2 > MAX_GRID_SIDE_M ** 2:
        raise ValueError(f"an xy extent of {max_x - min_x:.6g} x {max_y - min_y:.6g} m needs "
                         f"{nx} x {ny} = {nx * ny} cells of {cell_size} m, over the area "
                         f"of a {MAX_GRID_SIDE_M:g} m square")

    grid = SmrfGrid(
        cell_size=cell_size,
        origin=(float(min_x), float(min_y)),
        elevation=np.full((ny, nx), np.inf),
        occupied=np.zeros((ny, nx), dtype=bool),
    )
    # one flat cell index per point; every point lies in the box, so the
    # truncating cast is the floor
    ix = np.minimum(((xyz[:, 0] - min_x) / cell_size).astype(np.int64), nx - 1)
    iy = np.minimum(((xyz[:, 1] - min_y) / cell_size).astype(np.int64), ny - 1)
    cell = iy * nx + ix
    np.minimum.at(grid.elevation.ravel(), cell, xyz[:, 2])
    grid.occupied.ravel()[cell] = True
    _inpaint_nearest(grid.elevation, grid.occupied)
    return grid


# Rings dy^2 + dx^2 = D below this bound come from a cached table (~2 MB at
# the bound); a grid whose fill reaches further builds its rings per frame.
RING_TABLE_CAP = 1 << 16
_ring_table = None  # (start, dy, dx) of every D < start.size - 1, read-only


def _cached_rings(max_d2: int):
    """The cached ring-offset table, grown by doubling to hold ring max_d2.

    Built on first use, never at import. Ring D holds the offsets
    dy[start[D]:start[D + 1]], dx[start[D]:start[D + 1]], in _ring_offsets'
    order for an unbounded grid.
    """
    global _ring_table
    n = 0 if _ring_table is None else _ring_table[0].size - 1
    if n <= max_d2:
        n = max(n, 1 << 10)
        while n <= max_d2:
            n *= 2
        side = math.isqrt(n - 1) + 1
        _ring_table = tuple(a.astype(np.int32)
                            for a in _ring_offsets(np.arange(n), side, side))
        for a in _ring_table:
            a.flags.writeable = False
    return _ring_table


def _squared_edt(occupied: np.ndarray) -> np.ndarray:
    """Squared Euclidean lattice distance from each cell to the nearest occupied one.

    occupied has at least one cell set; returns D of the same shape (a
    transposed view). A grid taller than wide is transformed through its
    transpose; the text below takes ny <= nx. A row pass gives h, the distance
    along its row from each cell of a row holding an occupied cell to the
    nearest one, so D at (y, x) is the lower envelope over those rows q of
    the parabolas (y - q)^2 + h(q, x)^2 down column x (Felzenszwalb and
    Huttenlocher 2012, Meijster et al. 2000). Column lines run along the
    shorter side and are reduced all at once, in rounds: a parabola is on the
    envelope only if its point (q, F = h^2 + q^2) is a vertex of its line's
    lower convex hull, so each round drops every point on or above the chord
    through its live neighbours at distance 1, or at distance 2, until none
    is. The test cross-multiplies slopes, and every product is at most
    B = ((nx - 1)^2 + (ny - 1)^2) * max(ny - 1, 1), so the transform runs in
    int32 while B < 2^31 (every grid up to 1,024 cells a side) and in int64
    otherwise, where B < 2^63 holds for every grid of at most 2^31 cells: the
    test is exact either way. A line's first and last rows stay, so the rows
    bound each line. The hull vertex q then owns the y from
    ceil((F_q - F_p) / (2 (q - p))), its crossing with the vertex p before
    it, to the next vertex's crossing, and D is read off with np.repeat.
    """
    ny, nx = occupied.shape
    if ny > nx:
        return _squared_edt(occupied.T).T
    bound = ((nx - 1) ** 2 + (ny - 1) ** 2) * max(ny - 1, 1)
    dtype = np.int32 if bound < 1 << 31 else np.int64
    rows = np.flatnonzero(occupied.any(axis=1))
    qlo, qhi = int(rows[0]), int(rows[-1])
    # row pass, laid out one column line after another: (nx, rows.size)
    occ = occupied[rows].T
    rows = rows.astype(dtype)
    col = np.arange(nx, dtype=dtype)[:, None]
    near = np.where(occ, col, dtype(-nx))  # nearest occupied column at or left of x
    np.maximum.accumulate(near, axis=0, out=near)
    f = col - near
    near = np.where(occ, col, dtype(2 * nx))  # at or right of x
    np.minimum.accumulate(near[::-1], axis=0, out=near[::-1])
    np.minimum(f, near - col, out=f)
    del occ, near
    f *= f
    f += rows * rows
    f = f.ravel()
    q = np.tile(rows, nx)

    while True:
        inner = (q != qlo) & (q != qhi)
        # point i on or above the chord of i - 1 and i + 1: slope in >= slope out
        df, dq = np.diff(f), np.diff(q)
        drop = df[:-1] * dq[1:] >= df[1:] * dq[:-1]
        drop &= inner[1:-1]
        # the same against i - 2 and i + 2, all five on one line
        df, dq = f[2:] - f[:-2], q[2:] - q[:-2]
        far = df[:-2] * dq[2:] >= df[2:] * dq[:-2]
        far &= inner[1:-3]
        far &= inner[2:-2]
        far &= inner[3:-1]
        drop[1:-1] |= far
        if not drop.any():
            break
        keep = np.ones(q.size, dtype=bool)
        np.logical_not(drop, out=keep[1:-1])
        f, q = f[keep], q[keep]

    # each vertex's first y, its crossing with the vertex before it; a line's
    # first vertex starts at 0, which overwrites the value taken across two
    # lines (whose divisor max(dq, 1) keeps nonzero)
    start = np.zeros(q.size, dtype=dtype)
    np.negative(np.diff(f) // (-2 * np.maximum(np.diff(q), 1)), out=start[1:])
    np.clip(start, 0, ny, out=start)
    start[q == qlo] = 0
    count = np.empty_like(start)
    np.subtract(start[1:], start[:-1], out=count[:-1])
    last = q == qhi
    count[last] = ny - start[last]
    d = np.tile(np.arange(ny, dtype=dtype), nx)
    d -= np.repeat(q, count)
    d *= d
    d += np.repeat(f - q * q, count)
    return d.reshape(nx, ny).T


def _inpaint_nearest(elevation: np.ndarray, occupied: np.ndarray) -> None:
    """Fill unoccupied cells from the nearest occupied one, ties to lower z.

    The exact transform _squared_edt gives each empty cell the squared
    lattice distance D of its nearest occupied cell. The fill is the minimum
    z over the occupied cells on that cell's ring: the lattice offsets with
    dy^2 + dx^2 = D. Rings up to RING_TABLE_CAP come from one cached table
    indexed by D, so a frame only gathers each cell's ring start and size;
    the z copy is padded with inf isqrt(max D) wide on every side, which cuts
    offsets that leave the grid. That padding is linear in the grid cells
    only while the fill radius stays within the shorter side. A grid past
    either bound (a thin strip, or one far outlier's 5 km fill) builds the
    rings it holds per frame, clipped to the grid, with _ring_offsets, so
    memory stays linear in the grid cells however far the fill reaches. The
    rings are read one offset rank at a time over all cells. A grid taller
    than wide is filled through its transpose, so every ring is read in one
    order (dy-major) whatever the grid's orientation.
    """
    if occupied.all():
        return
    ny, nx = occupied.shape
    if ny > nx:
        _inpaint_nearest(elevation.T, occupied.T)
        return
    flat = np.flatnonzero(~occupied)
    ey, ex = np.divmod(flat, nx)
    d2 = _squared_edt(occupied)[ey, ex]
    max_d2 = int(d2.max())
    pad = math.isqrt(max_d2)
    if max_d2 < RING_TABLE_CAP and pad <= ny:
        start, dy, dx = _cached_rings(max_d2)
        first = start[d2]
        size = start[d2 + 1] - first
        py = px = pad
        end = int(start[max_d2 + 1])
        dy, dx = dy[:end], dx[:end]
    else:
        rings, ring_of = np.unique(d2, return_inverse=True)
        start, dy, dx = _ring_offsets(rings, ny, nx)
        first = start[ring_of]
        size = np.diff(start)[ring_of]
        py, px = int(dy.max()), int(dx.max())

    # z read by flat index from a copy padded with inf as wide as the
    # longest offset, so an offset off the grid needs no bounds check
    source = np.full((ny + 2 * py, nx + 2 * px), np.inf)
    source[py:py + ny, px:px + nx] = np.where(occupied, elevation, np.inf)
    source = source.ravel()
    step = nx + 2 * px
    offset = dy.astype(np.int64) * step + dx

    # cells by descending ring size: those with a j-th offset are a prefix;
    # a stable sort on a 16-bit key is a radix sort
    counts = np.bincount(size)
    key = np.int16 if counts.size <= 1 << 15 else np.int64
    order = np.argsort(-size.astype(key), kind="stable")
    ey, ex, first = ey[order], ex[order], first[order]
    cell = (ey + py) * step + ex + px
    beyond = ey.size - np.cumsum(counts)  # cells with size > j
    # every index is in range by construction, so mode="clip" only skips
    # the buffered bounds check of np.take with out=
    fill = np.full(ey.size, np.inf)
    at = np.empty(ey.size, dtype=np.int64)
    z = np.empty(ey.size)
    for j, m in enumerate(beyond[:-1].tolist()):
        np.take(offset[j:], first[:m], out=at[:m], mode="clip")  # offset[first + j]
        np.add(at[:m], cell[:m], out=at[:m])
        np.take(source, at[:m], out=z[:m], mode="clip")
        np.minimum(fill[:m], z[:m], out=fill[:m])
    elevation[ey, ex] = fill


def _ring_offsets(rings: np.ndarray, ny: int, nx: int):
    """Lattice offsets on each ring dy^2 + dx^2 = rings[k] inside an ny x nx grid.

    rings is sorted ascending and ny <= nx. Returns (start, dy, dx): the
    offsets of ring k are dy[start[k]:start[k+1]], dx[start[k]:start[k+1]],
    by sign choice, then by |dy| ascending. |dy| along the shorter side is
    enumerated and |dx| is solved for, so the work is ny x (number of rings).
    """
    ring_parts, a_parts, b_parts = [], [], []
    for a in range(min(ny, math.isqrt(int(rings[-1])) + 1)):
        lo = int(np.searchsorted(rings, a * a))
        rem = rings[lo:] - a * a
        b = np.rint(np.sqrt(rem)).astype(np.int64)
        hit = np.flatnonzero((b * b == rem) & (b < nx))
        ring_parts.append(hit + lo)
        a_parts.append(np.full(hit.size, a, dtype=np.int64))
        b_parts.append(b[hit])
    ring = np.concatenate(ring_parts)
    a = np.concatenate(a_parts)
    b = np.concatenate(b_parts)
    # the four sign choices, a zero component taken once
    sa = np.array([1, -1, 1, -1])[:, None]
    sb = np.array([1, 1, -1, -1])[:, None]
    keep = ((sa > 0) | (a > 0)) & ((sb > 0) | (b > 0))
    ring = np.broadcast_to(ring, keep.shape)[keep]
    order = np.argsort(ring, kind="stable")
    a = (sa * a)[keep][order]
    b = (sb * b)[keep][order]
    start = np.zeros(rings.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(ring, minlength=rings.size), out=start[1:])
    return start, a, b


# Ranks of at most this many distinct values fit in int16 beside both sentinels.
_INT16_RANKS = 32_766


def _ranks(surface: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of surface and each cell's rank among them.

    Ranks are int16 when the values fit beside the dtype's min and max, which
    the disk filters use as sentinels, and int32 otherwise. values[ranks]
    gives the surface back (a signed zero may come back as the other zero).
    """
    values, ranks = np.unique(surface.ravel(), return_inverse=True)
    if values.size and np.isnan(values[-1]):
        raise ValueError("surface holds NaN, which has no rank")
    dtype = np.int16 if values.size <= _INT16_RANKS else np.int32
    return values, ranks.astype(dtype).reshape(surface.shape)


def _disk_filter(ranks: np.ndarray, radius: int, op) -> np.ndarray:
    """op (np.minimum or np.maximum) over the disk around each cell of a rank grid.

    The ranks sit in one flat C-contiguous buffer whose rows are led by
    `radius` sentinel columns, with `radius` sentinel rows above and below;
    the sentinel is op's identity (the dtype max for a minimum, min for a
    maximum), so a neighborhood clipped at the border needs no bounds check
    and every row or column shift is one contiguous 1-D ufunc call. Column
    offsets are walked from |dx| = radius down to 0; the disk's column strip
    at |dx| has half-height h = floor(sqrt(radius^2 - dx^2)), which only
    grows on the way. The strip is a forward vertical window over rows
    0..span, widened by doubling: op of the window and itself s rows down
    (s <= span + 1) spans span + s. Shifted back by h rows and by +-dx
    columns, it is folded into the output. Exactly the direct neighborhood
    reduction; integer ranks make each call cheaper than on float64.
    """
    ny, nx = ranks.shape
    stride = nx + radius
    info = np.iinfo(ranks.dtype)
    strip = np.full((ny + 2 * radius) * stride + radius,
                    info.max if op is np.minimum else info.min, dtype=ranks.dtype)
    lo, n = radius * stride, ny * stride  # the grid's rows, sentinel columns first
    strip[lo:lo + n].reshape(ny, stride)[:, radius:] = ranks
    out = strip[lo:lo + n].copy()  # the center is in every disk
    spare = np.empty_like(strip)
    span = 0
    for dx in range(radius, -1, -1):
        h = math.isqrt(radius * radius - dx * dx)
        while span < 2 * h:
            s = min(2 * h - span, span + 1)
            m = strip.size - (span + s) * stride
            op(strip[:m], strip[s * stride:s * stride + m], out=spare[:m])
            strip, spare = spare, strip
            span += s
        c = lo - h * stride  # the window's top row h rows up: centered on the cell
        op(out, strip[c + dx:c + dx + n], out=out)
        if dx:
            op(out, strip[c - dx:c - dx + n], out=out)
    return out.reshape(ny, stride)[:, radius:]


def _open_ranks(ranks: np.ndarray, radius: int) -> np.ndarray:
    return _disk_filter(_disk_filter(ranks, radius, np.minimum), radius, np.maximum)


def morphological_open(surface: np.ndarray, radius: int) -> np.ndarray:
    """Opening (erosion then dilation) with a disk of the given cell radius.

    Raises ValueError on a NaN cell; +-inf cells are ordinary values.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    values, ranks = _ranks(surface)
    return values[_open_ranks(ranks, radius)]


def progressive_open(grid: SmrfGrid, max_window_radius: int,
                     slope: float) -> tuple[np.ndarray, np.ndarray]:
    """Flag non-ground cells with openings of linearly growing radius.

    At each radius w the surface is opened; cells whose elevation dropped by
    more than slope * w * cell_size are flagged non-ground and keep the
    opened elevation. Returns (non-ground cell mask, bare-earth surface).

    The grid is ranked once: min and max commute with the order-preserving
    map from values to ranks, and a flagged cell takes a value the surface
    already held, so every opening runs on the ranks and a flagged cell
    takes the opened rank with the opened value. The per-radius grids are
    written into buffers allocated once.
    """
    if max_window_radius < 1:
        raise ValueError("max_window_radius must be >= 1")
    if slope < 0:
        raise ValueError("slope must be non-negative")
    values, ranks = _ranks(grid.elevation)
    surface = grid.elevation.copy()
    nonground = np.zeros(grid.shape, dtype=bool)
    opened = np.empty_like(surface)
    drop = np.empty_like(surface)
    flag = np.empty(grid.shape, dtype=bool)
    for w in range(1, max_window_radius + 1):
        opened_rank = _open_ranks(ranks, w)
        np.take(values, opened_rank, out=opened)
        with np.errstate(invalid="ignore"):  # inf - inf where a cell stays inf
            np.subtract(surface, opened, out=drop)
            np.greater(drop, slope * w * grid.cell_size, out=flag)
        nonground |= flag
        np.copyto(surface, opened, where=flag)
        np.copyto(ranks, opened_rank, where=flag)
    return nonground, surface


def local_slope(surface: np.ndarray, cell_size: float) -> np.ndarray:
    """Max forward-difference gradient magnitude per cell, edges clamped to 0."""
    sx = np.zeros_like(surface)
    sy = np.zeros_like(surface)
    sx[:, :-1] = np.abs(surface[:, 1:] - surface[:, :-1]) / cell_size
    sy[:-1, :] = np.abs(surface[1:, :] - surface[:-1, :]) / cell_size
    return np.maximum(sx, sy)


def classify_points(xyz: np.ndarray, grid: SmrfGrid, bare_earth: np.ndarray,
                    elevation_threshold: float, elevation_scale: float) -> np.ndarray:
    """Ground mask: residual against bare earth within a slope-scaled budget.

    A point is ground iff |z - surface(cell)| stays within
    elevation_threshold + elevation_scale * local_slope(cell) * cell_size.
    Points outside the grid bounds are non-ground.
    """
    if elevation_threshold < 0 or elevation_scale < 0:
        raise ValueError("thresholds must be non-negative")
    slope = local_slope(bare_earth, grid.cell_size)
    ix, iy, inside = _cell_indices(grid, xyz[:, :2])
    ix = np.clip(ix, 0, grid.shape[1] - 1)
    iy = np.clip(iy, 0, grid.shape[0] - 1)
    budget = elevation_threshold + elevation_scale * slope[iy, ix] * grid.cell_size
    residual = np.abs(xyz[:, 2] - bare_earth[iy, ix])
    return inside & (residual <= budget)


def smrf_segment(xyz: np.ndarray, cfg: SmrfConfig) -> np.ndarray:
    """Full pipeline: rasterize, progressive opening, classify."""
    if len(xyz) == 0:
        return np.zeros(0, dtype=bool)
    grid = rasterize_min_surface(xyz, cfg.cell_size)
    _, bare_earth = progressive_open(grid, cfg.max_window_radius, cfg.slope)
    return classify_points(xyz, grid, bare_earth,
                           cfg.elevation_threshold, cfg.elevation_scale)
