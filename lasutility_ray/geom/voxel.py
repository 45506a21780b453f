"""Per-tile voxel grid: ground DEM (per-cell max z) + per-cell bins of
non-ground points sorted by z descending.

The reference's ``VoxelGrid`` object (``LasUtility/VoxelGrid/
VoxelGrid.cs``, ``Bin.cs``) becomes a *grouped table*: here, inside
one tile, a CSR layout ``(bin_starts, bin_z, bin_cls)`` keyed by flat
cell index plus a dense ``dem`` float32 array. Semantics preserved:

- ground points: per-cell running max into ``dem``
  (``VoxelGrid.cs:98-107``); non-ground: appended to the cell's bin
  (``:109-113``);
- bins sorted highest-to-lowest before queries (``Bin.cs:35-39``;
  note C# ``List.Sort`` is unstable — fixtures keep z ties out);
- "highest point in class range" = first (= max z) bin point whose
  class is within ``[lo, hi]`` (``VoxelGrid.cs:305-317``);
- neighborhood-max query: center's best must be strictly higher than
  every neighbor's best within Chebyshev radius (``:267-303``);
- DEM gap fill from a TIN probes each NaN cell's bottom-left corner
  and reports before/after missing counts (``:121-160``);
- ASCII exports preserve the reference's row orders exactly:
  ``SaveAsAsc*`` write grid rows bottom-up (``VoxelGrid.cs:168,206``),
  ``WriteDemAsAscii`` writes top-down (``:332``).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .ascii_grid import fmt_double, fmt_float32, fmt_float32_as_double, write_header
from .bounds import EPSILON, RasterBounds


@dataclass
class VoxelTile:
    bounds: RasterBounds
    dem: np.ndarray  # float32 (rows, cols), NaN = missing
    bin_starts: np.ndarray  # int64 (rows*cols + 1,)
    bin_z: np.ndarray  # float32, z desc within each cell
    bin_cls: np.ndarray  # uint8

    @property
    def n_cells(self) -> int:
        return self.bounds.n_rows * self.bounds.n_cols

    def cell_points(self, row: int, col: int):
        c = row * self.bounds.n_cols + col
        s, e = self.bin_starts[c], self.bin_starts[c + 1]
        return self.bin_z[s:e], self.bin_cls[s:e]


def build_voxel_tile(
    bounds: RasterBounds, x, y, z, classification, is_ground
) -> VoxelTile:
    """Vectorized AddPoint loop (VoxelGrid.cs:92-119) + SortAndTrim
    (:235-247). Out-of-bounds points are dropped (AddPoint returns
    false rather than throwing)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float32)
    classification = np.asarray(classification, dtype=np.uint8)
    is_ground = np.asarray(is_ground, dtype=bool)

    rows, cols, valid = bounds.proj_to_cell(x, y)
    n_cols = bounds.n_cols
    cells = rows * n_cols + cols

    dem = np.full((bounds.n_rows, bounds.n_cols), np.nan, dtype=np.float32)
    g = valid & is_ground
    if g.any():
        # np.maximum propagates NaN, so seed touched cells with -inf first
        flat = np.full(bounds.n_rows * bounds.n_cols, np.nan, dtype=np.float32)
        gcells = cells[g]
        flat[gcells] = -np.inf
        np.maximum.at(flat, gcells, z[g])
        dem = flat.reshape(bounds.n_rows, bounds.n_cols)

    ng = valid & ~is_ground
    n_cells = bounds.n_rows * bounds.n_cols
    if ng.any():
        c_ng = cells[ng]
        z_ng = z[ng]
        cls_ng = classification[ng]
        # sort by (cell asc, z desc); stable so equal z keep input order
        order = np.lexsort((-z_ng.astype(np.float64), c_ng))
        c_sorted = c_ng[order]
        bin_z = z_ng[order]
        bin_cls = cls_ng[order]
        counts = np.bincount(c_sorted, minlength=n_cells)
    else:
        bin_z = np.empty(0, dtype=np.float32)
        bin_cls = np.empty(0, dtype=np.uint8)
        counts = np.zeros(n_cells, dtype=np.int64)

    starts = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return VoxelTile(bounds, dem, starts, bin_z, bin_cls)


# -- queries ---------------------------------------------------------


def highest_in_class_range(tile: VoxelTile, lo: int, hi: int):
    """Per-cell best z whose class is in [lo, hi]; NaN where none.

    Equals GetHighestPointInClassRange (VoxelGrid.cs:305-317) applied
    to every cell (first match in the desc-sorted bin == max in
    range). Returns (z_raster float32, class_raster uint8)."""
    mask = (tile.bin_cls >= lo) & (tile.bin_cls <= hi)
    n_cells = tile.n_cells
    z_out = np.full(n_cells, np.nan, dtype=np.float32)
    c_out = np.zeros(n_cells, dtype=np.uint8)
    if mask.any():
        idx = np.flatnonzero(mask)
        # cell id per masked point
        cell_of = np.searchsorted(tile.bin_starts, idx, side="right") - 1
        # first masked point per cell (bins sorted desc -> best)
        first = np.flatnonzero(np.diff(cell_of, prepend=-1) != 0)
        z_out[cell_of[first]] = tile.bin_z[idx[first]]
        c_out[cell_of[first]] = tile.bin_cls[idx[first]]
    shape = (tile.bounds.n_rows, tile.bounds.n_cols)
    return z_out.reshape(shape), c_out.reshape(shape)


def heights_by_class_range(tile: VoxelTile, row: int, col: int, lo: int, hi: int):
    """GetHeightsByClassRange (VoxelGrid.cs:254-265)."""
    z, c = tile.cell_points(row, col)
    m = (c >= lo) & (c <= hi)
    return z[m]


def is_highest_bin_in_neighborhood(
    tile: VoxelTile, row: int, col: int, radius: int, lo: int, hi: int
) -> bool:
    """IsHighestBinInNeighborhood (VoxelGrid.cs:267-303): center best
    strictly higher than every neighbor best within Chebyshev radius
    (neighbors with equal z disqualify)."""
    best, _ = highest_in_class_range(tile, lo, hi)
    center = best[row, col]
    if np.isnan(center):
        return False
    r0 = max(row - radius, 0)
    c0 = max(col - radius, 0)
    r1 = min(row + radius, tile.bounds.n_rows - 1)
    c1 = min(col + radius, tile.bounds.n_cols - 1)
    win = best[r0 : r1 + 1, c0 : c1 + 1].copy()
    win[row - r0, col - c0] = np.nan
    return not np.any(win[~np.isnan(win)] >= center)


def neighborhood_peaks(tile: VoxelTile, radius: int, lo: int, hi: int) -> np.ndarray:
    """Vectorized all-cells variant of IsHighestBinInNeighborhood:
    bool raster of cells whose best-in-class-range point is strictly
    higher than all neighbors' within Chebyshev ``radius``. The
    sliding max filter is built from shifted ``fmax`` passes (no
    scipy in this container)."""
    best, _ = highest_in_class_range(tile, lo, hi)
    n_rows, n_cols = best.shape
    neigh = np.full_like(best, -np.inf)
    padded = np.pad(best, radius, constant_values=np.nan)
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            if dr == 0 and dc == 0:
                continue
            shifted = padded[
                radius + dr : radius + dr + n_rows, radius + dc : radius + dc + n_cols
            ]
            neigh = np.fmax(neigh, np.where(np.isnan(shifted), -np.inf, shifted))
    return ~np.isnan(best) & (best > neigh)


# -- DEM gap fill (VoxelGrid.cs:121-160) -----------------------------


def fill_missing_from_tin(tile: VoxelTile, tri, i_min_x, i_min_y, i_max_x, i_max_y):
    """SetMissingHeightsFromTriangulation. ``tri`` is a
    SurfaceTriangulation with ``get_value``. Returns
    (n_missing_before, n_missing_after); fills tile.dem in place."""
    b = tile.bounds
    rc_min = b.proj_to_cell_scalar(i_min_x, i_min_y)
    rc_max = b.proj_to_cell_scalar(i_max_x - EPSILON, i_max_y - EPSILON)
    if rc_min is None or rc_max is None:
        raise ValueError("window outside raster")

    window = tile.dem[rc_min[0] : rc_max[0] + 1, rc_min[1] : rc_max[1] + 1]
    nan_mask = np.isnan(window)
    n_before = int(nan_mask.sum())
    if n_before == 0:
        return 0, 0

    rr, cc = np.nonzero(nan_mask)
    rows = rr + rc_min[0]
    cols = cc + rc_min[1]
    xs, ys = b.cell_bottom_left(rows, cols)
    heights, _ = tri.get_value(xs, ys)
    h32 = heights.astype(np.float32)
    ok = ~np.isnan(h32)
    window[rr[ok], cc[ok]] = h32[ok]
    return n_before, int((~ok).sum())


# -- ASCII exports (VoxelGrid.cs:162-230, 319-345) -------------------


def save_highest_in_class_range_ascii(
    tile: VoxelTile, lo: int, hi: int, no_data: float = -9999.0
) -> str:
    """SaveAsAscHighestInClassRange: per cell the best in-range bin
    point, falling back to the DEM; rows written bottom-up; values
    formatted as C# double-widened floats (VoxelGrid.cs:162-198)."""
    z, _ = highest_in_class_range(tile, lo, hi)
    vals = np.where(np.isnan(z), tile.dem, z)
    buf = io.StringIO()
    _voxel_header(buf, tile, no_data)
    for i_row in range(tile.bounds.n_rows):
        row = vals[i_row]
        buf.write(
            " ".join(
                fmt_double(no_data) if np.isnan(v) else fmt_float32_as_double(v)
                for v in row
            )
        )
        buf.write("\n")
    return buf.getvalue()



def write_dem_ascii(tile: VoxelTile) -> str:
    """WriteDemAsAscii (VoxelGrid.cs:319-345): rows top-down, float32
    formatting, trailing space per value, NODATA -999."""
    no_data = -999
    buf = io.StringIO()
    write_header(
        buf,
        tile.bounds.n_cols,
        tile.bounds.n_rows,
        tile.bounds.min_x,
        tile.bounds.min_y,
        tile.bounds.cell_width,
        no_data,
    )
    for i_row in range(tile.bounds.n_rows - 1, -1, -1):
        for v in tile.dem[i_row]:
            buf.write((str(no_data) if np.isnan(v) else fmt_float32(v)) + " ")
        buf.write("\n")
    return buf.getvalue()


def _voxel_header(buf, tile: VoxelTile, no_data: float) -> None:
    write_header(
        buf,
        tile.bounds.n_cols,
        tile.bounds.n_rows,
        tile.bounds.min_x,
        tile.bounds.min_y,
        tile.bounds.cell_width,
        fmt_double(no_data),
    )
