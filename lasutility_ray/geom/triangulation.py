"""Per-tile TIN surface: Delaunay build, indexed point queries, and
triangle-push DEM rasterization.

Semantics match ``LasUtility/DEM/Triangulation.cs`` and
``LasUtility/DEM/TriangleGrid.cs``:

- point out-of-bounds on ingest raises (``Triangulation.cs:35-47``);
- grid index: per-cell candidate triangle ids in insertion (= tri id)
  order (``TriangleGrid.cs:61-89``);
- query: first containing triangle in candidate order, sign-based
  boundary-inclusive PIP (``Triangulation.cs:349-360``), barycentric
  height (``:362-375``), nearest-of-3-vertices classification with
  ``d0<=d1&&d0<=d2 -> c0 elif d1<=d2 -> c1 else c2`` tie rule
  (``:315-324``); NaN when no triangle contains the point;
- RasteriseDem: bbox clamp by epsilon, degenerate cutoff
  ``|det| < 1e-12``, fill where all barycentric coords >= 0, honoring
  a LockedCells mask, optional classification metadata raster
  (``Triangulation.cs:202-298``).

This object lives only inside one ``map_groups`` invocation or one
actor — it is never shipped through the object store.
"""

from __future__ import annotations

import numpy as np

from .bounds import EPSILON, RasterBounds
from .delaunay import Delaunator

DEGENERATE_DET = 1e-12  # Triangulation.cs:266
CLASSIFICATION_CHANNEL = "Classification"  # RasteriseDemRequest.cs:26


class SurfaceTriangulation:
    def __init__(self, bounds: RasterBounds):
        """``bounds`` doubles as the triangle-grid index resolution
        (reference ctor, Triangulation.cs:29-33; tests use 100x100)."""
        self.bounds = bounds
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._z: np.ndarray | None = None
        self._cls: np.ndarray | None = None
        self._tris: np.ndarray | None = None  # (n_tri, 3) int64
        # CSR grid index: cell -> candidate triangle ids (tri-id order)
        self._cell_starts: np.ndarray | None = None
        self._cell_tris: np.ndarray | None = None

    @property
    def point_count(self) -> int:
        return 0 if self._x is None else len(self._x)

    def set_points(self, x, y, z, classification):
        """Bulk AddPoint (Triangulation.cs:35-47): raises if any point
        is outside the half-open grid bounds."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        z = np.ascontiguousarray(z, dtype=np.float64)
        classification = np.ascontiguousarray(classification, dtype=np.uint8)
        b = self.bounds
        bad = (x < b.min_x) | (x >= b.max_x) | (y < b.min_y) | (y >= b.max_y)
        if bad.any():
            raise ValueError("Adding point that is out of bounds")
        self._x, self._y, self._z, self._cls = x, y, z, classification

    def create(self):
        """Triangulate + build the grid index (Triangulation.cs:58-97)."""
        if self._x is None or len(self._x) == 0:
            raise ValueError("Add triangulation points before creating triangulation.")
        d = Delaunator(self._x, self._y)
        self._tris = d.triangles.reshape(-1, 3)
        self._build_grid_index()

    def triangle_count(self) -> int:
        if self._tris is None:
            raise ValueError("Triangulation is not created.")
        return len(self._tris)

    def triangles_xyz(self):
        """Per-triangle vertex coordinates: three (n_tri, 3) arrays of
        x, y, z — the ExportToShp payload (Triangulation.cs:132-157)."""
        t = self._tris
        return (
            self._x[t],
            self._y[t],
            self._z[t],
        )

    # -- grid index (TriangleGrid.cs) --------------------------------

    def _build_grid_index(self):
        b = self.bounds
        t = self._tris
        tx = self._x[t]
        ty = self._y[t]
        min_x, max_x = tx.min(axis=1), tx.max(axis=1)
        min_y, max_y = ty.min(axis=1), ty.max(axis=1)

        r0, c0, v0 = b.proj_to_cell(min_x, min_y)
        r1, c1, v1 = b.proj_to_cell(max_x, max_y)
        ok = v0 & v1  # reference throws if out of bounds
        if not ok.all():
            raise IndexError("Polygon envelope out of bounds")

        widths = (c1 - c0 + 1).astype(np.int64)
        heights = (r1 - r0 + 1).astype(np.int64)
        n_cells_per_tri = widths * heights
        total = int(n_cells_per_tri.sum())
        tri_ids = np.repeat(np.arange(len(t), dtype=np.int64), n_cells_per_tri)

        # flat vectorized window expansion: pair j of triangle i maps
        # to (r0 + local // w, c0 + local % w)
        ncols = b.n_cols
        offs = np.zeros(len(t) + 1, dtype=np.int64)
        np.cumsum(n_cells_per_tri, out=offs[1:])
        local = np.arange(total, dtype=np.int64) - offs[tri_ids]
        rr = r0[tri_ids] + local // widths[tri_ids]
        cc = c0[tri_ids] + local % widths[tri_ids]
        cells = rr * ncols + cc

        order = np.lexsort((tri_ids, cells))  # cell asc, tri id asc within cell
        cells = cells[order]
        tri_ids = tri_ids[order]
        n_cells = b.n_rows * b.n_cols
        counts = np.bincount(cells, minlength=n_cells)
        starts = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        self._cell_starts = starts
        self._cell_tris = tri_ids

    def _candidates(self, x: float, y: float) -> np.ndarray:
        rc = self.bounds.proj_to_cell_scalar(x, y)
        if rc is None:
            return np.empty(0, dtype=np.int64)
        cell = rc[0] * self.bounds.n_cols + rc[1]
        return self._cell_tris[self._cell_starts[cell] : self._cell_starts[cell + 1]]

    # -- queries -----------------------------------------------------

    def get_value(self, xs, ys):
        """Vectorized GetValue (Triangulation.cs:159-196).

        Returns ``(heights, classifications)``; NaN / 0 where no
        containing triangle. Points are grouped per index cell so each
        cell's candidate set is tested against its points in one
        broadcasted PIP pass; the first containing triangle in tri-id
        order wins (candidate insertion order == tri-id order).
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        n = len(xs)
        heights = np.full(n, np.nan)
        classes = np.zeros(n, dtype=np.uint8)
        if self._tris is None:
            raise ValueError("Triangulation is not created.")
        if n == 0:
            return heights, classes

        b = self.bounds
        rows, cols, valid = b.proj_to_cell(xs, ys)
        cells = np.where(valid, rows * b.n_cols + cols, 0)

        # flat (point, candidate) pair expansion over the CSR index —
        # no python loop over cells/points
        starts = self._cell_starts
        c0 = starts[cells]
        counts = np.where(valid, starts[cells + 1] - c0, 0)
        total = int(counts.sum())
        if total == 0:
            return heights, classes
        pt = np.repeat(np.arange(n, dtype=np.int64), counts)
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        within = np.arange(total, dtype=np.int64) - offs[pt]
        cand = self._cell_tris[c0[pt] + within]

        t = self._tris
        x, y, z, cl = self._x, self._y, self._z, self._cls
        i0, i1, i2 = t[cand, 0], t[cand, 1], t[cand, 2]
        px, py = xs[pt], ys[pt]
        x0, y0 = x[i0], y[i0]
        x1, y1 = x[i1], y[i1]
        x2, y2 = x[i2], y[i2]

        # sign-based PIP, boundary inclusive (Triangulation.cs:349-360)
        d1 = (px - x1) * (y0 - y1) - (x0 - x1) * (py - y1)
        d2 = (px - x2) * (y1 - y2) - (x1 - x2) * (py - y2)
        d3 = (px - x0) * (y2 - y0) - (x2 - x0) * (py - y0)
        has_neg = (d1 < 0) | (d2 < 0) | (d3 < 0)
        has_pos = (d1 > 0) | (d2 > 0) | (d3 > 0)
        inside = ~(has_neg & has_pos)

        hit_idx = np.flatnonzero(inside)
        if len(hit_idx) == 0:
            return heights, classes
        # first containing candidate per point, in candidate (= tri id)
        # order: pairs are grouped by point in that order already
        gi_all, first_pos = np.unique(pt[hit_idx], return_index=True)
        sel = hit_idx[first_pos]

        j0, j1, j2 = i0[sel], i1[sel], i2[sel]
        qx, qy = xs[gi_all], ys[gi_all]
        det = (y[j1] - y[j2]) * (x[j0] - x[j2]) + (x[j2] - x[j1]) * (y[j0] - y[j2])
        l1 = ((y[j1] - y[j2]) * (qx - x[j2]) + (x[j2] - x[j1]) * (qy - y[j2])) / det
        l2 = ((y[j2] - y[j0]) * (qx - x[j2]) + (x[j0] - x[j2]) * (qy - y[j2])) / det
        l3 = 1.0 - l1 - l2
        h = l1 * z[j0] + l2 * z[j1] + l3 * z[j2]
        heights[gi_all] = h
        classes[gi_all] = _closest_class(qx, qy, h, x, y, z, cl, j0, j1, j2)
        return heights, classes

    # -- rasterization (Triangulation.cs:202-298) --------------------

    def rasterise_dem(
        self,
        bounds: RasterBounds,
        dem: np.ndarray,
        locked_cells: np.ndarray | None = None,
        classification_raster: np.ndarray | None = None,
    ) -> None:
        """Triangle-push fill of ``dem`` (float32 (rows, cols)).

        ``locked_cells`` (bool) cells are never written — the
        incremental-update contract (Triangulation.cs:275-276).
        ``classification_raster`` (uint8) gets the nearest-vertex class
        per covered cell (the "Classification" byte metadata channel,
        Triangulation.cs:292-293).
        """
        if self._tris is None:
            raise ValueError("Triangulation is not created.")
        if dem.shape != (bounds.n_rows, bounds.n_cols):
            raise ValueError("Raster array dimensions must match raster bounds.")
        if locked_cells is not None and locked_cells.shape != dem.shape:
            raise ValueError("Raster array dimensions must match raster bounds.")
        if classification_raster is not None and classification_raster.shape != dem.shape:
            raise ValueError("Raster array dimensions must match raster bounds.")

        x, y, z, cl = self._x, self._y, self._z, self._cls
        cw, ch = bounds.cell_width, bounds.cell_height
        t = self._tris
        n_tri = len(t)
        if n_tri == 0:
            return

        # vectorized triangle-push: expand every triangle into its
        # covered-cell window as flat (tri, cell) pairs, test the cell
        # bottom-left corner with barycentric coords, and resolve
        # overlaps with last-triangle-wins (max tri id per cell) —
        # bit-identical to the reference's sequential overwrite loop
        # (Triangulation.cs:242-297) for every cell, including shared
        # edges, because the winner and its barycentric math match.
        i0, i1, i2 = t[:, 0], t[:, 1], t[:, 2]
        x0, y0, z0 = x[i0], y[i0], z[i0]
        x1, y1, z1 = x[i1], y[i1], z[i1]
        x2, y2, z2 = x[i2], y[i2], z[i2]

        det = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2)
        keep = np.abs(det) >= DEGENERATE_DET  # Triangulation.cs:266

        min_x = np.maximum(np.minimum(np.minimum(x0, x1), x2), bounds.min_x)
        min_y = np.maximum(np.minimum(np.minimum(y0, y1), y2), bounds.min_y)
        max_x = np.minimum(np.maximum(np.maximum(x0, x1), x2), bounds.max_x - EPSILON)
        max_y = np.minimum(np.maximum(np.maximum(y0, y1), y2), bounds.max_y - EPSILON)

        r0, c0, v0 = bounds.proj_to_cell(min_x, min_y)
        r1, c1, v1 = bounds.proj_to_cell(max_x, max_y)
        keep &= v0 & v1
        tri_idx = np.flatnonzero(keep)
        if len(tri_idx) == 0:
            return

        widths = (c1[tri_idx] - c0[tri_idx] + 1).astype(np.int64)
        heights_w = (r1[tri_idx] - r0[tri_idx] + 1).astype(np.int64)
        n_cells_per_tri = widths * heights_w
        total = int(n_cells_per_tri.sum())
        pair_tri = np.repeat(np.arange(len(tri_idx), dtype=np.int64), n_cells_per_tri)
        offs = np.zeros(len(tri_idx) + 1, dtype=np.int64)
        np.cumsum(n_cells_per_tri, out=offs[1:])
        local = np.arange(total, dtype=np.int64) - offs[pair_tri]
        rr = r0[tri_idx][pair_tri] + local // widths[pair_tri]
        cc = c0[tri_idx][pair_tri] + local % widths[pair_tri]

        px = bounds.min_x + cc * cw  # cell bottom-left corners
        py = bounds.min_y + rr * ch
        g = tri_idx[pair_tri]  # global triangle id per pair
        inv_det = 1.0 / det[g]
        l1 = ((y1[g] - y2[g]) * (px - x2[g]) + (x2[g] - x1[g]) * (py - y2[g])) * inv_det
        l2 = ((y2[g] - y0[g]) * (px - x2[g]) + (x0[g] - x2[g]) * (py - y2[g])) * inv_det
        l3 = 1.0 - l1 - l2
        inside = (l1 >= 0) & (l2 >= 0) & (l3 >= 0)
        if locked_cells is not None:
            inside &= ~locked_cells[rr, cc]
        hit = np.flatnonzero(inside)
        if len(hit) == 0:
            return

        # last-wins: among pairs hitting a cell, the largest tri id
        cell_flat = rr[hit] * bounds.n_cols + cc[hit]
        order = np.lexsort((g[hit], cell_flat))
        cell_sorted = cell_flat[order]
        last = np.flatnonzero(
            np.diff(cell_sorted, append=cell_sorted[-1] + 1) != 0
        )
        win = hit[order[last]]

        wg = g[win]
        h = l1[win] * z0[wg] + l2[win] * z1[wg] + l3[win] * z2[wg]
        wr, wc = rr[win], cc[win]
        dem[wr, wc] = h.astype(np.float32)

        if classification_raster is not None:
            classification_raster[wr, wc] = _closest_class(
                px[win], py[win], h, x, y, z, cl, i0[wg], i1[wg], i2[wg]
            )


def _closest_class(qx, qy, qz, x, y, z, cl, j0, j1, j2) -> np.ndarray:
    """Vectorized GetClosestClassification (Triangulation.cs:315-324):
    class of the 3-D-nearest triangle vertex, ties prefer vertex order
    0 then 1 then 2."""
    d0 = (qx - x[j0]) ** 2 + (qy - y[j0]) ** 2 + (qz - z[j0]) ** 2
    d1 = (qx - x[j1]) ** 2 + (qy - y[j1]) ** 2 + (qz - z[j1]) ** 2
    d2 = (qx - x[j2]) ** 2 + (qy - y[j2]) ** 2 + (qz - z[j2]) ** 2
    out = np.where(
        (d0 <= d1) & (d0 <= d2),
        cl[j0],
        np.where(d1 <= d2, cl[j1], cl[j2]),
    )
    return out.astype(np.uint8)
