"""Point-in-polygon join + polygon raster burn.

Two paths, per SURVEY.md §2.4:

- **Broadcast PIP join** (J1/J2 shape with a small polygon side): the
  driver builds the probe callable once, with its uniform-grid
  candidate index (the reference's TriangleIndexGrid idea,
  ``DEM/TriangleGrid.cs``), and passes it to ``map_batches``; Ray Data
  ships it to the map tasks once per operator. Each batch probes
  vectorized. No shuffle. When the polygon side is
  large, flat-map features to tiles and co-group on ``tile_id``
  instead (the burn path below does exactly that).

- **Per-tile raster burn** (J3): features are exploded to the tiles
  their envelope touches (clipped, ``RasteriserEvenOdd.cs:43-48``),
  sorted by the deterministic burn order ``(source, feature_seq)``
  (O4), then ``groupby(tile_id).map_groups`` burns a byte raster per
  tile with even-odd fill / Bresenham lines and the class-code value
  map (M5, ``Nls/TopographicDb.cs``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..corpus.nls import ALL_CLASS_MAPS
from ..geom.bounds import EPSILON, RasterBounds
from ..geom.clip import clip_geometry, envelope_contains
from ..geom.lines import burn_line
from ..geom.tilenamer import decode
from ..geom.wkbgeom import LineString, MultiLineString, MultiPolygon, Polygon, from_wkb

TILE_SIZE_M = 1000


class RectPipJoin:
    """Batch probe: points against broadcast axis-aligned rectangles
    with half-open [min,max) containment; vectorized
    O(points x rects)."""

    def __init__(self, rects: dict):
        self.min_x = rects["min_x"]
        self.min_y = rects["min_y"]
        self.max_x = rects["max_x"]
        self.max_y = rects["max_y"]
        self.luokka = rects["luokka"]
        self.feature_id = rects["feature_id"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy()
        y = batch.column("y").to_numpy()
        doc_id = batch.column("doc_id").to_numpy()
        # (points, rects) containment matrix; rect side is small
        inside = (
            (x[:, None] >= self.min_x[None, :])
            & (x[:, None] < self.max_x[None, :])
            & (y[:, None] >= self.min_y[None, :])
            & (y[:, None] < self.max_y[None, :])
        )
        pi, ri = np.nonzero(inside)
        return pa.table(
            {
                "doc_id": pa.array(doc_id[pi], pa.int64()),
                "feature_id": pa.array(self.feature_id[ri], pa.int64()),
                "luokka": pa.array(self.luokka[ri], pa.int32()),
            }
        )


def rect_pip_join(points_ds, feature_table: pa.Table, concurrency: int | None = None):
    """points x rect features -> (doc_id, feature_id, luokka) rows.
    ``concurrency`` caps the number of concurrent map tasks."""
    mask = pa.compute.equal(feature_table.column("kind"), "rect")
    rects_tbl = feature_table.filter(mask)
    rects = {
        c: rects_tbl.column(c).to_numpy()
        for c in ("min_x", "min_y", "max_x", "max_y", "luokka", "feature_id")
    }
    return points_ds.map_batches(
        RectPipJoin(rects), batch_format="pyarrow", concurrency=concurrency
    )


# ------------------------------------------------------------------
# per-tile raster burn (J3)
# ------------------------------------------------------------------


class PolygonPipJoin:
    """Batch probe: points against broadcast *polygon* features
    (even-odd membership, geom/pip.py) — the general J1 shape.
    ``__init__`` builds a uniform-grid candidate index over feature
    envelopes (the TriangleGrid idea, ``DEM/TriangleGrid.cs:25-89``,
    standing in for an STRtree: same candidate-pruning role); probes
    test only the grid cell's candidates."""

    GRID = 250.0  # index cell size (m)

    def __init__(self, feats: pa.Table):
        from ..geom.pip import points_in_polygon

        self._pip = points_in_polygon
        self.polys = []  # (feature_id, luokka, exterior, interiors, env)
        envs = []
        for f in feats.to_pylist():
            geom = from_wkb(f["geom_wkb"])
            parts = (
                geom.parts
                if isinstance(geom, MultiPolygon)
                else [geom]
                if isinstance(geom, Polygon)
                else []
            )
            for p in parts:
                self.polys.append(
                    (f["feature_id"], f["luokka"], p.exterior, list(p.interiors))
                )
                envs.append(p.envelope)
        if not self.polys:
            self.grid = {}
            return
        envs = np.asarray(envs, dtype=np.float64)
        self.min_x = envs[:, 0].min()
        self.min_y = envs[:, 1].min()
        g = self.GRID
        self.grid: dict[tuple[int, int], list[int]] = {}
        for i, e in enumerate(envs):
            c0 = int((e[0] - self.min_x) // g)
            c1 = int((e[2] - self.min_x) // g)
            r0 = int((e[1] - self.min_y) // g)
            r1 = int((e[3] - self.min_y) // g)
            for r in range(r0, r1 + 1):
                for c in range(c0, c1 + 1):
                    self.grid.setdefault((r, c), []).append(i)

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy()
        y = batch.column("y").to_numpy()
        doc_id = batch.column("doc_id").to_numpy()
        out_doc, out_fid, out_luokka = [], [], []
        if self.grid:
            g = self.GRID
            rr = ((y - self.min_y) // g).astype(np.int64)
            cc = ((x - self.min_x) // g).astype(np.int64)
            # group probe points by index cell, test each candidate
            # polygon once against all of the cell's points
            order = np.lexsort((cc, rr))
            bounds_change = np.flatnonzero(
                np.diff(rr[order], prepend=rr[order][0] - 1)
                | np.diff(cc[order], prepend=cc[order][0] - 1)
            )
            starts = list(bounds_change) + [len(order)]
            for si in range(len(starts) - 1):
                sel = order[starts[si] : starts[si + 1]]
                key = (int(rr[sel[0]]), int(cc[sel[0]]))
                cands = self.grid.get(key)
                if not cands:
                    continue
                px, py_, pids = x[sel], y[sel], doc_id[sel]
                for ci in cands:
                    fid, luokka, ext, holes = self.polys[ci]
                    m = self._pip(px, py_, ext, holes)
                    if m.any():
                        out_doc.extend(pids[m].tolist())
                        out_fid.extend([fid] * int(m.sum()))
                        out_luokka.extend([luokka] * int(m.sum()))
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "feature_id": pa.array(out_fid, pa.int64()),
                "luokka": pa.array(out_luokka, pa.int32()),
            }
        )


def polygon_pip_join(points_ds, feature_table: pa.Table):
    """Points x polygon-features PIP join; the grid index is built
    once on the driver and broadcast with the probe."""
    return points_ds.map_batches(PolygonPipJoin(feature_table), batch_format="pyarrow")


def explode_features_to_tiles(
    feature_table: pa.Table, area: tuple | None = None
) -> pa.Table:
    """Flat-map: one row per (feature, touched 1 km tile). Geometry
    is NOT clipped per tile — the tiled burn fills in global cell
    space with clamped writes (geom.fill.fill_polygon_window), which
    is bit-identical to an unsplit burn; per-tile clipping (any
    algorithm) would perturb even-odd crossings for concave polygons
    and Bresenham walks for lines. ``area`` applies the reference's
    single global clip (RasteriserEvenOdd.cs:24, geometry.Intersection
    with the raster area) once per feature. Small side — runs on the
    driver once; at scale this becomes a map_batches over the feature
    dataset with an identical body."""
    from ..geom.tilenamer import encode
    from ..geom.wkbgeom import to_wkb

    rows = {k: [] for k in ("tile_id", "geom_wkb", "luokka", "source", "feature_seq", "kind")}
    ga = (
        (area[0], area[1], area[2] - EPSILON, area[3] - EPSILON)
        if area is not None
        else None
    )
    for f in feature_table.to_pylist():
        geom = from_wkb(f["geom_wkb"])
        if ga is not None and not envelope_contains(ga, geom.envelope):
            geom = clip_geometry(geom, *ga)
            if geom is None:
                continue
        wkb = to_wkb(geom)
        min_x, min_y, max_x, max_y = geom.envelope
        t0e = int(np.floor(min_x / TILE_SIZE_M)) * TILE_SIZE_M
        t0n = int(np.floor(min_y / TILE_SIZE_M)) * TILE_SIZE_M
        te = t0e
        while te <= max_x:
            tn = t0n
            while tn <= max_y:
                rows["tile_id"].append(str(encode(te, tn, TILE_SIZE_M)))
                rows["geom_wkb"].append(wkb)
                rows["luokka"].append(f["luokka"])
                rows["source"].append(f["source"])
                rows["feature_seq"].append(f["feature_seq"])
                rows["kind"].append(f["kind"])
                tn += TILE_SIZE_M
            te += TILE_SIZE_M
    return pa.table(
        {
            "tile_id": pa.array(rows["tile_id"], pa.string()),
            "geom_wkb": pa.array(rows["geom_wkb"], pa.binary()),
            "luokka": pa.array(rows["luokka"], pa.int32()),
            "source": pa.array(rows["source"], pa.string()),
            "feature_seq": pa.array(rows["feature_seq"], pa.int64()),
            "kind": pa.array(rows["kind"], pa.string()),
        }
    )


def burn_tile(
    group: pd.DataFrame,
    cell_size: float = 1.0,
    class_maps: dict | None = None,
) -> pd.DataFrame:
    """Burn one tile's features into a byte raster
    (RasteriserEvenOdd.cs:22-148). Features are processed in the
    deterministic order (source, feature_seq) — later overwrite
    earlier (J3/O4); ``class_maps`` is the M6 registration hook.

    Fill runs in window mode: the (unclipped) geometry's crossings
    are computed in the global cell grid and spans clamped to the
    tile, so the tiled result is bit-identical to an unsplit
    single-sheet burn (verified against the reference's
    terraintype.asp golden in tests/test_reference_golden.py). The
    temp-raster copy window for holed polygons uses the reference's
    feature-level envelope with its strict-< bounds
    (RasteriserEvenOdd.cs:134-136), clamped to the tile."""
    from ..geom.fill import NO_DATA, fill_polygon_window

    cmaps = ALL_CLASS_MAPS if class_maps is None else class_maps
    tile_id = group["tile_id"].iloc[0]
    env = decode(tile_id)
    bounds = RasterBounds.for_tile(env, cell_size)
    n_rows, n_cols = bounds.n_rows, bounds.n_cols
    raster = np.zeros((n_rows, n_cols), dtype=np.uint8)
    temp = None

    g = group.sort_values(["source", "feature_seq"], kind="stable")
    for wkb, luokka in zip(g["geom_wkb"], g["luokka"]):
        if luokka not in cmaps:
            continue  # M5 class filter
        value = cmaps[luokka]
        geom = from_wkb(wkb)

        if isinstance(geom, (Polygon, MultiPolygon)):
            e = geom.envelope  # feature-level copy window (reference)
            r0 = min(max(int(np.floor((e[1] - bounds.min_y) / bounds.cell_height)), 0), n_rows)
            r1 = min(max(int(np.floor((e[3] - bounds.min_y) / bounds.cell_height)), 0), n_rows)
            c0 = min(max(int(np.floor((e[0] - bounds.min_x) / bounds.cell_width)), 0), n_cols)
            c1 = min(max(int(np.floor((e[2] - bounds.min_x) / bounds.cell_width)), 0), n_cols)
            parts = geom.parts if isinstance(geom, MultiPolygon) else [geom]
            for p in parts:
                if not p.interiors:
                    fill_polygon_window(bounds, raster, value, p.exterior)
                    continue
                if temp is None:
                    temp = np.full_like(raster, NO_DATA)
                fill_polygon_window(bounds, temp, value, p.exterior)
                for ring in p.interiors:
                    fill_polygon_window(bounds, temp, NO_DATA, ring)
                win = temp[r0:r1, c0:c1]
                mask = win != NO_DATA
                raster[r0:r1, c0:c1][mask] = win[mask]
                win[mask] = NO_DATA
        elif isinstance(geom, LineString):
            _burn_linestring(bounds, raster, value, geom)
        elif isinstance(geom, MultiLineString):
            for ls in geom.parts:
                _burn_linestring(bounds, raster, value, ls)
        else:
            raise TypeError(f"Unsupported geometry {type(geom)}")

    return pd.DataFrame(
        {
            "tile_id": [tile_id],
            "n_features": [len(g)],
            "n_burned_cells": [int((raster != 0).sum())],
            "raster": [raster.tobytes()],
        }
    )



def _burn_linestring(bounds, raster, value, ls: LineString):
    """RasteriseLine (RasteriserEvenOdd.cs:84-101). Lines arrive
    UNCLIPPED (explode_features_to_tiles): endpoint cells use floor
    (valid for coordinates outside the window too — trunc would round
    negatives wrong) and writes are clamped to the raster, so the
    in-window cells equal the unsplit sheet's Bresenham walk."""
    coords = ls.coords
    cols = np.floor((coords[:, 0] - bounds.min_x) / bounds.cell_width).astype(np.int64)
    rows = np.floor((coords[:, 1] - bounds.min_y) / bounds.cell_height).astype(np.int64)
    for i in range(1, len(coords)):
        burn_line(
            raster,
            int(cols[i - 1]),
            int(rows[i - 1]),
            int(cols[i]),
            int(rows[i]),
            value,
            clamp=True,
        )


def burned_tiles(features_by_tile_ds, cell_size: float = 1.0, class_maps: dict | None = None):
    """One burned raster row per tile, through
    ``cogroup.group_apply_bucketed`` (per-tile map_groups pays ~10 ms
    of python per group — at 10^5 tiles that is the stage)."""
    from .cogroup import group_apply_bucketed

    return group_apply_bucketed(
        features_by_tile_ds, "tile_id", lambda sub: burn_tile(sub, cell_size, class_maps)
    )
