"""Per-tile TIN construction + DEM rasterization + gap fill — the
flagship wide step (SURVEY.md §3.1/§3.3 Ray shape).

``group_apply_bucketed(points, key_col, rasterize_tile)``: one
coarse-bucket exchange (``cogroup.shuffle_by``: a hash bucket of the
tile key, one bucket per cluster CPU or more for a large input,
range-partitioned on boundaries fixed on the driver with no sampling
pass), then an in-bucket pandas
``groupby`` calls ``rasterize_tile`` once per tile. State (the
Delaunay TIN, the voxel bins) is tile-local and dies with the tile;
nothing crosses the object store except the input rows and the
per-tile output row (tile summary + raster blobs). The key is the
1 km tile: its name (``key_col="tile_id"``, default) or the int64
packed ``tile_key`` (``key_col="tile_key"``, the flagship's choice —
int keys hash and group much faster than strings; the name is rebuilt
once per tile). Hot tiles are built whole in their bucket, so each
tile is one call and the largest tile bounds the stage's wall at any
CPU count: bench.py's 12M-doc corpus has two
1.2M-point urban tiles, one single-task build each. With the Delaunay
sweep compiled (geom/delaunay.py) a 1.31M-point tile built in ~4 s on
one vCPU (Delaunay 1.4 s), with the Python sweep ~34 s; the grid index,
rasteriser and gap-fill probe are now compiled too (geom/triangulation.py),
and the benchmark's seed-7 tiles compute in 0.13 s for the 16 tiles
of the hot-tile checkpoint (0.33 s with those three in numpy).

Per tile (mirrors flows A+C, Triangulation.Tests.cs:15-70 /
VoxelGrid.Tests.cs:52-101):

1. voxel accumulate: ground max DEM + sorted bins (VoxelGrid.cs:92-119)
2. Delaunay TIN over all points (Triangulation.cs:58-97); tiles with
   < 3 points or collinear layouts skip triangulation (counted, not
   fatal — the reference throws per-object, the engine records)
3. triangle-push DEM + classification raster (Triangulation.cs:202-298)
4. DEM gap fill from the TIN with before/after counters
   (VoxelGrid.cs:121-160)
5. emit one summary row: counters + float32 dem blob + uint8
   classification blob (resumable per-tile output)
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..geom.bounds import RasterBounds
from ..geom.tilenamer import decode
from ..geom.triangulation import SurfaceTriangulation
from ..geom import voxel as vx
from .tiling import CELL_SIZE_M


def rasterize_tile(group: pd.DataFrame) -> pd.DataFrame:
    tile_id = group["tile_id"].iloc[0]
    env = decode(tile_id)
    bounds = RasterBounds.for_tile(env, CELL_SIZE_M)

    x = group["x"].to_numpy()
    y = group["y"].to_numpy()
    z = group["z"].to_numpy()
    cls = group["classification"].to_numpy()
    is_ground = group["is_ground"].to_numpy()

    tile = vx.build_voxel_tile(bounds, x, y, z, cls, is_ground)

    n_triangles = 0
    missing_before = missing_after = -1
    dem = np.full((bounds.n_rows, bounds.n_cols), np.nan, dtype=np.float32)
    cls_raster = np.zeros((bounds.n_rows, bounds.n_cols), dtype=np.uint8)

    if len(x) >= 3:
        tri = SurfaceTriangulation(bounds)
        tri.set_points(x, y, z, cls)
        try:
            tri.create()
            n_triangles = tri.triangle_count()
        except ValueError:
            n_triangles = 0  # collinear tile — no TIN
        if n_triangles:
            tri.rasterise_dem(bounds, dem, classification_raster=cls_raster)
            missing_before, missing_after = vx.fill_missing_from_tin(
                tile, tri, int(env[0]), int(env[1]), int(env[2]), int(env[3])
            )

    return pd.DataFrame(
        {
            "tile_id": [tile_id],
            "n_points": [len(x)],
            "n_ground": [int(is_ground.sum())],
            "n_triangles": [n_triangles],
            "n_dem_cells": [int((~np.isnan(dem)).sum())],
            "missing_before": [missing_before],
            "missing_after": [missing_after],
            "n_voxel_cells": [int((np.diff(tile.bin_starts) > 0).sum())],
            "dem": [dem.tobytes()],
            "classification_raster": [cls_raster.tobytes()],
        }
    )


def tin_tiles(points_ds, include_rasters: bool = True, key_col: str = "tile_id"):
    """points -> one row per tile. Set ``include_rasters=False`` for
    summary-only outputs (oracle checks). ``key_col`` is the shuffle
    key: ``"tile_id"`` (string name) or ``"tile_key"`` (int64 packed
    key; the input then needs no ``tile_id`` column). Runs through the
    coarse-bucket exchange (one range partition on the bucket id +
    in-bucket pandas groupby) — Ray's native per-group map_groups
    dispatch costs ~10s of pure overhead at a few hundred tiles x
    millions of rows."""
    from .cogroup import group_apply_bucketed

    out = group_apply_bucketed(points_ds, key_col, tile_rasterizer(key_col))
    if not include_rasters:
        out = out.drop_columns(["dem", "classification_raster"])
    return out


def tile_rasterizer(key_col: str = "tile_id"):
    """The per-tile function of :func:`tin_tiles` for shuffle key
    ``key_col``: ``rasterize_tile``, which reads ``tile_id``, or for
    another key a wrapper that rebuilds the tile name from it."""
    if key_col == "tile_id":
        return rasterize_tile
    from .tiling import tile_key_to_name

    def keyed(group: pd.DataFrame) -> pd.DataFrame:
        # the tile name is rebuilt once per group, never per row
        name = tile_key_to_name(group[key_col].iloc[0])
        return rasterize_tile(group.assign(tile_id=name))

    return keyed


def tin_summary(points_ds):
    return tin_tiles(points_ds, include_rasters=False)


def triangles_tile(group: pd.DataFrame) -> pd.DataFrame:
    """One row per Delaunay triangle: PolygonZ WKB + per-tile id —
    ExportToShp re-expressed as a table (Triangulation.cs:132-157;
    attribute ``ID = t`` becomes ``tri_id``). Triangle *sets* are the
    conformance surface, not array order (Delaunator order is
    library-specific, SURVEY.md §7.5)."""
    from ..geom.wkbgeom import polygon_z_wkb

    tile_id = group["tile_id"].iloc[0]
    env = decode(tile_id)
    bounds = RasterBounds.for_tile(env, CELL_SIZE_M)
    x = group["x"].to_numpy()
    y = group["y"].to_numpy()
    z = group["z"].to_numpy()
    empty = pd.DataFrame(
        {
            "tile_id": pd.Series(dtype="object"),
            "tri_id": pd.Series(dtype="int64"),
            "wkb": pd.Series(dtype="object"),
        }
    )
    if len(x) < 3:
        return empty
    tri = SurfaceTriangulation(bounds)
    tri.set_points(x, y, z, group["classification"].to_numpy())
    try:
        tri.create()
    except ValueError:
        return empty
    tx, ty, tz = tri.triangles_xyz()
    wkbs = [
        polygon_z_wkb(tx[i], ty[i], tz[i]) for i in range(len(tx))
    ]
    return pd.DataFrame(
        {
            "tile_id": [tile_id] * len(wkbs),
            "tri_id": pd.Series(range(len(wkbs)), dtype="int64"),
            "wkb": wkbs,
        }
    )


def tin_triangles(points_ds):
    """points -> one row per (tile, triangle) with PolygonZ WKB (S11)."""
    from .cogroup import group_apply_bucketed

    return group_apply_bucketed(points_ds, "tile_id", triangles_tile)
