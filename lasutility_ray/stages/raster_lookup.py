"""Raster -> vector value lookup (J4/M9): points probe per-tile byte
rasters.

Reference: ``ByteRaster.GetValue(coord)`` (``Common/ByteRaster.cs:
304-331``) — cell value at the point's cell, NaN for no-data/outside.
The engine's shape: the rasters live in a *tiles Dataset* (one row per
tile, e.g. the J3 burn output) and the probes in a *points Dataset*;
both are keyed by ``tile_id``, co-grouped with the union+role trick
(one shuffle), and the gather per tile is a vectorized numpy index.

At 100 TB both sides stream; a tile's raster (1 MB u8) plus its probe
batch is all a group ever holds.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..geom.bounds import RasterBounds
from ..geom.tilenamer import decode

NO_DATA = 0  # ByteRaster.cs:13


def raster_value_lookup(points_ds, tiles_ds, cell_size: float = 1.0):
    """(doc_id, tile_id, raster_value) for every point; NaN where the
    cell is NoData or the point's tile has no raster."""

    def tag_points(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "tile_id": t.column("tile_id"),
                "doc_id": t.column("doc_id"),
                "x": t.column("x"),
                "y": t.column("y"),
                "raster": pa.array([None] * t.num_rows, pa.large_binary()),
                "role": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }
        )

    def tag_tiles(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "tile_id": t.column("tile_id"),
                "doc_id": pa.array(np.zeros(n, dtype=np.int64)),
                "x": pa.array(np.zeros(n)),
                "y": pa.array(np.zeros(n)),
                "raster": t.column("raster").cast(pa.large_binary()),
                "role": pa.array(np.ones(n, dtype=np.int8)),
            }
        )

    from .cogroup import group_apply_bucketed

    def per_tile(g: pd.DataFrame) -> pd.DataFrame:
        q = g[g["role"] == 0]
        if len(q) == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype="int64"),
                    "tile_id": pd.Series(dtype="object"),
                    "raster_value": pd.Series(dtype="float64"),
                }
            )
        tile_id = g["tile_id"].iloc[0]
        t = g[g["role"] == 1]
        vals = np.full(len(q), np.nan)
        if len(t) == 1:
            env = decode(tile_id)
            bounds = RasterBounds.for_tile(env, cell_size)
            raster = np.frombuffer(t["raster"].iloc[0], dtype=np.uint8).reshape(
                bounds.n_rows, bounds.n_cols
            )
            rows, cols, valid = bounds.proj_to_cell(
                q["x"].to_numpy(), q["y"].to_numpy()
            )
            r = np.where(valid, rows, 0)
            c = np.where(valid, cols, 0)
            v = raster[r, c].astype(np.float64)
            ok = valid & (raster[r, c] != NO_DATA)
            vals[ok] = v[ok]
        return pd.DataFrame(
            {
                "doc_id": q["doc_id"].astype("int64").to_numpy(),
                "tile_id": [tile_id] * len(q),
                "raster_value": vals,
            }
        )

    return group_apply_bucketed(
        [points_ds.map_batches(tag_points, batch_format="pyarrow"),
         tiles_ds.map_batches(tag_tiles, batch_format="pyarrow")],
        "tile_id",
        per_tile,
    )
