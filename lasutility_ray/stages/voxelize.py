"""Voxel-grid aggregation as grouped-table operators.

The reference's ``VoxelGrid`` accumulation (``VoxelGrid.cs:92-119``:
per-cell ground max + per-cell bins) becomes pre-aggregated shuffles
(SURVEY.md §2.3 T6/T7, §2.5 A1/A2):

- **partial combine inside map_batches** shrinks each batch to at
  most one row per touched cell *before* the shuffle (mandatory at
  scale: urban skew collapses in the map side);
- the final ``groupby(["tile_id","row","col"])`` merges partials with
  associative Max/Sum.

Top-1-per-cell ("highest point in class range",
``VoxelGrid.cs:305-317``) uses the same partial-then-final shape with
an argmax carried as columns; ties broken by lowest doc_id (the
reference's List.Sort is unstable — SURVEY.md §7.5 — so the engine
pins a deterministic rule and the oracle mirrors it).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ray.data.aggregate import Count, Max, Sum


def _partial_ground_max(batch: pa.Table) -> pa.Table:
    """Per-batch combine: max ground z + counts per cell."""
    df = batch.select(["tile_id", "row", "col", "z", "is_ground"]).to_pandas()
    g = df[df["is_ground"]]
    agg = (
        g.groupby(["tile_id", "row", "col"], sort=False)["z"]
        .agg(["max", "count"])
        .reset_index()
        .rename(columns={"max": "pmax", "count": "pcount"})
    )
    return pa.Table.from_pandas(agg, preserve_index=False)


def cell_ground_max(points_ds):
    """points -> (tile_id, row, col, max_ground_z, n_ground).

    One small shuffle over pre-aggregated partials.
    """
    partial = points_ds.map_batches(_partial_ground_max, batch_format="pyarrow")
    out = partial.groupby(["tile_id", "row", "col"]).aggregate(
        Max("pmax", alias_name="max_ground_z"),
        Sum("pcount", alias_name="n_ground"),
    )
    return out


def _partial_top1(lo: int, hi: int):
    def fn(batch: pa.Table) -> pa.Table:
        df = batch.select(["tile_id", "row", "col", "z", "classification", "doc_id"]).to_pandas()
        df = df[(df["classification"] >= lo) & (df["classification"] <= hi)]
        if len(df) == 0:
            return pa.table(
                {
                    "tile_id": pa.array([], pa.string()),
                    "row": pa.array([], pa.int64()),
                    "col": pa.array([], pa.int64()),
                    "z": pa.array([], pa.float64()),
                    "classification": pa.array([], pa.uint8()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        # best per cell: z desc, then doc_id asc (deterministic ties)
        df = df.sort_values(["z", "doc_id"], ascending=[False, True], kind="stable")
        best = df.groupby(["tile_id", "row", "col"], sort=False).head(1)
        return pa.Table.from_pandas(best, preserve_index=False)

    return fn


def cell_top1_in_class_range(points_ds, lo: int, hi: int):
    """Top-1 point per cell within a classification range — the
    grouped-table equivalent of GetHighestPointInClassRange applied
    to every cell. Partial top-1 per batch, then a coarse-bucket
    shuffle whose final head(1) runs per bucket at C speed (never one
    python group per cell)."""
    from .cogroup import shuffle_by

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["z", "doc_id"], ascending=[False, True], kind="stable")
        return g.groupby(["tile_id", "row", "col"], sort=False).head(1)

    partial = points_ds.map_batches(_partial_top1(lo, hi), batch_format="pyarrow")
    return shuffle_by(partial, ["tile_id", "row", "col"], final)


def cell_bins(points_ds):
    """The VoxelGrid bins table itself (A2/T6/T7): every non-ground
    point as (tile_id, row, col, pos, z, classification, doc_id) where
    ``pos`` is the point's 0-based rank within its cell sorted by
    (z desc, doc_id asc) — the flattened, deterministic form of the
    reference's per-cell desc-sorted ``Bin.Points`` list
    (``Bin.cs:27-39``; tie rule pinned because C# List.Sort is
    unstable, SURVEY.md §7.5). Fully SQL-checkable via
    ``row_number()``."""
    from .cogroup import shuffle_by

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["tile_id", "row", "col", "z", "doc_id"],
            ascending=[True, True, True, False, True],
            kind="stable",
        )
        g = g.assign(
            pos=g.groupby(["tile_id", "row", "col"], sort=False).cumcount()
        )
        return g[["tile_id", "row", "col", "pos", "z", "classification", "doc_id"]]

    def project(t: pa.Table) -> pa.Table:
        keep = ~t.column("is_ground").to_numpy(zero_copy_only=False)
        return t.select(
            ["tile_id", "row", "col", "z", "classification", "doc_id"]
        ).filter(pa.array(keep))

    ng = points_ds.map_batches(project, batch_format="pyarrow")
    return shuffle_by(ng, ["tile_id", "row", "col"], per_bucket)


def tile_counts(points_ds):
    """docs per 1 km tile — the first wide step / skew measurement
    pass (SURVEY.md §7.2 step 3)."""
    return points_ds.groupby("tile_id").aggregate(Count(alias_name="n_docs"))


def bbox_aggregate(points_ds):
    """Global bbox (Rasteriser.cs:27-31 analogue): one tiny result."""
    from ray.data.aggregate import Min

    return points_ds.aggregate(
        Min("x", alias_name="min_x"),
        Max("x", alias_name="max_x"),
        Min("y", alias_name="min_y"),
        Max("y", alias_name="max_y"),
    )
