"""DEM slope (terrain roughness) — per occupied 500 m cell, the
maximum absolute height difference to its rook (4-)neighbors, the
integer core of a slope/steepness raster (divide by the fixed cell
pitch off-engine to get a gradient; the COMPARISON structure is what
the integer table pins).

Shape at 100 TB: map-side per-cell max partials -> one groupby over
the CELL SPACE (bounded: 48 x 48 at 500 m over the 24 km envelope,
independent of corpus size) -> the bounded cell table reduces in one
task on a dense grid (np.maximum.at + four shifted compares, no
neighbor join). Cells with no occupied rook neighbor are dropped
(their slope is undefined, not zero). The SQL mirror self-joins the
same cell table on the four neighbor offsets — equality proves both
the rasterization and the neighbor arithmetic.

Reference framing: the reference's closest surface is the DEM raster
consumed by WriteAsAscii (LasUtility/DEM/*); slope is the standard
first derivative analytic on that raster (beyond-reference,
SURVEY 2.11 geometry family).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .snap import point_mm

CELL_MM = 500_000
NCELL = 24_000_000 // CELL_MM  # 48


def dem_slope(docs_ds):
    """documents -> (ci, cj, z_cm, max_dz_cm) per occupied cell with
    at least one occupied rook neighbor."""
    import ray.data as rd
    from ray.data.aggregate import Max

    from .cogroup import one_task

    def cells(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        px, py = point_mm(d)
        h1 = (d * 2654435761) % 4294967296
        return pa.table(
            {
                "ci": pa.array(px // CELL_MM, pa.int64()),
                "cj": pa.array(py // CELL_MM, pa.int64()),
                "z_cm": pa.array(h1 % 100000, pa.int64()),
            }
        )

    cell_max = (
        docs_ds.map_batches(cells, batch_format="pyarrow")
        .groupby(["ci", "cj"])
        .aggregate(Max("z_cm", alias_name="z_cm"))
    )
    return rd.from_pandas(
        one_task(lambda t: pd.DataFrame() if t is None else slope_frame(t.to_pandas()), cell_max)
    )


def slope_frame(df: pd.DataFrame) -> pd.DataFrame:
    """The in-task kernel: occupied-cell frame -> rook-neighbor max
    |dz| rows (cells without an occupied neighbor dropped)."""
    ci = df["ci"].to_numpy(np.int64)
    cj = df["cj"].to_numpy(np.int64)
    z = df["z_cm"].to_numpy(np.int64)
    grid = np.zeros((NCELL, NCELL), np.int64)
    occ = np.zeros((NCELL, NCELL), bool)
    grid[ci, cj] = z
    occ[ci, cj] = True
    best = np.full((NCELL, NCELL), -1, np.int64)
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ng = np.roll(grid, (di, dj), axis=(0, 1))
        no = np.roll(occ, (di, dj), axis=(0, 1))
        # roll wraps the border; the wrapped rows/cols are masked
        if di == 1:
            no[0, :] = False
        elif di == -1:
            no[-1, :] = False
        if dj == 1:
            no[:, 0] = False
        elif dj == -1:
            no[:, -1] = False
        dz = np.abs(grid - ng)
        best = np.where(occ & no, np.maximum(best, dz), best)
    keep = best >= 0
    ki, kj = np.nonzero(keep)
    return pd.DataFrame(
        {
            "ci": ki.astype(np.int64),
            "cj": kj.astype(np.int64),
            "z_cm": grid[ki, kj],
            "max_dz_cm": best[ki, kj],
        }
    )


def dem_slope_sql(source: str = "documents") -> str:
    """DuckDB mirror of :func:`dem_slope` — the same cell-max table
    self-joined on the four rook offsets."""
    from ..corpus.geocode import H1_MUL, H2_ADD, H2_MUL, M32
    from .snap import W

    h1 = f"((doc_id * {H1_MUL}) % {M32})"
    h2 = f"((doc_id * {H2_MUL} + {H2_ADD}) % {M32})"
    return (
        f"WITH ds_p AS (SELECT "
        f"(CASE WHEN doc_id % 10 < 3 THEN 6000000 + (doc_id % 4) * 1000000 "
        f"+ {h1} % 1000000 ELSE {h1} % {W} END) // {CELL_MM} AS ci, "
        f"(CASE WHEN doc_id % 10 < 3 THEN 6000000 + {h2} % 1000000 "
        f"ELSE {h2} % {W} END) // {CELL_MM} AS cj, "
        f"{h1} % 100000 AS z FROM {source}), "
        "ds_c AS (SELECT ci, cj, MAX(z) AS z FROM ds_p GROUP BY ci, cj) "
        "SELECT a.ci, a.cj, a.z AS z_cm, "
        "CAST(MAX(abs(a.z - b.z)) AS BIGINT) AS max_dz_cm "
        "FROM ds_c a JOIN ds_c b ON "
        "(abs(a.ci - b.ci) + abs(a.cj - b.cj)) = 1 "
        "GROUP BY a.ci, a.cj, a.z"
    )


def dem_pyramid(docs_ds, n_levels: int = 3):
    """Raster overview pyramid: the 500 m cell grid max-pooled into
    ``n_levels`` coarser levels (level L cell = 2^L x 2^L base cells)
    with per-overview occupied-cell counts — the standard GIS
    overview/tile-pyramid build (zoom-out rendering, quick-look
    statistics), here over the same cell table as the slope/flow ops.

    ONE corpus pass and ONE single-key shuffle: each base cell emits
    one row per ancestor with the FUSED key level<<40 | ci<<20 | cj
    (the multi-key-aggregate ~10 s overhead lesson applied from the
    start), then a single groupby carries Max(z) and Count together.
    SQL mirror: UNION ALL over levels with integer-division parents."""
    from ray.data.aggregate import Count, Max

    from .snap import point_mm

    def cells(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        px, py = point_mm(d)
        h1 = (d * 2654435761) % 4294967296
        return pa.table(
            {
                # level-0 fused key for a SINGLE-key base aggregate too
                "bkey": pa.array(
                    ((px // CELL_MM) << 20) | (py // CELL_MM), pa.int64()
                ),
                "z_cm": pa.array(h1 % 100_000, pa.int64()),
            }
        )

    base = (
        docs_ds.map_batches(cells, batch_format="pyarrow")
        .groupby("bkey")
        .aggregate(Max("z_cm", alias_name="z_cm"))
    )

    def fan(t: pa.Table) -> pa.Table:
        bk = t.column("bkey").to_numpy()
        ci = bk >> 20
        cj = bk & 0xFFFFF
        z = t.column("z_cm").to_numpy()
        keys = []
        zs = []
        for lvl in range(1, n_levels + 1):
            keys.append(
                (np.int64(lvl) << 40) | ((ci >> lvl) << 20) | (cj >> lvl)
            )
            zs.append(z)
        return pa.table(
            {
                "key": pa.array(np.concatenate(keys), pa.int64()),
                "z_cm": pa.array(np.concatenate(zs), pa.int64()),
            }
        )

    def unpack(t: pa.Table) -> pa.Table:
        k = t.column("key").to_numpy()
        return pa.table(
            {
                "level": pa.array(k >> 40, pa.int64()),
                "ci": pa.array((k >> 20) & 0xFFFFF, pa.int64()),
                "cj": pa.array(k & 0xFFFFF, pa.int64()),
                "z_max": t.column("z_cm").cast(pa.int64()),
                "n_cells": t.column("n_cells").cast(pa.int64()),
            }
        )

    return (
        base.map_batches(fan, batch_format="pyarrow")
        .groupby("key")
        .aggregate(
            Max("z_cm", alias_name="z_cm"), Count(alias_name="n_cells")
        )
        .map_batches(unpack, batch_format="pyarrow")
    )


def dem_pyramid_sql(n_levels: int = 3, source: str = "documents") -> str:
    """DuckDB mirror of :func:`dem_pyramid` (shared D8 cell CTE; only
    fa_c is referenced)."""
    from .flowaccum import d8_walk_cte

    arms = " UNION ALL ".join(
        f"SELECT CAST({lvl} AS BIGINT) AS level, ci // {1 << lvl} AS pci, "
        f"cj // {1 << lvl} AS pcj, z FROM fa_c"
        for lvl in range(1, n_levels + 1)
    )
    return d8_walk_cte(source) + (
        f", pyr AS ({arms}) "
        "SELECT level, pci AS ci, pcj AS cj, CAST(MAX(z) AS BIGINT) AS z_max, "
        "CAST(count(*) AS BIGINT) AS n_cells "
        "FROM pyr GROUP BY level, pci, pcj"
    )
