"""Moran's I spatial autocorrelation over the 500 m DEM cell grid —
the standard "is this raster clustered or random?" diagnostic
(hot-spot screening before any interpolation is trusted).

Exact integer formulation: with per-cell values ``x`` (the cell-max
height in whole METERS — Moran's I is scale-invariant, and meters keep
every intermediate in int64), ``n`` cells, ``S = sum(x)`` and centered
integers ``d_i = n*x_i - S`` (= n^2 * (x_i - mean)):

    num = sum over rook-adjacent ordered pairs of d_i * d_j
    den = sum of d_i^2
    I   = (n * num) / (W * den)        (W = ordered rook pair count)

Both engines report the exact integers (n, W, num, den) plus
``i_e6 = floor(I * 1e6)`` computed with the positivity shift (num may
be negative; DuckDB // truncates) in HUGEINT / python int.

Shape at 100 TB: the cell table is the same CELL-SPACE-bounded groupby
as stages/demslope.py (48 x 48 over the work area, independent of
corpus size); the statistic reduces in one dense-grid task. Overflow
bounds asserted: |d| <= n*x_max + S ~ 4.6e6 at meters scale, so
num <= W * d^2 ~ 2e17 < 2^63.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .demslope import CELL_MM, NCELL

SHIFT = 10_000_000  # positivity shift for the final floor division


def morans_i(docs_ds):
    """documents -> one row (n_cells, w_pairs, num, den, i_e6)."""
    import ray.data as rd
    from ray.data.aggregate import Max

    from .cogroup import one_task
    from .snap import point_mm

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
        one_task(lambda t: pd.DataFrame() if t is None else morans_frame(t.to_pandas()), cell_max)
    )


def morans_frame(df: pd.DataFrame) -> pd.DataFrame:
    """In-task kernel: occupied-cell frame -> the exact statistic."""
    ci = df["ci"].to_numpy(np.int64)
    cj = df["cj"].to_numpy(np.int64)
    x = df["z_cm"].to_numpy(np.int64) // 100  # whole meters
    n = len(ci)
    s = int(x.sum())
    d = n * x - s
    # |d| < 2^23 keeps every pair product < 2^46 and the <= 4*NCELL^2
    # pair sum < 2^60 — all int64-safe
    assert int(np.abs(d).max(initial=0)) < (1 << 23), "meters-scale bound"
    grid = np.zeros((NCELL, NCELL), np.int64)
    occ = np.zeros((NCELL, NCELL), bool)
    grid[ci, cj] = d
    occ[ci, cj] = True
    num = 0
    w = 0
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ng = np.roll(grid, (-di, -dj), axis=(0, 1))
        no = np.roll(occ, (-di, -dj), axis=(0, 1))
        if di == 1:
            no[-1, :] = False
        elif di == -1:
            no[0, :] = False
        if dj == 1:
            no[:, -1] = False
        elif dj == -1:
            no[:, 0] = False
        both = occ & no
        num += int((grid[both] * ng[both]).sum())
        w += int(both.sum())
    den = int((d * d).sum())
    if w and den:
        i_e6 = (n * num * 1_000_000 + SHIFT * w * den) // (w * den) - SHIFT
    else:
        i_e6 = 0
    return pd.DataFrame(
        {
            "n_cells": [n],
            "w_pairs": [w],
            "num": [num],
            "den": [den],
            "i_e6": [i_e6],
        }
    )


def morans_sql(source: str = "documents") -> str:
    """DuckDB mirror of :func:`morans_i` — same cell table, rook
    self-join, HUGEINT shifted division."""
    from ..corpus.geocode import H1_MUL, H2_ADD, H2_MUL, M32
    from .snap import W

    h1 = f"((doc_id * {H1_MUL}) % {M32})"
    h2 = f"((doc_id * {H2_MUL} + {H2_ADD}) % {M32})"
    return (
        "WITH mi_p AS (SELECT "
        f"(CASE WHEN doc_id % 10 < 3 THEN 6000000 + (doc_id % 4) * 1000000 "
        f"+ {h1} % 1000000 ELSE {h1} % {W} END) // {CELL_MM} AS ci, "
        f"(CASE WHEN doc_id % 10 < 3 THEN 6000000 + {h2} % 1000000 "
        f"ELSE {h2} % {W} END) // {CELL_MM} AS cj, "
        f"{h1} % 100000 AS z FROM {source}), "
        "mi_c AS (SELECT ci, cj, MAX(z) // 100 AS x FROM mi_p GROUP BY ci, cj), "
        "mi_s AS (SELECT CAST(count(*) AS BIGINT) AS n, "
        "CAST(sum(x) AS BIGINT) AS s FROM mi_c), "
        "mi_d AS (SELECT ci, cj, mi_s.n * x - mi_s.s AS d FROM mi_c, mi_s), "
        "mi_w AS (SELECT CAST(count(*) AS BIGINT) AS w, "
        "CAST(sum(a.d * b.d) AS BIGINT) AS num "
        "FROM mi_d a JOIN mi_d b ON "
        "(abs(a.ci - b.ci) + abs(a.cj - b.cj)) = 1), "
        "mi_den AS (SELECT CAST(sum(d * d) AS BIGINT) AS den FROM mi_d) "
        "SELECT mi_s.n AS n_cells, mi_w.w AS w_pairs, mi_w.num, mi_den.den, "
        "CAST((mi_s.n::HUGEINT * mi_w.num * 1000000 "
        f"+ {SHIFT}::HUGEINT * mi_w.w * mi_den.den) "
        f"// (mi_w.w::HUGEINT * mi_den.den) - {SHIFT} AS BIGINT) AS i_e6 "
        "FROM mi_s, mi_w, mi_den"
    )
