"""Watershed basin labeling over the DEM cell grid: every occupied
500 m cell is labeled with the PIT its D8 drainage path terminates in
(the classic hydrology "watershed/basin delineation" raster analytic,
downstream of the same flow graph as stages/flowaccum.py), plus the
basin's cell count.

The D8 flow graph is a FUNCTIONAL graph (one out-edge per non-pit
cell, strictly-lower targets make it acyclic), so the basin label is
the fixed point of successor iteration — computed by POINTER DOUBLING
(successor squaring): p <- p[p] halves every remaining path length, so
ceil(log2(max path)) rounds suffice. Two bit-identical paths:

- one-task fast path (default): the occupied-cell table is bounded by
  the work-area cell space (48 x 48 at 500 m), so labels finish in a
  single dense numpy task — same justification as flow_accumulation.
- distributed=True: the same doubling as ceil(log2(n)) rounds of
  ``lookup_join(succ, succ, tgt -> cell)`` over (cell_key, tgt_key)
  rows — the shape that holds when the cell space ISN'T bounded
  (continental DEMs): each round is one bucketed equi-join, log
  rounds total, with a repartition coalesce per round (NOTES
  block-growth rule for iterative loops). Pits self-loop so the join
  stays total (inner).

SQL mirror: the shared recursive drainage walk (fa_w) of
``flowaccum.d8_walk_cte``; a walk row whose visited cell has no
outgoing flow edge IS the basin pit. Reference framing: beyond-
reference geometry family over the WriteAsAscii DEM surface
(LasUtility/DEM/*), SURVEY 2.11."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .demslope import CELL_MM, NCELL
from .flowaccum import OFFS, ZMAX, d8_walk_cte


def _flow_targets(df: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupied-cell frame -> (ci, cj, succ) with ``succ`` the row
    index of each cell's D8 flow target (pits self-loop). Same
    direction choice as ``flowaccum.accum_frame``."""
    ci = df["ci"].to_numpy(np.int64)
    cj = df["cj"].to_numpy(np.int64)
    z = df["z_cm"].to_numpy(np.int64)
    grid = np.zeros((NCELL, NCELL), np.int64)
    occ = np.zeros((NCELL, NCELL), bool)
    grid[ci, cj] = z
    occ[ci, cj] = True
    BIG = np.int64(1) << 40
    best_key = np.full((NCELL, NCELL), BIG, np.int64)
    best_k = np.full((NCELL, NCELL), -1, np.int64)
    for k, (di, dj) in enumerate(OFFS):
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
        valid = occ & no & (ng < grid)
        key = (ZMAX - (grid - ng)) * 8 + k
        upd = valid & (key < best_key)
        best_key[upd] = key[upd]
        best_k[upd] = k
    idx_of = np.full(NCELL * NCELL, -1, np.int64)
    idx_of[ci * NCELL + cj] = np.arange(len(ci), dtype=np.int64)
    kk = best_k[ci, cj]
    di = np.array([o[0] for o in OFFS], np.int64)
    dj = np.array([o[1] for o in OFFS], np.int64)
    succ = np.arange(len(ci), dtype=np.int64)  # pits self-loop
    has = kk >= 0
    succ[has] = idx_of[(ci[has] + di[kk[has]]) * NCELL + (cj[has] + dj[kk[has]])]
    return ci, cj, succ


def _label_frame(df: pd.DataFrame) -> pd.DataFrame:
    """One-task kernel: pointer-double succ to its fixed point, then
    attach basin sizes."""
    ci, cj, succ = _flow_targets(df)
    p = succ
    while True:
        p2 = p[p]
        if np.array_equal(p2, p):
            break
        p = p2
    bci, bcj = ci[p], cj[p]
    key = bci * NCELL + bcj
    uniq, inv, cnt = np.unique(key, return_inverse=True, return_counts=True)
    return pd.DataFrame(
        {
            "ci": ci,
            "cj": cj,
            "bci": bci,
            "bcj": bcj,
            "basin_n": cnt[inv].astype(np.int64),
        }
    )


def _cells_ds(docs_ds):
    from ray.data.aggregate import Max

    from .snap import point_mm

    def cells(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        px, py = point_mm(d)
        h1 = (d * 2654435761) % 4294967296
        return pa.table(
            {
                "ci": pa.array(px // CELL_MM, pa.int64()),
                "cj": pa.array(py // CELL_MM, pa.int64()),
                "z_cm": pa.array(h1 % ZMAX, pa.int64()),
            }
        )

    return (
        docs_ds.map_batches(cells, batch_format="pyarrow")
        .groupby(["ci", "cj"])
        .aggregate(Max("z_cm", alias_name="z_cm"))
    )


def watershed_labels(docs_ds, distributed: bool = False):
    """documents -> (ci, cj, bci, bcj, basin_n) per occupied cell."""
    import ray.data as rd

    from .cogroup import one_task

    cell_max = _cells_ds(docs_ds)
    if not distributed:
        return rd.from_pandas(
            one_task(
                lambda t: pd.DataFrame() if t is None else _label_frame(t.to_pandas()),
                cell_max,
            )
        )
    return _watershed_distributed(cell_max)


def _watershed_distributed(cell_max):
    """Pointer doubling as ceil(log2(n)) bucketed joins over
    (cell, tgt) int64-key rows — the unbounded-cell-space shape."""
    import ray.data as rd

    from .cogroup import capped_n_buckets, lookup_join, one_task

    def edges(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        ci, cj, succ = _flow_targets(df)
        cell = ci * NCELL + cj
        return pa.table(
            {
                "cell": pa.array(cell, pa.int64()),
                "tgt": pa.array(ci[succ] * NCELL + cj[succ], pa.int64()),
            }
        )

    # the flow-target choice needs each cell's neighborhood; a halo
    # exchange would localize it, but the cell table is bounded here —
    # build edges in one task, then run the DOUBLING distributed (the
    # doubling is the corpus-scale part: rounds of equi-joins)
    succ_t = one_task(edges, cell_max)
    n = succ_t.num_rows
    n_blocks = capped_n_buckets(n)
    succ = rd.from_arrow(succ_t).repartition(n_blocks).materialize()
    rounds = max(1, int(np.ceil(np.log2(max(n, 2)))))
    for _ in range(rounds):
        succ = (
            lookup_join(succ, succ, "tgt", "cell", {"tgt": "tgt2"})
            .drop_columns(["tgt"])
            .rename_columns({"tgt2": "tgt"})
            .repartition(n_blocks)
            .materialize()
        )

    sizes = succ.groupby("tgt").count().rename_columns({"count()": "basin_n"})
    out = lookup_join(succ, sizes, "tgt", "tgt", {"basin_n": "basin_n"})

    def unpack(t: pa.Table) -> pa.Table:
        cell = t.column("cell").to_numpy()
        tgt = t.column("tgt").to_numpy()
        return pa.table(
            {
                "ci": pa.array(cell // NCELL, pa.int64()),
                "cj": pa.array(cell % NCELL, pa.int64()),
                "bci": pa.array(tgt // NCELL, pa.int64()),
                "bcj": pa.array(tgt % NCELL, pa.int64()),
                "basin_n": t.column("basin_n").cast(pa.int64()),
            }
        )

    return out.map_batches(unpack, batch_format="pyarrow")


def watershed_sql(source: str = "documents") -> str:
    """DuckDB mirror: the shared D8 drainage walk; the basin pit is
    the visited cell with no outgoing flow edge; basin sizes by one
    group-over-pits."""
    return d8_walk_cte(source) + (
        ", ws_t AS (SELECT w.sci AS ci, w.scj AS cj, w.ci AS bci, w.cj AS bcj "
        "FROM fa_w w WHERE NOT EXISTS ("
        "SELECT 1 FROM fa_f f WHERE f.ci = w.ci AND f.cj = w.cj)), "
        "ws_n AS (SELECT bci, bcj, CAST(count(*) AS BIGINT) AS basin_n "
        "FROM ws_t GROUP BY bci, bcj) "
        "SELECT t.ci, t.cj, t.bci, t.bcj, n.basin_n "
        "FROM ws_t t JOIN ws_n n ON n.bci = t.bci AND n.bcj = t.bcj"
    )
