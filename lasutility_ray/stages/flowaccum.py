"""D8 flow accumulation over the DEM cell grid — the classic
hydrology raster analytic (upstream contributing-cell counts): each
occupied cell drains to its steepest strictly-lower D8 neighbor, and
a cell's accumulation is the number of cells (itself included) whose
drainage path passes through it.

Determinism: the flow direction is argmax drop over the 8 neighbors
with ties broken by a FIXED neighbor order (rook then diagonals,
index k below) — encoded as one integer key ``(zmax - drop) * 8 + k``
minimized per cell, reproduced verbatim by the SQL mirror's
``row_number() OVER (ORDER BY drop DESC, k)``. Strictly-lower targets
make the flow graph acyclic, so processing cells in descending-z
order and pushing counts downstream is exact; the mirror counts the
same (source, visited) pairs with a recursive CTE walk.

Shape at 100 TB: identical to stages/demslope.py — map-side per-cell
max partials -> ONE groupby over the CELL SPACE (48 x 48 at 500 m,
bounded by the work area, independent of corpus size) -> the bounded
cell table finishes in one dense-grid task (per-offset rolls + one
<= n_cells pointer-push loop). No per-document structure ever leaves
the groupby.

Reference framing: downstream analytic on the WriteAsAscii DEM raster
surface (LasUtility/DEM/*), beyond-reference geometry family
(SURVEY 2.11).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .demslope import CELL_MM, NCELL

ZMAX = 100_000  # z_cm lives in [0, ZMAX)
# neighbor order: rook first, then diagonals — the tie-break rank
OFFS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def flow_accumulation(docs_ds):
    """documents -> (ci, cj, z_cm, acc) per occupied 500 m cell."""
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
                "z_cm": pa.array(h1 % ZMAX, pa.int64()),
            }
        )

    cell_max = (
        docs_ds.map_batches(cells, batch_format="pyarrow")
        .groupby(["ci", "cj"])
        .aggregate(Max("z_cm", alias_name="z_cm"))
    )
    return rd.from_pandas(
        one_task(lambda t: pd.DataFrame() if t is None else accum_frame(t.to_pandas()), cell_max)
    )


def accum_frame(df: pd.DataFrame) -> pd.DataFrame:
    """In-task kernel: occupied-cell frame -> per-cell accumulation."""
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
        # ng[i, j] = grid[i + di, j + dj]
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
    # per-cell flow target as a flat index (or -1 for pits)
    idx_of = np.full(NCELL * NCELL, -1, np.int64)
    flat = ci * NCELL + cj
    idx_of[flat] = np.arange(len(ci), dtype=np.int64)
    kk = best_k[ci, cj]
    di = np.array([o[0] for o in OFFS], np.int64)
    dj = np.array([o[1] for o in OFFS], np.int64)
    has = kk >= 0
    tgt = np.full(len(ci), -1, np.int64)
    tgt[has] = idx_of[(ci[has] + di[kk[has]]) * NCELL + (cj[has] + dj[kk[has]])]
    # push counts downstream in descending-z order (acyclic: targets
    # are strictly lower, equal-z cells never link)
    acc = np.ones(len(ci), np.int64)
    order = np.argsort(-z, kind="stable")
    for i in order.tolist():
        t = tgt[i]
        if t >= 0:
            acc[t] += acc[i]
    return pd.DataFrame(
        {
            "ci": ci,
            "cj": cj,
            "z_cm": z,
            "acc": acc,
        }
    )


def d8_walk_cte(source: str = "documents") -> str:
    """Shared D8 CTE prefix (cells fa_c, flow edges fa_f, recursive
    drainage walk fa_w) used by both the flow-accumulation and
    watershed mirrors."""
    from ..corpus.geocode import H1_MUL, H2_ADD, H2_MUL, M32
    from .snap import W

    h1 = f"((doc_id * {H1_MUL}) % {M32})"
    h2 = f"((doc_id * {H2_MUL} + {H2_ADD}) % {M32})"
    k_case = " ".join(
        f"WHEN b.ci - a.ci = {di} AND b.cj - a.cj = {dj} THEN {k}"
        for k, (di, dj) in enumerate(OFFS)
    )
    return (
        "WITH RECURSIVE fa_p AS (SELECT "
        f"(CASE WHEN doc_id % 10 < 3 THEN 6000000 + (doc_id % 4) * 1000000 "
        f"+ {h1} % 1000000 ELSE {h1} % {W} END) // {CELL_MM} AS ci, "
        f"(CASE WHEN doc_id % 10 < 3 THEN 6000000 + {h2} % 1000000 "
        f"ELSE {h2} % {W} END) // {CELL_MM} AS cj, "
        f"{h1} % {ZMAX} AS z FROM {source}), "
        "fa_c AS (SELECT ci, cj, MAX(z) AS z FROM fa_p GROUP BY ci, cj), "
        "fa_f AS (SELECT ci, cj, tci, tcj FROM ("
        "SELECT a.ci, a.cj, b.ci AS tci, b.cj AS tcj, "
        "row_number() OVER (PARTITION BY a.ci, a.cj "
        f"ORDER BY (a.z - b.z) DESC, CASE {k_case} END) AS rn "
        "FROM fa_c a JOIN fa_c b ON abs(a.ci - b.ci) <= 1 "
        "AND abs(a.cj - b.cj) <= 1 "
        "AND NOT (a.ci = b.ci AND a.cj = b.cj) AND b.z < a.z) WHERE rn = 1), "
        "fa_w(sci, scj, ci, cj) AS ("
        "SELECT ci, cj, ci, cj FROM fa_c "
        "UNION ALL "
        "SELECT w.sci, w.scj, f.tci, f.tcj FROM fa_w w "
        "JOIN fa_f f ON f.ci = w.ci AND f.cj = w.cj) "
    )


def flow_accumulation_sql(source: str = "documents") -> str:
    """DuckDB mirror of :func:`flow_accumulation` — same cell table,
    row_number flow choice, recursive-CTE drainage walk."""
    return d8_walk_cte(source) + (
        "SELECT c.ci, c.cj, c.z AS z_cm, CAST(count(*) AS BIGINT) AS acc "
        "FROM fa_w w JOIN fa_c c ON c.ci = w.ci AND c.cj = w.cj "
        "GROUP BY 1, 2, 3"
    )
