"""Contour extraction (midpoint marching squares) from the 500 m DEM
cell grid: every fully-occupied 2x2 cell block whose corners straddle
the threshold emits the standard case-table segments with endpoints
at edge MIDPOINTS — coordinates carried in doubled integer units so
the whole geometry stays int64-exact (no interpolation floats). The
two ambiguous saddle cases (5/10) use a fixed convention, emitted
identically by both engines.

Shape: the cell table is the usual bounded map-side-partial groupby;
block assembly is ONE self-join free pass — each cell's z rides to
the block anchor via a 4-way halo-free union keyed on the anchor
(every cell contributes to <= 4 blocks), then one anchor-bucket
groupby assembles corners and applies the case table vectorized. SQL
mirror: a literal (case, slot, edges) VALUES table generated from the
SAME python table, joined to the 4-corner self-join."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .demslope import NCELL

Z_THRESH = 50_000  # cm — ~median of the synthetic z field

# edges: T(op) R(ight) B(ottom) L(eft); corner bits a=(i,j)=1,
# b=(i,j+1)=2, c=(i+1,j+1)=4, d=(i+1,j)=8; inside = z >= T
_SEGS = {
    1: [("L", "T")],
    2: [("T", "R")],
    3: [("L", "R")],
    4: [("R", "B")],
    5: [("L", "T"), ("R", "B")],
    6: [("T", "B")],
    7: [("L", "B")],
    8: [("B", "L")],
    9: [("T", "B")],
    10: [("T", "R"), ("B", "L")],
    11: [("R", "B")],
    12: [("L", "R")],
    13: [("T", "R")],
    14: [("L", "T")],
}


def _edge_coords(edge: np.ndarray, i: np.ndarray, j: np.ndarray):
    """(r, c) midpoint in doubled units for edge ids 0=T 1=R 2=B 3=L."""
    r = np.select(
        [edge == 0, edge == 1, edge == 2, edge == 3],
        [2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 1],
    )
    c = np.select(
        [edge == 0, edge == 1, edge == 2, edge == 3],
        [2 * j + 1, 2 * j + 2, 2 * j + 1, 2 * j],
    )
    return r, c


_EDGE_ID = {"T": 0, "R": 1, "B": 2, "L": 3}
# flat lookup arrays: case*2 + slot -> (e1, e2) or -1
_E1 = np.full(32, -1, np.int64)
_E2 = np.full(32, -1, np.int64)
for _case, _pairs in _SEGS.items():
    for _s, (_a, _b) in enumerate(_pairs):
        _E1[_case * 2 + _s] = _EDGE_ID[_a]
        _E2[_case * 2 + _s] = _EDGE_ID[_b]


def contour_segments(docs_ds, thresh: int = Z_THRESH):
    """documents -> (r1, c1, r2, c2) contour segments in doubled cell
    units, endpoint-ordered for a stable compare."""
    from .watershed import _cells_ds

    def blocks(t: pa.Table) -> pa.Table:
        ci = t.column("ci").to_numpy()
        cj = t.column("cj").to_numpy()
        z = t.column("z_cm").to_numpy()
        # each cell rides to up to 4 block anchors with its corner tag
        outs = []
        for di, dj, bit in ((0, 0, 1), (0, 1, 2), (1, 1, 4), (1, 0, 8)):
            ai, aj = ci - di, cj - dj
            ok = (ai >= 0) & (aj >= 0)
            outs.append(
                pd.DataFrame(
                    {
                        "anchor": ai[ok] * NCELL + aj[ok],
                        "bit": np.full(int(ok.sum()), bit, np.int64),
                        "z": z[ok],
                    }
                )
            )
        df = pd.concat(outs, ignore_index=True)
        return pa.Table.from_pandas(df, preserve_index=False)

    def march(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.groupby("anchor", sort=False)["bit"].count()
        full = cnt[cnt == 4].index  # all four corners occupied
        sub = g[g["anchor"].isin(full)]
        if not len(sub):
            return pd.DataFrame(
                {c: pd.Series([], dtype=np.int64)
                 for c in ("r1", "c1", "r2", "c2")}
            )
        inside = (sub["z"].to_numpy() >= thresh).astype(np.int64)
        case = (
            pd.Series(inside * sub["bit"].to_numpy())
            .groupby(sub["anchor"].to_numpy(), sort=False)
            .sum()
        )
        anchors = case.index.to_numpy(np.int64)
        cs = case.to_numpy(np.int64)
        i = anchors // NCELL
        j = anchors % NCELL
        rows = []
        for slot in (0, 1):
            e1 = _E1[cs * 2 + slot]
            e2 = _E2[cs * 2 + slot]
            ok = e1 >= 0
            r1, c1 = _edge_coords(e1[ok], i[ok], j[ok])
            r2, c2 = _edge_coords(e2[ok], i[ok], j[ok])
            # endpoint order normalization: (r, c) lexicographic
            swap = (r1 > r2) | ((r1 == r2) & (c1 > c2))
            rows.append(
                pd.DataFrame(
                    {
                        "r1": np.where(swap, r2, r1),
                        "c1": np.where(swap, c2, c1),
                        "r2": np.where(swap, r1, r2),
                        "c2": np.where(swap, c1, c2),
                    }
                )
            )
        return pd.concat(rows, ignore_index=True).astype(np.int64)

    from .cogroup import shuffle_by

    return shuffle_by(
        _cells_ds(docs_ds).map_batches(blocks, batch_format="pyarrow"), "anchor", march
    )


def contour_sql(thresh: int = Z_THRESH, source: str = "documents") -> str:
    """DuckDB mirror: 4-corner self-join on the shared cell CTE + the
    SAME (case, slot, e1, e2) table as literal VALUES rows."""
    from .flowaccum import d8_walk_cte

    vals = ", ".join(
        f"({case}, {s}, {_EDGE_ID[a]}, {_EDGE_ID[b]})"
        for case, pairs in _SEGS.items()
        for s, (a, b) in enumerate(pairs)
    )

    def coord_r(e: str) -> str:
        return (
            f"CASE {e} WHEN 0 THEN 2*a.ci WHEN 1 THEN 2*a.ci+1 "
            f"WHEN 2 THEN 2*a.ci+2 ELSE 2*a.ci+1 END"
        )

    def coord_c(e: str) -> str:
        return (
            f"CASE {e} WHEN 0 THEN 2*a.cj+1 WHEN 1 THEN 2*a.cj+2 "
            f"WHEN 2 THEN 2*a.cj+1 ELSE 2*a.cj END"
        )

    return d8_walk_cte(source) + (
        ", ct_case AS (SELECT a.ci, a.cj, "
        f"(CASE WHEN a.z >= {thresh} THEN 1 ELSE 0 END) + "
        f"(CASE WHEN b.z >= {thresh} THEN 2 ELSE 0 END) + "
        f"(CASE WHEN c.z >= {thresh} THEN 4 ELSE 0 END) + "
        f"(CASE WHEN d.z >= {thresh} THEN 8 ELSE 0 END) AS cs "
        "FROM fa_c a JOIN fa_c b ON b.ci = a.ci AND b.cj = a.cj + 1 "
        "JOIN fa_c c ON c.ci = a.ci + 1 AND c.cj = a.cj + 1 "
        "JOIN fa_c d ON d.ci = a.ci + 1 AND d.cj = a.cj), "
        f"ct_t(cs, slot, e1, e2) AS (VALUES {vals}), "
        "ct_s AS (SELECT "
        f"{coord_r('t.e1')} AS ra, {coord_c('t.e1')} AS ca, "
        f"{coord_r('t.e2')} AS rb, {coord_c('t.e2')} AS cb "
        "FROM ct_case a JOIN ct_t t ON t.cs = a.cs) "
        "SELECT CAST(CASE WHEN ra < rb OR (ra = rb AND ca <= cb) "
        "THEN ra ELSE rb END AS BIGINT) AS r1, "
        "CAST(CASE WHEN ra < rb OR (ra = rb AND ca <= cb) "
        "THEN ca ELSE cb END AS BIGINT) AS c1, "
        "CAST(CASE WHEN ra < rb OR (ra = rb AND ca <= cb) "
        "THEN rb ELSE ra END AS BIGINT) AS r2, "
        "CAST(CASE WHEN ra < rb OR (ra = rb AND ca <= cb) "
        "THEN cb ELSE ca END AS BIGINT) AS c2 "
        "FROM ct_s"
    )
