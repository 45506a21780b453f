"""Distributed exact convex hull of the geocoded corpus.

The textbook distributed-geometry reduction: every global hull vertex
is a hull vertex of any subset containing it, so each batch reduces
to its LOCAL hull (Andrew monotone chain over exact integer-mm
coordinates), the few surviving candidates union into one task, and
the final chain runs there. The corpus never ships — per batch only
its hull (typically tens of points) crosses the wire.

Vertex-retention rule: the chain KEEPS collinear boundary points
(pops only on a strictly-right turn). That makes the emitted directed
CCW edge set EXACTLY the set characterized point-free in SQL — "(a,b)
such that every other distinct point is strictly left of the directed
line a->b" — because any point ON a hull edge's line is either a
chain vertex between a and b (so sub-edges never have interior
collinear points) or outside the hull (impossible). Integer cross
products make the test exact in both engines; degenerate all-collinear
inputs (empty edge set by the SQL rule) are not a corpus case.

Reference framing: the reference's computational-geometry surface is
Delaunay + PIP (LasUtility/DEM/*); the hull is the beyond-reference
sibling (SURVEY 2.11, geometry family).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .snap import point_mm


def _chain(px: np.ndarray, py: np.ndarray):
    """Monotone chain, keep-collinear variant; returns CCW vertex
    index order (first vertex = lexicographic minimum)."""
    pts = np.unique(np.stack([px, py], axis=1), axis=0)
    n = len(pts)
    if n == 1:
        return pts
    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                cross = (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox)
                if cross < 0:  # strictly right turn: pop
                    out.pop()
                else:
                    break
            out.append((int(p[0]), int(p[1])))
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1], dtype=np.int64)


def convex_hull_edges(docs_ds):
    """documents -> directed CCW hull edges (ax, ay, bx, by), exact
    integer mm."""
    import ray.data as rd

    from .cogroup import one_task

    def local_hull(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        px, py = point_mm(d)
        v = _chain(px, py)
        return pa.table(
            {"px": pa.array(v[:, 0], pa.int64()), "py": pa.array(v[:, 1], pa.int64())}
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        v = _chain(df["px"].to_numpy(np.int64), df["py"].to_numpy(np.int64))
        if len(v) < 2:
            return pd.DataFrame(
                {c: pd.Series([], dtype=np.int64) for c in ("ax", "ay", "bx", "by")}
            )
        nxt = np.roll(np.arange(len(v)), -1)
        return pd.DataFrame(
            {
                "ax": v[:, 0],
                "ay": v[:, 1],
                "bx": v[nxt, 0],
                "by": v[nxt, 1],
            }
        )

    return rd.from_pandas(
        one_task(
            lambda t: pd.DataFrame() if t is None else final(t.to_pandas()),
            docs_ds.map_batches(local_hull, batch_format="pyarrow"),
        )
    )


def convex_hull_edges_sql(source: str = "documents") -> str:
    """Point-free DuckDB mirror: directed pairs with every other
    distinct point strictly left — O(n^3), the definitional oracle."""
    from ..corpus.geocode import H1_MUL, H2_ADD, H2_MUL, M32
    from .snap import W

    h1 = f"((doc_id * {H1_MUL}) % {M32})"
    h2 = f"((doc_id * {H2_MUL} + {H2_ADD}) % {M32})"
    return (
        f"WITH ch_p AS (SELECT DISTINCT "
        f"CASE WHEN doc_id % 10 < 3 THEN 6000000 + (doc_id % 4) * 1000000 "
        f"+ {h1} % 1000000 ELSE {h1} % {W} END AS px, "
        f"CASE WHEN doc_id % 10 < 3 THEN 6000000 + {h2} % 1000000 "
        f"ELSE {h2} % {W} END AS py FROM {source}) "
        "SELECT a.px AS ax, a.py AS ay, b.px AS bx, b.py AS by "
        "FROM ch_p a, ch_p b WHERE (a.px <> b.px OR a.py <> b.py) "
        "AND NOT EXISTS (SELECT 1 FROM ch_p c "
        "WHERE (c.px <> a.px OR c.py <> a.py) "
        "AND (c.px <> b.px OR c.py <> b.py) "
        "AND (b.px - a.px) * (c.py - a.py) "
        "- (b.py - a.py) * (c.px - a.px) <= 0)"
    )
