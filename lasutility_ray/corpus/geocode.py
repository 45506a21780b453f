"""Deterministic geocoding: doc_id -> (x, y, z, classification).

Every page is geocoded to a synthetic ETRS-TM35FIN point inside a
compact 24x24 km work area (the reference processes one municipality
of 1 km blocks at a time, ``Nls/PointCloud05p.cs:74-88``); a fixed
30% of docs are concentrated into 4 "urban" 1 km tiles to exercise
key skew (SURVEY.md §4).

All formulas are exact int64 / IEEE-float64 arithmetic reproducible
in DuckDB SQL — ``sql_exprs()`` returns the mirroring SQL snippets so
oracle queries stay bit-identical. Classifications come from the
``Nls/PointCloud05p.cs`` value set (Ground=2).
"""

from __future__ import annotations

import numpy as np

# work area: 24x24 km => 576 one-km tiles, inside the valid envelope
AREA_MIN_E = 350000
AREA_MIN_N = 6700000
AREA_SIZE = 24000

# 4 urban 1-km tiles holding 30% of all docs (skew fixture)
URBAN_MIN_E = 356000  # tiles at 356,357,358,359 km east
URBAN_MIN_N = 6706000

# multiplicative hash constants (Knuth / xxhash public primes)
H1_MUL = 2654435761
H2_MUL = 2246822519
H2_ADD = 3266489917
M32 = 4294967296

# classification draw: Ground(2) 40%, rest from PointCloud05p set
CLASS_TABLE = (2, 2, 2, 2, 1, 3, 4, 5, 16, 17)
GROUND = 2


def hashes(doc_id: np.ndarray):
    doc_id = np.asarray(doc_id, dtype=np.int64)
    h1 = (doc_id * H1_MUL) % M32
    h2 = (doc_id * H2_MUL + H2_ADD) % M32
    return h1, h2


def geocode(doc_id: np.ndarray):
    """Returns (x, y, z, classification, is_ground) float64/uint8."""
    doc_id = np.asarray(doc_id, dtype=np.int64)
    h1, h2 = hashes(doc_id)

    urban = (doc_id % 10) < 3
    ux = (URBAN_MIN_E + (doc_id % 4) * 1000).astype(np.float64) + (h1 % 1000000) / 1000.0
    uy = float(URBAN_MIN_N) + (h2 % 1000000) / 1000.0
    rx = float(AREA_MIN_E) + (h1 % (AREA_SIZE * 1000)) / 1000.0
    ry = float(AREA_MIN_N) + (h2 % (AREA_SIZE * 1000)) / 1000.0

    x = np.where(urban, ux, rx)
    y = np.where(urban, uy, ry)
    z = (h1 % 100000) / 100.0
    cls = np.asarray(CLASS_TABLE, dtype=np.uint8)[h2 % 10]
    return x, y, z, cls, cls == GROUND


def sql_exprs(doc_col: str = "doc_id") -> dict[str, str]:
    """DuckDB SQL expressions mirroring :func:`geocode` exactly.

    Integer ops are int64-exact; float divisions are IEEE double in
    both numpy and DuckDB, so values hash identically.
    """
    h1 = f"(({doc_col} * {H1_MUL}) % {M32})"
    h2 = f"(({doc_col} * {H2_MUL} + {H2_ADD}) % {M32})"
    urban = f"(({doc_col} % 10) < 3)"
    ux = f"(CAST({URBAN_MIN_E} + ({doc_col} % 4) * 1000 AS DOUBLE) + ({h1} % 1000000) / 1000.0)"
    uy = f"(CAST({URBAN_MIN_N} AS DOUBLE) + ({h2} % 1000000) / 1000.0)"
    rx = f"(CAST({AREA_MIN_E} AS DOUBLE) + ({h1} % {AREA_SIZE * 1000}) / 1000.0)"
    ry = f"(CAST({AREA_MIN_N} AS DOUBLE) + ({h2} % {AREA_SIZE * 1000}) / 1000.0)"
    cls_list = ", ".join(str(c) for c in CLASS_TABLE)
    return {
        "h1": h1,
        "h2": h2,
        "x": f"(CASE WHEN {urban} THEN {ux} ELSE {rx} END)",
        "y": f"(CASE WHEN {urban} THEN {uy} ELSE {ry} END)",
        "z": f"(({h1} % 100000) / 100.0)",
        "classification": f"([{cls_list}][CAST({h2} % 10 AS INT) + 1])",
        "is_ground": f"([{cls_list}][CAST({h2} % 10 AS INT) + 1] = {GROUND})",
    }


def tile_name_sql_ctes(src: str, x_expr: str = "x", y_expr: str = "y") -> str:
    """SQL CTE chain computing the exact 1 km NLS tile name from
    (x, y) columns of CTE/view ``src`` — mirrors
    ``geom.tilenamer.encode(..., 1000)`` level by level
    (TileNamer.cs:314-481). Produces CTE ``tiled`` = ``src`` plus a
    ``tile_id`` column."""
    return f"""
tn0 AS (SELECT *, CAST(floor({x_expr}) AS BIGINT) AS ei,
                  CAST(floor({y_expr}) AS BIGINT) AS ni FROM {src}),
tn1 AS (SELECT *, (ei + 76000) // 192000 AS ie0,
                  (ni - 6570000) // 96000 AS in0 FROM tn0),
tn2 AS (SELECT *, -76000 + ie0 * 192000 AS me0,
                  6570000 + in0 * 96000 AS mn0 FROM tn1),
tn3 AS (SELECT *, (ei - me0) // 96000 AS de1, (ni - mn0) // 48000 AS dn1 FROM tn2),
tn4 AS (SELECT *, me0 + de1 * 96000 AS me1, mn0 + dn1 * 48000 AS mn1 FROM tn3),
tn5 AS (SELECT *, (ei - me1) // 48000 AS de2, (ni - mn1) // 24000 AS dn2 FROM tn4),
tn6 AS (SELECT *, me1 + de2 * 48000 AS me2, mn1 + dn2 * 24000 AS mn2 FROM tn5),
tn7 AS (SELECT *, (ei - me2) // 24000 AS de3, (ni - mn2) // 12000 AS dn3 FROM tn6),
tn8 AS (SELECT *, me2 + de3 * 24000 AS me3, mn2 + dn3 * 12000 AS mn3 FROM tn7),
tn9 AS (SELECT *, (ei - me3) // 6000 AS ie4, (ni - mn3) // 6000 AS in4 FROM tn8),
tn10 AS (SELECT *, me3 + ie4 * 6000 AS me4, mn3 + in4 * 6000 AS mn4 FROM tn9),
tn11 AS (SELECT *, (ei - me4) // 3000 AS de5, (ni - mn4) // 3000 AS dn5 FROM tn10),
tn12 AS (SELECT *, me4 + de5 * 3000 AS me5, mn4 + dn5 * 3000 AS mn5 FROM tn11),
tiled AS (
  SELECT *,
    substr('KLMNPQRSTUVWX', CAST(in0 + 1 AS INT), 1)
    || CAST(ie0 + 2 AS VARCHAR)
    || CAST(1 + dn1 + 2 * de1 AS VARCHAR)
    || CAST(1 + dn2 + 2 * de2 AS VARCHAR)
    || CAST(1 + dn3 + 2 * de3 AS VARCHAR)
    || substr('ABCDEFGH', CAST(2 * ie4 + in4 + 1 AS INT), 1)
    || CAST(1 + dn5 + 2 * de5 AS VARCHAR)
    || '_' || CAST(1 + ((ni - mn5) // 1000) + 3 * ((ei - me5) // 1000) AS VARCHAR)
    AS tile_id
  FROM tn12)
"""
