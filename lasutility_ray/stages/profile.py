"""Dataset profiling: per-column row/null counts, EXACT distinct
cardinality, and min/max — the schema-discovery/data-quality pass a
pipeline runs before committing 100 TB of compute to a corpus (find
the all-null column, the constant column, the key that isn't unique
BEFORE the join explodes).

Shape: counts/min/max reduce through per-batch PARTIAL rows (one row
per column per batch) into a column-keyed groupby — bounded by
column count, one corpus pass. Exact distinct is its own slim
(col, value) exchange with per-batch pre-dedup, the engine's distinct
idiom; for long-text columns that shuffle carries the values
themselves (exactness contract — the HLL sketch in stages/sketch.py
is the documented approximation when that's too dear). Min/max use
binary collation on strings, matching DuckDB's default; values are
surfaced as VARCHAR so one profile row type covers every column."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def profile_table(ds, cols: list[str]):
    """-> one row per column: (col, n_rows, n_null, n_distinct,
    min_v, max_v) with min/max rendered as strings."""
    from .cogroup import lookup_join, shuffle_by

    def partials(t: pa.Table) -> pa.Table:
        rows = []
        for c in cols:
            col = t.column(c)
            n = len(col)
            n_null = col.null_count
            vals = col.drop_null()
            kind = "i" if pa.types.is_integer(col.type) else "s"
            if len(vals) == 0:
                mn = mx = None
            else:
                arr = vals.to_pandas()
                mn, mx = arr.min(), arr.max()
            rows.append((c, kind, n, n_null, _as_str(mn), _as_str(mx)))
        out = pd.DataFrame(
            rows, columns=["col", "kind", "n", "n_null", "mn", "mx"]
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    def distincts(t: pa.Table) -> pa.Table:
        frames = []
        for c in cols:
            vals = t.column(c).drop_null()
            u = pd.unique(vals.to_pandas().map(_as_str))
            frames.append(pd.DataFrame({"col": c, "val": u}))
        df = pd.concat(frames, ignore_index=True)
        return pa.Table.from_pandas(df, preserve_index=False)

    def uniq_count(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.drop_duplicates(["col", "val"])
            .groupby("col", sort=False)
            .size()
            .reset_index(name="nd_part")
        )

    def merge_counts(g: pd.DataFrame) -> pd.DataFrame:
        # integer columns merge their stringified partials numerically
        # (string order would rank "62" above "499")
        def mn_of(s, kind):
            vals = [v for v in s if v is not None]
            if not vals:
                return None
            return (
                str(min(int(v) for v in vals)) if kind == "i" else min(vals)
            )

        def mx_of(s, kind):
            vals = [v for v in s if v is not None]
            if not vals:
                return None
            return (
                str(max(int(v) for v in vals)) if kind == "i" else max(vals)
            )

        rows = []
        for c, sub in g.groupby("col", sort=False):
            kind = sub["kind"].iloc[0]
            rows.append(
                (
                    c,
                    int(sub["n"].sum()),
                    int(sub["n_null"].sum()),
                    mn_of(sub["mn"], kind),
                    mx_of(sub["mx"], kind),
                )
            )
        return pd.DataFrame(
            rows, columns=["col", "n_rows", "n_null", "min_v", "max_v"]
        )

    counts = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("col")
        .map_groups(merge_counts, batch_format="pandas")
        .materialize()
    )
    nd = (
        shuffle_by(ds.map_batches(distincts, batch_format="pyarrow"), "val", uniq_count)
        .groupby("col")
        .sum("nd_part")
        .map_batches(
            # arrow normalization: the groupby emits pandas-lineage
            # blocks Dataset.rename_columns can't project
            lambda t: pa.table(
                {"col": t.column("col"), "n_distinct": t.column("sum(nd_part)")}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    out = lookup_join(
        counts,
        nd,
        "col",
        "col",
        {"n_distinct": "n_distinct"},
        type_overrides={
            "col": pa.string(),
            "min_v": pa.string(),
            "max_v": pa.string(),
        },
    )

    def order(t: pa.Table) -> pa.Table:
        return t.select(
            ["col", "n_rows", "n_null", "n_distinct", "min_v", "max_v"]
        ).set_column(
            3, "n_distinct", t.column("n_distinct").cast(pa.int64())
        )

    return out.map_batches(order, batch_format="pyarrow")


def _as_str(v):
    if v is None:
        return None
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    return str(v)


def profile_sql(cols: list[str], source: str = "documents") -> str:
    """DuckDB mirror: one UNION ALL arm per column."""
    arms = []
    for c in cols:
        arms.append(
            f"SELECT '{c}' AS col, count(*) AS n_rows, "
            f"count(*) - count({c}) AS n_null, "
            f"count(DISTINCT {c}) AS n_distinct, "
            f"CAST(min({c}) AS VARCHAR) AS min_v, "
            f"CAST(max({c}) AS VARCHAR) AS max_v FROM {source}"
        )
    return " UNION ALL ".join(arms)
