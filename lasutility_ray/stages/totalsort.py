"""Exact distributed TOTAL ORDER (the terasort shape) without
``Dataset.sort``: sample-chosen range split points -> one range-bucket
shuffle -> in-bucket vectorized sort with LOCAL ranks -> bounded
per-bucket counts turn into global rank offsets on the driver (one
int per bucket) -> a final map adds the offset. The global rank of
every row is exact for ANY split points (they affect balance only,
never correctness), which is the property that makes sampled
splitting safe at 100 TB.

The sort key is fused into one int64 — (MAXC - n_chars) << 32 |
doc_id gives (n_chars DESC, doc_id ASC) — so bucketing, sorting and
the SQL mirror's ORDER BY agree bit-for-bit."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

MAXC = 1 << 31


def total_sort_ranks(docs_ds, sample_n: int = 4096):
    """documents -> (rank, doc_id, n_chars) with rank = the exact
    1-based position under ORDER BY (n_chars DESC, doc_id ASC)."""
    from .cogroup import n_buckets_for

    def keyed(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy()
        c = t.column("n_chars").to_numpy()
        # the fused key is only a total order when both components fit
        # their bit fields: (MAXC - n_chars) needs n_chars >= 1 to stay
        # below 2^31 (n_chars == 0 would overflow int64 after the
        # shift) and doc_id needs < 2^32 to not bleed into the
        # n_chars field. Refuse loudly instead of mis-ranking.
        if len(c) and (c.min() < 1 or c.max() >= MAXC):
            raise ValueError("total_sort_ranks: n_chars outside [1, 2^31)")
        if len(d) and (d.min() < 0 or d.max() >= (1 << 32)):
            raise ValueError("total_sort_ranks: doc_id outside [0, 2^32)")
        key = (MAXC - c.astype(np.int64)) * (np.int64(1) << 32) + d
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "doc_id": pa.array(d, pa.int64()),
                "n_chars": pa.array(c, pa.int64()),
            }
        )

    slim = docs_ds.map_batches(keyed, batch_format="pyarrow").materialize()
    nb = n_buckets_for(slim)

    # deterministic sample -> nb-1 split points (balance only)
    sample = slim.limit(sample_n).to_pandas()["key"].to_numpy()
    sample.sort()
    if len(sample) == 0:
        splits = np.empty(0, np.int64)
    else:
        qs = np.linspace(0, len(sample) - 1, nb + 1)[1:-1]
        splits = np.unique(sample[qs.astype(np.int64)])

    def bucketed(t: pa.Table) -> pa.Table:
        b = np.searchsorted(splits, t.column("key").to_numpy(), side="right")
        return t.append_column("__bucket", pa.array(b.astype(np.int64)))

    bucketed_ds = slim.map_batches(bucketed, batch_format="pyarrow")

    def local_sort(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("key", kind="mergesort").reset_index(drop=True)
        g["__local"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["__bucket", "key", "doc_id", "n_chars", "__local"]]

    ranked = (
        bucketed_ds.groupby("__bucket")
        .map_groups(local_sort, batch_format="pandas")
        .materialize()
    )

    # bounded per-bucket counts -> exclusive prefix offsets
    cnt = (
        ranked.groupby("__bucket").count().to_pandas().sort_values("__bucket")
    )
    ids = cnt["__bucket"].to_numpy(np.int64)
    ns = cnt["count()"].to_numpy(np.int64)
    offs = np.zeros(len(ns), np.int64)
    offs[1:] = np.cumsum(ns)[:-1]

    def finalize(t: pa.Table) -> pa.Table:
        base = offs[np.searchsorted(ids, t.column("__bucket").to_numpy())]
        return pa.table(
            {
                "rank": pa.array(base + t.column("__local").to_numpy(), pa.int64()),
                "doc_id": t.column("doc_id"),
                "n_chars": t.column("n_chars"),
            }
        )

    return ranked.map_batches(finalize, batch_format="pyarrow")


def total_sort_sql(source: str = "documents") -> str:
    """DuckDB mirror of :func:`total_sort_ranks`."""
    return (
        "SELECT CAST(row_number() OVER "
        "(ORDER BY n_chars DESC, doc_id) AS BIGINT) AS rank, "
        f"doc_id, n_chars FROM {source}"
    )
