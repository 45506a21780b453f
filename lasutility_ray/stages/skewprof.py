"""Key-distribution skew profiler — the diagnostic that tells a
pipeline author whether a planned groupby/join key needs salting
(e.g. ``cogroup.lookup_join``'s ``n_salt``) BEFORE the shuffle runs.

Profiles the distribution of per-key row counts for any integer key
and emits one row of integerized statistics, all value-exact vs the
SQL mirror:

- ``n_keys``, ``n_rows``, ``max_count``: basics
- ``top10_share_micro``: floor(1e6 * rows-in-10-heaviest-keys / rows)
- ``p50_count`` / ``p90_count`` / ``p99_count``: exact count
  quantiles (nearest-rank over keys ordered by (count, key))
- ``gini_micro``: floor(1e6 * G) where, over counts c_1..c_n sorted
  ascending, G = (2*sum(i*c_i) - (n+1)*sum(c)) / (n*sum(c)) — the
  exact Gini coefficient of the key-count distribution. Ties are
  order-independent (equal c within a tie block make sum(i*c)
  invariant), so both engines agree without a tie rule.

Shape: map-side partial counts (one slim int64 row per key per
batch) -> one groupby over the key space -> the bounded counts table
reduces to ONE stats row inside a single aggregation task. The only
corpus-sized pass is the first map. The profiler is meant for
real join/groupby keys, whose distinct-key table is orders of
magnitude smaller than the corpus (hosts, tiles, buckets); the
quantile/gini step sorts keys, not rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _stats_from_counts(cnt: np.ndarray) -> pd.DataFrame:
    cnt = np.sort(cnt.astype(np.int64))
    n = len(cnt)
    total = int(cnt.sum())
    # int64 headroom for sum(i*c) <= n*total (python ints past this)
    assert n * total < 2**62, "key space x rows too large for int64 gini"
    top10 = int(cnt[-10:].sum()) if n >= 10 else total
    # nearest-rank quantiles: rank = ceil(pct*n/100) in PURE INTEGER
    # arithmetic — float ceil(0.9*n) computes ceil(9.000...002) = 10
    # at n=10 (IEEE), silently off-by-one vs the integer rank
    def q(pct: int) -> int:
        r = max(1, (pct * n + 99) // 100)
        return int(cnt[r - 1])

    i = np.arange(1, n + 1, dtype=np.int64)
    s1 = int(np.sum(i * cnt))
    gini = (1_000_000 * (2 * s1 - (n + 1) * total)) // (n * total)
    return pd.DataFrame(
        {
            "n_keys": np.array([n], np.int64),
            "n_rows": np.array([total], np.int64),
            "max_count": np.array([int(cnt[-1])], np.int64),
            "top10_share_micro": np.array(
                [(1_000_000 * top10) // total], np.int64
            ),
            "p50_count": np.array([q(50)], np.int64),
            "p90_count": np.array([q(90)], np.int64),
            "p99_count": np.array([q(99)], np.int64),
            "gini_micro": np.array([gini], np.int64),
        }
    )


def key_skew_profile(ds, key_expr):
    """Profile the per-key row-count distribution of ``key_expr``
    (a batch -> int64 numpy function) over ``ds``. Returns a one-row
    Dataset of skew statistics."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .cogroup import one_task

    def partial(t: pa.Table) -> pa.Table:
        k = key_expr(t)
        keys, counts = np.unique(k, return_counts=True)
        return pa.table(
            {
                "key": pa.array(keys, pa.int64()),
                "c": pa.array(counts.astype(np.int64)),
            }
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("c", alias_name="c"))
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return _stats_from_counts(df["c"].to_numpy(np.int64))

    # the counts table is key-space-bounded; reduce it in one task
    return rd.from_pandas(
        one_task(lambda t: pd.DataFrame() if t is None else finish(t.to_pandas()), counts)
    )


def user_skew_profile(events_ds):
    """events -> skew profile of the user_id key, the events-side
    groupby/sessionize partitioning key."""

    def key(t: pa.Table) -> np.ndarray:
        return (
            t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        )

    return key_skew_profile(events_ds, key)


def user_skew_profile_sql(source: str = "events") -> str:
    """DuckDB mirror of :func:`user_skew_profile` (same nearest-rank
    quantiles, same integer Gini)."""
    return (
        f"WITH c AS (SELECT user_id AS key, COUNT(*) AS c "
        f"FROM {source} GROUP BY key), "
        "o AS (SELECT c, row_number() OVER (ORDER BY c, key) AS i, "
        "COUNT(*) OVER () AS n, SUM(c) OVER () AS total FROM c), "
        "t10 AS (SELECT SUM(c) AS top10 FROM "
        "(SELECT c FROM o ORDER BY i DESC LIMIT 10)), "
        "qs AS (SELECT "
        "MAX(CASE WHEN i = GREATEST(1, (50*n + 99) // 100) "
        "THEN c END) AS p50, "
        "MAX(CASE WHEN i = GREATEST(1, (90*n + 99) // 100) "
        "THEN c END) AS p90, "
        "MAX(CASE WHEN i = GREATEST(1, (99*n + 99) // 100) "
        "THEN c END) AS p99 FROM o), "
        "g AS (SELECT MAX(n) AS n, MAX(total) AS total, MAX(c) AS mx, "
        "SUM(i * c) AS s1 FROM o) "
        "SELECT CAST(g.n AS BIGINT) AS n_keys, "
        "CAST(g.total AS BIGINT) AS n_rows, "
        "CAST(g.mx AS BIGINT) AS max_count, "
        "CAST((CAST(1000000 AS HUGEINT) * t10.top10) // g.total AS BIGINT) "
        "AS top10_share_micro, "
        "CAST(qs.p50 AS BIGINT) AS p50_count, "
        "CAST(qs.p90 AS BIGINT) AS p90_count, "
        "CAST(qs.p99 AS BIGINT) AS p99_count, "
        "CAST((CAST(1000000 AS HUGEINT) * (2*g.s1 - (g.n+1)*g.total)) "
        "// (CAST(g.n AS HUGEINT) * g.total) AS BIGINT) AS gini_micro "
        "FROM g, t10, qs"
    )


# ------------------------------------------------ distribution drift


def distribution_drift(docs_ds, cat_col: str = "lang",
                       split_col: str = "doc_id"):
    """Exact data-drift monitor: the TOTAL VARIATION DISTANCE between
    a categorical column's distribution in the corpus's two halves
    (split by id parity — in production, yesterday's shard vs
    today's). TVD = (1/2) sum |p_i - q_i| evaluated WITHOUT floats:
    with category counts c1/c2 and totals n1/n2,
    ``tvd_e6 = (1e6 * sum |n2*c1_i - n1*c2_i|) // (2*n1*n2)`` — one
    integer per category, one floor division at the end (PSI's ln()
    makes it float-unmirrorable; TVD bounds PSI's decision power for
    alerting and stays exact).

    Shape: per-batch (category, side) count partials -> one tiny
    fused-key groupby (categories x 2) -> a single driver row."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .cogroup import one_task

    def partial(t: pa.Table) -> pa.Table:
        side = (t.column(split_col).to_numpy() % 2).astype(np.int64)
        df = (
            pd.DataFrame(
                {"cat": t.column(cat_col).to_pandas(), "side": side}
            )
            .groupby(["cat", "side"], sort=False)
            .size()
            .reset_index(name="n")
        )
        df["key"] = df["cat"] + "|" + df["side"].astype(str)
        return pa.Table.from_pandas(
            df[["key", "n"]], preserve_index=False
        )

    def finish(t: pa.Table) -> pa.Table:
        keys = t.column("key").to_pylist()
        ns = t.column("sum(n)").to_numpy().astype(np.int64)
        cats = sorted({k.rsplit("|", 1)[0] for k in keys})
        c1 = {c: 0 for c in cats}
        c2 = {c: 0 for c in cats}
        for k, n in zip(keys, ns.tolist()):
            c, s = k.rsplit("|", 1)
            (c1 if s == "0" else c2)[c] = n
        n1 = sum(c1.values())
        n2 = sum(c2.values())
        num = sum(abs(n2 * c1[c] - n1 * c2[c]) for c in cats)
        tvd_e6 = (1_000_000 * num) // (2 * n1 * n2) if n1 and n2 else 0
        return pa.table(
            {
                "n_even": pa.array([n1], pa.int64()),
                "n_odd": pa.array([n2], pa.int64()),
                "n_categories": pa.array([len(cats)], pa.int64()),
                "tvd_e6": pa.array([tvd_e6], pa.int64()),
            }
        )

    counts = (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("n", alias_name="sum(n)"))
    )
    return rd.from_arrow(
        one_task(lambda t: pa.table({}) if t is None else finish(t), counts)
    )


def distribution_drift_sql(cat_col: str = "lang",
                           source: str = "documents") -> str:
    """DuckDB mirror of :func:`distribution_drift`."""
    return (
        f"WITH dd_c AS (SELECT {cat_col} AS cat, doc_id % 2 AS side, "
        f"CAST(count(*) AS BIGINT) AS n FROM {source} GROUP BY 1, 2), "
        "dd_p AS (SELECT cat, "
        "CAST(sum(CASE WHEN side = 0 THEN n ELSE 0 END) AS BIGINT) AS c1, "
        "CAST(sum(CASE WHEN side = 1 THEN n ELSE 0 END) AS BIGINT) AS c2 "
        "FROM dd_c GROUP BY cat), "
        "dd_t AS (SELECT CAST(sum(c1) AS BIGINT) AS n1, "
        "CAST(sum(c2) AS BIGINT) AS n2, "
        "CAST(count(*) AS BIGINT) AS k FROM dd_p) "
        "SELECT t.n1 AS n_even, t.n2 AS n_odd, t.k AS n_categories, "
        "CAST((1000000 * (SELECT sum(abs(t.n2 * p.c1 - t.n1 * p.c2)) "
        "FROM dd_p p)) // (2 * t.n1 * t.n2) AS BIGINT) AS tvd_e6 "
        "FROM dd_t t"
    )
