"""Partitioned window functions over the events stream table.

Ray Data has no SQL window functions; ``partitioned_window`` computes
the classic per-key ordered quartet — ``row_number``, ``lag``,
running ``SUM`` and the partition ``COUNT`` — with
``cogroup.shuffle_by``: one shuffle on a hash bucket of ``user_id``
co-locates every row of a user, then ONE vectorized numpy scan per
bucket computes all four
functions for every user in the bucket at once (segment-boundary
arithmetic — no per-user python groups, no per-row loop).

Cross-engine exactness: values are 2-decimal currency, so sums run in
integer cents (``round(value*100)``, the ``events._partial``
convention); ordering is (user_id, ts@microseconds, event_id) — ts
keeps full parquet precision so the DuckDB mirror's ``ORDER BY ts,
event_id`` agrees on ties.

Scale: the shuffle carries one slim row per event (4 int64 columns);
state per bucket is its rows only. Mirrors the semantics of SQL
``OVER (PARTITION BY user_id ORDER BY ts, event_id)``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _slim(t: pa.Table) -> pa.Table:
    uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
    us = (
        t.column("ts")
        .to_numpy(zero_copy_only=False)
        .astype("datetime64[us]")
        .astype(np.int64)
    )
    cents = np.round(
        t.column("value").to_numpy(zero_copy_only=False) * 100.0
    ).astype(np.int64)
    return pa.table(
        {
            "event_id": t.column("event_id"),
            "user_id": pa.array(uid),
            "__us": pa.array(us),
            "__cents": pa.array(cents),
        }
    )


def _by_user(events_ds, per_bucket):
    """Slim (event, user, us, cents) rows, shuffled so each user's
    rows meet in one ``per_bucket`` call (also ``resample``'s input)."""
    from .cogroup import shuffle_by

    return shuffle_by(events_ds.map_batches(_slim, batch_format="pyarrow"), "user_id", per_bucket)


def partitioned_window(events_ds):
    """Per-user ordered window functions; one output row per event:

    - ``row_num``: 1-based position within the user's ts-ordered rows
    - ``prev_value_cents``: ``lag(cents)`` (null on each user's first)
    - ``cum_value_cents``: running sum of cents up to and incl. row
    - ``user_n_events``: COUNT(*) over the whole partition
    """
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "__us", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy()
        cents = g["__cents"].to_numpy()
        n = len(g)
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = uid[1:] != uid[:-1]
        seg = np.cumsum(new) - 1  # segment id per row
        starts = np.flatnonzero(new)  # first row index of each segment
        idx = np.arange(n, dtype=np.int64)
        row_num = idx - starts[seg] + 1
        csum = np.cumsum(cents)
        base = np.where(starts > 0, csum[starts - 1], 0)
        cum = csum - base[seg]
        # lag() is NULL on each user's first row; surface as float64
        # NaN — exactly what duckdb's .df() yields for a nullable
        # BIGINT — so the driver sees identical dtype + values.
        prev = np.empty(n, dtype=np.float64)
        prev[1:] = cents[:-1].astype(np.float64)
        prev[new] = np.nan
        counts = np.bincount(seg)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": uid,
                "row_num": row_num.astype(np.int64),
                "prev_value_cents": prev,
                "cum_value_cents": cum.astype(np.int64),
                "user_n_events": counts[seg].astype(np.int64),
            }
        )

    return _by_user(events_ds, per_bucket)


def ranking_window(events_ds, n_tiles: int = 4):
    """The ranking half of the SQL window-function surface, same
    one-shuffle coarse-bucket shape as :func:`partitioned_window`:

    - ``dense_rank_cents``: ``DENSE_RANK() OVER (PARTITION BY user_id
      ORDER BY cents)`` — cents duplicate heavily, so dense rank
      actually diverges from row_number (the interesting case);
    - ``ntile``: ``NTILE(n_tiles)`` over the (ts, event_id) order,
      ANSI semantics (first ``n %% k`` tiles get the extra row);
    - ``pct_rank``: ``PERCENT_RANK()`` over the same order — the
      ordering key is unique so this is (row_num-1)/(n-1), computed
      as the SAME int64/int64 IEEE division in both engines (0.0 for
      single-row partitions, per the standard).

    Scale: identical wire shape to ``partitioned_window`` (4 slim
    int64 columns through one hash(user) shuffle; every function for
    every user in a bucket computed by one vectorized scan).
    """
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "__us", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy()
        cents = g["__cents"].to_numpy()
        n = len(g)
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = uid[1:] != uid[:-1]
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        idx = np.arange(n, dtype=np.int64)
        pos = idx - starts[seg]  # 0-based row number within partition
        counts = np.bincount(seg).astype(np.int64)
        cnt = counts[seg]
        # dense_rank by cents: re-sort (user, cents), count distinct
        # prefixes per segment, scatter back to the ts order
        order = np.lexsort((cents, uid))
        uc, cc = uid[order], cents[order]
        newv = np.empty(n, dtype=bool)
        newv[0] = True
        newv[1:] = (uc[1:] != uc[:-1]) | (cc[1:] != cc[:-1])
        news = np.empty(n, dtype=bool)
        news[0] = True
        news[1:] = uc[1:] != uc[:-1]
        dv = np.cumsum(newv)
        base = dv[news] - 1  # distinct count before each segment
        seg2 = np.cumsum(news) - 1
        dr_sorted = dv - base[seg2]
        dense = np.empty(n, dtype=np.int64)
        dense[order] = dr_sorted
        # NTILE(k): first (n % k) tiles hold ceil(n/k) rows
        size, rem = cnt // n_tiles, cnt % n_tiles
        big = rem * (size + 1)
        in_big = pos < big
        ntile = np.where(
            in_big,
            pos // np.maximum(size + 1, 1),
            rem + (pos - big) // np.maximum(size, 1),
        ) + 1
        pct = np.where(cnt > 1, pos / np.maximum(cnt - 1, 1), 0.0)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": uid,
                "dense_rank_cents": dense,
                "ntile": ntile.astype(np.int64),
                "pct_rank": pct.astype(np.float64),
            }
        )

    return _by_user(events_ds, per_bucket)


def ranking_window_sql(source: str = "events", n_tiles: int = 4) -> str:
    """DuckDB mirror of :func:`ranking_window`."""
    return (
        "WITH e AS (SELECT event_id, user_id, ts, "
        f"CAST(round(value*100) AS BIGINT) AS cents FROM {source}) "
        "SELECT event_id, user_id, "
        "CAST(dense_rank() OVER (PARTITION BY user_id ORDER BY cents) "
        "AS BIGINT) AS dense_rank_cents, "
        f"CAST(ntile({n_tiles}) OVER w AS BIGINT) AS ntile, "
        "percent_rank() OVER w AS pct_rank "
        "FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"
    )


def partitioned_window_sql(source: str = "events") -> str:
    """DuckDB mirror of :func:`partitioned_window` (same cents, same
    (ts, event_id) tie order)."""
    return (
        "WITH e AS (SELECT event_id, user_id, ts, "
        f"CAST(round(value*100) AS BIGINT) AS cents FROM {source}) "
        "SELECT event_id, user_id, "
        "CAST(row_number() OVER w AS BIGINT) AS row_num, "
        "CAST(lag(cents) OVER w AS DOUBLE) AS prev_value_cents, "
        "CAST(SUM(cents) OVER (PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_value_cents, "
        "COUNT(*) OVER (PARTITION BY user_id) AS user_n_events "
        "FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"
    )


def frame_window(events_ds, preceding: int = 2):
    """Frame-bounded window aggregates — SQL ``ROWS BETWEEN
    <preceding> PRECEDING AND CURRENT ROW`` — per user in (ts,
    event_id) order, same one-shuffle coarse-bucket shape as
    :func:`partitioned_window`:

    - ``frame_sum_cents``: moving SUM over the frame
    - ``frame_min_cents`` / ``frame_max_cents``: moving MIN/MAX
    - ``frame_n``: COUNT(*) in the frame (< preceding+1 near the
      partition start)

    All integer cents, so value-exact vs the SQL mirror. The moving
    min/max are computed as an elementwise reduce over the
    ``preceding+1`` shifted copies (k is a small constant; no per-row
    loop), with partition starts masked by row position.
    """
    k = int(preceding)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "__us", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy()
        cents = g["__cents"].to_numpy()
        n = len(g)
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = uid[1:] != uid[:-1]
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        idx = np.arange(n, dtype=np.int64)
        pos = idx - starts[seg]  # 0-based position within partition
        in_frame = np.minimum(pos, k)  # rows before current inside frame
        csum = np.cumsum(cents)
        ws = idx - in_frame  # frame start index
        base = np.where(ws > 0, csum[ws - 1], 0)
        fsum = csum - base
        fmin = cents.copy()
        fmax = cents.copy()
        for j in range(1, k + 1):
            ok = pos >= j
            src = np.where(ok, idx - j, idx)  # self where shift invalid
            fmin = np.minimum(fmin, np.where(ok, cents[src], fmin))
            fmax = np.maximum(fmax, np.where(ok, cents[src], fmax))
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": uid,
                "frame_sum_cents": fsum.astype(np.int64),
                "frame_min_cents": fmin.astype(np.int64),
                "frame_max_cents": fmax.astype(np.int64),
                "frame_n": (in_frame + 1).astype(np.int64),
            }
        )

    return _by_user(events_ds, per_bucket)


def frame_window_sql(source: str = "events", preceding: int = 2) -> str:
    """DuckDB mirror of :func:`frame_window`."""
    return (
        "WITH e AS (SELECT event_id, user_id, ts, "
        f"CAST(round(value*100) AS BIGINT) AS cents FROM {source}) "
        "SELECT event_id, user_id, "
        "CAST(SUM(cents) OVER w AS BIGINT) AS frame_sum_cents, "
        "MIN(cents) OVER w AS frame_min_cents, "
        "MAX(cents) OVER w AS frame_max_cents, "
        "CAST(COUNT(*) OVER w AS BIGINT) AS frame_n "
        "FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id "
        f"ROWS BETWEEN {int(preceding)} PRECEDING AND CURRENT ROW)"
    )


def cume_dist_orders(orders_ds):
    """CUME_DIST over order value per customer — the ties-aware
    sibling of ranking_window's percent_rank (prices repeat, so
    cume_dist genuinely diverges from rank/n). Emits the integer
    numerator (rows with value <= mine in my partition) and
    denominator alongside the IEEE double the SQL standard defines;
    the double is the SAME int64/int64 division in both engines, so
    it is value-exact (the pct_rank precedent).

    Same one-shuffle coarse-bucket shape as the other window ops:
    slim int64 rows, hash(custkey) buckets, one vectorized scan per
    bucket."""
    def slim(t: pa.Table) -> pa.Table:
        ck = t.column("o_custkey").to_numpy().astype(np.int64)
        cents = np.round(
            t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "o_custkey": pa.array(ck),
                "__cents": pa.array(cents),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "__cents"], kind="mergesort")
        ck = g["o_custkey"].to_numpy()
        cents = g["__cents"].to_numpy()
        n = len(g)
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = ck[1:] != ck[:-1]
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        counts = np.bincount(seg).astype(np.int64)
        pos = np.arange(n, dtype=np.int64) - starts[seg]
        # cume numerator = index AFTER the last row tying my value
        newv = np.empty(n, dtype=bool)
        newv[0] = True
        newv[1:] = new[1:] | (cents[1:] != cents[:-1])
        vseg = np.cumsum(newv) - 1
        # last position of each distinct-value run, broadcast back
        run_last = np.zeros(vseg[-1] + 1, dtype=np.int64)
        np.maximum.at(run_last, vseg, pos)
        num = run_last[vseg] + 1
        den = counts[seg]
        return pd.DataFrame(
            {
                "o_orderkey": g["o_orderkey"].to_numpy(),
                "o_custkey": ck,
                "cume_num": num,
                "cume_den": den,
                "cume_dist": num / den,
            }
        )

    from .cogroup import shuffle_by

    return shuffle_by(orders_ds.map_batches(slim, batch_format="pyarrow"), "o_custkey", per_bucket)


def cume_dist_sql(source: str = "orders") -> str:
    """DuckDB mirror of :func:`cume_dist_orders`."""
    return (
        "WITH cd AS (SELECT o_orderkey, o_custkey, "
        f"CAST(round(o_totalprice*100) AS BIGINT) AS cents FROM {source}) "
        "SELECT o_orderkey, o_custkey, "
        "CAST(count(*) FILTER (WHERE TRUE) OVER "
        "(PARTITION BY o_custkey ORDER BY cents "
        "RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT) "
        "AS cume_num, "
        "CAST(count(*) OVER (PARTITION BY o_custkey) AS BIGINT) AS cume_den, "
        "cume_dist() OVER (PARTITION BY o_custkey ORDER BY cents) AS cume_dist "
        "FROM cd"
    )


def user_first_last(events_ds):
    """Per-user first/last event (arg-min/arg-max by the (ts,
    event_id) total order) + event count — the session-boundary
    lookup behind retention joins. Map-side partials carry ONE
    candidate pair per (batch, user); the final merge is a tiny
    single-key groupby scan. Deterministic because the order key is
    unique (event_id tiebreak)."""
    def slim(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        us = (
            t.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        eid = t.column("event_id").to_numpy().astype(np.int64)
        import pandas as pd_

        df = pd_.DataFrame({"u": uid, "us": us, "e": eid})
        df = df.sort_values(["u", "us", "e"], kind="mergesort")
        g = df.groupby("u", sort=False)
        agg = g.agg(
            first_us=("us", "first"),
            first_e=("e", "first"),
            last_us=("us", "last"),
            last_e=("e", "last"),
            n=("e", "size"),
        ).reset_index()
        return pa.table(
            {
                "u": pa.array(agg["u"].to_numpy(np.int64)),
                "first_us": pa.array(agg["first_us"].to_numpy(np.int64)),
                "first_e": pa.array(agg["first_e"].to_numpy(np.int64)),
                "last_us": pa.array(agg["last_us"].to_numpy(np.int64)),
                "last_e": pa.array(agg["last_e"].to_numpy(np.int64)),
                "n": pa.array(agg["n"].to_numpy(np.int64)),
            }
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["u", "first_us", "first_e"], kind="mergesort")
        firsts = g.groupby("u", sort=False).first()
        g2 = g.sort_values(["u", "last_us", "last_e"], kind="mergesort")
        lasts = g2.groupby("u", sort=False).last()
        ns = g.groupby("u", sort=False)["n"].sum()
        return pd.DataFrame(
            {
                "user_id": firsts.index.to_numpy(np.int64),
                "first_event_id": firsts["first_e"].to_numpy(np.int64),
                "last_event_id": lasts["last_e"].to_numpy(np.int64),
                "n_events": ns.to_numpy(np.int64),
            }
        )

    from .cogroup import shuffle_by

    return shuffle_by(events_ds.map_batches(slim, batch_format="pyarrow"), "u", merge)


def user_first_last_sql(source: str = "events") -> str:
    """DuckDB mirror of :func:`user_first_last` (window-first/last
    over the unique (ts, event_id) order)."""
    return (
        "WITH fl AS (SELECT user_id, event_id, "
        "row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn, "
        "row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rrn, "
        "count(*) OVER (PARTITION BY user_id) AS n "
        f"FROM {source}) "
        "SELECT user_id, "
        "CAST(max(CASE WHEN rn = 1 THEN event_id END) AS BIGINT) AS first_event_id, "
        "CAST(max(CASE WHEN rrn = 1 THEN event_id END) AS BIGINT) AS last_event_id, "
        "CAST(max(n) AS BIGINT) AS n_events "
        "FROM fl GROUP BY user_id"
    )
