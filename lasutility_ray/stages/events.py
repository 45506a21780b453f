"""Windowed aggregates over the events stream table.

Ray Data has no event-time windows; tumbling windows become a
grouped aggregate on ``(user_id, window_start)`` where
``window_start = (epoch_ms(ts) // W) * W`` — with a map-side partial
combine so the shuffle carries one row per (batch, user, window).
Order-independent aggregates (count, min, max) are exact; the float
sum is rounded to 4 dp in both engines (addition order differs
between partial merges and the oracle).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

WINDOW_MS = 300_000  # 5 min


def _window_final(partials_ds, agg_spec: dict[str, tuple[str, str]]):
    """Final combine of (user_id, window_start) partials via the
    coarse-bucket shuffle on the (user_id, window_start) key, C-speed
    pandas groupby inside (Ray 2.49's multi-key
    ``groupby().aggregate()`` pays ~seconds of fixed overhead per
    aggregate even on small partial tables). All aggregates are
    order-independent (sum/min/max of partials), so the result is
    identical to the direct multi-key aggregate."""
    from .cogroup import shuffle_by

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby(["user_id", "window_start"], sort=False)
            .agg(**{name: spec for name, spec in agg_spec.items()})
            .reset_index()
        )
        return out

    return shuffle_by(partials_ds, ["user_id", "window_start"], combine)


def _partial(batch: pa.Table) -> pa.Table:
    df = batch.select(["user_id", "ts", "value"]).to_pandas()
    ms = df["ts"].astype("datetime64[ms]").astype("int64")
    df["window_start"] = (ms // WINDOW_MS) * WINDOW_MS
    # exact cross-engine sums: values are 2-decimal -> integer cents
    df["cents"] = np.round(df["value"].to_numpy() * 100.0).astype(np.int64)
    agg = (
        df.groupby(["user_id", "window_start"], sort=False)
        .agg(
            pc=("value", "count"),
            ps=("cents", "sum"),
            pmin=("value", "min"),
            pmax=("value", "max"),
        )
        .reset_index()
    )
    return pa.Table.from_pandas(agg, preserve_index=False)


def tumbling_window(events_ds):
    """(user_id, window_start, n_events, sum_value_cents, min_value,
    max_value) per 5-minute tumbling window. The sum is integer
    cents — order-independent and bit-identical to any SQL engine."""
    return _window_final(
        events_ds.map_batches(_partial, batch_format="pyarrow"),
        {
            "n_events": ("pc", "sum"),
            "sum_value_cents": ("ps", "sum"),
            "min_value": ("pmin", "min"),
            "max_value": ("pmax", "max"),
        },
    )


def sliding_window(events_ds, size_ms: int = 600_000, hop_ms: int = 300_000):
    """Sliding (hopping) windows: every event lands in
    ``size_ms // hop_ms`` windows; flat-map replication to each
    window's start, then the tumbling partial+final shape. Aggregates
    stay order-independent (count + integer-cent sum)."""
    if size_ms % hop_ms:
        raise ValueError("size_ms must be a multiple of hop_ms")
    k = size_ms // hop_ms

    def replicate(batch: pa.Table) -> pa.Table:
        df = batch.select(["user_id", "ts", "value"]).to_pandas()
        ms = df["ts"].astype("datetime64[ms]").astype("int64").to_numpy()
        cents = np.round(df["value"].to_numpy() * 100.0).astype(np.int64)
        uid = df["user_id"].to_numpy()
        base = (ms // hop_ms) * hop_ms
        outs = []
        for j in range(k):
            outs.append(
                pd.DataFrame(
                    {
                        "user_id": uid,
                        "window_start": base - j * hop_ms,
                        "cents": cents,
                    }
                )
            )
        rep = pd.concat(outs, ignore_index=True)
        agg = (
            rep.groupby(["user_id", "window_start"], sort=False)
            .agg(pc=("cents", "count"), ps=("cents", "sum"))
            .reset_index()
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    return _window_final(
        events_ds.map_batches(replicate, batch_format="pyarrow"),
        {
            "n_events": ("pc", "sum"),
            "sum_value_cents": ("ps", "sum"),
        },
    )


def sessionize(events_ds, gap_ms: int = 1_800_000):
    """Session windows per user: events sorted by ts within the user
    group; a gap > ``gap_ms`` starts a new session. Returns one row
    per session (user_id, session_start_ms, session_end_ms, n_events).
    State is group-local (sorted pandas scan) — the Ray-shaped
    replacement for a streaming session window."""

    # shuffle on a coarse user-hash bucket (one python group per
    # BUCKET; a per-user map_groups makes millions of tiny python
    # groups at scale); the in-bucket scan vectorizes across ALL the
    # bucket's users at once — a session break is a user change OR a
    # time gap on the (user, ts)-sorted frame
    import pyarrow as pa

    from .cogroup import shuffle_by

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="stable")
        uid = g["user_id"].to_numpy()
        ms = g["ts"].astype("datetime64[ms]").astype("int64").to_numpy()
        new_session = np.empty(len(ms), dtype=bool)
        new_session[0] = True
        new_session[1:] = (uid[1:] != uid[:-1]) | ((ms[1:] - ms[:-1]) > gap_ms)
        sid = np.cumsum(new_session) - 1
        df = pd.DataFrame({"sid": sid, "ms": ms, "uid": uid})
        agg = df.groupby("sid", sort=True).agg(
            uid=("uid", "first"), mn=("ms", "min"), mx=("ms", "max"), n=("ms", "count")
        )
        return pd.DataFrame(
            {
                "user_id": agg["uid"].astype(np.int64),
                "session_start_ms": agg["mn"].astype(np.int64),
                "session_end_ms": agg["mx"].astype(np.int64),
                "n_events": agg["n"].astype(np.int64),
            }
        )

    slim = events_ds.map_batches(lambda t: t.select(["user_id", "ts"]), batch_format="pyarrow")
    return shuffle_by(slim, "user_id", per_bucket)


def props_stats(events_ds):
    """Semi-structured payload analytics: extract the integer ``k``
    field from the JSON ``props`` column (vectorized
    ``pc.extract_regex`` — the single-known-field fast path; an
    arbitrary-path JSON stage belongs in an actor pool with a real
    parser) and reduce per event_type: sum, min, max and EXACT
    distinct-k count. The (type, k) distinct space is bounded by the
    payload domain, so the distinct pass is a slim coarse-bucket
    exchange, never the event stream."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Max, Min, Sum

    from .cogroup import lookup_join, shuffle_by

    def extract(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t.column("props"), r"(?P<k>\d+)")
        k = pc.struct_field(m, "k").cast(pa.int64())
        return pa.table({"event_type": t.column("event_type"), "k": k})

    slim = events_ds.map_batches(extract, batch_format="pyarrow").materialize()

    stats = (
        slim.groupby("event_type")
        .aggregate(
            Sum("k", alias_name="sum_k"),
            Min("k", alias_name="min_k"),
            Max("k", alias_name="max_k"),
            Count(alias_name="n_events"),
        )
        .materialize()
    )

    def valid_k(t: pa.Table) -> pa.Table:
        # null k (props with no digit) must be skipped, matching the
        # SQL mirror's count(DISTINCT k) null semantics
        return t.filter(pc.is_valid(t.column("k")))

    def uniq_count(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.drop_duplicates(["event_type", "k"])
            .groupby("event_type", sort=False)
            .size()
            .reset_index(name="part")
        )

    nd = (
        shuffle_by(
            slim.map_batches(valid_k, batch_format="pyarrow"), ["event_type", "k"], uniq_count
        )
        .groupby("event_type")
        .sum("part")
        .map_batches(
            lambda t: pa.table(
                {
                    "event_type": t.column("event_type"),
                    "n_distinct_k": t.column("sum(part)").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    out = lookup_join(
        stats, nd, "event_type", "event_type",
        {"n_distinct_k": "n_distinct_k"},
        type_overrides={"event_type": pa.string()},
    )

    def order(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "n_events": t.column("n_events").cast(pa.int64()),
                "sum_k": t.column("sum_k").cast(pa.int64()),
                "min_k": t.column("min_k").cast(pa.int64()),
                "max_k": t.column("max_k").cast(pa.int64()),
                "n_distinct_k": t.column("n_distinct_k").cast(pa.int64()),
            }
        )

    return out.map_batches(order, batch_format="pyarrow")


def props_stats_sql(source: str = "events") -> str:
    """DuckDB mirror of :func:`props_stats` (same regex extraction)."""
    # NULLIF: DuckDB regexp_extract yields '' (not NULL) on no match
    # and CAST('' AS BIGINT) errors — digitless props must become
    # NULL so sum/min/max/count(DISTINCT) skip them exactly like the
    # engine's null-k drop (advisory fix parity)
    k = "CAST(NULLIF(regexp_extract(props, '[0-9]+'), '') AS BIGINT)"
    return (
        f"SELECT event_type, CAST(count(*) AS BIGINT) AS n_events, "
        f"CAST(sum({k}) AS BIGINT) AS sum_k, "
        f"CAST(min({k}) AS BIGINT) AS min_k, "
        f"CAST(max({k}) AS BIGINT) AS max_k, "
        f"CAST(count(DISTINCT {k}) AS BIGINT) AS n_distinct_k "
        f"FROM {source} GROUP BY event_type"
    )


def interarrival_medians(events_ds):
    """Per-user interarrival statistics: gap count and the DISCRETE
    median gap (microseconds) between consecutive events in time
    order — the burstiness profile behind bot detection and session
    tuning. Median convention = quantile_disc: the ceil(n/2)-th
    smallest gap, so everything stays integer.

    Shape: slim (user, ts_us) rows bucket by user hash (every user's
    events co-located in ONE group — the group_quantiles exactness
    contract), one vectorized sort + diff + nearest-rank per bucket."""
    from .cogroup import shuffle_by

    def slim(t: pa.Table) -> pa.Table:
        us = (
            t.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "us": pa.array(us, pa.int64()),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "us"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        us = g["us"].to_numpy(np.int64)
        same = np.empty(len(g), dtype=bool)
        if len(g):
            same[0] = False
            same[1:] = uid[1:] == uid[:-1]
        gaps = us[1:] - us[:-1]
        gu = uid[1:][same[1:]]
        gv = gaps[same[1:]]
        if len(gu) == 0:
            return pd.DataFrame(
                {"user_id": pd.Series([], dtype=np.int64),
                 "n_gaps": pd.Series([], dtype=np.int64),
                 "median_gap_us": pd.Series([], dtype=np.int64)}
            )
        order = np.lexsort((gv, gu))
        gu, gv = gu[order], gv[order]
        uniq, starts = np.unique(gu, return_index=True)
        ends = np.append(starts[1:], len(gu))
        n = ends - starts
        med_idx = starts + (n + 1) // 2 - 1  # ceil(n/2)-th, 0-based
        return pd.DataFrame(
            {
                "user_id": uniq,
                "n_gaps": n.astype(np.int64),
                "median_gap_us": gv[med_idx],
            }
        )

    return shuffle_by(events_ds.map_batches(slim, batch_format="pyarrow"), "user_id", per_bucket)


def interarrival_sql(source: str = "events") -> str:
    """DuckDB mirror of :func:`interarrival_medians`."""
    return (
        "WITH ia_g AS (SELECT user_id, "
        "epoch_us(ts) - lag(epoch_us(ts)) OVER "
        "(PARTITION BY user_id ORDER BY epoch_us(ts)) AS gap "
        f"FROM {source}) "
        "SELECT user_id, CAST(count(gap) AS BIGINT) AS n_gaps, "
        "CAST(quantile_disc(gap, 0.5) AS BIGINT) AS median_gap_us "
        "FROM ia_g WHERE gap IS NOT NULL GROUP BY user_id"
    )
