"""Sequential event analytics: first-order Markov transition counts
and cohort retention — the two table-stakes product-analytics
operators over the events stream.

Both share the engine's one-shuffle shape: slim integer/dictionary
columns through a single hash(user_id) coarse-bucket exchange, then
one vectorized per-bucket scan, with buckets emitting PARTIAL counts
that a tiny final groupby sums (users are disjoint across buckets, so
per-bucket distinct/adjacency is globally exact; the driver never
sees a per-user or per-event row).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

WEEK_US = 7 * 86_400 * 1_000_000


def _slim(t: pa.Table, with_event_id: bool):
    uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
    us = (
        t.column("ts")
        .to_numpy(zero_copy_only=False)
        .astype("datetime64[us]")
        .astype(np.int64)
    )
    cols = {
        "user_id": pa.array(uid),
        "__us": pa.array(us),
    }
    if with_event_id:
        cols["event_id"] = t.column("event_id")
        cols["event_type"] = t.column("event_type")
    return pa.table(cols)


def _by_user(events_ds, with_event_id: bool, per_bucket):
    """Slim events, shuffled so each user's rows meet in one
    ``per_bucket`` call."""
    from .cogroup import shuffle_by

    cols = ["event_id", "user_id", "ts", "event_type"] if with_event_id else ["user_id", "ts"]
    slim = events_ds.select_columns(cols).map_batches(
        lambda t: _slim(t, with_event_id), batch_format="pyarrow"
    )
    return shuffle_by(slim, "user_id", per_bucket)


def event_transitions(events_ds):
    """Per-user chronological first-order transition counts:
    (from_type, to_type, n) over consecutive events in
    (ts, event_id) order — the empirical Markov chain behind
    next-action prediction and funnel discovery.

    Mirrors SQL's ``lead(event_type) OVER (PARTITION BY user_id
    ORDER BY ts, event_id)`` exactly (the last event of each user
    has no successor and emits nothing)."""
    from ray.data.aggregate import Sum

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "__us", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy(dtype=object)
        n = len(g)
        if n < 2:
            return pd.DataFrame(
                {
                    "from_type": pd.Series([], dtype=object),
                    "to_type": pd.Series([], dtype=object),
                    "n": pd.Series([], dtype=np.int64),
                }
            )
        same = uid[1:] == uid[:-1]
        d = (
            pd.DataFrame({"from_type": et[:-1][same], "to_type": et[1:][same]})
            .groupby(["from_type", "to_type"], sort=False)
            .size()
            .reset_index(name="n")
        )
        d["n"] = d["n"].astype(np.int64)
        return d

    return (
        _by_user(events_ds, True, per_bucket)
        .groupby(["from_type", "to_type"])
        .aggregate(Sum("n", alias_name="n"))
    )


def event_transitions_sql(source: str = "events") -> str:
    """DuckDB mirror of :func:`event_transitions`."""
    return (
        "WITH et_l AS (SELECT event_type AS from_type, "
        "lead(event_type) OVER (PARTITION BY user_id "
        f"ORDER BY ts, event_id) AS to_type FROM {source}) "
        "SELECT from_type, to_type, CAST(count(*) AS BIGINT) AS n "
        "FROM et_l WHERE to_type IS NOT NULL GROUP BY from_type, to_type"
    )


def cohort_retention(events_ds):
    """Weekly cohort retention: users grouped by their first-activity
    week (floor-division epoch weeks — identical integer arithmetic
    in both engines), counted once per (cohort_week, week offset)
    they were active in. offset 0 row = cohort size."""
    from ray.data.aggregate import Sum

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        wk = g["__us"].to_numpy(np.int64) // WEEK_US
        d = pd.DataFrame({"user_id": g["user_id"].to_numpy(), "week": wk})
        first = d.groupby("user_id")["week"].min()
        d = d.drop_duplicates()
        cohort = d["user_id"].map(first).to_numpy(np.int64)
        out = (
            pd.DataFrame(
                {"cohort_week": cohort, "week_offset": d["week"].to_numpy() - cohort}
            )
            .groupby(["cohort_week", "week_offset"], sort=False)
            .size()
            .reset_index(name="n_users")
        )
        out["n_users"] = out["n_users"].astype(np.int64)
        return out

    return (
        _by_user(events_ds, False, per_bucket)
        .groupby(["cohort_week", "week_offset"])
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def session_paths(events_ds, max_steps: int = 8):
    """Top user-journey mining: each user's first ``max_steps`` event
    types in (ts, event_id) order joined into a '>' path string,
    counted across users — the "common paths" product-analytics view.
    Same one-user-bucket-shuffle shape; the per-bucket join is a
    C-level pandas groupby-agg over at most ``max_steps`` strings per
    user, and buckets emit PARTIAL path counts."""
    from ray.data.aggregate import Sum

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "__us", "event_id"], kind="stable")
        rn = g.groupby("user_id", sort=False).cumcount()
        g = g[rn < max_steps]
        paths = (
            g.groupby("user_id", sort=False)["event_type"].agg(">".join)
        )
        out = paths.value_counts().rename_axis("path").reset_index(name="n_users")
        out["n_users"] = out["n_users"].astype(np.int64)
        return out

    return (
        _by_user(events_ds, True, per_bucket)
        .groupby("path")
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def session_paths_sql(source: str = "events", max_steps: int = 8) -> str:
    """DuckDB mirror of :func:`session_paths`."""
    return (
        "WITH sp_r AS (SELECT user_id, event_type, "
        "row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn "
        f"FROM {source}), "
        "sp_p AS (SELECT user_id, "
        "string_agg(event_type, '>' ORDER BY rn) AS path "
        f"FROM sp_r WHERE rn <= {max_steps} GROUP BY user_id) "
        "SELECT path, CAST(count(*) AS BIGINT) AS n_users FROM sp_p "
        "GROUP BY path"
    )


def cohort_retention_sql(source: str = "events") -> str:
    """DuckDB mirror of :func:`cohort_retention` (same floor-division
    epoch weeks)."""
    return (
        f"WITH cr_w AS (SELECT user_id, epoch_us(ts) // {WEEK_US} AS week "
        f"FROM {source}), "
        "cr_f AS (SELECT user_id, min(week) AS cohort_week FROM cr_w "
        "GROUP BY user_id), "
        "cr_d AS (SELECT DISTINCT w.user_id, f.cohort_week, "
        "w.week - f.cohort_week AS week_offset "
        "FROM cr_w w JOIN cr_f f ON w.user_id = f.user_id) "
        "SELECT cohort_week, week_offset, "
        "CAST(count(*) AS BIGINT) AS n_users "
        "FROM cr_d GROUP BY cohort_week, week_offset"
    )
