"""Ordered-funnel conversion analysis over the events stream — the
MATCH_RECOGNIZE-lite every product-analytics engine ships: how many
users performed step-1, then step-2 STRICTLY AFTER their first
step-1 and within ``window_s`` seconds of it, then step-3 under the
same rule relative to step-2, ... (first-touch semantics: each stage
anchors at the user's EARLIEST qualifying event; the conversion
window is what gives the funnel its drop-off).

Shape: the corpus is filtered to the step types at the scan (slim
(user, step, ts) rows), ONE coarse-bucket shuffle on hash(user_id)
co-locates each user's rows, and each bucket runs the stepwise
chain vectorized (one pandas groupby-min per stage, merges on the
user index — stages are few and fixed, users per bucket are many).
Buckets emit per-stage PARTIAL user counts; the final groupby-sum is
over stages x buckets rows only. The driver never sees a per-user
row.

Exactness: "after" is strict (`t_prev < ts <= t_prev + window`) on
integer epoch microseconds, mirrored 1:1 by the chained-CTE DuckDB
oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

DEFAULT_STEPS = ("view", "click", "purchase")


DEFAULT_WINDOW_S = 86_400  # 24 h conversion window per hop


def funnel_stages(
    events_ds,
    steps: tuple[str, ...] = DEFAULT_STEPS,
    window_s: int = DEFAULT_WINDOW_S,
):
    """events -> one row per funnel stage: (stage, step, n_users)."""
    from .cogroup import shuffle_by

    window_us = int(window_s) * 1_000_000
    steps = tuple(steps)
    step_set = list(steps)

    def slim(t: pa.Table) -> pa.Table:
        et = t.column("event_type").to_pandas()
        keep = et.isin(step_set).to_numpy()
        uid = (
            t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        )
        us = (
            t.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)[keep]
        )
        return pa.table(
            {
                "user_id": pa.array(uid),
                "__us": pa.array(us),
                "step": pa.array(et[keep].to_numpy(dtype=object), pa.string()),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_stage, out_step, out_n = [], [], []
        prev: pd.Series | None = None  # user_id -> first time stage reached
        for k, s in enumerate(steps):
            rows = g[g["step"] == s]
            if prev is not None:
                t_prev = rows["user_id"].map(prev)
                rows = rows[
                    t_prev.notna()
                    & (rows["__us"] > t_prev)
                    & (rows["__us"] <= t_prev + window_us)
                ]
            cur = rows.groupby("user_id")["__us"].min()
            out_stage.append(k + 1)
            out_step.append(s)
            out_n.append(len(cur))
            prev = cur
        return pd.DataFrame(
            {
                "stage": np.array(out_stage, np.int64),
                "step": out_step,
                "n_users": np.array(out_n, np.int64),
            }
        )

    from ray.data.aggregate import Sum

    slimmed = events_ds.select_columns(["user_id", "ts", "event_type"]).map_batches(
        slim, batch_format="pyarrow"
    )
    return (
        shuffle_by(slimmed, "user_id", per_bucket)
        .groupby(["stage", "step"])
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def funnel_sql(
    steps: tuple[str, ...] = DEFAULT_STEPS,
    window_s: int = DEFAULT_WINDOW_S,
    source: str = "events",
) -> str:
    """DuckDB mirror of :func:`funnel_stages` — chained first-touch
    CTEs with the same strict `(t_prev, t_prev + window]` rule on
    epoch microseconds."""
    steps = tuple(steps)
    w = int(window_s) * 1_000_000
    ctes = [
        (
            f"fu_1 AS (SELECT user_id, min(ts) AS t FROM {source} "
            f"WHERE event_type = '{steps[0]}' GROUP BY user_id)"
        )
    ]
    for k in range(1, len(steps)):
        ctes.append(
            f"fu_{k + 1} AS (SELECT e.user_id, min(e.ts) AS t "
            f"FROM {source} e JOIN fu_{k} p ON e.user_id = p.user_id "
            f"WHERE e.event_type = '{steps[k]}' "
            "AND epoch_us(e.ts) > epoch_us(p.t) "
            f"AND epoch_us(e.ts) <= epoch_us(p.t) + {w} "
            "GROUP BY e.user_id)"
        )
    selects = [
        f"SELECT CAST({k + 1} AS BIGINT) AS stage, '{s}' AS step, "
        f"CAST(count(*) AS BIGINT) AS n_users FROM fu_{k + 1}"
        for k, s in enumerate(steps)
    ]
    return "WITH " + ", ".join(ctes) + " " + " UNION ALL ".join(selects)
