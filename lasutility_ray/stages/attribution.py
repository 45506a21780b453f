"""Last-touch marketing attribution over the events stream: each
conversion (``purchase``) is credited to the user's most recent prior
touch event (``click``/``view``/``signup``) in (ts, event_id) order;
conversions with no prior touch credit the ``(none)`` channel. The
output is the per-channel conversion count and integer-cent revenue —
the standard funnel-adjacent analytics rollup.

Scale shape (the engine's one-shuffle event pattern, cf.
`markov.py`/`windowfn.py`): slim integer columns through a single
hash(user_id) coarse-bucket exchange, a vectorized per-bucket scan
(segmented forward-fill of the last touch index — no python row
loop), per-bucket PARTIAL per-channel sums, one tiny final groupby.

Exactness: microsecond int64 order with event_id tie-break, cents =
round(value*100) (the repo-wide events convention), mirrored by the
DuckDB ``last_value(... IGNORE NULLS) OVER (... ROWS BETWEEN
UNBOUNDED PRECEDING AND 1 PRECEDING)`` window.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

TOUCH = ("click", "view", "signup")
CONVERT = "purchase"


def last_touch_attribution(events_ds):
    """events -> (channel, n_conversions, value_cents)."""
    from ray.data.aggregate import Sum

    from .cogroup import shuffle_by

    def slim(t: pa.Table) -> pa.Table:
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
                "event_type": t.column("event_type"),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "__us", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy(dtype=object)
        cents = g["__cents"].to_numpy(np.int64)
        n = len(g)
        is_touch = np.isin(et, TOUCH)
        # segmented forward-fill of the last touch row index: start a
        # new segment at each user boundary
        idx = np.where(is_touch, np.arange(n), -1)
        start = np.zeros(n, dtype=bool)
        start[0] = True
        start[1:] = uid[1:] != uid[:-1]
        seg = np.cumsum(start) - 1
        # reset by offsetting each segment: ffill within the whole
        # array of (seg * n + idx), masking cross-segment carries
        key = np.where(idx >= 0, seg * np.int64(n) + idx, -1)
        filled = np.maximum.accumulate(key)
        valid = (filled >= 0) & (filled // n == seg)
        last_touch = np.where(valid, filled % n, -1)
        conv = et == CONVERT
        channel = np.full(n, "(none)", dtype=object)
        has = conv & (last_touch >= 0)
        channel[has] = et[last_touch[has]]
        out = (
            pd.DataFrame({"channel": channel[conv], "cents": cents[conv]})
            .groupby("channel", sort=False)
            .agg(n_conversions=("cents", "size"), value_cents=("cents", "sum"))
            .reset_index()
        )
        out["n_conversions"] = out["n_conversions"].astype(np.int64)
        out["value_cents"] = out["value_cents"].astype(np.int64)
        return out

    slimmed = events_ds.select_columns(
        ["event_id", "user_id", "ts", "event_type", "value"]
    ).map_batches(slim, batch_format="pyarrow")
    return (
        shuffle_by(slimmed, "user_id", per_bucket)
        .groupby("channel")
        .aggregate(
            Sum("n_conversions", alias_name="n_conversions"),
            Sum("value_cents", alias_name="value_cents"),
        )
    )


def attribution_sql(source: str = "events") -> str:
    """DuckDB mirror of :func:`last_touch_attribution`."""
    touches = ", ".join(f"'{t}'" for t in TOUCH)
    return (
        "WITH at_w AS (SELECT event_type, value, "
        f"last_value(CASE WHEN event_type IN ({touches}) THEN event_type END "
        "IGNORE NULLS) OVER (PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS channel "
        f"FROM {source}) "
        "SELECT coalesce(channel, '(none)') AS channel, "
        "CAST(count(*) AS BIGINT) AS n_conversions, "
        "CAST(sum(CAST(round(value * 100.0) AS BIGINT)) AS BIGINT) AS value_cents "
        f"FROM at_w WHERE event_type = '{CONVERT}' "
        "GROUP BY coalesce(channel, '(none)')"
    )
