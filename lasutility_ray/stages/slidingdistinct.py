"""Exact DISTINCT-user counts over trailing sliding windows — the
"24-hour active users per hour" metric, the classic case where plain
window aggregates fail (COUNT(DISTINCT) doesn't compose across
overlapping windows) and sketches (HLL) are the usual approximation.

Exact distributed formulation by INTERVAL EXPANSION: a user is active
in the trailing-24 h window ending at hour ``h`` iff the user has an
event in some hour ``h' in [h-23, h]``; equivalently every active
(user, hour) pair COVERS the 24 output hours [h', h'+23]. So:

    distinct (user, hr)  ->  expand each to 24 (user, win) rows
    -> distinct (user, win) -> groupby(win) count

Every step is exact and associative; output hours are clamped to the
corpus's [min_hr, max_hr] (no phantom windows after the last event).

Shape at 100 TB: the (user, hr) distinct table is bounded by active
users x hours (per-batch ``drop_duplicates`` partials collapse before
the shuffle); expansion happens AFTER that dedup, so the wire carries
<= 24x the bounded table, never the raw events. The final count is a
tiny per-hour groupby. SQL mirrors with a range(24) cross join.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

US_PER_HOUR = 3_600_000_000
WINDOW_HOURS = 24


def sliding_distinct_users(events_ds, window_hours: int = WINDOW_HOURS):
    """events -> (hr, n_users): users active in the trailing
    ``window_hours`` ending at each corpus hour. Distincts run through
    ``cogroup.shuffle_by`` + drop_duplicates (Ray 2.49's multi-key
    aggregate carries ~10 s fixed overhead per call; two of them made
    the first cut of this op 10x slower than the shuffles justify)."""
    from .cogroup import distinct_rows, shuffle_by

    def slim(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        hr = (
            t.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
            // US_PER_HOUR
        )
        df = pd.DataFrame({"user_id": uid, "hr": hr}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    # bounded distinct (user, hr) table + the corpus hour bound
    act = distinct_rows(
        events_ds.map_batches(slim, batch_format="pyarrow"), ["user_id", "hr"]
    ).materialize()
    hmax = int(act.max("hr"))

    def expand(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        hr = t.column("hr").to_numpy(zero_copy_only=False).astype(np.int64)
        offs = np.arange(window_hours, dtype=np.int64)
        win = (hr[:, None] + offs[None, :]).ravel()
        u = np.repeat(uid, window_hours)
        keep = win <= hmax  # clamp to the corpus window
        df = pd.DataFrame({"user_id": u[keep], "win": win[keep]}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def count_wins(g: pd.DataFrame) -> pd.DataFrame:
        sub = g.drop_duplicates(["user_id", "win"])
        out = sub.groupby("win", sort=False).size().reset_index(name="n_users")
        return out.rename(columns={"win": "hr"})

    # bucket by win ONLY: the second distinct and the per-window count
    # then share one shuffle (each window fully inside one bucket)
    return shuffle_by(act.map_batches(expand, batch_format="pyarrow"), "win", count_wins)


def sliding_distinct_sql(
    window_hours: int = WINDOW_HOURS, source: str = "events"
) -> str:
    """DuckDB mirror of :func:`sliding_distinct_users`."""
    return (
        "WITH sd_a AS (SELECT DISTINCT user_id, "
        f"CAST(epoch_us(ts) // {US_PER_HOUR} AS BIGINT) AS hr FROM {source}), "
        "sd_mx AS (SELECT MAX(hr) AS hmax FROM sd_a), "
        "sd_w AS (SELECT DISTINCT user_id, hr + o AS win "
        f"FROM sd_a, unnest(range({window_hours})) t(o), sd_mx "
        "WHERE hr + o <= sd_mx.hmax) "
        "SELECT win AS hr, CAST(count(*) AS BIGINT) AS n_users "
        "FROM sd_w GROUP BY win"
    )


def sliding_window_median(events_ds, window_hours: int = WINDOW_HOURS):
    """Exact trailing-``window_hours`` MEDIAN of event values per hour
    — the second classic non-composable sliding aggregate (medians
    don't merge across overlapping windows any more than distincts
    do). Same interval-expansion formulation: each (hr, value) event
    covers the ``window_hours`` windows [hr, hr+W-1] (clamped), and
    each window's values land in ONE coarse bucket (bucket = f(win)),
    so the per-window median is computed with every value co-located
    — the group_quantiles exactness contract. The wire carries W x
    the event rows (values can't pre-aggregate under an exact median;
    the mergeable-histogram quantile path is the documented
    approximation when W x is too dear)."""
    import pandas as pd
    from ray.data.aggregate import Max

    from .cogroup import shuffle_by

    def slim(t: pa.Table) -> pa.Table:
        hr = (
            t.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
            // US_PER_HOUR
        )
        return pa.table(
            {
                "hr": pa.array(hr, pa.int64()),
                "value": t.column("value").cast(pa.float64()),
            }
        )

    slim_ds = events_ds.map_batches(slim, batch_format="pyarrow").materialize()
    hmax = int(slim_ds.max("hr"))

    def expand(t: pa.Table) -> pa.Table:
        hr = t.column("hr").to_numpy()
        v = t.column("value").to_numpy()
        offs = np.arange(window_hours, dtype=np.int64)
        win = (hr[:, None] + offs[None, :]).ravel()
        vv = np.repeat(v, window_hours)
        keep = win <= hmax
        win, vv = win[keep], vv[keep]
        return pa.table(
            {
                "win": pa.array(win, pa.int64()),
                "value": pa.array(vv, pa.float64()),
            }
        )

    def med(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby("win", sort=False)["value"]
            .median()
            .reset_index(name="med_value")
        )
        return out.rename(columns={"win": "hr"})

    return shuffle_by(slim_ds.map_batches(expand, batch_format="pyarrow"), "win", med)


def sliding_median_sql(
    window_hours: int = WINDOW_HOURS, source: str = "events"
) -> str:
    """DuckDB mirror of :func:`sliding_window_median`."""
    return (
        "WITH sm_a AS (SELECT "
        f"CAST(epoch_us(ts) // {US_PER_HOUR} AS BIGINT) AS hr, value "
        f"FROM {source}), "
        "sm_mx AS (SELECT MAX(hr) AS hmax FROM sm_a), "
        "sm_w AS (SELECT hr + o AS win, value "
        f"FROM sm_a, unnest(range({window_hours})) t(o), sm_mx "
        "WHERE hr + o <= sm_mx.hmax) "
        "SELECT win AS hr, median(value) AS med_value "
        "FROM sm_w GROUP BY win"
    )
