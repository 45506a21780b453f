"""Point-in-time (validity-interval) join — "what was the user's
state an hour before this event?": every event looks up the SCD Type-2
version (stages/scd.py) of its user that was valid at ``event time -
lookback``. The feature-store primitive: training rows must join
dimension state AS OF a past instant, never the current one
(time-travel correctness / leakage prevention).

Shape: both sides hash to the same user bucket — the SCD2 run table
is rebuilt IN the bucket from the co-located raw events (one shuffle
total, no second join exchange), then one ``np.searchsorted`` over
run starts (offset per user into disjoint key ranges) answers every
event's lookup in the bucket at once. Events before the user's first
version surface NaN (the nullable-BIGINT dtype DuckDB's ``.df()``
yields), making the leakage case explicit.

Cross-engine exactness: run starts are int64 microseconds, the lookup
instant is ``us - lookback_us``, and a version starting EXACTLY at
the instant is valid (``>=``, pinned in both engines).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

LOOKBACK_US = 3_600_000_000  # 1 hour


def pit_version_join(events_ds, lookback_us: int = LOOKBACK_US):
    """events -> (event_id, user_id, version_asof, type_asof):
    the SCD2 version/type valid at (ts - lookback); NaN/None before
    the user's first version."""
    from .cogroup import shuffle_by

    def slim(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        us = (
            t.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": t.column("event_id"),
                "__us": pa.array(us),
                "event_type": t.column("event_type"),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "__us", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy(np.int64)
        us = g["__us"].to_numpy(np.int64)
        et = g["event_type"].to_numpy()
        n = len(g)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        chg = new_user.copy()
        chg[1:] |= et[1:] != et[:-1]
        starts = np.flatnonzero(chg)
        run_from = us[starts]
        run_type = et[starts]
        run_user_new = new_user[starts]
        first_run_idx = np.flatnonzero(run_user_new)
        run_uidx = np.cumsum(run_user_new) - 1
        run_version = (
            np.arange(len(starts), dtype=np.int64)
            - first_run_idx[run_uidx]
            + 1
        )
        # lookup: per event, the last run of ITS user with
        # run_from <= us - lookback; rebase times to the bucket's own
        # window and offset each user into a disjoint key range so ONE
        # searchsorted serves the whole bucket at full microsecond
        # precision
        uidx_ev = np.cumsum(new_user) - 1
        instant = us - lookback_us
        base = min(int(run_from.min()), int(instant.min()))
        span = max(int(run_from.max()), int(instant.max())) - base + 1
        n_users = len(first_run_idx)
        assert n_users * span < 2**63, "bucket time window x users overflow"
        run_key = run_uidx * span + (run_from - base)
        ev_key = uidx_ev * span + (instant - base)
        pos = np.searchsorted(run_key, ev_key, side="right") - 1
        # a hit must belong to the event's own user
        valid = (pos >= 0) & (run_uidx[np.clip(pos, 0, None)] == uidx_ev)
        version = np.full(n, np.nan)
        vtype = np.full(n, None, dtype=object)
        version[valid] = run_version[pos[valid]].astype(np.float64)
        vtype[valid] = run_type[pos[valid]]
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": uid,
                "version_asof": version,
                "type_asof": vtype,
            }
        )

    return shuffle_by(events_ds.map_batches(slim, batch_format="pyarrow"), "user_id", per_bucket)


def pit_version_join_sql(
    source: str = "events", lookback_us: int = LOOKBACK_US
) -> str:
    """DuckDB mirror of :func:`pit_version_join`: the scd2 run table
    (same CTE chain as scd2_sql) ASOF-joined at ts - lookback."""
    return (
        "WITH e AS (SELECT user_id, event_id, event_type, "
        f"CAST(epoch_us(ts) AS BIGINT) AS us FROM {source}), "
        "c AS (SELECT *, CASE WHEN lag(event_type) OVER w IS DISTINCT "
        "FROM event_type THEN 1 ELSE 0 END AS chg FROM e "
        "WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)), "
        "v AS (SELECT *, SUM(chg) OVER (PARTITION BY user_id "
        "ORDER BY us, event_id ROWS UNBOUNDED PRECEDING) AS ver FROM c), "
        "r AS (SELECT user_id, CAST(ver AS BIGINT) AS version, "
        "event_type AS vtype, MIN(us) AS valid_from_us "
        "FROM v GROUP BY user_id, ver, event_type) "
        "SELECT e.event_id, e.user_id, "
        "CAST(r.version AS DOUBLE) AS version_asof, "
        "r.vtype AS type_asof "
        "FROM e ASOF LEFT JOIN r ON e.user_id = r.user_id "
        f"AND e.us - {lookback_us} >= r.valid_from_us"
    )
