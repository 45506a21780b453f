"""Time-series resampling with last-observation-carried-forward
(LOCF) gap fill — the standard "make an irregular event stream a
regular grid" operator feature pipelines need before any rolling
model input.

For each user the operator emits one row per UTC HOUR from the user's
first event hour to its last, carrying the value (integer cents, the
``events`` convention) of the latest event at-or-before that hour.
Within an hour the winning observation is the (ts, event_id)-greatest
event, pinned identically in SQL.

Shape: one hash(user_id) coarse-bucket shuffle of slim int64 rows,
then one vectorized pass per bucket: sort, last-event-per-hour via
segment boundaries, per-user hour grids via ``np.repeat`` + offset
``arange``, and LOCF via one ``np.searchsorted`` per bucket (NOT per
user — hour keys are disambiguated by user offset). The SQL mirror is
``generate_series`` + DuckDB's ASOF JOIN.

Scale: output is O(sum of per-user hour spans) — bounded by the
corpus time window x active users, not by event count; the shuffle
carries one slim row per event. Grid expansion happens AFTER the
shuffle, inside the bucket tasks, so the wire never carries grid
rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .windowfn import _by_user

US_PER_HOUR = 3_600_000_000


def resample_locf(events_ds):
    """events -> (user_id, hr, cents_locf): hourly LOCF grid per user
    between the user's first and last event hours (inclusive)."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "__us", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy(np.int64)
        hr = g["__us"].to_numpy(np.int64) // US_PER_HOUR
        cents = g["__cents"].to_numpy(np.int64)
        n = len(g)
        # last event of each (user, hour): the row before a boundary
        nxt_new = np.empty(n, dtype=bool)
        nxt_new[-1] = True
        nxt_new[:-1] = (uid[1:] != uid[:-1]) | (hr[1:] != hr[:-1])
        ou, oh, oc = uid[nxt_new], hr[nxt_new], cents[nxt_new]
        # per-user grids
        new_u = np.empty(len(ou), dtype=bool)
        new_u[0] = True
        new_u[1:] = ou[1:] != ou[:-1]
        u_start = np.flatnonzero(new_u)
        u_end = np.concatenate([u_start[1:], [len(ou)]]) - 1
        first_hr = oh[u_start]
        last_hr = oh[u_end]
        span = last_hr - first_hr + 1
        gu = np.repeat(ou[u_start], span)
        idx = np.arange(int(span.sum()), dtype=np.int64)
        lead = np.cumsum(np.concatenate([[0], span[:-1]]))
        ghr = idx - np.repeat(lead, span) + np.repeat(first_hr, span)
        # LOCF via ONE searchsorted: offset each user's hours into a
        # disjoint range so a single sorted key array serves everyone
        BIG = 1 << 40
        assert int(oh.max(initial=0)) < BIG and len(u_start) < (1 << 22)
        uidx = np.cumsum(new_u) - 1  # dense user index per obs row
        obs_key = uidx * BIG + oh
        grid_key = np.repeat(np.arange(len(u_start), dtype=np.int64), span) * BIG + ghr
        pos = np.searchsorted(obs_key, grid_key, side="right") - 1
        return pd.DataFrame(
            {
                "user_id": gu,
                "hr": ghr,
                "cents_locf": oc[pos],
            }
        )

    return _by_user(events_ds, per_bucket)


SHIFT = 1 << 40  # positivity shift: DuckDB // truncates, numpy floors


def resample_linear(events_ds):
    """events -> (user_id, hr, cents_lin): hourly LINEAR-interpolation
    grid per user between the first and last event hours.

    Same slim-shuffle / in-bucket-expansion shape as
    :func:`resample_locf`; interior grid hours interpolate between the
    bracketing per-hour observations in exact integer arithmetic —
    ``v0 + floor(dv * (t - t0) / dt)`` computed as
    ``(dv*(t-t0) + SHIFT*dt) // dt - SHIFT`` so the dividend is
    positive and floor == truncate in both engines.
    """

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "__us", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy(np.int64)
        hr = g["__us"].to_numpy(np.int64) // US_PER_HOUR
        cents = g["__cents"].to_numpy(np.int64)
        n = len(g)
        nxt_new = np.empty(n, dtype=bool)
        nxt_new[-1] = True
        nxt_new[:-1] = (uid[1:] != uid[:-1]) | (hr[1:] != hr[:-1])
        ou, oh, oc = uid[nxt_new], hr[nxt_new], cents[nxt_new]
        new_u = np.empty(len(ou), dtype=bool)
        new_u[0] = True
        new_u[1:] = ou[1:] != ou[:-1]
        u_start = np.flatnonzero(new_u)
        u_end = np.concatenate([u_start[1:], [len(ou)]]) - 1
        first_hr = oh[u_start]
        last_hr = oh[u_end]
        span = last_hr - first_hr + 1
        gu = np.repeat(ou[u_start], span)
        idx = np.arange(int(span.sum()), dtype=np.int64)
        lead = np.cumsum(np.concatenate([[0], span[:-1]]))
        ghr = idx - np.repeat(lead, span) + np.repeat(first_hr, span)
        BIG = 1 << 40
        assert int(oh.max(initial=0)) < BIG and len(u_start) < (1 << 22)
        uidx = np.cumsum(new_u) - 1
        obs_key = uidx * BIG + oh
        grid_key = (
            np.repeat(np.arange(len(u_start), dtype=np.int64), span) * BIG + ghr
        )
        # bracketing observations: t0 = last obs <= t, t1 = first >= t
        p0 = np.searchsorted(obs_key, grid_key, side="right") - 1
        p1 = np.searchsorted(obs_key, grid_key, side="left")
        t0, v0 = oh[p0], oc[p0]
        t1, v1 = oh[p1], oc[p1]
        dt = t1 - t0
        dv = v1 - v0
        assert int(np.abs(dv).max(initial=0)) < SHIFT
        on_obs = dt == 0
        dt_safe = np.where(on_obs, 1, dt)
        lin = v0 + (dv * (ghr - t0) + SHIFT * dt_safe) // dt_safe - SHIFT
        val = np.where(on_obs, v0, lin)
        return pd.DataFrame(
            {
                "user_id": gu,
                "hr": ghr,
                "cents_lin": val.astype(np.int64),
            }
        )

    return _by_user(events_ds, per_bucket)


def resample_linear_sql(source: str = "events") -> str:
    """DuckDB mirror of :func:`resample_linear` — the grid ASOF-joined
    BOTH directions to the per-hour observation table, same shifted
    integer division."""
    return (
        "WITH e AS (SELECT user_id, event_id, "
        f"CAST(epoch_us(ts) // {US_PER_HOUR} AS BIGINT) AS hr, "
        "CAST(epoch_us(ts) AS BIGINT) AS us, "
        f"CAST(round(value*100) AS BIGINT) AS cents FROM {source}), "
        "h AS (SELECT user_id, hr, cents FROM ("
        "SELECT *, row_number() OVER (PARTITION BY user_id, hr "
        "ORDER BY us DESC, event_id DESC) AS rn FROM e) WHERE rn = 1), "
        "grid AS (SELECT user_id, unnest(range(mn, mx + 1)) AS hr FROM "
        "(SELECT user_id, MIN(hr) AS mn, MAX(hr) AS mx FROM e "
        "GROUP BY user_id)), "
        "bwd AS (SELECT grid.user_id, grid.hr, h.hr AS t0, h.cents AS v0 "
        "FROM grid ASOF JOIN h "
        "ON grid.user_id = h.user_id AND grid.hr >= h.hr), "
        "fwd AS (SELECT grid.user_id, grid.hr, h.hr AS t1, h.cents AS v1 "
        "FROM grid ASOF JOIN h "
        "ON grid.user_id = h.user_id AND grid.hr <= h.hr) "
        "SELECT b.user_id, CAST(b.hr AS BIGINT) AS hr, "
        "CAST(CASE WHEN f.t1 = b.t0 THEN b.v0 ELSE "
        f"b.v0 + ((f.v1 - b.v0) * (b.hr - b.t0) + {SHIFT} * (f.t1 - b.t0)) "
        f"// (f.t1 - b.t0) - {SHIFT} END AS BIGINT) AS cents_lin "
        "FROM bwd b JOIN fwd f ON f.user_id = b.user_id AND f.hr = b.hr"
    )


def resample_locf_sql(source: str = "events") -> str:
    """DuckDB mirror of :func:`resample_locf` — generate_series grid
    + ASOF JOIN on the last-event-per-hour table."""
    return (
        "WITH e AS (SELECT user_id, event_id, "
        f"CAST(epoch_us(ts) // {US_PER_HOUR} AS BIGINT) AS hr, "
        "CAST(epoch_us(ts) AS BIGINT) AS us, "
        f"CAST(round(value*100) AS BIGINT) AS cents FROM {source}), "
        "h AS (SELECT user_id, hr, cents FROM ("
        "SELECT *, row_number() OVER (PARTITION BY user_id, hr "
        "ORDER BY us DESC, event_id DESC) AS rn FROM e) WHERE rn = 1), "
        "grid AS (SELECT user_id, unnest(range(mn, mx + 1)) AS hr FROM "
        "(SELECT user_id, MIN(hr) AS mn, MAX(hr) AS mx FROM e "
        "GROUP BY user_id)) "
        "SELECT grid.user_id, CAST(grid.hr AS BIGINT) AS hr, "
        "h.cents AS cents_locf "
        "FROM grid ASOF JOIN h "
        "ON grid.user_id = h.user_id AND grid.hr >= h.hr"
    )
