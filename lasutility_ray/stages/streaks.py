"""Gaps-and-islands: longest consecutive-day activity streak per
user — the canonical SQL-interview windowing problem, distributed.

A user's active days are the distinct UTC days (``epoch_us //
86_400_000_000``) with at least one event. A streak is a maximal run
of consecutive day numbers; the output is each user's longest streak
(ties -> the EARLIEST start day, pinned in both engines).

Shape: one hash(user_id) coarse-bucket shuffle of slim (user, day)
rows (pre-distinct-ed per batch so the wire carries at most one row
per (batch, user, day)), then one vectorized scan per bucket: global
dedup, island boundaries via day-difference, per-island lengths with
``np.bincount``, and the (longest, earliest) winner per user via one
lexsort — no per-user python groups.

Cross-engine exactness: everything is int64 day arithmetic; the SQL
mirror is the classic ``day - row_number()`` island trick with the
same tie rule. Scale: shuffle volume is O(distinct active
(user, day)) slim rows; per-bucket state is its rows only.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

US_PER_DAY = 86_400_000_000


def longest_streaks(events_ds):
    """events -> (user_id, max_streak_days, streak_start_day,
    n_active_days), one row per user with >= 1 event."""
    from .cogroup import shuffle_by

    def slim(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        day = (
            t.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
            // US_PER_DAY
        )
        # batch-local dedup: the shuffle only needs one (user, day)
        # row per batch — typically collapses the wire by ~the number
        # of events per user-day
        key = np.stack([uid, day], axis=1)
        key = np.unique(key, axis=0)
        return pa.table(
            {
                "user_id": pa.array(key[:, 0]),
                "day": pa.array(key[:, 1]),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["user_id"].to_numpy(np.int64)
        day = g["day"].to_numpy(np.int64)
        order = np.lexsort((day, uid))
        uid, day = uid[order], day[order]
        # global (cross-batch) dedup of (user, day)
        keep = np.empty(len(uid), dtype=bool)
        keep[0] = True
        keep[1:] = (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])
        uid, day = uid[keep], day[keep]
        n = len(uid)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        island = new_user.copy()
        island[1:] |= day[1:] != day[:-1] + 1
        seg = np.cumsum(island) - 1
        starts = np.flatnonzero(island)
        seg_uid = uid[starts]
        seg_start = day[starts]
        seg_len = np.bincount(seg).astype(np.int64)
        active = np.bincount(np.cumsum(new_user) - 1).astype(np.int64)
        # winner per user: longest, then earliest start
        win = np.lexsort((seg_start, -seg_len, seg_uid))
        seg_uid_w = seg_uid[win]
        first = np.empty(len(win), dtype=bool)
        first[0] = True
        first[1:] = seg_uid_w[1:] != seg_uid_w[:-1]
        pick = win[first]
        return pd.DataFrame(
            {
                "user_id": seg_uid[pick],
                "max_streak_days": seg_len[pick],
                "streak_start_day": seg_start[pick],
                "n_active_days": active,
            }
        )

    return shuffle_by(events_ds.map_batches(slim, batch_format="pyarrow"), "user_id", per_bucket)


def longest_streaks_sql(source: str = "events") -> str:
    """DuckDB mirror of :func:`longest_streaks` — the day-minus-
    row_number island trick, same (longest, earliest-start) tie rule."""
    return (
        "WITH d AS (SELECT DISTINCT user_id, "
        f"CAST(epoch_us(ts) // {US_PER_DAY} AS BIGINT) AS day FROM {source}), "
        "i AS (SELECT user_id, day, day - row_number() OVER "
        "(PARTITION BY user_id ORDER BY day) AS grp FROM d), "
        "s AS (SELECT user_id, COUNT(*) AS len, MIN(day) AS start_day "
        "FROM i GROUP BY user_id, grp), "
        "w AS (SELECT user_id, len, start_day, row_number() OVER "
        "(PARTITION BY user_id ORDER BY len DESC, start_day) AS rn FROM s), "
        "a AS (SELECT user_id, COUNT(*) AS n_active FROM d GROUP BY user_id) "
        "SELECT w.user_id, CAST(w.len AS BIGINT) AS max_streak_days, "
        "w.start_day AS streak_start_day, "
        "CAST(a.n_active AS BIGINT) AS n_active_days "
        "FROM w JOIN a ON a.user_id = w.user_id WHERE w.rn = 1"
    )
