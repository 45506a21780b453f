"""Per-user CUSUM change-point scores — the classic sequential
drift detector (Page 1954): the one-sided cumulative sum
``S_i = max(0, S_{i-1} + (x_i - target))`` flags when a user's event
values run persistently above their own baseline.

Exactness through the RUNNING-MIN IDENTITY: the max(0, ...) recurrence
is not a window aggregate, but with ``RS_i = sum_{j<=i}(x_j - target)``
it holds that ``S_i = RS_i - min(0, min_{j<=i} RS_j)`` — so both
engines compute a cumulative sum and a cumulative min, all int64
(values in cents; target = the user's floor-division mean, dividend
shifted positive because DuckDB // truncates while numpy floors), and
the result is value-exact including the flag ``S_i > THRESH``. Order
within a user is (ts, event_id), the repo's standard total order.

Shape at 100 TB: ONE hash(user_id) coarse-bucket shuffle of slim int64
rows, then a single vectorized segment scan per bucket (global cumsum
rebased at segment starts; the per-segment running min via the
key-offset trick — subtract ``seg * LARGE`` so earlier segments'
keys are strictly larger and can never win ``minimum.accumulate``).
The per-user target is computed INSIDE the same bucket (users are
hash-partitioned whole), so no second exchange.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

THRESH = 35_000  # cents of cumulative positive drift (~p90 at sf0.01)
K_SHIFT = 1 << 20  # positivity shift for the floor-division mean


def cusum_changepoints(events_ds, thresh: int = THRESH):
    """events -> (user_id, event_id, cusum_cents, flagged) — one row
    per event."""
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
                "user_id": pa.array(uid),
                "event_id": t.column("event_id"),
                "__us": pa.array(us),
                "__cents": pa.array(cents),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "__us", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy(np.int64)
        cents = g["__cents"].to_numpy(np.int64)
        n = len(g)
        new_u = np.empty(n, dtype=bool)
        new_u[0] = True
        new_u[1:] = uid[1:] != uid[:-1]
        seg = np.cumsum(new_u) - 1  # dense per-user segment index
        seg_start = np.flatnonzero(new_u)
        n_seg = len(seg_start)
        tot = np.zeros(n_seg, np.int64)
        np.add.at(tot, seg, cents)
        cnt = np.bincount(seg, minlength=n_seg).astype(np.int64)
        target = (tot + K_SHIFT * cnt) // cnt - K_SHIFT
        x = cents - target[seg]
        cs = np.cumsum(x)
        prev_end = np.zeros(n_seg, np.int64)
        if n_seg > 1:
            prev_end[1:] = cs[seg_start[1:] - 1]
        rs = cs - prev_end[seg]
        LARGE = np.int64(1) << 45
        assert int(np.abs(rs).max(initial=0)) < LARGE // 2, "rescale LARGE"
        keyed = rs - seg * LARGE  # earlier segments strictly larger
        rmin = np.minimum.accumulate(keyed) + seg * LARGE
        s = rs - np.minimum(rmin, 0)
        return pd.DataFrame(
            {
                "user_id": uid,
                "event_id": g["event_id"].to_numpy(np.int64),
                "cusum_cents": s,
                "flagged": s > thresh,
            }
        )

    return shuffle_by(events_ds.map_batches(slim, batch_format="pyarrow"), "user_id", per_bucket)


def cusum_sql(thresh: int = THRESH, source: str = "events") -> str:
    """DuckDB mirror of :func:`cusum_changepoints` — the same
    running-min identity as window functions over (ts, event_id)."""
    return (
        "WITH cp_e AS (SELECT user_id, event_id, "
        "CAST(epoch_us(ts) AS BIGINT) AS us, "
        f"CAST(round(value*100) AS BIGINT) AS cents FROM {source}), "
        "cp_t AS (SELECT user_id, "
        f"(CAST(sum(cents) AS BIGINT) + {K_SHIFT} * CAST(count(*) AS BIGINT)) "
        f"// CAST(count(*) AS BIGINT) - {K_SHIFT} AS target "
        "FROM cp_e GROUP BY user_id), "
        "cp_rs AS (SELECT e.user_id, e.event_id, e.us, "
        "SUM(e.cents - t.target) OVER (PARTITION BY e.user_id "
        "ORDER BY e.us, e.event_id ROWS UNBOUNDED PRECEDING) AS rs "
        "FROM cp_e e JOIN cp_t t ON t.user_id = e.user_id), "
        "cp_s AS (SELECT user_id, event_id, "
        "rs - LEAST(0, MIN(rs) OVER (PARTITION BY user_id "
        "ORDER BY us, event_id ROWS UNBOUNDED PRECEDING)) AS s "
        "FROM cp_rs) "
        "SELECT user_id, event_id, CAST(s AS BIGINT) AS cusum_cents, "
        f"s > {thresh} AS flagged FROM cp_s"
    )
