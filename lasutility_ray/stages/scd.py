"""Slowly-changing-dimension (SCD Type-2) interval build over the
events stream — the classic warehouse operator that turns a change
log into validity intervals.

For each user, consecutive runs of the same ``event_type`` in
``(ts, event_id)`` order collapse to one versioned row carrying
``valid_from_us`` (first event of the run), ``valid_to_us`` (start of
the NEXT run; NULL for the user's current version) and the run's
event count. Same coarse-bucket shuffle shape as
``windowfn.partitioned_window``: one hash(user_id) shuffle co-locates
each user's rows, then one vectorized numpy scan versions every user
in the bucket at once (no per-user python groups).

Cross-engine exactness: timestamps ride as int64 microseconds,
``valid_to_us`` surfaces as float64 (NaN for open intervals — the
dtype DuckDB's ``.df()`` yields for a nullable BIGINT), and the
version counter is a plain int64 — value-exact vs :func:`scd2_sql`.

Scale: the shuffle carries one slim row per event (3 int64 + 1 dict
string column); per-bucket state is its own rows only. Reference
framing: LasUtility has no temporal dimension at all — this is part
of the beyond-reference training-data surface (SURVEY 2.11).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def scd2_intervals(events_ds):
    """events -> (user_id, version, event_type, valid_from_us,
    valid_to_us, n_events), one row per constant-type run per user."""
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
        uid = g["user_id"].to_numpy()
        us = g["__us"].to_numpy()
        et = g["event_type"].to_numpy()
        n = len(g)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        chg = new_user.copy()
        chg[1:] |= et[1:] != et[:-1]
        seg = np.cumsum(chg) - 1  # run id per row
        starts = np.flatnonzero(chg)
        run_uid = uid[starts]
        run_from = us[starts]
        run_type = et[starts]
        run_len = np.bincount(seg)
        # version = 1-based run index within the user
        user_first_run = np.cumsum(new_user[starts]) - 1
        first_run_idx = np.flatnonzero(new_user[starts])
        version = (
            np.arange(len(starts), dtype=np.int64)
            - first_run_idx[user_first_run]
            + 1
        )
        # valid_to = next run's from, NaN when the next run is another
        # user's (i.e. this is the user's current version)
        to = np.empty(len(starts), dtype=np.float64)
        to[:-1] = run_from[1:].astype(np.float64)
        to[-1] = np.nan
        last_of_user = np.empty(len(starts), dtype=bool)
        last_of_user[:-1] = run_uid[1:] != run_uid[:-1]
        last_of_user[-1] = True
        to[last_of_user] = np.nan
        return pd.DataFrame(
            {
                "user_id": run_uid,
                "version": version,
                "event_type": run_type,
                "valid_from_us": run_from.astype(np.int64),
                "valid_to_us": to,
                "n_events": run_len.astype(np.int64),
            }
        )

    return shuffle_by(events_ds.map_batches(slim, batch_format="pyarrow"), "user_id", per_bucket)


def scd2_sql(source: str = "events") -> str:
    """DuckDB mirror of :func:`scd2_intervals` (same (ts, event_id)
    order, same NaN-for-open-interval surface)."""
    return (
        "WITH e AS (SELECT user_id, event_id, event_type, "
        f"CAST(epoch_us(ts) AS BIGINT) AS us FROM {source}), "
        "c AS (SELECT *, CASE WHEN lag(event_type) OVER w IS DISTINCT "
        "FROM event_type THEN 1 ELSE 0 END AS chg FROM e "
        "WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)), "
        "v AS (SELECT *, SUM(chg) OVER (PARTITION BY user_id "
        "ORDER BY us, event_id ROWS UNBOUNDED PRECEDING) AS ver FROM c), "
        "r AS (SELECT user_id, CAST(ver AS BIGINT) AS version, "
        "event_type, MIN(us) AS valid_from_us, COUNT(*) AS n_events "
        "FROM v GROUP BY user_id, ver, event_type) "
        "SELECT user_id, version, event_type, valid_from_us, "
        "CAST(lead(valid_from_us) OVER (PARTITION BY user_id "
        "ORDER BY version) AS DOUBLE) AS valid_to_us, n_events FROM r"
    )


def merge_upsert(base_ds, delta_ds, key_col: str, version_col: str,
                 op_col: str = "op"):
    """MERGE INTO semantics (the lakehouse upsert): apply a change
    table — rows tagged ``'U'`` (upsert) or ``'D'`` (delete
    tombstone) with a monotone version — onto a base snapshot. Winner
    per key = the row with the highest (version, is_delta) under the
    standard "delta beats base at equal version" rule; a winning
    tombstone removes the key.

    ONE coarse-bucket shuffle of tagged slim rows co-locates each
    key; the per-bucket winner scan is a vectorized sort + first.
    Output: the merged snapshot (base schema, no op/version columns
    beyond ``version_col``)."""
    from .cogroup import shuffle_by

    def tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            if side == 0 and op_col not in t.column_names:
                t = t.append_column(
                    "__op", pa.array(["U"] * t.num_rows, pa.string())
                )
            else:
                t = t.append_column(
                    "__op",
                    t.column(op_col) if op_col in t.column_names
                    else pa.array(["U"] * t.num_rows, pa.string()),
                )
            if op_col in t.column_names:
                t = t.drop_columns([op_col])
            return t.append_column(
                "__side", pa.array(np.full(t.num_rows, side, np.int8), pa.int8())
            )

        return f

    def winner(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            [key_col, version_col, "__side"],
            ascending=[True, False, False],
            kind="mergesort",
        )
        w = g.drop_duplicates(key_col, keep="first")
        w = w[w["__op"] != "D"]
        return w.drop(columns=["__op", "__side"])

    return shuffle_by(
        [base_ds.map_batches(tag(0), batch_format="pyarrow"),
         delta_ds.map_batches(tag(1), batch_format="pyarrow")],
        key_col,
        winner,
    )
