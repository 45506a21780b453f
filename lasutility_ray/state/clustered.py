"""Clustered (hive-partitioned) Parquet layout + partition-pruned
reads — the "prune at the read" half of the 100 TB contract made
first-class: events are written once, clustered by day
(``day=<n>/...`` hive directories, one partition per key range), and
range queries then read ONLY the partitions the predicate touches —
directory-level pruning that no amount of row-group cleverness beats,
because pruned files are never even listed to the scheduler.

At 100 TB this is the difference between a range scan costing
O(range) and O(corpus): the layout is written by the same streaming
``write_parquet`` used everywhere (resumable, one directory per key
range per the repo's output contract), and the pruned read composes
with column pruning (``columns=[...]``) and Ray's streaming executor.
The SQL oracle runs the SAME predicate over the UNCLUSTERED source
table — equality proves the clustered layout + explicit-partition
read lossless."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

US_PER_HOUR = 3_600_000_000
HOURS_PER_DAY = 24


def write_clustered_events(events_ds, path: str):
    """events -> hive layout ``path/day=<n>/*.parquet`` with slim
    (hr, user_id) rows clustered by epoch day."""

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
                "user_id": t.column("user_id").cast(pa.int64()),
                "day": pa.array(hr // HOURS_PER_DAY, pa.int64()),
            }
        )

    events_ds.map_batches(slim, batch_format="pyarrow").write_parquet(
        path, partition_cols=["day"]
    )
    return path


def read_hr_range(path: str, lo_hr: int, hi_hr: int):
    """Partition-pruned range read: list ONLY the ``day=`` directories
    the [lo_hr, hi_hr] range touches (directory names are metadata —
    no data file outside the range is opened), then apply the exact
    hour predicate to the surviving rows."""
    import ray.data as rd

    lo_d, hi_d = lo_hr // HOURS_PER_DAY, hi_hr // HOURS_PER_DAY
    # explicit FILE list: Ray expands a single directory path but not
    # a list of directories, and naming files keeps the prune audit
    # trivial (exactly these files are opened, nothing else)
    dirs = []
    for d in range(lo_d, hi_d + 1):
        dp = os.path.join(path, f"day={d}")
        if os.path.isdir(dp):
            dirs.extend(
                os.path.join(dp, f)
                for f in sorted(os.listdir(dp))
                if f.endswith(".parquet")
            )
    if not dirs:
        return rd.from_arrow(
            pa.table(
                {"hr": pa.array([], pa.int64()), "user_id": pa.array([], pa.int64())}
            )
        )
    ds = rd.read_parquet(dirs, columns=["hr", "user_id"])

    def exact(t: pa.Table) -> pa.Table:
        hr = t.column("hr").to_numpy()
        return t.filter(pa.array((hr >= lo_hr) & (hr <= hi_hr)))

    return ds.map_batches(exact, batch_format="pyarrow")


def hourly_activity_pruned(events_ds, lo_hr: int, hi_hr: int, path: str):
    """The composed demo op: cluster once, answer the range query off
    the pruned layout -> (hr, n_events, n_users)."""
    import pandas as pd

    from ..stages.cogroup import shuffle_by

    write_clustered_events(events_ds, path)
    rows = read_hr_range(path, lo_hr, hi_hr)

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("hr", sort=False).agg(
            n_events=("user_id", "size"), n_users=("user_id", "nunique")
        )
        return out.reset_index().astype(np.int64)

    return shuffle_by(rows, "hr", agg)


def hourly_activity_sql(lo_hr: int, hi_hr: int, source: str = "events") -> str:
    """Unclustered full-table mirror of :func:`hourly_activity_pruned`."""
    return (
        f"SELECT CAST(epoch_us(ts) // {US_PER_HOUR} AS BIGINT) AS hr, "
        "CAST(count(*) AS BIGINT) AS n_events, "
        "CAST(count(DISTINCT user_id) AS BIGINT) AS n_users "
        f"FROM {source} "
        f"WHERE epoch_us(ts) // {US_PER_HOUR} BETWEEN {lo_hr} AND {hi_hr} "
        "GROUP BY hr"
    )
