"""Event-time watermark accounting over an out-of-order ARRIVAL
stream: replaying events in arrival order, the watermark is the
maximum event time seen so far, and an event is LATE when its own
event time trails the watermark by more than the allowed lateness —
the bookkeeping every streaming engine (Flink/Beam-style) does before
dropping or side-outputting late data. Arrival order is a
deterministic hash permutation of event_id (the fixture's events are
generated time-sorted; the permutation models network/ingest
reordering reproducibly in BOTH engines).

Distributed shape: a running max over a total order is a PREFIX SCAN
— the pack_sequences trick with max instead of sum. The arrival key
space is fixed (32-bit hash), so blocks are fixed-width key ranges:
per-block maxima form a BOUNDED table (<= 1024 rows regardless of
corpus size), the driver turns it into exclusive incoming watermarks
(one broadcast dict), and each block finishes with one vectorized
``np.maximum.accumulate``. No stage is corpus-proportional except the
embarrassingly-parallel scan itself.

SQL mirror: ``max(us) OVER (ORDER BY arr, event_id ROWS UNBOUNDED
PRECEDING AND 1 PRECEDING)`` — value-exact including the equal-arr
tie order."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


ARR_MUL = 2654435761
ARR_MOD = 1 << 32
BLOCK_W = 1 << 22  # 1024 fixed arrival-key blocks
LATENESS_US = 28 * 86400 * 1_000_000  # 28 days (fixture: ~7% late)


def late_events(events_ds, lateness_us: int = LATENESS_US):
    """events -> (event_id, lag_us) for events later than the
    watermark allows, in hash-permutation arrival order."""
    from ray.data.aggregate import Max

    def slim(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy()
        us = (
            t.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        # uint64 product mod 2^32 == the full-width product mod 2^32
        # (2^32 | 2^64), so this never wraps wrong for any int64 id;
        # the SQL mirror carries the product in HUGEINT for the same
        # congruence.
        arr = (
            (eid.astype(np.uint64) * np.uint64(ARR_MUL))
            & np.uint64(ARR_MOD - 1)
        ).astype(np.int64)
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "us": pa.array(us, pa.int64()),
                "arr": pa.array(arr, pa.int64()),
                "__block": pa.array(arr // BLOCK_W, pa.int64()),
            }
        )

    slim_ds = events_ds.map_batches(slim, batch_format="pyarrow").materialize()

    # bounded per-block maxima (<= 1024 rows) -> exclusive incoming
    # watermark per block, broadcast once
    bmax = slim_ds.groupby("__block").aggregate(Max("us", alias_name="mx")).to_pandas()
    bmax = bmax.sort_values("__block")
    mx = bmax["mx"].to_numpy(np.int64)
    # sentinel far below any epoch but safe from int64 underflow when
    # lag = wm - us is formed for the stream's first event
    incoming = np.full(len(mx), -(np.int64(1) << 62), np.int64)
    incoming[1:] = np.maximum.accumulate(mx)[:-1]
    blocks = bmax["__block"].to_numpy(np.int64)

    def scan_block(g: pd.DataFrame) -> pd.DataFrame:
        base = incoming[np.searchsorted(blocks, g["__block"].iloc[0])]
        g = g.sort_values(["arr", "event_id"], kind="mergesort")
        us = g["us"].to_numpy(np.int64)
        run = np.maximum.accumulate(us)
        wm = np.empty(len(us), np.int64)
        wm[0] = base
        wm[1:] = np.maximum(run[:-1], base)
        lag = wm - us
        late = lag > lateness_us
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy()[late],
                "lag_us": lag[late],
            }
        )

    return slim_ds.groupby("__block").map_groups(scan_block, batch_format="pandas")


def late_events_sql(
    lateness_us: int = LATENESS_US, source: str = "events"
) -> str:
    """DuckDB mirror of :func:`late_events`."""
    return (
        "WITH wm_w AS (SELECT event_id, epoch_us(ts) AS us, "
        "max(epoch_us(ts)) OVER ("
        f"ORDER BY (CAST(event_id AS HUGEINT) * {ARR_MUL}) % {ARR_MOD}, event_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm "
        f"FROM {source}) "
        "SELECT event_id, wm - us AS lag_us FROM wm_w "
        f"WHERE wm - us > {lateness_us}"
    )
