"""Unkeyed interval-OVERLAP join: every (a, b) pair whose closed time
intervals intersect (``a.s <= b.e AND b.s <= a.e``), with the overlap
length — the temporal-algebra join behind incident correlation,
ad-slot/session intersection and downtime attribution. Unlike
``temporal.range_join`` there is NO shared equi-key: the only join
attribute is the time axis itself.

Distribution: the time axis is cut into fixed-width buckets and each
interval is REPLICATED to every bucket it touches (duration-bounded
fan-out: width >= typical duration => <= 2 copies). Overlapping pairs
then co-locate in at least one bucket, and each pair is emitted in
EXACTLY one — the bucket containing ``max(s_a, s_b)`` (both intervals
are live there, and the max-start is a pair-unique instant), so no
cross-bucket dedup pass is needed. In-bucket matching is the
range_join searchsorted + arange-trick expansion (B sorted by start;
for each a only the ``s_b <= e_a`` prefix expands, then the exact
``e_b >= s_a`` + owner-bucket masks). Skew = an instant where many
intervals stack; the owner-bucket rule keeps correctness under any
re-bucketing, so hot windows can re-split with a finer width (the
salting story, documented not automated).

SQL mirror: the plain quadratic overlap join — equality proves the
replicate + owner-bucket scheme lossless and duplicate-free."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

BUCKET_US = 3_600_000_000  # 1 h — >= the fixture's max duration (960 s)


def interval_overlap_join(
    a_ds,
    b_ds,
    a_id: str = "a_id",
    b_id: str = "b_id",
    s_col: str = "s",
    e_col: str = "e",
    bucket_us: int = BUCKET_US,
):
    """a(a_id, s, e) x b(b_id, s, e) -> (a_id, b_id, overlap_us) for
    every closed-interval intersection; microsecond int64 columns."""

    def rep(side: int):
        def f(t: pa.Table) -> pa.Table:
            idc = a_id if side == 0 else b_id
            ids = t.column(idc).to_numpy()
            s = t.column(s_col).to_numpy()
            e = t.column(e_col).to_numpy()
            b0 = s // bucket_us
            b1 = e // bucket_us
            n = (b1 - b0 + 1).astype(np.int64)
            idx = np.repeat(np.arange(len(ids)), n)
            # arange trick: per-row 0..n_i-1 offsets without a loop
            offs = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(
                np.concatenate(([0], np.cumsum(n)[:-1])), n
            )
            return pa.table(
                {
                    "__time_bucket": pa.array(b0[idx] + offs, pa.int64()),
                    "__side": pa.array(
                        np.full(len(idx), side, np.int8), pa.int8()
                    ),
                    "id": pa.array(ids[idx], pa.int64()),
                    "s": pa.array(s[idx], pa.int64()),
                    "e": pa.array(e[idx], pa.int64()),
                }
            )

        return f

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        bucket = int(g["__time_bucket"].iloc[0])
        left = g[g["__side"] == 0]
        right = g[g["__side"] == 1].sort_values("s", kind="mergesort")
        if len(left) == 0 or len(right) == 0:
            return pd.DataFrame(
                {"a_id": [], "b_id": [], "overlap_us": []}, dtype=np.int64
            )
        la, ls, le = (left[c].to_numpy() for c in ("id", "s", "e"))
        rb, rs, re_ = (right[c].to_numpy() for c in ("id", "s", "e"))
        # candidates: for each a, the prefix of B with s_b <= e_a
        hi = np.searchsorted(rs, le, side="right")
        tot = int(hi.sum())
        if tot == 0:
            return pd.DataFrame(
                {"a_id": [], "b_id": [], "overlap_us": []}, dtype=np.int64
            )
        ai = np.repeat(np.arange(len(la)), hi)
        bi = np.arange(tot, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(hi)[:-1])), hi
        )
        ok = re_[bi] >= ls[ai]
        # owner-bucket rule: emit only where max(s_a, s_b) lands here
        mx = np.maximum(ls[ai], rs[bi])
        ok &= mx // bucket_us == bucket
        if not ok.any():
            return pd.DataFrame(
                {"a_id": [], "b_id": [], "overlap_us": []}, dtype=np.int64
            )
        ai, bi = ai[ok], bi[ok]
        return pd.DataFrame(
            {
                "a_id": la[ai],
                "b_id": rb[bi],
                "overlap_us": np.minimum(le[ai], re_[bi])
                - np.maximum(ls[ai], rs[bi]),
            }
        )

    tagged = a_ds.map_batches(rep(0), batch_format="pyarrow").union(
        b_ds.map_batches(rep(1), batch_format="pyarrow")
    )
    return tagged.groupby("__time_bucket").map_groups(
        merge_bucket, batch_format="pandas"
    )
