"""Temporal joins: as-of join and banded range (interval) join.

The reference engine has no temporal joins (SURVEY.md §2.4 — its
joins are spatial); a web-scale event pipeline needs both shapes
(attribution: "latest click before each purchase", windowed
correlation: "clicks within N hours of a purchase"). Both are
implemented as a two-sided ``cogroup.shuffle_by``:

1. both sides map into one wide union schema (absent columns null)
   with an int64 ``__key`` and a ``__side`` tag;
2. ONE coarse-bucket shuffle on ``__key`` co-groups them — the shuffle
   moves each side exactly once, partitioned by the EQUALITY key
   (never by time, so no window replication is needed);
3. inside a bucket the join is C-speed: ``pandas.merge_asof`` (by
   key, on time) for as-of, per-key ``np.searchsorted`` interval
   expansion for range.

Partitioning assumption: all rows of one join key fit in one group
block (the same contract as every keyed groupby in the engine); a
pathologically hot key can be salted upstream only for the range
join's LEFT side (as-of needs the key's full right history).

Determinism: the right side must have unique ``(key, ts)`` pairs for
as-of (otherwise which payload row wins is tie-dependent) — duplicate
pairs raise. Timestamps are handled as int64 epoch-microseconds
throughout, matching DuckDB ``epoch_us``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from lasutility_ray.stages.cogroup import _arrow_schema, shuffle_by

_US = "us"


def _ts_to_us(col: pa.ChunkedArray) -> np.ndarray:
    """int64 epoch-microseconds from a timestamp/int64 column."""
    t = col.type
    if pa.types.is_timestamp(t):
        col = col.cast(pa.timestamp(_US))
    return col.cast(pa.int64()).to_numpy(zero_copy_only=False)


def _tag(
    t: pa.Table,
    side: int,
    key_col: str,
    ts_col: str,
    lcols: list[str],
    ls: pa.Schema,
    rcols: list[str],
    rs: pa.Schema,
) -> pa.Table:
    """Map one side into the union schema — column order is canonical
    (``__l_*`` then ``__r_*``) on BOTH sides so the union's blocks
    agree."""
    key = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
    cols: dict[str, pa.Array | pa.ChunkedArray] = {}
    for c in lcols:
        ty = ls.field(c).type
        cols["__l_" + c] = t.column(c).cast(ty) if side == 0 else pa.nulls(len(t), ty)
    for c in rcols:
        ty = rs.field(c).type
        cols["__r_" + c] = t.column(c).cast(ty) if side == 1 else pa.nulls(len(t), ty)
    cols["__key"] = pa.array(key, pa.int64())
    cols["__ts"] = pa.array(_ts_to_us(t.column(ts_col)), pa.int64())
    cols["__side"] = pa.array(np.full(len(t), side, dtype=np.int8))
    return pa.table(cols)


def _restore_ints(df: pd.DataFrame, names: list[str], prefix: str, schema: pa.Schema,
                  rename: dict[str, str]) -> pd.DataFrame:
    # group blocks carry the other side's rows with nulls in these
    # columns, so pandas upcast ints to float64 — cast back to each
    # column's declared width/signedness (post-join rows are null-free)
    for c in names:
        t = schema.field(c).type
        if pa.types.is_integer(t):
            df[prefix + c] = df[prefix + c].astype(t.to_pandas_dtype())
    return df.rename(columns=rename)


def _cogroup(left_ds, right_ds, on, left_ts, right_ts, attach,
             type_overrides, merge_bucket):
    """Shared tag-and-co-group scaffolding for both temporal joins."""
    ls = _arrow_schema(left_ds, type_overrides)
    rs = _arrow_schema(right_ds, type_overrides)
    lcols = list(ls.names)
    rcols = [c for c in attach]
    lt = left_ds.map_batches(
        lambda t: _tag(t, 0, on[0], left_ts, lcols, ls, rcols, rs),
        batch_format="pyarrow",
    )
    rt = right_ds.map_batches(
        lambda t: _tag(t, 1, on[1], right_ts, lcols, ls, rcols, rs),
        batch_format="pyarrow",
    )
    out_names = ["__l_" + c for c in lcols] + ["__r_" + c for c in rcols]
    rename = {**{"__l_" + c: c for c in lcols},
              **{"__r_" + c: attach[c] for c in rcols}}

    def run(g: pd.DataFrame) -> pd.DataFrame:
        out = merge_bucket(g, lcols, rcols)
        out = out[out_names]
        out = _restore_ints(out, lcols, "__l_", ls, {})
        out = _restore_ints(out, rcols, "__r_", rs, rename)
        return out

    return shuffle_by([lt, rt], "__key", run)


def asof_join(
    left_ds,
    right_ds,
    on: tuple[str, str],
    left_ts: str,
    right_ts: str,
    attach: dict[str, str],
    type_overrides: dict | None = None,
    direction: str = "backward",
):
    """For each left row, attach the LATEST right row with the same
    key and ``right_ts <= left_ts`` (DuckDB ``ASOF JOIN`` backward
    semantics, inner: unmatched left rows are dropped).
    ``direction="forward"`` instead takes the EARLIEST right row with
    ``right_ts >= left_ts`` (DuckDB ``ASOF JOIN ... ON r.ts >=
    l.ts``); ``"nearest"`` the closer of the two (pandas semantics —
    ties go backward; no SQL mirror).

    ``on`` = (left_key, right_key); keys must be int64-castable.
    ``attach`` maps right column -> output name (columns keep their
    original types; to surface the matched right timestamp, include
    ``right_ts`` in ``attach``).
    Right ``(key, ts)`` pairs must be unique (raises otherwise).
    """
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(f"unknown asof direction {direction!r}")

    def merge_bucket(g: pd.DataFrame, lcols, rcols) -> pd.DataFrame:
        lv = g[g["__side"] == 0]
        rv = g[g["__side"] == 1]
        if len(lv) == 0 or len(rv) == 0:
            return lv.iloc[0:0]
        rv = rv[["__key", "__ts"] + ["__r_" + c for c in rcols]]
        if rv.duplicated(["__key", "__ts"]).any():
            raise ValueError(
                "asof_join: right side has duplicate (key, ts) pairs — "
                "the attached payload would be nondeterministic"
            )
        lv = lv.drop(columns=["__r_" + c for c in rcols]).sort_values(
            "__ts", kind="stable"
        )
        rv = rv.sort_values("__ts", kind="stable")
        rv = rv.assign(__m=np.int8(1))  # match marker (payloads may be null)
        out = pd.merge_asof(
            lv, rv, on="__ts", by="__key", direction=direction,
            allow_exact_matches=True,
        )
        # merge_asof is a left join; ASOF JOIN is inner — drop misses.
        return out[out["__m"].notna()]

    return _cogroup(left_ds, right_ds, on, left_ts, right_ts, attach,
                    type_overrides, merge_bucket)


def range_join(
    left_ds,
    right_ds,
    on: tuple[str, str],
    left_ts: str,
    right_ts: str,
    lo_us: int,
    hi_us: int,
    attach: dict[str, str],
    type_overrides: dict | None = None,
):
    """Banded interval join: every (left, right) pair with the same
    key and ``left_ts + lo_us <= right_ts <= left_ts + hi_us``
    (closed band, matching SQL ``BETWEEN``). Offsets are int64
    microseconds; e.g. ``lo_us=-12*3600*10**6, hi_us=0`` = "right
    events in the 12 hours up to and including the left event".

    In-bucket: the right side is sorted by (key, ts) once; each
    distinct left key does ONE vectorized ``np.searchsorted`` pair
    over its right segment and expands matches with the arange
    trick — no per-row Python loop (the loop is per distinct key in
    the bucket, each iteration vectorized over all its rows).
    """
    if lo_us > hi_us:
        raise ValueError(f"range_join: lo_us {lo_us} > hi_us {hi_us}")

    def merge_bucket(g: pd.DataFrame, lcols, rcols) -> pd.DataFrame:
        lv = g[g["__side"] == 0]
        rv = g[g["__side"] == 1]
        if len(lv) == 0 or len(rv) == 0:
            return lv.iloc[0:0]
        rv = rv.sort_values(["__key", "__ts"], kind="stable")
        rkey = rv["__key"].to_numpy()
        rts = rv["__ts"].to_numpy()
        lkey = lv["__key"].to_numpy()
        lts = lv["__ts"].to_numpy()
        l_idx_parts: list[np.ndarray] = []
        r_idx_parts: list[np.ndarray] = []
        for k in np.unique(lkey):
            s = np.searchsorted(rkey, k, "left")
            e = np.searchsorted(rkey, k, "right")
            if s == e:
                continue
            li = np.flatnonzero(lkey == k)
            lo = s + np.searchsorted(rts[s:e], lts[li] + lo_us, "left")
            hi = s + np.searchsorted(rts[s:e], lts[li] + hi_us, "right")
            n = hi - lo
            tot = int(n.sum())
            if tot == 0:
                continue
            l_idx_parts.append(np.repeat(li, n))
            # arange trick: concatenated [lo_i, hi_i) ranges without a loop
            starts = np.repeat(lo - np.concatenate(([0], np.cumsum(n)[:-1])), n)
            r_idx_parts.append(starts + np.arange(tot))
        if not l_idx_parts:
            return lv.iloc[0:0]
        l_take = np.concatenate(l_idx_parts)
        r_take = np.concatenate(r_idx_parts)
        lpart = lv.iloc[l_take][
            ["__l_" + c for c in lcols]
        ].reset_index(drop=True)
        rpart = rv.iloc[r_take][
            ["__r_" + c for c in rcols]
        ].reset_index(drop=True)
        return pd.concat([lpart, rpart], axis=1)

    return _cogroup(left_ds, right_ds, on, left_ts, right_ts, attach,
                    type_overrides, merge_bucket)


def merge_intervals(events_ds, dur_mod: int = 300, dur_base: int = 30):
    """Per-key union of overlapping time intervals (interval algebra's
    coalesce/"islands" operator): each event opens an interval
    ``[ts, ts + dur)`` with a deterministic duration
    ``(event_id % dur_mod + dur_base) seconds`` (the synthetic
    stand-in for a session/visit length, mirrored 1:1 in SQL), and
    all intervals of a user that overlap or touch are merged into one
    row ``(user_id, start_us, end_us, n_merged)``.

    Shape: ONE coarse-bucket shuffle on hash(user_id) co-locates each
    user's slim (start, end) rows, then a single vectorized per-bucket
    scan does every user at once — sort (user, start, end), running
    ``cummax(end)`` per user, an island breaks where
    ``start > cummax(previous ends)`` (touching intervals merge,
    half-open semantics). Integer epoch-microseconds throughout.
    """
    dur_mod = int(dur_mod)
    dur_base = int(dur_base)

    def slim(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        s = _ts_to_us(t.column("ts"))
        eid = t.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        e = s + (eid % dur_mod + dur_base) * 1_000_000
        return pa.table(
            {
                "user_id": pa.array(uid),
                "__s": pa.array(s),
                "__e": pa.array(e),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "__s", "__e"], kind="stable")
        uid = g["user_id"].to_numpy()
        s = g["__s"].to_numpy()
        e = g["__e"].to_numpy()
        cm = g.groupby("user_id", sort=False)["__e"].cummax().to_numpy()
        n = len(g)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        brk = new_user.copy()
        brk[1:] |= s[1:] > cm[:-1]
        starts = np.flatnonzero(brk)
        out_uid = uid[starts]
        out_s = s[starts]
        out_e = np.maximum.reduceat(e, starts)
        out_n = np.diff(np.append(starts, n))
        return pd.DataFrame(
            {
                "user_id": out_uid,
                "start_us": out_s,
                "end_us": out_e,
                "n_merged": out_n.astype(np.int64),
            }
        )

    return shuffle_by(events_ds.map_batches(slim, batch_format="pyarrow"), "user_id", per_bucket)


def merge_intervals_sql(
    source: str = "events", dur_mod: int = 300, dur_base: int = 30
) -> str:
    """DuckDB mirror of :func:`merge_intervals` (same islands-and-gaps
    window construction, same integer microseconds)."""
    return (
        f"WITH mi AS (SELECT user_id, epoch_us(ts) AS s, "
        f"epoch_us(ts) + (event_id % {dur_mod} + {dur_base}) * 1000000 AS e "
        f"FROM {source}), "
        "mo AS (SELECT user_id, s, e, max(e) OVER ("
        "PARTITION BY user_id ORDER BY s, e "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS pm FROM mi), "
        "mf AS (SELECT user_id, s, e, "
        "CASE WHEN pm IS NULL OR s > pm THEN 1 ELSE 0 END AS brk FROM mo), "
        "mg AS (SELECT user_id, s, e, SUM(brk) OVER ("
        "PARTITION BY user_id ORDER BY s, e ROWS UNBOUNDED PRECEDING) "
        "AS isl FROM mf) "
        "SELECT user_id, min(s) AS start_us, max(e) AS end_us, "
        "CAST(count(*) AS BIGINT) AS n_merged "
        "FROM mg GROUP BY user_id, isl"
    )
