"""The engine's shuffle primitives: the coarse-bucket shuffle
(``shuffle_by``), the bucketed lookup join built on its key hash, and
the bounded one-task finish (``one_task``).

Both shuffles run through ONE exchange (``_exchange``): a hash bucket
id in ``__bucket``, a range partition on it at boundaries fixed on the
driver (``Dataset.sort(__bucket, boundaries=[1, ..., n-1])``), then one
``map_batches(batch_size=None)`` pass that calls the caller's function
once per non-empty reducer block. Because the boundaries are given,
Ray runs no sampling pass (a barrier plus one task per input block),
and each reducer holds exactly one bucket id, so every call sees one
whole bucket. The bucket count (``n_buckets_for``) is one bucket per
cluster CPU, raised so that no bucket outgrows Ray Data's target block
size: a small input pays one reduce and one map task per CPU, and a
large one keeps each call's frame bounded as it grows.

``Dataset.join`` in Ray 2.49 crashes when a hash partition receives no
left-side shard (the aggregator builds a schema-less empty table and
``pyarrow.Table.join`` then fails with "No match ... for key field") —
which is the NORMAL case for a sparse left side such as a candidate
pair list. ``lookup_join`` co-groups instead:

1. both sides map to a shared wide schema (absent columns null) with a
   ``__bucket = hash(key) % n_buckets`` shuffle key and a ``__side``
   tag;
2. the one exchange co-groups them; inside each bucket a C-speed
   ``pandas.merge`` performs the inner lookup.

The shuffle moves each side exactly once; no partition can be empty-
schemed because every bucket block carries the full union schema.
A hot left key is spread over sub-buckets by the caller's integer
``n_salt``.
"""

from __future__ import annotations

from functools import lru_cache, reduce, wraps

import numpy as np
import pandas as pd
import pyarrow as pa

_MIX = np.uint64(0x9E3779B97F4A7C15)
# one multiplier per column of a multi-column key
_COL_MIX = (
    _MIX,
    np.uint64(0xC2B2AE3D27D4EB4F),
    np.uint64(0x165667B19E3779F9),
    np.uint64(0x27D4EB2F165667C5),
)
_BUCKET = "__bucket"


def _cluster_cpus() -> int:
    try:
        import ray as _ray

        return int(_ray.cluster_resources().get("CPU", 0)) if _ray.is_initialized() else 0
    except Exception:
        return 0


def default_n_buckets() -> int:
    """Coarse-bucket fanout floor: one bucket per cluster CPU (at least
    one), so every core runs one in-bucket call. Bucket count only
    affects partitioning, never results."""
    return max(1, _cluster_cpus())


@lru_cache(maxsize=None)
def _count_once(count_fn, cpus: int) -> int:
    return count_fn()


def _planned_n_buckets() -> int:
    """``default_n_buckets()``, called once per cluster CPU count: the
    count depends on nothing else, so the shuffles of one pipeline
    read it once. (Keyed on the function too, so a patched count is
    read afresh.)"""
    return _count_once(default_n_buckets, _cluster_cpus())


def _source_bytes(datasets) -> int:
    """Estimated in-memory bytes of the sources the plans of
    ``datasets`` read: the read tasks' estimates and the sizes of
    in-memory inputs, from Ray Data's logical plan without running it.
    A source of unknown size counts 0. Each operator is visited once:
    an iterative stage's plan reuses one input along many paths."""
    total = 0
    ops, seen = [d._logical_plan.dag for d in datasets], set()
    while ops:
        op = ops.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        if op.input_dependencies:
            ops.extend(op.input_dependencies)
        else:
            total += op.infer_metadata().size_bytes or 0
    return total


def n_buckets_for(*datasets) -> int:
    """Bucket count of a shuffle over ``datasets``, fixed on the driver:
    ``default_n_buckets()`` (one per CPU), or more when the inputs'
    estimated size would make a bucket larger than Ray Data's
    ``target_max_block_size``, so one call's frame stays bounded as the
    input grows. Bucket count only affects partitioning, never
    results."""
    from ray.data import DataContext

    n = _planned_n_buckets()
    target = DataContext.get_current().target_max_block_size
    if target:
        n = max(n, -(-_source_bytes(datasets) // target))
    return n


def capped_n_buckets(n_rows: int) -> int:
    """Bucket count for the iterative graph loops, capping a bucket at
    ~200k rows: one bucket per 200k rows, never below 4 — small inputs
    keep few, well-filled groups across many rounds, and a bucket
    stays ~200k rows as the graph grows."""
    return max(4, n_rows // 200_000 + 1)


def _bucket_of(key: np.ndarray, n_buckets: int) -> np.ndarray:
    h = key.astype(np.uint64) * _MIX
    return ((h >> np.uint64(33)) % np.uint64(n_buckets)).astype(np.int64)


def _is_str_key(t: pa.DataType) -> bool:
    return (
        pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
    )


def _str_hash(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """uint64 full-content siphash of a string/binary column (pandas'
    fixed-key vectorized hash — deterministic across processes), so
    shared prefixes don't skew buckets."""
    vals = np.asarray(col.to_numpy(zero_copy_only=False), dtype=object)
    return pd.util.hash_array(vals)


def _str_bucket_of(col: pa.ChunkedArray | pa.Array, n_buckets: int) -> np.ndarray:
    """Bucket id for a string/binary key column. Collisions only
    co-group; the in-bucket step compares full key values."""
    return (_str_hash(col) % np.uint64(n_buckets)).astype(np.int64)


def _int_key(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False).astype(np.int64)


def _col_hash(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    if _is_str_key(col.type):
        return _str_hash(col)
    return _int_key(col).astype(np.uint64)


def key_buckets(t: pa.Table, key: str | list[str], n_buckets: int) -> np.ndarray:
    """int64 bucket id in ``[0, n_buckets)`` of each row's ``key``:
    equal keys always share a bucket.

    A single int key hashes as ``_bucket_of``, a single string/binary
    key as ``_str_bucket_of``. A multi-column key multiplies each
    column's hash (the int value, or the string's siphash) by its own
    odd constant and xors them."""
    keys = [key] if isinstance(key, str) else list(key)
    if len(keys) == 1:
        col = t.column(keys[0])
        if _is_str_key(col.type):
            return _str_bucket_of(col, n_buckets)
        return _bucket_of(_int_key(col), n_buckets)
    if len(keys) > len(_COL_MIX):
        raise ValueError(f"key_buckets: at most {len(_COL_MIX)} key columns (got {keys})")
    h = reduce(np.bitwise_xor, map(np.multiply, map(_col_hash, map(t.column, keys)), _COL_MIX))
    return ((h >> np.uint64(33)) % np.uint64(n_buckets)).astype(np.int64)


def _exchange(tagged, n_ids: int, fn):
    """The engine's one exchange. ``tagged`` carries an int64
    ``__bucket`` in ``[0, n_ids)``; a range partition on it at the
    driver's boundaries ``1 .. n_ids-1`` gives each bucket id its own
    reducer with no sampling pass, and ``fn`` runs once per reducer
    block, on a pandas frame without the bucket column. Ray calls no
    batch function on an empty block, so an empty reducer calls
    nothing."""

    @wraps(fn)  # the plan names the caller's function
    def apply(g: pd.DataFrame) -> pd.DataFrame:
        return fn(g.drop(columns=_BUCKET))

    # an empty boundary list would make Ray sample split points: a
    # single bucket id gets an always-empty reducer ahead of it
    boundaries = list(range(1, n_ids)) or [0]
    return tagged.sort(_BUCKET, boundaries=boundaries).map_batches(
        apply, batch_size=None, batch_format="pandas"
    )


def shuffle_by(ds, key: str | list[str], fn):
    """The engine's coarse-bucket shuffle: a hash bucket of ``key``,
    the one range-partition exchange, then ``fn`` once per bucket.

    ``fn`` takes the bucket's rows as a pandas frame (every row of a
    key is in one call, with rows of other keys beside them; never an
    empty frame) and returns a frame; it does the per-key work with
    vectorized pandas / numpy, so the per-group Python dispatch of a
    per-key ``map_groups`` is paid once per bucket. ``ds`` may be a
    list of Datasets with one schema (a co-group): each is bucketed,
    then they are unioned. The bucket count is fixed here, on the
    driver, by ``n_buckets_for`` (one per cluster CPU, more for a large
    input); it only affects partitioning, never results."""
    inputs = ds if isinstance(ds, list) else [ds]
    n_buckets = n_buckets_for(*inputs)

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(_BUCKET, pa.array(key_buckets(t, key, n_buckets), pa.int64()))

    parts = [d.map_batches(add_bucket, batch_format="pyarrow") for d in inputs]
    tagged = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    return _exchange(tagged, n_buckets, fn)


def distinct_rows(ds, cols: list[str]):
    """Distinct ``cols`` rows of ``ds`` (other columns dropped): one
    ``shuffle_by`` on all of ``cols``, C-speed ``drop_duplicates`` in
    each bucket."""
    return shuffle_by(ds, cols, lambda g: g.drop_duplicates(cols)[cols])


def _arrow_schema(ds, type_overrides: dict | None = None) -> pa.Schema:
    """Unified pyarrow schema for a Dataset whose blocks may be Arrow
    or pandas. Pandas-block schemas carry numpy dtypes; ``object``
    dtype is ambiguous (str vs bytes) and must be named in
    ``type_overrides``."""
    over = type_overrides or {}
    base = ds.schema().base_schema
    if isinstance(base, pa.Schema):
        return pa.schema(
            [(f.name, over.get(f.name, f.type)) for f in base]
        )
    fields = []
    for name, dtype in zip(base.names, base.types):
        if name in over:
            fields.append((name, over[name]))
        elif dtype == np.dtype("O"):
            raise TypeError(
                f"lookup_join: column {name!r} has ambiguous pandas object "
                "dtype — pass its arrow type via type_overrides"
            )
        else:
            fields.append((name, pa.from_numpy_dtype(dtype)))
    return pa.schema(fields)


def lookup_join(
    left_ds,
    right_ds,
    left_key: str,
    right_key: str,
    attach: dict[str, str],
    n_buckets: int | None = None,
    type_overrides: dict | None = None,
    n_salt: int = 1,
    multi: bool = False,
    how: str = "inner",
):
    """Inner-join ``right_ds``'s ``attach`` columns onto ``left_ds``.

    ``attach`` maps right-side column name -> output column name.
    Keys are either integers (int64-castable; values above 2^63 are
    rejected by the cast) or strings/binary (both sides must agree on
    the family — string keys shuffle by full-content hash and merge on
    the exact value). Left rows without a match are dropped (inner
    semantics);
    right rows may match many left rows. By default the right side's
    KEYS must be unique — duplicate right keys raise (which payload
    row would win is block-arrival order, i.e. nondeterministic).
    ``multi=True`` instead emits ONE OUTPUT ROW PER MATCH (full
    many-to-many inner join; deterministic because every match is
    kept, none chosen) — output size is the join cardinality, so keep
    the right side's per-key fan-out bounded.
    Output columns: all left columns + attached columns, with their
    original integer widths/signedness preserved.
    ``type_overrides`` resolves ambiguous pandas-object columns (and
    may force e.g. binary) by column name, either side.

    ``how`` selects the join flavor: ``"inner"`` (default) attaches
    payload columns; ``"semi"`` keeps left rows WITH a right match and
    ``"anti"`` keeps left rows WITHOUT one — both return only the left
    columns and require an empty ``attach`` (membership tests, e.g.
    incremental dedup against a seen-hash table; duplicate right keys
    are harmless there and allowed).

    ``n_salt`` > 1 splits each key's LEFT rows across ``n_salt``
    sub-buckets (round-robin within each batch) and replicates every
    RIGHT row to all of them — the skew escape hatch for a hot left
    key that would otherwise put its whole row mass in one group.
    Right-side shuffle volume multiplies by ``n_salt`` (the right side
    is the small lookup side by contract), results are identical."""
    if n_buckets is None:
        n_buckets = n_buckets_for(left_ds, right_ds)
    if not isinstance(n_salt, int) or n_salt < 1:
        raise ValueError(f"n_salt must be an int >= 1 (got {n_salt!r})")
    if how not in ("inner", "semi", "anti"):
        raise ValueError(f"how must be inner|semi|anti (got {how!r})")
    if how != "inner" and attach:
        raise ValueError(f"how={how!r} is a membership test — attach must be empty")
    left_schema = _arrow_schema(left_ds, type_overrides)
    right_schema = _arrow_schema(right_ds, type_overrides)
    left_cols = list(left_schema.names)
    right_cols = [right_key] + list(attach)
    out_attach = list(attach.values())
    str_key = _is_str_key(left_schema.field(left_key).type)
    if str_key != _is_str_key(right_schema.field(right_key).type):
        raise TypeError(
            "lookup_join: key families differ — left "
            f"{left_schema.field(left_key).type} vs right "
            f"{right_schema.field(right_key).type}"
        )

    def tag_left(t: pa.Table) -> pa.Table:
        cols = {c: t.column(c).cast(left_schema.field(c).type) for c in left_cols}
        k = t.column(left_key)
        cols["__key"] = k.cast(pa.large_string()) if str_key else pa.array(_int_key(k), pa.int64())
        bucket = key_buckets(t, left_key, n_buckets)
        for rc in attach:
            cols["__r_" + rc] = pa.nulls(len(t), right_schema.field(rc).type)
        cols["__side"] = pa.array(np.zeros(len(t), dtype=np.int8))
        if n_salt > 1:
            salt = np.arange(len(t), dtype=np.int64) % n_salt
            bucket = bucket * n_salt + salt
        cols[_BUCKET] = pa.array(bucket)
        return pa.table(cols)

    def tag_right(t: pa.Table) -> pa.Table:
        # column pruning happens HERE, not via Dataset.select_columns:
        # Ray 2.49's Project operator crashes on pandas-backed blocks
        # ('DataFrame' object has no attribute 'rename_columns'), and
        # aggregate outputs feeding a lookup_join are pandas blocks
        t = t.select(right_cols)
        if n_salt > 1:
            t = t.take(np.repeat(np.arange(len(t)), n_salt))
        cols = {}
        for c in left_cols:
            cols[c] = pa.nulls(len(t), left_schema.field(c).type)
        k = t.column(right_key)
        cols["__key"] = k.cast(pa.large_string()) if str_key else pa.array(_int_key(k), pa.int64())
        bucket = key_buckets(t, right_key, n_buckets)
        for rc in attach:
            cols["__r_" + rc] = t.column(rc).cast(right_schema.field(rc).type)
        cols["__side"] = pa.array(np.ones(len(t), dtype=np.int8))
        if n_salt > 1:
            salt = np.tile(np.arange(n_salt, dtype=np.int64), len(t) // n_salt)
            bucket = bucket * n_salt + salt
        cols[_BUCKET] = pa.array(bucket)
        return pa.table(cols)

    lt = left_ds.map_batches(tag_left, batch_format="pyarrow")
    rt = right_ds.map_batches(tag_right, batch_format="pyarrow")
    both = lt.union(rt)

    r_names = ["__r_" + rc for rc in attach]

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lv = g[g["__side"] == 0]
        rv = g[g["__side"] == 1]
        if how != "inner":
            isin = lv["__key"].isin(rv["__key"])
            out = lv[isin] if how == "semi" else lv[~isin]
            out = out[left_cols].copy()
            for c in left_cols:
                t = left_schema.field(c).type
                if pa.types.is_integer(t):
                    out[c] = out[c].astype(t.to_pandas_dtype())
            return out
        if len(lv) == 0 or len(rv) == 0:
            out = lv.iloc[0:0]
        else:
            rv = rv[["__key"] + r_names]
            if not multi and rv["__key"].duplicated().any():
                raise ValueError(
                    "lookup_join: right side has duplicate keys — the "
                    "attached payload would be nondeterministic "
                    "(pass multi=True for a row per match)"
                )
            out = lv.drop(columns=r_names).merge(rv, on="__key", how="inner")
        out = out[left_cols + r_names].rename(columns=dict(zip(r_names, out_attach)))
        # the group block carries the OTHER side's rows with nulls in
        # these columns, so pandas upcast ints to float64 — cast back
        # to each column's DECLARED type (post-merge rows have no
        # nulls by construction; blanket int64 would corrupt uint64
        # and silently widen narrow ints)
        for c in left_cols:
            t = left_schema.field(c).type
            if pa.types.is_integer(t):
                out[c] = out[c].astype(t.to_pandas_dtype())
        for rc, oc in attach.items():
            t = right_schema.field(rc).type
            if pa.types.is_integer(t):
                out[oc] = out[oc].astype(t.to_pandas_dtype())
        return out

    # one call per salted bucket, so the duplicate-right-key check
    # above sees every right row of its keys
    return _exchange(both, n_buckets * n_salt, merge_bucket)


def one_task(fn, *args):
    """Run ``fn(*args)`` in ONE Ray task and return its result to the
    driver: the engine's bounded-finish idiom (map-side combine ->
    slim partials -> one-task finish behind a size gate), and its only
    ``ray.remote``.

    Each ``ray.data.Dataset`` argument arrives inside the task as one
    concatenated ``pa.Table``, or ``None`` when it has no rows. Its
    block refs stream to the task, never through the driver; pandas
    blocks become Arrow, and zero-row or column-less blocks are
    dropped. Other arguments pass through unchanged."""
    import ray
    from ray.data import Dataset

    @ray.remote
    def run(fn, args, block_refs):
        args = list(args)
        for i, refs in block_refs.items():
            # refs nested in a list are not resolved by Ray
            blocks = [
                b if isinstance(b, pa.Table) else pa.Table.from_pandas(b, preserve_index=False)
                for b in ray.get(refs)
            ]
            blocks = [b for b in blocks if b.num_rows and b.num_columns]
            args[i] = pa.concat_tables(blocks) if blocks else None
        return fn(*args)

    block_refs = {
        i: a.to_arrow_refs() for i, a in enumerate(args) if isinstance(a, Dataset)
    }
    plain = [None if i in block_refs else a for i, a in enumerate(args)]
    return ray.get(run.remote(fn, plain, block_refs))


def group_apply_bucketed(ds, key_col: str, fn):
    """``ds.groupby(key_col).map_groups(fn)`` with the per-group UDF
    dispatch paid at C speed.

    Ray 2.49's ``map_groups`` slices and format-converts once per
    group inside the sort-shuffled blocks — measured ~11 s of pure
    overhead for a NOOP over 576 groups x 4M rows, dwarfing the actual
    0.3 s sort. This helper runs ``shuffle_by`` on ``key_col`` (``ds``
    may be a list, as there) and applies ``fn`` per key via an
    in-bucket ``pandas.groupby``. Group order within/across buckets is
    unspecified, as with map_groups."""

    def apply_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = [fn(sub) for _, sub in g.groupby(key_col, sort=False)]
        return pd.concat(outs, ignore_index=True) if len(outs) > 1 else outs[0]

    return shuffle_by(ds, key_col, apply_bucket)
