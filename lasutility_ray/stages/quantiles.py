"""Per-group quantiles (exact + mergeable-histogram approximate) and
deterministic hash sampling.

The reference has no quantile or sampling operators (SURVEY.md §2.5
"No distinct/sketch/approximate aggregates", §2.6 "no sampling");
a training-data pipeline needs both (per-source length percentiles
for quality cutoffs, deterministic subsampling for eval splits).

Three shapes:

- ``group_quantiles`` — EXACT, linear interpolation (bit-equal to
  DuckDB ``quantile_cont``; NOT ``np.quantile``, whose lerp shape
  rounds differently by 1 ulp in ~16% of cases). One ``groupby`` +
  ``map_groups``: every value of a group is co-located on one
  worker. Right when groups are bounded (per-source, per-language,
  per-tile); NOT the 100 TB path for a single giant group.
- ``group_quantiles_hist`` — the scale path: pass 1 computes
  per-group min/max (tiny groupby), pass 2 accumulates per-batch
  partial histograms (``np.bincount`` into ``n_bins`` fixed bins per
  group) that merge by vector addition — O(n_groups × n_bins) state
  regardless of row count, no value co-location. Value error is
  bounded by (max-min)/n_bins per group.
- ``hash_sample`` — deterministic Bernoulli row sample by a Lehmer
  LCG step on an int64 key: keep iff ``(key % M) * 48271 % M <
  M*rate``, M = 2^31-1. No RNG state, no shuffle, identical on
  re-run / resume, and SQL-mirrorable verbatim (the point: a sample
  whose membership an oracle can recompute). NOT crypto-grade — for
  adversarial keys use a real hash and give up the SQL mirror.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


_M = 2_147_483_647  # 2^31 - 1 (Lehmer modulus)
_A = 48_271


def group_quantiles(ds, group_col: str, value_col: str, qs: dict[str, float]):
    """One row per group: ``{group_col, n, <name>: quantile}`` for
    each ``name -> q`` in ``qs``. Exact linear interpolation
    (= DuckDB ``quantile_cont``)."""
    names = list(qs)
    probs = np.array([qs[n] for n in names], dtype=np.float64)
    if ((probs < 0) | (probs > 1)).any():
        raise ValueError("quantile probabilities must be in [0, 1]")

    from .cogroup import _bucket_of, _is_str_key, _str_bucket_of, default_n_buckets

    n_buckets = default_n_buckets()

    def add_bucket(t: pa.Table) -> pa.Table:
        t = t.select([group_col, value_col])
        col = t.column(group_col)
        if _is_str_key(col.type):
            b = _str_bucket_of(col, n_buckets)
        else:
            b = _bucket_of(col.to_numpy(zero_copy_only=False), n_buckets)
        return t.append_column("__b", pa.array(b))

    # shuffle on a coarse group-hash bucket (all values of a group
    # still co-locate — exactness is preserved); per-group quantiles
    # run as a local slice loop instead of one ray-level python
    # group per key
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(group_col, kind="stable")
        keys_all = g[group_col].to_numpy()
        keys, starts = np.unique(keys_all, return_index=True)
        v = g[value_col].to_numpy(dtype=np.float64)
        bounds = np.append(starts, len(v))
        ncol = (bounds[1:] - bounds[:-1]).astype(np.int64)
        qcols = {name: np.empty(len(keys), np.float64) for name in names}
        for i in range(len(keys)):
            seg = np.sort(v[bounds[i] : bounds[i + 1]])
            # DuckDB quantile_cont's exact float shape (empirically
            # pinned over 1500 random cases): h = (m-1)*q,
            # g = h - floor(h), result = lo*(1-g) + hi*g. numpy's
            # lerp lo + (hi-lo)*g differs by 1 ulp in ~16% of cases.
            h = (len(seg) - 1) * probs
            f = np.floor(h).astype(np.int64)
            c = np.minimum(f + 1, len(seg) - 1)
            g = h - np.floor(h)
            vals = seg[f] * (1.0 - g) + seg[c] * g
            for name, x in zip(names, vals):
                qcols[name][i] = x
        out = {group_col: keys, "n": ncol}
        out.update(qcols)
        return pd.DataFrame(out)

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(per_bucket, batch_format="pandas")
    )


def group_quantiles_hist(
    ds,
    group_col: str,
    value_col: str,
    qs: dict[str, float],
    n_bins: int = 4096,
):
    """Approximate per-group quantiles with mergeable fixed-width
    histograms (see module docstring). Two passes over ``ds``
    (lineage re-executes the scan; pass a checkpointed dataset for
    expensive upstreams). Returns one row per group; each quantile is
    the DISCRETE order statistic at rank ``floor(q*n)`` estimated at
    its bin's upper edge — within (max-min)/n_bins of that order
    statistic (NOT of the interpolated ``quantile_cont``, which can
    sit between order statistics that are many bins apart in sparse
    groups).
    """
    names = list(qs)
    probs = np.array([qs[n] for n in names], dtype=np.float64)

    # pass 1: per-group [min, max] — a tiny shuffle
    import ray.data  # noqa: F401  (Min/Max live on the aggregate API)
    from ray.data.aggregate import Max, Min

    pruned = ds.map_batches(
        lambda t: t.select([group_col, value_col]), batch_format="pyarrow"
    )
    ranges = (
        pruned.groupby(group_col)
        .aggregate(Min(value_col), Max(value_col))
        .to_pandas()
        .sort_values(group_col)  # sorted keys -> vectorized searchsorted lookup
        .reset_index(drop=True)
    )
    keys = ranges[group_col].to_numpy()
    lo = ranges[f"min({value_col})"].to_numpy(dtype=np.float64)
    hi = ranges[f"max({value_col})"].to_numpy(dtype=np.float64)
    width = np.where(hi > lo, (hi - lo) / n_bins, 1.0)
    n_groups = len(keys)

    def partial_hist(t: pa.Table) -> pa.Table:
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        gi = np.searchsorted(keys, g)
        b = ((v - lo[gi]) / width[gi]).astype(np.int64)
        np.clip(b, 0, n_bins - 1, out=b)
        flat = np.bincount(gi * n_bins + b, minlength=n_groups * n_bins)
        h = flat.reshape(n_groups, n_bins)
        used = np.flatnonzero(h.any(axis=1))
        return pa.table(
            {
                "__gi": pa.array(used, pa.int64()),
                "__hist": pa.array(list(h[used].astype(np.int64)), pa.list_(pa.int64())),
            }
        )

    partials = pruned.map_batches(partial_hist, batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        gi = int(g["__gi"].iloc[0])
        h = np.sum(np.stack(g["__hist"].to_numpy()), axis=0)
        n = int(h.sum())
        cum = np.cumsum(h)
        ranks = np.minimum((probs * n).astype(np.int64), n - 1)
        bins = np.searchsorted(cum, ranks, side="right")
        est = lo[gi] + (bins + 1) * width[gi]
        out = {group_col: [keys[gi]], "n": np.array([n], dtype=np.int64)}
        for name, x in zip(names, est):
            out[name] = np.array([x], dtype=np.float64)
        return pd.DataFrame(out)

    return partials.groupby("__gi").map_groups(merge, batch_format="pandas")


def hash_sample(ds, key_col: str, rate_milli: int, invert: bool = False):
    """Deterministic Bernoulli sample: keep a row iff two Lehmer
    steps of the key fall under the rate threshold,
    ``(((key % M) * A % M) * A) % M < M * rate_milli / 1000`` with
    M = 2^31-1, A = 48271. Two steps because one is linear with a
    small slope — sequential keys below ~M/A would ALL be kept.
    ``rate_milli`` is the keep rate in 1/1000ths. SQL mirror:
    ``WHERE (key % 2147483647) * 48271 % 2147483647 * 48271
    % 2147483647 < (2147483647 * rate_milli) // 1000``.
    ``invert=True`` keeps the complement — the two calls partition
    the dataset exactly (deterministic train/eval splits)."""
    if not 0 <= rate_milli <= 1000:
        raise ValueError(f"rate_milli must be in [0, 1000] (got {rate_milli})")
    threshold = (_M * rate_milli) // 1000

    def keep(t: pa.Table) -> pa.Table:
        k = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        state = (k % _M) * _A % _M * _A % _M
        keep_mask = state >= threshold if invert else state < threshold
        return t.filter(pa.array(keep_mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def stratified_sample(ds, group_col: str, key_col: str, k: int):
    """Exactly-k-per-group deterministic sample: rank each group's
    rows by the two-step Lehmer hash of ``key_col`` (descending, key
    asc tiebreak) and keep the top k. The per-batch partial top-k
    (``relational.topk_per_group``) bounds the shuffle at k rows per
    (batch, group), so group skew never concentrates raw rows.
    Reproducible across runs/resumes; SQL mirror is a row_number()
    window over the same hash."""
    from .relational import topk_per_group

    def add_h(t: pa.Table) -> pa.Table:
        key = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = (key % _M) * _A % _M * _A % _M
        return t.append_column("h", pa.array(h, pa.int64()))

    return topk_per_group(
        ds.map_batches(add_h, batch_format="pyarrow"),
        group_col,
        "h",
        key_col,
        k=k,
    )


def weighted_sample(ds, key_col: str, weight_col: str, k: int):
    """Weighted sample without replacement (Efraimidis–Spirakis A-ES,
    public algorithm): each row draws a deterministic uniform
    ``u = (lehmer2(key) + 1) / M`` in (0, 1] and is ranked by
    ``es_key = -ln(u) / w`` — the k SMALLEST keys are a weighted
    sample without replacement (higher weight -> stochastically
    smaller key). Deterministic (Lehmer hash, no RNG state), and the
    float expression is written with the same literal operand order
    as the SQL mirror, so the selected set AND the keys are
    value-exact vs DuckDB.

    100 TB shape: per-batch partial top-k bounds the shuffle at k
    rows per batch (relational.topk_per_group with a constant group);
    no global sort. Rows with w <= 0 are excluded in both engines."""
    from .relational import topk_per_group

    def add_key(t: pa.Table) -> pa.Table:
        w = t.column(weight_col).to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(w > 0))
        w = w[w > 0]
        key = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        state = (key % _M) * _A % _M * _A % _M
        u = (state + 1) / float(_M)
        es = (-np.log(u)) / w.astype(np.float64)
        return (
            t.append_column("es_key", pa.array(es, pa.float64()))
            .append_column("__neg", pa.array(-es, pa.float64()))
            .append_column("__one", pa.array(np.zeros(len(w), np.int64), pa.int64()))
        )

    out = topk_per_group(
        ds.map_batches(add_key, batch_format="pyarrow"),
        "__one",
        "__neg",
        key_col,
        k=k,
    )
    return out.drop_columns(["__one", "__neg"])


def iqr_filter(
    ds,
    group_col: str,
    value_col: str,
    passthrough: list[str] | None = None,
    k: float = 1.5,
):
    """Tukey IQR outlier filter per group: keep rows whose value lies
    in ``[q1 - 1.5*IQR, q3 + 1.5*IQR]`` of their group.

    Composition of :func:`group_quantiles` (exact, quantile_cont-
    bit-shaped) with a broadcast fence lookup: the per-group fence
    table is group-space bounded, shipped once via ``ray.put`` and
    probed map-only — the corpus is scanned twice (quantiles + filter)
    with no second shuffle. Fence arithmetic runs in float64 with the
    same op order as the SQL mirror, so the keep set is value-exact
    even at fence-equality boundaries."""
    import ray as _ray

    q = group_quantiles(ds, group_col, value_col, {"q1": 0.25, "q3": 0.75}).to_pandas()
    iqr = q["q3"].to_numpy() - q["q1"].to_numpy()
    lo = q["q1"].to_numpy() - k * iqr
    hi = q["q3"].to_numpy() + k * iqr
    fence_ref = _ray.put(
        (
            dict(zip(q[group_col].tolist(), lo.tolist())),
            dict(zip(q[group_col].tolist(), hi.tolist())),
        )
    )
    keep_cols = passthrough

    def keep(t: pa.Table) -> pa.Table:
        lo_d, hi_d = _ray.get(fence_ref)
        keys = t.column(group_col).to_pandas()
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        lo_a = keys.map(lo_d).to_numpy(dtype=np.float64)
        hi_a = keys.map(hi_d).to_numpy(dtype=np.float64)
        mask = (v >= lo_a) & (v <= hi_a)
        if keep_cols is not None:
            t = t.select(keep_cols)
        return t.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def iqr_filter_sql(
    group_col: str, value_col: str, source: str, out_cols: list[str], k: float = 1.5
) -> str:
    """DuckDB mirror of :func:`iqr_filter` (same float64 fence ops)."""
    cols = ", ".join(f"d.{c}" for c in out_cols)
    return (
        f"WITH q AS (SELECT {group_col}, "
        f"quantile_cont(CAST({value_col} AS DOUBLE), 0.25) AS q1, "
        f"quantile_cont(CAST({value_col} AS DOUBLE), 0.75) AS q3 "
        f"FROM {source} GROUP BY {group_col}) "
        f"SELECT {cols} FROM {source} d JOIN q USING ({group_col}) "
        f"WHERE CAST(d.{value_col} AS DOUBLE) >= q.q1 - {k!r}*(q.q3 - q.q1) "
        f"AND CAST(d.{value_col} AS DOUBLE) <= q.q3 + {k!r}*(q.q3 - q.q1)"
    )


def winsorize(
    ds,
    group_col: str,
    value_col: str,
    passthrough: list[str] | None = None,
    p_lo: float = 0.05,
    p_hi: float = 0.95,
):
    """Per-group winsorization: values CLIP to their group's exact
    [p_lo, p_hi] quantile fences instead of dropping (iqr_filter's
    sibling — keeps the row count, tames the tails; the standard
    robust-mean preprocessor). Same shape: one exact
    :func:`group_quantiles` pass, fences broadcast once, map-only
    clip; fence arithmetic in float64 matching the SQL mirror's
    least/greatest, so clipped values are value-exact."""
    import ray as _ray

    q = group_quantiles(
        ds, group_col, value_col, {"lo": p_lo, "hi": p_hi}
    ).to_pandas()
    fence_ref = _ray.put(
        (
            dict(zip(q[group_col].tolist(), q["lo"].tolist())),
            dict(zip(q[group_col].tolist(), q["hi"].tolist())),
        )
    )
    keep_cols = passthrough

    def clip(t: pa.Table) -> pa.Table:
        lo_m, hi_m = _ray.get(fence_ref)
        g = t.column(group_col).to_pandas()
        v = t.column(value_col).to_numpy().astype(np.float64)
        lo = g.map(lo_m).to_numpy(dtype=np.float64)
        hi = g.map(hi_m).to_numpy(dtype=np.float64)
        w = np.minimum(np.maximum(v, lo), hi)
        cols = {group_col: t.column(group_col)}
        for c in keep_cols or []:
            cols[c] = t.column(c)
        cols[f"{value_col}_w"] = pa.array(w, pa.float64())
        return pa.table(cols)

    return ds.map_batches(clip, batch_format="pyarrow")


def winsorize_sql(
    group_col: str, value_col: str, source: str,
    out_cols: list[str], p_lo: float = 0.05, p_hi: float = 0.95,
) -> str:
    """DuckDB mirror of :func:`winsorize`."""
    cols = ", ".join(f"d.{c}" for c in out_cols)
    return (
        f"WITH wz_q AS (SELECT {group_col}, "
        f"quantile_cont(CAST({value_col} AS DOUBLE), {p_lo}) AS lo, "
        f"quantile_cont(CAST({value_col} AS DOUBLE), {p_hi}) AS hi "
        f"FROM {source} GROUP BY {group_col}) "
        f"SELECT d.{group_col}{', ' + cols if cols else ''}, "
        f"least(greatest(CAST(d.{value_col} AS DOUBLE), q.lo), q.hi) "
        f"AS {value_col}_w "
        f"FROM {source} d JOIN wz_q q ON q.{group_col} = d.{group_col}"
    )
