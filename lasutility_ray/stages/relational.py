"""Relational operators over the corpus tables: distributed hash
equi-join + broadcast join.

The reference has no equi/hash joins (SURVEY.md §2.4: its joins are
all spatial); the engine adds them because a web-scale pipeline needs
them for conformance/url-keyed joins (§2.4 note) and for joining
point outputs back to page metadata. Two shapes:

- ``hash_join``: ``Dataset.join`` — Ray Data's hash-shuffle join;
  both sides repartitioned on the key. Use when both sides are big.
- ``broadcast_join``: the small side ships once with the probe
  callable and is probed inside ``map_batches`` via a vectorized
  ``pyarrow`` index lookup — no shuffle at all. The J2/M5 dict-lookup
  pattern generalized to an arbitrary small table (SURVEY.md §2.4
  "broadcast small sides").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .cogroup import one_task

# qualifying-order rows (~500 MB of 3-col rows) under which TPC-H Q3
# and Q5 broadcast the orders side instead of a bucketed lookup_join
BROADCAST_LIMIT = 20_000_000


def hash_join(
    left_ds,
    right_ds,
    on: str,
    right_on: str | None = None,
    num_partitions: int = 16,
    join_type: str = "inner",
):
    """Distributed hash join (both sides shuffled on the key)."""
    return left_ds.join(
        right_ds,
        join_type=join_type,
        num_partitions=num_partitions,
        on=(on,),
        right_on=(right_on or on,),
    )


def topk_per_group(
    ds,
    group_col: str,
    order_col: str,
    tie_col: str,
    k: int = 3,
):
    """Top-k rows per group by (order_col desc, tie_col asc) — the O2
    top-1-per-cell shape generalized. Per-batch partial top-k shrinks
    the shuffle to at most k rows per (batch, group); the final
    per-group pass re-ranks the partials. ``tie_col`` must be unique
    within a group so the ranking is total (oracle uses the same
    ORDER BY)."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values([order_col, tie_col], ascending=[False, True], kind="stable")
        return pa.Table.from_pandas(
            df.groupby(group_col, sort=False).head(k), preserve_index=False
        )

    def final(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values([order_col, tie_col], ascending=[False, True], kind="stable").head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
        return g

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .map_groups(final, batch_format="pandas")
    )


class _BroadcastProbe:
    """Batch probe against the small side, which ships with the
    callable (never re-shipped per batch)."""

    def __init__(self, small: pa.Table, on: str, right_on: str, prefix: str):
        self.on = on
        self.keys = small.column(right_on)
        self.payload = small.drop_columns([right_on])
        self.prefix = prefix

    def __call__(self, batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch.column(self.on), value_set=self.keys)
        keep = pc.is_valid(idx)
        batch = batch.filter(keep)
        idx = idx.filter(keep)
        out = batch
        for name in self.payload.column_names:
            out = out.append_column(
                f"{self.prefix}{name}", self.payload.column(name).take(idx)
            )
        return out


def broadcast_join(left_ds, small_table: pa.Table, on: str, right_on: str | None = None,
                   prefix: str = ""):
    """Inner join against a small in-memory table without a shuffle.
    ``small_table``'s join key must be unique: the probe keeps one
    match per left row, so a duplicated key raises ``ValueError``
    instead of silently dropping the extra matches."""
    right_on = right_on or on
    small = small_table.combine_chunks()
    keys = small.column(right_on)
    if pc.count_distinct(keys, mode="all").as_py() != len(keys):
        raise ValueError(f"broadcast_join: duplicate keys in {right_on!r}")
    return left_ds.map_batches(
        _BroadcastProbe(small, on, right_on, prefix), batch_format="pyarrow"
    )


def tpch_q3(sf_dir: str, segment: str = "BUILDING", cutoff: str = "1998-06-01", k: int = 10):
    """TPC-H Q3-shaped 3-way join with a mixed strategy chosen by
    side size — the multi-join planning pattern the single joins
    above compose into:

    1. customers filtered on ``segment`` -> a SMALL key set,
       captured in the orders-batch callable and probed per batch: the
       customer⋈orders edge costs NO shuffle.
    2. qualifying slim orders (o_orderkey, o_orderdate,
       o_orderpriority) become the keyed right side of a bucketed
       ``lookup_join`` against the date-filtered lineitem scan: ONE
       shuffle, carrying only the two slim sides.
    3. revenue quantized per line item to integer cents
       (``floor(p * (1 - d) * 100 + 0.5)``) so the per-order sums
       are order-independent, then one groupby and a partial-top-k
       global ranking (never a full sort).

    Output: top-``k`` orders by (revenue_cents desc, o_orderkey asc)
    with rank. Value-exact vs the SQL mirror in __ray_entry__.
    """
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from .cogroup import lookup_join

    cutoff_us = np.datetime64(cutoff, "us")

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    keys = cust.filter(pc.equal(cust.column("c_mktsegment"), segment)).select(
        ["c_custkey"]
    )
    kset = keys.column("c_custkey").combine_chunks()

    def prep_orders(t: pa.Table) -> pa.Table:
        # one stateless stage: date filter + broadcast semi filter +
        # epoch-ms conversion (plain tasks — an actor pool's spin-up
        # costs more than this whole tiny right side)
        t = t.filter(
            pc.less(t.column("o_orderdate"), pa.scalar(cutoff_us.item(), pa.timestamp("us")))
        )
        t = t.filter(pc.is_valid(pc.index_in(t.column("o_custkey"), value_set=kset)))
        ms = t.column("o_orderdate").cast(pa.timestamp("ms")).cast(pa.int64())
        return (
            t.drop_columns(["o_custkey", "o_orderdate"]).append_column("o_orderdate_ms", ms)
        )

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(prep_orders, batch_format="pyarrow")

    def line_rev(t: pa.Table) -> pa.Table:
        keep = pc.greater(
            t.column("l_shipdate"), pa.scalar(cutoff_us.item(), pa.timestamp("us"))
        )
        t = t.filter(keep)
        p = t.column("l_extendedprice").to_numpy()
        d = t.column("l_discount").to_numpy()
        rev = np.floor(p * (1.0 - d) * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "rev_cents": pa.array(rev, pa.int64()),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(line_rev, batch_format="pyarrow")

    # Aggregate BEFORE joining, and finish in ONE task when the
    # qualifying-orders side fits (round-5 rewrite). The original
    # shape joined every line item and ran a 3-key groupby after —
    # Ray 2.49's multi-column aggregate is the known expensive
    # exchange (measured 15.3 s on 310k
    # joined rows at the 10x corpus), the single-key replacement
    # still paid ~10 s of sort-shuffle on 2.9M partial rows, and
    # even a 64-bucket coarse groupby cost 5.5 s of fixed exchange
    # on 300k slim partials. Revenue is additive per order and
    # date/priority are FUNCTIONALLY DEPENDENT on l_orderkey, so
    # under the gate: semi-filter line items per batch against the
    # broadcast qualifying-order keys, partial-sum per batch (the
    # map-side combine — what actually shrinks the data), then gather
    # the SLIM partials (16 B per distinct order per block, bounded
    # by the gate) into one task that sums, merges date/priority and
    # ranks top-k — the triangle_counts/similar_hosts size-adaptive
    # fast-path shape. 10x-corpus wall 37 s -> ~5 s, value-exact
    # (int cents are order-independent). Above the gate the general
    # path runs: single-key groupby + bucketed lookup_join + the
    # partial-top-k ranking — the 100 TB shape when qualifying
    # orders outgrow worker memory.
    import pandas as pd

    from ray.data.aggregate import Sum

    om = orders.materialize()  # slim qualifying orders, pinned once

    def rev_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "k": t.column("l_orderkey").to_numpy(),
                "r": t.column("rev_cents").to_numpy(),
            }
        )
        g = df.groupby("k", sort=False)["r"].sum()
        return pa.table(
            {
                "l_orderkey": pa.array(g.index.to_numpy(), pa.int64()),
                "rev_cents": pa.array(g.to_numpy(), pa.int64()),
            }
        )

    if om.count() <= BROADCAST_LIMIT:
        otab = pa.concat_tables(ray.get(om.to_arrow_refs())).combine_chunks()
        okeys = otab.column("o_orderkey")

        def semi_partial(t: pa.Table) -> pa.Table:
            t = t.filter(
                pc.is_valid(pc.index_in(t.column("l_orderkey"), value_set=okeys))
            )
            return rev_partial(t)

        def finish(parts: pa.Table | None, ot: pa.Table, k_: int) -> pa.Table:
            if parts is None:
                return pa.table(
                    {
                        "l_orderkey": pa.array([], pa.int64()),
                        "o_orderdate_ms": pa.array([], pa.int64()),
                        "o_orderpriority": pa.array([], pa.string()),
                        "revenue_cents": pa.array([], pa.int64()),
                        "rank": pa.array([], pa.int64()),
                    }
                )
            all_p = parts.to_pandas()
            s = (
                all_p.groupby("l_orderkey", sort=False)["rev_cents"]
                .sum()
                .rename("revenue_cents")
                .reset_index()
            )
            odf = pd.DataFrame(
                {
                    "l_orderkey": ot.column("o_orderkey").to_numpy(),
                    "o_orderdate_ms": ot.column("o_orderdate_ms").to_numpy(),
                    "o_orderpriority": ot.column("o_orderpriority")
                    .to_pandas()
                    .to_numpy(),
                }
            )
            out = s.merge(odf, on="l_orderkey", how="inner")
            out["revenue_cents"] = out["revenue_cents"].astype("int64")
            out = out.sort_values(
                ["revenue_cents", "l_orderkey"], ascending=[False, True],
                kind="stable",
            ).head(k_)
            out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
            out = out[
                [
                    "l_orderkey",
                    "o_orderdate_ms",
                    "o_orderpriority",
                    "revenue_cents",
                    "rank",
                ]
            ]
            return pa.Table.from_pandas(out, preserve_index=False)

        partials = li.map_batches(semi_partial, batch_format="pyarrow")
        return rd.from_arrow(one_task(finish, partials, otab, k))

    per_order_rev = (
        li.map_batches(rev_partial, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("rev_cents", alias_name="revenue_cents"))
    )
    per_order = lookup_join(
        per_order_rev,
        om,
        "l_orderkey",
        "o_orderkey",
        {
            "o_orderdate_ms": "o_orderdate_ms",
            "o_orderpriority": "o_orderpriority",
        },
    )
    topk = topk_per_group(
        per_order.map_batches(
            lambda t: t.append_column(
                "__one", pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
            ),
            batch_format="pyarrow",
        ),
        "__one",
        "revenue_cents",
        "l_orderkey",
        k=k,
    )
    return topk.drop_columns(["__one"])


def rollup_agg(lineitem_ds, grouping: str = "rollup"):
    """``GROUP BY ROLLUP(l_returnflag, l_linestatus)`` over lineitem:
    the fine-grain (flag, status) aggregate plus the per-flag and
    grand-total super-aggregates, NULL marking each rolled-up level
    (ANSI ROLLUP semantics). ``grouping="cube"`` adds the
    status-only level (ANSI CUBE — all four grouping sets).

    Shape: map-side partial combine (one row per batch x group), one
    tiny groupby on a fused string key, then the super-aggregates are
    derived by RE-AGGREGATING THE FINE TABLE — which is bounded by the
    key-space cardinality (<= R*S rows, ~6 for TPC-H flags), never by
    the corpus — so the rollup costs one corpus pass total. Sums run
    on int64 (TPC-H quantity is a whole number stored as double), so
    partial-merge order can't perturb the result vs the SQL mirror.

    Returns a pyarrow Table (small by construction)."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        df = t.select(["l_returnflag", "l_linestatus", "l_quantity"]).to_pandas()
        df["qty"] = df["l_quantity"].to_numpy().astype(np.int64)
        agg = (
            df.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .agg(ps=("qty", "sum"), pc=("qty", "count"))
            .reset_index()
        )
        agg["__k"] = agg["l_returnflag"] + "|" + agg["l_linestatus"]
        return pa.Table.from_pandas(agg, preserve_index=False)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty=("ps", "sum"), n_rows=("pc", "sum")
        )
        return out.reset_index()

    fine = (
        lineitem_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__k")
        .map_groups(combine, batch_format="pandas")
        .to_pandas()  # <= R*S rows — key-space bounded, not corpus
    )
    lvl1 = (
        fine.groupby("l_returnflag", sort=False)
        .agg(sum_qty=("sum_qty", "sum"), n_rows=("n_rows", "sum"))
        .reset_index()
    )
    lvl1["l_linestatus"] = None
    lvl0 = pd.DataFrame(
        {
            "l_returnflag": [None],
            "l_linestatus": [None],
            "sum_qty": [fine["sum_qty"].sum()],
            "n_rows": [fine["n_rows"].sum()],
        }
    )
    levels = [fine, lvl1, lvl0]
    if grouping == "cube":
        lvl1b = (
            fine.groupby("l_linestatus", sort=False)
            .agg(sum_qty=("sum_qty", "sum"), n_rows=("n_rows", "sum"))
            .reset_index()
        )
        lvl1b["l_returnflag"] = None
        levels.append(lvl1b)
    elif grouping != "rollup":
        raise ValueError(f"grouping must be 'rollup' or 'cube' (got {grouping!r})")
    out = pd.concat(levels, ignore_index=True)
    return pa.table(
        {
            "l_returnflag": pa.array(out["l_returnflag"], pa.string()),
            "l_linestatus": pa.array(out["l_linestatus"], pa.string()),
            "sum_qty": pa.array(out["sum_qty"].to_numpy().astype(np.int64)),
            "n_rows": pa.array(out["n_rows"].to_numpy().astype(np.int64)),
        }
    )


def rollup_agg_sql(source: str = "lineitem", grouping: str = "rollup") -> str:
    """DuckDB mirror of :func:`rollup_agg`."""
    return (
        "SELECT l_returnflag, l_linestatus, "
        "CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty, "
        f"COUNT(*) AS n_rows FROM {source} "
        f"GROUP BY {grouping.upper()}(l_returnflag, l_linestatus)"
    )


def pivot_counts(ds, row_col: str, col_col: str, categories: list[str]):
    """PIVOT-by-count: one output row per ``row_col`` value with a
    ``n_<category>`` column per listed ``col_col`` category plus
    ``n_other`` (categories must be declared up front — a distributed
    pivot needs a deterministic schema; SQL mirrors it as conditional
    aggregation).

    Shape: map-side partial counts per (row, col) pair -> one tiny
    fused-key groupby -> the widening happens on the key-space-bounded
    fine table (|rows| x |cats| cells), never on the corpus."""
    import pandas as pd

    cats = list(categories)

    def partial(t: pa.Table) -> pa.Table:
        df = t.select([row_col, col_col]).to_pandas()
        agg = df.groupby([row_col, col_col], sort=False).size().rename("pc").reset_index()
        agg["__k"] = agg[row_col] + "|" + agg[col_col]
        return pa.Table.from_pandas(agg, preserve_index=False)

    def combine(g: "pd.DataFrame") -> "pd.DataFrame":
        return (
            g.groupby([row_col, col_col], sort=False)
            .agg(n=("pc", "sum"))
            .reset_index()
        )

    fine = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__k")
        .map_groups(combine, batch_format="pandas")
        .to_pandas()  # |rows| x |cats| cells — key-space bounded
    )
    rows = sorted(fine[row_col].unique())
    out = {row_col: rows}
    known = set(cats)
    for c in cats:
        sub = fine[fine[col_col] == c].set_index(row_col)["n"]
        out[f"n_{c}"] = [int(sub.get(r, 0)) for r in rows]
    other = (
        fine[~fine[col_col].isin(known)].groupby(row_col)["n"].sum()
        if len(fine)
        else {}
    )
    out["n_other"] = [int(other.get(r, 0)) for r in rows]
    return pa.table(
        {
            row_col: pa.array(out[row_col], pa.string()),
            **{
                k: pa.array(np.asarray(v, dtype=np.int64))
                for k, v in out.items()
                if k != row_col
            },
        }
    )


def pivot_counts_sql(
    row_col: str, col_col: str, categories: list[str], source: str
) -> str:
    """DuckDB mirror of :func:`pivot_counts` (conditional aggregation)."""
    cases = ", ".join(
        f"CAST(SUM(CASE WHEN {col_col} = '{c}' THEN 1 ELSE 0 END) AS BIGINT)"
        f" AS n_{c}"
        for c in categories
    )
    inlist = ", ".join(f"'{c}'" for c in categories)
    return (
        f"SELECT {row_col}, {cases}, "
        f"CAST(SUM(CASE WHEN {col_col} NOT IN ({inlist}) THEN 1 ELSE 0 END) "
        f"AS BIGINT) AS n_other FROM {source} GROUP BY {row_col}"
    )


def mode_per_group(ds, key_col: str, value_col: str):
    """Per-group mode (most frequent value; ties broken by the
    SMALLEST value, so the answer is deterministic and SQL-mirrored).

    Shape: map-side partial counts collapse each batch to one row per
    (key, value) pair BEFORE the shuffle — the wire carries the
    distinct-pair space, never the corpus — then one coarse-bucket
    shuffle on hash(key) and a vectorized per-bucket scan (sum the
    partials, sort (key, -count, value), keep each key's first row).
    The same partial/final split as the engine's aggregate family
    (SURVEY.md §2.5); no per-key python groups.
    """
    import pandas as pd

    from .cogroup import shuffle_by

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby([key_col, value_col], sort=False, observed=True)
            .size()
            .reset_index(name="__c")
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        full = (
            g.groupby([key_col, value_col], sort=False, observed=True)["__c"]
            .sum()
            .reset_index()
        )
        full = full.sort_values(
            [key_col, "__c", value_col],
            ascending=[True, False, True],
            kind="stable",
        )
        first = full.drop_duplicates(subset=[key_col], keep="first")
        return pd.DataFrame(
            {
                key_col: first[key_col].to_numpy(),
                f"mode_{value_col}": first[value_col].to_numpy(),
                "mode_count": first["__c"].to_numpy(np.int64),
            }
        )

    partials = ds.select_columns([key_col, value_col]).map_batches(
        partial, batch_format="pandas"
    )
    return shuffle_by(partials, key_col, per_bucket)


def mode_per_group_sql(key_col: str, value_col: str, source: str) -> str:
    """DuckDB mirror of :func:`mode_per_group` (count DESC, value ASC
    tie order)."""
    return (
        f"SELECT {key_col}, {value_col} AS mode_{value_col}, "
        "CAST(c AS BIGINT) AS mode_count FROM ("
        f"SELECT {key_col}, {value_col}, count(*) AS c, "
        f"row_number() OVER (PARTITION BY {key_col} "
        f"ORDER BY count(*) DESC, {value_col}) AS rn "
        f"FROM {source} GROUP BY {key_col}, {value_col}) WHERE rn = 1"
    )


def tpch_q5(sf_dir: str, region: str = "ASIA"):
    """TPC-H Q5-shaped 6-table join — per-nation revenue where the
    customer and the line item's supplier share a nation inside one
    region. The canonical star-join plan, Ray-Data-first:

    1. region -> nation: two tiny driver reads fix the qualifying
       nation set (bounded by 25 nations; never a shuffle).
    2. customer's qualifying (c_custkey -> c_nationkey) map joins
       orders via ONE bucketed ``lookup_join`` (at warehouse scale
       customer is too big to broadcast; the slim 2-int64-column map
       is exactly what the join ships).
    3. lineitem joins the order->nation table via a second
       ``lookup_join`` on l_orderkey, carrying (l_suppkey, rev_e4,
       c_nationkey) — the only corpus-sized exchange.
    4. supplier IS broadcast (a lookup array built once on the driver
       and captured in the batch callable): the s_suppkey ->
       s_nationkey array is tiny by TPC-H construction;
       the c_nationkey == s_nationkey equality filters map-only.
    5. one final groupby over <= 25 nation keys.

    Revenue is pure-integer exact: ``rev_e4 = round(p*100) *
    (100 - round(d*100))`` — both factors are exact integers (TPC-H
    price/discount are 2-decimal), so sums are order-independent and
    the SQL mirror (:func:`tpch_q5_sql`) matches bitwise.
    """
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .cogroup import lookup_join

    reg = pq.read_table(f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"])
    rkeys = reg.filter(pc.equal(reg.column("r_name"), region)).column("r_regionkey")
    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    nat = nat.filter(pc.is_valid(pc.index_in(nat.column("n_regionkey"), value_set=rkeys)))
    nation_names = {
        int(k): v
        for k, v in zip(
            nat.column("n_nationkey").to_pylist(), nat.column("n_name").to_pylist()
        )
    }
    nset = nat.column("n_nationkey").combine_chunks()

    def cust_slim(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(pc.index_in(t.column("c_nationkey"), value_set=nset)))
        return t.select(["c_custkey", "c_nationkey"])

    cust = (
        rd.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        )
        .map_batches(cust_slim, batch_format="pyarrow")
        .materialize()  # slim keyed right side: pin before the join
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    order_nation = lookup_join(
        orders, cust, "o_custkey", "c_custkey", {"c_nationkey": "c_nationkey"}
    ).map_batches(
        lambda t: t.select(["o_orderkey", "c_nationkey"]), batch_format="pyarrow"
    ).materialize()

    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).combine_chunks()
    skey = sup.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    snat = sup.column("s_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    lut = np.full(int(skey.max()) + 2, -1, dtype=np.int64)
    lut[skey] = snat

    def line_rev(t: pa.Table) -> pa.Table:
        p = np.round(t.column("l_extendedprice").to_numpy() * 100.0).astype(np.int64)
        d = np.round(t.column("l_discount").to_numpy() * 100.0).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "l_suppkey": t.column("l_suppkey"),
                "rev_e4": pa.array(p * (100 - d), pa.int64()),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(line_rev, batch_format="pyarrow")

    # The lineitem⋈order_nation edge is the only corpus-sized
    # exchange — and its right side is bounded by the QUALIFYING
    # orders (region-filtered customers' orders), so when it fits
    # the broadcast gate the join becomes a map-only sorted-array
    # probe (searchsorted per batch against the sorted key array the
    # callable carries): the bucketed lookup_join cost 13.4 s at the
    # 10x corpus vs ~2 s map-only (round-5 measurement). Above the
    # gate the bucketed join remains the 100 TB shape.
    if order_nation.count() <= BROADCAST_LIMIT:

        def sorted_keys(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
            t = t.take(pc.sort_indices(t, sort_keys=[("o_orderkey", "ascending")]))
            return t.column("o_orderkey").to_numpy(), t.column("c_nationkey").to_numpy()

        ok, onat = one_task(sorted_keys, order_nation)

        def attach_nation(t: pa.Table) -> pa.Table:
            lk = t.column("l_orderkey").to_numpy()
            pos = np.minimum(np.searchsorted(ok, lk), len(ok) - 1)
            hit = ok[pos] == lk
            t = t.filter(pa.array(hit))
            return t.append_column(
                "c_nationkey", pa.array(onat[pos[hit]], pa.int64())
            )

        li_n = li.map_batches(attach_nation, batch_format="pyarrow")
    else:
        li_n = lookup_join(
            li,
            order_nation,
            "l_orderkey",
            "o_orderkey",
            {"c_nationkey": "c_nationkey"},
        )

    def supplier_match(t: pa.Table) -> pa.Table:
        lsk = t.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        cn = t.column("c_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
        s_nat = np.where(lsk < len(lut), lut[np.minimum(lsk, len(lut) - 1)], -1)
        keep = s_nat == cn
        # map-side combine (round-5, the q3 lesson): the final
        # groupby's input must be key-space-bounded partials (<= 25
        # nation rows per batch), never per-line-item rows — Ray's
        # sort exchange on the raw 6M slim rows cost seconds for a
        # 25-key aggregate
        cnk = cn[keep]
        rev = t.column("rev_e4").to_numpy(zero_copy_only=False)[keep]
        if len(cnk) == 0:
            return pa.table(
                {
                    "nationkey": pa.array([], pa.int64()),
                    "rev_e4": pa.array([], pa.int64()),
                }
            )
        uk, inv = np.unique(cnk, return_inverse=True)
        sums = np.zeros(len(uk), np.int64)
        np.add.at(sums, inv, rev)  # int64-exact accumulation
        return pa.table(
            {
                "nationkey": pa.array(uk, pa.int64()),
                "rev_e4": pa.array(sums, pa.int64()),
            }
        )

    per_nation = (
        li_n.map_batches(supplier_match, batch_format="pyarrow")
        .groupby("nationkey")
        .aggregate(Sum("rev_e4", alias_name="revenue_e4"))
    )

    def name_map(t: pa.Table, names=nation_names) -> pa.Table:
        nk = t.column("nationkey").to_pylist()
        return pa.table(
            {
                "n_name": pa.array([names[k] for k in nk], pa.string()),
                "revenue_e4": t.column("revenue_e4"),
            }
        )

    return per_nation.map_batches(name_map, batch_format="pyarrow")


def tpch_q5_sql(region: str = "ASIA") -> str:
    """DuckDB mirror of :func:`tpch_q5` (same integer rev_e4)."""
    return (
        "SELECT n.n_name, CAST(sum("
        "CAST(round(l.l_extendedprice*100) AS BIGINT) * "
        "(100 - CAST(round(l.l_discount*100) AS BIGINT))"
        ") AS BIGINT) AS revenue_e4 "
        "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
        "JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
        "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
        "AND c.c_nationkey = s.s_nationkey "
        "JOIN nation n ON s.s_nationkey = n.n_nationkey "
        "JOIN region r ON n.n_regionkey = r.r_regionkey "
        f"WHERE r.r_name = '{region}' "
        "GROUP BY n.n_name"
    )


def tpch_q1(sf_dir: str, cutoff: str = "1998-09-02"):
    """TPC-H Q1 pricing summary (the canonical scan-heavy benchmark
    query): per (l_returnflag, l_linestatus) — sum_qty,
    sum_base_price, sum_disc_price, sum_charge (all integer cents,
    each line quantized BEFORE summing per the tpch_q3 convention so
    both engines add identical integers), and count_order. The float
    avg_* columns of the official spec are derivable ratios and
    intentionally omitted from the exact surface.

    Shape: pure map-side partials (per-batch pandas groupby over the
    4-ish (flag, status) pairs) -> ONE single-key groupby on the
    fused string key — the shuffle carries O(batches x key-space)
    rows, never the corpus."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum

    cutoff_us = np.datetime64(cutoff, "us")

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.less_equal(
            t.column("l_shipdate"), pa.scalar(cutoff_us.item(), pa.timestamp("us"))
        )
        t = t.filter(keep)
        q = t.column("l_quantity").to_numpy()
        p = t.column("l_extendedprice").to_numpy()
        d = t.column("l_discount").to_numpy()
        x = t.column("l_tax").to_numpy()
        df = pd.DataFrame(
            {
                "key": pd.Series(
                    t.column("l_returnflag").to_pandas()
                ).str.cat(t.column("l_linestatus").to_pandas(), sep="|"),
                "qty": np.floor(q * 100.0 + 0.5).astype(np.int64),
                "base": np.floor(p * 100.0 + 0.5).astype(np.int64),
                "disc": np.floor(p * (1.0 - d) * 100.0 + 0.5).astype(np.int64),
                "charge": np.floor(
                    p * (1.0 - d) * (1.0 + x) * 100.0 + 0.5
                ).astype(np.int64),
            }
        )
        g = df.groupby("key", sort=False).agg(
            sum_qty_c=("qty", "sum"),
            sum_base_c=("base", "sum"),
            sum_disc_c=("disc", "sum"),
            sum_charge_c=("charge", "sum"),
            count_order=("qty", "size"),
        )
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    def unfuse(t: pa.Table) -> pa.Table:
        keys = t.column("key").to_pylist()
        rf = [k.split("|")[0] for k in keys]
        ls = [k.split("|")[1] for k in keys]
        return pa.table(
            {
                "l_returnflag": pa.array(rf, pa.string()),
                "l_linestatus": pa.array(ls, pa.string()),
                "sum_qty_c": t.column("sum_qty_c").cast(pa.int64()),
                "sum_base_c": t.column("sum_base_c").cast(pa.int64()),
                "sum_disc_c": t.column("sum_disc_c").cast(pa.int64()),
                "sum_charge_c": t.column("sum_charge_c").cast(pa.int64()),
                "count_order": t.column("count_order").cast(pa.int64()),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount", "l_tax", "l_shipdate",
        ],
    )
    return (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("key")
        .aggregate(
            Sum("sum_qty_c", alias_name="sum_qty_c"),
            Sum("sum_base_c", alias_name="sum_base_c"),
            Sum("sum_disc_c", alias_name="sum_disc_c"),
            Sum("sum_charge_c", alias_name="sum_charge_c"),
            Sum("count_order", alias_name="count_order"),
        )
        .map_batches(unfuse, batch_format="pyarrow")
    )


def tpch_q1_sql(cutoff: str = "1998-09-02") -> str:
    """DuckDB mirror of :func:`tpch_q1`."""
    return (
        "SELECT l_returnflag, l_linestatus, "
        "CAST(sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) AS BIGINT) "
        "AS sum_qty_c, "
        "CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) "
        "AS sum_base_c, "
        "CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5) "
        "AS BIGINT)) AS BIGINT) AS sum_disc_c, "
        "CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * "
        "(1 + l_tax) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_charge_c, "
        "CAST(count(*) AS BIGINT) AS count_order "
        "FROM lineitem "
        f"WHERE l_shipdate <= TIMESTAMP '{cutoff} 00:00:00' "
        "GROUP BY l_returnflag, l_linestatus"
    )


def unpivot(ds, id_cols: list[str], value_cols: list[str],
            var_name: str = "variable", value_name: str = "value"):
    """UNPIVOT/melt — the inverse of :func:`pivot_counts`: each input
    row becomes ``len(value_cols)`` long-format rows (id columns
    carried, variable name + value). Pure map, zero shuffle; the
    declared column list gives the deterministic schema the same way
    the pivot's declared categories do. Values surface as float64
    (the one type every numeric source column widens into losslessly
    for int32/int64<=2^53/float inputs — documented cap)."""

    def melt(t: pa.Table) -> pa.Table:
        n = t.num_rows
        k = len(value_cols)
        cols = {}
        for c in id_cols:
            cols[c] = pa.concat_arrays(
                [t.column(c).combine_chunks()] * k
            )
        names = []
        vals = []
        for c in value_cols:
            names.extend([c] * n)
            vals.append(
                t.column(c).to_numpy(zero_copy_only=False).astype(np.float64)
            )
        cols[var_name] = pa.array(names, pa.string())
        cols[value_name] = pa.array(np.concatenate(vals), pa.float64())
        return pa.table(cols)

    return ds.map_batches(melt, batch_format="pyarrow")


def unpivot_sql(id_cols: list[str], value_cols: list[str], source: str,
                var_name: str = "variable", value_name: str = "value") -> str:
    """DuckDB mirror of :func:`unpivot` (UNION ALL arms)."""
    ids = ", ".join(id_cols)
    arms = " UNION ALL ".join(
        f"SELECT {ids}, '{c}' AS {var_name}, "
        f"CAST({c} AS DOUBLE) AS {value_name} FROM {source}"
        for c in value_cols
    )
    return arms


LARGE_ORDER_CENTS = 45_000_000  # $450k: splits every fixture sf non-trivially


def customers_without_orders(customer_ds, orders_ds,
                             min_price_cents: int = LARGE_ORDER_CENTS):
    """Anti join: customers that never placed a LARGE order
    (o_totalprice >= the threshold; every fixture customer has SOME
    order, so the unfiltered complement is empty) — the membership
    complement the gap-fill/anti-join family (J5) expresses over
    relational keys. Qualifying order custkeys reduce to a slim
    distinct-key table FIRST (orders >> customers), then one
    ``lookup_join(how="anti")`` keeps non-members; only key columns
    ever shuffle."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .cogroup import lookup_join

    def big(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(t.column("o_totalprice"), 100.0)), pa.int64()
        )
        return pa.table({"o_custkey": t.column("o_custkey")}).filter(
            pc.greater_equal(cents, min_price_cents)
        )

    keys = (
        orders_ds.map_batches(big, batch_format="pyarrow")
        .groupby("o_custkey")
        .count()
        .map_batches(
            lambda t: pa.table(
                {"__k": t.column("o_custkey").cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        .materialize()  # slim aggregate pinned before the join probe
    )
    slim = customer_ds.map_batches(
        lambda t: pa.table(
            {
                "c_custkey": t.column("c_custkey").cast(pa.int64()),
                "c_acctbal_cents": pa.compute.cast(
                    pa.compute.round(
                        pa.compute.multiply(t.column("c_acctbal"), 100.0)
                    ),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    return lookup_join(slim, keys, "c_custkey", "__k", {}, how="anti")


def customers_without_orders_sql(
    min_price_cents: int = LARGE_ORDER_CENTS,
) -> str:
    """DuckDB mirror of :func:`customers_without_orders`."""
    return (
        "SELECT CAST(c_custkey AS BIGINT) AS c_custkey, "
        "CAST(round(c_acctbal*100) AS BIGINT) AS c_acctbal_cents "
        "FROM customer WHERE c_custkey NOT IN "
        "(SELECT o_custkey FROM orders "
        f"WHERE CAST(round(o_totalprice*100) AS BIGINT) >= {min_price_cents})"
    )


def customers_with_orders(customer_ds, orders_ds,
                          min_price_cents: int = LARGE_ORDER_CENTS):
    """Semi join: the EXISTS complement of
    :func:`customers_without_orders` — customers that placed at least
    one large order, via ``lookup_join(how="semi")`` against the same
    slim distinct qualifying-key table. Together the two queries
    partition the customer table exactly (pinned in tests)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .cogroup import lookup_join

    def big(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(t.column("o_totalprice"), 100.0)), pa.int64()
        )
        return pa.table({"o_custkey": t.column("o_custkey")}).filter(
            pc.greater_equal(cents, min_price_cents)
        )

    keys = (
        orders_ds.map_batches(big, batch_format="pyarrow")
        .groupby("o_custkey")
        .count()
        .map_batches(
            lambda t: pa.table(
                {"__k": t.column("o_custkey").cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    slim = customer_ds.map_batches(
        lambda t: pa.table(
            {
                "c_custkey": t.column("c_custkey").cast(pa.int64()),
                "c_acctbal_cents": pa.compute.cast(
                    pa.compute.round(
                        pa.compute.multiply(t.column("c_acctbal"), 100.0)
                    ),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    return lookup_join(slim, keys, "c_custkey", "__k", {}, how="semi")


def customers_with_orders_sql(
    min_price_cents: int = LARGE_ORDER_CENTS,
) -> str:
    """DuckDB mirror of :func:`customers_with_orders`."""
    return (
        "SELECT CAST(c_custkey AS BIGINT) AS c_custkey, "
        "CAST(round(c_acctbal*100) AS BIGINT) AS c_acctbal_cents "
        "FROM customer WHERE c_custkey IN "
        "(SELECT o_custkey FROM orders "
        f"WHERE CAST(round(o_totalprice*100) AS BIGINT) >= {min_price_cents})"
    )
