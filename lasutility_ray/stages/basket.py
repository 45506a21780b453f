"""Market-basket association rules over the events stream.

A basket is one (user_id, UTC day); its items are the DISTINCT
``event_type`` values the user produced that day. For every unordered
item pair {a, b} (a < b lexically) the operator emits the classic
support / confidence / lift triple, integerized so both engines agree
bit-for-bit:

- ``pair_n``:   baskets containing both a and b
- ``a_n, b_n``: baskets containing a (resp. b)
- ``conf_ab_micro`` = floor(1e6 * pair_n / a_n)   (P(b|a))
- ``lift_micro``    = floor(1e6 * pair_n * n_baskets / (a_n * b_n))

Shape: one slim (user, day, type) batch-distinct pass -> one
hash(user, day) coarse-bucket shuffle co-locates each basket -> per
bucket, a vectorized global dedup + per-basket pair expansion
(itertools-free: offsets into the sorted array; baskets are bounded
by the event-type vocabulary, so the per-basket pair fan-out is at
most |vocab| choose 2) -> the pair/item tallies are VOCAB-BOUNDED
tables re-aggregated by one tiny groupby each. The only corpus-sized
exchange is the slim distinct pass.

The lift numerator ``1e6 * pair_n * n_baskets`` can exceed int64 at
corpus scale, so the final arithmetic runs on the tiny pair table in
python ints (exact, unbounded) and the SQL mirror uses HUGEINT.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

US_PER_DAY = 86_400_000_000


def basket_rules(events_ds):
    """events -> (item_a, item_b, pair_n, a_n, b_n, conf_ab_micro,
    lift_micro), one row per co-occurring unordered item pair."""
    import ray.data as rd
    from ray.data.aggregate import Sum

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
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"user_id": uid, "day": day, "item": et})
        df = df.drop_duplicates()
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
                "day": pa.array(df["day"].to_numpy(np.int64)),
                "item": pa.array(df["item"].astype(str)),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day", "item"]).sort_values(
            ["user_id", "day", "item"], kind="stable"
        )
        uid = g["user_id"].to_numpy(np.int64)
        day = g["day"].to_numpy(np.int64)
        item = g["item"].to_numpy()
        n = len(g)
        newb = np.empty(n, dtype=bool)
        newb[0] = True
        newb[1:] = (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])
        seg = np.cumsum(newb) - 1
        n_baskets = int(newb.sum())
        sizes = np.bincount(seg)
        # pair expansion: for each basket of size k emit its k*(k-1)/2
        # sorted pairs. items are sorted within the basket already.
        starts = np.flatnonzero(newb)
        reps = sizes[seg] - 1 - (np.arange(n) - starts[seg])  # pairs led by row i
        a_idx = np.repeat(np.arange(n), reps)
        lead = np.cumsum(np.concatenate([[0], reps[:-1]]))  # first slot of row i
        # slot t of row i pairs it with row i+1+t
        b_idx = (
            np.arange(int(reps.sum()), dtype=np.int64)
            - np.repeat(lead, reps)
            + np.repeat(np.arange(n, dtype=np.int64) + 1, reps)
        )
        pairs = pd.DataFrame({"item_a": item[a_idx], "item_b": item[b_idx]})
        pair_n = (
            pairs.groupby(["item_a", "item_b"], sort=False)
            .size()
            .rename("pair_n")
            .reset_index()
        )
        item_n = (
            pd.DataFrame({"item": item})
            .groupby("item", sort=False)
            .size()
            .rename("item_n")
            .reset_index()
        )
        out = pd.DataFrame(
            {
                "item_a": pd.concat(
                    [pair_n["item_a"], item_n["item"], pd.Series(["" ])]
                ).to_numpy(),
                "item_b": pd.concat(
                    [pair_n["item_b"], pd.Series([""] * len(item_n)),
                     pd.Series([""])]
                ).to_numpy(),
                "n": np.concatenate(
                    [
                        pair_n["pair_n"].to_numpy(np.int64),
                        item_n["item_n"].to_numpy(np.int64),
                        np.array([n_baskets], np.int64),
                    ]
                ),
            }
        )
        return out

    baskets = events_ds.map_batches(slim, batch_format="pyarrow")
    tallies = (
        shuffle_by(baskets, ["user_id", "day"], per_bucket)
        .groupby(["item_a", "item_b"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # vocab-bounded: |vocab|^2/2 + |vocab| + 1 rows
    )
    total = int(tallies.loc[tallies["item_a"] == "", "n"].iloc[0])
    items = tallies[(tallies["item_b"] == "") & (tallies["item_a"] != "")]
    supp = dict(zip(items["item_a"], items["n"].astype(int)))
    pairs = tallies[tallies["item_b"] != ""].copy()
    rows = []
    for a, b, pn in zip(pairs["item_a"], pairs["item_b"], pairs["n"]):
        pn, an, bn = int(pn), supp[a], supp[b]
        rows.append(
            {
                "item_a": a,
                "item_b": b,
                "pair_n": pn,
                "a_n": an,
                "b_n": bn,
                "conf_ab_micro": (1_000_000 * pn) // an,
                "lift_micro": (1_000_000 * pn * total) // (an * bn),
            }
        )
    out = pd.DataFrame(rows).sort_values(["item_a", "item_b"]).reset_index(
        drop=True
    )
    for c in ("pair_n", "a_n", "b_n", "conf_ab_micro", "lift_micro"):
        out[c] = out[c].astype(np.int64)
    return rd.from_pandas(out)


def basket_rules_sql(source: str = "events") -> str:
    """DuckDB mirror of :func:`basket_rules` (HUGEINT for the lift
    numerator; same floor-division micro units)."""
    return (
        "WITH d AS (SELECT DISTINCT user_id, "
        f"CAST(epoch_us(ts) // {US_PER_DAY} AS BIGINT) AS day, "
        f"event_type AS item FROM {source}), "
        "nb AS (SELECT COUNT(*) AS n_baskets FROM "
        "(SELECT DISTINCT user_id, day FROM d)), "
        "s AS (SELECT item, COUNT(*) AS item_n FROM d GROUP BY item), "
        "p AS (SELECT x.item AS item_a, y.item AS item_b, COUNT(*) AS pair_n "
        "FROM d x JOIN d y ON x.user_id = y.user_id AND x.day = y.day "
        "AND x.item < y.item GROUP BY x.item, y.item) "
        "SELECT p.item_a, p.item_b, p.pair_n, "
        "sa.item_n AS a_n, sb.item_n AS b_n, "
        "CAST((1000000 * p.pair_n) // sa.item_n AS BIGINT) AS conf_ab_micro, "
        "CAST((CAST(1000000 AS HUGEINT) * p.pair_n * nb.n_baskets) "
        "// (CAST(sa.item_n AS HUGEINT) * sb.item_n) AS BIGINT) AS lift_micro "
        "FROM p, nb "
        "JOIN s sa ON sa.item = p.item_a JOIN s sb ON sb.item = p.item_b"
    )
