"""PMI-style collocation mining: the top-k adjacent token pairs whose
observed co-occurrence most exceeds independence — the classic
corpus-analysis operator (Church & Hanks's pointwise mutual
information / association "lift") behind phrase induction and
tokenizer-merge candidates.

Association is ranked by integer LIFT (monotone in PMI, so the
ranking is identical) computed wholly in int64 floor arithmetic so
both engines agree bit-for-bit:

    lift_e6(a, b) = (c_ab * N * 1_000_000) // (c_a * c_b)

with c_ab the adjacent-pair count, c_a / c_b the pair-position
marginals (sum of c_ab over the second / first slot) and N the total
pair count. The SQL mirror evaluates the SAME staged expression.
Overflow contract: c_ab * N * 1e6 must stay under 2^63 — holds to
~N = 3e3 * c_ab-max; at larger corpora drop the 1e6 scale (ordering
is preserved). ``lift_e6`` checks the operands before it multiplies
and raises ``OverflowError`` instead of wrapping.

Shape (100 TB): per-batch pair partials collapse each batch to its
distinct-pair space before ONE groupby shuffle; the marginals are two
tiny re-aggregations of the pair table (bounded by distinct bigrams,
never the corpus), attached back via bucketed lookup_joins; the only
driver value is the single scalar N; top-k is per-block partial top-k
+ one merge task (never a global sort).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from .lm import TOKEN_RE

SCALE = 1_000_000
_I64_MAX = (1 << 63) - 1


def lift_e6(c_ab: np.ndarray, c_a: np.ndarray, c_b: np.ndarray, n_tot: int) -> np.ndarray:
    """``(c_ab * n_tot * SCALE) // (c_a * c_b)`` in int64. The bounds
    are checked in python ints BEFORE any numpy multiply, so a
    too-large corpus raises ``OverflowError`` rather than silently
    wrapping (and the check survives ``python -O``)."""
    c_ab = np.asarray(c_ab, dtype=np.int64)
    c_a = np.asarray(c_a, dtype=np.int64)
    c_b = np.asarray(c_b, dtype=np.int64)
    n_tot = int(n_tot)
    if len(c_ab):
        if int(c_ab.max()) * n_tot > _I64_MAX // SCALE:
            raise OverflowError("lift_e6 overflow: drop SCALE at this corpus size")
        if int(c_a.max()) * int(c_b.max()) > _I64_MAX:
            raise OverflowError("lift_e6 overflow: marginal product exceeds int64")
    return (c_ab * np.int64(n_tot) * np.int64(SCALE)) // (c_a * c_b)


def _pair_partial(t: pa.Table, pat) -> pa.Table:
    toks = t.column("text").to_pandas().str.lower().str.findall(pat)
    lens = toks.map(len).to_numpy(dtype=np.int64)
    if lens.sum() == 0:
        return pa.table(
            {
                "a": pa.array([], pa.string()),
                "b": pa.array([], pa.string()),
                "c": pa.array([], pa.int64()),
            }
        )
    flat = np.array([w for ws in toks for w in ws], dtype=object)
    starts = np.concatenate([[0], np.cumsum(lens)])
    # adjacent positions, never crossing a document boundary:
    # position i pairs with i+1 unless i+1 is a document start
    n = len(flat)
    first = np.zeros(n + 1, dtype=bool)
    first[starts[starts <= n]] = True
    left = np.flatnonzero(~first[1:][: n - 1]) if n > 1 else np.array([], np.int64)
    if not len(left):
        return pa.table(
            {
                "a": pa.array([], pa.string()),
                "b": pa.array([], pa.string()),
                "c": pa.array([], pa.int64()),
            }
        )
    df = (
        pd.DataFrame({"a": flat[left], "b": flat[left + 1]})
        .groupby(["a", "b"], sort=False)
        .size()
        .reset_index(name="c")
    )
    return pa.table(
        {
            "a": pa.array(df["a"], pa.string()),
            "b": pa.array(df["b"], pa.string()),
            "c": pa.array(df["c"].to_numpy(np.int64), pa.int64()),
        }
    )


def collocations(docs_ds, k: int = 25, min_count: int = 5,
                 onetask_limit: int = 20_000_000):
    """documents -> top-``k`` (a, b, c_ab, lift_e6) collocations with
    c_ab >= ``min_count``, ordered by (lift_e6 DESC, a, b).

    Round-5 shape: the per-batch distinct-bigram partials are
    vocabulary-bounded, not corpus-bounded, so below
    ``onetask_limit`` partial rows the entire tail (bigram sum,
    marginals, lift, top-k) finishes in ONE task on the gathered slim
    partials — the previous chain paid a multi-key STRING aggregate
    (the known ~10 s Ray 2.49 exchange), two more string groupbys and
    two string lookup_joins for a vocabulary-sized problem. Above the
    limit the distributed chain remains (the 100 TB shape when the
    bigram space outgrows one worker)."""
    import ray as _ray

    from ray.data.aggregate import Sum

    from .cogroup import lookup_join

    pat = re.compile(TOKEN_RE)

    parts = (
        docs_ds.select_columns(["text"])
        .map_batches(lambda t: _pair_partial(t, pat), batch_format="pyarrow")
        .materialize()
    )
    if parts.count() <= onetask_limit:

        @_ray.remote
        def finish(blocks: list, k_: int, min_count_: int) -> pa.Table:
            blocks = _ray.get([b for b in blocks])
            tabs = [
                b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
                for b in blocks
                if (b.num_rows if isinstance(b, pa.Table) else len(b))
            ]
            if not tabs:
                return pa.table(
                    {
                        "a": pa.array([], pa.string()),
                        "b": pa.array([], pa.string()),
                        "c_ab": pa.array([], pa.int64()),
                        "lift_e6": pa.array([], pa.int64()),
                    }
                )
            df = pa.concat_tables(tabs).to_pandas()
            cab_l = (
                df.groupby(["a", "b"], sort=False)["c"].sum().reset_index(name="c_ab")
            )
            n_tot = np.int64(cab_l["c_ab"].sum())
            c_a = cab_l.groupby("a", sort=False)["c_ab"].transform("sum").to_numpy()
            c_b = cab_l.groupby("b", sort=False)["c_ab"].transform("sum").to_numpy()
            c_ab_v = cab_l["c_ab"].to_numpy().astype(np.int64)
            keep = c_ab_v >= min_count_
            lift = lift_e6(c_ab_v[keep], c_a[keep], c_b[keep], n_tot)
            out = pd.DataFrame(
                {
                    "a": cab_l["a"].to_numpy()[keep],
                    "b": cab_l["b"].to_numpy()[keep],
                    "c_ab": c_ab_v[keep],
                    "lift_e6": lift,
                }
            ).sort_values(
                ["lift_e6", "a", "b"], ascending=[False, True, True], kind="stable"
            ).head(k_)
            return pa.Table.from_pandas(out, preserve_index=False)

        import ray.data as _rd

        return _rd.from_arrow(
            _ray.get(finish.remote(parts.to_arrow_refs(), k, min_count))
        )

    cab = (
        parts.groupby(["a", "b"])
        .aggregate(Sum("c", alias_name="c_ab"))
        .materialize()  # slim (distinct bigrams); reused 4x below
    )
    n_total = int(cab.sum("c_ab") or 0)
    ca = (
        cab.groupby("a").aggregate(Sum("c_ab", alias_name="c_a")).materialize()
    )
    cb = (
        cab.groupby("b").aggregate(Sum("c_ab", alias_name="c_b")).materialize()
    )
    over = {"a": pa.string(), "b": pa.string()}
    j1 = lookup_join(cab, ca, "a", "a", {"c_a": "c_a"}, type_overrides=over)
    j2 = lookup_join(j1, cb, "b", "b", {"c_b": "c_b"}, type_overrides=over)

    def score(t: pa.Table) -> pa.Table:
        c_ab = t.column("c_ab").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = c_ab >= min_count
        c_ab = c_ab[keep]
        c_a = t.column("c_a").to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        c_b = t.column("c_b").to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        lift = lift_e6(c_ab, c_a, c_b, n_total)
        df = pd.DataFrame(
            {
                "a": t.column("a").to_pandas()[keep].to_numpy(dtype=object),
                "b": t.column("b").to_pandas()[keep].to_numpy(dtype=object),
                "c_ab": c_ab,
                "lift_e6": lift,
            }
        )
        # per-block partial top-k (order: lift DESC, a, b)
        df = df.sort_values(
            ["lift_e6", "a", "b"], ascending=[False, True, True], kind="stable"
        )
        return pa.Table.from_pandas(df.head(k), preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["lift_e6", "a", "b"], ascending=[False, True, True], kind="stable"
        ).head(k)
        return g[["a", "b", "c_ab", "lift_e6"]]

    def tag_one(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__one", pa.array(np.zeros(t.num_rows, np.int64))
        )

    return (
        j2.map_batches(score, batch_format="pyarrow")
        .map_batches(tag_one, batch_format="pyarrow")
        .groupby("__one")
        .map_groups(merge, batch_format="pandas")
    )


def _skipgram_partial(t: pa.Table, pat, max_dist: int) -> pa.Table:
    """Per-batch (a, b, dist) partial counts for token pairs at
    distance 1..max_dist, never crossing a document boundary."""
    toks = t.column("text").to_pandas().str.lower().str.findall(pat)
    lens = toks.map(len).to_numpy(dtype=np.int64)
    empty = pa.table(
        {
            "a": pa.array([], pa.string()),
            "b": pa.array([], pa.string()),
            "dist": pa.array([], pa.int64()),
            "c": pa.array([], pa.int64()),
        }
    )
    if lens.sum() == 0:
        return empty
    flat = np.array([w for ws in toks for w in ws], dtype=object)
    doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    frames = []
    for d in range(1, max_dist + 1):
        if len(flat) <= d:
            break
        ok = doc_idx[:-d] == doc_idx[d:]
        left = np.flatnonzero(ok)
        if not len(left):
            continue
        frames.append(
            pd.DataFrame(
                {
                    "a": flat[left],
                    "b": flat[left + d],
                    "dist": np.full(len(left), d, np.int64),
                }
            )
        )
    if not frames:
        return empty
    df = (
        pd.concat(frames, ignore_index=True)
        .groupby(["a", "b", "dist"], sort=False)
        .size()
        .reset_index(name="c")
    )
    return pa.table(
        {
            "a": pa.array(df["a"], pa.string()),
            "b": pa.array(df["b"], pa.string()),
            "dist": pa.array(df["dist"].to_numpy(np.int64), pa.int64()),
            "c": pa.array(df["c"].to_numpy(np.int64), pa.int64()),
        }
    )


def skipgram_counts(docs_ds, max_dist: int = 2, min_count: int = 10):
    """documents -> (a, b, dist, c): corpus counts of ordered token
    pairs at distance 1..``max_dist`` (skip-gram window context — the
    word2vec-style co-occurrence table), kept where c >= ``min_count``.

    Shape: per-batch partials collapse each batch to its distinct
    (pair, dist) space before ONE groupby shuffle; output is bounded
    by the distinct-bigram space x max_dist, never the corpus.
    """
    import re as _re

    from ray.data.aggregate import Sum

    pat = _re.compile(TOKEN_RE)
    counts = (
        docs_ds.select_columns(["text"])
        .map_batches(
            lambda t: _skipgram_partial(t, pat, max_dist), batch_format="pyarrow"
        )
        .groupby(["a", "b", "dist"])
        .aggregate(Sum("c", alias_name="c"))
    )

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.greater_equal(t.column("c"), min_count))

    return counts.map_batches(keep, batch_format="pyarrow")


def skipgram_sql(
    max_dist: int = 2, min_count: int = 10, source: str = "documents"
) -> str:
    """DuckDB mirror of :func:`skipgram_counts` — one list_zip per
    distance, unioned."""
    arms = []
    for d in range(1, max_dist + 1):
        arms.append(
            "SELECT unnest(list_zip(ts[1:length(ts)-" + str(d) + "], "
            f"ts[{1 + d}:length(ts)])) AS p, {d} AS dist "
            f"FROM sg_tl WHERE length(ts) >= {d + 1}"
        )
    return (
        "WITH sg_tl AS (SELECT regexp_extract_all(lower(text), "
        f"'{TOKEN_RE}') AS ts FROM {source}), "
        "sg_p AS (" + " UNION ALL ".join(arms) + ") "
        "SELECT p[1] AS a, p[2] AS b, CAST(dist AS BIGINT) AS dist, "
        "CAST(count(*) AS BIGINT) AS c FROM sg_p GROUP BY 1, 2, 3 "
        f"HAVING count(*) >= {min_count}"
    )


def collocations_sql(
    k: int = 25, min_count: int = 5, source: str = "documents"
) -> str:
    """DuckDB mirror of :func:`collocations` — same pair extraction
    (per-doc adjacency), same staged int64 floor expression, same
    (lift DESC, a, b) order."""
    return (
        "WITH co_tl AS (SELECT regexp_extract_all(lower(text), "
        f"'{TOKEN_RE}') AS ts FROM {source}), "
        "co_bg AS (SELECT unnest(list_zip(ts[1:length(ts)-1], "
        "ts[2:length(ts)])) AS p FROM co_tl WHERE length(ts) >= 2), "
        "co_cab AS (SELECT p[1] AS a, p[2] AS b, "
        "CAST(count(*) AS BIGINT) AS c_ab FROM co_bg GROUP BY 1, 2), "
        "co_ca AS (SELECT a, CAST(sum(c_ab) AS BIGINT) AS c_a "
        "FROM co_cab GROUP BY a), "
        "co_cb AS (SELECT b, CAST(sum(c_ab) AS BIGINT) AS c_b "
        "FROM co_cab GROUP BY b), "
        "co_n AS (SELECT CAST(sum(c_ab) AS BIGINT) AS n FROM co_cab) "
        "SELECT cab.a, cab.b, cab.c_ab, "
        f"CAST((cab.c_ab * co_n.n * {SCALE}) // (ca.c_a * cb.c_b) "
        "AS BIGINT) AS lift_e6 "
        "FROM co_cab cab JOIN co_ca ca ON cab.a = ca.a "
        "JOIN co_cb cb ON cab.b = cb.b, co_n "
        f"WHERE cab.c_ab >= {min_count} "
        f"ORDER BY lift_e6 DESC, cab.a, cab.b LIMIT {k}"
    )
