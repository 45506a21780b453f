"""Cross-collection vocabulary overlap (set similarity between
corpus slices).

``vocab_overlap`` computes, for every unordered pair of ``source``
collections, the exact intersection/union sizes and Jaccard
similarity of their DISTINCT lowercase ``[a-z0-9]+`` token
vocabularies — the corpus-drift / near-duplicate-collection signal
(two mirrored crawls show Jaccard ~1; disjoint domains ~0).

Shape at 100 TB: one map-side pass collapses each batch to its
distinct (source, token) pairs; a groupby makes them corpus-distinct
(bounded by sources x vocabulary, never the corpus); per-source
sizes are one tiny groupby-count; intersections shuffle the distinct
table ONCE on a coarse token-hash bucket and enumerate each token's
source pairs in-bucket with the shared vectorized ``_pair_indices``
kernel (a token appearing in s sources emits C(s,2) partial rows,
s <= n_sources). Jaccard is emitted as integer
``floor(1e6 * inter / union)`` so every output column is exact
(``jaccard_e6`` via python-int floor division, mirrored by DuckDB's
integer ``//``; both operands positive).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from .chunking import TOKEN_RE


def vocab_overlap(docs_ds, text_col: str = "text", group_col: str = "source"):
    """documents -> one row per unordered source pair:
    (src_a, src_b, n_inter, n_union, jaccard_e6), src_a < src_b."""
    from ray.data.aggregate import Count, Sum

    from .cogroup import shuffle_by

    pat = re.compile(TOKEN_RE)

    def distinct_pairs(t: pa.Table) -> pa.Table:
        src = t.column(group_col).to_pandas()
        toks = t.column(text_col).to_pandas().str.lower().str.findall(pat)
        rows_src: list = []
        rows_tok: list = []
        # per-batch distinct via a set of (source, token); the batch is
        # the unit of python work, the output is its distinct pairs
        seen = set()
        for s, ws in zip(src, toks):
            for w in ws:
                k = (s, w)
                if k not in seen:
                    seen.add(k)
                    rows_src.append(s)
                    rows_tok.append(w)
        return pa.table(
            {
                "source": pa.array(rows_src, pa.string()),
                "token": pa.array(rows_tok, pa.string()),
            }
        )

    distinct = (
        docs_ds.select_columns([group_col, text_col])
        .map_batches(distinct_pairs, batch_format="pyarrow")
        .groupby(["source", "token"])
        .aggregate(Count(alias_name="__n"))
        .select_columns(["source", "token"])
        .materialize()  # consumed twice (sizes + intersections)
    )

    sizes = {
        r["source"]: int(r["n_tokens"])
        for r in distinct.groupby("source")
        .aggregate(Count(alias_name="n_tokens"))
        .take_all()
    }

    def inter_partial(g: pd.DataFrame) -> pd.DataFrame:
        from .dedup import _pair_indices

        g = g.sort_values(["token", "source"], kind="stable")
        tok = g["token"].to_numpy()
        src = g["source"].to_numpy()
        n = len(g)
        new = np.empty(n, dtype=bool)
        if n:
            new[0] = True
            new[1:] = tok[1:] != tok[:-1]
        ai, bi = _pair_indices(new)
        if not len(ai):
            return pd.DataFrame(
                {
                    "src_a": pd.Series([], dtype=object),
                    "src_b": pd.Series([], dtype=object),
                    "c": pd.Series([], dtype=np.int64),
                }
            )
        df = pd.DataFrame({"src_a": src[ai], "src_b": src[bi]})
        out = df.groupby(["src_a", "src_b"], sort=False).size().reset_index(name="c")
        out["c"] = out["c"].astype(np.int64)
        return out

    inter = (
        shuffle_by(distinct, "token", inter_partial)
        .groupby(["src_a", "src_b"])
        .aggregate(Sum("c", alias_name="n_inter"))
        .to_pandas()
    )

    # final tiny table: ALL C(n_sources, 2) unordered pairs — a pair
    # with disjoint vocabularies emits no candidate row above, so
    # reindex over the full pair set with n_inter = 0 (the Jaccard-0
    # rows are exactly the drift signal callers scan for)
    from itertools import combinations

    all_pairs = pd.DataFrame(
        list(combinations(sorted(sizes), 2)), columns=["src_a", "src_b"]
    )
    inter = all_pairs.merge(inter, on=["src_a", "src_b"], how="left")
    inter["n_inter"] = inter["n_inter"].fillna(0).astype(np.int64)
    na = inter["src_a"].map(sizes).to_numpy(np.int64)
    nb = inter["src_b"].map(sizes).to_numpy(np.int64)
    ni = inter["n_inter"].to_numpy(np.int64)
    nu = na + nb - ni
    jac = np.array(
        [int(1_000_000 * i) // int(u) for i, u in zip(ni.tolist(), nu.tolist())],
        dtype=np.int64,
    )
    out = pd.DataFrame(
        {
            "src_a": inter["src_a"],
            "src_b": inter["src_b"],
            "n_inter": ni,
            "n_union": nu,
            "jaccard_e6": jac,
        }
    ).sort_values(["src_a", "src_b"]).reset_index(drop=True)
    import ray.data as rd

    return rd.from_pandas(out)


def vocab_overlap_sql(source: str = "documents") -> str:
    """DuckDB mirror of :func:`vocab_overlap`."""
    return (
        "WITH vo_d AS (SELECT DISTINCT source, unnest(regexp_extract_all("
        f"lower(text), '{TOKEN_RE}')) AS token FROM {source}), "
        "vo_s AS (SELECT source, CAST(count(*) AS BIGINT) AS n_tokens "
        "FROM vo_d GROUP BY 1), "
        "vo_i AS (SELECT a.source AS src_a, b.source AS src_b, "
        "CAST(count(*) AS BIGINT) AS n_inter FROM vo_d a "
        "JOIN vo_d b ON a.token = b.token AND a.source < b.source "
        "GROUP BY 1, 2), "
        # all unordered pairs, so disjoint vocabularies emit a 0 row
        "vo_p AS (SELECT sa.source AS src_a, sb.source AS src_b, "
        "sa.n_tokens AS na, sb.n_tokens AS nb FROM vo_s sa "
        "JOIN vo_s sb ON sa.source < sb.source) "
        "SELECT p.src_a, p.src_b, "
        "coalesce(i.n_inter, 0) AS n_inter, "
        "p.na + p.nb - coalesce(i.n_inter, 0) AS n_union, "
        "(1000000 * coalesce(i.n_inter, 0)) // "
        "(p.na + p.nb - coalesce(i.n_inter, 0)) AS jaccard_e6 "
        "FROM vo_p p LEFT JOIN vo_i i "
        "ON i.src_a = p.src_a AND i.src_b = p.src_b"
    )
