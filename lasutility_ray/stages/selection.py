"""Token-budget data selection: keep the best documents, in quality
order, until a token budget is exhausted — the standard "select N
tokens for pretraining" curation step (cf. DSIR / DoReMi data
selection; this is the deterministic greedy variant).

Semantics (exactly SQL's running sum): order documents by
``(score DESC, doc_id ASC)``; a document is selected iff the running
token total up to and INCLUDING it is ``<= budget``.

Distributed shape — no global sort, ever:

1. slim map: ``(doc_id, score, n_tok)``; ``score`` is an integer
   quality proxy (stop-word density in millis), so its VALUE SPACE is
   bounded (0..1000) regardless of corpus size;
2. one ``groupby(score)`` of per-score token totals -> driver
   (<= 1001 rows, score-space bounded — never corpus-proportional);
   a cumsum over the descending scores classifies every score as
   fully-selected (base + total <= budget), fully-dropped
   (base > budget) or THE single boundary score;
3. non-boundary docs get their flag from the sorted array of
   fully-selected scores the flagging callable carries — map-only;
4. boundary-score docs (one score's worth) run a two-level
   distributed exclusive prefix sum over doc_id blocks
   (``webcorpus.block_offset_rows``, shared with ``pack_sequences``:
   65536-doc blocks, per-super-block driver offsets — O(docs / 2^32)
   driver state), then each block flags its own docs locally against
   the remaining budget.

The score histogram plus the boundary prefix is one corpus pass plus
one boundary-score pass; the wide exchange carries 3 int64s per doc.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .webcorpus import block_offset_rows

BLK = 65536
STOP_RE = r"\b(the|be|to|of|and|that|have|with)\b"


def _slim(t: pa.Table) -> pa.Table:
    tx = t.column("text")
    nw = pc.count_substring_regex(tx, r"\S+").to_numpy().astype(np.int64)
    ns = (
        pc.count_substring_regex(pc.utf8_lower(tx), STOP_RE)
        .to_numpy()
        .astype(np.int64)
    )
    score = ns * 1000 // np.maximum(nw, 1)
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "score": pa.array(score),
            "n_tok": pa.array(nw),
        }
    )


FAST_MAX_BOUNDARY = 2_000_000  # one-task fast-path row limit


def budget_select(docs_ds, budget: int | None = None,
                  fast_max: int = FAST_MAX_BOUNDARY):
    """Select docs by (score DESC, doc_id) until ``budget`` tokens
    (default: half the corpus's tokens). Returns one row per doc:
    (doc_id, score, n_tok, selected 0/1).

    Size-adaptive (the dedup-family pattern): the boundary score's
    row count is known from the histogram, so below ``fast_max`` rows
    the boundary prefix runs as ONE task (sort + cumsum on the
    gathered boundary rows — 3 int64 columns, a few MB) instead of the
    five-stage two-level distributed prefix sum; both paths are
    pinned identical in tests."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from .cogroup import one_task

    slim = docs_ds.map_batches(_slim, batch_format="pyarrow").materialize()

    hist = (
        slim.groupby("score")
        .aggregate(Sum("n_tok", alias_name="tok"), Count(alias_name="cnt"))
        .to_pandas()
    )
    hist = hist.sort_values("score", ascending=False)
    tots = hist["tok"].to_numpy().astype(np.int64)
    cnts = hist["cnt"].to_numpy().astype(np.int64)
    scores = hist["score"].to_numpy().astype(np.int64)
    bases = np.zeros(len(hist), dtype=np.int64)
    bases[1:] = np.cumsum(tots)[:-1]
    total = int(tots.sum())
    if budget is None:
        budget = total // 2

    full = np.sort(scores[(bases + tots) <= budget])
    boundary = scores[(bases <= budget) & (bases + tots > budget)]
    b_score = int(boundary[0]) if len(boundary) else None
    rem = budget - int(bases[scores == b_score][0]) if b_score is not None else 0

    def flag_plain(t: pa.Table) -> pa.Table:
        s = t.column("score").to_numpy(zero_copy_only=False)
        keep_mask = np.isin(s, full)
        out = t.append_column("selected", pa.array(keep_mask.astype(np.int64)))
        if b_score is None:
            return out
        return out.filter(pc.not_equal(t.column("score"), b_score))

    plain = slim.map_batches(flag_plain, batch_format="pyarrow")
    if b_score is None:
        return plain

    b_count = int(cnts[scores == b_score][0])
    if b_count <= fast_max:
        # one-task fast path: the boundary rows fit one worker easily
        def flag_one(df: pd.DataFrame) -> pd.DataFrame:
            df = df[df["score"] == b_score].sort_values("doc_id", kind="stable")
            cum = df["n_tok"].to_numpy().cumsum()
            return pd.DataFrame(
                {
                    "doc_id": df["doc_id"].to_numpy(),
                    "score": df["score"].to_numpy(),
                    "n_tok": df["n_tok"].to_numpy(),
                    "selected": (cum <= rem).astype(np.int64),
                }
            )

        flagged_fast = rd.from_pandas(
            one_task(
                lambda t: flag_one(t.to_pandas()),
                slim.map_batches(
                    lambda t: t.filter(pc.equal(t.column("score"), b_score)),
                    batch_format="pyarrow",
                ),
            )
        )
        return plain.union(flagged_fast)

    # --- boundary score: two-level exclusive prefix sum over doc_id
    # blocks, then in-block flagging against the remaining budget ---
    def boundary_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("score"), b_score))
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return t.select(["doc_id", "n_tok"]).append_column(
            "__block", pa.array(ids // BLK)
        )

    bdocs = slim.map_batches(boundary_rows, batch_format="pyarrow").materialize()
    offs = block_offset_rows(bdocs, "doc_id")

    def flag_block(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="stable")
        is_off = g["doc_id"].to_numpy() == -1
        base = int(g.loc[is_off, "n_tok"].iloc[0])
        d = g[~is_off]
        toks = d["n_tok"].to_numpy().astype(np.int64)
        cum_incl = base + np.cumsum(toks)
        return pd.DataFrame(
            {
                "doc_id": d["doc_id"].to_numpy(),
                "score": np.full(len(d), b_score, dtype=np.int64),
                "n_tok": toks,
                "selected": (cum_incl <= rem).astype(np.int64),
            }
        )

    flagged = (
        bdocs.union(offs)
        .groupby("__block")
        .map_groups(flag_block, batch_format="pandas")
    )
    return plain.union(flagged)


def budget_select_sql(source: str = "documents") -> str:
    """DuckDB mirror of :func:`budget_select` with the default
    half-the-corpus budget: the same selection expressed as a plain
    running-sum window over (score DESC, doc_id)."""
    score = (
        r"CAST(length(regexp_extract_all(lower(text),"
        r"'\b(the|be|to|of|and|that|have|with)\b')) * 1000 "
        r"// greatest(length(regexp_extract_all(text,'\S+')), 1) AS BIGINT)"
    )
    ntok = r"CAST(length(regexp_extract_all(text,'\S+')) AS BIGINT)"
    return (
        f"WITH s AS (SELECT doc_id, {score} AS score, {ntok} AS n_tok "
        f"FROM {source}), "
        "o AS (SELECT *, SUM(n_tok) OVER (ORDER BY score DESC, doc_id "
        "ROWS UNBOUNDED PRECEDING) AS cum FROM s) "
        "SELECT doc_id, score, n_tok, "
        "CAST(CASE WHEN cum <= (SELECT SUM(n_tok)//2 FROM s) "
        "THEN 1 ELSE 0 END AS BIGINT) AS selected FROM o"
    )
