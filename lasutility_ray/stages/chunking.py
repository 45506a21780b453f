"""Document chunking and corpus vocabulary: the flat_map / wordcount
shapes of an LLM training-data pipeline.

The reference has no text splitting or token statistics (its corpus
ops are geometric); both are core LLM-pipeline operators (context-
window chunking before tokenization, frequency vocabularies for
filtering), so the engine adds them as first-class stages.

- ``chunk_documents`` — fixed-size character windows with overlap,
  one output row per chunk. A pure per-batch flat map: no shuffle,
  no state, output rows ~ input_chars / stride. Chunk boundaries are
  deterministic byte-free character offsets, so an oracle can
  regenerate every chunk with ``substr`` + ``generate_series``.
- ``token_topk`` — global token frequency top-k. Map-side partial
  wordcount per batch (the combiner: a batch with millions of token
  occurrences shrinks to its distinct tokens before the shuffle),
  one small ``groupby(token).sum``, then a driver-side top-k of the
  aggregated table (k rows, not corpus-sized). Ties broken
  alphabetically so the ranking is total and SQL-mirrorable.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

TOKEN_RE = r"[a-z0-9]+"


def chunk_documents(ds, size: int, overlap: int = 0, text_col: str = "text",
                    id_col: str = "doc_id"):
    """Split each document into character windows of ``size`` with
    ``overlap`` chars shared between consecutive chunks (stride =
    size - overlap). Chunk ``i`` covers character offsets
    ``[i*stride, i*stride + size)``; every offset ``i*stride <
    n_chars`` produces a chunk (so a doc has ``ceil(n_chars /
    stride)`` chunks, the last possibly short), empty docs produce
    none. Output: ``(id_col, chunk_idx, chunk_text, chunk_chars)``.
    SQL mirror: ``generate_series(0, n_chars-1, stride)`` + substr.

    Vectorization: a per-DISTINCT-chunk-index loop (bounded by the
    longest doc), each iteration a pandas ``str.slice`` over every
    doc long enough — no per-chunk python work."""
    if size <= 0:
        raise ValueError(f"size must be positive (got {size})")
    if not 0 <= overlap < size:
        raise ValueError(f"overlap must be in [0, size) (got {overlap})")
    stride = size - overlap

    def chunk(t: pa.Table) -> pa.Table:
        texts = t.column(text_col).to_pandas()
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        n_chars = texts.str.len().to_numpy(dtype=np.int64)
        n_chunks = (n_chars + stride - 1) // stride  # 0 for empty docs
        id_parts, idx_parts, txt_parts = [], [], []
        for ci in range(int(n_chunks.max()) if len(n_chunks) else 0):
            mask = n_chunks > ci
            sl = texts[mask].str.slice(ci * stride, ci * stride + size)
            id_parts.append(ids[mask])
            idx_parts.append(np.full(int(mask.sum()), ci, dtype=np.int64))
            txt_parts.append(sl)
        if not id_parts:
            return pa.table(
                {
                    id_col: pa.array([], pa.from_numpy_dtype(ids.dtype)),
                    "chunk_idx": pa.array([], pa.int64()),
                    "chunk_text": pa.array([], pa.string()),
                    "chunk_chars": pa.array([], pa.int64()),
                }
            )
        out_text = pd.concat(txt_parts, ignore_index=True)
        return pa.table(
            {
                id_col: pa.array(np.concatenate(id_parts)),
                "chunk_idx": pa.array(np.concatenate(idx_parts), pa.int64()),
                "chunk_text": pa.array(out_text, pa.string()),
                "chunk_chars": pa.array(
                    out_text.str.len().to_numpy(dtype=np.int64), pa.int64()
                ),
            }
        )

    return ds.map_batches(chunk, batch_format="pyarrow")


def token_topk(ds, k: int = 50, text_col: str = "text"):
    """Global top-k lowercase ``[a-z0-9]+`` tokens by total count
    (ties alphabetical). Partial wordcount per batch before the
    shuffle; the shuffle carries distinct (token, count) partials
    only."""
    import re

    pat = re.compile(TOKEN_RE)

    def partial(t: pa.Table) -> pa.Table:
        toks = t.column(text_col).to_pandas().str.lower().str.findall(pat)
        lens = toks.map(len).to_numpy(dtype=np.int64)
        if lens.sum() == 0:
            return pa.table(
                {"token": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        flat = np.array([w for ws in toks for w in ws], dtype=object)
        uniq, counts = np.unique(flat, return_counts=True)
        return pa.table(
            {
                "token": pa.array(uniq, pa.string()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n"))
    )
    # the aggregated vocabulary is corpus-distinct-sized; top-k of it
    # is a sort + limit (tiny result), taken via Dataset.sort so the
    # heavy part stays distributed
    top = agg.sort(["sum(n)", "token"], descending=[True, False]).limit(k)
    df = top.to_pandas().rename(columns={"sum(n)": "n"})
    df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
    return df


def distinctive_terms(ds, k: int = 3, id_col: str = "doc_id", text_col: str = "text"):
    """Top-k distinctive tokens per document, ranked by (term
    frequency desc, global document frequency asc, token asc) — the
    TF-IDF idea with an integer-only total order, so the ranking is
    bit-exact against a SQL oracle (no float log weights).

    Two passes: (1) global df per token — per-batch per-doc distinct
    tokens, partial counts, one tiny ``groupby(token)`` shuffle, the
    vocab broadcast in the scan's closure; (2) a streamed per-batch scan:
    in-batch C-speed (doc, token) counting, df attach by
    ``searchsorted``, per-doc head(k). At a vocabulary too large to
    broadcast, swap the df attach for a ``lookup_join`` on token hash
    — the ranking rule is unchanged."""
    from ray.data.aggregate import Sum

    import re

    pat = re.compile(TOKEN_RE)

    def df_partial(t: pa.Table) -> pa.Table:
        toks = t.column(text_col).to_pandas().str.lower().str.findall(pat)
        lens = toks.map(len).to_numpy(dtype=np.int64)
        if lens.sum() == 0:
            return pa.table(
                {"token": pa.array([], pa.string()), "pdf": pa.array([], pa.int64())}
            )
        flat = np.array([w for ws in toks for w in ws], dtype=object)
        doc_idx = np.repeat(np.arange(len(toks), dtype=np.int64), lens)
        per_doc = pd.DataFrame({"token": flat, "d": doc_idx}).drop_duplicates()
        agg = per_doc.groupby("token", sort=False).size().reset_index(name="pdf")
        return pa.table(
            {
                "token": pa.array(agg["token"].to_numpy(), pa.string()),
                "pdf": pa.array(agg["pdf"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    df_tab = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("pdf", alias_name="df"))
        .to_pandas()
        .sort_values("token")
    )
    vocab = df_tab["token"].to_numpy()
    dfs = df_tab["df"].to_numpy(dtype=np.int64)

    def top_terms(t: pa.Table) -> pa.Table:
        toks = t.column(text_col).to_pandas().str.lower().str.findall(pat)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        lens = toks.map(len).to_numpy(dtype=np.int64)
        if lens.sum() == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.from_numpy_dtype(ids.dtype)),
                    "rank": pa.array([], pa.int64()),
                    "token": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                }
            )
        flat = np.array([w for ws in toks for w in ws], dtype=object)
        doc_idx = np.repeat(np.arange(len(toks), dtype=np.int64), lens)
        tf = (
            pd.DataFrame({"d": doc_idx, "token": flat})
            .groupby(["d", "token"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        pos = np.searchsorted(vocab, tf["token"].to_numpy())
        tf["df"] = dfs[pos]
        tf = tf.sort_values(
            ["d", "tf", "df", "token"], ascending=[True, False, True, True],
            kind="stable",
        )
        top = tf.groupby("d", sort=False).head(k).copy()
        top["rank"] = top.groupby("d", sort=False).cumcount() + 1
        return pa.table(
            {
                id_col: pa.array(ids[top["d"].to_numpy()]),
                "rank": pa.array(top["rank"].to_numpy(dtype=np.int64), pa.int64()),
                "token": pa.array(top["token"].to_numpy(), pa.string()),
                "tf": pa.array(top["tf"].to_numpy(dtype=np.int64), pa.int64()),
                "df": pa.array(top["df"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    return ds.map_batches(top_terms, batch_format="pyarrow")


def inverted_index(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_df: int = 1,
    max_postings: int | None = None,
):
    """Build an inverted index: one row per token with its document
    frequency and the ascending posting list of doc ids — the search/
    retrieval primitive (BM25 candidates, contamination lookups,
    keyword routing) over the corpus.

    Shape: per-batch per-doc DISTINCT (token, doc_id) pairs (a doc
    never spans batches, so in-batch dedup is exact and the shuffle
    carries at most one pair per (doc, token)); coarse token-hash
    bucket shuffle (cogroup._str_bucket_of, the engine's established
    shape); per bucket one vectorized pass — sort by (token, doc_id),
    group boundaries by np.unique, postings assembled zero-python via
    ``pa.ListArray.from_arrays`` offsets. No per-token work anywhere.

    100 TB: hot tokens ("the") concentrate their postings in one
    bucket row — cap them with ``max_postings`` (keeps the smallest
    doc ids, ``df`` stays exact) or pre-filter with ``min_df``/
    stopword gates upstream; per-bucket memory is bounded by
    corpus_pairs / n_buckets and buckets scale with cluster CPUs.

    SQL mirror: unnest(regexp_extract_all(lower(text), TOKEN_RE))
    DISTINCT pairs -> GROUP BY token with list(doc_id ORDER BY
    doc_id) — value-exact including postings order."""
    import re

    from .cogroup import _str_bucket_of, default_n_buckets

    pat = re.compile(TOKEN_RE)
    n_buckets = default_n_buckets()

    def pairs(t: pa.Table) -> pa.Table:
        toks = t.column(text_col).to_pandas().str.lower().str.findall(pat)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        lens = toks.map(len).to_numpy(dtype=np.int64)
        if lens.sum() == 0:
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    id_col: pa.array([], pa.int64()),
                    "__bucket": pa.array([], pa.int64()),
                }
            )
        flat = np.array([w for ws in toks for w in ws], dtype=object)
        doc = np.repeat(ids, lens)
        dedup = pd.DataFrame({"token": flat, id_col: doc}).drop_duplicates()
        tok_arr = pa.array(dedup["token"], pa.string())
        return pa.table(
            {
                "token": tok_arr,
                id_col: pa.array(dedup[id_col].to_numpy(np.int64), pa.int64()),
                "__bucket": pa.array(_str_bucket_of(tok_arr, n_buckets), pa.int64()),
            }
        )

    def build(g: pd.DataFrame) -> pa.Table:
        sub = g.sort_values(["token", id_col], kind="mergesort")
        toks = sub["token"].to_numpy(object)
        docs = sub[id_col].to_numpy(np.int64)
        uniq, starts, counts = np.unique(toks, return_index=True, return_counts=True)
        # np.unique sorts lexicographically, matching the sort above,
        # so starts/counts delimit contiguous runs
        if min_df > 1:
            keep = counts >= min_df
            uniq, starts, counts = uniq[keep], starts[keep], counts[keep]
        if max_postings is not None and len(counts) and counts.max() > max_postings:
            clipped = np.minimum(counts, max_postings)
            idx = np.concatenate(
                [np.arange(s, s + c) for s, c in zip(starts, clipped)]
            )
            docs_out = docs[idx]
            offsets = np.concatenate(([0], np.cumsum(clipped)))
        else:
            docs_out = docs
            offsets = np.concatenate(([0], np.cumsum(counts))) if len(counts) else [0]
            if min_df > 1 and len(counts):
                idx = np.concatenate(
                    [np.arange(s, s + c) for s, c in zip(starts, counts)]
                )
                docs_out = docs[idx]
        postings = pa.ListArray.from_arrays(
            pa.array(np.asarray(offsets, np.int32), pa.int32()),
            pa.array(docs_out, pa.int64()),
        )
        return pa.table(
            {
                "token": pa.array(uniq, pa.string()),
                "df": pa.array(counts.astype(np.int64), pa.int64()),
                "postings": postings,
            }
        )

    return (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(build, batch_format="pandas")
    )


def phrase_search(docs_ds, phrase: str, id_col: str = "doc_id",
                  text_col: str = "text"):
    """Exact phrase search: (doc_id, n_hits) for every document
    containing the whitespace-tokenized ``phrase`` as a CONSECUTIVE
    token run — the positional-index primitive behind quoted-query
    retrieval, here as the shuffle-free scan formulation (map-only:
    at 100 TB a standing positional inverted index answers this from
    postings, but the one-off scan IS the index build's inner loop).
    Vectorized across the batch: one flat token array with doc-change
    guards, k-1 shifted equality ANDs, one bincount."""
    import numpy as np
    import pyarrow as pa

    terms = phrase.split()
    if not terms:
        raise ValueError("phrase must contain at least one token")
    k = len(terms)

    def scan(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy()
        texts = t.column(text_col).to_pylist()
        words: list = []
        owner: list = []
        for i, tx in enumerate(texts):
            ws = tx.split()
            words.extend(ws)
            owner.extend([i] * len(ws))
        w = np.array(words, dtype=object)
        o = np.array(owner, dtype=np.int64)
        n = len(w)
        if n < k:
            return pa.table(
                {id_col: pa.array([], pa.int64()),
                 "n_hits": pa.array([], pa.int64())}
            )
        m = np.ones(n - k + 1, dtype=bool)
        for j, term in enumerate(terms):
            m &= w[j : n - k + 1 + j] == term
        m &= o[: n - k + 1] == o[k - 1 :]  # run stays inside one doc
        cnt = np.bincount(o[: n - k + 1][m], minlength=len(ids))
        nz = cnt > 0
        return pa.table(
            {
                id_col: pa.array(ids[nz], pa.int64()),
                "n_hits": pa.array(cnt[nz].astype(np.int64), pa.int64()),
            }
        )

    return docs_ds.map_batches(scan, batch_format="pyarrow")


def phrase_search_sql(phrase: str, source: str = "documents") -> str:
    """DuckDB mirror of :func:`phrase_search` (words + lead chain)."""
    terms = phrase.split()
    k = len(terms)
    leads = ", ".join(
        f"lead(w, {j}) OVER (PARTITION BY doc_id ORDER BY p) AS w{j}"
        for j in range(1, k)
    )
    conds = " AND ".join(
        [f"w = '{terms[0]}'"]
        + [f"w{j} = '{terms[j]}'" for j in range(1, k)]
    )
    sel = f"SELECT doc_id, w{', ' + leads if leads else ''} FROM ("
    return (
        "WITH ps_w AS (SELECT doc_id, "
        "unnest(regexp_extract_all(text,'\\S+')) AS w, "
        "unnest(generate_series(1, len(regexp_extract_all(text,'\\S+')))) AS p "
        f"FROM {source}), "
        f"ps_l AS ({sel}SELECT * FROM ps_w) t) "
        f"SELECT doc_id, CAST(count(*) AS BIGINT) AS n_hits FROM ps_l "
        f"WHERE {conds} GROUP BY doc_id"
    )


def daily_top_terms(pages_ds, k: int = 5):
    """Trending terms per crawl day: each day's top-``k`` tokens by
    count with the integer-only total order (count DESC, token ASC —
    the distinctive_terms rule, so the ranking is SQL-exact). Shape:
    per-batch (day, token) count partials -> one day-bucket shuffle
    (a day's counts co-locate) -> per-day merge + head(k)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from .cogroup import default_n_buckets

    nb = default_n_buckets()

    def partial(t: pa.Table) -> pa.Table:
        day = (
            t.column("warc_ts")
            .cast(pa.timestamp("ms"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            // 86_400_000
        )
        texts = t.column("text").to_pylist()
        toks: list = []
        days: list = []
        for d, tx in zip(day.tolist(), texts):
            ws = tx.split()
            toks.extend(ws)
            days.extend([d] * len(ws))
        df = (
            pd.DataFrame({"day": np.array(days, np.int64), "token": toks})
            .groupby(["day", "token"], sort=False)
            .size()
            .reset_index(name="n")
        )
        df["__bucket"] = (df["day"] % nb).astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (
            g.groupby(["day", "token"], sort=False)["n"].sum().reset_index()
        )
        cnt = cnt.sort_values(
            ["day", "n", "token"], ascending=[True, False, True],
            kind="mergesort",
        )
        out = cnt.groupby("day", sort=False).head(k).copy()
        out["rank"] = out.groupby("day", sort=False).cumcount() + 1
        return out.astype(
            {"day": np.int64, "n": np.int64, "rank": np.int64}
        )

    return (
        pages_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(topk, batch_format="pandas")
    )


def daily_top_terms_sql(k: int = 5) -> str:
    """DuckDB mirror of :func:`daily_top_terms` (pages reconstructed
    per the corpus contract)."""
    from ..corpus.pages import warc_ts_sql

    return (
        f"WITH dt_p AS (SELECT epoch_ms({warc_ts_sql()}) // 86400000 AS day, "
        "unnest(regexp_extract_all(text, '\\S+')) AS token FROM documents), "
        "dt_c AS (SELECT day, token, CAST(count(*) AS BIGINT) AS n "
        "FROM dt_p GROUP BY 1, 2) "
        "SELECT day, token, n, CAST(row_number() OVER "
        "(PARTITION BY day ORDER BY n DESC, token) AS BIGINT) AS rank "
        f"FROM dt_c QUALIFY rank <= {k}"
    )
