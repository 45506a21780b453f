"""Vocabulary growth curve (Heaps-law diagnostic) — for each corpus
prefix bucket, how many NEVER-SEEN-BEFORE word 3-shingles first
appear there, and the cumulative shingle vocabulary. The saturation
signal curation teams read before deciding whether more crawl buys
new language (a flattening curve = diminishing novelty returns).
Shingles, not unigrams: the synthetic corpus (like any template-heavy
web slice) saturates its unigram vocabulary within a few docs, while
3-shingle novelty decays gradually — the regime the diagnostic is
for. Same shingle unit as the MinHash chain (stages/dedup.py).

"First appearance" is deterministic in ``doc_id`` order: a shingle's
first bucket is ``min(doc_id) // bucket_docs``. Shape at 100 TB: one
map pass collapses each batch to distinct (shingle, min doc_id)
partial rows; one groupby(shingle) Min makes them corpus-exact
(bounded by shingle vocabulary); bucketing + count is a second
bounded groupby; the cumulative sum runs in ONE task over the
bucket-count table (buckets = docs / bucket_docs, tiny). Tokens ride
the established ``[a-z0-9]+`` lowercase convention (chunking.TOKEN_RE)
so the SQL mirror tokenizes identically.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from .chunking import TOKEN_RE

BUCKET_DOCS = 64


def vocab_growth(docs_ds, bucket_docs: int = BUCKET_DOCS):
    """documents -> (bucket, n_new_tokens, cum_vocab) ordered by
    bucket; bucket = first_doc_id // bucket_docs of each 3-shingle."""
    import ray.data as rd
    from ray.data.aggregate import Count, Min

    from .cogroup import one_task

    pat = re.compile(TOKEN_RE)

    def partial(t: pa.Table) -> pa.Table:
        doc = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        texts = t.column("text").to_pandas().str.lower()
        first: dict = {}
        for d, txt in zip(doc, texts):
            toks = pat.findall(txt)
            for i in range(len(toks) - 2):
                sh = f"{toks[i]} {toks[i + 1]} {toks[i + 2]}"
                prev = first.get(sh)
                if prev is None or d < prev:
                    first[sh] = d
        return pa.table(
            {
                "shingle": pa.array(list(first.keys()), pa.string()),
                "first_doc": pa.array(list(first.values()), pa.int64()),
            }
        )

    def to_bucket(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": pa.array(
                    t.column("first_doc").to_numpy(zero_copy_only=False)
                    // bucket_docs,
                    pa.int64(),
                )
            }
        )

    counts = (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("shingle")
        .aggregate(Min("first_doc", alias_name="first_doc"))
        .map_batches(to_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Count(alias_name="n_new_tokens"))
    )

    def cum(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket").reset_index(drop=True)
        df["cum_vocab"] = df["n_new_tokens"].cumsum().astype(np.int64)
        return df

    return rd.from_pandas(
        one_task(lambda t: pd.DataFrame() if t is None else cum(t.to_pandas()), counts)
    )


def vocab_growth_sql(
    source: str = "documents", bucket_docs: int = BUCKET_DOCS
) -> str:
    """DuckDB mirror of :func:`vocab_growth` (1-indexed list slices;
    range() is end-exclusive so docs under 3 tokens emit nothing,
    matching the python loop)."""
    return (
        "WITH vg_t AS (SELECT doc_id, regexp_extract_all("
        f"lower(text), '{TOKEN_RE}') AS toks FROM {source}), "
        "vg_s AS (SELECT doc_id, toks[i] || ' ' || toks[i+1] || ' ' || "
        "toks[i+2] AS shingle FROM vg_t, "
        "unnest(range(1, len(toks) - 1)) AS u(i)), "
        f"vg_f AS (SELECT shingle, MIN(doc_id) // {bucket_docs} AS bucket "
        "FROM vg_s GROUP BY shingle), "
        "vg_c AS (SELECT bucket, COUNT(*) AS n_new FROM vg_f GROUP BY bucket) "
        "SELECT CAST(bucket AS BIGINT) AS bucket, "
        "CAST(n_new AS BIGINT) AS n_new_tokens, "
        "CAST(SUM(n_new) OVER (ORDER BY bucket) AS BIGINT) AS cum_vocab "
        "FROM vg_c"
    )
