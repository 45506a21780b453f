"""DSIR importance weighting for data selection (Xie et al. 2023,
"Data Selection for Language Models via Importance Resampling",
NeurIPS — public paper), reduced to integer millibits so every number
is exactly reproducible in SQL.

The DSIR recipe: featurize each document as a bag of hashed n-grams
(unigrams + bigrams here, md5-bucketed into ``N_BUCKETS``), fit two
bag-of-ngrams models — one on the *target* slice (the distribution we
want more of; here a column predicate such as ``lang == 'en'``) and
one on the *raw* corpus — and weight every document by its
log-importance ``log p_target(doc) - log p_raw(doc)``. High-weight
documents look like the target; resampling/top-k by weight selects
them.

Execution shape (scale-safe, two streaming passes):

1. **Train**: per-batch partial bucket counts (``np.bincount`` over
   md5-bucket ids, at most ``N_BUCKETS`` rows per batch on the wire)
   -> one tiny ``groupby(bucket)`` shuffle -> <= ``N_BUCKETS`` rows to
   the driver. Model size is fixed (256 buckets), never
   corpus-proportional.
2. **Score**: the per-bucket weight array ships once with the scan
   callable; a task-based scan maps each batch's features through
   it with ``searchsorted``-free direct indexing + ``bincount`` sums.

Integer exactness (the ``stages/lm.py`` argument): the only float op
is one ``ln`` per DISTINCT bucket of the add-1-smoothed ratio
``((ct+1) * (Tr+B)) / ((cr+1) * (Tt+B))``; every product stays an
exact float64 integer (< 2^53 until ~10^7-token corpora per bucket
pair, and the same expression shape is used in SQL so rounding is
bit-identical), after which per-document scores are pure int64 sums —
order-independent across any partitioning. Bucket ids are md5 hex
*prefixes* (2 chars = 256 buckets) so the SQL mirror needs no
hex->int conversion: DuckDB's ``substr(md5(feat), 1, 2)`` groups the
same way numpy's ``int(h[:2], 16)`` indexes.

Reference parity: the reference has no data-selection machinery; this
is an engine addition in the LLM-curation family (SURVEY §2.11).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

TOKEN_RE = r"[a-z0-9]+"
N_BUCKETS = 256  # 2 hex chars of md5 — keeps the SQL mirror string-only
_PAT = re.compile(TOKEN_RE)


def _doc_buckets(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(bucket_id int64 array over all feature occurrences,
    per-doc feature counts). Features are unigrams + space-joined
    bigrams; md5 is taken once per distinct feature per batch."""
    per_doc: list[list[str]] = []
    for s in texts:
        toks = _PAT.findall(s.lower())
        feats = list(toks)
        feats.extend(f"{a} {b}" for a, b in zip(toks, toks[1:]))
        per_doc.append(feats)
    lens = np.array([len(f) for f in per_doc], dtype=np.int64)
    if lens.sum() == 0:
        return np.empty(0, np.int64), lens
    flat = np.array([f for fs in per_doc for f in fs], dtype=object)
    uniq, inv = np.unique(flat, return_inverse=True)
    ub = np.array(
        [int(hashlib.md5(f.encode()).hexdigest()[:2], 16) for f in uniq],
        dtype=np.int64,
    )
    return ub[inv], lens


def train_dsir(
    ds,
    text_col: str = "text",
    target_col: str = "lang",
    target_value: str = "en",
) -> np.ndarray:
    """One streaming pass over the corpus -> int64 weight array of
    length ``N_BUCKETS``: ``mb[b] = floor(1000 * ln(((ct+1)*(Tr+B)) /
    ((cr+1)*(Tt+B))))`` with ct/cr the target/raw occurrence counts of
    bucket ``b`` and Tt/Tr their totals. Buckets the corpus never
    emits keep weight 0 (they are unreachable when scoring the same
    corpus)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        texts = t.column(text_col).to_pylist()
        is_target = np.array(
            [v == target_value for v in t.column(target_col).to_pylist()],
            dtype=bool,
        )
        b, lens = _doc_buckets(texts)
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
        cr = np.bincount(b, minlength=N_BUCKETS)
        ct = np.bincount(b[is_target[doc_idx]], minlength=N_BUCKETS)
        nz = np.flatnonzero(cr)
        return pa.table(
            {
                "b": pa.array(nz, pa.int64()),
                "cr": pa.array(cr[nz], pa.int64()),
                "ct": pa.array(ct[nz], pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("b")
        .aggregate(Sum("cr"), Sum("ct"))
        .to_pandas()
    )
    cr = np.zeros(N_BUCKETS, dtype=np.int64)
    ct = np.zeros(N_BUCKETS, dtype=np.int64)
    if len(agg):
        cr[agg["b"].to_numpy()] = agg["sum(cr)"].to_numpy()
        ct[agg["b"].to_numpy()] = agg["sum(ct)"].to_numpy()
    tr, tt = int(cr.sum()), int(ct.sum())
    mb = np.zeros(N_BUCKETS, dtype=np.int64)
    nz = np.flatnonzero(cr)
    if len(nz):
        num = (ct[nz] + 1).astype(np.float64) * float(tr + N_BUCKETS)
        den = (cr[nz] + 1).astype(np.float64) * float(tt + N_BUCKETS)
        mb[nz] = np.floor(1000.0 * np.log(num / den)).astype(np.int64)
    return mb


class _DsirScore:
    def __init__(self, mb: np.ndarray, text_col: str):
        self.mb = mb
        self.text_col = text_col

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t.column(self.text_col).to_pylist()
        b, lens = _doc_buckets(texts)
        n = len(texts)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        logw = np.bincount(doc_idx, weights=self.mb[b], minlength=n).astype(
            np.int64
        )
        out = pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_feats": pa.array(lens, pa.int64()),
                "logw_millibits": pa.array(logw, pa.int64()),
            }
        )
        return out.filter(pa.array(lens > 0))


def dsir_weights(
    ds,
    text_col: str = "text",
    target_col: str = "lang",
    target_value: str = "en",
):
    """Score every document by DSIR log-importance (integer
    millibits; higher = more target-like). Returns a Dataset of
    (doc_id, n_feats, logw_millibits); zero-feature docs are dropped
    (no evidence — the SQL mirror's GROUP BY drops them identically).
    """
    mb = train_dsir(ds, text_col, target_col, target_value)
    return ds.map_batches(_DsirScore(mb, text_col), batch_format="pyarrow")


def dsir_select(ds, k: int, **kwargs):
    """Deterministic DSIR selection: top-``k`` documents by
    (logw_millibits desc, doc_id asc) — the resampling step made
    reproducible. Per-batch partial top-k bounds the shuffle at k rows
    per batch (``relational.topk_per_group`` over a constant group),
    so the full scored table is never sorted."""
    from .relational import topk_per_group

    scored = dsir_weights(ds, **kwargs)

    def add_g(t: pa.Table) -> pa.Table:
        return t.append_column("g", pa.array(np.zeros(len(t), np.int64)))

    top = topk_per_group(
        scored.map_batches(add_g, batch_format="pyarrow"),
        group_col="g",
        order_col="logw_millibits",
        tie_col="doc_id",
        k=k,
    )
    return top.drop_columns(["g"])


def _feats_cte(table: str) -> str:
    return (
        f"toks AS (SELECT doc_id, lang, "
        f"regexp_extract_all(lower(text), '{TOKEN_RE}') AS t FROM {table}), "
        "feats AS (SELECT doc_id, lang, substr(md5(feat), 1, 2) AS b FROM ("
        "SELECT doc_id, lang, unnest(t) AS feat FROM toks "
        "UNION ALL "
        "SELECT doc_id, lang, t[pos + 1] || ' ' || t[pos + 2] AS feat "
        "FROM (SELECT doc_id, lang, t, "
        "unnest(generate_series(0, len(t) - 2)) AS pos FROM toks)))"
    )


def dsir_weights_sql(
    table: str = "documents", target_value: str = "en"
) -> str:
    """DuckDB mirror of :func:`dsir_weights` over ``table``."""
    B = N_BUCKETS
    return (
        f"WITH {_feats_cte(table)}, "
        "cnt AS (SELECT b, CAST(count(*) AS BIGINT) AS cr, "
        f"CAST(count(*) FILTER (WHERE lang = '{target_value}') AS BIGINT) AS ct "
        "FROM feats GROUP BY b), "
        "tot AS (SELECT CAST(sum(cr) AS BIGINT) AS tr, "
        "CAST(sum(ct) AS BIGINT) AS tt FROM cnt), "
        "w AS (SELECT b, CAST(floor(1000 * ln("
        f"((ct + 1)::DOUBLE * (tr + {B})) / ((cr + 1)::DOUBLE * (tt + {B}))"
        ")) AS BIGINT) AS mb FROM cnt, tot) "
        "SELECT f.doc_id, CAST(count(*) AS BIGINT) AS n_feats, "
        "CAST(sum(w.mb) AS BIGINT) AS logw_millibits "
        "FROM feats f JOIN w USING (b) GROUP BY f.doc_id"
    )


def dsir_select_sql(
    k: int, table: str = "documents", target_value: str = "en"
) -> str:
    """DuckDB mirror of :func:`dsir_select`."""
    return (
        "SELECT doc_id, n_feats, logw_millibits, "
        "CAST(row_number() OVER (ORDER BY logw_millibits DESC, doc_id) "
        "AS BIGINT) AS rank "
        f"FROM ({dsir_weights_sql(table, target_value)}) "
        f"ORDER BY logw_millibits DESC, doc_id LIMIT {k}"
    )


# ------------------------------------------------ negative sampling

NEG_K = 2
NEG_MIX = 0x9E3779B97F4A7C15


def negative_samples(docs_ds, n_docs: int, k: int = NEG_K):
    """Deterministic negative sampling for contrastive training: each
    anchor doc gets ``k`` pseudo-random negatives drawn by a Lehmer-
    style arithmetic hop over the id space, skipping self (and
    collisions) by open addressing — fully reproducible across runs
    and engines (the hash IS the sampler; no RNG state anywhere), so
    a resumed job regenerates identical pairs. Map-only; ``n_docs``
    is the corpus id-space size (one driver scalar).

    Contract mirrored in SQL: candidate_j = (doc_id * MIX + j) mod
    n_docs for j = 1.., keep the first k candidates != doc_id."""

    # reduce the multiplier mod n_docs FIRST: (d * MIX + j) mod n ==
    # (d * (MIX mod n) + j) mod n, and the reduced product stays
    # int64-safe for any n_docs <= ~3e9 (beyond that, object ints)
    mix_red = NEG_MIX % n_docs

    def sample(t: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow as pa

        d = t.column("doc_id").to_numpy()
        # probe k+2 hops: at most ONE can collide with the anchor, so
        # k survivors always exist among the first k+1; j starts at 1
        js = np.arange(1, k + 2, dtype=np.int64)
        cand = (d[:, None] * np.int64(mix_red) + js[None, :]) % np.int64(n_docs)
        ok = cand != d[:, None]
        # rank valid candidates per row, keep the first k
        rank = np.cumsum(ok, axis=1)
        keep = ok & (rank <= k)
        rows, cols = np.nonzero(keep)
        return pa.table(
            {
                "doc_id": pa.array(d[rows], pa.int64()),
                "neg_id": pa.array(cand[rows, cols], pa.int64()),
                "slot": pa.array((rank[rows, cols] - 1).astype(np.int64)),
            }
        )

    return docs_ds.map_batches(sample, batch_format="pyarrow")


def negative_samples_sql(n_docs: int | None = None, k: int = NEG_K,
                         source: str = "documents") -> str:
    """DuckDB mirror of :func:`negative_samples` (HUGEINT carries the
    full-width product; the engine's mod-reduced multiplier is
    congruent for ANY modulus, so the default derives n_docs from the
    table itself — scale-factor independent)."""
    n_expr = (
        str(n_docs)
        if n_docs is not None
        else f"(SELECT count(*) FROM {source})"
    )
    return (
        f"WITH ns_c AS (SELECT doc_id, "
        f"(CAST(doc_id AS HUGEINT) * {NEG_MIX} + j) % {n_expr} AS neg_id, j "
        f"FROM {source}, unnest(range(1, {k + 2})) t(j)), "
        "ns_r AS (SELECT doc_id, CAST(neg_id AS BIGINT) AS neg_id, "
        "row_number() OVER (PARTITION BY doc_id ORDER BY j) - 1 AS slot "
        "FROM ns_c WHERE neg_id <> doc_id) "
        f"SELECT doc_id, neg_id, CAST(slot AS BIGINT) AS slot FROM ns_r "
        f"WHERE slot < {k}"
    )
