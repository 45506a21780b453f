"""Unigram language-model familiarity scoring (the CCNet-style
perplexity-proxy quality signal, reduced to a corpus-trained unigram
model so it is exactly reproducible in SQL).

Two passes, both streaming:

1. **Train**: per-batch partial wordcounts (distinct tokens only on
   the wire) -> one vocab-sized ``groupby(token)`` shuffle -> top-K
   vocabulary by (count desc, token asc). The trained model — token
   -> integer *millibits* ``floor(-1000 * ln(count/total))`` — is a
   fixed-size table broadcast once with the scorer callable (the same
   broadcast-model shape a real KenLM scorer would use; K bounds the
   model, never the corpus).
2. **Score**: a streamed task-based scan; per batch the flattened
   token array is mapped through the vocab by ``searchsorted`` and
   per-doc sums run as ``bincount`` C kernels.

Integer exactness: the only float op is ``ln`` of one ratio per
DISTINCT vocab token (numpy and DuckDB call the same libm on this
host); per-doc scores are then pure integer sums, so they are
order-independent and value-exact against the SQL oracle. Out-of-
vocabulary tokens score ``floor(-1000 * ln(1/total))`` (add-nothing
unknown-word floor).

Reference parity note: the reference has no text scoring; engine
addition in the ``stages/text.py`` family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

TOKEN_RE = r"[a-z0-9]+"
MAX_VOCAB = 24  # small corpus default; raise for real corpora


def _millibits(counts: np.ndarray, total: int) -> np.ndarray:
    return np.floor(-1000.0 * np.log(counts.astype(np.float64) / float(total))).astype(
        np.int64
    )


def train_unigram(ds, text_col: str = "text", max_vocab: int = MAX_VOCAB):
    """Corpus wordcount -> (vocab pandas DataFrame [token, millibits],
    oov_millibits, total_tokens). The vocab is top-``max_vocab`` by
    (count desc, token asc)."""
    import re

    from ray.data.aggregate import Sum

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

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n"))
        .materialize()
    )
    total_raw = agg.sum("sum(n)")  # None on an all-empty corpus
    total = int(total_raw) if total_raw is not None else 0
    if total == 0:
        # no tokens anywhere: empty model; the scorer drops every doc
        # (all have n_tokens == 0) so oov is never consulted
        return pd.DataFrame({"token": [], "millibits": []}), 0, 0
    top = (
        agg.sort(["sum(n)", "token"], descending=[True, False])
        .limit(max_vocab)
        .to_pandas()
        .rename(columns={"sum(n)": "n"})
    )
    vocab = pd.DataFrame(
        {
            "token": top["token"].to_numpy(),
            "millibits": _millibits(top["n"].to_numpy(), total),
        }
    )
    oov = int(np.floor(-1000.0 * np.log(1.0 / float(total))))
    return vocab, oov, total


class _UnigramScore:
    def __init__(self, vocab: pd.DataFrame, oov_millibits: int, text_col: str):
        import re

        order = np.argsort(vocab["token"].to_numpy())
        self.tokens = vocab["token"].to_numpy()[order]
        self.mb = vocab["millibits"].to_numpy()[order]
        self.oov = np.int64(oov_millibits)
        self.pat = re.compile(TOKEN_RE)
        self.text_col = text_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[self.text_col].str.lower().str.findall(self.pat)
        lens = toks.map(len).to_numpy(dtype=np.int64)
        n = len(batch)
        out = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "n_tokens": lens,
            }
        )
        if lens.sum() == 0:
            out["n_oov"] = np.zeros(n, dtype=np.int64)
            out["score_millibits"] = np.zeros(n, dtype=np.int64)
            return out[out["n_tokens"] > 0]
        flat = np.array([w for ws in toks for w in ws], dtype=object)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        pos = np.searchsorted(self.tokens, flat)
        pos = np.minimum(pos, len(self.tokens) - 1)
        in_vocab = self.tokens[pos] == flat
        mb = np.where(in_vocab, self.mb[pos], self.oov)
        out["n_oov"] = np.bincount(
            doc_idx, weights=~in_vocab, minlength=n
        ).astype(np.int64)
        out["score_millibits"] = np.bincount(
            doc_idx, weights=mb, minlength=n
        ).astype(np.int64)
        return out[out["n_tokens"] > 0]


def unigram_lm_score(ds, text_col: str = "text", max_vocab: int = MAX_VOCAB):
    """Score every document by unigram-LM familiarity (integer
    millibits; lower = more predictable text). Returns a Dataset of
    (doc_id, n_tokens, n_oov, score_millibits); zero-token docs are
    dropped (they have no LM evidence — the SQL mirror's GROUP BY
    drops them identically)."""
    vocab, oov, _ = train_unigram(ds, text_col, max_vocab)
    return ds.map_batches(_UnigramScore(vocab, oov, text_col), batch_format="pandas")


# ------------------------------------------------------- bigram LM
#
# The next rung of the CCNet perplexity ladder: an interpolated
# bigram model over the SAME top-K vocabulary (plus one OOV bucket),
#
#     P(b | a) = 0.7 * c(a,b)/c(a,·) + 0.3 * c(·,b)/B
#
# with every count taken over MAPPED consecutive token pairs and B
# the total number of pairs. All probabilities are quantized to
# integer millibits per (a,b) — the model is a dense (K+1)^2 int64
# matrix, bounded by vocab size, never by the corpus — then per-doc
# scores are order-independent integer sums, value-exact vs the SQL
# mirror (which joins each pair occurrence against the same count
# tables with the same literal float expression).
#
# 100 TB shape: one bigram-pair groupby bounded by (K+1)^2 output
# rows (map-side bincount partials), model broadcast with the scorer
# callable, score pass streamed through map tasks.

INTERP_HI = 0.7
INTERP_LO = 0.3


def _map_ids(toks, tokens_sorted: np.ndarray, k: int):
    """Token series -> (flat mapped ids, doc lengths). OOV maps to k."""
    lens = toks.map(len).to_numpy(dtype=np.int64)
    if lens.sum() == 0:
        return np.array([], dtype=np.int64), lens
    flat = np.array([w for ws in toks for w in ws], dtype=object)
    if k == 0:
        return np.zeros(len(flat), dtype=np.int64), lens
    pos = np.searchsorted(tokens_sorted, flat)
    pos = np.minimum(pos, k - 1)
    ids = np.where(tokens_sorted[pos] == flat, pos, k)
    return ids.astype(np.int64), lens


def train_bigram(ds, text_col: str = "text", max_vocab: int = MAX_VOCAB):
    """-> (tokens_sorted, millibit matrix [(K+1) x (K+1)], n_pairs).

    Vocabulary is :func:`train_unigram`'s top-K (count desc, token
    asc); pair counts come from one bounded groupby over mapped-pair
    ids."""
    import re

    from ray.data.aggregate import Sum

    vocab, _, _ = train_unigram(ds, text_col, max_vocab)
    tokens_sorted = np.sort(vocab["token"].to_numpy())
    k = len(tokens_sorted)
    pat = re.compile(TOKEN_RE)

    def pair_partial(t: pa.Table) -> pa.Table:
        toks = t.column(text_col).to_pandas().str.lower().str.findall(pat)
        ids, lens = _map_ids(toks, tokens_sorted, k)
        if lens.sum() == 0:
            return pa.table(
                {"pair_id": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        starts = np.concatenate([[0], np.cumsum(lens)])
        pair_ids = []
        for d in range(len(lens)):
            seg = ids[starts[d] : starts[d + 1]]
            if len(seg) >= 2:
                pair_ids.append(seg[:-1] * (k + 1) + seg[1:])
        if not pair_ids:
            return pa.table(
                {"pair_id": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        allp = np.concatenate(pair_ids)
        counts = np.bincount(allp, minlength=(k + 1) * (k + 1)).astype(np.int64)
        nz = np.nonzero(counts)[0]
        return pa.table(
            {
                "pair_id": pa.array(nz.astype(np.int64), pa.int64()),
                "n": pa.array(counts[nz], pa.int64()),
            }
        )

    agg = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby("pair_id")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    cab = np.zeros((k + 1, k + 1), dtype=np.int64)
    if len(agg):
        pid = agg["pair_id"].to_numpy(np.int64)
        cab[pid // (k + 1), pid % (k + 1)] = agg["n"].to_numpy(np.int64)
    btot = int(cab.sum())
    ca = cab.sum(axis=1)  # c(a, .)
    cb = cab.sum(axis=0)  # c(., b)
    mb = np.zeros_like(cab)
    if btot:
        with np.errstate(divide="ignore", invalid="ignore"):
            p = INTERP_HI * (cab.astype(np.float64) / ca[:, None].astype(np.float64)) + (
                INTERP_LO * (cb[None, :].astype(np.float64) / float(btot))
            )
        p = np.where(np.isfinite(p), p, 0.0)
        # unseen-new-text fallback: never consulted on same-corpus
        # scoring (any scored pair was counted), floor keeps it finite
        p = np.where(p > 0.0, p, 1.0 / float(btot))
        mb = np.floor(-1000.0 * np.log(p)).astype(np.int64)
    return tokens_sorted, mb, btot


class _BigramScore:
    def __init__(self, tokens: np.ndarray, mb: np.ndarray, text_col: str):
        import re

        self.tokens, self.mb = tokens, mb
        self.k = len(self.tokens)
        self.pat = re.compile(TOKEN_RE)
        self.text_col = text_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[self.text_col].str.lower().str.findall(self.pat)
        ids, lens = _map_ids(toks, self.tokens, self.k)
        n = len(batch)
        doc_ids = batch["doc_id"].to_numpy()
        if lens.sum() == 0:
            return pd.DataFrame(
                {
                    "doc_id": doc_ids[:0],
                    "n_pairs": np.array([], dtype=np.int64),
                    "score_millibits": np.array([], dtype=np.int64),
                }
            )
        # vectorized pair extraction: adjacent positions that belong
        # to the same doc form the bigrams
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        same = doc_idx[:-1] == doc_idx[1:]
        a = ids[:-1][same]
        b = ids[1:][same]
        d = doc_idx[:-1][same]
        score = np.zeros(n, dtype=np.int64)
        np.add.at(score, d, self.mb[a, b])
        n_pairs = np.bincount(d, minlength=n).astype(np.int64)
        keep = n_pairs > 0
        return pd.DataFrame(
            {
                "doc_id": doc_ids[keep],
                "n_pairs": n_pairs[keep],
                "score_millibits": score[keep],
            }
        ).astype({"doc_id": np.int64, "n_pairs": np.int64, "score_millibits": np.int64})


def bigram_lm_score(ds, text_col: str = "text", max_vocab: int = MAX_VOCAB):
    """Score docs by interpolated-bigram familiarity; docs with < 2
    tokens are dropped (no pair evidence, mirrored by the SQL GROUP
    BY over pairs)."""
    tokens_sorted, mb, _ = train_bigram(ds, text_col, max_vocab)
    return ds.map_batches(_BigramScore(tokens_sorted, mb, text_col), batch_format="pandas")


def bigram_lm_sql(max_vocab: int = MAX_VOCAB, table: str = "documents") -> str:
    """DuckDB mirror of :func:`bigram_lm_score`: same vocab rule, OOV
    mapped to the empty string, same interpolation expression, same
    millibit floor, integer per-doc sums."""
    return (
        "WITH tl AS (SELECT doc_id, regexp_extract_all(lower(text), "
        f"'{TOKEN_RE}') AS ts FROM {table}), "
        "toks AS (SELECT doc_id, unnest(ts) AS token FROM tl), "
        "cnt AS (SELECT token, CAST(count(*) AS BIGINT) AS c FROM toks GROUP BY token), "
        "vocab AS (SELECT token FROM (SELECT token, row_number() OVER "
        f"(ORDER BY c DESC, token) AS rnk FROM cnt) WHERE rnk <= {max_vocab}), "
        "bg AS (SELECT doc_id, "
        "CASE WHEN p[1] IN (SELECT token FROM vocab) THEN p[1] ELSE '' END AS w1, "
        "CASE WHEN p[2] IN (SELECT token FROM vocab) THEN p[2] ELSE '' END AS w2 "
        "FROM (SELECT doc_id, unnest(list_zip(ts[1:length(ts)-1], "
        "ts[2:length(ts)])) AS p FROM tl WHERE length(ts) >= 2)), "
        "cab AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS c FROM bg GROUP BY 1, 2), "
        "ca AS (SELECT w1, CAST(sum(c) AS BIGINT) AS s FROM cab GROUP BY 1), "
        "cb AS (SELECT w2, CAST(sum(c) AS BIGINT) AS s FROM cab GROUP BY 1), "
        "bt AS (SELECT CAST(sum(c) AS BIGINT) AS t FROM cab), "
        f"mbt AS (SELECT cab.w1, cab.w2, CAST(floor(-1000 * ln({INTERP_HI!r} * "
        f"(CAST(cab.c AS DOUBLE) / CAST(ca.s AS DOUBLE)) + {INTERP_LO!r} * "
        "(CAST(cb.s AS DOUBLE) / CAST(bt.t AS DOUBLE)))) AS BIGINT) AS mb "
        "FROM cab JOIN ca USING(w1) JOIN cb USING(w2), bt) "
        "SELECT bg.doc_id, CAST(count(*) AS BIGINT) AS n_pairs, "
        "CAST(sum(mbt.mb) AS BIGINT) AS score_millibits "
        "FROM bg JOIN mbt ON bg.w1 = mbt.w1 AND bg.w2 = mbt.w2 "
        "GROUP BY bg.doc_id"
    )


def unigram_lm_sql(max_vocab: int = MAX_VOCAB, table: str = "documents") -> str:
    """DuckDB mirror of :func:`unigram_lm_score` over ``table``."""
    return (
        "WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), "
        f"'{TOKEN_RE}')) AS token FROM {table}), "
        "cnt AS (SELECT token, CAST(count(*) AS BIGINT) AS c FROM toks GROUP BY token), "
        "tot AS (SELECT CAST(sum(c) AS BIGINT) AS total FROM cnt), "
        "vocab AS (SELECT token, c, row_number() OVER (ORDER BY c DESC, token) AS rnk "
        "FROM cnt), "
        "mb AS (SELECT token, CAST(floor(-1000 * ln(c::DOUBLE / total)) AS BIGINT) "
        f"AS millibits FROM vocab, tot WHERE rnk <= {max_vocab}), "
        "oov AS (SELECT CAST(floor(-1000 * ln(1.0 / total)) AS BIGINT) AS omb FROM tot), "
        "tf AS (SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf FROM toks "
        "GROUP BY doc_id, token) "
        "SELECT tf.doc_id, CAST(sum(tf.tf) AS BIGINT) AS n_tokens, "
        "CAST(sum(CASE WHEN mb.millibits IS NULL THEN tf.tf ELSE 0 END) AS BIGINT) "
        "AS n_oov, "
        "CAST(sum(tf.tf * coalesce(mb.millibits, oov.omb)) AS BIGINT) "
        "AS score_millibits "
        "FROM tf LEFT JOIN mb USING(token) CROSS JOIN oov GROUP BY tf.doc_id"
    )
