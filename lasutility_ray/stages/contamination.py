"""Benchmark-contamination check: flag training documents that share
any word n-gram with an evaluation set.

The standard LLM-data hygiene operator (the GPT-3 paper's 13-gram
overlap check): before training, every doc that contains an n-gram
from a benchmark/eval corpus must be flagged/dropped. The reference
engine has no analogue; the web-scale engine adds it as a
broadcast-side stream scan:

1. the EVAL side (benchmarks — small by contract) is reduced to its
   distinct lowercase word n-grams once and broadcast with the scan
   callable;
2. the TRAIN side streams through ``map_batches``: tokenize, form
   n-gram strings, vectorized ``np.isin`` membership against the
   broadcast set, per-doc hit counts via ``bincount``. No shuffle at
   all — the train corpus is touched exactly once.

Gram identity is the exact space-joined token string (so a DuckDB
oracle can reproduce membership verbatim). At 100 TB swap the string
set for 64-bit gram hashes (collision odds ~ |train|x|eval| / 2^64)
— the stage keeps its shape, only the membership array changes.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa


TOKEN_RE = re.compile(r"[a-z0-9]+")


def _doc_grams(texts: pd.Series, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gram_strings, per-gram doc index, per-doc gram counts) for a
    batch. One python pass builds the flat gram list; everything
    downstream is numpy."""
    toks = texts.str.lower().str.findall(TOKEN_RE)
    counts = np.maximum(toks.map(len).to_numpy(dtype=np.int64) - (n - 1), 0)
    grams: list[str] = []
    for ws in toks:
        m = len(ws) - (n - 1)
        for i in range(m if m > 0 else 0):
            grams.append(" ".join(ws[i : i + n]))
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    return np.array(grams, dtype=object), doc_idx, counts


def eval_gram_set(eval_ds, n: int = 8, text_col: str = "text") -> np.ndarray:
    """Distinct n-grams of the eval corpus as a sorted numpy string
    array (driver-side — the eval side is small by contract)."""

    def partial(t: pa.Table) -> pa.Table:
        g, _, _ = _doc_grams(t.column(text_col).to_pandas(), n)
        return pa.table({"gram": pa.array(np.unique(g), pa.string())})

    parts = eval_ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return np.unique(parts["gram"].to_numpy())


class _Contaminate:
    """Batch train scan against the broadcast eval gram set."""

    def __init__(self, grams: np.ndarray, n: int, id_col: str, text_col: str):
        self.grams = grams
        self.n = n
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t.column(self.text_col).to_pandas()
        g, doc_idx, counts = _doc_grams(texts, self.n)
        # pd.Index.isin is hash-based; np.isin on two large object
        # string arrays degrades to python-loop comparisons (observed
        # 60+ s on a 200k-gram batch vs 0.03 s hashed)
        hits = (
            np.bincount(
                doc_idx, weights=pd.Index(g).isin(self.grams), minlength=len(t)
            ).astype(np.int64)
            if len(g)
            else np.zeros(len(t), dtype=np.int64)
        )
        # passthrough: all input columns ride along so the stage
        # composes mid-pipeline (curation drops/keeps on the flag)
        t = t.append_column("n_grams", pa.array(counts, pa.int64()))
        t = t.append_column("n_contaminated", pa.array(hits, pa.int64()))
        return t.append_column("is_contaminated", pa.array(hits > 0))


def ngram_contamination(
    train_ds,
    eval_ds,
    n: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """One row per train doc: every input column plus total n-gram
    positions, how many of them hit an eval n-gram, and the
    contamination flag."""
    grams = eval_gram_set(eval_ds, n, text_col)
    return train_ds.map_batches(
        _Contaminate(grams, n, id_col, text_col), batch_format="pyarrow"
    )


# ------------------------------------------------------- Bloom variant

BLOOM_M = 1 << 23  # bits -> 1 MiB bitmap
BLOOM_K = 4


def _bloom_positions(grams: np.ndarray, m: int, k: int) -> np.ndarray:
    """(k, n) bit positions per gram via double hashing of one 64-bit
    full-content hash (pandas' fixed-key vectorized siphash): pos_i =
    (h1 + i*h2) % m with odd h2, the standard Kirsch-Mitzenmacher
    construction."""
    h = pd.util.hash_array(np.asarray(grams, dtype=object))
    h1 = h % np.uint64(m)
    h2 = (h >> np.uint64(32)) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)[:, None]
    return ((h1[None, :] + i * h2[None, :]) % np.uint64(m)).astype(np.int64)


def eval_bloom(eval_ds, n: int = 8, text_col: str = "text",
               m: int = BLOOM_M, k: int = BLOOM_K) -> np.ndarray:
    """Bloom bitmap (uint8[m/8]) over the eval corpus's distinct word
    n-grams. Each batch folds its grams into a LOCAL bitmap and emits
    that fixed-size partial (like the HLL register rows); the driver
    ORs one 1 MiB array per batch — eval text itself never leaves the
    workers. This is the 100 TB-side replacement for
    :func:`eval_gram_set`'s exact string broadcast: memory is capped
    at m bits no matter how large the eval suite grows, at the cost of
    a bounded false-positive rate (never false negatives)."""

    def partial(t: pa.Table) -> pa.Table:
        g, _, _ = _doc_grams(t.column(text_col).to_pandas(), n)
        bm = np.zeros(m // 8, dtype=np.uint8)
        if len(g):
            pos = _bloom_positions(np.unique(g), m, k).ravel()
            np.bitwise_or.at(bm, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
        return pa.table({"bm": pa.array([bm.tobytes()], pa.large_binary())})

    out = np.zeros(m // 8, dtype=np.uint8)
    for b in eval_ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for buf in b.column("bm").to_pylist():
            out |= np.frombuffer(buf, dtype=np.uint8)
    return out


class _BloomContaminate:
    """Batch train scan against a broadcast Bloom bitmap."""

    def __init__(self, bm: np.ndarray, n: int, m: int, k: int, text_col: str):
        self.bm = bm
        self.n, self.m, self.k = n, m, k
        self.text_col = text_col

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t.column(self.text_col).to_pandas()
        g, doc_idx, counts = _doc_grams(texts, self.n)
        if len(g):
            pos = _bloom_positions(g, self.m, self.k)
            bits = (self.bm[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
            hit = bits.all(axis=0)
            hits = np.bincount(doc_idx, weights=hit, minlength=len(t)).astype(np.int64)
        else:
            hits = np.zeros(len(t), dtype=np.int64)
        t = t.append_column("n_grams", pa.array(counts, pa.int64()))
        t = t.append_column("n_bloom_hits", pa.array(hits, pa.int64()))
        return t.append_column("maybe_contaminated", pa.array(hits > 0))


def bloom_contamination(
    train_ds,
    eval_ds,
    n: int = 8,
    text_col: str = "text",
    m: int = BLOOM_M,
    k: int = BLOOM_K,
):
    """Contamination screen with O(m) memory independent of eval-set
    size: superset-of-exact flags (zero false negatives by
    construction; FP rate ~ (1 - e^(-k*n_grams/m))^k). Run it as the
    cheap first pass at 100 TB, then confirm survivors with
    :func:`ngram_contamination` on the (tiny) flagged subset."""
    bm = eval_bloom(eval_ds, n, text_col, m, k)
    return train_ds.map_batches(
        _BloomContaminate(bm, n, m, k, text_col), batch_format="pyarrow"
    )
