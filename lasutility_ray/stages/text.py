"""Text-analysis stages over the documents/pages corpus: token
counting, quality scoring, language ID, document fingerprinting.

All per-batch bodies are vectorized (compiled regex applied via
pandas str ops / numpy); stateful pieces (compiled patterns, stopword
arrays) are built once in the callable's ``__init__`` on the driver.
The token/quality ops are DuckDB-mirrorable (same regex /
arithmetic); langid + fingerprint are rows-only ops with pure-python pytest oracles.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

TOKEN_RE = r"\S+"
# GPT-2-style pretokenizer shape without lookahead (RE2-compatible):
# letter runs, digit runs, non-space-punct runs
BPE_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+"

STOPWORDS = {
    "en": ("the", "and", "of", "to", "a", "in", "is", "it", "you", "that"),
    "fi": ("ja", "on", "ei", "se", "että", "hän", "oli", "mutta", "kun", "niin"),
    "sv": ("och", "att", "det", "som", "en", "på", "är", "av", "för", "med"),
    "de": ("und", "der", "die", "das", "ist", "nicht", "ein", "mit", "sie", "auf"),
}
LANG_ORDER = ("de", "en", "fi", "sv")  # deterministic tie-break: alphabetical

FP_BASE = 1000003
FP_MOD = (1 << 61) - 1


def _flat_lower_tokens(toks: pd.Series, lens: np.ndarray):
    """Token lists -> (flat lowercased token array, per-token doc
    index). One python comprehension flattens; lowering and
    membership run as numpy C kernels afterwards."""
    n = len(toks)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
    if doc_idx.size == 0:
        return np.empty(0, dtype=object), doc_idx
    flat = np.array([w for ws in toks for w in ws], dtype=object)
    low = np.char.lower(flat.astype(str)).astype(object)
    return low, doc_idx


def _hits_per_doc(low, doc_idx, n_docs: int, table: np.ndarray) -> np.ndarray:
    """Per-doc count of tokens found in a sorted word table —
    vectorized isin + bincount (empty-doc safe)."""
    if low.size == 0:
        return np.zeros(n_docs, dtype=np.int64)
    # hash-based isin: np.isin over object arrays does python-loop
    # comparisons (fatal when the table is large; slower always)
    hits = pd.Index(low).isin(table)
    return np.bincount(doc_idx, weights=hits, minlength=n_docs).astype(np.int64)


def _stop_hits(toks: pd.Series, lens: np.ndarray, table: np.ndarray) -> np.ndarray:
    low, doc_idx = _flat_lower_tokens(toks, lens)
    return _hits_per_doc(low, doc_idx, len(toks), table)


class TextStats:
    """Batch stage: token counts + quality columns.

    Mirrored by SQL: n_chars = length(text); n_tokens = count of
    ``\\S+`` matches; alpha_chars = count of [A-Za-z]; stop_hits_en =
    tokens (lowercased) in the English stopword list.
    """

    def __init__(self):
        import re

        self.token_re = re.compile(TOKEN_RE)
        self.stop_en = np.sort(np.array(STOPWORDS["en"], dtype=object))

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["text"]
        toks = s.str.findall(self.token_re)
        lens = toks.map(len).to_numpy(dtype=np.int64)
        batch["n_chars"] = s.str.len().astype("int64")
        batch["n_tokens"] = lens
        batch["alpha_chars"] = s.str.count(r"[A-Za-z]").astype("int64")
        batch["stop_hits_en"] = _stop_hits(toks, lens, self.stop_en)
        # BPE-ish pretokenizer count: letter runs / digit runs /
        # punctuation runs (the GPT-2 pretokenizer shape minus
        # lookahead, so the same regex runs in RE2/DuckDB)
        batch["n_bpe_tokens"] = s.str.count(BPE_RE).astype("int64")
        # quality score in integer millipoints (order-independent,
        # engine-exact): alpha ratio + stopword ratio - short-doc
        # penalty, mirrored 1:1 in SQL
        n_chars = batch["n_chars"].to_numpy()
        n_tokens = batch["n_tokens"].to_numpy()
        alpha = batch["alpha_chars"].to_numpy()
        stop_hits = batch["stop_hits_en"].to_numpy()
        alpha_ratio = np.where(n_chars > 0, alpha * 1000 // np.maximum(n_chars, 1), 0)
        stop_ratio = np.where(
            n_tokens > 0, stop_hits * 1000 // np.maximum(n_tokens, 1), 0
        )
        short_pen = np.where(n_tokens < 10, 500, 0)
        batch["quality_millis"] = (alpha_ratio + stop_ratio - short_pen).astype("int64")
        return batch


def text_stats(ds):
    return ds.map_batches(TextStats(), batch_format="pandas")


class LangId:
    """n-gram-free heuristic language ID: stopword hit counts per
    language over lowercased tokens; argmax with alphabetical
    tie-break. Deterministic; pytest carries the pure-python oracle."""

    def __init__(self):
        import re

        self.token_re = re.compile(TOKEN_RE)
        self.tables = {
            lang: np.sort(np.array(STOPWORDS[lang], dtype=object))
            for lang in LANG_ORDER
        }

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].str.lower().str.findall(self.token_re)
        lens = toks.map(len).to_numpy(dtype=np.int64)
        low, doc_idx = _flat_lower_tokens(toks, lens)
        scores = {
            lang: _hits_per_doc(low, doc_idx, len(toks), t)
            for lang, t in self.tables.items()
        }
        m = pd.DataFrame(scores, index=batch.index)
        best = m.idxmax(axis=1)  # first max in column order = LANG_ORDER
        best = best.where(m.max(axis=1) > 0, "und")
        batch["lang_pred"] = best.to_numpy()
        return batch


def lang_id(ds):
    return ds.map_batches(LangId(), batch_format="pandas")


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Rolling-hash document fingerprint: the utf-8 byte string read
    as a base-256 polynomial, reduced mod 2^61-1. One C-speed bigint
    op per row (no per-byte python loop)."""
    texts = batch.column("text").to_pylist()
    out = np.fromiter(
        (int.from_bytes(t.encode(), "big") % FP_MOD for t in texts),
        dtype=np.int64,
        count=len(texts),
    )
    return batch.append_column("fingerprint", pa.array(out, pa.int64()))


def fingerprint_py(text: str) -> int:
    """Pure-python oracle: Horner base-256 mod 2^61-1 (equals
    :func:`fingerprint_batch` by construction)."""
    acc = 0
    for v in text.encode():
        acc = (acc * 256 + v) % FP_MOD
    return acc


# ------------------------------------------------ unicode normalization

_WS_RE = r"[ \t\r\n\f\v]+"


def normalize_text(ds, text_col: str = "text"):
    """Canonical text normalization (the first pass of any web-corpus
    cleanup): Unicode NFC composition, whitespace-run collapse to one
    space, edge trim. Adds ``text_norm`` + ``n_chars_norm``. Pure map;
    the DuckDB mirror (``nfc_normalize`` + ``regexp_replace`` +
    ``trim``) is value-exact — both engines implement Unicode NFC."""
    import re
    import unicodedata

    ws = re.compile(_WS_RE)

    def norm(batch: pd.DataFrame) -> pd.DataFrame:
        out = [
            ws.sub(" ", unicodedata.normalize("NFC", t)).strip()
            for t in batch[text_col]
        ]
        batch["text_norm"] = out
        batch["n_chars_norm"] = pd.Series(out, index=batch.index).str.len().astype(
            "int64"
        )
        return batch

    return ds.map_batches(norm, batch_format="pandas")


def normalize_text_sql(source: str = "documents", text_expr: str = "text") -> str:
    return (
        f"SELECT doc_id, trim(regexp_replace(nfc_normalize({text_expr}), "
        f"'{_WS_RE}', ' ', 'g')) AS text_norm, "
        f"length(trim(regexp_replace(nfc_normalize({text_expr}), "
        f"'{_WS_RE}', ' ', 'g'))) AS n_chars_norm FROM {source}"
    )
