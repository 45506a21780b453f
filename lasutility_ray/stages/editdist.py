"""Edit-distance (Levenshtein <= 1) string-similarity self-join via
deletion-neighborhood signatures — the SymSpell/FastSS family: two
strings are within one edit iff they share a member of each other's
{identity + single-character-deletion} variant sets, so the join is

    word -> (len(word)+1) signatures -> ONE signature-hash shuffle ->
    in-bucket candidate pairs -> vectorized exact verify -> pair dedup

and the corpus-wide cost is signatures (~avg_len x vocab rows on the
wire), never vocab^2. The substrate is the corpus host vocabulary
(``site{doc_id % 1000}``, the same derivation the host-graph and URL
stages use), i.e. typosquat detection over crawl hosts; the DuckDB
oracle is the prune-free quadratic ``levenshtein(a, b) <= 1`` join,
which doubles as the proof the signature scheme loses nothing.

Verification is exact and fully vectorized: candidate words are
packed into a fixed-width uint8 matrix; equal-length pairs need
exactly one mismatching column, length±1 pairs need
``longer[:k] == shorter[:k] and longer[k+1:] == shorter[k:]`` for
the first mismatch k — both evaluated as per-row boolean algebra
over the matrix (no per-pair python).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

MAX_W = 64  # verifier word-width cap (hosts are ~11 chars)


def _pack(words: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    """ASCII words -> (n, MAX_W) uint8 matrix (zero-padded) + lengths."""
    b = words.str.encode("ascii")
    ln = b.str.len().to_numpy(np.int64)
    out = np.zeros((len(b), MAX_W), dtype=np.uint8)
    flat = np.frombuffer(b"".join(b.tolist()), dtype=np.uint8)
    rows = np.repeat(np.arange(len(b)), ln)
    cols = np.arange(len(flat)) - np.repeat(np.cumsum(ln) - ln, ln)
    out[rows, cols] = flat
    return out, ln


def _ed1_verify(wa: pd.Series, wb: pd.Series) -> np.ndarray:
    """Exact boolean: levenshtein(wa, wb) <= 1, vectorized per pair."""
    A, la = _pack(wa)
    B, lb = _pack(wb)
    # orient: L = longer (or equal), S = shorter
    swap = lb > la
    L = np.where(swap[:, None], B, A)
    S = np.where(swap[:, None], A, B)
    ll = np.where(swap, lb, la)
    ls = np.where(swap, la, lb)
    dl = ll - ls
    eq = L == S
    neq_count = (~eq[:, :MAX_W]).sum(axis=1)
    # equal length: exactly one mismatching column (identical strings
    # cannot occur — the vocabulary is distinct)
    sub_ok = (dl == 0) & (neq_count == 1)
    # length + 1: first mismatch at k, then L shifted left by one must
    # equal S from k on (padding zeros align because ll == ls + 1)
    shifted_eq = L[:, 1:] == S[:, :-1]
    # k = first column where eq is False (ls < MAX_W guarantees one
    # exists inside the padded width when strings differ)
    k = np.argmin(eq, axis=1)
    # suffix-all of shifted_eq from column k on
    rev_and = np.logical_and.accumulate(shifted_eq[:, ::-1], axis=1)[:, ::-1]
    cols = np.minimum(k, MAX_W - 2)
    del_ok = (dl == 1) & rev_and[np.arange(len(k)), cols]
    return sub_ok | del_ok


def _signatures(t: pa.Table) -> pa.Table:
    w = t.column("word").to_pandas()
    ln = w.str.len().to_numpy(np.int64)
    reps = ln + 1
    idx = np.repeat(np.arange(len(w)), reps)
    k = np.arange(len(idx)) - np.repeat(np.cumsum(reps) - reps, reps)
    words = w.to_numpy(dtype=object)[idx]
    sigs = [
        wd if kk == len(wd) else wd[:kk] + wd[kk + 1 :]
        for wd, kk in zip(words.tolist(), k.tolist())
    ]
    df = pd.DataFrame({"sig": sigs, "word": words}).drop_duplicates()
    return pa.table(
        {
            "sig": pa.array(df["sig"], pa.string()),
            "word": pa.array(df["word"], pa.string()),
        }
    )


def ed1_join(words_ds, word_col: str = "word"):
    """Distinct-word Dataset -> (a, b) pairs with levenshtein <= 1,
    a < b lexicographically, each pair exactly once."""
    from .cogroup import distinct_rows, shuffle_by
    from .dedup import _pair_indices

    ds = words_ds
    if word_col != "word":
        ds = ds.rename_columns({word_col: "word"})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sig", "word"], kind="stable").reset_index(drop=True)
        new = np.empty(len(g), dtype=bool)
        if len(g):
            new[0] = True
            new[1:] = g["sig"].to_numpy()[1:] != g["sig"].to_numpy()[:-1]
        ai, bi = _pair_indices(new)
        if not len(ai):
            return pd.DataFrame({"a": pd.Series([], dtype=object),
                                 "b": pd.Series([], dtype=object)})
        wa = g["word"].iloc[ai].reset_index(drop=True)
        wb = g["word"].iloc[bi].reset_index(drop=True)
        keep = (wa != wb).to_numpy() & _ed1_verify(wa, wb)
        wa, wb = wa[keep], wb[keep]
        a = np.minimum(wa.to_numpy(dtype=object), wb.to_numpy(dtype=object))
        b = np.maximum(wa.to_numpy(dtype=object), wb.to_numpy(dtype=object))
        return pd.DataFrame({"a": a, "b": b}).drop_duplicates()

    pairs = shuffle_by(ds.map_batches(_signatures, batch_format="pyarrow"), "sig", per_bucket)
    # a pair can share signatures in DIFFERENT buckets only if the
    # shared sigs differ; one pair-keyed dedup closes that
    return distinct_rows(pairs, ["a", "b"])


def host_vocab(docs_ds):
    """documents -> distinct host names (site{doc_id % 1000})."""
    from ray.data.aggregate import Count

    def hosts(t: pa.Table) -> pa.Table:
        sites = np.unique(
            t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
            % 1000
        )
        return pa.table(
            {"word": pa.array([f"site{s}" for s in sites.tolist()], pa.string())}
        )

    return (
        docs_ds.select_columns(["doc_id"])
        .map_batches(hosts, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Count(alias_name="__n"))
        .select_columns(["word"])
    )


def host_ed1_sql(source: str = "documents") -> str:
    """DuckDB mirror: prune-free quadratic levenshtein join over the
    same host vocabulary."""
    return (
        "WITH ed_v AS (SELECT DISTINCT 'site' || CAST(doc_id % 1000 AS VARCHAR) "
        f"AS w FROM {source}) "
        "SELECT l.w AS a, r.w AS b FROM ed_v l JOIN ed_v r "
        "ON l.w < r.w AND levenshtein(l.w, r.w) <= 1"
    )
