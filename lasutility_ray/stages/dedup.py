"""Deduplication operators over the documents/pages corpus.

Five families (each a first-class ``queries()`` entry):

- **exact**: content hash (md5) -> hash-partitioned first-wins.
  Map-side partial (min doc_id per hash per batch) shrinks the
  shuffle to one row per (batch, hash) — at 100 TB the shuffle moves
  only hashes, never text.
- **MinHash + LSH**: word-shingle -> 64 minhash permutations -> 16
  bands of 4 -> ``groupby(band_key)`` bucket join -> candidate pairs
  -> exact-Jaccard verification (in ONE Ray task for normal-sized
  candidate sets; co-grouped joins for huge ones).
- **SimHash**: 64-bit simhash over word features; candidates share
  one of four 16-bit chunks; verified by Hamming distance <= 3.
- **n-gram Jaccard**: EXACT set-similarity join via rarest-first
  prefix filtering (AllPairs/PPJoin) + length filter + verification.
- **embedding cosine**: exact all-pairs cosine >= threshold over the
  embeddings table (numpy matmul per batch against a broadcast
  matrix) — DuckDB-checkable; the LSH-bucketed variant
  (hyperplane signs) is the scale path.

Pair outputs are always ``(a, b)`` with ``a < b``, deduplicated.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

N_PERM = 64
N_BANDS = 16
ROWS_PER_BAND = 4
MERSENNE = (1 << 61) - 1
JACCARD_THRESHOLD = 0.8
HAMMING_MAX = 3
COSINE_THRESHOLD = 0.95

# shingle hashes are 32-bit and a < 2^31 so a*x + b < 2^63 + 2^61
# stays inside uint64 (see minhash_signature)
_rng = np.random.default_rng(42)
_PERM_A = (_rng.integers(1, 1 << 31, N_PERM, dtype=np.int64)).astype(np.uint64)
_PERM_B = (_rng.integers(0, MERSENNE, N_PERM, dtype=np.int64)).astype(np.uint64)


# ----------------------------------------------------------- exact


def _md5_hex(texts) -> np.ndarray:
    return np.array([hashlib.md5(t.encode()).hexdigest() for t in texts], dtype=object)


def add_text_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    h = _md5_hex(batch.column(text_col).to_pylist())
    return batch.append_column("text_hash", pa.array(h, pa.string()))


def exact_dedup(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Survivors of exact dedup: min id per content hash.

    map-side partial -> tiny groupby; returns (text_hash, keep_id,
    n_copies)."""
    from ray.data.aggregate import Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        t = add_text_hash(batch, text_col)
        df = t.select([id_col, "text_hash"]).to_pandas()
        agg = (
            df.groupby("text_hash", sort=False)[id_col]
            .agg(["min", "count"])
            .reset_index()
            .rename(columns={"min": "pmin", "count": "pcount"})
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("text_hash")
        .aggregate(Min("pmin", alias_name="keep_id"), Sum("pcount", alias_name="n_copies"))
    )


# ------------------------------------------- vectorized word hashing

_WORD_W = 16  # hashed prefix width; length mixed in to break prefix ties
_FNV = 1099511628211
_POW16 = np.array(
    [pow(_FNV, _i, 1 << 64) for _i in range(_WORD_W)], dtype=np.uint64
)  # FNV-prime powers mod 2^64
_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xBF58476D1CE4E5B9)


def _word_hashes(words: list[str]) -> np.ndarray:
    """Deterministic uint64 hash per word, vectorized: polynomial
    hash of the (padded) first 16 bytes with the length mixed in.
    One cheap python loop packs bytes; all arithmetic is numpy
    (wrap-around mod 2^64). Replaces per-word md5 (SURVEY 'stay
    vectorized' rule: the old path was 1 python hashlib call per
    word)."""
    n = len(words)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    buf = bytearray(n * _WORD_W)
    lens = np.empty(n, dtype=np.uint64)
    for i, w in enumerate(words):
        b = w.encode("utf-8", "surrogatepass")[:_WORD_W]
        off = i * _WORD_W
        buf[off : off + len(b)] = b
        lens[i] = len(w)
    arr = np.frombuffer(bytes(buf), dtype=np.uint8).reshape(n, _WORD_W)
    h = (arr.astype(np.uint64) * _POW16[None, :]).sum(axis=1)
    h = (h ^ (lens * _MIX2)) * _MIX1
    return h ^ (h >> np.uint64(29))


# ----------------------------------------------------------- minhash

_SH_C = np.array([0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D], dtype=np.uint64)


def _shingle_hashes_words(hw: np.ndarray, k: int = 3) -> np.ndarray:
    """Word-hash array -> 32-bit k-shingle hashes (vectorized)."""
    n = len(hw)
    if n == 0:
        return np.zeros(1, dtype=np.uint64)
    if n < k:
        v = (hw * _SH_C[:n]).sum()
        return np.array([v >> np.uint64(32)], dtype=np.uint64)
    acc = np.zeros(n - k + 1, dtype=np.uint64)
    for j in range(k):
        acc += hw[j : n - k + 1 + j] * _SH_C[j]
    return acc >> np.uint64(32)  # 32-bit (minhash uint64-safety contract)


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Word k-shingles -> 32-bit hashes (deterministic, vectorized)."""
    return _shingle_hashes_words(_word_hashes(text.split()), k)


def _word_hashes_flat(words: pa.Array) -> np.ndarray:
    """Batch-level sibling of :func:`_word_hashes` over a FLAT Arrow
    string array: the padded-first-16-bytes polynomial hash is
    computed straight off the Arrow offsets/data buffers with one
    (n, 16) gather — no per-word Python encode loop. Bit-identical
    to the per-word path (pinned in tests)."""
    import pyarrow.compute as pc

    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    n = len(words)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    # char lengths BEFORE touching bytes (the hash mixes len(w))
    lens = pc.utf8_length(words).to_numpy().astype(np.uint64)
    bufs = words.buffers()
    offsets = np.frombuffer(bufs[1], dtype=np.int32)[
        words.offset : words.offset + n + 1
    ].astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    starts = offsets[:-1]
    blen = np.minimum(np.diff(offsets), _WORD_W)
    j = np.arange(_WORD_W, dtype=np.int64)
    idx = np.minimum(starts[:, None] + j[None, :], len(data) - 1)
    mat = data[idx] * (j[None, :] < blen[:, None])
    h = (mat.astype(np.uint64) * _POW16[None, :]).sum(axis=1)
    h = (h ^ (lens * _MIX2)) * _MIX1
    return h ^ (h >> np.uint64(29))


def _shingle_hashes_batch(
    texts, k: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-batch shingle kernel: texts -> (flat uint64 shingle
    hashes, per-doc shingle counts), each doc's slice bit-identical
    to ``_shingle_hashes(text)`` — word split via Python str.split()
    semantics, word hashing and k-windows fully vectorized over the
    flat word array (the ``_split_words`` shape; no per-doc Python
    iteration). The k-window pass runs ONCE over the concatenated
    hashes and cross-doc windows are masked out by offsets."""
    from itertools import chain

    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = texts.to_pylist()
    n_docs = len(texts)
    if n_docs == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    toks = [t.split() for t in texts]
    counts = np.fromiter((len(w) for w in toks), dtype=np.int64, count=n_docs)
    flat_words = pa.array(chain.from_iterable(toks), type=pa.string())
    hw = _word_hashes_flat(flat_words)
    starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    # every doc yields max(1, n-k+1) shingles (the _shingle_hashes_words
    # contract: empty and short docs fold to a single value)
    sh_counts = np.maximum(counts - k + 1, 1)
    out = np.zeros(int(sh_counts.sum()), dtype=np.uint64)
    out_starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(sh_counts[:-1], out=out_starts[1:])
    total = len(hw)
    # main path: full k-windows over the flat array, gathered per doc
    if total >= k:
        acc = np.zeros(total - k + 1, dtype=np.uint64)
        for jj in range(k):
            acc += hw[jj : total - k + 1 + jj] * _SH_C[jj]
        acc >>= np.uint64(32)
        long_mask = counts >= k
        if long_mask.any():
            nw = (counts - k + 1)[long_mask]
            src0 = starts[long_mask]
            dst0 = out_starts[long_mask]
            pos = np.arange(int(nw.sum()), dtype=np.int64)
            seg = np.repeat(np.arange(len(nw), dtype=np.int64), nw)
            seg_starts = np.zeros(len(nw), dtype=np.int64)
            np.cumsum(nw[:-1], out=seg_starts[1:])
            within = pos - seg_starts[seg]
            out[dst0[seg] + within] = acc[src0[seg] + within]
    # short docs: 0 < n < k folds (hw*_SH_C[:n]).sum() >> 32; n == 0 -> 0
    for nshort in range(1, k):
        m = counts == nshort
        if not m.any():
            continue
        s0 = starts[m]
        v = np.zeros(int(m.sum()), dtype=np.uint64)
        for jj in range(nshort):
            v += hw[s0 + jj] * _SH_C[jj]
        out[out_starts[m]] = v >> np.uint64(32)
    return out, sh_counts


def _shingle_sets_batch(
    texts, k: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc SORTED-UNIQUE shingle sets as (flat values, per-doc
    counts) — the batch-level form of ``np.unique(_shingle_hashes(t))``
    per doc, deduped with one lexsort over the whole batch."""
    flat, cnt = _shingle_hashes_batch(texts, k)
    if len(flat) == 0:
        return flat, cnt
    doc_idx = np.repeat(np.arange(len(cnt), dtype=np.int64), cnt)
    order = np.lexsort((flat, doc_idx))
    fs = flat[order]
    ds = doc_idx[order]
    keep = np.ones(len(fs), dtype=bool)
    keep[1:] = (fs[1:] != fs[:-1]) | (ds[1:] != ds[:-1])
    return fs[keep], np.bincount(ds[keep], minlength=len(cnt)).astype(np.int64)


def minhash_signature(text: str) -> np.ndarray:
    """64 min-hash values via universal hashing (a*x+b mod 2^61-1);
    x < 2^32 and a < 2^31 keep every product inside uint64."""
    sh = _shingle_hashes(text)
    vals = (sh[:, None] * _PERM_A[None, :] + _PERM_B[None, :]) % MERSENNE
    return vals.min(axis=0)


_BAND_C = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5],
    dtype=np.uint64,
)


def _signatures_batch(texts: list[str], chunk_docs: int = 512) -> np.ndarray:
    """(n_docs, N_PERM) minhash signatures via flat reduceat passes.
    Chunked so the (shingles x 64) uint64 work matrix stays bounded
    (~50 MB per chunk) regardless of batch size."""
    out = np.empty((len(texts), N_PERM), dtype=np.uint64)
    for lo in range(0, len(texts), chunk_docs):
        part = texts[lo : lo + chunk_docs]
        flat, counts = _shingle_hashes_batch(part)
        vals = (flat[:, None] * _PERM_A[None, :] + _PERM_B[None, :]) % MERSENNE
        starts = np.zeros(len(part), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        out[lo : lo + len(part)] = np.minimum.reduceat(vals, starts, axis=0)
    return out


def minhash_band_rows(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Explode each doc into N_BANDS (band_id, band_hash, id) rows —
    fully vectorized (band hash = mixed fold of the band's 4 values)."""
    ids = batch.column(id_col).to_numpy()
    texts = batch.column(text_col).to_pylist()
    if len(texts) == 0:
        return pa.table(
            {
                "band_id": pa.array([], pa.int32()),
                "band_hash": pa.array([], pa.int64()),
                "id": pa.array([], pa.int64()),
            }
        )
    sig = _signatures_batch(texts)  # (n, 64)
    chunks = sig.reshape(len(texts), N_BANDS, ROWS_PER_BAND)
    bh = (chunks * _BAND_C[None, None, :]).sum(axis=2)
    bh = (bh ^ (bh >> np.uint64(31))).astype(np.int64)  # (n, N_BANDS)
    band_ids = np.tile(np.arange(N_BANDS, dtype=np.int32), len(texts))
    return pa.table(
        {
            "band_id": pa.array(band_ids, pa.int32()),
            "band_hash": pa.array(bh.ravel(), pa.int64()),
            "id": pa.array(np.repeat(ids, N_BANDS), pa.int64()),
        }
    )



def _pair_indices(new_group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All i<j row-index pairs within each run of a SORTED grouping,
    fully vectorized (no per-group python loop — tens of thousands of
    1-2 row groups per bucket made a pandas-groupby loop the dominant
    cost of the candidate stages). ``new_group[i]`` is True where row
    i starts a new group; rows must already be sorted so each group
    is one contiguous run. Returns (a_rows, b_rows) with
    a_rows < b_rows inside the same group."""
    n = len(new_group)
    e = np.empty(0, dtype=np.int64)
    if n < 2:
        return e, e
    idx = np.arange(n, dtype=np.int64)
    grp_start = np.maximum.accumulate(np.where(new_group, idx, 0))
    cnt = idx - grp_start  # row j pairs with the cnt rows before it in-group
    tot = int(cnt.sum())
    if tot == 0:
        return e, e
    b_rows = np.repeat(idx, cnt)
    csum = np.concatenate(([0], np.cumsum(cnt)[:-1]))
    a_off = np.arange(tot, dtype=np.int64) - np.repeat(csum, cnt)
    a_rows = np.repeat(grp_start, cnt) + a_off
    return a_rows, b_rows


def minhash_candidate_pairs(
    ds, id_col: str = "doc_id", text_col: str = "text", distinct: bool = True
):
    """LSH candidate pairs (a < b), deduplicated across bands
    (``distinct=False`` skips the final dedup shuffle when the caller
    collects the small candidate set anyway).

    One ``shuffle_by`` on the band hash; the fine (band_id, band_hash)
    grouping runs inside each bucket with a C-speed pandas groupby."""
    from .cogroup import distinct_rows, shuffle_by

    bands = ds.map_batches(
        lambda t: minhash_band_rows(t, id_col, text_col), batch_format="pyarrow"
    )

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        sub = g.drop_duplicates(["band_id", "band_hash", "id"])
        bid = sub["band_id"].to_numpy()
        bh = sub["band_hash"].to_numpy()
        ids = sub["id"].to_numpy()
        order = np.lexsort((ids, bh, bid))
        bid, bh, ids = bid[order], bh[order], ids[order]
        new = np.ones(len(ids), dtype=bool)
        new[1:] = (bid[1:] != bid[:-1]) | (bh[1:] != bh[:-1])
        ai, bi = _pair_indices(new)
        if len(ai) == 0:
            return pd.DataFrame({"a": [], "b": []}, dtype=np.int64)
        return pd.DataFrame({"a": ids[ai], "b": ids[bi]}).drop_duplicates()

    pairs = shuffle_by(bands, "band_hash", pairs_in_bucket)
    return distinct_rows(pairs, ["a", "b"]) if distinct else pairs


def jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    sa = set(_shingle_hashes(text_a, k).tolist())
    sb = set(_shingle_hashes(text_b, k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def _shingle_set_rows(ds, id_col: str, text_col: str):
    """(id, sh) per doc where ``sh`` is the sorted-unique uint64
    shingle-hash set as a list column — the join side of verification
    (bounded per doc; the raw text never enters the pair shuffle)."""

    def sigs(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        flat, cnt = _shingle_sets_batch(texts)
        st = np.zeros(len(cnt), dtype=np.int64)
        np.cumsum(cnt[:-1], out=st[1:])
        sh = [flat[s : s + c].tobytes() for s, c in zip(st, cnt)]
        # binary, not list<uint64>: Acero hash joins reject list-typed
        # payload columns
        return pa.table(
            {
                "id": batch.column(id_col).cast(pa.int64()),
                "sh": pa.array(sh, pa.binary()),
            }
        )

    return ds.map_batches(sigs, batch_format="pyarrow")


VERIFY_SMALL_LIMIT = 2_000_000  # candidate pairs that fit one verify task


def _verify_pairs(cands, ds, id_col: str, text_col: str, empty: pa.Table, metric):
    """Exact verification of a candidate (a, b) pair Dataset, shared
    by the Jaccard and containment joins. ``metric(a, b, sh_a, sh_b)``
    scores aligned pair-id arrays against the two lists of packed
    shingle sets and returns the qualifying rows (schema of
    ``empty``). Nothing corpus-proportional ever lands on the driver
    in either path:

    - **small candidate sets** (the normal case — candidates are
      near-dup evidence, orders below the corpus): one task builds the
      candidate id set, the needed shingle sets are picked out of the
      corpus with it, and one task verifies — two narrow passes, no
      shuffle.
    - **above** ``VERIFY_SMALL_LIMIT`` pairs: the pairs co-group twice
      against the per-doc shingle-set table (on a, then on b —
      ``cogroup.lookup_join``) and verification runs inside
      map_batches on the joined rows.
    """
    import ray.data as _rd

    from .cogroup import lookup_join, one_task

    cands = cands.materialize()
    n_cands = cands.count()
    if n_cands == 0:
        return _rd.from_arrow(empty)

    if n_cands <= VERIFY_SMALL_LIMIT:
        wanted = one_task(
            lambda t: np.unique(
                np.concatenate([t.column("a").to_numpy(), t.column("b").to_numpy()])
            ).astype(np.int64),
            cands,
        )

        def pick(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_numpy()
            return batch.filter(pa.array(np.isin(ids, wanted)))

        sig = _shingle_set_rows(
            ds.map_batches(pick, batch_format="pyarrow"), id_col, text_col
        )

        def verify_task(ct: pa.Table, st: pa.Table | None) -> pa.Table:
            if st is None:
                return empty
            lookup = dict(zip(st.column("id").to_pylist(), st.column("sh").to_pylist()))
            a = ct.column("a").to_numpy()
            b = ct.column("b").to_numpy()
            return metric(a, b, [lookup[x] for x in a], [lookup[x] for x in b])

        return _rd.from_arrow(one_task(verify_task, cands, sig))

    sig = _shingle_set_rows(ds, id_col, text_col).materialize()

    # n_salt: a viral near-dup doc appears in a large share of the
    # candidate pairs — salt so its pair rows spread across sub-buckets
    j1 = lookup_join(cands, sig, "a", "id", {"sh": "sh_a"}, n_salt=8)
    j2 = lookup_join(
        j1, sig, "b", "id", {"sh": "sh_b"}, type_overrides={"sh_a": pa.binary()},
        n_salt=8,
    )

    def verify(batch: pa.Table) -> pa.Table:
        return metric(
            batch.column("a").to_numpy(),
            batch.column("b").to_numpy(),
            batch.column("sh_a").to_pylist(),
            batch.column("sh_b").to_pylist(),
        )

    return j2.map_batches(verify, batch_format="pyarrow")


def _verify_pairs_jaccard(cands, ds, id_col: str, text_col: str, threshold: float):
    """Exact-Jaccard verification of candidate (a, b) pairs ->
    (a, b, jaccard) for pairs with Jaccard >= ``threshold``."""
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
        }
    )

    def metric(a, b, sa, sb) -> pa.Table:
        jac = np.empty(len(a), dtype=np.float64)
        for i in range(len(a)):
            u = np.frombuffer(sa[i], dtype=np.uint64)
            v = np.frombuffer(sb[i], dtype=np.uint64)
            inter = len(np.intersect1d(u, v, assume_unique=True))
            union = len(u) + len(v) - inter
            jac[i] = inter / union if union else 1.0
        keep = jac >= threshold
        return pa.table(
            {
                "a": pa.array(a[keep], pa.int64()),
                "b": pa.array(b[keep], pa.int64()),
                "jaccard": pa.array(jac[keep], pa.float64()),
            }
        )

    return _verify_pairs(cands, ds, id_col, text_col, empty, metric)


def minhash_dedup_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                        threshold: float = JACCARD_THRESHOLD):
    """Verified near-dup pairs: LSH candidates + exact Jaccard
    (co-grouped verification — see ``_verify_pairs_jaccard``).
    Probabilistic recall from the banded LSH; precision 1 by
    construction."""
    cands = minhash_candidate_pairs(ds, id_col, text_col, distinct=True)
    return _verify_pairs_jaccard(cands, ds, id_col, text_col, threshold)


# ----------------------------------------------------------- simhash


def _simhash_batch(texts: list[str]) -> np.ndarray:
    """uint64 SimHash per doc, vectorized: one bit matrix over all
    words of the batch + per-doc reduceat (no per-word python)."""
    hw_list = [_word_hashes(t.split()) for t in texts]
    counts = np.array([len(h) for h in hw_list], dtype=np.int64)
    flat = np.concatenate(hw_list) if hw_list else np.empty(0, np.uint64)
    shifts = np.arange(64, dtype=np.uint64)
    out = np.zeros(len(texts), dtype=np.uint64)
    nonempty = counts > 0
    if flat.size:
        bits = ((flat[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int8)
        signed = bits * 2 - 1  # +1 / -1 per bit
        # reduceat over NON-EMPTY docs only: an empty doc at the end of
        # the batch would otherwise put start == len(flat) (IndexError)
        ne_counts = counts[nonempty]
        starts = np.zeros(len(ne_counts), dtype=np.int64)
        np.cumsum(ne_counts[:-1], out=starts[1:])
        acc = np.add.reduceat(signed.astype(np.int32), starts, axis=0)
        sim = ((acc > 0).astype(np.uint64) << shifts[None, :]).sum(axis=1)
        out[nonempty] = sim
    return out



def simhash_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                  max_hamming: int = HAMMING_MAX):
    """Near-dup pairs by SimHash: bucket on each of four 16-bit
    chunks (any pair within Hamming<=3 of a 64-bit hash shares at
    least one exact chunk by pigeonhole), verify Hamming distance."""

    def to_chunks(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy()
        sims = _simhash_batch(batch.column(text_col).to_pylist())
        rows_id, rows_chunk, rows_key, rows_sim = [], [], [], []
        for c in range(4):
            key = (sims >> np.uint64(16 * c)) & np.uint64(0xFFFF)
            rows_id.extend(ids.tolist())
            rows_chunk.extend([c] * len(ids))
            rows_key.extend(key.tolist())
            rows_sim.extend(sims.astype(np.int64).tolist())
        return pa.table(
            {
                "id": pa.array(rows_id, pa.int64()),
                "chunk": pa.array(rows_chunk, pa.int32()),
                "key": pa.array(rows_key, pa.int64()),
                "simhash": pa.array(rows_sim, pa.int64()),
            }
        )

    def one_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("id").sort_values("id")
        if len(g) < 2:
            return pd.DataFrame(
                {c: pd.Series(dtype="int64") for c in ("a", "b", "hamming")}
            )
        ids = g["id"].to_numpy()
        sims = g["simhash"].to_numpy().astype(np.uint64)
        ai, bi = np.triu_indices(len(ids), k=1)
        x = sims[ai] ^ sims[bi]
        ham = np.zeros(len(x), dtype=np.int64)
        for _ in range(64):
            ham += (x & np.uint64(1)).astype(np.int64)
            x >>= np.uint64(1)
        m = ham <= max_hamming
        return pd.DataFrame({"a": ids[ai][m], "b": ids[bi][m], "hamming": ham[m]})

    from .cogroup import shuffle_by

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = [
            one_bucket(sub) for _, sub in g.groupby(["chunk", "key"], sort=False)
        ]
        outs = [o for o in outs if len(o)]
        if not outs:
            return pd.DataFrame(
                {c: pd.Series(dtype="int64") for c in ("a", "b", "hamming")}
            )
        return (
            pd.concat(outs, ignore_index=True)
            .sort_values(["a", "b", "hamming"])
            .drop_duplicates(["a", "b"])
        )

    chunks = ds.map_batches(to_chunks, batch_format="pyarrow")
    pairs = shuffle_by(chunks, "key", pairs_in_bucket)
    # cross-bucket dedup: vectorized Min aggregate keeps one hamming
    from ray.data.aggregate import Min

    return pairs.groupby(["a", "b"]).aggregate(Min("hamming", alias_name="hamming"))


# ------------------------------------------------- n-gram jaccard


def sampled_shingle_df(ds, text_col: str, n_docs: int) -> tuple[np.ndarray, np.ndarray]:
    """(sorted shingle hashes, document frequencies) over the first
    ``n_docs`` docs of ``ds``: the fixed-size table (not a corpus
    materialization) behind the rarest-first order. Shingles seen in
    one sampled doc only are dropped — they carry no ordering
    signal."""
    sample = ds.limit(n_docs).select_columns([text_col]).to_pandas()
    # a zero-row dataset loses its schema through to_pandas
    texts = sample[text_col].tolist() if text_col in sample.columns else []
    all_sh, _ = _shingle_sets_batch(texts)
    f_sh, f_df = np.unique(all_sh, return_counts=True)
    keep = f_df >= 2
    return f_sh[keep], f_df[keep]


def rarest_first_prefix(sh: np.ndarray, f_sh: np.ndarray, f_df: np.ndarray,
                        threshold: float) -> np.ndarray:
    """The ``n - ceil(t*n) + 1`` first shingles of the set ``sh``
    under the shared rarest-first total order (sampled document
    frequency asc, hash asc; see :func:`sampled_shingle_df`). Two sets
    with similarity >= ``threshold`` must share a prefix shingle, so
    emitting only prefixes as bucket keys finds every such pair."""
    if len(f_sh):
        pos = np.minimum(np.searchsorted(f_sh, sh), len(f_sh) - 1)
        df = np.where(f_sh[pos] == sh, f_df[pos], 0)
    else:
        df = np.zeros(len(sh), dtype=np.int64)
    order = np.lexsort((sh, df))  # rarest first, hash tiebreak
    # epsilon guards float ceil((1-0.8)*10) style misrounding (a short
    # prefix breaks the completeness theorem; a long one only adds
    # candidates)
    n = len(sh)
    return sh[order[: n - int(np.ceil(threshold * n - 1e-9)) + 1]]


def ngram_jaccard_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                        threshold: float = 0.8, freq_sample_docs: int = 2000):
    """EXACT word-3-gram Jaccard join via prefix filtering (the
    AllPairs/PPJoin idea): if J(A, B) >= t, the two docs' shingle
    prefixes of length floor((1 - t)|S|) + 1 under a shared total
    order must intersect, so emitting only prefix shingles as bucket
    keys finds every qualifying pair. The total order is
    **rarest-first** — (sampled document frequency asc, hash asc) —
    so prefixes hold each doc's most distinctive shingles and popular
    template shingles stop exploding the candidate buckets (the
    AllPairs frequency ordering; any deterministic shared order keeps
    the theorem exact, so a fixed-size sampled df table suffices).
    The in-bucket length filter (t <= |A|/|B| <= 1/t, also exact)
    prunes further before verification with exact set Jaccard
    (``_verify_pairs_jaccard``) — the output is exactly the >= t
    pairs, unlike round 1's first-token buckets which missed
    cross-bucket pairs AND put a large fraction of real web text into
    one O(n^2) bucket. Prefix volume still scales with (1 - t); very
    low thresholds make any exact set-similarity join quadratic-ish."""

    f_sh, f_df = sampled_shingle_df(ds, text_col, freq_sample_docs)

    from .cogroup import distinct_rows, shuffle_by

    def prefix_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy()
        texts = batch.column(text_col).to_pylist()
        flat_b, cnt_b = _shingle_sets_batch(texts)
        st_b = np.zeros(len(cnt_b), dtype=np.int64)
        np.cumsum(cnt_b[:-1], out=st_b[1:])
        out_sh: list = []
        out_id: list = []
        out_n: list = []
        for i in range(len(texts)):
            sh = flat_b[st_b[i] : st_b[i] + cnt_b[i]]
            pref = rarest_first_prefix(sh, f_sh, f_df, threshold)
            out_sh.append(pref)
            out_id.append(np.full(len(pref), ids[i], dtype=np.int64))
            out_n.append(np.full(len(pref), len(sh), dtype=np.int64))
        sh_flat = np.concatenate(out_sh) if out_sh else np.empty(0, np.uint64)
        id_flat = np.concatenate(out_id) if out_id else np.empty(0, np.int64)
        n_flat = np.concatenate(out_n) if out_n else np.empty(0, np.int64)
        return pa.table(
            {
                "shingle": pa.array(sh_flat.astype(np.int64), pa.int64()),
                "id": pa.array(id_flat, pa.int64()),
                "n_sh": pa.array(n_flat, pa.int64()),
            }
        )

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        sub = g.drop_duplicates(["shingle", "id"])
        sh = sub["shingle"].to_numpy()
        ids = sub["id"].to_numpy()
        sizes = sub["n_sh"].to_numpy()
        order = np.lexsort((ids, sh))
        sh, ids, sizes = sh[order], ids[order], sizes[order]
        new = np.ones(len(ids), dtype=bool)
        new[1:] = sh[1:] != sh[:-1]
        ai, bi = _pair_indices(new)
        if len(ai) == 0:
            return pd.DataFrame({"a": [], "b": []}, dtype=np.int64)
        # length filter (exact): J >= t forces t <= |A|/|B| <= 1/t;
        # epsilon guards float products like 0.8*10 = 8.0000000002
        sa, sb = sizes[ai], sizes[bi]
        ok = np.minimum(sa, sb) >= threshold * np.maximum(sa, sb) - 1e-9
        if not ok.any():
            return pd.DataFrame({"a": [], "b": []}, dtype=np.int64)
        return pd.DataFrame({"a": ids[ai][ok], "b": ids[bi][ok]}).drop_duplicates()

    cands = distinct_rows(
        shuffle_by(ds.map_batches(prefix_rows, batch_format="pyarrow"), "shingle", pairs_in_bucket),
        ["a", "b"],
    )
    return _verify_pairs_jaccard(cands, ds, id_col, text_col, threshold)


# ------------------------------------------------- containment join

CONTAIN_E6 = 800_000  # containment threshold 0.8 in exact millionths


def containment_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                      threshold_e6: int = CONTAIN_E6,
                      freq_sample_docs: int = 2000):
    """EXACT asymmetric containment join over word-3-shingle sets:
    ordered pairs (a, b) with ``C(a -> b) = |S_a ∩ S_b| / |S_a| >=
    threshold`` — the quote/boilerplate-inclusion detector Jaccard
    misses (a tiny doc embedded in a huge one has J ~ |a|/|b| but
    containment ~ 1).

    Prefix-filter correctness (one-sided AllPairs): if C(a->b) >= t
    then b holds >= ceil(t*n_a) of a's shingles, so at least one of
    a's ``n_a - ceil(t*n_a) + 1`` rarest shingles (shared rarest-first
    total order, as in :func:`ngram_jaccard_pairs`) appears in b.
    Probe rows therefore emit only a's prefix, but the INDEX side must
    carry every shingle of every doc (containment puts no bound on the
    container) — per-shingle candidate cost is (#probe prefixes with
    s) x (#docs with s), and the rarest-first order keeps probe
    prefixes off the hot template shingles. No length filter applies
    (any size ratio qualifies). Candidates verify with the exact
    intersection count in integer millionths; the prune-free SQL
    mirror doubles as the prefix filter's losslessness proof.
    """
    f_sh, f_df = sampled_shingle_df(ds, text_col, freq_sample_docs)

    from .cogroup import distinct_rows, shuffle_by

    t_frac = threshold_e6 / 1_000_000.0

    def role_rows(batch: pa.Table) -> pa.Table:
        """Probe prefixes (role 0) UNION full index rows (role 1)."""
        ids = batch.column(id_col).to_numpy()
        texts = batch.column(text_col).to_pylist()
        flat_b, cnt_b = _shingle_sets_batch(texts)
        st_b = np.zeros(len(cnt_b), dtype=np.int64)
        np.cumsum(cnt_b[:-1], out=st_b[1:])
        out_sh: list = []
        out_id: list = []
        out_role: list = []
        for i in range(len(texts)):
            sh = flat_b[st_b[i] : st_b[i] + cnt_b[i]]
            n_sh_i = len(sh)
            if not n_sh_i:
                continue
            pref = rarest_first_prefix(sh, f_sh, f_df, t_frac)
            out_sh.append(pref)
            out_id.append(np.full(len(pref), ids[i], dtype=np.int64))
            out_role.append(np.zeros(len(pref), dtype=np.int64))
            out_sh.append(sh)
            out_id.append(np.full(n_sh_i, ids[i], dtype=np.int64))
            out_role.append(np.ones(n_sh_i, dtype=np.int64))
        sh_flat = np.concatenate(out_sh) if out_sh else np.empty(0, np.uint64)
        id_flat = np.concatenate(out_id) if out_id else np.empty(0, np.int64)
        role_flat = (
            np.concatenate(out_role) if out_role else np.empty(0, np.int64)
        )
        return pa.table(
            {
                "shingle": pa.array(sh_flat.astype(np.int64), pa.int64()),
                "id": pa.array(id_flat, pa.int64()),
                "role": pa.array(role_flat, pa.int64()),
            }
        )

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        sub = g.drop_duplicates(["shingle", "id", "role"])
        probe = sub[sub["role"] == 0]
        index = sub[sub["role"] == 1]
        if not len(probe) or not len(index):
            return pd.DataFrame({"a": [], "b": []}, dtype=np.int64)
        m = probe.merge(index, on="shingle", suffixes=("_a", "_b"))
        m = m[m["id_a"] != m["id_b"]]
        return m[["id_a", "id_b"]].rename(
            columns={"id_a": "a", "id_b": "b"}
        ).drop_duplicates()

    cands = distinct_rows(
        shuffle_by(ds.map_batches(role_rows, batch_format="pyarrow"), "shingle", pairs_in_bucket),
        ["a", "b"],
    )
    return _verify_pairs_containment(cands, ds, id_col, text_col, threshold_e6)


def _verify_pairs_containment(cands, ds, id_col: str, text_col: str,
                              threshold_e6: int):
    """Exact containment verification of ordered candidate (a, b)
    pairs -> (a, b, n_a, inter, cont_e6) in exact integer millionths,
    for pairs with containment >= ``threshold_e6``."""
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "n_a": pa.array([], pa.int64()),
            "inter": pa.array([], pa.int64()),
            "cont_e6": pa.array([], pa.int64()),
        }
    )

    def metric(a, b, sa, sb) -> pa.Table:
        na = np.empty(len(a), dtype=np.int64)
        inter = np.empty(len(a), dtype=np.int64)
        for i in range(len(a)):
            u = np.frombuffer(sa[i], dtype=np.uint64)
            v = np.frombuffer(sb[i], dtype=np.uint64)
            na[i] = len(u)
            inter[i] = len(np.intersect1d(u, v, assume_unique=True))
        cont = (inter * 1_000_000) // na
        keep = cont >= threshold_e6
        return pa.table(
            {
                "a": pa.array(a[keep], pa.int64()),
                "b": pa.array(b[keep], pa.int64()),
                "n_a": pa.array(na[keep], pa.int64()),
                "inter": pa.array(inter[keep], pa.int64()),
                "cont_e6": pa.array(cont[keep], pa.int64()),
            }
        )

    return _verify_pairs(cands, ds, id_col, text_col, empty, metric)


# ------------------------------------- duplicate-group resolution


LOCAL_CC_EDGE_LIMIT = 5_000_000  # ~80 MB of edge pairs in one task


def _cc_numpy(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Vectorized connected components over an edge list: min-label
    propagation with pointer doubling — O(E) numpy work per pass,
    O(log diameter) passes."""
    uniq, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ua, ub = inv[: len(a)], inv[len(a) :]
    lab = np.arange(len(uniq), dtype=np.int64)
    while True:
        m = lab.copy()
        np.minimum.at(m, ua, lab[ub])
        np.minimum.at(m, ub, lab[ua])
        m = np.minimum(m, m[m])  # pointer doubling
        if (m == lab).all():
            break
        lab = m
    # uniq is ascending, so the min INDEX is the min node id
    return pa.table(
        {
            "node": pa.array(uniq, pa.int64()),
            "component": pa.array(uniq[lab], pa.int64()),
        }
    )


def duplicate_components(pairs_ds, max_iters: int = 50):
    """Connected components over a near-dup pair graph -> (node,
    component) where component = min node id reachable — the
    "keep one per duplicate cluster" resolution step (keep id ==
    component id).

    The pair graph is orders of magnitude smaller than the corpus (its
    rows are the near-duplicates), so the default path runs the whole
    CC in ONE Ray task: block refs stream to the task (never the
    driver) and a vectorized numpy min-label propagation with pointer
    doubling finishes in O(log diameter) passes. Graphs above
    ``LOCAL_CC_EDGE_LIMIT`` edges fall back to fully-distributed
    iterative label propagation (``cogroup.lookup_join`` across the
    edge list per round, ONE monotone-sum scalar to the driver per
    round) — each distributed round costs a few shuffles, which is
    exactly why the small-graph case should never use it.
    """
    import ray.data as _rd

    from .cogroup import one_task

    n_edges = pairs_ds.count()
    if n_edges == 0:
        return _rd.from_arrow(
            pa.table(
                {"node": pa.array([], pa.int64()), "component": pa.array([], pa.int64())}
            )
        )
    if n_edges <= LOCAL_CC_EDGE_LIMIT:
        ab = pairs_ds.map_batches(
            lambda t: pa.table(
                {
                    "a": t.column("a").combine_chunks().cast(pa.int64()),
                    "b": t.column("b").combine_chunks().cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        out = one_task(
            lambda t: _cc_numpy(t.column("a").to_numpy(), t.column("b").to_numpy()), ab
        )
        return _rd.from_arrow(out).sort("node")

    from ray.data.aggregate import Min

    from .cogroup import lookup_join

    edges = pairs_ds.map_batches(
        lambda t: pa.table(
            {
                "u": pa.concat_arrays(
                    [
                        t.column("a").combine_chunks().cast(pa.int64()),
                        t.column("b").combine_chunks().cast(pa.int64()),
                    ]
                ),
                "v": pa.concat_arrays(
                    [
                        t.column("b").combine_chunks().cast(pa.int64()),
                        t.column("a").combine_chunks().cast(pa.int64()),
                    ]
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    # labels: start from self-labels of every endpoint
    cur = (
        edges.map_batches(
            lambda t: pa.table({"node": t.column("u"), "plabel": t.column("u")}),
            batch_format="pyarrow",
        )
        .groupby("node")
        .aggregate(Min("plabel", alias_name="label"))
        .materialize()
    )

    prev_sum = int(cur.sum("label"))
    for _ in range(max_iters):
        # labels flowing across edges: label(u) pushed to v
        # n_salt: a hub node of a giant dup component has high degree,
        # i.e. many edge rows share one "u" key
        pushed = lookup_join(
            edges, cur, "u", "node", {"label": "plabel"}, n_salt=8
        ).map_batches(
            lambda t: pa.table({"node": t.column("v"), "plabel": t.column("plabel")}),
            batch_format="pyarrow",
        )
        selfs = cur.map_batches(
            lambda t: pa.table({"node": t.column("node"), "plabel": t.column("label")}),
            batch_format="pyarrow",
        )
        new = (
            pushed.union(selfs)
            .groupby("node")
            .aggregate(Min("plabel", alias_name="label"))
            .materialize()
        )

        # convergence: labels only ever DECREASE, so the label sum is
        # strictly monotone until the fixed point — ONE scalar per
        # round, no comparison join
        new_sum = int(new.sum("label"))
        cur = new
        if new_sum == prev_sum:
            break
        prev_sum = new_sum
    # rename via map_batches, not Dataset.rename_columns: the Project
    # operator crashes on the aggregate's pandas-backed blocks
    return cur.map_batches(
        lambda t: pa.table({"node": t.column("node"), "component": t.column("label")}),
        batch_format="pyarrow",
    ).sort("node")


# --------------------------------------------- embedding near-dup


def embedding_nn_pairs(ds, threshold: float = COSINE_THRESHOLD):
    """Exact all-pairs cosine >= threshold over the embeddings table.

    The (small-side) full matrix is broadcast once; each batch does
    one float64 matmul against it — the brute-force baseline that the
    DuckDB oracle reproduces. Output (a, b, cosine) with a < b,
    cosine rounded to 6 dp for cross-engine float stability."""
    full = ds.to_pandas()
    ids_all = full["vec_id"].to_numpy()
    mat = np.stack(full["embedding"].to_numpy()).astype(np.float64)
    norms = np.linalg.norm(mat, axis=1)
    m = mat / norms[:, None]

    def probe(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy()
        vecs = np.stack(batch.column("embedding").to_numpy()).astype(np.float64)
        vecs = vecs / np.linalg.norm(vecs, axis=1)[:, None]
        sims = vecs @ m.T
        pi, qi = np.nonzero(sims >= threshold)
        keep = ids[pi] < ids_all[qi]  # a < b, no self pairs
        return pa.table(
            {
                "a": pa.array(ids[pi][keep], pa.int64()),
                "b": pa.array(ids_all[qi][keep], pa.int64()),
                "cosine": pa.array(np.round(sims[pi, qi][keep], 6), pa.float64()),
            }
        )

    return ds.map_batches(probe, batch_format="pyarrow")


N_LSH_TABLES = 16
PLANES_PER_TABLE = 4
LSH_TARGET_MISS = 1e-6


def lsh_tables_for(threshold: float, planes_per_table: int = PLANES_PER_TABLE,
                   target_miss: float = LSH_TARGET_MISS) -> int:
    """Standard hyperplane-LSH recall tuning: per-plane collision
    probability for a pair AT the threshold cosine is
    p = 1 - arccos(t)/pi; a pair survives a b-plane table with p^b, so
    T tables miss it with (1 - p^b)^T. Solve for the T that pushes the
    per-pair miss below ``target_miss`` at the DECISION BOUNDARY (the
    hardest pairs — anything more similar does strictly better).
    Aggressive (low) thresholds therefore cost more tables — that is
    the honest price of high recall at low cosine, and it is linear in
    shuffle volume, never quadratic in corpus."""
    p = 1.0 - np.arccos(np.clip(threshold, -1.0, 1.0)) / np.pi
    pb = p**planes_per_table
    if pb >= 1.0:
        return 1
    t = int(np.ceil(np.log(target_miss) / np.log1p(-pb)))
    return int(np.clip(t, 8, 128))


EXACT_EMBED_PAIRS_LIMIT = 32_768


def embedding_lsh_pairs(
    ds,
    n_tables: int | None = None,
    planes_per_table: int = PLANES_PER_TABLE,
    threshold: float = COSINE_THRESHOLD,
    exact_limit: int = EXACT_EMBED_PAIRS_LIMIT,
):
    """Scale path for embedding near-dup: banded (multi-table)
    hyperplane LSH, exact cosine verified within buckets.

    OR-construction over ``n_tables`` independent tables of
    ``planes_per_table`` sign bits each — the same banding as the
    MinHash stage. A single wide AND-only signature (the round-1
    version) had recall ~= 0 at cosine 0.45: per-plane collision
    p = 1 - theta/pi ~= 0.65, so 8 planes agree with probability
    0.65^8 ~= 0.03.

    ``n_tables=None`` (default) auto-tunes the table count to the
    threshold via ``lsh_tables_for`` — per-pair miss <= 1e-6 AT the
    decision boundary (16 tables would leave ~4% misses per boundary
    pair at cosine 0.45; ``q_embed_lsh_recall`` measures realized
    recall against the exact path, 1.0 on the fixtures).

    Shuffle volume = n_tables x the embeddings table; one
    ``shuffle_by`` on (table, key), the fine (table, key) grouping
    inside each bucket at C speed. Cross-table duplicate pairs collapse
    in a final vectorized groupby-aggregate.

    SIZE-ADAPTIVE (the dedup family's established shape): below
    ``exact_limit`` vectors the n_tables-fold shuffle's fixed cost
    dwarfs the work, so ONE Ray task computes the exact >=threshold
    pair set from block refs with a row-chunked matmul — a strict
    superset of what LSH can find, identical under the tuned
    per-pair miss <= 1e-6, and never a driver materialization. The
    ``ds.count()`` gate is parquet-metadata-fast for read inputs;
    derived inputs pay one extra upstream execution on the small
    branch only (forced-fallback test pins both paths equal).
    """
    from .cogroup import one_task, shuffle_by

    n_vecs = ds.count()
    if n_vecs <= exact_limit:
        import ray.data as _rd

        def exact_pairs(full: pa.Table | None) -> pa.Table:
            if full is None:
                return pa.table(
                    {
                        "a": pa.array([], pa.int64()),
                        "b": pa.array([], pa.int64()),
                        "cosine": pa.array([], pa.float64()),
                    }
                )
            ids = full.column("vec_id").to_numpy()
            m = np.stack(full.column("embedding").to_numpy()).astype(np.float64)
            m = m / np.linalg.norm(m, axis=1)[:, None]
            outs = {"a": [], "b": [], "cosine": []}
            for lo in range(0, len(ids), 2048):  # bound the sims slab
                sims = m[lo : lo + 2048] @ m.T
                pi, qi = np.nonzero(sims >= threshold)
                keep = ids[lo + pi] < ids[qi]
                outs["a"].append(ids[lo + pi][keep])
                outs["b"].append(ids[qi][keep])
                outs["cosine"].append(np.round(sims[pi, qi][keep], 6))
            return pa.table(
                {
                    "a": pa.array(np.concatenate(outs["a"]), pa.int64()),
                    "b": pa.array(np.concatenate(outs["b"]), pa.int64()),
                    "cosine": pa.array(np.concatenate(outs["cosine"]), pa.float64()),
                }
            )

        return _rd.from_arrow(one_task(exact_pairs, ds))

    if n_tables is None:
        n_tables = lsh_tables_for(threshold, planes_per_table)
    rng = np.random.default_rng(7)
    planes = rng.standard_normal((64, n_tables * planes_per_table))
    pow2 = 1 << np.arange(planes_per_table, dtype=np.int64)

    def keyed(batch: pa.Table) -> pa.Table:
        vecs = np.stack(batch.column("embedding").to_numpy()).astype(np.float64)
        signs = (vecs @ planes) > 0  # (n, n_tables * planes_per_table)
        keys = (
            signs.reshape(len(vecs), n_tables, planes_per_table) * pow2[None, None, :]
        ).sum(axis=2)  # (n, n_tables)
        tables = np.tile(np.arange(n_tables, dtype=np.int64), len(vecs))
        flat_keys = keys.ravel()
        idx = np.repeat(np.arange(len(vecs), dtype=np.int64), n_tables)
        return pa.table(
            {
                "vec_id": batch.column("vec_id").take(pa.array(idx)),
                "table": pa.array(tables, pa.int64()),
                "key": pa.array(flat_keys, pa.int64()),
                "embedding": batch.column("embedding").take(pa.array(idx)),
            }
        )

    def one_bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, sub in g.groupby(["table", "key"], sort=False):
            sub = sub.drop_duplicates("vec_id").sort_values("vec_id")
            if len(sub) < 2:
                continue
            ids = sub["vec_id"].to_numpy()
            m = np.stack(sub["embedding"].to_numpy()).astype(np.float64)
            m = m / np.linalg.norm(m, axis=1)[:, None]
            sims = m @ m.T
            ai, bi = np.triu_indices(len(ids), k=1)
            mask = sims[ai, bi] >= threshold
            if mask.any():
                outs.append(
                    pd.DataFrame(
                        {
                            "a": ids[ai][mask],
                            "b": ids[bi][mask],
                            "pcos": np.round(sims[ai, bi][mask], 6),
                        }
                    )
                )
        if not outs:
            return pd.DataFrame(
                {
                    "a": pd.Series(dtype="int64"),
                    "b": pd.Series(dtype="int64"),
                    "pcos": pd.Series(dtype="float64"),
                }
            )
        return pd.concat(outs, ignore_index=True).drop_duplicates(["a", "b"])

    from ray.data.aggregate import Max

    pairs = shuffle_by(ds.map_batches(keyed, batch_format="pyarrow"), ["table", "key"], one_bucket_pairs)
    # cross-table dedup (cosines are identical across tables)
    return pairs.groupby(["a", "b"]).aggregate(Max("pcos", alias_name="cosine"))


# ------------------------------------------- end-to-end corpus dedup


def dedup_corpus(docs_ds, emb_ds, id_col: str = "doc_id", text_col: str = "text",
                 threshold: float = COSINE_THRESHOLD, exact_pairs: bool = False):
    """End-to-end training-corpus dedup: exact content-hash dedup
    (min doc_id per md5 survives) composed with near-dup CLUSTER
    resolution over the embedding-cosine pair graph (only each
    component's min id survives). Returns the surviving doc ids — the
    "switch your corpus to the deduplicated one" pipeline.

    The pair graph comes from the SCALE path by default:
    ``embedding_lsh_pairs`` (banded hyperplane LSH whose buckets
    verify exact cosine in-cluster — no false positives, measured
    recall in ``q_embed_lsh_recall``), so the composed pipeline never
    materializes the embeddings table anywhere. ``exact_pairs=True``
    swaps in the brute-force ``embedding_nn_pairs`` baseline (which
    broadcasts the full matrix from the driver) — it exists for
    recall measurement, not production.

    The drop set (non-representative members of near-dup components)
    is assembled in a Ray task from block refs, fetched once to the
    driver and captured in the survivor filter — it is bounded by the
    number of near-duplicate docs, never the corpus.
    """
    from .cogroup import one_task

    keep = exact_dedup(docs_ds, id_col, text_col)
    pairs_fn = embedding_nn_pairs if exact_pairs else embedding_lsh_pairs
    comp = duplicate_components(pairs_fn(emb_ds, threshold=threshold))

    drop_nodes = comp.map_batches(
        lambda t: pa.table(
            {
                "node": t.column("node").filter(
                    pa.compute.not_equal(t.column("node"), t.column("component"))
                )
            }
        ),
        batch_format="pyarrow",
    )
    drop = one_task(
        lambda t: np.empty(0, dtype=np.int64)
        if t is None
        else np.unique(t.column("node").to_numpy()),
        drop_nodes,
    )

    def survivors(t: pa.Table) -> pa.Table:
        ids = t.column("keep_id").to_numpy()
        m = ~np.isin(ids, drop)
        return pa.table({"doc_id": pa.array(ids[m], pa.int64())})

    return keep.map_batches(survivors, batch_format="pyarrow")
