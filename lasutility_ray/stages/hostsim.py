"""Similar-host search: exact host-pair Jaccard >= t over each host's
UNION of word-3-shingle sets — "which domains publish near-identical
content" (mirror detection, syndication networks, parked-domain
farms), the host-granular sibling of the document-level
``ngram_jaccard_pairs``.

Shape: pages -> (host, shingle) partial-distinct explode -> ONE
host-keyed groupby builds each host's sorted shingle vocabulary as a
packed uint64 blob (one bounded row per host; hosts << pages) ->
prefix-filtered candidate generation (AllPairs/PPJoin: if
J(A,B) >= t, the rarest ``n - ceil(t*n) + 1`` shingles of each set
under a shared total order must collide; rarest-first sampled-df
order keeps template shingles out of the buckets) -> in-bucket length
filter -> candidate dedup -> exact verification by intersecting the
two packed vocab blobs fetched with two ``lookup_join``s. The
prune-free SQL mirror (all host pairs sharing any shingle) doubles as
the losslessness proof of the prefix + length filters.

At 100 TB the (host, shingle) explode is the only corpus-wide stage
(slim int64 rows, one host-keyed shuffle); everything after runs on
the host-bounded vocab table. Per-host vocab saturates (natural-
language shingle growth is sublinear per domain); a pathological
host whose vocab exceeds a blob budget would need a tilenamer-style
sub-key split — the fixture pins the common path. Reference parity: the host profile idea extends the reference's
per-tile content summaries (LasUtility tile statistics) to
lexical host fingerprints."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from .dedup import _pair_indices, _shingle_sets_batch
from .webcorpus import add_host

THRESHOLD_E6 = 800_000  # Jaccard 0.8 in exact millionths


def _host_vocab(pages_ds, url_col: str = "url", text_col: str = "text"):
    """pages -> one row per host: (host, n_sh, vocab) with ``vocab``
    the sorted uint64 shingle array packed as bytes. Materialized —
    the table is host-bounded and is consumed by two stages."""

    def explode(t: pa.Table) -> pa.Table:
        t = add_host(t, url_col=url_col)
        hosts = t.column("host").to_pylist()
        texts = t.column(text_col).to_pylist()
        flat, cnt = _shingle_sets_batch(texts)
        out_h = np.repeat(
            np.asarray(hosts, dtype=object), cnt
        )
        # per-batch partial distinct before the shuffle
        df = pd.DataFrame(
            {"host": out_h, "shingle": flat.astype(np.int64)}
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def per_host(g: pd.DataFrame) -> pd.DataFrame:
        sh = np.unique(g["shingle"].to_numpy().astype(np.uint64))
        return pd.DataFrame(
            {
                "host": [g["host"].iloc[0]],
                "n_sh": np.array([len(sh)], dtype=np.int64),
                "vocab": [sh.tobytes()],
            }
        )

    return (
        pages_ds.map_batches(explode, batch_format="pyarrow")
        .groupby("host")
        .map_groups(per_host, batch_format="pandas")
        .materialize()
    )


def _similar_pairs_local(
    vocab_tbl: pa.Table, f_sh: np.ndarray, f_df: np.ndarray, threshold_e6: int
) -> pa.Table:
    """The whole candidate + verify chain on ONE host-vocab table in
    one process: prefix filter -> per-shingle pair enumeration ->
    length filter -> exact Jaccard verification. Because verification
    is exact, the output set is identical to the distributed
    bucketed path (pinned by test_similar_hosts_fast_path_equal)."""
    thr = threshold_e6 / 1_000_000.0
    hosts = np.asarray(vocab_tbl.column("host").to_pylist(), dtype=object)
    vocabs = [
        np.frombuffer(v, np.uint64) for v in vocab_tbl.column("vocab").to_pylist()
    ]
    sizes = vocab_tbl.column("n_sh").to_numpy()
    out_sh: list = []
    out_hi: list = []
    for i, (sh, n_sh_i) in enumerate(zip(vocabs, sizes.tolist())):
        if len(f_sh):
            pos = np.minimum(np.searchsorted(f_sh, sh), len(f_sh) - 1)
            df = np.where(f_sh[pos] == sh, f_df[pos], 0)
        else:
            df = np.zeros(len(sh), dtype=np.int64)
        order = np.lexsort((sh, df))  # rarest first, hash tiebreak
        p = n_sh_i - int(np.ceil(thr * n_sh_i - 1e-9)) + 1
        out_sh.append(sh[order[:p]])
        out_hi.append(np.full(len(out_sh[-1]), i, dtype=np.int64))
    flat_sh = np.concatenate(out_sh) if out_sh else np.empty(0, np.uint64)
    flat_hi = np.concatenate(out_hi) if out_hi else np.empty(0, np.int64)
    sub = pd.DataFrame(
        {
            "shingle": flat_sh.astype(np.int64),
            "host": hosts[flat_hi] if len(flat_hi) else np.empty(0, object),
            "n_sh": sizes[flat_hi] if len(flat_hi) else np.empty(0, np.int64),
        }
    ).sort_values(["shingle", "host"])
    sh_s = sub["shingle"].to_numpy()
    h_s = sub["host"].to_numpy()
    n_s = sub["n_sh"].to_numpy()
    new = np.ones(len(sh_s), dtype=bool)
    new[1:] = sh_s[1:] != sh_s[:-1]
    ai, bi = _pair_indices(new)
    empty = pa.table(
        {
            "host_a": pa.array([], pa.string()),
            "host_b": pa.array([], pa.string()),
            "jaccard_e6": pa.array([], pa.int64()),
        }
    )
    if len(ai) == 0:
        return empty
    sa, sb = n_s[ai], n_s[bi]
    ok = np.minimum(sa, sb) >= thr * np.maximum(sa, sb) - 1e-9
    if not ok.any():
        return empty
    cand = pd.DataFrame(
        {"host_a": h_s[ai][ok], "host_b": h_s[bi][ok]}
    ).drop_duplicates()
    vmap = dict(zip(hosts.tolist(), vocabs))
    nmap = dict(zip(hosts.tolist(), sizes.tolist()))
    rows_a, rows_b, rows_j = [], [], []
    for a, b in zip(cand["host_a"], cand["host_b"]):
        va, vb = vmap[a], vmap[b]
        inter = len(np.intersect1d(va, vb, assume_unique=True))
        union = nmap[a] + nmap[b] - inter
        if union > 0 and inter * 1_000_000 >= threshold_e6 * union:
            rows_a.append(a)
            rows_b.append(b)
            rows_j.append(inter * 1_000_000 // union)
    return pa.table(
        {
            "host_a": pa.array(rows_a, pa.string()),
            "host_b": pa.array(rows_b, pa.string()),
            "jaccard_e6": pa.array(rows_j, pa.int64()),
        }
    )


@ray.remote
def _similar_pairs_task(blocks: list, f_sh, f_df, threshold_e6: int) -> pa.Table:
    # refs nested in a list are NOT auto-resolved by Ray
    blocks = ray.get([b for b in blocks])
    if not blocks or all(
        (b.num_rows if isinstance(b, pa.Table) else len(b)) == 0 for b in blocks
    ):
        # empty pages input produces a zero-block (or zero-row) vocab
        # dataset (its sum("n_sh") is None -> 0, which takes this
        # fast path); concat_tables([]) would raise and a 0-row block
        # has no usable schema — short-circuit to the empty result
        return pa.table(
            {
                "host_a": pa.array([], pa.string()),
                "host_b": pa.array([], pa.string()),
                "jaccard_e6": pa.array([], pa.int64()),
            }
        )
    tbl = pa.concat_tables(
        [b if isinstance(b, pa.Table) else pa.Table.from_pandas(b) for b in blocks]
    )
    return _similar_pairs_local(tbl, f_sh, f_df, threshold_e6)


def similar_hosts(
    pages_ds,
    threshold_e6: int = THRESHOLD_E6,
    url_col: str = "url",
    text_col: str = "text",
    freq_sample_pages: int = 2000,
    fast_limit: int = 20_000_000,
    force_distributed: bool = False,
):
    """(host_a, host_b, jaccard_e6) for every unordered host pair with
    shingle-set Jaccard >= threshold (integer millionths, host_a <
    host_b lexicographically).

    Size-adaptive (the triangle_counts/dup_components house shape):
    the vocab table is host-bounded, so when its total shingle count
    is under ``fast_limit`` (~160 MB of uint64 at the default) the
    whole candidate + verify chain runs in ONE Ray task instead of
    paying 5 wide stages of fixed shuffle overhead — measured 13.6 s
    -> ~4 s at sf0.1/32cpus with identical output (the distributed
    path stays the >limit fallback, pinned equal)."""
    from .cogroup import default_n_buckets, lookup_join

    vocab_ds = _host_vocab(pages_ds, url_col=url_col, text_col=text_col)

    # sampled shingle-frequency table for the shared rarest-first
    # total order (fixed size, broadcast once; any deterministic
    # shared order keeps the prefix theorem exact)
    sample_df = (
        pages_ds.limit(freq_sample_pages).select_columns([text_col]).to_pandas()
    )
    # a zero-row dataset loses its schema through to_pandas (bare
    # RangeIndex columns) — treat it as an empty sample
    sample_texts = (
        sample_df[text_col]
        if text_col in sample_df.columns
        else pd.Series([], dtype=object)
    )
    all_sh, _ = _shingle_sets_batch(sample_texts.tolist())
    f_sh, f_df = np.unique(all_sh, return_counts=True)
    keep_f = f_df >= 2
    f_sh, f_df = f_sh[keep_f], f_df[keep_f]
    freq_ref = ray.put((f_sh, f_df))

    if not force_distributed and int(vocab_ds.sum("n_sh") or 0) <= fast_limit:
        out = ray.get(
            _similar_pairs_task.remote(
                vocab_ds.to_arrow_refs(), f_sh, f_df, threshold_e6
            )
        )
        return ray.data.from_arrow(out)

    nb = default_n_buckets()
    thr = threshold_e6 / 1_000_000.0

    def prefix_rows(t: pa.Table) -> pa.Table:
        f_sh_b, f_df_b = ray.get(freq_ref)
        hosts = t.column("host").to_pylist()
        vocabs = t.column("vocab").to_pylist()
        sizes = t.column("n_sh").to_numpy()
        out_sh: list = []
        out_h: list = []
        out_n: list = []
        for h, v, n_sh_i in zip(hosts, vocabs, sizes.tolist()):
            sh = np.frombuffer(v, dtype=np.uint64)
            if len(f_sh_b):
                pos = np.minimum(np.searchsorted(f_sh_b, sh), len(f_sh_b) - 1)
                df = np.where(f_sh_b[pos] == sh, f_df_b[pos], 0)
            else:
                df = np.zeros(len(sh), dtype=np.int64)
            order = np.lexsort((sh, df))  # rarest first, hash tiebreak
            p = n_sh_i - int(np.ceil(thr * n_sh_i - 1e-9)) + 1
            pref = sh[order[:p]]
            out_sh.append(pref)
            out_h.extend([h] * len(pref))
            out_n.append(np.full(len(pref), n_sh_i, dtype=np.int64))
        sh_flat = np.concatenate(out_sh) if out_sh else np.empty(0, np.uint64)
        n_flat = np.concatenate(out_n) if out_n else np.empty(0, np.int64)
        return pa.table(
            {
                "shingle": pa.array(sh_flat.astype(np.int64), pa.int64()),
                "host": pa.array(out_h, pa.string()),
                "n_sh": pa.array(n_flat, pa.int64()),
                "bucket": pa.array((sh_flat % np.uint64(nb)).astype(np.int64)),
            }
        )

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        sub = g.drop_duplicates(["shingle", "host"]).sort_values(
            ["shingle", "host"]
        )
        sh = sub["shingle"].to_numpy()
        hosts = sub["host"].to_numpy()
        sizes = sub["n_sh"].to_numpy()
        new = np.ones(len(sh), dtype=bool)
        new[1:] = sh[1:] != sh[:-1]
        ai, bi = _pair_indices(new)
        if len(ai) == 0:
            return pd.DataFrame({"host_a": [], "host_b": []}, dtype=object)
        # exact length filter: J >= t forces t <= |A|/|B| <= 1/t
        sa, sb = sizes[ai], sizes[bi]
        ok = np.minimum(sa, sb) >= thr * np.maximum(sa, sb) - 1e-9
        if not ok.any():
            return pd.DataFrame({"host_a": [], "host_b": []}, dtype=object)
        return pd.DataFrame(
            {"host_a": hosts[ai][ok], "host_b": hosts[bi][ok]}
        ).drop_duplicates()

    def tag_pair(t: pa.Table) -> pa.Table:
        a = np.asarray(t.column("host_a").to_numpy(zero_copy_only=False), dtype=object)
        b = np.asarray(t.column("host_b").to_numpy(zero_copy_only=False), dtype=object)
        h = pd.util.hash_array(a) ^ pd.util.hash_array(b)
        return t.append_column(
            "__bucket", pa.array((h % np.uint64(nb)).astype(np.int64))
        )

    def uniq(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["host_a", "host_b"])[["host_a", "host_b"]]

    _empty = pa.table(
        {
            "host_a": pa.array([], pa.string()),
            "host_b": pa.array([], pa.string()),
            "jaccard_e6": pa.array([], pa.int64()),
        }
    )

    # candidate table is pair-bounded; materialize once (it feeds two
    # lookup_joins) and short-circuit the no-candidate case, whose
    # schema-less empty Dataset the join machinery cannot probe
    cands = (
        vocab_ds.map_batches(prefix_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs_in_bucket, batch_format="pandas")
        .map_batches(tag_pair, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(uniq, batch_format="pandas")
        .materialize()
    )
    if cands.count() == 0:
        return ray.data.from_arrow(_empty)

    over = {"vocab": pa.binary(), "vocab_a": pa.binary(), "host": pa.string(),
            "host_a": pa.string(), "host_b": pa.string()}
    j = lookup_join(
        cands, vocab_ds, "host_a", "host",
        {"vocab": "vocab_a", "n_sh": "n_a"}, type_overrides=over,
    )
    j = lookup_join(
        j, vocab_ds, "host_b", "host",
        {"vocab": "vocab_b", "n_sh": "n_b"}, type_overrides=over,
    )

    def verify(t: pa.Table) -> pa.Table:
        va = t.column("vocab_a").to_pylist()
        vb = t.column("vocab_b").to_pylist()
        na = t.column("n_a").to_numpy()
        nb_ = t.column("n_b").to_numpy()
        inter = np.empty(len(va), dtype=np.int64)
        for i, (x, y) in enumerate(zip(va, vb)):
            inter[i] = len(
                np.intersect1d(
                    np.frombuffer(x, np.uint64),
                    np.frombuffer(y, np.uint64),
                    assume_unique=True,
                )
            )
        union = na + nb_ - inter
        keep = inter * 1_000_000 >= threshold_e6 * union
        j_e6 = np.zeros(len(va), dtype=np.int64)
        nz = union > 0
        j_e6[nz] = inter[nz] * 1_000_000 // union[nz]
        return pa.table(
            {
                "host_a": t.column("host_a"),
                "host_b": t.column("host_b"),
                "jaccard_e6": pa.array(j_e6, pa.int64()),
            }
        ).filter(pa.array(keep))

    return j.map_batches(verify, batch_format="pyarrow")
