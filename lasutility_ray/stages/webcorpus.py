"""Web-corpus curation operators: per-host analytics, domain-mix
sampling, Gopher-style repetition signals, and token-budget sequence
packing.

These are the corpus-shaping stages a Common-Crawl-scale training-data
pipeline runs between raw pages and tokenization (the reference engine
has no analogue — it is a per-tile GIS engine — so these extend the
SURVEY §2 surface the way the dedup/ANN family does). Every operator
is a streaming ``map_batches`` shape; the only shuffles are (a) one
host-keyed groupby of per-batch partials in :func:`host_stats` and
(b) two slim ``(doc_id, n_tok)`` exchanges in :func:`pack_sequences`'s
distributed prefix sum. All outputs are value-exact against DuckDB
oracles (see ``__ray_entry__.oracle_sql``): fractions are single IEEE
double divisions of exact int64 counts, so they hash identically.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..corpus.geocode import H1_MUL, M32

# ----------------------------------------------------------- host stats


def add_host(t: pa.Table, url_col: str = "url") -> pa.Table:
    """Vectorized host extraction: the authority between ``://`` and
    the first ``/`` (urls are scheme-qualified by contract; mirrors
    DuckDB ``split_part(split_part(url,'://',2),'/',1)``)."""
    after = pc.replace_substring_regex(t.column(url_col), r"^[^:]*://", "")
    host = pc.replace_substring_regex(after, r"/.*$", "")
    return t.append_column("host", host)


def _host_partial(t: pa.Table) -> pa.Table:
    """Per-batch per-host partial: counts, char sums, ts min/max and
    the (tiny) set of languages, pipe-joined so partials merge by
    string-set union."""
    t = add_host(t)
    df = pd.DataFrame(
        {
            "host": t.column("host").to_pandas(),
            # utf8_length is int32; widen so the summed n_chars column
            # is int64 like the oracle's
            "chars": pc.utf8_length(t.column("text")).to_numpy().astype(np.int64),
            "ts_ms": t.column("warc_ts")
            .cast(pa.timestamp("ms"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False),
            "lang": t.column("lang").to_pandas(),
        }
    )
    g = df.groupby("host", sort=False)
    out = g.agg(
        n_pages=("chars", "size"),
        n_chars=("chars", "sum"),
        first_ts_ms=("ts_ms", "min"),
        last_ts_ms=("ts_ms", "max"),
        langs=("lang", lambda s: "|".join(sorted(set(s)))),
    ).reset_index()
    return pa.Table.from_pandas(out, preserve_index=False)


def _host_final(g: pd.DataFrame) -> pd.DataFrame:
    gg = g.groupby("host", sort=False)
    out = gg.agg(
        n_pages=("n_pages", "sum"),
        n_chars=("n_chars", "sum"),
        first_ts_ms=("first_ts_ms", "min"),
        last_ts_ms=("last_ts_ms", "max"),
        langs=("langs", lambda s: set().union(*(x.split("|") for x in s))),
    ).reset_index()
    out["n_langs"] = out["langs"].map(len).astype(np.int64)
    return out[["host", "n_pages", "n_chars", "n_langs", "first_ts_ms", "last_ts_ms"]]


def host_stats(pages_ds):
    """Per-host corpus profile over pages(url, warc_ts, text, lang):
    page count, total text chars, distinct languages, first/last crawl
    timestamp (epoch ms). Map-side partials combine per batch before
    ONE host-keyed shuffle, so exchange volume is hosts x batches
    rows, never pages."""
    from .cogroup import _str_bucket_of, default_n_buckets

    n_buckets = default_n_buckets()

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__b", pa.array(_str_bucket_of(t.column("host"), n_buckets))
        )

    def final_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # _host_final already reduces per host internally — the
        # shuffle key is a coarse host-hash bucket so millions of
        # hosts never become millions of python groups
        return _host_final(g.drop(columns=["__b"]))

    partials = pages_ds.map_batches(_host_partial, batch_format="pyarrow")
    return (
        partials.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(final_bucket, batch_format="pandas")
    )


# ---------------------------------------------------------- domain mix

# canonical mixing rates for the oracle-checked query: weight a few
# sources up, the long tail down (rates in exact basis points so the
# SQL mirror needs no float rounding)
MIX_BPS_DEFAULT = 1000  # 10%
MIX_BPS = {"src0": 10000, "src1": 5000, "src2": 2500, "src3": 2500}


def domain_mix(
    docs_ds,
    bps: dict[str, int] | None = None,
    default_bps: int = MIX_BPS_DEFAULT,
    key_col: str = "doc_id",
    domain_col: str = "source",
):
    """Deterministic domain-mixing sampler: keep a row iff
    ``hash(key) % 10000 < bps[domain]`` (rates in basis points). The
    standard way to re-weight a web corpus's source mix without a
    shuffle: the decision is a pure function of (key, domain), so the
    sample is reproducible across runs/resumes and the complementary
    set (flip the comparison) is exact. No exchange at all."""
    rates = dict(MIX_BPS if bps is None else bps)

    def sample(t: pa.Table) -> pa.Table:
        key = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = (key * H1_MUL) % M32
        dom = t.column(domain_col).to_pandas()
        thr = dom.map(lambda s: rates.get(s, default_bps)).to_numpy(dtype=np.int64)
        return t.filter(pa.array((h % 10000) < thr))

    return docs_ds.map_batches(sample, batch_format="pyarrow")


def domain_mix_sql_where(
    bps: dict[str, int] | None = None,
    default_bps: int = MIX_BPS_DEFAULT,
    key_col: str = "doc_id",
    domain_col: str = "source",
) -> str:
    rates = dict(MIX_BPS if bps is None else bps)
    cases = " ".join(
        f"WHEN '{k}' THEN {v}" for k, v in sorted(rates.items())
    )
    return (
        f"((({key_col} * {H1_MUL}) % {M32}) % 10000) < "
        f"(CASE {domain_col} {cases} ELSE {default_bps} END)"
    )


# --------------------------------------------------- repetition signals


def _split_words(texts: pd.Series) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat word array + per-word doc index + per-doc word counts for
    a batch, splitting on single spaces exactly like DuckDB
    ``string_split(text, ' ')`` (so ``''`` yields one empty word)."""
    toks = texts.str.split(" ")
    counts = toks.map(len).to_numpy(dtype=np.int64)
    flat = np.array([w for ws in toks for w in ws], dtype=object)
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    return flat, doc_idx, counts


def _repetition_batch(t: pa.Table, id_col: str, text_col: str) -> pa.Table:
    texts = t.column(text_col).to_pandas()
    flat, doc_idx, n_words = _split_words(texts)
    n = len(t)

    # per-(doc, word) counts in one C-speed groupby
    wc = pd.DataFrame({"d": doc_idx, "w": flat}).groupby(["d", "w"], sort=False).size()
    per_doc = wc.groupby(level=0, sort=False)
    n_distinct = np.zeros(n, dtype=np.int64)
    top_count = np.zeros(n, dtype=np.int64)
    idx = per_doc.size().index.to_numpy()
    n_distinct[idx] = per_doc.size().to_numpy()
    top_count[idx] = per_doc.max().to_numpy()

    # bigrams: consecutive word pairs within a doc
    n2 = np.maximum(n_words - 1, 0)
    if len(flat) > 1:
        same = doc_idx[:-1] == doc_idx[1:]
        big = flat[:-1][same] + " " + flat[1:][same]
        bdoc = doc_idx[:-1][same]
        bc = pd.DataFrame({"d": bdoc, "b": big}).groupby(["d", "b"], sort=False).size()
        per2 = bc.groupby(level=0, sort=False).size()
        n2_distinct = np.zeros(n, dtype=np.int64)
        n2_distinct[per2.index.to_numpy()] = per2.to_numpy()
    else:
        n2_distinct = np.zeros(n, dtype=np.int64)

    nwf = n_words.astype(np.float64)
    n2f = n2.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        dup_word = np.where(n_words > 0, (n_words - n_distinct) / nwf, 0.0)
        top_word = np.where(n_words > 0, top_count / nwf, 0.0)
        dup_2gram = np.where(n2 > 0, (n2 - n2_distinct) / n2f, 0.0)

    return pa.table(
        {
            id_col: t.column(id_col),
            "n_words": pa.array(n_words, pa.int64()),
            "n_distinct_words": pa.array(n_distinct, pa.int64()),
            "dup_word_frac": pa.array(dup_word, pa.float64()),
            "top_word_frac": pa.array(top_word, pa.float64()),
            "dup_2gram_frac": pa.array(dup_2gram, pa.float64()),
        }
    )


def repetition_stats(docs_ds, id_col: str = "doc_id", text_col: str = "text"):
    """Gopher-style repetition quality signals per document: word
    count, distinct-word count, duplicate-word fraction, most-frequent
    -word fraction and duplicate-bigram fraction. Pure map — no
    shuffle; word identity is the exact space-split token (DuckDB
    ``string_split``) so the SQL oracle matches bit-for-bit."""
    return docs_ds.map_batches(
        lambda t: _repetition_batch(t, id_col, text_col), batch_format="pyarrow"
    )


# ------------------------------------------------------ sequence packing

PACK_BLOCK = 65536


def _ntok_batch(t: pa.Table, id_col: str, text_col: str) -> pa.Table:
    texts = t.column(text_col).to_pandas()
    n_tok = texts.str.split(" ").map(len).to_numpy(dtype=np.int64)
    ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            id_col: pa.array(ids, pa.int64()),
            "n_tok": pa.array(n_tok, pa.int64()),
            "__block": pa.array(ids // PACK_BLOCK, pa.int64()),
        }
    )


def pack_sequences(docs_ds, budget: int, id_col: str = "doc_id", text_col: str = "text"):
    """Concat-and-cut sequence packing: conceptually concatenate all
    documents in ``id_col`` order and cut every ``budget`` tokens (the
    standard LLM-pretraining packing). Per doc: its token count, the
    sequence its FIRST token lands in and the offset inside it.

    TWO-LEVEL distributed exclusive prefix sum — driver state is
    O(docs / 2^32), never corpus-proportional:

    1. slim ``(id, n_tok, block)`` map with ``block = id // 65536``;
    2. per-block token sums via one tiny groupby (one row per 65k
       docs, stays a Dataset);
    3. per-SUPER-block sums (``super = block // 65536``) — ONE row per
       ~4.3B docs reaches the driver, is scanned into super offsets
       and broadcast (~233 rows at 10^12 docs);
    4. per-super groups cumsum their block sums in-cluster, emitting a
       (block, offset) table;
    5. the offset rows ride the SAME ``groupby(block)`` co-group as
       the doc rows (union + one offset row per block, tagged
       ``id = -1``), so each block packs locally with its offset —
       no broadcast of the block-offset table.

    Requires non-negative ids (the block arithmetic already does)."""
    if budget <= 0:
        raise ValueError(f"budget must be positive (got {budget})")
    # slim feeds the block-sum aggregate AND the final per-block pack;
    # materialize it (3 int64 columns/doc, object-store backed with
    # disk spill) so the upstream pipeline — possibly a whole curation
    # chain — executes once, not once per consumer
    slim = docs_ds.map_batches(
        lambda t: _ntok_batch(t, id_col, text_col), batch_format="pyarrow"
    ).materialize()

    from ray.data.aggregate import Sum

    bsums = (
        slim.groupby("__block")
        .aggregate(Sum("n_tok", alias_name="tok"))
        .map_batches(
            lambda t: pa.table(
                {
                    "__block": t.column("__block"),
                    "tok": t.column("tok"),
                    "__super": pa.array(
                        t.column("__block").to_numpy(zero_copy_only=False)
                        // PACK_BLOCK,
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )
    ssums = (
        bsums.groupby("__super").aggregate(Sum("tok", alias_name="stok")).to_pandas()
    )
    ssums = ssums.sort_values("__super")
    s_off = np.zeros(len(ssums), dtype=np.int64)
    s_off[1:] = np.cumsum(ssums["stok"].to_numpy())[:-1]
    soff_ref = ray.put(dict(zip(ssums["__super"].tolist(), s_off.tolist())))

    def block_offsets(t: pa.Table) -> pa.Table:
        blocks = t.column("__block").to_numpy()
        toks = t.column("tok").to_numpy()
        order = np.argsort(blocks, kind="stable")
        blocks, toks = blocks[order], toks[order]
        base = ray.get(soff_ref)[int(t.column("__super")[0].as_py())]
        off = base + np.cumsum(toks) - toks
        # offset rows share the slim schema (id=-1 tags them) so they
        # ride the same groupby(__block) co-group as the doc rows
        return pa.table(
            {
                id_col: pa.array(np.full(len(blocks), -1, dtype=np.int64)),
                "n_tok": pa.array(off, pa.int64()),
                "__block": pa.array(blocks, pa.int64()),
            }
        )

    offs = bsums.groupby("__super").map_groups(block_offsets, batch_format="pyarrow")

    def pack_block(g: pd.DataFrame) -> pd.DataFrame:
        is_off = g[id_col].to_numpy() < 0
        off = int(g["n_tok"].to_numpy()[is_off][0])
        g = g[~is_off].sort_values(id_col)
        start = off + np.cumsum(g["n_tok"].to_numpy()) - g["n_tok"].to_numpy()
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                "n_tok": g["n_tok"].to_numpy(),
                "seq_id": start // budget,
                "seq_off": start % budget,
            }
        )

    return slim.union(offs).groupby("__block").map_groups(
        pack_block, batch_format="pandas"
    )


# -------------------------------------------------- url canonicalization

_DEFAULT_PORT = {"http": ":80", "https": ":443"}


def canonicalize_urls(urls: pd.Series) -> pd.Series:
    """RFC-3986-style URL normalization for crawl dedup: drop the
    fragment, lowercase scheme + host, strip the scheme's default
    port, ensure a path ('' -> '/'), collapse empty query ('?' tail).
    Pure pandas str kernels (C-vectorized); non-URL strings pass
    through unchanged."""
    s = urls.str.replace(r"#.*$", "", regex=True).str.replace(
        r"\?$", "", regex=True
    )
    m = s.str.extract(r"^([A-Za-z][A-Za-z0-9+.-]*)://([^/?]*)(.*)$")
    has = m[0].notna()
    scheme = m[0].str.lower()
    auth = m[1].str.lower()
    rest = m[2].fillna("")
    for sch, port in _DEFAULT_PORT.items():
        on = scheme == sch
        auth = auth.mask(on & auth.str.endswith(port), auth.str[: -len(port)])
    rest = rest.mask(rest == "", "/").mask(rest.str.startswith("?"), "/" + rest)
    return (scheme + "://" + auth + rest).where(has, s)


def canonical_url_stage(pages_ds, url_col: str = "url", out_col: str = "canonical_url"):
    """Append a canonical-url column (map-only)."""

    def add(t: pa.Table) -> pa.Table:
        canon = canonicalize_urls(t.column(url_col).to_pandas())
        return t.append_column(out_col, pa.array(canon.to_numpy(), pa.string()))

    return pages_ds.map_batches(add, batch_format="pyarrow")


# --------------------------------------------------- incremental dedup


def _md5_batch(t: pa.Table, text_col: str, out_col: str) -> pa.Table:
    import hashlib

    texts = t.column(text_col).to_pylist()
    hs = [hashlib.md5(x.encode()).hexdigest() for x in texts]
    return t.append_column(out_col, pa.array(hs, pa.string()))


def incremental_dedup(new_ds, seen_ds, text_col: str = "text"):
    """Dedup a fresh crawl against an already-ingested corpus: drop
    every new doc whose content hash (md5 of text, matching DuckDB's
    ``md5()``) appears in the seen corpus. One string-keyed anti
    lookup-join over hashes — the shuffle carries 32-byte digests,
    never text, so at 100 TB the exchange is ~0.03% of corpus bytes.
    ``seen_ds`` needs only a text column (pass a checkpointed hash
    table with a precomputed ``content_md5`` column to skip its
    hashing scan)."""
    from .cogroup import lookup_join

    left = new_ds.map_batches(
        lambda t: _md5_batch(t, text_col, "content_md5"), batch_format="pyarrow"
    )
    if text_col in (seen_ds.schema().base_schema.names or []):
        seen = seen_ds.map_batches(
            lambda t: _md5_batch(t, text_col, "content_md5").select(["content_md5"]),
            batch_format="pyarrow",
        )
    else:
        seen = seen_ds
    return lookup_join(left, seen, "content_md5", "content_md5", {}, how="anti")


# --------------------------------------------------- global line dedup

LINE_IDX_BITS = 20  # max 2^20 lines per doc in the packed winner key


def line_dedup(docs_ds, id_col: str = "doc_id", text_col: str = "text"):
    """Corpus-global duplicate-line removal, keep-first (the C4/Gopher
    hygiene pass): every line that occurs anywhere else in the corpus
    survives only at its smallest (doc, line-index) position; docs are
    reconstructed from their surviving lines in order (docs losing all
    lines vanish).

    Shape (round-5 rewrite): keep-first is a MIN — so the map side
    combines before any exchange. Explode to (id, line_idx, line) and
    within the SAME batch keep only each line's min-packed row (every
    other same-batch occurrence is a guaranteed global loser); the
    survivors shuffle ONCE on a line-hash bucket (all occurrences of
    a line co-locate by construction) and the in-bucket pandas min
    picks the global winner — its row IS the surviving line, so there
    is no join back at all. The previous chain paid a string-keyed
    Ray groupby + an auto-salted string lookup_join (with its
    counting pre-pass) + two materializations for the same result.
    Hot boilerplate lines ("", headers) are pre-shrunk to <= one row
    per input batch by the map-side combine, which is exactly the
    salting the join needed. Two slim exchanges total (winner bucket
    + doc-reassembly bucket); text lines move once each way, never
    whole documents."""
    from .cogroup import _bucket_of, default_n_buckets

    # fixed once on the driver: both exchanges use it, and a batch fn
    # must not ask the cluster for its size on every call
    n_buckets = default_n_buckets()

    def explode_combine(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        lines = t.column(text_col).to_pandas().str.split("\n")
        counts = lines.map(len).to_numpy(dtype=np.int64)
        if (counts >= (1 << LINE_IDX_BITS)).any():
            raise ValueError(f"doc exceeds {1 << LINE_IDX_BITS} lines")
        flat = np.array([x for ls in lines for x in ls], dtype=object)
        d = np.repeat(ids, counts)
        li = np.concatenate([np.arange(c, dtype=np.int64) for c in counts]) if len(
            counts
        ) else np.empty(0, dtype=np.int64)
        df = pd.DataFrame(
            {
                id_col: d,
                "li": li,
                "line": flat,
                "packed": (d << LINE_IDX_BITS) | li,
            }
        )
        # map-side combine: per-batch min per line (guaranteed-loser
        # rows never reach the exchange)
        if len(df):
            df = df.loc[df.groupby("line", sort=False)["packed"].idxmin()]
        # deterministic line-hash bucket (co-location only — which
        # bucket a line lands in never affects the result)
        h = pd.util.hash_pandas_object(df["line"], index=False).to_numpy()
        return pa.table(
            {
                id_col: pa.array(df[id_col].to_numpy(), pa.int64()),
                "li": pa.array(df["li"].to_numpy(), pa.int64()),
                "line": pa.array(df["line"].to_numpy(), pa.string()),
                "packed": pa.array(df["packed"].to_numpy(), pa.int64()),
                "__wb": pa.array(
                    (h % np.uint64(n_buckets)).astype(np.int64), pa.int64()
                ),
            }
        )

    def bucket_winner(g: pd.DataFrame) -> pd.DataFrame:
        w = g.loc[g.groupby("line", sort=False)["packed"].idxmin()]
        return w[[id_col, "li", "line"]]

    kept = (
        docs_ds.map_batches(explode_combine, batch_format="pyarrow")
        .groupby("__wb")
        .map_groups(bucket_winner, batch_format="pandas")
    )

    # reassembly shuffles on a coarse doc-hash bucket (one python group
    # per BUCKET, C-speed inner groupby) — a per-doc map_groups would
    # make millions of 1-row python groups at corpus scale
    def add_bucket(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy()
        return t.append_column("__b", pa.array(_bucket_of(ids, n_buckets)))

    def rebuild_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "li"], kind="stable")
        s = g.groupby(id_col, sort=True)["line"].agg("\n".join)
        return pd.DataFrame(
            {id_col: s.index.to_numpy(), text_col: s.to_numpy()}
        )

    return (
        kept.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(rebuild_bucket, batch_format="pandas")
    )


def substring_dedup(
    docs_ds, window: int = 20, id_col: str = "doc_id", text_col: str = "text"
):
    """Exact-substring dedup (ExactSubstr, Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better",
    arXiv:2107.06499): any ``window``-token span that occurs more than
    once in the corpus survives ONLY at its globally-first occurrence
    (min doc_id<<20|pos); every other occurrence's token positions are
    cut, and documents are rebuilt from their surviving tokens.
    Output: (doc_id, text, n_removed_tokens) where text is the kept
    tokens joined by single spaces (token-level dedup canonicalizes
    whitespace — same convention as the paper's implementation).

    Shape (round-5 rewrite, the line_dedup lesson applied to a case
    that DOES need per-occurrence verdicts): a window occurrence is
    cut iff its hash occurs >= 2 times corpus-wide AND it is not the
    global min-packed occurrence. A batch-local non-min occurrence is
    therefore a GUARANTEED cut — decidable map-side with no global
    information (some other occurrence of the same hash precedes it).
    Only each batch's local winner (plus its local occurrence count)
    shuffles, ONCE, on an md5-derived bucket; the in-bucket pandas
    pass computes the global count and min and emits the remaining
    cut rows directly. No string-keyed Ray groupby, no join back, and
    hot boilerplate windows pre-shrink to <= one row per input batch.
    16-byte hex hashes on the wire, never window text; the md5 is
    shared with the DuckDB mirror (md5() over the same space-joined
    window), so the whole operator stays value-exact against SQL.

    Docs shorter than ``window`` tokens emit no windows and pass
    through intact (canonical whitespace only)."""
    import hashlib

    from .cogroup import _bucket_of, default_n_buckets

    if window < 2:
        raise ValueError("window must be >= 2 tokens")

    nb_w = default_n_buckets()
    arange_w = np.arange(window)

    def _expand_cuts(ids: np.ndarray, pos: np.ndarray) -> pa.Table:
        # expand [pos, pos+window) coverage
        d = np.repeat(ids, window)
        c = (pos[:, None] + arange_w[None, :]).ravel()
        return pa.table(
            {id_col: pa.array(d, pa.int64()), "cut": pa.array(c, pa.int64())}
        )

    def explode_combine(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        toks = t.column(text_col).to_pandas().str.findall(r"\S+")
        counts = toks.map(len).to_numpy(dtype=np.int64)
        if (counts >= (1 << LINE_IDX_BITS)).any():
            raise ValueError(f"doc exceeds {1 << LINE_IDX_BITS} tokens")
        d_out, p_out, h_out, b_out = [], [], [], []
        for did, ws in zip(ids, toks):
            n = len(ws)
            for pos in range(n - window + 1):
                dig = hashlib.md5(" ".join(ws[pos : pos + window]).encode())
                d_out.append(did)
                p_out.append(pos)
                h_out.append(dig.hexdigest())
                b_out.append(int.from_bytes(dig.digest()[:8], "big") % nb_w)
        d = np.array(d_out, np.int64) if d_out else np.empty(0, np.int64)
        p = np.array(p_out, np.int64) if p_out else np.empty(0, np.int64)
        df = pd.DataFrame(
            {
                id_col: d,
                "pos": p,
                "whash": np.array(h_out, object),
                "packed": (d << LINE_IDX_BITS) | p,
                "__wb": np.array(b_out, np.int64)
                if b_out
                else np.empty(0, np.int64),
            }
        )
        if not len(df):
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                    "whash": pa.array([], pa.string()),
                    "packed": pa.array([], pa.int64()),
                    "lcnt": pa.array([], pa.int64()),
                    "__wb": pa.array([], pa.int64()),
                    "is_loser_cut": pa.array([], pa.bool_()),
                }
            )
        grp = df.groupby("whash", sort=False)["packed"]
        win_idx = grp.idxmin()
        lcnt = grp.transform("size").to_numpy().astype(np.int64)
        is_win = np.zeros(len(df), bool)
        is_win[df.index.get_indexer(win_idx)] = True
        out = df.assign(lcnt=lcnt, is_loser_cut=~is_win)
        # local losers are guaranteed global cuts; only local winners
        # (with their local counts) need the exchange
        return pa.Table.from_pandas(
            out[
                [id_col, "pos", "whash", "packed", "lcnt", "__wb", "is_loser_cut"]
            ],
            preserve_index=False,
        )

    ex = docs_ds.map_batches(explode_combine, batch_format="pyarrow").materialize()
    if ex.count() == 0:  # every doc shorter than the window
        return docs_ds.select_columns([id_col, text_col]).map_batches(
            lambda df: _rebuild_substring(df, None, id_col, text_col),
            batch_format="pandas",
        )

    def local_loser_cuts(t: pa.Table) -> pa.Table:
        m = t.column("is_loser_cut").to_numpy(zero_copy_only=False)
        return _expand_cuts(
            t.column(id_col).to_numpy()[m], t.column("pos").to_numpy()[m]
        )

    def winner_rows(t: pa.Table) -> pa.Table:
        m = ~t.column("is_loser_cut").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(m)).select(
            [id_col, "pos", "whash", "packed", "lcnt", "__wb"]
        )

    def bucket_cuts(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby("whash", sort=False)
        gcnt = grp["lcnt"].transform("sum").to_numpy()
        gmin = grp["packed"].transform("min").to_numpy()
        m = (gcnt >= 2) & (g["packed"].to_numpy() != gmin)
        t = _expand_cuts(g[id_col].to_numpy()[m], g["pos"].to_numpy()[m])
        return t.to_pandas()

    cuts = ex.map_batches(local_loser_cuts, batch_format="pyarrow").union(
        ex.map_batches(winner_rows, batch_format="pyarrow")
        .groupby("__wb")
        .map_groups(bucket_cuts, batch_format="pandas")
    )

    # ONE bucketed cogroup rebuilds everything: doc rows (side 0,
    # carrying text) and raw cut rows (side 1) shuffle together on a
    # coarse doc-hash bucket; each bucket builds its cut sets and
    # rebuilds its docs in pandas. This replaces the earlier
    # collect-cuts groupby + two doc-level lookup_joins (three
    # all-to-all exchanges) with a single one.
    n_buckets = default_n_buckets()

    def tag_docs(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: t.column(id_col),
                "text": t.column(text_col),
                "cut": pa.array(np.full(len(ids), -1, np.int64)),
                "__b": pa.array(_bucket_of(ids, n_buckets)),
            }
        )

    def tag_cuts(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy()
        return pa.table(
            {
                id_col: t.column(id_col),
                "text": pa.array([""] * len(ids), pa.string()),
                "cut": t.column("cut"),
                "__b": pa.array(_bucket_of(ids, n_buckets)),
            }
        )

    slim_docs = docs_ds.select_columns([id_col, text_col])

    def rebuild_bucket(g: pd.DataFrame) -> pd.DataFrame:
        is_doc = g["cut"].to_numpy() == -1
        docs = g[is_doc]
        cut_rows = g[~is_doc]
        cut_sets = (
            cut_rows.groupby(id_col, sort=False)["cut"].agg(set).to_dict()
            if len(cut_rows)
            else {}
        )
        out_ids, out_text, out_removed = [], [], []
        for did, text in zip(docs[id_col], docs["text"]):
            ws = text.split()
            cut = cut_sets.get(did)
            kept = (
                [w for p, w in enumerate(ws) if p not in cut] if cut else ws
            )
            out_ids.append(did)
            out_text.append(" ".join(kept))
            out_removed.append(len(ws) - len(kept))
        return pd.DataFrame(
            {
                id_col: np.array(out_ids, np.int64),
                text_col: out_text,
                "n_removed_tokens": np.array(out_removed, np.int64),
            }
        )

    return (
        slim_docs.map_batches(tag_docs, batch_format="pyarrow")
        .union(cuts.map_batches(tag_cuts, batch_format="pyarrow"))
        .groupby("__b")
        .map_groups(rebuild_bucket, batch_format="pandas")
    )


def _rebuild_substring(df, cut_col, id_col, text_col):
    out_ids, out_text, out_removed = [], [], []
    cutlists = df[cut_col] if cut_col else None
    for i, (did, text) in enumerate(zip(df[id_col], df[text_col])):
        ws = text.split()
        if cut_col:
            cut = {int(v) for v in cutlists.iloc[i].split(",")}
            kept = [w for p, w in enumerate(ws) if p not in cut]
        else:
            kept = ws
        out_ids.append(did)
        out_text.append(" ".join(kept))
        out_removed.append(len(ws) - len(kept))
    return pd.DataFrame(
        {
            id_col: np.array(out_ids, np.int64),
            text_col: out_text,
            "n_removed_tokens": np.array(out_removed, np.int64),
        }
    )


def substring_dedup_sql(window: int = 20, table: str = "documents") -> str:
    """DuckDB mirror of :func:`substring_dedup` — same md5 window
    hashes, same packed winner rule, same single-space rebuild."""
    bits = 1 << LINE_IDX_BITS
    return f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS t FROM {table}
), tok AS (
  SELECT doc_id, unnest(t) AS tok,
         unnest(generate_series(0, len(t) - 1)) AS pos
  FROM toks
), win AS (
  SELECT doc_id, t,
         unnest(generate_series(0, len(t) - {window})) AS pos
  FROM toks
), marked AS (
  SELECT doc_id, pos,
         count(*) OVER (PARTITION BY w) AS cnt,
         min(doc_id * {bits} + pos) OVER (PARTITION BY w) AS keep,
         doc_id * {bits} + pos AS packed
  FROM (SELECT doc_id, pos,
               md5(array_to_string(t[pos + 1 : pos + {window}], ' ')) AS w
        FROM win)
), cuts AS (
  SELECT DISTINCT doc_id, unnest(generate_series(pos, pos + {window} - 1)) AS cutpos
  FROM marked WHERE cnt >= 2 AND packed <> keep
), kept AS (
  SELECT k.doc_id, k.pos, k.tok
  FROM tok k LEFT JOIN cuts c ON c.doc_id = k.doc_id AND c.cutpos = k.pos
  WHERE c.doc_id IS NULL
)
SELECT s.doc_id,
       coalesce(string_agg(k.tok, ' ' ORDER BY k.pos), '') AS text,
       len(any_value(s.t)) - count(k.tok) AS n_removed_tokens
FROM toks s LEFT JOIN kept k ON k.doc_id = s.doc_id
GROUP BY s.doc_id
"""


TREND_HORIZON_DAYS = 30


def trending_hosts(pages_ds, horizon: int = TREND_HORIZON_DAYS):
    """Decay-weighted host activity ("what's trending"): each page
    contributes ``2^-(age_days)`` of a unit to its host, ages beyond
    ``horizon`` contribute zero. EXACT in integers: scores are scaled
    by 2^horizon so a page of age a adds ``1 << (horizon - a)`` —
    bit-shift decay both engines reproduce losslessly (no float exp).

    Shape: per-batch (host, day) count partials; the global max day
    is one scalar aggregate; scoring folds into the same coarse
    host-bucket pass that finalizes the counts — one slim shuffle
    bounded by hosts x horizon."""
    from ray.data.aggregate import Max

    def slim(t: pa.Table) -> pa.Table:
        t = add_host(t)
        day = (
            t.column("warc_ts")
            .cast(pa.timestamp("ms"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            // 86_400_000
        )
        df = (
            pd.DataFrame(
                {"host": t.column("host").to_pandas(), "day": day}
            )
            .groupby(["host", "day"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    slim_ds = pages_ds.map_batches(slim, batch_format="pyarrow").materialize()
    max_day = int(slim_ds.max("day"))

    from .cogroup import default_n_buckets

    nb = default_n_buckets()

    def tag(t: pa.Table) -> pa.Table:
        h = pd.util.hash_array(
            np.asarray(t.column("host").to_numpy(zero_copy_only=False), dtype=object)
        )
        return t.append_column(
            "__bucket", pa.array((h % np.uint64(nb)).astype(np.int64))
        )

    def score(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (
            g.groupby(["host", "day"], sort=False)["cnt"].sum().reset_index()
        )
        age = max_day - cnt["day"].to_numpy(np.int64)
        w = np.where(
            age <= horizon, np.int64(1) << np.maximum(horizon - age, 0), 0
        )
        cnt["part"] = cnt["cnt"].to_numpy(np.int64) * w
        out = cnt.groupby("host", sort=False)["part"].sum().reset_index()
        return out.rename(columns={"part": "score_scaled"})

    return (
        slim_ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(score, batch_format="pandas")
    )


def trending_hosts_sql(horizon: int = TREND_HORIZON_DAYS) -> str:
    """DuckDB mirror of :func:`trending_hosts` (same bit-shift
    decay; pages reconstructed from documents per the corpus
    contract)."""
    from ..corpus.pages import url_sql, warc_ts_sql

    return (
        f"WITH th_p AS (SELECT {url_sql()} AS url, "
        f"epoch_ms({warc_ts_sql()}) // 86400000 AS day FROM documents), "
        "th_c AS (SELECT split_part(split_part(url,'://',2),'/',1) AS host, "
        "day, CAST(count(*) AS BIGINT) AS cnt FROM th_p GROUP BY 1, 2), "
        "th_m AS (SELECT max(day) AS md FROM th_c) "
        "SELECT host, CAST(sum(CASE WHEN md - day <= "
        f"{horizon} THEN cnt * (CAST(1 AS BIGINT) << "
        f"CAST({horizon} - (md - day) AS INTEGER)) ELSE 0 END) AS BIGINT) "
        "AS score_scaled "
        "FROM th_c, th_m GROUP BY host"
    )
