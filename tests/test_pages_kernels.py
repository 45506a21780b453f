"""The page-synthesis and extraction kernels of ``corpus/pages.py``
against their per-row formulation, kept here as the oracle:

- ``synth_pages_batch`` and ``pages_from_documents`` tables equal the
  oracle's over every ``doc_id % 25`` slot (the near-dup slot 12 and
  the exact-dup slot 24 included), small, negative and large ids;
- the Arrow IPC bytes of ``synth_pages_batch(np.arange(50_000))`` have
  a pinned sha256, so the synthetic corpus every benchmark and query
  reads cannot drift;
- the extractor equals the reverse-slice-reverse oracle on random
  Unicode payloads, html shorter than both markers, empty strings and
  nulls, and still raises on html that is not UTF-8.

No Ray."""

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasutility_ray.corpus import pages as P
from lasutility_ray.corpus.geocode import hashes

# sha256 of the Arrow IPC stream of synth_pages_batch(np.arange(50_000)),
# as the per-row synthesis below produced it
PAGES_50K_SHA256 = "194ad97b26a37fb6b587321b5a44a80cea044f8d9fb455d6e1d0cd83a5f85ae9"

WORDS = (
    "data ray tile point cloud raster vector join index grid scan "
    "batch block shuffle stream merge sort hash key value page web "
    "crawl text token lang doc query plan group agg window"
).split()


# ------------------------------------------------------------ oracle


def oracle_urls(doc_id: np.ndarray) -> np.ndarray:
    h1, _ = hashes(doc_id)
    sites = (doc_id % 1000).astype(np.int64)
    return np.array(
        [f"https://site{s}.example/{h:08x}" for s, h in zip(sites.tolist(), h1.tolist())],
        dtype=object,
    )


def oracle_text(doc_id: np.ndarray) -> np.ndarray:
    doc_id = np.asarray(doc_id, dtype=np.int64)
    mod = doc_id % P.DUP_EVERY
    base = np.where((mod == P.DUP_EVERY - 1) | (mod == P.NEAR_DUP_SLOT), doc_id - 1, doc_id)
    h1, h2 = hashes(base)
    out = np.empty(len(doc_id), dtype=object)
    for i, (a, c, m) in enumerate(zip(h1.tolist(), h2.tolist(), mod.tolist())):
        n_words = 20 + (a % 80)
        idx = (np.arange(n_words) * (1 + c % 7) + a) % len(WORDS)
        t = f"d{a:08x} " + " ".join(WORDS[j] for j in idx)
        if m == P.NEAR_DUP_SLOT:
            t += P.NEAR_DUP_TAIL
        out[i] = t
    return out


def _oracle_ts(doc_id: np.ndarray) -> np.ndarray:
    return (P.EPOCH_MS + (doc_id % 86400) * 1000).astype("datetime64[ms]").astype("datetime64[us]")


def oracle_pages_from_documents(batch: pa.Table) -> pa.Table:
    doc_id = batch.column("doc_id").to_numpy()
    text = batch.column("text").to_pylist()
    html = [(P.HTML_PREFIX + t + P.HTML_SUFFIX).encode() for t in text]
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.int64()),
            "url": pa.array(oracle_urls(doc_id), pa.string()),
            "warc_ts": pa.array(_oracle_ts(doc_id), pa.timestamp("us")),
            "html": pa.array(html, pa.binary()),
            "text": batch.column("text"),
            "lang": batch.column("lang"),
        }
    )


def oracle_synth_pages_batch(doc_id: np.ndarray) -> pa.Table:
    doc_id = np.asarray(doc_id, dtype=np.int64)
    text = oracle_text(doc_id)
    langs = np.array(["fi", "en", "sv", "de"], dtype=object)[doc_id % 4]
    html = [(P.HTML_PREFIX + t + P.HTML_SUFFIX).encode() for t in text.tolist()]
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.int64()),
            "url": pa.array(oracle_urls(doc_id), pa.string()),
            "warc_ts": pa.array(_oracle_ts(doc_id), pa.timestamp("us")),
            "html": pa.array(html, pa.binary()),
            "text": pa.array(text, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )


def oracle_extract(html_col) -> pa.Array:
    s = pc.cast(html_col, pa.string())
    big = 2**30
    trimmed = pc.utf8_slice_codeunits(s, len(P.HTML_PREFIX), big)
    rev_cut = pc.utf8_slice_codeunits(pc.utf8_reverse(trimmed), len(P.HTML_SUFFIX), big)
    return pc.utf8_reverse(rev_cut)


# --------------------------------------------------------- strategies

# a doc id by its dup slot: k * 25 + slot, so every slot is drawn as
# often as any other, at small, negative and int64-overflowing k
slotted_ids = st.builds(
    lambda k, slot: k * P.DUP_EVERY + slot,
    st.one_of(
        st.integers(0, 400),
        st.integers(-400, -1),
        st.integers(2**40, (2**63 - 1) // P.DUP_EVERY - 1),
    ),
    st.integers(0, P.DUP_EVERY - 1),
)


def _ipc_sha256(t: pa.Table) -> str:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


# -------------------------------------------------------------- synth


def test_every_dup_slot_equals_oracle():
    ids = np.concatenate([np.arange(-50, 250), 2**62 + np.arange(50)]).astype(np.int64)
    got = P.synth_pages_batch(ids)
    assert got.equals(oracle_synth_pages_batch(ids))
    text = got.column("text").to_pylist()
    exact = [i for i, d in enumerate(ids) if d % P.DUP_EVERY == P.DUP_EVERY - 1 and i > 0]
    near = [i for i, d in enumerate(ids) if d % P.DUP_EVERY == P.NEAR_DUP_SLOT and i > 0]
    assert exact and near
    assert all(text[i] == text[i - 1] for i in exact)
    assert all(text[i] == text[i - 1] + P.NEAR_DUP_TAIL for i in near)


@settings(max_examples=200, deadline=None)
@given(st.lists(slotted_ids, min_size=0, max_size=60))
def test_synth_pages_batch_equals_oracle(ids):
    ids = np.array(ids, dtype=np.int64)
    assert P.synth_pages_batch(ids).equals(oracle_synth_pages_batch(ids))


def test_synth_pages_batch_ipc_bytes_pinned():
    assert _ipc_sha256(P.synth_pages_batch(np.arange(50_000))) == PAGES_50K_SHA256


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(slotted_ids, st.text(max_size=40), st.sampled_from(["fi", "en", "sv", "de"])),
             min_size=0, max_size=30),
    st.integers(1, 4),
)
def test_pages_from_documents_equals_oracle(rows, n_chunks):
    doc = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    # Ray hands a batch over as a table of one or more chunks
    cut = np.linspace(0, doc.num_rows, n_chunks + 1).astype(int)
    doc = pa.concat_tables([doc.slice(a, b - a) for a, b in zip(cut[:-1], cut[1:])])
    assert P.pages_from_documents(doc).equals(oracle_pages_from_documents(doc))


# ---------------------------------------------------------- extractor


def _wrapped(payload: str) -> bytes:
    return (P.HTML_PREFIX + payload + P.HTML_SUFFIX).encode()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.text().map(_wrapped),  # a page: payload between the markers
            st.text(max_size=len(P.HTML_PREFIX) + len(P.HTML_SUFFIX)).map(str.encode),
            st.just(b""),
            st.none(),
        ),
        max_size=40,
    )
)
def test_extract_equals_oracle(values):
    html = pa.array(values, pa.binary())
    got = P.extract_text_from_html(html)
    assert got.equals(oracle_extract(html))
    chunked = pa.chunked_array([html.slice(0, len(values) // 2), html.slice(len(values) // 2)], pa.binary())
    assert P.extract_text_from_html(chunked).equals(oracle_extract(chunked))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(), max_size=20))
def test_extract_recovers_payload(payloads):
    html = pa.array([_wrapped(p) for p in payloads], pa.binary())
    assert P.extract_text_from_html(html).to_pylist() == payloads


def test_extract_short_empty_and_null():
    html = pa.array([b"", None, b"<html>", P.HTML_PREFIX.encode(), _wrapped("")], pa.binary())
    assert P.extract_text_from_html(html).to_pylist() == ["", None, "", "", ""]


def test_extract_rejects_invalid_utf8():
    # the bad bytes sit mid-payload, where only the input check sees them
    bad = P.HTML_PREFIX.encode() + b"valid \xff\xfe valid" + P.HTML_SUFFIX.encode()
    html = pa.array([_wrapped("ok"), bad], pa.binary())
    with pytest.raises(pa.ArrowInvalid):
        P.extract_text_from_html(html)
