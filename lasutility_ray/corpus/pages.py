"""Synthetic Common-Crawl-style pages + the reference text extractor.

``pages`` schema per BASELINE.json input_hint:
``url: string, warc_ts: timestamp[us], html: binary, text: string,
lang: string`` (+ ``doc_id`` carried as the join/geocode key).

The html template wraps ``text`` between fixed markers; the engine's
extractor must recover ``text`` *byte-identical per url* (the
per-row invariant in BASELINE.json). Duplicate injection: every
``doc_id`` with ``doc_id % DUP_EVERY == DUP_EVERY-1`` repeats the
text of ``doc_id - 1`` under a different url, giving exact-dedup
fixtures at every scale.

All derivations are DuckDB-mirrorable (``printf``, string concat,
``epoch_ms``); see ``url_sql`` and ``warc_ts_sql``.

Every function here is a column kernel over a whole batch: numpy for
the hash arithmetic and the ``%08x`` digits, Arrow compute for the
strings (``take`` of the word list, ``binary_join`` per row,
``binary_join_element_wise`` for the url, the near-dup tail and the
html wrap, one ``utf8_slice_codeunits`` for the extractor). There is
no per-row Python path; ``tests/test_pages_kernels.py`` keeps the
per-row formulation as the oracle these kernels are byte-identical to.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .geocode import hashes

EPOCH_MS = 1672531200000  # 2023-01-01T00:00:00Z
DUP_EVERY = 25  # 4% exact duplicates

HTML_PREFIX = (
    '<html><head><title>doc</title></head><body>'
    '<nav>home | about | contact</nav><main><p>'
)
HTML_SUFFIX = "</p></main><footer>(c) example</footer></body></html>"

_WORDS = pa.array(
    (
        "data ray tile point cloud raster vector join index grid scan "
        "batch block shuffle stream merge sort hash key value page web "
        "crawl text token lang doc query plan group agg window"
    ).split(),
    pa.string(),
)


_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_HEX_SHIFTS = np.arange(28, -4, -4, dtype=np.int64)
_LANGS = pa.array(["fi", "en", "sv", "de"], pa.string())


def _hex8(h: np.ndarray) -> pa.Array:
    """``f"{h:08x}"`` of each 32-bit value as a string array: its eight
    nibbles, most significant first, looked up in ``0-9a-f``."""
    digits = _HEX_DIGITS[(np.asarray(h, dtype=np.int64)[:, None] >> _HEX_SHIFTS) & 0xF]
    offsets = np.arange(0, digits.size + 1, 8, dtype=np.int32)
    return pa.StringArray.from_buffers(len(digits), pa.py_buffer(offsets), pa.py_buffer(digits))


def make_urls(doc_id: np.ndarray) -> pa.Array:
    """``https://site<doc_id % 1000>.example/<h1:08x>`` per doc."""
    doc_id = np.asarray(doc_id, dtype=np.int64)
    h1, _ = hashes(doc_id)
    sites = pc.cast(pa.array(doc_id % 1000), pa.string())
    return pc.binary_join_element_wise(
        "https://site", sites, ".example/", _hex8(h1), ""
    )


NEAR_DUP_SLOT = 12
NEAR_DUP_TAIL = " appended near duplicate tail words"


def synth_text(doc_id: np.ndarray) -> pa.Array:
    """Deterministic word-salad text; length varies by hash.
    Duplicate fixtures at every scale: ``doc_id % 25 == 24`` copies
    the previous row's text verbatim (exact dup, different url);
    ``doc_id % 25 == 12`` copies the previous row's text + a short
    tail (near dup, Jaccard ~0.9).

    Row ``i`` with ``a, c = hashes(base)`` is ``d<a:08x>`` followed by
    ``20 + a % 80`` words, word ``j`` being
    ``_WORDS[(j * (1 + c % 7) + a) % len(_WORDS)]``. All rows' word
    indices are expanded at once into one flat array, taken from
    ``_WORDS`` and joined per row as a list array."""
    doc_id = np.asarray(doc_id, dtype=np.int64)
    mod = doc_id % DUP_EVERY
    base = np.where((mod == DUP_EVERY - 1) | (mod == NEAR_DUP_SLOT), doc_id - 1, doc_id)
    a, c = hashes(base)
    n_words = (20 + a % 80).astype(np.int32)
    offsets = np.zeros(len(doc_id) + 1, dtype=np.int32)
    np.cumsum(n_words, out=offsets[1:])
    # word j of every row at once: j counts from 0 at each row's offset
    j = np.arange(offsets[-1], dtype=np.int32) - np.repeat(offsets[:-1], n_words)
    step = (1 + c % 7).astype(np.int32)
    start = (a % len(_WORDS)).astype(np.int32)
    idx = (j * np.repeat(step, n_words) + np.repeat(start, n_words)) % len(_WORDS)
    words = pa.ListArray.from_arrays(pa.array(offsets), _WORDS.take(idx))
    # leading token d<a:08x> is unique per base doc (h1 is a bijection
    # of doc_id), so the only exact/near duplicates are the injected ones
    tail = pc.if_else(pa.array(mod == NEAR_DUP_SLOT), NEAR_DUP_TAIL, "")
    return pc.binary_join_element_wise("d", _hex8(a), " ", pc.binary_join(words, " "), tail, "")


def _html(text) -> pa.Array:
    return pc.cast(
        pc.binary_join_element_wise(HTML_PREFIX, text, HTML_SUFFIX, ""), pa.binary()
    )


def _warc_ts(doc_id: np.ndarray) -> pa.Array:
    ts = (EPOCH_MS + (doc_id % 86400) * 1000).astype("datetime64[ms]").astype("datetime64[us]")
    return pa.array(ts, pa.timestamp("us"))


def pages_from_documents(batch: pa.Table) -> pa.Table:
    """Arrow batch transform: documents(doc_id, text, lang, ...) ->
    pages(doc_id, url, warc_ts, html, text, lang). Used both by the
    engine and reproduced by the DuckDB oracle."""
    doc_id = batch.column("doc_id").to_numpy()
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.int64()),
            "url": make_urls(doc_id),
            "warc_ts": _warc_ts(doc_id),
            "html": _html(batch.column("text")),
            "text": batch.column("text"),
            "lang": batch.column("lang"),
        }
    )


def synth_pages_batch(doc_id: np.ndarray) -> pa.Table:
    """Standalone pages batch at arbitrary scale (bench corpus)."""
    doc_id = np.asarray(doc_id, dtype=np.int64)
    text = synth_text(doc_id)
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.int64()),
            "url": make_urls(doc_id),
            "warc_ts": _warc_ts(doc_id),
            "html": _html(text),
            "text": text,
            "lang": _LANGS.take(doc_id % 4),
        }
    )


def extract_text_from_html(html_col: pa.Array) -> pa.Array:
    """The engine's extractor: recover the payload between the fixed
    markers. Must be byte-identical to the ``text`` column per url.

    The cast to ``string`` is the UTF-8 check of the input: it raises
    on invalid bytes. One slice then drops the prefix and, by a
    negative stop counted from the end, the suffix; html shorter than
    both markers gives an empty string."""
    s = pc.cast(html_col, pa.string())
    return pc.utf8_slice_codeunits(s, len(HTML_PREFIX), -len(HTML_SUFFIX))


def url_sql(doc_col: str = "doc_id") -> str:
    h1 = f"(({doc_col} * 2654435761) % 4294967296)"
    return (
        f"('https://site' || CAST({doc_col} % 1000 AS VARCHAR) || '.example/' "
        f"|| printf('%08x', {h1}))"
    )


def warc_ts_sql(doc_col: str = "doc_id") -> str:
    return f"epoch_ms({EPOCH_MS} + ({doc_col} % 86400) * 1000)"
