"""PII redaction over the documents corpus (emails, IPv4 addresses,
phone numbers) — the standard scrubbing pass of web-corpus curation
pipelines (e.g. the C4/Dolma-style email/IP/phone masks).

Engine shape: one stateless vectorized ``map_batches`` stage; the
patterns are compiled once on the driver and applied via pandas' C-speed
``str.count`` / ``str.replace``. Patterns are written in the common
subset of Python ``re`` and RE2 (ASCII classes, no lookaround, no
backrefs) so the DuckDB oracle (sequential ``regexp_replace(..., 'g')``
over the same intermediates) is value-exact, including counts.

Redaction is SEQUENTIAL per pattern — each count/replace runs on the
output of the previous one, in the fixed order email -> ipv4 -> phone
— which pins one deterministic semantics for overlapping spans in
both engines.

Reference parity note: the reference has no text scrubbing (it is a
point-cloud library); this is an engine addition for the web-corpus
payload, in the same family as ``stages/text.py``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

# ASCII-only classes: RE2's \d and \b are ASCII, python re's are
# unicode — spelling the classes out keeps both engines identical.
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z][A-Za-z]+"
IPV4_RE = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"
PHONE_RE = r"\b[0-9]{3}-[0-9]{3}-[0-9]{4}\b"

# (column suffix, pattern, replacement) in application order
PATTERNS = (
    ("email", EMAIL_RE, "<EMAIL>"),
    ("ipv4", IPV4_RE, "<IP>"),
    ("phone", PHONE_RE, "<PHONE>"),
)


class PiiRedact:
    """Batch stage: per-doc PII counts + redacted text.

    Adds ``n_email / n_ipv4 / n_phone`` (match counts at the moment
    each pattern runs) and ``text_redacted``; leaves other columns
    untouched.
    """

    def __init__(self):
        import re

        self.pats = [(name, re.compile(rx), repl) for name, rx, repl in PATTERNS]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["text"]
        for name, rx, repl in self.pats:
            batch["n_" + name] = s.str.count(rx).astype("int64")
            s = s.str.replace(rx, repl, regex=True)
        batch["text_redacted"] = s
        return batch


def pii_redact(ds):
    """Dataset stage: redact emails / IPv4s / phone numbers in the
    ``text`` column (adds counts + ``text_redacted``)."""
    return ds.map_batches(PiiRedact(), batch_format="pandas")


def inject_pii(ds):
    """Deterministically append synthetic PII spans to a doc_id-keyed
    corpus (the sandbox corpus contains none) so the redaction path
    has real work; mirrored 1:1 by :func:`inject_pii_sql`. Every
    arithmetic piece is integer, so the constructed strings are
    byte-identical across engines."""

    def add(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["doc_id"]
        ds_ = d.astype(str)
        s = batch["text"]
        s = s + (" contact user" + ds_ + "@mail.example.com now").where(
            d % 5 == 0, ""
        )
        s = s + (
            " server 10."
            + (d % 200).astype(str)
            + "."
            + (d * 7 % 200).astype(str)
            + "."
            + (d % 250).astype(str)
            + " up"
        ).where(d % 7 == 0, "")
        s = s + (
            " call 555-"
            + (100 + d % 900).astype(str)
            + "-"
            + (1000 + d % 9000).astype(str)
            + " today"
        ).where(d % 11 == 0, "")
        batch["text"] = s
        return batch

    return ds.map_batches(add, batch_format="pandas")


def inject_pii_sql(text_expr: str = "text", id_expr: str = "doc_id") -> str:
    """The SQL expression mirroring :func:`inject_pii` (DuckDB `||`
    concat; 100+id%900 / 1000+id%9000 are always 3/4 digits so no
    padding is needed)."""
    return (
        f"{text_expr} || "
        f"(CASE WHEN {id_expr} % 5 = 0 THEN ' contact user' || {id_expr} || "
        "'@mail.example.com now' ELSE '' END) || "
        f"(CASE WHEN {id_expr} % 7 = 0 THEN ' server 10.' || ({id_expr} % 200) || "
        f"'.' || ({id_expr} * 7 % 200) || '.' || ({id_expr} % 250) || ' up' "
        "ELSE '' END) || "
        f"(CASE WHEN {id_expr} % 11 = 0 THEN ' call 555-' || "
        f"(100 + {id_expr} % 900) || '-' || (1000 + {id_expr} % 9000) || "
        "' today' ELSE '' END)"
    )


def pii_redact_sql(source_sql: str) -> str:
    """Sequential count+replace mirror of :class:`PiiRedact` as a CTE
    chain over ``source_sql`` (must yield doc_id, t)."""
    steps = []
    prev = "s0"
    for i, (name, rx, repl) in enumerate(PATTERNS, start=1):
        # single-quoted SQL literal: only quotes need escaping
        lit = rx.replace("'", "''")
        steps.append(
            f"s{i} AS (SELECT * REPLACE (regexp_replace(t, '{lit}', '{repl}', 'g') AS t), "
            f"length(regexp_extract_all(t, '{lit}')) AS n_{name} FROM {prev})"
        )
        prev = f"s{i}"
    return (
        f"WITH s0 AS ({source_sql}), " + ", ".join(steps) + " "
        f"SELECT doc_id, n_email, n_ipv4, n_phone, t AS text_redacted FROM {prev}"
    )


# ------------------------------------------------- pseudonymization

PSEUDO_P = (1 << 61) - 1  # Mersenne prime: x -> (a*x + b) mod p is a
PSEUDO_A = 2_862_933_555_777_941_757  # bijection for ids < p, so joins
PSEUDO_B = 3_037_000_493  # and distinct-counts survive tokenization


def pseudonymize(ds, cols: list[str], a: int = PSEUDO_A, b: int = PSEUDO_B):
    """Deterministic keyed pseudonymization of integer identifier
    columns: token = (a*x + b) mod p (affine bijection over the
    Mersenne-61 field — collision-free, so equality joins, groupbys
    and distinct counts on the tokenized table equal the raw table's,
    which is the whole point of pseudonymized analytics). Map-only,
    key broadcast by closure. A production deployment swaps the
    affine map for keyed SipHash/FF1 behind the SAME stage contract;
    the affine form keeps the oracle value-exact."""

    import pyarrow as pa

    def tok(t: "pa.Table") -> "pa.Table":
        out = t
        for c in cols:
            # object-int elementwise keeps the 122-bit product exact
            # (the a*x intermediate overflows int64); ids are slim
            x = out.column(c).to_numpy(zero_copy_only=False).astype(object)
            v = ((x * a + b) % PSEUDO_P).astype(np.int64)
            idx = out.column_names.index(c)
            out = out.set_column(idx, c, pa.array(v, pa.int64()))
        return out

    return ds.map_batches(tok, batch_format="pyarrow")


def pseudonymize_sql_expr(col: str, a: int = PSEUDO_A, b: int = PSEUDO_B) -> str:
    """DuckDB mirror of one pseudonymized column (HUGEINT mod-p)."""
    return (
        f"CAST(((CAST({col} AS HUGEINT) * {a} + {b}) % {PSEUDO_P}) AS BIGINT)"
    )
