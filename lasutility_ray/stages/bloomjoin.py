"""Bloom-filter semi-join — the classic distributed join optimization:
a compact bitmap over the (filtered) RIGHT side's keys is broadcast
once and pre-filters the LEFT side BEFORE its rows enter the shuffle,
so the exchange carries only probable matches. False positives are
possible (never negatives), so a final in-cluster exact verify
(`cogroup.lookup_join`) makes the result EQUAL to the plain semi-join
— which is exactly what the prune-free SQL oracle checks.

At 100 TB this is the difference between shuffling the whole fact
table and shuffling ~|matches| rows: the bitmap is O(m) bits no
matter how large either side grows (`contamination.eval_bloom`
precedent), and the prefilter is a pure map.

Hashing: integer keys use the same Kirsch-Mitzenmacher double-hash
construction as the contamination bloom, seeded from a
splitmix-style int64 mix (vectorized, no python loop).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

BLOOM_M = 1 << 20  # bits
BLOOM_K = 6

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _positions(keys: np.ndarray, m: int, k: int) -> np.ndarray:
    h = _mix64(keys)
    h1 = h % np.uint64(m)
    h2 = (h >> np.uint64(32)) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)[:, None]
    return ((h1[None, :] + i * h2[None, :]) % np.uint64(m)).astype(np.int64)


def _build_bloom(right_ds, right_key: str, m: int, k: int) -> np.ndarray:
    def partial(t: pa.Table) -> pa.Table:
        keys = t.column(right_key).to_numpy(zero_copy_only=False).astype(np.int64)
        bm = np.zeros(m // 8, np.uint8)
        if len(keys):
            pos = _positions(np.unique(keys), m, k).ravel()
            np.bitwise_or.at(bm, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
        return pa.table({"bm": pa.array([bm.tobytes()], pa.large_binary())})

    out = np.zeros(m // 8, np.uint8)
    for b in right_ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for buf in b.column("bm").to_pylist():
            out |= np.frombuffer(buf, dtype=np.uint8)
    return out


class _BloomPrefilter:
    def __init__(self, bm: np.ndarray, key_col: str, m: int, k: int):
        self.bm = bm
        self.key_col, self.m, self.k = key_col, m, k

    def __call__(self, t: pa.Table) -> pa.Table:
        keys = t.column(self.key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        pos = _positions(keys, self.m, self.k)
        hit = np.ones(len(keys), bool)
        for i in range(self.k):
            p = pos[i]
            hit &= (self.bm[p >> 3] & (np.uint8(1) << (p & 7).astype(np.uint8))) != 0
        return t.filter(pa.array(hit))


def bloom_semi_join(
    left_ds,
    right_ds,
    left_key: str,
    right_key: str,
    m: int = BLOOM_M,
    k: int = BLOOM_K,
):
    """Rows of ``left_ds`` whose ``left_key`` appears in ``right_ds``:
    broadcast-bloom prefilter (pure map) then exact lookup_join verify
    over the surviving minority."""
    from .cogroup import lookup_join

    bloom = _build_bloom(right_ds, right_key, m, k)
    survivors = left_ds.map_batches(
        _BloomPrefilter(bloom, left_key, m, k), batch_format="pyarrow"
    )
    keys = right_ds.select_columns([right_key]).map_batches(
        lambda t: pa.table(
            {
                "__k": t.column(right_key).cast(pa.int64()).unique(),
            }
        ),
        batch_format="pyarrow",
    ).groupby("__k").count().map_batches(
        lambda t: t.append_column("__one", pa.array(np.ones(len(t), np.int64))),
        batch_format="pyarrow",
    )
    verified = lookup_join(
        survivors,
        keys,
        left_key=left_key,
        right_key="__k",
        attach={"__one": "__m"},
    )
    return verified.drop_columns(["__m"])
