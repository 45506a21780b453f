"""Per-shard Bloom index for POINT lookups over a sharded Parquet
lake: beside every data shard sits a tiny ``.bloom`` sidecar (bit
array of the shard's keys, the bloomjoin double-hash scheme). A
point-lookup for K keys then opens ONLY the shards whose filter
might hold one of them — at 100 TB the sidecars are the megabytes
the driver can afford to scan, and false positives cost one wasted
shard read each, never correctness (the exact in-shard filter runs
after).

Complements state/clustered.py: zone maps prune RANGES, blooms prune
POINT sets a range layout scatters everywhere."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..stages.bloomjoin import _positions

M_BITS = 1 << 16
K_HASHES = 6


def write_indexed_shards(
    ds, path: str, key_col: str, rows_per_shard: int = 128
) -> str:
    """Dataset -> ``path/shard-*.parquet`` + ``.bloom`` sidecars."""
    os.makedirs(path, exist_ok=True)

    def dump(t: pa.Table) -> pa.Table:
        import uuid

        names = []
        for off in range(0, t.num_rows, rows_per_shard):
            part = t.slice(off, rows_per_shard)
            bits = np.zeros(M_BITS, dtype=bool)
            keys = part.column(key_col).to_numpy().astype(np.uint64)
            bits[_positions(keys, M_BITS, K_HASHES).ravel()] = True
            name = os.path.join(path, f"shard-{uuid.uuid4().hex}")
            pq.write_table(part, name + ".parquet.tmp")
            np.packbits(bits).tofile(name + ".bloom.tmp")
            os.replace(name + ".parquet.tmp", name + ".parquet")
            os.replace(name + ".bloom.tmp", name + ".bloom")
            names.append(name)
        return pa.table({"shard": pa.array(names, pa.string())})

    ds.map_batches(dump, batch_format="pyarrow").materialize()
    return path


def point_lookup(path: str, key_col: str, keys: np.ndarray):
    """Exact rows for ``keys``: bloom sidecars prune the shard list,
    the surviving shards scan with the exact key filter."""
    import ray.data as rd

    keys = np.asarray(keys, dtype=np.int64)
    pos = _positions(keys.astype(np.uint64), M_BITS, K_HASHES)  # (k, n)
    survivors = []
    n_total = 0
    for f in sorted(os.listdir(path)):
        if not f.endswith(".bloom"):
            continue
        n_total += 1
        bits = np.unpackbits(
            np.fromfile(os.path.join(path, f), dtype=np.uint8)
        ).astype(bool)
        # a key may be present iff ALL k positions are set
        if bits[pos].all(axis=0).any():
            survivors.append(os.path.join(path, f[: -len(".bloom")] + ".parquet"))
    if not survivors:
        return rd.from_arrow(pa.table({key_col: pa.array([], pa.int64())})), 0, n_total
    ds = rd.read_parquet(survivors)
    ks = np.sort(keys)

    def exact(t: pa.Table) -> pa.Table:
        v = t.column(key_col).to_numpy()
        idx = np.searchsorted(ks, v)
        idx = np.minimum(idx, len(ks) - 1)
        return t.filter(pa.array(ks[idx] == v))

    return ds.map_batches(exact, batch_format="pyarrow"), len(survivors), n_total
