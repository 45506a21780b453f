"""Distributed PCA over the embeddings table.

The classic scale shape for covariance-based PCA: the WIDE data never
gathers — only d x d second-moment partials do (d = embedding dim,
bounded; 64 here -> a few KB per partial). Three stages:

1. **Partial moments** (map-only): each batch quantizes every vector
   to int64 micro-units (``round(x * 2^20)``, the classifier.py
   precedent), then integer-sums count / sum / upper-triangular outer
   products WITHIN the batch. Integer addition is associative and
   commutative, so the global totals are BIT-IDENTICAL for any
   batching / partitioning / cluster size (pinned in tests).
2. **Driver reduce + eigh**: one partial row per batch reaches the
   driver (d*(d+1)/2 + d + 1 int64s each — corpus-independent row
   width; at extreme block counts reduce them in a tree like
   ``pack_sequences``). Mean and covariance are reconstructed in
   float64 from the exact integer moments; ``numpy.linalg.eigh`` on
   the d x d matrix yields the principal axes. Sign convention:
   each component's largest-|coefficient| entry is made positive
   (eigenvectors are sign-ambiguous otherwise).
3. **Project** (map-only): the projection callable carries the mean
   and components; each batch computes ``(X - mean) @ W`` vectorized.

Rows-only query (eigendecomposition is not SQL); pytest pins the
projection against a single-process numpy PCA on the same quantized
moments, plus partition-invariance and variance-ordering axioms.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

Q = float(1 << 20)  # quantization scale (micro-units)


def _embed_matrix(t: pa.Table, vec_col: str) -> np.ndarray:
    col = t.column(vec_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.values.to_numpy(zero_copy_only=False).astype(np.float64)
    d = len(col[0])
    return flat.reshape(-1, d)


def _partial_moments(t: pa.Table, vec_col: str) -> pa.Table:
    x = _embed_matrix(t, vec_col)
    qx = np.rint(x * Q).astype(np.int64)  # per-ROW quantization: batching-proof
    d = qx.shape[1]
    iu = np.triu_indices(d)
    # integer second moments: sum over rows of outer(qx, qx) upper tri.
    # (qx^T @ qx in int64 — exact while n * (2^20 * |x|)^2 < 2^63;
    # unit-norm embeddings give ~2^40 per term -> ~8M rows per batch
    # headroom, far above any batch size)
    outer = (qx.T @ qx)[iu]
    return pa.table(
        {
            "n": pa.array([np.int64(qx.shape[0])]),
            "s": pa.array([qx.sum(axis=0)], pa.list_(pa.int64())),
            "o": pa.array([outer], pa.list_(pa.int64())),
        }
    )


def fit_pca(ds, vec_col: str = "embedding", k: int = 2):
    """Exact moments -> (mean, components). Driver sees one slim row
    per batch, never a vector row."""
    parts = ds.map_batches(
        lambda t: _partial_moments(t, vec_col), batch_format="pyarrow"
    ).to_pandas()
    n = int(parts["n"].sum())
    if n < 2:
        raise ValueError("PCA needs at least 2 vectors")
    s = np.sum(np.stack(parts["s"].to_numpy()), axis=0).astype(np.int64)
    o = np.sum(np.stack(parts["o"].to_numpy()), axis=0).astype(np.int64)
    d = len(s)
    iu = np.triu_indices(d)
    second = np.zeros((d, d), dtype=np.float64)
    second[iu] = o
    second = second + np.triu(second, 1).T
    mean_q = s.astype(np.float64) / n
    # cov = E[xx^T] - mean mean^T, all from exact integer moments
    cov = (second / n - np.outer(mean_q, mean_q)) / (Q * Q)
    mean = mean_q / Q
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:k]
    comps = v[:, order]
    # sign convention: largest-|coeff| entry of each component positive
    flips = np.sign(comps[np.argmax(np.abs(comps), axis=0), np.arange(comps.shape[1])])
    flips[flips == 0] = 1.0
    comps = comps * flips
    return mean, comps, w[order]


def pca_moment_table(ds, vec_col: str = "embedding") -> pa.Table:
    """The exact int64 moment totals PCA eigendecomposes — as a
    canonical (i, j, m) table so the distributed moment machinery is
    SQL-hash-checkable (VERDICT r4 #5: the residue of the rows-only
    q_pca_project): row (-1,-1) holds n, rows (i,-1) hold the
    per-dimension quantized sums, rows (i,j) with i<=j hold the
    upper-triangular second moments. Integer addition is associative,
    so these totals are BIT-IDENTICAL under any partitioning — and
    DuckDB's CAST(double AS BIGINT) rounds half-to-even exactly like
    ``np.rint``, so the quantization mirrors too."""
    parts = ds.map_batches(
        lambda t: _partial_moments(t, vec_col), batch_format="pyarrow"
    ).to_pandas()
    n = int(parts["n"].sum())
    s = np.sum(np.stack(parts["s"].to_numpy()), axis=0).astype(np.int64)
    o = np.sum(np.stack(parts["o"].to_numpy()), axis=0).astype(np.int64)
    d = len(s)
    ii, jj = np.triu_indices(d)
    i_col = np.concatenate(([np.int64(-1)], np.arange(d, dtype=np.int64), ii))
    j_col = np.concatenate(
        ([np.int64(-1)], np.full(d, -1, dtype=np.int64), jj)
    )
    m_col = np.concatenate(([np.int64(n)], s, o))
    return pa.table(
        {
            "i": pa.array(i_col, pa.int64()),
            "j": pa.array(j_col, pa.int64()),
            "m": pa.array(m_col, pa.int64()),
        }
    )


def pca_project(ds, vec_col: str = "embedding", id_col: str = "vec_id", k: int = 2):
    """Fit on the dataset, then map-only project every vector onto the
    top-k principal axes. Returns (id, pc1..pck) rounded to 9 dp."""
    mean, comps, _ = fit_pca(ds, vec_col, k)

    def project(t: pa.Table) -> pa.Table:
        x = _embed_matrix(t, vec_col)
        p = np.round((x - mean) @ comps, 9)
        cols = {id_col: t.column(id_col)}
        for j in range(p.shape[1]):
            cols[f"pc{j + 1}"] = pa.array(p[:, j])
        return pa.table(cols)

    return ds.map_batches(project, batch_format="pyarrow")
