"""The dedup family picks its shape by size: small inputs run in one
Ray task, huge ones fall back to fully-distributed co-group /
label-propagation paths. The fallbacks must produce IDENTICAL results
— forced here by setting the size limits to 0."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from lasutility_ray.stages import dedup
from lasutility_ray.stages.dedup import (
    _verify_pairs_jaccard,
    duplicate_components,
    minhash_candidate_pairs,
)


def _pages(n=120, dup_every=6):
    texts = []
    for i in range(n):
        base = " ".join(f"w{i}tok{j}" for j in range(25))
        texts.append(base)
    for d in range(dup_every - 1, n, dup_every):
        texts[d] = texts[d - 1]  # exact duplicate of the previous doc
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(np.arange(n), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )


def test_verify_fallback_matches_small_path(ray_session, monkeypatch):
    ds = _pages()
    cands = minhash_candidate_pairs(ds, "doc_id", "text", distinct=True).materialize()

    small = (
        _verify_pairs_jaccard(cands, ds, "doc_id", "text", 0.8)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    # a zero limit forces the co-grouped lookup_join path
    monkeypatch.setattr(dedup, "VERIFY_SMALL_LIMIT", 0)
    big = (
        _verify_pairs_jaccard(cands, ds, "doc_id", "text", 0.8)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    assert len(small) > 0
    assert small[["a", "b"]].values.tolist() == big[["a", "b"]].values.tolist()
    np.testing.assert_allclose(small["jaccard"], big["jaccard"])


def test_components_fallback_matches_local_path(ray_session, monkeypatch):
    # components: chain {1..4}, edge {10,11}, star {20,21,22}
    pairs = rd.from_arrow(
        pa.table(
            {
                "a": pa.array([1, 2, 3, 10, 20, 20], pa.int64()),
                "b": pa.array([2, 3, 4, 11, 21, 22], pa.int64()),
            }
        )
    )
    want = {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 20: 20, 21: 20, 22: 20}

    local = duplicate_components(pairs).to_pandas()
    assert dict(zip(local["node"], local["component"])) == want

    # a zero limit forces the distributed label-propagation loop
    monkeypatch.setattr(dedup, "LOCAL_CC_EDGE_LIMIT", 0)
    dist = duplicate_components(pairs).to_pandas()
    assert dict(zip(dist["node"], dist["component"])) == want


def test_embed_lsh_exact_fast_path_matches_lsh(ray_session):
    """Size-adaptive embedding pairs: the one-task exact fast path
    (default below EXACT_EMBED_PAIRS_LIMIT vectors) and the forced
    banded-LSH path must produce the same pair set on the fixture
    (LSH recall is 1.0 there), with identical schema and cosines."""
    import ray.data as rd

    from lasutility_ray.stages.dedup import embedding_lsh_pairs

    emb = rd.read_parquet(
        "/root/testdata/sf0.01/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    fast = (
        embedding_lsh_pairs(emb, threshold=0.45)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    lsh = (
        embedding_lsh_pairs(emb, threshold=0.45, exact_limit=0)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    import pandas as pd

    assert set(fast.columns) == set(lsh.columns)
    pd.testing.assert_frame_equal(fast[["a", "b", "cosine"]], lsh[["a", "b", "cosine"]])
