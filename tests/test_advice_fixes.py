"""Regression tests for the round-1 ADVICE findings.

- _simhash_batch IndexError on trailing empty docs (medium);
- HLL string hashing must use full content, not a 16-byte prefix (low);
- LAZ chunk_size <= 0 must not hang (low);
- _PartialPeaks empty-concatenate when all tiles out of range (low).
"""

import struct

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd


# ------------------------------------------------- simhash empties


def test_simhash_batch_with_trailing_empty_docs():
    from lasutility_ray.stages.dedup import _simhash_batch

    out = _simhash_batch(["hello world", ""])
    assert out.shape == (2,)
    assert out[0] != 0 and out[1] == 0

    out = _simhash_batch(["", "a b c", "   ", "a b c", ""])
    assert out[1] == out[3] != 0
    assert out[0] == out[2] == out[4] == 0

    assert list(_simhash_batch([])) == []
    assert list(_simhash_batch(["", ""])) == [0, 0]


# ------------------------------------------------- HLL full hash


def test_hll_string_hash_uses_full_content():
    from lasutility_ray.stages.sketch import _hash_column

    # same 16-byte prefix, same length — the old prefix hash collided
    urls = [f"https://example.com/page/{i:06d}" for i in range(1000)]
    h = _hash_column(pa.array(urls))
    assert len(np.unique(h)) == len(urls)


def test_hll_estimate_on_common_prefix_urls(ray_session):
    from lasutility_ray.stages.sketch import hll_count_distinct

    urls = [f"https://example.com/page/{i % 700:06d}" for i in range(5000)]
    ds = rd.from_arrow(pa.table({"url": pa.array(urls)}))
    est = hll_count_distinct(ds, "url")["estimate"].iloc[0]
    assert abs(est - 700) / 700 < 0.05


# ------------------------------------------------- LAZ chunk_size


LAZ_FIXTURE = (
    "/root/reference/LasUtility.Tests/TestFiles/Triangulation/"
    "AddPointCloudAndTriangulate/Input/Q5232E1_cropped.laz"
)


def _patch_chunk_size(data: bytes, new_value: int) -> bytes:
    """Return a copy of the LAZ bytes with the laszip VLR chunk_size
    field overwritten."""
    (hdr_size,) = struct.unpack_from("<H", data, 94)
    (n_vlr,) = struct.unpack_from("<I", data, 100)
    off = hdr_size
    for _ in range(n_vlr):
        user_id = data[off + 2 : off + 18].rstrip(b"\0")
        (record_id,) = struct.unpack_from("<H", data, off + 18)
        (rec_len,) = struct.unpack_from("<H", data, off + 20)
        payload = off + 54
        if user_id == b"laszip encoded" and record_id == 22204:
            out = bytearray(data)
            struct.pack_into("<I", out, payload + 12, new_value & 0xFFFFFFFF)
            return bytes(out)
        off = payload + rec_len
    raise AssertionError("laszip VLR not found in fixture")


@pytest.mark.skipif(
    not __import__("os").path.exists(LAZ_FIXTURE), reason="reference fixture missing"
)
def test_laz_unchunked_chunk_size_reads_as_one_chunk(tmp_path):
    from lasutility_ray.sources.laz import read_laz_points

    raw = open(LAZ_FIXTURE, "rb").read()
    want = read_laz_points(LAZ_FIXTURE)

    # U32_MAX = "no chunking" => one chunk of npoints; the fixture has
    # fewer points than its declared chunk size so decode is identical
    p = tmp_path / "unchunked.laz"
    p.write_bytes(_patch_chunk_size(raw, 0xFFFFFFFF))
    got = read_laz_points(str(p))
    for k in want:
        np.testing.assert_array_equal(want[k], got[k])

    # chunk_size == 0 is invalid: clean error, not an infinite loop
    p2 = tmp_path / "zero.laz"
    p2.write_bytes(_patch_chunk_size(raw, 0))
    with pytest.raises(NotImplementedError):
        read_laz_points(str(p2))


# ------------------------------------------------- banded LSH recall


def test_embedding_lsh_banded_recall(ray_session):
    """VERDICT #1: the round-1 AND-only 8-plane LSH found 0 of the 14
    true cosine>=0.45 pairs. The banded OR-construction must recover
    (nearly) all of them; verified pairs can never be false positives."""
    import ray.data as rd

    from lasutility_ray.stages.dedup import embedding_lsh_pairs, embedding_nn_pairs

    emb = rd.read_parquet(
        "/root/testdata/sf0.01/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    exact = embedding_nn_pairs(emb, threshold=0.45).to_pandas()
    # exact_limit=0: force the real LSH path (the point of this test)
    lsh = embedding_lsh_pairs(emb, threshold=0.45, exact_limit=0).to_pandas()
    t = set(zip(exact["a"], exact["b"]))
    a = set(zip(lsh["a"], lsh["b"]))
    assert len(t) > 0
    assert not (a - t), "bucket-verified pairs must be a subset of the exact pairs"
    assert len(t & a) / len(t) >= 0.8


# ------------------------------------------------- ngram exactness


def test_ngram_prefix_filter_boundary_pair(ray_session):
    """A subset pair with J exactly == threshold: |A|=8 of |B|=10
    shingles gives J = 8/10 = 0.8. Float prefix-length arithmetic
    (int((1-0.8)*10)+1 == 2, not 3) silently dropped such pairs; the
    integer-exact prefix length and the epsilon-guarded length filter
    must keep them."""
    import pyarrow as pa

    import ray.data as rd

    from lasutility_ray.stages.dedup import jaccard, ngram_jaccard_pairs

    words = [f"tok{i}" for i in range(12)]
    text_b = " ".join(words)  # 10 word-trigram shingles
    text_a = " ".join(words[:10])  # 8 shingles, all contained in B
    assert jaccard(text_a, text_b) == 0.8

    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array([text_a, text_b], pa.string()),
            }
        )
    )
    out = ngram_jaccard_pairs(ds, threshold=0.8).to_pandas()
    assert set(zip(out["a"], out["b"])) == {(1, 2)}
    assert float(out["jaccard"].iloc[0]) == 0.8


# ------------------------------------------------- peaks empty mask


def test_partial_peaks_all_tiles_out_of_range():
    from lasutility_ray.stages.neighborhood import _PartialPeaks

    batch = pa.table(
        {
            "x": pa.array([5000.0, 5010.0]),  # < MIN_ALLOWED_EAST
            "y": pa.array([5000.0, 5010.0]),
            "z": pa.array([1.0, 2.0]),
            "classification": pa.array(np.array([3, 3], dtype=np.uint8)),
        }
    )
    out = _PartialPeaks(3, 5, 2)(batch)
    assert out.num_rows == 0
    assert out.column_names == ["tile_id", "gr", "gc", "best"]


# ------------------------------------------------- k-ring halo


def test_knn_kring_halo_radius_beyond_tile(ray_session):
    """radius > tile edge used to raise; the k-ring halo must produce
    the exact global brute-force answer."""
    import pyarrow as pa

    import ray.data as rd

    from lasutility_ray.stages.knn import knn_join

    rng = np.random.default_rng(11)
    n = 400
    x = rng.uniform(356000, 356000 + 4000, n)  # spans 4 tiles per axis
    y = rng.uniform(6706000, 6706000 + 4000, n)
    ids = np.arange(n, dtype=np.int64)
    from lasutility_ray.geom.tilenamer import encode

    pts = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids),
                "x": pa.array(x),
                "y": pa.array(y),
                "tile_id": pa.array(encode(x, y, 1000), pa.string()),
            }
        )
    )
    radius, k = 2500.0, 4
    out = (
        knn_join(pts, lambda d: d % 40 == 0, k=k, radius=radius)
        .to_pandas()
        .sort_values(["q_doc_id", "rank"])
        .reset_index(drop=True)
    )

    # global brute force
    rows = []
    r2 = radius * radius
    for q in ids[ids % 40 == 0]:
        d2 = (x - x[q]) ** 2 + (y - y[q]) ** 2
        m = (d2 <= r2) & (ids != q)
        cd, ci = d2[m], ids[m]
        order = np.lexsort((ci, cd))[:k]
        for r, o in enumerate(order, 1):
            rows.append((q, ci[o], r, cd[o]))
    assert len(out) == len(rows)
    got = list(zip(out["q_doc_id"], out["neighbor_id"], out["rank"]))
    want = [(a, b, r) for a, b, r, _ in rows]
    assert got == want


def test_laz_malformed_streams_raise_value_error(tmp_path):
    """Fuzz-pinned: truncated/bit-flipped LAS/LAZ must raise the
    reader's typed data errors, never bare IndexError/struct.error."""
    import numpy as np
    import pytest

    from lasutility_ray.sources.laz import read_laz_points

    path = (
        "/root/reference/LasUtility.Tests/TestFiles/Triangulation/"
        "AddPointCloudAndTriangulate/Input/Q5232E1_cropped.laz"
    )
    import os

    if not os.path.exists(path):
        pytest.skip("reference fixture not present")
    good = open(path, "rb").read()
    p = tmp_path / "bad.laz"
    for i in (100, 500, 2500, len(good) // 2):
        p.write_bytes(good[:i])
        with pytest.raises((ValueError, NotImplementedError, EOFError)):
            read_laz_points(str(p))
    # cutting only the TRAILING chunk table is benign: the point data
    # is intact, and the reader falls back to sequential decode
    p.write_bytes(good[: len(good) - 7])
    read_laz_points(str(p))
    for seed in range(25):
        r = np.random.default_rng(seed)
        g = bytearray(good)
        for _ in range(5):
            g[r.integers(0, len(g))] = r.integers(0, 256)
        p.write_bytes(bytes(g))
        try:
            read_laz_points(str(p))  # some flips decode fine
        except (ValueError, NotImplementedError, EOFError):
            pass


def test_msgpack_malformed_streams_raise_value_error(tmp_path):
    """Fuzz-pinned: truncated/bit-flipped snapshots raise ValueError,
    never bare IndexError/struct.error/TypeError."""
    import glob
    import os

    import numpy as np
    import pytest

    from lasutility_ray.sources.msgpack_snapshot import load_voxel_snapshot

    objs = glob.glob(
        "/root/reference/LasUtility.Tests/TestFiles/**/points.obj", recursive=True
    )
    if not objs:
        pytest.skip("reference fixture not present")
    good = open(objs[0], "rb").read()
    p = tmp_path / "bad.obj"
    for i in (1, 10, len(good) // 3, len(good) - 5):
        p.write_bytes(good[:i])
        with pytest.raises((ValueError, NotImplementedError, EOFError)):
            load_voxel_snapshot(str(p))
    for seed in range(20):
        r = np.random.default_rng(seed)
        g = bytearray(good)
        for _ in range(5):
            g[r.integers(0, len(g))] = r.integers(0, 256)
        p.write_bytes(bytes(g))
        try:
            load_voxel_snapshot(str(p))  # benign flips may decode
        except (ValueError, NotImplementedError, EOFError):
            pass
