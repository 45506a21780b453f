"""Property-based tests (hypothesis) for the conformance-critical
kernels: tile codec round trip, RLE codec round trip, PNG round trip,
PIP kernel vs a scalar oracle, bounds projection invariants.

The reference's suite is unit+golden only (SURVEY.md §5); properties
harden the same semantics against the full input space. No Ray.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lasutility_ray.geom import tilenamer
from lasutility_ray.geom.bounds import EPSILON, RasterBounds
from lasutility_ray.geom.pip import points_in_polygon
from lasutility_ray.geom.png import decode_grey_png, encode_grey_png
from lasutility_ray.geom.rle import rle_decode_row, rle_encode_row

coords = st.tuples(
    st.floats(min_value=tilenamer.MIN_ALLOWED_EAST, max_value=691999.99,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=tilenamer.MIN_ALLOWED_NORTH, max_value=7817999.99,
              allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(coords, st.sampled_from([1000, 3000, 6000, 12000, 24000, 48000, 96000]))
def test_tile_encode_decode_roundtrip(xy, size):
    """decode(encode(p)) is an envelope of the requested size that
    contains p (the codec's defining invariant)."""
    x, y = xy
    name = str(tilenamer.encode(np.array([x]), np.array([y]), size)[0])
    min_e, min_n, max_e, max_n = tilenamer.decode(name)
    assert max_n - min_n == size
    assert min_e <= x < max_e
    assert min_n <= y < max_n


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=400))
def test_rle_roundtrip(vals):
    row = np.array(vals, dtype=np.uint8)
    assert (rle_decode_row(rle_encode_row(row), len(row)) == row).all()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_png_roundtrip(h, w, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (h, w), dtype=np.uint8)
    assert (decode_grey_png(encode_grey_png(data)) == data).all()


def _pip_scalar(px, py, ring):
    """Slow scalar even-odd oracle."""
    inside = False
    n = len(ring)
    j = n - 1
    for i in range(n):
        yi, yj = ring[i][1], ring[j][1]
        if (yi <= py) != (yj <= py):
            xs = ring[j][0] + (py - yj) / (yi - yj) * (ring[i][0] - ring[j][0])
            if xs < px:
                inside = not inside
        j = i
    return inside


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 10, allow_nan=False), st.floats(0, 10, allow_nan=False)),
        min_size=3,
        max_size=8,
    ),
    st.tuples(st.floats(-1, 11, allow_nan=False), st.floats(-1, 11, allow_nan=False)),
)
def test_pip_matches_scalar_oracle(ring_pts, probe):
    ring = np.array(ring_pts + [ring_pts[0]], dtype=np.float64)
    px, py = probe
    got = points_in_polygon(np.array([px]), np.array([py]), ring)[0]
    want = _pip_scalar(px, py, ring[:-1])
    assert got == want


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0, 999.999, allow_nan=False),
    st.floats(0, 999.999, allow_nan=False),
)
def test_bounds_projection_invariants(dx, dy):
    """Half-open semantics: every in-extent coordinate maps to a
    valid cell whose [bottom-left, top-right) window contains it."""
    b = RasterBounds(100, 100, 0.0, 0.0, 1000.0, 1000.0)
    rows, cols, valid = b.proj_to_cell(np.array([dx]), np.array([dy]))
    assert valid[0]
    x0, y0 = b.cell_bottom_left(rows, cols)
    assert x0[0] <= dx < x0[0] + b.cell_width + 1e-9
    assert y0[0] <= dy < y0[0] + b.cell_height + 1e-9
    # the max edge is outside; max - epsilon is the last cell
    r2, c2, v2 = b.proj_to_cell(np.array([1000.0]), np.array([1000.0]))
    assert not v2[0]
    r3, c3, v3 = b.proj_to_cell(np.array([1000.0 - EPSILON]), np.array([1000.0 - EPSILON]))
    assert v3[0] and r3[0] == 99 and c3[0] == 99


# ------------------------------------------------------ LAZ codec

_laz_n = st.integers(min_value=1, max_value=120)


@settings(max_examples=40, deadline=None)
@given(
    n=_laz_n,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    span=st.sampled_from([1.0, 100.0, 100000.0]),
    base=st.sampled_from([-50000.0, 0.0, 1e6]),
    chunk=st.sampled_from([1, 7, 50000]),
    with_gps=st.booleans(),
    with_rgb=st.booleans(),
)
def test_laz_roundtrip_property(tmp_path_factory, n, seed, span, base, chunk,
                                with_gps, with_rgb):
    """write_laz -> read_laz_points is lossless on grid-quantized
    inputs across coordinate magnitudes, signs, chunk sizes and item
    combinations — including extreme intensity/classification values
    and duplicate points (the arithmetic coder's worst cases are
    long runs of identical or wildly-jumping values)."""
    import os
    import tempfile

    from lasutility_ray.sources.laz import read_laz_points
    from lasutility_ray.sources.laz_writer import write_laz

    rng = np.random.default_rng(seed)
    x = base + np.round(rng.uniform(0, span, n) / 0.01) * 0.01
    y = base + np.round(rng.uniform(0, span, n) / 0.01) * 0.01
    z = np.round(rng.uniform(-100, 100, n) / 0.01) * 0.01
    # force duplicate runs: repeat the first point over a random slice
    if n >= 4:
        k = int(rng.integers(1, n // 2 + 1))
        x[1 : 1 + k] = x[0]
        y[1 : 1 + k] = y[0]
        z[1 : 1 + k] = z[0]
    cls = rng.integers(0, 256, n).astype(np.uint8)
    inten = rng.choice(
        np.array([0, 1, 65534, 65535], dtype=np.uint16), n
    )
    gps = np.sort(rng.uniform(-1e7, 1e7, n)) if with_gps else None
    rgb = (
        tuple(rng.integers(0, 65536, n).astype(np.uint16) for _ in range(3))
        if with_rgb
        else None
    )
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "prop.laz")
        write_laz(p, x, y, z, cls, inten, gps_time=gps, rgb=rgb, chunk_size=chunk)
        got = read_laz_points(p)
    assert got["n_points"] == n
    np.testing.assert_allclose(got["x"], x, rtol=1e-12, atol=1e-8)
    np.testing.assert_allclose(got["y"], y, rtol=1e-12, atol=1e-8)
    np.testing.assert_allclose(got["z"], z, rtol=1e-12, atol=1e-8)
    assert (got["classification"] == cls).all()
    assert (got["intensity"] == inten).all()
    if with_gps:
        assert (got["gps_time"] == gps).all()
    if with_rgb:
        for i, c in enumerate(("red", "green", "blue")):
            assert (got[c] == rgb[i]).all()


class TestHeavyHitters:
    def _docs(self, rd):
        import pandas as pd

        import numpy as np

        # skewed corpus: token "t0" dominates, long tail after
        rng = np.random.default_rng(0)
        words = [f"t{i}" for i in rng.zipf(1.5, 8000) if i < 500]
        texts = [" ".join(words[i : i + 40]) for i in range(0, len(words) - 40, 40)]
        return rd.from_pandas(pd.DataFrame({"doc_id": range(len(texts)), "text": texts})), texts

    def test_mg_guarantee_under_truncation(self, ray_session):
        import re

        from collections import Counter

        import ray.data as rd

        from lasutility_ray.stages.sketch import heavy_hitters

        ds, texts = self._docs(rd)
        got = heavy_hitters(ds, k=15, capacity=16)  # tiny capacity forces truncation
        true = Counter()
        for t in texts:
            true.update(re.findall(r"[a-z0-9]+", t.lower()))
        err = int(got["max_error"].iloc[0])
        assert err > 0  # truncation actually happened
        for _, row in got.iterrows():
            tc = true[row["token"]]
            assert row["est_count"] <= tc <= row["est_count"] + err, row["token"]
        # MG completeness: anything with true count > max_error must be
        # present in the CAPACITY-sized summary; check via the top-k
        # slice only for tokens big enough to be in it
        top_true = sorted(true.values(), reverse=True)
        if top_true[0] > err:
            assert true[got["token"].iloc[0]] == top_true[0]

    def test_mg_exact_when_capacity_exceeds_vocab(self, ray_session):
        import ray.data as rd

        from lasutility_ray.stages.chunking import token_topk
        from lasutility_ray.stages.sketch import heavy_hitters

        docs = rd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
        )
        approx = heavy_hitters(docs, k=10, capacity=4096)
        assert int(approx["max_error"].iloc[0]) == 0
        docs = rd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
        )
        exact = token_topk(docs, k=10)
        assert approx["token"].tolist() == exact["token"].tolist()
        assert approx["est_count"].tolist() == exact["n"].tolist()


def test_heavy_hitters_empty_corpus(ray_session):
    import pandas as pd

    import ray.data as rd

    from lasutility_ray.stages.sketch import heavy_hitters

    out = heavy_hitters(
        rd.from_pandas(pd.DataFrame({"doc_id": [0, 1], "text": ["", "  "]}))
    )
    assert len(out) == 0
    assert list(out.columns) == ["rank", "token", "est_count", "max_error"]


# ----------------------------------------------------- S2 properties


@given(
    st.lists(
        st.tuples(
            st.floats(-1, 1, allow_nan=False, width=64),
            st.floats(-1, 1, allow_nan=False, width=64),
            st.floats(-1, 1, allow_nan=False, width=64),
        ),
        min_size=1,
        max_size=50,
    ),
    st.integers(0, 30),
)
@settings(max_examples=150, deadline=None)
def test_s2_parent_of_leaf_equals_direct_encode(dirs, lvl):
    from lasutility_ray.geom import s2

    x = np.array([d[0] for d in dirs])
    y = np.array([d[1] for d in dirs])
    z = np.array([d[2] for d in dirs])
    leaf = s2.xyz_to_cell(x, y, z, 30)
    direct = s2.xyz_to_cell(x, y, z, lvl)
    assert np.array_equal(s2.parent(leaf, lvl), direct)
    assert np.all(s2.level(direct) == lvl)
    assert np.all(s2.range_min(direct) <= leaf)
    assert np.all(leaf <= s2.range_max(direct))


@given(
    st.floats(-1, 1, allow_nan=False, width=64),
    st.floats(-1, 1, allow_nan=False, width=64),
    st.floats(-1, 1, allow_nan=False, width=64),
    st.floats(1.0, 1e6, allow_nan=False, width=64),
)
@settings(max_examples=200, deadline=None)
def test_s2_cell_is_scale_invariant(x, y, z, scale):
    """The cell of a direction must not depend on vector length
    (the ratio-only face/uv design) — up to float division effects
    this holds exactly for power-of-two scales."""
    from lasutility_ray.geom import s2

    p2 = 2.0 ** np.floor(np.log2(scale))  # exact mantissa-preserving
    a = s2.xyz_to_cell(np.array([x]), np.array([y]), np.array([z]), 30)
    b = s2.xyz_to_cell(np.array([x * p2]), np.array([y * p2]), np.array([z * p2]), 30)
    assert a[0] == b[0]


@given(st.binary(min_size=0, max_size=3000))
@settings(max_examples=100, deadline=None)
def test_cdc_vectorized_equals_scalar_reference(payload):
    import pyarrow as pa

    from lasutility_ray.stages import cdc

    t = pa.table(
        {"doc_id": pa.array([0], pa.int64()), "html": pa.array([payload], pa.binary())}
    )
    got = cdc.chunk_batch(t, min_size=16, avg_bits=6, max_size=256).to_pandas()
    ends = cdc.reference_chunk(payload, 16, 6, 256)
    assert got["length"].sum() == len(payload)
    assert (got["offset"] + got["length"]).tolist() == ends
