"""LAZ writer (sources/laz_writer.py): write -> read round trips must
be bit-exact on quantized values. The reference's own writer is a stub
(LasUtility/LAS/LasZipNetWriter.cs:7-9); the strongest available
oracle is our reader, which is itself golden-verified bit-exact
against the reference LAZ fixture (tests/test_reference_golden.py)."""

import os

import numpy as np
import pytest

from lasutility_ray.sources.laz import read_laz_points
from lasutility_ray.sources.laz_writer import write_laz

FIX = (
    "/root/reference/LasUtility.Tests/TestFiles/Triangulation/"
    "AddPointCloudAndTriangulate/Input/Q5232E1_cropped.laz"
)


def _synth(n=1200, seed=0):
    rng = np.random.default_rng(seed)
    x = 356000 + np.round(rng.uniform(0, 1000, n) / 0.01) * 0.01
    y = 6706000 + np.round(rng.uniform(0, 1000, n) / 0.01) * 0.01
    z = np.round(rng.uniform(0, 100, n) / 0.01) * 0.01
    cls = rng.integers(1, 18, n).astype(np.uint8)
    inten = rng.integers(0, 65535, n).astype(np.uint16)
    gps = np.sort(rng.uniform(1e5, 1e5 + 50, n))
    return x, y, z, cls, inten, gps


def test_round_trip_single_chunk(tmp_path):
    x, y, z, cls, inten, gps = _synth()
    p = str(tmp_path / "rt.laz")
    write_laz(p, x, y, z, cls, inten, gps)
    d = read_laz_points(p)
    assert d["n_points"] == len(x)
    np.testing.assert_allclose(d["x"], x, atol=1e-9)
    np.testing.assert_allclose(d["y"], y, atol=1e-9)
    np.testing.assert_allclose(d["z"], z, atol=1e-9)
    assert (d["classification"] == cls).all()
    assert (d["intensity"] == inten).all()
    assert (d["gps_time"] == gps).all()


def test_round_trip_multi_chunk_alignment(tmp_path):
    """Chunk 2+ decodes from dec.off after chunk 1 — the encoder's
    done() must leave the stream exactly byte-aligned."""
    x, y, z, cls, inten, gps = _synth(n=950, seed=1)
    p = str(tmp_path / "rt2.laz")
    write_laz(p, x, y, z, cls, inten, gps, chunk_size=100)
    d = read_laz_points(p)
    np.testing.assert_allclose(d["x"], x, atol=1e-9)
    np.testing.assert_allclose(d["y"], y, atol=1e-9)
    assert (d["classification"] == cls).all()
    assert (d["gps_time"] == gps).all()


def test_gps_time_edge_cases(tmp_path):
    """Constant runs, far jumps (new full-value sequences), negative
    drift, and interleaved sequences — every branch of the GPSTIME11
    v2 state machine."""
    n = 400
    x = np.round(np.linspace(0, 10, n), 2)
    y = np.round(np.linspace(0, 10, n), 2)
    z = np.zeros(n)
    cls = np.full(n, 2, np.uint8)
    g = np.empty(n)
    g[:100] = 1000.0
    g[100:200] = np.linspace(5e5, 5e5 + 1, 100)
    g[200:300] = np.interp(np.arange(100), [0, 99], [1000.5, 999.0])
    g[300:] = np.linspace(5e5 + 1, 5e5 + 2, 100)
    p = str(tmp_path / "gps.laz")
    write_laz(p, x, y, z, cls, None, g, chunk_size=150)
    assert (read_laz_points(p)["gps_time"] == g).all()


def test_point_format_0_no_gps(tmp_path):
    x, y, z, cls, _, _ = _synth(n=300, seed=2)
    p = str(tmp_path / "f0.laz")
    write_laz(p, x, y, z, cls)
    d = read_laz_points(p)
    np.testing.assert_allclose(d["x"], x, atol=1e-9)
    assert (d["classification"] == cls).all()
    assert (d["gps_time"] == 0).all()


@pytest.mark.skipif(not os.path.exists(FIX), reason="reference fixture missing")
def test_reference_fixture_reencode(tmp_path):
    """Decode the reference's own LAZ tile, re-encode with our writer,
    decode again: quantized values identical (z within dequantization
    ulp — the re-encode picks its own offset)."""
    d = read_laz_points(FIX)
    p = str(tmp_path / "reenc.laz")
    write_laz(
        p,
        d["x"],
        d["y"],
        d["z"],
        d["classification"],
        d["intensity"],
        d["gps_time"],
        chunk_size=500,
    )
    e = read_laz_points(p)
    assert e["n_points"] == d["n_points"] == 1481
    np.testing.assert_array_equal(e["x"], d["x"])
    np.testing.assert_array_equal(e["y"], d["y"])
    np.testing.assert_allclose(e["z"], d["z"], atol=1e-9)
    assert (e["classification"] == d["classification"]).all()
    assert (e["intensity"] == d["intensity"]).all()
    assert (e["gps_time"] == d["gps_time"]).all()


def test_rgb_round_trip_formats_2_and_3(tmp_path):
    """RGB12 v2: gray points (bit 6 clear), correlated colors, and
    byte extremes all round-trip bit-exact in formats 2 and 3."""
    rng = np.random.default_rng(3)
    n = 2000
    x = np.round(rng.uniform(0, 1000, n), 2)
    y = np.round(rng.uniform(0, 1000, n), 2)
    z = np.round(rng.uniform(0, 100, n), 2)
    cls = rng.integers(1, 18, n).astype(np.uint8)
    inten = rng.integers(0, 65535, n).astype(np.uint16)
    gps = np.sort(rng.uniform(1e5, 1e5 + 50, n))
    r = rng.integers(0, 65536, n).astype(np.uint16)
    g = np.where(
        rng.random(n) < 0.3, r, (r + rng.integers(-300, 300, n)) & 0xFFFF
    ).astype(np.uint16)
    b = np.where(
        rng.random(n) < 0.3, r, (g.astype(int) + rng.integers(-300, 300, n)) & 0xFFFF
    ).astype(np.uint16)

    p3 = str(tmp_path / "f3.laz")
    write_laz(p3, x, y, z, cls, inten, gps, rgb=(r, g, b), chunk_size=300)
    d = read_laz_points(p3)
    np.testing.assert_allclose(d["x"], x, atol=1e-9)
    assert (d["red"] == r).all() and (d["green"] == g).all() and (d["blue"] == b).all()
    assert (d["gps_time"] == gps).all()

    p2 = str(tmp_path / "f2.laz")
    write_laz(p2, x, y, z, cls, inten, rgb=(r, g, b), chunk_size=500)
    d2 = read_laz_points(p2)
    assert (d2["red"] == r).all() and (d2["green"] == g).all() and (d2["blue"] == b).all()
    assert (d2["gps_time"] == 0).all()


def test_write_laz_tiles_sink(tmp_path, ray_session):
    """Distributed sink: one .laz per tile, readable back through the
    Ray source with identical quantized points."""
    import ray.data as rd

    from lasutility_ray.sources.laz import read_laz_dataset
    from lasutility_ray.sources.laz_writer import write_laz_tiles
    from lasutility_ray.stages.tiling import points_dataset

    pts = points_dataset(rd.range(3000), doc_col="id").select_columns(
        ["tile_id", "x", "y", "z", "classification"]
    )
    out = str(tmp_path / "laz_tiles")
    manifest = write_laz_tiles(pts, out).to_pandas()
    assert manifest["n_points"].sum() == 3000
    assert len(manifest) == manifest["tile_id"].nunique()

    back = read_laz_dataset(manifest["path"].tolist()).to_pandas()
    assert len(back) == 3000
    src = pts.to_pandas().sort_values(["x", "y"]).reset_index(drop=True)
    got = back.sort_values(["x", "y"]).reset_index(drop=True)
    np.testing.assert_allclose(got["x"], np.round(src["x"], 2), atol=0.005 + 1e-9)
    np.testing.assert_allclose(got["z"], np.round(src["z"], 2), atol=0.005 + 1e-9)
    assert (got["classification"].to_numpy() == src["classification"].to_numpy()).all()

    # layered POINT14 tiles (compressor 3) through the same sink
    out14 = str(tmp_path / "laz14_tiles")
    m14 = write_laz_tiles(pts, out14, point_format=6).to_pandas()
    assert m14["n_points"].sum() == 3000
    back14 = read_laz_dataset(m14["path"].tolist()).to_pandas()
    got14 = back14.sort_values(["x", "y"]).reset_index(drop=True)
    np.testing.assert_allclose(got14["x"], got["x"], atol=1e-9)
    assert (got14["classification"].to_numpy() == got["classification"].to_numpy()).all()


def test_las14_point14_formats(tmp_path):
    """LAS 1.4 POINT14 family (plain formats 6/7/8): 375-byte header,
    zeroed legacy count + u64 count at 247, full-range u8
    classification, RGB and NIR channels — write -> read round trips
    bit-exact on quantized values."""
    from lasutility_ray.sources.laz import write_las14

    rng = np.random.default_rng(5)
    n = 2000
    x = np.round(rng.uniform(0, 2000, n), 2)
    y = np.round(rng.uniform(0, 2000, n), 2)
    z = np.round(rng.uniform(-50, 150, n), 2)
    cls = rng.integers(0, 256, n).astype(np.uint8)
    inten = rng.integers(0, 65536, n).astype(np.uint16)
    gps = rng.uniform(3e8, 3e8 + 1e4, n)
    r, g, b = (rng.integers(0, 65536, n).astype(np.uint16) for _ in range(3))
    nir = rng.integers(0, 65536, n).astype(np.uint16)

    for args, label in [
        (dict(), "fmt6"),
        (dict(rgb=(r, g, b)), "fmt7"),
        (dict(rgb=(r, g, b), nir=nir), "fmt8"),
    ]:
        p = str(tmp_path / f"{label}.las")
        write_las14(p, x, y, z, cls, inten, gps, **args)
        d = read_laz_points(p)
        assert d["n_points"] == n
        np.testing.assert_allclose(d["x"], x, atol=1e-9)
        np.testing.assert_allclose(d["z"], z, atol=1e-9)
        assert (d["classification"] == cls).all()
        assert (d["intensity"] == inten).all()
        assert (d["gps_time"] == gps).all()
        if "rgb" in args:
            assert (d["red"] == r).all() and (d["blue"] == b).all()

    # compressed 6+ is now handled by the layered codec (laz14.py);
    # a file flagged compressed but carrying no laszip VLR is corrupt
    # and must fail loudly, not decode as garbage
    raw = bytearray(open(str(tmp_path / "fmt6.las"), "rb").read())
    raw[104] |= 0x80  # flag as compressed
    pc = tmp_path / "fake_compressed.laz"
    pc.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="without laszip VLR"):
        read_laz_points(str(pc))


@pytest.mark.skipif(not os.path.exists(FIX), reason="reference fixture missing")
def test_chunk_table_golden_parallel_units():
    """The reference golden LAZ carries a real laszip chunk table
    (written by the actual LASzip codec): laz_read_units must parse it
    into chunk work units whose independent decodes concatenate to the
    exact sequential result."""
    from lasutility_ray.sources.laz import laz_read_units, read_laz_chunk_points

    units = laz_read_units(FIX)
    assert units and units[0]["offset"] > 0  # table found, not whole-file
    full = read_laz_points(FIX)
    parts = [read_laz_chunk_points(u) for u in units]
    assert sum(p["n_points"] for p in parts) == full["n_points"] == 1481
    for col in ("x", "y", "z", "classification", "gps_time"):
        got = np.concatenate([p[col] for p in parts])
        assert np.array_equal(got, full[col]), col


def test_chunk_table_write_read_fanout(tmp_path):
    """Our writer now emits a conforming compressed chunk table: a
    multi-chunk file splits into one work unit per chunk, each decoding
    its exact point range; table-less streams (the i64 offset patched
    to -1, our pre-table format) still read sequentially."""
    from lasutility_ray.sources.laz import laz_read_units, read_laz_chunk_points
    import struct

    x, y, z, cls, inten, gps = _synth(n=1237, seed=7)
    rng = np.random.default_rng(11)
    rgb = tuple(rng.integers(0, 65536, 1237).astype(np.uint16) for _ in range(3))
    p = str(tmp_path / "multi.laz")
    write_laz(p, x, y, z, cls, inten, gps, rgb=rgb, chunk_size=100)

    units = laz_read_units(p)
    assert len(units) == 13
    assert [u["count"] for u in units] == [100] * 12 + [37]
    full = read_laz_points(p)
    np.testing.assert_allclose(full["x"], x, atol=1e-9)
    assert (full["classification"] == cls).all()
    assert all(
        np.array_equal(full[c], rgb[i]) for i, c in enumerate(("red", "green", "blue"))
    )
    parts = [read_laz_chunk_points(u) for u in units]
    for col in ("x", "y", "z", "gps_time", "intensity", "red", "blue"):
        got = np.concatenate([p_[col] for p_ in parts])
        assert np.array_equal(got, full[col]), col

    # backward compat: kill the table pointer -> one whole-file unit,
    # sequential decode unchanged
    raw = bytearray(open(p, "rb").read())
    (pdr_off,) = struct.unpack_from("<I", raw, 96)
    struct.pack_into("<q", raw, pdr_off, -1)
    p2 = str(tmp_path / "notable.laz")
    open(p2, "wb").write(bytes(raw))
    units2 = laz_read_units(p2)
    assert len(units2) == 1 and units2[0]["offset"] == -1
    d2 = read_laz_points(p2)
    assert np.array_equal(d2["x"], full["x"])


def test_read_laz_dataset_chunk_parallel(tmp_path, ray_session):
    """read_laz_dataset fans one decode task per chunk and the Dataset
    result matches the sequential reader row-for-row."""
    from lasutility_ray.sources.laz import read_laz_dataset

    x, y, z, cls, inten, gps = _synth(n=900, seed=3)
    p = str(tmp_path / "ds.laz")
    write_laz(p, x, y, z, cls, inten, gps, chunk_size=200)
    got = read_laz_dataset(p).to_pandas().sort_values(["gps_time"]).reset_index(drop=True)
    assert len(got) == 900
    order = np.argsort(gps, kind="stable")
    np.testing.assert_allclose(got["x"], x[order], atol=1e-9)
    assert (got["classification"].to_numpy() == cls[order]).all()
    assert (got["source"] == p).all()


def test_plain_las_record_range_units(tmp_path):
    """Uncompressed LAS files split into record-range work units
    (parallel ranged reads) whose decodes concatenate to the
    sequential result — both the legacy 0-3 and POINT14 families."""
    from lasutility_ray.sources.laz import (
        laz_read_units,
        read_laz_chunk_points,
        write_las,
        write_las14,
    )

    x, y, z, cls, inten, gps = _synth(n=1000, seed=9)
    p12 = str(tmp_path / "plain12.las")
    write_las(p12, x, y, z, cls, gps_time=gps)
    rng = np.random.default_rng(2)
    rgb = tuple(rng.integers(0, 65536, 1000).astype(np.uint16) for _ in range(3))
    p14 = str(tmp_path / "plain14.las")
    write_las14(p14, x, y, z, cls, inten, gps, rgb=rgb)

    for p, n_cols in ((p12, ("x", "y", "z", "gps_time", "classification")),
                      (p14, ("x", "y", "z", "gps_time", "intensity", "red", "blue"))):
        full = read_laz_points(p)
        # ~300 records per unit -> 4 units for 1000 points
        units = laz_read_units(p, target_unit_bytes=300 * 38)
        assert len(units) > 1
        assert all(u["pfmt"] >= 0 for u in units)
        assert sum(u["count"] for u in units) == 1000
        parts = [read_laz_chunk_points(u) for u in units]
        for col in n_cols:
            got = np.concatenate([q[col] for q in parts])
            assert np.array_equal(got, full[col]), (p, col)
        # default target: small file stays one unit
        assert len(laz_read_units(p)) == 1
