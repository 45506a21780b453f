"""Checkpoint manifest + resume (state/manifest.py).

Models the reference's crash-consistency seed (VoxelGrid.cs:347-359
tmp+rename; Triangulation.cs:275-276 LockedCells) at tile granularity:
a killed run's finished tiles are never recomputed on resume.
"""

import os
import shutil

import pyarrow.parquet as pq
import pytest

import ray.data as rd

from lasutility_ray.state import finished_keys, manifest_table, resumable_tin_tiles
from lasutility_ray.stages.tiling import points_dataset

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture()
def out_dir(tmp_path):
    d = str(tmp_path / "ckpt")
    yield d
    shutil.rmtree(d, ignore_errors=True)


def _points():
    docs = rd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id"])
    return points_dataset(docs)


def test_full_run_then_resume_is_noop(out_dir, ray_session):
    m1 = resumable_tin_tiles(_points(), out_dir)
    assert m1.num_rows > 0
    keys = set(m1.column("key").to_pylist())
    assert keys == set(finished_keys(out_dir))

    # record mtimes of committed outputs
    mtimes = {
        k: os.path.getmtime(os.path.join(out_dir, "tiles", f"{k}.parquet"))
        for k in keys
    }

    m2 = resumable_tin_tiles(_points(), out_dir)
    assert set(m2.column("key").to_pylist()) == keys
    for k in keys:
        assert (
            os.path.getmtime(os.path.join(out_dir, "tiles", f"{k}.parquet"))
            == mtimes[k]
        ), f"finished tile {k} was recomputed on resume"


def test_partial_run_resumes_only_pending(out_dir, ray_session):
    pts = _points()
    all_tiles = sorted(
        t["tile_id"] for t in pts.groupby("tile_id").count().take_all()
    )
    assert len(all_tiles) >= 4
    half = set(all_tiles[: len(all_tiles) // 2])

    # simulate a killed job: only process half the tiles
    import pyarrow as pa

    def keep_half(t: pa.Table) -> pa.Table:
        keys = t.column("tile_id").to_pylist()
        return t.filter(pa.array([k in half for k in keys]))

    resumable_tin_tiles(pts.map_batches(keep_half, batch_format="pyarrow"), out_dir)
    assert set(finished_keys(out_dir)) == half

    mtimes = {
        k: os.path.getmtime(os.path.join(out_dir, "tiles", f"{k}.parquet"))
        for k in half
    }

    # resume with the FULL input: finishes the rest, skips the done
    m = resumable_tin_tiles(pts, out_dir)
    assert set(m.column("key").to_pylist()) == set(all_tiles)
    for k in half:
        assert (
            os.path.getmtime(os.path.join(out_dir, "tiles", f"{k}.parquet"))
            == mtimes[k]
        ), f"finished tile {k} was recomputed on resume"

    # every committed partition is a complete readable parquet whose
    # row count matches its manifest lineage row
    man = manifest_table(out_dir)
    for row in man.to_pylist():
        t = pq.read_table(row["output_path"])
        assert t.num_rows == row["n_rows"]
        assert row["content_hash"]
        assert row["n_points"] >= 1


def test_manifest_metrics_columns(out_dir, ray_session):
    m = resumable_tin_tiles(_points(), out_dir)
    cols = set(m.column_names)
    assert {
        "key",
        "n_rows",
        "content_hash",
        "output_path",
        "n_points",
        "n_triangles",
        "missing_before",
        "missing_after",
        "wall_s",
    } <= cols


def test_orphan_tmp_files_swept(out_dir, ray_session):
    """A crashed writer's torn tmp file must be removed on resume and
    never shadow a real partition."""
    import pathlib

    m1 = resumable_tin_tiles(_points(), out_dir)
    tiles_dir = pathlib.Path(out_dir) / "tiles"
    orphan = tiles_dir / "L9999Z9_9.parquet.tmp.1234"
    orphan.write_bytes(b"torn write")
    m2 = resumable_tin_tiles(_points(), out_dir)
    assert not orphan.exists()
    assert m2.num_rows == m1.num_rows


def test_resumable_salted_equals_plain(out_dir, ray_session):
    """The old ``resumable_salted_tin_tiles`` name forwards to
    ``resumable_tin_tiles`` (its ``threshold`` is ignored): same
    committed tiles and metrics, and resume is still a no-op."""
    from lasutility_ray.state import resumable_salted_tin_tiles

    m1 = resumable_tin_tiles(_points(), out_dir + "_plain")
    m2 = resumable_salted_tin_tiles(_points(), out_dir, threshold=2)
    a = m1.to_pandas().set_index("key").sort_index()
    b = m2.to_pandas().set_index("key").sort_index()
    assert list(a.index) == list(b.index)
    for col in ("n_points", "missing_before", "missing_after", "content_hash"):
        assert (a[col] == b[col]).all(), col
    m3 = resumable_salted_tin_tiles(_points(), out_dir, threshold=2)
    assert m3.num_rows == m2.num_rows


def test_resumable_burned_tiles(out_dir, ray_session):
    """Checkpointed raster burn: commit per tile, resume is a no-op,
    committed rasters equal the direct burn."""
    import numpy as np
    import ray.data as rd

    from lasutility_ray.corpus.polygons import build_feature_table
    from lasutility_ray.stages.pip_join import burned_tiles, explode_features_to_tiles
    from lasutility_ray.state import resumable_burned_tiles

    feats = rd.from_arrow(explode_features_to_tiles(build_feature_table()))
    m1 = resumable_burned_tiles(feats, out_dir)
    direct = burned_tiles(
        rd.from_arrow(explode_features_to_tiles(build_feature_table()))
    ).to_pandas().set_index("tile_id")
    assert m1.num_rows == len(direct)
    assert set(m1.column("n_burned_cells").to_pylist()) == set(
        direct["n_burned_cells"]
    )
    # committed parquet holds the same raster bytes
    row = m1.to_pylist()[0]
    t = pq.read_table(row["output_path"]).to_pandas()
    tid = t["tile_id"].iloc[0]
    assert np.frombuffer(t["raster"].iloc[0], dtype=np.uint8).tobytes() == bytes(
        direct.loc[tid, "raster"]
    )
    m2 = resumable_burned_tiles(
        rd.from_arrow(explode_features_to_tiles(build_feature_table())), out_dir
    )
    assert m2.num_rows == m1.num_rows


def test_salted_exact_resume_matches_unsalted(out_dir, ray_session):
    """resumable_tin_tiles on the int64 tile_key: a partial manifest
    resumes to the full tile set and the committed outputs equal the
    string-keyed per-tile path bit-for-bit."""
    import os

    import numpy as np

    from lasutility_ray.stages.tin import tin_tiles

    pts = _points().drop_columns(["tile_id"])
    m1 = resumable_tin_tiles(pts, out_dir, key_col="tile_key")
    assert m1.num_rows > 0

    # drop a third of the manifest rows -> only those tiles recompute
    mdir = os.path.join(out_dir, "_manifest")
    victims = sorted(os.listdir(mdir))[:: 3]
    for f in victims:
        os.remove(os.path.join(mdir, f))
    m2 = resumable_tin_tiles(pts, out_dir, key_col="tile_key")
    assert m2.num_rows == m1.num_rows
    assert set(m2.column("key").to_pylist()) == set(m1.column("key").to_pylist())

    # committed tile outputs == string-keyed rasterization, byte for byte
    import pyarrow.parquet as pq

    plain = tin_tiles(_points(), include_rasters=True).to_pandas().set_index("tile_id")
    for key in list(plain.index)[:10]:
        tile = pq.read_table(os.path.join(out_dir, "tiles", f"{key}.parquet")).to_pandas()
        a = np.frombuffer(tile["dem"].iloc[0], dtype=np.float32)
        b = np.frombuffer(plain.loc[key, "dem"], dtype=np.float32)
        assert ((a == b) | (np.isnan(a) & np.isnan(b))).all(), key


def test_resumable_corpus_partitions(ray_session, tmp_path):
    """Partitioned corpus sink: atomic per-partition parquet, resume
    skips finished partitions, torn tmp files swept."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from lasutility_ray.state import resumable_corpus_partitions

    out = str(tmp_path / "corpus")
    docs = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text", "source"],
    )
    man = resumable_corpus_partitions(docs, out, key_col="source")
    keys = sorted(man.column("key").to_pylist())
    assert len(keys) == 20 and keys[0] == "src0"
    total = sum(man.column("n_rows").to_pylist())
    assert total == docs.count()

    # partition files are readable and partition-pure
    t = pq.read_table(os.path.join(out, "tiles", "src3.parquet"))
    assert set(t.column("source").to_pylist()) == {"src3"}

    # resume: delete one partition's manifest+data, plant a torn tmp;
    # only that partition recommits (others' mtimes untouched)
    os.remove(os.path.join(out, "_manifest", "src5.parquet"))
    os.remove(os.path.join(out, "tiles", "src5.parquet"))
    torn = os.path.join(out, "tiles", "junk.parquet.tmp.123")
    open(torn, "w").write("garbage")
    mtimes = {
        k: os.path.getmtime(os.path.join(out, "tiles", f"{k}.parquet"))
        for k in keys
        if k != "src5"
    }
    man2 = resumable_corpus_partitions(docs, out, key_col="source")
    assert sorted(man2.column("key").to_pylist()) == keys
    assert not os.path.exists(torn)
    for k, mt in mtimes.items():
        assert os.path.getmtime(os.path.join(out, "tiles", f"{k}.parquet")) == mt


def test_tile_key_resume_matches_string_key(out_dir, ray_session):
    """The int64 tile_key fast path (shuffle on the packed key, string
    names reconstructed per group, resume filter translating manifest
    names back to keys) produces the identical manifest and output as
    the string-keyed path, and resume after a partial run completes
    only the pending tiles."""
    import pandas as pd

    pts_cols = [
        "doc_id", "x", "y", "z", "classification", "is_ground",
        "tile_id", "tile_key",
    ]
    pts = _points().select_columns(pts_cols)

    str_dir, key_dir = out_dir + "_s", out_dir + "_k"
    m_s = resumable_tin_tiles(pts, str_dir)
    m_k = resumable_tin_tiles(
        pts.drop_columns(["tile_id"]), key_dir, key_col="tile_key"
    )
    a = m_s.to_pandas().sort_values("key").reset_index(drop=True)
    b = m_k.to_pandas().sort_values("key").reset_index(drop=True)
    volatile = ["wall_s", "ts", "output_path"]
    pd.testing.assert_frame_equal(
        a.drop(columns=volatile, errors="ignore"),
        b.drop(columns=volatile, errors="ignore"),
    )

    # simulate a partial run: drop half the manifest + outputs, resume
    # with the int key — only pending tiles recompute, final manifest
    # matches the full one
    keys = sorted(finished_keys(key_dir))
    drop = keys[::2]
    for k in drop:
        os.remove(os.path.join(key_dir, "_manifest", f"{k}.parquet"))
        os.remove(os.path.join(key_dir, "tiles", f"{k}.parquet"))
    assert len(finished_keys(key_dir)) == len(keys) - len(drop)
    m_k2 = resumable_tin_tiles(
        pts.drop_columns(["tile_id"]), key_dir, key_col="tile_key"
    )
    b2 = m_k2.to_pandas().sort_values("key").reset_index(drop=True)
    assert sorted(b2["key"]) == keys
    shutil.rmtree(str_dir, ignore_errors=True)
    shutil.rmtree(key_dir, ignore_errors=True)
