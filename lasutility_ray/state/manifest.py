"""Per-partition checkpoint manifest + resumable tile output.

The reference's only crash-consistency idea is the tmp-file + atomic
rename around the VoxelGrid snapshot (``LasUtility/VoxelGrid/
VoxelGrid.cs:347-359``) and the ``LockedCells`` "don't redo finished
cells" mask (``LasUtility/DEM/Triangulation.cs:275-276``). This module
generalizes both to the engine's unit of work, the 1 km tile:

- every finished tile writes its output parquet atomically
  (``write_partition_atomic``: tmp file + ``os.replace``), then a
  one-row manifest parquet recording lineage + metrics
  (``{key, n_rows, content_hash, output_path, metrics...}``);
  the manifest row is written *after* the data file, so a manifest
  entry implies a complete, readable output partition;
- a resumed run lists the manifest (cheap: one dir listing), ships
  the finished-key set with a filter closure (Ray Data broadcasts it
  once per operator), anti-joins pending rows with a vectorized
  ``pc.is_in`` mask, and only processes the rest.

At 100 TB the manifest stays tiny relative to data (one row per tile);
the broadcast set is a few MB for ~10^5 tiles per job shard.
"""

from __future__ import annotations

import hashlib
import os
import time

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

MANIFEST_DIR = "_manifest"
TILES_DIR = "tiles"


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, MANIFEST_DIR)


def _tiles_dir(out_dir: str) -> str:
    return os.path.join(out_dir, TILES_DIR)


def write_partition_atomic(table: pa.Table, path: str) -> None:
    """tmp-file + rename, the reference's snapshot pattern
    (VoxelGrid.cs:349-358): readers never observe a torn file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def finished_keys(out_dir: str) -> frozenset[str]:
    """Keys with a committed manifest row (= completed partitions)."""
    mdir = _manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return frozenset()
    return frozenset(
        f[: -len(".parquet")] for f in os.listdir(mdir) if f.endswith(".parquet")
    )


def manifest_table(out_dir: str) -> pa.Table:
    """All lineage/metrics rows: one per finished partition."""
    mdir = _manifest_dir(out_dir)
    files = (
        sorted(
            os.path.join(mdir, f) for f in os.listdir(mdir) if f.endswith(".parquet")
        )
        if os.path.isdir(mdir)
        else []
    )
    if not files:
        return pa.table(
            {
                "key": pa.array([], pa.string()),
                "n_rows": pa.array([], pa.int64()),
                "content_hash": pa.array([], pa.string()),
                "output_path": pa.array([], pa.string()),
                "wall_s": pa.array([], pa.float64()),
            }
        )
    return pa.concat_tables([pq.read_table(f) for f in files], promote_options="default")


def _commit_partition(out_dir: str, key: str, df: pd.DataFrame, metrics: dict) -> dict:
    """Atomically write a partition's output + manifest row; returns
    the manifest row as a dict."""
    out_path = os.path.join(_tiles_dir(out_dir), f"{key}.parquet")
    table = pa.Table.from_pandas(df, preserve_index=False)
    write_partition_atomic(table, out_path)

    h = hashlib.md5()
    for name in sorted(table.column_names):
        h.update(name.encode())
        for chunk in table.column(name).chunks:
            for buf in chunk.buffers():
                if buf is not None:
                    h.update(buf)
    row = {
        "key": key,
        "n_rows": len(df),
        "content_hash": h.hexdigest(),
        "output_path": out_path,
        **metrics,
    }
    write_partition_atomic(
        pa.Table.from_pylist([row]), os.path.join(_manifest_dir(out_dir), f"{key}.parquet")
    )
    return row


METRIC_COLS = (
    "n_points",
    "n_ground",
    "n_triangles",
    "missing_before",
    "missing_after",
    "n_features",
    "n_burned_cells",
)


def _pending_input(points_ds, out_dir: str, key_col: str, done_translate=None):
    """Sweep torn tmp files, list finished keys, anti-join them out
    of the input with a broadcast ``pc.is_in`` filter."""
    os.makedirs(_manifest_dir(out_dir), exist_ok=True)
    # sweep orphan tmp files from a crashed writer: a *.tmp.* without
    # a manifest row is a torn write, safe to delete (the tmp+rename
    # protocol guarantees committed files never carry the suffix)
    for d in (_tiles_dir(out_dir), _manifest_dir(out_dir)):
        if os.path.isdir(d):
            for f in os.listdir(d):
                if ".tmp." in f:
                    try:
                        os.remove(os.path.join(d, f))
                    except OSError:
                        pass
    done = finished_keys(out_dir)
    if not done:
        return points_ds
    if done_translate is not None:
        done = {done_translate(k) for k in done}
    done_set = pa.array(sorted(done))

    def drop_finished(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.invert(pc.is_in(batch.column(key_col), value_set=done_set)))

    return points_ds.map_batches(drop_finished, batch_format="pyarrow")


def resumable_tiles(
    points_ds,
    out_dir: str,
    tiles_fn,
    key_col: str = "tile_id",
    pending_key_col: str | None = None,
    done_translate=None,
):
    """Checkpoint ANY tile-keyed wide step: ``tiles_fn`` maps the
    pending points Dataset to a tiles Dataset (one row per key);
    every output row commits its own atomic parquet + a manifest row
    carrying lineage + whatever integer metrics the row exposes
    (METRIC_COLS intersection). A killed job resumes by skipping keys
    already in the manifest (the LockedCells idea at tile
    granularity). Returns the manifest table after driving the
    pipeline.

    ``pending_key_col``/``done_translate``: when the INPUT carries a
    different key column than the output (e.g. the int64 tile_key),
    the resume filter runs on that column with the manifest's string
    keys mapped through ``done_translate``."""
    pending = _pending_input(
        points_ds, out_dir, pending_key_col or key_col, done_translate=done_translate
    )
    tiles = tiles_fn(pending)

    def commit_rows(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for i in range(len(df)):
            t0 = time.perf_counter()
            one = df.iloc[i : i + 1]
            key = str(one[key_col].iloc[0])
            metrics = {
                c: int(one[c].iloc[0]) for c in METRIC_COLS if c in one.columns
            }
            metrics["wall_s"] = round(time.perf_counter() - t0, 6)
            rows.append(_commit_partition(out_dir, key, one, metrics))
        if not rows:
            return pd.DataFrame({"key": pd.Series(dtype="object")})
        return pd.DataFrame(rows)

    tiles.map_batches(commit_rows, batch_format="pandas").count()
    return manifest_table(out_dir)


def resumable_tin_tiles(points_ds, out_dir: str, key_col: str = "tile_id"):
    """Checkpointed flagship wide step: per-tile TIN+DEM rasterization
    (stages.tin.tin_tiles), each tile committed atomically with a
    lineage/metrics manifest row; resume skips finished tiles.

    ``key_col="tile_key"`` shuffles on the int64 packed tile key
    instead of the string name (manifest keys stay string names; the
    resume filter translates them to keys)."""
    from ..stages.tin import tin_tiles

    done_translate = None
    if key_col != "tile_id":
        from ..stages.tiling import name_to_tile_key

        done_translate = name_to_tile_key
    return resumable_tiles(
        points_ds,
        out_dir,
        lambda pending: tin_tiles(pending, include_rasters=True, key_col=key_col),
        pending_key_col=key_col,
        done_translate=done_translate,
    )


def resumable_burned_tiles(features_by_tile_ds, out_dir: str):
    """Checkpointed J3 raster burn: features (already exploded/keyed
    by tile) -> per-tile burned raster, each tile committed
    atomically; resume skips burned tiles."""
    from ..stages.pip_join import burned_tiles

    return resumable_tiles(features_by_tile_ds, out_dir, burned_tiles)


def resumable_salted_tin_tiles(
    points_ds, out_dir: str, threshold: int | None = None, concurrency: int = 4,
    exact: bool = True, key_col: str = "tile_id",
):
    """Old name of :func:`resumable_tin_tiles`. ``threshold``,
    ``concurrency`` and ``exact`` are ignored: every tile is built
    whole, so the output is exact either way, and no stage has a pool
    to size. Kept only because ``perfbench/workloads.py`` still calls
    it; delete it once that call moves."""
    return resumable_tin_tiles(points_ds, out_dir, key_col=key_col)


def resumable_corpus_partitions(docs_ds, out_dir: str, key_col: str = "source"):
    """Partitioned, resumable corpus sink: ONE parquet file per
    distinct ``key_col`` value (tmp+rename atomic, manifest row with
    row count + content hash), the per-tile checkpoint generalized to
    arbitrary corpus partitions (by source/lang/host bucket). A killed
    job re-run skips finished partitions (broadcast ``pc.is_in``
    filter, no shuffle); torn tmp files are swept. Key values must be
    filename-safe. Returns the manifest table after driving the
    pipeline."""
    pending = _pending_input(docs_ds, out_dir, key_col)

    def commit_group(g: pd.DataFrame) -> pd.DataFrame:
        t0 = time.perf_counter()
        key = str(g[key_col].iloc[0])
        metrics = {"wall_s": 0.0}
        row = _commit_partition(out_dir, key, g, metrics)
        row["wall_s"] = round(time.perf_counter() - t0, 6)
        return pd.DataFrame([row])

    pending.groupby(key_col).map_groups(commit_group, batch_format="pandas").count()
    return manifest_table(out_dir)
