"""The benchmark workloads.

Each workload prepares its inputs untimed, then repeats one timed
unit of work at least a minimum number of times and while the measuring
window lasts, then checks every output outside the timed region. Layer
calls go through the public functions of ``lasutility_ray`` modules,
each wrapped in a span.

    flagship_uniform   one flagship pass: synth pages -> extraction check
                       -> points checkpoint -> salted TIN -> rect PIP join;
                       a traced run also runs the 17-query mix (QueryMix)
    flagship_hot_tile  TIN + PIP over a checkpoint with one hot tile
    resume_half        salted TIN resumed with half of the tiles committed

Every workload repeats its unit at least twice (the short resume_half
five times), and more while the measuring window lasts.
"""

from __future__ import annotations

import os
import shutil
import time

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import gen
from .harness import median

N_UNIFORM = 40_000  # docs per flagship pass (2,500 per tile)
N_HOT = 60_000  # checkpoint points, HOT_SHARE of them in one tile
PIP_CONCURRENCY = 2
TIN_COLS = ["x", "y", "z", "classification", "is_ground", "tile_key"]
N_COLD_KERNEL_TILES = 5

QUERY_TABLES = {
    "q_bbox": ["documents"],
    "q_tile_counts": ["documents"],
    "q_cell_bins": ["documents"],
    "q_tin_tile_counts": ["documents"],
    "q_tpch_q1": ["lineitem"],
    "q_tpch_q3": ["customer", "orders", "lineitem"],
    "q_tpch_q5": ["region", "nation", "customer", "orders", "lineitem", "supplier"],
    "q_rfm_segments": ["events"],
    "q_profile_table": ["documents"],
    "q_props_stats": ["events"],
    "q_collocations": ["documents"],
    "q_grid_clusters": ["documents"],
    "q_line_dedup": ["documents"],
    "q_substring_dedup": ["documents"],
    "q_train_quality": ["documents"],
    "q_quality_auc": ["documents"],
    "q_curate_for_training": ["documents"],
}
FLOOR_QUERY = "q_bbox"


class Ctx:
    """Per-run state shared by a workload and ``run.py``."""

    def __init__(self, seed, seconds, ncpu, work, tracer, runner):
        self.seed = seed
        self.seconds = seconds
        self.ncpu = ncpu
        self.work = work
        self.tracer = tracer
        self.runner = runner
        self.op_walls: list[float] = []  # one per completed unit of work
        self.op_rates: list[float] = []  # input rows per second of each
        self.layer: dict[str, float] = {}
        self.checks: list[tuple[str, bool, str]] = []

    def threshold(self, n_points: int) -> int:
        # bench.py's straggler rule: a tile is hot once it holds more
        # than a per-CPU share of the job
        return max(20_000, n_points // (2 * self.ncpu))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def record_op(self, wall: float, rows: int) -> None:
        self.op_walls.append(wall)
        self.op_rates.append(rows / wall)

    def measure(self, one_iteration, min_ops: int = 1) -> None:
        """Repeat ``one_iteration()`` while the next one is predicted to
        end inside the window, and at least ``min_ops`` times, so that
        the median stays robust to one stalled operation. Stops early
        when an iteration reports failure."""
        start = time.perf_counter()
        done = 0
        while True:
            t0 = time.perf_counter()
            if not one_iteration() or self.runner.hung:
                return
            done += 1
            now = time.perf_counter()
            if done >= min_ops and now - start + (now - t0) > self.seconds:
                return


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def frames_equal(got: pd.DataFrame, want: pd.DataFrame) -> tuple[bool, str]:
    try:
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=True)
        return True, ""
    except AssertionError as ex:
        return False, str(ex).splitlines()[0][:300] if str(ex) else "differs"


def _dir_stats(path: str) -> tuple[int, int]:
    files = nbytes = 0
    for root, _, names in os.walk(path):
        for n in names:
            files += 1
            nbytes += os.path.getsize(os.path.join(root, n))
    return files, nbytes


def _to_pandas(out) -> pd.DataFrame:
    return out.to_pandas() if hasattr(out, "to_pandas") else out


# ----------------------------------------------------- engine calls


def write_checkpoint(ids: np.ndarray, out_dir: str, ncpu: int) -> None:
    """The flagship's checkpoint: synth pages for ``ids`` -> inline
    extraction check -> geocode/tile -> slim points parquet."""
    import ray.data as rd

    from lasutility_ray.corpus.pages import extract_text_from_html, synth_pages_batch
    from lasutility_ray.stages.tiling import points_dataset

    def check_extract(t: pa.Table) -> pa.Table:
        ok = pc.equal(extract_text_from_html(t.column("html")), t.column("text"))
        return t.append_column("extract_ok", pc.cast(ok, pa.uint8()))

    pages = rd.range(len(ids), override_num_blocks=ncpu * 8).map_batches(
        lambda b: synth_pages_batch(ids[b["id"]]), batch_format="numpy"
    )
    pages = pages.map_batches(check_extract, batch_format="pyarrow")
    points_dataset(pages).select_columns(
        ["doc_id", *TIN_COLS, "extract_ok"]
    ).write_parquet(out_dir)


def run_tin(points_dir: str, out_dir: str, n_points: int, ctx: Ctx) -> pa.Table:
    import ray.data as rd

    from lasutility_ray.state.manifest import resumable_salted_tin_tiles

    return resumable_salted_tin_tiles(
        rd.read_parquet(points_dir, columns=TIN_COLS), out_dir, exact=True,
        concurrency=max(2, ctx.ncpu // 4), key_col="tile_key",
        threshold=ctx.threshold(n_points),
    )


def run_pip(points_dir: str) -> pd.DataFrame:
    import ray.data as rd

    from lasutility_ray.corpus.polygons import build_feature_table
    from lasutility_ray.stages.pip_join import rect_pip_join

    return rect_pip_join(
        rd.read_parquet(points_dir, columns=["doc_id", "x", "y"]),
        build_feature_table(), concurrency=PIP_CONCURRENCY,
    ).to_pandas()


def tin_then_pip(points_dir: str, out_dir: str, n_points: int, ctx: Ctx) -> dict:
    with ctx.tracer.span("tin"):
        manifest = run_tin(points_dir, out_dir, n_points, ctx)
    with ctx.tracer.span("pip_join"):
        pip = run_pip(points_dir)
    return {"manifest": manifest, "pip": pip}


# ------------------------------------------------------ oracles


def _oracle_con(doc_ids: np.ndarray | None = None, points_dir: str | None = None):
    con = duckdb.connect()
    con.execute("SET threads TO 1")
    if doc_ids is not None:
        con.register("documents", pa.table({"doc_id": pa.array(doc_ids, pa.int64())}))
    if points_dir is not None:
        con.execute(f"CREATE VIEW pts AS SELECT * FROM read_parquet('{points_dir}/*.parquet')")
    return con


def flagship_oracles(ids: np.ndarray) -> tuple[pd.DataFrame, pd.DataFrame]:
    """DuckDB mirrors over the same doc ids: PIP rows and per-tile
    (n_points, n_ground)."""
    import __ray_entry__ as entry

    sql = entry.oracle_sql()
    con = _oracle_con(doc_ids=ids)
    return con.execute(sql["q_pip_join_rect"]).df(), con.execute(sql["q_tin_tile_counts"]).df()


def hot_tile_oracles(points_dir: str) -> tuple[pd.DataFrame, pd.DataFrame]:
    from lasutility_ray.corpus.polygons import build_feature_table
    from lasutility_ray.stages.tiling import tile_key_to_name

    feats = build_feature_table()
    rects = feats.filter(pc.equal(feats.column("kind"), "rect")).select(
        ["feature_id", "luokka", "min_x", "min_y", "max_x", "max_y"]
    )
    con = _oracle_con(points_dir=points_dir)
    con.register("rects", rects)
    pip = con.execute(
        "SELECT p.doc_id, CAST(r.feature_id AS BIGINT) AS feature_id, "
        "CAST(r.luokka AS INT) AS luokka FROM pts p JOIN rects r "
        "ON p.x >= r.min_x AND p.x < r.max_x AND p.y >= r.min_y AND p.y < r.max_y"
    ).df()
    counts = con.execute(
        "SELECT tile_key, count(*) AS n_points, "
        "CAST(sum(CASE WHEN is_ground THEN 1 ELSE 0 END) AS BIGINT) AS n_ground "
        "FROM pts GROUP BY tile_key"
    ).df()
    counts.insert(0, "tile_id", [tile_key_to_name(k) for k in counts.pop("tile_key")])
    return pip, counts


def manifest_counts(manifest: pa.Table) -> pd.DataFrame:
    df = manifest.select(["key", "n_points", "n_ground"]).to_pandas()
    return df.rename(columns={"key": "tile_id"})


def manifest_hashes(manifest: pa.Table) -> dict[str, str]:
    return dict(zip(manifest.column("key").to_pylist(), manifest.column("content_hash").to_pylist()))


def check_tin_outputs(ctx: Ctx, label: str, outs: list[dict], counts_want, pip_want=None):
    if not outs:
        ctx.check(f"{label}.outputs", False, "no successful operation")
        return
    for i, out in enumerate(outs):
        ok, why = frames_equal(manifest_counts(out["manifest"]), counts_want)
        ctx.check(f"{label}.tile_n_points[{i}]", ok, why)
        if pip_want is not None:
            ok, why = frames_equal(out["pip"], pip_want)
            ctx.check(f"{label}.pip_rows[{i}]", ok, why)
    first = manifest_hashes(outs[0]["manifest"])
    ctx.check(
        f"{label}.content_hash_repeatable",
        all(manifest_hashes(o["manifest"]) == first for o in outs[1:]),
    )


def tin_layer_counts(ctx: Ctx, out: dict, tiles_dir: str, n_points: int) -> None:
    m = out["manifest"]
    ctx.layer["tin.tiles_committed"] = m.num_rows
    n = np.asarray(m.column("n_points").to_pylist())
    ctx.layer["tin.hot_tiles"] = int((n > ctx.threshold(n_points)).sum())
    ctx.layer["tin.tile_bytes"] = _dir_stats(os.path.join(tiles_dir, "tiles"))[1]
    if "pip" in out:
        ctx.layer["pip_join.rows"] = len(out["pip"])


def kernel_timings(ctx: Ctx, points_dir: str) -> None:
    """In-process Delaunay and DEM rasterisation on the workload's own
    tile points: the largest tile (the hot tile where there is one)
    and the median over a few other tiles."""
    from lasutility_ray.geom.bounds import RasterBounds
    from lasutility_ray.geom.tilenamer import decode
    from lasutility_ray.geom.triangulation import SurfaceTriangulation
    from lasutility_ray.stages.tiling import CELL_SIZE_M, tile_key_to_name

    t = pq.read_table(points_dir, columns=TIN_COLS).to_pandas()
    sizes = t.groupby("tile_key").size().sort_values(ascending=False, kind="mergesort")
    keys = sizes.index.tolist()  # largest first

    for i, key in enumerate(keys[: 1 + N_COLD_KERNEL_TILES]):
        kind = "cold" if i else "hot"
        g = t[t["tile_key"] == key]
        bounds = RasterBounds.for_tile(decode(tile_key_to_name(key)), CELL_SIZE_M)
        tri = SurfaceTriangulation(bounds)
        tri.set_points(g["x"], g["y"], g["z"], g["classification"])
        with ctx.tracer.span(f"kernel.delaunay_{kind}"):
            tri.create()
        if kind == "hot":
            dem = np.full((bounds.n_rows, bounds.n_cols), np.nan, dtype=np.float32)
            cls = np.zeros((bounds.n_rows, bounds.n_cols), dtype=np.uint8)
            with ctx.tracer.span("kernel.rasterise_hot"):
                tri.rasterise_dem(bounds, dem, classification_raster=cls)


# ---------------------------------------------------- workloads


class Workload:
    """``prepare`` runs before the Ray session (pure inputs),
    ``prepare_in_session`` after it (untimed engine work), ``run``
    measures, ``verify`` checks outputs, ``trace_extras`` adds the
    traced-run-only layer measurements."""

    def prepare(self, ctx: Ctx) -> None: ...

    def prepare_in_session(self, ctx: Ctx) -> None: ...

    def run(self, ctx: Ctx) -> None: ...

    def verify(self, ctx: Ctx) -> None: ...

    def trace_extras(self, ctx: Ctx) -> None: ...


class FlagshipUniform(Workload):
    def prepare(self, ctx):
        self.ids = gen.block_doc_ids(N_UNIFORM, ctx.seed)
        self.outs = []

    def run(self, ctx):
        n = len(self.ids)

        def iteration():
            pts = os.path.join(ctx.work, "points")
            tiles = os.path.join(ctx.work, "tiles")
            shutil.rmtree(pts, ignore_errors=True)
            shutil.rmtree(tiles, ignore_errors=True)

            def flagship_pass():
                import ray.data as rd

                with ctx.tracer.span("checkpoint"):
                    write_checkpoint(self.ids, pts, ctx.ncpu)
                with ctx.tracer.span("extract_verify"):
                    ok = int(rd.read_parquet(pts, columns=["extract_ok"]).sum("extract_ok"))
                out = tin_then_pip(pts, tiles, n, ctx)
                out["extract_ok"] = ok
                return out

            ok, out, wall = ctx.runner.run("flagship", flagship_pass)
            if ok:
                ctx.record_op(wall, n)
                self.outs.append(out)
                files, nbytes = _dir_stats(pts)
                ctx.layer["checkpoint.files"] = files
                ctx.layer["checkpoint.bytes"] = nbytes
                tin_layer_counts(ctx, out, tiles, n)
            return ok

        ctx.measure(iteration, min_ops=2)

    def verify(self, ctx):
        for i, out in enumerate(self.outs):
            ctx.check(f"extract_ok[{i}]", out["extract_ok"] == len(self.ids),
                      f"{out['extract_ok']} of {len(self.ids)}")
        pip_want, counts_want = flagship_oracles(self.ids)
        check_tin_outputs(ctx, "flagship", self.outs, counts_want, pip_want)

    def trace_extras(self, ctx):
        kernel_timings(ctx, os.path.join(ctx.work, "points"))
        queries = QueryMix(ctx)
        queries.run(ctx)
        if not ctx.runner.hung:
            queries.verify(ctx)


class FlagshipHotTile(Workload):
    def prepare(self, ctx):
        self.pts = os.path.join(ctx.work, "points")
        table = gen.block_points(N_HOT, ctx.seed, gen.HOT_SHARE)
        gen.write_shards(table, self.pts)
        self.n = table.num_rows
        self.outs = []

    def run(self, ctx):
        def iteration():
            tiles = os.path.join(ctx.work, "tiles")
            shutil.rmtree(tiles, ignore_errors=True)
            ok, out, wall = ctx.runner.run(
                "hot_tile", lambda: tin_then_pip(self.pts, tiles, self.n, ctx)
            )
            if ok:
                ctx.record_op(wall, self.n)
                self.outs.append(out)
                tin_layer_counts(ctx, out, tiles, self.n)
            return ok

        ctx.measure(iteration, min_ops=2)

    def verify(self, ctx):
        pip_want, counts_want = hot_tile_oracles(self.pts)
        check_tin_outputs(ctx, "hot_tile", self.outs, counts_want, pip_want)
        hot = int((counts_want["n_points"] > ctx.threshold(self.n)).sum())
        ctx.check("hot_tile.one_tile_over_threshold", hot == 1, f"{hot} hot tiles")

    def trace_extras(self, ctx):
        kernel_timings(ctx, self.pts)


class ResumeHalf(Workload):
    def prepare(self, ctx):
        self.ids = gen.block_doc_ids(N_UNIFORM, ctx.seed)
        self.pts = os.path.join(ctx.work, "points")
        self.fresh = os.path.join(ctx.work, "fresh")
        self.template = os.path.join(ctx.work, "half")
        self.outs = []
        gen.write_shards(gen.block_points(N_UNIFORM, ctx.seed), self.pts)

    def prepare_in_session(self, ctx):
        """One fresh full TIN run, then a copy of its output with the
        tiles of a seed-chosen half of the keys taken away: the state a
        run killed after committing that half leaves behind."""
        from lasutility_ray.state.manifest import MANIFEST_DIR, TILES_DIR

        self.fresh_manifest = run_tin(self.pts, self.fresh, len(self.ids), ctx)
        keys = sorted(self.fresh_manifest.column("key").to_pylist())
        rng = gen.seeded_rng(ctx.seed, 4)
        pending = rng.choice(keys, len(keys) // 2, replace=False).tolist()
        shutil.copytree(self.fresh, self.template)
        for key in pending:
            for sub in (TILES_DIR, MANIFEST_DIR):
                os.remove(os.path.join(self.template, sub, f"{key}.parquet"))

    def run(self, ctx):
        from lasutility_ray.state.manifest import MANIFEST_DIR, finished_keys, manifest_table

        n = len(self.ids)
        work = os.path.join(ctx.work, "resume")

        def iteration():
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(self.template, work)
            n_before = len(finished_keys(work))
            t_start = time.time_ns()

            def resume():
                with ctx.tracer.span("tin"):
                    return run_tin(self.pts, work, n, ctx)

            ok, manifest, wall = ctx.runner.run("resume", resume)
            if not ok:
                return False
            ctx.record_op(wall, n)
            self.outs.append({"manifest": manifest})
            mdir = os.path.join(work, MANIFEST_DIR)
            committed = sum(
                1 for f in os.listdir(mdir) if os.stat(os.path.join(mdir, f)).st_mtime_ns >= t_start
            )
            pending = manifest.num_rows - n_before
            ctx.layer["tin.tiles_committed"] = committed
            ctx.layer["resume.tiles_recomputed"] = committed
            ctx.layer["resume.useful_ratio"] = pending / committed if committed else 0.0
            if ctx.tracer.enabled:
                for name, fn in (("manifest.finished_keys", finished_keys),
                                 ("manifest.read", manifest_table)):
                    with ctx.tracer.span(name):
                        fn(work)
            return True

        ctx.measure(iteration, min_ops=5)

    def verify(self, ctx):
        _, counts_want = flagship_oracles(self.ids)
        check_tin_outputs(ctx, "resume", self.outs, counts_want)
        fresh = manifest_hashes(self.fresh_manifest)
        for i, out in enumerate(self.outs):
            ctx.check(f"resume.hash_equals_fresh[{i}]", manifest_hashes(out["manifest"]) == fresh)
        ok, why = frames_equal(manifest_counts(self.fresh_manifest), counts_want)
        ctx.check("resume.fresh_tile_n_points", ok, why)

    def trace_extras(self, ctx):
        kernel_timings(ctx, self.pts)


class QueryMix:
    """The 17 contract queries, one at a time in a seed-permuted order
    per pass, over generated sf0.01-sized tables. Their pass times
    spread too widely across runs to be a workload of their own, so
    traced ``flagship_uniform`` runs make ``N_PASSES`` passes and report
    the per-query layer metrics."""

    N_PASSES = 2

    def __init__(self, ctx: Ctx):
        self.sf = os.path.join(ctx.work, "sf")
        self.rows = gen.write_query_tables(ctx.seed, self.sf)
        self.results: dict[str, list[pd.DataFrame]] = {n: [] for n in QUERY_TABLES}
        self.walls: dict[str, list[float]] = {n: [] for n in QUERY_TABLES}

    def run(self, ctx: Ctx) -> None:
        import __ray_entry__ as entry

        queries = entry.queries()
        rng = gen.seeded_rng(ctx.seed, 3)
        for _ in range(self.N_PASSES):
            for name in rng.permutation(sorted(QUERY_TABLES)):
                fn = queries[name]
                ok, df, wall = ctx.runner.run(
                    f"query.{name}", lambda fn=fn: _to_pandas(fn(self.sf))
                )
                if ctx.runner.hung:
                    return
                if ok:
                    self.walls[name].append(wall)
                    self.results[name].append(df)
        for name, walls in self.walls.items():
            ctx.layer[f"query.{name}.p50_s"] = median(walls)
        ctx.layer["query.floor_s"] = median(self.walls[FLOOR_QUERY])

    def verify(self, ctx: Ctx) -> None:
        import __ray_entry__ as entry

        from lasutility_ray.stages.classifier import FEATURES

        sql = entry.oracle_sql()
        con = duckdb.connect()
        con.execute("SET threads TO 1")
        for t in self.rows:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{self.sf}/{t}.parquet')")
        for name, dfs in sorted(self.results.items()):
            if not dfs:
                ctx.check(f"{name}.ran", False, "no successful execution")
                continue
            if name in sql:
                want = con.execute(sql[name]).df()
                for i, df in enumerate(dfs):
                    ok, why = frames_equal(df, want)
                    ctx.check(f"{name}[{i}]", ok, why)
            else:  # rows-only: the row content is pinned across executions
                terms = dfs[0]["term"].tolist()
                ctx.check(f"{name}.terms", terms == list(FEATURES) + ["__bias__"], str(terms))
                for i, df in enumerate(dfs[1:], 1):
                    ok, why = frames_equal(df, dfs[0])
                    ctx.check(f"{name}[{i}]", ok, why)


WORKLOADS = {
    "flagship_uniform": FlagshipUniform,
    "flagship_hot_tile": FlagshipHotTile,
    "resume_half": ResumeHalf,
}
