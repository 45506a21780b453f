"""Cluster job entry point: the flagship pipeline as a `ray job
submit` payload.

On a real cluster:

    ray job submit --working-dir . -- \
        python run_flagship_job.py --sf-dir s3://bucket/pages \
        --out-dir s3://bucket/tiles_out

In this sandbox it runs against the local testdata. The job is
resumable: every finished tile has an atomic parquet + manifest row
under ``--out-dir``; re-submitting the same job skips them (kill it
mid-run and re-run to verify). Owns its Ray session only when run as
a script (``ray job submit`` drivers connect with address="auto").
"""

from __future__ import annotations

import argparse
import json
import time


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    ap.add_argument("--out-dir", default="/tmp/flagship_job_out")
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="local-mode CPU cap (ignored on a cluster)")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus:
            kwargs.update(num_cpus=args.num_cpus, address="local")
        # else: RAY_ADDRESS decides — the cluster address under
        # `ray job submit`, "local" in this sandbox (preset)
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from lasutility_ray.corpus.polygons import build_feature_table
    from lasutility_ray.pipelines.flagship import documents_to_points
    from lasutility_ray.stages.pip_join import rect_pip_join
    from lasutility_ray.state.manifest import resumable_tin_tiles

    t0 = time.perf_counter()
    points = documents_to_points(args.sf_dir)
    pip_rows = rect_pip_join(points, build_feature_table()).count()
    # one shuffle on the int64 tile key; each tile's TIN is built
    # whole in its group and committed with a manifest row
    manifest = resumable_tin_tiles(
        documents_to_points(args.sf_dir), args.out_dir, key_col="tile_key"
    )
    print(
        json.dumps(
            {
                "job": "flagship",
                "sf_dir": args.sf_dir,
                "out_dir": args.out_dir,
                "n_tiles": manifest.num_rows,
                "n_pip_rows": pip_rows,
                "wall_s": round(time.perf_counter() - t0, 2),
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
