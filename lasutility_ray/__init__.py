"""lasutility_ray — a Ray-Data-native spatial tiling / join / rasterization engine.

A from-scratch reimplementation of the query and data-processing
capabilities of Kuoste/LasUtility (reference read-only at
/root/reference), re-expressed as ray.data.Dataset pipelines over
zero-copy Arrow batches:

- ``geom``      pure numpy kernels (tile codec, raster bounds, fills,
                Delaunay TIN, RLE / ASCII-grid codecs) — no Ray imports.
- ``corpus``    deterministic synthetic Common-Crawl-style page corpus
                (url, warc_ts, html, text, lang) + geocoding.
- ``stages``    Ray Data map_batches / groupby stages (tiling, voxel
                aggregation, TIN rasterization, PIP join, kNN, dedup,
                text analysis, similarity search, multimodal stubs).
- ``pipelines`` end-to-end flagship pipelines + checkpoint/resume.

Nothing in this package calls ``ray.init()``; sessions are owned by
bench.py / the test fixture / the driver.
"""

__version__ = "0.1.0"

# Curated public API, lazily resolved so `import lasutility_ray`
# stays usable from pure-kernel (no-Ray) contexts: geom never imports
# ray; everything else resolves on first attribute access.
_PUBLIC = {
    # flagship / flows
    "flagship": ("lasutility_ray.pipelines.flagship", "flagship"),
    "documents_to_points": ("lasutility_ray.pipelines.flagship", "documents_to_points"),
    "flow_a_tin_export": ("lasutility_ray.pipelines.flows", "flow_a_tin_export"),
    "flow_b_rasterise": ("lasutility_ray.pipelines.flows", "flow_b_rasterise"),
    "flow_c_voxel_snapshot": ("lasutility_ray.pipelines.flows", "flow_c_voxel_snapshot"),
    "flow_c_reload": ("lasutility_ray.pipelines.flows", "flow_c_reload"),
    # wide steps
    "points_dataset": ("lasutility_ray.stages.tiling", "points_dataset"),
    "tin_tiles": ("lasutility_ray.stages.tin", "tin_tiles"),
    "tin_triangles": ("lasutility_ray.stages.tin", "tin_triangles"),
    "burned_tiles": ("lasutility_ray.stages.pip_join", "burned_tiles"),
    "rect_pip_join": ("lasutility_ray.stages.pip_join", "rect_pip_join"),
    "polygon_pip_join": ("lasutility_ray.stages.pip_join", "polygon_pip_join"),
    "raster_value_lookup": ("lasutility_ray.stages.raster_lookup", "raster_value_lookup"),
    "knn_join": ("lasutility_ray.stages.knn", "knn_join"),
    "idw_join": ("lasutility_ray.stages.idw", "idw_join"),
    "neighborhood_peaks_ds": ("lasutility_ray.stages.neighborhood", "neighborhood_peaks_ds"),
    "hash_join": ("lasutility_ray.stages.relational", "hash_join"),
    "broadcast_join": ("lasutility_ray.stages.relational", "broadcast_join"),
    "topk_per_group": ("lasutility_ray.stages.relational", "topk_per_group"),
    # training-data ops
    "exact_dedup": ("lasutility_ray.stages.dedup", "exact_dedup"),
    "minhash_dedup_pairs": ("lasutility_ray.stages.dedup", "minhash_dedup_pairs"),
    "simhash_pairs": ("lasutility_ray.stages.dedup", "simhash_pairs"),
    "embedding_nn_pairs": ("lasutility_ray.stages.dedup", "embedding_nn_pairs"),
    "duplicate_components": ("lasutility_ray.stages.dedup", "duplicate_components"),
    "ann_topk": ("lasutility_ray.stages.similarity", "ann_topk"),
    "ann_topk_ivf": ("lasutility_ray.stages.similarity", "ann_topk_ivf"),
    "hll_count_distinct": ("lasutility_ray.stages.sketch", "hll_count_distinct"),
    "text_stats": ("lasutility_ray.stages.text", "text_stats"),
    "lang_id": ("lasutility_ray.stages.text", "lang_id"),
    "tumbling_window": ("lasutility_ray.stages.events", "tumbling_window"),
    "sliding_window": ("lasutility_ray.stages.events", "sliding_window"),
    "sessionize": ("lasutility_ray.stages.events", "sessionize"),
    # state / sinks
    "resumable_tiles": ("lasutility_ray.state", "resumable_tiles"),
    "resumable_tin_tiles": ("lasutility_ray.state", "resumable_tin_tiles"),
    "write_burned_tiles_ascii": ("lasutility_ray.sources", "write_burned_tiles_ascii"),
    "read_ascii_tiles": ("lasutility_ray.sources", "read_ascii_tiles"),
}

__all__ = sorted(_PUBLIC)


def __getattr__(name):
    try:
        mod_name, attr = _PUBLIC[name]
    except KeyError:
        raise AttributeError(f"module 'lasutility_ray' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(mod_name), attr)
