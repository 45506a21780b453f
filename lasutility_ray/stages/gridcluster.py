"""Density-grid clustering (grid DBSCAN / STING family) over the
geocoded page points: cells of a fixed integer grid are CORE when
they hold >= ``MIN_PTS`` points; clusters are the connected
components of the 8-neighbor core-cell graph; every point in a core
cell is labeled with its component id (= min cell key, a stable
deterministic label); points in sparse cells are noise and emit
nothing. This is the density-based spatial clustering primitive a
geospatial engine pairs with its tiling (the reference's 1 km block
structure in `Nls/PointCloud05p.cs` reinterpreted as a density
grid).

Scale shape — nothing corpus-sized ever leaves the cluster:
1. ONE groupby(cell) count over slim (cell) keys -> the occupied-cell
   table (bounded by the WORLD's cell count, not the corpus);
2. candidate 8-neighbor edges from the core cells (4 positive
   offsets/cell, symmetrized) are verified core-to-core with ONE
   in-cluster ``lookup_join``; a self-edge per core cell keeps
   isolated cells as singleton clusters;
3. components via the repo's `duplicate_components` (vectorized
   pointer-doubling CC in one task below the edge limit, distributed
   label propagation above);
4. points are labeled by ONE ``lookup_join`` against the
   (cell -> cluster) table.

Exactness: integer-mm points (`snap.point_mm`), floor-division cells,
min-reachable-id labels — the DuckDB oracle mirrors with the SAME
cell arithmetic and a WITH RECURSIVE transitive closure, so equality
proves the whole chain incl. the CC implementation.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..corpus.geocode import H1_MUL, H2_ADD, H2_MUL, M32
from .snap import W, point_mm

CELL = 500_000  # 0.5 km grid in mm
NC = W // CELL + 1
MIN_PTS = 2

# positive-direction neighbor offsets; symmetrized edge list covers
# the full 8-neighborhood
_OFFS = ((0, 1), (1, -1), (1, 0), (1, 1))


def grid_clusters(docs_ds):
    """documents -> (doc_id, cluster_id) for points in core cells.

    Round-5 shape: the cell graph is bounded by the WORLD's cell
    count (NC^2), never by the corpus — so after the one corpus pass
    of per-batch (cell, count) partials, everything cellular (final
    counts, core filter, 8-neighbor edges, connected components via
    the shared ``_cc_numpy`` pointer-doubling kernel) finishes in ONE
    task on the gathered slim partials, and the (cell -> cluster)
    map broadcasts back for a map-only point labeling pass. The
    previous chain paid FOUR sequential exchanges (groupby + core
    lookup_join + CC + labeling lookup_join) = ~4.5 s of fixed
    exchange cost at every scale for a world-bounded graph; now ~1.5 s
    and exactly one all-to-all-free corpus pass each way."""
    from .cogroup import one_task

    def to_cells(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        px, py = point_mm(did)
        cell = (px // CELL) * NC + py // CELL
        u, c = np.unique(cell, return_counts=True)
        return pa.table(
            {"cell": pa.array(u, pa.int64()), "n": pa.array(c.astype(np.int64))}
        )

    partials = docs_ds.select_columns(["doc_id"]).map_batches(
        to_cells, batch_format="pyarrow"
    )

    def finish(t: pa.Table | None) -> pa.Table:
        from .dedup import _cc_numpy

        empty = pa.table(
            {"node": pa.array([], pa.int64()), "component": pa.array([], pa.int64())}
        )
        if t is None:
            return empty
        cell = t.column("cell").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        u, inv = np.unique(cell, return_inverse=True)
        tot = np.zeros(len(u), np.int64)
        np.add.at(tot, inv, n)
        core = u[tot >= MIN_PTS]
        if len(core) == 0:
            return empty
        cx, cy = core // NC, core % NC
        srcs = [core]
        dsts = [core]  # self-edges keep isolated core cells
        core_sorted = core  # np.unique output is sorted
        for dx, dy in _OFFS:
            nx, ny = cx + dx, cy + dy
            ok = (nx >= 0) & (nx < NC) & (ny >= 0) & (ny < NC)
            cand = nx[ok] * NC + ny[ok]
            src = core[ok]
            # neighbor must itself be core (sorted-array membership)
            pos = np.minimum(np.searchsorted(core_sorted, cand), len(core_sorted) - 1)
            hit = core_sorted[pos] == cand
            srcs.append(src[hit])
            dsts.append(cand[hit])
        return _cc_numpy(np.concatenate(srcs), np.concatenate(dsts))

    comp = one_task(finish, partials)
    comp_sorted = comp.take(
        pa.compute.sort_indices(comp, sort_keys=[("node", "ascending")])
    )
    comp_sorted = comp_sorted.combine_chunks()
    nodes = comp_sorted.column("node").to_numpy()
    comps = comp_sorted.column("component").to_numpy()

    def label(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        px, py = point_mm(did)
        cell = (px // CELL) * NC + py // CELL
        if len(nodes) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "cluster_id": pa.array([], pa.int64()),
                }
            )
        pos = np.minimum(np.searchsorted(nodes, cell), len(nodes) - 1)
        hit = nodes[pos] == cell
        return pa.table(
            {
                "doc_id": pa.array(did[hit], pa.int64()),
                "cluster_id": pa.array(comps[pos[hit]], pa.int64()),
            }
        )

    return docs_ds.select_columns(["doc_id"]).map_batches(
        label, batch_format="pyarrow"
    )


def grid_clusters_sql(source: str = "documents") -> str:
    """DuckDB mirror: same cells, WITH RECURSIVE transitive closure
    over the symmetric 8-neighbor core graph, min-reachable label."""
    h1 = f"((doc_id * {H1_MUL}) % {M32})"
    h2 = f"((doc_id * {H2_MUL} + {H2_ADD}) % {M32})"
    return (
        f"WITH RECURSIVE gc_p AS (SELECT doc_id, "
        f"(CASE WHEN doc_id % 10 < 3 THEN 6000000 + (doc_id % 4) * 1000000 "
        f"+ {h1} % 1000000 ELSE {h1} % {W} END) // {CELL} AS cx, "
        f"(CASE WHEN doc_id % 10 < 3 THEN 6000000 + {h2} % 1000000 "
        f"ELSE {h2} % {W} END) // {CELL} AS cy FROM {source}), "
        f"gc_core AS (SELECT cx, cy, cx * {NC} + cy AS cell FROM gc_p "
        f"GROUP BY cx, cy HAVING count(*) >= {MIN_PTS}), "
        "gc_e AS (SELECT a.cell AS src, b.cell AS dst FROM gc_core a "
        "JOIN gc_core b ON abs(a.cx - b.cx) <= 1 AND abs(a.cy - b.cy) <= 1), "
        "gc_r(cell, root) AS (SELECT cell, cell FROM gc_core "
        "UNION SELECT e.dst, r.root FROM gc_r r JOIN gc_e e ON e.src = r.cell), "
        "gc_lab AS (SELECT cell, min(root) AS cluster_id FROM gc_r GROUP BY cell) "
        f"SELECT p.doc_id, CAST(l.cluster_id AS BIGINT) AS cluster_id "
        f"FROM gc_p p JOIN gc_lab l ON p.cx * {NC} + p.cy = l.cell"
    )
