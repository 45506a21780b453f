"""Second-order graph statistics composed from pinned primitives:

- **local clustering coefficient** per host: how close a host's
  neighborhood is to a clique — ``2 * triangles / (deg * (deg - 1))``
  in exact integer millionths, composing stages/graph.py's
  ``triangle_counts`` (Suri–Vassilvitskii) with the degree table; the
  spam-ring discriminator (link farms have near-clique neighborhoods).

Shape: both inputs are host-space-bounded tables (distinct hosts,
never the corpus); attaching triangles to degrees is one bucketed
``lookup_join``; hosts with deg < 2 are excluded (coefficient
undefined). Integer millionths keep both engines bit-equal.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..corpus.geocode import H1_MUL, M32
from .graph import (
    N_HOST_SITES,
    host_schema,
    local_fast_path,
    triangle_counts_from_edges,
    undirected_host_edges,
)

SCALE = 1_000_000
TWO_HOP_SCHEMA = host_schema("n_reach2")


def clustering_coefficients(docs_ds):
    """documents -> (host_id, deg, n_triangles, coeff_e6) for hosts
    with deg >= 2; triangle-less hosts carry 0."""
    from ray.data.aggregate import Count

    from .cogroup import lookup_join

    edges = undirected_host_edges(docs_ds).materialize()

    def ends(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [t.column("u").combine_chunks(), t.column("v").combine_chunks()]
                )
            }
        )

    deg = (
        edges.map_batches(ends, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Count(alias_name="deg"))
        .materialize()
    )
    # reuse the materialized edge table — calling triangle_counts on
    # the docs would rebuild + re-distinct the edges a second time
    tri = triangle_counts_from_edges(edges).materialize()

    # union zero triangle rows for every node, one groupby-max — the
    # outer-join-free way to give triangle-less hosts an explicit 0
    from ray.data.aggregate import Max

    def zero_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": t.column("node"),
                "n_triangles": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
            }
        )

    # BLOCK-TYPE HAZARD (repo rule): triangle_counts ends in a pandas
    # map_groups lineage while deg is arrow — normalize both to arrow
    # before the union or the groupby boundary sampler asserts.
    def as_arrow(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": t.column("host").cast(pa.int64()),
                "n_triangles": t.column("n_triangles").cast(pa.int64()),
            }
        )

    tri_full = (
        tri.map_batches(as_arrow, batch_format="pyarrow")
        .union(deg.map_batches(zero_rows, batch_format="pyarrow"))
        .groupby("host")
        .aggregate(Max("n_triangles", alias_name="n_triangles"))
        .materialize()
    )
    joined = lookup_join(
        tri_full, deg, "host", "node", {"deg": "deg"}
    )

    def score(t: pa.Table) -> pa.Table:
        tr = t.column("n_triangles").to_numpy(zero_copy_only=False).astype(np.int64)
        dg = t.column("deg").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = dg >= 2
        tr, dg = tr[keep], dg[keep]
        host = t.column("host").to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        coeff = (2 * tr * SCALE) // (dg * (dg - 1))
        return pa.table(
            {
                "host_id": pa.array(host, pa.int64()),
                "deg": pa.array(dg, pa.int64()),
                "n_triangles": pa.array(tr, pa.int64()),
                "coeff_e6": pa.array(coeff, pa.int64()),
            }
        )

    return joined.map_batches(score, batch_format="pyarrow")


def clustering_sql(src: str = "documents") -> str:
    """DuckDB mirror of :func:`clustering_coefficients` — the triangle
    triple-join + degree table, same integer millionths."""
    h1 = f"((doc_id * {H1_MUL}) % {M32})"
    return (
        f"WITH cc_raw AS (SELECT doc_id % {N_HOST_SITES} AS src, "
        f"{h1} % {N_HOST_SITES} AS d1, "
        f"({h1} // {N_HOST_SITES}) % {N_HOST_SITES} AS d2 FROM {src}), "
        "cc_e AS (SELECT DISTINCT least(src, dst) AS u, "
        "greatest(src, dst) AS v FROM ("
        "SELECT src, d1 AS dst FROM cc_raw UNION ALL "
        "SELECT src, d2 AS dst FROM cc_raw) WHERE src <> dst), "
        "cc_d AS (SELECT node, CAST(count(*) AS BIGINT) AS deg FROM ("
        "SELECT u AS node FROM cc_e UNION ALL SELECT v FROM cc_e) "
        "GROUP BY node), "
        "cc_o AS (SELECT CASE WHEN du.deg < dv.deg OR "
        "(du.deg = dv.deg AND e.u < e.v) THEN e.u ELSE e.v END AS s, "
        "CASE WHEN du.deg < dv.deg OR (du.deg = dv.deg AND e.u < e.v) "
        "THEN e.v ELSE e.u END AS t "
        "FROM cc_e e JOIN cc_d du ON du.node = e.u "
        "JOIN cc_d dv ON dv.node = e.v), "
        "cc_t AS (SELECT a.s AS x, a.t AS y, b.t AS z "
        "FROM cc_o a JOIN cc_o b ON b.s = a.t "
        "JOIN cc_o c ON c.s = a.s AND c.t = b.t), "
        "cc_h AS (SELECT x AS host FROM cc_t UNION ALL "
        "SELECT y FROM cc_t UNION ALL SELECT z FROM cc_t), "
        "cc_n AS (SELECT host, CAST(count(*) AS BIGINT) AS n_triangles "
        "FROM cc_h GROUP BY host) "
        "SELECT d.node AS host_id, d.deg, "
        "CAST(coalesce(n.n_triangles, 0) AS BIGINT) AS n_triangles, "
        f"CAST((2 * coalesce(n.n_triangles, 0) * {SCALE}) "
        "// (d.deg * (d.deg - 1)) AS BIGINT) AS coeff_e6 "
        "FROM cc_d d LEFT JOIN cc_n n ON n.host = d.node "
        "WHERE d.deg >= 2"
    )


def _two_hop_local(edges_df: pd.DataFrame) -> pd.DataFrame:
    """Whole 2-hop reach in one process on the symmetric edge frame
    (friends-of-friends merge + distinct + size) — the graph.py
    one-task fast-path shape, pinned equal to the distributed chain."""
    hop2 = edges_df.merge(
        edges_df.rename(columns={"src": "dst", "dst": "dst2"}), on="dst"
    )[["src", "dst2"]].rename(columns={"dst2": "dst"})
    both = pd.concat([edges_df, hop2], ignore_index=True)
    both = both[both["src"] != both["dst"]].drop_duplicates(["src", "dst"])
    out = both.groupby("src", sort=False).size().reset_index(name="n_reach2")
    return pd.DataFrame(
        {
            "host_id": out["src"].astype(np.int64),
            "n_reach2": out["n_reach2"].astype(np.int64),
        }
    )


def two_hop_sizes(docs_ds):
    """Per-host 2-hop neighborhood size: |{nodes reachable in <= 2
    undirected hops}| excluding the host itself — the local reach
    metric behind influence estimates and supernode detection.

    Shape: symmetric edges materialize once (bounded by the distinct
    host-pair space); friends-of-friends is ONE many-to-many
    ``lookup_join`` of the edge table against itself (fan-out =
    neighbor degree, bounded by the degree cap of real host graphs —
    salt supernodes if not); the union of 1-hop
    and 2-hop rows collapses through a coarse-bucket distinct before
    one single-key count. No multi-key aggregate anywhere. Below
    graph.py's ``FAST_PATH_MAX_EDGES`` symmetric edges the whole chain
    runs in ONE task — 4 wide stages of fixed shuffle overhead on a
    bounded edge table (pinned equal to the distributed chain)."""
    from .cogroup import lookup_join, shuffle_by
    from .graph import FAST_PATH_MAX_EDGES, undirected_host_edges

    def sym(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([u, v]), pa.int64()),
                "dst": pa.array(np.concatenate([v, u]), pa.int64()),
            }
        )

    edges = (
        undirected_host_edges(docs_ds)
        .map_batches(sym, batch_format="pyarrow")
        .materialize()
    )
    if edges.count() <= FAST_PATH_MAX_EDGES:
        return local_fast_path(_two_hop_local, edges, TWO_HOP_SCHEMA)
    hop2 = lookup_join(
        edges, edges, "dst", "src", {"dst": "dst2"}, multi=True
    )

    def second(t: pa.Table) -> pa.Table:
        return pa.table({"src": t.column("src"), "dst": t.column("dst2")})

    both = edges.union(hop2.map_batches(second, batch_format="pyarrow"))

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        sub = g[g["src"] != g["dst"]].drop_duplicates(["src", "dst"])
        return (
            sub.groupby("src", sort=False).size().reset_index(name="part")
        )

    from ray.data.aggregate import Sum

    return (
        shuffle_by(both, ["src", "dst"], count_part)
        .groupby("src")
        .aggregate(Sum("part", alias_name="n_reach2"))
        .map_batches(
            lambda t: pa.table(
                {
                    "host_id": t.column("src"),
                    "n_reach2": t.column("n_reach2").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def two_hop_sql(src: str = "documents") -> str:
    """DuckDB mirror of :func:`two_hop_sizes`."""
    h1 = f"((doc_id * {H1_MUL}) % {M32})"
    return (
        f"WITH th_raw AS (SELECT doc_id % {N_HOST_SITES} AS src, "
        f"{h1} % {N_HOST_SITES} AS d1, "
        f"({h1} // {N_HOST_SITES}) % {N_HOST_SITES} AS d2 FROM {src}), "
        "th_e AS (SELECT DISTINCT least(src, dst) AS u, "
        "greatest(src, dst) AS v FROM ("
        "SELECT src, d1 AS dst FROM th_raw UNION ALL "
        "SELECT src, d2 AS dst FROM th_raw) WHERE src <> dst), "
        "th_s AS (SELECT u AS src, v AS dst FROM th_e "
        "UNION ALL SELECT v, u FROM th_e), "
        "th_r AS (SELECT src, dst FROM th_s UNION "
        "SELECT a.src, b.dst FROM th_s a JOIN th_s b ON b.src = a.dst) "
        "SELECT src AS host_id, CAST(count(*) AS BIGINT) AS n_reach2 "
        "FROM th_r WHERE src <> dst GROUP BY src"
    )


# ------------------------------------------------------ spanning forest

MST_LOCAL_EDGE_LIMIT = 2_000_000
_W_MIX = np.uint64(0x9E3779B97F4A7C15)
_W_MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _edge_weights(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Deterministic positive int64 weight per undirected edge (u<v):
    a mixed hash — effectively unique, and the (w, u, v) total order
    below makes the MSF unique even under hash collisions."""
    h = (
        u.astype(np.uint64) * _W_MIX ^ v.astype(np.uint64) * _W_MIX2
    ) >> np.uint64(2)
    return (h % np.uint64(1 << 40)).astype(np.int64) + 1


def _kruskal_frame(df: pd.DataFrame) -> pd.DataFrame:
    """One-task MSF kernel: union-find Kruskal over (w, u, v) order."""
    u = df["u"].to_numpy(np.int64)
    v = df["v"].to_numpy(np.int64)
    w = _edge_weights(u, v)
    order = np.lexsort((v, u, w))
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    iu, iv = inv[: len(u)], inv[len(u):]
    parent = np.arange(len(nodes), dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    keep = []
    for i in order.tolist():
        ru, rv = find(int(iu[i])), find(int(iv[i]))
        if ru != rv:
            parent[ru] = rv
            keep.append(i)
    k = np.array(keep, dtype=np.int64)
    return pd.DataFrame(
        {"u": u[k], "v": v[k], "w": w[k]}
    ).sort_values(["u", "v"]).reset_index(drop=True)


def mst_forest(docs_ds):
    """Minimum spanning forest of the weighted host graph ->
    (u, v, w) chosen edges. Size-adaptive: one-task Kruskal up to
    ``MST_LOCAL_EDGE_LIMIT`` edges, above it the log-round BORŮVKA
    contraction — per round every component picks its minimum
    outgoing edge (a per-comp argmin groupby), the chosen comp-graph
    contracts through the pinned CC kernel, and node labels update by
    one ``lookup_join``; components at least halve per round. Unique
    weights (the (w, u, v) total order) make the forest unique, so
    the two paths are pinned bit-identical. Rows-only surface (MSF
    has no tractable SQL mirror); invariants + forced-path equality
    in pytest."""
    import ray.data as rd

    from .cogroup import one_task
    from .graph import undirected_host_edges

    edges = undirected_host_edges(docs_ds).materialize()
    if edges.count() <= MST_LOCAL_EDGE_LIMIT:
        return rd.from_pandas(
            one_task(
                lambda t: pd.DataFrame() if t is None else _kruskal_frame(t.to_pandas()),
                edges,
            )
        )
    return _mst_boruvka(edges)


def _mst_boruvka(edges):
    """Distributed Borůvka rounds over Datasets."""
    import ray.data as rd

    from .cogroup import capped_n_buckets, lookup_join, shuffle_by
    from .dedup import duplicate_components

    def weighted(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "w": pa.array(_edge_weights(u, v), pa.int64()),
            }
        )

    ew = edges.map_batches(weighted, batch_format="pyarrow").materialize()
    n_blocks = capped_n_buckets(ew.count())

    def ends(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [t.column("u").combine_chunks(), t.column("v").combine_chunks()]
                )
            }
        )

    def uniq_nodes(g: pd.DataFrame) -> pd.DataFrame:
        out = g.drop_duplicates(["node"])[["node"]].copy()
        out["comp"] = out["node"]
        return out

    labels = (
        shuffle_by(ew.map_batches(ends, batch_format="pyarrow"), "node", uniq_nodes)
        .map_batches(
            lambda t: pa.table(
                {"node": t.column("node").cast(pa.int64()),
                 "comp": t.column("comp").cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    chosen_parts: list = []
    for _ in range(64):  # components at least halve per round
        lab_u = lookup_join(ew, labels, "u", "node", {"comp": "cu"})
        lab_uv = lookup_join(lab_u, labels, "v", "node", {"comp": "cv"})

        def inter(t: pa.Table) -> pa.Table:
            keep = t.column("cu").to_numpy() != t.column("cv").to_numpy()
            return t.filter(pa.array(keep))

        live = lab_uv.map_batches(inter, batch_format="pyarrow").materialize()
        if live.count() == 0:
            break

        def comp_rows(t: pa.Table) -> pa.Table:
            # each live edge contends for BOTH endpoint components
            cols = ["u", "v", "w"]
            base = {c: t.column(c).to_numpy() for c in cols}
            out = {
                c: pa.array(np.concatenate([base[c], base[c]]), pa.int64())
                for c in cols
            }
            out["comp"] = pa.array(
                np.concatenate(
                    [t.column("cu").to_numpy(), t.column("cv").to_numpy()]
                ),
                pa.int64(),
            )
            return pa.table(out)

        def min_edge(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["comp", "w", "u", "v"], kind="mergesort")
            first = g.drop_duplicates("comp", keep="first")
            return first[["comp", "u", "v", "w"]]

        # per-comp argmin: comp rows bucket by comp (all rows of a comp
        # share a bucket), in-bucket sort + first
        picked = shuffle_by(
            live.map_batches(comp_rows, batch_format="pyarrow"), "comp", min_edge
        ).materialize()

        def edge_only(t: pa.Table) -> pa.Table:
            df = pd.DataFrame(
                {
                    "u": t.column("u").to_numpy(),
                    "v": t.column("v").to_numpy(),
                    "w": t.column("w").to_numpy(),
                }
            ).drop_duplicates(["u", "v"])
            return pa.Table.from_pandas(df, preserve_index=False)

        new_edges = picked.map_batches(edge_only, batch_format="pyarrow").materialize()
        chosen_parts.append(new_edges)

        # contract: CC of the chosen comp-graph, then relabel nodes
        def comp_pairs(t: pa.Table) -> pa.Table:
            return pa.table({"a": t.column("u"), "b": t.column("v")})

        # chosen edges connect NODES; express as comp pairs via labels
        pe = lookup_join(
            new_edges, labels, "u", "node", {"comp": "ca"}
        )
        pe = lookup_join(pe, labels, "v", "node", {"comp": "cb"})
        cmap = duplicate_components(
            pe.map_batches(
                lambda t: pa.table({"a": t.column("ca"), "b": t.column("cb")}),
                batch_format="pyarrow",
            )
        ).materialize()
        relab = lookup_join(
            labels, cmap, "comp", "node", {"component": "newc"}, how="inner"
        )

        def apply_new(t: pa.Table) -> pa.Table:
            return pa.table(
                {"node": t.column("node"), "comp": t.column("newc").cast(pa.int64())}
            )

        # comps untouched this round keep their label (anti side)
        untouched = lookup_join(labels, cmap, "comp", "node", {}, how="anti")
        labels = (
            relab.map_batches(apply_new, batch_format="pyarrow")
            .union(
                untouched.map_batches(
                    lambda t: pa.table(
                        {"node": t.column("node"), "comp": t.column("comp")}
                    ),
                    batch_format="pyarrow",
                )
            )
            .repartition(n_blocks)
            .materialize()
        )

    if not chosen_parts:
        return rd.from_arrow(
            pa.table(
                {"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64()),
                 "w": pa.array([], pa.int64())}
            )
        )
    out = chosen_parts[0]
    for part in chosen_parts[1:]:
        out = out.union(part)

    return shuffle_by(out, ["u", "v"], lambda g: g.drop_duplicates(["u", "v"])[["u", "v", "w"]])
