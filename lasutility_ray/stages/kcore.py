"""k-core peeling over the undirected host graph — the standard
"dense cohesive subgraph" reduction (spam-farm / link-ring detection
on web graphs): repeatedly delete hosts with fewer than k surviving
neighbors until the subgraph is stable.

The OPERATOR is defined as exactly ``rounds`` synchronous peel rounds
(each round: degrees over the current edge set -> keep nodes with
deg >= k -> restrict edges to kept nodes), the same bounded-iteration
convention as stages/graph.py sssp (<= 6 edges); a pytest pins that
the fixture converges well inside the bound, so the output IS the
true k-core there. Output: every host incident to a surviving edge
with its degree in the surviving subgraph.

Distributed shape: the per-round work is ONE exploded-ends groupby
(degrees) + TWO semi ``lookup_join``s (edge restriction), shuffle
volume O(surviving edges); the driver sees one scalar per round
(survivor count, for the stability early-exit — legal because a
stable round is the identity for every later round). Block-count
hygiene per the repo's BLOCK-GROWTH rule: each round repartitions
back to the bucket count. Local fast path below
``FAST_PATH_MAX_EDGES`` mirrors stages/graph.py; ``force_distributed``
pins both paths identical in tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .graph import FAST_PATH_MAX_EDGES, N_HOST_SITES

K_CORE = 3
ROUNDS = 12


def kcore_edges(docs_ds):
    """documents -> DISTINCT undirected host edges, the DENSER
    4-target variant (both hash streams): the 2-target graph of
    stages/graph.py is a forest at small scale, so every k >= 2 core
    is empty there — four targets per page give the peel something to
    bite on at every scale factor."""
    from ray.data.aggregate import Count

    from ..corpus.geocode import hashes

    def und(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        h1, h2 = hashes(d)
        src = d % N_HOST_SITES
        tgts = [
            h1 % N_HOST_SITES,
            (h1 // N_HOST_SITES) % N_HOST_SITES,
            h2 % N_HOST_SITES,
            (h2 // N_HOST_SITES) % N_HOST_SITES,
        ]
        s = np.concatenate([src] * 4)
        t_ = np.concatenate(tgts)
        keep = s != t_
        s, t_ = s[keep], t_[keep]
        return pa.table(
            {
                "u": pa.array(np.minimum(s, t_), pa.int64()),
                "v": pa.array(np.maximum(s, t_), pa.int64()),
            }
        )

    return (
        docs_ds.select_columns(["doc_id"])
        .map_batches(und, batch_format="pyarrow")
        .groupby(["u", "v"])
        .aggregate(Count(alias_name="__n"))
        .select_columns(["u", "v"])
    )


def _kcore_local(edges: pd.DataFrame, k: int, rounds: int) -> pd.DataFrame:
    """Single-task reference peel; bit-identical to the distributed
    path by construction."""
    u = edges["u"].to_numpy(np.int64)
    v = edges["v"].to_numpy(np.int64)
    for _ in range(rounds):
        if not len(u):
            break
        n = int(max(u.max(), v.max())) + 1
        deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        ok = deg >= k
        keep = ok[u] & ok[v]
        if keep.all():
            break
        u, v = u[keep], v[keep]
    if not len(u):
        return pd.DataFrame(
            {
                "host_id": pd.Series([], dtype=np.int64),
                "deg": pd.Series([], dtype=np.int64),
            }
        )
    n = int(max(u.max(), v.max())) + 1
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    hosts = np.flatnonzero(deg > 0).astype(np.int64)
    return pd.DataFrame({"host_id": hosts, "deg": deg[hosts].astype(np.int64)})


def kcore_hosts(
    docs_ds, k: int = K_CORE, rounds: int = ROUNDS, force_distributed: bool = False
):
    """documents -> (host_id, deg) for hosts surviving ``rounds`` peel
    rounds at threshold ``k``, with their surviving degree."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from .cogroup import default_n_buckets, lookup_join

    edges = kcore_edges(docs_ds).materialize()
    if not force_distributed and edges.count() <= FAST_PATH_MAX_EDGES:
        return rd.from_pandas(_kcore_local(edges.to_pandas(), k, rounds))

    n_buckets = max(4, min(default_n_buckets(), edges.count() // 200_000 + 1))

    def ends(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [t.column("u").combine_chunks(), t.column("v").combine_chunks()]
                )
            }
        )

    def degrees(e):
        return (
            e.map_batches(ends, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Count(alias_name="deg"))
        )

    prev_nodes = -1
    for _ in range(rounds):
        deg = degrees(edges).materialize()
        keep = deg.filter(lambda r, kk=k: r["deg"] >= kk).select_columns(["node"]).materialize()
        n_keep = keep.count()
        if n_keep == prev_nodes:
            break  # stable: every later round is the identity
        prev_nodes = n_keep
        if n_keep == 0:
            return rd.from_pandas(
                pd.DataFrame(
                    {
                        "host_id": pd.Series([], dtype=np.int64),
                        "deg": pd.Series([], dtype=np.int64),
                    }
                )
            )
        e1 = lookup_join(edges, keep, "u", "node", {}, how="semi")
        # semi lookup_join emits pandas blocks; keep the lineage uniform
        e2 = lookup_join(e1, keep, "v", "node", {}, how="semi")
        edges = (
            e2.map_batches(
                lambda df: pd.DataFrame(
                    {
                        "u": df["u"].astype(np.int64),
                        "v": df["v"].astype(np.int64),
                    }
                ),
                batch_format="pandas",
            )
            .repartition(n_buckets)
            .materialize()
        )
    return degrees(edges).rename_columns({"node": "host_id"})


def kcore_sql(k: int = K_CORE, rounds: int = ROUNDS, src: str = "documents") -> str:
    """DuckDB mirror of :func:`kcore_hosts` — same edge derivation,
    the peel rounds unrolled as chained CTEs."""
    from ..corpus.geocode import H1_MUL, H2_ADD, H2_MUL, M32
    from .graph import N_HOST_SITES

    h1 = f"((doc_id * {H1_MUL}) % {M32})"
    h2 = f"((doc_id * {H2_MUL} + {H2_ADD}) % {M32})"
    ctes = [
        (
            f"kc_raw AS (SELECT doc_id % {N_HOST_SITES} AS src, "
            f"{h1} % {N_HOST_SITES} AS d1, "
            f"({h1} // {N_HOST_SITES}) % {N_HOST_SITES} AS d2, "
            f"{h2} % {N_HOST_SITES} AS d3, "
            f"({h2} // {N_HOST_SITES}) % {N_HOST_SITES} AS d4 FROM {src})"
        ),
        (
            "kc_e0 AS MATERIALIZED (SELECT DISTINCT least(src, dst) AS u, "
            "greatest(src, dst) AS v FROM ("
            "SELECT src, d1 AS dst FROM kc_raw UNION ALL "
            "SELECT src, d2 AS dst FROM kc_raw UNION ALL "
            "SELECT src, d3 AS dst FROM kc_raw UNION ALL "
            "SELECT src, d4 AS dst FROM kc_raw) WHERE src <> dst)"
        ),
    ]
    prev = "kc_e0"
    for i in range(1, rounds + 1):
        ctes.append(
            f"kc_d{i} AS (SELECT node, count(*) AS deg FROM ("
            f"SELECT u AS node FROM {prev} UNION ALL SELECT v FROM {prev}) "
            "GROUP BY node)"
        )
        ctes.append(
            f"kc_n{i} AS (SELECT node FROM kc_d{i} WHERE deg >= {k})"
        )
        ctes.append(
            f"kc_e{i} AS MATERIALIZED (SELECT u, v FROM {prev} "
            f"WHERE u IN (SELECT node FROM kc_n{i}) "
            f"AND v IN (SELECT node FROM kc_n{i}))"
        )
        prev = f"kc_e{i}"
    return (
        "WITH " + ", ".join(ctes) + " "
        "SELECT node AS host_id, CAST(count(*) AS BIGINT) AS deg FROM ("
        f"SELECT u AS node FROM {prev} UNION ALL SELECT v FROM {prev}) "
        "GROUP BY node"
    )


CO_MIN_COMMON = 2


def cocitation_pairs(docs_ds, min_common: int = CO_MIN_COMMON):
    """Co-citation strength: host pairs endorsed by >= ``min_common``
    COMMON neighbors in the (4-target) host graph — the bibliometric
    coupling signal behind related-site discovery and link-ring
    corroboration (two sites repeatedly cited together are related
    even if they never link each other).

    Shape: one apex-bucket shuffle emits each apex's neighbor PAIRS
    (the wedge explode — volume sum C(deg, 2); a hub-heavy graph
    needs degree-cap salting, documented not automated), then the pair-bucket count + threshold. All wedges of
    an apex stay in one bucket (bucket = f(apex)), so the count is
    exact."""
    from .cogroup import default_n_buckets
    from .dedup import _pair_indices

    nb = default_n_buckets()
    mix = np.uint64(0x9E3779B97F4A7C15)
    mix2 = np.uint64(0xC2B2AE3D27D4EB4F)

    edges = kcore_edges(docs_ds).materialize()

    def sym(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        b = ((src.astype(np.uint64) * mix) >> np.uint64(33)) % np.uint64(nb)
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "__bucket": pa.array(b.astype(np.int64)),
            }
        )

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["src", "dst"], kind="mergesort")
        s = g["src"].to_numpy(np.int64)
        d = g["dst"].to_numpy(np.int64)
        new = np.empty(len(g), dtype=bool)
        new[0] = True
        new[1:] = s[1:] != s[:-1]
        ai, bi = _pair_indices(new)
        if len(ai) == 0:
            return pd.DataFrame({"x": [], "y": []}, dtype=np.int64)
        return pd.DataFrame({"x": d[ai], "y": d[bi]})

    def tag_pair(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy().astype(np.uint64)
        y = t.column("y").to_numpy().astype(np.uint64)
        h = x * mix ^ y * mix2
        return t.append_column(
            "__bucket",
            pa.array(((h >> np.uint64(33)) % np.uint64(nb)).astype(np.int64)),
        )

    def count_pairs(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (
            g.groupby(["x", "y"], sort=False).size().reset_index(name="n_common")
        )
        cnt = cnt[cnt["n_common"] >= min_common]
        return cnt.rename(columns={"x": "host_a", "y": "host_b"}).astype(
            {"host_a": np.int64, "host_b": np.int64, "n_common": np.int64}
        )

    return (
        edges.map_batches(sym, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(wedges, batch_format="pandas")
        .map_batches(tag_pair, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(count_pairs, batch_format="pandas")
    )


def cocitation_sql(min_common: int = CO_MIN_COMMON,
                   src: str = "documents") -> str:
    """DuckDB mirror of :func:`cocitation_pairs` (same 4-target edge
    derivation as kcore_sql)."""
    from ..corpus.geocode import H1_MUL, H2_ADD, H2_MUL, M32
    from .graph import N_HOST_SITES

    h1 = f"((doc_id * {H1_MUL}) % {M32})"
    h2 = f"((doc_id * {H2_MUL} + {H2_ADD}) % {M32})"
    return (
        f"WITH co_raw AS (SELECT doc_id % {N_HOST_SITES} AS src, "
        f"{h1} % {N_HOST_SITES} AS d1, "
        f"({h1} // {N_HOST_SITES}) % {N_HOST_SITES} AS d2, "
        f"{h2} % {N_HOST_SITES} AS d3, "
        f"({h2} // {N_HOST_SITES}) % {N_HOST_SITES} AS d4 FROM {src}), "
        "co_e AS (SELECT DISTINCT least(src, dst) AS u, "
        "greatest(src, dst) AS v FROM ("
        "SELECT src, d1 AS dst FROM co_raw UNION ALL "
        "SELECT src, d2 AS dst FROM co_raw UNION ALL "
        "SELECT src, d3 AS dst FROM co_raw UNION ALL "
        "SELECT src, d4 AS dst FROM co_raw) WHERE src <> dst), "
        "co_s AS (SELECT u AS src, v AS dst FROM co_e "
        "UNION ALL SELECT v, u FROM co_e) "
        "SELECT a.dst AS host_a, b.dst AS host_b, "
        "CAST(count(*) AS BIGINT) AS n_common "
        "FROM co_s a JOIN co_s b ON b.src = a.src AND a.dst < b.dst "
        f"GROUP BY 1, 2 HAVING count(*) >= {min_common}"
    )
