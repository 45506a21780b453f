"""Host-graph analytics: distributed PageRank in exact integer
arithmetic.

The web-corpus tables induce a host link graph (each page's host
links to hash-derived target hosts — the synthetic stand-in for
href extraction, mirrored 1:1 in SQL).  PageRank is the canonical
*iterative* distributed workload the engine was missing: T rounds of
(rank ⋈ edges) -> groupby(dst).sum, a per-round all-to-all whose
shuffle volume is O(edges), with only two scalars (dangling mass,
host count) ever reaching the driver.

Exactness: ranks are int64 fixed-point (1e9 = 1.0) and every update
is floor division —

    contrib(e)   = (85 * r[src] * w) // (100 * out_w[src])
    r'[h]        = 150_000_000 + (85 * dangling) // (100 * N)
                   + sum over in-edges of contrib

so sums are order-independent and the result is bit-identical across
partitionings, cluster sizes, and the DuckDB oracle (which unrolls
the T iterations as chained CTEs with the same integer ops).

100 TB shape: edges/out-degrees build with one groupby each; the
static (edge, out_w) table is re-used every round; the per-round join
is the engine's bucketed ``lookup_join`` (rank table as the keyed
right side) and the new rank table is produced by a union+groupby
(no outer join needed).  The driver never sees a per-host row.
Overflow bound: 85 * r * w needs r * w < 1.1e17; with SCALE=1e9 that
holds while N_hosts * max_edge_weight < 1e8 — beyond that, drop
SCALE or split hot edges (documented contract, asserted below).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..corpus.geocode import H1_MUL, M32, hashes

SCALE = 1_000_000_000
DAMP_NUM, DAMP_DEN = 85, 100
BASE = ((DAMP_DEN - DAMP_NUM) * SCALE) // DAMP_DEN  # 150_000_000
N_HOST_SITES = 1000
N_ITERS = 5

# distributed-path machinery kicks in above this many edges; below it
# one task holds the (tiny) host graph. Tests force the distributed
# path by patching this constant to 0.
FAST_PATH_MAX_EDGES = 2_000_000


def host_schema(*cols: str) -> pa.Schema:
    """``host_id`` then ``cols``, all int64: the output schema of the
    per-host graph kernels."""
    return pa.schema([("host_id", pa.int64())] + [(c, pa.int64()) for c in cols])


def local_fast_path(kernel, edges, schema: pa.Schema):
    """The single-task fast path of a graph kernel: ``kernel`` gets the
    whole edge table as one DataFrame in one task and returns the
    result frame. No edges give an empty Dataset of ``schema``, the
    kernel's output schema, without running it."""
    import ray.data as rd

    from .cogroup import one_task

    out = one_task(lambda t: None if t is None else kernel(t.to_pandas()), edges)
    return rd.from_arrow(schema.empty_table()) if out is None else rd.from_pandas(out)


PAGERANK_SCHEMA = host_schema("rank_e9")
BFS_SCHEMA = host_schema("hops")
SSSP_SCHEMA = host_schema("dist")


def edge_targets(doc_id: np.ndarray):
    """Each doc links its host (doc_id % 1000, see pages.make_urls)
    to two hash-derived hosts. Self-links are dropped downstream."""
    doc_id = np.asarray(doc_id, dtype=np.int64)
    h1, _ = hashes(doc_id)
    src = doc_id % N_HOST_SITES
    d1 = h1 % N_HOST_SITES
    d2 = (h1 // N_HOST_SITES) % N_HOST_SITES
    return src, d1, d2


def _edge_batch(t: pa.Table) -> pa.Table:
    src, d1, d2 = edge_targets(t.column("doc_id").to_numpy())
    s = np.concatenate([src, src])
    d = np.concatenate([d1, d2])
    keep = s != d
    return pa.table(
        {"src": pa.array(s[keep], pa.int64()), "dst": pa.array(d[keep], pa.int64())}
    )


def host_edges(docs_ds):
    """documents -> weighted edge table (src, dst, w)."""
    from ray.data.aggregate import Count

    return (
        docs_ds.select_columns(["doc_id"])
        .map_batches(_edge_batch, batch_format="pyarrow")
        .groupby(["src", "dst"])
        .aggregate(Count(alias_name="w"))
    )


def _pagerank_local(edges: pd.DataFrame, n_iters: int) -> pd.DataFrame:
    """Single-task reference loop (np.bincount over the edge arrays);
    bit-identical to the distributed path by construction."""
    src = edges["src"].to_numpy(np.int64)
    dst = edges["dst"].to_numpy(np.int64)
    w = edges["w"].to_numpy(np.int64)
    hosts = np.unique(np.concatenate([src, dst]))
    n = len(hosts)
    idx = {h: i for i, h in enumerate(hosts.tolist())}
    si = np.array([idx[h] for h in src.tolist()], dtype=np.int64)
    di = np.array([idx[h] for h in dst.tolist()], dtype=np.int64)
    out_w = np.zeros(n, dtype=np.int64)
    np.add.at(out_w, si, w)  # integer accumulate (bincount's float
    # weights path would lose exactness past 2^53)
    assert int(w.max(initial=0)) * n * SCALE * DAMP_NUM < 2**62, "rescale SCALE"
    r = np.full(n, SCALE, dtype=np.int64)
    dangling = out_w == 0
    for _ in range(n_iters):
        contrib = (DAMP_NUM * r[si] * w) // (DAMP_DEN * out_w[si])
        dang = int(r[dangling].sum())
        acc = np.zeros(n, dtype=np.int64)
        np.add.at(acc, di, contrib)
        r = BASE + (DAMP_NUM * dang) // (DAMP_DEN * n) + acc
    return pd.DataFrame({"host_id": hosts, "rank_e9": r})


def pagerank_hosts(docs_ds, n_iters: int = N_ITERS):
    """documents -> (host_id, rank_e9) after ``n_iters`` exact
    fixed-point PageRank rounds over the host link graph."""
    from ray.data.aggregate import Count, Sum

    from .cogroup import lookup_join

    edges = host_edges(docs_ds).materialize()
    if edges.count() <= FAST_PATH_MAX_EDGES:
        return local_fast_path(lambda df: _pagerank_local(df, n_iters), edges, PAGERANK_SCHEMA)

    # ---- distributed path: same recurrence, Dataset algebra only
    out_w = edges.groupby("src").aggregate(Sum("w", alias_name="out_w"))
    # static per-edge join of the out-degree (reused every round)
    ew = lookup_join(
        edges, out_w, "src", "src", {"out_w": "out_w"}
    ).materialize()
    hosts = (
        edges.select_columns(["src"])
        .rename_columns({"src": "host_id"})
        .union(edges.select_columns(["dst"]).rename_columns({"dst": "host_id"}))
        .groupby("host_id")
        .aggregate(Count(alias_name="__n"))
        .select_columns(["host_id"])
        .materialize()
    )
    n = hosts.count()
    # dangling host set is static: hosts that never appear as src
    dang_hosts = lookup_join(hosts, out_w, "host_id", "src", {}, how="anti").materialize()

    def base_rank(t: pa.Table, value: int) -> pa.Table:
        return pa.table(
            {
                "host_id": t.column("host_id"),
                "r": pa.array(np.full(t.num_rows, value, np.int64), pa.int64()),
            }
        )

    ranks = hosts.map_batches(
        lambda t: base_rank(t, SCALE), batch_format="pyarrow"
    ).materialize()

    for _ in range(n_iters):
        dang = (
            lookup_join(ranks, dang_hosts, "host_id", "host_id", {}, how="semi")
            .sum("r")
            or 0
        )
        add = BASE + (DAMP_NUM * int(dang)) // (DAMP_DEN * n)
        with_r = lookup_join(ew, ranks, "src", "host_id", {"r": "r"})

        def contrib(t: pa.Table) -> pa.Table:
            r = t.column("r").to_numpy()
            w = t.column("w").to_numpy()
            ow = t.column("out_w").to_numpy()
            return pa.table(
                {
                    "host_id": t.column("dst"),
                    "c": pa.array((DAMP_NUM * r * w) // (DAMP_DEN * ow), pa.int64()),
                }
            )

        contribs = with_r.map_batches(contrib, batch_format="pyarrow")
        # union the per-host base term, then one groupby-sum: avoids
        # an outer join for hosts with no in-edges
        base_rows = hosts.map_batches(
            lambda t, v=add: pa.table(
                {
                    "host_id": t.column("host_id"),
                    "c": pa.array(np.full(t.num_rows, v, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        ranks = (
            contribs.union(base_rows)
            .groupby("host_id")
            .aggregate(Sum("c", alias_name="r"))
            .materialize()
        )
    return ranks.rename_columns({"r": "rank_e9"})


# -------------------------------------------------------- SQL mirror


def pagerank_sql(n_iters: int = N_ITERS, src: str = "documents") -> str:
    h1 = f"((doc_id * {H1_MUL}) % {M32})"
    ctes = [
        (
            f"pr_raw AS (SELECT doc_id % {N_HOST_SITES} AS src, "
            f"{h1} % {N_HOST_SITES} AS d1, "
            f"({h1} // {N_HOST_SITES}) % {N_HOST_SITES} AS d2 FROM {src})"
        ),
        (
            "pr_e AS (SELECT src, dst, CAST(count(*) AS BIGINT) AS w FROM ("
            "SELECT src, d1 AS dst FROM pr_raw UNION ALL "
            "SELECT src, d2 AS dst FROM pr_raw) WHERE src <> dst GROUP BY 1, 2)"
        ),
        (
            "pr_h AS (SELECT DISTINCT host_id FROM ("
            "SELECT src AS host_id FROM pr_e UNION ALL SELECT dst FROM pr_e))"
        ),
        "pr_ow AS (SELECT src, CAST(sum(w) AS BIGINT) AS ow FROM pr_e GROUP BY 1)",
        "pr_n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM pr_h)",
        (
            "pr_dh AS (SELECT host_id FROM pr_h WHERE host_id NOT IN "
            "(SELECT src FROM pr_ow))"
        ),
        f"pr_r0 AS (SELECT host_id, CAST({SCALE} AS BIGINT) AS r FROM pr_h)",
    ]
    for i in range(1, n_iters + 1):
        p = f"pr_r{i - 1}"
        ctes.append(
            f"pr_d{i} AS (SELECT CAST(coalesce(sum(r), 0) AS BIGINT) AS dang "
            f"FROM {p} WHERE host_id IN (SELECT host_id FROM pr_dh))"
        )
        ctes.append(
            f"pr_c{i} AS (SELECT e.dst AS host_id, "
            f"CAST(sum(({DAMP_NUM} * r.r * e.w) // ({DAMP_DEN} * o.ow)) AS BIGINT) AS c "
            f"FROM pr_e e JOIN {p} r ON e.src = r.host_id "
            "JOIN pr_ow o ON e.src = o.src GROUP BY 1)"
        )
        ctes.append(
            f"pr_r{i} AS (SELECT h.host_id, "
            f"{BASE} + (SELECT ({DAMP_NUM} * dang) // ({DAMP_DEN} * n) "
            f"FROM pr_d{i}, pr_n) + coalesce(c.c, 0) AS r "
            f"FROM pr_h h LEFT JOIN pr_c{i} c ON h.host_id = c.host_id)"
        )
    return (
        "WITH " + ", ".join(ctes) + " "
        f"SELECT host_id, CAST(r AS BIGINT) AS rank_e9 FROM pr_r{n_iters}"
    )


def undirected_host_edges(docs_ds):
    """documents -> DISTINCT undirected host edges (u < v), slim.
    Distinct via ``cogroup.distinct_rows`` — the multi-key
    ``groupby(["u","v"]).aggregate(Count)`` it replaced carries Ray
    2.49's ~10 s fixed overhead (measured 19 s -> 9 s on
    q_triangle_counts at sf0.1)."""
    from .cogroup import distinct_rows

    def und(t: pa.Table) -> pa.Table:
        src, d1, d2 = edge_targets(t.column("doc_id").to_numpy())
        s = np.concatenate([src, src])
        d = np.concatenate([d1, d2])
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        df = pd.DataFrame({"u": u, "v": v}).drop_duplicates()
        return pa.table(
            {
                "u": pa.array(df["u"].to_numpy(), pa.int64()),
                "v": pa.array(df["v"].to_numpy(), pa.int64()),
            }
        )

    edges = docs_ds.select_columns(["doc_id"]).map_batches(und, batch_format="pyarrow")
    return distinct_rows(edges, ["u", "v"])


def triangle_counts(docs_ds):
    """Per-host triangle counts over the undirected host graph — the
    Suri–Vassilvitskii degree-ordered node-iterator, end to end in
    Dataset ops (no driver structure beyond scalars):

    1. DISTINCT undirected edges (one groupby; slim: bounded by the
       distinct host-pair space, never the corpus);
    2. degrees via one groupby over the exploded ends;
    3. orient every edge low-rank -> high-rank, rank = (degree, id),
       degrees attached by two bucketed ``lookup_join``s (broadcast
       would cap the vertex set; the join keeps it unbounded);
    4. wedges: groupby(source) emits each out-neighbor pair in rank
       order — the degree orientation caps out-degree at O(sqrt(m)),
       so wedge volume is the classic sum-of-C(outdeg,2) bound;
    5. ONE coarse-bucket shuffle co-locates wedges with the oriented
       edges that would close them ((v, w) key); matched wedges
       collapse IN-BUCKET to per-host partial counts (each triangle
       credits its three hosts) before the final tiny groupby-sum.

    Every step is integer arithmetic; the DuckDB mirror reproduces
    the same orientation and triple join, so per-host counts are
    value-exact.
    """
    return triangle_counts_from_edges(undirected_host_edges(docs_ds).materialize())


LOCAL_TRI_EDGE_LIMIT = 2_000_000


def _local_triangle_frame(df: pd.DataFrame) -> pd.DataFrame:
    """One-task kernel: distinct (u, v) edge frame -> (host,
    n_triangles). Same degree-ordered orientation as the distributed
    path; wedge closure by sorted-array membership (np.isin on packed
    oriented-edge keys), all vectorized."""
    from .dedup import _pair_indices

    u = df["u"].to_numpy(np.int64)
    v = df["v"].to_numpy(np.int64)
    if len(u) == 0:
        return pd.DataFrame(
            {"host": pd.Series([], dtype=np.int64),
             "n_triangles": pd.Series([], dtype=np.int64)}
        )
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    deg = np.bincount(inv, minlength=len(nodes)).astype(np.int64)
    iu, iv = inv[: len(u)], inv[len(u):]
    # rank = (deg, node id) lexicographic, as the distributed orient()
    du, dv = deg[iu], deg[iv]
    fwd = (du < dv) | ((du == dv) & (nodes[iu] < nodes[iv]))
    s = np.where(fwd, iu, iv)
    t = np.where(fwd, iv, iu)
    dt = np.where(fwd, dv, du)
    # wedges: out-neighbor pairs per source in rank order
    order = np.lexsort((nodes[t], dt, s))
    s, t = s[order], t[order]
    new = np.empty(len(s), dtype=bool)
    new[0] = True
    new[1:] = s[1:] != s[:-1]
    ai, bi = _pair_indices(new)
    n_nodes = np.int64(len(nodes))
    packed_edges = np.sort(s.astype(np.int64) * n_nodes + t)
    if len(ai):
        wk = t[ai].astype(np.int64) * n_nodes + t[bi]
        pos = np.searchsorted(packed_edges, wk)
        pos = np.minimum(pos, len(packed_edges) - 1)
        hit = packed_edges[pos] == wk
        tri_hosts = np.concatenate([s[ai][hit], t[ai][hit], t[bi][hit]])
    else:
        tri_hosts = np.empty(0, np.int64)
    cnt = np.bincount(tri_hosts, minlength=len(nodes)).astype(np.int64)
    nz = cnt > 0
    return pd.DataFrame({"host": nodes[nz], "n_triangles": cnt[nz]})


def triangle_counts_from_edges(edges):
    """Triangle counts from a MATERIALIZED distinct-edge table —
    callers that already built the edges (clustering_coefficients)
    pass them here instead of paying the corpus scan + distinct
    twice.

    Size-adaptive (the dup_components pattern): below
    ``LOCAL_TRI_EDGE_LIMIT`` edges the whole count runs in ONE task with
    the vectorized kernel — the distributed path's two degree joins +
    wedge + closing shuffles cost ~15 s of fixed overhead that a
    small graph can never amortize (measured 16.6 s -> ~2 s on the
    sf0.1 host graph). Larger graphs take the degree-ordered
    node-iterator below; a forced-path test pins both bit-identical."""
    from ray.data.aggregate import Sum

    import ray.data as rd

    from .cogroup import lookup_join, one_task, shuffle_by

    if edges.count() <= LOCAL_TRI_EDGE_LIMIT:
        return rd.from_pandas(
            one_task(
                lambda t: pd.DataFrame() if t is None
                else _local_triangle_frame(t.to_pandas()),
                edges,
            )
        )

    def ends(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [t.column("u").combine_chunks(), t.column("v").combine_chunks()]
                )
            }
        )

    from ray.data.aggregate import Count

    deg = (
        edges.map_batches(ends, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Count(alias_name="deg"))
        .materialize()  # slim keyed right side: pin before joining
    )

    e1 = lookup_join(edges, deg, "u", "node", {"deg": "deg_u"})
    e2 = lookup_join(e1, deg, "v", "node", {"deg": "deg_v"})

    def orient(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        du = t.column("deg_u").to_numpy(zero_copy_only=False).astype(np.int64)
        dv = t.column("deg_v").to_numpy(zero_copy_only=False).astype(np.int64)
        fwd = (du < dv) | ((du == dv) & (u < v))  # rank(u) < rank(v)
        s = np.where(fwd, u, v)
        d = np.where(fwd, v, u)
        dd = np.where(fwd, dv, du)  # rank key of the head, for wedge order
        return pa.table(
            {
                "s": pa.array(s, pa.int64()),
                "t": pa.array(d, pa.int64()),
                "dt": pa.array(dd, pa.int64()),
            }
        )

    oriented = e2.map_batches(orient, batch_format="pyarrow").materialize()

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["s", "dt", "t"], kind="stable")
        s = g["s"].to_numpy(np.int64)
        t = g["t"].to_numpy(np.int64)
        new = np.empty(len(g), dtype=bool)
        if len(g):
            new[0] = True
            new[1:] = s[1:] != s[:-1]
        from .dedup import _pair_indices

        ai, bi = _pair_indices(new)
        if not len(ai):
            return pd.DataFrame(
                {
                    "k1": pd.Series([], dtype=np.int64),
                    "k2": pd.Series([], dtype=np.int64),
                    "apex": pd.Series([], dtype=np.int64),
                    "kind": pd.Series([], dtype=np.int64),
                }
            )
        # pair (ai, bi) within a source group, rank(t[ai]) < rank(t[bi])
        return pd.DataFrame(
            {"k1": t[ai], "k2": t[bi], "apex": s[ai],
             "kind": np.zeros(len(ai), np.int64)}
        )

    wedge_ds = oriented.groupby("s").map_groups(wedges, batch_format="pandas")

    def edge_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k1": t.column("s"),
                "k2": t.column("t"),
                "apex": pa.array(
                    np.full(t.num_rows, -1, np.int64), pa.int64()
                ),
                "kind": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
            }
        )

    both = wedge_ds.union(oriented.map_batches(edge_rows, batch_format="pyarrow"))

    def close_and_count(g: pd.DataFrame) -> pd.DataFrame:
        is_edge = g["kind"].to_numpy() == 1
        ek = set(
            zip(
                g["k1"].to_numpy(np.int64)[is_edge].tolist(),
                g["k2"].to_numpy(np.int64)[is_edge].tolist(),
            )
        )
        w = g[~is_edge]
        if not len(w) or not ek:
            return pd.DataFrame(
                {"host": pd.Series([], dtype=np.int64),
                 "c": pd.Series([], dtype=np.int64)}
            )
        idx = pd.MultiIndex.from_arrays(
            [w["k1"].to_numpy(np.int64), w["k2"].to_numpy(np.int64)]
        )
        hit = idx.isin(ek)
        tri = w[hit]
        hosts = np.concatenate(
            [
                tri["apex"].to_numpy(np.int64),
                tri["k1"].to_numpy(np.int64),
                tri["k2"].to_numpy(np.int64),
            ]
        )
        uh, cnt = np.unique(hosts, return_counts=True)
        return pd.DataFrame({"host": uh, "c": cnt.astype(np.int64)})

    return (
        shuffle_by(both, ["k1", "k2"], close_and_count)
        .groupby("host")
        .aggregate(Sum("c", alias_name="n_triangles"))
    )


def triangle_counts_sql(src: str = "documents") -> str:
    """DuckDB mirror of :func:`triangle_counts` — same edge
    derivation, same (degree, id) orientation, triple self-join."""
    h1 = f"((doc_id * {H1_MUL}) % {M32})"
    return (
        f"WITH tc_raw AS (SELECT doc_id % {N_HOST_SITES} AS src, "
        f"{h1} % {N_HOST_SITES} AS d1, "
        f"({h1} // {N_HOST_SITES}) % {N_HOST_SITES} AS d2 FROM {src}), "
        "tc_e AS (SELECT DISTINCT least(src, dst) AS u, "
        "greatest(src, dst) AS v FROM ("
        "SELECT src, d1 AS dst FROM tc_raw UNION ALL "
        "SELECT src, d2 AS dst FROM tc_raw) WHERE src <> dst), "
        "tc_d AS (SELECT node, count(*) AS deg FROM ("
        "SELECT u AS node FROM tc_e UNION ALL SELECT v FROM tc_e) "
        "GROUP BY node), "
        "tc_o AS (SELECT CASE WHEN du.deg < dv.deg OR "
        "(du.deg = dv.deg AND e.u < e.v) THEN e.u ELSE e.v END AS s, "
        "CASE WHEN du.deg < dv.deg OR (du.deg = dv.deg AND e.u < e.v) "
        "THEN e.v ELSE e.u END AS t "
        "FROM tc_e e JOIN tc_d du ON du.node = e.u "
        "JOIN tc_d dv ON dv.node = e.v), "
        "tc_t AS (SELECT a.s AS x, a.t AS y, b.t AS z "
        "FROM tc_o a JOIN tc_o b ON b.s = a.t "
        "JOIN tc_o c ON c.s = a.s AND c.t = b.t), "
        "tc_h AS (SELECT x AS host FROM tc_t UNION ALL "
        "SELECT y FROM tc_t UNION ALL SELECT z FROM tc_t) "
        "SELECT host, CAST(count(*) AS BIGINT) AS n_triangles "
        "FROM tc_h GROUP BY host"
    )


# ------------------------------------------------------------- BFS

SEED_MOD = 97  # hosts with host_id % SEED_MOD == 0 seed the BFS
MAX_HOPS = 4


def _bfs_local(edges: pd.DataFrame, max_hops: int) -> pd.DataFrame:
    """Single-task reference BFS (frontier masks over edge arrays);
    bit-identical to the distributed path by construction."""
    u = edges["u"].to_numpy(np.int64)
    v = edges["v"].to_numpy(np.int64)
    s = np.concatenate([u, v])
    t = np.concatenate([v, u])
    hosts = np.unique(s)
    dist = {int(h): 0 for h in hosts[hosts % SEED_MOD == 0]}
    frontier = set(dist)
    for hop in range(1, max_hops + 1):
        if not frontier:
            break
        mask = np.isin(s, np.fromiter(frontier, np.int64, len(frontier)))
        nxt = {int(x) for x in np.unique(t[mask])} - dist.keys()
        for h in nxt:
            dist[h] = hop
        frontier = nxt
    items = sorted(dist.items())
    return pd.DataFrame(
        {
            "host_id": pd.Series([k for k, _ in items], dtype=np.int64),
            "hops": pd.Series([d for _, d in items], dtype=np.int64),
        }
    )


def bfs_hops(docs_ds, max_hops: int = MAX_HOPS):
    """Multi-source BFS over the undirected host graph: hop distance
    (<= ``max_hops``) from the deterministic seed set
    ``host_id % 97 == 0`` to every reachable host.

    The canonical *frontier-iterative* distributed pattern: each round
    is a semi ``lookup_join`` (adjacency x frontier) -> distinct ->
    anti ``lookup_join`` against the settled set -- shuffle volume is
    O(edges incident to the frontier), never the whole graph, and the
    only scalar reaching the driver per round is the new-frontier
    count (loop exit). Distances are integers, so the result is
    partitioning-independent and value-exact vs the unrolled-CTE SQL
    mirror (:func:`bfs_hops_sql`). Local fast path below
    ``FAST_PATH_MAX_EDGES`` edges, pinned identical to the
    distributed path in tests.
    """
    from ray.data.aggregate import Count

    from .cogroup import lookup_join

    edges = undirected_host_edges(docs_ds).materialize()
    if edges.count() <= FAST_PATH_MAX_EDGES:
        return local_fast_path(lambda df: _bfs_local(df, max_hops), edges, BFS_SCHEMA)

    def both_dirs(t: pa.Table) -> pa.Table:
        u = t.column("u").combine_chunks()
        v = t.column("v").combine_chunks()
        return pa.table(
            {"s": pa.concat_arrays([u, v]), "t": pa.concat_arrays([v, u])}
        )

    adj = edges.map_batches(both_dirs, batch_format="pyarrow").materialize()

    def seed_rows(t: pa.Table) -> pa.Table:
        h = t.column("host_id").to_numpy(zero_copy_only=False).astype(np.int64)
        h = h[h % SEED_MOD == 0]
        return pa.table(
            {
                "host_id": pa.array(h, pa.int64()),
                "hops": pa.array(np.zeros(len(h), np.int64), pa.int64()),
            }
        )

    hosts = (
        adj.select_columns(["s"])
        .rename_columns({"s": "host_id"})
        .groupby("host_id")
        .aggregate(Count(alias_name="__n"))
        .select_columns(["host_id"])
    )
    dist = hosts.map_batches(seed_rows, batch_format="pyarrow").materialize()
    frontier = dist
    for hop in range(1, max_hops + 1):
        touched = lookup_join(
            adj, frontier.select_columns(["host_id"]), "s", "host_id", {}, how="semi"
        )
        # NOTE: semi lookup_join emits pandas blocks; Dataset.rename_columns
        # assumes arrow blocks — project through map_batches instead.
        nbrs = (
            touched.map_batches(
                lambda t: pa.table({"host_id": t.column("t")}),
                batch_format="pyarrow",
            )
            .groupby("host_id")
            .aggregate(Count(alias_name="__n"))
            .select_columns(["host_id"])
        )
        new = lookup_join(
            nbrs, dist.select_columns(["host_id"]), "host_id", "host_id", {}, how="anti"
        ).materialize()
        if new.count() == 0:
            break
        frontier = new.map_batches(
            lambda t, h=hop: pa.table(
                {
                    "host_id": t.column("host_id"),
                    "hops": pa.array(np.full(t.num_rows, h, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ).materialize()
        dist = dist.union(frontier).materialize()
    return dist


def bfs_hops_sql(max_hops: int = MAX_HOPS, src: str = "documents") -> str:
    """DuckDB mirror of :func:`bfs_hops` — same edge derivation, the
    BFS rounds unrolled as chained CTEs (frontier_i = distinct
    neighbors of frontier_{i-1} minus everything settled)."""
    h1 = f"((doc_id * {H1_MUL}) % {M32})"
    ctes = [
        (
            f"bf_raw AS (SELECT doc_id % {N_HOST_SITES} AS src, "
            f"{h1} % {N_HOST_SITES} AS d1, "
            f"({h1} // {N_HOST_SITES}) % {N_HOST_SITES} AS d2 FROM {src})"
        ),
        (
            "bf_e0 AS (SELECT DISTINCT least(src, dst) AS u, "
            "greatest(src, dst) AS v FROM ("
            "SELECT src, d1 AS dst FROM bf_raw UNION ALL "
            "SELECT src, d2 AS dst FROM bf_raw) WHERE src <> dst)"
        ),
        (
            "bf_adj AS MATERIALIZED (SELECT u AS s, v AS t FROM bf_e0 "
            "UNION ALL SELECT v, u FROM bf_e0)"
        ),
        (
            f"bf_u0 AS (SELECT DISTINCT s AS host_id, 0 AS hops FROM bf_adj "
            f"WHERE s % {SEED_MOD} = 0)"
        ),
    ]
    prev_f, prev_u = "bf_u0", "bf_u0"
    for i in range(1, max_hops + 1):
        ctes.append(
            f"bf_f{i} AS MATERIALIZED (SELECT DISTINCT t AS host_id, {i} AS hops "
            f"FROM bf_adj WHERE s IN (SELECT host_id FROM {prev_f}) "
            f"AND t NOT IN (SELECT host_id FROM {prev_u}))"
        )
        ctes.append(
            f"bf_u{i} AS MATERIALIZED (SELECT host_id, hops FROM {prev_u} "
            f"UNION ALL SELECT host_id, hops FROM bf_f{i})"
        )
        prev_f, prev_u = f"bf_f{i}", f"bf_u{i}"
    return (
        "WITH " + ", ".join(ctes) + " "
        f"SELECT host_id, CAST(hops AS BIGINT) AS hops FROM {prev_u}"
    )


# ------------------------------------------------- weighted SSSP

SSSP_ROUNDS = 6  # result = exact min-cost path using <= 6 edges


def _sssp_cost_batch(t: pa.Table) -> pa.Table:
    """Deterministic per-pair edge cost 1 + (7s + 13t) % 9 — a pure
    function of the endpoints so the SQL mirror is one expression."""
    s = t.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
    d = t.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "s": pa.array(s, pa.int64()),
            "t": pa.array(d, pa.int64()),
            "c": pa.array(1 + (7 * s + 13 * d) % 9, pa.int64()),
        }
    )


def _sssp_local(edges: pd.DataFrame, rounds: int) -> pd.DataFrame:
    """Single-task reference Bellman-Ford (full relaxation per round,
    provably equal to the distributed frontier variant round-for-round)."""
    s = edges["src"].to_numpy(np.int64)
    t = edges["dst"].to_numpy(np.int64)
    c = 1 + (7 * s + 13 * t) % 9
    nodes = np.unique(np.concatenate([s, t]))
    n = int(nodes.max()) + 1
    INF = np.int64(2**62)
    d = np.full(n, INF, dtype=np.int64)
    seeds = nodes[nodes % SEED_MOD == 0]
    d[seeds] = 0
    for _ in range(rounds):
        nd = d.copy()
        ok = d[s] < INF
        np.minimum.at(nd, t[ok], d[s[ok]] + c[ok])
        d = nd
    keep = nodes[d[nodes] < INF]
    return pd.DataFrame(
        {
            "host_id": pd.Series(keep, dtype=np.int64),
            "dist": pd.Series(d[keep], dtype=np.int64),
        }
    )


def sssp_hosts(docs_ds, rounds: int = SSSP_ROUNDS):
    """Multi-source WEIGHTED shortest paths over the directed host
    graph: exact min cost over paths of <= ``rounds`` edges from the
    seed set ``host_id % 97 == 0`` (bfs_hops' seeds), edge cost
    1 + (7s + 13t) % 9.

    The weighted sibling of :func:`bfs_hops` — delta-stepping-style
    Bellman-Ford where each round relaxes ONLY edges leaving hosts
    whose distance improved last round (identical results to full
    relaxation by the standard induction: an unimproved source's
    relaxations were already applied). THE ROUND-TAG TRICK keeps the
    whole round at ONE join + ONE groupby: the settled table stores
    ``v = d*64 + r`` (r = round that set d; d <= 9*rounds so v is
    tiny). ``union(settled, candidates-tagged-current-round)`` ->
    ``Min(v)`` picks the smaller distance and breaks distance TIES
    toward the OLDER round — so "improved this round" is a pure
    ``v % 64 == round`` filter, no anti/strict-improvement joins.
    Shuffle volume is O(edges out of the frontier); the driver sees
    one scalar per round (frontier count, loop exit). Integer costs
    make every step order-independent -> value-exact vs the
    unrolled-CTE mirror (:func:`sssp_hosts_sql`). Local fast path
    below ``FAST_PATH_MAX_EDGES``, pinned identical to the
    distributed path in tests.
    """
    from ray.data.aggregate import Min

    from .cogroup import lookup_join

    assert rounds < 63, "round tag packs into v = d*64 + r"
    edges = host_edges(docs_ds).materialize()
    if edges.count() <= FAST_PATH_MAX_EDGES:
        return local_fast_path(lambda df: _sssp_local(df, rounds), edges, SSSP_SCHEMA)

    # BLOCK-TYPE HAZARD (pinned by test_sssp_forced_distributed): join
    # outputs are pandas blocks and EMPTY blocks bypass map_batches
    # untransformed, so a union of join-derived and seed lineages
    # feeds MIXED block types into groupby's boundary sampler
    # (AssertionError in sample_boundaries). The loop therefore keeps
    # every lineage pandas-uniform: all map_batches use
    # batch_format="pandas".
    adj = edges.map_batches(_sssp_cost_batch, batch_format="pyarrow").materialize()
    # block-count hygiene: each round's lookup_join emits one block per
    # bucket and the dist union compounds them — at default bucket
    # width a toy graph pays 100+-block sort shuffles per round (~17 s
    # for 30 rows, measured). Size buckets to the adjacency instead;
    # big graphs still get the full default width.
    from .cogroup import capped_n_buckets

    n_buckets = capped_n_buckets(adj.count())

    def seed_rows(df: pd.DataFrame) -> pd.DataFrame:
        h = np.unique(
            np.concatenate(
                [df["s"].to_numpy(np.int64), df["t"].to_numpy(np.int64)]
            )
        )
        h = h[h % SEED_MOD == 0]
        return pd.DataFrame(
            {
                "host_id": pd.Series(h, dtype=np.int64),
                "v": pd.Series(np.zeros(len(h), np.int64), dtype=np.int64),
            }
        )

    # per-batch seed emission duplicates a host across blocks; dedupe
    # once up front — lookup_join's right side requires unique keys.
    dist = (
        adj.map_batches(seed_rows, batch_format="pandas")
        .groupby("host_id")
        .aggregate(Min("v", alias_name="v"))
        .materialize()
    )
    frontier = dist
    for rnd in range(1, rounds + 1):
        cand = lookup_join(
            adj, frontier, "s", "host_id", {"v": "v"}, n_buckets=n_buckets
        ).map_batches(
            lambda df, r=rnd: pd.DataFrame(
                {
                    "host_id": df["t"].astype(np.int64),
                    "v": (
                        (
                            df["v"].to_numpy(np.int64) // 64
                            + df["c"].to_numpy(np.int64)
                        )
                        * 64
                        + r
                    ),
                }
            ),
            batch_format="pandas",
        )
        # BLOCK-GROWTH HAZARD: groupby emits one block per input block
        # and the union adds the join's blocks every round — without a
        # coalesce the block count doubles per round and the sort
        # shuffle goes exponential (measured 1.0 s -> 30.5 s by round
        # 5 on a 1k-edge toy graph). repartition() is a cheap
        # metadata-level coalesce, not an extra all-to-all.
        dist = (
            dist.union(cand)
            .groupby("host_id")
            .aggregate(Min("v", alias_name="v"))
            .repartition(n_buckets)
            .materialize()
        )
        frontier = dist.map_batches(
            lambda df, r=rnd: df.loc[df["v"] % 64 == r, ["host_id", "v"]],
            batch_format="pandas",
        ).materialize()
        if frontier.count() == 0:
            break

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "host_id": df["host_id"].astype(np.int64),
                "dist": df["v"].to_numpy(np.int64) // 64,
            }
        )

    return dist.map_batches(finish, batch_format="pandas")


def sssp_hosts_sql(rounds: int = SSSP_ROUNDS, src: str = "documents") -> str:
    """DuckDB mirror of :func:`sssp_hosts` — same edge derivation and
    cost, the Bellman-Ford rounds unrolled as chained CTEs (full
    relaxation per round == the frontier variant)."""
    h1 = f"((doc_id * {H1_MUL}) % {M32})"
    ctes = [
        (
            f"ss_raw AS (SELECT doc_id % {N_HOST_SITES} AS src, "
            f"{h1} % {N_HOST_SITES} AS d1, "
            f"({h1} // {N_HOST_SITES}) % {N_HOST_SITES} AS d2 FROM {src})"
        ),
        (
            "ss_adj AS MATERIALIZED (SELECT DISTINCT src AS s, dst AS t, "
            "1 + (7*src + 13*dst) % 9 AS c FROM ("
            "SELECT src, d1 AS dst FROM ss_raw UNION ALL "
            "SELECT src, d2 AS dst FROM ss_raw) WHERE src <> dst)"
        ),
        (
            f"ss_d0 AS (SELECT DISTINCT node AS host_id, CAST(0 AS BIGINT) AS d "
            f"FROM (SELECT s AS node FROM ss_adj UNION ALL SELECT t FROM ss_adj) "
            f"WHERE node % {SEED_MOD} = 0)"
        ),
    ]
    prev = "ss_d0"
    for i in range(1, rounds + 1):
        ctes.append(
            f"ss_c{i} AS (SELECT a.t AS host_id, min(p.d + a.c) AS d "
            f"FROM ss_adj a JOIN {prev} p ON p.host_id = a.s GROUP BY a.t)"
        )
        ctes.append(
            f"ss_d{i} AS MATERIALIZED (SELECT host_id, min(d) AS d FROM ("
            f"SELECT * FROM {prev} UNION ALL SELECT * FROM ss_c{i}) "
            f"GROUP BY host_id)"
        )
        prev = f"ss_d{i}"
    return (
        "WITH " + ", ".join(ctes) + " "
        f"SELECT host_id, CAST(d AS BIGINT) AS dist FROM {prev}"
    )
