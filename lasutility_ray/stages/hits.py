"""HITS hubs & authorities over the directed host link graph — the
second classic link-analysis eigenvector pair next to PageRank
(Kleinberg 1999): a good hub points at good authorities, a good
authority is pointed at by good hubs.

Exactness: scores are int64 fixed point (SCALE = 1.0) and every
half-round normalizes by the MAX raw score with floor division —

    rawA[v] = sum over u->v of h[u] * w        a'[v] = rawA[v]*SCALE // maxA
    rawH[u] = sum over u->v of a'[v] * w       h'[u] = rawH[u]*SCALE // maxH

so sums are order-independent and the result is bit-identical across
partitionings and vs the DuckDB mirror (the T rounds unrolled as
chained CTEs with the same integer ops). Normalizing by max (not the
L2 norm) keeps the arithmetic rational; the fixed point of the
iteration is the same principal eigenvector direction.

100 TB shape: mirrors stages/graph.py pagerank — the static weighted
edge table builds with one groupby, each half-round is ONE bucketed
``lookup_join`` (scores as the keyed right side) + ONE groupby-sum,
and only the two normalization scalars (maxA, maxH) reach the driver
per round. Overflow contract asserted like pagerank: SCALE * max
in-weight per host must stay under 2^63.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..corpus.geocode import H1_MUL, M32
from . import graph
from .graph import N_HOST_SITES, host_edges

SCALE = 1_000_000_000
N_ITERS = 4
HITS_SCHEMA = graph.host_schema("hub_e9", "auth_e9")


def _hits_local(edges: pd.DataFrame, n_iters: int) -> pd.DataFrame:
    """Single-task reference loop; bit-identical to the distributed
    path by construction."""
    src = edges["src"].to_numpy(np.int64)
    dst = edges["dst"].to_numpy(np.int64)
    w = edges["w"].to_numpy(np.int64)
    hosts = np.unique(np.concatenate([src, dst]))
    n = int(hosts.max()) + 1
    assert int(w.sum()) * SCALE < 2**62, "rescale SCALE (overflow contract)"
    h = np.zeros(n, np.int64)
    h[hosts] = SCALE
    a = np.zeros(n, np.int64)
    for _ in range(n_iters):
        raw_a = np.zeros(n, np.int64)
        np.add.at(raw_a, dst, h[src] * w)
        max_a = int(raw_a.max())
        a = (raw_a * SCALE) // max_a if max_a else raw_a
        raw_h = np.zeros(n, np.int64)
        np.add.at(raw_h, src, a[dst] * w)
        max_h = int(raw_h.max())
        h = (raw_h * SCALE) // max_h if max_h else raw_h
    return pd.DataFrame(
        {"host_id": hosts, "hub_e9": h[hosts], "auth_e9": a[hosts]}
    )


def hits_hosts(docs_ds, n_iters: int = N_ITERS):
    """documents -> (host_id, hub_e9, auth_e9) after ``n_iters``
    max-normalized integer HITS rounds over the host link graph."""
    from ray.data.aggregate import Count, Max, Sum

    from .cogroup import lookup_join

    edges = host_edges(docs_ds).materialize()
    if edges.count() <= graph.FAST_PATH_MAX_EDGES:
        return graph.local_fast_path(lambda df: _hits_local(df, n_iters), edges, HITS_SCHEMA)

    hosts = (
        edges.select_columns(["src"])
        .rename_columns({"src": "host_id"})
        .union(edges.select_columns(["dst"]).rename_columns({"dst": "host_id"}))
        .groupby("host_id")
        .aggregate(Count(alias_name="__n"))
        .select_columns(["host_id"])
        .materialize()
    )

    def const_scores(t: pa.Table, value: int) -> pa.Table:
        return pa.table(
            {
                "host_id": t.column("host_id"),
                "s": pa.array(np.full(t.num_rows, value, np.int64), pa.int64()),
            }
        )

    h = hosts.map_batches(
        lambda t: const_scores(t, SCALE), batch_format="pyarrow"
    ).materialize()
    a = hosts.map_batches(
        lambda t: const_scores(t, 0), batch_format="pyarrow"
    ).materialize()

    def half_round(scores, key_col, out_col):
        """One half-round: attach scores at ``key_col``, sum s*w per
        ``out_col``, normalize by the max."""
        joined = lookup_join(edges, scores, key_col, "host_id", {"s": "s"})

        def contrib(t: pa.Table) -> pa.Table:
            s = t.column("s").to_numpy(zero_copy_only=False).astype(np.int64)
            w = t.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {
                    "host_id": t.column(out_col),
                    "raw": pa.array(s * w, pa.int64()),
                }
            )

        # union zero rows for every host (pagerank's outer-join
        # avoidance) so the score table always covers the host set
        zero_rows = hosts.map_batches(
            lambda t: pa.table(
                {
                    "host_id": t.column("host_id"),
                    "raw": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        raw = (
            joined.map_batches(contrib, batch_format="pyarrow")
            .union(zero_rows)
            .groupby("host_id")
            .aggregate(Sum("raw", alias_name="raw"))
            .materialize()
        )
        mx = int(raw.max("raw") or 0)

        def norm(t: pa.Table, m: int) -> pa.Table:
            r = t.column("raw").to_numpy(zero_copy_only=False).astype(np.int64)
            s = (r * SCALE) // m if m else r
            return pa.table(
                {"host_id": t.column("host_id"), "s": pa.array(s, pa.int64())}
            )

        return raw.map_batches(
            lambda t, m=mx: norm(t, m), batch_format="pyarrow"
        ).materialize()

    for _ in range(n_iters):
        a = half_round(h, "src", "dst")
        h = half_round(a, "dst", "src")

    out = lookup_join(hosts, h, "host_id", "host_id", {"s": "hub_e9"})
    out = lookup_join(out, a, "host_id", "host_id", {"s": "auth_e9"})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "host_id": df["host_id"].astype(np.int64),
                "hub_e9": df["hub_e9"].astype(np.int64),
                "auth_e9": df["auth_e9"].astype(np.int64),
            }
        )

    return out.map_batches(finish, batch_format="pandas")


def hits_sql(n_iters: int = N_ITERS, src: str = "documents") -> str:
    """DuckDB mirror of :func:`hits_hosts` — same edge derivation,
    the max-normalized rounds unrolled as chained CTEs."""
    h1 = f"((doc_id * {H1_MUL}) % {M32})"
    ctes = [
        (
            f"ht_raw AS (SELECT doc_id % {N_HOST_SITES} AS src, "
            f"{h1} % {N_HOST_SITES} AS d1, "
            f"({h1} // {N_HOST_SITES}) % {N_HOST_SITES} AS d2 FROM {src})"
        ),
        (
            "ht_e AS MATERIALIZED (SELECT src, dst, "
            "CAST(count(*) AS BIGINT) AS w FROM ("
            "SELECT src, d1 AS dst FROM ht_raw UNION ALL "
            "SELECT src, d2 AS dst FROM ht_raw) WHERE src <> dst GROUP BY 1, 2)"
        ),
        (
            "ht_h AS (SELECT DISTINCT host_id FROM ("
            "SELECT src AS host_id FROM ht_e UNION ALL SELECT dst FROM ht_e))"
        ),
        f"ht_h0 AS (SELECT host_id, CAST({SCALE} AS BIGINT) AS s FROM ht_h)",
    ]
    prev_h = "ht_h0"
    prev_a = None
    for i in range(1, n_iters + 1):
        ctes.append(
            f"ht_ra{i} AS (SELECT e.dst AS host_id, "
            f"CAST(sum(p.s * e.w) AS BIGINT) AS raw "
            f"FROM ht_e e JOIN {prev_h} p ON p.host_id = e.src GROUP BY 1)"
        )
        ctes.append(
            f"ht_a{i} AS MATERIALIZED (SELECT host_id, "
            f"(raw * {SCALE}) // (SELECT max(raw) FROM ht_ra{i}) AS s "
            f"FROM ht_ra{i})"
        )
        ctes.append(
            f"ht_rh{i} AS (SELECT e.src AS host_id, "
            f"CAST(sum(p.s * e.w) AS BIGINT) AS raw "
            f"FROM ht_e e JOIN ht_a{i} p ON p.host_id = e.dst GROUP BY 1)"
        )
        ctes.append(
            f"ht_hh{i} AS MATERIALIZED (SELECT host_id, "
            f"(raw * {SCALE}) // (SELECT max(raw) FROM ht_rh{i}) AS s "
            f"FROM ht_rh{i})"
        )
        prev_h, prev_a = f"ht_hh{i}", f"ht_a{i}"
    return (
        "WITH " + ", ".join(ctes) + " "
        "SELECT h.host_id, CAST(coalesce(hh.s, 0) AS BIGINT) AS hub_e9, "
        "CAST(coalesce(aa.s, 0) AS BIGINT) AS auth_e9 "
        f"FROM ht_h h LEFT JOIN {prev_h} hh ON hh.host_id = h.host_id "
        f"LEFT JOIN {prev_a} aa ON aa.host_id = h.host_id"
    )
