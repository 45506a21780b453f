"""PageRank over the host graph (stages/graph.py): exact fixed-point
arithmetic pinned against the unrolled-SQL oracle, the forced
distributed path pinned bit-identical to the local reference loop,
and the PageRank axioms (mass conservation, damping floor). The
single-task graph kernels return a typed empty result on no edges."""

import duckdb
import numpy as np
import pandas as pd
import pytest

import lasutility_ray.stages.graph as G
from lasutility_ray.stages import graphstats, hits, kcore

SF = "/root/testdata/sf0.001"


def _oracle(sf=SF, n_iters=G.N_ITERS):
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    return (
        con.execute(G.pagerank_sql(n_iters))
        .df()
        .sort_values("host_id")
        .reset_index(drop=True)
    )


def _docs(sf=SF):
    import ray.data as rd

    return rd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id"])


def test_fast_path_matches_oracle(ray_session):
    got = (
        G.pagerank_hosts(_docs())
        .to_pandas()
        .sort_values("host_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, _oracle())


def test_distributed_path_bit_identical(ray_session, monkeypatch):
    """The forced-distributed path (lookup_join + union/groupby per
    round) must equal the local reference loop exactly — integer
    arithmetic makes the result partitioning-independent."""
    fast = (
        G.pagerank_hosts(_docs())
        .to_pandas()
        .sort_values("host_id")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(G, "FAST_PATH_MAX_EDGES", 0)
    dist = (
        G.pagerank_hosts(_docs())
        .to_pandas()
        .sort_values("host_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(dist, fast)


def test_pagerank_axioms(ray_session):
    got = G.pagerank_hosts(_docs()).to_pandas()
    n = len(got)
    r = got["rank_e9"].to_numpy()
    # every rank at least the damping floor
    assert r.min() >= G.BASE
    # total mass stays within integer-floor slack of n * SCALE
    # (each round floors at most one unit per edge + one per host)
    assert abs(int(r.sum()) - n * G.SCALE) < n * G.SCALE * 0.01
    # ranks differentiate (not a constant vector)
    assert r.std() > 0


def test_dangling_and_weights_local():
    """Hand graph with a dangling node and weighted edges vs a
    straightforward transcription of the recurrence."""
    edges = pd.DataFrame(
        {"src": [0, 0, 1, 2], "dst": [1, 2, 2, 3], "w": [2, 1, 1, 5]}
    )  # node 3 dangles
    got = G._pagerank_local(edges, 3)
    r = {h: G.SCALE for h in range(4)}
    ow = {0: 3, 1: 1, 2: 5}
    for _ in range(3):
        dang = r[3]
        base = G.BASE + (G.DAMP_NUM * dang) // (G.DAMP_DEN * 4)
        new = {h: base for h in range(4)}
        for s, d, w in [(0, 1, 2), (0, 2, 1), (1, 2, 1), (2, 3, 5)]:
            new[d] += (G.DAMP_NUM * r[s] * w) // (G.DAMP_DEN * ow[s])
        r = new
    want = pd.DataFrame(
        {"host_id": list(range(4)), "rank_e9": [r[h] for h in range(4)]}
    )
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize(
    "fn",
    [G.pagerank_hosts, G.bfs_hops, G.sssp_hosts, kcore.kcore_hosts, hits.hits_hosts,
     graphstats.two_hop_sizes],
    ids=["pagerank", "bfs", "sssp", "kcore", "hits", "two_hop"],
)
def test_fast_path_on_no_edges(ray_session, fn):
    """No documents -> no edges: an empty Dataset with the schema the
    same kernel gives on a real graph."""
    want = fn(_docs()).schema()
    got = fn(_docs().limit(0))
    assert got.count() == 0
    assert got.schema().names == want.names
    assert got.schema().types == want.types
