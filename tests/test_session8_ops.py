"""Session-8 operators: multi-source BFS hop distance, frame-bounded
window aggregates, per-user Shannon entropy (integer millinats),
cross-source vocabulary Jaccard — value-exact vs DuckDB, with kernel
edge pins (forced-distributed BFS parity, frame boundary rows,
single-type entropy zero, disjoint/identical vocab extremes)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

SF = "/root/testdata/sf0.01"


def _oracle_con(tables=("events",), sf=SF):
    duckdb = pytest.importorskip("duckdb")
    con = duckdb.connect()
    for t in tables:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    return con


def _sorted(df, cols=None):
    cols = cols or sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


# ------------------------------------------------------------------ BFS


def test_bfs_hops_matches_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con(tables=("documents",))
    df = entry.queries()["q_bfs_hops"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_bfs_hops"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    # the frontier genuinely expands: several non-zero hop levels
    assert df["hops"].max() >= 2
    assert (df["hops"] == 0).sum() >= 1


def test_bfs_distributed_path_identical_to_local(ray_session, monkeypatch):
    from lasutility_ray.stages import graph
    from lasutility_ray.stages.graph import bfs_hops

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"]).limit(
        4000
    )
    a = bfs_hops(docs).to_pandas()
    monkeypatch.setattr(graph, "FAST_PATH_MAX_EDGES", 0)
    b = bfs_hops(docs).to_pandas()
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b), check_dtype=False)


def test_bfs_unreachable_hosts_absent(ray_session):
    """Hosts farther than max_hops (or disconnected) never appear."""
    from lasutility_ray.stages.graph import _bfs_local

    # path graph 0-1-2-3-4-5 plus isolated pair (100, 101); seed = 0
    edges = pd.DataFrame(
        {
            "u": np.array([0, 1, 2, 3, 4, 100], dtype=np.int64),
            "v": np.array([1, 2, 3, 4, 5, 101], dtype=np.int64),
        }
    )
    out = _bfs_local(edges, max_hops=3).set_index("host_id")["hops"]
    assert out.to_dict() == {0: 0, 1: 1, 2: 2, 3: 3}


# ----------------------------------------------------------- frame window


def test_frame_window_matches_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con()
    df = entry.queries()["q_frame_window"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_frame_window"]).df()
    a, b = _sorted(df), _sorted(ref)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    # strict driver view: identical dtypes too
    assert [str(t) for t in a.dtypes] == [str(t) for t in b.dtypes]


def test_frame_window_boundary_rows(ray_session):
    """First rows of a partition carry truncated frames; min/max/sum
    reduce over exactly the available window."""
    from lasutility_ray.stages.windowfn import frame_window

    ts = pa.array(np.arange(4, dtype="int64") * 1000, pa.timestamp("us"))
    ev = rd.from_arrow(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3, 4], pa.int64()),
                "user_id": pa.array([7, 7, 7, 7], pa.int64()),
                "ts": ts,
                "value": pa.array([5.0, 1.0, 9.0, 2.0]),
            }
        )
    )
    out = (
        frame_window(ev, preceding=2)
        .to_pandas()
        .sort_values("event_id")
        .set_index("event_id")
    )
    assert out.loc[1, "frame_n"] == 1 and out.loc[1, "frame_sum_cents"] == 500
    assert out.loc[2, "frame_n"] == 2 and out.loc[2, "frame_min_cents"] == 100
    assert out.loc[3, "frame_n"] == 3 and out.loc[3, "frame_sum_cents"] == 1500
    # row 4: frame = rows 2..4 -> values 1, 9, 2
    assert out.loc[4, "frame_sum_cents"] == 1200
    assert out.loc[4, "frame_min_cents"] == 100
    assert out.loc[4, "frame_max_cents"] == 900


# ---------------------------------------------------------------- entropy


def test_user_entropy_matches_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con()
    df = entry.queries()["q_user_entropy"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_user_entropy"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    assert (df["entropy_millinats"] >= 0).all()


def test_user_entropy_extremes(ray_session):
    """Single-type user -> exactly 0; uniform 4-type user ->
    floor-per-term ln(4) in millinats (4 * floor(250*ln4))."""
    from lasutility_ray.stages.entropy import user_entropy

    ev = rd.from_arrow(
        pa.table(
            {
                "user_id": pa.array([1] * 6 + [2] * 4, pa.int64()),
                "event_type": pa.array(
                    ["click"] * 6 + ["a", "b", "c", "d"], pa.string()
                ),
            }
        )
    )
    out = user_entropy(ev).to_pandas().set_index("user_id")
    assert out.loc[1, "entropy_millinats"] == 0
    assert out.loc[1, "n_types"] == 1 and out.loc[1, "n_events"] == 6
    expect = 4 * int(np.floor(-1000.0 * 0.25 * np.log(0.25)))
    assert out.loc[2, "entropy_millinats"] == expect


# ------------------------------------------------------------ vocab overlap


def test_vocab_overlap_matches_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con(tables=("documents",))
    df = entry.queries()["q_vocab_overlap"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_vocab_overlap"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    n_sources = con.execute(
        "SELECT count(DISTINCT source) FROM documents"
    ).fetchone()[0]
    assert len(df) == n_sources * (n_sources - 1) // 2


def test_vocab_overlap_extremes(ray_session):
    """Identical collections -> jaccard 1e6; disjoint -> 0; the
    intersection/union arithmetic is exact."""
    from lasutility_ray.stages.vocab import vocab_overlap

    docs = rd.from_arrow(
        pa.table(
            {
                "source": pa.array(["a", "a", "b", "c"], pa.string()),
                "text": pa.array(
                    [
                        "red green blue",
                        "blue yellow",
                        "red green blue yellow",
                        "zebra quark",
                    ],
                    pa.string(),
                ),
            }
        )
    )
    out = (
        vocab_overlap(docs)
        .to_pandas()
        .set_index(["src_a", "src_b"])
        .sort_index()
    )
    assert out.loc[("a", "b"), "jaccard_e6"] == 1_000_000
    assert out.loc[("a", "c"), "n_inter"] == 0
    assert out.loc[("a", "c"), "jaccard_e6"] == 0
    assert out.loc[("b", "c"), "n_union"] == 6


# --------------------------------------------------------------- user trend


def test_user_trend_matches_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con()
    df = entry.queries()["q_user_trend"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_user_trend"]).df()
    a, b = _sorted(df), _sorted(ref)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert [str(t) for t in a.dtypes] == [str(t) for t in b.dtypes]
    # slopes genuinely vary (regression is doing work)
    assert df["slope"].nunique() > 10


def test_user_trend_degenerate_groups(ray_session):
    """All-same-day user -> NaN slope/intercept/corr with slope_den 0;
    constant-value user -> NaN corr but exact zero slope_num; and the
    closed form reproduces a hand-built exact line."""
    from lasutility_ray.stages.regression import user_trend

    day = 86_400_000_000
    ts = pa.array(
        np.array(
            # user 1: same day; user 2: y = 200 + 100*x cents at x=0,1,2
            # user 3: constant y across two days
            [5 * day, 5 * day, 5 * day, 0, day, 2 * day, 0, day],
            dtype="int64",
        ),
        pa.timestamp("us"),
    )
    ev = rd.from_arrow(
        pa.table(
            {
                "user_id": pa.array([1, 1, 1, 2, 2, 2, 3, 3], pa.int64()),
                "ts": ts,
                "value": pa.array([1.0, 2.0, 3.0, 2.0, 3.0, 4.0, 7.0, 7.0]),
            }
        )
    )
    out = user_trend(ev).to_pandas().set_index("user_id").sort_index()
    assert out.loc[1, "slope_den"] == 0 and np.isnan(out.loc[1, "slope"])
    assert np.isnan(out.loc[1, "intercept"]) and np.isnan(out.loc[1, "corr"])
    assert out.loc[2, "slope"] == 100.0 and out.loc[2, "intercept"] == 200.0
    assert out.loc[2, "corr"] == 1.0
    assert out.loc[3, "slope_num"] == 0 and out.loc[3, "slope"] == 0.0
    assert np.isnan(out.loc[3, "corr"])


def test_user_trend_partition_invariant(ray_session):
    """Integer moments are associative: any repartitioning yields
    bit-identical rationals AND floats."""
    from lasutility_ray.stages.regression import user_trend

    ev = rd.read_parquet(f"{SF}/events.parquet").limit(20000)
    a = user_trend(ev).to_pandas()
    b = user_trend(ev.repartition(13)).to_pandas()
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b))


# ------------------------------------------------------------------- TPC-H Q5


def test_tpch_q5_matches_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con(
        tables=("region", "nation", "customer", "orders", "lineitem", "supplier")
    )
    df = entry.queries()["q_tpch_q5"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_tpch_q5"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    assert len(df) == 5  # every ASIA nation has revenue at sf0.01


def test_tpch_q5_other_region(ray_session):
    """Region parameter flows through both engines (EUROPE)."""
    from lasutility_ray.stages.relational import tpch_q5, tpch_q5_sql

    con = _oracle_con(
        tables=("region", "nation", "customer", "orders", "lineitem", "supplier")
    )
    df = tpch_q5(SF, region="EUROPE").to_pandas()
    ref = con.execute(tpch_q5_sql(region="EUROPE")).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)


# ------------------------------------------------------------------ SSSP


def test_sssp_matches_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con(tables=("documents",))
    df = entry.queries()["q_sssp_hosts"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_sssp_hosts"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    # weighted distances genuinely spread beyond hop counts
    assert df["dist"].max() >= 2
    assert (df["dist"] == 0).sum() >= 1


def test_sssp_forced_distributed_identical_to_local(ray_session, monkeypatch):
    from lasutility_ray.stages import graph
    from lasutility_ray.stages.graph import sssp_hosts

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"]).limit(
        4000
    )
    a = sssp_hosts(docs).to_pandas()
    monkeypatch.setattr(graph, "FAST_PATH_MAX_EDGES", 0)
    b = sssp_hosts(docs).to_pandas()
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b), check_dtype=False)


def test_sssp_local_prefers_cheap_detour(ray_session):
    """The weighted answer must take a longer-hop cheaper path when
    one exists — distinguishes SSSP from BFS on the same graph."""
    from lasutility_ray.stages.graph import _sssp_local

    # cost(s,t) = 1 + (7s+13t) % 9
    # direct  0->5: 1 + (65 % 9)      = 3
    # detour  0->2: 1 + (26 % 9)      = 9 ... (never cheaper here), so
    # build instead: 0->97*2 etc. Use explicit arithmetic: pick edges
    # where the two-hop route undercuts the one-hop route.
    # cost(0,4)=1+(52%9)=8 ; cost(0,3)=1+(39%9)=4 ; cost(3,4)=1+(73%9)=2
    # so 0->3->4 costs 6 < 8 direct.
    edges = pd.DataFrame(
        {
            "src": np.array([0, 0, 3], dtype=np.int64),
            "dst": np.array([4, 3, 4], dtype=np.int64),
        }
    )
    out = _sssp_local(edges, rounds=6).set_index("host_id")["dist"]
    assert out[0] == 0  # seed (0 % 97 == 0)
    assert out[3] == 4
    assert out[4] == 6  # detour wins over the direct cost-8 edge
