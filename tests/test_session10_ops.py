"""Session-10 operators: MAD outlier fences, k-core peeling, D8 flow
accumulation, and linear-interpolation resampling — value-exact vs
DuckDB plus kernel edge pins (weighted nearest-rank, forced
distributed peel + convergence, pit/tie flow determinism, exact-hour
and negative-slope interpolation)."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

SF = "/root/testdata/sf0.01"


def _oracle_con(tables=("documents",), sf=SF):
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


def _match(name, tables=("documents",)):
    import __ray_entry__ as entry

    con = _oracle_con(tables=tables)
    df = entry.queries()[name](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()[name]).df()
    a, b = _sorted(df), _sorted(ref)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert [str(t) for t in a.dtypes] == [str(t) for t in b.dtypes]
    return df


# ------------------------------------------------------------------ MAD


def test_mad_matches_duckdb(ray_session):
    df = _match("q_mad_outliers")
    # the fixture must exercise both branches
    assert df["is_outlier"].any() and (~df["is_outlier"]).any()


def test_mad_nearest_rank_weighted():
    from lasutility_ray.stages.robust import _nearest_rank

    # multiset {1, 1, 5}: lower median is 1 (rank (3+1)//2 = 2)
    assert _nearest_rank(np.array([1, 5]), np.array([2, 1])) == 1
    # even count {2, 4}: rank (2+1)//2 = 1 -> the LOWER median
    assert _nearest_rank(np.array([2, 4]), np.array([1, 1])) == 2
    # heavy upper tail {3 x1, 9 x5}: rank 3 -> 9
    assert _nearest_rank(np.array([3, 9]), np.array([1, 5])) == 9


def test_mad_hand_case(ray_session):
    from lasutility_ray.stages.robust import mad_outliers

    docs = pd.DataFrame(
        {
            "doc_id": np.arange(7, dtype=np.int64),
            "source": ["a"] * 6 + ["b"],
            "n_chars": np.array([10, 10, 11, 12, 13, 100, 5], dtype=np.int64),
        }
    )
    out = (
        mad_outliers(rd.from_pandas(docs))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # source a: med = 11 (rank 3 of 6 -> wait: (6+1)//2 = 3 -> value 11)
    assert (out.loc[out.source == "a", "med"] == 11).all()
    # deviations {1,1,0,1,2,89} -> sorted cum: 0x1,1x3,2x1,89x1; rank 3 -> 1
    assert (out.loc[out.source == "a", "mad"] == 1).all()
    # fence: |x-11| > 3 -> only 100
    assert out.loc[out.source == "a", "is_outlier"].tolist() == [
        False,
        False,
        False,
        False,
        False,
        True,
    ]
    # single-row source: med = x, mad = 0, never an outlier
    assert not out.loc[out.source == "b", "is_outlier"].iloc[0]


# ---------------------------------------------------------------- k-core


def test_kcore_matches_duckdb(ray_session):
    df = _match("q_kcore_hosts")
    from lasutility_ray.stages.kcore import K_CORE

    assert len(df) > 0
    assert df["deg"].min() >= K_CORE  # converged -> a true k-core


def test_kcore_forced_distributed_identical(ray_session, monkeypatch):
    from lasutility_ray.stages import graph
    from lasutility_ray.stages.kcore import kcore_hosts

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    fast = _sorted(kcore_hosts(docs).to_pandas())
    monkeypatch.setattr(graph, "FAST_PATH_MAX_EDGES", 0)
    dist = _sorted(kcore_hosts(docs).to_pandas())
    pd.testing.assert_frame_equal(fast, dist, check_dtype=False)


def test_kcore_converges_within_bound(ray_session):
    # rounds-1 == rounds on the fixture: the bounded iteration reached
    # the true k-core (the operator's defined-rounds convention is not
    # masking an unconverged peel)
    import __ray_entry__ as entry
    from lasutility_ray.stages.kcore import ROUNDS, kcore_sql

    con = _oracle_con()
    a = con.execute(kcore_sql(rounds=ROUNDS - 1)).df()
    b = con.execute(kcore_sql(rounds=ROUNDS)).df()
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b))


def test_kcore_local_peel_hand_case():
    from lasutility_ray.stages.kcore import _kcore_local

    # triangle + pendant: 2-core = the triangle, pendant peels off
    e = pd.DataFrame({"u": [0, 0, 1, 2], "v": [1, 2, 2, 3]})
    out = _kcore_local(e, k=2, rounds=10).sort_values("host_id")
    assert out["host_id"].tolist() == [0, 1, 2]
    assert out["deg"].tolist() == [2, 2, 2]
    # k=3 on the same graph peels everything
    assert len(_kcore_local(e, k=3, rounds=10)) == 0


# ------------------------------------------------------------ flow accum


def test_flowaccum_matches_duckdb(ray_session):
    df = _match("q_flow_accumulation")
    assert len(df) > 0
    # accumulation >= 1 everywhere; at least one confluence cell
    assert df["acc"].min() == 1 or df["acc"].min() >= 1
    assert df["acc"].max() > 1


def test_flowaccum_hand_grid():
    from lasutility_ray.stages.flowaccum import accum_frame

    # a 3-cell chain: z 30 -> 20 -> 10 (rook steps), plus an isolated
    # pit far away
    df = pd.DataFrame(
        {
            "ci": np.array([5, 6, 7, 20], dtype=np.int64),
            "cj": np.array([5, 5, 5, 20], dtype=np.int64),
            "z_cm": np.array([30, 20, 10, 40], dtype=np.int64),
        }
    )
    out = accum_frame(df).set_index(["ci", "cj"])
    assert out.loc[(5, 5), "acc"] == 1
    assert out.loc[(6, 5), "acc"] == 2
    assert out.loc[(7, 5), "acc"] == 3  # the chain's pit drains all
    assert out.loc[(20, 20), "acc"] == 1


def test_flowaccum_tie_break_fixed_order():
    from lasutility_ray.stages.flowaccum import accum_frame

    # center at (10,10) with two equal-drop neighbors: rook (11,10)
    # has k=0, diagonal (11,11) k=4 -> flow must pick the rook one
    df = pd.DataFrame(
        {
            "ci": np.array([10, 11, 11], dtype=np.int64),
            "cj": np.array([10, 10, 11], dtype=np.int64),
            "z_cm": np.array([50, 40, 40], dtype=np.int64),
        }
    )
    out = accum_frame(df).set_index(["ci", "cj"])
    assert out.loc[(11, 10), "acc"] == 2  # received the center
    assert out.loc[(11, 11), "acc"] == 1


def test_flowaccum_equal_z_never_links():
    from lasutility_ray.stages.flowaccum import accum_frame

    # plateau: strictly-lower requirement means no flow at all
    df = pd.DataFrame(
        {
            "ci": np.array([3, 4], dtype=np.int64),
            "cj": np.array([3, 3], dtype=np.int64),
            "z_cm": np.array([7, 7], dtype=np.int64),
        }
    )
    out = accum_frame(df)
    assert (out["acc"] == 1).all()


# ------------------------------------------------------- linear resample


def test_resample_linear_matches_duckdb(ray_session):
    df = _match("q_resample_linear", tables=("events",))
    assert len(df) > 0


def test_resample_linear_hand_case(ray_session):
    from lasutility_ray.stages.resample import resample_linear

    ev = pd.DataFrame(
        {
            "event_id": np.array([1, 2, 3], dtype=np.int64),
            "user_id": np.array([7, 7, 7], dtype=np.int64),
            "ts": pd.to_datetime(
                [
                    "2024-01-01 00:30:00",
                    "2024-01-01 03:00:00",
                    "2024-01-01 05:00:00",
                ]
            ).astype("datetime64[us]"),
            "value": [1.00, 4.00, 2.00],  # cents 100, 400, 200
        }
    )
    out = (
        resample_linear(rd.from_pandas(ev))
        .to_pandas()
        .sort_values("hr")
        .reset_index(drop=True)
    )
    # hours 0..5; rising 100 -> 400 over 3h, falling 400 -> 200 over 2h
    assert out["cents_lin"].tolist() == [100, 200, 300, 400, 300, 200]


def test_resample_linear_floor_on_falling_slope(ray_session):
    from lasutility_ray.stages.resample import resample_linear

    # 10 -> 9 cents across 3 hours: interior values floor(10 - t/3)
    ev = pd.DataFrame(
        {
            "event_id": np.array([1, 2], dtype=np.int64),
            "user_id": np.array([1, 1], dtype=np.int64),
            "ts": pd.to_datetime(
                ["2024-01-01 00:00:00", "2024-01-01 03:00:00"]
            ).astype("datetime64[us]"),
            "value": [0.10, 0.07],  # cents 10, 7
        }
    )
    out = (
        resample_linear(rd.from_pandas(ev))
        .to_pandas()
        .sort_values("hr")
        .reset_index(drop=True)
    )
    # exact: 10, 10 + floor(-3*1/3) = 9, 10 + floor(-3*2/3) = 8, 7
    assert out["cents_lin"].tolist() == [10, 9, 8, 7]


# ------------------------------------------------------------------ HITS


def test_hits_matches_duckdb(ray_session):
    df = _match("q_hits_hosts")
    # max normalization: exactly one host at SCALE on each axis side
    assert df["hub_e9"].max() == 1_000_000_000
    assert df["auth_e9"].max() == 1_000_000_000
    assert df["hub_e9"].min() >= 0 and df["auth_e9"].min() >= 0


def test_hits_forced_distributed_identical(ray_session, monkeypatch):
    from lasutility_ray.stages import graph
    from lasutility_ray.stages.hits import hits_hosts

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    fast = _sorted(hits_hosts(docs).to_pandas())
    monkeypatch.setattr(graph, "FAST_PATH_MAX_EDGES", 0)
    dist = _sorted(hits_hosts(docs).to_pandas())
    pd.testing.assert_frame_equal(fast, dist, check_dtype=False)


def test_hits_hand_graph():
    from lasutility_ray.stages.hits import _hits_local

    # star: 0 -> {1, 2, 3}. Host 0 is the only hub; 1..3 equal
    # authorities; the hub's authority and the leaves' hub scores are 0
    e = pd.DataFrame(
        {"src": [0, 0, 0], "dst": [1, 2, 3], "w": [1, 1, 1]}
    )
    out = _hits_local(e, n_iters=4).set_index("host_id")
    assert out.loc[0, "hub_e9"] == 1_000_000_000
    assert out.loc[0, "auth_e9"] == 0
    assert (out.loc[[1, 2, 3], "auth_e9"] == 1_000_000_000).all()
    assert (out.loc[[1, 2, 3], "hub_e9"] == 0).all()


# ----------------------------------------------------------------- CUSUM


def test_cusum_matches_duckdb(ray_session):
    df = _match("q_cusum_changepoints", tables=("events",))
    assert df["flagged"].any() and (~df["flagged"]).any()
    # flag rate calibrated to roughly the upper decile, not the bulk
    assert 0.02 < df["flagged"].mean() < 0.3


def test_cusum_running_min_identity(ray_session):
    from lasutility_ray.stages.changepoint import cusum_changepoints

    # hand case: values 5, 1, 9, 9 cents -> target = floor(24/4) = 6;
    # x = -1, -5, 3, 3; RS = -1, -6, -3, 0; runmin = -1, -6, -6, -6;
    # S = max(0,...) recurrence: 0, 0, 3, 6
    ev = pd.DataFrame(
        {
            "event_id": np.arange(4, dtype=np.int64),
            "user_id": np.array([1, 1, 1, 1], dtype=np.int64),
            "ts": pd.to_datetime(
                ["2024-01-01 00:00", "2024-01-01 01:00",
                 "2024-01-01 02:00", "2024-01-01 03:00"]
            ).astype("datetime64[us]"),
            "value": [0.05, 0.01, 0.09, 0.09],
        }
    )
    out = (
        cusum_changepoints(rd.from_pandas(ev))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert out["cusum_cents"].tolist() == [0, 0, 3, 6]


def test_cusum_segment_isolation(ray_session):
    from lasutility_ray.stages.changepoint import cusum_changepoints

    # two users in one bucket: the second user's running min must not
    # see the first user's deeply negative RS
    ev = pd.DataFrame(
        {
            "event_id": np.arange(4, dtype=np.int64),
            "user_id": np.array([1, 1, 2, 2], dtype=np.int64),
            "ts": pd.to_datetime(
                ["2024-01-01 00:00", "2024-01-01 01:00",
                 "2024-01-01 00:00", "2024-01-01 01:00"]
            ).astype("datetime64[us]"),
            # user 1: huge drop then spike; user 2: flat
            "value": [0.00, 1.00, 0.50, 0.50],
        }
    )
    out = (
        cusum_changepoints(rd.from_pandas(ev))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # user 1: target 50, x = -50, +50; RS = -50, 0; S = 0, 50
    assert out.loc[0, "cusum_cents"] == 0 and out.loc[1, "cusum_cents"] == 50
    # user 2: x = 0, 0 -> S = 0, 0 (would be 50 if min leaked)
    assert out.loc[2, "cusum_cents"] == 0 and out.loc[3, "cusum_cents"] == 0


# -------------------------------------------------------------- skipgram


def test_skipgram_matches_duckdb(ray_session):
    df = _match("q_skipgram_counts")
    assert set(df["dist"].unique()) == {1, 2}


def test_skipgram_boundaries(ray_session):
    from lasutility_ray.stages.collocations import skipgram_counts

    docs = pd.DataFrame(
        {"text": ["alpha beta gamma", "gamma alpha", "beta"]}
    )
    out = (
        skipgram_counts(rd.from_pandas(docs), max_dist=2, min_count=1)
        .to_pandas()
        .sort_values(["dist", "a", "b"])
        .reset_index(drop=True)
    )
    got = set(map(tuple, out[["a", "b", "dist"]].itertuples(index=False)))
    # doc 1: (alpha,beta,1) (beta,gamma,1) (alpha,gamma,2); doc 2:
    # (gamma,alpha,1); doc 3: nothing. NO cross-doc (gamma,gamma,*)
    assert got == {
        ("alpha", "beta", 1),
        ("beta", "gamma", 1),
        ("gamma", "alpha", 1),
        ("alpha", "gamma", 2),
    }


# ----------------------------------------------------------- containment


def test_containment_matches_duckdb(ray_session):
    df = _match("q_containment_pairs")
    assert len(df) > 0
    # integer-millionth containment within bounds; asymmetric pairs
    assert (df["cont_e6"] >= 800_000).all() and (df["cont_e6"] <= 1_000_000).all()
    assert (df["inter"] <= df["n_a"]).all()


def test_containment_finds_asymmetric_pair(ray_session):
    from lasutility_ray.stages.dedup import containment_pairs

    # small doc fully quoted inside a much larger one: Jaccard is tiny
    # (|a|/|b|), containment(a -> b) = 1.0 — the defining case
    small = "alpha beta gamma delta epsilon zeta"
    filler = " ".join(f"w{i} x{i} y{i}" for i in range(40))
    docs = pd.DataFrame(
        {
            "doc_id": np.array([1, 2, 3], dtype=np.int64),
            "text": [small, filler + " " + small + " " + filler, "unrelated text entirely here now"],
        }
    )
    out = containment_pairs(rd.from_pandas(docs)).to_pandas()
    rows = set(map(tuple, out[["a", "b"]].itertuples(index=False)))
    assert (1, 2) in rows
    full = out[(out.a == 1) & (out.b == 2)].iloc[0]
    assert full["cont_e6"] == 1_000_000  # every shingle contained
    assert (3, 2) not in rows and (2, 1) not in rows


def test_containment_forced_distributed_verify(ray_session, monkeypatch):
    from lasutility_ray.stages import dedup
    from lasutility_ray.stages.dedup import containment_pairs

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    fast = _sorted(containment_pairs(docs).to_pandas())
    # force the co-grouped fallback by dropping the small limit
    monkeypatch.setattr(dedup, "VERIFY_SMALL_LIMIT", 0)
    dist = _sorted(containment_pairs(docs).to_pandas())
    pd.testing.assert_frame_equal(fast, dist, check_dtype=False)


# --------------------------------------------------------------- anchors


def test_anchors_match_duckdb(ray_session):
    df = _match("q_anchor_tokens")
    # top-3 per host, deterministic order
    assert df.groupby("host_id").size().max() <= 3
    assert len(df) > 100


def test_anchors_hand_case(ray_session):
    from lasutility_ray.stages.anchors import anchor_token_topk
    from lasutility_ray.stages.graph import edge_targets

    # doc_ids chosen so targets are known via edge_targets; text first
    # token carries the anchor (leading whitespace + case exercised)
    docs = pd.DataFrame(
        {
            "doc_id": np.array([10, 11], dtype=np.int64),
            "text": ["  Hello world tail", "Zeta follows here"],
        }
    )
    out = anchor_token_topk(rd.from_pandas(docs), k=3).to_pandas()
    src, d1, d2 = edge_targets(np.array([10, 11], dtype=np.int64))
    expect_hosts = set()
    for i, did in enumerate((10, 11)):
        for h in (int(d1[i]), int(d2[i])):
            if h != int(src[i]):
                expect_hosts.add(h)
    assert set(out["host_id"]) == expect_hosts
    toks = set(out["token"])
    assert "hello" in toks and "zeta" in toks


# ---------------------------------------------------- clustering coeff


def test_clustering_matches_duckdb(ray_session):
    df = _match("q_clustering_coeff")
    assert len(df) > 0
    assert (df["deg"] >= 2).all()
    assert (df["coeff_e6"] <= 1_000_000).all() and (df["coeff_e6"] >= 0).all()


def test_clustering_hand_graph(ray_session):
    # triangle 0-1-2 plus pendant 3 on node 2: coeff(0)=coeff(1)=1,
    # coeff(2) = 1 triangle / C(3,2)=3 -> 333333; node 3 excluded (deg 1)
    import lasutility_ray.stages.graphstats as gs
    import lasutility_ray.stages.graph as g

    # build via a fake docs_ds is awkward (edges are hash-derived), so
    # pin the composition arithmetic directly on a stub edge table
    import numpy as np

    tri = {0: 1, 1: 1, 2: 1}
    deg = {0: 2, 1: 2, 2: 3, 3: 1}
    rows = []
    for h, dg in deg.items():
        if dg < 2:
            continue
        t = tri.get(h, 0)
        rows.append((h, dg, t, (2 * t * 1_000_000) // (dg * (dg - 1))))
    out = {h: c for h, _, _, c in rows}
    assert out == {0: 1_000_000, 1: 1_000_000, 2: 333_333}


# -------------------------------------------------------------- morans


def test_morans_matches_duckdb(ray_session):
    df = _match("q_morans_i")
    assert len(df) == 1
    # the urban block's max-height cluster must show positive
    # autocorrelation, well inside [-1, 1]-ish bounds
    assert 0 < df["i_e6"].iloc[0] < 1_200_000


def test_morans_checkerboard_negative():
    from lasutility_ray.stages.morans import morans_frame

    # perfect checkerboard: maximal negative autocorrelation
    import itertools

    rows = [
        (i, j, 10000 if (i + j) % 2 == 0 else 0)
        for i, j in itertools.product(range(6), range(6))
    ]
    df = pd.DataFrame(rows, columns=["ci", "cj", "z_cm"])
    out = morans_frame(df)
    assert out["i_e6"].iloc[0] < -900_000


def test_morans_uniform_field_zero_den():
    from lasutility_ray.stages.morans import morans_frame

    df = pd.DataFrame(
        {"ci": [1, 2], "cj": [1, 1], "z_cm": [500, 500]}
    )
    out = morans_frame(df)
    assert out["den"].iloc[0] == 0 and out["i_e6"].iloc[0] == 0
