"""Temporal joins (stages/temporal.py): as-of and banded range join,
value-checked against pandas/DuckDB ground truth on synthetic frames
and the driver's events fixture."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from lasutility_ray.stages.temporal import asof_join, range_join

SF = "/root/testdata/sf0.001"


def _mk(left_rows, right_rows):
    left = rd.from_arrow(
        pa.table(
            {
                "lid": pa.array([r[0] for r in left_rows], pa.int64()),
                "k": pa.array([r[1] for r in left_rows], pa.int64()),
                "lts": pa.array([r[2] for r in left_rows], pa.int64()),
            }
        )
    )
    right = rd.from_arrow(
        pa.table(
            {
                "rid": pa.array([r[0] for r in right_rows], pa.int64()),
                "k": pa.array([r[1] for r in right_rows], pa.int64()),
                "rts": pa.array([r[2] for r in right_rows], pa.int64()),
            }
        )
    )
    return left, right


def test_asof_backward_semantics(ray_session):
    # key 1: right ts at 10, 20; key 2: right at 5; key 3: no right
    left, right = _mk(
        [(1, 1, 15), (2, 1, 20), (3, 1, 9), (4, 2, 100), (5, 3, 7)],
        [(100, 1, 10), (101, 1, 20), (102, 2, 5), (103, 9, 1)],
    )
    out = (
        asof_join(
            left, right, on=("k", "k"), left_ts="lts", right_ts="rts",
            attach={"rid": "rid", "rts": "rts"},
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    # lid 1 -> rid 100 (10 <= 15); lid 2 -> rid 101 (exact match 20);
    # lid 3 dropped (no right <= 9 ... wait, 10 > 9: dropped);
    # lid 4 -> rid 102; lid 5 dropped (no key-3 right rows)
    assert out["lid"].tolist() == [1, 2, 4]
    assert out["rid"].tolist() == [100, 101, 102]
    assert out["rts"].tolist() == [10, 20, 5]
    assert out["rid"].dtype == np.int64


def test_asof_duplicate_right_key_ts_raises(ray_session):
    left, right = _mk([(1, 1, 15)], [(100, 1, 10), (101, 1, 10)])
    ds = asof_join(
        left, right, on=("k", "k"), left_ts="lts", right_ts="rts",
        attach={"rid": "rid"},
    )
    with pytest.raises(Exception, match="duplicate"):
        ds.to_pandas()


def test_range_join_closed_band(ray_session):
    # band [lts-10, lts]: boundary values at exactly -10 and 0 included
    left, right = _mk(
        [(1, 1, 100)],
        [(90, 1, 89), (91, 1, 90), (92, 1, 100), (93, 1, 101), (94, 2, 95)],
    )
    out = (
        range_join(
            left, right, on=("k", "k"), left_ts="lts", right_ts="rts",
            lo_us=-10, hi_us=0, attach={"rid": "rid", "rts": "rts"},
        )
        .to_pandas()
        .sort_values("rid")
        .reset_index(drop=True)
    )
    assert out["rid"].tolist() == [91, 92]
    assert (out["lid"] == 1).all()


def test_range_join_lo_gt_hi_raises(ray_session):
    left, right = _mk([(1, 1, 1)], [(2, 1, 1)])
    with pytest.raises(ValueError, match="lo_us"):
        range_join(left, right, on=("k", "k"), left_ts="lts", right_ts="rts",
                   lo_us=1, hi_us=0, attach={"rid": "rid"})


def test_temporal_queries_match_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    import __ray_entry__ as entry

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    qs, sqls = entry.queries(), entry.oracle_sql()
    for name in ["q_asof_join", "q_range_join"]:
        df = qs[name](SF).to_pandas()
        ref = con.execute(sqls[name]).df()
        cols = sorted(df.columns)
        assert cols == sorted(ref.columns)
        a = df[cols].sort_values(cols).reset_index(drop=True)
        b = ref[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=True)
        assert len(a) > 0


def test_random_range_join_vs_pandas(ray_session, monkeypatch):
    from lasutility_ray.stages import cogroup

    monkeypatch.setattr(cogroup, "default_n_buckets", lambda: 7)
    rng = np.random.default_rng(7)
    n_l, n_r = 300, 500
    lk = rng.integers(0, 20, n_l)
    rk = rng.integers(0, 20, n_r)
    lt_ = rng.integers(0, 1000, n_l)
    rt_ = rng.integers(0, 1000, n_r)
    left, right = _mk(
        list(zip(range(n_l), lk.tolist(), lt_.tolist())),
        list(zip(range(10_000, 10_000 + n_r), rk.tolist(), rt_.tolist())),
    )
    out = (
        range_join(
            left, right, on=("k", "k"), left_ts="lts", right_ts="rts",
            lo_us=-50, hi_us=25, attach={"rid": "rid", "rts": "rts"},
        )
        .to_pandas()
    )
    ldf = pd.DataFrame({"lid": range(n_l), "k": lk, "lts": lt_})
    rdf = pd.DataFrame({"rid": range(10_000, 10_000 + n_r), "k": rk, "rts": rt_})
    want = ldf.merge(rdf, on="k")
    want = want[(want.rts >= want.lts - 50) & (want.rts <= want.lts + 25)]
    a = out.sort_values(["lid", "rid"]).reset_index(drop=True)
    b = want[["lid", "k", "lts", "rid", "rts"]].sort_values(["lid", "rid"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a[b.columns.tolist()], b, check_dtype=False)


def test_asof_forward_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    left, right = _mk(
        [(1, 1, 15), (2, 1, 20), (3, 1, 25), (4, 2, 1)],
        [(100, 1, 10), (101, 1, 20), (102, 1, 24), (103, 2, 5)],
    )
    out = (
        asof_join(left, right, on=("k", "k"), left_ts="lts", right_ts="rts",
                  attach={"rid": "rid", "rts": "rts"}, direction="forward")
        .to_pandas().sort_values("lid").reset_index(drop=True)
    )
    # lid1 -> earliest rts >= 15 is 20 (rid 101); lid2 -> 20 exact (101);
    # lid3 -> none (no rts >= 25 for k=1): dropped; lid4 -> rid 103
    assert out["lid"].tolist() == [1, 2, 4]
    assert out["rid"].tolist() == [101, 101, 103]
    ref = duckdb.sql(
        "WITH l(lid,k,lts) AS (VALUES (1,1,15),(2,1,20),(3,1,25),(4,2,1)), "
        "r(rid,k,rts) AS (VALUES (100,1,10),(101,1,20),(102,1,24),(103,2,5)) "
        "SELECT l.lid, r.rid FROM l ASOF JOIN r "
        "ON l.k = r.k AND r.rts >= l.lts ORDER BY l.lid"
    ).df()
    assert ref["lid"].tolist() == out["lid"].tolist()
    assert ref["rid"].tolist() == out["rid"].tolist()


def test_asof_bad_direction_raises(ray_session):
    left, right = _mk([(1, 1, 1)], [(2, 1, 1)])
    with pytest.raises(ValueError, match="direction"):
        asof_join(left, right, on=("k", "k"), left_ts="lts", right_ts="rts",
                  attach={"rid": "rid"}, direction="sideways")
