"""Session-7 operators: time-bounded funnel conversion, PMI/lift
collocation mining — value-exact vs DuckDB plus kernel edge pins."""

import numpy as np
import pandas as pd
import pytest

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


def test_funnel_matches_duckdb_with_dropoff(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con()
    df = entry.queries()["q_funnel_conversion"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_funnel_conversion"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    ordered = df.sort_values("stage")["n_users"].tolist()
    # real drop-off at every hop, and monotone non-increasing
    assert ordered[0] > ordered[1] > ordered[2] > 0


def test_funnel_window_boundaries(ray_session):
    """Strict lower bound (ts == t_prev does NOT count), inclusive
    upper bound (ts == t_prev + window DOES), first-touch anchoring
    (a later cheaper step-1 can't re-anchor the window)."""
    import ray.data as rd

    from lasutility_ray.stages.funnel import funnel_stages

    base = np.datetime64("2024-01-01T00:00:00", "us")
    s = 1_000_000  # one second in us
    rows = [
        # u1: click exactly AT the window edge (inclusive) -> converts
        (1, "view", 0), (1, "click", 10 * s),
        # u2: click exactly at view's ts -> strict '>' rejects it
        (2, "view", 0), (2, "click", 0),
        # u3: click after the window -> rejected
        (3, "view", 0), (3, "click", 11 * s),
        # u4: SECOND view is closer to the click, but first-touch
        # anchors at the first view -> click is outside -> rejected
        (4, "view", 0), (4, "view", 20 * s), (4, "click", 25 * s),
    ]
    df = pd.DataFrame(
        {
            "user_id": [r[0] for r in rows],
            "event_type": [r[1] for r in rows],
            "ts": [base + r[2] for r in rows],
        }
    )
    out = (
        funnel_stages(
            rd.from_pandas(df), steps=("view", "click"), window_s=10
        )
        .to_pandas()
        .sort_values("stage")
    )
    assert out["n_users"].tolist() == [4, 1]


def test_collocations_match_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con(tables=("documents",))
    df = entry.queries()["q_collocations"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_collocations"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    assert len(df) == 25 and (df["c_ab"] >= 5).all()


def test_collocations_hand_corpus(ray_session):
    """Tiny corpus where lift is computable by hand; also pins that
    pairs never cross document boundaries."""
    import ray.data as rd

    from lasutility_ray.stages.collocations import collocations

    # "x y" always together (max lift); "a b" sometimes; "b a" never
    docs = pd.DataFrame(
        {
            "text": (
                ["x y"] * 5          # c(x,y)=5
                + ["a b c"] * 5      # c(a,b)=5, c(b,c)=5
                + ["a c b"] * 5      # c(a,c)=5, c(c,b)=5
                # boundary guard: 'y' ends one doc, 'x' starts this one;
                # (y,x) must NOT appear as a pair
                + ["x z y z"] * 5    # c(x,z)=5, c(z,y)=5, c(y,z)=5
            )
        }
    )
    out = collocations(
        rd.from_pandas(docs).repartition(3), k=100, min_count=5
    ).to_pandas()
    pairs = set(zip(out["a"], out["b"]))
    assert ("y", "x") not in pairs and ("b", "a") not in pairs
    # hand lift for (x, y): N=40 pairs total, c_ab=5,
    # c_a = pairs starting with x = 10, c_b = pairs ending with y = 10
    row = out[(out.a == "x") & (out.b == "y")].iloc[0]
    assert row["lift_e6"] == (5 * 40 * 1_000_000) // (10 * 10)
    # (x, z): c_ab=5, c_a(x..)=10, c_b(..z)=10 -> same lift
    row2 = out[(out.a == "x") & (out.b == "z")].iloc[0]
    assert row2["lift_e6"] == row["lift_e6"]


def test_lift_e6_raises_before_int64_wraps():
    """Counts whose product wraps int64 raise OverflowError (an
    exception, so ``python -O`` keeps the check); in-range counts give
    the exact floor lift."""
    from lasutility_ray.stages.collocations import lift_e6

    one = np.array([1], np.int64)
    c_ab = np.array([5, 1 << 40], np.int64)
    with pytest.raises(OverflowError):
        lift_e6(c_ab, one.repeat(2), one.repeat(2), 1 << 40)  # 2^80 * 1e6
    with pytest.raises(OverflowError):
        lift_e6(np.array([1], np.int64), np.array([1 << 32]), np.array([1 << 32]), 1)
    assert lift_e6(c_ab[:0], one[:0], one[:0], 1 << 62).tolist() == []
    got = lift_e6(np.array([5, 3]), np.array([10, 7]), np.array([10, 9]), 40)
    assert got.dtype == np.int64
    assert got.tolist() == [5 * 40 * 10**6 // 100, 3 * 40 * 10**6 // 63]


def test_polygon_areas_match_construction_oracle(ray_session):
    import duckdb

    import __ray_entry__ as entry

    con = duckdb.connect()  # oracle is closed-form; no tables needed
    df = entry.queries()["q_polygon_areas"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_polygon_areas"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    # holes genuinely subtract: every holed lake is smaller than its
    # exterior square would be
    holed = df[df.kind == "holed"]
    assert (holed["n_rings"] == 2).all() and len(holed) == 20


def test_shoelace_orientation_invariance():
    """Shoelace |area| is orientation-independent; a concave ring
    (L-shape) gets its true area, not its bbox."""
    from lasutility_ray.stages.geomops import _ring_area2

    sq = np.array([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]], float)
    assert _ring_area2(sq) == 200  # 2 * 100, CCW positive
    assert _ring_area2(sq[::-1]) == -200  # CW negative
    ell = np.array(
        [[0, 0], [10, 0], [10, 5], [5, 5], [5, 10], [0, 10], [0, 0]], float
    )
    assert abs(_ring_area2(ell)) == 2 * 75


def test_event_transitions_match_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con()
    df = entry.queries()["q_event_transitions"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_event_transitions"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    # 5 event types -> a dense-ish 5x5 matrix; totals = events - users
    n_ev = con.execute("SELECT count(*) FROM events").fetchone()[0]
    n_us = con.execute("SELECT count(DISTINCT user_id) FROM events").fetchone()[0]
    assert df["n"].sum() == n_ev - n_us


def test_event_transitions_no_cross_user_pairs(ray_session):
    """Consecutive rows from different users must not pair."""
    import ray.data as rd

    from lasutility_ray.stages.markov import event_transitions

    base = np.datetime64("2024-01-01", "us")
    df = pd.DataFrame(
        {
            "event_id": [1, 2, 3, 4],
            "user_id": [1, 2, 1, 2],
            "ts": [base, base + 1, base + 2, base + 3],
            "event_type": ["a", "x", "b", "y"],
        }
    )
    out = event_transitions(rd.from_pandas(df)).to_pandas()
    got = set(zip(out["from_type"], out["to_type"]))
    assert got == {("a", "b"), ("x", "y")}


def test_cohort_retention_matches_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con()
    df = entry.queries()["q_cohort_retention"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_cohort_retention"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    # offset-0 row of each cohort is its size; retention never exceeds it
    size = df[df.week_offset == 0].set_index("cohort_week")["n_users"]
    later = df[df.week_offset > 0]
    assert (later["n_users"].to_numpy()
            <= later["cohort_week"].map(size).to_numpy()).all()
    assert (df["week_offset"] >= 0).all()


def test_snap_roads_matches_prunefree_oracle(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con(tables=("documents",))
    df = entry.queries()["q_snap_roads"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_snap_roads"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    from lasutility_ray.stages.snap import SNAP_R2

    assert (df["dist2"] <= SNAP_R2).all() and len(df) > 0
    assert df["doc_id"].is_unique  # one winner per snapped point


def test_snap_distance_kernel_and_tiebreak():
    """The GREATEST point-to-axis-aligned-segment formula and the
    (dist2, seg_id) lexicographic winner, on hand geometry."""
    import pandas as pd_
    import ray.data as rd

    from lasutility_ray.stages import snap

    # horizontal segment y=100, x in [0, 1000]; point above the middle
    dx = max(0 - 500, 500 - 1000, 0)
    dy = max(100 - 130, 130 - 100, 0)
    assert dx == 0 and dy == 30  # interior projection
    # beyond the endpoint: both terms engage
    dx2 = max(0 - 1200, 1200 - 1000, 0)
    assert dx2 == 200


def test_grid_clusters_match_recursive_cte(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con(tables=("documents",))
    df = entry.queries()["q_grid_clusters"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_grid_clusters"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    # urban skew: the 4 dense 1-km tiles must cluster (some cluster
    # holds many points) while most clusters are small
    sizes = df.groupby("cluster_id").size()
    assert sizes.max() >= 50 and len(sizes) >= 5
    # labels are canonical min-cell ids: every cluster_id labels itself
    from lasutility_ray.stages.gridcluster import CELL, NC
    from lasutility_ray.stages.snap import point_mm

    px, py = point_mm(df["doc_id"].to_numpy())
    cells = (px // CELL) * NC + py // CELL
    assert ((df["cluster_id"].to_numpy() <= cells)).all()


def test_attribution_matches_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con()
    df = entry.queries()["q_attribution"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_attribution"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    n_purch = con.execute(
        "SELECT count(*) FROM events WHERE event_type = 'purchase'"
    ).fetchone()[0]
    assert df["n_conversions"].sum() == n_purch  # every purchase lands


def test_attribution_hand_sequences(ray_session):
    """No-prior-touch -> (none); purchases are not touches; the touch
    must be the LATEST prior one; per-user isolation."""
    import ray.data as rd

    from lasutility_ray.stages.attribution import last_touch_attribution

    base = np.datetime64("2024-01-01", "us")
    rows = [
        # user 1: purchase with no prior touch -> (none)
        (1, 1, 0, "purchase", 1.0),
        # then click -> view -> purchase: credits VIEW (latest)
        (2, 1, 1, "click", 0.0),
        (3, 1, 2, "view", 0.0),
        (4, 1, 3, "purchase", 2.0),
        # purchase right after a purchase: still VIEW (purchases
        # aren't touches)
        (5, 1, 4, "purchase", 3.0),
        # user 2's click must not leak into user 3's purchase
        (6, 2, 0, "click", 0.0),
        (7, 3, 1, "purchase", 4.0),
    ]
    df = pd.DataFrame(
        {
            "event_id": [r[0] for r in rows],
            "user_id": [r[1] for r in rows],
            "ts": [base + r[2] for r in rows],
            "event_type": [r[3] for r in rows],
            "value": [r[4] for r in rows],
        }
    )
    out = (
        last_touch_attribution(rd.from_pandas(df))
        .to_pandas()
        .set_index("channel")
        .sort_index()
    )
    assert out.loc["(none)", "n_conversions"] == 2  # users 1-first + 3
    assert out.loc["(none)", "value_cents"] == 500
    assert out.loc["view", "n_conversions"] == 2
    assert out.loc["view", "value_cents"] == 500
    assert "click" not in out.index


def test_hex_counts_match_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con(tables=("documents",))
    df = entry.queries()["q_hex_counts"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_hex_counts"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    n_docs = con.execute("SELECT count(*) FROM documents").fetchone()[0]
    assert df["n"].sum() == n_docs  # a partition: every point in one hex
    assert set(df["lattice"].unique()) == {0, 1}  # both lattices used


def test_hex_assign_is_nearest_center():
    """Brute-force check: the assigned center is the true nearest of
    the two-lattice union (with the tie->lattice-0 rule)."""
    from lasutility_ray.stages.hexbin import H, S, _PX_SHIFT, _PY_SHIFT, hex_assign

    rng = np.random.default_rng(3)
    px = rng.integers(0, 24_000_000, 400)
    py = rng.integers(0, 24_000_000, 400)
    lat, i, j = hex_assign(px, py)
    cx = np.where(lat == 1, 3 * S * i + 3 * S // 2, 3 * S * i)
    cy = np.where(lat == 1, H * j + H // 2, H * j)
    d_win = (px + _PX_SHIFT - cx) ** 2 + (py + _PY_SHIFT - cy) ** 2
    # exhaustive center grid around each point
    for k in rng.choice(400, 40, replace=False):
        best = None
        for la in (0, 1):
            ox, oy = (3 * S // 2, H // 2) if la else (0, 0)
            for ii in range(int(i[k]) - 2, int(i[k]) + 3):
                for jj in range(int(j[k]) - 2, int(j[k]) + 3):
                    d = (px[k] + _PX_SHIFT - (3 * S * ii + ox)) ** 2 + (
                        py[k] + _PY_SHIFT - (H * jj + oy)
                    ) ** 2
                    if best is None or d < best:
                        best = d
        assert d_win[k] == best


def test_session_paths_match_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con()
    df = entry.queries()["q_session_paths"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_session_paths"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    n_users = con.execute("SELECT count(DISTINCT user_id) FROM events").fetchone()[0]
    assert df["n_users"].sum() == n_users
    assert (df["path"].str.count(">") <= 7).all()  # max 8 steps


def test_rrf_fusion_matches_window_oracle(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con(tables=("documents",))
    df = entry.queries()["q_rrf_fusion"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_rrf_fusion"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    assert len(df) == 20
    # a doc ranked #1 in both lists would score 2 * 1e9 // 61
    assert df["rrf_e9"].max() <= 2 * (10**9 // 61)


def test_zonal_stats_match_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con(tables=("documents",))
    df = entry.queries()["q_zonal_stats"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_zonal_stats"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    assert (df["min_z_centi"] <= df["max_z_centi"]).all()
    assert (
        (df["n_points"] * df["min_z_centi"] <= df["sum_z_centi"])
        & (df["sum_z_centi"] <= df["n_points"] * df["max_z_centi"])
    ).all()


def test_exif_geotags_match_construction_oracle(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con(tables=("documents",))
    df = entry.queries()["q_exif_geotags"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_exif_geotags"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    # all four hemisphere combinations appear across the corpus
    assert (df["lat_e6"] < 0).any() and (df["lat_e6"] > 0).any()
    assert (df["lon_e6"] < 0).any() and (df["lon_e6"] > 0).any()


def test_exif_parser_handles_big_endian_and_foreign_dms():
    """MM byte order and the conventional (deg, min, sec*100/100)
    encoding other writers use."""
    import struct

    from lasutility_ray.geom.exif import parse_exif

    def entry(tag, typ, count, value):
        return struct.pack(">HHI", tag, typ, count) + value

    # GPS IFD only reachable via IFD0 pointer; lat 12 deg 30 min
    # 15.25 sec N -> e6 = 12508472 (floor)
    ifd0_off = 8
    gps_off = ifd0_off + 2 + 1 * 12 + 4
    lat_off = gps_off + 2 + 2 * 12 + 4
    tiff = bytearray(b"MM\x00*" + struct.pack(">I", ifd0_off))
    tiff += struct.pack(">H", 1)
    tiff += entry(0x8825, 4, 1, struct.pack(">I", gps_off))
    tiff += struct.pack(">I", 0)
    tiff += struct.pack(">H", 2)
    tiff += entry(0x0001, 2, 2, b"N\x00\x00\x00")
    tiff += entry(0x0002, 5, 3, struct.pack(">I", lat_off))
    tiff += struct.pack(">I", 0)
    for num, den in ((12, 1), (30, 1), (1525, 100)):
        tiff += struct.pack(">II", num, den)
    out = parse_exif(b"Exif\x00\x00" + bytes(tiff))
    expect = (12 * 3600 * 100 + 30 * 60 * 100 + 1525) * 1_000_000 // 360000
    assert out["lat_e6"] == expect == 12504236


def test_bloom_semi_join_exact_even_with_tiny_filter(ray_session):
    """m small enough to guarantee false positives: the exact verify
    must still equalize to the plain semi-join."""
    import ray.data as rd

    from lasutility_ray.stages.bloomjoin import bloom_semi_join

    left = rd.from_pandas(
        pd.DataFrame({"k": np.arange(2000, dtype=np.int64), "v": np.arange(2000)})
    )
    right = rd.from_pandas(
        pd.DataFrame({"k": np.arange(0, 2000, 7, dtype=np.int64)})
    )
    out = bloom_semi_join(left, right, "k", "k", m=256, k=2).to_pandas()
    assert sorted(out["k"]) == list(range(0, 2000, 7))


def test_bloom_semi_join_matches_oracle(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con(tables=("orders", "lineitem"))
    df = entry.queries()["q_bloom_semi_join"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_bloom_semi_join"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    assert 0 < len(df) < 60000  # genuinely selective


def test_rfm_segments_match_duckdb(ray_session):
    import __ray_entry__ as entry

    con = _oracle_con()
    df = entry.queries()["q_rfm_segments"](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()["q_rfm_segments"]).df()
    pd.testing.assert_frame_equal(_sorted(df), _sorted(ref), check_dtype=False)
    n_users = con.execute("SELECT count(DISTINCT user_id) FROM events").fetchone()[0]
    assert df["n_users"].sum() == n_users
    assert df["segment"].str.fullmatch(r"R[1-4]F[1-4]M[1-4]").all()
