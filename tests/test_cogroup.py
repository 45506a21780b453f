"""cogroup.lookup_join: the in-cluster lookup-join primitive used by
the dedup family (Dataset.join in Ray 2.49 crashes on hash partitions
that receive no left-side shard, so the engine co-groups instead)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from lasutility_ray.stages.cogroup import lookup_join


def test_lookup_join_basic(ray_session):
    left = rd.from_arrow(
        pa.table(
            {
                "a": pa.array([1, 2, 3, 99], pa.int64()),
                "b": pa.array([10, 20, 30, 40], pa.int64()),
            }
        )
    )
    right = rd.from_arrow(
        pa.table(
            {
                "id": pa.array([1, 2, 3, 4], pa.int64()),
                "payload": pa.array([b"p1", b"p2", b"p3", b"p4"], pa.binary()),
            }
        )
    )
    out = (
        lookup_join(left, right, "a", "id", {"payload": "pl"})
        .to_pandas()
        .sort_values("a")
        .reset_index(drop=True)
    )
    # inner semantics: a=99 has no match and is dropped
    assert out["a"].tolist() == [1, 2, 3]
    assert out["b"].tolist() == [10, 20, 30]
    assert out["pl"].tolist() == [b"p1", b"p2", b"p3"]
    assert out["a"].dtype == np.int64 and out["b"].dtype == np.int64


def test_lookup_join_sparse_left(ray_session):
    """The case that crashes Dataset.join: 2 left rows spread over many
    hash buckets, most buckets left-empty."""
    left = rd.from_arrow(
        pa.table({"u": pa.array([5, 77], pa.int64()), "v": pa.array([6, 78], pa.int64())})
    )
    right = rd.from_arrow(
        pa.table(
            {
                "node": pa.array(list(range(200)), pa.int64()),
                "label": pa.array(list(range(200)), pa.int64()),
            }
        )
    )
    out = (
        lookup_join(left, right, "u", "node", {"label": "lab"})
        .to_pandas()
        .sort_values("u")
        .reset_index(drop=True)
    )
    assert out["u"].tolist() == [5, 77]
    assert out["lab"].tolist() == [5, 77]
    assert out["lab"].dtype == np.int64


def test_lookup_join_empty_left(ray_session):
    left = rd.from_arrow(
        pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    )
    right = rd.from_arrow(
        pa.table(
            {"id": pa.array([1], pa.int64()), "x": pa.array([7], pa.int64())}
        )
    )
    out = lookup_join(left, right, "a", "id", {"x": "x"}).to_pandas()
    assert len(out) == 0


def test_lookup_join_object_dtype_requires_override(ray_session):
    left_pd = pd.DataFrame({"a": pd.Series([1], dtype="int64"), "sh": [b"zz"]})
    left = rd.from_pandas(left_pd)
    right = rd.from_arrow(
        pa.table({"id": pa.array([1], pa.int64()), "y": pa.array([3], pa.int64())})
    )
    with pytest.raises(TypeError, match="object"):
        lookup_join(left, right, "a", "id", {"y": "y"})
    out = lookup_join(
        left, right, "a", "id", {"y": "y"}, type_overrides={"sh": pa.binary()}
    ).to_pandas()
    assert out["y"].tolist() == [3]
    assert out["sh"].tolist() == [b"zz"]


def test_lookup_join_salted_hot_key(ray_session):
    """n_salt > 1 splits a hot key's left rows across salted
    sub-buckets (right rows replicated to each) with identical results
    to the unsalted join — the skew escape hatch."""
    rng = np.random.default_rng(0)
    # one pathological key (7) carries 90% of the left mass
    keys = np.where(rng.uniform(size=5000) < 0.9, 7, rng.integers(0, 50, 5000))
    left = rd.from_arrow(
        pa.table({"k": pa.array(keys, pa.int64()),
                  "v": pa.array(np.arange(5000), pa.int64())})
    )
    right = rd.from_arrow(
        pa.table({"id": pa.array(np.arange(50), pa.int64()),
                  "lab": pa.array(np.arange(50) * 10, pa.int64())})
    )
    base = (
        lookup_join(left, right, "k", "id", {"lab": "lab"})
        .to_pandas().sort_values(["v"]).reset_index(drop=True)
    )
    salted = (
        lookup_join(left, right, "k", "id", {"lab": "lab"}, n_salt=4)
        .to_pandas().sort_values(["v"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(base, salted)
    assert len(salted) == 5000
    assert (salted["lab"] == salted["k"] * 10).all()

    # duplicate right keys still raise under salting
    dup = rd.from_arrow(
        pa.table({"id": pa.array([7, 7], pa.int64()),
                  "lab": pa.array([1, 2], pa.int64())})
    )
    with pytest.raises(Exception, match="duplicate"):
        lookup_join(left, dup, "k", "id", {"lab": "lab"}, n_salt=4).materialize()

    # n_salt takes an int >= 1 and nothing else ("always": TestAutoSalt)
    for bad in (0, "auto"):
        with pytest.raises(ValueError, match="n_salt"):
            lookup_join(left, right, "k", "id", {"lab": "lab"}, n_salt=bad)


def test_lookup_join_multi_match(ray_session):
    left = rd.from_arrow(
        pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                  "v": pa.array([10, 20, 30], pa.int64())})
    )
    right = rd.from_arrow(
        pa.table({"id": pa.array([1, 1, 2], pa.int64()),
                  "lab": pa.array([100, 101, 200], pa.int64())})
    )
    out = (
        lookup_join(left, right, "k", "id", {"lab": "lab"}, multi=True)
        .to_pandas().sort_values(["v", "lab"]).reset_index(drop=True)
    )
    # k=1 matches twice, k=2 once, k=3 dropped
    assert out["v"].tolist() == [10, 10, 20]
    assert out["lab"].tolist() == [100, 101, 200]

    # multi=True under salting keeps every match exactly once
    salted = (
        lookup_join(left, right, "k", "id", {"lab": "lab"}, multi=True, n_salt=3)
        .to_pandas().sort_values(["v", "lab"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, salted)


def test_lookup_join_string_keys(ray_session):
    """String/binary keys: shuffle by full-content hash, merge on the
    exact value (a web corpus joins on url/host, not a surrogate id)."""
    left = rd.from_arrow(
        pa.table(
            {
                "url": pa.array(
                    ["http://a.example/x", "http://b.example/y", "http://miss/z"],
                    pa.string(),
                ),
                "n": pa.array([1, 2, 3], pa.int64()),
            }
        )
    )
    right = rd.from_arrow(
        pa.table(
            {
                "u": pa.array(
                    ["http://b.example/y", "http://a.example/x", "http://other/q"],
                    pa.string(),
                ),
                "host": pa.array(["b.example", "a.example", "other"], pa.string()),
            }
        )
    )
    out = (
        lookup_join(left, right, "url", "u", {"host": "host"})
        .to_pandas()
        .sort_values("n")
        .reset_index(drop=True)
    )
    assert out["n"].tolist() == [1, 2]
    assert out["host"].tolist() == ["a.example", "b.example"]
    # shared-prefix keys must not collide into wrong matches
    assert out["url"].tolist() == ["http://a.example/x", "http://b.example/y"]


def test_lookup_join_string_keys_salted_multi(ray_session):
    left = rd.from_items([{"k": "hot", "i": i} for i in range(200)])
    right = rd.from_arrow(
        pa.table(
            {
                "id": pa.array(["hot", "hot", "cold"], pa.string()),
                "lab": pa.array([7, 8, 9], pa.int64()),
            }
        )
    )
    out = lookup_join(
        left, right, "k", "id", {"lab": "lab"}, multi=True, n_salt=4
    ).to_pandas()
    assert len(out) == 400
    assert sorted(out["lab"].unique().tolist()) == [7, 8]
    assert out.groupby("i").size().eq(2).all()


def test_lookup_join_key_family_mismatch(ray_session):
    left = rd.from_arrow(pa.table({"k": pa.array(["a"], pa.string())}))
    right = rd.from_arrow(
        pa.table({"id": pa.array([1], pa.int64()), "x": pa.array([2], pa.int64())})
    )
    with pytest.raises(TypeError, match="key families differ"):
        lookup_join(left, right, "k", "id", {"x": "x"})


class TestAutoSalt:
    # lookup_join has no "auto" salting mode; a string n_salt is refused
    def test_bad_n_salt_rejected(self, ray_session):
        df = pd.DataFrame({"k": [1], "v": [1]})
        with pytest.raises(ValueError, match="n_salt"):
            lookup_join(
                rd.from_pandas(df), rd.from_pandas(df), "k", "k", {}, n_salt="always"
            )
