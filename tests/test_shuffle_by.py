"""``cogroup.shuffle_by``, the engine's one coarse-bucket shuffle.

- The bucket count never changes a result: one stage of each kind
  (int key, string key, multi-column distinct, two-sided co-group,
  per-key apply) gives the default run's rows, and the DuckDB oracle's
  where one exists, with ``default_n_buckets`` patched to 1 and to 7.
- Equal keys always land in one bucket: int keys (negative and
  near-``int64``-max included), string keys and mixed multi-column
  keys.
- A single int or string key hashes exactly as the engine's earlier
  per-stage hashes did, and a two-column int key as the earlier
  distinct-pair hash, so bucket assignment (and with it the flagship
  TIN's partitioning) is unchanged.
- The exchange partitions on boundaries fixed on the driver: no
  boundary-sampling pass runs at 1 bucket or at 7, and the sort makes
  one reducer per bucket id (two at 1 bucket), not one per input
  block.
- ``fn`` is never called with an empty frame, also with more buckets
  than keys; over skewed keys (one key holding 90% of the rows) each
  key arrives in exactly one call and each call holds one bucket id.
- Past one bucket per CPU, the bucket count keeps each bucket within
  Ray Data's target block size, sized from the plan's sources before
  anything runs; with the target cut to a sixth of the input, a
  shuffle makes at least six calls and still delivers each key whole.
"""

import os
import re
import sys
import uuid
from unittest import mock

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
SF = "/root/testdata/sf0.001"


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _oracle(name: str) -> pd.DataFrame:
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in ("documents", "events"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con.execute(e.oracle_sql()[name]).df()


def _query(name):
    def run():
        import __ray_entry__ as e

        return e.queries()[name](SF).to_pandas()

    return run


def _host_edges():
    import ray.data as rd

    from lasutility_ray.stages.graph import undirected_host_edges

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    return undirected_host_edges(docs).to_pandas()


def _host_edges_reference() -> pd.DataFrame:
    import pyarrow.parquet as pq

    from lasutility_ray.stages.graph import edge_targets

    src, d1, d2 = edge_targets(pq.read_table(f"{SF}/documents.parquet").column("doc_id").to_numpy())
    s, d = np.concatenate([src, src]), np.concatenate([d1, d2])
    keep = s != d
    return pd.DataFrame(
        {"u": np.minimum(s, d)[keep], "v": np.maximum(s, d)[keep]}
    ).drop_duplicates()


# stage kind -> (run, oracle: query name, callable or None)
STAGES = {
    "int_key": (_query("q_user_entropy"), "q_user_entropy"),
    "string_key": (_query("q_line_dedup"), "q_line_dedup"),
    "multi_column_distinct": (_host_edges, _host_edges_reference),
    "two_sided_cogroup": (_query("q_asof_join"), "q_asof_join"),
    "per_key_apply": (_query("q_tin_tile_counts"), "q_tin_tile_counts"),
}


@pytest.mark.parametrize("kind", sorted(STAGES))
def test_bucket_count_never_changes_results(ray_session, monkeypatch, kind):
    from lasutility_ray.stages import cogroup

    run, oracle = STAGES[kind]
    default = _canon(run())
    assert len(default) > 0
    for n in (1, 7):
        monkeypatch.setattr(cogroup, "default_n_buckets", lambda n=n: n)
        pd.testing.assert_frame_equal(_canon(run()), default)
    ref = _oracle(oracle) if isinstance(oracle, str) else oracle()
    pd.testing.assert_frame_equal(default, _canon(ref[default.columns]), check_dtype=False)


INT64 = st.integers(-(2**63), 2**63 - 1)
EDGE_INTS = st.sampled_from([-(2**63), -1, 0, 1, 2**63 - 2, 2**63 - 1])
INTS = st.one_of(INT64, EDGE_INTS)
STRS = st.text(max_size=12)
N_BUCKETS = st.sampled_from([1, 7, 64, 128])


def _assert_colocated(t: pa.Table, key, n: int):
    """Every row of ``t`` appears twice (in different order); equal
    keys must get equal buckets, and every bucket is in range."""
    from lasutility_ray.stages.cogroup import key_buckets

    b = key_buckets(t, key, n)
    assert b.dtype == np.int64 and ((b >= 0) & (b < n)).all()
    keys = [key] if isinstance(key, str) else key
    df = t.select(keys).to_pandas().assign(b=b)
    assert (df.groupby(keys, dropna=False)["b"].nunique() == 1).all()


def _doubled(cols: dict, types: dict) -> pa.Table:
    n = len(next(iter(cols.values())))
    order = list(range(n)) + list(reversed(range(n)))
    return pa.table({c: pa.array([v[i] for i in order], types[c]) for c, v in cols.items()})


@settings(max_examples=60, deadline=None)
@given(st.lists(INTS, min_size=1, max_size=40), N_BUCKETS)
def test_equal_int_keys_share_a_bucket(vals, n):
    _assert_colocated(_doubled({"k": vals}, {"k": pa.int64()}), "k", n)


@settings(max_examples=60, deadline=None)
@given(st.lists(STRS, min_size=1, max_size=40), N_BUCKETS)
def test_equal_string_keys_share_a_bucket(vals, n):
    _assert_colocated(_doubled({"k": vals}, {"k": pa.string()}), "k", n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(STRS, INTS, INTS), min_size=1, max_size=40), N_BUCKETS)
def test_equal_mixed_multi_column_keys_share_a_bucket(rows, n):
    cols = {"s": [r[0] for r in rows], "a": [r[1] for r in rows], "b": [r[2] for r in rows]}
    t = _doubled(cols, {"s": pa.string(), "a": pa.int64(), "b": pa.int64()})
    _assert_colocated(t, ["s", "a", "b"], n)
    _assert_colocated(t, ["a", "b"], n)


@settings(max_examples=40, deadline=None)
@given(st.lists(INTS, min_size=1, max_size=40), st.lists(STRS, min_size=1, max_size=40), N_BUCKETS)
def test_single_and_pair_hashes_are_unchanged(ints, strs, n):
    from lasutility_ray.stages.cogroup import key_buckets

    k = np.array(ints, np.int64)
    mix_a, mix_b = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F)
    want_int = ((k.astype(np.uint64) * mix_a >> np.uint64(33)) % np.uint64(n)).astype(np.int64)
    np.testing.assert_array_equal(key_buckets(pa.table({"k": k}), "k", n), want_int)

    s = np.array(strs, dtype=object)
    want_str = (pd.util.hash_array(s) % np.uint64(n)).astype(np.int64)
    np.testing.assert_array_equal(key_buckets(pa.table({"k": pa.array(strs, pa.string())}), "k", n), want_str)

    a, b = k, k[::-1]
    h = a.astype(np.uint64) * mix_a ^ b.astype(np.uint64) * mix_b
    want_pair = ((h >> np.uint64(33)) % np.uint64(n)).astype(np.int64)
    np.testing.assert_array_equal(key_buckets(pa.table({"a": a, "b": b}), ["a", "b"], n), want_pair)


def _blocks(df: pd.DataFrame, n_blocks: int = 5):
    import ray.data as rd

    cuts = np.linspace(0, len(df), n_blocks + 1).astype(int)
    return rd.from_pandas([df.iloc[a:b] for a, b in zip(cuts[:-1], cuts[1:])])


@pytest.mark.parametrize("n", [1, 7])
def test_exchange_runs_no_sample_pass(ray_session, monkeypatch, n):
    from ray.data._internal.planner.exchange.sort_task_spec import SortTaskSpec

    from lasutility_ray.stages import cogroup

    sampled = []
    sample = SortTaskSpec.sample_boundaries

    def spy(*args, **kwargs):
        sampled.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(SortTaskSpec, "sample_boundaries", staticmethod(spy))
    df = pd.DataFrame({"k": np.arange(1000) % 13, "v": np.arange(1000)})
    _blocks(df).sort("k").materialize()
    assert sampled, "the spy sees Ray's sampled sort"
    sampled.clear()

    monkeypatch.setattr(cogroup, "default_n_buckets", lambda: n)
    out = cogroup.shuffle_by(_blocks(df), "k", lambda g: g).materialize()
    assert sampled == []
    # a sampled sort makes one reducer per input block (5 here)
    stats = out.stats()
    assert re.search(rf"SortReduce: \d+ tasks executed, {max(n, 2)} blocks produced", stats), stats
    assert len(out.to_pandas()) == len(df)


def _calls(df: pd.DataFrame, n: int, key: str = "k") -> pd.DataFrame:
    """One row per (``fn`` call, key): the call's id, its row count,
    the key's rows in it and the number of bucket ids it holds."""
    from lasutility_ray.stages import cogroup

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        buckets = cogroup.key_buckets(pa.Table.from_pandas(g, preserve_index=False), key, n)
        per_key = g.groupby(key, sort=False).size()
        return pd.DataFrame(
            {
                "call": uuid.uuid4().hex,
                "call_rows": len(g),
                key: per_key.index.to_numpy(),
                "rows": per_key.to_numpy(),
                "bucket_ids": len(np.unique(buckets)),
            }
        )

    with mock.patch.object(cogroup, "default_n_buckets", lambda: n):
        return cogroup.shuffle_by(_blocks(df), key, fn).to_pandas()


def test_more_buckets_than_keys_never_calls_fn_empty(ray_session):
    df = pd.DataFrame({"k": np.array([3, 11] * 50, np.int64), "v": np.arange(100)})
    calls = _calls(df, 16)
    assert (calls["call_rows"] > 0).all()
    assert calls["rows"].sum() == len(df)
    assert sorted(calls["k"]) == [3, 11]


@settings(max_examples=12, deadline=None)
@given(st.lists(INTS, min_size=1, max_size=12), INTS, st.sampled_from([1, 3, 7]))
def test_skewed_keys_arrive_whole_in_one_bucket_call(ray_session, minor, hot, n):
    keys = np.array(minor + [hot] * (9 * len(minor)), np.int64)
    df = pd.DataFrame({"k": keys, "v": np.arange(len(keys))})
    calls = _calls(df, n)
    assert (calls["call_rows"] > 0).all()
    assert (calls["bucket_ids"] == 1).all()
    assert (calls.groupby("k")["call"].nunique() == 1).all()
    want = df.groupby("k").size()
    got = calls.groupby("k")["rows"].sum()
    pd.testing.assert_series_equal(got.sort_index(), want.sort_index(), check_names=False)


def test_bucket_count_keeps_buckets_within_the_target_block_size(ray_session, monkeypatch):
    from ray.data import DataContext

    from lasutility_ray.stages import cogroup

    df = pd.DataFrame({"k": np.arange(20_000) % 97, "v": np.arange(20_000)})
    size = cogroup._source_bytes([_blocks(df)])
    assert size >= df.memory_usage(index=False).sum()
    monkeypatch.setattr(cogroup, "default_n_buckets", lambda: 1)
    assert cogroup.n_buckets_for(_blocks(df)) == 1

    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", size // 6)
    n = cogroup.n_buckets_for(_blocks(df))
    assert n >= 6
    # a two-sided shuffle sizes both inputs
    assert cogroup.n_buckets_for(_blocks(df), _blocks(df)) >= 2 * n - 1

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        per_key = g.groupby("k").size()
        return pd.DataFrame({"call": uuid.uuid4().hex, "k": per_key.index, "rows": per_key.to_numpy()})

    calls = cogroup.shuffle_by(_blocks(df), "k", fn).to_pandas()
    assert calls["call"].nunique() == n
    assert (calls.groupby("k")["call"].nunique() == 1).all()
    assert calls.set_index("k")["rows"].sort_index().tolist() == df.groupby("k").size().tolist()
