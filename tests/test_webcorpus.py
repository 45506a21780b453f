"""Web-corpus curation stages (stages/webcorpus.py): host analytics,
domain-mix sampling, repetition signals, sequence packing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from lasutility_ray.stages.webcorpus import (
    domain_mix,
    host_stats,
    pack_sequences,
    repetition_stats,
)

SF = "/root/testdata/sf0.001"


def _oracle(name, con):
    import __ray_entry__ as entry

    df = entry.queries()[name](SF).to_pandas()
    ref = con.execute(entry.oracle_sql()[name]).df()
    return df, ref


@pytest.fixture()
def docs_con():
    duckdb = pytest.importorskip("duckdb")
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    return con


def _sorted(df, cols):
    return df.sort_values(cols).reset_index(drop=True)


def test_host_stats_matches_duckdb(ray_session, docs_con):
    df, ref = _oracle("q_host_stats", docs_con)
    df, ref = _sorted(df, ["host"]), _sorted(ref, ["host"])
    pd.testing.assert_frame_equal(df[ref.columns], ref, check_dtype=False)


def test_host_stats_merges_across_batches(ray_session):
    # same host split over many 1-row blocks: partials must merge
    pages = rd.from_items(
        [
            {
                "url": f"https://one.example/p{i}",
                "warc_ts": pd.Timestamp("2023-01-01") + pd.Timedelta(seconds=i),
                "text": "x" * (i + 1),
                "lang": ["fi", "en", "fi", "sv"][i % 4],
            }
            for i in range(8)
        ],
        override_num_blocks=8,
    )
    out = host_stats(pages).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert r["host"] == "one.example"
    assert r["n_pages"] == 8
    assert r["n_chars"] == sum(range(1, 9))
    assert r["n_langs"] == 3
    assert r["last_ts_ms"] - r["first_ts_ms"] == 7000


def test_domain_mix_matches_duckdb(ray_session, docs_con):
    df, ref = _oracle("q_domain_mix", docs_con)
    df, ref = _sorted(df, ["doc_id"]), _sorted(ref, ["doc_id"])
    pd.testing.assert_frame_equal(df[ref.columns], ref, check_dtype=False)


def test_domain_mix_rates_and_complement(ray_session):
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(np.arange(4000), pa.int64()),
                "source": pa.array(
                    ["keep_all", "drop_all"] * 2000, pa.string()
                ),
            }
        )
    )
    out = domain_mix(docs, bps={"keep_all": 10000, "drop_all": 0}).to_pandas()
    assert (out["source"] == "keep_all").all()
    assert len(out) == 2000  # rate 1.0 keeps every row, rate 0 none
    # half rate: deterministic and ~50%
    half = domain_mix(docs, bps={"keep_all": 5000, "drop_all": 5000}).to_pandas()
    again = domain_mix(docs, bps={"keep_all": 5000, "drop_all": 5000}).to_pandas()
    assert sorted(half["doc_id"]) == sorted(again["doc_id"])
    assert 0.4 < len(half) / 4000 < 0.6


def test_repetition_stats_matches_duckdb(ray_session, docs_con):
    df, ref = _oracle("q_repetition_stats", docs_con)
    df, ref = _sorted(df, ["doc_id"]), _sorted(ref, ["doc_id"])
    # fractions must be bit-identical (same IEEE divisions)
    pd.testing.assert_frame_equal(df[ref.columns], ref, check_dtype=False)
    for c in ["dup_word_frac", "top_word_frac", "dup_2gram_frac"]:
        assert (df[c].to_numpy() == ref[c].to_numpy()).all()


def test_repetition_stats_edges(ray_session):
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    ["a a a a", "a b c d", "solo", "x y x y x"], pa.string()
                ),
            }
        )
    )
    out = (
        repetition_stats(docs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["n_words"].tolist() == [4, 4, 1, 5]
    assert out["n_distinct_words"].tolist() == [1, 4, 1, 2]
    assert out["dup_word_frac"].tolist() == [0.75, 0.0, 0.0, 0.6]
    assert out["top_word_frac"].tolist() == [1.0, 0.25, 1.0, 0.6]
    # doc1 bigrams: 'a a' x3 -> (3-1)/3; doc3 has none -> 0.0
    assert out["dup_2gram_frac"].tolist() == [2 / 3, 0.0, 0.0, 0.5]


def test_pack_sequences_matches_duckdb(ray_session, docs_con):
    df, ref = _oracle("q_pack_sequences", docs_con)
    df, ref = _sorted(df, ["doc_id"]), _sorted(ref, ["doc_id"])
    pd.testing.assert_frame_equal(df[ref.columns], ref, check_dtype=False)


def test_pack_sequences_invariants(ray_session):
    # ids crossing several 65536 blocks, many blocks empty
    ids = np.array([0, 1, 2, 65536, 65537, 200000, 400000, 400001], dtype=np.int64)
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array([("w " * 7).strip()] * len(ids), pa.string()),
            }
        )
    )
    out = pack_sequences(docs, 10).to_pandas().sort_values("doc_id")
    # 7 tokens per doc, budget 10: starts are 0,7,14,21,... over id order
    starts = out["seq_id"].to_numpy() * 10 + out["seq_off"].to_numpy()
    assert starts.tolist() == [0, 7, 14, 21, 28, 35, 42, 49]
    assert (out["n_tok"] == 7).all()
    assert (out["seq_off"] < 10).all()
    with pytest.raises(ValueError):
        pack_sequences(docs, 0)


def test_semi_anti_lookup_join(ray_session):
    from lasutility_ray.stages.cogroup import lookup_join

    left = rd.from_arrow(
        pa.table(
            {
                "k": pa.array(["a", "b", "c", "d"], pa.string()),
                "v": pa.array([1, 2, 3, 4], pa.int64()),
            }
        )
    )
    right = rd.from_arrow(
        pa.table({"id": pa.array(["b", "d", "d"], pa.string())})
    )  # dup right keys are fine for membership
    semi = lookup_join(left, right, "k", "id", {}, how="semi").to_pandas()
    anti = lookup_join(left, right, "k", "id", {}, how="anti").to_pandas()
    assert sorted(semi["k"]) == ["b", "d"] and sorted(semi["v"]) == [2, 4]
    assert sorted(anti["k"]) == ["a", "c"]
    assert anti["v"].dtype == np.int64
    with pytest.raises(ValueError, match="membership"):
        lookup_join(left, right, "k", "id", {"id": "x"}, how="anti")
    with pytest.raises(ValueError, match="inner|semi|anti"):
        lookup_join(left, right, "k", "id", {}, how="left")


def test_canonicalize_urls(ray_session):
    from lasutility_ray.stages.urlnorm import canonicalize_urls

    raw = [
        "HTTPS://Example.COM:443/Path?q=1#frag",
        "http://example.com:80",
        "http://example.com:8080/x",
        "https://example.com/a?",
        "ftp://Host/Z",
        "not a url",
    ]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(len(raw)), "url": raw}))
    out = canonicalize_urls(ds).to_pandas().sort_values("doc_id")["canon_url"].tolist()
    assert out == [
        "https://example.com:443/Path?q=1",  # scheme+host lowered, frag dropped, port kept
        "http://example.com:80",  # a default port is kept, no path added
        "http://example.com:8080/x",  # non-default port kept
        "https://example.com/a",  # empty query dropped
        "ftp://host/Z",  # any scheme: host lowered, path case kept
        "not a url",  # passthrough
    ]


def test_incremental_dedup_matches_duckdb(ray_session, docs_con):
    df, ref = _oracle("q_incremental_dedup", docs_con)
    df, ref = _sorted(df, ["doc_id"]), _sorted(ref, ["doc_id"])
    pd.testing.assert_frame_equal(df[ref.columns], ref, check_dtype=False)


def test_incremental_dedup_drops_seen_content(ray_session):
    from lasutility_ray.stages.webcorpus import incremental_dedup

    new = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(["fresh one", "already crawled", "fresh two"]),
            }
        )
    )
    seen = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([100, 101], pa.int64()),
                "text": pa.array(["already crawled", "other old"]),
            }
        )
    )
    out = incremental_dedup(new, seen).to_pandas().sort_values("doc_id")
    assert out["doc_id"].tolist() == [1, 3]
    assert (out.columns[:2] == ["doc_id", "text"]).all() or "content_md5" in out.columns


def test_minhash_oracle_matches(ray_session, docs_con):
    """The full MinHash-LSH chain (shingle -> 64 perms -> banded fold
    -> candidates -> exact Jaccard) is value-exact against its new SQL
    mirror, IEEE jaccard included."""
    df, ref = _oracle("q_minhash_dedup_pairs", docs_con)
    df, ref = _sorted(df, ["a", "b"]), _sorted(ref, ["a", "b"])
    pd.testing.assert_frame_equal(df[ref.columns], ref, check_dtype=False)
    assert (df["jaccard"].to_numpy() == ref["jaccard"].to_numpy()).all()


def test_line_dedup_keep_first(ray_session):
    from lasutility_ray.stages.webcorpus import line_dedup

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    [
                        "alpha\nshared line\nbeta",
                        "shared line\ngamma\nshared line",
                        "delta",
                        "shared line",
                    ],
                    pa.string(),
                ),
            }
        )
    )
    out = line_dedup(docs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # doc 1 keeps everything (first occurrence of 'shared line');
    # doc 2 loses BOTH copies; doc 4 loses its only line and vanishes
    assert out["doc_id"].tolist() == [1, 2, 3]
    assert out["text"].tolist() == ["alpha\nshared line\nbeta", "gamma", "delta"]


class _EagerDataset:
    """The Dataset calls ``line_dedup`` makes, run in this process on
    one batch, so a counter on the driver also sees every call its
    batch fns make."""

    def __init__(self, table: pa.Table):
        self.table = table

    def map_batches(self, fn, batch_format):
        assert batch_format == "pyarrow"
        return _EagerDataset(fn(self.table))

    def sort(self, key, boundaries):
        # one block per range between consecutive boundaries
        col = self.table.column(key).to_numpy()
        part = np.searchsorted(np.asarray(boundaries), col, side="right")
        return _EagerBlocks(
            [self.table.filter(pa.array(part == i)) for i in range(len(boundaries) + 1)]
        )


class _EagerBlocks:
    def __init__(self, blocks: list[pa.Table]):
        self.blocks = blocks

    def map_batches(self, fn, batch_size, batch_format):
        assert batch_size is None and batch_format == "pandas"
        # as in Ray, no batch function runs on an empty block
        outs = [fn(b.to_pandas()) for b in self.blocks if b.num_rows]
        return _EagerDataset(
            pa.Table.from_pandas(pd.concat(outs, ignore_index=True), preserve_index=False)
        )


def test_line_dedup_bucket_count_fixed_once(monkeypatch):
    """The bucket count is read from the cluster once, on the driver,
    and the batch fns use that value: no per-batch
    ``ray.cluster_resources()`` call."""
    from lasutility_ray.stages import cogroup
    from lasutility_ray.stages.webcorpus import line_dedup

    calls = []

    def counting_n_buckets() -> int:
        calls.append(1)
        return 3

    monkeypatch.setattr(cogroup, "default_n_buckets", counting_n_buckets)
    # the fake has no Ray plan to size; its four docs add no bucket
    monkeypatch.setattr(cogroup, "_source_bytes", lambda datasets: 0)

    docs = _EagerDataset(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    ["alpha\nshared line\nbeta", "shared line\ngamma\nshared line",
                     "delta", "shared line"],
                    pa.string(),
                ),
            }
        )
    )
    out = line_dedup(docs).table.to_pandas().sort_values("doc_id")
    assert len(calls) == 1
    assert out["doc_id"].tolist() == [1, 2, 3]
    assert out["text"].tolist() == ["alpha\nshared line\nbeta", "gamma", "delta"]


def test_line_dedup_matches_duckdb(ray_session, docs_con):
    df, ref = _oracle("q_line_dedup", docs_con)
    df, ref = _sorted(df, ["doc_id"]), _sorted(ref, ["doc_id"])
    pd.testing.assert_frame_equal(df[ref.columns], ref, check_dtype=False)


def test_curate_for_training_matches_duckdb(ray_session, docs_con):
    """The composed mix -> repetition cutoff -> line dedup -> packing
    pipeline is value-exact against ONE SQL query."""
    df, ref = _oracle("q_curate_for_training", docs_con)
    df, ref = _sorted(df, ["doc_id"]), _sorted(ref, ["doc_id"])
    assert len(df) > 0
    pd.testing.assert_frame_equal(df[ref.columns], ref, check_dtype=False)
