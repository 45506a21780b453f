"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical inputs and different seeds give different inputs
(pinned in ``test_perfbench.py``). The engine only ever sees the
generated data; nothing here reads files of the repository.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lasutility_ray.corpus.geocode import AREA_MIN_E, AREA_MIN_N, CLASS_TABLE, GROUND, geocode
from lasutility_ray.stages.tiling import tile_key_of

# The flagship corpus is confined to a BLOCK_ROWS x BLOCK_COLS block of
# 1 km tiles in the south-west corner of the geocoder's 24 x 24 km work
# area. The block holds no urban tile and one synthetic rect feature per
# tile, so a pass does TIN and PIP work on every tile, and at 16 tiles a
# 2-CPU pass takes seconds (the whole 576-tile area takes 14-18 s).
BLOCK_ROWS = 4
BLOCK_COLS = 4
# candidate doc ids start at (seed % N_ID_BASES) * ID_STRIDE; geocode's
# int64 hashes (and their DuckDB mirrors) stay exact for ids below ~3.4e9
ID_STRIDE = 1_000_000
N_ID_BASES = 2_000
HOT_SHARE = 0.4
N_SHARDS = 16  # checkpoint files, as the flagship writes ncpu * 8 of them


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**32, stream])


def block_doc_ids(n: int, seed: int) -> np.ndarray:
    """The first ``n`` doc ids at or after ``(seed % N_ID_BASES) *
    ID_STRIDE`` whose geocoded point falls inside the tile block
    (ascending)."""
    out, got, start = [], 0, (seed % N_ID_BASES) * ID_STRIDE
    while got < n:
        ids = np.arange(start, start + 1_000_000, dtype=np.int64)
        start += 1_000_000
        x, y, *_ = geocode(ids)
        col = np.floor((x - AREA_MIN_E) / 1000)
        row = np.floor((y - AREA_MIN_N) / 1000)
        keep = (row < BLOCK_ROWS) & (col < BLOCK_COLS)
        out.append(ids[keep])
        got += int(keep.sum())
    return np.concatenate(out)[:n]


def block_points(n: int, seed: int, hot_share: float = 0.0) -> pa.Table:
    """Points table in the flagship checkpoint schema: ``hot_share`` of
    the rows sit in one seed-chosen 1 km tile of the block, the rest
    are the geocoded ``block_doc_ids``, as the flagship's checkpoint
    holds them. Rows are shuffled so the hot tile's points arrive from
    every checkpoint shard."""
    rng = seeded_rng(seed, 1)
    n_hot = int(n * hot_share)
    ids = block_doc_ids(n - n_hot, seed)
    x, y, z, cls, _ = geocode(ids)
    t = int(rng.integers(BLOCK_ROWS * BLOCK_COLS))
    e0 = AREA_MIN_E + (t % BLOCK_COLS) * 1000
    n0 = AREA_MIN_N + (t // BLOCK_COLS) * 1000
    hx = e0 + rng.integers(0, 1_000_000, n_hot) / 1000.0
    hy = n0 + rng.integers(0, 1_000_000, n_hot) / 1000.0
    hz = rng.integers(0, 100_000, n_hot) / 100.0
    hcls = np.asarray(CLASS_TABLE, np.uint8)[rng.integers(0, len(CLASS_TABLE), n_hot)]
    hot_ids = (N_ID_BASES + 1) * ID_STRIDE + np.arange(n_hot, dtype=np.int64)
    xs, ys = np.concatenate([x, hx]), np.concatenate([y, hy])
    cl = np.concatenate([cls, hcls]).astype(np.uint8)
    order = rng.permutation(n)
    return pa.table(
        {
            "doc_id": pa.array(np.concatenate([ids, hot_ids])[order], pa.int64()),
            "x": pa.array(xs[order], pa.float64()),
            "y": pa.array(ys[order], pa.float64()),
            "z": pa.array(np.concatenate([z, hz])[order], pa.float64()),
            "classification": pa.array(cl[order], pa.uint8()),
            "is_ground": pa.array(cl[order] == GROUND, pa.bool_()),
            "tile_key": pa.array(tile_key_of(xs, ys)[order], pa.int64()),
            "extract_ok": pa.array(np.ones(n, np.uint8), pa.uint8()),
        }
    )


def write_shards(table: pa.Table, out_dir: str, n_shards: int = N_SHARDS) -> None:
    os.makedirs(out_dir, exist_ok=True)
    n = table.num_rows
    for i in range(n_shards):
        lo, hi = i * n // n_shards, (i + 1) * n // n_shards
        pq.write_table(table.slice(lo, hi - lo), os.path.join(out_dir, f"part-{i:03d}.parquet"))


# ------------------------------------------------- query mix tables
#
# The same schemas as the engine's sf test tables (TPC-H-shaped star
# schema, an events stream and a small web-text corpus), at the sf0.01
# row counts, drawn from a seeded generator.

VOCAB = (
    "a the data row column table key value hash join merge sort scan filter "
    "group agg query stream batch window vector spark part order customer "
    "line big small fast slow"
).split()
LANGS = np.array(["en", "de", "es", "fr", "zh"], dtype=object)
LANG_P = [0.4, 0.15, 0.15, 0.15, 0.15]
SEGMENTS = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"], dtype=object)
PRIORITIES = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"], dtype=object)
EVENT_TYPES = np.array(["click", "error", "purchase", "signup", "view"], dtype=object)

QUERY_ROWS = {
    "region": 5,
    "nation": 25,
    "customer": 1_500,
    "supplier": 100,
    "orders": 15_000,
    "lineitem": 60_000,
    "events": 10_000,
    "documents": 600,
}


def _day(s: str) -> np.datetime64:
    return np.datetime64(s, "D")


def _documents(rng: np.random.Generator, n: int) -> pa.Table:
    vocab = np.asarray(VOCAB, dtype=object)
    texts = []
    for i in range(n):
        if i > 10 and rng.random() < 0.02:
            texts.append(texts[int(rng.integers(0, i))])  # exact duplicate doc
            continue
        words = vocab[rng.integers(0, len(vocab), int(rng.integers(10, 100)))].tolist()
        if rng.random() < 0.05:
            words += ["dup"] * int(rng.integers(1, 3))
        texts.append(" ".join(words))
    doc_id = np.arange(n, dtype=np.int64)
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(rng.choice(LANGS, n, p=LANG_P), pa.string()),
            "source": pa.array([f"src{i % 20}" for i in range(n)], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def query_tables(seed: int) -> dict[str, pa.Table]:
    rng = seeded_rng(seed, 2)
    r = QUERY_ROWS
    region = pa.table(
        {
            "r_regionkey": pa.array(np.arange(5), pa.int32()),
            "r_name": pa.array(["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]),
        }
    )
    nation = pa.table(
        {
            "n_nationkey": pa.array(np.arange(25), pa.int32()),
            "n_name": pa.array([f"NATION_{i}" for i in range(25)]),
            "n_regionkey": pa.array(np.arange(25) % 5, pa.int32()),
        }
    )
    nc = r["customer"]
    customer = pa.table(
        {
            "c_custkey": pa.array(np.arange(nc), pa.int64()),
            "c_name": pa.array([f"Customer#{i:09d}" for i in range(nc)]),
            "c_nationkey": pa.array(rng.integers(0, 25, nc), pa.int32()),
            "c_acctbal": pa.array(rng.integers(-99_999, 999_999, nc) / 100.0, pa.float64()),
            "c_mktsegment": pa.array(rng.choice(SEGMENTS, nc), pa.string()),
        }
    )
    ns = r["supplier"]
    supplier = pa.table(
        {
            "s_suppkey": pa.array(np.arange(ns), pa.int64()),
            "s_name": pa.array([f"Supplier#{i:09d}" for i in range(ns)]),
            "s_nationkey": pa.array(rng.integers(0, 25, ns), pa.int32()),
            "s_acctbal": pa.array(rng.integers(-99_999, 999_999, ns) / 100.0, pa.float64()),
        }
    )
    no = r["orders"]
    span_days = int((_day("2001-08-01") - _day("1995-01-01")).astype(int))
    odate = _day("1995-01-01") + rng.integers(0, span_days + 1, no)
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(no), pa.int64()),
            "o_custkey": pa.array(rng.integers(0, nc, no), pa.int64()),
            "o_orderstatus": pa.array(rng.choice(np.array(["F", "O", "P"], dtype=object), no)),
            "o_totalprice": pa.array(rng.integers(100_000, 50_000_000, no) / 100.0, pa.float64()),
            "o_orderdate": pa.array(odate.astype("datetime64[us]"), pa.timestamp("us")),
            "o_orderpriority": pa.array(rng.choice(PRIORITIES, no), pa.string()),
        }
    )
    nl = r["lineitem"]
    l_order = np.sort(rng.integers(0, no, nl))
    starts = np.searchsorted(l_order, l_order, side="left")
    linenumber = np.arange(nl) - starts + 1
    qty = rng.integers(1, 51, nl).astype(np.float64)
    price = rng.integers(90_000, 210_000, nl) / 100.0
    ship = odate[l_order] + rng.integers(1, 122, nl)
    lineitem = pa.table(
        {
            "l_orderkey": pa.array(l_order, pa.int64()),
            "l_partkey": pa.array(rng.integers(0, 2_000, nl), pa.int64()),
            "l_suppkey": pa.array(rng.integers(0, ns, nl), pa.int64()),
            "l_linenumber": pa.array(linenumber, pa.int32()),
            "l_quantity": pa.array(qty, pa.float64()),
            "l_extendedprice": pa.array(np.round(qty * price, 2), pa.float64()),
            "l_discount": pa.array(rng.integers(0, 11, nl) / 100.0, pa.float64()),
            "l_tax": pa.array(rng.integers(0, 9, nl) / 100.0, pa.float64()),
            "l_returnflag": pa.array(rng.choice(np.array(["A", "N", "R"], dtype=object), nl)),
            "l_linestatus": pa.array(rng.choice(np.array(["F", "O"], dtype=object), nl)),
            "l_shipdate": pa.array(ship.astype("datetime64[us]"), pa.timestamp("us")),
        }
    )
    ne = r["events"]
    month_us = 30 * 86_400 * 1_000_000
    ts = np.datetime64("2024-01-01T00:00:00", "us") + np.sort(rng.integers(0, month_us, ne))
    events = pa.table(
        {
            "event_id": pa.array(np.arange(ne), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, 150, ne), pa.int64()),
            "event_type": pa.array(rng.choice(EVENT_TYPES, ne), pa.string()),
            "value": pa.array(np.round(rng.exponential(50.0, ne), 2), pa.float64()),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, ne)]),
        }
    )
    return {
        "region": region,
        "nation": nation,
        "customer": customer,
        "supplier": supplier,
        "orders": orders,
        "lineitem": lineitem,
        "events": events,
        "documents": _documents(rng, r["documents"]),
    }


def write_query_tables(seed: int, out_dir: str) -> dict[str, int]:
    """Write one parquet file per table; returns the row counts."""
    os.makedirs(out_dir, exist_ok=True)
    rows = {}
    for name, table in query_tables(seed).items():
        pq.write_table(table, os.path.join(out_dir, f"{name}.parquet"))
        rows[name] = table.num_rows
    return rows
