"""Self-tests of the benchmark: generator pins, the watchdog, the span
arithmetic. No Ray session needed.

    python3 -m pytest perfbench -q      (or: python3 perfbench/test_perfbench.py)
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import gen  # noqa: E402
from perfbench.harness import OpRunner, Tracer  # noqa: E402

N = 2_000


def _digest(table: pa.Table) -> str:
    sink = pa.BufferOutputStream()
    pq.write_table(table, sink)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def _query_digests(seed: int) -> dict[str, str]:
    return {name: _digest(t) for name, t in gen.query_tables(seed).items()}


def test_block_doc_ids_pinned_by_seed():
    a, b, c = gen.block_doc_ids(N, 7), gen.block_doc_ids(N, 7), gen.block_doc_ids(N, 8)
    assert a.tobytes() == b.tobytes()
    assert not set(a.tolist()) & set(c.tolist())
    assert len(a) == N


def test_block_points_pinned_by_seed():
    for share in (0.0, gen.HOT_SHARE):
        a, b = gen.block_points(N, 3, share), gen.block_points(N, 3, share)
        assert _digest(a) == _digest(b)
        assert _digest(a) != _digest(gen.block_points(N, 4, share))


def test_block_points_without_hot_share_are_the_geocoded_ids():
    from lasutility_ray.corpus.pages import synth_pages_batch
    from lasutility_ray.stages.tiling import add_point_columns

    want = add_point_columns(synth_pages_batch(gen.block_doc_ids(N, 9))).sort_by("doc_id")
    got = gen.block_points(N, 9).sort_by("doc_id")
    for col in ("doc_id", "x", "y", "z", "classification", "is_ground", "tile_key"):
        assert got.column(col).equals(want.column(col)), col


def test_hot_tile_holds_the_stated_share():
    n = 60_000
    t = gen.block_points(n, 5, gen.HOT_SHARE)
    counts = t.group_by("tile_key").aggregate([("doc_id", "count")]).sort_by(
        [("doc_id_count", "descending")]
    )
    top, *rest = counts.column("doc_id_count").to_pylist()
    n_tiles = gen.BLOCK_ROWS * gen.BLOCK_COLS
    assert len(rest) == n_tiles - 1
    # the hot share plus about one tile's share of the uniform points
    assert gen.HOT_SHARE <= top / n < gen.HOT_SHARE + 2 * (1 - gen.HOT_SHARE) / n_tiles
    assert max(rest) < 20_000 < top  # exactly one tile over the 2-CPU hot threshold


def test_query_tables_pinned_by_seed():
    assert _query_digests(11) == _query_digests(11)
    a, b = _query_digests(11), _query_digests(12)
    # the fixed dimension tables repeat; every generated table changes
    assert a["region"] == b["region"] and a["nation"] == b["nation"]
    for name in ("customer", "supplier", "orders", "lineitem", "events", "documents"):
        assert a[name] != b[name], name


def test_query_tables_shape():
    tables = gen.query_tables(1)
    assert {n: t.num_rows for n, t in tables.items()} == gen.QUERY_ROWS
    docs = tables["documents"].to_pandas()
    assert (docs["text"].str.len() == docs["n_chars"]).all()
    assert docs["text"].duplicated().any()  # dedup queries have work to do


def test_hung_op_is_recorded_as_failed():
    tracer = Tracer("selftest", enabled=True)
    runner = OpRunner(tracer, timeout_s=0.3)

    def hangs():
        with tracer.span("pip_join"):
            time.sleep(30)

    t0 = time.perf_counter()
    ok, value, wall = runner.run("flagship", hangs)
    assert time.perf_counter() - t0 < 5
    assert not ok and value is None and wall >= 0.3
    assert runner.hung and runner.attempted == 1 and runner.failed == 1
    failure = runner.failures[0]
    assert failure["op"] == "flagship"
    assert failure["layer"] == "flagship/pip_join"
    assert "timed out" in failure["error"]


def test_raising_op_is_recorded_with_its_layer():
    tracer = Tracer("selftest", enabled=False)
    runner = OpRunner(tracer, timeout_s=5)

    def fails():
        with tracer.span("tin"):
            raise RuntimeError("boom")

    ok, _, _ = runner.run("resume", fails)
    assert not ok and not runner.hung
    assert runner.failures == [
        {"op": "resume", "layer": "resume/tin", "error": "RuntimeError('boom')"}
    ]
    ok, value, _ = runner.run("resume", lambda: 42)
    assert ok and value == 42 and runner.attempted == 2 and runner.failed == 1


def test_failed_session_start_is_retried():
    from perfbench.run import SETUP_ATTEMPTS, start_session_retrying

    def flaky(fail_times):
        calls = []

        def start(ncpu, temp_dir):
            calls.append((ncpu, temp_dir))
            if len(calls) <= fail_times:
                raise RuntimeError("The current node timed out during startup.")
            return 1.5, 2.5

        return start, calls

    start, calls = flaky(1)
    stops, log = [], []
    later = time.perf_counter() + 60
    got = start_session_retrying(2, None, lambda: stops.append(1), later, log, start=start)
    assert got == (1.5, 2.5) and len(calls) == 2 and len(stops) == 1
    assert len(log) == 1 and "timed out during startup" in log[0]

    start, calls = flaky(SETUP_ATTEMPTS)
    stops, log = [], []
    try:
        start_session_retrying(2, None, lambda: stops.append(1), later, log, start=start)
        raise AssertionError("a start that always fails must raise")
    except RuntimeError:
        pass
    assert len(calls) == len(stops) == len(log) == SETUP_ATTEMPTS

    start, calls = flaky(1)  # past the retry window: no second attempt
    try:
        start_session_retrying(2, None, lambda: None, time.perf_counter() - 1, [], start=start)
        raise AssertionError("a failed start past the window must raise")
    except RuntimeError:
        pass
    assert len(calls) == 1


def test_self_time_subtracts_children():
    tracer = Tracer("selftest", enabled=True)
    with tracer.span("op"):
        time.sleep(0.02)
        with tracer.span("child"):
            time.sleep(0.05)
    (op,) = tracer.durations("op")
    (child,) = tracer.durations("child")
    (op_self,) = tracer.self_times()["op"]
    assert abs(op_self - (op - child)) < 1e-9
    assert 0.015 < op_self < 0.045
    parents = {s["name"]: s["parent"] for s in tracer.spans}
    ids = {s["name"]: s["id"] for s in tracer.spans}
    assert parents == {"child": ids["op"], "op": None}


def test_benchmark_json_matches_the_code():
    import json

    from perfbench.run import END_TO_END, per_layer_metrics
    from perfbench.workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for f in tests:
        f()
        print("ok", f.__name__)
    print(f"{len(tests)} passed")
