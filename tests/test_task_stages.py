"""The broadcast stages run as Ray Data tasks, not actor pools.

- An AST guard fails on any new ``map_batches`` actor pool in the
  engine, the contract module or the bench script.
- A 1-CPU session runs the PIP join, the token stats and a zero-pending
  TIN resume, and gets its CPU back right after: fixed or autoscaling
  actor pools deadlocked such a session, starved it, or held its CPU
  until a garbage collection.
- ``broadcast_join`` checks its unique-key precondition.
"""

import ast
import os
import signal
import subprocess
import sys

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
SF = "/root/testdata/sf0.001"

# (file relative to the repo, enclosing function) of every map_batches
# call allowed to run an actor pool: sites where a tasks-vs-actors
# sweep showed the pool faster. None are left.
ACTOR_POOL_ALLOWED: set[tuple[str, str]] = set()


def _scanned_files() -> list[str]:
    files = [os.path.join(REPO, "__ray_entry__.py"), os.path.join(REPO, "bench.py")]
    for root, _, names in os.walk(os.path.join(REPO, "lasutility_ray")):
        files += [os.path.join(root, n) for n in names if n.endswith(".py")]
    return sorted(files)


def _actor_pool_sites() -> tuple[int, list[tuple[str, str, int, str]]]:
    """(number of map_batches calls, actor-pool sites among them)."""
    trees = {}
    class_names = set()
    for path in _scanned_files():
        with open(path) as f:
            trees[path] = ast.parse(f.read(), path)
        class_names |= {n.name for n in ast.walk(trees[path]) if isinstance(n, ast.ClassDef)}

    n_calls, sites = 0, []
    for path, tree in trees.items():
        rel = os.path.relpath(path, REPO)
        parents = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_batches"
            ):
                continue
            n_calls += 1
            reasons = [
                kw.arg for kw in node.keywords
                if kw.arg in ("fn_constructor_args", "fn_constructor_kwargs")
            ]
            fn = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "fn"), None
            )
            fn_name = getattr(fn, "id", None) or getattr(fn, "attr", None)
            if fn_name in class_names:
                reasons.append(f"class UDF {fn_name}")
            if not reasons:
                continue
            scope, p = "<module>", parents.get(node)
            while p is not None:
                if isinstance(p, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope = p.name
                    break
                p = parents.get(p)
            if (rel, scope) not in ACTOR_POOL_ALLOWED:
                sites.append((rel, scope, node.lineno, ", ".join(reasons)))
    return n_calls, sites


def test_no_actor_pool_map_batches():
    n_calls, sites = _actor_pool_sites()
    assert n_calls > 100  # the walk really reaches the engine's stages
    assert sites == [], "map_batches actor pools outside the allow-list:\n" + "\n".join(
        f"  {f}:{line} in {fn}(): {why}" for f, fn, line, why in sites
    )


_ONE_CPU_CHILD = r"""
import os, sys, tempfile, time
sys.path.insert(0, {repo!r})
import duckdb, pandas as pd, ray, ray.data as rd

SF = {sf!r}
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False

import __ray_entry__ as e
from lasutility_ray.stages.tiling import points_dataset
from lasutility_ray.state import resumable_tin_tiles


def canon(df):
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


con = duckdb.connect()
con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{{SF}}/documents.parquet')")
for name in ("q_pip_join_rect", "q_token_stats"):
    got = canon(getattr(e, name)(SF).to_pandas())
    ref = canon(con.execute(e.oracle_sql()[name]).df())
    assert len(got) > 0, name
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)
    print(name, "rows", len(got), flush=True)

out = os.path.join(tempfile.mkdtemp(), "tin")
pts = points_dataset(
    rd.read_parquet(f"{{SF}}/documents.parquet", columns=["doc_id"])
).drop_columns(["tile_id"])
m1 = resumable_tin_tiles(pts, out, key_col="tile_key")
mdir = os.path.join(out, "_manifest")
stamp = sorted((f, os.stat(os.path.join(mdir, f)).st_mtime_ns) for f in os.listdir(mdir))
m2 = resumable_tin_tiles(pts, out, key_col="tile_key")  # zero pending tiles
assert m1.num_rows > 0
assert m2.equals(m1), "resume changed the manifest"
assert stamp == sorted(
    (f, os.stat(os.path.join(mdir, f)).st_mtime_ns) for f in os.listdir(mdir)
), "resume rewrote manifest files"
print("tiles", m1.num_rows, flush=True)

# no gc.collect(): a finished stage must not keep holding the CPU
t0 = time.monotonic()
while ray.available_resources().get("CPU", 0) < 1 and time.monotonic() - t0 < 2.0:
    time.sleep(0.05)
cpu = ray.available_resources().get("CPU", 0)
assert cpu == 1, f"CPU still held {{time.monotonic() - t0:.1f}} s after the last stage: {{cpu}}"
print("CHILD_OK", flush=True)
ray.shutdown()
"""


def test_one_cpu_session_finishes_and_frees_its_cpu(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_CHILD.format(repo=REPO, sf=SF)],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child's Ray processes share its group
        out, _ = proc.communicate()
        pytest.fail("1-CPU session hung for 240 s:\n" + out[-4000:])
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert proc.returncode == 0 and "CHILD_OK" in out, out[-4000:]


def test_broadcast_join_rejects_duplicate_keys(ray_session):
    import ray.data as rd

    from lasutility_ray.stages.relational import broadcast_join

    left = rd.from_arrow(pa.table({"k": [1, 2, 3]}))
    dup = pa.table({"k": [1, 2, 2], "v": ["a", "b", "c"]})
    with pytest.raises(ValueError, match="duplicate keys"):
        broadcast_join(left, dup, on="k")

    uniq = pa.table({"k": [1, 2], "v": ["a", "b"]})
    got = broadcast_join(left, uniq, on="k", prefix="r_").to_pandas()
    assert got.sort_values("k").to_dict("list") == {"k": [1, 2], "r_v": ["a", "b"]}


def test_customer_nation_broadcast_matches_oracle(ray_session):
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in ("customer", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    name = "q_customer_nation_broadcast"
    got = e.q_customer_nation_broadcast(SF).to_pandas()
    ref = con.execute(e.oracle_sql()[name]).df()

    def canon(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)

    assert len(got) > 0
    pd.testing.assert_frame_equal(canon(got), canon(ref), check_dtype=False)
