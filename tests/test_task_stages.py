"""The broadcast stages run as Ray Data tasks, not actor pools.

- An AST guard fails on any new ``map_batches`` actor pool in the
  engine, the contract module or the bench script.
- A second AST guard fails on any ``ray.get`` inside a function passed
  to ``map_batches`` or ``map_groups``: a driver-built value travels
  inside the callable, converted once on the driver, instead of being
  re-read from the object store on every batch.
- A third AST guard fails on any ``ray.remote`` in the engine outside
  ``cogroup.one_task`` and on any ``.repartition(1)``: a bounded result
  finishes in one place, through ``one_task``.
- Each one-task size gate of TPC-H Q3/Q5, collocations and the quality
  classifier, forced to its distributed path, gives the default
  path's result.
- A 1-CPU session runs the PIP join, the token stats and a zero-pending
  TIN resume, and gets its CPU back right after: fixed or autoscaling
  actor pools deadlocked such a session, starved it, or held its CPU
  until a garbage collection.
- ``broadcast_join`` checks its unique-key precondition.
- An AST guard fails on any per-row Python path (a loop, a
  comprehension, a ``.to_pylist()``/``.tolist()``) in the page
  synthesis and extraction kernels of ``corpus/pages.py`` and in
  ``cogroup.shuffle_by``'s key hash.
- A fifth AST guard fails on any hash-bucket shuffle outside
  ``cogroup.shuffle_by``: a reference to the bucket hashes or the
  bucket count, or a ``groupby(<bucket column>).map_groups``. Inside
  cogroup.py it fails on any ``groupby`` of the bucket column and on
  any ``sort``/``repartition`` outside the one exchange, ``_exchange``.
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


# (file relative to the repo, name of the batch callable) of every
# map_batches / map_groups callable allowed to call ray.get. None are.
RAY_GET_ALLOWED: set[tuple[str, str]] = set()


def _scanned_files(repo: str = REPO) -> list[str]:
    files = [os.path.join(repo, "__ray_entry__.py"), os.path.join(repo, "bench.py")]
    for root, _, names in os.walk(os.path.join(repo, "lasutility_ray")):
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


def _is_ray_get(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("ray", "_ray")
    )


def _definitions(scope: ast.AST, name: str) -> list[ast.AST]:
    """``def name`` / ``class name`` / ``name = lambda`` nodes inside
    ``scope`` (any depth, so a def under an ``if`` or a loop counts)."""
    found = []
    for n in ast.walk(scope):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if n.name == name and n is not scope:
                found.append(n)
        elif isinstance(n, ast.Assign) and isinstance(n.value, ast.Lambda):
            if any(isinstance(t, ast.Name) and t.id == name for t in n.targets):
                found.append(n.value)
    return found


def _resolve(name: str, at: ast.AST, parents: dict, tree: ast.Module) -> list[ast.AST]:
    """Definitions of a bare ``name`` as seen from node ``at``: the
    innermost enclosing function that defines it, else the module."""
    p = parents.get(at)
    while p is not None:
        if isinstance(p, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found = _definitions(p, name)
            if found:
                return found
        p = parents.get(p)
    return [
        n for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and n.name == name
    ]


def _callable_bodies(fn: ast.AST, parents: dict, tree: ast.Module) -> list[ast.AST]:
    """AST nodes whose code runs per batch for a map_batches /
    map_groups callable expression: a lambda, a def resolved by name,
    the returned closure of a factory call, a ``partial``'s target or
    a callable class's ``__call__``."""
    if isinstance(fn, ast.Lambda):
        return [fn]
    if isinstance(fn, ast.Name):
        defs = _resolve(fn.id, fn, parents, tree)
    elif isinstance(fn, ast.Call) and isinstance(fn.func, ast.Name):
        if fn.func.id == "partial" and fn.args:
            return _callable_bodies(fn.args[0], parents, tree)
        defs = _resolve(fn.func.id, fn, parents, tree)
    else:
        return []
    out = []
    for d in defs:
        if isinstance(d, ast.ClassDef):
            out += [
                m for m in d.body
                if isinstance(m, ast.FunctionDef) and m.name == "__call__"
            ]
        else:
            out.append(d)
    return out


def _ray_get_in_batch_fns() -> tuple[int, list[tuple[str, str, int]]]:
    """(number of map_batches/map_groups calls, ray.get sites reached
    from their callables, following same-module calls by bare name)."""
    n_calls, sites = 0, set()
    for path in _scanned_files():
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        rel = os.path.relpath(path, REPO)
        parents = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("map_batches", "map_groups")
            ):
                continue
            n_calls += 1
            fn = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "fn"), None
            )
            label = ast.unparse(fn)[:60] if fn is not None else "?"
            if (rel, label) in RAY_GET_ALLOWED:
                continue
            todo = _callable_bodies(fn, parents, tree) if fn is not None else []
            seen: set[int] = set()
            while todo:
                body = todo.pop()
                if id(body) in seen:
                    continue
                seen.add(id(body))
                for n in ast.walk(body):
                    if _is_ray_get(n):
                        sites.add((rel, label, n.lineno))
                    elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name):
                        todo += [
                            d for d in _resolve(n.func.id, n, parents, tree)
                            if not isinstance(d, ast.ClassDef)
                        ]
    return n_calls, sorted(sites)


def test_no_ray_get_in_batch_functions():
    n_calls, sites = _ray_get_in_batch_fns()
    assert n_calls > 200  # the walk really reaches the engine's stages
    assert sites == [], (
        "ray.get inside map_batches/map_groups callables (capture the value "
        "in the callable instead):\n"
        + "\n".join(f"  {f}:{line} via {fn}" for f, fn, line in sites)
    )


# (file relative to the repo, enclosing function) of every ray.remote
# allowed besides cogroup.one_task, the engine's bounded-finish task.
# None are.
RAY_REMOTE_ALLOWED: set[tuple[str, str]] = set()
ONE_TASK = ("lasutility_ray/stages/cogroup.py", "one_task")


def _bounded_finish_sites() -> list[tuple[str, str, int, str]]:
    """ray.remote decorators, calls and imports outside
    cogroup.one_task, and .repartition(1) calls, in the engine."""
    sites = []
    for path in _scanned_files():
        rel = os.path.relpath(path, REPO)
        if not rel.startswith("lasutility_ray"):
            continue
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        parents = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}

        def scopes(node):
            p = parents.get(node)
            while p is not None:
                if isinstance(p, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield p.name
                p = parents.get(p)

        for node in ast.walk(tree):
            what = None
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "remote"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("ray", "_ray")
            ):
                what = "ray.remote"
            elif isinstance(node, ast.ImportFrom) and node.module == "ray":
                if any(a.name == "remote" for a in node.names):
                    what = "from ray import remote"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "repartition"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 1
            ):
                what = "repartition(1)"
            if what is None:
                continue
            chain = list(scopes(node))
            if what != "repartition(1)" and (
                (rel == ONE_TASK[0] and ONE_TASK[1] in chain)
                or any((rel, fn) in RAY_REMOTE_ALLOWED for fn in chain)
            ):
                continue
            sites.append((rel, chain[0] if chain else "<module>", node.lineno, what))
    return sites


def test_bounded_finishes_go_through_one_task():
    sites = _bounded_finish_sites()
    assert sites == [], (
        "bounded finishes outside cogroup.one_task:\n"
        + "\n".join(f"  {f}:{line} in {fn}(): {what}" for f, fn, line, what in sites)
    )


# the corpus/pages.py functions the flagship, the benchmark and the
# contract queries call; they and every same-module function they call
# by name must stay column kernels
PAGES = "lasutility_ray/corpus/pages.py"
PAGES_ENTRY = ("synth_text", "make_urls", "synth_pages_batch", "pages_from_documents",
               "extract_text_from_html")


def _per_row_sites(path: str, entry: tuple[str, ...]) -> list[tuple[str, int, str]]:
    """(function, line, construct) of every for/while loop,
    comprehension and ``.to_pylist()``/``.tolist()`` call in the
    functions of ``path`` reachable from ``entry`` by bare-name calls."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    missing = [name for name in entry if name not in defs]
    assert not missing, f"{path} no longer defines {missing}"
    todo, seen, sites = list(entry), set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for n in ast.walk(defs[name]):
            what = None
            if isinstance(n, (ast.For, ast.AsyncFor, ast.While)):
                what = type(n).__name__.lower() + " loop"
            elif isinstance(n, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                what = "comprehension"
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in ("to_pylist", "tolist"):
                what = f".{n.func.attr}()"
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in defs:
                todo.append(n.func.id)
            if what is not None:
                sites.append((name, n.lineno, what))
    return sorted(sites)


COGROUP = "lasutility_ray/stages/cogroup.py"
# the key hash shuffle_by applies to every batch (and the per-column
# hash it maps over the key's columns)
KEY_HASH_ENTRY = ("key_buckets", "_col_hash")


def test_shuffle_key_hash_has_no_per_row_path():
    sites = _per_row_sites(os.path.join(REPO, COGROUP), KEY_HASH_ENTRY)
    assert sites == [], (
        f"per-row Python in {COGROUP}'s key hash:\n"
        + "\n".join(f"  {fn}():{line} {what}" for fn, line, what in sites)
    )


# totalsort splits on sampled key ranges, not a hash bucket: it sizes
# its own partition count and groups by its own partition column
BUCKET_SHUFFLE_ALLOWED = {"lasutility_ray/stages/totalsort.py"}
BUCKET_HASHES = {"_bucket_of", "_str_bucket_of"}
BUCKET_COLUMNS = {"__b", "__bucket", "bucket", "__gab_bucket"}


# the all-to-all calls cogroup.py may make only inside ``_exchange``
EXCHANGE_CALLS = {"sort", "repartition"}


def _cogroup_exchange_sites(repo: str = REPO) -> list[tuple[str, int, str]]:
    """(file, line, what) of every exchange in cogroup.py besides the
    one in ``_exchange``: a ``groupby`` of the bucket column (literal
    or ``_BUCKET``) anywhere, a ``sort``/``repartition`` elsewhere."""
    with open(os.path.join(repo, COGROUP)) as f:
        tree = ast.parse(f.read())
    sites = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            what, arg = node.func.attr, node.args[0] if node.args else None
            bucket_arg = (isinstance(arg, ast.Constant) and arg.value in BUCKET_COLUMNS) or (
                isinstance(arg, ast.Name) and arg.id == "_BUCKET"
            )
            if (what == "groupby" and bucket_arg) or (
                what in EXCHANGE_CALLS and fn.name != "_exchange"
            ):
                sites.append((COGROUP, node.lineno, f"{fn.name}(): .{what}"))
    return sites


def _bucket_shuffle_sites(repo: str = REPO) -> list[tuple[str, int, str]]:
    """(file, line, what) of every hash-bucket shuffle written outside
    ``cogroup.shuffle_by``: a reference to ``_bucket_of`` or
    ``_str_bucket_of`` outside cogroup.py, to ``default_n_buckets``
    outside cogroup.py and the allowed files, and a
    ``.groupby(<bucket column literal>).map_groups`` outside both."""
    sites = []
    for path in _scanned_files(repo):
        rel = os.path.relpath(path, repo)
        if rel == COGROUP:
            continue
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            for name in names:
                if name in BUCKET_HASHES or (
                    name == "default_n_buckets" and rel not in BUCKET_SHUFFLE_ALLOWED
                ):
                    sites.append((rel, node.lineno, name))
            if (
                rel not in BUCKET_SHUFFLE_ALLOWED
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_groups"
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Attribute)
                and node.func.value.func.attr == "groupby"
                and node.func.value.args
                and isinstance(node.func.value.args[0], ast.Constant)
                and node.func.value.args[0].value in BUCKET_COLUMNS
            ):
                sites.append((rel, node.lineno, f"groupby({node.func.value.args[0].value!r}).map_groups"))
    return sorted(sites)


def test_bucket_shuffles_go_through_shuffle_by():
    sites = _bucket_shuffle_sites() + _cogroup_exchange_sites()
    assert sites == [], (
        "hash-bucket shuffles outside cogroup.shuffle_by:\n"
        + "\n".join(f"  {f}:{line} {what}" for f, line, what in sites)
    )


def test_page_kernels_have_no_per_row_path():
    sites = _per_row_sites(os.path.join(REPO, PAGES), PAGES_ENTRY)
    assert sites == [], (
        f"per-row Python in {PAGES}:\n"
        + "\n".join(f"  {fn}():{line} {what}" for fn, line, what in sites)
    )


def test_one_task_gathers_datasets(ray_session):
    """Dataset arguments arrive as one table (pandas and empty blocks
    included), an empty Dataset as None, other arguments unchanged."""
    import ray.data as rd

    from lasutility_ray.stages.cogroup import one_task

    arrow = rd.from_arrow([pa.table({"x": [1, 2]}), pa.table({"x": pa.array([], pa.int64())})])
    mixed = arrow.union(rd.from_pandas(pd.DataFrame({"x": [3]})))
    empty = rd.from_arrow(pa.table({"x": pa.array([], pa.int64())}))

    def fn(t, e, k):
        return sorted(t.column("x").to_pylist()), e, k

    assert one_task(fn, mixed, empty, {"k": 1}) == ([1, 2, 3], None, {"k": 1})


def _oracle(name: str) -> pd.DataFrame:
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in ("region", "nation", "customer", "supplier", "orders", "lineitem", "documents"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con.execute(e.oracle_sql()[name]).df()


def _train_quality():
    import ray.data as rd

    from lasutility_ray.stages.classifier import featurize_documents, train_quality_logreg

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    return train_quality_logreg(featurize_documents(docs), iters=5)


def _query(name):
    def run():
        import __ray_entry__ as e

        return e.queries()[name](SF).to_pandas()

    return run


# (module holding the gate, gate constant, run, oracle query or None)
GATES = {
    "tpch_q3": ("relational", "BROADCAST_LIMIT", _query("q_tpch_q3"), "q_tpch_q3"),
    "tpch_q5": ("relational", "BROADCAST_LIMIT", _query("q_tpch_q5"), "q_tpch_q5"),
    "collocations": ("collocations", "ONETASK_LIMIT", _query("q_collocations"), "q_collocations"),
    "train_quality": ("classifier", "ONETASK_LIMIT", _train_quality, None),
}


@pytest.mark.parametrize("case", sorted(GATES))
def test_forced_gate_equals_default(ray_session, monkeypatch, case):
    import importlib

    def canon(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)

    module, const, run, oracle = GATES[case]
    default = run()
    monkeypatch.setattr(importlib.import_module(f"lasutility_ray.stages.{module}"), const, 0)
    forced = run()
    if oracle is None:
        # weights (micro units), bias and per-iteration loss history
        assert forced == default
        return
    assert len(default) > 0
    pd.testing.assert_frame_equal(canon(forced), canon(default))
    pd.testing.assert_frame_equal(canon(default), canon(_oracle(oracle)), check_dtype=False)


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
