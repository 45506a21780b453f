"""The compiled Delaunay sweep (``geom/_delaunator.c``) against the
Python sweep it ports: array-equal ``triangles``, ``halfedges`` and
``hull`` over uniform, cm-snapped, duplicate-bearing, near-collinear
and co-circular integer-grid inputs; the fallback to the Python sweep
when the build fails; the per-host build cache of the compiled tile
kernels (``geom/ckernel.py``), which hold this sweep and the TIN
raster kernels in one library. No Ray."""

import ctypes
import logging
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasutility_ray.geom import ckernel
from lasutility_ray.geom import delaunay as D

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc to build the C sweep")


def _points(kind: str, n: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1000, n)
    y = rng.uniform(0, 1000, n)
    if kind == "cm":
        x, y = np.round(x, 2), np.round(y, 2)
    elif kind == "duplicates":
        pick = rng.integers(0, n, n // 3 + 1)
        x, y = np.concatenate([x, x[pick]]), np.concatenate([y, y[pick]])
    elif kind == "near_collinear":
        y = 0.5 * x + 3.0 + rng.normal(0, 1e-9, n)
        y[: max(1, n // 50)] += 1.0  # a few points off the line
    elif kind == "int_grid":
        side = int(np.ceil(np.sqrt(n)))
        gx, gy = np.meshgrid(np.arange(side, dtype=np.float64), np.arange(side, dtype=np.float64))
        keep = rng.permutation(side * side)[:n]
        x, y = gx.ravel()[keep], gy.ravel()[keep]
    return x, y


def _both(x, y):
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    seed = D._seed(x, y)
    fn = D._load_sweep()
    assert fn is not None, "the C sweep did not build on this host"
    return D._sweep_c(fn, x, y, *seed), D._sweep_py(x, y, *seed)


def _assert_equal(c, p):
    assert c is not None
    for name, a, b in zip(("triangles", "halfedges", "hull"), c, p):
        assert np.array_equal(a, b), name


@needs_gcc
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["uniform", "cm", "duplicates", "near_collinear", "int_grid"]),
    st.integers(min_value=3, max_value=3000),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_c_sweep_equals_python_sweep(kind, n, seed):
    x, y = _points(kind, n, seed)
    try:
        c, p = _both(x, y)
    except ValueError:
        # a collinear seed raises before either sweep runs
        with pytest.raises(ValueError):
            D.Delaunator(x, y)
        return
    _assert_equal(c, p)


@needs_gcc
@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20)
        ),
        min_size=3,
        max_size=120,
    )
)
def test_c_sweep_equals_python_sweep_small_int_sets(pts):
    """Small integer point sets: many exact duplicates and co-circular
    quadruples, where the in-circle tests tie."""
    xy = np.asarray(pts, dtype=np.float64)
    try:
        c, p = _both(xy[:, 0], xy[:, 1])
    except ValueError:
        return
    _assert_equal(c, p)


@needs_gcc
@pytest.mark.parametrize("n", [24_000, 100_000])
def test_c_sweep_equals_python_sweep_large(n):
    for kind in ("uniform", "cm"):
        _assert_equal(*_both(*_points(kind, n, n)))


def _triangle_count(x, y, monkeypatch, c_sweep: bool) -> int:
    with monkeypatch.context() as m:
        if not c_sweep:
            m.setattr(D, "_load_sweep", lambda: None)
        d = D.Delaunator(x, y)
        assert D.KERNEL == ("c" if c_sweep else "python")
    return len(d.triangles) // 3


@pytest.mark.parametrize("c_sweep", [pytest.param(True, marks=needs_gcc), False])
def test_duplicate_of_seed_point_triangulates(monkeypatch, c_sweep):
    """An exact copy of the seed point must not become the second
    seed (at distance 0 every circumradius is infinite and the input
    was reported collinear)."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 100, 2000)
    y = rng.uniform(0, 100, 2000)
    i0 = D._seed(x, y)[0]
    assert _triangle_count(x, y, monkeypatch, c_sweep) == 3974
    appended = np.append(x, x[i0]), np.append(y, y[i0])
    prepended = np.insert(x, 0, x[i0]), np.insert(y, 0, y[i0])
    for xx, yy in (appended, prepended):
        assert _triangle_count(xx, yy, monkeypatch, c_sweep) == 3974


@needs_gcc
def test_fallback_when_the_build_fails(monkeypatch, caplog):
    x, y = _points("uniform", 500, 1)
    want = D.Delaunator(x, y)
    assert D.KERNEL == "c"

    def no_compiler(cache_dir):
        raise FileNotFoundError("gcc")

    monkeypatch.setattr(ckernel, "_lib", None)
    monkeypatch.setattr(ckernel, "_build", no_compiler)
    with caplog.at_level(logging.WARNING, logger=ckernel.__name__):
        got = [D.Delaunator(x, y) for _ in range(3)]
    assert D.KERNEL == "python"
    assert len([r for r in caplog.records if r.name == ckernel.__name__]) == 1
    for g in got:
        _assert_equal((g.triangles, g.halfedges, g.hull), (want.triangles, want.halfedges, want.hull))


@needs_gcc
def test_build_is_cached(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    so = ckernel._build(str(cache))
    mtime = os.stat(so).st_mtime_ns
    assert ckernel._build(str(cache)) == so
    assert os.stat(so).st_mtime_ns == mtime
    assert os.listdir(cache) == [os.path.basename(so)]
    ctypes.CDLL(so).tri_rasterise  # the sweep and the raster kernels: one library

    # an edit to either source is a new library
    built = {so}
    for i, src in enumerate(ckernel._SRCS):
        edited = shutil.copy(src, tmp_path / os.path.basename(src))
        with open(edited, "a") as f:
            f.write("\n/* edited */\n")
        srcs = list(ckernel._SRCS)
        srcs[i] = str(edited)
        with monkeypatch.context() as m:
            m.setattr(ckernel, "_SRCS", tuple(srcs))
            built.add(ckernel._build(str(cache)))
    assert len(built) == 3
    assert sorted(os.listdir(cache)) == sorted(os.path.basename(p) for p in built)


@needs_gcc
def test_concurrent_builds_leave_one_library(tmp_path):
    code = "import sys; from lasutility_ray.geom.ckernel import _build; print(_build(sys.argv[1]))"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code, str(tmp_path)],
            cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [e for _, e in outs]
    paths = {o.strip() for o, _ in outs}
    assert len(paths) == 1
    so = paths.pop()
    assert os.listdir(tmp_path) == [os.path.basename(so)]
    lib = ctypes.CDLL(so)  # a complete, loadable library of every kernel
    for name in ("delaunator_sweep", "tri_grid_count", "tri_grid_fill", "tri_probe", "tri_rasterise"):
        getattr(lib, name)
