"""The compiled TIN kernels (``geom/_tinraster.c``) against the numpy
versions they port: the CSR grid index, the ``get_value`` probe and the
triangle-push ``rasterise_dem`` give array-equal output over uniform,
cm-snapped, grid-aligned (vertices and edges on cell corners) and
near-degenerate inputs, with and without locked cells, on rasters that
clip the triangles. Also: the fallback to numpy/Python when the
library cannot be built, the pinned bytes of ``rasterize_tile`` on the
benchmark's seed-7 tiles on both kernel paths, and that importing the
TIN modules builds nothing, and that the numpy probe's bounded
slices give the C probe's output. No Ray."""

import hashlib
import logging
import os
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasutility_ray.geom import ckernel
from lasutility_ray.geom import delaunay as D
from lasutility_ray.geom import triangulation as T
from lasutility_ray.geom.bounds import RasterBounds

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc to build the C kernels")

# the index grid: 100 x 100 m in 20 x 20 cells of 5 m
INDEX = RasterBounds(20, 20, 1000.0, 2000.0, 1100.0, 2100.0)
# rasters: the index grid, a finer one, and a window that clips triangles
RASTERS = {
    "index": INDEX,
    "fine": RasterBounds(100, 100, 1000.0, 2000.0, 1100.0, 2100.0),
    "window": RasterBounds(35, 27, 1020.0, 2030.0, 1074.0, 2100.0),
}


def _points(kind: str, n: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.uniform(1000.0, 1100.0, n)
    y = rng.uniform(2000.0, 2100.0, n)
    if kind == "cm":
        x, y = np.round(x, 2), np.round(y, 2)
    elif kind == "grid":
        # vertices on the fine raster's cell corners, so edges run along
        # cell boundaries and cell corners fall on shared edges
        x = 1000.0 + rng.integers(0, 100, n).astype(np.float64)
        y = 2000.0 + rng.integers(0, 100, n).astype(np.float64)
    elif kind == "near_degenerate":
        # short near-collinear runs of points: slivers along each run
        k = max(1, n // 30)
        sx, sy, ang = rng.uniform(1005, 1095, k), rng.uniform(2005, 2095, k), rng.uniform(0, 3, k)
        run, s = rng.integers(0, k, n), rng.uniform(-4, 4, n)
        x = sx[run] + s * np.cos(ang[run]) + rng.normal(0, 1e-9, n)
        y = sy[run] + s * np.sin(ang[run]) + rng.normal(0, 1e-9, n)
    x = np.clip(x, 1000.0, np.nextafter(1100.0, 0))
    y = np.clip(y, 2000.0, np.nextafter(2100.0, 0))
    z = rng.uniform(-5.0, 60.0, n)
    cls = rng.integers(0, 20, n).astype(np.uint8)
    if kind == "grid":  # ties in the nearest-vertex class distances
        z = np.round(z)
    return x, y, z, cls


def _surface(x, y, z, cls, index: RasterBounds = INDEX):
    tri = T.SurfaceTriangulation(index)
    tri.set_points(x, y, z, cls)
    try:
        tri.create()
    except ValueError:
        return None  # collinear: no triangulation exists
    return tri


def _lib():
    lib = ckernel.load()
    assert lib is not None, "the C kernels did not build on this host"
    return lib


def _rasters(b: RasterBounds, seed: int, locked: bool):
    rng = np.random.default_rng(seed)
    dem = np.full((b.n_rows, b.n_cols), np.nan, dtype=np.float32)
    cls = np.zeros((b.n_rows, b.n_cols), dtype=np.uint8)
    lock = None
    if locked:
        lock = rng.random((b.n_rows, b.n_cols)) < 0.3
        dem[lock] = 7.5  # a locked cell keeps what it held
        cls[lock] = 99
    return dem, cls, lock


def _probes(tri, seed: int, n_max: int = 2000):
    """Vertices, edge midpoints and points along edges (of at most
    ``n_max`` vertices and triangles), and points in and out of the
    hull, some beyond the grid."""
    rng = np.random.default_rng(seed)
    tx, ty, _ = tri.triangles_xyz()
    pick = rng.permutation(len(tx))[:n_max]
    tx, ty = tx[pick], ty[pick]
    a = rng.random((len(tx), 1))
    ex = np.concatenate([(tx + np.roll(tx, 1, axis=1)) / 2, tx + a * (np.roll(tx, 1, axis=1) - tx)])
    ey = np.concatenate([(ty + np.roll(ty, 1, axis=1)) / 2, ty + a * (np.roll(ty, 1, axis=1) - ty)])
    vx = rng.permutation(len(tri._x))[:n_max]
    xs = np.concatenate([tri._x[vx], ex.ravel(), rng.uniform(990.0, 1110.0, 200)])
    ys = np.concatenate([tri._y[vx], ey.ravel(), rng.uniform(1990.0, 2110.0, 200)])
    return xs, ys


def _assert_kernels_equal(tri, seed: int):
    lib = _lib()
    c_idx = T._grid_index_c(lib, tri)
    assert c_idx is not None
    for c, n in zip(c_idx, T._grid_index_np(tri)):
        assert c.dtype == n.dtype and np.array_equal(c, n)

    xs, ys = _probes(tri, seed)
    c = T._probe_c(lib, tri, xs, ys)
    assert c is not None
    with np.errstate(divide="ignore", invalid="ignore"):
        n = T._probe_np(tri, xs, ys)
    assert np.array_equal(c[0], n[0], equal_nan=True), "heights"
    assert np.array_equal(c[1], n[1]), "classes"

    for b in RASTERS.values():
        for locked in (False, True):
            dem_c, cls_c, lock = _rasters(b, seed, locked)
            dem_n, cls_n, _ = _rasters(b, seed, locked)
            assert T._rasterise_c(lib, tri, b, dem_c, lock, cls_c) is True
            T._rasterise_np(tri, b, dem_n, lock, cls_n)
            assert dem_c.tobytes() == dem_n.tobytes(), "dem"
            assert np.array_equal(cls_c, cls_n), "classification raster"


KINDS = ["uniform", "cm", "grid", "near_degenerate"]


@needs_gcc
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.integers(min_value=3, max_value=1500),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_c_kernels_equal_numpy(kind, n, seed):
    tri = _surface(*_points(kind, n, seed))
    if tri is not None:
        _assert_kernels_equal(tri, seed)


@needs_gcc
@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12)),
        min_size=3,
        max_size=80,
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_c_kernels_equal_numpy_on_cell_corners(pts, seed):
    """Small sets of vertices on cell corners of the index and fine
    grids (every 5 m and 1 m): exact duplicates, shared edges along
    cell boundaries, cells claimed by several triangles."""
    xy = np.asarray(pts, dtype=np.float64)
    rng = np.random.default_rng(seed)
    step = float(rng.choice([1.0, 5.0]))
    x, y = 1000.0 + step * xy[:, 0], 2000.0 + step * xy[:, 1]
    z = np.round(rng.uniform(0.0, 10.0, len(x)))
    cls = rng.integers(0, 4, len(x)).astype(np.uint8)
    tri = _surface(x, y, z, cls)
    if tri is not None:
        _assert_kernels_equal(tri, seed)


@needs_gcc
@pytest.mark.parametrize("kind", KINDS)
def test_c_kernels_equal_numpy_large(kind):
    """Tile-sized inputs, indexed at the fine grid's 100 x 100 cells as
    a 1 km tile is at 10 m."""
    _assert_kernels_equal(_surface(*_points(kind, 20_000, 11), RASTERS["fine"]), 11)


@needs_gcc
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.integers(min_value=3, max_value=400),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=64),
)
def test_sliced_numpy_probe_equals_c(kind, n, seed, pairs):
    """The numpy probe expands at most ``PROBE_PAIRS`` (point,
    candidate) pairs at once; with a tiny bound (points with more
    candidates than the bound go alone) it still equals the C probe."""
    tri = _surface(*_points(kind, n, seed))
    if tri is None:
        return
    xs, ys = _probes(tri, seed, n_max=300)
    c = T._probe_c(_lib(), tri, xs, ys)
    with mock.patch.object(T, "PROBE_PAIRS", pairs), np.errstate(divide="ignore", invalid="ignore"):
        h, cls = T._probe_np(tri, xs, ys)
    assert np.array_equal(c[0], h, equal_nan=True), "heights"
    assert np.array_equal(c[1], cls), "classes"


@needs_gcc
def test_grid_cell_corners_claimed_by_several_triangles():
    """The grid-aligned inputs do exercise last-triangle-wins: some
    cell corners lie inside more than one triangle."""
    tri = _surface(*_points("grid", 3000, 5))
    b = RASTERS["fine"]
    cx, cy = np.meshgrid(b.min_x + np.arange(b.n_cols) * b.cell_width,
                         b.min_y + np.arange(b.n_rows) * b.cell_height)
    tx, ty, _ = tri.triangles_xyz()
    hits = np.zeros(cx.shape, dtype=np.int64)
    for k in range(len(tx)):
        (x0, x1, x2), (y0, y1, y2) = tx[k], ty[k]
        det = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2)
        l1 = ((y1 - y2) * (cx - x2) + (x2 - x1) * (cy - y2)) / det
        l2 = ((y2 - y0) * (cx - x2) + (x0 - x2) * (cy - y2)) / det
        hits += (l1 >= 0) & (l2 >= 0) & (1.0 - l1 - l2 >= 0)
    assert (hits > 1).sum() > 100


def _run_all(x, y, z, cls, b):
    tri = T.SurfaceTriangulation(INDEX)
    tri.set_points(x, y, z, cls)
    tri.create()
    dem = np.full((b.n_rows, b.n_cols), np.nan, dtype=np.float32)
    cr = np.zeros(dem.shape, dtype=np.uint8)
    tri.rasterise_dem(b, dem, classification_raster=cr)
    with np.errstate(divide="ignore", invalid="ignore"):
        h, c = tri.get_value(*_probes(tri, 0))
    return tri._tris, tri._cell_starts, tri._cell_tris, dem, cr, h, c


@needs_gcc
def test_fallback_when_the_build_fails(monkeypatch, caplog):
    x, y, z, cls = _points("grid", 800, 3)
    b = RASTERS["fine"]
    want = _run_all(x, y, z, cls, b)
    assert D.KERNEL == "c"

    def no_compiler(cache_dir):
        raise FileNotFoundError("gcc")

    monkeypatch.setattr(ckernel, "_lib", None)
    monkeypatch.setattr(ckernel, "_build", no_compiler)
    with caplog.at_level(logging.WARNING, logger=ckernel.__name__):
        got = [_run_all(x, y, z, cls, b) for _ in range(3)]
    assert D.KERNEL == "python"
    assert ckernel.load() is None
    assert len([r for r in caplog.records if r.name == ckernel.__name__]) == 1
    for g in got:
        for a, w in zip(g, want):
            assert np.array_equal(a, w, equal_nan=True)


def test_rasterise_falls_back_for_rasters_c_cannot_write():
    """A float64 or non-contiguous DEM is filled by the numpy loop, the
    same cells as a float32 one."""
    tri = _surface(*_points("uniform", 500, 2))
    b = RASTERS["fine"]
    want = np.full((b.n_rows, b.n_cols), np.nan, dtype=np.float32)
    tri.rasterise_dem(b, want)
    wide = np.full(want.shape, np.nan)
    tri.rasterise_dem(b, wide)
    assert np.array_equal(wide, want.astype(np.float64), equal_nan=True)
    big = np.full((b.n_cols, b.n_rows), np.nan, dtype=np.float32).T
    tri.rasterise_dem(b, big)
    assert big.tobytes("C") == want.tobytes()


def test_inputs_of_unequal_length_are_refused():
    x, y, z, cls = _points("uniform", 50, 4)
    with pytest.raises(ValueError, match="one length"):
        T.SurfaceTriangulation(INDEX).set_points(x, y, z[:-1], cls)
    tri = _surface(x, y, z, cls)
    with pytest.raises((ValueError, IndexError)):  # as numpy's broadcasting does
        tri.get_value(x, y[:-1])


# sha256 over every rasterize_tile output row (dem and classification
# bytes included) of the benchmark generator's seed-7 tiles, tile keys
# ascending; recorded before the C kernels replaced the numpy ones
TILE_PINS = {
    "uniform": "2d1632be59b61e6bb5ca31fda9811d5d7032cd0fa1ad46d6ac674cbf74c2cf8a",
    "hot_tile": "8f9716ef295e01e3559a66ae768e780a8c46ecb61ecb9183eee433389dd936d8",
}


def _tile_digest(table) -> str:
    from lasutility_ray.stages.tiling import tile_key_to_name
    from lasutility_ray.stages.tin import rasterize_tile

    df = table.to_pandas()
    h = hashlib.sha256()
    for key in sorted(df["tile_key"].unique()):
        g = df[df["tile_key"] == key].assign(tile_id=tile_key_to_name(key))
        for col, v in rasterize_tile(g).iloc[0].items():
            h.update(col.encode() + b"=" + (v if isinstance(v, bytes) else repr(v).encode()) + b";")
    return h.hexdigest()


@pytest.mark.parametrize("c_kernels", [pytest.param(True, marks=needs_gcc), False])
@pytest.mark.parametrize("workload", sorted(TILE_PINS))
def test_rasterize_tile_bytes_pinned(monkeypatch, workload, c_kernels):
    sys.path.insert(0, REPO)
    try:
        from perfbench import gen
        from perfbench.workloads import N_HOT, N_UNIFORM
    finally:
        sys.path.remove(REPO)
    if workload == "uniform":
        table = gen.block_points(N_UNIFORM, 7)
    else:
        table = gen.block_points(N_HOT, 7, gen.HOT_SHARE)
    if not c_kernels:
        monkeypatch.setattr(ckernel, "_lib", False)
    assert _tile_digest(table) == TILE_PINS[workload]
    assert D.KERNEL == ("c" if c_kernels else "python")


def test_importing_the_tin_modules_builds_nothing():
    code = (
        "import subprocess\n"
        "calls = []\n"
        "run, popen = subprocess.run, subprocess.Popen.__init__\n"
        "subprocess.run = lambda *a, **k: calls.append(a) or run(*a, **k)\n"
        "def counted(self, *a, **k):\n"
        "    calls.append(a)\n"
        "    return popen(self, *a, **k)\n"
        "subprocess.Popen.__init__ = counted\n"
        "import lasutility_ray.geom.triangulation, lasutility_ray.stages.tin, "
        "lasutility_ray.state.manifest\n"
        "print(len(calls))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0", out.stdout + out.stderr
