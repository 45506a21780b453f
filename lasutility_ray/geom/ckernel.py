"""The compiled tile kernels: one shared library built from the C
sources beside this module — ``_delaunator.c`` (the Delaunay sweep of
``delaunay.py``) and ``_tinraster.c`` (the grid index, point probe and
DEM rasteriser of ``triangulation.py``).

The library is compiled with the system ``gcc`` on the first kernel
call, never at import, and cached per host under the user cache dir,
keyed by the sources and the flags. Where it cannot be built or
loaded, ``load`` logs one warning per process and returns None, and
every kernel runs its numpy/Python version instead.
"""

from __future__ import annotations

import ctypes
import fcntl
import hashlib
import logging
import os
import subprocess

import numpy as np

log = logging.getLogger(__name__)

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRCS = tuple(os.path.join(_HERE, s) for s in ("_delaunator.c", "_tinraster.c"))
_CC = ("gcc", "-O2", "-fPIC", "-shared", "-ffp-contract=off")
_lib = None  # the loaded library; False once building or loading failed


def _build(cache_dir: str) -> str:
    """Compile the sources into ``cache_dir`` unless a build of the
    same sources and flags is there; return the library's path.
    Concurrent builders serialize on a lock of the directory, and the
    library appears only complete (``os.replace``)."""
    h = hashlib.sha256("\0".join(_CC).encode())
    for src in _SRCS:
        with open(src, "rb") as f:
            h.update(b"\0" + f.read())
    so = os.path.join(cache_dir, f"tilekernels-{h.hexdigest()[:16]}.so")
    if os.path.exists(so):
        return so
    os.makedirs(cache_dir, exist_ok=True)
    fd = os.open(cache_dir, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        if not os.path.exists(so):
            tmp = f"{so}.tmp"  # one writer at a time: the lock is held
            try:
                subprocess.run(
                    [*_CC, "-o", tmp, *_SRCS, "-lm"],
                    check=True, capture_output=True, text=True,
                )
                os.replace(tmp, so)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
    finally:
        os.close(fd)  # releases the lock
    return so


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "lasutility_ray")


def _declare(lib) -> None:
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    f32 = np.ctypeslib.ndpointer(np.float32, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    u8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    i, d = ctypes.c_int64, ctypes.c_double
    u8_or_null = ctypes.c_void_p  # an optional raster: address or None
    lib.delaunator_sweep.restype = ctypes.c_int
    lib.delaunator_sweep.argtypes = [
        i, f64, f64, i64, i, i, i, d, d, i, i, i64, i64, i64, i64, i64, i64, i64, i64,
    ]
    grid = [i, i, f64]  # n_rows, n_cols, (min_x, min_y, max_x, max_y, cw, ch)
    lib.tri_grid_count.restype = i
    lib.tri_grid_count.argtypes = [i, i64, f64, f64, *grid, i64]
    lib.tri_grid_fill.restype = None
    lib.tri_grid_fill.argtypes = [i, i64, f64, f64, *grid, i64, i64]
    lib.tri_probe.restype = ctypes.c_int
    lib.tri_probe.argtypes = [
        i, f64, f64, i64, f64, f64, f64, u8, *grid, i, i64, i64, f64, u8,
    ]
    lib.tri_rasterise.restype = ctypes.c_int
    lib.tri_rasterise.argtypes = [
        i, i64, f64, f64, f64, u8, *grid, d, d, u8_or_null, f32, u8_or_null,
    ]


def load():
    """The library with its entry points typed, built and loaded once
    per process; None (after one logged warning) where that fails."""
    global _lib
    if _lib is None:
        try:
            lib = ctypes.CDLL(_build(_cache_dir()))
            _declare(lib)
        except (OSError, AttributeError, subprocess.SubprocessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            log.warning("compiled tile kernels unavailable, using numpy/Python: %s", detail)
            _lib = False
        else:
            _lib = lib
    return _lib or None
