"""Delaunay triangulation — from-scratch port of the Delaunator
sweep-circle algorithm (Mapbox Delaunator, ISC-licensed public
algorithm; also the algorithm behind the reference's DelaunatorSharp
dependency, ``LasUtility/DEM/Triangulation.cs:68``).

Delaunay triangulations of points in general position are unique, so
any correct implementation yields the same triangle *set* as the
reference; conformance tests compare sets and interpolated values,
never array order (see SURVEY.md §7.5).

O(n log n); runs per tile inside ``map_groups``, never on the driver.
Seed selection, the circumcenter and the argsort are numpy. The sweep
itself runs in C (``_delaunator.c``, a line-for-line port of
``_sweep_py`` whose output is bit-identical to it), part of the
compiled tile kernels (``ckernel.py``: built on the first kernel call,
cached per host); where they cannot be built or loaded, the Python
sweep runs instead.
``KERNEL`` records which sweep produced the last triangulation.

On one vCPU, a 1.31M-point tile (perfbench's generator, seed 7) takes
1.4 s to triangulate with the C sweep and 35 s with the Python one.
"""

from __future__ import annotations

import math

import numpy as np

from . import ckernel

EPSILON = 2.0**-52
EDGE_STACK_SIZE = 512

# "c" or "python": the sweep that produced the last Delaunator's output
KERNEL: str | None = None


def _orient2d(ax, ay, bx, by, cx, cy):
    """Robust-ish orientation: > 0 if (a,b,c) clockwise in this
    formulation (matches Delaunator's orient())."""
    return (by - ay) * (cx - bx) - (bx - ax) * (cy - by)


def _circumradius2_vec(ax, ay, bx, by, cx, cy):
    """Vectorized squared circumradius over candidate arrays cx, cy."""
    dx = bx - ax
    dy = by - ay
    ex = cx - ax
    ey = cy - ay
    bl = dx * dx + dy * dy
    cl = ex * ex + ey * ey
    d = dx * ey - dy * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 0.5 / d
        px = (ey * bl - dy * cl) * d
        py = (dx * cl - ex * bl) * d
        out = px * px + py * py
    return np.where(np.isfinite(out), out, np.inf)


def _circumcenter(ax, ay, bx, by, cx, cy):
    dx = bx - ax
    dy = by - ay
    ex = cx - ax
    ey = cy - ay
    bl = dx * dx + dy * dy
    cl = ex * ex + ey * ey
    d = 0.5 / (dx * ey - dy * ex)
    return ax + (ey * bl - dy * cl) * d, ay + (dx * cl - ex * bl) * d


def _in_circle(ax, ay, bx, by, cx, cy, px, py):
    dx = ax - px
    dy = ay - py
    ex = bx - px
    ey = by - py
    fx = cx - px
    fy = cy - py
    ap = dx * dx + dy * dy
    bp = ex * ex + ey * ey
    cp = fx * fx + fy * fy
    return (
        dx * (ey * cp - bp * fy)
        - dy * (ex * cp - bp * fx)
        + ap * (ex * fy - ey * fx)
    ) < 0


def _hash_size(n: int) -> int:
    return int(math.ceil(math.sqrt(n)))


def _max_tri_len(n: int) -> int:
    return max(2 * n - 5, 0) * 3


def _seed(xnp: np.ndarray, ynp: np.ndarray):
    """The seed triangle (i0, i1, i2), its circumcenter and the sweep
    order: point ids sorted by distance from that center."""
    min_x, min_y = xnp.min(), ynp.min()
    max_x, max_y = xnp.max(), ynp.max()
    cx, cy = (min_x + max_x) / 2, (min_y + max_y) / 2

    # pick seed point close to centroid
    d2 = (xnp - cx) ** 2 + (ynp - cy) ** 2
    i0 = int(np.argmin(d2))
    i0x, i0y = float(xnp[i0]), float(ynp[i0])

    # point closest to seed, at a positive distance: an exact
    # duplicate of the seed would make every circumradius infinite
    d2 = (xnp - i0x) ** 2 + (ynp - i0y) ** 2
    d2[d2 <= 0] = np.inf
    i1 = int(np.argmin(d2))
    i1x, i1y = float(xnp[i1]), float(ynp[i1])

    # third point: smallest circumcircle with first two
    # (vectorized: the python loop was the O(n) cold-start cost)
    r2 = _circumradius2_vec(i0x, i0y, i1x, i1y, xnp, ynp)
    r2[i0] = np.inf
    r2[i1] = np.inf
    i2 = int(np.argmin(r2))
    min_radius = float(r2[i2])
    if not math.isfinite(min_radius):
        raise ValueError("collinear input: no Delaunay triangulation exists")
    i2x, i2y = float(xnp[i2]), float(ynp[i2])

    if _orient2d(i0x, i0y, i1x, i1y, i2x, i2y) < 0:
        i1, i2 = i2, i1
        i1x, i2x = i2x, i1x
        i1y, i2y = i2y, i1y

    ccx, ccy = _circumcenter(i0x, i0y, i1x, i1y, i2x, i2y)
    dists = (xnp - ccx) ** 2 + (ynp - ccy) ** 2
    ids = np.argsort(dists, kind="stable")
    return i0, i1, i2, ccx, ccy, ids


def _load_sweep():
    """The C sweep from the compiled tile kernels; None where they
    could not be built or loaded."""
    lib = ckernel.load()
    return None if lib is None else lib.delaunator_sweep


def _sweep_c(fn, xnp, ynp, i0, i1, i2, ccx, ccy, ids):
    """Run the C sweep; None where it stops early (a case in which
    the Python sweep raises), so the caller reruns that one."""
    n = len(xnp)
    hs = _hash_size(n)
    cap = _max_tri_len(n)
    triangles = np.empty(cap, dtype=np.int64)
    halfedges = np.empty(cap, dtype=np.int64)
    hull_prev = np.zeros(n, dtype=np.int64)
    hull_next = np.zeros(n, dtype=np.int64)
    hull_tri = np.zeros(n, dtype=np.int64)
    hull_hash = np.full(hs, -1, dtype=np.int64)
    hull = np.empty(n, dtype=np.int64)
    out = np.zeros(2, dtype=np.int64)
    rc = fn(
        n, xnp, ynp, np.ascontiguousarray(ids, dtype=np.int64), i0, i1, i2, ccx, ccy,
        hs, cap, triangles, halfedges, hull_prev, hull_next, hull_tri, hull_hash,
        hull, out,
    )
    if rc != 0:
        return None
    tlen, hull_size = int(out[0]), int(out[1])
    return triangles[:tlen], halfedges[:tlen], hull[:hull_size]


def _sweep_py(xnp, ynp, i0, i1, i2, ccx, ccy, ids):
    """The sweep in Python: the oracle the C port is tested against,
    and the fallback where the C one cannot be built."""
    # ---- hot-loop locals: every list/scalar the insertion and
    # legalization loops touch is bound locally and the helper
    # calls (_add_triangle/_link/_legalize/_hash_key/_orient2d/
    # _in_circle) are inlined — the arithmetic is literally the
    # same expressions in the same order, so the output is
    # bit-identical; only the Python call overhead is gone
    # (golden tests pin the exact triangle sets; _delaunator.c is
    # the same loop in C).
    x = xnp.tolist()
    y = ynp.tolist()
    ids = ids.tolist()
    n = len(x)
    hs = _hash_size(n)
    triangles = [0] * _max_tri_len(n)
    halfedges = [0] * len(triangles)
    hull_prev = [0] * n
    hull_next = [0] * n
    hull_tri = [0] * n
    hull_hash = [-1] * hs
    stack = [0] * EDGE_STACK_SIZE
    stack_cap = EDGE_STACK_SIZE
    floor = math.floor
    tlen = 0
    hull_start = i0

    def hash_key(px, py):
        dx = px - ccx
        dy = py - ccy
        p = dx / (abs(dx) + abs(dy)) if (dx or dy) else 0.0
        a = (3 - p) / 4 if dy > 0 else (1 + p) / 4
        return int(floor(a * hs)) % hs

    def legalize(a):
        i = 0
        ar = 0
        while True:
            b = halfedges[a]
            a0 = a - a % 3
            ar = a0 + (a + 2) % 3

            if b == -1:
                if i == 0:
                    break
                i -= 1
                a = stack[i]
                continue

            b0 = b - b % 3
            al = a0 + (a + 1) % 3
            bl = b0 + (b + 2) % 3

            p0 = triangles[ar]
            pr = triangles[a]
            pl = triangles[al]
            p1 = triangles[bl]

            # inlined _in_circle (identical expression order)
            px_, py_ = x[p1], y[p1]
            dx = x[p0] - px_
            dy = y[p0] - py_
            ex = x[pr] - px_
            ey = y[pr] - py_
            fx = x[pl] - px_
            fy = y[pl] - py_
            ap = dx * dx + dy * dy
            bp = ex * ex + ey * ey
            cp = fx * fx + fy * fy
            illegal = (
                dx * (ey * cp - bp * fy)
                - dy * (ex * cp - bp * fx)
                + ap * (ex * fy - ey * fx)
            ) < 0

            if illegal:
                triangles[a] = p1
                triangles[b] = p0

                hbl = halfedges[bl]
                if hbl == -1:
                    # edge is on convex hull: fix hull_tri reference
                    e = hull_start
                    while True:
                        if hull_tri[e] == bl:
                            hull_tri[e] = a
                            break
                        e = hull_prev[e]
                        if e == hull_start:
                            break
                halfedges[a] = hbl
                if hbl != -1:
                    halfedges[hbl] = a
                har = halfedges[ar]
                halfedges[b] = har
                if har != -1:
                    halfedges[har] = b
                halfedges[ar] = bl
                halfedges[bl] = ar

                br = b0 + (b + 1) % 3
                if i < stack_cap:
                    stack[i] = br
                    i += 1
            else:
                if i == 0:
                    break
                i -= 1
                a = stack[i]

        return ar

    hull_size = 3
    hull_next[i0] = hull_prev[i2] = i1
    hull_next[i1] = hull_prev[i0] = i2
    hull_next[i2] = hull_prev[i1] = i0
    hull_tri[i0] = 0
    hull_tri[i1] = 1
    hull_tri[i2] = 2

    hull_hash[hash_key(x[i0], y[i0])] = i0
    hull_hash[hash_key(x[i1], y[i1])] = i1
    hull_hash[hash_key(x[i2], y[i2])] = i2

    # first triangle (inlined _add_triangle with no neighbors)
    triangles[0] = i0
    triangles[1] = i1
    triangles[2] = i2
    halfedges[0] = halfedges[1] = halfedges[2] = -1
    tlen = 3

    xp = yp = math.nan
    for k in range(n):
        i = ids[k]
        xi = x[i]
        yi = y[i]

        # skip near-duplicate points
        if k > 0 and abs(xi - xp) <= EPSILON and abs(yi - yp) <= EPSILON:
            continue
        xp = xi
        yp = yi

        if i == i0 or i == i1 or i == i2:
            continue

        # find a visible edge on the convex hull using edge hash
        start = 0
        key = hash_key(xi, yi)
        for j in range(hs):
            start = hull_hash[(key + j) % hs]
            if start != -1 and start != hull_next[start]:
                break

        start = hull_prev[start]
        e = start
        while True:
            q = hull_next[e]
            if (y[e] - yi) * (x[q] - x[e]) - (x[e] - xi) * (y[q] - y[e]) < 0:
                break
            e = q
            if e == start:
                e = -1
                break
        if e == -1:
            continue  # likely a near-duplicate point

        # first triangle from the point (inlined _add_triangle)
        t = tlen
        q = hull_next[e]
        c = hull_tri[e]
        triangles[t] = e
        triangles[t + 1] = i
        triangles[t + 2] = q
        halfedges[t] = -1
        halfedges[t + 1] = -1
        halfedges[t + 2] = c
        if c != -1:
            halfedges[c] = t + 2
        tlen += 3

        hull_tri[i] = legalize(t + 2)
        hull_tri[e] = t
        hull_size += 1

        # walk forward, adding triangles
        nn = hull_next[e]
        while True:
            q = hull_next[nn]
            if not (
                (y[nn] - yi) * (x[q] - x[nn]) - (x[nn] - xi) * (y[q] - y[nn]) < 0
            ):
                break
            t = tlen
            a_ = hull_tri[i]
            c = hull_tri[nn]
            triangles[t] = nn
            triangles[t + 1] = i
            triangles[t + 2] = q
            halfedges[t] = a_
            if a_ != -1:
                halfedges[a_] = t
            halfedges[t + 1] = -1
            halfedges[t + 2] = c
            if c != -1:
                halfedges[c] = t + 2
            tlen += 3
            hull_tri[i] = legalize(t + 2)
            hull_next[nn] = nn  # mark removed
            hull_size -= 1
            nn = q

        # walk backward
        if e == start:
            while True:
                q = hull_prev[e]
                if not (
                    (y[q] - yi) * (x[e] - x[q]) - (x[q] - xi) * (y[e] - y[q]) < 0
                ):
                    break
                t = tlen
                b_ = hull_tri[e]
                c = hull_tri[q]
                triangles[t] = q
                triangles[t + 1] = i
                triangles[t + 2] = e
                halfedges[t] = -1
                halfedges[t + 1] = b_
                if b_ != -1:
                    halfedges[b_] = t + 1
                halfedges[t + 2] = c
                if c != -1:
                    halfedges[c] = t + 2
                tlen += 3
                legalize(t + 2)
                hull_tri[q] = t
                hull_next[e] = e  # mark removed
                hull_size -= 1
                e = q

        hull_start = e
        hull_prev[i] = e
        hull_next[e] = i
        hull_prev[nn] = i
        hull_next[i] = nn

        hull_hash[hash_key(xi, yi)] = i
        hull_hash[hash_key(x[e], y[e])] = e

    hull = np.zeros(hull_size, dtype=np.int64)
    e = hull_start
    for i in range(hull_size):
        hull[i] = e
        e = hull_next[e]
    return (
        np.array(triangles[:tlen], dtype=np.int64),
        np.array(halfedges[:tlen], dtype=np.int64),
        hull,
    )

class Delaunator:
    """Triangulate 2D points. ``triangles`` is a flat int array of
    vertex indices, 3 per triangle (same layout as the reference's
    ``_delaunator.Triangles``, ``Triangulation.cs:78``); ``halfedges``
    pairs each half-edge with its twin (-1 on the hull); ``hull`` is
    the convex hull's vertex ids."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        global KERNEL
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("x and y must be 1-D arrays of equal length")
        if len(x) < 3:
            raise ValueError("needs at least 3 points")
        seed = _seed(x, y)
        fn = _load_sweep()
        out = _sweep_c(fn, x, y, *seed) if fn is not None else None
        KERNEL = "python" if out is None else "c"
        if out is None:
            out = _sweep_py(x, y, *seed)
        self.triangles, self.halfedges, self.hull = out


def triangulate(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Convenience: points -> (n_tri, 3) int64 vertex-index array."""
    d = Delaunator(x, y)
    return d.triangles.reshape(-1, 3)
