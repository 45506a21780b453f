/* Delaunator sweep loop: a line-for-line port of the insertion,
 * legalize and hull-walk loop in ``geom/delaunay.py::_sweep_py``.
 *
 * Every floating-point expression is the Python one, in the same
 * order, so under IEEE double arithmetic without contraction
 * (``-ffp-contract=off``, no ``-ffast-math``) the output is
 * bit-identical to the Python port. Seed selection, the circumcenter
 * and the argsort stay in numpy; this file only runs the sweep.
 *
 * Returns 0 on success. A nonzero return means the sweep met a case
 * where the Python loop would raise (a non-finite hash angle, a
 * triangle buffer overflow); the caller then reruns the Python loop,
 * which reproduces that behaviour exactly.
 */

#include <math.h>
#include <stdint.h>

#define EPSILON 0x1p-52 /* delaunay.py EPSILON, 2.0**-52 */
#define EDGE_STACK_SIZE 512

typedef struct {
    const double *x, *y;
    int64_t *triangles, *halfedges, *hull_prev, *hull_tri;
    int64_t hull_start;
    int64_t stack[EDGE_STACK_SIZE];
} sweep_t;

/* Python's int(floor(a * hs)) % hs; -1 where Python would raise */
static int64_t hash_key(double px, double py, double ccx, double ccy, int64_t hs)
{
    double dx = px - ccx;
    double dy = py - ccy;
    double p = (dx != 0.0 || dy != 0.0) ? dx / (fabs(dx) + fabs(dy)) : 0.0;
    double a = dy > 0 ? (3 - p) / 4 : (1 + p) / 4;
    double v = floor(a * (double)hs);
    if (!isfinite(v)) return -1;
    int64_t k = (int64_t)v % hs;
    return k < 0 ? k + hs : k;
}

static int64_t legalize(sweep_t *s, int64_t a)
{
    const double *x = s->x, *y = s->y;
    int64_t *triangles = s->triangles, *halfedges = s->halfedges;
    int64_t *hull_prev = s->hull_prev, *hull_tri = s->hull_tri;
    int64_t *stack = s->stack;
    int64_t i = 0;
    int64_t ar = 0;
    for (;;) {
        int64_t b = halfedges[a];
        int64_t a0 = a - a % 3;
        ar = a0 + (a + 2) % 3;

        if (b == -1) {
            if (i == 0) break;
            a = stack[--i];
            continue;
        }

        int64_t b0 = b - b % 3;
        int64_t al = a0 + (a + 1) % 3;
        int64_t bl = b0 + (b + 2) % 3;

        int64_t p0 = triangles[ar];
        int64_t pr = triangles[a];
        int64_t pl = triangles[al];
        int64_t p1 = triangles[bl];

        double px_ = x[p1], py_ = y[p1];
        double dx = x[p0] - px_;
        double dy = y[p0] - py_;
        double ex = x[pr] - px_;
        double ey = y[pr] - py_;
        double fx = x[pl] - px_;
        double fy = y[pl] - py_;
        double ap = dx * dx + dy * dy;
        double bp = ex * ex + ey * ey;
        double cp = fx * fx + fy * fy;
        int illegal = (dx * (ey * cp - bp * fy)
                       - dy * (ex * cp - bp * fx)
                       + ap * (ex * fy - ey * fx)) < 0;

        if (illegal) {
            triangles[a] = p1;
            triangles[b] = p0;

            int64_t hbl = halfedges[bl];
            if (hbl == -1) {
                /* edge is on convex hull: fix hull_tri reference */
                int64_t e = s->hull_start;
                for (;;) {
                    if (hull_tri[e] == bl) {
                        hull_tri[e] = a;
                        break;
                    }
                    e = hull_prev[e];
                    if (e == s->hull_start) break;
                }
            }
            halfedges[a] = hbl;
            if (hbl != -1) halfedges[hbl] = a;
            int64_t har = halfedges[ar];
            halfedges[b] = har;
            if (har != -1) halfedges[har] = b;
            halfedges[ar] = bl;
            halfedges[bl] = ar;

            int64_t br = b0 + (b + 1) % 3;
            if (i < EDGE_STACK_SIZE) stack[i++] = br;
        } else {
            if (i == 0) break;
            a = stack[--i];
        }
    }
    return ar;
}

/* out[0] = triangles length, out[1] = hull size; hull[] gets the hull
 * walk from the final hull start. hull_prev/hull_next/hull_tri have n
 * entries, hull_hash has hs entries set to -1, triangles/halfedges
 * have cap entries. */
int delaunator_sweep(
    int64_t n, const double *x, const double *y, const int64_t *ids,
    int64_t i0, int64_t i1, int64_t i2, double ccx, double ccy,
    int64_t hs, int64_t cap,
    int64_t *triangles, int64_t *halfedges,
    int64_t *hull_prev, int64_t *hull_next, int64_t *hull_tri,
    int64_t *hull_hash, int64_t *hull, int64_t *out)
{
    sweep_t s;
    s.x = x;
    s.y = y;
    s.triangles = triangles;
    s.halfedges = halfedges;
    s.hull_prev = hull_prev;
    s.hull_tri = hull_tri;
    s.hull_start = i0;

    int64_t tlen, hull_size = 3, h;
    if (cap < 3) return 1;

    hull_next[i0] = hull_prev[i2] = i1;
    hull_next[i1] = hull_prev[i0] = i2;
    hull_next[i2] = hull_prev[i1] = i0;
    hull_tri[i0] = 0;
    hull_tri[i1] = 1;
    hull_tri[i2] = 2;

    if ((h = hash_key(x[i0], y[i0], ccx, ccy, hs)) < 0) return 2;
    hull_hash[h] = i0;
    if ((h = hash_key(x[i1], y[i1], ccx, ccy, hs)) < 0) return 2;
    hull_hash[h] = i1;
    if ((h = hash_key(x[i2], y[i2], ccx, ccy, hs)) < 0) return 2;
    hull_hash[h] = i2;

    triangles[0] = i0;
    triangles[1] = i1;
    triangles[2] = i2;
    halfedges[0] = halfedges[1] = halfedges[2] = -1;
    tlen = 3;

    double xp = NAN, yp = NAN;
    for (int64_t k = 0; k < n; k++) {
        int64_t i = ids[k];
        double xi = x[i];
        double yi = y[i];

        /* skip near-duplicate points */
        if (k > 0 && fabs(xi - xp) <= EPSILON && fabs(yi - yp) <= EPSILON) continue;
        xp = xi;
        yp = yi;

        if (i == i0 || i == i1 || i == i2) continue;

        /* find a visible edge on the convex hull using edge hash */
        int64_t start = 0;
        int64_t key = hash_key(xi, yi, ccx, ccy, hs);
        if (key < 0) return 2;
        for (int64_t j = 0; j < hs; j++) {
            start = hull_hash[(key + j) % hs];
            if (start != -1 && start != hull_next[start]) break;
        }

        start = hull_prev[start < 0 ? start + n : start]; /* Python's [-1] */
        int64_t e = start, q;
        for (;;) {
            q = hull_next[e];
            if ((y[e] - yi) * (x[q] - x[e]) - (x[e] - xi) * (y[q] - y[e]) < 0) break;
            e = q;
            if (e == start) {
                e = -1;
                break;
            }
        }
        if (e == -1) continue; /* likely a near-duplicate point */

        /* first triangle from the point */
        int64_t t = tlen, c;
        if (t + 3 > cap) return 3;
        q = hull_next[e];
        c = hull_tri[e];
        triangles[t] = e;
        triangles[t + 1] = i;
        triangles[t + 2] = q;
        halfedges[t] = -1;
        halfedges[t + 1] = -1;
        halfedges[t + 2] = c;
        if (c != -1) halfedges[c] = t + 2;
        tlen += 3;

        hull_tri[i] = legalize(&s, t + 2);
        hull_tri[e] = t;
        hull_size += 1;

        /* walk forward, adding triangles */
        int64_t nn = hull_next[e];
        for (;;) {
            q = hull_next[nn];
            if (!((y[nn] - yi) * (x[q] - x[nn]) - (x[nn] - xi) * (y[q] - y[nn]) < 0)) break;
            t = tlen;
            if (t + 3 > cap) return 3;
            int64_t a_ = hull_tri[i];
            c = hull_tri[nn];
            triangles[t] = nn;
            triangles[t + 1] = i;
            triangles[t + 2] = q;
            halfedges[t] = a_;
            if (a_ != -1) halfedges[a_] = t;
            halfedges[t + 1] = -1;
            halfedges[t + 2] = c;
            if (c != -1) halfedges[c] = t + 2;
            tlen += 3;
            hull_tri[i] = legalize(&s, t + 2);
            hull_next[nn] = nn; /* mark removed */
            hull_size -= 1;
            nn = q;
        }

        /* walk backward */
        if (e == start) {
            for (;;) {
                q = hull_prev[e];
                if (!((y[q] - yi) * (x[e] - x[q]) - (x[q] - xi) * (y[e] - y[q]) < 0)) break;
                t = tlen;
                if (t + 3 > cap) return 3;
                int64_t b_ = hull_tri[e];
                c = hull_tri[q];
                triangles[t] = q;
                triangles[t + 1] = i;
                triangles[t + 2] = e;
                halfedges[t] = -1;
                halfedges[t + 1] = b_;
                if (b_ != -1) halfedges[b_] = t + 1;
                halfedges[t + 2] = c;
                if (c != -1) halfedges[c] = t + 2;
                tlen += 3;
                legalize(&s, t + 2);
                hull_tri[q] = t;
                hull_next[e] = e; /* mark removed */
                hull_size -= 1;
                e = q;
            }
        }

        s.hull_start = e;
        hull_prev[i] = e;
        hull_next[e] = i;
        hull_prev[nn] = i;
        hull_next[i] = nn;

        if ((h = hash_key(xi, yi, ccx, ccy, hs)) < 0) return 2;
        hull_hash[h] = i;
        if ((h = hash_key(x[e], y[e], ccx, ccy, hs)) < 0) return 2;
        hull_hash[h] = e;
    }

    if (hull_size > n) return 3;
    int64_t e = s.hull_start;
    for (int64_t k = 0; k < hull_size; k++) {
        hull[k] = e;
        e = hull_next[e];
    }
    out[0] = tlen;
    out[1] = hull_size;
    return 0;
}
