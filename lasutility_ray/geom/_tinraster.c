/* Per-tile TIN kernels of ``geom/triangulation.py``: the CSR triangle
 * grid index (``_grid_index_np``), the point-location probe of
 * ``get_value`` (``_probe_np``) and the triangle-push DEM rasteriser
 * (``_rasterise_np``). The numpy versions are the oracle these ports
 * are tested against, and the fallback where this library cannot be
 * built.
 *
 * Every floating-point expression is the numpy one, in the same order
 * (``1.0 / det`` then a multiply where numpy does that, ``/ det`` where
 * it divides), so under IEEE double arithmetic without contraction
 * (``-ffp-contract=off``, no ``-ffast-math``) the output is
 * bit-identical. min/max propagate NaN as ``np.minimum``/``np.maximum``
 * do.
 *
 * A nonzero return means an index fell outside the arrays, where numpy
 * raises or wraps; the caller then reruns the numpy version, which
 * reproduces that behaviour exactly. The rasteriser checks every window
 * before it writes, so a declined call leaves the rasters untouched.
 *
 * The grid (``bounds``) is (min_x, min_y, max_x, max_y, cell_width,
 * cell_height), the values of ``RasterBounds``' fields and properties.
 */

#include <math.h>
#include <stdint.h>

#define DEGENERATE_DET 1e-12 /* triangulation.py DEGENERATE_DET */

typedef struct {
    int64_t n_rows, n_cols;
    double min_x, min_y, max_x, max_y, cw, ch;
} grid_t;

static grid_t mkgrid(int64_t n_rows, int64_t n_cols, const double *b)
{
    grid_t g = {n_rows, n_cols, b[0], b[1], b[2], b[3], b[4], b[5]};
    return g;
}

static inline double np_min(double a, double b) { return (a <= b || isnan(a)) ? a : b; }
static inline double np_max(double a, double b) { return (a >= b || isnan(a)) ? a : b; }

/* RasterBounds.proj_to_cell for one point: 0 where it is outside the
 * half-open extent */
static inline int proj(const grid_t *g, double x, double y, int64_t *r, int64_t *c)
{
    if (!(x >= g->min_x && x < g->max_x && y >= g->min_y && y < g->max_y)) return 0;
    *r = (int64_t)((y - g->min_y) / g->ch);
    *c = (int64_t)((x - g->min_x) / g->cw);
    return 1;
}

/* triangulation._closest_class for one point */
static inline uint8_t closest_class(
    double qx, double qy, double qz, int64_t j0, int64_t j1, int64_t j2,
    const double *x, const double *y, const double *z, const uint8_t *cls)
{
    double a, b, c;
    a = qx - x[j0], b = qy - y[j0], c = qz - z[j0];
    double d0 = a * a + b * b + c * c;
    a = qx - x[j1], b = qy - y[j1], c = qz - z[j1];
    double d1 = a * a + b * b + c * c;
    a = qx - x[j2], b = qy - y[j2], c = qz - z[j2];
    double d2 = a * a + b * b + c * c;
    if (d0 <= d1 && d0 <= d2) return cls[j0];
    return d1 <= d2 ? cls[j1] : cls[j2];
}

/* Triangle t's envelope window in the index grid: -1 where a corner is
 * outside the extent (numpy raises IndexError) or the window leaves
 * the cell array (numpy would index past it or wrap a row). */
static int grid_window(const grid_t *g, const int64_t *tri, const double *x, const double *y,
                       int64_t *w)
{
    double x0 = x[tri[0]], x1 = x[tri[1]], x2 = x[tri[2]];
    double y0 = y[tri[0]], y1 = y[tri[1]], y2 = y[tri[2]];
    if (!proj(g, np_min(np_min(x0, x1), x2), np_min(np_min(y0, y1), y2), &w[0], &w[1])) return -1;
    if (!proj(g, np_max(np_max(x0, x1), x2), np_max(np_max(y0, y1), y2), &w[2], &w[3])) return -1;
    if (w[2] >= g->n_rows || w[3] >= g->n_cols) return -1;
    return 0;
}

/* Pass 1 of the CSR grid index: per-cell candidate counts summed into
 * starts[0..n_rows*n_cols] (zeroed by the caller). Returns the number
 * of (cell, triangle) pairs, or -1. */
int64_t tri_grid_count(
    int64_t n_tri, const int64_t *tris, const double *x, const double *y,
    int64_t n_rows, int64_t n_cols, const double *bounds, int64_t *starts)
{
    grid_t g = mkgrid(n_rows, n_cols, bounds);
    int64_t w[4];
    for (int64_t t = 0; t < n_tri; t++) {
        if (grid_window(&g, tris + 3 * t, x, y, w)) return -1;
        for (int64_t r = w[0]; r <= w[2]; r++)
            for (int64_t c = w[1]; c <= w[3]; c++) starts[r * n_cols + c + 1]++;
    }
    int64_t n_cells = n_rows * n_cols;
    for (int64_t k = 0; k < n_cells; k++) starts[k + 1] += starts[k];
    return starts[n_cells];
}

/* Pass 2: scatter triangle ids, ascending, into their cells' slots;
 * next[] starts as a copy of starts[0..n_cells-1]. Only called after
 * tri_grid_count accepted the same triangles. */
void tri_grid_fill(
    int64_t n_tri, const int64_t *tris, const double *x, const double *y,
    int64_t n_rows, int64_t n_cols, const double *bounds, int64_t *next, int64_t *cell_tris)
{
    grid_t g = mkgrid(n_rows, n_cols, bounds);
    int64_t w[4];
    for (int64_t t = 0; t < n_tri; t++) {
        grid_window(&g, tris + 3 * t, x, y, w);
        for (int64_t r = w[0]; r <= w[2]; r++)
            for (int64_t c = w[1]; c <= w[3]; c++) cell_tris[next[r * n_cols + c]++] = t;
    }
}

/* get_value's point location: per query point, the first triangle in
 * its cell's candidate list whose sign test (boundary inclusive) holds;
 * its barycentric height and nearest-vertex class. Points no triangle
 * contains keep the caller's NaN / 0. Returns -1 where a cell is past
 * the starts array. */
int tri_probe(
    int64_t n, const double *qx, const double *qy, const int64_t *tris,
    const double *x, const double *y, const double *z, const uint8_t *cls,
    int64_t n_rows, int64_t n_cols, const double *bounds,
    int64_t n_starts, const int64_t *starts, const int64_t *cell_tris,
    double *heights, uint8_t *classes)
{
    grid_t g = mkgrid(n_rows, n_cols, bounds);
    for (int64_t i = 0; i < n; i++) {
        double px = qx[i], py = qy[i];
        int64_t r, c;
        if (!proj(&g, px, py, &r, &c)) continue;
        int64_t cell = r * n_cols + c;
        if (cell + 1 >= n_starts) return -1;
        for (int64_t k = starts[cell]; k < starts[cell + 1]; k++) {
            const int64_t *t = tris + 3 * cell_tris[k];
            int64_t i0 = t[0], i1 = t[1], i2 = t[2];
            double x0 = x[i0], y0 = y[i0], x1 = x[i1], y1 = y[i1], x2 = x[i2], y2 = y[i2];

            /* sign-based PIP, boundary inclusive (Triangulation.cs:349-360) */
            double d1 = (px - x1) * (y0 - y1) - (x0 - x1) * (py - y1);
            double d2 = (px - x2) * (y1 - y2) - (x1 - x2) * (py - y2);
            double d3 = (px - x0) * (y2 - y0) - (x2 - x0) * (py - y0);
            int has_neg = (d1 < 0) | (d2 < 0) | (d3 < 0);
            int has_pos = (d1 > 0) | (d2 > 0) | (d3 > 0);
            if (has_neg && has_pos) continue;

            double det = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2);
            double l1 = ((y1 - y2) * (px - x2) + (x2 - x1) * (py - y2)) / det;
            double l2 = ((y2 - y0) * (px - x2) + (x0 - x2) * (py - y2)) / det;
            double l3 = 1.0 - l1 - l2;
            double h = l1 * z[i0] + l2 * z[i1] + l3 * z[i2];
            heights[i] = h;
            classes[i] = closest_class(px, py, h, i0, i1, i2, x, y, z, cls);
            break;
        }
    }
    return 0;
}

/* Triangle t's clamped cell window in the raster: 0 where it is
 * skipped (degenerate or entirely outside), -1 where the window leaves
 * the raster arrays. */
static int raster_window(const grid_t *g, double clamp_x, double clamp_y, const int64_t *tri,
                         const double *x, const double *y, double *det, int64_t *w)
{
    double x0 = x[tri[0]], x1 = x[tri[1]], x2 = x[tri[2]];
    double y0 = y[tri[0]], y1 = y[tri[1]], y2 = y[tri[2]];
    *det = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2);
    if (!(fabs(*det) >= DEGENERATE_DET)) return 0; /* Triangulation.cs:266 */
    double min_x = np_max(np_min(np_min(x0, x1), x2), g->min_x);
    double min_y = np_max(np_min(np_min(y0, y1), y2), g->min_y);
    double max_x = np_min(np_max(np_max(x0, x1), x2), clamp_x);
    double max_y = np_min(np_max(np_max(y0, y1), y2), clamp_y);
    if (!proj(g, min_x, min_y, &w[0], &w[1]) || !proj(g, max_x, max_y, &w[2], &w[3])) return 0;
    return (w[2] >= g->n_rows || w[3] >= g->n_cols) ? -1 : 1;
}

/* RasteriseDem (Triangulation.cs:242-297): push each triangle, in id
 * order, over its clamped window; write every cell whose bottom-left
 * corner has all barycentric coordinates >= 0, unless locked, so the
 * last containing triangle wins. clamp_x/clamp_y are max_x/max_y minus
 * the bounds epsilon; locked and cls_raster may be NULL. */
int tri_rasterise(
    int64_t n_tri, const int64_t *tris, const double *x, const double *y,
    const double *z, const uint8_t *cls, int64_t n_rows, int64_t n_cols,
    const double *bounds, double clamp_x, double clamp_y,
    const uint8_t *locked, float *dem, uint8_t *cls_raster)
{
    grid_t g = mkgrid(n_rows, n_cols, bounds);
    double det;
    int64_t w[4];
    for (int64_t t = 0; t < n_tri; t++)
        if (raster_window(&g, clamp_x, clamp_y, tris + 3 * t, x, y, &det, w) < 0) return -1;

    for (int64_t t = 0; t < n_tri; t++) {
        const int64_t *tri = tris + 3 * t;
        if (raster_window(&g, clamp_x, clamp_y, tri, x, y, &det, w) <= 0) continue;
        int64_t i0 = tri[0], i1 = tri[1], i2 = tri[2];
        double x0 = x[i0], y0 = y[i0], x1 = x[i1], y1 = y[i1], x2 = x[i2], y2 = y[i2];
        double inv_det = 1.0 / det;
        for (int64_t r = w[0]; r <= w[2]; r++) {
            double py = g.min_y + (double)r * g.ch; /* cell bottom-left corner */
            for (int64_t c = w[1]; c <= w[3]; c++) {
                double px = g.min_x + (double)c * g.cw;
                double l1 = ((y1 - y2) * (px - x2) + (x2 - x1) * (py - y2)) * inv_det;
                double l2 = ((y2 - y0) * (px - x2) + (x0 - x2) * (py - y2)) * inv_det;
                double l3 = 1.0 - l1 - l2;
                if (!(l1 >= 0 && l2 >= 0 && l3 >= 0)) continue;
                int64_t cell = r * n_cols + c;
                if (locked && locked[cell]) continue;
                double h = l1 * z[i0] + l2 * z[i1] + l3 * z[i2];
                dem[cell] = (float)h;
                if (cls_raster) cls_raster[cell] = closest_class(px, py, h, i0, i1, i2, x, y, z, cls);
            }
        }
    }
    return 0;
}
