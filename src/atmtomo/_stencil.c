/* The compiled kernels of atmtomo: the smoothed-TV stencil of tv.py as two
 * functions, the root sqrt(|grad|^2 + beta) and the diffusion apply that is
 * also TV's gradient, each one pass over the field's rows with a row or two
 * of scratch; the ray transform's row-compressed (CSR) arrays of forward.py
 * as four more; and the two vector updates of solvers.cgne.  No kernel
 * allocates: the caller makes what scratch one needs.
 *
 * Each kernel performs the operations of its numpy reference in their order,
 * so the results are bitwise equal; build without floating-point
 * contraction (-ffp-contract=off), which would fuse a product and a sum into
 * one FMA.  Callers check sizes, bounds, dtypes and overlaps: nothing here
 * does.  A pointer without restrict may alias the one its comment names.
 *
 * TV: fields are C-ordered (z, y, x) arrays of nz * ny * nx doubles, every
 * axis at least 2 nodes long.  Along each axis the forward difference is
 * a[lo] - a[hi] with the neighbours replicate-clipped at the ends, and the
 * adjoint difference of b is (0 - b[0]) - b[1] at the first row,
 * b[n-2] + b[n-1] at the last and b[i-1] - b[i+1] inside.
 *
 * CSR: row i holds data[k] at column indices[k] for k in
 * [indptr[i], indptr[i+1]), int32 indices and row pointers as scipy stores
 * them.  The products sum as scipy's csr_matvec and csc_matvec do.
 *
 * Width: on x86-64 glibc, with a compiler that has target_clones, apply_l,
 * cg_step and cg_direction are built as an AVX2 clone and a baseline clone,
 * and the loader's ifunc resolver picks one when the library loads, so the
 * library needs no -march and runs on any x86-64.  The clones give the same
 * bits: each vector lane rounds each sum and product as scalar code does,
 * and AVX2 brings no FMA.  Any other platform or compiler builds the
 * baseline kernels alone.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

typedef ptrdiff_t idx;

/* CLONED gives a kernel its AVX2 and baseline clones; INLINE puts the
 * helpers inside each clone, which GCC does not do by itself for a clone */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONED __attribute__((target_clones("avx2", "default")))
#define INLINE static inline __attribute__((always_inline))
#endif
#endif
#ifndef CLONED
#define CLONED
#define INLINE static inline
#endif

INLINE idx lower(idx i) { return i > 0 ? i - 1 : 0; }
INLINE idx upper(idx i, idx n) { return i < n - 1 ? i + 1 : n - 1; }

/* the flux ((a lo[i] - a hi[i]) g[i]) w of a line, lo and hi its neighbours */
INLINE double flux(const double *lo, const double *hi, const double *g, idx i, double a, double w)
{
    return ((a * lo[i] - a * hi[i]) * g[i]) * w;
}

/* s[i] += the adjoint difference at position pos of an axis of count lines
 * stride apart, of the fluxes of v at weights g on the two lines it reads;
 * v and g point at the line at position 0 */
INLINE void add_adjoint(double *restrict s, const double *restrict v, const double *restrict g,
                        idx pos, idx count, idx stride, double a, double w, idx nx)
{
    idx m0 = pos == 0 ? 0 : pos == count - 1 ? count - 2 : pos - 1;
    idx m1 = pos == 0 ? 1 : pos == count - 1 ? count - 1 : pos + 1;
    const double *lo0 = v + lower(m0) * stride, *hi0 = v + upper(m0, count) * stride;
    const double *lo1 = v + lower(m1) * stride, *hi1 = v + upper(m1, count) * stride;
    const double *g0 = g + m0 * stride, *g1 = g + m1 * stride;
    if (pos == 0)
        for (idx i = 0; i < nx; i++)
            s[i] += (0.0 - flux(lo0, hi0, g0, i, a, w)) - flux(lo1, hi1, g1, i, a, w);
    else if (pos == count - 1)
        for (idx i = 0; i < nx; i++)
            s[i] += flux(lo0, hi0, g0, i, a, w) + flux(lo1, hi1, g1, i, a, w);
    else
        for (idx i = 0; i < nx; i++)
            s[i] += flux(lo0, hi0, g0, i, a, w) - flux(lo1, hi1, g1, i, a, w);
}

/* root = sqrt(|D v|^2 + beta), each D_a v a difference of (-w_a) v and the
 * squares summed in x, y, z order; line is scratch for one row of nx */
void tv_root(const double *restrict v, idx nz, idx ny, idx nx, double wx, double wy, double wz,
             double beta, double *restrict line, double *restrict root)
{
    double ax = -wx, ay = -wy, az = -wz;
    idx plane = ny * nx;
    for (idx k = 0; k < nz; k++)
        for (idx j = 0; j < ny; j++) {
            idx row = k * plane + j * nx;
            const double *x = v + row;
            const double *ylo = v + k * plane + lower(j) * nx;
            const double *yhi = v + k * plane + upper(j, ny) * nx;
            const double *zlo = v + lower(k) * plane + j * nx;
            const double *zhi = v + upper(k, nz) * plane + j * nx;
            double *r = root + row;
            line[0] = ax * x[0] - ax * x[1];
            for (idx i = 1; i < nx - 1; i++)
                line[i] = ax * x[i - 1] - ax * x[i + 1];
            line[nx - 1] = ax * x[nx - 2] - ax * x[nx - 1];
            for (idx i = 0; i < nx; i++) {
                double dx = line[i];
                double dy = ay * ylo[i] - ay * yhi[i];
                double dz = az * zlo[i] - az * zhi[i];
                r[i] = sqrt(((dx * dx + dy * dy) + dz * dz) + beta);
            }
        }
}

/* add_adjoint's difference at a position two or more lines from either end
 * of its axis, where no neighbour is clipped: x points at the position's
 * line in v, gr at the same line in g */
INLINE double across(const double *restrict x, const double *restrict gr, idx i, idx stride,
                     double a, double w)
{
    return flux(x - 2 * stride, x, gr - stride, i, a, w) -
           flux(x, x + 2 * stride, gr + stride, i, a, w);
}

/* o = b + the rest of apply_l's sums on a row two or more rows and planes
 * from every end, or without b (NULL) the sums alone, from the row's x
 * fluxes in line: at each node the x adjoint, the y then the z difference
 * added, times cell_volume, in one loop */
INLINE void interior_row(const double *restrict x, const double *restrict gr,
                         const double *restrict line, idx nx, idx plane, double ay, double wy,
                         double az, double wz, double cell_volume, const double *b, double *o)
{
#define NODE(t, i)                                                                             \
    do {                                                                                       \
        double u = (((t) + across(x, gr, i, nx, ay, wy)) + across(x, gr, i, plane, az, wz)) *   \
                   cell_volume;                                                                \
        o[i] = b ? b[i] + u : u;                                                               \
    } while (0)
    NODE((0.0 - line[0]) - line[1], 0);
    for (idx i = 1; i < nx - 1; i++)
        NODE(line[i - 1] - line[i + 1], i);
    NODE(line[nx - 2] + line[nx - 1], nx - 1);
#undef NODE
}

/* out = cell_volume * sum_a D_a^T (w_a ((D_a v) g)), the diffusion operator
 * at weights g of tv.apply_weights, each D_a v a difference of (-w_a) v.
 * At g = 1/root this is the TV gradient.  With base (not NULL) the result
 * is added to it, out = base + cell_volume * (...) node by node, and base
 * may be out itself.  One pass over the rows: a row's x fluxes go to the
 * first row of line, and the y and z fluxes its adjoint reads are formed
 * where they are added, each from v and g.  A row two or more rows and
 * planes from every end does the rest in one loop over its nodes: x
 * adjoint, y and z differences, scaling and base.  Any other row sums in
 * place, in out or, with a base, in the second row of line, which holds
 * two rows of nx */
CLONED
void apply_l(const double *restrict v, const double *restrict g, idx nz, idx ny, idx nx,
             double wx, double wy, double wz, double cell_volume, double *restrict line,
             const double *base, double *out)
{
    double ax = -wx, ay = -wy, az = -wz;
    idx plane = ny * nx;
    double *sum = line + nx;
    for (idx k = 0; k < nz; k++)
        for (idx j = 0; j < ny; j++) {
            idx row = k * plane + j * nx;
            const double *x = v + row, *gr = g + row;
            double *o = out + row, *s = base ? sum : o;
            line[0] = ((ax * x[0] - ax * x[1]) * gr[0]) * wx;
            for (idx i = 1; i < nx - 1; i++)
                line[i] = ((ax * x[i - 1] - ax * x[i + 1]) * gr[i]) * wx;
            line[nx - 1] = ((ax * x[nx - 2] - ax * x[nx - 1]) * gr[nx - 1]) * wx;
            if (j >= 2 && j < ny - 2 && k >= 2 && k < nz - 2) {
                /* two calls, so that each clone's loop knows whether b is NULL */
                if (base)
                    interior_row(x, gr, line, nx, plane, ay, wy, az, wz, cell_volume,
                                 base + row, o);
                else
                    interior_row(x, gr, line, nx, plane, ay, wy, az, wz, cell_volume, NULL, o);
                continue;
            }
            s[0] = (0.0 - line[0]) - line[1];
            for (idx i = 1; i < nx - 1; i++)
                s[i] = line[i - 1] - line[i + 1];
            s[nx - 1] = line[nx - 2] + line[nx - 1];
            add_adjoint(s, v + k * plane, g + k * plane, j, ny, nx, ay, wy, nx);
            add_adjoint(s, v + j * nx, g + j * nx, k, nz, plane, az, wz, nx);
            if (base) {
                const double *b = base + row;
                for (idx i = 0; i < nx; i++)
                    o[i] = b[i] + s[i] * cell_volume;
            } else {
                for (idx i = 0; i < nx; i++)
                    o[i] *= cell_volume;
            }
        }
}

/* y[i] = sum over row i of data[k] * x[indices[k]], from +0.0 in stored order */
void csr_apply(const double *restrict data, const int32_t *restrict indices,
               const int32_t *restrict indptr, idx n_rows, const double *restrict x,
               double *restrict y)
{
    for (idx i = 0; i < n_rows; i++) {
        double sum = 0.0;
        for (idx k = indptr[i]; k < indptr[i + 1]; k++)
            sum += data[k] * x[indices[k]];
        y[i] = sum;
    }
}

/* y += T^T r: row i's entries scattered onto their columns, rows in
 * ascending order; y holds zeros on entry */
void csr_adjoint(const double *restrict data, const int32_t *restrict indices,
                 const int32_t *restrict indptr, idx n_rows, const double *restrict r,
                 double *restrict y)
{
    for (idx i = 0; i < n_rows; i++) {
        double ri = r[i];
        for (idx k = indptr[i]; k < indptr[i + 1]; k++)
            y[indices[k]] += data[k] * ri;
    }
}

/* y = T^T (T x) in one pass over the rows: each row's sum as csr_apply
 * forms it, scattered at once as csr_adjoint scatters it, so y is bitwise
 * csr_adjoint of csr_apply.  y (n_cols, zeroed here) must not overlap x */
void csr_normal(const double *restrict data, const int32_t *restrict indices,
                const int32_t *restrict indptr, idx n_rows, idx n_cols,
                const double *restrict x, double *restrict y)
{
    for (idx j = 0; j < n_cols; j++)
        y[j] = 0.0;
    for (idx i = 0; i < n_rows; i++) {
        double sum = 0.0;
        for (idx k = indptr[i]; k < indptr[i + 1]; k++)
            sum += data[k] * x[indices[k]];
        for (idx k = indptr[i]; k < indptr[i + 1]; k++)
            y[indices[k]] += data[k] * sum;
    }
}

/* Each row sorted by column (stable insertion sort), then the entries of one
 * column summed in that order, all compacted in place toward the front:
 * scipy's sort_indices then sum_duplicates.  indptr is rewritten, so the
 * canonical arrays end at indptr[n_rows] */
void csr_canonical(double *restrict data, int32_t *restrict indices, int32_t *restrict indptr,
                   idx n_rows)
{
    idx nnz = 0, start = indptr[0];
    for (idx i = 0; i < n_rows; i++) {
        idx end = indptr[i + 1];
        for (idx k = start + 1; k < end; k++) {
            int32_t column = indices[k];
            double value = data[k];
            idx m = k;
            for (; m > start && indices[m - 1] > column; m--) {
                indices[m] = indices[m - 1];
                data[m] = data[m - 1];
            }
            indices[m] = column;
            data[m] = value;
        }
        for (idx k = start; k < end;) {
            int32_t column = indices[k];
            double sum = data[k++];
            while (k < end && indices[k] == column)
                sum += data[k++];
            indices[nnz] = column;
            data[nnz++] = sum;
        }
        indptr[i + 1] = (int32_t)nnz;
        start = end;
    }
}

/* One conjugate-gradient step, s += p * a and r -= hp * a, as numpy's
 * in-place ops on the products; s, r, p and hp are cgne's four buffers */
CLONED
void cg_step(double *restrict s, double *restrict r, const double *restrict p,
             const double *restrict hp, double a, idx n)
{
    for (idx i = 0; i < n; i++) {
        s[i] += p[i] * a;
        r[i] -= hp[i] * a;
    }
}

/* The next conjugate direction, p = p * c + r, as numpy's p *= c; p += r */
CLONED
void cg_direction(double *restrict p, const double *restrict r, double c, idx n)
{
    for (idx i = 0; i < n; i++)
        p[i] = p[i] * c + r[i];
}
