/* The compiled kernels of atmtomo: the smoothed-TV stencil of tv.py as two
 * functions, the root sqrt(|grad|^2 + beta) and the diffusion apply that is
 * also TV's gradient; the ray transform's row-compressed (CSR) arrays of
 * forward.py as four more; and the two vector updates of solvers.cgne.
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
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

typedef ptrdiff_t idx;

static idx lower(idx i) { return i > 0 ? i - 1 : 0; }
static idx upper(idx i, idx n) { return i < n - 1 ? i + 1 : n - 1; }

/* g[i] += the adjoint difference of the lines through position pos of an
 * axis of count lines stride apart, b pointing at the line at position 0 */
static void add_adjoint(double *restrict g, const double *restrict b, idx pos, idx count,
                        idx stride, idx nx)
{
    if (pos == 0) {
        const double *lo = b, *hi = b + stride;
        for (idx i = 0; i < nx; i++)
            g[i] += (0.0 - lo[i]) - hi[i];
    } else if (pos == count - 1) {
        const double *lo = b + (count - 2) * stride, *hi = lo + stride;
        for (idx i = 0; i < nx; i++)
            g[i] += lo[i] + hi[i];
    } else {
        const double *lo = b + (pos - 1) * stride, *hi = b + (pos + 1) * stride;
        for (idx i = 0; i < nx; i++)
            g[i] += lo[i] - hi[i];
    }
}

/* g = (Dx^T x + Dy^T by) + Dz^T bz on row (k, j), x that row of bx */
static void adjoint_row(double *restrict g, const double *restrict x, const double *restrict by,
                        const double *restrict bz, idx k, idx j, idx nz, idx ny, idx nx)
{
    g[0] = (0.0 - x[0]) - x[1];
    for (idx i = 1; i < nx - 1; i++)
        g[i] = x[i - 1] - x[i + 1];
    g[nx - 1] = x[nx - 2] + x[nx - 1];
    add_adjoint(g, by + k * ny * nx, j, ny, nx, nx);
    add_adjoint(g, bz + j * nx, k, nz, ny * nx, nx);
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

/* out = cell_volume * sum_a D_a^T (w_a ((D_a v) g)), the diffusion operator
 * at weights g of tv.apply_weights, each D_a v a difference of (-w_a) v.
 * At g = 1/root this is the TV gradient.  With base (not NULL) the result
 * is added to it, out = base + cell_volume * (...) node by node, and base
 * may be out itself.  sy and sz are scratch fields, line scratch for two
 * rows of nx */
void apply_l(const double *restrict v, const double *restrict g, idx nz, idx ny, idx nx,
             double wx, double wy, double wz, double cell_volume, double *restrict sy,
             double *restrict sz, double *restrict line, const double *base, double *out)
{
    double ax = -wx, ay = -wy, az = -wz;
    idx plane = ny * nx;
    for (idx k = 0; k < nz; k++)
        for (idx j = 0; j < ny; j++) {
            idx row = k * plane + j * nx;
            const double *ylo = v + k * plane + lower(j) * nx;
            const double *yhi = v + k * plane + upper(j, ny) * nx;
            const double *zlo = v + lower(k) * plane + j * nx;
            const double *zhi = v + upper(k, nz) * plane + j * nx;
            for (idx i = 0; i < nx; i++) {
                double gi = g[row + i];
                sy[row + i] = ((ay * ylo[i] - ay * yhi[i]) * gi) * wy;
                sz[row + i] = ((az * zlo[i] - az * zhi[i]) * gi) * wz;
            }
        }
    /* the x terms need only their own row, so D_x v lives one row at a time;
     * with a base the row's sum waits in the second row of line */
    double *sum = line + nx;
    for (idx k = 0; k < nz; k++)
        for (idx j = 0; j < ny; j++) {
            idx row = k * plane + j * nx;
            const double *x = v + row, *gr = g + row;
            double *o = out + row;
            line[0] = ((ax * x[0] - ax * x[1]) * gr[0]) * wx;
            for (idx i = 1; i < nx - 1; i++)
                line[i] = ((ax * x[i - 1] - ax * x[i + 1]) * gr[i]) * wx;
            line[nx - 1] = ((ax * x[nx - 2] - ax * x[nx - 1]) * gr[nx - 1]) * wx;
            if (base) {
                const double *b = base + row;
                adjoint_row(sum, line, sy, sz, k, j, nz, ny, nx);
                for (idx i = 0; i < nx; i++)
                    o[i] = b[i] + sum[i] * cell_volume;
            } else {
                adjoint_row(o, line, sy, sz, k, j, nz, ny, nx);
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
 * in-place ops on the products; hp may be p */
void cg_step(double *restrict s, double *restrict r, const double *p, const double *hp, double a,
             idx n)
{
    for (idx i = 0; i < n; i++) {
        s[i] += p[i] * a;
        r[i] -= hp[i] * a;
    }
}

/* The next conjugate direction, p = p * c + r, as numpy's p *= c; p += r */
void cg_direction(double *restrict p, const double *restrict r, double c, idx n)
{
    for (idx i = 0; i < n; i++)
        p[i] = p[i] * c + r[i];
}
