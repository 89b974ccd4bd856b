/* The compiled kernels of atmtomo: the smoothed-TV stencil of tv.py as
 * three functions, and the ray transform's row-compressed (CSR) arrays of
 * forward.py as three more.
 *
 * Each kernel performs the operations of its numpy reference in their order,
 * so the results are bitwise equal; build without floating-point
 * contraction (-ffp-contract=off), which would fuse a product and a sum into
 * one FMA.  Callers check sizes, bounds and dtypes: nothing here does.
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

/* p_a = D_a v, each a difference of (-w_a) v, and root = sqrt(|p|^2 + beta),
 * the squares summed in x, y, z order */
void tv_root(const double *restrict v, idx nz, idx ny, idx nx, double wx, double wy, double wz,
             double beta, double *restrict px, double *restrict py, double *restrict pz,
             double *restrict root)
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
            double *qx = px + row, *qy = py + row, *qz = pz + row, *r = root + row;
            qx[0] = ax * x[0] - ax * x[1];
            for (idx i = 1; i < nx - 1; i++)
                qx[i] = ax * x[i - 1] - ax * x[i + 1];
            qx[nx - 1] = ax * x[nx - 2] - ax * x[nx - 1];
            for (idx i = 0; i < nx; i++) {
                double dx = qx[i];
                double dy = ay * ylo[i] - ay * yhi[i];
                double dz = az * zlo[i] - az * zhi[i];
                qy[i] = dy;
                qz[i] = dz;
                r[i] = sqrt(((dx * dx + dy * dy) + dz * dz) + beta);
            }
        }
}

/* grad = cell_volume * sum_a D_a^T (w_a (p_a / root)), from tv_root's
 * results, into root's buffer: root on entry, the gradient on return.  p_a
 * are overwritten with the scaled fluxes, which are all the adjoint reads */
void tv_grad(double *restrict px, double *restrict py, double *restrict pz,
             double *restrict root, idx nz, idx ny, idx nx, double wx, double wy, double wz,
             double cell_volume)
{
    idx n = nz * ny * nx;
    for (idx i = 0; i < n; i++) {
        double gamma = 1.0 / root[i];
        px[i] = (px[i] * gamma) * wx;
        py[i] = (py[i] * gamma) * wy;
        pz[i] = (pz[i] * gamma) * wz;
    }
    for (idx k = 0; k < nz; k++)
        for (idx j = 0; j < ny; j++) {
            idx row = (k * ny + j) * nx;
            double *g = root + row;
            adjoint_row(g, px + row, py, pz, k, j, nz, ny, nx);
            for (idx i = 0; i < nx; i++)
                g[i] *= cell_volume;
        }
}

/* out = sum_a S_a^T ((k_a * g) * S_a v), S_a v = v[lo] - v[hi] along axis a:
 * the diffusion operator at weights g of tv.apply_weights, k_a =
 * -cell_volume w_a^2.  sy and sz are scratch fields, line scratch for one
 * row of nx */
void apply_l(const double *restrict v, idx nz, idx ny, idx nx, const double *restrict g,
             double kx, double ky, double kz, double *restrict sy, double *restrict sz,
             double *restrict line, double *restrict out)
{
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
                sy[row + i] = (ylo[i] - yhi[i]) * (ky * gi);
                sz[row + i] = (zlo[i] - zhi[i]) * (kz * gi);
            }
        }
    /* the x terms need only their own row, so S_x v lives one row at a time */
    for (idx k = 0; k < nz; k++)
        for (idx j = 0; j < ny; j++) {
            idx row = k * plane + j * nx;
            const double *x = v + row, *gr = g + row;
            line[0] = (x[0] - x[1]) * (kx * gr[0]);
            for (idx i = 1; i < nx - 1; i++)
                line[i] = (x[i - 1] - x[i + 1]) * (kx * gr[i]);
            line[nx - 1] = (x[nx - 2] - x[nx - 1]) * (kx * gr[nx - 1]);
            adjoint_row(out + row, line, sy, sz, k, j, nz, ny, nx);
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
