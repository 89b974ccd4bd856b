/* The compiled kernels of atmtomo: the smoothed-TV stencil of tv.py as two
 * functions, the root sqrt(|grad|^2 + beta) and the diffusion apply that is
 * also TV's gradient, each one pass over the field's rows with a row or two
 * of scratch; the ray transform's row-compressed (CSR) arrays of forward.py
 * as four more; the two vector updates of solvers.cgne; and the two passes
 * over the L-BFGS history block of solvers.py, its rows' products with a few
 * vectors and a linear combination of its rows.  No kernel allocates: the
 * caller makes what scratch one needs.
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
 * baseline kernels alone.  The history passes' inner loops have clones too.
 *
 * Threads: the history passes split their columns into fixed chunks, which
 * the calling thread and one helper thread share, and every sum they form
 * adds its terms in an order fixed by the chunks; so their bits are the same
 * on one CPU or more.  The helper starts at the first pass of two or more
 * chunks in a process that may run on two or more CPUs, and waits for the
 * next pass spinning only when it started as the process's second thread;
 * no other kernel uses it.
 */
#define _GNU_SOURCE /* sched_getaffinity and CPU_COUNT */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

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

/* The L-BFGS history passes of solvers.py.  A pass splits its columns into
 * chunks of a width the caller gives, and the calling thread and one helper
 * thread claim the chunks from a counter; every result is a sum in a fixed
 * order over those chunks, so its bits do not depend on which thread took
 * which chunk, nor on whether the helper took any. */
struct pass {
    void (*run)(const struct pass *, idx); /* does one chunk */
    const double *const *rows;             /* row pointers: nrows vectors of n */
    const double *const *vectors;          /* block_dots: nvectors more */
    const double *coefficients;            /* block_combine: one per row */
    idx nrows, nvectors, n, width;
    double *partials, *out;
};

/* One helper thread per process, started at the first pass of two or more
 * chunks when the process may run on two or more CPUs.  A caller that finds
 * another caller's pass in progress (busy) runs its own chunks alone, and so
 * does a forked child until it starts its own helper (owner is the process
 * the helper runs in).  A job is open while gate is 2 seq, seq its number;
 * the helper joins it by moving gate to 2 seq + 1, and the caller closes it
 * by moving gate to 0 once every chunk is claimed, then waits for a joined
 * helper to finish the chunk it holds (left = seq).  After a job the helper
 * spins for HELPER_SPIN_NS, then sleeps on wake until the next one: an
 * L-BFGS iteration on a 30^3 grid opens its three passes 0.1-1 ms apart,
 * and a sleeping helper takes about 50 us to wake.  Both spin loops yield
 * the CPU on each turn, so a thread the scheduler placed on the spinner's
 * CPU still runs.  A helper that starts beside another thread sleeps at
 * once after each job instead (spin_ns 0): a threaded BLAS keeps its own
 * threads spinning on the CPUs between its calls, and a third thread
 * spinning on two CPUs stalled the caller for milliseconds. */
#define HELPER_SPIN_NS 1000000L

static struct {
    atomic_int busy;
    pid_t owner;
    int running;
    long spin_ns; /* HELPER_SPIN_NS, or 0 beside another thread */
    long seq;
    const struct pass *job;
    idx count;
    atomic_long gate, left;
    atomic_llong next;
    atomic_int sleeping;
    pthread_mutex_t lock;
    pthread_cond_t wake;
#ifdef __linux__
    cpu_set_t cpus; /* the CPUs the process may run on */
    int cpu;        /* the caller's, when it opened the job */
#endif
} pool;

static long elapsed_ns(const struct timespec *since)
{
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    return (now.tv_sec - since->tv_sec) * 1000000000L + (now.tv_nsec - since->tv_nsec);
}

/* the gate of a job the helper has not seen, or 0 */
static long new_job(long seen)
{
    long gate = atomic_load(&pool.gate);
    return gate && gate % 2 == 0 && gate / 2 != seen ? gate : 0;
}

/* A woken thread may be placed on its waker's CPU, where the two would take
 * turns on one CPU; so the helper moves to the process's other CPUs when it
 * finds itself on the caller's */
static void keep_apart(void)
{
#ifdef __linux__
    int cpu = sched_getcpu();
    if (cpu < 0 || cpu != pool.cpu)
        return;
    cpu_set_t others = pool.cpus;
    CPU_CLR(cpu, &others);
    if (CPU_COUNT(&others))
        pthread_setaffinity_np(pthread_self(), sizeof others, &others);
#endif
}

static void *helper(void *unused)
{
    (void)unused;
    long seen = 0;
    for (;;) {
        struct timespec since;
        clock_gettime(CLOCK_MONOTONIC, &since);
        long gate;
        while (!(gate = new_job(seen)) && elapsed_ns(&since) < pool.spin_ns)
            sched_yield();
        if (!gate) {
            pthread_mutex_lock(&pool.lock);
            atomic_store(&pool.sleeping, 1);
            while (!(gate = new_job(seen)))
                pthread_cond_wait(&pool.wake, &pool.lock);
            atomic_store(&pool.sleeping, 0);
            pthread_mutex_unlock(&pool.lock);
        }
        seen = gate / 2;
        if (!atomic_compare_exchange_strong(&pool.gate, &gate, gate + 1))
            continue; /* closed before the helper could join */
        keep_apart();
        const struct pass *job = pool.job;
        idx count = pool.count;
        for (idx c; (c = (idx)atomic_fetch_add(&pool.next, 1)) < count;)
            job->run(job, c);
        atomic_store_explicit(&pool.left, seen, memory_order_release);
    }
    return NULL;
}

/* the threads of this process, or 0 when it cannot tell */
static long process_threads(void)
{
    long threads = 0;
#ifdef __linux__
    FILE *status = fopen("/proc/self/status", "r");
    char line[256];
    if (!status)
        return 0;
    while (fgets(line, sizeof line, status))
        if (sscanf(line, "Threads: %ld", &threads) == 1)
            break;
    fclose(status);
#endif
    return threads;
}

/* whether the helper runs in this process, starting it if this process has
 * not tried yet; the caller holds busy */
static int helper_running(void)
{
    pid_t pid = getpid();
    if (pool.owner == pid)
        return pool.running;
    pool.owner = pid;
    pool.running = 0;
#ifdef __linux__
    if (sched_getaffinity(0, sizeof pool.cpus, &pool.cpus) != 0 || CPU_COUNT(&pool.cpus) < 2)
        return 0;
#else
    if (sysconf(_SC_NPROCESSORS_ONLN) < 2)
        return 0;
#endif
    pool.spin_ns = process_threads() > 1 ? 0 : HELPER_SPIN_NS;
    atomic_store(&pool.gate, 0);
    atomic_store(&pool.sleeping, 0);
    if (pthread_mutex_init(&pool.lock, NULL) || pthread_cond_init(&pool.wake, NULL))
        return 0;
    /* the helper takes no signal: they stay with the threads that handle them */
    pthread_attr_t attr;
    sigset_t all, old;
    pthread_t thread;
    if (pthread_attr_init(&attr))
        return 0;
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    pool.running = pthread_create(&thread, &attr, helper, NULL) == 0;
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    pthread_attr_destroy(&attr);
    return pool.running;
}

/* chunks [0, count) of job, on this thread and the helper when it can */
static void run_pass(const struct pass *job, idx count)
{
    int free_ = 0;
    int held = count >= 2 && atomic_compare_exchange_strong(&pool.busy, &free_, 1);
    if (!held || !helper_running()) {
        for (idx c = 0; c < count; c++)
            job->run(job, c);
        if (held)
            atomic_store(&pool.busy, 0);
        return;
    }
    long seq = ++pool.seq;
#ifdef __linux__
    pool.cpu = sched_getcpu();
#endif
    pool.job = job;
    pool.count = count;
    atomic_store_explicit(&pool.next, 0, memory_order_relaxed);
    atomic_store(&pool.gate, 2 * seq);
    if (atomic_load(&pool.sleeping)) {
        pthread_mutex_lock(&pool.lock);
        pthread_cond_signal(&pool.wake);
        pthread_mutex_unlock(&pool.lock);
    }
    for (idx c; (c = (idx)atomic_fetch_add(&pool.next, 1)) < count;)
        job->run(job, c);
    if (atomic_exchange(&pool.gate, 0) == 2 * seq + 1)
        while (atomic_load_explicit(&pool.left, memory_order_acquire) != seq)
            sched_yield();
    atomic_store(&pool.busy, 0);
}

/* four doubles in one vector (two SSE2 registers, or one AVX2); each lane
 * rounds each sum and product as scalar code does.  AT(p) is the quad at
 * any double's address p, to load or store */
typedef double quad __attribute__((vector_size(32)));
typedef double quad_at __attribute__((vector_size(32), aligned(8), may_alias));
#define AT(p) (*(quad_at *)(p))

/* the sum of 8 lanes, the lanes lo then hi, ((l0 + l1) + (l2 + l3)) +
 * ((l4 + l5) + (l6 + l7)), after the len % 8 entries from i on (a[i] b[i],
 * ...) are added to lanes 0, 1, ... in order */
static inline double lanes_sum(const quad *lo, const quad *hi, const double *a, const double *b,
                               idx i, idx len)
{
    double l[8];
    memcpy(l, lo, sizeof *lo);
    memcpy(l + 4, hi, sizeof *hi);
    for (int t = 0; i < len; i++, t++)
        l[t] += a[i] * b[i];
    return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/* a . b and a . x over len entries, each in 8 lanes from +0.0: entry i goes
 * to lane i % 8, in increasing i, and the lanes are then summed (lanes_sum) */
CLONED
static void chunk_dots(const double *restrict a, const double *restrict b,
                       const double *restrict x, idx len, double *ab, double *ax)
{
    quad b0 = {0.0, 0.0, 0.0, 0.0}, b1 = b0, x0 = b0, x1 = b0;
    idx i = 0;
    for (; i + 8 <= len; i += 8) {
        quad a0 = AT(a + i), a1 = AT(a + i + 4);
        b0 += a0 * AT(b + i);
        b1 += a1 * AT(b + i + 4);
        if (x) {
            x0 += a0 * AT(x + i);
            x1 += a1 * AT(x + i + 4);
        }
    }
    *ab = lanes_sum(&b0, &b1, a, b, i, len);
    if (x)
        *ax = lanes_sum(&x0, &x1, a, x, i, len);
}

static void dots_chunk(const struct pass *p, idx c)
{
    idx start = c * p->width, len = p->n - start < p->width ? p->n - start : p->width;
    idx k = p->nvectors;
    double *partial = p->partials + c * p->nrows * k;
    for (idx r = 0; r < p->nrows; r++) {
        const double *row = p->rows[r] + start;
        for (idx j = 0; j < k; j += 2) {
            const double *x = j + 1 < k ? p->vectors[j + 1] + start : NULL;
            chunk_dots(row, p->vectors[j] + start, x, len, partial + r * k + j,
                       partial + r * k + j + 1);
        }
    }
}

/* out[r * nvectors + j] = rows[r] . vectors[j] for every pair: chunk_dot
 * over each chunk of width columns, then the chunks' partials summed in
 * chunk order (+0.0 when n is 0); partials holds nrows * nvectors per chunk */
void block_dots(const double *const *rows, idx nrows, const double *const *vectors,
                idx nvectors, idx n, idx width, double *restrict partials, double *restrict out)
{
    struct pass p = {dots_chunk, rows, vectors, NULL, nrows, nvectors, n, width, partials, out};
    idx count = (n + width - 1) / width, size = nrows * nvectors;
    run_pass(&p, count);
    for (idx k = 0; k < size; k++) {
        double sum = count ? partials[k] : 0.0;
        for (idx c = 1; c < count; c++)
            sum += partials[c * size + k];
        out[k] = sum;
    }
}

/* columns [start, end) of block_combine, eight at a time down the rows */
CLONED
static void combine_columns(const double *const *rows, const double *coefficients, idx nrows,
                            idx start, idx end, double *restrict out)
{
    idx i = start;
    for (; i + 8 <= end; i += 8) {
        quad c = {coefficients[0], coefficients[0], coefficients[0], coefficients[0]};
        quad o0 = c * AT(rows[0] + i), o1 = c * AT(rows[0] + i + 4);
        for (idx r = 1; r < nrows; r++) {
            quad cr = {coefficients[r], coefficients[r], coefficients[r], coefficients[r]};
            o0 += cr * AT(rows[r] + i);
            o1 += cr * AT(rows[r] + i + 4);
        }
        AT(out + i) = o0;
        AT(out + i + 4) = o1;
    }
    for (; i < end; i++) {
        double o = coefficients[0] * rows[0][i];
        for (idx r = 1; r < nrows; r++)
            o += coefficients[r] * rows[r][i];
        out[i] = o;
    }
}

static void combine_chunk(const struct pass *p, idx c)
{
    idx start = c * p->width, end = p->n - start < p->width ? p->n : start + p->width;
    combine_columns(p->rows, p->coefficients, p->nrows, start, end, p->out);
}

/* out = sum_r coefficients[r] rows[r], each column summed in row order from
 * coefficients[0] rows[0]; out must not overlap a row */
void block_combine(const double *const *rows, const double *coefficients, idx nrows, idx n,
                   idx width, double *out)
{
    struct pass p = {combine_chunk, rows, NULL, coefficients, nrows, 0, n, width, NULL, out};
    run_pass(&p, (n + width - 1) / width);
}
