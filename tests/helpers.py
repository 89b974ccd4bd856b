"""Brute-force reference implementations and adapters used by the tests.

Everything here is written with scalar loops and dense matrices on purpose:
slow, obvious code that the fast vectorized library is checked against.
"""

import math

import numpy as np
import scipy.sparse as sp

from atmtomo import (
    Emitter,
    Field,
    Station,
    SparseOperator,
    build_network,
    make_grid,
    take_rays,
)
from atmtomo.forward import _nearest_nodes
from atmtomo.geometry import Grid3
from atmtomo.tv import _check_beta, smoothing_weights, tv_value_and_gradient

_criteria_lines = []


def record_criterion(number, label, ok, detail):
    """Append one pass/fail line for the terminal summary; returns the line."""
    line = f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    _criteria_lines.append(line)
    print(line)
    return line


class FnObjective:
    """Give a plain function the (value, gradient) eval interface solvers expect."""

    def __init__(self, fn):
        self.fn = fn
        self.evaluations = 0

    def eval(self, x):
        self.evaluations += 1
        value, grad = self.fn(np.asarray(x, dtype=float))
        return float(value), np.asarray(grad, dtype=float)


def desk_grid():
    return make_grid(4, 4, 4, (0.0, 1.0, 0.0, 1.0, 0.0, 15.0))


def desk_network(grid=None):
    """A 200-ray network whose operator has full column rank on the 4x4x4 grid.

    Stations are jittered around the ground lattice so every ground node is
    probed; emitters mix an interior 3x3 lattice with four on a radius-1.1
    ring.  The ring rays leave the box sideways, which breaks the otherwise
    identical per-layer sample pattern that all fully interior rays share
    (the altitude ladder is the same for every ray, so without clipping the
    deposited weight per layer is proportional across rays and per-layer
    constant fields become invisible).
    """
    if grid is None:
        grid = desk_grid()
    rng = np.random.default_rng(0)
    xs = grid.axis_nodes("x")
    ys = grid.axis_nodes("y")
    stations = [
        Station(
            (
                float(np.clip(x + rng.uniform(-0.1, 0.1), grid.x_min, grid.x_max)),
                float(np.clip(y + rng.uniform(-0.1, 0.1), grid.y_min, grid.y_max)),
                0.0,
            )
        )
        for y in ys
        for x in xs
    ]
    emitters = [
        Emitter((float(u), float(v), grid.z_max))
        for v in np.linspace(0.1, 0.9, 3)
        for u in np.linspace(0.1, 0.9, 3)
    ]
    angles = np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False) + 0.3
    emitters += [
        Emitter((float(0.5 + 1.1 * np.cos(a)), float(0.5 + 1.1 * np.sin(a)), grid.z_max))
        for a in angles
    ]
    return take_rays(build_network(grid, stations, emitters, seed=0), 200)


# Marker nearest_node returns for points outside the inflated domain.
OUTSIDE = -1


def nearest_node(point, grid):
    """Linear index of the grid node closest to one point, or OUTSIDE."""
    linear, inside = _nearest_nodes(np.asarray(point, dtype=float).reshape(1, 3), grid)
    return int(linear[0]) if inside[0] else OUTSIDE


def adjoint_csr_copy(op, residual):
    """T^T r through a row-compressed copy of the transpose, built per call."""
    return op.matrix.T.tocsr() @ residual


def walk_ray_matrix(network, n_samples):
    """Dense ray-transform matrix assembled by a scalar reference walker."""
    grid = network.grid
    dense = np.zeros((len(network.rays), grid.n_nodes))
    for r, ray in enumerate(network.rays):
        z0 = ray.origin[2]
        sin_e = math.sin(ray.elevation)
        ladder = np.linspace(z0, grid.z_max, n_samples)
        inc = (grid.z_max - z0) / (n_samples - 1) / sin_e
        for m in range(n_samples):
            t = (ladder[m] - z0) / sin_e
            px = ray.origin[0] + t * ray.direction[0]
            py = ray.origin[1] + t * ray.direction[1]
            pz = ray.origin[2] + t * ray.direction[2]
            i = math.ceil((px - grid.x_min) / grid.dx - 0.5)
            j = math.ceil((py - grid.y_min) / grid.dy - 0.5)
            k = math.ceil((pz - grid.z_min) / grid.dz - 0.5)
            if not (0 <= i < grid.nx and 0 <= j < grid.ny and 0 <= k < grid.nz):
                continue
            w = inc if 0 < m < n_samples - 1 else 0.5 * inc
            dense[r, i + grid.nx * (j + grid.ny * k)] += w
    return dense


def assemble_per_ray(network, n_samples):
    """The ray operator assembled one ray at a time, with per-ray sampling.

    Same arithmetic as the library's one-pass assembly, written as a loop over
    rays with a scalar altitude ladder each, so the two must agree bit for bit.
    """
    grid = network.grid
    rows, cols, weights = [], [], []
    for j, ray in enumerate(network.rays):
        sin_e = math.sin(ray.elevation)
        z0 = ray.origin[2]
        eps = np.linspace(z0, grid.z_max, n_samples)
        t = (eps - z0) / sin_e
        origin = np.asarray(ray.origin, dtype=float)
        direction = np.asarray(ray.direction, dtype=float)
        points = origin[None, :] + t[:, None] * direction[None, :]
        increment = (grid.z_max - z0) / (n_samples - 1) / sin_e
        w = np.full(n_samples, increment)
        w[0] = 0.5 * increment
        w[-1] = 0.5 * increment
        linear, inside = _nearest_nodes(points, grid)
        if not inside.any():
            raise ValueError(f"ray {j} has no sample points inside the domain")
        rows.append(np.full(int(inside.sum()), j, dtype=np.int64))
        cols.append(linear[inside])
        weights.append(w[inside])
    matrix = sp.csr_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(network.rays), grid.n_nodes),
    )
    return SparseOperator(matrix)


def stencil_1d(line, idx, spacing):
    """Central difference with replicate padding on one extracted grid line."""
    lo = max(idx - 1, 0)
    hi = min(idx + 1, len(line) - 1)
    return (line[hi] - line[lo]) / (2.0 * spacing)


def difference_blocks(grid: Grid3) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """Central differences (Dx, Dy, Dz) on flat x-fastest vectors.

    Each block is n_nodes x n_nodes with two entries per row, -1/(2h) and
    +1/(2h).  Replicate padding clips the neighbor index at the boundary
    nodes, so the one-sided stencils keep the 1/(2h) scale.
    """
    n = grid.n_nodes
    node = np.arange(n)
    indptr = np.arange(0, 2 * n + 1, 2)
    blocks = []
    for count, stride, h in (
        (grid.nx, 1, grid.dx),
        (grid.ny, grid.nx, grid.dy),
        (grid.nz, grid.nx * grid.ny, grid.dz),
    ):
        position = (node // stride) % count
        lower = np.where(position > 0, node - stride, node)
        upper = np.where(position < count - 1, node + stride, node)
        w = 1.0 / (2.0 * h)
        data = np.tile([-w, w], n)
        indices = np.column_stack([lower, upper]).ravel()
        blocks.append(sp.csr_matrix((data, indices, indptr), shape=(n, n)))
    return tuple(blocks)


def _diffusion_columns(grid: Grid3) -> np.ndarray:
    """Column layout of diffusion_matrix_blocks, (n_nodes, 7) int32.

    Node i sits in rows lower_i and upper_i of each D_a; row k couples i to
    lower_k + upper_k - i.  Per row: the z, y, x partners through lower_i,
    the node itself, then the x, y, z partners through upper_i.
    """
    node = np.arange(grid.n_nodes, dtype=np.int32)
    partners = []
    for d in difference_blocks(grid):
        pairs = d.indices.reshape(-1, 2)
        partners.append(pairs.sum(axis=1, dtype=np.int32)[pairs] - node[:, None])
    x, y, z = partners
    return np.column_stack([z[:, 0], y[:, 0], x[:, 0], node, x[:, 1], y[:, 1], z[:, 1]])


def diffusion_matrix_blocks(gamma: np.ndarray, grid: Grid3) -> sp.csr_matrix:
    """The frozen diffusion operator read off the CSR difference blocks.

    Seven entries per row: per axis (with D_a's entries +-w_a) the two
    couplings -cell_volume w_a^2 gamma[k] for k in (lower_i, upper_i), and
    the diagonal, minus their sum.  diffusion_matrix must equal it bitwise.
    """
    gamma = np.asarray(gamma, dtype=float).ravel()
    n = grid.n_nodes
    if gamma.shape != (n,):
        raise ValueError(f"weights length {gamma.shape} does not match grid nodes {n}")
    data = np.zeros((n, 7))
    for a, d in enumerate(difference_blocks(grid)):
        couplings = -grid.cell_volume * d.data[1] ** 2 * gamma[d.indices.reshape(-1, 2)]
        data[:, 2 - a] = couplings[:, 0]
        data[:, 4 + a] = couplings[:, 1]
    # L annihilates constants, so each diagonal is minus its row's couplings
    data[:, 3] = -data.sum(axis=1)
    indptr = np.arange(0, 7 * n + 1, 7, dtype=np.int32)
    return sp.csr_matrix((data.ravel(), _diffusion_columns(grid).ravel(), indptr), shape=(n, n))


def diff_axis(field, axis):
    """Nodal derivative of the field along 'x', 'y' or 'z'."""
    blocks = dict(zip("xyz", difference_blocks(field.grid)))
    if axis not in blocks:
        raise ValueError(f"unknown axis {axis!r}")
    return Field(grid=field.grid, values=blocks[axis] @ field.values)


def tv_gradient(field, beta=1e-2):
    """The library's TV gradient alone."""
    return tv_value_and_gradient(field, beta)[1]


def _csr_root(field, beta):
    """The sparse products D_a @ v and sqrt(|grad|^2 + beta), flat."""
    beta = _check_beta(beta)
    parts = [d @ field.values for d in difference_blocks(field.grid)]
    return parts, np.sqrt(sum(np.square(p) for p in parts) + beta)


def smoothing_weights_csr(field, beta=1e-2):
    """Diffusion weights from the sparse difference products, (z,y,x)."""
    root = _csr_root(field, beta)[1]
    return (1.0 / root).reshape(field.grid.nz, field.grid.ny, field.grid.nx)


def _tv_value_and_gradient_products(field, beta, transposes):
    grid = field.grid
    parts, root = _csr_root(field, beta)
    value = float(root.sum() * grid.cell_volume)
    gamma = 1.0 / root
    grad = sum(t @ (gamma * p) for t, p in zip(transposes, parts)) * grid.cell_volume
    return value, grad


def tv_value_and_gradient_csr(field, beta=1e-2):
    """TV value and gradient applying row-compressed transposes D_a.T.tocsr()."""
    transposes = [d.T.tocsr() for d in difference_blocks(field.grid)]
    return _tv_value_and_gradient_products(field, beta, transposes)


def tv_value_and_gradient_transposing(field, beta=1e-2):
    """TV value and gradient with a fresh transpose D_a.T of each block per call."""
    transposes = [d.T for d in difference_blocks(field.grid)]
    return _tv_value_and_gradient_products(field, beta, transposes)


def tv_value_loops(field, beta):
    """Smoothed TV value by explicit triple loops over all nodes."""
    grid = field.grid
    arr = field.as_3d()
    total = 0.0
    for k in range(grid.nz):
        for j in range(grid.ny):
            for i in range(grid.nx):
                gx = stencil_1d(arr[k, j, :], i, grid.dx)
                gy = stencil_1d(arr[k, :, i], j, grid.dy)
                gz = stencil_1d(arr[:, j, i], k, grid.dz)
                total += math.sqrt(gx * gx + gy * gy + gz * gz + beta)
    return total * grid.cell_volume


def dense_diff_1d(n, spacing):
    """Dense matrix of the padded central difference on an n-point line."""
    out = np.zeros((n, n))
    for r in range(n):
        lo = max(r - 1, 0)
        hi = min(r + 1, n - 1)
        out[r, hi] += 1.0 / (2.0 * spacing)
        out[r, lo] -= 1.0 / (2.0 * spacing)
    return out


def dense_diff_matrices(grid):
    """The three flat-vector difference matrices for x-fastest ordering."""
    dx = dense_diff_1d(grid.nx, grid.dx)
    dy = dense_diff_1d(grid.ny, grid.dy)
    dz = dense_diff_1d(grid.nz, grid.dz)
    ex = np.eye(grid.nx)
    ey = np.eye(grid.ny)
    ez = np.eye(grid.nz)
    big_x = np.kron(ez, np.kron(ey, dx))
    big_y = np.kron(ez, np.kron(dy, ex))
    big_z = np.kron(dz, np.kron(ey, ex))
    return big_x, big_y, big_z


def dense_tv_gradient(field, beta):
    """TV gradient through an explicitly assembled dense diffusion matrix."""
    g2 = sum(np.square(mat @ field.values) for mat in dense_diff_matrices(field.grid))
    gamma = 1.0 / np.sqrt(g2 + beta)
    return dense_diffusion_matrix(gamma, field.grid) @ field.values


def dense_diffusion_matrix(gamma, grid):
    """Dense  V * sum_a Da^T diag(gamma) Da  for flat weights gamma."""
    out = np.zeros((grid.n_nodes, grid.n_nodes))
    for mat in dense_diff_matrices(grid):
        out += mat.T @ (gamma[:, None] * mat)
    return out * grid.cell_volume


def apply_weights_products(gamma, grid, vector):
    """The frozen diffusion operator as products: V * sum_a D_a^T (gamma * (D_a @ vector))."""
    blocks = difference_blocks(grid)
    return sum(d.T @ (gamma.ravel() * (d @ vector)) for d in blocks) * grid.cell_volume


def apply_L(field_at, vector, beta=1e-2):
    """The diffusion operator frozen at field_at, applied to a flat vector.

    Symmetric positive semidefinite; tv_gradient(f) == apply_L(f, f.values).
    """
    return apply_weights_products(smoothing_weights(field_at, beta), field_at.grid, vector)


def cgne_two_dots(apply_matrix, rhs, tol=1e-8, max_iterations=200, callback=None):
    """Conjugate gradients taking np.linalg.norm(r) and r @ r per iteration."""
    rhs = np.asarray(rhs, dtype=float)
    s = np.zeros_like(rhs)
    target = tol * float(np.linalg.norm(rhs))
    r = rhs.copy()
    if float(np.linalg.norm(r)) <= target:
        return s
    p = r.copy()
    rr = float(r @ r)
    for _ in range(max_iterations):
        hp = apply_matrix(p)
        php = float(p @ hp)
        if php <= 0.0:
            break
        a = rr / php
        s += a * p
        r -= a * hp
        rn = float(np.linalg.norm(r))
        if callback is not None:
            callback(rn)
        if rn <= target:
            break
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    return s


def dense_bfgs_inverse(pairs):
    """Inverse-Hessian matrix from scaled identity plus chronological updates."""
    s_last, y_last, _ = pairs[-1]
    n = s_last.size
    gamma = float(s_last @ y_last) / float(y_last @ y_last)
    h = gamma * np.eye(n)
    eye = np.eye(n)
    for s, y, rho in pairs:
        v = eye - rho * np.outer(s, y)
        h = v @ h @ v.T + rho * np.outer(s, s)
    return h


def rosenbrock(x):
    a, b = x
    value = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    grad = np.array(
        [
            -2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
            200.0 * (b - a * a),
        ]
    )
    return value, grad
