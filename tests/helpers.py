"""Brute-force reference implementations and adapters used by the tests.

Everything here is written with scalar loops and dense matrices on purpose:
slow, obvious code that the fast vectorized library is checked against.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

import atmtomo.forward
import atmtomo.solvers
import atmtomo.tv
from atmtomo import (
    Field,
    SparseOperator,
    build_network,
    make_grid,
    place_network,
    take_rays,
)
from atmtomo.forward import _nearest_nodes
from atmtomo.geometry import Rays
from atmtomo.geometry import _LATERAL_EXTENSION, Grid3
from atmtomo.tv import _check_beta, smoothing_weights, tv_value_and_gradient

_criteria_lines = []


def without_kernels(monkeypatch):
    """Make every module with a compiled path run its numpy code instead."""
    monkeypatch.setattr(atmtomo.tv, "_STENCIL", None)
    monkeypatch.setattr(atmtomo.forward, "_KERNEL", None)
    monkeypatch.setattr(atmtomo.solvers, "_KERNEL", None)


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
        (
            float(np.clip(x + rng.uniform(-0.1, 0.1), grid.x_min, grid.x_max)),
            float(np.clip(y + rng.uniform(-0.1, 0.1), grid.y_min, grid.y_max)),
            0.0,
        )
        for y in ys
        for x in xs
    ]
    emitters = [
        (float(u), float(v), grid.z_max)
        for v in np.linspace(0.1, 0.9, 3)
        for u in np.linspace(0.1, 0.9, 3)
    ]
    angles = np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False) + 0.3
    emitters += [
        (float(0.5 + 1.1 * np.cos(a)), float(0.5 + 1.1 * np.sin(a)), grid.z_max)
        for a in angles
    ]
    return take_rays(build_network(grid, stations, emitters), 200)


@dataclass(frozen=True)
class Ray:
    """One ray's fields as Python values: what the per-pair and per-ray oracles read.

    direction is the unit vector, elevation = arcsin(direction_z) in (0, pi/2],
    azimuth = atan2(dir_y, dir_x) folded into [0, 2*pi).
    """

    origin: tuple[float, float, float]
    direction: tuple[float, float, float]
    elevation: float
    azimuth: float
    station_index: int = 0
    emitter_index: int = 0


def ray_from_pair_scalar(station, emitter, station_index=0, emitter_index=0):
    """One station -> emitter Ray from xyz positions, a per-pair norm and scalar angles."""
    s = np.asarray(station, dtype=float)
    diff = np.asarray(emitter, dtype=float) - s
    length = float(np.linalg.norm(diff))
    if length == 0.0:
        raise ValueError("station and emitter coincide, ray direction undefined")
    direction = diff / length
    if direction[2] <= 0.0:
        raise ValueError(
            f"emitter must lie above the station, got direction_z = {direction[2]!r}"
        )
    elevation = math.asin(min(1.0, float(direction[2])))
    azimuth = math.atan2(float(direction[1]), float(direction[0])) % (2.0 * math.pi)
    return Ray(tuple(s), tuple(direction), elevation, azimuth, station_index, emitter_index)


def segment_intersects_box(origin, direction, t_max, grid):
    """Clip the segment origin + t*direction, t in [0, t_max], against the box."""
    t_lo, t_hi = 0.0, t_max
    bounds = ((grid.x_min, grid.x_max), (grid.y_min, grid.y_max), (grid.z_min, grid.z_max))
    for a in range(3):
        lo, hi = bounds[a]
        o, d = origin[a], direction[a]
        if abs(d) < 1e-300:
            if o < lo or o > hi:
                return False
            continue
        t1, t2 = (lo - o) / d, (hi - o) / d
        if t1 > t2:
            t1, t2 = t2, t1
        t_lo = max(t_lo, t1)
        t_hi = min(t_hi, t2)
        if t_lo > t_hi:
            return False
    return True


def is_admissible_scalar(ray, grid):
    """The admissibility rules checked one at a time on one ray."""
    if not 0.0 < ray.elevation < math.pi:
        return False
    z0 = ray.origin[2]
    if grid.z_max <= z0:
        return False
    t_top = (grid.z_max - z0) / math.sin(ray.elevation)
    return segment_intersects_box(ray.origin, ray.direction, t_top, grid)


def build_network_per_pair(grid, stations, emitters):
    """The admissible rays built one station-emitter pair at a time, a tuple of Ray.

    Same arithmetic as the library's one-pass build, written as a loop over
    pairs in station-major, emitter-minor order, so the two must agree bit
    for bit.
    """
    rays = []
    for si, station in enumerate(stations):
        for ei, emitter in enumerate(emitters):
            try:
                ray = ray_from_pair_scalar(station, emitter, si, ei)
            except ValueError:
                continue
            if is_admissible_scalar(ray, grid):
                rays.append(ray)
    return tuple(rays)


def listing_per_ray(emitters, rays):
    """network_listing's text read off a sequence of Ray, one ray at a time."""
    lines = []
    for ray in rays:
        values = (*ray.origin, *emitters[ray.emitter_index], ray.elevation, ray.azimuth)
        lines.append(" ".join(repr(float(v)) for v in values))
    return "\n".join(lines) + ("\n" if lines else "")


def place_positions_per_station(grid, n_stations, n_emitters, seed):
    """Station and emitter positions drawn one coordinate at a time.

    Returns (stations, emitters, next_draw): position tuples in place_network's
    order and the generator's next rng.random() after the last emitter.
    """
    rng = np.random.default_rng(seed)
    stations = []
    for _ in range(n_stations):
        x = rng.uniform(grid.x_min, grid.x_max)
        y = rng.uniform(grid.y_min, grid.y_max)
        stations.append((float(x), float(y), 0.0))
    half_x = 0.5 * _LATERAL_EXTENSION * (grid.x_max - grid.x_min)
    half_y = 0.5 * _LATERAL_EXTENSION * (grid.y_max - grid.y_min)
    mid_x = 0.5 * (grid.x_min + grid.x_max)
    mid_y = 0.5 * (grid.y_min + grid.y_max)
    emitters = []
    for _ in range(n_emitters):
        x = rng.uniform(mid_x - half_x, mid_x + half_x)
        y = rng.uniform(mid_y - half_y, mid_y + half_y)
        emitters.append((float(x), float(y), float(grid.z_max)))
    return stations, emitters, rng.random()


def raised_positions(grid, n_stations, n_emitters, seed):
    """place_network's positions with the stations lifted off the ground.

    Returns (stations, emitters) as (N, 3) arrays for build_network; each
    station sits at a random altitude in [z_min, z_min + 0.5), which
    place_network never makes.
    """
    network = place_network(grid, n_stations, n_emitters, seed)
    stations = network.stations.copy()
    lift = np.random.default_rng(seed + 1).uniform(0.0, 0.5, size=n_stations)
    stations[:, 2] = grid.z_min + lift
    return stations, network.emitters


def ray_objects(rays: Rays):
    """One Ray per row of a Rays, built from flat per-column lists."""
    origins = [tuple(row) for row in rays.origins.tolist()]
    dx, dy, dz = rays.directions.T.tolist()
    return tuple(
        Ray(origin, (x, y, z), elevation, math.atan2(y, x) % (2.0 * math.pi), si, ei)
        for origin, x, y, z, elevation, si, ei in zip(
            origins,
            dx,
            dy,
            dz,
            rays.elevations.tolist(),
            rays.station_indices.tolist(),
            rays.emitter_indices.tolist(),
        )
    )


def sample_ray_objects(rays, grid, n_samples):
    """Sample points of a sequence of Ray objects, row-interleaved (R, S, 3).

    The arrays are rebuilt from the objects' fields, then sampled with the
    library's operations in its order.
    """
    sin_e = np.array([math.sin(ray.elevation) for ray in rays], dtype=float)
    origins = np.array([ray.origin for ray in rays], dtype=float).reshape(-1, 3)
    z0 = origins[:, 2]
    t = np.linspace(z0, grid.z_max, n_samples, axis=1)
    t -= z0[:, None]
    t /= sin_e[:, None]
    directions = np.array([ray.direction for ray in rays], dtype=float).reshape(-1, 3)
    points = t[:, :, None] * directions[:, None, :]
    points += origins[:, None, :]
    increments = (grid.z_max - z0) / (n_samples - 1) / sin_e
    return points, increments


def nearest_nodes_rows(points, grid):
    """Nearest node of each (x, y, z) row of an (N, 3) array: (linear, inside)."""
    ix = np.ceil((points[:, 0] - grid.x_min) / grid.dx - 0.5).astype(np.int64)
    iy = np.ceil((points[:, 1] - grid.y_min) / grid.dy - 0.5).astype(np.int64)
    iz = np.ceil((points[:, 2] - grid.z_min) / grid.dz - 0.5).astype(np.int64)
    inside = (
        (ix >= 0) & (ix < grid.nx)
        & (iy >= 0) & (iy < grid.ny)
        & (iz >= 0) & (iz < grid.nz)
    )
    return ix + grid.nx * (iy + grid.ny * iz), inside


def assemble_objects(rays, grid, n_samples):
    """The one-pass ray operator read off a sequence of Ray.

    Rows are sampled from the rebuilt arrays and snapped row-interleaved;
    assemble_operator on the array network must equal it bit for bit.
    """
    n_rays = len(rays)
    points, increments = sample_ray_objects(rays, grid, n_samples)
    linear, inside = nearest_nodes_rows(points.reshape(-1, 3), grid)
    inside = inside.reshape(n_rays, n_samples)
    weights = np.repeat(increments, n_samples).reshape(n_rays, n_samples)
    weights[:, [0, -1]] *= 0.5
    indptr = np.concatenate(([0], np.cumsum(inside.sum(axis=1))))
    matrix = sp.csr_matrix(
        (weights[inside], linear[inside.ravel()], indptr),
        shape=(n_rays, grid.n_nodes),
    )
    return scipy_operator(matrix)


def linear_index(grid, i, j, k):
    """Flat index of node (i, j, k); nodes are numbered x-fastest."""
    return i + grid.nx * (j + grid.ny * k)


def node_position(grid, i, j, k):
    """Coordinates of node (i, j, k)."""
    return np.array(
        [grid.x_min + i * grid.dx, grid.y_min + j * grid.dy, grid.z_min + k * grid.dz]
    )


# Marker nearest_node returns for points outside the inflated domain.
OUTSIDE = -1


def nearest_node(point, grid):
    """Linear index of the grid node closest to one point, or OUTSIDE."""
    linear, inside = _nearest_nodes(np.array(point, dtype=float).reshape(3, 1), grid)
    return int(linear[0]) if inside[0] else OUTSIDE


def to_scipy(op):
    """The operator's arrays as a scipy CSR matrix: the reference for its
    products, its dense form and its slices."""
    m = op.matrix
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def scipy_canonical(data, indices, indptr, n_cols):
    """scipy's canonical CSR matrix of copies of these arrays: each row sorted
    by column (sort_indices) and its duplicates summed (sum_duplicates)."""
    matrix = sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, n_cols), copy=True)
    matrix.sum_duplicates()
    matrix.sort_indices()
    return matrix


def scipy_operator(matrix):
    """A SparseOperator on scipy's canonical form of a CSR matrix."""
    m = scipy_canonical(matrix.data, matrix.indices, matrix.indptr, matrix.shape[1])
    return SparseOperator(m.data, m.indices, m.indptr, m.shape[1])


def adjoint_csr_copy(op, residual):
    """T^T r through a row-compressed copy of the transpose, built per call."""
    return to_scipy(op).T.tocsr() @ residual


def minimum_norm_solution(op, data, alpha=0.0):
    """x = T^T (T T^T + alpha I)^-1 f.

    At alpha = 0 this is x_mn, the least-squares point in the range of T^T;
    at alpha > 0 it is the minimizer of 0.5*||T x - f||^2 + 0.5*alpha*||x||^2,
    the objective's quadratic penalty.  T T^T is only rays x rays: formed by
    scipy's sparse product, never from a dense T, and solved by Cholesky,
    each step a triangular solve.
    """
    t = to_scipy(op)
    gram = (t @ t.T).toarray()
    gram.flat[:: len(gram) + 1] += alpha
    lower = np.linalg.cholesky(gram)
    z = scipy.linalg.solve_triangular(lower, data, lower=True)
    z = scipy.linalg.solve_triangular(lower.T, z, lower=False)
    return op.apply_adjoint(z)


def walk_ray_matrix(network, n_samples):
    """Dense ray-transform matrix assembled by a scalar reference walker."""
    grid = network.grid
    dense = np.zeros((len(network.rays), grid.n_nodes))
    for r, ray in enumerate(ray_objects(network.rays)):
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
    for j, ray in enumerate(ray_objects(network.rays)):
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
        linear, inside = nearest_nodes_rows(points, grid)
        if not inside.any():
            raise ValueError(f"ray {j} has no sample points inside the domain")
        rows.append(np.full(int(inside.sum()), j, dtype=np.int64))
        cols.append(linear[inside])
        weights.append(w[inside])
    matrix = sp.csr_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(network.rays), grid.n_nodes),
    )
    return scipy_operator(matrix)


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


def diff_axis(field, axis):
    """Nodal derivative of the field along 'x', 'y' or 'z'."""
    blocks = dict(zip("xyz", difference_blocks(field.grid)))
    if axis not in blocks:
        raise ValueError(f"unknown axis {axis!r}")
    return Field(grid=field.grid, values=blocks[axis] @ field.values)


def tv_gradient(field, beta=1e-2):
    """The library's TV gradient alone."""
    return tv_value_and_gradient(field.values, field.grid, beta)[1]


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
    gamma = smoothing_weights(field_at.values, field_at.grid, beta)
    return apply_weights_products(gamma, field_at.grid, vector)


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


def two_loop_oracle(pairs, gradient):
    """-H*gradient by the two-loop recursion over chronological (s, y, 1/(y.s)) pairs."""
    if not pairs:
        return -gradient
    q = gradient.astype(float, copy=True)
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    s_last, y_last, _ = pairs[-1]
    gamma = float(s_last @ y_last) / float(y_last @ y_last)
    r = gamma * q
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ r)
        r += (a - b) * s
    return -r


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
