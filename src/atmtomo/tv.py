"""Smoothed total variation: value, gradient, and the lagged diffusion operator."""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from .geometry import Grid3
from .phantom import Field


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"smoothing parameter must lie in (0, 1), got {beta}")
    return beta


@functools.lru_cache(maxsize=8)
def difference_blocks(grid: Grid3) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """Central differences (Dx, Dy, Dz) on flat x-fastest vectors, cached per grid.

    Each block is n_nodes x n_nodes with two entries per row, -1/(2h) and
    +1/(2h).  Replicate padding clips the neighbor index at the boundary
    nodes, so the one-sided stencils keep the 1/(2h) scale.  The blocks are
    shared between callers and must not be modified.
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


def _shifted(x: np.ndarray, axis: int, adjoint: bool, out: np.ndarray) -> np.ndarray:
    """x[i-1] - x[i+1] along one axis of a C-ordered (z, y, x) array, into out.

    For a = -w v (w = 1/(2h)) this is D_a v: replicate clipping gives
    a[0] - a[1] and a[-2] - a[-1] at the ends.  For b = w u it is D_a^T u,
    whose end rows are (0 - b[0]) - b[1] and b[-2] + b[-1].  Each node
    performs the operations of its sparse row in their order, so the result
    is bitwise the sparse product.  The row's sum starts from +0.0, which
    only shows in the sign of a zero: the first adjoint row subtracts from
    +0.0 for it, and a field holding -0.0 can still flip a zero's sign.
    """
    s = x.strides[axis] // x.itemsize
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    # one contiguous pass; it wraps across lines only at the end rows
    np.subtract(flat[: -2 * s], flat[2 * s :], out=flat_out[s:-s])
    x, o = np.moveaxis(x, axis, 0), np.moveaxis(out, axis, 0)
    if adjoint:
        np.subtract(0.0 - x[0], x[1], out=o[0])
        np.add(x[-2], x[-1], out=o[-1])
    else:
        np.subtract(x[0], x[1], out=o[0])
        np.subtract(x[-2], x[-1], out=o[-1])
    return out


def _axes(grid: Grid3):
    """(axis of the (z, y, x) array, 1/(2h)) for x, y, z in that order."""
    return ((2, 1.0 / (2.0 * grid.dx)), (1, 1.0 / (2.0 * grid.dy)), (0, 1.0 / (2.0 * grid.dz)))


def _root_of_differences(field: Field, beta: float):
    """([D_x v, D_y v, D_z v], sqrt(|grad|^2 + beta)) as (z, y, x) arrays.

    The squares are summed in x, y, z order.  Besides the four results only
    one scratch array of the field's size is allocated.
    """
    v = field.as_3d()
    scratch = np.empty_like(v)
    parts = [
        _shifted(np.multiply(-w, v, out=scratch), axis, adjoint=False, out=np.empty_like(v))
        for axis, w in _axes(field.grid)
    ]
    root = np.square(parts[0])
    for p in parts[1:]:
        root += np.square(p, out=scratch)
    root += beta
    return parts, np.sqrt(root, out=root)


def smoothing_weights(field: Field, beta: float = 1e-2) -> np.ndarray:
    """Diffusion weights 1/sqrt(|grad|^2 + beta) evaluated at the field, (z,y,x)."""
    beta = _check_beta(beta)
    root = _root_of_differences(field, beta)[1]
    return np.divide(1.0, root, out=root)


def tv_value(field: Field, beta: float = 1e-2) -> float:
    """Cell-volume weighted sum of sqrt(|grad|^2 + beta) over all nodes."""
    beta = _check_beta(beta)
    root = _root_of_differences(field, beta)[1]
    return float(root.ravel().sum() * field.grid.cell_volume)


def tv_value_and_gradient(field: Field, beta: float = 1e-2):
    """Value and gradient from one set of differences; the gradient is L(field) @ field.

    The gradient is cell_volume * sum_a D_a^T (gamma * D_a v), the axes
    accumulated in x, y, z order into one buffer.
    """
    beta = _check_beta(beta)
    grid = field.grid
    parts, root = _root_of_differences(field, beta)
    value = float(root.ravel().sum() * grid.cell_volume)
    gamma = np.divide(1.0, root, out=root)
    # the y and z terms land in the x and y differences, spent by then
    terms = [np.empty_like(gamma), parts[0], parts[1]]
    for (axis, w), p, term in zip(_axes(grid), parts, terms):
        p *= gamma
        p *= w
        _shifted(p, axis, adjoint=True, out=term)
    grad = terms[0]
    grad += terms[1]
    grad += terms[2]
    grad *= grid.cell_volume
    return value, grad.ravel()


@functools.lru_cache(maxsize=8)
def _diffusion_columns(grid: Grid3) -> np.ndarray:
    """Column layout of diffusion_matrix, (n_nodes, 7) int32, cached per grid.

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
    columns = np.column_stack([z[:, 0], y[:, 0], x[:, 0], node, x[:, 1], y[:, 1], z[:, 1]])
    columns.flags.writeable = False  # every frozen matrix shares it as its indices
    return columns


def diffusion_matrix(gamma: np.ndarray, grid: Grid3) -> sp.csr_matrix:
    """The diffusion operator frozen at weights gamma, assembled once as CSR.

    L = cell_volume * sum_a D_a^T diag(gamma) D_a, symmetric positive
    semidefinite, with exactly seven stored entries per row: per axis (with
    D_a's entries +-w_a) the two couplings -cell_volume w_a^2 gamma[k] for k
    in (lower_i, upper_i), and the diagonal, minus their sum.  On a 2-node
    axis both couplings fall in one column and are kept as two entries.
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


def apply_weights(frozen: sp.csr_matrix, grid: Grid3, vector: np.ndarray) -> np.ndarray:
    """Apply a diffusion_matrix to a flat vector (one freeze, many applies)."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (grid.n_nodes,):
        raise ValueError(
            f"vector length {vector.shape} does not match grid nodes {grid.n_nodes}"
        )
    return frozen @ vector
