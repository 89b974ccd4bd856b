"""Smoothed total variation: value, gradient, and the lagged diffusion operator."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .geometry import Grid3
from .phantom import Field


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"smoothing parameter must lie in (0, 1), got {beta}")
    return beta


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


def diffusion_matrix(gamma: np.ndarray, grid: Grid3) -> sp.csr_matrix:
    """The diffusion operator frozen at weights gamma, assembled once as CSR.

    L = cell_volume * sum_a D_a^T diag(gamma) D_a, symmetric positive
    semidefinite, with exactly seven stored entries per row.  On each axis
    line, row k of D_a holds -w_a at lower_k = max(k-1, 0) and +w_a at
    upper_k = min(k+1, count-1), so node i meets the rows k in (lower_i,
    upper_i), each coupling it to lower_k + upper_k - i with weight
    -cell_volume w_a^2 gamma[k].  A row holds the z, y, x couplings through
    lower_i, the diagonal, minus their sum, then the x, y, z couplings
    through upper_i.  On a 2-node axis both couplings fall in one column
    and are kept as two entries.
    """
    gamma = np.asarray(gamma, dtype=float).ravel()
    n = grid.n_nodes
    if gamma.shape != (n,):
        raise ValueError(f"weights length {gamma.shape} does not match grid nodes {n}")
    g = gamma.reshape(grid.nz, grid.ny, grid.nx)
    node = np.arange(n, dtype=np.int32).reshape(g.shape)
    data = np.zeros(g.shape + (7,))
    columns = np.empty(g.shape + (7,), dtype=np.int32)
    columns[..., 3] = node
    for a, (axis, w) in enumerate(_axes(grid)):
        pos = np.arange(g.shape[axis])
        lower = np.maximum(pos - 1, 0)
        upper = np.minimum(pos + 1, pos.size - 1)
        for slot, k in ((2 - a, lower), (4 + a, upper)):
            data[..., slot] = -grid.cell_volume * w**2 * np.take(g, k, axis)
            columns[..., slot] = np.take(node, lower[k] + upper[k] - pos, axis)
    # L annihilates constants, so each diagonal is minus its row's couplings
    data[..., 3] = -data.sum(axis=-1)
    indptr = np.arange(0, 7 * n + 1, 7, dtype=np.int32)
    return sp.csr_matrix((data.ravel(), columns.ravel(), indptr), shape=(n, n))


def apply_weights(frozen: sp.csr_matrix, grid: Grid3, vector: np.ndarray) -> np.ndarray:
    """Apply a diffusion_matrix to a flat vector (one freeze, many applies)."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (grid.n_nodes,):
        raise ValueError(
            f"vector length {vector.shape} does not match grid nodes {grid.n_nodes}"
        )
    return frozen @ vector
