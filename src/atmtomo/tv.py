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


@functools.lru_cache(maxsize=8)
def _transposed_blocks(grid: Grid3) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """(Dx^T, Dy^T, Dz^T) as read-only CSR, cached per grid.

    A row of D_a^T sums its terms in ascending column order, the order the
    column-compressed view D_a.T sums them, so the products are bitwise equal.
    """
    blocks = []
    for d in difference_blocks(grid):
        t = d.T.tocsr()
        for array in (t.data, t.indices, t.indptr):
            array.flags.writeable = False
        blocks.append(t)
    return tuple(blocks)


def smoothing_weights(field: Field, beta: float = 1e-2) -> np.ndarray:
    """Diffusion weights 1/sqrt(|grad|^2 + beta) evaluated at the field, (z,y,x)."""
    beta = _check_beta(beta)
    g2 = sum(np.square(d @ field.values) for d in difference_blocks(field.grid))
    return (1.0 / np.sqrt(g2 + beta)).reshape(field.grid.nz, field.grid.ny, field.grid.nx)


def tv_value(field: Field, beta: float = 1e-2) -> float:
    """Cell-volume weighted sum of sqrt(|grad|^2 + beta) over all nodes."""
    beta = _check_beta(beta)
    g2 = sum(np.square(d @ field.values) for d in difference_blocks(field.grid))
    return float(np.sqrt(g2 + beta).sum() * field.grid.cell_volume)


def tv_value_and_gradient(field: Field, beta: float = 1e-2):
    """Value and gradient from one set of differences; the gradient is L(field) @ field."""
    beta = _check_beta(beta)
    grid = field.grid
    parts = [d @ field.values for d in difference_blocks(grid)]
    root = np.sqrt(sum(np.square(p) for p in parts) + beta)
    value = float(root.sum() * grid.cell_volume)
    gamma = 1.0 / root
    transposed = _transposed_blocks(grid)
    grad = sum(t @ (gamma * p) for t, p in zip(transposed, parts)) * grid.cell_volume
    return value, grad


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
