"""Discrete ray transform: nearest-node attribution of per-sample arc lengths."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .geometry import Grid3, Network, sample_rays

def _nearest_nodes(points: np.ndarray, grid: Grid3):
    """Nearest nodes of planar points: (linear indices of the inside points, inside mask).

    points is (3, ...), one plane per coordinate x, y, z, and is overwritten.
    Per axis the nearest index is ceil(t - 0.5) with t the fractional node
    coordinate, so exact midpoints round toward the lower index.  Points
    farther than half a spacing beyond the boundary nodes are not inside.
    The indices stay floats, exact at every inside point, until the inside
    ones are cast to integers.
    """
    inside = np.ones(points.shape[1:], dtype=bool)
    for p, low, spacing, count in zip(
        points,
        (grid.x_min, grid.y_min, grid.z_min),
        (grid.dx, grid.dy, grid.dz),
        (grid.nx, grid.ny, grid.nz),
    ):
        p -= low
        p /= spacing
        p -= 0.5
        np.ceil(p, out=p)
        inside &= p >= 0.0
        inside &= p < count
    ix, iy, linear = points
    linear *= grid.ny
    linear += iy
    linear *= grid.nx
    linear += ix
    return linear[inside].astype(np.int64), inside


class SparseOperator:
    """Row-compressed ray transform.  Rows are rays, columns are grid nodes.

    The adjoint is the transpose view of the same arrays (column-compressed),
    not a second copy: its product sums each node's ray terms from zero in
    ascending ray order, as a row-compressed copy of the transpose would.
    """

    def __init__(self, matrix: sp.csr_matrix):
        matrix = sp.csr_matrix(matrix)
        matrix.sum_duplicates()
        matrix.sort_indices()
        self.matrix = matrix
        self._adjoint = matrix.T

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Forward map: per-ray weighted sums of nodal values."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_cols,):
            raise ValueError(
                f"field length {values.shape} does not match operator columns {self.n_cols}"
            )
        return self.matrix @ values

    def apply_adjoint(self, residual: np.ndarray) -> np.ndarray:
        """Adjoint map: spread per-ray values back onto their nodes."""
        residual = np.asarray(residual, dtype=float)
        if residual.shape != (self.n_rows,):
            raise ValueError(
                f"residual length {residual.shape} does not match operator rows {self.n_rows}"
            )
        return self._adjoint @ residual

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()


def assemble_operator(network: Network, n_samples: int | None = None) -> SparseOperator:
    """Assemble the ray transform for every ray in the network.

    Each ray is sampled equispaced in altitude; every sample contributes its
    arc-length increment to the nearest node, with the two end samples
    carrying half an increment each (a sample owns the stretch of ray closer
    to it than to its neighbors, and the ends own half a cell).  Sample
    points outside the grid contribute nothing.
    """
    grid = network.grid
    if n_samples is None:
        n_samples = 2 * grid.nz
    n_rays = len(network.rays)
    points, increments = sample_rays(network.rays, grid, n_samples)
    columns, inside = _nearest_nodes(points, grid)
    del points
    counts = inside.sum(axis=1)
    if not counts.all():
        raise ValueError(
            f"ray {int(np.argmin(counts))} has no sample points inside the domain"
        )
    weights = np.repeat(increments, n_samples).reshape(n_rays, n_samples)
    weights[:, [0, -1]] *= 0.5
    # ray-major, samples in ladder order: duplicates of a node sum in the
    # order a per-ray assembly would sum them
    indptr = np.concatenate(([0], np.cumsum(counts)))
    matrix = sp.csr_matrix(
        (weights[inside], columns, indptr),
        shape=(n_rays, grid.n_nodes),
    )
    return SparseOperator(matrix)


def operator_listing(op: SparseOperator) -> str:
    """Text dump, one entry per line: row, column, weight."""
    coo = op.matrix.tocoo()
    lines = [f"{r} {c} {float(w)!r}" for r, c, w in zip(coo.row, coo.col, coo.data)]
    return "\n".join(lines) + ("\n" if lines else "")


def dump_operator(op: SparseOperator, path) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(operator_listing(op))
    except OSError as exc:
        raise OSError(f"failed to write operator dump {path}: {exc}") from exc
