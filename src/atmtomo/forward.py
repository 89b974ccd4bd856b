"""Discrete ray transform: nearest-node attribution of per-sample arc lengths."""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple

import numpy as np

from . import _kernel
from .geometry import Grid3, Network, sample_rays

# the compiled CSR kernels, or None when they did not build or load
_KERNEL = _kernel.shared()
_INDEX_LIMIT = np.iinfo(np.int32).max


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


class CsrArrays(NamedTuple):
    """Row-compressed arrays: row i holds data[k] at column indices[k] for k in
    [indptr[i], indptr[i+1]), columns strictly increasing along each row."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)


def _index_array(values, limit: int, what: str) -> np.ndarray:
    """values as a new int32 array, checked to be 1-D integers in [0, limit]."""
    values = np.asarray(values)
    if values.ndim != 1 or (values.size and values.dtype.kind not in "iu"):
        raise ValueError(f"{what} must be a 1-D integer array")
    if values.size and not (values.min() >= 0 and values.max() <= limit):
        raise ValueError(f"{what} must lie in [0, {limit}]")
    return values.astype(np.int32)


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every stored entry."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _canonical(data, indices, indptr, n_cols):
    """Each row sorted by column, the entries of one column summed in stored
    order: scipy's sort_indices then sum_duplicates, which the compiled pass
    runs in place.  Returns the canonical (data, indices, indptr)."""
    if _KERNEL is not None:
        pointers = (a.ctypes.data for a in (data, indices, indptr))
        _KERNEL.csr_canonical(*pointers, len(indptr) - 1)
        nnz = indptr[-1]
        return data[:nnz], indices[:nnz], indptr
    rows = _entry_rows(indptr)
    keys = rows * n_cols + indices
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], data[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    summed = values[first]
    # the rest of each column's entries added one at a time, in order
    np.add.at(summed, np.cumsum(first)[~first] - 1, values[~first])
    # rows ascend in stored and in key order alike: rows[first] are the kept entries' rows
    counts = np.bincount(rows[first], minlength=len(indptr) - 1)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    return summed, indices[order][first], indptr


class SparseOperator:
    """Row-compressed ray transform.  Rows are rays, columns are grid nodes.

    The constructor copies its arrays, sorts each row by column and sums the
    entries of one column, as scipy's canonical CSR format holds them.  T sums
    each row from +0.0 in column order; Tᵀ scatters the rows onto the nodes in
    ascending row order, so each node's ray terms are summed from zero in
    ascending ray order.  Both are the bits of scipy's CSR and CSC products,
    from the compiled kernel or, without it, from ``np.bincount``.
    """

    def __init__(self, data, indices, indptr, n_cols: int):
        n_cols = operator.index(n_cols)
        data = np.array(data, dtype=np.float64)
        if data.ndim != 1:
            raise ValueError("data must be a 1-D array")
        if not 0 <= n_cols <= _INDEX_LIMIT or len(data) > _INDEX_LIMIT:
            raise ValueError(
                f"{len(data)} entries in {n_cols} columns do not fit int32 indices"
            )
        indices = _index_array(indices, n_cols - 1, "column indices")
        indptr = _index_array(indptr, len(data), "row pointers")
        if len(indices) != len(data):
            raise ValueError(f"{len(indices)} column indices for {len(data)} entries")
        if (
            len(indptr) == 0
            or indptr[0] != 0
            or indptr[-1] != len(data)
            or np.any(indptr[1:] < indptr[:-1])
        ):
            raise ValueError(f"row pointers must rise from 0 to the entry count {len(data)}")
        self._bind(*_canonical(data, indices, indptr, n_cols), n_cols)

    def _bind(self, data, indices, indptr, n_cols):
        # read-only: the compiled products trust the checked bounds
        for array in (data, indices, indptr):
            array.flags.writeable = False
        self.matrix = CsrArrays(data, indices, indptr, (len(indptr) - 1, n_cols))
        # taken once: looking them up on every product costs as much as a
        # small product
        self._pointers = (data.ctypes.data, indices.ctypes.data, indptr.ctypes.data)
        self._normal = _kernel.Binding()

    def __getstate__(self):
        m = self.matrix
        return m.data, m.indices, m.indptr, self.n_cols

    def __setstate__(self, state):
        # a copy or an unpickled operator takes its own arrays' pointers
        self._bind(*state)

    def first_rows(self, n_rows: int) -> SparseOperator:
        """The operator of the first n_rows rows, on views of these arrays."""
        n_rows = operator.index(n_rows)
        if not 0 <= n_rows <= self.n_rows:
            raise ValueError(f"row count must be in [0, {self.n_rows}], got {n_rows}")
        m = self.matrix
        end = m.indptr[n_rows]
        prefix = SparseOperator.__new__(SparseOperator)
        prefix._bind(m.data[:end], m.indices[:end], m.indptr[: n_rows + 1], self.n_cols)
        return prefix

    @functools.cached_property
    def _row_ids(self) -> np.ndarray:
        return _entry_rows(self.matrix.indptr)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def _field(self, values) -> np.ndarray:
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != (self.n_cols,):
            raise ValueError(
                f"field length {values.shape} does not match operator columns {self.n_cols}"
            )
        return values

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Forward map: per-ray weighted sums of nodal values."""
        values = self._field(values)
        if _KERNEL is None:
            m = self.matrix
            terms = m.data * np.take(values, m.indices)
            return np.bincount(self._row_ids, terms, minlength=self.n_rows)
        out = np.empty(self.n_rows)
        _KERNEL.csr_apply(*self._pointers, self.n_rows, values.ctypes.data, out.ctypes.data)
        return out

    def apply_adjoint(self, residual: np.ndarray) -> np.ndarray:
        """Adjoint map: spread per-ray values back onto their nodes."""
        residual = np.ascontiguousarray(residual, dtype=float)
        if residual.shape != (self.n_rows,):
            raise ValueError(
                f"residual length {residual.shape} does not match operator rows {self.n_rows}"
            )
        if _KERNEL is None:
            m = self.matrix
            terms = m.data * np.take(residual, self._row_ids)
            return np.bincount(m.indices, terms, minlength=self.n_cols)
        out = np.zeros(self.n_cols)
        _KERNEL.csr_adjoint(*self._pointers, self.n_rows, residual.ctypes.data, out.ctypes.data)
        return out

    def apply_normal(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Normal map Tᵀ(T values), bitwise apply_adjoint(apply(values)).

        The compiled kernel forms it in one pass over the rows, scattering
        each ray's sum as soon as it is formed.  out, if given, receives the
        result and is returned: a writable float64 C-contiguous array of one
        entry per column that does not overlap values.  The operator keeps
        its last call on out, so a loop passing the same values and out again
        repeats it without checks or pointer lookups.
        """
        if out is not None:
            call = self._normal.get(_KERNEL, values, out)
            if call is not None:
                call()
                return out
        checked = self._field(values)
        # only a call on the caller's arrays, no checked copy, may be repeated
        bind = out is not None and checked is values
        if out is None:
            out = np.empty(self.n_cols)
        else:
            _kernel.check_out(out, self.n_cols, checked)
        if _KERNEL is None:
            out[...] = self.apply_adjoint(self.apply(checked))
            return out
        call = functools.partial(
            _KERNEL.csr_normal, *self._pointers, self.n_rows, self.n_cols,
            checked.ctypes.data, out.ctypes.data,
        )
        call()
        if bind:
            self._normal.bind((_KERNEL, values, out), call)
        return out

    def row_sums(self) -> np.ndarray:
        return np.bincount(self._row_ids, self.matrix.data, minlength=self.n_rows)


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
    return SparseOperator(weights[inside], columns, indptr, grid.n_nodes)


def operator_listing(op: SparseOperator) -> str:
    """Text dump, one entry per line: row, column, weight."""
    m = op.matrix
    rows, columns, weights = op._row_ids.tolist(), m.indices.tolist(), m.data.tolist()
    lines = [f"{r} {c} {w!r}" for r, c, w in zip(rows, columns, weights)]
    return "\n".join(lines) + ("\n" if lines else "")


def dump_operator(op: SparseOperator, path) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(operator_listing(op))
    except OSError as exc:
        raise OSError(f"failed to write operator dump {path}: {exc}") from exc
