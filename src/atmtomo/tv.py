"""Smoothed total variation on one stencil: value, gradient, lagged diffusion operator.

The stencil runs as one compiled kernel (_stencil.c) when it builds and
loads, and otherwise as the numpy stencil here, which is its reference: each
node performs the same operations in the same order on both, so the results
are the same bits.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _kernel
from .geometry import Grid3

# the compiled stencil, or None when it did not build or load
_STENCIL = _kernel.shared()
# apply_weights' last compiled call with out, kept for a loop that repeats it
_BINDING = _kernel.Binding()


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"smoothing parameter must lie in (0, 1), got {beta}")
    return beta


def _field(values, grid: Grid3, what: str) -> np.ndarray:
    """The node vector values (_kernel.vector) as a (z, y, x) array."""
    values = _kernel.vector(values, grid.n_nodes, what, "grid nodes")
    return values.reshape(grid.nz, grid.ny, grid.nx)


def _compiled(grid: Grid3) -> bool:
    """Whether the compiled stencil may take fields of this grid.

    It checks no bounds itself: each axis must be at least 2 nodes long.  Its
    arrays come from _field or np.empty_like of one, of the grid's shape.
    """
    return _STENCIL is not None and min(grid.nz, grid.ny, grid.nx) >= 2


# per axis of a 3-D array, the index tuples of its faces at positions 0, 1, -2, -1
_END_FACES = tuple(
    tuple((slice(None),) * axis + (position,) for position in (0, 1, -2, -1)) for axis in range(3)
)


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
    first, second, penultimate, last = _END_FACES[axis]
    if adjoint:
        np.subtract(0.0 - x[first], x[second], out=out[first])
        np.add(x[penultimate], x[last], out=out[last])
    else:
        np.subtract(x[first], x[second], out=out[first])
        np.subtract(x[penultimate], x[last], out=out[last])
    return out


def _axes(grid: Grid3):
    """(axis of the (z, y, x) array, 1/(2h)) for x, y, z in that order."""
    return ((2, 1.0 / (2.0 * grid.dx)), (1, 1.0 / (2.0 * grid.dy)), (0, 1.0 / (2.0 * grid.dz)))


def _dimensions(grid: Grid3) -> tuple:
    """nz, ny, nx and 1/(2h) along x, y, z: the grid as the compiled stencil takes it."""
    return (grid.nz, grid.ny, grid.nx, *(w for _, w in _axes(grid)))


def _root(v: np.ndarray, grid: Grid3, beta: float) -> np.ndarray:
    """sqrt(|grad|^2 + beta) of a (z, y, x) array v, on either stencil.

    D_a v is the _shifted difference of (-w_a) v and the squares are summed
    in x, y, z order.  The numpy stencil keeps one difference at a time.
    """
    root = np.empty_like(v)
    if _compiled(grid):
        line = np.empty(grid.nx)
        _STENCIL.tv_root(v.ctypes.data, *_dimensions(grid), beta, line.ctypes.data, root.ctypes.data)
        return root
    scratch, diff = np.empty_like(v), np.empty_like(v)
    for i, (axis, w) in enumerate(_axes(grid)):
        # the first axis lands straight in root
        d = _shifted(np.multiply(-w, v, out=scratch), axis, adjoint=False, out=diff if i else root)
        np.square(d, out=d)
        if i:
            root += d
    root += beta
    return np.sqrt(root, out=root)


def _apply(g, grid: Grid3, v, out=None, bind=None) -> np.ndarray:
    """cell_volume * sum_a D_a^T (w_a ((D_a v) g)) for (z, y, x) arrays g and v, flat.

    D_a v is the _shifted difference of (-w_a) v and D_a^T u the adjoint
    _shifted difference of u; the axes are summed in x, y, z order.  The
    compiled stencil's scratch is two rows, made for each call, the numpy
    stencil's two fields besides the output.  With out (flat, checked) the
    result is added into it, out + result node by node, and out returned.
    The compiled call is bound, with its scratch, under the key bind, if given.
    """
    if _compiled(grid):
        result = np.empty(grid.n_nodes) if out is None else out
        line = np.empty(2 * grid.nx)
        call = functools.partial(
            _STENCIL.apply_l, v.ctypes.data, g.ctypes.data, *_dimensions(grid), grid.cell_volume,
            line.ctypes.data, None if out is None else out.ctypes.data, result.ctypes.data,
        )
        call()
        if bind is not None:
            _BINDING.bind(bind, call, line)
        return result
    result, scratch, diff = np.empty_like(v), np.empty_like(v), np.empty_like(v)
    for i, (axis, w) in enumerate(_axes(grid)):
        d = _shifted(np.multiply(-w, v, out=scratch), axis, adjoint=False, out=diff)
        d *= g
        d *= w
        # the first axis lands straight in the result
        _shifted(d, axis, adjoint=True, out=scratch if i else result)
        if i:
            result += scratch
    result *= grid.cell_volume
    if out is None:
        return result.ravel()
    out += result.ravel()
    return out


def smoothing_weights(values, grid: Grid3, beta: float = 1e-2) -> np.ndarray:
    """Diffusion weights 1/sqrt(|grad|^2 + beta) at the node vector values, (z,y,x)."""
    beta = _check_beta(beta)
    root = _root(_field(values, grid, "values"), grid, beta)
    return np.divide(1.0, root, out=root)


def tv_value_and_gradient(values, grid: Grid3, beta: float = 1e-2):
    """Smoothed TV of the node vector v and its gradient L(gamma(v)) v.

    The value is the cell-volume weighted sum of sqrt(|grad|^2 + beta) over
    all nodes, numpy's pairwise sum on either stencil.  The gradient is
    apply_weights(smoothing_weights(v), grid, v), byte for byte.
    """
    beta = _check_beta(beta)
    v = _field(values, grid, "values")
    root = _root(v, grid, beta)
    value = float(root.ravel().sum() * grid.cell_volume)
    return value, _apply(np.divide(1.0, root, out=root), grid, v)


def apply_weights(gamma, grid: Grid3, vector, out=None):
    """Apply the diffusion operator at weights gamma to a flat vector, matrix-free.

    L = cell_volume * sum_a D_a^T diag(gamma) D_a, symmetric positive
    semidefinite, with gamma flat or (z, y, x) as smoothing_weights returns
    it.  L is linear in gamma: L(alpha gamma) = alpha L(gamma).

    With out, L vector is added into it in place and out is returned,
    bitwise out + apply_weights(gamma, grid, vector): out must be a writable
    float64 C-contiguous array of grid.n_nodes entries that overlaps neither
    gamma nor vector.  The last such call is kept, holding its three arrays
    weakly, so a loop passing the same gamma, vector and out again repeats it
    without checks or pointer lookups.
    """
    if out is not None:
        call = _BINDING.get(_STENCIL, grid, gamma, vector, out)
        if call is not None:
            call()
            return out
    v = _field(vector, grid, "vector")
    g = _field(np.ravel(gamma), grid, "weights")
    bind = None
    if out is not None:
        _kernel.check_out(out, grid.n_nodes, v, g)
        # only a call on the arrays themselves, no checked copy, may be repeated
        if np.may_share_memory(v, vector) and np.may_share_memory(g, gamma):
            bind = (_STENCIL, grid, gamma, vector, out)
    return _apply(g, grid, v, out, bind)
