"""Regularized data-misfit functional and its gradient."""

from __future__ import annotations

import math
import weakref

import numpy as np

from .forward import SparseOperator
from .geometry import Grid3
from .tv import _check_beta, tv_value_and_gradient

PENALTIES = ("tv", "quadratic")


class Objective:
    """F(phi) = 0.5*||T phi - data||^2 + alpha * penalty(phi).

    penalty 'tv' is the smoothed total variation with parameter beta;
    'quadratic' is 0.5*||phi||^2.
    Every eval() increments the evaluation counter.  eval() keeps the
    squared residual norm it formed, with a weak reference to the array it
    evaluated, for discrepancy(); an evaluated array must not be changed in
    place.
    """

    def __init__(
        self,
        operator: SparseOperator,
        data: np.ndarray,
        alpha: float,
        grid: Grid3,
        penalty: str = "tv",
        beta: float = 1e-2,
    ):
        data = np.asarray(data, dtype=float)
        if data.shape != (operator.n_rows,):
            raise ValueError(
                f"data length {data.shape} does not match operator rows {operator.n_rows}"
            )
        if grid.n_nodes != operator.n_cols:
            raise ValueError(
                f"grid has {grid.n_nodes} nodes but operator has {operator.n_cols} columns"
            )
        if not (alpha > 0.0 and np.isfinite(alpha)):
            raise ValueError(f"regularization weight must be positive and finite, got {alpha}")
        if penalty not in PENALTIES:
            raise ValueError(f"unknown penalty {penalty!r}, expected one of {PENALTIES}")
        if penalty == "tv":
            beta = _check_beta(beta)
        self.operator = operator
        self.data = data
        self.alpha = float(alpha)
        self.grid = grid
        self.penalty = penalty
        self.beta = beta
        self.evaluations = 0
        self._evaluated = None

    def eval(self, phi: np.ndarray):
        """Return (value, gradient) at phi; value and gradient share one pass."""
        phi = np.asarray(phi, dtype=float)
        residual = self.operator.apply(phi) - self.data
        if self.penalty == "tv":
            pen_value, pen_grad = tv_value_and_gradient(phi, self.grid, self.beta)
        else:
            pen_value = 0.5 * float(phi @ phi)
            pen_grad = phi
        squared_misfit = float(residual @ residual)
        value = 0.5 * squared_misfit + self.alpha * pen_value
        gradient = self.operator.apply_adjoint(residual) + self.alpha * pen_grad
        self.evaluations += 1
        self._evaluated = (weakref.ref(phi), squared_misfit)
        return value, gradient

    def discrepancy(self, phi: np.ndarray) -> float:
        """||T phi - data||, monitored but never used as a stopping rule here.

        For the very array the last eval() took, the residual eval() formed
        gives it: numpy's norm of a vector is the square root of the same dot,
        so it is the recomputed value bit for bit.
        """
        if self._evaluated is not None:
            evaluated, squared_misfit = self._evaluated
            if evaluated() is phi:
                return math.sqrt(squared_misfit)
        phi = np.asarray(phi, dtype=float)
        return float(np.linalg.norm(self.operator.apply(phi) - self.data))
