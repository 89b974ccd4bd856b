"""Trust-region limited-memory BFGS and lagged-diffusivity fixed-point solvers."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from .diagnostics import ConvergenceRecord, _values_of
from .phantom import Field
from .tv import apply_weights, diffusion_matrix, smoothing_weights

# an accepted step this small, five times in a row, means the iterates froze
_STAGNATION_TOL = 1e-14
_STAGNATION_RUNS = 5

# trust-region policy (Nocedal & Wright, Numerical Optimization, Alg. 4.1)
_INITIAL_RADIUS = 1.0
_RADIUS_FLOOR = 1e-14
_ETA_ACCEPT = 0.25
_ETA_GROW = 0.75
_SHRINK = 0.25
_GROW = 2.0
# a pair with y.s <= this times |s||y| carries no usable curvature
_CURVATURE_THRESHOLD = 1e-12


@dataclass
class LbfgsOptions:
    memory: int = 10
    max_iterations: int = 1000
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.memory < 1:
            raise ValueError(f"memory must be >= 1, got {self.memory}")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not self.grad_tol >= 0.0:
            raise ValueError(f"grad_tol must be >= 0, got {self.grad_tol}")


class LbfgsHistory:
    """Curvature-filtered ring buffer of (step, gradient change, 1/(y.s)) pairs."""

    def __init__(self, memory: int = 10):
        self._pairs: deque = deque(maxlen=memory)

    def __len__(self) -> int:
        return len(self._pairs)

    def push(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Store the pair unless its curvature y.s is too small; returns stored?"""
        sy = float(s @ y)
        bound = _CURVATURE_THRESHOLD * float(np.linalg.norm(s) * np.linalg.norm(y))
        if sy <= bound:
            return False
        self._pairs.append((s.copy(), y.copy(), 1.0 / sy))
        return True

    @property
    def pairs(self):
        return tuple(self._pairs)

    def curvature_estimate(self) -> float:
        """Rayleigh estimate (y.y)/(y.s) from the most recent pair, 1 if empty."""
        if not self._pairs:
            return 1.0
        s, y, rho = self._pairs[-1]
        return float(y @ y) * rho


def two_loop_direction(history: LbfgsHistory, gradient: np.ndarray) -> np.ndarray:
    """Quasi-Newton direction -H*gradient via the two-loop recursion.

    The seed matrix is (s.y)/(y.y) times the identity, taken from the newest
    pair; with no pairs stored this is plain steepest descent.
    """
    pairs = history.pairs
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


@dataclass(frozen=True)
class InnerSolveStats:
    """How one LDFP outer step's inner conjugate-gradient solve ended.

    iterations counts CG steps taken, residual is the last recursive residual
    norm ||H s - rhs|| (||rhs|| when no step was taken), and hit_cap says the
    solve used all inner_max_iterations without reaching its tolerance.
    """

    iterations: int
    residual: float
    hit_cap: bool


@dataclass
class SolveResult:
    field: object
    iterations: int
    termination: str
    records: list = field(default_factory=list)
    seconds: float = 0.0
    inner_solves: list = field(default_factory=list)


def _checked_eval(objective, phi: np.ndarray, where: str):
    value, grad = objective.eval(phi)
    if not math.isfinite(value):
        raise ValueError(f"objective value is not finite {where}")
    return value, grad


class _Recorder:
    """The start and finish every solver shares, and one record per iteration."""

    def __init__(self, objective, truth, callback):
        self.objective = objective
        self.callback = callback
        self.records = []
        self.truth = None if truth is None else _values_of(truth)
        if self.truth is not None:
            self.truth_norm = float(np.linalg.norm(self.truth))
            if self.truth_norm == 0.0:
                raise ValueError("reference field has zero norm")
        self.t0 = perf_counter()

    def start(self, phi0):
        """Evaluate a copy of the starting point and record it as iteration 0."""
        phi = _values_of(phi0).copy()
        value, grad = _checked_eval(self.objective, phi, "at the starting point")
        grad_norm = float(np.linalg.norm(grad))
        self.push(0, phi, value, grad_norm, 0.0)
        return phi, value, grad, grad_norm

    def push(self, iteration, phi, value, grad_norm, step_norm):
        rel = None
        if self.truth is not None:
            rel = float(np.linalg.norm(phi - self.truth)) / self.truth_norm
        disc = 0.0
        if hasattr(self.objective, "discrepancy"):
            disc = float(self.objective.discrepancy(phi))
        rec = ConvergenceRecord(
            iteration=iteration,
            objective=float(value),
            step_norm=float(step_norm),
            relative_error=rel,
            gradient_norm=float(grad_norm),
            discrepancy=disc,
            seconds=perf_counter() - self.t0,
        )
        self._append(rec)

    def repeat(self, iteration):
        """Record an iteration that left phi where it was: the last record, no step."""
        seconds = perf_counter() - self.t0
        self._append(replace(self.records[-1], iteration=iteration, step_norm=0.0, seconds=seconds))

    def _append(self, rec):
        self.records.append(rec)
        if self.callback is not None:
            self.callback(rec)

    def finish(self, phi, iterations: int, termination: str, inner_solves=()) -> SolveResult:
        """The result: phi as a Field when the objective has a grid."""
        grid = getattr(self.objective, "grid", None)
        return SolveResult(
            field=phi if grid is None else Field(grid=grid, values=phi),
            iterations=iterations,
            termination=termination,
            records=self.records,
            seconds=perf_counter() - self.t0,
            inner_solves=list(inner_solves),
        )


def lbfgs_trust_region(
    objective,
    phi0,
    options: LbfgsOptions | None = None,
    truth=None,
    callback=None,
) -> SolveResult:
    """Minimize objective.eval with a trust-region limited-memory BFGS iteration.

    The quasi-Newton direction is clipped to the trust radius, which starts at
    1; when it is not a descent direction the step falls back to the Cauchy
    point.  A step whose actual/predicted reduction ratio is below 1/4 is
    rejected and the radius shrinks by a factor 4; a ratio of at least 3/4 with
    the step on the boundary doubles the radius.  The solve ends with
    radius-collapse once the radius falls below 1e-14.  Every attempted
    iteration appends one convergence record.  The quasi-Newton direction is
    computed at the start and after each accepted step only.
    """
    opts = options if options is not None else LbfgsOptions()
    recorder = _Recorder(objective, truth, callback)
    phi, value, grad, grad_norm = recorder.start(phi0)
    history = LbfgsHistory(opts.memory)
    radius = _INITIAL_RADIUS
    stagnant = 0
    iteration = 0
    termination = "max-iter"
    d = None

    while True:
        if grad_norm <= opts.grad_tol:
            termination = "gradient-tol"
            break
        if iteration >= opts.max_iterations:
            termination = "max-iter"
            break
        iteration += 1

        if d is None:
            # a rejected step changes only the radius, so d stands until a step is taken
            d = two_loop_direction(history, grad)
            gd = float(grad @ d)
            dn = float(np.linalg.norm(d))
        if gd < 0.0 and dn > 0.0:
            t = 1.0 if dn <= radius else radius / dn
            p = d if t == 1.0 else t * d
            hit_boundary = t < 1.0
            # model curvature along the clipped quasi-Newton step: B p = -t g
            # exactly (B = I with no stored pair), so the quadratic term is closed-form
            predicted = -float(grad @ p) * (1.0 - 0.5 * t)
        else:
            # uphill or zero direction: dogleg collapses to the Cauchy point
            curvature = history.curvature_estimate()
            tau = min(1.0 / curvature, radius / grad_norm)
            p = -tau * grad
            hit_boundary = tau >= radius / grad_norm
            predicted = tau * grad_norm**2 - 0.5 * curvature * (tau * grad_norm) ** 2

        trial = phi + p
        trial_value, trial_grad = _checked_eval(objective, trial, f"at iteration {iteration}")
        actual = value - trial_value
        ratio = actual / predicted if predicted > 0.0 else -math.inf

        if ratio >= _ETA_ACCEPT:
            history.push(p, trial_grad - grad)
            step_norm = float(np.linalg.norm(p))
            relative_move = step_norm / max(1.0, float(np.linalg.norm(phi)))
            phi, value, grad = trial, trial_value, trial_grad
            grad_norm = float(np.linalg.norm(grad))
            d = None
            if ratio >= _ETA_GROW and hit_boundary:
                radius *= _GROW
            recorder.push(iteration, phi, value, grad_norm, step_norm)
            if relative_move < _STAGNATION_TOL:
                stagnant += 1
                if stagnant >= _STAGNATION_RUNS:
                    termination = "stagnation"
                    break
            else:
                stagnant = 0
        else:
            radius *= _SHRINK
            recorder.repeat(iteration)
            if radius < _RADIUS_FLOOR:
                termination = "radius-collapse"
                break

    return recorder.finish(phi, iteration, termination)


def cgne(apply_matrix, rhs, tol: float = 1e-8, max_iterations: int = 200, callback=None):
    """Conjugate gradients on a symmetric positive semidefinite map.

    Starts from zero and stops when the recursive residual satisfies
    ||H s - rhs|| <= tol * ||rhs|| or the iteration cap is reached.  A clearly
    negative curvature p.Hp signals a non-PSD map and raises; a numerically
    zero one stalls and returns the current iterate.
    """
    rhs = np.asarray(rhs, dtype=float)
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
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
            scale = float(np.linalg.norm(p) * np.linalg.norm(hp))
            if php < -1e-12 * scale:
                raise ValueError(
                    f"conjugate gradient breakdown: p.Hp = {php!r} < 0, map is not PSD"
                )
            break
        a = rr / php
        s += a * p
        r -= a * hp
        # numpy's 2-norm of a real vector is sqrt(r . r), so one dot serves both
        rr_new = float(r @ r)
        rn = math.sqrt(rr_new)
        if callback is not None:
            callback(rn)
        if rn <= target:
            break
        p = r + (rr_new / rr) * p
        rr = rr_new
    return s


def ldfp(
    objective,
    phi0,
    inner_tol: float = 1e-8,
    inner_max_iterations: int = 200,
    max_iterations: int = 30,
    truth=None,
    callback=None,
) -> SolveResult:
    """Lagged-diffusivity fixed-point iteration for the smoothed-TV objective.

    Each outer step freezes the diffusion weights at the current iterate,
    assembles the frozen operator L once as a sparse matrix, solves
    (T^T T + alpha L) s = -gradient with conjugate gradients, and takes the
    full step.  It runs max_iterations (>= 0) outer steps and ends with max-iter.
    The result's inner_solves holds one InnerSolveStats per outer step.
    """
    if getattr(objective, "penalty", None) != "tv":
        raise ValueError("lagged diffusivity needs the smoothed-tv penalty")
    if max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")
    op = objective.operator
    grid = objective.grid
    alpha = objective.alpha
    beta = objective.beta

    recorder = _Recorder(objective, truth, callback)
    phi, value, grad, grad_norm = recorder.start(phi0)
    inner_solves = []
    for iteration in range(1, max_iterations + 1):
        frozen = diffusion_matrix(smoothing_weights(Field(grid=grid, values=phi), beta), grid)

        def apply_h(v):
            return op.apply_adjoint(op.apply(v)) + alpha * apply_weights(frozen, grid, v)

        residuals = [grad_norm]
        step = cgne(
            apply_h,
            -grad,
            tol=inner_tol,
            max_iterations=inner_max_iterations,
            callback=residuals.append,
        )
        del frozen, apply_h  # keep one frozen matrix alive at a time
        inner = len(residuals) - 1
        inner_solves.append(
            InnerSolveStats(
                iterations=inner,
                residual=residuals[-1],
                hit_cap=inner == inner_max_iterations and residuals[-1] > inner_tol * grad_norm,
            )
        )
        phi = phi + step
        value, grad = _checked_eval(objective, phi, f"at outer iteration {iteration}")
        grad_norm = float(np.linalg.norm(grad))
        recorder.push(iteration, phi, value, grad_norm, float(np.linalg.norm(step)))

    return recorder.finish(phi, len(inner_solves), "max-iter", inner_solves)
