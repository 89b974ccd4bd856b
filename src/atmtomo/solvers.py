"""Trust-region limited-memory BFGS and lagged-diffusivity fixed-point solvers."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .diagnostics import ConvergenceRecord, _values_of
from .phantom import Field
from .tv import apply_weights, smoothing_weights

TERMINATIONS = ("gradient-tol", "max-iter", "radius-collapse", "stagnation")

# an accepted step this small, five times in a row, means the iterates froze
_STAGNATION_TOL = 1e-14
_STAGNATION_RUNS = 5


@dataclass
class LbfgsOptions:
    memory: int = 10
    max_iterations: int = 1000
    grad_tol: float = 1e-8
    initial_radius: float = 1.0
    radius_floor: float = 1e-14
    radius_max: float = math.inf
    eta_accept: float = 0.25
    eta_grow: float = 0.75
    shrink: float = 0.25
    grow: float = 2.0
    curvature_threshold: float = 1e-12

    def __post_init__(self):
        if self.memory < 1:
            raise ValueError(f"memory must be >= 1, got {self.memory}")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not 0.0 < self.eta_accept < self.eta_grow < 1.0:
            raise ValueError("need 0 < eta_accept < eta_grow < 1")
        if not self.shrink < 1.0 < self.grow:
            raise ValueError("need shrink < 1 < grow")
        if not 0.0 < self.initial_radius <= self.radius_max:
            raise ValueError("need 0 < initial_radius <= radius_max")
        if self.radius_floor <= 0.0:
            raise ValueError("radius_floor must be positive")


class LbfgsHistory:
    """Curvature-filtered ring buffer of (step, gradient change, 1/(y.s)) pairs."""

    def __init__(self, memory: int = 10, curvature_threshold: float = 1e-12):
        self._pairs: deque = deque(maxlen=memory)
        self.curvature_threshold = curvature_threshold

    def __len__(self) -> int:
        return len(self._pairs)

    def push(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Store the pair unless its curvature y.s is too small; returns stored?"""
        sy = float(s @ y)
        bound = self.curvature_threshold * float(np.linalg.norm(s) * np.linalg.norm(y))
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


@dataclass
class SolveResult:
    field: object
    iterations: int
    termination: str
    records: list = field(default_factory=list)
    seconds: float = 0.0


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
        self.records.append(rec)
        if self.callback is not None:
            self.callback(rec)

    def finish(self, phi, iterations: int, termination: str) -> SolveResult:
        """The result: phi as a Field when the objective has a grid."""
        grid = getattr(self.objective, "grid", None)
        return SolveResult(
            field=phi if grid is None else Field(grid=grid, values=phi),
            iterations=iterations,
            termination=termination,
            records=self.records,
            seconds=perf_counter() - self.t0,
        )


def lbfgs_trust_region(
    objective,
    phi0,
    options: LbfgsOptions | None = None,
    truth=None,
    callback=None,
) -> SolveResult:
    """Minimize objective.eval with a trust-region limited-memory BFGS iteration.

    The quasi-Newton direction is clipped to the trust radius; when it is not
    a descent direction the step falls back to the Cauchy point.  Step quality
    ratio below eta_accept rejects the step and shrinks the radius; quality
    above eta_grow with the step on the boundary doubles it.  Every attempted
    iteration appends one convergence record.
    """
    opts = options if options is not None else LbfgsOptions()
    recorder = _Recorder(objective, truth, callback)
    phi, value, grad, grad_norm = recorder.start(phi0)
    history = LbfgsHistory(opts.memory, opts.curvature_threshold)
    radius = opts.initial_radius
    stagnant = 0
    iteration = 0
    termination = "max-iter"

    while True:
        if grad_norm <= opts.grad_tol:
            termination = "gradient-tol"
            break
        if iteration >= opts.max_iterations:
            termination = "max-iter"
            break
        iteration += 1

        d = two_loop_direction(history, grad)
        gd = float(grad @ d)
        dn = float(np.linalg.norm(d))
        if gd < 0.0 and dn > 0.0:
            t = 1.0 if dn <= radius else radius / dn
            p = d if t == 1.0 else t * d
            hit_boundary = t < 1.0
            if len(history) == 0:
                predicted = -float(grad @ p)
            else:
                # model curvature along the clipped quasi-Newton step:
                # B p = -t g exactly, so the quadratic term is known in closed form
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

        if ratio >= opts.eta_accept:
            history.push(p, trial_grad - grad)
            step_norm = float(np.linalg.norm(p))
            relative_move = step_norm / max(1.0, float(np.linalg.norm(phi)))
            phi, value, grad = trial, trial_value, trial_grad
            grad_norm = float(np.linalg.norm(grad))
            if ratio >= opts.eta_grow and hit_boundary:
                radius = min(opts.grow * radius, opts.radius_max)
            recorder.push(iteration, phi, value, grad_norm, step_norm)
            if relative_move < _STAGNATION_TOL:
                stagnant += 1
                if stagnant >= _STAGNATION_RUNS:
                    termination = "stagnation"
                    break
            else:
                stagnant = 0
        else:
            radius *= opts.shrink
            recorder.push(iteration, phi, value, grad_norm, 0.0)
            if radius < opts.radius_floor:
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
        rn = float(np.linalg.norm(r))
        if callback is not None:
            callback(rn)
        if rn <= target:
            break
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    return s


def ldfp(
    objective,
    phi0,
    inner_tol: float = 1e-8,
    inner_max_iterations: int = 200,
    max_iterations: int = 30,
    grad_tol: float = 0.0,
    truth=None,
    callback=None,
) -> SolveResult:
    """Lagged-diffusivity fixed-point iteration for the smoothed-TV objective.

    Each outer step freezes the diffusion weights at the current iterate,
    solves (T^T T + alpha L) s = -gradient with conjugate gradients, and takes
    the full step.  The default zero gradient tolerance runs the fixed number
    of outer iterations.
    """
    if getattr(objective, "penalty", None) != "tv":
        raise ValueError("lagged diffusivity needs the smoothed-tv penalty")
    op = objective.operator
    grid = objective.grid
    alpha = objective.alpha
    beta = objective.beta

    recorder = _Recorder(objective, truth, callback)
    phi, value, grad, grad_norm = recorder.start(phi0)
    iteration = 0
    termination = "max-iter"
    while True:
        if grad_norm <= grad_tol:
            termination = "gradient-tol"
            break
        if iteration >= max_iterations:
            termination = "max-iter"
            break
        iteration += 1

        gamma = smoothing_weights(Field(grid=grid, values=phi), beta)

        def apply_h(v, gamma=gamma):
            return op.apply_adjoint(op.apply(v)) + alpha * apply_weights(gamma, grid, v)

        step = cgne(apply_h, -grad, tol=inner_tol, max_iterations=inner_max_iterations)
        phi = phi + step
        value, grad = _checked_eval(objective, phi, f"at outer iteration {iteration}")
        grad_norm = float(np.linalg.norm(grad))
        recorder.push(iteration, phi, value, grad_norm, float(np.linalg.norm(step)))

    return recorder.finish(phi, iteration, termination)
