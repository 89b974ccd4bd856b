"""Trust-region limited-memory BFGS and lagged-diffusivity fixed-point solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from . import _kernel, tv
from .diagnostics import ConvergenceRecord, _values_of
from .phantom import Field
from .tv import apply_weights, smoothing_weights

# the compiled CG updates and history passes, or None when they did not build or load
_KERNEL = _kernel.shared()

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
# columns per chunk of the L-BFGS history passes: the compiled passes share a
# pass's chunks between two threads, and every product sums over them in
# _numpy_dots' fixed order
_CHUNK = 1024


def _check_max_iterations(max_iterations: int) -> None:
    """The rule both solvers apply to their iteration budget."""
    if max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")


def _check_cg_settings(tol: float, max_iterations: int, names=("tol", "max_iterations")) -> None:
    """The rules cgne applies to its tolerance and iteration cap, each named as given."""
    if not tol >= 0.0:
        raise ValueError(f"{names[0]} must be >= 0, got {tol}")
    if max_iterations < 1:
        raise ValueError(f"{names[1]} must be >= 1")


@dataclass
class LbfgsOptions:
    memory: int = 10
    max_iterations: int = 1000
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.memory < 1:
            raise ValueError(f"memory must be >= 1, got {self.memory}")
        _check_max_iterations(self.max_iterations)
        if not self.grad_tol >= 0.0:
            raise ValueError(f"grad_tol must be >= 0, got {self.grad_tol}")


def _vector(a, n: int | None = None) -> np.ndarray:
    """a as a C-contiguous float64 vector, of n entries when n is given."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 1 or (n is not None and a.size != n):
        length = "" if n is None else f" of {n} entries"
        raise ValueError(f"expected a vector{length}, got shape {a.shape}")
    return a


def _numpy_dots(rows, vectors) -> np.ndarray:
    """rows[r] . vectors[j] for every pair, in block_dots' order, with numpy.

    Each dot sums over chunks of _CHUNK columns: in a chunk, entry i goes to
    lane i % 8 of 8 lanes that start from +0.0 and add in increasing i, and
    the lanes sum as ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)); the
    chunks' sums then add in chunk order.  numpy's reduce over an outer axis
    and its accumulate add in index order, and the zero products that pad the
    last chunk change no lane, since no lane is ever -0.0.  Like the kernel,
    it warns of no overflow or inf - inf.
    """
    rows = np.asarray(rows)
    n = rows.shape[1]
    if n == 0:
        return np.zeros((len(rows), len(vectors)))
    chunks = -(-n // _CHUNK)
    products = np.zeros((len(rows), chunks * _CHUNK))
    out = np.empty((len(rows), len(vectors)))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, vector in enumerate(vectors):
            np.multiply(rows, vector, out=products[:, :n])
            lanes = np.add.reduce(
                products.reshape(len(rows), chunks, _CHUNK // 8, 8), axis=2, initial=0.0
            )
            pairs = lanes[..., 0::2] + lanes[..., 1::2]
            quads = pairs[..., 0::2] + pairs[..., 1::2]
            out[:, j] = np.add.accumulate(quads[..., 0] + quads[..., 1], axis=1)[:, -1]
    return out


def _numpy_combine(first, block, coefficients) -> np.ndarray:
    """coefficients[0] first + coefficients[1 + r] block[r] summed in row order, with numpy."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.multiply(first, coefficients[0])
        work = np.empty_like(out)
        for row, c in zip(block, coefficients[1:]):
            out += np.multiply(row, c, out=work)
    return out


class _Passes:
    """A history block's two passes, and push's products of its pair.

    Compiled, the addresses of the block's rows and of the products' scratch
    are taken once, so each pass takes only those of the gradient, the
    pushed pair or the new direction (ndarray.ctypes.data, about 1.5-2 us
    each); without the kernels each pass is its numpy twin.  The block holds
    a y row and an s row per slot.  Callers hand C-contiguous float64
    vectors of the block's length, coefficients for at most every row, and
    pending rows numbered below the block's length, distinct and even; each
    result is a new array.  The scratch is the instance's own, so threads
    may share a block but not its _Passes.
    """

    def __init__(self, block: np.ndarray):
        self._block = block
        if _KERNEL is None:
            return
        rows, self._n = block.shape
        # the combination's rows: the gradient, then the block's; rows[1:] are the products'
        self._rows = np.empty(rows + 1, dtype=np.uintp)
        self._rows[1:] = block.ctypes.data + block.strides[0] * np.arange(rows, dtype=np.uintp)
        # the products' vectors: the gradient and at most one y row per slot
        self._vectors = np.empty(rows // 2 + 1, dtype=np.uintp)
        self._pair = np.empty(2, dtype=np.uintp)
        self._out = np.empty(rows * len(self._vectors))
        self._partials = np.empty(self._out.size * -(-self._n // _CHUNK))
        self._rows_at, self._vectors_at, self._pair_at, self._out_at, self._partials_at = (
            a.ctypes.data for a in (self._rows, self._vectors, self._pair, self._out, self._partials)
        )

    def __reduce__(self):
        # a copy binds the copied block: the addresses here are this one's
        return type(self), (self._block,)

    def _block_dots(self, rows_at: int, nrows: int, vectors_at: int, nvectors: int):
        _KERNEL.block_dots(
            rows_at, nrows, vectors_at, nvectors, self._n, _CHUNK, self._partials_at, self._out_at
        )
        return self._out[: nrows * nvectors].reshape(nrows, nvectors).copy()

    def pair(self, s: np.ndarray, y: np.ndarray) -> np.ndarray:
        """[[s.s, s.y], [y.s, y.y]]."""
        if _KERNEL is None:
            return _numpy_dots((s, y), (s, y))
        self._pair[0], self._pair[1] = s.ctypes.data, y.ctypes.data
        return self._block_dots(self._pair_at, 2, self._pair_at, 2)

    def products(self, nrows: int, gradient: np.ndarray, pending: list) -> np.ndarray:
        """The first nrows rows' products with gradient and with the rows numbered in pending."""
        if _KERNEL is None:
            return _numpy_dots(self._block[:nrows], [gradient, *(self._block[r] for r in pending)])
        self._vectors[0] = gradient.ctypes.data
        self._vectors[1 : 1 + len(pending)] = self._rows[1:][pending]
        return self._block_dots(
            self._rows_at + self._rows.itemsize, nrows, self._vectors_at, 1 + len(pending)
        )

    def combine(self, gradient: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
        """coefficients[0] gradient + coefficients[1 + r] block[r] summed in row order."""
        if _KERNEL is None:
            return _numpy_combine(gradient, self._block[: len(coefficients) - 1], coefficients)
        self._rows[0] = gradient.ctypes.data
        out = np.empty(self._n)
        _KERNEL.block_combine(
            self._rows_at,
            coefficients.ctypes.data,
            len(coefficients),
            self._n,
            _CHUNK,
            out.ctypes.data,
        )
        return out


class LbfgsHistory:
    """Curvature-filtered ring of the newest (step s, gradient change y) pairs.

    The pairs share one (2 * memory, n) block: slot i holds y in row 2i and
    s in row 2i + 1, so a direction adds each pair's y term before its s
    term (on a quadratic in one variable the g and y terms then cancel
    exactly, and the s term is the whole Newton step).  Beside it sit the
    tables s_i.y_j and y_i.y_j; a pushed slot's column is filled in by the
    next direction, which reads the block anyway.  Every product over the
    block, and the push's curvature test, sums as _numpy_dots does, and the
    direction as _numpy_combine does (through _Passes, compiled or not), so
    their bits do not depend on the thread count.
    """

    def __init__(self, memory: int = 10):
        if memory < 1:
            raise ValueError(f"memory must be >= 1, got {memory}")
        self._memory = memory
        self._block = None
        self._passes = None
        self._sy = np.zeros((memory, memory))
        self._yy = np.zeros((memory, memory))
        self._count = 0
        self._next = 0
        self._pending = []

    def __len__(self) -> int:
        return self._count

    def push(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Store the pair unless its curvature y.s is too small; returns stored?"""
        s = _vector(s, None if self._block is None else self._block.shape[1])
        y = _vector(y, s.size)
        # the first pair fixes the length, stored or not
        if self._block is None:
            self._block = np.empty((2 * self._memory, s.size))
            self._passes = _Passes(self._block)
        (ss, sy), (_, yy) = self._passes.pair(s, y).tolist()
        bound = _CURVATURE_THRESHOLD * (math.sqrt(ss) * math.sqrt(yy))
        # a NaN curvature is not above the bound either
        if not sy > bound:
            return False
        slot = self._next
        self._block[2 * slot] = y
        self._block[2 * slot + 1] = s
        if slot not in self._pending:
            self._pending.append(slot)
        self._next = (slot + 1) % self._memory
        self._count = min(self._count + 1, self._memory)
        return True

    def _slots(self) -> np.ndarray:
        """The stored slots, oldest first."""
        return (self._next - self._count + np.arange(self._count)) % self._memory

    @property
    def pairs(self):
        """Copies of the stored (s, y, 1/(y.s)), oldest first."""
        copies = [
            (self._block[2 * i + 1].copy(), self._block[2 * i].copy())
            for i in self._slots().tolist()
        ]
        return tuple((s, y, 1.0 / float(s @ y)) for s, y in copies)

    def _products(self, gradient: np.ndarray) -> np.ndarray:
        """Products of gradient with the rows in use: y_i and s_i by slot.

        The same pass over the block fills in the table columns of the slots
        pushed since the last call, from their y rows themselves: S^T y taken
        as the difference of two directions' S^T g cancels when |y| << |g|.
        """
        pending = [2 * slot for slot in self._pending]
        products = self._passes.products(2 * self._count, gradient, pending)
        for slot, column in zip(self._pending, products.T[1:]):
            self._sy[: self._count, slot] = column[1::2]
            self._yy[: self._count, slot] = self._yy[slot, : self._count] = column[0::2]
        self._pending.clear()
        return products[:, 0]


def two_loop_direction(history: LbfgsHistory, gradient: np.ndarray) -> np.ndarray:
    """Quasi-Newton direction -H*gradient, H the L-BFGS inverse Hessian.

    H is the matrix the two-loop recursion applies: the seed (s.y)/(y.y)
    times the identity, taken from the newest pair, updated by every stored
    pair oldest first; with no pairs stored this is plain steepest descent.
    It is applied in compact form (Byrd, Nocedal & Schnabel, Math. Prog. 63,
    1994): with S and Y the stored pairs as columns, R = triu(S^T Y) and
    D = diag(S^T Y),

        H g = gamma g + S u - gamma Y p,   p = R^-1 S^T g,
        u = R^-T (D p + gamma (Y^T Y p - Y^T g)),

    so the block is read twice, once for its products with g and once to sum
    its rows (_Passes.products and _Passes.combine), whatever the memory.
    """
    if not len(history):
        return -gradient
    gradient = _vector(gradient, history._block.shape[1])
    slots = history._slots()
    products = history._products(gradient)
    yg, sg = products[0::2][slots], products[1::2][slots]
    table = np.ix_(slots, slots)
    sy, yy = history._sy[table], history._yy[table]
    gamma = sy[-1, -1] / yy[-1, -1]
    # R's diagonal is each pair's y.s, which the curvature filter keeps positive
    r = np.triu(sy)
    p = np.linalg.solve(r, sg)
    u = np.linalg.solve(r.T, np.diag(sy) * p + gamma * (yy @ p - yg))
    coefficients = np.empty(len(products) + 1)
    coefficients[0] = -gamma
    coefficients[1::2][slots] = gamma * p
    coefficients[2::2][slots] = -u
    return history._passes.combine(gradient, coefficients)


@dataclass(frozen=True)
class InnerSolveStats:
    """How one conjugate-gradient solve (an LDFP outer step's inner solve) ended.

    iterations counts CG steps taken, residual is the last recursive residual
    norm ||H s - rhs|| (||rhs|| when no step was taken), and hit_cap says the
    solve used all its max_iterations without reaching its tolerance.
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


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays hold the same bits; -0.0 differs from 0.0."""
    return np.array_equal(a.view(np.int64), b.view(np.int64))


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

    Every step is the quasi-Newton direction d = -H g clipped to the trust
    radius, which starts at 1: p = t d with t = min(1, radius / |d|), and the
    model predicts the reduction -g.p (1 - t/2).  When a newly computed d is
    not a descent direction (rounding, or a NaN), the history is dropped and
    d = -g, the same rule with H = I (Nocedal & Wright, Numerical
    Optimization, sec. 7.2).  A step whose actual/predicted reduction ratio
    is below 1/4 is rejected and the radius shrinks by a factor 4; a ratio of
    at least 3/4 with the step on the boundary doubles the radius.  Until the
    first rejection such a step instead sets the radius to max(2 radius, |d|),
    d the next quasi-Newton direction unless the history was just dropped, so
    a radius far below the scale of the problem catches up in one step rather
    than by doubling (any radius >= the current one is admissible after a
    very successful step: Conn, Gould & Toint, Trust-Region Methods, Alg. BTR).
    The solve ends with radius-collapse once the radius falls below 1e-14.
    Every attempted iteration appends one convergence record.  The
    quasi-Newton direction is computed at the start and after each accepted
    step only, and a trial equal bit for bit to the one just rejected is not
    evaluated again.
    """
    opts = options if options is not None else LbfgsOptions()
    recorder = _Recorder(objective, truth, callback)
    phi, value, grad, grad_norm = recorder.start(phi0)
    history = LbfgsHistory(opts.memory)
    radius = _INITIAL_RADIUS
    rejected = False
    rejected_trial = None
    catch_up = False
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
            dn = float(np.linalg.norm(d))
            if not float(grad @ d) < 0.0:
                # H is positive definite, so only rounding (or a NaN) gets here:
                # restart from steepest descent, the model with B = I
                history = LbfgsHistory(opts.memory)
                d, dn = -grad, grad_norm
            elif catch_up:
                radius = max(radius, dn)
        t = 1.0 if dn <= radius else radius / dn
        p = d if t == 1.0 else t * d
        # model curvature along the clipped quasi-Newton step: B p = -t g
        # exactly (B = I with no stored pair), so the quadratic term is closed-form
        predicted = -float(grad @ p) * (1.0 - 0.5 * t)

        trial = phi + p
        # phi and d stand after a rejection, so the trial can come back bit for
        # bit (the full step again, or a step lost in phi's rounding); the
        # rejected trial's evaluation is then this one's
        if rejected_trial is None or not _same_bits(trial, rejected_trial):
            rejected_trial = None  # not kept alive through the eval
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
            rejected_trial = None
            grow = ratio >= _ETA_GROW and t < 1.0
            if grow:
                radius *= _GROW
            # the next direction's length may raise the radius further
            catch_up = grow and not rejected
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
            rejected = True
            rejected_trial = trial
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
    zero one stalls and returns the current iterate.  Returns the iterate and
    an InnerSolveStats; callback, if given, sees each step's residual norm.
    rhs is a vector of n entries.  apply_matrix(p, hp) writes H p into hp:
    p and hp are float64 vectors of n entries that cgne owns, the same two
    arrays on every iteration, updated in place, which is what apply_normal
    and apply_weights key their kept calls on.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 1:
        raise ValueError(f"rhs must be a vector, got shape {rhs.shape}")
    _check_cg_settings(tol, max_iterations)
    n = len(rhs)
    s = np.zeros(n)
    rn = float(np.linalg.norm(rhs))
    target = tol * rn
    if rn <= target:
        return s, InnerSolveStats(iterations=0, residual=rn, hit_cap=False)
    r = rhs.copy()
    p = r.copy()
    hp = np.empty(n)
    # s, r and p are updated in place, in numpy's operation order, so the
    # iterates are bitwise those of fresh temporaries: by the compiled loops
    # on pointers taken once, hp's with them, or through one work vector
    if _KERNEL is not None:
        s_at, r_at, p_at, hp_at = (a.ctypes.data for a in (s, r, p, hp))
    else:
        work = np.empty(n)
    rr = float(r @ r)
    steps = 0
    while steps < max_iterations:
        apply_matrix(p, hp)
        php = float(p @ hp)
        if php <= 0.0:
            scale = float(np.linalg.norm(p) * np.linalg.norm(hp))
            if php < -1e-12 * scale:
                raise ValueError(
                    f"conjugate gradient breakdown: p.Hp = {php!r} < 0, map is not PSD"
                )
            break
        a = rr / php
        if _KERNEL is not None:
            _KERNEL.cg_step(s_at, r_at, p_at, hp_at, a, n)
        else:
            s += np.multiply(p, a, out=work)
            r -= np.multiply(hp, a, out=work)
        steps += 1
        # numpy's 2-norm of a real vector is sqrt(r . r), so one dot serves both
        rr_new = float(r @ r)
        rn = math.sqrt(rr_new)
        if callback is not None:
            callback(rn)
        if rn <= target:
            break
        if _KERNEL is not None:
            _KERNEL.cg_direction(p_at, r_at, rr_new / rr, n)
        else:
            p *= rr_new / rr
            p += r
        rr = rr_new
    hit_cap = steps == max_iterations and rn > target
    return s, InnerSolveStats(iterations=steps, residual=rn, hit_cap=hit_cap)


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

    Each outer step computes the diffusion weights gamma once, at the current
    iterate, solves (T^T T + alpha L(gamma)) s = -gradient with conjugate
    gradients, applying alpha L(gamma) matrix-free as L(alpha gamma), and takes
    the full step.  It runs max_iterations (>= 0) outer steps and ends with
    max-iter.  The result's inner_solves holds cgne's InnerSolveStats of each
    outer step.  Each CG product, T^T T v with L(alpha gamma) v then added
    into it, is written into cgne's buffer, so a CG iteration allocates no field.
    The kept calls of apply_normal and apply_weights are dropped as the solve
    returns or raises, so its weights and CG vectors do not outlive it.
    """
    if getattr(objective, "penalty", None) != "tv":
        raise ValueError("lagged diffusivity needs the smoothed-tv penalty")
    _check_max_iterations(max_iterations)
    op = objective.operator
    grid = objective.grid
    alpha = objective.alpha
    beta = objective.beta

    recorder = _Recorder(objective, truth, callback)
    phi, value, grad, grad_norm = recorder.start(phi0)
    inner_solves = []
    try:
        for iteration in range(1, max_iterations + 1):
            weights = smoothing_weights(phi, grid, beta)
            weights *= alpha

            def apply_h(v, out):
                op.apply_normal(v, out=out)
                apply_weights(weights, grid, v, out=out)

            step, stats = cgne(apply_h, -grad, tol=inner_tol, max_iterations=inner_max_iterations)
            inner_solves.append(stats)
            phi = phi + step
            value, grad = _checked_eval(objective, phi, f"at outer iteration {iteration}")
            grad_norm = float(np.linalg.norm(grad))
            recorder.push(iteration, phi, value, grad_norm, float(np.linalg.norm(step)))
    finally:
        # the kept products hold the last weights, direction and product
        # buffer, three fields that must not outlive the solve
        tv._BINDING.clear()
        op._normal.clear()

    return recorder.finish(phi, len(inner_solves), "max-iter", inner_solves)
