"""Trust-region limited-memory BFGS and lagged-diffusivity fixed-point solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from . import _kernel
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


def _divide(a: float, b: float) -> float:
    """a / b as IEEE 754 and the kernels divide, where Python raises on a zero b."""
    if b:
        return a / b
    if a != a or a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _coefficients(gradient_products: list, sy: list, yy: list, slots: list) -> list:
    """lbfgs_direction's coefficients from the products with g and the tables, in Python floats.

    Over the stored slots, oldest first: gamma = (s.y)/(y.y) of the newest
    pair; R p = S^T g solved from the last row up and R^T u = D p +
    gamma (Y^T Y p - Y^T g) from the first row down, each row's sum of known
    terms from +0.0 in increasing column, subtracted and then divided by R's
    diagonal; Y^T Y p summed the same way.  Python's float operations round
    as the kernel's do.
    """
    m = len(slots)
    r = [[sy[a][b] for b in slots] for a in slots]
    gamma = _divide(r[-1][-1], yy[slots[-1]][slots[-1]])
    p = [0.0] * m
    for i in reversed(range(m)):
        total = 0.0
        for j in range(i + 1, m):
            total += r[i][j] * p[j]
        p[i] = _divide(gradient_products[2 * slots[i] + 1] - total, r[i][i])
    u = [0.0] * m
    for i in range(m):
        yyp = total = 0.0
        for j in range(m):
            yyp += yy[slots[i]][slots[j]] * p[j]
        v = r[i][i] * p[i] + gamma * (yyp - gradient_products[2 * slots[i]])
        for j in range(i):
            total += r[j][i] * u[j]
        u[i] = _divide(v - total, r[i][i])
    coefficients = [0.0] * (2 * m + 1)
    coefficients[0] = -gamma
    for slot, pk, uk in zip(slots, p, u):
        coefficients[1 + 2 * slot] = gamma * pk
        coefficients[2 + 2 * slot] = -uk
    return coefficients


def _numpy_direction(block, sy, yy, gradient, count: int, next_: int, pending) -> np.ndarray:
    """lbfgs_direction with numpy and Python floats: the same operations in the same order.

    The first 2 count rows' products with gradient and with the y rows of
    the slots in pending, those slots' table columns filled in from them,
    the small solves of _coefficients, and the combination.
    """
    rows = block[: 2 * count]
    products = _numpy_dots(rows, [gradient, *(block[2 * slot] for slot in pending)])
    for slot, column in zip(pending, products.T[1:]):
        sy[:count, slot] = column[1::2]
        yy[:count, slot] = yy[slot, :count] = column[0::2]
    slots = [(next_ - count + k) % len(sy) for k in range(count)]
    coefficients = _coefficients(products[:, 0].tolist(), sy.tolist(), yy.tolist(), slots)
    return _numpy_combine(gradient, rows, coefficients)


class _Passes:
    """A history block, its tables s_i.y_j and y_i.y_j, and the direction's scratch.

    Compiled, the addresses of the block's rows, the tables and the scratch
    are taken once, so a direction takes only those of the gradient and the
    result, and a push's products those of its pair (ndarray.ctypes.data,
    about 1.5-2 us each); without the kernels each is its numpy twin.  The
    block, a y and an s row per slot, must be C-contiguous float64 with an
    even row count (the tables and scratch are sized by it), on both paths.
    Callers hand _kernel.vector vectors of the block's length, a count of
    stored slots and a next slot as LbfgsHistory keeps them, and pending
    slots below count, distinct; each result is a new array.  The scratch is
    the instance's own, so threads may share a block but not its _Passes.
    """

    def __init__(self, block: np.ndarray):
        rows = block.shape[0] if isinstance(block, np.ndarray) and block.ndim == 2 else 0
        if rows < 2 or rows % 2 or block.dtype != np.float64 or not block.flags.c_contiguous:
            raise ValueError("the history block must be C-contiguous float64 with 2k rows, k >= 1")
        self._block = block
        memory = rows // 2
        self.sy = np.zeros((memory, memory))
        self.yy = np.zeros((memory, memory))
        if _KERNEL is None:
            return
        self._n = block.shape[1]
        # the combination's rows: the gradient, then the block's; rows[1:] are the products'
        self._rows = np.empty(rows + 1, dtype=np.uintp)
        self._rows[1:] = block.ctypes.data + block.strides[0] * np.arange(rows, dtype=np.uintp)
        # the products' vectors: the gradient and at most one y row per slot
        self._vectors = np.empty(memory + 1, dtype=np.uintp)
        self._pair = np.empty(2, dtype=np.uintp)
        self._pending = np.empty(memory, dtype=np.intp)
        # the products, then p, u and the coefficients
        products = rows * (memory + 1)
        self._work = np.empty(products + 4 * memory + 1)
        self._partials = np.empty(products * -(-self._n // _CHUNK))
        self._rows_at, self._vectors_at, self._pair_at, self._pending_at = (
            a.ctypes.data for a in (self._rows, self._vectors, self._pair, self._pending)
        )
        self._sy_at, self._yy_at, self._partials_at, self._work_at = (
            a.ctypes.data for a in (self.sy, self.yy, self._partials, self._work)
        )

    def __reduce__(self):
        # a copy binds the copied block and fills its own tables: the addresses here are this one's
        return type(self), (self._block,), (self.sy, self.yy)

    def __setstate__(self, tables):
        self.sy[...], self.yy[...] = tables

    def pair(self, s: np.ndarray, y: np.ndarray) -> np.ndarray:
        """[[s.s, s.y], [y.s, y.y]]."""
        if _KERNEL is None:
            return _numpy_dots((s, y), (s, y))
        self._pair[0], self._pair[1] = s.ctypes.data, y.ctypes.data
        _KERNEL.block_dots(
            self._pair_at, 2, self._pair_at, 2, self._n, _CHUNK, self._partials_at, self._work_at
        )
        return self._work[:4].reshape(2, 2).copy()

    def direction(self, gradient: np.ndarray, count: int, next_: int, pending: list) -> np.ndarray:
        """-H gradient over the count slots before next_, the pending slots' columns filled in."""
        if _KERNEL is None:
            return _numpy_direction(self._block, self.sy, self.yy, gradient, count, next_, pending)
        self._pending[: len(pending)] = pending
        out = np.empty(self._n)
        _KERNEL.lbfgs_direction(
            self._rows_at,
            self._vectors_at,
            gradient.ctypes.data,
            self._n,
            _CHUNK,
            len(self.sy),
            count,
            next_,
            self._pending_at,
            len(pending),
            self._sy_at,
            self._yy_at,
            self._partials_at,
            self._work_at,
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
    next direction, from its y row itself in the pass that reads the block
    anyway (S^T y taken as the difference of two directions' S^T g cancels
    when |y| << |g|).  Every product over the block, and the push's
    curvature test, sums as _numpy_dots does, and the direction as
    _numpy_direction does (through _Passes, compiled or not), so their bits
    do not depend on the thread count.
    """

    def __init__(self, memory: int = 10):
        if memory < 1:
            raise ValueError(f"memory must be >= 1, got {memory}")
        self._memory = memory
        self._block = None
        self._passes = None
        self._count = 0
        self._next = 0
        self._pending = []

    def __len__(self) -> int:
        return self._count

    def push(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Store the pair unless its curvature y.s is too small; returns stored?"""
        n = None if self._block is None else self._block.shape[1]
        s = _kernel.vector(s, n, "s", "history entries")
        y = _kernel.vector(y, s.size, "y", "s entries")
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

    @property
    def pairs(self):
        """Copies of the stored (s, y, 1/(y.s)), oldest first."""
        slots = (self._next - self._count + np.arange(self._count)) % self._memory
        copies = [(self._block[2 * i + 1].copy(), self._block[2 * i].copy()) for i in slots]
        return tuple((s, y, 1.0 / float(s @ y)) for s, y in copies)


def two_loop_direction(history: LbfgsHistory, gradient) -> np.ndarray:
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
    its rows, whatever the memory: one compiled call (_Passes.direction)
    makes both passes and the small solves between them.
    """
    n = None if history._block is None else history._block.shape[1]
    gradient = _kernel.vector(gradient, n, "gradient", "history entries")
    if not len(history):
        return -gradient
    d = history._passes.direction(gradient, history._count, history._next, history._pending)
    history._pending.clear()
    return d


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
    rhs = _kernel.vector(rhs, what="rhs")
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

    return recorder.finish(phi, len(inner_solves), "max-iter", inner_solves)
