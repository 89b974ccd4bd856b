"""Trust-region L-BFGS, conjugate gradients, and lagged diffusivity."""

import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import atmtomo.objective
import atmtomo.solvers
import atmtomo.tv
import helpers
from atmtomo import (
    Field,
    Objective,
    add_noise,
    assemble_operator,
    default_config,
    make_grid,
    place_network,
    take_rays,
    true_profile,
)
from atmtomo.solvers import (
    InnerSolveStats,
    LbfgsHistory,
    LbfgsOptions,
    cgne,
    lbfgs_trust_region,
    ldfp,
    two_loop_direction,
)
from atmtomo.tv import apply_weights, smoothing_weights


def quadratic_objective(diag, target):
    diag = np.asarray(diag, dtype=float)
    target = np.asarray(target, dtype=float)

    def fn(x):
        shifted = x - target
        return 0.5 * float(shifted @ (diag * shifted)), diag * shifted

    return helpers.FnObjective(fn)


def spd_pairs(rng, n, count):
    b = rng.standard_normal((n, n))
    a = b.T @ b + np.eye(n)
    pairs = []
    for _ in range(count):
        s = rng.standard_normal(n)
        pairs.append((s, a @ s))
    return pairs


def test_options_validation():
    LbfgsOptions()
    LbfgsOptions(grad_tol=0.0)
    # a grad_tol below zero or NaN never fires, so a solve at an exactly zero
    # gradient would run on, rejecting zero steps until the radius collapses
    bad = ({"memory": 0}, {"max_iterations": -1}, {"grad_tol": -1.0}, {"grad_tol": float("nan")})
    for kwargs in bad:
        with pytest.raises(ValueError):
            LbfgsOptions(**kwargs)


def test_two_loop_empty_history_is_steepest_descent(rng):
    g = rng.standard_normal(7)
    np.testing.assert_array_equal(two_loop_direction(LbfgsHistory(), g), -g)


def test_two_loop_single_pair_scalar_newton():
    # on f(x) = a x^2 / 2 one update pair makes the direction exactly -g/a
    history = LbfgsHistory()
    assert history.push(np.array([0.5]), np.array([2.0]))
    d = two_loop_direction(history, np.array([8.0]))
    np.testing.assert_allclose(d, [-2.0], rtol=1e-15)


def test_two_loop_matches_dense_bfgs(rng):
    for _ in range(10):
        pairs = spd_pairs(rng, 5, 4)
        history = LbfgsHistory(memory=6)
        for s, y in pairs:
            assert history.push(s, y)
        h = helpers.dense_bfgs_inverse(history.pairs)
        g = rng.standard_normal(5)
        want = -h @ g
        got = two_loop_direction(history, g)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_history_curvature_filter_and_memory():
    history = LbfgsHistory(memory=3)
    s = np.array([1.0, 1.0])
    assert not history.push(s, -s)
    assert not history.push(s, np.array([1.0, -1.0 + 1e-14]))
    assert len(history) == 0
    for k in range(5):
        assert history.push(np.array([1.0, float(k)]), np.array([2.0, float(k)]))
    assert len(history) == 3


def test_history_refuses_a_pair_of_nan_curvature():
    history = LbfgsHistory(memory=3)
    s, y = np.ones(4), np.array([1.0, 2.0, 0.5, 1.0])
    g = np.array([1.0, -1.0, 2.0, 0.5])
    assert history.push(s, y)
    before = two_loop_direction(history, g)
    for bad in (np.full(4, np.nan), np.array([1.0, np.nan, 1.0, 1.0]), np.full(4, np.inf)):
        assert not history.push(s, bad)
    assert len(history) == 1
    assert np.isfinite(before).all()
    assert two_loop_direction(history, g).tobytes() == before.tobytes()


def _scaled_pairs(rng, n, count):
    # y = A s for a fixed SPD A: a diagonal plus a rank-one coupling
    diag = rng.uniform(1.0, 100.0, n)
    u = rng.standard_normal(n) / math.sqrt(n)
    for _ in range(count):
        s = rng.standard_normal(n)
        yield s, diag * s + (u @ s) * u


@pytest.mark.parametrize(
    "memory, schedule",
    [(3, "ppppppp-d"), (5, "pp-d-ppp-d-pppp-d"), (4, "pd" * 9)],
    ids=["ring-wraps", "pushes-between-directions", "direction-after-every-push"],
)
def test_compact_direction_is_the_two_loop(rng, memory, schedule):
    # 20000 entries span three column panels of the block, the last one partial
    n = 20000
    history = LbfgsHistory(memory)
    pairs = _scaled_pairs(rng, n, schedule.count("p"))
    for op in schedule.replace("-", ""):
        if op == "p":
            assert history.push(*next(pairs))
            continue
        g = rng.standard_normal(n)
        want = helpers.two_loop_oracle(history.pairs, g)
        got = two_loop_direction(history, g)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert len(history) == min(memory, schedule.count("p"))


def test_rejected_pair_leaves_the_history_unchanged(rng):
    n = 20000
    history = LbfgsHistory(3)
    for s, y in _scaled_pairs(rng, n, 4):
        assert history.push(s, y)
    g = rng.standard_normal(n)
    two_loop_direction(history, g)  # fills in the pushed slots' table columns
    before = two_loop_direction(history, g)
    tables = (history._sy.copy(), history._yy.copy())
    pairs = history.pairs
    s = rng.standard_normal(n)
    assert not history.push(s, -s)
    assert len(history) == 3
    for (s0, y0, rho0), (s1, y1, rho1) in zip(pairs, history.pairs, strict=True):
        assert s0.tobytes() == s1.tobytes() and y0.tobytes() == y1.tobytes() and rho0 == rho1
    assert two_loop_direction(history, g).tobytes() == before.tobytes()
    assert all(np.array_equal(a, b) for a, b in zip(tables, (history._sy, history._yy)))
    want = helpers.two_loop_oracle(history.pairs, g)
    assert np.linalg.norm(before - want) <= 1e-12 * np.linalg.norm(want)


def test_pairs_stay_chronological_after_the_ring_wraps():
    history = LbfgsHistory(memory=3)
    for k in range(1, 8):
        assert history.push(np.array([1.0, float(k)]), np.array([2.0, float(k)]))
        order = [float(s[1]) for s, _, _ in history.pairs]
        assert order == [float(j) for j in range(max(1, k - 2), k + 1)]
    for s, y, rho in history.pairs:
        assert rho == 1.0 / float(s @ y)
    # the stored rows are the history's own: changing a returned pair changes nothing
    history.pairs[0][0][:] = 0.0
    assert float(history.pairs[0][0][1]) == 5.0


def test_two_loop_gives_descent_directions(rng):
    for _ in range(100):
        n = int(rng.integers(2, 8))
        history = LbfgsHistory(memory=5)
        for s, y in spd_pairs(rng, n, int(rng.integers(1, 6))):
            history.push(s, y)
        g = rng.standard_normal(n)
        d = two_loop_direction(history, g)
        assert float(g @ d) < 0.0


def test_quadratic_identity_converges_immediately():
    obj = quadratic_objective(np.ones(20), np.linspace(-1, 1, 20))
    options = LbfgsOptions(max_iterations=100, grad_tol=1e-10)
    result = lbfgs_trust_region(obj, np.zeros(20), options)
    assert result.termination == "gradient-tol"
    assert result.iterations <= 10
    assert result.records[-1].gradient_norm <= 1e-10


def test_quadratic_50dim_converges_quickly():
    target = np.random.default_rng(5).uniform(-2, 2, 50)
    obj = quadratic_objective(np.linspace(1, 3, 50), target)
    options = LbfgsOptions(memory=10, max_iterations=200, grad_tol=1e-10)
    result = lbfgs_trust_region(obj, np.zeros(50), options, truth=target)
    assert result.termination == "gradient-tol"
    assert result.iterations <= 55
    assert result.records[-1].relative_error <= 1e-9


def test_rosenbrock_converges():
    obj = helpers.FnObjective(helpers.rosenbrock)
    options = LbfgsOptions(memory=10, max_iterations=100, grad_tol=1e-6)
    result = lbfgs_trust_region(obj, np.array([-1.2, 1.0]), options)
    assert result.termination == "gradient-tol"
    np.testing.assert_allclose(result.field, [1.0, 1.0], atol=1e-4)


def test_record_invariants(rng):
    target = rng.standard_normal(30)
    obj = quadratic_objective(np.linspace(1, 4, 30), target)
    options = LbfgsOptions(max_iterations=60, grad_tol=1e-9)
    result = lbfgs_trust_region(obj, np.zeros(30), options)
    records = result.records
    assert len(records) == result.iterations + 1
    assert records[0].iteration == 0
    assert records[0].step_norm == 0.0
    assert [r.iteration for r in records] == list(range(len(records)))
    values = [r.objective for r in records]
    assert all(b <= a for a, b in zip(values, values[1:]))
    seconds = [r.seconds for r in records]
    assert all(b >= a for a, b in zip(seconds, seconds[1:]))
    assert records[-1].gradient_norm <= records[0].gradient_norm
    assert all(r.relative_error is None for r in records)
    assert all(r.discrepancy == 0.0 for r in records)


def test_truth_tracking_and_callback(rng):
    target = rng.standard_normal(10)
    obj = quadratic_objective(np.full(10, 2.0), target)
    seen = []
    options = LbfgsOptions(max_iterations=50, grad_tol=1e-10)
    result = lbfgs_trust_region(
        obj, np.zeros(10), options, truth=target, callback=seen.append
    )
    assert len(seen) == len(result.records)
    assert result.records[0].relative_error == pytest.approx(1.0)
    assert result.records[-1].relative_error <= 1e-10
    with pytest.raises(ValueError):
        lbfgs_trust_region(obj, np.zeros(10), options, truth=np.zeros(10))


def test_max_iter_termination(rng):
    obj = quadratic_objective(np.linspace(1, 2, 12), rng.standard_normal(12))
    options = LbfgsOptions(max_iterations=5, grad_tol=0.0)
    result = lbfgs_trust_region(obj, np.zeros(12), options)
    assert result.termination == "max-iter"
    assert result.iterations == 5
    assert len(result.records) == 6


@pytest.mark.parametrize("distance", [100.0, 1e6], ids=["target-100", "target-1e6"])
def test_radius_starts_at_one_and_catches_up_with_the_next_direction(distance):
    # identity quadratic: the first step points straight at the target and is
    # clipped to the radius 1 with ratio 1; before any rejection the radius
    # then takes the next quasi-Newton step's length, the rest of the way, in
    # place of doubling (which took 20 iterations to cover 1e6)
    target = np.zeros(8)
    target[0] = distance
    obj = quadratic_objective(np.ones(8), target)
    options = LbfgsOptions(max_iterations=30, grad_tol=1e-12)
    result = lbfgs_trust_region(obj, np.zeros(8), options)
    assert [r.step_norm for r in result.records] == [0, 1, distance - 1]
    assert result.termination == "gradient-tol"


def test_first_step_predicts_with_the_identity_model():
    # f(x) = 0.8 (x - 1/2)^2 from 0: with no stored pair the step is -g = 0.8
    # and B = I predicts 0.32 against an actual 0.128, ratio 0.4 >= 1/4, so it
    # is accepted; the stored pair then gives the exact Newton step 0.3.  A
    # model without curvature would predict 0.64 and reject it (ratio 0.2).
    def fn(x):
        return 0.8 * float((x[0] - 0.5) ** 2), np.array([1.6 * (x[0] - 0.5)])

    options = LbfgsOptions(max_iterations=3, grad_tol=0.0)
    result = lbfgs_trust_region(helpers.FnObjective(fn), np.zeros(1), options)
    assert [r.step_norm for r in result.records] == pytest.approx([0, 0.8, 0.3], rel=1e-14)
    assert result.termination == "gradient-tol"
    assert result.field[0] == 0.5


def wall_fn(x):
    # f(x) = -x + 1e3 max(0, x - 1/2)^2 from 0: the unit step hits the wall and
    # is rejected (radius 1/4); the 1/4 step is accepted on the boundary (radius
    # 1/2); the 1/2 step is rejected (radius 1/8); the 1/8 step is accepted
    wall = max(0.0, float(x[0]) - 0.5)
    return -float(x[0]) + 1e3 * wall**2, np.array([-1.0 + 2e3 * wall])


def test_rejected_steps_quarter_the_radius(monkeypatch):
    calls = []

    def counted(history, gradient):
        calls.append(float(gradient[0]))
        return two_loop_direction(history, gradient)

    monkeypatch.setattr("atmtomo.solvers.two_loop_direction", counted)
    options = LbfgsOptions(max_iterations=4)
    result = lbfgs_trust_region(helpers.FnObjective(wall_fn), np.zeros(1), options)
    assert [r.step_norm for r in result.records] == [0, 0, 0.25, 0, 0.125]
    # a rejection leaves phi, the gradient and the history as they were, so
    # only iterations 1 and 3 (at x = 0 and x = 1/4) need a fresh direction
    assert calls == [-1.0, -1.0]


def test_the_radius_catches_up_only_after_a_step_it_cut_short(monkeypatch):
    # on f(x) = -x every step is accepted with ratio >= 1; of the directions
    # 10, 1.5 and 3, the first is cut to the radius 1, which then grows to
    # max(2, 1.5); the second fits inside it, so the third is cut to the
    # radius 2, which neither doubled nor caught up after the second step
    directions = iter([10.0, 1.5, 3.0])
    monkeypatch.setattr(
        "atmtomo.solvers.two_loop_direction", lambda history, g: np.array([next(directions)])
    )
    options = LbfgsOptions(max_iterations=3)
    result = lbfgs_trust_region(
        helpers.FnObjective(lambda x: (-float(x[0]), np.array([-1.0]))), np.zeros(1), options
    )
    assert [r.step_norm for r in result.records] == [0, 1, 1.5, 2]


def test_a_rejection_ends_the_catch_up(monkeypatch):
    # a direction of 1e3 |g| on f(x) = -x + 1e3 max(0, x - 3/2)^2 from 0: the
    # unit step is accepted on the boundary and the radius catches up to 1e3;
    # that step and its quarters down to 1e3 / 4^5 overshoot the wall and are
    # rejected, and from then on an accepted boundary step only doubles the
    # radius: 1e3 / 4^6 is accepted, twice it rejected, the quarter accepted
    def fn(x):
        wall = max(0.0, float(x[0]) - 1.5)
        return -float(x[0]) + 1e3 * wall**2, np.array([-1.0 + 2e3 * wall])

    monkeypatch.setattr("atmtomo.solvers.two_loop_direction", lambda history, g: -1e3 * g)
    options = LbfgsOptions(max_iterations=10)
    result = lbfgs_trust_region(helpers.FnObjective(fn), np.zeros(1), options)
    expected = [0, 1] + [0] * 6 + [1e3 / 4**6, 0, 1e3 / 4**6 / 2]
    assert [r.step_norm for r in result.records] == pytest.approx(expected, rel=1e-15)


def _fake_direction(monkeypatch, direction):
    """Make every quasi-Newton direction direction(gradient); return the history lengths seen."""
    calls = []

    def fake(history, gradient):
        calls.append(len(history))
        return direction(gradient)

    monkeypatch.setattr("atmtomo.solvers.two_loop_direction", fake)
    return calls


def test_uphill_direction_resets_to_steepest_descent(monkeypatch):
    # a direction of +g is uphill, so each one drops the history and the step
    # is -t g, t = min(1, radius/||g||)
    calls = _fake_direction(monkeypatch, lambda g: g.copy())
    diag = np.array([0.5, 0.8, 1.2, 1.5])
    obj = quadratic_objective(diag, np.zeros(4))
    options = LbfgsOptions(max_iterations=1, grad_tol=0.0)

    # far from the minimum the radius bounds the step
    x0 = np.array([8.0, -6.0, 4.0, 5.0])
    g0 = diag * x0
    t = 1.0 / float(np.linalg.norm(g0))
    result = lbfgs_trust_region(obj, x0, options)
    assert calls == [0]
    assert np.array_equal(result.field, x0 + t * -g0)
    assert result.records[1].step_norm == pytest.approx(1.0, rel=1e-15)
    # that step is on the boundary and doubles the radius; steepest descent
    # after a reset is no quasi-Newton step for the radius to catch up with,
    # so the second step stops at 2
    result = lbfgs_trust_region(obj, x0, replace(options, max_iterations=2))
    assert [r.step_norm for r in result.records] == pytest.approx([0, 1, 2], rel=1e-15)

    # near it both steps are the full -g: the reset left no pair to scale them
    x0 = np.array([0.4, -0.3, 0.2, 0.1])
    g0 = diag * x0
    assert np.linalg.norm(g0) < 1.0
    first = lbfgs_trust_region(obj, x0, options).field
    assert np.array_equal(first, x0 - g0)
    g1 = diag * first
    calls.clear()
    result = lbfgs_trust_region(obj, x0, replace(options, max_iterations=2))
    assert calls == [0, 1]
    assert np.array_equal(result.field, first - g1)
    steps = [r.step_norm for r in result.records]
    # both steps accepted: a rejection records a zero step and leaves phi
    assert steps[1] == pytest.approx(float(np.linalg.norm(g0)), rel=1e-15)
    assert steps[2] == pytest.approx(float(np.linalg.norm(g1)), rel=1e-15)
    assert result.records[2].objective < result.records[1].objective < result.records[0].objective

    # each accepted step stores its pair in the fresh history, which the
    # next direction drops again
    calls.clear()
    uphill = lbfgs_trust_region(obj, x0, replace(options, max_iterations=5))
    assert all(r.step_norm > 0.0 for r in uphill.records[1:])
    assert calls == [0, 1, 1, 1, 1]

    # a NaN direction fails the descent test as the uphill one does
    _fake_direction(monkeypatch, lambda g: np.full_like(g, np.nan))
    nan = lbfgs_trust_region(obj, x0, replace(options, max_iterations=5))
    assert nan.field.tobytes() == uphill.field.tobytes()
    assert [r.step_norm for r in nan.records] == [r.step_norm for r in uphill.records]


def test_rejected_step_repeats_the_last_record():
    # phi does not move on a rejection, so its record is the previous one with
    # a zero step: only the start and the accepted steps measure the discrepancy
    class Counted(helpers.FnObjective):
        discrepancies = 0

        def discrepancy(self, x):
            self.discrepancies += 1
            return abs(float(x[0]) - 2.0)

    obj = Counted(wall_fn)
    seen = []
    options = LbfgsOptions(max_iterations=4)
    result = lbfgs_trust_region(
        obj, np.zeros(1), options, truth=np.array([2.0]), callback=seen.append
    )
    records = result.records
    assert seen == records
    accepted = [r.iteration for r in records[1:] if r.step_norm > 0.0]
    assert accepted == [2, 4]
    assert obj.discrepancies == 1 + len(accepted)
    for before, rejected in ((records[0], records[1]), (records[2], records[3])):
        assert rejected.seconds >= before.seconds
        assert replace(rejected, seconds=0.0) == replace(
            before, iteration=rejected.iteration, step_norm=0.0, seconds=0.0
        )
    assert [r.discrepancy for r in records] == [2.0, 2.0, 1.75, 1.75, 1.625]
    assert [r.relative_error for r in records] == [1.0, 1.0, 0.875, 0.875, 0.8125]


def test_noisy_desk_run_collapses_radius(desk):
    data, _ = add_noise(desk.f_true, 0.02, seed=11)
    obj = Objective(desk.op, data, 1e-12, desk.grid)
    options = LbfgsOptions(memory=10, max_iterations=500, grad_tol=0.0)
    result = lbfgs_trust_region(obj, np.zeros(desk.grid.n_nodes), options, truth=desk.truth)
    assert result.termination == "radius-collapse"
    assert result.iterations < 500
    assert result.records[-1].relative_error <= 0.06
    assert isinstance(result.field, Field)


def test_a_trial_just_rejected_is_not_evaluated_again(desk, monkeypatch):
    # a full step the quartered radius still holds, or a step lost in phi's
    # rounding, is the trial just rejected: the solver must know that without an eval
    data, _ = add_noise(desk.f_true, 0.02, seed=11)
    obj = Objective(desk.op, data, 1e-12, desk.grid)
    seen = []

    def recorded(phi):
        seen.append(np.asarray(phi).tobytes())
        return Objective.eval(obj, phi)

    monkeypatch.setattr(obj, "eval", recorded)
    options = LbfgsOptions(memory=10, max_iterations=500, grad_tol=0.0)
    result = lbfgs_trust_region(obj, np.zeros(desk.grid.n_nodes), options, truth=desk.truth)
    assert result.termination == "radius-collapse"
    assert all(before != after for before, after in zip(seen, seen[1:]))
    # the start and one eval per iteration, less the repeats it skipped
    rejected = sum(r.step_norm == 0.0 for r in result.records[1:])
    assert len(seen) < 1 + result.iterations
    assert len(seen) >= 1 + result.iterations - rejected


def identity(v, out):
    np.copyto(out, v)


def test_cgne_identity_single_iteration(rng):
    rhs = rng.standard_normal(9)
    residuals = []
    s, _ = cgne(identity, rhs, tol=1e-12, callback=residuals.append)
    np.testing.assert_allclose(s, rhs, rtol=1e-14)
    assert len(residuals) == 1


def test_cgne_diagonal_exact(rng):
    d = np.arange(1.0, 6.0)
    rhs = rng.standard_normal(5)
    residuals = []
    s, _ = cgne(
        lambda v, out: np.multiply(d, v, out=out), rhs, tol=1e-12, callback=residuals.append
    )
    np.testing.assert_allclose(s, rhs / d, rtol=1e-10)
    assert len(residuals) <= 5


def test_cgne_spd_matches_dense_solve():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((20, 20))
        a = b.T @ b + 20.0 * np.eye(20)
        rhs = rng.standard_normal(20)
        residuals = []
        s, _ = cgne(
            lambda v, out: np.matmul(a, v, out=out), rhs, tol=1e-10, callback=residuals.append
        )
        want = np.linalg.solve(a, rhs)
        assert np.linalg.norm(s - want) <= 1e-8 * np.linalg.norm(want)
        for before, after in zip(residuals, residuals[1:]):
            assert after <= before * (1 + 1e-12)


@pytest.mark.parametrize("tol, max_iterations", [(1e-12, 200), (0.0, 10)])
def test_cgne_one_dot_per_iteration_is_bitwise_the_two_dot_loop(tol, max_iterations, monkeypatch):
    rng = np.random.default_rng(50)
    b = rng.standard_normal((50, 50))
    a = b.T @ b + np.eye(50)
    rhs = rng.standard_normal(50)
    want = []
    s_want = helpers.cgne_two_dots(lambda v: a @ v, rhs, tol, max_iterations, want.append)
    # the compiled updates, then numpy's
    for path in ("compiled", "numpy"):
        if path == "numpy":
            helpers.without_kernels(monkeypatch)
        got = []
        s, stats = cgne(
            lambda v, out: np.matmul(a, v, out=out), rhs, tol, max_iterations, callback=got.append
        )
        assert len(got) > 5
        assert got == want
        assert s.tobytes() == s_want.tobytes()
        assert stats.iterations == len(got)
        assert stats.residual == got[-1]
        # a zero tolerance cannot be met, so only the capped solve hits its cap
        assert stats.hit_cap == (tol == 0.0)


def test_cgne_zero_rhs_and_stall():
    residuals = []
    s, stats = cgne(identity, np.zeros(4), callback=residuals.append)
    np.testing.assert_array_equal(s, np.zeros(4))
    assert residuals == []
    assert stats == InnerSolveStats(iterations=0, residual=0.0, hit_cap=False)
    rhs = np.array([1.0, 2.0])
    s, stats = cgne(lambda v, out: np.multiply(0.0, v, out=out), rhs, callback=residuals.append)
    np.testing.assert_array_equal(s, np.zeros(2))
    assert residuals == []
    stalled = InnerSolveStats(iterations=0, residual=float(np.linalg.norm(rhs)), hit_cap=False)
    assert stats == stalled


def test_cgne_rejects_indefinite_map_and_bad_cap():
    d = np.array([1.0, -1.0])
    with pytest.raises(ValueError):
        cgne(lambda v, out: np.multiply(d, v, out=out), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        cgne(identity, np.ones(3), max_iterations=0)
    for bad in (math.nan, -1.0):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            cgne(identity, np.ones(3), tol=bad)
    with pytest.raises(ValueError, match="rhs must be a vector"):
        cgne(identity, np.ones((3, 1)))


def test_cgne_writes_every_product_into_one_buffer_it_owns():
    a = np.diag(np.arange(1.0, 7.0))
    seen = []

    def product(v, out):
        seen.append((v, out))
        np.matmul(a, v, out=out)

    rhs = np.ones(6)
    s, stats = cgne(product, rhs, tol=0.0, max_iterations=6)
    assert stats.iterations == len(seen) == 6
    p, hp = seen[0]
    assert all(v is p and out is hp for v, out in seen)
    assert hp.dtype == np.float64 and hp.shape == (6,) and hp.flags.c_contiguous
    assert not np.may_share_memory(p, hp)
    assert not any(np.may_share_memory(hp, x) for x in (s, rhs))


def _ldfp_scene(name):
    """An objective and its truth: the benchmark's default LDFP problem, or a small odd grid."""
    config = default_config()
    if name == "default":
        grid = config.make_grid()
        network = place_network(grid, config.stations, config.emitters, config.seed)
        network = take_rays(network, config.benchmark_rays)
    else:
        grid = make_grid(5, 4, 7, (0, 1, 0, 2, 0, 15))
        network = place_network(grid, 4, 5, seed=3)
    op = assemble_operator(network)
    truth = true_profile(grid)
    data, _ = add_noise(op.apply(truth.values), config.benchmark_noise, seed=7)
    return Objective(op, data, config.alpha_tv, grid, beta=config.beta), truth


def _ldfp_reference_field(obj, steps, inner_max_iterations):
    """LDFP's iterate after steps outer steps, H v formed as Tᵀ(T v) + L(αγ) v in numpy."""
    op, grid = obj.operator, obj.grid
    phi = np.zeros(grid.n_nodes)
    for _ in range(steps):
        _, grad = obj.eval(phi)
        weights = smoothing_weights(phi, grid, obj.beta)
        weights *= obj.alpha

        def apply_h(v):
            h = op.apply_adjoint(op.apply(v))
            h += apply_weights(weights, grid, v)
            return h

        phi = phi + helpers.cgne_two_dots(apply_h, -grad, 1e-8, inner_max_iterations)
    return phi


@pytest.mark.parametrize("scene", ["default", "odd grid"])
def test_ldfp_is_bitwise_with_and_without_the_kernels(scene, monkeypatch):
    # records outside seconds, inner solves and the field's bytes, and the
    # field of the unfused formulation
    obj, truth = _ldfp_scene(scene)
    runs = []
    for path in ("compiled", "numpy"):
        if path == "numpy":
            helpers.without_kernels(monkeypatch)
        result = ldfp(obj, np.zeros(obj.grid.n_nodes), max_iterations=3, truth=truth)
        records = [replace(r, seconds=0.0) for r in result.records]
        runs.append((records, result.inner_solves, result.field.values.tobytes()))
    assert runs[0] == runs[1]
    assert runs[0][2] == _ldfp_reference_field(obj, 3, 200).tobytes()
    assert len(runs[0][0]) == 4


def test_a_cg_iteration_of_ldfp_allocates_no_field(monkeypatch):
    if atmtomo.solvers._KERNEL is None or atmtomo.tv._STENCIL is None:
        pytest.skip("the compiled kernels did not build or load here")
    obj, _ = _ldfp_scene("default")
    n = obj.grid.n_nodes
    rises = []
    plain_cgne = atmtomo.solvers.cgne

    def watched_cgne(apply_matrix, rhs, tol, max_iterations):
        # numpy reports its data buffers to tracemalloc; the rise of the
        # traced peak over one iteration bounds what that iteration allocated
        start = []

        def watch(rn):
            peak = tracemalloc.get_traced_memory()[1]
            if start:
                rises.append(peak - start[0])
            tracemalloc.reset_peak()
            start[:] = [tracemalloc.get_traced_memory()[0]]

        return plain_cgne(apply_matrix, rhs, tol, max_iterations, callback=watch)

    monkeypatch.setattr(atmtomo.solvers, "cgne", watched_cgne)
    tracemalloc.start()
    try:
        result = ldfp(obj, np.zeros(n), inner_max_iterations=20, max_iterations=2)
    finally:
        tracemalloc.stop()
    assert [stats.iterations for stats in result.inner_solves] == [20, 20]
    assert len(rises) == 38
    assert max(rises) < 8 * n


class _Stop(Exception):
    pass


@pytest.mark.parametrize("ending", ["returns", "raises"])
def test_ldfp_keeps_no_field_once_it_ends(ending, monkeypatch):
    # the kept calls of apply_weights and apply_normal key on the last outer
    # step's weights, direction and product buffer, and hold them weakly, so
    # those fields die with the solve as it returns or raises
    obj, _ = _ldfp_scene("odd grid")
    made = []

    def watched_weights(*args):
        weights = smoothing_weights(*args)
        made.append(weakref.ref(weights))
        return weights

    def stop(record):
        if ending == "raises" and record.iteration == 2:
            raise _Stop

    monkeypatch.setattr(atmtomo.solvers, "smoothing_weights", watched_weights)
    if ending == "returns":
        ldfp(obj, np.zeros(obj.grid.n_nodes), max_iterations=2, callback=stop)
    else:
        with pytest.raises(_Stop) as raised:
            ldfp(obj, np.zeros(obj.grid.n_nodes), max_iterations=3, callback=stop)
        # the traceback holds ldfp's frame and so its last weights
        del raised
    assert len(made) == 2
    assert made[-1]() is None


def test_ldfp_requires_tv_penalty(desk):
    obj = Objective(desk.op, desk.f_true, 1e-6, desk.grid, penalty="quadratic")
    with pytest.raises(ValueError):
        ldfp(obj, np.zeros(desk.grid.n_nodes))


def test_ldfp_noiseless_recovers_profile(desk):
    obj = Objective(desk.op, desk.f_true, 1e-12, desk.grid)
    result = ldfp(obj, np.zeros(desk.grid.n_nodes), truth=desk.truth)
    assert result.termination == "max-iter"
    assert result.iterations == 30
    assert len(result.records) == 31
    assert result.records[-1].relative_error <= 1e-6


def test_ldfp_outer_steps_solve_lagged_system(desk):
    # each outer step must satisfy the frozen-weight normal equations to the
    # inner tolerance: ||(T^T T + alpha L) s + g|| <= tol * ||g||
    data, _ = add_noise(desk.f_true, 0.02, seed=11)
    alpha = 1e-6
    obj = Objective(desk.op, data, alpha, desk.grid)
    inner_tol = 1e-8
    phi0 = np.zeros(desk.grid.n_nodes)
    one = ldfp(obj, phi0, inner_tol=inner_tol, max_iterations=1).field.values
    two = ldfp(obj, phi0, inner_tol=inner_tol, max_iterations=2).field.values
    for start, stop in ((phi0, one), (one, two)):
        gamma = smoothing_weights(start, desk.grid, obj.beta)
        _, grad = obj.eval(start)
        step = stop - start
        applied = desk.op.apply_adjoint(desk.op.apply(step)) + alpha * apply_weights(
            gamma, desk.grid, step
        )
        ratio = np.linalg.norm(applied + grad) / np.linalg.norm(grad)
        assert ratio <= inner_tol * 1.05


def test_ldfp_records_inner_solve_stats(desk):
    data, _ = add_noise(desk.f_true, 0.02, seed=11)
    obj = Objective(desk.op, data, 1e-6, desk.grid)
    phi0 = np.zeros(desk.grid.n_nodes)
    inner_tol = 1e-8
    capped = ldfp(obj, phi0, inner_tol=inner_tol, inner_max_iterations=3, max_iterations=4)
    assert len(capped.inner_solves) == capped.iterations == 4
    for stats, record in zip(capped.inner_solves, capped.records):
        assert stats.iterations == 3
        assert stats.hit_cap
        assert stats.residual > inner_tol * record.gradient_norm
    solved = ldfp(obj, phi0, inner_tol=inner_tol, inner_max_iterations=200, max_iterations=4)
    assert len(solved.inner_solves) == solved.iterations == 4
    for stats, record in zip(solved.inner_solves, solved.records):
        assert 1 <= stats.iterations < 200
        assert not stats.hit_cap
        assert stats.residual <= inner_tol * record.gradient_norm
    lbfgs = lbfgs_trust_region(obj, phi0, LbfgsOptions(max_iterations=3))
    assert lbfgs.inner_solves == []


def test_ldfp_without_outer_steps_records_only_the_start(desk):
    obj = Objective(desk.op, desk.f_true, 1e-6, desk.grid)
    seen = []
    result = ldfp(
        obj,
        np.zeros(desk.grid.n_nodes),
        max_iterations=0,
        truth=desk.truth,
        callback=seen.append,
    )
    assert result.termination == "max-iter"
    assert result.iterations == 0
    assert result.inner_solves == []
    assert len(result.records) == 1
    assert len(seen) == 1
    assert result.records[0].relative_error == pytest.approx(1.0)


@pytest.mark.parametrize("cap", [-1, -3])
def test_ldfp_rejects_a_negative_step_count(desk, monkeypatch, cap):
    obj = Objective(desk.op, desk.f_true, 1e-6, desk.grid)
    evaluations = []
    monkeypatch.setattr(obj, "eval", lambda phi: evaluations.append(phi))
    seen = []
    with pytest.raises(ValueError, match="^max_iterations must be >= 0$"):
        ldfp(obj, np.zeros(desk.grid.n_nodes), max_iterations=cap, callback=seen.append)
    assert evaluations == [] and seen == []


def test_plain_array_solutions_for_plain_objectives(rng):
    obj = quadratic_objective(np.ones(6), rng.standard_normal(6))
    result = lbfgs_trust_region(obj, np.zeros(6), LbfgsOptions(max_iterations=20))
    assert isinstance(result.field, np.ndarray)


def test_tv_solves_build_one_field_the_result(desk, monkeypatch):
    # TV takes the solver's node vector and grid; only the result is a Field
    built = []
    post_init = Field.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Field, "__post_init__", counted)
    obj = Objective(desk.op, desk.f_true, 1e-6, desk.grid)
    phi0 = np.zeros(desk.grid.n_nodes)
    options = LbfgsOptions(max_iterations=20)
    for solve in (
        lambda: lbfgs_trust_region(obj, phi0, options, truth=desk.truth),
        lambda: ldfp(obj, phi0, max_iterations=2, truth=desk.truth),
    ):
        built.clear()
        result = solve()
        assert result.iterations > 1
        assert len(built) == 1 and built[0] is result.field
    for module in (atmtomo.tv, atmtomo.objective):
        assert Field not in vars(module).values()


@pytest.mark.parametrize("solve", [lbfgs_trust_region, ldfp])
def test_tv_solvers_reject_a_nan_start(desk, solve):
    # the NaN reaches the objective value, which the solver checks; warnings
    # are errors in this suite, so none may be raised before it
    obj = Objective(desk.op, desk.f_true, 1e-6, desk.grid)
    phi0 = np.zeros(desk.grid.n_nodes)
    phi0[5] = math.nan
    with pytest.raises(ValueError, match="^objective value is not finite at the starting point$"):
        solve(obj, phi0)
