"""Penalized least-squares objective: values, gradients, convexity, bounds."""

import math

import numpy as np
import pytest

import helpers
from atmtomo import (
    Field,
    Objective,
    add_noise,
    make_grid,
    true_profile,
    tv_value_and_gradient,
)
from atmtomo.solvers import LbfgsOptions, lbfgs_trust_region, ldfp


def manual_eval(objective, phi):
    residual = objective.operator.apply(phi) - objective.data
    misfit = 0.5 * float(residual @ residual)
    field = Field(grid=objective.grid, values=phi)
    if objective.penalty == "tv":
        tv_value = tv_value_and_gradient(field.values, field.grid, objective.beta)[0]
        value = misfit + objective.alpha * tv_value
        grad = objective.operator.apply_adjoint(residual) + objective.alpha * helpers.tv_gradient(
            field, objective.beta
        )
    else:
        value = misfit + objective.alpha * 0.5 * float(phi @ phi)
        grad = objective.operator.apply_adjoint(residual) + objective.alpha * phi
    return value, grad


def test_validation(desk):
    with pytest.raises(ValueError):
        Objective(desk.op, desk.f_true, 0.0, desk.grid)
    with pytest.raises(ValueError):
        Objective(desk.op, desk.f_true, -1e-3, desk.grid)
    for alpha, shown in ((math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")):
        message = f"regularization weight must be positive and finite, got {shown}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            Objective(desk.op, desk.f_true, alpha, desk.grid)
    with pytest.raises(ValueError):
        Objective(desk.op, desk.f_true, 1e-3, desk.grid, penalty="ridge")
    with pytest.raises(ValueError):
        Objective(desk.op, desk.f_true[:-1], 1e-3, desk.grid)
    with pytest.raises(ValueError):
        Objective(desk.op, desk.f_true, 1e-3, make_grid(3, 3, 3, (0, 1, 0, 1, 0, 15)))
    with pytest.raises(ValueError):
        Objective(desk.op, desk.f_true, 1e-3, desk.grid, beta=1.0)


def test_tv_value_and_gradient_match_manual(desk, rng):
    obj = Objective(desk.op, desk.f_true, 1e-3, desk.grid)
    for _ in range(3):
        phi = rng.standard_normal(desk.grid.n_nodes) * 100.0
        value, grad = obj.eval(phi)
        want_value, want_grad = manual_eval(obj, phi)
        assert value == pytest.approx(want_value, rel=1e-13)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-9)


def test_quadratic_value_and_gradient_match_manual(desk, rng):
    obj = Objective(desk.op, desk.f_true, 1e-2, desk.grid, penalty="quadratic")
    phi = rng.standard_normal(desk.grid.n_nodes) * 50.0
    value, grad = obj.eval(phi)
    want_value, want_grad = manual_eval(obj, phi)
    assert value == pytest.approx(want_value, rel=1e-13)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-9)


def test_quadratic_penalty_is_the_zero_anchor_formula_bitwise(desk, rng):
    # 0.5*||phi||^2 rounds exactly as 0.5*||phi - 0||^2 does, so quadratic
    # runs match those made when the penalty measured from a zero anchor
    alpha = 1e-2
    obj = Objective(desk.op, desk.f_true, alpha, desk.grid, penalty="quadratic")
    phi = rng.standard_normal(desk.grid.n_nodes) * 50.0
    diff = phi - np.zeros(desk.grid.n_nodes)
    residual = desk.op.apply(phi) - desk.f_true
    value, grad = obj.eval(phi)
    assert value == 0.5 * float(residual @ residual) + alpha * (0.5 * float(diff @ diff))
    assert np.array_equal(grad, desk.op.apply_adjoint(residual) + alpha * diff)
    value, _ = obj.eval(np.zeros(desk.grid.n_nodes))
    assert value == pytest.approx(0.5 * float(desk.f_true @ desk.f_true), rel=1e-15)


def test_gradient_against_finite_differences(desk, rng):
    # order-one field values keep the central differences clear of rounding
    truth_n = true_profile(desk.grid, normalized=True)
    data = desk.op.apply(truth_n.values)
    obj = Objective(desk.op, data, 1e-3, desk.grid)
    phi = truth_n.values + 0.1 * rng.standard_normal(desk.grid.n_nodes)
    _, grad = obj.eval(phi)
    step = 1e-6
    for _ in range(10):
        v = rng.standard_normal(desk.grid.n_nodes)
        v /= np.linalg.norm(v)
        plus, _ = obj.eval(phi + step * v)
        minus, _ = obj.eval(phi - step * v)
        fd = (plus - minus) / (2 * step)
        assert fd == pytest.approx(float(grad @ v), rel=1e-5)


def test_evaluation_counter(desk):
    obj = Objective(desk.op, desk.f_true, 1e-3, desk.grid)
    assert obj.evaluations == 0
    obj.eval(desk.truth.values)
    obj.eval(desk.truth.values)
    assert obj.evaluations == 2
    obj.discrepancy(desk.truth.values)
    assert obj.evaluations == 2


def test_discrepancy_values(desk):
    obj = Objective(desk.op, desk.f_true, 1e-3, desk.grid)
    assert obj.discrepancy(np.zeros(desk.grid.n_nodes)) == pytest.approx(
        np.linalg.norm(desk.f_true), rel=1e-15
    )
    assert obj.discrepancy(desk.truth.values) <= 1e-9 * np.linalg.norm(desk.f_true)


def test_noiseless_misfit_vanishes_at_truth(desk):
    obj = Objective(desk.op, desk.f_true, 1e-12, desk.grid)
    value, _ = obj.eval(desk.truth.values)
    field_tv = tv_value_and_gradient(desk.truth.values, desk.truth.grid, 1e-2)[0]
    # at the exact profile only the penalty term survives
    assert value == pytest.approx(1e-12 * field_tv, rel=1e-6)


def test_value_floor(desk, rng):
    alpha = 1e-3
    beta = 1e-2
    obj = Objective(desk.op, desk.f_true, alpha, desk.grid, beta=beta)
    floor = alpha * math.sqrt(beta) * desk.grid.n_nodes * desk.grid.cell_volume
    for scale in (0.0, 1.0, 300.0):
        phi = rng.standard_normal(desk.grid.n_nodes) * scale
        value, _ = obj.eval(phi)
        assert value >= floor


def test_convexity_along_segments(desk, rng):
    for penalty in ("tv", "quadratic"):
        obj = Objective(desk.op, desk.f_true, 1e-3, desk.grid, penalty=penalty)
        for _ in range(5):
            a = rng.standard_normal(desk.grid.n_nodes) * 200.0
            b = rng.standard_normal(desk.grid.n_nodes) * 200.0
            fa, _ = obj.eval(a)
            fb, _ = obj.eval(b)
            for t in (0.25, 0.5, 0.75):
                ft, _ = obj.eval((1 - t) * a + t * b)
                chord = (1 - t) * fa + t * fb
                assert ft <= chord * (1 + 1e-9)


def test_noisy_minimum_discrepancy_near_noise_level(desk):
    # with a weak penalty the fitted discrepancy should settle near the
    # injected noise magnitude rather than far above or below it
    noise = 0.02
    data, delta = add_noise(desk.f_true, noise, seed=11)
    obj = Objective(desk.op, data, 1e-12, desk.grid)
    options = LbfgsOptions(memory=10, max_iterations=500, grad_tol=0.0)
    result = lbfgs_trust_region(obj, np.zeros(desk.grid.n_nodes), options)
    ratio = obj.discrepancy(result.field.values) / (delta * math.sqrt(desk.f_true.size))
    assert 0.5 <= ratio <= 3.0


class _Applies:
    """Counts a SparseOperator's forward applications."""

    def __init__(self, monkeypatch, op):
        self.calls = 0
        original = op.apply

        def apply(v):
            self.calls += 1
            return original(v)

        monkeypatch.setattr(op, "apply", apply)


@pytest.mark.parametrize("solver", ["lbfgs", "ldfp"])
def test_records_take_the_discrepancy_from_the_last_eval(desk, monkeypatch, solver):
    data, _ = add_noise(desk.f_true, 0.02, seed=11)
    applies = _Applies(monkeypatch, desk.op)
    asked = []

    class Asked(Objective):
        def discrepancy(self, phi):
            calls = applies.calls
            value = super().discrepancy(phi)
            asked.append((phi.copy(), value, applies.calls - calls))
            return value

    obj = Asked(desk.op, data, 1e-6, desk.grid)
    phi0 = np.zeros(desk.grid.n_nodes)
    if solver == "lbfgs":
        result = lbfgs_trust_region(obj, phi0, LbfgsOptions(max_iterations=40))
        # a rejected step repeats the last record without asking again
        records = [r for r in result.records if r.iteration == 0 or r.step_norm > 0.0]
    else:
        result = ldfp(obj, phi0, max_iterations=4)
        records = result.records
    assert len(asked) == len(records) > 4
    fresh = Objective(desk.op, data, 1e-6, desk.grid)
    for (phi, value, calls), record in zip(asked, records):
        assert calls == 0
        assert record.discrepancy == value == fresh.discrepancy(phi)


def test_discrepancy_recomputes_for_any_other_array(desk, monkeypatch, rng):
    obj = Objective(desk.op, desk.f_true, 1e-3, desk.grid)
    applies = _Applies(monkeypatch, desk.op)
    phi = rng.standard_normal(desk.grid.n_nodes)
    other = rng.standard_normal(desk.grid.n_nodes)
    want = float(np.linalg.norm(desk.op.apply(phi) - desk.f_true))
    applies.calls = 0
    obj.eval(phi)
    assert obj.discrepancy(phi) == want
    assert applies.calls == 1
    assert obj.discrepancy(phi.copy()) == want
    assert applies.calls == 2
    assert obj.discrepancy(other) == float(np.linalg.norm(desk.op.apply(other) - desk.f_true))
    obj.eval(other)
    applies.calls = 0
    assert obj.discrepancy(phi) == want
    assert applies.calls == 1
