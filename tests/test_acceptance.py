"""Acceptance suite: twelve numbered end-to-end checks on the full pipeline.

Each test prints one `criterion NN [PASS|FAIL]` line through the helpers
module; the terminal summary replays all of them together.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import helpers
from atmtomo import (
    Field,
    Objective,
    add_noise,
    assemble_operator,
    build_network,
    make_grid,
    place_network,
    take_rays,
    true_profile,
    tv_value_and_gradient,
    vertical_profile,
)
from atmtomo.diagnostics import read_csv
from atmtomo.experiments import (
    default_config,
    derive_noise_seed,
    run_benchmark,
    run_sweep,
)
from atmtomo.solvers import LbfgsOptions, cgne, lbfgs_trust_region, ldfp


@pytest.fixture(scope="module")
def scene():
    """Full-size reconstruction problem shared by several criteria."""
    config = default_config()
    grid = config.make_grid()
    network = place_network(grid, config.stations, config.emitters, config.seed)
    truth = true_profile(grid)
    operators = {}

    def operator(rays):
        if rays not in operators:
            operators[rays] = assemble_operator(take_rays(network, rays))
        return operators[rays]

    return {
        "config": config,
        "grid": grid,
        "network": network,
        "truth": truth,
        "operator": operator,
    }


@pytest.fixture(scope="module")
def sweep_result(scene, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    config = replace(scene["config"], output_dir=str(out))
    t0 = time.perf_counter()
    manifest = run_sweep(config)
    elapsed = time.perf_counter() - t0
    return {"config": config, "manifest": manifest, "out": out, "elapsed": elapsed}


@pytest.fixture(scope="module")
def noise_runs(scene):
    """360-ray reconstructions at three relative noise levels."""
    config = scene["config"]
    op = scene["operator"](360)
    truth = scene["truth"]
    f_true = op.apply(truth.values)
    options = LbfgsOptions(
        memory=config.lbfgs_memory,
        max_iterations=config.lbfgs_max_iterations,
        grad_tol=0.0,
    )
    runs = {}
    for noise in (0.10, 0.02, 0.001):
        data, _ = add_noise(f_true, noise, derive_noise_seed(config.seed, 360, noise))
        objective = Objective(
            op, data, config.alpha_tv, scene["grid"], beta=config.beta
        )
        runs[noise] = lbfgs_trust_region(
            objective, np.zeros(scene["grid"].n_nodes), options, truth=truth
        )
    return runs


@pytest.fixture(scope="module")
def benchmark_report(scene, tmp_path_factory):
    out = tmp_path_factory.mktemp("benchmark")
    config = replace(
        scene["config"], benchmark_lbfgs_iterations=300, output_dir=str(out)
    )
    report = run_benchmark(config)
    return {"report": report, "out": out}


def test_criterion_01_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    grid = make_grid(6, 6, 6, (0, 1, 0, 1, 0, 15))
    network = place_network(grid, 8, 12, seed=2)
    op = assemble_operator(network)
    truth_n = true_profile(grid, normalized=True)
    data = op.apply(truth_n.values)
    objective = Objective(op, data, 1e-13, grid, beta=1e-2)
    rng = np.random.default_rng(20)
    phi = truth_n.values + 0.1 * rng.standard_normal(grid.n_nodes)
    _, grad = objective.eval(phi)
    step = 1e-6
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(grid.n_nodes)
        v /= np.linalg.norm(v)
        plus, _ = objective.eval(phi + step * v)
        minus, _ = objective.eval(phi - step * v)
        fd = (plus - minus) / (2 * step)
        worst = max(worst, abs(fd - float(grad @ v)) / abs(fd))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    helpers.record_criterion(
        1,
        "objective gradient vs central differences",
        ok,
        f"max rel deviation {worst:.3e} over 20 directions, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_02_adjoint_identity(scene):
    t0 = time.perf_counter()
    op = scene["operator"](450)
    frobenius = math.sqrt(float((op.matrix.data**2).sum()))
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(100):
        phi = rng.standard_normal(op.n_cols)
        psi = rng.standard_normal(op.n_rows)
        lhs = float(op.apply(phi) @ psi)
        rhs = float(phi @ op.apply_adjoint(psi))
        bound = 1e-10 * np.linalg.norm(phi) * np.linalg.norm(psi) * frobenius
        worst = max(worst, abs(lhs - rhs) / bound)
    integrals = op.apply(scene["truth"].values)
    positive = bool(np.all(integrals > 0.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and positive and elapsed < 30.0
    helpers.record_criterion(
        2,
        "forward/adjoint inner-product identity",
        ok,
        f"worst mismatch at {worst:.3e} of the bound, "
        f"{'all' if positive else 'NOT all'} 450 integrals positive, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_03_tv_oracles():
    t0 = time.perf_counter()
    worst_value = 0.0
    worst_grad = 0.0
    for seed, dims, bounds in (
        (23, (3, 3, 3), (0, 1, 0, 2, 0, 3)),
        (24, (5, 5, 5), (0, 1, 0, 1, 0, 15)),
    ):
        grid = make_grid(*dims, bounds)
        values = np.random.default_rng(seed).standard_normal(grid.n_nodes)
        field = Field(grid=grid, values=values)
        value = tv_value_and_gradient(field.values, field.grid, 1e-2)[0]
        want_value = helpers.tv_value_loops(field, 1e-2)
        worst_value = max(worst_value, abs(value - want_value) / abs(want_value))
        grad = helpers.tv_gradient(field, 1e-2)
        want_grad = helpers.dense_tv_gradient(field, 1e-2)
        worst_grad = max(
            worst_grad,
            float(np.linalg.norm(grad - want_grad) / np.linalg.norm(want_grad)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_value <= 1e-12 and worst_grad <= 1e-12 and elapsed < 5.0
    helpers.record_criterion(
        3,
        "smoothed tv value and gradient vs brute-force oracles",
        ok,
        f"value dev {worst_value:.2e}, gradient dev {worst_grad:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_04_vertical_ray_closed_form():
    grid = make_grid(2, 2, 60, (0, 1, 0, 1, 0, 15))
    network = build_network(grid, [(0.0, 0.0, 0.0)], [(0.0, 0.0, 15.0)])
    op = assemble_operator(network, 60)
    zs = grid.axis_nodes("z")
    profile = vertical_profile(zs)
    values = np.broadcast_to(profile[:, None, None], (60, 2, 2)).ravel()
    integral = float(op.apply(np.ascontiguousarray(values, dtype=float))[0])
    closed_form = 175.0 * (
        1.0 * (1.0 - math.exp(-15.0)) + 7.0 * (1.0 - math.exp(-15.0 / 7.0))
    )
    deviation = abs(integral - closed_form) / closed_form
    ok = deviation <= 0.02
    helpers.record_criterion(
        4,
        "vertical-ray quadrature vs closed-form integral",
        ok,
        f"quadrature {integral:.6f} vs exact {closed_form:.6f}, rel {deviation:.2e}",
    )
    assert ok


def test_criterion_05_solver_on_reference_problems():
    diag = np.linspace(1.0, 3.0, 50)
    target = np.random.default_rng(5).uniform(-2, 2, 50)

    def quadratic(x):
        shifted = x - target
        return 0.5 * float(shifted @ (diag * shifted)), diag * shifted

    quad_result = lbfgs_trust_region(
        helpers.FnObjective(quadratic),
        np.zeros(50),
        LbfgsOptions(memory=10, max_iterations=200, grad_tol=1e-10),
    )
    quad_ok = (
        quad_result.termination == "gradient-tol"
        and quad_result.iterations <= 55
        and quad_result.records[-1].gradient_norm <= 1e-10
    )
    rosen_result = lbfgs_trust_region(
        helpers.FnObjective(helpers.rosenbrock),
        np.array([-1.2, 1.0]),
        LbfgsOptions(memory=10, max_iterations=100, grad_tol=1e-6),
    )
    rosen_ok = (
        rosen_result.termination == "gradient-tol" and rosen_result.iterations <= 100
    )
    ok = quad_ok and rosen_ok
    helpers.record_criterion(
        5,
        "trust-region solver on quadratic and Rosenbrock problems",
        ok,
        f"quadratic {quad_result.iterations} iterations to "
        f"{quad_result.records[-1].gradient_norm:.1e}, "
        f"Rosenbrock {rosen_result.iterations} iterations to "
        f"{rosen_result.records[-1].gradient_norm:.1e}",
    )
    assert ok


def test_criterion_06_conjugate_gradient_oracle():
    worst_rel = 0.0
    monotone = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        basis = rng.standard_normal((20, 20))
        matrix = basis.T @ basis + 20.0 * np.eye(20)
        rhs = rng.standard_normal(20)
        residuals = []
        solution, _ = cgne(lambda v: matrix @ v, rhs, tol=1e-10, callback=residuals.append)
        exact = np.linalg.solve(matrix, rhs)
        worst_rel = max(
            worst_rel, float(np.linalg.norm(solution - exact) / np.linalg.norm(exact))
        )
        for before, after in zip(residuals, residuals[1:]):
            if after > before * (1 + 1e-12):
                monotone = False
    ok = worst_rel <= 1e-8 and monotone
    helpers.record_criterion(
        6,
        "conjugate gradients vs dense solve",
        ok,
        f"worst rel error {worst_rel:.2e}, residuals "
        f"{'monotone' if monotone else 'NOT monotone'} over 3 seeds",
    )
    assert ok


def sweep_rel_errors(manifest):
    rels = {}
    for entry in manifest["outputs"]:
        if entry["status"] == "ok":
            rels[entry["rays"]] = entry["final_relative_error"]
    return rels


def test_criterion_07_more_rays_reconstruct_better(sweep_result):
    rels = sweep_rel_errors(sweep_result["manifest"])
    elapsed = sweep_result["elapsed"]
    ok = (
        sweep_result["manifest"]["failures"] == 0
        and rels[450] < rels[50]
        and rels[1] >= 0.9
        and elapsed < 600.0
    )
    helpers.record_criterion(
        7,
        "measurement-count sweep ordering",
        ok,
        f"rel errors 450 rays {rels[450]:.4f} < 50 rays {rels[50]:.4f}, "
        f"1 ray {rels[1]:.4f}, sweep took {elapsed:.1f}s",
    )
    assert ok


def test_criterion_08_noise_level_ordering(noise_runs):
    rel_low = noise_runs[0.001].records[-1].relative_error
    rel_high = noise_runs[0.10].records[-1].relative_error
    trace = [r.relative_error for r in noise_runs[0.02].records]
    quartile = len(trace) // 4
    worst_band = 0.0
    running_min = trace[quartile]
    for value in trace[quartile:]:
        running_min = min(running_min, value)
        worst_band = max(worst_band, value / running_min)
    ok = rel_low <= rel_high and worst_band <= 1.05
    helpers.record_criterion(
        8,
        "noise-level ordering and settled 2% trace",
        ok,
        f"rel 0.1% noise {rel_low:.4f} <= rel 10% noise {rel_high:.4f}, "
        f"post-quartile band peak {worst_band:.4f}",
    )
    assert ok


def test_criterion_09_ldfp_matches_lbfgs_accuracy(benchmark_report):
    report = benchmark_report["report"]
    lbfgs_records = read_csv(benchmark_report["out"] / "benchmark_lbfgs.csv")
    outers = report["ldfp"]["iterations"]
    assert len(lbfgs_records) > outers
    lbfgs_rel = lbfgs_records[outers].relative_error
    ldfp_rel = report["ldfp"]["final_relative_error"]
    ok = ldfp_rel <= 1.5 * lbfgs_rel
    helpers.record_criterion(
        9,
        "ldfp accuracy at equal iteration count",
        ok,
        f"ldfp rel {ldfp_rel:.4f} vs lbfgs rel {lbfgs_rel:.4f} "
        f"after {outers} iterations each",
    )
    assert ok


def test_criterion_10_lbfgs_iterations_are_cheaper(benchmark_report):
    report = benchmark_report["report"]
    ratio = report["speed_ratio_equal_iterations"]
    ok = ratio >= 5.0
    helpers.record_criterion(
        10,
        "per-iteration cost ratio ldfp/lbfgs",
        ok,
        f"ratio {ratio:.1f} (lbfgs {report['lbfgs']['seconds_per_iteration']:.4f}s, "
        f"ldfp {report['ldfp']['seconds_per_iteration']:.4f}s per iteration)",
    )
    assert ok


def test_criterion_11_discrepancy_settles(scene):
    config = scene["config"]
    op = scene["operator"](360)
    truth = scene["truth"]
    f_true = op.apply(truth.values)
    data, delta = add_noise(f_true, 0.02, derive_noise_seed(config.seed, 360, 0.02))
    # strong regularization drives the iteration to a settled stationary point
    objective = Objective(op, data, 1e4, scene["grid"], beta=config.beta)
    options = LbfgsOptions(memory=10, max_iterations=800, grad_tol=0.0)
    result = lbfgs_trust_region(
        objective, np.zeros(scene["grid"].n_nodes), options, truth=truth
    )
    tail = np.array([r.discrepancy for r in result.records[-10:]])
    spread = float(tail.std() / tail.mean())
    ok = spread <= 0.05
    helpers.record_criterion(
        11,
        "converged run has a settled discrepancy tail",
        ok,
        f"last-10 std/mean {spread:.2e}, tail mean {tail.mean():.4e}, "
        f"noise floor delta*sqrt(M) {delta * math.sqrt(op.n_rows):.4e}",
    )
    assert ok


def test_criterion_12_sweep_reruns_identically(sweep_result, tmp_path_factory):
    out_b = tmp_path_factory.mktemp("sweep_again")
    config_b = replace(sweep_result["config"], output_dir=str(out_b))
    manifest_b = run_sweep(config_b)
    combos_a = {e["name"]: e for e in sweep_result["manifest"]["outputs"]}
    combos_b = {e["name"]: e for e in manifest_b["outputs"]}
    identical = set(combos_a) == set(combos_b)
    compared = 0
    if identical:
        for name, entry in combos_a.items():
            if entry["status"] != "ok":
                continue
            rows_a = read_csv(sweep_result["out"] / entry["csv"])
            rows_b = read_csv(out_b / combos_b[name]["csv"])
            strip = lambda r: (
                r.iteration,
                r.objective,
                r.step_norm,
                r.relative_error,
                r.gradient_norm,
                r.discrepancy,
            )
            if [strip(r) for r in rows_a] != [strip(r) for r in rows_b]:
                identical = False
                break
            compared += 1
    ok = identical and compared > 0
    helpers.record_criterion(
        12,
        "sweep rerun reproduces every csv (timing column aside)",
        ok,
        f"{compared} combination csv files byte-identical outside the seconds column",
    )
    assert ok
