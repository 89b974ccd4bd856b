"""The benchmark's workloads, run in stages through atmtomo's public functions.

Every atmtomo callable is looked up on the package at call time, so the
tracer in ``tracing.py`` can wrap it from outside without touching the
package.  One pass of a workload is three timed stages:

1. setup: grid, true profile, network, ray subsets, operators, noisy data and
   one ``Objective`` per solve;
2. solve: one solver call per objective, watching the records through the
   public ``callback`` for the discrepancy target delta * sqrt(M);
3. write: one convergence CSV and one field file per solve.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

import atmtomo


def sweep_default() -> atmtomo.ExperimentConfig:
    """What ``atmtomo --mode sweep`` computes."""
    return atmtomo.default_config()


# Outer LDFP steps per pass.  The CLI benchmark runs 30, about 10 s on a
# 2-core Xeon VM; passes that long leave too few per run to steady the
# medians on a noisy host.  The first 10 steps already show the capped inner
# CG (steps 3 on).
LDFP_OUTER_STEPS = 10


def ldfp_default() -> atmtomo.ExperimentConfig:
    """The LDFP half of ``atmtomo --mode benchmark``, cut to LDFP_OUTER_STEPS.

    Its records are the first rows of the CLI benchmark's LDFP records.
    """
    base = atmtomo.default_config()
    return replace(
        base,
        ray_counts=(base.benchmark_rays,),
        noise_fractions=(base.benchmark_noise,),
        solvers=("ldfp",),
        ldfp_outer_iterations=LDFP_OUTER_STEPS,
    )


def dense_quadratic() -> atmtomo.ExperimentConfig:
    """A 60x60x30 grid seen by all 6000 rays of a 60x100 network."""
    return replace(
        atmtomo.default_config(),
        nx=60,
        ny=60,
        stations=60,
        emitters=100,
        ray_counts=(6000,),
        penalties=("quadratic",),
    )


WORKLOADS = {
    "sweep-default": sweep_default,
    "ldfp-default": ldfp_default,
    "dense-quadratic": dense_quadratic,
}


@dataclass
class Problem:
    """One solve of a workload: its objective and its discrepancy target."""

    name: str
    solver: str
    objective: atmtomo.Objective
    truth: atmtomo.Field
    target: float


@dataclass
class Solve:
    """What one solver call returned, or why it failed."""

    problem: Problem
    result: atmtomo.SolveResult | None = None
    error: str | None = None
    seconds: float = 0.0
    tta: float | None = None


@dataclass
class Pass:
    """One timed pass of a workload."""

    setup_s: float
    solve_s: float
    tta_s: float
    wall_s: float
    solves: list
    rays: int
    nnz: int


def combo_name(solver: str, penalty: str, rays: int, noise: float) -> str:
    """Output name of one combination, as the sweep driver names it."""
    label = solver if penalty == "tv" else f"{solver}-quad"
    return f"{label}_{rays}rays_{noise:g}"


def setup(config: atmtomo.ExperimentConfig, seed: int) -> tuple[list[Problem], int]:
    """Stage 1: every call from the grid to a ready Objective, in sweep order.

    The network comes from config.seed and the measurement noise from seed,
    through the same per-combination derivation the sweep driver uses, so
    seed == config.seed reproduces the driver's data.  Returns the problems
    and the number of admissible rays in the network.
    """
    grid = atmtomo.make_grid(
        config.nx,
        config.ny,
        config.nz,
        (config.x_min, config.x_max, config.y_min, config.y_max, config.z_min, config.z_max),
    )
    truth = atmtomo.true_profile(grid, config.make_phantom_params())
    network = atmtomo.place_network(grid, config.stations, config.emitters, config.seed)
    problems = []
    for rays in config.ray_counts:
        op = atmtomo.assemble_operator(atmtomo.take_rays(network, rays), config.samples_per_ray)
        f_true = op.apply(truth.values)
        for noise in config.noise_fractions:
            data, delta = atmtomo.add_noise(
                f_true, noise, atmtomo.derive_noise_seed(seed, rays, noise)
            )
            for solver in config.solvers:
                for penalty in config.penalties:
                    alpha = config.alpha_tv if penalty == "tv" else config.alpha_quadratic
                    objective = atmtomo.Objective(
                        operator=op,
                        data=data,
                        alpha=alpha,
                        grid=grid,
                        penalty=penalty,
                        beta=config.beta,
                    )
                    problems.append(
                        Problem(
                            name=combo_name(solver, penalty, rays, noise),
                            solver=solver,
                            objective=objective,
                            truth=truth,
                            # Morozov's discrepancy principle with tau = 1
                            target=delta * math.sqrt(op.n_rows),
                        )
                    )
    return problems, len(network.rays)


def _call_solver(config, problem: Problem, callback):
    phi0 = np.zeros(problem.objective.grid.n_nodes)
    if problem.solver == "lbfgs":
        options = atmtomo.LbfgsOptions(
            memory=config.lbfgs_memory,
            max_iterations=config.lbfgs_max_iterations,
            grad_tol=config.lbfgs_grad_tol,
        )
        return atmtomo.lbfgs_trust_region(
            problem.objective, phi0, options, truth=problem.truth, callback=callback
        )
    return atmtomo.ldfp(
        problem.objective,
        phi0,
        inner_tol=config.ldfp_inner_tol,
        inner_max_iterations=config.ldfp_inner_max_iterations,
        max_iterations=config.ldfp_outer_iterations,
        truth=problem.truth,
        callback=callback,
    )


def solve(config: atmtomo.ExperimentConfig, problem: Problem) -> Solve:
    """Stage 2 for one problem; a solver that raises gives a failed Solve."""
    out = Solve(problem=problem)
    t_call = perf_counter()

    def watch(record):
        if out.tta is None and record.discrepancy <= problem.target:
            out.tta = perf_counter() - t_call

    try:
        out.result = _call_solver(config, problem, watch)
    except Exception as exc:  # a failed solve is counted, never dropped
        out.error = f"{type(exc).__name__}: {exc}"
    out.seconds = perf_counter() - t_call
    return out


def write(solves: list[Solve], out_dir: str) -> None:
    """Stage 3: one convergence CSV and one field file per finished solve."""
    for s in solves:
        if s.result is not None:
            atmtomo.write_csv(s.result.records, os.path.join(out_dir, f"{s.problem.name}.csv"))
            atmtomo.write_field(s.result.field, os.path.join(out_dir, f"{s.problem.name}.fld"))


def run_pass(config: atmtomo.ExperimentConfig, seed: int, out_dir: str) -> Pass:
    """Setup, solve and write once, timing each stage."""
    os.makedirs(out_dir, exist_ok=True)
    t0 = perf_counter()
    problems, rays = setup(config, seed)
    t1 = perf_counter()
    solves = [solve(config, p) for p in problems]
    write(solves, out_dir)
    t2 = perf_counter()
    return Pass(
        setup_s=t1 - t0,
        solve_s=sum(s.seconds for s in solves),
        tta_s=sum(s.tta for s in solves if s.tta is not None),
        wall_s=t2 - t0,
        solves=solves,
        rays=rays,
        nnz=sum({id(p.objective.operator): p.objective.operator.nnz for p in problems}.values()),
    )


def time_setup(config: atmtomo.ExperimentConfig, seed: int) -> float:
    t0 = perf_counter()
    setup(config, seed)
    return perf_counter() - t0


def strip_seconds(records) -> list[tuple]:
    """A record list without its timing column, for exact comparisons."""
    return [
        (r.iteration, r.objective, r.step_norm, r.relative_error, r.gradient_norm, r.discrepancy)
        for r in records
    ]


def check(s: Solve, reference: dict) -> list[str]:
    """Why a solve fails the benchmark's correctness checks; empty if it passes.

    reference is the workload's entry in reference.json: the terminations a
    healthy solve may end with, and per solve a relative error that the solve
    may exceed by at most the stored tolerance.
    """
    if s.error is not None:
        return [s.error]
    problems = []
    final = s.result.records[-1]
    if not math.isfinite(final.objective):
        problems.append(f"final objective {final.objective!r} is not finite")
    if s.result.termination not in reference["terminations"]:
        problems.append(f"unexpected termination {s.result.termination!r}")
    if s.tta is None:
        problems.append(f"discrepancy never reached the target {s.problem.target:.6g}")
    stored = reference["rel_error"].get(s.problem.name)
    if stored is None:
        problems.append("no stored reference error")
    elif not final.relative_error <= stored + reference["tolerance"]:
        problems.append(
            f"relative error {final.relative_error:.6f} exceeds the reference "
            f"{stored:.6f} by more than {reference['tolerance']}"
        )
    return problems


def check_files(solves: list[Solve], out_dir: str) -> list[str]:
    """Read every written file back and compare it with what the solver returned."""
    problems = []
    for s in solves:
        if s.result is None:
            continue
        base = os.path.join(out_dir, s.problem.name)
        if atmtomo.read_csv(base + ".csv") != s.result.records:
            problems.append(f"{base}.csv does not read back as written")
        if not np.array_equal(atmtomo.read_field(base + ".fld").values, s.result.field.values):
            problems.append(f"{base}.fld does not read back as written")
    return problems
