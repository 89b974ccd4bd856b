"""The benchmark still measures what the drivers compute.

``bench/tracing.py`` wraps atmtomo's layers by module attribute.  A refactor
that renames or unbinds one of them would leave that span silent and the
per-layer metrics quietly at zero; one test runs a traced pass of the staged
workload on a tiny two-solver TV problem and checks every span fires.

``bench/workloads.py`` keeps its own copies of the sweep driver's combination
names, scene and data setup, and solver wiring; the other test checks that
they still agree with ``atmtomo.experiments`` bit for bit.
"""

import itertools
import sys
from pathlib import Path

import numpy as np

from atmtomo import ExperimentConfig, assemble_operator, experiments, take_rays

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_traced_pass_fires_every_span(tmp_path):
    config = ExperimentConfig(
        nx=5,
        ny=5,
        nz=5,
        stations=4,
        emitters=5,
        seed=3,
        ray_counts=(10,),
        noise_fractions=(0.01,),
        solvers=("lbfgs", "ldfp"),
        penalties=("tv",),
        lbfgs_max_iterations=8,
        ldfp_outer_iterations=2,
        ldfp_inner_max_iterations=50,
        benchmark_rays=10,
        benchmark_noise=0.01,
    )
    tracer = tracing.Tracer()
    try:
        p = workloads.run_pass(config, config.seed, str(tmp_path))
    finally:
        tracer.close()
    assert tracer.leftovers() == []
    fired = {span[tracing.NAME] for span in tracer.spans}
    assert [name for _, _, name in tracing.TARGETS if name not in fired] == []
    assert [s.problem.name for s in p.solves] == ["lbfgs_10rays_0.01", "ldfp_10rays_0.01"]
    assert [s.error for s in p.solves] == [None, None]


def test_workloads_mirror_the_drivers(tmp_path):
    config = ExperimentConfig(
        nx=5,
        ny=5,
        nz=5,
        stations=4,
        emitters=5,
        seed=3,
        ray_counts=(6, 12),
        noise_fractions=(0.01, 0.05),
        solvers=("lbfgs", "ldfp"),
        penalties=("tv", "quadratic"),
        lbfgs_max_iterations=4,
        ldfp_outer_iterations=2,
        ldfp_inner_max_iterations=20,
        benchmark_rays=10,
        benchmark_noise=0.01,
        output_dir=str(tmp_path),
    )
    combos = list(
        itertools.product(
            config.solvers, config.penalties, config.ray_counts, config.noise_fractions
        )
    )
    for combo in combos:
        assert workloads.combo_name(*combo) == experiments._combo_name(*combo)

    problems, n_rays = workloads.setup(config, config.seed)
    grid, truth, network = experiments._build_scene(config)
    assert n_rays == len(network.rays)
    by_name = {p.name: p for p in problems}
    assert len(by_name) == len(problems) == len(combos)
    for rays in config.ray_counts:
        op = assemble_operator(take_rays(network, rays), config.samples_per_ray)
        f_true = op.apply(truth.values)
        for noise in config.noise_fractions:
            data, _ = experiments._noisy_data(config, f_true, rays, noise)
            for solver, penalty in itertools.product(config.solvers, config.penalties):
                p = by_name[experiments._combo_name(solver, penalty, rays, noise)]
                got = p.objective.operator.matrix
                for attr in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, attr), getattr(op.matrix, attr))
                assert np.array_equal(p.objective.data, data)
                assert np.array_equal(p.truth.values, truth.values)
                if solver == "ldfp" and penalty != "tv":
                    continue
                mine = workloads._call_solver(config, p, None)
                theirs = experiments._solve_combo(config, grid, op, data, truth, solver, penalty)
                assert workloads.strip_seconds(mine.records) == workloads.strip_seconds(
                    theirs.records
                )
