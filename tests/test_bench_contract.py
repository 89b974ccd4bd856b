"""The benchmark still measures what the drivers compute.

``bench/tracing.py`` wraps atmtomo's layers by module attribute.  A refactor
that renames or unbinds one of them would leave that span silent and the
per-layer metrics quietly at zero; one test runs a traced pass of the staged
workload on a tiny two-solver TV problem and checks every span fires, and
another that the CG counts read from the spans are LDFP's own inner
iterations, capped solves and outer steps.

``bench/workloads.py`` keeps its own copies of the sweep driver's combination
names, scene and data setup, and solver wiring; the other test checks, bit
for bit, that they still build and solve what ``experiments.run_sweep`` does.

Every ``atmtomo.<name>`` the benchmark's scripts look up must still resolve
on the package, so removing a public name they use fails here rather than in
a benchmark run.
"""

import itertools
import re
import sys
from pathlib import Path

import numpy as np

import atmtomo
from atmtomo import ExperimentConfig, experiments

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_bench_lookups_resolve_on_the_package():
    lookups = {
        (path.name, name)
        for path in sorted(BENCH.glob("*.py"))
        for name in re.findall(r"\batmtomo\.([A-Za-z_]\w*)", path.read_text())
    }
    assert {"place_network", "take_rays", "assemble_operator"} <= {name for _, name in lookups}
    assert sorted((f, name) for f, name in lookups if not hasattr(atmtomo, name)) == []


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


def test_traced_cg_counts_are_ldfps_own(tmp_path):
    # the per-layer CG counts come from the spans: one solvers.cg span per
    # outer step and one tv.apply_weights span inside it per CG iteration
    config = ExperimentConfig(
        nx=5,
        ny=5,
        nz=5,
        stations=4,
        emitters=5,
        seed=3,
        ray_counts=(10,),
        noise_fractions=(0.01,),
        solvers=("ldfp",),
        ldfp_outer_iterations=3,
        ldfp_inner_max_iterations=4,
        benchmark_rays=10,
        benchmark_noise=0.01,
    )
    tracer = tracing.Tracer()
    try:
        p = workloads.run_pass(config, config.seed, str(tmp_path))
    finally:
        tracer.close()
    (result,) = [s.result for s in p.solves]
    cap = config.ldfp_inner_max_iterations
    m = tracing.layer_metrics(tracer.spans, result.records, cap)
    inner = result.inner_solves
    assert len(inner) == config.ldfp_outer_iterations
    assert sum(stats.hit_cap for stats in inner) >= 1
    assert m["solvers.cg_iterations"] == sum(stats.iterations for stats in inner)
    assert m["tv.apply_weights_calls"] == m["solvers.cg_iterations"]
    assert m["solvers.cg_cap_hits"] == sum(stats.hit_cap for stats in inner)
    assert m["solvers.cg_calls"] == len(inner)


def test_workloads_mirror_the_drivers(tmp_path, monkeypatch):
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

    # what the sweep driver actually solved, one call per combination it ran
    solved = []
    real = experiments._solve_combo

    def capture(config, grid, op, f_delta, truth, solver, penalty):
        result = real(config, grid, op, f_delta, truth, solver, penalty)
        solved.append((op, f_delta, truth, result))
        return result

    monkeypatch.setattr(experiments, "_solve_combo", capture)
    manifest = experiments.run_sweep(config)
    assert manifest["failures"] == 0
    ran = [e for e in manifest["outputs"] if e["status"] == "ok"]
    assert len(ran) == len(solved)
    # keyed by (ray count, noise), so the skipped ldfp+quadratic problems are
    # checked against the operator and data of the combinations beside them
    ops, data = {}, {}
    results = {}
    for entry, (op, f_delta, _, result) in zip(ran, solved, strict=True):
        ops[entry["rays"], entry["noise"]] = op
        data[entry["rays"], entry["noise"]] = f_delta
        results[entry["name"]] = result

    truth = solved[0][2]
    assert all(t is truth for _, _, t, _ in solved)
    assert len(manifest["outputs"]) - len(ran) == 4  # the skipped ldfp+quadratic ones

    problems, n_rays = workloads.setup(config, config.seed)
    assert n_rays == len(experiments._build_scene(config)[2].rays)
    by_name = {p.name: p for p in problems}
    assert len(by_name) == len(problems) == len(combos) == len(manifest["outputs"])
    for entry in manifest["outputs"]:
        p = by_name[entry["name"]]
        key = entry["rays"], entry["noise"]
        got = p.objective.operator.matrix
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(ops[key].matrix, attr))
        assert np.array_equal(p.objective.data, data[key])
        assert np.array_equal(p.truth.values, truth.values)
        if entry["name"] not in results:
            continue
        mine = workloads._call_solver(config, p, None)
        assert workloads.strip_seconds(mine.records) == workloads.strip_seconds(
            results[entry["name"]].records
        )
