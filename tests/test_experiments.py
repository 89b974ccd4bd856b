"""Experiment driver: config files, sweep and benchmark modes, CLI."""

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import helpers
from atmtomo import (
    assemble_operator,
    operator_listing,
    place_network,
    read_field,
    take_rays,
    true_profile,
)
from atmtomo.cli import main
from atmtomo.diagnostics import ConvergenceRecord, read_csv
from atmtomo.experiments import (
    ExperimentConfig,
    _seconds_per_iteration,
    _split_errors,
    config_hash,
    default_config,
    derive_noise_seed,
    load_config,
    run_benchmark,
    run_sweep,
)
from atmtomo.solvers import SolveResult

TINY_INI = """
[grid]
nx = 5
ny = 5
nz = 5
z_max = 15.0

[network]
stations = 4
emitters = 5
seed = 3

[sweep]
ray_counts = 5, 10
noise_fractions = 0.01
solvers = lbfgs, ldfp
penalties = tv, quadratic

[solver]
lbfgs_max_iterations = 8
ldfp_outer_iterations = 2
ldfp_inner_max_iterations = 50

[benchmark]
rays = 10
noise = 0.01
lbfgs_iterations = 4
ldfp_iterations = 2
"""


def tiny_config(out_dir):
    return ExperimentConfig(
        nx=5,
        ny=5,
        nz=5,
        stations=4,
        emitters=5,
        seed=3,
        ray_counts=(5, 10),
        noise_fractions=(0.01,),
        solvers=("lbfgs", "ldfp"),
        penalties=("tv", "quadratic"),
        lbfgs_max_iterations=8,
        ldfp_outer_iterations=2,
        ldfp_inner_max_iterations=50,
        benchmark_rays=10,
        benchmark_noise=0.01,
        benchmark_lbfgs_iterations=4,
        benchmark_ldfp_iterations=2,
        output_dir=str(out_dir),
    )


def test_default_config_values():
    config = default_config()
    assert (config.nx, config.ny, config.nz) == (30, 30, 30)
    assert (config.x_max, config.y_max, config.z_max) == (1.0, 1.0, 15.0)
    assert (config.stations, config.emitters, config.seed) == (15, 30, 7)
    assert config.samples_per_ray is None
    assert config.ray_counts == (1, 50, 100, 240, 360, 450)
    assert config.noise_fractions == (0.001,)
    assert config.solvers == ("lbfgs",)
    assert config.penalties == ("tv",)
    assert config.alpha_tv == 1e-13
    assert config.lbfgs_max_iterations == 300
    assert config.ldfp_outer_iterations == 30
    assert config.benchmark_rays == 450


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(ray_counts=())
    with pytest.raises(ValueError, match="ray count must be >= 1, got 0"):
        ExperimentConfig(ray_counts=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(solvers=("newton",))
    with pytest.raises(ValueError):
        ExperimentConfig(penalties=("lasso",))
    with pytest.raises(ValueError):
        ExperimentConfig(solvers=())
    for bad in (-0.01, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise fraction must be >= 0"):
            ExperimentConfig(noise_fractions=(bad,))


@pytest.mark.parametrize(
    "change, name",
    [
        ({"ray_counts": (5, 5)}, "'lbfgs_5rays_0.001'"),
        ({"ray_counts": (50,), "noise_fractions": (0.01, 0.0100000001)}, "'lbfgs_50rays_0.01'"),
        ({"ray_counts": (50,), "solvers": ("ldfp", "ldfp")}, "'ldfp_50rays_0.001'"),
    ],
)
def test_sweep_rejects_clashing_output_names(tmp_path, change, name):
    # combinations whose output names clash would overwrite each other's files;
    # the sweep refuses them before it builds or writes anything, while the
    # config, which a benchmark also reads, accepts them
    out = tmp_path / "out"
    config = replace(default_config(), output_dir=str(out), **change)
    with pytest.raises(ValueError, match=f"reuses the output name {name}"):
        run_sweep(config)
    assert not out.exists()


def test_config_leaves_the_other_mode_unchecked():
    # a sweep on an 80-ray network needs no benchmark fields that fit it,
    # and a benchmark no sweep list that fits it
    small = {"nx": 12, "ny": 12, "nz": 12, "stations": 8, "emitters": 10}
    ExperimentConfig(**small, ray_counts=(60,))
    ExperimentConfig(**small, benchmark_rays=60)


def test_run_checks_its_own_rays_and_noise(tmp_path):
    # each mode checks its ray count and noise before its first solve
    sweep = replace(tiny_config(tmp_path / "sweep"), stations=2, emitters=2, ray_counts=(5,))
    with pytest.raises(ValueError, match=r"got 5\b"):
        run_sweep(sweep)
    assert not list((tmp_path / "sweep").glob("*.csv"))
    for change, message in (
        ({"benchmark_rays": 451}, r"got 451\b"),
        ({"benchmark_noise": -0.01}, "noise fraction must be >= 0"),
    ):
        out = tmp_path / "bench"
        bench = replace(default_config(), output_dir=str(out), **change)
        with pytest.raises(ValueError, match=message):
            run_benchmark(bench)
        assert not list(out.glob("*.csv"))


def readme_blocks(language):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(rf"^```{language}\n(.*?)^```", readme, re.M | re.S)


def test_readme_quick_start_runs(capsys):
    blocks = readme_blocks("python")
    assert len(blocks) == 1
    exec(blocks[0], {})
    termination, error = capsys.readouterr().out.split()
    assert termination in ("stagnation", "max-iter", "gradient-tol", "radius-collapse")
    assert 0.0 < float(error) < 1.0


def test_readme_config_is_the_default(tmp_path):
    blocks = readme_blocks("ini")
    assert len(blocks) == 1
    ini = tmp_path / "readme.ini"
    ini.write_text(blocks[0])
    assert load_config(ini) == default_config()


def test_load_config_round_trip(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI)
    config = load_config(ini)
    assert config == tiny_config("out")
    # every missing key keeps its default
    assert config.beta == 1e-2
    assert config.samples_per_ray is None


def test_load_config_samples_and_output(tmp_path):
    ini = tmp_path / "extra.ini"
    ini.write_text(
        "[network]\nsamples_per_ray = 12\n\n[output]\ndirectory = results\n"
    )
    config = load_config(ini)
    assert config.samples_per_ray == 12
    assert config.output_dir == "results"
    ini.write_text("[network]\nsamples_per_ray = auto\n")
    assert load_config(ini).samples_per_ray is None


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "nope.ini")


def test_load_config_rejects_misspelled_key(tmp_path):
    ini = tmp_path / "typo.ini"
    ini.write_text("[grid]\nnx = 5\nnxx = 40\n")
    with pytest.raises(ValueError, match=r"'nxx'.*\[grid\]"):
        load_config(ini)


def test_load_config_rejects_misspelled_section(tmp_path, capsys):
    ini = tmp_path / "typo.ini"
    ini.write_text("[sweeep]\nray_counts = 5\n")
    with pytest.raises(ValueError, match=r"\[sweeep\]"):
        load_config(ini)
    assert main(["--config", str(ini), "--out", str(tmp_path / "out")]) == 1
    assert "sweeep" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    [
        "[grid]\nnx = 5\nnx = 6\n",
        "nx = 5\n[grid]\nny = 5\n",
        "[grid]\nnx\n",
        "[output]\ndirectory = 100%\n",
    ],
    ids=["duplicate-key", "key-before-section", "key-without-equals", "bad-interpolation"],
)
def test_malformed_config_is_one_error_line(tmp_path, capsys, text):
    ini = tmp_path / "broken.ini"
    ini.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(ini))}: malformed config: "):
        load_config(ini)
    assert main(["--config", str(ini), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"atmtomo: {ini}: malformed config: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [("network", "stations", "2.5"), ("solver", "lbfgs_memory", "ten")],
    ids=["float-count", "word-count"],
)
def test_unconvertible_config_value_is_one_error_line(tmp_path, capsys, section, key, value):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    message = f"{ini}: [{section}] {key}: invalid literal for int() with base 10: {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(ini)
    assert main(["--config", str(ini), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"atmtomo: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, value, reason",
    [
        ("sweep", "solvers", "lbfgs, bogus",
         "unknown solver 'bogus', expected one of ('lbfgs', 'ldfp')"),
        ("network", "samples_per_ray", "1", "need at least 2 samples per ray, got 1"),
        ("network", "samples_per_ray", "0", "need at least 2 samples per ray, got 0"),
        ("solver", "lbfgs_memory", "0", "memory must be >= 1, got 0"),
        ("grid", "nx", "1", "node counts must be integers >= 2, got (1, 30, 30)"),
        ("grid", "z_max", "-1", "z bounds must satisfy max > min, got [0.0, -1.0]"),
        ("network", "stations", "0",
         "station and emitter counts must be integers >= 1, got 0 and 30"),
        ("network", "seed", "-1", "seed must be >= 0, got -1"),
        ("regularization", "beta", "2", "smoothing parameter must lie in (0, 1), got 2.0"),
        ("benchmark", "lbfgs_iterations", "-1", "max_iterations must be >= 0"),
        ("benchmark", "ldfp_iterations", "-1", "max_iterations must be >= 0"),
    ],
    ids=[
        "unknown-solver", "one-sample", "no-samples", "no-memory", "one-node",
        "negative-top", "no-stations", "negative-seed", "beta-above-one", "negative-lbfgs-budget",
        "negative-ldfp-budget",
    ],
)
def test_rejected_config_value_is_one_error_line(tmp_path, capsys, section, key, value, reason):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    message = f"{ini}: [{section}] {key}: {reason}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(ini)
    assert main(["--config", str(ini), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"atmtomo: {message}\n"
    assert not (tmp_path / "out").exists()


def test_config_checks_bounds_together_and_names_the_failing_key(tmp_path):
    # z_min = 20 alone would lie above the default z_max = 15; with z_max = 30
    # the box is valid, and a bad node count beside it is named by its own key
    ini = tmp_path / "box.ini"
    ini.write_text("[grid]\nz_min = 20\nz_max = 30\n")
    config = load_config(ini)
    assert (config.z_min, config.z_max) == (20.0, 30.0)
    ini.write_text("[grid]\nz_min = 20\nz_max = 30\nnz = 1\n")
    message = f"{ini}: [grid] nz: node counts must be integers >= 2, got (30, 30, 1)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(ini)
    ini.write_text("[grid]\nz_max = 10\nz_min = 20\n")
    message = f"{ini}: [grid] z_max: z bounds must satisfy max > min, got [20.0, 10.0]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(ini)


def test_config_hash_tracks_every_field():
    base = default_config()
    assert config_hash(base) == config_hash(default_config())
    for change in (
        {"seed": 8},
        {"nx": 31},
        {"alpha_tv": 1e-12},
        {"ray_counts": (1, 50)},
        {"samples_per_ray": 61},
    ):
        assert config_hash(replace(base, **change)) != config_hash(base)


def test_derive_noise_seed_is_stable_and_spread():
    assert derive_noise_seed(7, 360, 0.02) == derive_noise_seed(7, 360, 0.02)
    seeds = {
        derive_noise_seed(7, rays, noise)
        for rays in (1, 50, 360)
        for noise in (0.001, 0.02, 0.1)
    }
    assert len(seeds) == 9
    assert all(0 <= s < 2**31 for s in seeds)
    # a noise list read off a numpy array seeds as the Python numbers it holds
    numpy_seed = derive_noise_seed(7, np.int64(360), np.float64(0.001))
    assert numpy_seed == derive_noise_seed(7, 360, 0.001)


def test_run_sweep_outputs(tmp_path):
    config = tiny_config(tmp_path / "out")
    manifest = run_sweep(config, dump_network=True, dump_operator=True)
    assert manifest["mode"] == "sweep"
    assert manifest["config_hash"] == config_hash(config)
    assert manifest["failures"] == 0
    outputs = manifest["outputs"]
    assert len(outputs) == 8
    on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert on_disk == manifest
    assert (tmp_path / "out" / "network.txt").exists()
    assert (tmp_path / "out" / "operator_5rays.txt").exists()
    assert (tmp_path / "out" / "operator_10rays.txt").exists()

    grid = config.make_grid()
    skipped = [e for e in outputs if e["status"].startswith("skipped")]
    assert [e["solver"] for e in skipped] == ["ldfp", "ldfp"]
    assert all(e["penalty"] == "quadratic" for e in skipped)
    for entry in outputs:
        if entry["status"] != "ok":
            continue
        expected_iters = 8 if entry["solver"] == "lbfgs" else 2
        assert entry["iterations"] == expected_iters
        records = read_csv(tmp_path / "out" / entry["csv"])
        assert len(records) == expected_iters + 1
        field = read_field(tmp_path / "out" / entry["field"])
        assert field.grid == grid
        assert entry["final_relative_error"] == records[-1].relative_error
        assert np.isfinite(field.values).all()


def test_run_sweep_assembles_the_largest_operator_once(tmp_path, monkeypatch):
    # every ray count's operator is a row prefix of the largest one; the dumps
    # must equal a fresh assembly per ray count
    import atmtomo.experiments as experiments

    calls = []

    def counted(network, samples):
        calls.append(len(network.rays))
        return assemble_operator(network, samples)

    monkeypatch.setattr(experiments, "assemble_operator", counted)
    config = replace(
        tiny_config(tmp_path / "out"), ray_counts=(10, 5), solvers=("lbfgs",), penalties=("tv",)
    )
    manifest = run_sweep(config, dump_operator=True)
    assert manifest["failures"] == 0
    assert calls == [10]
    _, _, network = experiments._build_scene(config)
    for rays in config.ray_counts:
        fresh = assemble_operator(take_rays(network, rays), config.samples_per_ray)
        dumped = (tmp_path / "out" / f"operator_{rays}rays.txt").read_text()
        assert dumped == operator_listing(fresh)


def test_run_sweep_is_reproducible(tmp_path):
    first = run_sweep(tiny_config(tmp_path / "a"))
    second = run_sweep(tiny_config(tmp_path / "b"))
    combos = [e for e in first["outputs"] if e["status"] == "ok"]
    assert combos
    for entry in combos:
        rows_a = read_csv(tmp_path / "a" / entry["csv"])
        rows_b = read_csv(tmp_path / "b" / entry["csv"])
        strip = lambda r: (
            r.iteration,
            r.objective,
            r.step_norm,
            r.relative_error,
            r.gradient_norm,
            r.discrepancy,
        )
        assert [strip(r) for r in rows_a] == [strip(r) for r in rows_b]
        field_a = read_field(tmp_path / "a" / entry["field"])
        field_b = read_field(tmp_path / "b" / entry["field"])
        np.testing.assert_array_equal(field_a.values, field_b.values)


def test_run_sweep_survives_a_failing_combination(tmp_path, monkeypatch):
    # one broken combination is logged in the manifest, the rest still run
    import atmtomo.experiments as experiments

    real = experiments._solve_combo

    def flaky(config, grid, op, f_delta, truth, solver, penalty):
        if op.n_rows == 10:
            raise RuntimeError("synthetic solve failure")
        return real(config, grid, op, f_delta, truth, solver, penalty)

    monkeypatch.setattr(experiments, "_solve_combo", flaky)
    config = replace(
        tiny_config(tmp_path / "out"), solvers=("lbfgs",), penalties=("tv",)
    )
    manifest = run_sweep(config)
    statuses = {entry["rays"]: entry["status"] for entry in manifest["outputs"]}
    assert statuses[5] == "ok"
    assert statuses[10].startswith("failed: synthetic")
    assert manifest["failures"] == 1
    assert (tmp_path / "out" / "lbfgs_5rays_0.01.csv").exists()
    assert not (tmp_path / "out" / "lbfgs_10rays_0.01.csv").exists()


def test_sweep_fails_lbfgs_combinations_on_a_negative_grad_tol(tmp_path):
    # LbfgsOptions rejects the tolerance as each L-BFGS solve starts: those
    # combinations are recorded as failed and the LDFP ones still run
    config = replace(tiny_config(tmp_path / "out"), lbfgs_grad_tol=-1.0)
    manifest = run_sweep(config)
    for entry in manifest["outputs"]:
        if entry["solver"] == "lbfgs":
            assert entry["status"] == "failed: grad_tol must be >= 0, got -1.0"
        elif entry["penalty"] == "tv":
            assert entry["status"] == "ok"
    assert manifest["failures"] == 4


def test_sweep_fails_ldfp_combinations_on_a_nan_inner_tol(tmp_path):
    # a NaN tolerance would run every inner solve to its cap unreported;
    # cgne rejects it on the first outer step, so only the LDFP solves fail
    config = replace(tiny_config(tmp_path / "out"), ldfp_inner_tol=math.nan)
    manifest = run_sweep(config)
    for entry in manifest["outputs"]:
        if entry["solver"] == "ldfp" and entry["penalty"] == "tv":
            assert entry["status"] == "failed: tol must be >= 0, got nan"
        elif entry["solver"] == "lbfgs":
            assert entry["status"] == "ok"
    assert manifest["failures"] == 2


def test_sweep_fails_ldfp_combinations_on_a_negative_step_count(tmp_path):
    # ldfp rejects the count before its first evaluation; before, it ran no
    # step and reported max-iter
    config = replace(tiny_config(tmp_path / "out"), ldfp_outer_iterations=-3)
    manifest = run_sweep(config)
    for entry in manifest["outputs"]:
        if entry["solver"] == "ldfp" and entry["penalty"] == "tv":
            assert entry["status"] == "failed: max_iterations must be >= 0"
        elif entry["solver"] == "lbfgs":
            assert entry["status"] == "ok"
    assert manifest["failures"] == 2


def test_sweep_fails_tv_combinations_on_an_infinite_alpha(tmp_path):
    # Objective rejects the weight before any evaluation, so no inf * 0
    # warning is raised and the quadratic L-BFGS combinations still run
    config = replace(tiny_config(tmp_path / "out"), alpha_tv=math.inf)
    manifest = run_sweep(config)
    for entry in manifest["outputs"]:
        if entry["penalty"] == "tv":
            assert entry["status"] == (
                "failed: regularization weight must be positive and finite, got inf"
            )
        elif entry["solver"] == "lbfgs":
            assert entry["status"] == "ok"
    assert manifest["failures"] == 4


def test_run_benchmark_report(tmp_path):
    config = tiny_config(tmp_path / "out")
    report = run_benchmark(config)
    assert report["mode"] == "benchmark"
    assert report["config_hash"] == config_hash(config)
    assert report["rays"] == 10
    assert report["noise"] == 0.01
    assert report["delta"] > 0.0
    for side, iters in (("lbfgs", 4), ("ldfp", 2)):
        summary = report[side]
        assert summary["iterations"] == iters
        assert summary["termination"] == "max-iter"
        assert summary["total_seconds"] > 0.0
        records = read_csv(tmp_path / "out" / f"benchmark_{side}.csv")
        assert len(records) == iters + 1
        # the median time between successive records, not the solve's mean
        gaps = np.diff([r.seconds for r in records])
        assert summary["seconds_per_iteration"] == float(np.median(gaps)) > 0.0
        assert summary["final_relative_error"] == records[-1].relative_error
    assert report["speed_ratio_equal_iterations"] == pytest.approx(
        report["ldfp"]["seconds_per_iteration"] / report["lbfgs"]["seconds_per_iteration"]
    )
    assert report["lbfgs_seconds_for_equal_iterations"] == pytest.approx(
        report["lbfgs"]["seconds_per_iteration"] * report["ldfp"]["iterations"]
    )
    on_disk = json.loads((tmp_path / "out" / "benchmark.json").read_text())
    assert on_disk == report


def test_seen_unseen_split_adds_up_to_the_total(tmp_path):
    # a node is seen when its column of T is nonzero; the split errors share
    # the total's squared norm: total^2 |truth|^2 is the sum over both sets of
    # error^2 |truth on the set|^2
    config = tiny_config(tmp_path / "out")
    grid = config.make_grid()
    truth = true_profile(grid, config.make_phantom_params()).values
    network = place_network(grid, config.stations, config.emitters, config.seed)
    manifest = run_sweep(config)
    report = run_benchmark(config)
    ok = [e for e in manifest["outputs"] if e["status"] == "ok"]
    blocks = ok + [dict(report[solver], rays=report["rays"]) for solver in ("lbfgs", "ldfp")]
    assert len(blocks) == 8
    for block in blocks:
        op = assemble_operator(take_rays(network, block["rays"]))
        dense = helpers.to_scipy(op).toarray()
        seen = (dense != 0.0).any(axis=0)
        assert 0.0 < block["seen_fraction"] == seen.mean() < 1.0
        total = block["final_relative_error"] ** 2 * float(truth @ truth)
        parts = (
            block["final_relative_error_seen"] ** 2 * float(truth[seen] @ truth[seen])
            + block["final_relative_error_unseen"] ** 2 * float(truth[~seen] @ truth[~seen])
        )
        assert parts == pytest.approx(total, rel=1e-12)
    # an empty set has no relative error: JSON null
    every = np.ones(grid.n_nodes, dtype=bool)
    split = _split_errors(np.zeros(grid.n_nodes), true_profile(grid), every)
    assert split == {
        "seen_fraction": 1.0,
        "final_relative_error_seen": 1.0,
        "final_relative_error_unseen": None,
    }


def test_run_benchmark_matches_sweep_combination(tmp_path):
    # with equal budgets, each benchmark solve is the sweep's tv combination
    # at the benchmark's ray count and noise
    config = replace(
        tiny_config(tmp_path / "out"),
        penalties=("tv",),
        lbfgs_max_iterations=4,
        ldfp_outer_iterations=2,
    )
    assert (config.benchmark_rays, config.benchmark_noise) == (10, 0.01)
    run_sweep(config)
    run_benchmark(config)
    for solver in ("lbfgs", "ldfp"):
        bench = read_csv(tmp_path / "out" / f"benchmark_{solver}.csv")
        sweep = read_csv(tmp_path / "out" / f"{solver}_10rays_0.01.csv")
        assert len(bench) > 1
        assert [replace(r, seconds=0.0) for r in bench] == [
            replace(r, seconds=0.0) for r in sweep
        ]


def test_benchmark_single_iteration_ratio(tmp_path):
    # one iteration each: the ratio degenerates to the ratio of the one
    # step each solver took, from its start record to its first
    config = replace(
        tiny_config(tmp_path / "out"),
        benchmark_lbfgs_iterations=1,
        benchmark_ldfp_iterations=1,
    )
    report = run_benchmark(config)
    step = {}
    for solver in ("lbfgs", "ldfp"):
        assert report[solver]["iterations"] == 1
        start, first = read_csv(tmp_path / "out" / f"benchmark_{solver}.csv")
        step[solver] = first.seconds - start.seconds
        assert report[solver]["seconds_per_iteration"] == step[solver]
    assert report["speed_ratio_equal_iterations"] == pytest.approx(step["ldfp"] / step["lbfgs"])
    assert report["lbfgs_seconds_for_equal_iterations"] == pytest.approx(step["lbfgs"])


def test_seconds_per_iteration_is_the_median_gap_between_records():
    # one 1 s stall among 1 ms iterations moves the mean 100-fold, not the median
    gaps = [1e-3] * 5 + [1.0] + [1e-3] * 4
    seconds = np.concatenate(([0.0], np.cumsum(gaps)))
    record = ConvergenceRecord(0, 1.0, 0.0, None, 1.0, 0.0, 0.0)
    records = [replace(record, iteration=i, seconds=float(t)) for i, t in enumerate(seconds)]
    result = SolveResult(None, len(gaps), "max-iter", records, seconds=float(seconds[-1]))
    assert _seconds_per_iteration(result) == pytest.approx(1e-3, rel=1e-9)
    assert result.seconds / result.iterations > 0.1
    # a solve that took no step: its whole time, as one iteration
    idle = SolveResult(None, 0, "max-iter", records[:1], seconds=0.25)
    assert _seconds_per_iteration(idle) == 0.25


def test_benchmark_timing_is_stable_for_identical_work(tmp_path):
    # same solver, same problem, timed twice: the per-iteration cost ratio
    # should sit near one once the code paths are warm
    config = ExperimentConfig(
        nx=10,
        ny=10,
        nz=10,
        stations=8,
        emitters=10,
        seed=3,
        ray_counts=(60,),
        benchmark_rays=60,
        benchmark_noise=0.01,
        benchmark_lbfgs_iterations=60,
        benchmark_ldfp_iterations=1,
        output_dir=str(tmp_path / "warm"),
    )
    run_benchmark(config)
    first = run_benchmark(replace(config, output_dir=str(tmp_path / "t1")))
    second = run_benchmark(replace(config, output_dir=str(tmp_path / "t2")))
    ratio = (
        first["lbfgs"]["seconds_per_iteration"]
        / second["lbfgs"]["seconds_per_iteration"]
    )
    assert 0.5 <= ratio <= 2.0


def test_cli_sweep_and_benchmark(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI)
    out = tmp_path / "cli_out"
    code = main(
        [
            "--config",
            str(ini),
            "--out",
            str(out),
            "--dump-network",
            "--dump-operator",
        ]
    )
    assert code == 0
    assert (out / "manifest.json").exists()
    assert (out / "network.txt").exists()
    bench_out = tmp_path / "cli_bench"
    code = main(
        ["--config", str(ini), "--mode", "benchmark", "--out", str(bench_out)]
    )
    assert code == 0
    assert (bench_out / "benchmark.json").exists()
    assert (bench_out / "benchmark_lbfgs.csv").exists()
    assert (bench_out / "benchmark_ldfp.csv").exists()


def test_cli_name_clash_fails_only_the_sweep(tmp_path, capsys):
    ini = tmp_path / "clash.ini"
    ini.write_text(TINY_INI.replace("ray_counts = 5, 10", "ray_counts = 5, 5"))
    out = tmp_path / "sweep"
    assert main(["--config", str(ini), "--out", str(out)]) == 1
    assert "reuses the output name 'lbfgs_5rays_0.01'" in capsys.readouterr().err
    assert not out.exists()
    bench_out = tmp_path / "bench"
    assert main(["--config", str(ini), "--mode", "benchmark", "--out", str(bench_out)]) == 0
    assert (bench_out / "benchmark.json").exists()


def test_cli_seed_override_changes_the_network(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI)
    for seed, name in ((3, "s3"), (4, "s4")):
        assert (
            main(
                [
                    "--config",
                    str(ini),
                    "--out",
                    str(tmp_path / name),
                    "--seed",
                    str(seed),
                ]
            )
            == 0
        )
    hash_a = json.loads((tmp_path / "s3" / "manifest.json").read_text())["config_hash"]
    hash_b = json.loads((tmp_path / "s4" / "manifest.json").read_text())["config_hash"]
    assert hash_a != hash_b


@pytest.mark.parametrize("mode", ["sweep", "benchmark"])
def test_cli_rejects_a_negative_seed_option_before_it_creates_anything(tmp_path, capsys, mode):
    # numpy would reject it only once the network is placed, inside the
    # output directory the run had already made
    out = tmp_path / "out"
    assert main(["--seed", "-1", "--mode", mode, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "atmtomo: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_cli_rejects_missing_config(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.ini")]) == 1
    assert "atmtomo:" in capsys.readouterr().err


def test_cli_rejects_bad_config_values(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[sweep]\nsolvers = newton\n")
    assert main(["--config", str(ini)]) == 1
    assert "newton" in capsys.readouterr().err
    ini.write_text("[benchmark]\nrays = 451\n")
    out = tmp_path / "out"
    assert main(["--config", str(ini), "--mode", "benchmark", "--out", str(out)]) == 1
    assert "451" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "tol, cap, message",
    [
        ("1e-8", "0", "ldfp_inner_max_iterations must be >= 1"),
        ("-1", "50", "ldfp_inner_tol must be >= 0, got -1.0"),
        ("nan", "50", "ldfp_inner_tol must be >= 0, got nan"),
    ],
)
def test_cli_benchmark_rejects_a_bad_inner_cg_setting_before_it_writes(
    tmp_path, capsys, tol, cap, message
):
    # the sweep records such a setting as failed LDFP solves; the benchmark
    # would meet it only after its L-BFGS solve, so it names the key first
    ini = tmp_path / "bad.ini"
    settings = f"ldfp_inner_max_iterations = {cap}\nldfp_inner_tol = {tol}"
    ini.write_text(TINY_INI.replace("ldfp_inner_max_iterations = 50", settings))
    out = tmp_path / "bench"
    assert main(["--config", str(ini), "--mode", "benchmark", "--out", str(out)]) == 1
    assert f"atmtomo: [solver] {message}\n" in capsys.readouterr().err
    assert not out.exists()
