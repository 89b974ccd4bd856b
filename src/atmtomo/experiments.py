"""Experiment driver: measurement-count / noise sweeps and the solver benchmark."""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import itertools
import json
import math
import os
import typing
import zlib
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .diagnostics import _values_of, relative_error, write_csv
from .forward import SparseOperator, assemble_operator
from .forward import dump_operator as write_operator_dump
from .geometry import (
    _check_network_counts,
    _check_node_counts,
    make_grid,
    network_listing,
    place_network,
    take_rays,
)
from .objective import PENALTIES, Objective
from .phantom import PhantomParams, add_noise, true_profile, write_field
from .solvers import LbfgsOptions, _check_max_iterations, lbfgs_trust_region, ldfp
from .tv import _check_beta

SOLVERS = ("lbfgs", "ldfp")


class _RejectedValue(ValueError):
    """A value ExperimentConfig rejects, with the fields its check read."""

    def __init__(self, fields, reason):
        super().__init__(str(reason))
        self.fields = fields


@contextlib.contextmanager
def _rejecting(*fields):
    try:
        yield
    except ValueError as exc:
        raise _RejectedValue(fields, exc) from exc


@dataclass(frozen=True)
class ExperimentConfig:
    # grid
    nx: int = 30
    ny: int = 30
    nz: int = 30
    x_min: float = 0.0
    x_max: float = 1.0
    y_min: float = 0.0
    y_max: float = 1.0
    z_min: float = 0.0
    z_max: float = 15.0
    # phantom
    base: float = PhantomParams.base
    scale_height_1: float = PhantomParams.scale_height_1
    scale_height_2: float = PhantomParams.scale_height_2
    gradient_x: float = PhantomParams.gradient_x
    gradient_y: float = PhantomParams.gradient_y
    amplitude_sin: float = PhantomParams.amplitude_sin
    amplitude_cos: float = PhantomParams.amplitude_cos
    cycles_x: float = PhantomParams.cycles_x
    cycles_y: float = PhantomParams.cycles_y
    # network
    stations: int = 15
    emitters: int = 30
    seed: int = 7
    samples_per_ray: int | None = None
    # regularization
    beta: float = 1e-2
    alpha_tv: float = 1e-13
    alpha_quadratic: float = 1e-15
    # sweep
    ray_counts: tuple[int, ...] = (1, 50, 100, 240, 360, 450)
    noise_fractions: tuple[float, ...] = (0.001,)
    solvers: tuple[str, ...] = ("lbfgs",)
    penalties: tuple[str, ...] = ("tv",)
    # solver options
    lbfgs_memory: int = 10
    lbfgs_max_iterations: int = 300
    lbfgs_grad_tol: float = 0.0
    ldfp_outer_iterations: int = 30
    ldfp_inner_tol: float = 1e-8
    ldfp_inner_max_iterations: int = 200
    # benchmark
    benchmark_rays: int = 450
    benchmark_noise: float = 0.001
    benchmark_lbfgs_iterations: int = 1000
    benchmark_ldfp_iterations: int = 30
    # output
    output_dir: str = "out"

    def __post_init__(self):
        # each check names the fields it reads, for load_config's error line
        with _rejecting("ray_counts", "noise_fractions"):
            if not self.ray_counts or not self.noise_fractions:
                raise ValueError("sweep lists must be nonempty")
        with _rejecting("solvers", "penalties"):
            if not self.solvers or not self.penalties:
                raise ValueError("solver and penalty lists must be nonempty")
        # take_rays and add_noise check the rest, but not these before a sweep's first solve
        with _rejecting("noise_fractions"):
            for p in self.noise_fractions:
                if not 0.0 <= p < math.inf:
                    raise ValueError(f"noise fraction must be >= 0 and finite, got {p}")
        with _rejecting("ray_counts"):
            for s in self.ray_counts:
                if s < 1:
                    raise ValueError(f"ray count must be >= 1, got {s}")
        with _rejecting("solvers"):
            for name in self.solvers:
                if name not in SOLVERS:
                    raise ValueError(f"unknown solver {name!r}, expected one of {SOLVERS}")
        with _rejecting("penalties"):
            for pen in self.penalties:
                if pen not in PENALTIES:
                    raise ValueError(f"unknown penalty {pen!r}")
        # the validators a run would meet only after the CLI has created its
        # output directory: the grid, the network, the samples, beta, memory
        # and the benchmark's budgets
        with _rejecting("nx", "ny", "nz"):
            _check_node_counts((self.nx, self.ny, self.nz))
        with _rejecting("x_min", "x_max", "y_min", "y_max", "z_min", "z_max"):
            self.make_grid()
        with _rejecting("stations", "emitters"):
            _check_network_counts(self.stations, self.emitters)
        with _rejecting("samples_per_ray"):
            if self.samples_per_ray is not None and self.samples_per_ray < 2:
                raise ValueError(f"need at least 2 samples per ray, got {self.samples_per_ray}")
        with _rejecting("beta"):
            _check_beta(self.beta)
        with _rejecting("lbfgs_memory"):
            LbfgsOptions(memory=self.lbfgs_memory)
        for budget in ("benchmark_lbfgs_iterations", "benchmark_ldfp_iterations"):
            with _rejecting(budget):
                _check_max_iterations(getattr(self, budget))

    def make_grid(self):
        return make_grid(
            self.nx,
            self.ny,
            self.nz,
            (self.x_min, self.x_max, self.y_min, self.y_max, self.z_min, self.z_max),
        )

    def make_phantom_params(self) -> PhantomParams:
        return PhantomParams(**{f.name: getattr(self, f.name) for f in fields(PhantomParams)})


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def _parse_list(raw: str, convert):
    items = [tok for tok in raw.replace(",", " ").split() if tok]
    return tuple(convert(tok) for tok in items)


def _same_names(names: str) -> dict[str, str]:
    return {name: name for name in names.split()}


# INI section -> {key: ExperimentConfig field}
_CONFIG_KEYS = {
    "grid": _same_names("nx ny nz x_min x_max y_min y_max z_min z_max"),
    "phantom": {f.name: f.name for f in fields(PhantomParams)},
    "network": _same_names("stations emitters seed samples_per_ray"),
    "regularization": _same_names("beta alpha_tv alpha_quadratic"),
    "sweep": _same_names("ray_counts noise_fractions solvers penalties"),
    "solver": _same_names(
        "lbfgs_memory lbfgs_max_iterations lbfgs_grad_tol "
        "ldfp_outer_iterations ldfp_inner_tol ldfp_inner_max_iterations"
    ),
    "benchmark": {
        key: f"benchmark_{key}" for key in ("rays", "noise", "lbfgs_iterations", "ldfp_iterations")
    },
    "output": {"directory": "output_dir"},
}

_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _convert(raw: str, hint):
    if hint == int | None:
        raw = raw.strip()
        return None if raw == "auto" else int(raw)
    if typing.get_origin(hint) is tuple:
        return _parse_list(raw, typing.get_args(hint)[0])
    return hint(raw)


def load_config(path) -> ExperimentConfig:
    """Read an INI-style config; every missing key keeps its default.

    An unknown section or key raises ValueError, so a misspelling cannot
    silently fall back to the default; so does a file the INI parser rejects,
    and so does a value that does not convert or that the config rejects,
    named by file, section and key.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = {section: parser.items(section) for section in parser.sections()}
    except configparser.Error as exc:
        raise ValueError(f"{path}: malformed config: {exc}") from exc
    if not read:
        raise OSError(f"config file {path} not found or unreadable")
    kw, where = {}, {}
    for section, items in sections.items():
        keys = _CONFIG_KEYS.get(section)
        if keys is None:
            raise ValueError(f"{path}: unknown config section [{section}]")
        for key, raw in items:
            if key not in keys:
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]")
            field = keys[key]
            where[field] = f"[{section}] {key}"
            try:
                kw[field] = _convert(raw, _FIELD_TYPES[field])
            except ValueError as exc:
                raise ValueError(f"{path}: {where[field]}: {exc}") from exc
    try:
        return replace(default_config(), **kw)
    except _RejectedValue as exc:
        # the defaults pass every check, so the file set one of the fields it read
        field = next(f for f in kw if f in exc.fields)
        raise ValueError(f"{path}: {where[field]}: {exc}") from exc


def config_hash(config: ExperimentConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def derive_noise_seed(base_seed: int, rays: int, noise: float) -> int:
    """Stable per-combination seed; crc32 keeps it reproducible across runs.

    The key holds int(rays) and repr(float(noise)), so a numpy scalar seeds
    as the Python number it equals.
    """
    return (base_seed ^ zlib.crc32(f"{int(rays)}:{float(noise)!r}".encode())) & 0x7FFFFFFF


def _combo_name(solver: str, penalty: str, rays: int, noise: float) -> str:
    label = solver if penalty == "tv" else f"{solver}-quad"
    return f"{label}_{rays}rays_{noise:g}"


def _say(progress, message):
    if progress is not None:
        progress(message)


def _build_scene(config: ExperimentConfig):
    """Create the output directory; return the grid, true field and network."""
    os.makedirs(config.output_dir, exist_ok=True)
    grid = config.make_grid()
    truth = true_profile(grid, config.make_phantom_params())
    network = place_network(grid, config.stations, config.emitters, config.seed)
    return grid, truth, network


def _noisy_data(config: ExperimentConfig, f_true, rays: int, noise: float):
    """Data and noise level of one (ray count, noise) combination."""
    return add_noise(f_true, noise, derive_noise_seed(config.seed, rays, noise))


def _seen_mask(op: SparseOperator) -> np.ndarray:
    """The nodes with a nonzero column in T: those some ray samples."""
    return np.bincount(op.matrix.indices, minlength=op.n_cols) > 0


def _split_errors(field, truth, seen: np.ndarray) -> dict:
    """The seen fraction and the final relative errors on the seen and unseen nodes.

    Each error is relative_error on the masked values, None (JSON null) for
    an empty set.
    """
    phi, true = _values_of(field), truth.values

    def error(mask):
        return relative_error(phi[mask], true[mask]) if mask.any() else None

    return {
        "seen_fraction": float(np.count_nonzero(seen)) / seen.size,
        "final_relative_error_seen": error(seen),
        "final_relative_error_unseen": error(~seen),
    }


def run_sweep(
    config: ExperimentConfig,
    dump_network: bool = False,
    dump_operator: bool = False,
    progress=None,
) -> dict:
    """Run every (ray count, noise, solver, penalty) combination.

    Each combination writes one convergence CSV and one reconstruction field
    file; a manifest with the config hash lists everything.  Two
    combinations with one output name raise ValueError before anything is
    built or written.  A failing combination is logged and skipped, never
    aborts the sweep.
    """
    # each combination writes files named after it: equal names would
    # overwrite each other's results
    names = set()
    for rays, noise, solver, penalty in itertools.product(
        config.ray_counts, config.noise_fractions, config.solvers, config.penalties
    ):
        name = _combo_name(solver, penalty, rays, noise)
        if name in names:
            raise ValueError(
                f"combination ({solver}, {penalty}, {rays} rays, noise {noise!r}) "
                f"reuses the output name {name!r}"
            )
        names.add(name)
    out = config.output_dir
    grid, truth, network = _build_scene(config)
    _say(progress, f"network: {len(network.rays)} admissible rays")
    if dump_network:
        with open(os.path.join(out, "network.txt"), "w") as fh:
            fh.write(network_listing(network))

    # smaller ray counts keep a prefix of the rays, so their operators are the
    # first rows of the largest one
    full = assemble_operator(take_rays(network, max(config.ray_counts)), config.samples_per_ray)
    outputs = []
    failures = 0
    for rays in config.ray_counts:
        op = full.first_rows(rays)
        seen = _seen_mask(op)
        if dump_operator:
            write_operator_dump(op, os.path.join(out, f"operator_{rays}rays.txt"))
        f_true = op.apply(truth.values)
        for noise in config.noise_fractions:
            f_delta, delta = _noisy_data(config, f_true, rays, noise)
            for solver in config.solvers:
                for penalty in config.penalties:
                    name = _combo_name(solver, penalty, rays, noise)
                    entry = {
                        "name": name,
                        "solver": solver,
                        "penalty": penalty,
                        "rays": rays,
                        "noise": noise,
                        "delta": delta,
                        "csv": f"{name}.csv",
                        "field": f"{name}.fld",
                    }
                    if solver == "ldfp" and penalty != "tv":
                        entry["status"] = "skipped: ldfp needs the tv penalty"
                        outputs.append(entry)
                        _say(progress, f"{name}: skipped (ldfp needs tv)")
                        continue
                    try:
                        result = _solve_combo(
                            config, grid, op, f_delta, truth, solver, penalty
                        )
                        write_csv(result.records, os.path.join(out, entry["csv"]))
                        write_field(result.field, os.path.join(out, entry["field"]))
                        entry["status"] = "ok"
                        entry["iterations"] = result.iterations
                        entry["termination"] = result.termination
                        entry["final_relative_error"] = result.records[-1].relative_error
                        entry.update(_split_errors(result.field, truth, seen))
                        _say(
                            progress,
                            f"{name}: {result.iterations} iterations, "
                            f"rel error {result.records[-1].relative_error:.4f}",
                        )
                    except Exception as exc:  # keep sweeping, record the failure
                        failures += 1
                        entry["status"] = f"failed: {exc}"
                        _say(progress, f"{name}: FAILED ({exc})")
                    outputs.append(entry)

    manifest = {
        "mode": "sweep",
        "config_hash": config_hash(config),
        "failures": failures,
        "outputs": outputs,
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def _solve_combo(config, grid, op, f_delta, truth, solver, penalty):
    alpha = config.alpha_tv if penalty == "tv" else config.alpha_quadratic
    objective = Objective(
        operator=op,
        data=f_delta,
        alpha=alpha,
        grid=grid,
        penalty=penalty,
        beta=config.beta,
    )
    phi0 = np.zeros(grid.n_nodes)
    if solver == "lbfgs":
        options = LbfgsOptions(
            memory=config.lbfgs_memory,
            max_iterations=config.lbfgs_max_iterations,
            grad_tol=config.lbfgs_grad_tol,
        )
        return lbfgs_trust_region(objective, phi0, options, truth=truth)
    return ldfp(
        objective,
        phi0,
        inner_tol=config.ldfp_inner_tol,
        inner_max_iterations=config.ldfp_inner_max_iterations,
        max_iterations=config.ldfp_outer_iterations,
        truth=truth,
    )


def run_benchmark(config: ExperimentConfig, progress=None) -> dict:
    """Time LDFP against trust-region L-BFGS on one identical problem instance.

    Each solver runs as the sweep's TV combination at the benchmark's ray
    count and noise, under the benchmark's iteration budget.
    """
    rays, noise = config.benchmark_rays, config.benchmark_noise
    grid, truth, network = _build_scene(config)
    op = assemble_operator(take_rays(network, rays), config.samples_per_ray)
    f_delta, delta = _noisy_data(config, op.apply(truth.values), rays, noise)
    seen = _seen_mask(op)
    budgets = replace(
        config,
        lbfgs_max_iterations=config.benchmark_lbfgs_iterations,
        lbfgs_grad_tol=0.0,
        ldfp_outer_iterations=config.benchmark_ldfp_iterations,
    )
    report = {
        "mode": "benchmark",
        "config_hash": config_hash(config),
        "rays": rays,
        "noise": noise,
        "delta": delta,
    }
    for solver, iterations in (
        ("lbfgs", config.benchmark_lbfgs_iterations),
        ("ldfp", config.benchmark_ldfp_iterations),
    ):
        _say(progress, f"benchmark: {solver} for {iterations} iterations")
        result = _solve_combo(budgets, grid, op, f_delta, truth, solver, "tv")
        write_csv(result.records, os.path.join(config.output_dir, f"benchmark_{solver}.csv"))
        report[solver] = {
            "iterations": result.iterations,
            "termination": result.termination,
            "total_seconds": result.seconds,
            "seconds_per_iteration": result.seconds / max(1, result.iterations),
            "final_relative_error": result.records[-1].relative_error,
            "final_discrepancy": result.records[-1].discrepancy,
            **_split_errors(result.field, truth, seen),
        }

    lbfgs_per_iter = report["lbfgs"]["seconds_per_iteration"]
    ldfp_per_iter = report["ldfp"]["seconds_per_iteration"]
    # cost of running lbfgs for as many iterations as ldfp took,
    # extrapolated from its measured per-iteration time
    report["lbfgs_seconds_for_equal_iterations"] = lbfgs_per_iter * report["ldfp"]["iterations"]
    report["speed_ratio_equal_iterations"] = ldfp_per_iter / lbfgs_per_iter
    with open(os.path.join(config.output_dir, "benchmark.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    _say(
        progress,
        f"benchmark: lbfgs {lbfgs_per_iter:.4g}s/iter, ldfp {ldfp_per_iter:.4g}s/iter, "
        f"ratio {report['speed_ratio_equal_iterations']:.2f}",
    )
    return report
