"""Run one atmtomo benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload sweep-default --seed 7 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports atmtomo from ``src/``
and writes its outputs under ``.bench_out/``.  A run repeats whole passes of
the workload (setup, solve, write) until ``--seconds`` have gone by, and
reports medians over the passes.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics.  ``--check-cli`` instead runs the
staged workloads next to ``run_sweep``/``run_benchmark`` and compares their
CSV files.  The last line of standard output is the result.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: threaded BLAS reorders reductions, which moves
# iteration counts and final errors from run to run.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# setup_s is a median over at least this many setups per run
MIN_SETUPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "tta_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "rel_error": "1",
}

PER_LAYER_UNITS = {
    "geometry.place_network_s": "s",
    "geometry.rays": "count",
    "forward.assemble_s": "s",
    "forward.nnz": "count",
    "forward.apply_calls": "count",
    "forward.apply_s": "s",
    "forward.adjoint_calls": "count",
    "forward.adjoint_s": "s",
    "forward.apply_bytes": "B_computed",
    "tv.value_grad_calls": "count",
    "tv.value_grad_s": "s",
    "tv.weights_calls": "count",
    "tv.weights_s": "s",
    "tv.apply_weights_calls": "count",
    "tv.apply_weights_s": "s",
    "objective.eval_calls": "count",
    "objective.eval_s": "s",
    "objective.eval_self_s": "s",
    "objective.discrepancy_calls": "count",
    "objective.discrepancy_s": "s",
    "solvers.iterations": "count",
    "solvers.accepted": "count",
    "solvers.accept_ratio": "ratio",
    "solvers.two_loop_s": "s",
    "solvers.cg_calls": "count",
    "solvers.cg_iterations": "count",
    "solvers.cg_cap_hits": "count",
    "solvers.cg_cap_ratio": "ratio",
    "solvers.cg_s": "s",
    "solvers.self_s": "s",
    "diagnostics.write_csv_s": "s",
    "phantom.write_field_s": "s",
    "phantom.true_profile_s": "s",
    "phantom.add_noise_s": "s",
    "trace.overhead_s": "s",
}


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Per-solve outcomes of a run, and every reason a check failed."""

    def __init__(self, workloads, reference: dict):
        self.workloads = workloads
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_records = None

    def add_pass(self, p, out_dir: Path) -> list:
        """Check every solve of a pass, its files, and that it repeats the first pass.

        Returns the pass's records without their timing column.
        """
        for s in p.solves:
            self.attempted += 1
            reasons = self.workloads.check(s, self.reference)
            if reasons:
                self.failed += 1
                self.problems += [f"{s.problem.name}: {r}" for r in reasons]
        self.problems += self.workloads.check_files(p.solves, str(out_dir))
        records = [
            self.workloads.strip_seconds(s.result.records) if s.result else None
            for s in p.solves
        ]
        if self.first_records is None:
            self.first_records = records
        elif records != self.first_records:
            self.problems.append("a later pass produced different records than the first")
        return records


def summary(p) -> list[dict]:
    rows = []
    for s in p.solves:
        row = {"name": s.problem.name, "seconds": s.seconds, "tta_s": s.tta, "error": s.error}
        if s.result is not None:
            final = s.result.records[-1]
            row.update(
                iterations=s.result.iterations,
                termination=s.result.termination,
                objective=final.objective,
                rel_error=final.relative_error,
                discrepancy=final.discrepancy,
                target=s.problem.target,
            )
        rows.append(row)
    return rows


def measure(workloads, config, seed: int, seconds: float, tally: Tally, out_dir: Path):
    """Untraced passes until the time is up; returns the end-to-end metrics."""
    samples = {"setup_s": [], "solve_s": [], "tta_s": [], "wall_s": []}
    first = None
    start = perf_counter()
    while first is None or perf_counter() - start < seconds:
        p = workloads.run_pass(config, seed, str(out_dir))
        tally.add_pass(p, out_dir)
        for name, values in samples.items():
            values.append(getattr(p, name))
        if first is None:
            first = summary(p)
        del p  # so peak_rss_mb covers one pass, not every pass so far
    while len(samples["setup_s"]) < MIN_SETUPS:
        samples["setup_s"].append(workloads.time_setup(config, seed))
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["rel_error"] = first[-1].get("rel_error")
    return metrics, samples, first


def measure_traced(workloads, tracing, config, seed: int, seconds: float, tally: Tally, out_dir: Path):
    """Pairs of untraced and traced passes; returns the per-layer metrics."""
    cg_cap = config.ldfp_inner_max_iterations if "ldfp" in config.solvers else None
    walls = {False: [], True: []}
    layers = []
    first = None
    start = perf_counter()
    while not layers or perf_counter() - start < seconds:
        # alternate which pass of a pair runs first, so warm-up favours neither
        order = (False, True) if len(layers) % 2 == 0 else (True, False)
        records = {}
        for traced in order:
            tracer = tracing.Tracer() if traced else None
            try:
                p = workloads.run_pass(config, seed, str(out_dir))
            finally:
                if tracer is not None:
                    tracer.close()
            records[traced] = tally.add_pass(p, out_dir)
            walls[traced].append(p.wall_s)
            if tracer is None:
                first = first or summary(p)
                continue
            if tracer.leftovers():
                tally.problems.append(f"wrappers left in place: {tracer.leftovers()}")
            m = tracing.layer_metrics(
                tracer.spans,
                [r for s in p.solves if s.result for r in s.result.records],
                cg_cap,
            )
            m["geometry.rays"] = p.rays
            m["forward.nnz"] = p.nnz
            layers.append(m)
        if records[False] != records[True]:
            tally.problems.append("the traced pass produced different records")
    # median_low keeps counts integral; they repeat exactly from pass to pass
    metrics = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    samples = {"plain_wall_s": walls[False], "traced_wall_s": walls[True]}
    return metrics, samples, first


def check_cli(workloads) -> int:
    """Compare the staged sweep and LDFP workloads with the CLI drivers' CSVs.

    Both sides use the default config, whose seed is the benchmark's recorded
    default, so the staged passes see the same network and noise as the CLI.
    The staged LDFP runs fewer outer steps, so it must equal the first rows
    of the CLI's LDFP records.
    """
    import atmtomo
    from dataclasses import replace

    cli_dir = OUT / "check-cli" / "cli"
    config = replace(atmtomo.default_config(), output_dir=str(cli_dir))
    atmtomo.run_sweep(config)
    atmtomo.run_benchmark(config)
    pairs = []
    for name in ("sweep-default", "ldfp-default"):
        staged_dir = OUT / "check-cli" / name
        p = workloads.run_pass(workloads.WORKLOADS[name](), config.seed, str(staged_dir))
        for s in p.solves:
            cli_name = "benchmark_ldfp.csv" if name == "ldfp-default" else f"{s.problem.name}.csv"
            pairs.append((staged_dir / f"{s.problem.name}.csv", cli_dir / cli_name))
    mismatched = []
    for staged, cli in pairs:
        rows = workloads.strip_seconds(atmtomo.read_csv(staged))
        cli_rows = workloads.strip_seconds(atmtomo.read_csv(cli))
        if cli.name == "benchmark_ldfp.csv":
            cli_rows = cli_rows[: len(rows)]
        if rows != cli_rows:
            mismatched.append(str(staged.relative_to(ROOT)))
    print(json.dumps({"compared": len(pairs), "mismatched": mismatched}))
    return 1 if mismatched else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="sweep-default")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-cli", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "atmtomo" / "__init__.py").is_file():
        print(f"bench: no atmtomo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import atmtomo
    import tracing
    import workloads

    if Path(atmtomo.__file__).resolve().parent != SRC / "atmtomo":
        print(f"bench: imported atmtomo from {atmtomo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.check_cli:
        return check_cli(workloads)
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    reference = json.loads((BENCH_DIR / "reference.json").read_text())[args.workload]
    config = workloads.WORKLOADS[args.workload]()
    out_dir = OUT / args.workload
    tally = Tally(workloads, reference)
    if args.trace:
        metrics, samples, first = measure_traced(
            workloads, tracing, config, args.seed, args.seconds, tally, out_dir
        )
        units = PER_LAYER_UNITS
    else:
        metrics, samples, first = measure(
            workloads, config, args.seed, args.seconds, tally, out_dir
        )
        units = END_TO_END_UNITS

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
        "failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
        "samples": samples,
        "solves": first,
    }
    (out_dir / "run.json").write_text(json.dumps(info, indent=2) + "\n")
    print(json.dumps(info))
    result = {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
