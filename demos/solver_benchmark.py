"""Time lagged diffusivity against trust-region L-BFGS on one problem.

Both solvers minimize the same smoothed-TV objective.  Lagged diffusivity
nests up to 200 conjugate-gradient steps inside every outer iteration, so its
per-iteration cost is far higher; the quasi-Newton iterations are cheap but
need more of them.  The report shows both costs and the accuracy each solver
reaches.
"""

import argparse

from atmtomo.experiments import ExperimentConfig, run_benchmark


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/benchmark", help="output directory")
    args = parser.parse_args()

    config = ExperimentConfig(
        nx=12,
        ny=12,
        nz=12,
        stations=8,
        emitters=10,
        seed=1,
        benchmark_rays=60,
        benchmark_noise=0.001,
        benchmark_lbfgs_iterations=200,
        benchmark_ldfp_iterations=10,
        output_dir=args.out,
    )
    report = run_benchmark(config, progress=print)

    print()
    for side in ("lbfgs", "ldfp"):
        s = report[side]
        print(f"{side:5s}: {s['iterations']:4d} iterations, "
              f"{s['seconds_per_iteration'] * 1e3:8.2f} ms/iteration, "
              f"final rel error {s['final_relative_error']:.4f}")
    print(f"\nper-iteration cost ratio ldfp/lbfgs: "
          f"{report['speed_ratio_equal_iterations']:.1f}")
    print(f"lbfgs time for {report['ldfp']['iterations']} iterations "
          f"(ldfp's budget): {report['lbfgs_seconds_for_equal_iterations']:.3f}s "
          f"vs ldfp's {report['ldfp']['total_seconds']:.3f}s")
    print(f"full report in {config.output_dir}/benchmark.json")


if __name__ == "__main__":
    main()
