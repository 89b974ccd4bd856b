"""How reconstruction quality scales with the number of measured rays.

Runs the sweep driver over increasing ray counts at a fixed low noise level
and prints the final relative error for each count.  More rays reach more
nodes, so the error should fall as the count grows.
"""

import argparse

from atmtomo.experiments import ExperimentConfig, run_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/ray_sweep", help="output directory")
    args = parser.parse_args()

    config = ExperimentConfig(
        nx=12,
        ny=12,
        nz=12,
        stations=8,
        emitters=10,
        seed=1,
        ray_counts=(5, 20, 40, 60, 80),
        noise_fractions=(0.001,),
        lbfgs_max_iterations=150,
        output_dir=args.out,
    )
    manifest = run_sweep(config, dump_network=True, progress=print)

    print("\nrays  final relative error")
    for entry in manifest["outputs"]:
        if entry["status"] == "ok":
            print(f"{entry['rays']:4d}  {entry['final_relative_error']:.4f}")
    print(f"\ntraces and fields under {config.output_dir}/")


if __name__ == "__main__":
    main()
