"""How reconstruction quality degrades with the measurement noise level.

Fixes the network and ray count, then reruns the reconstruction across noise
fractions spanning four orders of magnitude.  Prints the final relative error
per level and, when matplotlib is available, saves a log-log summary plot.
"""

import argparse
import os

from atmtomo.experiments import ExperimentConfig, run_sweep

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

NOISE_LEVELS = (0.20, 0.10, 0.05, 0.02, 0.001, 5e-05, 1e-05)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/noise_sweep", help="output directory")
    args = parser.parse_args()

    config = ExperimentConfig(
        nx=12,
        ny=12,
        nz=12,
        stations=8,
        emitters=10,
        seed=1,
        ray_counts=(60,),
        noise_fractions=NOISE_LEVELS,
        lbfgs_max_iterations=150,
        output_dir=args.out,
    )
    manifest = run_sweep(config, progress=print)

    levels = []
    errors = []
    print("\nnoise     final relative error")
    for entry in manifest["outputs"]:
        if entry["status"] == "ok":
            print(f"{entry['noise']:<8g}  {entry['final_relative_error']:.4f}")
            levels.append(entry["noise"])
            errors.append(entry["final_relative_error"])

    if plt is not None:
        fig, ax = plt.subplots(figsize=(6, 4))
        ax.loglog(levels, errors, "o-")
        ax.set_xlabel("relative noise fraction")
        ax.set_ylabel("final relative error")
        ax.grid(True, which="both", alpha=0.3)
        path = os.path.join(config.output_dir, "noise_sweep.png")
        fig.savefig(path, dpi=120, bbox_inches="tight")
        print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
