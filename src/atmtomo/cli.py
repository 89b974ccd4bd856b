"""Command-line entry point for the sweep and benchmark experiment modes."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiments import default_config, load_config, run_benchmark, run_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="atmtomo",
        description=(
            "Reconstruct a synthetic refractivity field from slant-path line "
            "integrals and record convergence diagnostics."
        ),
    )
    parser.add_argument("--config", metavar="PATH", help="INI config file; defaults reproduce the toy model")
    parser.add_argument(
        "--mode", choices=("sweep", "benchmark"), default="sweep", help="experiment mode"
    )
    parser.add_argument(
        "--dump-network", action="store_true", help="write the ray listing to the output directory"
    )
    parser.add_argument(
        "--dump-operator", action="store_true", help="write operator entries as text triples"
    )
    parser.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, metavar="N", help="network seed (overrides config)")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.out is not None:
            config = replace(config, output_dir=args.out)
    except (OSError, ValueError) as exc:
        print(f"atmtomo: {exc}", file=sys.stderr)
        return 1

    def progress(message: str) -> None:
        print(message, file=sys.stderr)

    try:
        if args.mode == "sweep":
            manifest = run_sweep(
                config,
                dump_network=args.dump_network,
                dump_operator=args.dump_operator,
                progress=progress,
            )
            failures = manifest["failures"]
        else:
            run_benchmark(config, progress=progress)
            failures = 0
    except Exception as exc:
        print(f"atmtomo: {exc}", file=sys.stderr)
        return 1

    if failures:
        print(f"atmtomo: {failures} combination(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
