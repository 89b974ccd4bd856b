"""Walk through the forward model: grid, network, rays, and the sparse operator.

Builds a small scene, shows how slant paths are sampled and snapped to grid
nodes, and checks the two identities the reconstruction relies on: row sums
equal chord lengths for interior rays, and the adjoint matches the transpose.
Writes the ray listing (network.txt) and the operator entries (operator.txt)
to the chosen output directory.
"""

import argparse
import os

import numpy as np

from atmtomo import (
    assemble_operator,
    dump_operator,
    make_grid,
    network_listing,
    place_network,
    sample_rays,
    take_rays,
    true_profile,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    grid = make_grid(12, 12, 12, (0, 1, 0, 1, 0, 15))
    print(f"grid: {grid.nx}x{grid.ny}x{grid.nz} nodes, "
          f"spacings dx={grid.dx:.3f} dy={grid.dy:.3f} dz={grid.dz:.3f}")

    network = place_network(grid, n_stations=6, n_emitters=8, seed=1)
    print(f"network: {len(network.stations)} stations, {len(network.emitters)} "
          f"emitters, {len(network.rays)} admissible rays")
    print("first three rays (station, emitter, elevation, azimuth):")
    for line in network_listing(network).splitlines()[:3]:
        print("  " + line)

    first = take_rays(network, 1).rays
    # planar samples: points[:, r, s] is sample s of ray r
    points, increments = sample_rays(first, grid, 24)
    print(f"\nray 0 elevation {first.elevations[0]:.3f} rad, "
          f"arc increment {increments[0]:.4f}, {points.shape[2]} samples")
    print(f"  first sample {points[:, 0, 0]}, last sample {points[:, 0, -1]}")

    op = assemble_operator(network, n_samples=24)
    print(f"\noperator: {op.n_rows} rows x {op.n_cols} columns, {op.nnz} nonzeros "
          f"({op.nnz / op.n_rows:.1f} per ray)")

    # interior rays deposit their full arc length; clipped rays lose the
    # samples that fall outside the lateral bounds
    rays = network.rays
    chords = (grid.z_max - rays.origins[:, 2]) / np.sin(rays.elevations)
    sums = op.row_sums()
    interior = np.isclose(sums, chords, rtol=1e-12)
    print(f"row sum == chord length for {interior.sum()} of {op.n_rows} rays; "
          f"the rest leave the box sideways")

    rng = np.random.default_rng(0)
    phi = rng.standard_normal(op.n_cols)
    psi = rng.standard_normal(op.n_rows)
    lhs = float(op.apply(phi) @ psi)
    rhs = float(phi @ op.apply_adjoint(psi))
    print(f"adjoint identity <T phi, psi> - <phi, T* psi> = {lhs - rhs:.2e}")

    truth = true_profile(grid)
    integrals = op.apply(truth.values)
    print(f"\nsynthetic data: min {integrals.min():.1f}, max {integrals.max():.1f} "
          f"(all positive: {bool((integrals > 0).all())})")

    with open(os.path.join(args.out, "network.txt"), "w") as fh:
        fh.write(network_listing(network))
    dump_operator(op, os.path.join(args.out, "operator.txt"))
    print(f"wrote network.txt and operator.txt to {args.out}")


if __name__ == "__main__":
    main()
