"""Atmospheric refractivity tomography from sparse slant-path line integrals.

The pieces, in dependency order: a box grid with a station/emitter network
(geometry), a synthetic layered refractivity field with noisy measurements
(phantom), a sparse nearest-node ray transform (forward), smoothed total
variation and its diffusion operator (tv), the regularized objective
(objective), trust-region L-BFGS and lagged-diffusivity solvers (solvers),
convergence records (diagnostics), and sweep/benchmark drivers (experiments).
"""

from .diagnostics import (
    ConvergenceRecord,
    read_csv,
    relative_error,
    write_csv,
)
from .experiments import (
    ExperimentConfig,
    config_hash,
    default_config,
    derive_noise_seed,
    load_config,
    run_benchmark,
    run_sweep,
)
from .forward import (
    SparseOperator,
    assemble_operator,
    dump_operator,
    operator_listing,
)
from .geometry import (
    Emitter,
    Grid3,
    Network,
    Ray,
    Station,
    build_network,
    is_admissible,
    make_grid,
    network_listing,
    place_network,
    ray_from_pair,
    sample_ray,
    sample_rays,
    take_rays,
)
from .objective import Objective
from .phantom import (
    Field,
    PhantomParams,
    add_noise,
    horizontal_profile,
    read_field,
    true_profile,
    vertical_profile,
    write_field,
)
from .solvers import (
    InnerSolveStats,
    LbfgsHistory,
    LbfgsOptions,
    SolveResult,
    cgne,
    lbfgs_trust_region,
    ldfp,
    two_loop_direction,
)
from .tv import (
    apply_weights,
    diffusion_matrix,
    smoothing_weights,
    tv_value,
    tv_value_and_gradient,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceRecord",
    "Emitter",
    "ExperimentConfig",
    "Field",
    "Grid3",
    "InnerSolveStats",
    "LbfgsHistory",
    "LbfgsOptions",
    "Network",
    "Objective",
    "PhantomParams",
    "Ray",
    "SolveResult",
    "SparseOperator",
    "Station",
    "add_noise",
    "apply_weights",
    "assemble_operator",
    "build_network",
    "cgne",
    "config_hash",
    "default_config",
    "derive_noise_seed",
    "diffusion_matrix",
    "dump_operator",
    "horizontal_profile",
    "is_admissible",
    "lbfgs_trust_region",
    "ldfp",
    "load_config",
    "make_grid",
    "network_listing",
    "operator_listing",
    "place_network",
    "ray_from_pair",
    "read_csv",
    "read_field",
    "relative_error",
    "run_benchmark",
    "run_sweep",
    "sample_ray",
    "sample_rays",
    "smoothing_weights",
    "take_rays",
    "true_profile",
    "tv_value",
    "tv_value_and_gradient",
    "two_loop_direction",
    "vertical_profile",
    "write_csv",
    "write_field",
]
