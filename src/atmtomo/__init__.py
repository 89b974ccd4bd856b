"""Atmospheric refractivity tomography from sparse slant-path line integrals.

The pieces, in dependency order: a box grid with a station/emitter network
(geometry), a synthetic layered refractivity field with noisy measurements
(phantom), a sparse nearest-node ray transform (forward), smoothed total
variation and its diffusion operator (tv), the regularized objective
(objective), trust-region L-BFGS and lagged-diffusivity solvers (solvers),
convergence records (diagnostics), and sweep/benchmark drivers (experiments).
"""

import types

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
    Grid3,
    Network,
    Rays,
    build_network,
    make_grid,
    network_listing,
    place_network,
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
    smoothing_weights,
    tv_value_and_gradient,
)

__version__ = "0.1.0"

# every public name bound above except the modules
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
