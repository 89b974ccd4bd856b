"""The benchmark's per-layer trace still finds every name it wraps.

``bench/tracing.py`` wraps atmtomo's layers by module attribute.  A refactor
that renames or unbinds one of them would leave that span silent and the
per-layer metrics quietly at zero; this runs one traced pass of the staged
workload on a tiny two-solver TV problem and checks every span fires.
"""

import sys
from pathlib import Path

from atmtomo import ExperimentConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_traced_pass_fires_every_span(tmp_path):
    config = ExperimentConfig(
        nx=5,
        ny=5,
        nz=5,
        stations=4,
        emitters=5,
        seed=3,
        ray_counts=(10,),
        noise_fractions=(0.01,),
        solvers=("lbfgs", "ldfp"),
        penalties=("tv",),
        lbfgs_max_iterations=8,
        ldfp_outer_iterations=2,
        ldfp_inner_max_iterations=50,
        benchmark_rays=10,
        benchmark_noise=0.01,
    )
    tracer = tracing.Tracer()
    try:
        p = workloads.run_pass(config, config.seed, str(tmp_path))
    finally:
        tracer.close()
    assert tracer.leftovers() == []
    fired = {span[tracing.NAME] for span in tracer.spans}
    assert [name for _, _, name in tracing.TARGETS if name not in fired] == []
    assert [s.problem.name for s in p.solves] == ["lbfgs_10rays_0.01", "ldfp_10rays_0.01"]
    assert [s.error for s in p.solves] == [None, None]
