"""Spans around atmtomo's layers, wrapped from outside the package.

A span records its name, start, end and the span that was open when it
began.  Spans stay in memory until the traced pass ends; ``layer_metrics``
then turns them into per-layer counts, times and self times (a span's
duration minus the time its direct children cover).
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

import atmtomo

objective_module = importlib.import_module("atmtomo.objective")
solvers_module = importlib.import_module("atmtomo.solvers")

# (owner, attribute, span name).  Names bound by ``from ... import`` inside
# another module are wrapped where that module looks them up; methods are
# wrapped on their class.
TARGETS = (
    (atmtomo, "true_profile", "phantom.true_profile"),
    (atmtomo, "add_noise", "phantom.add_noise"),
    (atmtomo, "write_field", "phantom.write_field"),
    (atmtomo, "place_network", "geometry.place_network"),
    (atmtomo, "assemble_operator", "forward.assemble"),
    (atmtomo, "write_csv", "diagnostics.write_csv"),
    (atmtomo, "lbfgs_trust_region", "solvers.lbfgs"),
    (atmtomo, "ldfp", "solvers.ldfp"),
    (atmtomo.SparseOperator, "apply", "forward.apply"),
    (atmtomo.SparseOperator, "apply_adjoint", "forward.adjoint"),
    (atmtomo.Objective, "eval", "objective.eval"),
    (atmtomo.Objective, "discrepancy", "objective.discrepancy"),
    (objective_module, "tv_value_and_gradient", "tv.value_grad"),
    (solvers_module, "smoothing_weights", "tv.weights"),
    (solvers_module, "apply_weights", "tv.apply_weights"),
    (solvers_module, "cgne", "solvers.cg"),
    (solvers_module, "two_loop_direction", "solvers.two_loop"),
)

NAME, START, END, PARENT, BYTES = range(5)


def _csr_bytes(matrix, n_out: int) -> int:
    """Computed bytes one CSR matvec moves: matrix arrays, gathered input, output."""
    return (
        matrix.data.nbytes
        + matrix.indices.nbytes
        + matrix.indptr.itemsize * (n_out + 1)
        + 8 * matrix.nnz
        + 8 * n_out
    )


# Computed bytes per call of the operator spans; the first argument is the
# SparseOperator.  The adjoint's CSR has the same nnz with one row per column.
_BYTES = {
    "forward.apply": lambda op: _csr_bytes(op.matrix, op.n_rows),
    "forward.adjoint": lambda op: _csr_bytes(op.matrix, op.n_cols),
}


class Tracer:
    """Wraps every target while active; ``close`` puts the originals back."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        for owner, attr, name in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def _wrap(self, original, name):
        spans, stack, count_bytes = self.spans, self._stack, _BYTES.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            if count_bytes is not None:
                span[BYTES] = count_bytes(args[0])
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def close(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Targets that still hold something other than their original."""
        return [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self._saved
            if vars(owner)[attr] is not original
        ]


def layer_metrics(spans: list[list], records: list, cg_cap: int | None) -> dict:
    """Per-layer metrics of one traced pass.

    records holds the convergence records of every solve in the pass;
    cg_cap is the inner iteration cap of LDFP, or None without LDFP.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    cg_inner = [0] * len(spans)
    for i, span in enumerate(spans):
        name, duration = span[NAME], span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration - child_time[i]
        parent = span[PARENT]
        if name == "tv.apply_weights" and parent >= 0 and spans[parent][NAME] == "solvers.cg":
            cg_inner[parent] += 1

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def own(name):
        return self_time.get(name, 0.0)

    cg_steps = [cg_inner[i] for i, s in enumerate(spans) if s[NAME] == "solvers.cg"]
    cap_hits = sum(1 for k in cg_steps if cg_cap is not None and k >= cg_cap)
    iterations = sum(r.iteration > 0 for r in records)
    accepted = sum(r.iteration > 0 and r.step_norm > 0.0 for r in records)
    return {
        "geometry.place_network_s": t("geometry.place_network"),
        "forward.assemble_s": t("forward.assemble"),
        "forward.apply_calls": n("forward.apply"),
        "forward.apply_s": t("forward.apply"),
        "forward.adjoint_calls": n("forward.adjoint"),
        "forward.adjoint_s": t("forward.adjoint"),
        "forward.apply_bytes": sum(
            s[BYTES] for s in spans if s[NAME] in ("forward.apply", "forward.adjoint")
        ),
        "tv.value_grad_calls": n("tv.value_grad"),
        "tv.value_grad_s": t("tv.value_grad"),
        "tv.weights_calls": n("tv.weights"),
        "tv.weights_s": t("tv.weights"),
        "tv.apply_weights_calls": n("tv.apply_weights"),
        "tv.apply_weights_s": t("tv.apply_weights"),
        "objective.eval_calls": n("objective.eval"),
        "objective.eval_s": t("objective.eval"),
        "objective.eval_self_s": own("objective.eval"),
        "objective.discrepancy_calls": n("objective.discrepancy"),
        "objective.discrepancy_s": t("objective.discrepancy"),
        "solvers.iterations": iterations,
        "solvers.accepted": accepted,
        "solvers.accept_ratio": accepted / iterations if iterations else 0.0,
        "solvers.two_loop_s": t("solvers.two_loop"),
        "solvers.cg_calls": n("solvers.cg"),
        "solvers.cg_iterations": sum(cg_steps),
        "solvers.cg_cap_hits": cap_hits,
        "solvers.cg_cap_ratio": cap_hits / len(cg_steps) if cg_steps else 0.0,
        "solvers.cg_s": t("solvers.cg"),
        "solvers.self_s": own("solvers.lbfgs") + own("solvers.ldfp") + own("solvers.cg"),
        "diagnostics.write_csv_s": t("diagnostics.write_csv"),
        "phantom.write_field_s": t("phantom.write_field"),
        "phantom.true_profile_s": t("phantom.true_profile"),
        "phantom.add_noise_s": t("phantom.add_noise"),
    }
