"""Per-iteration convergence records, error metrics and CSV round-trip."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConvergenceRecord:
    iteration: int
    objective: float
    step_norm: float
    relative_error: float | None
    gradient_norm: float
    discrepancy: float
    seconds: float


# (CSV header, ConvergenceRecord field), in column order
_COLUMNS = (
    ("iter", "iteration"),
    ("F", "objective"),
    ("step_norm", "step_norm"),
    ("rel_error", "relative_error"),
    ("grad_norm", "gradient_norm"),
    ("discrepancy", "discrepancy"),
    ("seconds", "seconds"),
)
CSV_HEADER = [header for header, _ in _COLUMNS]


def _values_of(obj) -> np.ndarray:
    values = obj.values if hasattr(obj, "values") else obj
    return np.asarray(values, dtype=float)


def relative_error(phi, truth) -> float:
    """||phi - truth|| / ||truth||; zero everywhere matches itself at 0."""
    if hasattr(phi, "grid") and hasattr(truth, "grid") and phi.grid != truth.grid:
        raise ValueError("fields live on different grids")
    a, b = _values_of(phi), _values_of(truth)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    tn = float(np.linalg.norm(b))
    if tn == 0.0:
        if float(np.linalg.norm(a)) == 0.0:
            return 0.0
        raise ValueError("relative error undefined against a zero truth")
    return float(np.linalg.norm(a - b)) / tn


def _cell(value) -> str:
    return "" if value is None else repr(value)


def _parse(name: str, text: str):
    if name == "iteration":
        return int(text)
    if name == "relative_error" and text == "":
        return None
    return float(text)


def write_csv(records, path) -> None:
    """One row per record; missing relative errors become empty cells."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for r in records:
                writer.writerow([_cell(getattr(r, name)) for _, name in _COLUMNS])
    except OSError as exc:
        raise OSError(f"failed to write convergence CSV {path}: {exc}") from exc


def read_csv(path) -> list[ConvergenceRecord]:
    """Inverse of write_csv; text round-trips exactly via repr floats."""
    records = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != CSV_HEADER:
                raise ValueError(f"{path}: unexpected CSV header {header}")
            for row in reader:
                cells = zip(_COLUMNS, row, strict=True)
                records.append(
                    ConvergenceRecord(**{name: _parse(name, text) for (_, name), text in cells})
                )
    except OSError as exc:
        raise OSError(f"failed to read convergence CSV {path}: {exc}") from exc
    return records
