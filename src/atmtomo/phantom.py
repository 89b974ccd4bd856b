"""Synthetic refractivity field, measurement noise and field file i/o."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Grid3, make_grid

FIELD_MAGIC = "FLD1"


@dataclass(frozen=True)
class PhantomParams:
    """Parameters of the layered test refractivity.

    The vertical shape is a sum of two exponential decays with distinct scale
    heights; the horizontal modulation adds linear gradients plus one sine and
    one cosine oscillation across the lateral extent.  Amplitudes are kept
    inside the band [200, 400]: base - amplitudes >= 200 and
    base + amplitudes <= 400.
    """

    base: float = 350.0
    scale_height_1: float = 1.0
    scale_height_2: float = 7.0
    gradient_x: float = 30.0
    gradient_y: float = 50.0
    amplitude_sin: float = 30.0
    amplitude_cos: float = 20.0
    cycles_x: float = 4.0
    cycles_y: float = 6.0

    def __post_init__(self):
        if self.scale_height_1 <= 0.0 or self.scale_height_2 <= 0.0:
            raise ValueError("scale heights must be positive")
        amps = abs(self.amplitude_sin) + abs(self.amplitude_cos)
        if self.base - amps < 200.0 or self.base + amps > 400.0:
            raise ValueError(
                f"oscillation band [{self.base - amps}, {self.base + amps}] "
                "leaves the admissible range [200, 400]"
            )


@dataclass(frozen=True)
class Field:
    """Scalar nodal values on a grid, stored flat with x fastest."""

    grid: Grid3
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size != self.grid.n_nodes:
            raise ValueError(
                f"values must be a flat vector of length {self.grid.n_nodes}, "
                f"got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", values)

    def as_3d(self) -> np.ndarray:
        """View with axes ordered (z, y, x)."""
        return self.values.reshape(self.grid.nz, self.grid.ny, self.grid.nx)


def vertical_profile(h, params: PhantomParams = PhantomParams()):
    """Two-scale exponential decay with altitude: (base/2)*(e^-h/H1 + e^-h/H2)."""
    h = np.asarray(h, dtype=float)
    out = 0.5 * params.base * (
        np.exp(-h / params.scale_height_1) + np.exp(-h / params.scale_height_2)
    )
    return float(out) if out.ndim == 0 else out


def horizontal_profile(x, y, params: PhantomParams, bounds):
    """Lateral modulation: base + gradients + sine/cosine oscillations.

    bounds = (x_min, x_max, y_min, y_max); coordinates enter scaled by the
    lateral extents, so cycles_x/cycles_y count oscillations across the box.
    """
    x_min, x_max, y_min, y_max = (float(v) for v in bounds)
    wx = x_max - x_min
    wy = y_max - y_min
    if wx <= 0.0 or wy <= 0.0:
        raise ValueError("lateral bounds must have positive extent")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = (
        params.base
        + params.gradient_x * x / wx
        + params.gradient_y * y / wy
        + params.amplitude_sin * np.sin(2.0 * math.pi * params.cycles_x * x / wx)
        + params.amplitude_cos * np.cos(2.0 * math.pi * params.cycles_y * y / wy)
    )
    return float(out) if out.ndim == 0 else out


def true_profile(
    grid: Grid3, params: PhantomParams = PhantomParams(), normalized: bool = False
) -> Field:
    """Product phantom on the grid: (base/2) * horizontal(x,y) * vertical decay(z).

    The base enters both the prefactor and the horizontal bracket, so ground
    values are of order base^2.  With normalized=True the values are mapped
    affinely onto [0, 1] instead.
    """
    xs = grid.axis_nodes("x")
    ys = grid.axis_nodes("y")
    zs = grid.axis_nodes("z")
    bounds = (grid.x_min, grid.x_max, grid.y_min, grid.y_max)
    bracket = horizontal_profile(xs[None, :], ys[:, None], params, bounds)  # (ny, nx)
    values = vertical_profile(zs, params)[:, None, None] * bracket
    flat = values.ravel()
    if normalized:
        lo, hi = flat.min(), flat.max()
        flat = (flat - lo) / (hi - lo) if hi > lo else np.zeros_like(flat)
    return Field(grid=grid, values=flat)


def add_noise(f_true: np.ndarray, noise_fraction: float, seed: int):
    """Additive white noise scaled to a relative level.

    delta = noise_fraction * ||f_true||_2 / sqrt(M), and each entry gets
    delta * z with z standard normal.  Returns (noisy data, delta).
    """
    f_true = np.asarray(f_true, dtype=float)
    if f_true.ndim != 1 or f_true.size == 0:
        raise ValueError("data must be a nonempty flat vector")
    if not noise_fraction >= 0.0:
        raise ValueError(f"noise fraction must be >= 0, got {noise_fraction}")
    m = f_true.size
    delta = noise_fraction * float(np.linalg.norm(f_true)) / math.sqrt(m)
    z = np.random.default_rng(seed).standard_normal(m)
    return f_true + delta * z, delta


def write_field(field: Field, path) -> None:
    """Write a field file: one text header line, then little-endian float64 values."""
    g = field.grid
    header = (
        f"{FIELD_MAGIC} {g.nx} {g.ny} {g.nz} "
        f"{g.x_min!r} {g.x_max!r} {g.y_min!r} {g.y_max!r} {g.z_min!r} {g.z_max!r}\n"
    )
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(field.values.astype("<f8").tobytes())
    except OSError as exc:
        raise OSError(f"failed to write field file {path}: {exc}") from exc


def read_field(path) -> Field:
    """Read a field file written by write_field."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii").split()
            if len(header) != 10 or header[0] != FIELD_MAGIC:
                raise ValueError(f"{path}: not a field file (bad header)")
            nx, ny, nz = (int(v) for v in header[1:4])
            bounds = [float(v) for v in header[4:10]]
            raw = fh.read(nx * ny * nz * 8)
            if len(raw) != nx * ny * nz * 8:
                raise ValueError(f"{path}: truncated field payload")
            if fh.read(1):
                raise ValueError(f"{path}: bytes follow the field payload")
            values = np.frombuffer(raw, dtype="<f8").astype(float)
    except OSError as exc:
        raise OSError(f"failed to read field file {path}: {exc}") from exc
    grid = make_grid(nx, ny, nz, bounds)
    return Field(grid=grid, values=values)
