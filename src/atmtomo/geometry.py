"""Box domain, node grid, station/emitter network and slant-path ray geometry.

Rays run from a ground station upward to an emitter plane at the top of the
domain.  Each ray is parameterized by altitude, so a sample at altitude eps
sits at arc length (eps - z_station) / sin(elevation) along the ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np


@dataclass(frozen=True)
class Grid3:
    """Regular node grid on the box [x_min,x_max] x [y_min,y_max] x [z_min,z_max].

    Nodes are numbered x-fastest: linear index = i + nx*(j + ny*k).
    """

    nx: int
    ny: int
    nz: int
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / (self.ny - 1)

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / (self.nz - 1)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dy * self.dz

    def axis_nodes(self, axis: str) -> np.ndarray:
        """Node coordinates along one axis ('x', 'y' or 'z')."""
        if axis == "x":
            return np.linspace(self.x_min, self.x_max, self.nx)
        if axis == "y":
            return np.linspace(self.y_min, self.y_max, self.ny)
        if axis == "z":
            return np.linspace(self.z_min, self.z_max, self.nz)
        raise ValueError(f"unknown axis {axis!r}")


def _is_count(n, low: int, high: float = math.inf) -> bool:
    """Whether n is an integer in [low, high]; an integral float counts."""
    return low <= n <= high and math.isfinite(n) and n == int(n)


def _check_node_counts(counts) -> None:
    if not all(_is_count(n, 2) for n in counts):
        raise ValueError(f"node counts must be integers >= 2, got {counts}")


def make_grid(nx: int, ny: int, nz: int, bounds) -> Grid3:
    """Build a grid from node counts and (x_min, x_max, y_min, y_max, z_min, z_max)."""
    _check_node_counts((nx, ny, nz))
    b = [float(v) for v in bounds]
    if len(b) != 6:
        raise ValueError(f"bounds needs 6 values, got {len(b)}")
    if not all(math.isfinite(v) for v in b):
        raise ValueError("bounds must be finite")
    for lo, hi, name in ((b[0], b[1], "x"), (b[2], b[3], "y"), (b[4], b[5], "z")):
        if not hi > lo:
            raise ValueError(f"{name} bounds must satisfy max > min, got [{lo}, {hi}]")
    return Grid3(int(nx), int(ny), int(nz), *b)


@dataclass(frozen=True, eq=False)
class Rays:
    """Rays as arrays, one row per ray: what Network.rays holds.

    origins and directions (unit vectors) are (R, 3), elevations
    (arcsin(direction_z), in (0, pi/2]) and the station and emitter indices
    (R,).  len() and slicing give views.
    """

    origins: np.ndarray
    directions: np.ndarray
    elevations: np.ndarray
    station_indices: np.ndarray
    emitter_indices: np.ndarray

    def __len__(self) -> int:
        return len(self.elevations)

    def __getitem__(self, key: slice) -> Rays:
        if not isinstance(key, slice):
            raise TypeError(f"Rays take slices only, got {type(key).__name__}")
        return Rays(*(getattr(self, f.name)[key] for f in fields(self)))


@dataclass(frozen=True, eq=False)
class Network:
    """Stations, emitters and the admissible rays connecting them.

    stations is (S, 3) and emitters (E, 3); ray r runs from
    stations[rays.station_indices[r]] toward emitters[rays.emitter_indices[r]].
    Placed stations sit on the surface z = 0, emitters on the top plane
    z = z_max (possibly laterally outside the box).
    """

    grid: Grid3
    stations: np.ndarray
    emitters: np.ndarray
    rays: Rays


def _unit_directions(diff: np.ndarray) -> np.ndarray:
    """Unit directions of (P, 3) differences, zero where a length is 0.

    A length is the BLAS dot that np.linalg.norm takes on one 3-vector, stacked
    by matmul, so it equals the one-pair norm bit for bit; a row-wise norm or
    (diff * diff).sum(1) can differ in the last bit.
    """
    length = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
    nonzero = length[:, None] != 0.0
    return np.divide(diff, length[:, None], out=np.zeros_like(diff), where=nonzero)


# angles from math per ray: numpy's vectorized arcsin and arctan2 can differ in the last bit
def _elevations(direction_z: np.ndarray) -> np.ndarray:
    return np.array([math.asin(min(1.0, z)) for z in direction_z.tolist()], dtype=float)


def _admissible(origins, directions, elevations, grid: Grid3):
    """Admissibility mask of upward rays given as (P, 3) origins and directions.

    A ray is admissible when its origin lies below the top plane and its
    segment from the origin up to the top plane meets the domain box.  Each
    segment is clipped against the box slab by slab; along an axis the ray runs
    parallel to (|d| < 1e-300) the origin must lie within that axis's bounds.
    """
    z0 = origins[:, 2]
    keep = z0 < grid.z_max
    rows = np.flatnonzero(keep)
    o, d = origins[rows], directions[rows]
    lo, hi = np.array([[grid.x_min, grid.y_min, grid.z_min], [grid.x_max, grid.y_max, grid.z_max]])
    parallel = np.abs(d) < 1e-300
    t1, t2 = (lo - o) / np.where(parallel, 1.0, d), (hi - o) / np.where(parallel, 1.0, d)
    t_lo = np.where(parallel, 0.0, np.minimum(t1, t2)).max(axis=1, initial=0.0)
    t_hi = np.where(parallel, np.inf, np.maximum(t1, t2)).min(axis=1, initial=np.inf)
    t_top = (grid.z_max - z0[rows]) / np.array([math.sin(e) for e in elevations[rows].tolist()])
    outside = (parallel & ((o < lo) | (o > hi))).any(axis=1)
    keep[rows] = ~outside & (t_lo <= np.minimum(t_hi, t_top))
    return keep


def sample_rays(rays: Rays, grid: Grid3, n_samples: int):
    """Equispaced-in-altitude sample points along every ray at once.

    Returns (points, increments): points is planar, shape (3, len(rays),
    n_samples), one (rays, samples) plane per coordinate x, y, z, each row
    running from its station altitude up to z_max; increments[r] is the arc
    length between consecutive samples of ray r, d_eps / sin(elevation).
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples per ray, got {n_samples}")
    sin_e = np.array([math.sin(e) for e in rays.elevations.tolist()], dtype=float)
    if (sin_e <= 0.0).any():
        raise ValueError("horizontal ray has no altitude parameterization")
    z0 = rays.origins[:, 2]
    above = np.flatnonzero(grid.z_max <= z0)
    if above.size:
        raise ValueError(
            f"station altitude {float(z0[above[0]])!r} is not below the top plane {grid.z_max!r}"
        )
    # the scalar ladder's operations in its order, so each ray samples bit for
    # bit as it would alone: linspace's step, times the sample index, plus z0,
    # and z_max itself at the top
    t = np.arange(n_samples) * ((grid.z_max - z0) / (n_samples - 1))[:, None]
    t += z0[:, None]
    t[:, -1] = grid.z_max
    t -= z0[:, None]
    t /= sin_e[:, None]
    # planar C order: numpy would lay a broadcast product out like directions
    points = np.multiply(t, rays.directions.T[:, :, None], out=np.empty((3,) + t.shape))
    del t
    points += rays.origins.T[:, :, None]
    increments = (grid.z_max - z0) / (n_samples - 1) / sin_e
    return points, increments


def build_network(grid: Grid3, stations, emitters) -> Network:
    """Enumerate station-major, emitter-minor pairs and keep the admissible rays.

    stations and emitters are (N, 3) positions.  A pair whose positions
    coincide, or whose emitter is not strictly above its station, gives no
    ray: a ray parallel to the surface has no finite altitude parameterization.
    One array pass covers all pairs, and the admissible ones stay arrays.
    """
    starts, ends = np.array(stations, dtype=float), np.array(emitters, dtype=float)
    for name, positions in (("stations", starts), ("emitters", ends)):
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"{name} must be (N, 3) positions, got shape {positions.shape}")
    directions = _unit_directions((ends[None] - starts[:, None]).reshape(-1, 3))
    pairs = np.flatnonzero(directions[:, 2] > 0.0)
    station_of, emitter_of = np.divmod(pairs, len(ends))
    directions = directions[pairs]
    elevations = _elevations(directions[:, 2])
    keep = _admissible(starts[station_of], directions, elevations, grid)
    station_of, emitter_of = station_of[keep], emitter_of[keep]
    rays = Rays(starts[station_of], directions[keep], elevations[keep], station_of, emitter_of)
    return Network(grid, starts, ends, rays)


_LATERAL_EXTENSION = 1.5


def _check_network_counts(n_stations, n_emitters) -> None:
    if not (_is_count(n_stations, 1) and _is_count(n_emitters, 1)):
        raise ValueError(
            f"station and emitter counts must be integers >= 1, got {n_stations} and {n_emitters}"
        )


def place_network(grid: Grid3, n_stations: int, n_emitters: int, seed: int) -> Network:
    """Randomly place stations on the surface and emitters on the top plane.

    Stations are uniform over the lateral bounds at z = 0.  Emitters sit at
    z = z_max, uniform over the lateral bounds widened
    _LATERAL_EXTENSION = 1.5 times about their midpoint, so slant paths can
    enter from outside the box.  Same seed, same network.
    """
    _check_network_counts(n_stations, n_emitters)
    n_stations, n_emitters = int(n_stations), int(n_emitters)
    rng = np.random.default_rng(seed)
    lo = np.array([grid.x_min, grid.y_min])
    hi = np.array([grid.x_max, grid.y_max])
    stations = np.zeros((n_stations, 3))
    stations[:, :2] = rng.uniform(lo, hi, size=(n_stations, 2))
    half, mid = 0.5 * _LATERAL_EXTENSION * (hi - lo), 0.5 * (lo + hi)
    emitters = np.full((n_emitters, 3), float(grid.z_max))
    emitters[:, :2] = rng.uniform(mid - half, mid + half, size=(n_emitters, 2))

    return build_network(grid, stations, emitters)


def take_rays(network: Network, count: int) -> Network:
    """Keep the first `count` rays in enumeration order (deterministic subselection)."""
    if not _is_count(count, 1, len(network.rays)):
        raise ValueError(
            f"ray count must be an integer in [1, {len(network.rays)}], got {count}"
        )
    return replace(network, rays=network.rays[: int(count)])


def network_listing(network: Network) -> str:
    """One ray per line: station xyz, emitter xyz, elevation, azimuth.

    The azimuth is atan2(direction_y, direction_x) folded into [0, 2*pi).
    """
    rays = network.rays
    emitters = network.emitters[rays.emitter_indices].tolist()
    lines = []
    # azimuth from math per ray: numpy's vectorized arctan2 can differ in the last bit
    for origin, emitter, (x, y, _), elevation in zip(
        rays.origins.tolist(), emitters, rays.directions.tolist(), rays.elevations.tolist()
    ):
        values = (*origin, *emitter, elevation, math.atan2(y, x) % (2.0 * math.pi))
        lines.append(" ".join(map(repr, values)))
    return "\n".join(lines) + ("\n" if lines else "")
