"""Box domain, node grid, station/emitter network and slant-path ray geometry.

Rays run from a ground station upward to an emitter plane at the top of the
domain.  Each ray is parameterized by altitude, so a sample at altitude eps
sits at arc length (eps - z_station) / sin(elevation) along the ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def make_grid(nx: int, ny: int, nz: int, bounds) -> Grid3:
    """Build a grid from node counts and (x_min, x_max, y_min, y_max, z_min, z_max)."""
    counts = (nx, ny, nz)
    if any(int(n) != n or n < 2 for n in counts):
        raise ValueError(f"node counts must be integers >= 2, got {counts}")
    b = [float(v) for v in bounds]
    if len(b) != 6:
        raise ValueError(f"bounds needs 6 values, got {len(b)}")
    if not all(math.isfinite(v) for v in b):
        raise ValueError("bounds must be finite")
    for lo, hi, name in ((b[0], b[1], "x"), (b[2], b[3], "y"), (b[4], b[5], "z")):
        if not hi > lo:
            raise ValueError(f"{name} bounds must satisfy max > min, got [{lo}, {hi}]")
    return Grid3(int(nx), int(ny), int(nz), *b)


@dataclass(frozen=True)
class Station:
    """Ground receiver.  Position sits on the surface, z = height(x, y)."""

    position: tuple[float, float, float]


@dataclass(frozen=True)
class Emitter:
    """Transmitter on the top plane z = z_max (possibly laterally outside the box)."""

    position: tuple[float, float, float]


@dataclass(frozen=True)
class Ray:
    """Directed line of sight from a station toward an emitter.

    direction is the unit vector, elevation = arcsin(direction_z) in (0, pi/2],
    azimuth = atan2(dir_y, dir_x) folded into [0, 2*pi).
    """

    origin: tuple[float, float, float]
    direction: tuple[float, float, float]
    elevation: float
    azimuth: float
    station_index: int = 0
    emitter_index: int = 0


@dataclass(frozen=True)
class Network:
    """Stations, emitters and the admissible rays connecting them."""

    grid: Grid3
    stations: tuple[Station, ...]
    emitters: tuple[Emitter, ...]
    rays: tuple[Ray, ...]
    seed: int
    surface_lipschitz: float = 0.0


def ray_from_pair(
    station: Station, emitter: Emitter, station_index: int = 0, emitter_index: int = 0
) -> Ray:
    """Unit direction and angles for the station -> emitter line of sight.

    Raises ValueError when the two positions coincide or the emitter does not
    sit strictly above the station (such rays never reach the top plane).
    """
    s = np.asarray(station.position, dtype=float)
    e = np.asarray(emitter.position, dtype=float)
    diff = e - s
    length = float(np.linalg.norm(diff))
    if length == 0.0:
        raise ValueError("station and emitter coincide, ray direction undefined")
    direction = diff / length
    if direction[2] <= 0.0:
        raise ValueError(
            f"emitter must lie above the station, got direction_z = {direction[2]!r}"
        )
    elevation = math.asin(min(1.0, float(direction[2])))
    azimuth = math.atan2(float(direction[1]), float(direction[0])) % (2.0 * math.pi)
    return Ray(
        origin=tuple(s),
        direction=tuple(direction),
        elevation=elevation,
        azimuth=azimuth,
        station_index=station_index,
        emitter_index=emitter_index,
    )


def _segment_intersects_box(origin, direction, t_max: float, grid: Grid3) -> bool:
    """Clip the segment origin + t*direction, t in [0, t_max], against the box."""
    t_lo, t_hi = 0.0, t_max
    bounds = (
        (grid.x_min, grid.x_max),
        (grid.y_min, grid.y_max),
        (grid.z_min, grid.z_max),
    )
    for a in range(3):
        lo, hi = bounds[a]
        o, d = origin[a], direction[a]
        if abs(d) < 1e-300:
            if o < lo or o > hi:
                return False
            continue
        t1, t2 = (lo - o) / d, (hi - o) / d
        if t1 > t2:
            t1, t2 = t2, t1
        t_lo = max(t_lo, t1)
        t_hi = min(t_hi, t2)
        if t_lo > t_hi:
            return False
    return True


def is_admissible(ray: Ray, grid: Grid3, surface_lipschitz: float = 0.0) -> bool:
    """Admissibility of a ray for the measurement set.

    Requires elevation >= |arctan(L)| for surface Lipschitz constant L, a
    strictly upward direction (a ray parallel to the surface has no finite
    altitude parameterization), and a nonempty intersection with the domain
    box over the segment from the station up to the top plane.
    """
    if not ray.elevation >= abs(math.atan(surface_lipschitz)):
        return False
    if not 0.0 < ray.elevation < math.pi:
        return False
    sin_e = math.sin(ray.elevation)
    z0 = ray.origin[2]
    if grid.z_max <= z0:
        return False
    t_top = (grid.z_max - z0) / sin_e
    return _segment_intersects_box(ray.origin, ray.direction, t_top, grid)


def sample_rays(rays, grid: Grid3, n_samples: int):
    """Equispaced-in-altitude sample points along every ray at once.

    Returns (points, increments): points has shape (len(rays), n_samples, 3),
    each row running from its station altitude up to z_max; increments[r] is
    the arc length between consecutive samples of ray r, d_eps / sin(elevation).
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples per ray, got {n_samples}")
    sin_e = np.array([math.sin(ray.elevation) for ray in rays], dtype=float)
    if (sin_e <= 0.0).any():
        raise ValueError("horizontal ray has no altitude parameterization")
    origins = np.array([ray.origin for ray in rays], dtype=float).reshape(-1, 3)
    z0 = origins[:, 2]
    above = np.flatnonzero(grid.z_max <= z0)
    if above.size:
        raise ValueError(
            f"station altitude {float(z0[above[0]])!r} is not below the top plane {grid.z_max!r}"
        )
    # the scalar ladder's operations in its order, so each ray samples bit for
    # bit as it would alone
    t = np.linspace(z0, grid.z_max, n_samples, axis=1)
    t -= z0[:, None]
    t /= sin_e[:, None]
    directions = np.array([ray.direction for ray in rays], dtype=float).reshape(-1, 3)
    points = t[:, :, None] * directions[:, None, :]
    del t
    points += origins[:, None, :]
    increments = (grid.z_max - z0) / (n_samples - 1) / sin_e
    return points, increments


def build_network(
    grid: Grid3,
    stations,
    emitters,
    seed: int = 0,
    surface_lipschitz: float = 0.0,
) -> Network:
    """Enumerate station-major, emitter-minor pairs and keep the admissible rays."""
    rays = []
    for si, station in enumerate(stations):
        for ei, emitter in enumerate(emitters):
            try:
                ray = ray_from_pair(station, emitter, si, ei)
            except ValueError:
                continue
            if is_admissible(ray, grid, surface_lipschitz):
                rays.append(ray)
    return Network(
        grid=grid,
        stations=tuple(stations),
        emitters=tuple(emitters),
        rays=tuple(rays),
        seed=seed,
        surface_lipschitz=surface_lipschitz,
    )


_LATERAL_EXTENSION = 1.5


def place_network(
    grid: Grid3,
    n_stations: int,
    n_emitters: int,
    seed: int,
    height_map: np.ndarray | None = None,
) -> Network:
    """Randomly place stations on the surface and emitters on the top plane.

    Stations are uniform over the lateral bounds with z = surface height
    (flat zero by default, or bilinear in an optional (ny, nx) node height
    map).  Emitters sit at z = z_max, uniform over the lateral bounds widened
    _LATERAL_EXTENSION = 1.5 times about their midpoint, so slant paths can
    enter from outside the box.  Same seed, same network.
    """
    if n_stations < 1 or n_emitters < 1:
        raise ValueError("need at least one station and one emitter")
    rng = np.random.default_rng(seed)

    lipschitz = 0.0
    if height_map is not None:
        height_map = np.asarray(height_map, dtype=float)
        if height_map.shape != (grid.ny, grid.nx):
            raise ValueError(
                f"height map shape {height_map.shape} does not match grid ({grid.ny}, {grid.nx})"
            )
        slopes_x = np.abs(np.diff(height_map, axis=1)) / grid.dx
        slopes_y = np.abs(np.diff(height_map, axis=0)) / grid.dy
        lipschitz = float(max(slopes_x.max(initial=0.0), slopes_y.max(initial=0.0)))

    stations = []
    for _ in range(n_stations):
        x = rng.uniform(grid.x_min, grid.x_max)
        y = rng.uniform(grid.y_min, grid.y_max)
        z = 0.0 if height_map is None else _bilinear(height_map, grid, x, y)
        stations.append(Station(position=(float(x), float(y), float(z))))

    half_x = 0.5 * _LATERAL_EXTENSION * (grid.x_max - grid.x_min)
    half_y = 0.5 * _LATERAL_EXTENSION * (grid.y_max - grid.y_min)
    mid_x = 0.5 * (grid.x_min + grid.x_max)
    mid_y = 0.5 * (grid.y_min + grid.y_max)
    emitters = []
    for _ in range(n_emitters):
        x = rng.uniform(mid_x - half_x, mid_x + half_x)
        y = rng.uniform(mid_y - half_y, mid_y + half_y)
        emitters.append(Emitter(position=(float(x), float(y), float(grid.z_max))))

    return build_network(grid, stations, emitters, seed=seed, surface_lipschitz=lipschitz)


def _bilinear(height_map: np.ndarray, grid: Grid3, x: float, y: float) -> float:
    tx = (x - grid.x_min) / grid.dx
    ty = (y - grid.y_min) / grid.dy
    i0 = min(max(int(math.floor(tx)), 0), grid.nx - 2)
    j0 = min(max(int(math.floor(ty)), 0), grid.ny - 2)
    fx = min(max(tx - i0, 0.0), 1.0)
    fy = min(max(ty - j0, 0.0), 1.0)
    h00 = height_map[j0, i0]
    h01 = height_map[j0, i0 + 1]
    h10 = height_map[j0 + 1, i0]
    h11 = height_map[j0 + 1, i0 + 1]
    return float(
        (1 - fy) * ((1 - fx) * h00 + fx * h01) + fy * ((1 - fx) * h10 + fx * h11)
    )


def take_rays(network: Network, count: int) -> Network:
    """Keep the first `count` rays in enumeration order (deterministic subselection)."""
    if not 1 <= count <= len(network.rays):
        raise ValueError(
            f"ray count must be in [1, {len(network.rays)}], got {count}"
        )
    return replace(network, rays=network.rays[:count])


def network_listing(network: Network) -> str:
    """One ray per line: station xyz, emitter xyz, elevation, azimuth."""
    lines = []
    for ray in network.rays:
        emitter = network.emitters[ray.emitter_index]
        values = (*ray.origin, *emitter.position, ray.elevation, ray.azimuth)
        lines.append(" ".join(repr(float(v)) for v in values))
    return "\n".join(lines) + ("\n" if lines else "")
