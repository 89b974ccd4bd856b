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


@dataclass(frozen=True, eq=False)
class Rays:
    """Rays as arrays, one row per ray: what Network.rays holds.

    origins and directions are (R, 3), elevations and the station and emitter
    indices (R,).  len() and slicing give views; an index or iteration gives
    the one-ray view Ray.  == compares the arrays exactly.
    """

    origins: np.ndarray
    directions: np.ndarray
    elevations: np.ndarray
    station_indices: np.ndarray
    emitter_indices: np.ndarray

    def _arrays(self):
        return (
            self.origins,
            self.directions,
            self.elevations,
            self.station_indices,
            self.emitter_indices,
        )

    def __len__(self) -> int:
        return len(self.elevations)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Rays(*(a[key] for a in self._arrays()))
        row = range(len(self))[key]
        return next(iter(self[row : row + 1]))

    def __iter__(self):
        # azimuth from math per ray: numpy's vectorized arctan2 can differ in the last bit
        origins, directions, *rest = (a.tolist() for a in self._arrays())
        for origin, (x, y, z), elevation, si, ei in zip(origins, directions, *rest):
            azimuth = math.atan2(y, x) % (2.0 * math.pi)
            yield Ray(tuple(origin), (x, y, z), elevation, azimuth, si, ei)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rays):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self._arrays(), other._arrays()))


@dataclass(frozen=True)
class Network:
    """Stations, emitters and the admissible rays connecting them."""

    grid: Grid3
    stations: tuple[Station, ...]
    emitters: tuple[Emitter, ...]
    rays: Rays
    seed: int
    surface_lipschitz: float = 0.0


def _unit_directions(diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and unit directions of (P, 3) differences, zero where a length is 0.

    A length is the BLAS dot that np.linalg.norm takes on one 3-vector, stacked
    by matmul, so it equals the one-pair norm bit for bit; a row-wise norm or
    (diff * diff).sum(1) can differ in the last bit.
    """
    length = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
    nonzero = length[:, None] != 0.0
    return length, np.divide(diff, length[:, None], out=np.zeros_like(diff), where=nonzero)


# angles from math per ray: numpy's vectorized arcsin and arctan2 can differ in the last bit
def _elevations(direction_z: np.ndarray) -> np.ndarray:
    return np.array([math.asin(min(1.0, z)) for z in direction_z.tolist()], dtype=float)


def ray_from_pair(
    station: Station, emitter: Emitter, station_index: int = 0, emitter_index: int = 0
) -> Ray:
    """Unit direction and angles for the station -> emitter line of sight.

    Raises ValueError when the two positions coincide or the emitter does not
    sit strictly above the station (such rays never reach the top plane).
    """
    origin = np.array([station.position], dtype=float)
    length, direction = _unit_directions(np.array([emitter.position], dtype=float) - origin)
    if length[0] == 0.0:
        raise ValueError("station and emitter coincide, ray direction undefined")
    if direction[0, 2] <= 0.0:
        raise ValueError(
            f"emitter must lie above the station, got direction_z = {direction[0, 2]!r}"
        )
    indices = (np.array([station_index]), np.array([emitter_index]))
    return Rays(origin, direction, _elevations(direction[:, 2]), *indices)[0]


def _admissible(origins, directions, elevations, grid: Grid3, surface_lipschitz):
    """Admissibility mask of rays given as (P, 3) origins and directions.

    Each segment from its origin up to the top plane is clipped against the box
    slab by slab; along an axis the ray runs parallel to (|d| < 1e-300) the
    origin must lie within that axis's bounds.
    """
    z0 = origins[:, 2]
    keep = (elevations >= abs(math.atan(surface_lipschitz))) & (z0 < grid.z_max)
    keep &= (0.0 < elevations) & (elevations < math.pi)
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


def is_admissible(ray: Ray, grid: Grid3, surface_lipschitz: float = 0.0) -> bool:
    """Admissibility of a ray for the measurement set.

    Requires elevation >= |arctan(L)| for surface Lipschitz constant L, a
    strictly upward direction (a ray parallel to the surface has no finite
    altitude parameterization), and a nonempty intersection with the domain
    box over the segment from the station up to the top plane.
    """
    fields = (np.array([v], dtype=float) for v in (ray.origin, ray.direction, ray.elevation))
    return bool(_admissible(*fields, grid, surface_lipschitz)[0])


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
    # bit as it would alone
    t = np.linspace(z0, grid.z_max, n_samples, axis=1)
    t -= z0[:, None]
    t /= sin_e[:, None]
    # planar C order: numpy would lay a broadcast product out like directions
    points = np.multiply(t, rays.directions.T[:, :, None], out=np.empty((3,) + t.shape))
    del t
    points += rays.origins.T[:, :, None]
    increments = (grid.z_max - z0) / (n_samples - 1) / sin_e
    return points, increments


def build_network(
    grid: Grid3, stations, emitters, seed: int = 0, surface_lipschitz: float = 0.0
) -> Network:
    """Enumerate station-major, emitter-minor pairs and keep the admissible rays.

    One array pass covers all pairs, and the admissible ones stay arrays.
    """
    stations, emitters = tuple(stations), tuple(emitters)
    starts = np.array([s.position for s in stations], dtype=float).reshape(-1, 3)
    ends = np.array([e.position for e in emitters], dtype=float).reshape(-1, 3)
    _, directions = _unit_directions((ends[None] - starts[:, None]).reshape(-1, 3))
    pairs = np.flatnonzero(directions[:, 2] > 0.0)
    station_of, emitter_of = np.divmod(pairs, len(ends))
    directions = directions[pairs]
    elevations = _elevations(directions[:, 2])
    keep = _admissible(starts[station_of], directions, elevations, grid, surface_lipschitz)
    station_of, emitter_of = station_of[keep], emitter_of[keep]
    rays = Rays(starts[station_of], directions[keep], elevations[keep], station_of, emitter_of)
    return Network(grid, stations, emitters, rays, seed, surface_lipschitz)


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

    lo = np.array([grid.x_min, grid.y_min])
    hi = np.array([grid.x_max, grid.y_max])
    stations = [
        Station((x, y, 0.0 if height_map is None else _bilinear(height_map, grid, x, y)))
        for x, y in rng.uniform(lo, hi, size=(n_stations, 2)).tolist()
    ]
    half, mid = 0.5 * _LATERAL_EXTENSION * (hi - lo), 0.5 * (lo + hi)
    emitters = [
        Emitter((x, y, float(grid.z_max)))
        for x, y in rng.uniform(mid - half, mid + half, size=(n_emitters, 2)).tolist()
    ]

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
    if not 1 <= count <= len(network.rays) or count != int(count):
        raise ValueError(
            f"ray count must be an integer in [1, {len(network.rays)}], got {count}"
        )
    return replace(network, rays=network.rays[: int(count)])


def network_listing(network: Network) -> str:
    """One ray per line: station xyz, emitter xyz, elevation, azimuth."""
    lines = []
    for ray in network.rays:
        emitter = network.emitters[ray.emitter_index]
        values = (*ray.origin, *emitter.position, ray.elevation, ray.azimuth)
        lines.append(" ".join(repr(float(v)) for v in values))
    return "\n".join(lines) + ("\n" if lines else "")
