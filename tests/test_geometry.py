"""Grid, ray and network geometry."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

import helpers
from atmtomo import (
    Field,
    build_network,
    make_grid,
    network_listing,
    place_network,
    sample_rays,
    take_rays,
)


def paper_box(nx=30, ny=30, nz=30):
    return make_grid(nx, ny, nz, (0.0, 1.0, 0.0, 1.0, 0.0, 15.0))


def test_grid_spacings_and_counts():
    g = paper_box()
    assert g.dx == g.dy == pytest.approx(1.0 / 29)
    assert g.dz == pytest.approx(15.0 / 29)
    assert g.n_nodes == 27000
    assert g.cell_volume == pytest.approx(g.dx * g.dy * g.dz)
    g6 = paper_box(6, 6, 6)
    assert g6.n_nodes == 216
    assert g6.dz == pytest.approx(3.0)
    unit = make_grid(2, 2, 2, (0, 1, 0, 1, 0, 1))
    assert unit.dx == unit.dy == unit.dz == 1.0
    assert unit.n_nodes == 8


def test_grid_indexing_is_x_fastest():
    # the tests' scalar index helpers agree with the library's (z, y, x) view
    g = make_grid(3, 4, 5, (0, 1, 0, 2, 0, 3))
    numbered = Field(grid=g, values=np.arange(g.n_nodes, dtype=float)).as_3d()
    xs, ys, zs = (g.axis_nodes(axis) for axis in "xyz")
    for k in range(5):
        for j in range(4):
            for i in range(3):
                assert numbered[k, j, i] == helpers.linear_index(g, i, j, k)
                np.testing.assert_allclose(
                    helpers.node_position(g, i, j, k), [xs[i], ys[j], zs[k]], atol=1e-15
                )
    np.testing.assert_allclose(ys, np.linspace(0, 2, 4))


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(1, 3, 3, (0, 1, 0, 1, 0, 1))
    for count in (math.nan, math.inf, 2.5):
        with pytest.raises(ValueError, match="node counts must be integers >= 2"):
            make_grid(count, 3, 3, (0, 1, 0, 1, 0, 1))
    assert make_grid(3.0, 3, 3, (0, 1, 0, 1, 0, 1)) == make_grid(3, 3, 3, (0, 1, 0, 1, 0, 1))
    with pytest.raises(ValueError):
        make_grid(3, 3, 3, (0, 1, 1, 0, 0, 1))
    with pytest.raises(ValueError):
        make_grid(3, 3, 3, (0, 1, 0, 1, 0))
    with pytest.raises(ValueError):
        make_grid(3, 3, 3, (0, 1, 0, 1, 0, math.inf))


def _one_pair(grid, station, emitter):
    return build_network(grid, [station], [emitter])


def _one_ray(grid, station, emitter):
    rays = _one_pair(grid, station, emitter).rays
    assert len(rays) == 1
    return rays


def test_ray_from_pair_vertical():
    rays = _one_ray(paper_box(), (0.5, 0.5, 0.0), (0.5, 0.5, 15.0))
    np.testing.assert_allclose(rays.directions[0], (0, 0, 1))
    assert rays.elevations[0] == pytest.approx(math.pi / 2)


def test_ray_from_pair_oblique():
    # station at origin, emitter at (1, 0, 15): direction z-component 15/sqrt(226)
    net = _one_pair(paper_box(), (0.0, 0.0, 0.0), (1.0, 0.0, 15.0))
    direction = net.rays.directions[0]
    assert direction[2] == pytest.approx(15.0 / math.sqrt(226.0))
    azimuth = float(network_listing(net).split()[7])
    assert azimuth == pytest.approx(0.0)
    assert np.linalg.norm(direction) == pytest.approx(1.0)
    assert net.rays.elevations[0] == pytest.approx(math.asin(15.0 / math.sqrt(226.0)))


def test_admissibility_rules():
    g = paper_box()
    assert len(_one_pair(g, (0.5, 0.5, 0.0), (0.5, 0.5, 15.0)).rays) == 1
    # a shallow slant path at elevation pi/6 still meets the box
    shallow = (0.5, 0.5, 0.0), (0.5 + 15.0 / math.tan(math.pi / 6), 0.5, 15.0)
    assert _one_ray(g, *shallow).elevations[0] == pytest.approx(math.pi / 6)
    # a ray whose whole segment stays laterally outside the box
    assert len(_one_pair(g, (5.0, 5.0, 0.0), (5.0, 5.0, 15.0)).rays) == 0


def test_sample_ray_vertical_ladder():
    g = make_grid(4, 4, 16, (0, 1, 0, 1, 0, 15))
    rays = _one_ray(g, (0.25, 0.5, 0.0), (0.25, 0.5, 15.0))
    points, increments = sample_rays(rays, g, 16)
    assert points.shape == (3, 1, 16)
    assert increments.tolist() == pytest.approx([1.0])
    np.testing.assert_allclose(points[0, 0], 0.25)
    np.testing.assert_allclose(points[1, 0], 0.5)
    np.testing.assert_allclose(points[2, 0], np.arange(16.0))


def test_sample_ray_oblique_increment_and_endpoints():
    g = paper_box()
    # elevation pi/6 doubles the arc increment per unit altitude
    rays = _one_ray(g, (0.1, 0.2, 0.0), (0.1 + 15.0 / math.tan(math.pi / 6), 0.2, 15.0))
    points, increments = sample_rays(rays, g, 31)
    points, increment = points[:, 0].T, float(increments[0])
    assert increment == pytest.approx(2.0 * 0.5)
    assert points[0, 2] == pytest.approx(0.0)
    assert points[-1, 2] == pytest.approx(15.0)
    assert np.all(np.diff(points[:, 2]) > 0)
    # total arc length equals the euclidean distance between the end samples
    total = increment * 30
    assert total == pytest.approx((15.0 - 0.0) / math.sin(rays.elevations[0]), rel=1e-12)
    assert total == pytest.approx(np.linalg.norm(points[-1] - points[0]), rel=1e-10)


def test_sample_ray_two_points_are_the_endpoints():
    g = paper_box()
    rays = _one_ray(g, (0.3, 0.4, 0.0), (0.8, 0.9, 15.0))
    points, _ = sample_rays(rays, g, 2)
    np.testing.assert_allclose(points[:, 0, 0], (0.3, 0.4, 0.0))
    np.testing.assert_allclose(points[:, 0, -1], (0.8, 0.9, 15.0), rtol=1e-12)
    with pytest.raises(ValueError):
        sample_rays(rays, g, 1)


def _shifted_raised_rays():
    # stations off the ground plane on a box away from the origin
    grid = make_grid(20, 15, 30, (-2.0, 3.0, 1.0, 2.5, 0.5, 15.0))
    return grid, build_network(grid, *helpers.raised_positions(grid, 20, 40, seed=3)).rays


SAMPLE_CASES = {
    "dense-60x100": lambda: (
        g := make_grid(60, 60, 30, (0, 1, 0, 1, 0, 15)),
        place_network(g, 60, 100, seed=7).rays,
    ),
    "shifted-raised-stations": _shifted_raised_rays,
}


@pytest.mark.parametrize("case", SAMPLE_CASES)
def test_sample_rays_is_bitwise_the_object_path(case):
    grid, rays = SAMPLE_CASES[case]()
    assert len(rays) > 100
    points, increments = sample_rays(rays, grid, 60)
    want_points, want_increments = helpers.sample_ray_objects(helpers.ray_objects(rays), grid, 60)
    assert np.array_equal(points, np.moveaxis(want_points, 2, 0))
    assert np.array_equal(increments, want_increments)


def _pairs(rays):
    return list(zip(rays.station_indices.tolist(), rays.emitter_indices.tolist()))


def test_build_network_order_and_filter():
    g = paper_box()
    stations = [(0.2, 0.2, 0.0), (1.5, 0.5, 0.0)]
    emitters = [(0.2, 0.2, 15.0), (2.5, 0.5, 15.0)]
    net = build_network(g, stations, emitters)
    pairs = _pairs(net.rays)
    assert pairs == sorted(pairs)
    rays = helpers.ray_objects(net.rays)
    assert all(helpers.is_admissible_scalar(r, g) for r in rays)
    # the outside station only reaches the box toward the inside emitter;
    # its slant path to the outside emitter never enters the domain
    assert set(pairs) == {(0, 0), (0, 1), (1, 0)}


@pytest.mark.parametrize("positions", [[], [0.5, 0.5, 0.0], [(0.5, 0.5)], np.zeros((1, 3, 1))])
def test_build_network_rejects_positions_that_are_not_n_by_3(positions):
    good = [(0.5, 0.5, 0.0)]
    with pytest.raises(ValueError, match=r"stations must be \(N, 3\) positions, got shape"):
        build_network(paper_box(), positions, good)
    with pytest.raises(ValueError, match=r"emitters must be \(N, 3\) positions, got shape"):
        build_network(paper_box(), good, positions)


def _placed(grid, n_stations, n_emitters, seed=7):
    net = place_network(grid, n_stations, n_emitters, seed)
    return grid, net.stations, net.emitters


def _raised_network():
    # stations off the ground plane on a box away from the origin
    grid = make_grid(8, 8, 6, (-2.0, 3.0, 1.0, 2.5, 0.5, 15.0))
    return grid, *helpers.raised_positions(grid, 20, 40, seed=5)


def _hand_made_pairs():
    # vertical rays inside and outside the box, stations outside the box whose
    # slant paths enter it, a station at z_max (coincident with one emitter,
    # level with two, below one) and a station above an emitter
    stations = [(0.5, 0.5, 0.0), (-0.3, 0.5, 0.0), (5.0, 5.0, 0.0)]
    stations += [(0.5, 0.5, 15.0), (0.2, 0.3, 10.0)]
    emitters = [(0.5, 0.5, 15.0), (1.3, 0.5, 15.0), (5.0, 5.0, 15.0)]
    emitters += [(0.5, 0.5, 20.0), (0.9, 0.9, 5.0)]
    return paper_box(), stations, emitters


BITWISE_CASES = {
    "default-15x30": lambda: _placed(paper_box(), 15, 30),
    "dense-60x100": lambda: _placed(make_grid(60, 60, 30, (0, 1, 0, 1, 0, 15)), 60, 100),
    "raised-stations": _raised_network,
    "no-stations": lambda: (paper_box(), np.empty((0, 3)), [(0.5, 0.5, 15.0)]),
    "no-emitters": lambda: (paper_box(), [(0.5, 0.5, 0.0)], np.empty((0, 3))),
    "hand-made": _hand_made_pairs,
}


@pytest.mark.parametrize("case", BITWISE_CASES)
def test_build_network_is_bitwise_per_pair(case):
    grid, stations, emitters = BITWISE_CASES[case]()
    got = build_network(grid, stations, emitters)
    want = helpers.build_network_per_pair(grid, stations, emitters)
    listing = helpers.listing_per_ray(np.asarray(emitters).tolist(), want)
    assert network_listing(got).encode() == listing.encode()
    pairs = _pairs(got.rays)
    assert pairs == [(r.station_index, r.emitter_index) for r in want]
    for ray, expected in zip(helpers.ray_objects(got.rays), want, strict=True):
        for name in ("origin", "direction", "elevation", "azimuth"):
            assert getattr(ray, name) == getattr(expected, name)
    assert helpers.ray_objects(got.rays) == want
    assert got.grid == grid
    assert np.array_equal(got.stations, np.reshape(stations, (-1, 3)))
    assert np.array_equal(got.emitters, np.reshape(emitters, (-1, 3)))
    if case == "hand-made":
        # kept: vertical inside, outside stations whose slant paths enter the box
        assert {(0, 0), (1, 1), (2, 0)} <= set(pairs)
        # dropped: vertical outside, a slant path that misses the box, every
        # pair of the station at z_max, an emitter below its station
        assert not {(2, 2), (2, 1), (3, 0), (3, 1), (3, 3), (3, 4), (4, 4)} & set(pairs)


def test_place_network_draws_match_the_per_station_loop(monkeypatch):
    grid = make_grid(8, 6, 5, (-2.0, 3.0, 1.0, 1.7, 0.0, 12.0))
    default_rng = np.random.default_rng
    generators = []

    def recording_rng(seed):
        generators.append(default_rng(seed))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    for seed in range(50):
        net = place_network(grid, 7, 11, seed)
        rng = generators[-1]
        stations, emitters, next_draw = helpers.place_positions_per_station(grid, 7, 11, seed)
        assert [tuple(s) for s in net.stations.tolist()] == stations
        assert [tuple(e) for e in net.emitters.tolist()] == emitters
        assert rng.random() == next_draw


def _same_rays(a, b):
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def _same_network(a, b):
    return (
        a.grid == b.grid
        and np.array_equal(a.stations, b.stations)
        and np.array_equal(a.emitters, b.emitters)
        and _same_rays(a.rays, b.rays)
    )


def test_place_network_is_deterministic():
    g = paper_box()
    a = place_network(g, 15, 30, seed=7)
    b = place_network(g, 15, 30, seed=7)
    assert _same_network(a, b)
    assert _same_network(place_network(g, 15.0, 30.0, seed=7), a)
    assert helpers.ray_objects(a.rays) == helpers.ray_objects(b.rays)
    assert len(a.rays) <= 450
    assert a.stations.shape == (15, 3) and a.emitters.shape == (30, 3)
    assert np.all(a.stations[:, 2] == 0.0)
    assert np.all(a.emitters[:, 2] == 15.0)
    c = place_network(g, 15, 30, seed=8)
    assert not _same_network(c, a)
    assert not _same_rays(c.rays, a.rays)
    # one differing bit in one array is a different network
    bumped = a.rays.elevations.copy()
    bumped[-1] = np.nextafter(bumped[-1], 0.0)
    assert not _same_rays(replace(a.rays, elevations=bumped), a.rays)
    assert not _same_network(replace(a, rays=replace(a.rays, elevations=bumped)), a)


@pytest.mark.parametrize("count", [0, -1, 2.5, math.nan, math.inf])
def test_place_network_rejects_a_bad_count(count):
    for counts in ((count, 3), (3, count)):
        with pytest.raises(ValueError, match="station and emitter counts must be integers >= 1"):
            place_network(paper_box(), *counts, seed=0)


def test_place_network_emitters_on_extended_plane():
    g = paper_box()
    net = place_network(g, 5, 200, seed=3)
    ex = net.emitters[:, 0]
    # extension 1.5 about the midpoint widens [0,1] to [-0.25, 1.25]
    assert ex.min() >= -0.25 and ex.max() <= 1.25
    assert ex.min() < 0.0 and ex.max() > 1.0


def test_take_rays_prefix():
    g = paper_box()
    net = place_network(g, 6, 10, seed=4)
    sub = take_rays(net, 10)
    assert _same_rays(sub.rays, net.rays[:10])
    assert len(sub.rays) == 10
    assert helpers.ray_objects(sub.rays) == helpers.ray_objects(net.rays)[:10]
    # a prefix is a view of the network's arrays, not a copy
    assert np.shares_memory(sub.rays.origins, net.rays.origins)
    assert sub.grid == net.grid
    assert sub.stations is net.stations and sub.emitters is net.emitters
    # a ray is read from the arrays: an index or iteration is refused
    with pytest.raises(TypeError, match="Rays take slices only"):
        sub.rays[0]
    with pytest.raises(TypeError, match="Rays take slices only"):
        list(sub.rays)
    with pytest.raises(ValueError):
        take_rays(net, 0)
    with pytest.raises(ValueError):
        take_rays(net, len(net.rays) + 1)
    assert _same_rays(take_rays(net, 10.0).rays, sub.rays)


@pytest.mark.parametrize("count", [2.5, 0.5, math.nan, math.inf])
def test_take_rays_rejects_a_non_integral_count(count):
    net = place_network(paper_box(), 6, 10, seed=4)
    with pytest.raises(ValueError, match=rf"ray count must be an integer in \[1, \d+\], got {count!r}"):
        take_rays(net, count)


def test_network_listing_roundtrip_fields():
    g = paper_box()
    net = place_network(g, 3, 4, seed=1)
    text = network_listing(net)
    lines = text.strip().split("\n")
    assert len(lines) == len(net.rays)
    first = [float(tok) for tok in lines[0].split()]
    assert len(first) == 8
    assert first[0:3] == net.rays.origins[0].tolist()
    assert first[3:6] == net.emitters[net.rays.emitter_indices[0]].tolist()
    assert first[6] == net.rays.elevations[0]
