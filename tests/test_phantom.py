"""Synthetic field, noise model and field file i/o."""

import math

import numpy as np
import pytest

import helpers
from atmtomo import (
    Field,
    PhantomParams,
    add_noise,
    horizontal_profile,
    make_grid,
    read_field,
    true_profile,
    vertical_profile,
    write_field,
)

BOUNDS = (0.0, 1.0, 0.0, 1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        PhantomParams(scale_height_1=0.0)
    with pytest.raises(ValueError):
        PhantomParams(scale_height_2=-1.0)
    # amplitudes 40 + 20 push the band beyond [200, 400] on the high side
    with pytest.raises(ValueError):
        PhantomParams(amplitude_sin=40.0)
    PhantomParams(amplitude_sin=25.0, amplitude_cos=25.0)  # base 350 +- 50 is fine


def test_vertical_profile_values():
    p = PhantomParams()
    assert vertical_profile(0.0, p) == pytest.approx(350.0)
    assert vertical_profile(7.0, p) == pytest.approx(175.0 * (math.exp(-7) + math.exp(-1)))
    hs = np.linspace(0.0, 15.0, 40)
    vals = vertical_profile(hs, p)
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] > 0


def test_horizontal_profile_values():
    p = PhantomParams()
    assert horizontal_profile(0.0, 0.0, p, BOUNDS) == pytest.approx(370.0)
    # integer cycle counts make the sine vanish at the far x face
    assert horizontal_profile(1.0, 0.0, p, BOUNDS) == pytest.approx(350.0 + 30.0 + 20.0)
    assert horizontal_profile(0.5, 0.5, p, BOUNDS) == pytest.approx(410.0)
    with pytest.raises(ValueError):
        horizontal_profile(0.0, 0.0, p, (0, 0, 0, 1))


def test_horizontal_bracket_band():
    p = PhantomParams()
    xs = np.linspace(0, 1, 101)
    vals = horizontal_profile(xs[None, :], xs[:, None], p, BOUNDS)
    amps = 30.0 + 20.0 + 30.0 + 50.0
    assert vals.min() >= 350.0 - amps
    assert vals.max() <= 350.0 + amps


def test_true_profile_values_and_separability():
    g = make_grid(30, 30, 30, (0, 1, 0, 1, 0, 15))
    f = true_profile(g)
    assert f.values[helpers.linear_index(g, 0, 0, 0)] == pytest.approx(129500.0)
    assert f.values.min() > 0
    a3 = f.as_3d()
    assert np.all(a3[-1] <= a3[0])  # top layer below ground layer, column by column
    # product structure: prefactor * horizontal * vertical shape at unit base
    p = PhantomParams()
    rng = np.random.default_rng(0)
    for _ in range(100):
        i = int(rng.integers(30))
        j = int(rng.integers(30))
        k = int(rng.integers(30))
        x, y, z = helpers.node_position(g, i, j, k)
        decay = math.exp(-z / p.scale_height_1) + math.exp(-z / p.scale_height_2)
        expected = 0.5 * p.base * horizontal_profile(x, y, p, BOUNDS) * decay
        got = f.values[helpers.linear_index(g, i, j, k)]
        assert got == pytest.approx(expected, rel=1e-12)


def test_true_profile_normalized():
    g = make_grid(6, 6, 6, (0, 1, 0, 1, 0, 15))
    f = true_profile(g, normalized=True)
    assert f.values.min() == pytest.approx(0.0)
    assert f.values.max() == pytest.approx(1.0)


def test_field_layout_and_validation():
    g = make_grid(3, 4, 5, (0, 1, 0, 2, 0, 3))
    vals = np.arange(g.n_nodes, dtype=float)
    f = Field(grid=g, values=vals)
    assert f.as_3d().shape == (5, 4, 3)
    assert f.as_3d()[2, 3, 1] == vals[helpers.linear_index(g, 1, 3, 2)]
    with pytest.raises(ValueError):
        Field(grid=g, values=vals[:-1])
    with pytest.raises(ValueError):
        Field(grid=g, values=np.full(g.n_nodes, np.nan))


def test_add_noise_scaling_and_determinism():
    rng = np.random.default_rng(3)
    f = rng.uniform(1.0, 2.0, 400)
    noisy, delta = add_noise(f, 0.02, seed=11)
    assert delta == pytest.approx(0.02 * np.linalg.norm(f) / math.sqrt(400))
    again, delta2 = add_noise(f, 0.02, seed=11)
    np.testing.assert_array_equal(noisy, again)
    assert delta == delta2
    other, _ = add_noise(f, 0.02, seed=12)
    assert not np.array_equal(noisy, other)
    rel = np.linalg.norm(noisy - f) / np.linalg.norm(f)
    assert 0.014 <= rel <= 0.026  # one draw stays within 30% of the target level


def test_add_noise_zero_fraction():
    f = np.linspace(1, 5, 30)
    noisy, delta = add_noise(f, 0.0, seed=0)
    np.testing.assert_array_equal(noisy, f)
    assert delta == 0.0
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise fraction must be >= 0"):
            add_noise(f, bad, seed=0)
    with pytest.raises(ValueError):
        add_noise(np.zeros((3, 3)), 0.1, seed=0)


def test_add_noise_energy_statistics():
    f = np.linspace(1.0, 2.0, 100)
    delta_sq_m = None
    energies = []
    for seed in range(200):
        noisy, delta = add_noise(f, 0.05, seed=seed)
        delta_sq_m = delta * delta * f.size
        energies.append(float(np.sum((noisy - f) ** 2)))
    assert np.mean(energies) == pytest.approx(delta_sq_m, rel=0.10)


def test_field_file_roundtrip(tmp_path):
    g = make_grid(4, 3, 5, (0, 1, -1, 2, 0, 15))
    f = Field(grid=g, values=np.random.default_rng(5).standard_normal(g.n_nodes))
    path = tmp_path / "field.fld"
    write_field(f, path)
    back = read_field(path)
    assert back.grid == g
    np.testing.assert_array_equal(back.values, f.values)


def test_field_file_errors(tmp_path):
    with pytest.raises(OSError):
        read_field(tmp_path / "missing.fld")
    bad = tmp_path / "bad.fld"
    bad.write_bytes(b"NOPE 2 2 2 0 1 0 1 0 1\n" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_field(bad)
    g = make_grid(2, 2, 2, (0, 1, 0, 1, 0, 1))
    f = Field(grid=g, values=np.ones(8))
    short = tmp_path / "short.fld"
    write_field(f, short)
    short.write_bytes(short.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_field(short)
    padded = tmp_path / "padded.fld"
    write_field(f, padded)
    padded.write_bytes(padded.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="bytes follow the field payload"):
        read_field(padded)


def test_field_file_header_cannot_size_an_allocation(tmp_path):
    # a header claiming 100000^3 nodes on a 60-byte file is a truncated file,
    # found before anything of the claimed size is allocated
    huge = tmp_path / "huge.fld"
    header = b"FLD1 100000 100000 100000 0 1 0 1 0 1\n"
    huge.write_bytes(header + b"\x00" * (60 - len(header)))
    assert huge.stat().st_size == 60
    with pytest.raises(ValueError, match="truncated field payload"):
        read_field(huge)
