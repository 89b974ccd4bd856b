"""Smoothed total variation: stencils, value, gradient, diffusion operator."""

import math

import numpy as np
import pytest

import helpers
from atmtomo import Field, make_grid, true_profile, tv_value
from atmtomo.tv import (
    apply_weights,
    diffusion_matrix,
    smoothing_weights,
    tv_value_and_gradient,
)


def random_field(nx, ny, nz, bounds, seed):
    g = make_grid(nx, ny, nz, bounds)
    values = np.random.default_rng(seed).standard_normal(g.n_nodes)
    return Field(grid=g, values=values)


def test_beta_validation():
    f = random_field(3, 3, 3, (0, 1, 0, 1, 0, 1), 0)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            tv_value(f, bad)


def test_difference_blocks_match_dense_kronecker_oracle():
    # anisotropic spacing and a 2-node axis, where both rows are one-sided
    grid = make_grid(2, 3, 5, (0, 1, 0, 2, 0, 3))
    blocks = helpers.difference_blocks(grid)
    for block, dense in zip(blocks, helpers.dense_diff_matrices(grid)):
        assert block.shape == dense.shape
        np.testing.assert_array_equal(block.toarray(), dense)
        assert np.all(np.diff(block.indptr) == 2)


def test_diff_axis_constant_and_linear():
    g = make_grid(5, 4, 3, (0, 1, 0, 2, 0, 3))
    const = Field(grid=g, values=np.full(g.n_nodes, 4.2))
    for axis in "xyz":
        assert np.all(helpers.diff_axis(const, axis).values == 0.0)
    xs = g.axis_nodes("x")
    ramp3 = np.broadcast_to(xs[None, None, :], (3, 4, 5))
    ramp = Field(grid=g, values=ramp3.ravel())
    d = helpers.diff_axis(ramp, "x").as_3d()
    np.testing.assert_allclose(d[:, :, 1:-1], 1.0)
    # replicate padding halves the one-sided face derivative
    np.testing.assert_allclose(d[:, :, 0], 0.5)
    np.testing.assert_allclose(d[:, :, -1], 0.5)
    assert np.all(helpers.diff_axis(ramp, "y").values == 0.0)
    with pytest.raises(ValueError):
        helpers.diff_axis(ramp, "w")


def test_diff_axis_matches_loops():
    f = random_field(3, 3, 3, (0, 1, 0, 2, 0, 3), 8)
    arr = f.as_3d()
    g = f.grid
    got = helpers.diff_axis(f, "y").as_3d()
    for k in range(3):
        for j in range(3):
            for i in range(3):
                want = helpers.stencil_1d(arr[k, :, i], j, g.dy)
                assert got[k, j, i] == pytest.approx(want, rel=1e-15, abs=1e-15)


def test_tv_value_constant_field():
    g = make_grid(30, 30, 30, (0, 1, 0, 1, 0, 15))
    f = Field(grid=g, values=np.full(g.n_nodes, 123.0))
    expected = 27000 * math.sqrt(1e-2) * g.cell_volume
    assert tv_value(f, 1e-2) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.6605846898191806, rel=1e-12)


def test_tv_value_shift_invariance_and_beta_monotonicity():
    f = random_field(4, 4, 4, (0, 1, 0, 1, 0, 15), 3)
    shifted = Field(grid=f.grid, values=f.values + 17.5)
    assert tv_value(shifted, 1e-2) == pytest.approx(tv_value(f, 1e-2), rel=1e-14)
    assert tv_value(f, 2e-2) > tv_value(f, 1e-2) > tv_value(f, 5e-3)


def test_tv_value_matches_triple_loops():
    for seed, dims, bounds in (
        (1, (3, 3, 3), (0, 1, 0, 2, 0, 3)),
        (2, (5, 5, 5), (0, 1, 0, 1, 0, 15)),
    ):
        f = random_field(*dims, bounds, seed)
        assert tv_value(f, 1e-2) == pytest.approx(
            helpers.tv_value_loops(f, 1e-2), rel=1e-12
        )
    g5 = make_grid(5, 5, 5, (0, 1, 0, 1, 0, 15))
    phantom = true_profile(g5)
    assert tv_value(phantom, 1e-2) == pytest.approx(
        helpers.tv_value_loops(phantom, 1e-2), rel=1e-12
    )


def test_tv_gradient_matches_dense_oracle():
    for seed, dims, bounds in (
        (4, (3, 3, 3), (0, 1, 0, 2, 0, 3)),
        (5, (5, 5, 5), (0, 1, 0, 1, 0, 15)),
    ):
        f = random_field(*dims, bounds, seed)
        want = helpers.dense_tv_gradient(f, 1e-2)
        got = helpers.tv_gradient(f, 1e-2)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "dims, bounds",
    [
        ((2, 2, 2), (0, 1, 0, 1, 0, 1)),
        ((5, 4, 6), (0, 1, 0, 2, 0, 12)),
        ((30, 30, 30), (0, 1, 0, 1, 0, 15)),
    ],
)
def test_value_and_gradient_bitwise_per_call_transpose(dims, bounds):
    f = random_field(*dims, bounds, 12)
    value, grad = tv_value_and_gradient(f, 1e-2)
    want_value, want_grad = helpers.tv_value_and_gradient_transposing(f, 1e-2)
    assert value == want_value
    assert np.array_equal(grad, want_grad)


@pytest.mark.parametrize("kind", ["random", "random*1e3", "zeros", "integers"])
@pytest.mark.parametrize(
    "dims, bounds",
    [
        ((2, 2, 2), (0, 1, 0, 1, 0, 1)),
        ((2, 3, 4), (0, 1, 0, 1, 0, 1)),
        ((3, 2, 7), (0, 1, 0, 2, 0, 3)),
        ((5, 4, 6), (0, 1, 0, 2, 0, 12)),
        ((30, 30, 30), (0, 1, 0, 1, 0, 15)),
        ((60, 60, 30), (0, 1, 0, 1, 0, 15)),
    ],
)
def test_shifted_slices_equal_sparse_products(dims, bounds, kind):
    grid = make_grid(*dims, bounds)
    r = np.random.default_rng(grid.n_nodes).standard_normal(grid.n_nodes)
    # rounding to integers gives exactly zero differences, and some -0.0 entries
    values = {
        "random": r,
        "random*1e3": 1e3 * r,
        "zeros": np.zeros(grid.n_nodes),
        "integers": np.round(3.0 * r),
    }[kind]
    f = Field(grid=grid, values=values)
    want_value, want_grad = helpers.tv_value_and_gradient_csr(f, 1e-2)
    value, grad = tv_value_and_gradient(f, 1e-2)
    assert value == want_value
    assert np.array_equal(grad, want_grad)
    assert tv_value(f, 1e-2) == want_value
    weights = smoothing_weights(f, 1e-2)
    assert weights.shape == (grid.nz, grid.ny, grid.nx)
    assert np.array_equal(weights, helpers.smoothing_weights_csr(f, 1e-2))
    # without -0.0 in the field the zeros' signs agree too (the solves start at +0.0)
    if not np.signbit(values[values == 0.0]).any():
        assert grad.tobytes() == want_grad.tobytes()


def test_tv_gradient_constant_field_is_zero():
    g = make_grid(4, 4, 4, (0, 1, 0, 1, 0, 15))
    f = Field(grid=g, values=np.full(g.n_nodes, 9.0))
    assert np.all(helpers.tv_gradient(f, 1e-2) == 0.0)


def test_value_and_gradient_consistent():
    f = random_field(4, 4, 4, (0, 1, 0, 1, 0, 15), 6)
    value, grad = tv_value_and_gradient(f, 1e-2)
    assert value == pytest.approx(tv_value(f, 1e-2), rel=1e-15)
    np.testing.assert_array_equal(grad, helpers.tv_gradient(f, 1e-2))
    np.testing.assert_allclose(grad, helpers.apply_L(f, f.values, 1e-2), rtol=1e-13)


def test_directional_derivative():
    g = make_grid(6, 6, 6, (0, 1, 0, 1, 0, 15))
    rng = np.random.default_rng(9)
    f = Field(grid=g, values=rng.standard_normal(g.n_nodes))
    grad = helpers.tv_gradient(f, 1e-2)
    step = 1e-6
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(g.n_nodes)
        v /= np.linalg.norm(v)
        plus = tv_value(Field(grid=g, values=f.values + step * v), 1e-2)
        minus = tv_value(Field(grid=g, values=f.values - step * v), 1e-2)
        fd = (plus - minus) / (2 * step)
        worst = max(worst, abs(fd - float(grad @ v)) / max(abs(fd), 1e-300))
    assert worst <= 1e-5


def test_two_slab_beta_limit():
    # piecewise constant in z: smoothing vanishes as beta shrinks and the
    # value drops toward the exact stencil TV of the jump
    g = make_grid(6, 5, 8, (0, 1, 0, 1, 0, 15))
    arr = np.zeros((8, 5, 6))
    arr[4:] = 3.0
    f = Field(grid=g, values=arr.ravel())
    vals = [tv_value(f, b) for b in (1e-2, 1e-4, 1e-6)]
    analytic = 2 * (5 * 6) * (3.0 / (2 * g.dz)) * g.cell_volume
    assert vals[0] > vals[1] > vals[2] > analytic
    assert vals[2] == pytest.approx(analytic, rel=1e-2)


def test_smoothing_weights_shape_and_values():
    f = random_field(4, 3, 5, (0, 1, 0, 1, 0, 15), 7)
    gamma = smoothing_weights(f, 1e-2)
    assert gamma.shape == (5, 3, 4)
    const = Field(grid=f.grid, values=np.zeros(f.grid.n_nodes))
    np.testing.assert_allclose(smoothing_weights(const, 1e-2), 10.0)


def test_apply_weights_matches_apply_L():
    f = random_field(4, 4, 4, (0, 1, 0, 1, 0, 15), 10)
    frozen = diffusion_matrix(smoothing_weights(f, 1e-2), f.grid)
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.standard_normal(f.grid.n_nodes)
        want = helpers.apply_L(f, v, 1e-2)
        got = apply_weights(frozen, f.grid, v)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    with pytest.raises(ValueError, match="does not match grid nodes"):
        apply_weights(frozen, f.grid, np.zeros(5))


@pytest.mark.parametrize(
    "dims, bounds",
    [
        ((2, 2, 2), (0, 1, 0, 1, 0, 1)),
        ((2, 3, 4), (0, 1, 0, 1, 0, 1)),
        ((3, 4, 5), (0, 1, 0, 1, 0, 1)),
        ((5, 4, 6), (0, 1, 0, 3, 0, 15)),
    ],
)
def test_diffusion_matrix_matches_oracles(dims, bounds):
    # on a 2-node axis both couplings of a row fall in one column
    grid = make_grid(*dims, bounds)
    n = grid.n_nodes
    rng = np.random.default_rng(sum(dims))
    gamma = rng.uniform(0.1, 10.0, n)
    frozen = diffusion_matrix(gamma, grid)
    assert frozen.shape == (n, n)
    assert frozen.nnz == 7 * n
    assert np.all(np.diff(frozen.indptr) == 7)
    dense = frozen.toarray()
    oracle = helpers.dense_diffusion_matrix(gamma, grid)
    np.testing.assert_allclose(dense, oracle, rtol=1e-13, atol=0)
    np.testing.assert_array_equal(dense, dense.T)
    for _ in range(5):
        v = rng.standard_normal(n)
        want = helpers.apply_weights_products(gamma, grid, v)
        assert np.linalg.norm(frozen @ v - want) <= 1e-13 * np.linalg.norm(want)
    for _ in range(100):
        u = rng.standard_normal(n)
        assert float(u @ (frozen @ u)) >= -1e-12
    with pytest.raises(ValueError, match="does not match grid nodes"):
        diffusion_matrix(gamma[:-1], grid)


@pytest.mark.parametrize(
    "dims",
    [(30, 30, 30), (60, 60, 30), (2, 3, 5), (5, 2, 7), (4, 4, 4), (2, 2, 2)],
)
def test_diffusion_matrix_equals_block_construction(dims):
    # the per-axis neighbour assembly repeats the CSR-block one bit for bit
    grid = make_grid(*dims, (0, 1, 0, 2, 0, 15))
    gamma = np.random.default_rng(sum(dims)).uniform(0.1, 10.0, grid.n_nodes)
    got = diffusion_matrix(gamma, grid)
    want = helpers.diffusion_matrix_blocks(gamma, grid)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_diffusion_operator_linear_symmetric_psd():
    f = random_field(3, 4, 3, (0, 1, 0, 2, 0, 3), 12)
    rng = np.random.default_rng(13)
    n = f.grid.n_nodes
    v = rng.standard_normal(n)
    w = rng.standard_normal(n)
    lv = helpers.apply_L(f, v, 1e-2)
    lw = helpers.apply_L(f, w, 1e-2)
    combo = helpers.apply_L(f, 2.5 * v - 1.5 * w, 1e-2)
    assert np.linalg.norm(combo - (2.5 * lv - 1.5 * lw)) <= 1e-12 * np.linalg.norm(combo)
    assert float(lv @ w) == pytest.approx(float(v @ lw), rel=1e-12)
    for _ in range(100):
        u = rng.standard_normal(n)
        assert float(helpers.apply_L(f, u, 1e-2) @ u) >= -1e-12


def test_diffusion_matches_dense_matrix():
    f = random_field(3, 3, 4, (0, 1, 0, 1, 0, 4), 14)
    dense = helpers.dense_diffusion_matrix(smoothing_weights(f, 1e-2).ravel(), f.grid)
    rng = np.random.default_rng(15)
    v = rng.standard_normal(f.grid.n_nodes)
    np.testing.assert_allclose(helpers.apply_L(f, v, 1e-2), dense @ v, rtol=1e-12, atol=1e-14)
