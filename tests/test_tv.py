"""Smoothed total variation: stencils, value, gradient, diffusion operator."""

import gc
import math

import numpy as np
import pytest

import atmtomo.tv
import helpers
from atmtomo import Field, Grid3, make_grid, true_profile
from atmtomo.tv import apply_weights, smoothing_weights, tv_value_and_gradient


def random_field(nx, ny, nz, bounds, seed):
    g = make_grid(nx, ny, nz, bounds)
    values = np.random.default_rng(seed).standard_normal(g.n_nodes)
    return Field(grid=g, values=values)


def test_beta_validation():
    f = random_field(3, 3, 3, (0, 1, 0, 1, 0, 1), 0)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            tv_value_and_gradient(f.values, f.grid, bad)


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
    assert tv_value_and_gradient(f.values, f.grid, 1e-2)[0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.6605846898191806, rel=1e-12)


def test_tv_value_shift_invariance_and_beta_monotonicity():
    f = random_field(4, 4, 4, (0, 1, 0, 1, 0, 15), 3)
    value = tv_value_and_gradient(f.values, f.grid, 1e-2)[0]
    shifted = tv_value_and_gradient(f.values + 17.5, f.grid, 1e-2)[0]
    assert shifted == pytest.approx(value, rel=1e-14)
    wider = tv_value_and_gradient(f.values, f.grid, 2e-2)[0]
    narrower = tv_value_and_gradient(f.values, f.grid, 5e-3)[0]
    assert wider > value > narrower


def test_tv_value_matches_triple_loops():
    for seed, dims, bounds in (
        (1, (3, 3, 3), (0, 1, 0, 2, 0, 3)),
        (2, (5, 5, 5), (0, 1, 0, 1, 0, 15)),
    ):
        f = random_field(*dims, bounds, seed)
        assert tv_value_and_gradient(f.values, f.grid, 1e-2)[0] == pytest.approx(
            helpers.tv_value_loops(f, 1e-2), rel=1e-12
        )
    g5 = make_grid(5, 5, 5, (0, 1, 0, 1, 0, 15))
    phantom = true_profile(g5)
    assert tv_value_and_gradient(phantom.values, phantom.grid, 1e-2)[0] == pytest.approx(
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
    value, grad = tv_value_and_gradient(f.values, f.grid, 1e-2)
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
    value, grad = tv_value_and_gradient(f.values, f.grid, 1e-2)
    assert value == want_value
    assert np.array_equal(grad, want_grad)
    weights = smoothing_weights(f.values, f.grid, 1e-2)
    assert weights.shape == (grid.nz, grid.ny, grid.nx)
    assert np.array_equal(weights, helpers.smoothing_weights_csr(f, 1e-2))
    # without -0.0 in the field the zeros' signs agree too (the solves start at +0.0)
    if not np.signbit(values[values == 0.0]).any():
        assert grad.tobytes() == want_grad.tobytes()


# (nx, ny, nz); the last four meet the bounds of apply_l's one-loop rows,
# those two rows and two planes from every end: none, one such row and
# plane, two rows, and rows of only their two end nodes
_STENCIL_DIMS = [
    (2, 2, 2), (4, 3, 5), (2, 5, 3), (3, 2, 2), (30, 30, 30), (60, 60, 30),
    (5, 4, 4), (3, 5, 5), (4, 6, 5), (2, 5, 6),
]


@pytest.mark.parametrize("kind", ["random", "signed zeros", "constant", "integers"])
@pytest.mark.parametrize("dims", _STENCIL_DIMS)
def test_compiled_stencil_is_bitwise_the_numpy_stencil(dims, kind, monkeypatch):
    if atmtomo.tv._STENCIL is None:
        pytest.skip("the compiled stencil did not build or load here")
    grid = make_grid(*dims, (0, 1, 0, 2, 0, 15))
    r = np.random.default_rng(7).standard_normal(grid.n_nodes)
    values = {
        "random": r,
        "signed zeros": np.where(r > 0.0, 0.0, -0.0),
        "constant": np.full(grid.n_nodes, -2.5),
        "integers": np.round(3.0 * r),
    }[kind]
    assert atmtomo.tv._compiled(grid)

    def results():
        value, grad = tv_value_and_gradient(values, grid, 1e-2)
        weights = smoothing_weights(values, grid, 1e-2)
        applied = [apply_weights(weights, grid, u) for u in (values, r[::-1])]
        # added into out, with the field as the vector and as the base
        pairs = ((values, r), (r, values))
        added = [apply_weights(weights, grid, u, out=b.copy()) for u, b in pairs]
        # tobytes tells -0.0 from 0.0, which array_equal does not
        arrays = (grad, weights, *applied, *added)
        return [np.float64(value).tobytes()] + [a.tobytes() for a in arrays]

    compiled = results()
    monkeypatch.setattr(atmtomo.tv, "_STENCIL", None)
    assert results() == compiled


def test_compiled_stencil_takes_only_what_it_can_bound(monkeypatch):
    # the kernel checks no bounds: every array it sees is _field's float64
    # C-ordered copy of an input or shaped like one, whatever layout came in,
    # and a grid with a 1-node axis stays on the numpy stencil
    grid = make_grid(4, 3, 5, (0, 1, 0, 2, 0, 15))
    rng = np.random.default_rng(3)
    # float32-exact numbers, so every layout below holds the same values
    values = rng.standard_normal(grid.n_nodes).astype(np.float32).astype(float)
    v = rng.standard_normal(grid.n_nodes).astype(np.float32).astype(float)
    gamma = rng.uniform(0.1, 10.0, grid.n_nodes).astype(np.float32).astype(float)

    def flat_layouts(x):
        return [x.astype(np.float32), np.repeat(x, 2)[::2]]

    def gamma_layouts(x):
        cube = x.reshape(grid.nz, grid.ny, grid.nx)
        strided = np.repeat(cube, 2, axis=2)[:, :, ::2]
        return [x, cube, np.asfortranarray(cube), strided, strided.astype(np.float32)]

    def results(values, gamma, v):
        value, grad = tv_value_and_gradient(values, grid, 1e-2)
        weights = smoothing_weights(values, grid, 1e-2)
        applied = apply_weights(gamma, grid, v)
        return [np.float64(value).tobytes()] + [a.tobytes() for a in (grad, weights, applied)]

    kernel = atmtomo.tv._STENCIL
    wanted = []
    for stencil in (kernel, None):
        monkeypatch.setattr(atmtomo.tv, "_STENCIL", stencil)
        want = results(values, gamma.reshape(grid.nz, grid.ny, grid.nx), v)
        for other in flat_layouts(values):
            assert results(other, gamma, v) == want
        for other in flat_layouts(gamma) + gamma_layouts(gamma):
            assert results(values, other, v) == want
        for other in flat_layouts(v):
            assert results(values, gamma, other) == want
        wanted.append(want)
    assert wanted[0] == wanted[1]
    monkeypatch.setattr(atmtomo.tv, "_STENCIL", object())
    assert atmtomo.tv._compiled(grid)
    assert not atmtomo.tv._compiled(Grid3(1, 3, 5, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
    assert not atmtomo.tv._compiled(Grid3(4, 3, 1, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
    monkeypatch.setattr(atmtomo.tv, "_STENCIL", None)
    assert not atmtomo.tv._compiled(grid)


@pytest.mark.parametrize(
    "dims", [(2, 2, 2), (2, 3, 4), (30, 30, 30), (5, 4, 4), (3, 5, 5), (4, 6, 5)]
)
def test_apply_weights_adds_into_out_bitwise(dims, monkeypatch):
    # out + L v node by node, with signed zeros in out and in L v, called
    # afresh and repeated, and the same bits on both stencils
    grid = make_grid(*dims, (0, 1, 0, 2, 0, 15))
    r = np.random.default_rng(9).standard_normal(grid.n_nodes)
    base = np.where(r > 0.5, -0.0, np.where(r < -0.5, 0.0, r))
    base[-2:] = -0.0

    def results():
        gamma = smoothing_weights(r, grid, 1e-2)
        got = []
        # +0.0 but for -0.0 at the last corner, where L v is then -0.0 too
        corner = np.zeros(grid.n_nodes)
        corner[-1] = -0.0
        for v in (r[::-1].copy(), corner):
            lv = apply_weights(gamma, grid, v)
            out = base.copy()
            assert apply_weights(gamma, grid, v, out=out) is out
            assert out.tobytes() == (base + lv).tobytes()
            got += [lv.tobytes(), out.tobytes()]
            # these calls repeat the call bound to gamma, v and out, and see
            # what changed in them in place
            for _ in range(3):
                want = (base + apply_weights(gamma, grid, v)).tobytes()
                out[...] = base
                assert apply_weights(gamma, grid, v, out=out) is out
                assert out.tobytes() == want
                got.append(want)
                v *= -2.0
                gamma *= 3.0
        return got, lv

    compiled, signed = results()
    assert np.signbit(signed).tolist() == [False] * (grid.n_nodes - 1) + [True]
    assert not signed.any()
    monkeypatch.setattr(atmtomo.tv, "_STENCIL", None)
    assert results()[0] == compiled


def test_apply_weights_out_is_checked():
    grid = make_grid(4, 3, 5, (0, 1, 0, 2, 0, 15))
    rng = np.random.default_rng(10)
    v, gamma = rng.standard_normal(grid.n_nodes), rng.uniform(0.1, 1.0, grid.n_nodes)
    out = np.zeros(grid.n_nodes)
    for bad in (out.astype(np.float32), out[:-1], np.zeros(2 * grid.n_nodes)[::2], [0.0] * 60):
        with pytest.raises(ValueError, match="out must be a writable C-contiguous float64"):
            apply_weights(gamma, grid, v, out=bad)
    for overlapping in (v, gamma):
        with pytest.raises(ValueError, match="out must not overlap"):
            apply_weights(gamma, grid, v, out=overlapping)
    # a checked copy of gamma or v is made again on every call, never repeated stale
    single, strided = gamma.astype(np.float32), np.repeat(v, 2)[::2]
    for g, u, changed in ((single, v, single), (gamma, strided, strided)):
        for _ in range(2):
            out[...] = 0.0
            apply_weights(g, grid, u, out=out)
            assert out.tobytes() == (0.0 + apply_weights(g, grid, u)).tobytes()
            changed *= -2.0


def test_a_bound_call_holds_its_arrays_and_its_scratch(monkeypatch):
    # arrays A, then B, then A again, every call with out byte for byte the
    # call without it, on both stencils.  The caller drops B while it is
    # bound, and blocks made after that and after A is bound again, of the
    # sizes of B's arrays and of the compiled stencil's row scratch, see no
    # write
    grid = make_grid(5, 3, 4, (0, 1, 0, 2, 0, 15))
    sizes = (grid.n_nodes,) * 3 + (2 * grid.nx,)

    def arrays(seed):
        rng = np.random.default_rng(seed)
        v, gamma = rng.standard_normal(grid.n_nodes), rng.uniform(0.1, 1.0, grid.n_nodes)
        return gamma, v, np.zeros(grid.n_nodes)

    def check(gamma, v, out):
        for _ in range(2):
            want = (0.0 + apply_weights(gamma, grid, v)).tobytes()
            out[...] = 0.0
            assert apply_weights(gamma, grid, v, out=out) is out
            assert out.tobytes() == want

    def fresh_blocks():
        gc.collect()
        return [np.full(n, np.nan) for n in sizes]

    for stencil in (atmtomo.tv._STENCIL, None):
        monkeypatch.setattr(atmtomo.tv, "_STENCIL", stencil)
        a = arrays(1)
        check(*a)
        b = arrays(2)
        check(*b)
        del b
        blocks = fresh_blocks()
        check(*a)
        blocks += fresh_blocks()
        check(*a)
        assert all(np.isnan(block).all() for block in blocks)


def test_tv_gradient_constant_field_is_zero():
    g = make_grid(4, 4, 4, (0, 1, 0, 1, 0, 15))
    f = Field(grid=g, values=np.full(g.n_nodes, 9.0))
    assert np.all(helpers.tv_gradient(f, 1e-2) == 0.0)


def test_value_and_gradient_consistent(monkeypatch):
    # TV's gradient is the diffusion operator at its own weights, byte for
    # byte on either stencil, also on a 2-node axis
    for stencil in (atmtomo.tv._STENCIL, None):
        monkeypatch.setattr(atmtomo.tv, "_STENCIL", stencil)
        for dims, bounds in (((4, 4, 4), (0, 1, 0, 1, 0, 15)), ((3, 2, 5), (0, 1, 0, 2, 0, 3))):
            f = random_field(*dims, bounds, 6)
            _, grad = tv_value_and_gradient(f.values, f.grid, 1e-2)
            np.testing.assert_array_equal(grad, helpers.tv_gradient(f, 1e-2))
            np.testing.assert_array_equal(grad, helpers.apply_L(f, f.values, 1e-2))
            gamma = smoothing_weights(f.values, f.grid, 1e-2)
            assert grad.tobytes() == apply_weights(gamma, f.grid, f.values).tobytes()


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
        plus = tv_value_and_gradient(f.values + step * v, g, 1e-2)[0]
        minus = tv_value_and_gradient(f.values - step * v, g, 1e-2)[0]
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
    vals = [tv_value_and_gradient(f.values, f.grid, b)[0] for b in (1e-2, 1e-4, 1e-6)]
    analytic = 2 * (5 * 6) * (3.0 / (2 * g.dz)) * g.cell_volume
    assert vals[0] > vals[1] > vals[2] > analytic
    assert vals[2] == pytest.approx(analytic, rel=1e-2)


def test_smoothing_weights_shape_and_values():
    f = random_field(4, 3, 5, (0, 1, 0, 1, 0, 15), 7)
    gamma = smoothing_weights(f.values, f.grid, 1e-2)
    assert gamma.shape == (5, 3, 4)
    const = Field(grid=f.grid, values=np.zeros(f.grid.n_nodes))
    np.testing.assert_allclose(smoothing_weights(const.values, const.grid, 1e-2), 10.0)


def test_apply_weights_matches_apply_L():
    f = random_field(4, 4, 4, (0, 1, 0, 1, 0, 15), 10)
    gamma = smoothing_weights(f.values, f.grid, 1e-2)
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.standard_normal(f.grid.n_nodes)
        assert np.array_equal(apply_weights(gamma, f.grid, v), helpers.apply_L(f, v, 1e-2))
    wrong = np.zeros(5)
    for call in (
        lambda: apply_weights(gamma, f.grid, wrong),
        lambda: apply_weights(wrong, f.grid, f.values),
        lambda: tv_value_and_gradient(wrong, f.grid, 1e-2),
        lambda: smoothing_weights(wrong, f.grid, 1e-2),
    ):
        with pytest.raises(ValueError, match="does not match grid nodes"):
            call()


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
    # on a 2-node axis both couplings of a row fall on one neighbour
    grid = make_grid(*dims, bounds)
    n = grid.n_nodes
    rng = np.random.default_rng(sum(dims))
    gamma = rng.uniform(0.1, 10.0, n)

    def apply(v):
        return apply_weights(gamma, grid, v)

    dense = np.column_stack([apply(e) for e in np.eye(n)])
    oracle = helpers.dense_diffusion_matrix(gamma, grid)
    np.testing.assert_allclose(dense, oracle, rtol=1e-13, atol=0)
    for _ in range(5):
        v = rng.standard_normal(n)
        assert np.array_equal(apply(v), helpers.apply_weights_products(gamma, grid, v))
    for _ in range(5):
        u, w = rng.standard_normal(n), rng.standard_normal(n)
        assert float(u @ apply(w)) == pytest.approx(float(w @ apply(u)), rel=1e-12)
    for _ in range(100):
        u = rng.standard_normal(n)
        assert float(u @ apply(u)) >= -1e-12
    with pytest.raises(ValueError, match="weights length .* does not match grid nodes"):
        apply_weights(gamma[:-1], grid, np.zeros(n))


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
    gamma = smoothing_weights(f.values, f.grid, 1e-2).ravel()
    dense = helpers.dense_diffusion_matrix(gamma, f.grid)
    rng = np.random.default_rng(15)
    v = rng.standard_normal(f.grid.n_nodes)
    np.testing.assert_allclose(helpers.apply_L(f, v, 1e-2), dense @ v, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("stencil", ["compiled", "numpy"])
def test_the_stencil_does_not_see_the_highest_mode(stencil, monkeypatch):
    # a central difference, v[i+1] - v[i-1], reads two nodes of one parity:
    # a field alternating along x has no interior gradient, so its weights
    # are 1/sqrt(beta) away from the x ends, whose planes alone lift its TV
    # above the floor sqrt(beta) per node
    if stencil == "numpy":
        helpers.without_kernels(monkeypatch)
    elif atmtomo.tv._STENCIL is None:
        pytest.skip("the compiled stencil did not build or load here")
    grid = make_grid(30, 30, 30, (0, 1, 0, 1, 0, 15))
    values = (-1.0) ** (np.arange(grid.n_nodes) % grid.nx)
    weights = smoothing_weights(values, grid, 1e-2)
    assert (weights[:, :, 1:-1] == 1.0 / math.sqrt(1e-2)).all()
    assert (weights[:, :, [0, -1]] < 1.0).all()
    assert tv_value_and_gradient(values, grid, 1e-2)[0] == pytest.approx(33.65, abs=5e-3)
