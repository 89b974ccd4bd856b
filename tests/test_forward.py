"""Discrete ray transform: snapping, assembly, products and dumps."""

import copy
import gc
import math
import pickle

import numpy as np
import pytest

import atmtomo.forward
import helpers
from atmtomo import (
    SparseOperator,
    assemble_operator,
    build_network,
    make_grid,
    network_listing,
    operator_listing,
    place_network,
    take_rays,
    true_profile,
)
from atmtomo.forward import dump_operator


def test_nearest_node_basics():
    g = make_grid(30, 30, 30, (0, 1, 0, 1, 0, 15))
    node = helpers.node_position(g, 3, 7, 11)
    assert helpers.nearest_node(node, g) == helpers.linear_index(g, 3, 7, 11)
    assert helpers.nearest_node((0.5, 0.5, -1.0), g) == helpers.OUTSIDE
    assert helpers.nearest_node((0.5, 0.5, 16.0), g) == helpers.OUTSIDE


def test_nearest_node_midpoint_rounds_down():
    g = make_grid(5, 5, 5, (0, 1, 0, 1, 0, 1))
    midpoint = helpers.node_position(g, 1, 2, 3) + np.array([g.dx / 2, 0, 0])
    assert helpers.nearest_node(midpoint, g) == helpers.linear_index(g, 1, 2, 3)
    midpoint_z = helpers.node_position(g, 1, 2, 3) + np.array([0, 0, g.dz / 2])
    assert helpers.nearest_node(midpoint_z, g) == helpers.linear_index(g, 1, 2, 3)


def test_nearest_node_half_cell_inflation():
    g = make_grid(5, 5, 5, (0, 1, 0, 1, 0, 1))
    inside = (-0.49 * g.dx, 0.5, 0.5)
    outside = (-0.51 * g.dx, 0.5, 0.5)
    assert helpers.nearest_node(inside, g) == helpers.linear_index(g, 0, 2, 2)
    assert helpers.nearest_node(outside, g) == helpers.OUTSIDE


def test_assembly_matches_reference_walker(desk):
    dense = helpers.walk_ray_matrix(desk.network, 8)
    got = helpers.to_scipy(desk.op).toarray()
    np.testing.assert_allclose(got, dense, rtol=1e-12, atol=1e-14)


def _random_network():
    g = make_grid(5, 4, 6, (0, 1, 0, 2, 0, 12))
    stations = [(0.1 + 0.2 * i, 0.3 + 0.3 * i, 0.0) for i in range(4)]
    emitters = [(0.4 * j - 0.3, 0.5 * j, 12.0) for j in range(5)]
    return build_network(g, stations, emitters)


def test_assembly_matches_walker_on_random_network():
    net = _random_network()
    assert len(net.rays) >= 15
    op = assemble_operator(net, 13)
    np.testing.assert_allclose(
        helpers.to_scipy(op).toarray(), helpers.walk_ray_matrix(net, 13), rtol=1e-12, atol=1e-14
    )


def _bitwise_cases(desk):
    # stations off the ground plane on a box away from the origin
    raised = make_grid(7, 6, 8, (-2.0, 3.0, 1.0, 2.5, 0.5, 15.0))
    return {
        "desk": (desk.network, 8),
        "random": (_random_network(), 13),
        "raised-stations": (build_network(raised, *helpers.raised_positions(raised, 6, 9, 4)), 16),
        "one-ray": (take_rays(desk.network, 1), 8),
    }


def test_assembly_is_bitwise_per_ray(desk):
    for name, (net, n_samples) in _bitwise_cases(desk).items():
        got = assemble_operator(net, n_samples).matrix
        want = helpers.assemble_per_ray(net, n_samples).matrix
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), (name, attr)


def _raised_stations():
    # stations off the ground plane on a box away from the origin
    grid = make_grid(30, 30, 30, (-2.0, 3.0, 1.0, 2.5, 0.5, 15.0))
    net = build_network(grid, *helpers.raised_positions(grid, 15, 30, seed=7))
    assert len(net.rays) == 450
    return grid, net


LISTING_CASES = {
    "default-15x30": lambda: (g := make_grid(30, 30, 30, (0, 1, 0, 1, 0, 15)),
                              place_network(g, 15, 30, seed=7)),
    "dense-60x100": lambda: (g := make_grid(60, 60, 30, (0, 1, 0, 1, 0, 15)),
                             place_network(g, 60, 100, seed=7)),
    "raised-stations": _raised_stations,
}


@pytest.mark.parametrize("case", LISTING_CASES)
def test_listings_equal_the_object_path(case):
    grid, net = LISTING_CASES[case]()
    objects = helpers.build_network_per_pair(grid, net.stations, net.emitters)
    want_listing = helpers.listing_per_ray(net.emitters.tolist(), objects)
    assert network_listing(net).encode() == want_listing.encode()
    got = assemble_operator(net)
    want = helpers.assemble_objects(objects, grid, 2 * grid.nz)
    assert operator_listing(got).encode() == operator_listing(want).encode()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got.matrix, attr), getattr(want.matrix, attr)), attr
        assert getattr(got.matrix, attr).dtype == getattr(want.matrix, attr).dtype, attr


def test_vertical_aligned_ray_row():
    # one ray straight up a node column, sampled exactly at the node altitudes
    g = make_grid(4, 4, 8, (0, 1, 0, 1, 0, 14))
    net = build_network(g, [(0.0, 0.0, 0.0)], [(0.0, 0.0, 14.0)])
    op = assemble_operator(net, 8)
    row = helpers.to_scipy(op).toarray()[0]
    nodes = [helpers.linear_index(g, 0, 0, k) for k in range(8)]
    assert np.count_nonzero(row) == 8
    np.testing.assert_allclose(row[nodes[1:-1]], g.dz)
    assert row[nodes[0]] == pytest.approx(g.dz / 2)
    assert row[nodes[-1]] == pytest.approx(g.dz / 2)
    assert op.row_sums()[0] == pytest.approx(14.0)


def test_row_sum_equals_chord_for_interior_rays():
    g = make_grid(6, 6, 6, (0, 1, 0, 1, 0, 15))
    net = build_network(
        g,
        [(0.3, 0.55, 0.0)],
        [(0.7, 0.45, 15.0), (0.5, 0.5, 15.0)],
    )
    op = assemble_operator(net, 24)
    for elevation, row_sum in zip(net.rays.elevations.tolist(), op.row_sums()):
        chord = 15.0 / math.sin(elevation)
        assert row_sum == pytest.approx(chord, rel=1e-12)


def test_clipped_ray_loses_weight():
    g = make_grid(6, 6, 6, (0, 1, 0, 1, 0, 15))
    net = build_network(g, [(0.95, 0.5, 0.0)], [(3.0, 0.5, 15.0)])
    op = assemble_operator(net, 40)
    chord = 15.0 / math.sin(net.rays.elevations[0])
    assert op.row_sums()[0] < 0.9 * chord


def test_duplicate_samples_accumulate():
    # a short z axis with many samples funnels several samples per node
    g = make_grid(3, 3, 2, (0, 1, 0, 1, 0, 1))
    net = build_network(g, [(0.5, 0.5, 0.0)], [(0.5, 0.5, 1.0)])
    op = assemble_operator(net, 21)
    row = helpers.to_scipy(op).toarray()[0]
    assert np.count_nonzero(row) == 2
    assert op.row_sums()[0] == pytest.approx(1.0)
    assert op.nnz == 2


def test_empty_row_raises():
    # both endpoint samples fall laterally outside; with only 2 samples the
    # admissible midsection is never probed
    g = make_grid(4, 4, 4, (0, 1, 0, 1, 0, 15))
    net = build_network(g, [(-0.3, 0.5, 0.0)], [(1.3, 0.5, 15.0)])
    assert len(net.rays) == 1
    with pytest.raises(ValueError, match="ray 0 has no sample points"):
        assemble_operator(net, 2)
    # the error names the first empty ray: here ray 0 ends inside the box
    net = build_network(
        g,
        [(-0.3, 0.5, 0.0)],
        [(0.5, 0.5, 15.0), (1.3, 0.5, 15.0)],
    )
    assert len(net.rays) == 2
    with pytest.raises(ValueError, match="ray 1 has no sample points"):
        assemble_operator(net, 2)


def test_default_sample_count_is_two_per_layer(desk):
    op = assemble_operator(desk.network)
    per_row = np.diff(op.matrix.indptr)
    assert per_row.max() <= 2 * desk.grid.nz


def test_operator_shape_invariants(desk):
    op = desk.op
    assert op.n_rows == 200
    assert op.n_cols == desk.grid.n_nodes
    assert np.all(op.matrix.data > 0)
    per_row = np.diff(op.matrix.indptr)
    assert per_row.min() >= 1
    assert per_row.max() <= 8
    for r in range(op.n_rows):
        cols = op.matrix.indices[op.matrix.indptr[r] : op.matrix.indptr[r + 1]]
        assert np.all(np.diff(cols) > 0)


def test_apply_linearity_and_extraction(desk):
    op = desk.op
    rng = np.random.default_rng(7)
    assert np.all(op.apply(np.zeros(op.n_cols)) == 0.0)
    dense = helpers.to_scipy(op).toarray()
    i_star = int(rng.integers(op.n_cols))
    e = np.zeros(op.n_cols)
    e[i_star] = 1.0
    np.testing.assert_allclose(op.apply(e), dense[:, i_star])
    j_star = int(rng.integers(op.n_rows))
    r = np.zeros(op.n_rows)
    r[j_star] = 1.0
    np.testing.assert_allclose(op.apply_adjoint(r), dense[j_star, :])
    with pytest.raises(ValueError):
        op.apply(np.zeros(op.n_cols + 1))
    with pytest.raises(ValueError):
        op.apply_adjoint(np.zeros(op.n_rows + 1))


def test_adjoint_identity(desk):
    op = desk.op
    rng = np.random.default_rng(21)
    for _ in range(20):
        phi = rng.standard_normal(op.n_cols)
        psi = rng.standard_normal(op.n_rows)
        lhs = float(op.apply(phi) @ psi)
        rhs = float(phi @ op.apply_adjoint(psi))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_adjoint_is_bitwise_the_csr_copy(desk):
    # the transpose view sums each node's ray terms in the order the stored
    # row-compressed transpose did
    rng = np.random.default_rng(3)
    operators = {
        name: assemble_operator(net, n_samples)
        for name, (net, n_samples) in _bitwise_cases(desk).items()
    }
    operators["prefix"] = desk.op.first_rows(80)
    for name, op in operators.items():
        for _ in range(3):
            r = rng.standard_normal(op.n_rows)
            assert np.array_equal(op.apply_adjoint(r), helpers.adjoint_csr_copy(op, r)), name


def test_forward_positive_on_truth(desk):
    assert np.all(desk.f_true > 0)


def test_adding_rays_preserves_existing_rows(desk):
    small = assemble_operator(take_rays(desk.network, 80), 8)
    big = desk.op
    np.testing.assert_array_equal(
        helpers.to_scipy(big).toarray()[:80], helpers.to_scipy(small).toarray()
    )
    # so the smaller operator is a prefix of the bigger one's arrays, in views
    prefix = big.first_rows(80)
    assert prefix.matrix.shape == small.matrix.shape
    for attr in ("data", "indices", "indptr"):
        got, want = getattr(prefix.matrix, attr), getattr(small.matrix, attr)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), attr
        assert np.shares_memory(got, getattr(big.matrix, attr)), attr
    assert big.first_rows(0).nnz == 0
    for bad in (-1, big.n_rows + 1):
        with pytest.raises(ValueError, match="row count must be in"):
            big.first_rows(bad)


def test_quadrature_refinement_converges():
    g = make_grid(2, 2, 40, (0, 1, 0, 1, 0, 15))
    net = build_network(g, [(0.0, 0.0, 0.0)], [(0.0, 0.0, 15.0)])
    truth = true_profile(g)
    coarse = assemble_operator(net, 40).apply(truth.values)[0]
    # avoid 2n-1 ladders: those place every new sample exactly halfway
    # between nodes, where the tie-break sends all of them downward
    mid = assemble_operator(net, 400).apply(truth.values)[0]
    fine = assemble_operator(net, 1000).apply(truth.values)[0]
    assert abs(mid - coarse) / abs(coarse) < 2e-3
    assert abs(fine - coarse) / abs(coarse) < 2e-4


def test_operator_listing_and_dump(tmp_path, desk):
    op = desk.op
    text = operator_listing(op)
    lines = text.strip().split("\n")
    assert len(lines) == op.nnz
    row, col, weight = lines[0].split()
    dense = helpers.to_scipy(op).toarray()
    assert dense[int(row), int(col)] == float(weight)
    path = tmp_path / "op.txt"
    dump_operator(op, path)
    assert path.read_text() == text


def _bits(*arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _operator_bits(op, fields, residuals):
    """The arrays of op (scipy's or ours), T on each field, T^T on each residual
    and T^T T on each field."""
    if isinstance(op, SparseOperator):
        m, forward, adjoint, normal = op.matrix, op.apply, op.apply_adjoint, op.apply_normal
    else:
        m, forward, adjoint = op, op.__matmul__, op.T.__matmul__

        def normal(x):
            return op.T @ (op @ x)

    n_rows = m.shape[0]
    return _bits(
        m.data, m.indices, m.indptr,
        *(forward(x) for x in fields), *(adjoint(r[:n_rows]) for r in residuals),
        *(normal(x) for x in fields),
    )


SCENES = {
    "default-15x30": ((30, 30, 30), 15, 30),
    "dense-60x100": ((60, 60, 30), 60, 100),
}


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("scene", SCENES)
def test_compiled_numpy_and_scipy_operators_are_bitwise_equal(scene, seed, monkeypatch):
    # assembly, T, T^T and T^T T, also on a row prefix, against scipy's
    # canonical CSR matrix and its CSR and CSC products
    dims, stations, emitters = SCENES[scene]
    grid = make_grid(*dims, (0, 1, 0, 1, 0, 15))
    net = place_network(grid, stations, emitters, seed=seed)
    matrix = helpers.to_scipy(
        helpers.assemble_objects(helpers.ray_objects(net.rays), grid, 2 * grid.nz)
    )
    rng = np.random.default_rng(seed)
    scales = np.logspace(-3, 5, 20)
    fields = [scale * rng.standard_normal(grid.n_nodes) for scale in scales]
    residuals = [scale * rng.standard_normal(len(net.rays)) for scale in scales]
    # signed zeros: all of them, and among random values
    signs = rng.standard_normal(grid.n_nodes)
    fields += [np.where(signs > 0.0, 0.0, -0.0), np.where(signs > 1.0, -0.0, signs)]
    rows = len(net.rays) // 3
    want = [_operator_bits(m, fields, residuals) for m in (matrix, matrix[:rows])]
    for kernel in ("compiled", "numpy"):
        if kernel == "numpy":
            monkeypatch.setattr(atmtomo.forward, "_KERNEL", None)
        op = assemble_operator(net)
        got = [_operator_bits(o, fields, residuals) for o in (op, op.first_rows(rows))]
        assert got == want, kernel


@pytest.mark.parametrize("kernel", ["compiled", "numpy"])
def test_apply_normal_into_out(desk, kernel, monkeypatch):
    # out takes the bits of apply_adjoint(apply(v)), also when the same v and
    # out come back after v changed in place, or v is a copy that changes
    if kernel == "numpy":
        helpers.without_kernels(monkeypatch)
    op, rng = desk.op, np.random.default_rng(8)
    v, out = rng.standard_normal(op.n_cols), np.empty(op.n_cols)

    def want(x):
        return op.apply_adjoint(op.apply(x)).tobytes()

    for _ in range(2):
        assert op.apply_normal(v, out=out) is out
        assert out.tobytes() == want(v)
        v *= -3.0
    single = v.astype(np.float32)
    for _ in range(2):
        op.apply_normal(single, out=out)
        assert out.tobytes() == want(single)
        single *= 2.0
    other = rng.standard_normal(op.n_cols)
    assert op.apply_normal(other, out=out).tobytes() == want(other)
    assert op.apply_normal(v).tobytes() == want(v)
    bad_outs = [
        np.empty(op.n_cols, dtype=np.float32),
        np.empty(op.n_cols + 1),
        np.empty((op.n_cols, 1)),
        np.empty(2 * op.n_cols)[::2],
        np.frombuffer(bytes(8 * op.n_cols)),
        [0.0] * op.n_cols,
    ]
    for bad in bad_outs:
        with pytest.raises(ValueError, match="out must be a writable C-contiguous float64"):
            op.apply_normal(v, out=bad)
    with pytest.raises(ValueError, match="out must not overlap"):
        op.apply_normal(v, out=v)
    with pytest.raises(ValueError, match="field length"):
        op.apply_normal(v[:-1], out=out)


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))])
def test_operator_copies_point_at_their_own_arrays(copy_of):
    # the compiled products read raw pointers: a copy must not keep the
    # original's, which dangle once the original is gone
    grid = make_grid(6, 5, 4, (0, 1, 0, 1, 0, 15))
    op = assemble_operator(place_network(grid, 4, 5, seed=3))
    v, out = np.random.default_rng(12).standard_normal(grid.n_nodes), np.empty(grid.n_nodes)
    want = [op.apply(v).tobytes(), op.apply_normal(v, out=out).tobytes()]
    other = copy_of(op)
    del op
    gc.collect()
    # blocks the original's freed arrays may be handed out to
    filler = [np.full(4096, np.nan) for _ in range(64)]
    assert [other.apply(v).tobytes(), other.apply_normal(v, out=out).tobytes()] == want
    assert len(filler) == 64


@pytest.mark.parametrize("kernel", ["compiled", "numpy"])
def test_constructor_takes_scipys_canonical_form(kernel, monkeypatch):
    # unsorted rows of up to 16 entries over 5 of 16 columns, so most columns
    # repeat; scipy sorts rows this short by stable insertion, so both sum a
    # column's entries in stored order.  Signed zeros keep their sign alone.
    if kernel == "numpy":
        monkeypatch.setattr(atmtomo.forward, "_KERNEL", None)
    rng = np.random.default_rng(5)
    indptr = np.concatenate(([0], np.cumsum(rng.integers(0, 17, size=300))))
    nnz = int(indptr[-1])
    indices = 3 * rng.integers(0, 5, size=nnz) + 1
    data = rng.standard_normal(nnz) * 10.0 ** rng.uniform(-3, 5, size=nnz)
    data[rng.random(nnz) < 0.2] = -0.0
    data[rng.random(nnz) < 0.05] = 0.0
    inputs = _bits(data, indices, indptr)
    op = SparseOperator(data, indices, indptr, 16)
    want = helpers.scipy_canonical(data, indices, indptr, 16)
    assert op.nnz < nnz
    assert _bits(op.matrix.data, op.matrix.indices, op.matrix.indptr) == _bits(
        want.data, want.indices, want.indptr
    )
    assert op.matrix.shape == want.shape == (300, 16)
    assert _bits(data, indices, indptr) == inputs  # the constructor works on copies
    with pytest.raises(ValueError, match="read-only"):
        op.matrix.indices[0] = 99


@pytest.mark.parametrize(
    "data, indices, indptr, n_cols, message",
    [
        ([1.0, 2.0], [0, 4], [0, 1, 2], 4, r"column indices must lie in \[0, 3\]"),
        ([1.0, 2.0], [0, -1], [0, 1, 2], 4, r"column indices must lie in"),
        ([1.0, 2.0], [0.0, 3.0], [0, 1, 2], 4, "column indices must be a 1-D integer array"),
        ([1.0, 2.0], [0, 3, 3], [0, 1, 2], 4, "3 column indices for 2 entries"),
        ([1.0, 2.0], [0, 3], [0, 2, 1], 4, "row pointers must rise"),
        ([1.0, 2.0], [0, 3], [1, 1, 2], 4, "row pointers must rise"),
        ([1.0, 2.0], [0, 3], [0, 1], 4, "row pointers must rise"),
        ([1.0, 2.0], [0, 3], [], 4, "row pointers must rise"),
        ([1.0, 2.0], [0, 3], [0, 1, 3], 4, r"row pointers must lie in \[0, 2\]"),
        ([[1.0, 2.0]], [0, 3], [0, 2], 4, "data must be a 1-D array"),
        ([1.0], [0], [0, 1], 2**31, "do not fit int32 indices"),
    ],
)
def test_constructor_rejects_malformed_arrays(data, indices, indptr, n_cols, message):
    # the compiled products trust these arrays and check no bounds
    with pytest.raises(ValueError, match=message):
        SparseOperator(data, indices, indptr, n_cols)
