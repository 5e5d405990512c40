import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import qwavesim as q
from qwavesim.constraints import WALLS
from qwavesim.discretize import canonical_csr
from qwavesim.errors import GridError, MaterialError, ValidationError

from conftest import build_acoustic_1d, build_acoustic_2d, build_maxwell


def test_1d_grid_counts_and_spacing():
    grid = q.build_grid([(0.0, 3.0)], [4])
    assert grid.spacing == (1.0,)
    assert grid.n_scalar == 4
    assert grid.n_flux == (3,)


def test_2d_grid_counts():
    grid = q.build_grid([(0.0, 1.0), (0.0, 1.0)], [4, 4])
    assert grid.n_scalar == 16
    assert grid.n_flux == (12, 12)


def test_2d_linearization_is_x_fastest():
    grid = q.build_grid([(0.0, 1.0), (0.0, 2.0)], [2, 3])
    seen = set()
    for j in range(3):
        for i in range(2):
            k = grid.scalar_index(i, j)
            assert k == i + j * 2
            seen.add(k)
    assert seen == set(range(6))


def test_flux_points_sit_at_midpoints():
    grid = q.build_grid([(0.0, 3.0)], [4])
    np.testing.assert_allclose(grid.flux_coords[0][:, 0], [0.5, 1.5, 2.5])


def test_degenerate_grid_refused():
    with pytest.raises(GridError):
        q.build_grid([(0.0, 0.0)], [4])
    with pytest.raises(GridError):
        q.build_grid([(0.0, 1.0)], [1])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_grid_bounds_refused(bad):
    with pytest.raises(GridError, match="grid bounds must be finite"):
        q.build_grid([(0.0, bad)], [4])
    with pytest.raises(GridError, match="grid bounds must be finite"):
        q.build_grid([(0.0, 1.0), (bad, 1.0)], [4, 4])


@st.composite
def _grids(draw):
    """A 1D or 2D grid with random bounds and node counts."""
    dimension = draw(st.integers(1, 2))
    bounds = []
    for _ in range(dimension):
        lo = draw(st.floats(-100.0, 100.0))
        bounds.append((lo, lo + draw(st.floats(1e-3, 100.0))))
    return q.build_grid(bounds, [draw(st.integers(2, 9)) for _ in range(dimension)])


_PULSE = q.gaussian_pulse(center=0.1, sigma=0.01)


@given(grid=_grids(), data=st.data())
def test_index_maps_walls_and_source_midpoints_on_random_grids(grid, data):
    lo = np.array([b[0] for b in grid.bounds])
    dx = np.array(grid.spacing)
    # scalar_index is a bijection onto 0 .. n_scalar - 1 (x fastest), and node ij sits at lo + ij*dx
    for k in range(grid.n_scalar):
        ij = np.unravel_index(k, grid.shape[::-1])[::-1]
        assert grid.scalar_index(*ij) == k
        np.testing.assert_array_equal(grid.scalar_coords[k], lo + np.array(ij) * dx)

    # a wall holds exactly the nodes whose coordinate on its axis is that axis's bound
    for ax, names in enumerate(WALLS[: grid.dimension]):
        for name, bound in zip(names, grid.bounds[ax]):
            on_wall = np.abs(grid.scalar_coords[:, ax] - bound) < dx[ax] / 4
            np.testing.assert_array_equal(
                q.boundary_scalar_indices(grid, [name]), np.flatnonzero(on_wall)
            )

    # each flux family is driven at the midpoint just above the source node,
    # or just below it on the high wall, with that family's coefficient
    loc = tuple(data.draw(st.integers(0, n - 1)) for n in grid.shape)
    polarization = tuple(float(c) for c in range(1, grid.dimension + 2))
    source = q.PointSource(location=loc, polarization=polarization, time_function=_PULSE)
    chi = q.chi_pattern(source, grid)
    node = grid.scalar_coords[grid.scalar_index(*loc)]
    np.testing.assert_array_equal(np.flatnonzero(chi[: grid.n_scalar]), [grid.scalar_index(*loc)])
    offsets = (*grid.block_offsets, grid.n_total)
    for ax in range(grid.dimension):
        block = chi[offsets[1 + ax] : offsets[2 + ax]]
        (k,) = np.flatnonzero(block)
        assert block[k] == polarization[1 + ax]
        expected = node.copy()
        expected[ax] += dx[ax] / 2 if loc[ax] < grid.shape[ax] - 1 else -dx[ax] / 2
        np.testing.assert_allclose(grid.flux_coords[ax][k], expected, rtol=0, atol=1e-6 * dx[ax])


def test_gradient_of_constant_field_is_zero():
    grid = q.build_grid([(0.0, 2.0)], [3])
    grad, _ = q.build_gradient_divergence(grid)
    np.testing.assert_array_equal(grad @ np.array([5.0, 5.0, 5.0]), [0.0, 0.0])


def test_gradient_stencil_by_hand():
    # (u_{i+1} - u_i) / dx with dx = 1
    grid = q.build_grid([(0.0, 2.0)], [3])
    grad, _ = q.build_gradient_divergence(grid)
    np.testing.assert_array_equal(grad @ np.array([0.0, 1.0, 2.0]), [1.0, 1.0])


def test_gradient_exact_on_linear_functions_2d():
    grid = q.build_grid([(0.0, 1.0), (0.0, 1.0)], [5, 7])
    grad, _ = q.build_gradient_divergence(grid)
    u = 2.0 * grid.scalar_coords[:, 0] - 3.0 * grid.scalar_coords[:, 1] + 0.25
    out = grad @ u
    nx_mid = grid.n_flux[0]
    np.testing.assert_allclose(out[:nx_mid], 2.0, atol=1e-13)
    np.testing.assert_allclose(out[nx_mid:], -3.0, atol=1e-13)


def test_gradient_is_anti_transpose_of_divergence():
    for grid in (
        q.build_grid([(0.0, 1.0)], [9]),
        q.build_grid([(0.0, 1.0), (0.0, 2.0)], [4, 5]),
    ):
        grad, div = q.build_gradient_divergence(grid)
        diff = grad.toarray() + div.toarray().T
        assert np.abs(diff).max() == 0.0


def _loop_stencils(grid):
    """Reference stencils from one loop over the flux unknowns."""
    nfl = sum(grid.n_flux)
    grad = np.zeros((nfl, grid.n_scalar))
    row = 0
    for ax in range(grid.dimension):
        inv_dx = 1.0 / grid.spacing[ax]
        fshape = grid.flux_shape(ax)
        for k in range(grid.n_flux[ax]):
            lo = [k % fshape[0], k // fshape[0]][: grid.dimension]
            hi = list(lo)
            hi[ax] += 1
            grad[row, grid.scalar_index(*lo)] = -inv_dx
            grad[row, grid.scalar_index(*hi)] = inv_dx
            row += 1
    return grad, -grad.T


def _assert_same_csr(got, want):
    """The same canonical CSR arrays, dtypes included, byte for byte."""
    assert got.shape == want.shape and got.has_canonical_format
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@given(grid=_grids())
def test_incidence_stencils_match_the_loop_reference(grid):
    # the stencils and A are written straight into CSR arrays from the flux
    # incidence; the loop's dense matrices, made canonical, hold the same bytes
    ref_grad, ref_div = _loop_stencils(grid)
    grad, div = q.build_gradient_divergence(grid)
    _assert_same_csr(grad, canonical_csr(ref_grad))
    _assert_same_csr(div, canonical_csr(ref_div))
    low, high = grid.flux_incidence()
    flux = np.arange(low.size)  # the loop puts -1/dx on the low node and +1/dx on the high one
    assert np.all(ref_grad[flux, low] < 0.0) and np.all(ref_grad[flux, high] > 0.0)
    for family, sign in (("acoustic", -1.0), ("maxwell1d", 1.0)):
        if family == "maxwell1d" and grid.dimension != 1:
            continue
        material = getattr(q.MaterialModel, family)(grid, 1.0, 1.0)
        zeros = np.zeros((grid.n_scalar, grid.n_scalar)), np.zeros((low.size, low.size))
        ref_a = np.block([[zeros[0], sign * ref_div], [sign * ref_grad, zeros[1]]])
        _assert_same_csr(q.assemble_operator_pair(grid, material).A, canonical_csr(ref_a))


def test_gradient_rows_have_two_entries_of_plus_minus_inverse_spacing():
    grid = q.build_grid([(0.0, 1.0)], [6])
    grad, _ = q.build_gradient_divergence(grid)
    dense = grad.toarray()
    inv_dx = 1.0 / grid.spacing[0]
    for row in dense:
        nonzero = row[row != 0.0]
        assert sorted(nonzero) == [-inv_dx, inv_dx]


def test_acoustic_weight_entries():
    # rho = 2, c = 3: scalar weight 1/(rho c^2) = 1/18, flux weight rho = 2
    pair = build_acoustic_1d(n=4, rho=2.0, c=3.0)
    diag = pair.b_diagonal()
    np.testing.assert_allclose(diag[pair.scalar_slice], 1.0 / 18.0)
    np.testing.assert_allclose(diag[pair.flux_slice], 2.0)


def test_assembled_generator_is_exactly_antisymmetric():
    for pair in (
        build_acoustic_1d(n=8),
        build_acoustic_1d(n=64, rho=1.7, c=0.4),
        build_acoustic_2d(nx=5, ny=6, rho=2.2, c=1.3),
        build_maxwell(n=32, eps=2.0, mu=0.5),
    ):
        assert q.antisymmetry_defect(pair.A) == 0.0


def test_generator_row_sparsity_bound():
    # at most 2 D + 1 nonzeros per row
    for pair, dim in ((build_acoustic_1d(n=16), 1), (build_acoustic_2d(), 2)):
        assert np.diff(pair.A.indptr).max() <= 2 * dim + 1


def test_generators_are_canonical_csr_and_weights_read_only_vectors():
    pair_2d = build_acoustic_2d(nx=7, ny=5, rho=1.3, c=0.8)
    walls = q.boundary_scalar_indices(pair_2d.grid, ["left", "top"])
    reduced = q.reduce_system(pair_2d, q.dirichlet_constraints(pair_2d.grid, walls))
    for system in (build_acoustic_1d(n=9), pair_2d, build_maxwell(n=12), reduced):
        a = system.A
        assert isinstance(a, sp.csr_matrix) and a.dtype == np.float64
        # rebuild from the raw arrays so the canonical flag is recomputed
        fresh = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
        assert fresh.has_canonical_format
        assert np.all(a.data != 0.0)
        b = system.b_diagonal()
        assert b.dtype == np.float64 and b.shape == (system.n_total,)
        assert not b.flags.writeable


def test_maxwell_generator_has_purely_imaginary_modes():
    pair = build_maxwell(n=24, eps=1.0, mu=1.0)
    b_inv = 1.0 / pair.b_diagonal()
    modes = np.linalg.eigvals(b_inv[:, None] * pair.A.toarray())
    assert np.abs(modes.real).max() < 1e-12


def test_nonpositive_material_refused():
    grid = q.build_grid([(0.0, 1.0)], [8])
    with pytest.raises(MaterialError):
        q.MaterialModel.acoustic(grid, rho=-1.0, c=1.0)
    with pytest.raises(MaterialError):
        q.MaterialModel.maxwell1d(grid, eps=0.0, mu=1.0)


@pytest.mark.parametrize("family, kwargs", [
    ("acoustic", {"rho": np.ones(8), "c": 1.0}),
    ("acoustic", {"rho": 1.0, "c": np.ones(8)}),
    ("maxwell1d", {"eps": np.ones(8), "mu": 1.0}),
    ("maxwell1d", {"eps": 1.0, "mu": np.ones(7)}),
], ids=["acoustic-rho", "acoustic-c", "maxwell1d-eps", "maxwell1d-mu"])
def test_both_families_refuse_a_per_point_array(family, kwargs):
    # one rule for every coefficient: a scalar or a callable of position
    grid = q.build_grid([(0.0, 1.0)], [8])
    name = next(k for k, v in kwargs.items() if isinstance(v, np.ndarray))
    with pytest.raises(MaterialError, match=f"{name}: pass a scalar or a callable of position"):
        getattr(q.MaterialModel, family)(grid, **kwargs)


def test_heterogeneous_material_sampled_pointwise():
    grid = q.build_grid([(0.0, 1.0)], [5])
    material = q.MaterialModel.acoustic(grid, rho=lambda x: 1.0 + x[:, 0], c=1.0)
    pair = q.assemble_operator_pair(grid, material)
    flux_x = grid.flux_coords[0][:, 0]
    np.testing.assert_allclose(pair.b_diagonal()[pair.flux_slice], 1.0 + flux_x)


class _CountingCoefficient:
    """A vectorized coefficient that records the shape of every table it is called on."""

    def __init__(self):
        self.tables = []

    def __call__(self, coords):
        self.tables.append(coords.shape)
        return 1.0 + 0.5 * np.sin(coords[:, 0])


@pytest.mark.parametrize("shape", [[9], [5, 4]])
def test_acoustic_calls_each_coefficient_once_per_coordinate_table(shape):
    grid = q.build_grid([(0.0, 1.0)] * len(shape), shape)
    rho, c = _CountingCoefficient(), _CountingCoefficient()
    q.MaterialModel.acoustic(grid, rho=rho, c=c)
    nodes, midpoints = (grid.n_scalar, grid.dimension), (sum(grid.n_flux), grid.dimension)
    assert rho.tables == [nodes, midpoints]
    assert c.tables == [nodes]


def test_maxwell_calls_each_coefficient_once_per_coordinate_table():
    grid = q.build_grid([(0.0, 1.0)], [9])
    eps, mu = _CountingCoefficient(), _CountingCoefficient()
    q.MaterialModel.maxwell1d(grid, eps=eps, mu=mu)
    assert eps.tables == [(9, 1)]
    assert mu.tables == [(8, 1)]


@pytest.mark.parametrize("family, kwargs, name", [
    ("acoustic", {"rho": lambda x: 1.0 + x[0], "c": 1.0}, "rho"),
    ("acoustic", {"rho": 1.0, "c": lambda x: 2.0}, "c"),
    ("maxwell1d", {"eps": lambda x: 1.0 + x[0], "mu": 1.0}, "eps"),
    ("maxwell1d", {"eps": 1.0, "mu": lambda x: np.ones((x.shape[0], 1))}, "mu"),
], ids=["acoustic-rho", "acoustic-c", "maxwell1d-eps", "maxwell1d-mu"])
def test_a_per_point_callable_is_refused_naming_its_coefficient(family, kwargs, name):
    grid = q.build_grid([(0.0, 1.0)], [8])
    with pytest.raises(MaterialError, match=rf"{name}: a callable coefficient must return one "
                                            r"value per row of the \(\d+, 1\) coordinate table"):
        getattr(q.MaterialModel, family)(grid, **kwargs)


def test_maxwell_rejects_2d_grid():
    grid = q.build_grid([(0.0, 1.0), (0.0, 1.0)], [4, 4])
    with pytest.raises(MaterialError):
        q.MaterialModel.maxwell1d(grid, eps=1.0, mu=1.0)


def test_row_forcing_keeps_the_rows_its_columns_touch():
    chis = [np.zeros(7), np.zeros(7)]
    chis[0][[1, 5]] = [2.0, -1.0]
    chis[1][[5, 6]] = [0.5, 3.0]
    forcing = q.RowForcing.of_columns(chis, [np.sin, np.cos])
    np.testing.assert_array_equal(forcing.rows, [1, 5, 6])
    assert forcing.pattern.shape == (3, 2)
    t = 0.3
    np.testing.assert_array_equal(forcing(t), chis[0] * np.sin(t) + chis[1] * np.cos(t))
    head, tail = forcing.split(5)
    assert (head.size, tail.size) == (5, 2)
    np.testing.assert_array_equal(np.concatenate([head(t), tail(t)]), forcing(t))
    np.testing.assert_array_equal(q.RowForcing.zero(4)(t), np.zeros(4))


@pytest.mark.parametrize(
    "rows, pattern",
    [([2, 1], np.ones((2, 1))), ([1, 1], np.ones((2, 1))), ([0, 7], np.ones((2, 1))),
     ([-1], np.ones((1, 1))), ([1, 2], np.ones((3, 1))), ([1], [[np.nan]])],
    ids=["unsorted", "repeated", "past-size", "negative", "pattern-rows", "non-finite"],
)
def test_row_forcing_refuses_rows_that_do_not_fit(rows, pattern):
    with pytest.raises(ValidationError, match="forcing|sparse operator entries must be finite"):
        q.RowForcing(7, np.array(rows), sp.csr_matrix(pattern), lambda t: np.ones(1))
