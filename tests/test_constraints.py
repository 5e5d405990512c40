import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qwavesim as q
from qwavesim.constraints import _interp_rows
from qwavesim.errors import (
    ConstraintError,
    EncodingError,
    IncompatibleConstraintError,
    ValidationError,
)

from conftest import build_acoustic_1d, build_acoustic_2d, chiral_systems


def test_boundary_indices_2d_box():
    grid = q.build_grid([(0.0, 1.0), (0.0, 1.0)], [4, 4])
    idx = q.boundary_scalar_indices(grid, ["left", "right", "bottom", "top"])
    assert idx.size == 12  # 16 nodes minus the 2x2 interior
    interior = {grid.scalar_index(i, j) for i in (1, 2) for j in (1, 2)}
    assert set(idx.tolist()) == set(range(16)) - interior


def test_boundary_indices_1d():
    grid = q.build_grid([(0.0, 1.0)], [7])
    np.testing.assert_array_equal(
        q.boundary_scalar_indices(grid, ["left", "right"]), [0, 6]
    )
    with pytest.raises(ConstraintError):
        q.boundary_scalar_indices(grid, ["top"])


def test_empty_constraint_set_is_identity_reduction():
    pair = build_acoustic_1d(n=8)
    red = q.reduce_system(pair, q.dirichlet_constraints(pair.grid, []))
    assert red.n_total == pair.n_total
    np.testing.assert_array_equal(red.free_indices, np.arange(pair.n_total))
    np.testing.assert_array_equal(red.A.toarray(), pair.A.toarray())
    np.testing.assert_array_equal(np.diag(red.b_diagonal()), np.diag(pair.b_diagonal()))
    np.testing.assert_array_equal(red.source(0.3), np.zeros(pair.n_total))
    assert red.induced.rows.size == 0


def test_pinning_deletes_rows_and_columns():
    pair = build_acoustic_1d(n=10, rho=1.4, c=0.8)
    cons = q.dirichlet_constraints(pair.grid, [0, 9])
    red = q.reduce_system(pair, cons)
    f = red.free_indices
    np.testing.assert_array_equal(f, np.setdiff1d(np.arange(pair.n_total), [0, 9]))
    a_full = pair.A.toarray()
    b_full = np.diag(pair.b_diagonal())
    np.testing.assert_array_equal(red.A.toarray(), a_full[np.ix_(f, f)])
    np.testing.assert_array_equal(np.diag(red.b_diagonal()), b_full[np.ix_(f, f)])
    np.testing.assert_array_equal(red.constrained_indices, [0, 9])


@given(
    red=st.sampled_from([("acoustic", 1), ("acoustic", 2), ("maxwell", 1)])
    .flatmap(lambda family: chiral_systems(*family))
    .filter(lambda system: isinstance(system, q.ReducedSystem)),
    seed=st.integers(0, 2**16),
)
def test_embed_restrict_round_trip(red, seed):
    rng = np.random.default_rng(seed)
    w_free = rng.normal(size=red.n_total)
    full = red.embed(w_free)
    assert full.size == red.parent.n_total
    np.testing.assert_array_equal(red.restrict(full), w_free)
    v = rng.normal(size=red.parent.n_total)
    pinned_zero = v.copy()
    pinned_zero[red.constrained_indices] = 0.0
    np.testing.assert_array_equal(red.embed(red.restrict(v)), pinned_zero)


def test_reduced_evolution_matches_pinned_full_system(rng):
    # Exponentiate both routes: the full generator with pinned rows and
    # columns zeroed is block diagonal, so its free block must agree with
    # the reduced generator's exponential.
    pair = build_acoustic_1d(n=10, rho=1.2, c=0.9)
    pinned = [0, 9]
    red = q.reduce_system(pair, q.dirichlet_constraints(pair.grid, pinned))
    f = red.free_indices

    m_full = np.linalg.solve(np.diag(pair.b_diagonal()), pair.A.toarray())
    m_full[pinned, :] = 0.0
    m_full[:, pinned] = 0.0
    m_red = np.linalg.solve(np.diag(red.b_diagonal()), red.A.toarray())

    t = 0.37
    big = scipy.linalg.expm(t * m_full)
    small = scipy.linalg.expm(t * m_red)
    np.testing.assert_allclose(big[np.ix_(f, f)], small, atol=1e-12)

    w_free = rng.normal(size=red.n_total)
    np.testing.assert_allclose(
        (big @ red.embed(w_free))[f], small @ w_free, atol=1e-12
    )


def test_constant_data_source_is_a_fc_times_data():
    # With b constant in time, db/dt = 0 and s(t) = A_fc R_c^{-1} b.
    pair = build_acoustic_1d(n=12)
    pinned = np.array([0, 11])
    b_level = 0.75
    times = np.array([0.0, 1.0])
    values = np.full((2, 2), b_level)
    red = q.reduce_system(
        pair, q.dirichlet_constraints(pair.grid, pinned, times, values)
    )
    assert red.induced.rows.size > 0
    a_fc = pair.A.toarray()[np.ix_(red.free_indices, pinned)]
    expected = a_fc @ np.full(2, b_level)
    for t in (0.0, 0.25, 0.9):
        np.testing.assert_allclose(red.source(t), expected, atol=1e-14)


def test_time_varying_data_source_uses_central_differences():
    pair = build_acoustic_1d(n=8)
    pinned = np.array([0])
    times = np.linspace(0.0, 1.0, 21)
    values = np.sin(2 * np.pi * times)
    red = q.reduce_system(
        pair, q.dirichlet_constraints(pair.grid, pinned, times, values)
    )
    f = red.free_indices
    a_fc = pair.A.toarray()[np.ix_(f, pinned)]
    b_fc = np.diag(pair.b_diagonal())[np.ix_(f, pinned)]
    db = np.gradient(values, times)
    k = 7
    expected = a_fc @ values[[k]] - b_fc @ db[[k]]
    np.testing.assert_allclose(red.source(times[k]), expected, atol=1e-14)
    # B is diagonal, so the b_fc term vanishes and only A_fc b survives
    assert np.abs(b_fc).max() == 0.0


def test_scalar_data_broadcasts_to_every_pinned_node():
    pair = build_acoustic_1d(n=12)
    times = np.array([0.0, 0.5, 1.0])
    values = np.array([0.0, 1.0, 0.0])
    cons = q.dirichlet_constraints(pair.grid, [0, 5, 11], times, values)
    assert cons.b_values.shape == (3, 3)
    np.testing.assert_array_equal(cons.b_values[1], [1.0, 1.0, 1.0])


@given(
    start=st.floats(-10.0, 10.0),
    steps=st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=7),
    n_c=st.integers(1, 5),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    outside=st.floats(1e-9, 1e3),
    data=st.data(),
)
def test_interp_rows_is_bit_equal_to_per_column_interp(start, steps, n_c, fractions, outside, data):
    times = start + np.cumsum([0.0, *steps])
    values = data.draw(
        arrays(np.float64, (times.size, n_c), elements=st.floats(allow_nan=False))
    )
    # before the first sample, after the last, on every sample, and between samples
    between = [a + f * (b - a) for a, b, f in zip(times[:-1], times[1:], fractions)]
    probes = [times[0] - outside, times[-1] + outside, *times, *between]
    for t in probes:
        expected = np.array([np.interp(t, times, values[:, c]) for c in range(n_c)])
        got = _interp_rows(times, values, t)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), t


def test_interp_rows_follows_interp_on_infinite_samples():
    # inf - inf is NaN; np.interp then blends from the right sample, or keeps an equal pair
    inf = np.inf
    times = np.array([0.0, 1.0, 3.0])
    values = np.array([[inf, inf, 1.0, -inf], [inf, 2.0, inf, 0.0], [-inf, 5.0, 2.0, 1e308]])
    for t in (0.25, 0.5, 1.5, 2.999, -1e308):
        expected = np.array([np.interp(t, times, values[:, c]) for c in range(4)])
        got = _interp_rows(times, values, t)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), t


def test_induced_source_is_bit_equal_to_the_full_product(rng):
    # A driven 2D box: the left wall follows random data, the right wall is
    # pinned to zero. Only free unknowns next to a wall see the data, and the
    # source skips the other rows of A_fc without changing a bit.
    pair = build_acoustic_2d(nx=24, ny=20, rho=lambda x: 1.0 + 0.5 * (x[:, 0] > 0.4))
    left = q.boundary_scalar_indices(pair.grid, ["left"])
    pinned = q.boundary_scalar_indices(pair.grid, ["left", "right"])
    times = np.sort(rng.uniform(0.0, 1.0, 9))
    values = np.zeros((times.size, pinned.size))
    values[:, np.searchsorted(pinned, left)] = rng.normal(size=(times.size, left.size))
    values[3, 0] = np.inf
    red = q.reduce_system(pair, q.dirichlet_constraints(pair.grid, pinned, times, values))
    a_fc = pair.A[red.free_indices][:, pinned]
    assert np.count_nonzero(np.diff(a_fc.indptr)) < red.n_total // 10
    probes = np.concatenate([[-1.0, 2.0], times, rng.uniform(0.0, 1.0, 20)])
    with np.errstate(invalid="ignore"):
        for t in probes:
            full = a_fc @ _interp_rows(times, values, t)
            got = red.source(t)
            assert got.dtype == full.dtype and got.shape == full.shape
            np.testing.assert_array_equal(got.view(np.uint64), full.view(np.uint64))


def test_scaled_identity_r_c_divides_the_data():
    # r_c = 2 I means w_c = b/2; check the induced source halves accordingly.
    pair = build_acoustic_1d(n=10)
    pinned = np.array([0, 9])
    times = np.array([0.0, 1.0])
    values = np.ones((2, 2))
    base = q.dirichlet_constraints(pair.grid, pinned, times, values)
    scaled = q.ConstraintSet(
        constrained=base.constrained,
        r_f=None,
        r_c=sp.csr_matrix(np.diag(np.full(2, 2.0))),
        b_times=times,
        b_values=values,
    )
    s1 = q.reduce_system(pair, base).source(0.5)
    s2 = q.reduce_system(pair, scaled).source(0.5)
    np.testing.assert_allclose(s2, 0.5 * s1, atol=1e-14)


def test_incompatible_coupling_is_rejected(rng):
    # A dense random R_f generically destroys the antisymmetry of the
    # reduced generator, which must be refused rather than silently used.
    pair = build_acoustic_1d(n=8)
    pinned = np.array([0, 14])
    n_free = pair.n_total - 2
    r_f = sp.csr_matrix(rng.normal(size=(2, n_free)))
    cons = q.ConstraintSet(
        constrained=pinned,
        r_f=r_f,
        r_c=sp.csr_matrix(np.eye(2)),
    )
    with pytest.raises(IncompatibleConstraintError):
        q.reduce_system(pair, cons)


def test_an_antisymmetric_reduction_that_couples_scalars_is_refused():
    # eliminating fluxes c1, c2 with R_f rows (a2 / 2, -a1 / 2), a_k the free
    # part of A's column c_k, subtracts the antisymmetric (a1 a2^T - a2 a1^T) / 2
    # from A: the reduction passes its antisymmetry test but couples the
    # scalars next to c1 to those next to c2, which neither solver can take
    pair = build_acoustic_1d(n=8)  # 8 scalars, then 7 fluxes
    pinned = np.array([9, 12])
    free = np.setdiff1d(np.arange(pair.n_total), pinned)
    a1, a2 = pair.A[free][:, pinned].toarray().T
    cons = q.ConstraintSet(
        constrained=pinned, r_f=sp.csr_matrix(np.stack([a2 / 2, -a1 / 2])), r_c=sp.identity(2)
    )
    red = q.reduce_system(pair, cons)
    assert q.antisymmetry_defect(red.A) == 0.0
    with pytest.raises(EncodingError, match=r"entry \(1, 4\) couples two scalar coordinates"):
        q.build_hamiltonian(red)
    with pytest.raises(ValidationError, match="scalar-scalar coupling present"):
        q.leapfrog_evolve(red, np.zeros(red.n_total), 0.5 * q.cfl_limit(red), 0.1)


def test_singular_r_c_is_rejected():
    pair = build_acoustic_1d(n=8)
    cons = q.ConstraintSet(
        constrained=np.array([0, 7]),
        r_f=None,
        r_c=sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])),
        b_times=np.array([0.0, 1.0]),
        b_values=np.ones((2, 2)),
    )
    with pytest.raises(ConstraintError):
        q.reduce_system(pair, cons)


def test_constraint_set_validation():
    eye2 = sp.csr_matrix(np.eye(2))
    with pytest.raises(ConstraintError):
        q.ConstraintSet(constrained=np.array([3, 1]), r_f=None, r_c=eye2)
    with pytest.raises(ConstraintError):
        q.ConstraintSet(
            constrained=np.array([1, 3]),
            r_f=None,
            r_c=sp.csr_matrix(np.eye(3)),
        )
    with pytest.raises(ConstraintError):
        q.ConstraintSet(
            constrained=np.array([1, 3]),
            r_f=None,
            r_c=eye2,
            b_times=np.array([0.0]),
            b_values=np.ones((1, 2)),
        )
    with pytest.raises(ConstraintError):
        q.ConstraintSet(
            constrained=np.array([1, 3]),
            r_f=None,
            r_c=eye2,
            b_times=np.array([0.0, 0.0]),
            b_values=np.ones((2, 2)),
        )
    with pytest.raises(ConstraintError):
        q.dirichlet_constraints(q.build_grid([(0.0, 1.0)], [4]), [4])


def test_constraint_set_refuses_non_finite_couplings():
    # a NaN in the reduced generator would make its antisymmetry test pass silently
    pair = build_acoustic_1d(n=8)
    r_f = np.zeros((2, pair.n_total - 2))
    r_f[1, 3] = np.nan
    with pytest.raises(ConstraintError, match="finite"):
        q.ConstraintSet(constrained=np.array([0, 14]), r_f=sp.csr_matrix(r_f), r_c=sp.csr_matrix(np.eye(2)))
    with pytest.raises(ConstraintError, match="finite"):
        q.ConstraintSet(constrained=np.array([0, 14]), r_f=None, r_c=sp.csr_matrix(np.diag([1.0, np.inf])))


def test_pinning_2d_boundary_keeps_structure():
    pair = build_acoustic_2d(nx=4, ny=4, rho=1.1, c=1.3)
    idx = q.boundary_scalar_indices(pair.grid, ["left", "right", "bottom", "top"])
    red = q.reduce_system(pair, q.dirichlet_constraints(pair.grid, idx))
    assert red.n_total == pair.n_total - 12
    assert q.antisymmetry_defect(red.A) == 0.0
    assert np.all(red.b_diagonal() > 0.0)
