import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

import qwavesim as q
from qwavesim.checks import _pressure_bump
from qwavesim.errors import EvolutionError, ValidationError

from conftest import build_acoustic_1d, build_acoustic_2d, chiral_systems


def test_zero_state_stays_zero(acoustic_1d):
    dt = q.cfl_limit(acoustic_1d) / 2
    tr = q.leapfrog_evolve(acoustic_1d, np.zeros(acoustic_1d.n_total), dt, 0.1)
    np.testing.assert_array_equal(tr.fields, 0.0)
    np.testing.assert_array_equal(tr.energy, 0.0)


def test_energy_series_is_flat_without_sources():
    system = build_acoustic_1d(n=256)
    w0 = _pressure_bump(system, 0.5, 0.02)
    tr = q.leapfrog_evolve(system, w0, q.cfl_limit(system) / 2, 0.4)
    assert np.ptp(tr.energy) / tr.energy[0] < 1e-12


def test_initial_energy_tracks_the_material_norm():
    system = build_acoustic_1d(n=64)
    w0 = _pressure_bump(system, 0.5, 0.05)
    tr = q.leapfrog_evolve(system, w0, q.cfl_limit(system) / 8, 0.05)
    expected = w0 @ (system.b_diagonal() * w0)
    # The staggered bookkeeping shifts the flux sample by half a step, so the
    # match tightens with dt but is not exact.
    assert tr.energy[0] == pytest.approx(expected, rel=1e-2)


def test_pulse_travels_at_the_material_speed():
    system = build_acoustic_1d(n=256)
    xs = system.grid.scalar_coords.reshape(-1)
    w0 = _pressure_bump(system, 0.5, 0.02)
    tr = q.leapfrog_evolve(system, w0, q.cfl_limit(system) / 2, 0.2)
    p = tr.final[system.scalar_slice]
    dx = system.grid.spacing[0]
    right = xs[xs > 0.5][np.argmax(p[xs > 0.5])]
    left = xs[xs < 0.5][np.argmax(p[xs < 0.5])]
    travelled = tr.times[-1] - tr.times[0]
    assert abs(right - (0.5 + travelled)) <= dx + 1e-12
    assert abs(left - (0.5 - travelled)) <= dx + 1e-12


def test_stepper_is_time_reversible():
    system = build_acoustic_1d(n=128)
    w0 = _pressure_bump(system, 0.5, 0.04)
    dt = q.cfl_limit(system) / 2
    fwd = q.leapfrog_evolve(system, w0, dt, 0.3)
    mirrored = fwd.final.copy()
    mirrored[system.flux_slice] *= -1.0
    back = q.leapfrog_evolve(system, mirrored, dt, fwd.times[-1])
    recovered = back.final.copy()
    recovered[system.flux_slice] *= -1.0
    np.testing.assert_allclose(recovered, w0, atol=1e-10)


def test_convergence_is_second_order():
    system = build_acoustic_1d(n=64)
    w0 = _pressure_bump(system, 0.5, 0.05)
    ham = q.build_hamiltonian(system)
    errs = []
    for k in (2, 4, 8):
        tr = q.leapfrog_evolve(system, w0, q.cfl_limit(system) / k, 0.25)
        exact = q.decode(q.evolve(q.encode(w0, system), ham, tr.times[-1]), system)
        errs.append(np.linalg.norm(tr.final - exact) / np.linalg.norm(exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 < o < 2.2 for o in orders)
    assert errs[-1] < 1e-3


def test_cfl_limit_values():
    s1 = build_acoustic_1d(n=101, c=2.0)
    assert q.cfl_limit(s1) == pytest.approx(0.9 * s1.grid.spacing[0] / 2.0)
    s2 = build_acoustic_2d(nx=8, ny=8, c=3.0)
    dx = min(s2.grid.spacing)
    assert q.cfl_limit(s2) == pytest.approx(0.9 * dx / (3.0 * np.sqrt(2.0)))


def test_overlong_step_is_rejected(acoustic_1d):
    w0 = np.zeros(acoustic_1d.n_total)
    w0[0] = 1.0
    dt = 1.01 * q.cfl_limit(acoustic_1d)
    with pytest.raises(ValidationError):
        q.leapfrog_evolve(acoustic_1d, w0, dt, 0.1)


def test_bad_arguments_are_rejected(acoustic_1d):
    dt = q.cfl_limit(acoustic_1d) / 2
    with pytest.raises(ValidationError):
        q.leapfrog_evolve(acoustic_1d, np.zeros(3), dt, 0.1)
    with pytest.raises(ValidationError):
        q.leapfrog_evolve(
            acoustic_1d, np.zeros(acoustic_1d.n_total), dt, 0.1, t_start=0.2
        )
    with pytest.raises(ValidationError):
        q.leapfrog_evolve(acoustic_1d, np.zeros(acoustic_1d.n_total), -dt, 0.1)


def test_recording_stride_keeps_endpoints():
    system = build_acoustic_1d(n=64)
    w0 = _pressure_bump(system, 0.5, 0.05)
    dt = q.cfl_limit(system) / 2
    tr = q.leapfrog_evolve(system, w0, dt, 0.2, record_every=7)
    assert tr.times[0] == 0.0
    dense = q.leapfrog_evolve(system, w0, dt, 0.2)
    assert tr.times[-1] == dense.times[-1]
    np.testing.assert_allclose(tr.final, dense.final, atol=1e-12)
    assert len(tr.times) == len(tr.fields) == len(tr.energy)
    assert len(tr.times) < len(dense.times)


def test_leapfrog_refuses_scalar_scalar_coupling():
    # an antisymmetric coupling between two scalar nodes breaks the staggered two-block form
    pair = build_acoustic_1d(n=16)
    coupling = scipy.sparse.csr_matrix(([1.0, -1.0], ([0, 1], [1, 0])), shape=pair.A.shape)
    coupled = dataclasses.replace(pair, A=(pair.A + coupling).tocsr())
    with pytest.raises(
        ValidationError,
        match="leapfrog needs the two-block staggered structure; scalar-scalar coupling present",
    ):
        q.leapfrog_evolve(coupled, np.zeros(pair.n_total), 0.5 * q.cfl_limit(pair), 0.1)


def test_trajectory_requires_consistent_lengths():
    with pytest.raises(ValidationError):
        q.Trajectory(
            times=np.zeros(3), fields=np.zeros((2, 4)), energy=np.zeros(3), dt=0.1
        )


def test_spectral_solution_is_linear_in_the_drive():
    system = build_acoustic_1d(n=64)
    chi = np.zeros(system.n_total)
    chi[32] = 1.0
    f1 = q.gaussian_pulse(0.1, 0.03)
    f2 = q.ricker_wavelet(0.2, 0.05)
    one = q.spectral_forced_solution(system, chi, f1, 0.0, 0.4)
    two = q.spectral_forced_solution(system, chi, f2, 0.0, 0.4)
    both = q.spectral_forced_solution(
        system, chi, lambda t: f1(t) + f2(t), 0.0, 0.4
    )
    np.testing.assert_allclose(both, one + two, atol=1e-10)


def test_spectral_free_evolution_matches_the_unitary_route():
    system = build_acoustic_1d(n=64)
    w0 = _pressure_bump(system, 0.5, 0.05)
    out = q.spectral_forced_solution(
        system, np.zeros(system.n_total), lambda t: np.zeros_like(t), 0.0, 0.3, w0=w0
    )
    ham = q.build_hamiltonian(system)
    exact = q.decode(q.evolve(q.encode(w0, system), ham, 0.3), system)
    np.testing.assert_allclose(out, exact, atol=1e-12)


def test_spectral_solution_matches_expm_with_flux_data_and_drive():
    # Data and drive on scalar and flux unknowns alike, so both the real and
    # the imaginary halves of the chiral eigenvectors enter the projections;
    # without data (w0=None) the forced part is the only column.
    system = build_acoustic_1d(n=24, rho=lambda x: 1.0 + 0.4 * np.sin(5.0 * x[0]))
    rng = np.random.default_rng(3)
    w0, chi = rng.normal(size=(2, system.n_total))
    b = system.b_diagonal()
    lifted = np.zeros((system.n_total + 1, system.n_total + 1))
    lifted[:-1, :-1] = system.A.toarray() / b[:, None]
    lifted[:-1, -1] = chi / b
    for data in (w0, None):
        out = q.spectral_forced_solution(
            system, chi, lambda t: np.ones_like(t), 0.0, 0.3, w0=data
        )
        start = np.append(np.zeros(system.n_total) if data is None else data, 1.0)
        exact = scipy.linalg.expm(0.3 * lifted) @ start
        np.testing.assert_allclose(out, exact[:-1], rtol=0, atol=1e-11 * np.abs(exact).max())


@pytest.mark.parametrize("kind, dimension", [("acoustic", 1), ("acoustic", 2), ("maxwell", 1)])
@given(
    data=st.data(),
    t0=st.floats(-1.0, 1.0),
    span=st.floats(1e-3, 1.0),
    omega=st.floats(0.0, 20.0),
    phase=st.floats(0.0, 2.0 * np.pi),
    dt_hint=st.sampled_from([None, 0.01]),
    seed=st.integers(0, 2**16),
)
def test_table_quadrature_matches_expm_of_the_lifted_system(
    kind, dimension, data, t0, span, omega, phase, dt_hint, seed
):
    # f = cos(omega t + phase) is the first coordinate of a rotation, so the
    # forced system lifts to a homogeneous one two coordinates larger; a
    # dt_hint of 0.01 spreads the quadrature over several panel chunks
    system = data.draw(chiral_systems(kind, dimension))
    n = system.n_total
    rng = np.random.default_rng(seed)
    w0, chi = rng.normal(size=(2, n))

    def f(t):
        return np.cos(omega * t + phase)

    if dt_hint is not None:
        f.dt_hint = dt_hint
    out = q.spectral_forced_solution(system, chi, f, t0, t0 + span, w0=w0)
    b = system.b_diagonal()
    lifted = np.zeros((n + 2, n + 2))
    lifted[:n, :n] = system.A.toarray() / b[:, None]
    lifted[:n, n] = chi / b
    lifted[n, n + 1], lifted[n + 1, n] = -omega, omega
    start = np.append(w0, [np.cos(omega * t0 + phase), np.sin(omega * t0 + phase)])
    exact = scipy.linalg.expm(span * lifted) @ start
    np.testing.assert_allclose(out, exact[:n], rtol=0, atol=1e-11 * np.abs(exact).max())


@pytest.mark.parametrize(
    "system, omega",
    [(build_acoustic_2d(2, 2), 12.0), (build_acoustic_2d(2, 2), 20.0), (build_acoustic_1d(2), 20.0)],
    ids=["2d-2x2-omega12", "2d-2x2-omega20", "1d-n2-omega20"],
)
def test_a_forcing_faster_than_the_grid_without_a_hint_is_resolved(system, omega):
    # the largest frequency of these grids is 2 or less, so panels sized from it
    # alone under-resolve cos(omega t); without a dt_hint they are halved instead
    n = system.n_total
    chi = np.random.default_rng(5).normal(size=n)
    out = q.spectral_forced_solution(system, chi, lambda t: np.cos(omega * t), 0.0, 1.0)
    b = system.b_diagonal()
    lifted = np.zeros((n + 2, n + 2))
    lifted[:n, :n] = system.A.toarray() / b[:, None]
    lifted[:n, n] = chi / b
    lifted[n, n + 1], lifted[n + 1, n] = -omega, omega
    exact = scipy.linalg.expm(lifted) @ np.append(np.zeros(n), [1.0, 0.0])
    np.testing.assert_allclose(out, exact[:n], rtol=0, atol=1e-11 * np.abs(exact).max())


@pytest.mark.parametrize(
    "w0",
    [np.zeros(30), np.zeros(32), np.zeros((31, 1)), np.full(31, np.nan),
     np.r_[np.zeros(30), np.inf]],
    ids=["short", "long", "column", "nan", "inf"],
)
def test_forced_solution_refuses_a_malformed_initial_vector(w0):
    system = build_acoustic_1d(n=16)  # 31 unknowns
    with pytest.raises(ValidationError, match="initial vector"):
        q.spectral_forced_solution(
            system, np.ones(31), lambda t: np.ones_like(t), 0.0, 0.1, w0=w0
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_forced_solution_refuses_a_non_finite_forcing_pattern(bad):
    chi = np.ones(31)
    chi[3] = bad
    with pytest.raises(ValidationError, match="forcing pattern"):
        q.spectral_forced_solution(build_acoustic_1d(n=16), chi, lambda t: np.ones_like(t), 0.0, 0.1)


def test_forced_solution_refuses_a_complex_initial_vector():
    system = build_acoustic_1d(n=16)  # 31 unknowns
    w0 = np.zeros(31, dtype=complex)
    w0[4] = 1e-3j
    with pytest.raises(EvolutionError, match="inputs are not a real system"):
        q.spectral_forced_solution(
            system, np.ones(31), lambda t: np.ones_like(t), 0.0, 0.1, w0=w0
        )
    # a complex vector with a zero imaginary part is a real one
    w0[4] = 1.0
    out = q.spectral_forced_solution(
        system, np.ones(31), lambda t: np.ones_like(t), 0.0, 0.1, w0=w0
    )
    real = q.spectral_forced_solution(
        system, np.ones(31), lambda t: np.ones_like(t), 0.0, 0.1, w0=w0.real
    )
    np.testing.assert_array_equal(out, real)
