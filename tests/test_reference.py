import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

import qwavesim as q
from qwavesim.checks import _pressure_bump
from qwavesim.constraints import ReducedSystem
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


@pytest.mark.parametrize("record_every", [0, -2])
def test_a_recording_stride_below_one_is_refused(acoustic_1d, record_every):
    # 0 would divide by zero at the first step; -2 would record every second step
    dt = q.cfl_limit(acoustic_1d) / 2
    w0 = np.zeros(acoustic_1d.n_total)
    with pytest.raises(ValidationError, match=f"record_every must be at least 1, got {record_every}"):
        q.leapfrog_evolve(acoustic_1d, w0, dt, 0.1, record_every=record_every)


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


def _dense_leapfrog(system, w0, dt, t_final, samplers, record_every=1, t_start=0.0):
    """The staggered leapfrog as its formulas read, with dense forcing vectors.

    samplers map t to forcing vectors over every unknown and are summed in
    the order given; both halves of the sum are built at t + dt/2 and at
    t + dt, and every update makes a new vector.
    """
    su, sv = system.scalar_slice, system.flux_slice
    a_uv, a_vu = system.A[su, sv].tocsr(), system.A[sv, su].tocsr()
    b = system.b_diagonal()
    bu, bv = b[su], b[sv]
    mu, mv = 1.0 / bu, 1.0 / bv

    def forcing(t):
        if not samplers:
            return 0.0, 0.0
        s = samplers[0](t)
        for extra in samplers[1:]:
            s = s + extra(t)
        return s[su], s[sv]

    n_steps = 0
    if t_final > t_start:
        n_steps = max(1, int(np.ceil((t_final - t_start) / dt - 1e-12)))
    u, v = w0[su].copy(), w0[sv].copy()
    times, fields, energies = [], [], []

    def record(step, u_n, v_colloc, e_n):
        times.append(t_start + step * dt)
        fields.append(np.concatenate([u_n, v_colloc]))
        energies.append(e_n)

    _, sv_t0 = forcing(t_start)
    kick0 = mv * (a_vu @ u + sv_t0)
    v_stream = v + 0.5 * dt * kick0
    v_prev_stream = v - 0.5 * dt * kick0
    record(0, u, v, float(u @ (bu * u) + v_prev_stream @ (bv * v_stream)))
    for n in range(n_steps):
        su_mid, _ = forcing(t_start + (n + 0.5) * dt)
        u = u + dt * mu * (a_uv @ v_stream + su_mid)
        _, sv_next = forcing(t_start + (n + 1) * dt)
        kick = mv * (a_vu @ u + sv_next)
        v_prev_stream = v_stream
        v_stream = v_stream + dt * kick
        if (n + 1) % record_every == 0 or n + 1 == n_steps:
            v_colloc = v_stream - 0.5 * dt * kick
            record(n + 1, u, v_colloc, float(u @ (bu * u) + v_prev_stream @ (bv * v_stream)))
    return np.asarray(times), np.asarray(fields), np.asarray(energies)


def _with_wall_data(system, rng, t0, t1):
    """system with random data on its pinned walls, and that data's A_fc b(t) as a dense sampler."""
    pinned = system.constrained_indices
    times = np.sort(rng.uniform(t0 - 0.2, t1 + 0.2, rng.integers(2, 6)))
    values = rng.normal(size=(times.size, pinned.size))
    driven = q.reduce_system(
        system.parent, q.dirichlet_constraints(system.grid, pinned, times, values)
    )
    a_fc = system.parent.A[driven.free_indices][:, pinned]

    def wall(t):
        return a_fc @ np.array([np.interp(t, times, values[:, c]) for c in range(pinned.size)])

    return driven, wall


def _signed_zeros(rng, w):
    """w with about a third of its entries replaced by 0.0 or -0.0."""
    zeros = np.where(rng.random(w.size) < 0.5, 0.0, -0.0)
    return np.where(rng.random(w.size) < 1 / 3, zeros, w)


def _time_function(rng, t0, t1):
    if rng.random() < 0.5:
        center, sigma = rng.uniform(t0, t1 + 0.1), rng.uniform(0.02, 0.2)
        return q.gaussian_pulse(center, sigma, amplitude=rng.normal())
    a, omega, phase = rng.normal(), rng.uniform(0.0, 20.0), rng.uniform(0.0, 6.3)
    return lambda t: a * np.cos(omega * t + phase)


@pytest.mark.parametrize("kind, dimension", [("acoustic", 1), ("acoustic", 2), ("maxwell", 1)])
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    driven=st.booleans(),
    n_sources=st.integers(0, 3),
    record_every=st.sampled_from([1, 2, 3, 7]),
    courant=st.floats(0.2, 1.0),
    t_start=st.floats(-0.5, 0.5),
    span=st.floats(0.0, 0.6),
)
def test_row_forcing_steps_bit_equal_to_dense_forcing(
    kind, dimension, data, seed, driven, n_sources, record_every, courant, t_start, span
):
    # The leapfrog adds each forcing only on its rows, in place; the dense
    # stepper adds full vectors. Zeros added elsewhere change no bit, because
    # a sparse product never yields -0.0, so the two agree to the last bit.
    system = data.draw(chiral_systems(kind, dimension))
    rng = np.random.default_rng(seed)
    n = system.n_total
    samplers, forcings = [], []
    if isinstance(system, ReducedSystem):
        if driven:
            system, wall = _with_wall_data(system, rng, t_start, t_start + span)
            samplers.append(wall)
        else:
            samplers.append(lambda t: np.zeros(n))  # the homogeneous walls' source
        forcings.append(system.induced)
    # source 0 sits on a row next to a driven wall, source 1 on source 0's node
    wall_rows = system.induced.rows if isinstance(system, ReducedSystem) else np.empty(0)
    anchor = int(rng.choice(wall_rows)) if wall_rows.size else int(rng.integers(n))
    anchors = [anchor, anchor, int(rng.integers(n))][:n_sources]
    chis, fs = [], []
    for row in anchors:
        chi = np.zeros(n)
        chi[row] = rng.normal()
        chi[rng.integers(n)] += rng.normal()
        chis.append(chi)
        fs.append(_time_function(rng, t_start, t_start + span))
    if chis:
        forcings.append(q.RowForcing.of_columns(chis, fs))
        def external(t):
            total = chis[0] * fs[0](t)
            for chi, f in zip(chis[1:], fs[1:]):
                total = total + chi * f(t)
            return total

        samplers.append(external)
    w0 = _signed_zeros(rng, rng.normal(size=n) if rng.random() < 0.75 else np.zeros(n))
    dt = courant * q.cfl_limit(system)
    t_final = t_start + span
    got = q.leapfrog_evolve(
        system, w0, dt, t_final, forcings=forcings, record_every=record_every, t_start=t_start
    )
    times, fields, energy = _dense_leapfrog(system, w0, dt, t_final, samplers, record_every, t_start)
    assert got.times.tobytes() == times.tobytes()
    assert got.fields.tobytes() == fields.tobytes()
    assert got.energy.tobytes() == energy.tobytes()


@pytest.mark.parametrize("walls", [(), ("left",), ("left", "right")])
@given(
    n=st.integers(64, 96),
    c=st.floats(0.5, 1.0),
    sigma=st.floats(0.003, 0.008),  # the pulse's causal ball stays inside [0, 1]
    polarization=st.tuples(st.floats(0.25, 2.0), st.floats(-2.0, 2.0)),
    courant=st.floats(0.2, 1.0),
)
def test_presimulated_pulse_is_bit_equal_to_dense_forcing(walls, n, c, sigma, polarization, courant):
    pair = build_acoustic_1d(n=n, c=c)
    system = pair
    if walls:
        system = q.reduce_system(
            pair, q.dirichlet_constraints(pair.grid, q.boundary_scalar_indices(pair.grid, list(walls)))
        )
    f = q.gaussian_pulse(7.0 * sigma, sigma)
    src = q.PointSource(location=(n // 2,), polarization=polarization, time_function=f)
    dt = courant * q.cfl_limit(system)
    got = q.presimulate_pulse(src, system, dt=dt)
    chi = system.restrict(q.chi_pattern(src, pair.grid))
    samplers = [lambda t: chi * f(t)]  # the pulse alone: homogeneous walls are not integrated

    def dense(system_, w0, dt_, t_final, forcings, record_every, t_start):
        times, fields, energy = _dense_leapfrog(system_, w0, dt_, t_final, samplers, record_every, t_start)
        return q.Trajectory(times=times, fields=fields, energy=energy, dt=dt_)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(q.sources, "leapfrog_evolve", dense)
        expected = q.presimulate_pulse(src, system, dt=dt)
    assert got.field.tobytes() == expected.field.tobytes()
    assert got.nonzero_count == expected.nonzero_count


@pytest.mark.parametrize(
    "rows, halves",
    [((3,), "scalar"), ((20, 25), "flux"), ((3, 5, 20), "both")],
)
def test_each_half_of_a_forcing_is_sampled_once_per_step(rows, halves):
    # rows 0..15 are the scalar nodes of the 1D n=16 pair, 16..30 its fluxes
    system = build_acoustic_1d(n=16)
    calls = []

    def coefficients(t):
        calls.append(t)
        return np.array([np.sin(3.0 * t)])

    pattern = scipy.sparse.csr_matrix(np.ones((len(rows), 1)))
    forcing = q.RowForcing(system.n_total, np.array(rows), pattern, coefficients)
    dt, t0 = 0.5 * q.cfl_limit(system), 0.125
    tr = q.leapfrog_evolve(system, np.zeros(system.n_total), dt, t0 + 10 * dt,
                           forcings=[forcing], record_every=4, t_start=t0)
    assert tr.times[-1] == t0 + 10 * dt
    expected = [t0] if halves != "scalar" else []  # the first half kick
    for n in range(10):
        if halves != "flux":
            expected.append(t0 + (n + 0.5) * dt)
        if halves != "scalar":
            expected.append(t0 + (n + 1) * dt)
    assert calls == expected
    assert np.any(tr.final != 0.0)


def test_the_leapfrog_never_reads_the_dense_source_view():
    pair = build_acoustic_2d(nx=10, ny=8)
    pinned = q.boundary_scalar_indices(pair.grid, ["left", "right"])
    times = np.array([0.0, 0.05, 0.2])
    values = np.outer([0.0, 1.0, 0.0], np.ones(pinned.size))
    red = q.reduce_system(pair, q.dirichlet_constraints(pair.grid, pinned, times, values))
    dt = 0.5 * q.cfl_limit(red)
    before = q.leapfrog_evolve(red, np.zeros(red.n_total), dt, 0.2, forcings=[red.induced])

    def refuse(_t):
        raise AssertionError("the leapfrog sampled the dense view of the wall source")

    object.__setattr__(red, "source", refuse)  # the dataclass is frozen
    after = q.leapfrog_evolve(red, np.zeros(red.n_total), dt, 0.2, forcings=[red.induced])
    assert after.fields.tobytes() == before.fields.tobytes()
    assert np.abs(after.final).max() > 0.0


def test_the_leapfrog_refuses_a_forcing_of_another_size(acoustic_1d):
    dt = 0.5 * q.cfl_limit(acoustic_1d)
    w0 = np.zeros(acoustic_1d.n_total)
    wrong = q.RowForcing.of_columns([np.ones(acoustic_1d.n_total + 1)], [np.cos])
    with pytest.raises(ValidationError, match="RowForcing over the system's unknowns"):
        q.leapfrog_evolve(acoustic_1d, w0, dt, 0.1, forcings=[wrong])
    with pytest.raises(ValidationError, match="RowForcing over the system's unknowns"):
        q.leapfrog_evolve(acoustic_1d, w0, dt, 0.1, forcings=[lambda t: np.ones(w0.size)])


def test_trajectory_requires_consistent_lengths():
    with pytest.raises(ValidationError):
        q.Trajectory(
            times=np.zeros(3), fields=np.zeros((2, 4)), energy=np.zeros(3), dt=0.1
        )


def _hinted(f, dt_hint=1.0):
    """f carrying the dt_hint, its smoothness scale, that spectral_forced_solution requires."""
    f.dt_hint = dt_hint
    return f


def test_spectral_solution_is_linear_in_the_drive():
    system = build_acoustic_1d(n=64)
    chi = np.zeros(system.n_total)
    chi[32] = 1.0
    f1 = q.gaussian_pulse(0.1, 0.03)
    f2 = q.ricker_wavelet(0.2, 0.05)
    one = q.spectral_forced_solution(system, chi, f1, 0.0, 0.4)
    two = q.spectral_forced_solution(system, chi, f2, 0.0, 0.4)
    both = q.spectral_forced_solution(
        system, chi, _hinted(lambda t: f1(t) + f2(t), min(f1.dt_hint, f2.dt_hint)), 0.0, 0.4
    )
    np.testing.assert_allclose(both, one + two, atol=1e-10)


def test_spectral_free_evolution_matches_the_unitary_route():
    system = build_acoustic_1d(n=64)
    w0 = _pressure_bump(system, 0.5, 0.05)
    out = q.spectral_forced_solution(
        system, np.zeros(system.n_total), _hinted(lambda t: np.zeros_like(t)), 0.0, 0.3, w0=w0
    )
    ham = q.build_hamiltonian(system)
    exact = q.decode(q.evolve(q.encode(w0, system), ham, 0.3), system)
    np.testing.assert_allclose(out, exact, atol=1e-12)


def test_spectral_solution_matches_expm_with_flux_data_and_drive():
    # Data and drive on scalar and flux unknowns alike, so both the real and
    # the imaginary halves of the chiral eigenvectors enter the projections;
    # without data (w0=None) the forced part is the only column.
    system = build_acoustic_1d(n=24, rho=lambda x: 1.0 + 0.4 * np.sin(5.0 * x[:, 0]))
    rng = np.random.default_rng(3)
    w0, chi = rng.normal(size=(2, system.n_total))
    b = system.b_diagonal()
    lifted = np.zeros((system.n_total + 1, system.n_total + 1))
    lifted[:-1, :-1] = system.A.toarray() / b[:, None]
    lifted[:-1, -1] = chi / b
    for data in (w0, None):
        out = q.spectral_forced_solution(
            system, chi, _hinted(lambda t: np.ones_like(t)), 0.0, 0.3, w0=data
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
    dt_hint=st.sampled_from([1.0, 0.01]),
    seed=st.integers(0, 2**16),
)
def test_table_quadrature_matches_expm_of_the_lifted_system(
    kind, dimension, data, t0, span, omega, phase, dt_hint, seed
):
    # f = cos(omega t + phase) is the first coordinate of a rotation, so the
    # forced system lifts to a homogeneous one two coordinates larger; its
    # hint resolves omega, and a dt_hint of 0.01 spreads the quadrature over
    # several panel chunks
    system = data.draw(chiral_systems(kind, dimension))
    n = system.n_total
    rng = np.random.default_rng(seed)
    w0, chi = rng.normal(size=(2, n))

    def f(t):
        return np.cos(omega * t + phase)

    f.dt_hint = min(dt_hint, 1.0 / (1.0 + omega))
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
def test_a_forcing_faster_than_the_grid_is_resolved_by_its_hint(system, omega):
    # the largest frequency of these grids is 2 or less, so panels sized from it
    # alone under-resolve cos(omega t); the forcing's dt_hint resolves it
    n = system.n_total
    chi = np.random.default_rng(5).normal(size=n)
    f = _hinted(lambda t: np.cos(omega * t), 1.0 / omega)
    out = q.spectral_forced_solution(system, chi, f, 0.0, 1.0)
    b = system.b_diagonal()
    lifted = np.zeros((n + 2, n + 2))
    lifted[:n, :n] = system.A.toarray() / b[:, None]
    lifted[:n, n] = chi / b
    lifted[n, n + 1], lifted[n + 1, n] = -omega, omega
    exact = scipy.linalg.expm(lifted) @ np.append(np.zeros(n), [1.0, 0.0])
    np.testing.assert_allclose(out, exact[:n], rtol=0, atol=1e-11 * np.abs(exact).max())


@pytest.mark.parametrize("hint", [None, 0.0, -0.1, np.nan, np.inf, "0.1"])
def test_a_forcing_without_a_finite_positive_hint_is_refused(hint):
    # panels sized from the grid alone would under-resolve a faster forcing
    # without a word, so the forcing must say how fast it is
    system = build_acoustic_1d(n=16)  # 31 unknowns
    f = lambda t: np.cos(40.0 * t)  # noqa: E731
    if hint is not None:
        f.dt_hint = hint
    with pytest.raises(ValidationError, match="needs a finite positive dt_hint"):
        q.spectral_forced_solution(system, np.ones(31), f, 0.0, 1.0)


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
            system, np.ones(31), _hinted(lambda t: np.ones_like(t)), 0.0, 0.1, w0=w0
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_forced_solution_refuses_a_non_finite_forcing_pattern(bad):
    chi = np.ones(31)
    chi[3] = bad
    with pytest.raises(ValidationError, match="forcing pattern"):
        q.spectral_forced_solution(
            build_acoustic_1d(n=16), chi, _hinted(lambda t: np.ones_like(t)), 0.0, 0.1
        )


def test_forced_solution_refuses_a_complex_initial_vector():
    system = build_acoustic_1d(n=16)  # 31 unknowns
    ones = _hinted(lambda t: np.ones_like(t))
    w0 = np.zeros(31, dtype=complex)
    w0[4] = 1e-3j
    with pytest.raises(EvolutionError, match="initial vector must be real"):
        q.spectral_forced_solution(system, np.ones(31), ones, 0.0, 0.1, w0=w0)
    # the dtype decides, not the values: a zero imaginary part is refused too
    w0[4] = 1.0
    with pytest.raises(EvolutionError, match="initial vector must be real"):
        q.spectral_forced_solution(system, np.ones(31), ones, 0.0, 0.1, w0=w0)


def _one_exponential_per_panel(freqs, f, dt_hint, t0, t1):
    """The forced solve's quadrature as it was before the phase recurrence, the reference.

    One complex node table, and one complex exponential per (frequency,
    panel) pair, taken PANEL_CHUNK panels at a time.
    """
    if t1 == t0:
        return np.zeros(freqs.size, dtype=np.complex128), 0.0
    freq_max = float(np.abs(freqs).max()) if freqs.size else 0.0
    h = min(t1 - t0, dt_hint)
    if freq_max > 0.0:
        h = min(h, 2.5 / freq_max)
    n_panels = int(np.ceil((t1 - t0) / h))
    acc = np.zeros(freqs.size, dtype=np.complex128)
    nodes, weights = np.polynomial.legendre.leggauss(q.reference.GL_NODES)
    edges = np.linspace(t0, t1, n_panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (t1 - t0) / n_panels
    s_q = centers[None, :] + half * nodes[:, None]
    f_q = np.asarray(f(s_q.ravel()), dtype=np.float64).reshape(s_q.shape)
    f_q = f_q * (half * weights)[:, None]
    node_phase = np.exp(1j * np.outer(freqs, half * nodes))
    for p in range(0, n_panels, q.reference.PANEL_CHUNK):
        chunk = slice(p, p + q.reference.PANEL_CHUNK)
        panel_phase = np.exp(-1j * np.outer(freqs, t1 - centers[chunk]))
        acc += np.einsum("kp,kp->k", panel_phase, node_phase @ f_q[:, chunk])
    return acc, float(f_q.sum())


_CHUNK = q.reference.PANEL_CHUNK


@given(
    panels=st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]),
    span=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
    offset=st.floats(-2.0, 2.0),
    n_freqs=st.integers(0, 40),
    lowest=st.sampled_from(["zero", "low"]),
    seed=st.integers(0, 2**16),
)
def test_the_phase_recurrence_matches_one_exponential_per_panel(
    panels, span, offset, n_freqs, lowest, seed
):
    # a hint of span / (panels - 1/2) makes exactly `panels` panels, and the
    # frequencies stay below 2.5 / hint, so the hint alone sets the width;
    # the lowest frequency turns by at most 1 over the span, so max|acc| is
    # of the order of sum |f| and measures the rounding of the sum
    rng = np.random.default_rng(seed)
    t0 = offset * max(span, 1e-3)
    hint = span / (panels - 0.5) if span else 0.1
    freqs = rng.uniform(0.0, 2.5 / hint, size=n_freqs)
    if n_freqs:
        freqs[0] = 0.0 if lowest == "zero" else rng.uniform(0.0, 1.0 / max(span, 1e-3))
    a, b, c = rng.uniform(0.5, 1.5, size=3)
    evaluated = []

    def f(t):
        evaluated.append(t.size)
        return 1.0 + 0.5 * np.sin(a * (t - t0) / max(span, 1e-3) + b) * np.exp(-c * (t - t0) ** 2)

    acc, total = q.reference._duhamel_integrals(freqs, f, hint, t0, t0 + span)
    want, want_total = _one_exponential_per_panel(freqs, f, hint, t0, t0 + span)
    assert acc.shape == want.shape == (n_freqs,)
    assert total == want_total  # int f is the same sum of the same products, bit for bit
    if span:
        assert evaluated == [q.reference.GL_NODES * panels] * 2  # once per quadrature
    else:
        assert evaluated == [] and total == 0.0
        np.testing.assert_array_equal(acc, 0.0)
    if n_freqs:
        np.testing.assert_allclose(acc, want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_the_quadrature_holds_no_phase_table_of_every_panel():
    # 16,383 frequencies of a 128^2 box over twelve chunks of panels: the
    # temporaries are n x PANEL_CHUNK tables, so the peak stays below four
    # complex ones, where one n x panels table alone would be three times that
    import tracemalloc

    ham = q.build_hamiltonian(build_acoustic_2d(128, 128))
    freqs = ham.frequencies()
    assert freqs.size == 16383
    h = 2.5 / freqs.max()  # the width the largest frequency sets
    span = 12 * _CHUNK * h * (1.0 - 1e-9)
    evaluated = []

    def f(t):
        evaluated.append(t.size)
        return np.exp(-(((t - 0.5 * span) / span) ** 2))

    tracemalloc.start()
    try:
        q.reference._duhamel_integrals(freqs, f, 1.0, 0.0, span)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert evaluated == [q.reference.GL_NODES * 12 * _CHUNK]
    assert peak < 4 * freqs.size * _CHUNK * 16


_HETEROGENEOUS = dict(rho=lambda x: 1.0 + 0.4 * np.sin(5.0 * x[:, 0]))


@pytest.mark.parametrize("with_data", [False, True], ids=["no-w0", "w0"])
@pytest.mark.parametrize(
    "system, basis",
    [(build_acoustic_1d(n=64), "box"), (build_acoustic_2d(9, 7, rho=1.3, c=0.7), "box"),
     (build_acoustic_1d(n=48, **_HETEROGENEOUS), "svd")],
    ids=["box-1d", "box-2d", "svd-1d"],
)
def test_several_forcings_in_one_call_equal_one_call_each(system, basis, with_data):
    assert q.build_hamiltonian(system).basis == basis
    rng = np.random.default_rng(11)
    chi, w0 = rng.normal(size=(2, system.n_total))
    data = w0 if with_data else None
    fs = [q.gaussian_pulse(0.1, 0.02), q.ricker_wavelet(9.0, 0.3), q.windowed_sine(4.0, 0.05, 0.4)]
    t0 = [g.t_start for g in fs]
    t1 = [g.t_end + 0.05 * j for j, g in enumerate(fs)]
    several = q.spectral_forced_solution(system, chi, fs, t0, t1, w0=data)
    one_each = np.stack(
        [q.spectral_forced_solution(system, chi, g, a, b, w0=data) for g, a, b in zip(fs, t0, t1)],
        axis=1,
    )
    assert several.shape == (system.n_total, 3)
    if basis == "box":
        # the DCTs and the CSR products act column by column
        np.testing.assert_array_equal(several, one_each)
    else:
        # numpy multiplies one column by the dense U and V with a matrix-vector
        # product, several with a matrix product, which sums in another order
        np.testing.assert_allclose(
            several, one_each, rtol=0,
            atol=system.n_total * np.finfo(float).eps * np.abs(one_each).max(),
        )


@pytest.mark.parametrize(
    "f, t0, t1",
    [([], [], []), ([np.cos], [0.0, 0.1], [1.0, 1.0]), ([np.cos], 0.0, 1.0),
     ([np.cos], [0.0], 1.0)],
    ids=["none", "more-t0", "one-t0", "one-t1"],
)
def test_several_forcings_need_as_many_times(f, t0, t1):
    system = build_acoustic_1d(n=16)
    with pytest.raises(ValidationError, match="forcing"):
        q.spectral_forced_solution(system, np.ones(system.n_total), f, t0, t1)


def test_a_forced_solve_past_the_cell_update_budget_is_refused_before_allocating():
    # a sample table whose smallest spacing is 1e-12: its panels of 1e-12 over
    # 0.16 ended in a 520 GiB allocation
    import tracemalloc

    system = build_acoustic_1d(n=128)
    times = np.r_[0.0, 1e-12, 0.001 * np.arange(1, 161)]
    values = np.r_[0.0, 0.0, np.exp(-0.5 * ((times[2:-1] - 0.08) / 0.01) ** 2), 0.0]
    f = q.time_function_from_samples(times, values)
    assert f.dt_hint == 1e-12
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="too many for the budget of 1e"):
            q.spectral_forced_solution(system, np.ones(system.n_total), f, 0.0, 0.16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
