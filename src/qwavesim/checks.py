"""Check registry: the paper's invariants as named tolerance rows.

Every check returns a list of (name, value, tol) rows, and a row passes
when value <= tol (a NaN value fails). A strict bound "value < b" is stored
as tol = the largest double below b, so one comparison serves every row.
Every tol is finite and >= 0; a yes/no condition is a 0/1 row with tol 0.
The checks are grouped into the suites that ``qwavesim verify SUITE`` runs.
All twelve acceptance checks live here, and the acceptance gate
(tests/test_acceptance.py) runs every check of every suite, so each input
and tolerance lives in exactly one place.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .constraints import (
    ConstraintSet,
    boundary_scalar_indices,
    dirichlet_constraints,
    reduce_system,
)
from .discretize import MaterialModel, antisymmetry_defect, assemble_operator_pair, build_grid
from .encoding import Hamiltonian, build_hamiltonian, decode, encode, stack_substates
from .errors import IncompatibleConstraintError
from .evolution import build_mult_hamiltonian, build_sync_hamiltonian, evolve
from .initcircuit import (
    PolarGridSpec,
    RadialField,
    build_circuit,
    direct_polar_state,
    fidelity,
    sample_reference_ray,
    simulate_circuit,
)
from .measurement import (
    EstimatorConfig,
    SubspaceProjector,
    augment_state,
    estimate,
    multi_state_observable,
    pauli_expectation,
    two_state_observable,
)
from .reference import cfl_limit, leapfrog_evolve, spectral_forced_solution
from .sources import (
    TAIL_CUT,
    PointSource,
    assemble_multisource_state,
    chi_pattern,
    gaussian_pulse,
    greens_decompose,
    presimulate_pulse,
    window_schedule,
)


def _acoustic(bounds, shape, rho, c):
    grid = build_grid(bounds, shape)
    return grid, assemble_operator_pair(grid, MaterialModel.acoustic(grid, rho=rho, c=c))


def _pressure_bump(pair, center, sigma):
    """Collocated data: a Gaussian pressure bump at rest."""
    xs = pair.grid.scalar_coords[:, 0]
    w0 = np.zeros(pair.n_total)
    w0[: pair.grid.n_scalar] = np.exp(-((xs - center) ** 2) / (2.0 * sigma**2))
    return w0


def _symmetry_rows(label, system):
    return [
        (f"{label} generator antisymmetry", antisymmetry_defect(system.A), 0.0),
        (f"{label} hermiticity", build_hamiltonian(system).hermiticity_defect(), 1e-12),
    ]


def symmetry():
    """Exact generator antisymmetry and Hamiltonian Hermiticity.

    Position-dependent materials, so the checks see non-uniform weights.
    """

    def rho_1d(x):
        return 1.0 + 0.3 * np.sin(3.0 * x[:, 0])

    def c_1d(x):
        return 0.8 + 0.2 * np.cos(2.0 * x[:, 0])

    def rho_2d(x):
        return 1.5 + 0.4 * (np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1]))

    def eps(x):
        return 2.0 + x[:, 0]

    cases = [
        (f"acoustic 1D N={n}", _acoustic([(0.0, 1.0)], [n], rho_1d, c_1d)[1])
        for n in (8, 64, 256)
    ]
    _, pair_2d = _acoustic([(0.0, 1.0), (0.0, 2.0)], [12, 16], rho_2d, 1.1)
    cases.append(("acoustic 2D 12x16", pair_2d))
    grid = build_grid([(0.0, 1.0)], [128])
    maxwell = assemble_operator_pair(grid, MaterialModel.maxwell1d(grid, eps=eps, mu=0.5))
    cases.append(("maxwell 1D N=128", maxwell))
    return [row for label, pair in cases for row in _symmetry_rows(label, pair)]


def conservation():
    """Norm and energy drift of a pressure bump over five domain crossings."""
    _, pair = _acoustic([(0.0, 1.0)], [128], 1.0, 1.0)
    state = encode(_pressure_bump(pair, 0.5, 0.05), pair)
    evolved = evolve(state, build_hamiltonian(pair), 5.0)  # domain length 1 at c = 1
    norm_drift = abs(float(np.linalg.norm(evolved.amplitudes)) - 1.0)
    energy_drift = abs(evolved.scale**2 - state.scale**2) / state.scale**2
    return [
        ("norm drift over 5 crossings", norm_drift, 1e-10),
        ("energy drift over 5 crossings", energy_drift, 1e-10),
    ]


def leapfrog_agreement():
    """Leapfrog against the decoded unitary: second order as dt halves twice."""
    _, pair = _acoustic([(0.0, 1.0)], [128], 1.0, 1.0)
    w0 = _pressure_bump(pair, 0.5, 0.05)
    ham = build_hamiltonian(pair)
    errs = []
    for k in (2, 4, 8):
        tr = leapfrog_evolve(pair, w0, cfl_limit(pair) / k, 0.25)
        exact = decode(evolve(encode(w0, pair), ham, tr.times[-1]), pair)
        errs.append(float(np.linalg.norm(tr.final - exact) / np.linalg.norm(exact)))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    return [
        ("leapfrog order CFL/2 -> CFL/4, offset from 2", abs(orders[0] - 2.0), 0.2),
        ("leapfrog order CFL/4 -> CFL/8, offset from 2", abs(orders[1] - 2.0), 0.2),
        ("leapfrog error vs unitary at CFL/8", errs[-1], float(np.nextafter(1e-3, 0.0))),
    ]


def box_basis():
    """The box basis against the thin SVD on seeded homogeneous boxes.

    Random 1D and 2D shapes and lengths, the acoustic and maxwell1d families
    and random constant weights. On each, propagate of random real columns,
    and apply with a complex phi through spectral_forced_solution (the
    Duhamel integrals on the forcing, e^{-ist} on w0), are compared with the
    same K in the SVD basis, relative to the SVD route's largest entry.
    ``Hamiltonian.from_matrix`` gives that K without the box basis, and so
    does build_hamiltonian on a plain namespace holding the pair's A and B.
    """
    rng = np.random.default_rng(15)
    f = gaussian_pulse(center=0.2, sigma=0.03)
    worst, not_box = 0.0, 0
    for family, dimension in [("acoustic", 1), ("acoustic", 2), ("maxwell1d", 1)] * 2:
        shape = [int(rng.integers(2, 300 if dimension == 1 else 18)) for _ in range(dimension)]
        grid = build_grid([(0.0, float(rng.uniform(0.5, 2.0)))] * dimension, shape)
        model = MaterialModel.acoustic if family == "acoustic" else MaterialModel.maxwell1d
        pair = assemble_operator_pair(grid, model(grid, *rng.uniform(0.5, 3.0, size=2)))
        plain = SimpleNamespace(A=pair.A, b_diagonal=pair.b_diagonal, scalar_slice=pair.scalar_slice)
        box = build_hamiltonian(pair)
        svd = Hamiltonian.from_matrix(box.generator, box.split)
        not_box += box.basis != "box"
        w, chi, w0 = rng.normal(size=(box.dim, 3)), rng.normal(size=box.dim), rng.normal(size=box.dim)
        t = float(rng.uniform(0.05, 0.4))
        for got, want in (
            (box.propagate(w, t), svd.propagate(w, t)),
            (
                spectral_forced_solution(pair, chi, f, 0.0, t, w0),
                spectral_forced_solution(plain, chi, f, 0.0, t, w0),
            ),
        ):
            worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
    return [
        ("homogeneous boxes left in the SVD basis", float(not_box), 0.0),
        ("box basis vs thin SVD, worst relative difference", worst, 1e-12),
    ]


def exact_estimates():
    """Exact estimates against dense contraction and the augmented register.

    Also pins the string counts and coefficients of both decompositions.
    """
    rng = np.random.default_rng(4)
    worst = worst_string = 0.0
    for rep in range(100):
        arity = int(rng.choice([1, 2, 4]))
        n = int(rng.integers(5, 17))
        states = [rng.normal(size=n) for _ in range(arity)]
        if rep % 4 == 0:
            d = 1
        elif rep % 4 == 1:
            d = n - 1
        else:
            d = int(rng.integers(1, n))
        stacked = np.sum(states, axis=0)
        total = float(np.linalg.norm(stacked) ** 2)
        # The observable route reads the loss off O(1) expectation
        # differences, so a loss below ~1% of the total energy has
        # fewer than 12 significant digits left in double precision.
        # Redraw the rare degenerate masks.
        while True:
            mask = np.zeros(n, dtype=bool)
            mask[rng.choice(n, size=d, replace=False)] = True
            dense = float(np.linalg.norm(stacked[mask]) ** 2)
            if dense >= 1e-2 * total:
                break
        projector = SubspaceProjector(mask=mask)
        result = estimate(states, projector)
        worst = max(worst, abs(result.value - dense) / dense)
        augmented = augment_state(stack_substates(states), projector).amplitudes
        for string, e in zip(result.observable.strings, result.string_expectations):
            worst_string = max(worst_string, abs(e - pauli_expectation(augmented, string)))
    two = two_state_observable(3)
    coeffs = np.array([s.coeff for s in two.strings])
    multi_miss = max(abs(len(multi_state_observable(m, 4).strings) - 2 * m) for m in (1, 2, 4))
    return [
        ("worst exact estimate vs dense contraction", worst, 1e-12),
        ("worst string expectation vs augmented register", worst_string, 1e-12),
        ("two-state decomposition string count", abs(len(two.strings) - 4), 0.0),
        ("two-state coefficients", float(np.abs(coeffs - [0.5, -0.5, 0.5, -0.5]).max()), 0.0),
        ("multi-state string count (2M)", multi_miss, 0.0),
    ]


def shot_scaling():
    """Shot-mode RMS error halves when the shot count quadruples."""
    rng = np.random.default_rng(11)
    states = [rng.normal(size=12) for _ in range(2)]
    mask = np.zeros(12, dtype=bool)
    mask[rng.choice(12, size=5, replace=False)] = True
    projector = SubspaceProjector(mask=mask)
    rms = {}
    exact = estimate(states, projector).value
    for shots in (10_000, 40_000):
        errors = []
        for rep in range(100):
            config = EstimatorConfig(mode="shots", shots=shots, seed=(101, shots, rep))
            errors.append(estimate(states, projector, config=config).value - exact)
        rms[shots] = np.sqrt(np.mean(np.square(errors)))
    ratio = float(rms[10_000] / rms[40_000])
    return [("shot RMS ratio for 4x shots, offset from 2", abs(ratio - 2.0), 0.6)]


def _sliced_source():
    """The sliced pipeline's grid, pair, source and ball radius; c = rho = 1 in the ball."""
    grid, pair = _acoustic([(0.0, 1.0)], [128], 1.0, 1.0)
    stf = gaussian_pulse(center=0.08, sigma=0.01)
    source = PointSource(location=(64,), polarization=(1.0, 0.0), time_function=stf)
    return grid, pair, source, 0.45


def _window_rows(f, schedule):
    """Partition of unity of schedule's windows and the sum of its slices of f, on f's support.

    The windows telescope to expit(z (t - first)) - expit(z (t - last)); first
    and last lie a margin past the support, and z * margin = TAIL_CUT, so the
    sum misses 1 by at most e^-TAIL_CUT at each end. The slices miss f by
    those tails, by what each truncates a margin past its window (at most
    e^-TAIL_CUT |f| per side, by the same telescoping), and by what each
    flushes to zero: at most 10 e^-TAIL_CUT of the peak in each of the
    floor(2 margin / width) + 2 windows that reach one time.
    """
    t = np.union1d(f.times, np.linspace(f.t_start, f.t_end, 4097))
    bp = schedule.breakpoints()
    unity = sum(schedule.window(t, lo, hi) for lo, hi in zip(bp[:-1], bp[1:]))
    drive = f(t)
    sliced = sum(g(t) for g in schedule.slices(f))
    tail = float(np.exp(-TAIL_CUT))
    reach = np.floor(2.0 * schedule.margin / schedule.width) + 2.0
    missed = float(np.abs(sliced - drive).max() / np.abs(drive).max())
    return [
        ("window partition-of-unity deviation", float(np.abs(unity - 1.0).max()), 2.0 * tail),
        ("windowed slices sum to the source", missed, float((4.0 + 10.0 * reach) * tail)),
    ]


def windows():
    """The windows greens_decompose cuts the sliced pipeline's source with (see _window_rows)."""
    grid, _, source, radius = _sliced_source()
    f = source.time_function
    return _window_rows(f, window_schedule(f, 1.0, 1.0, radius, max(grid.spacing)))


def sliced_pipeline():
    """Sliced sources through sync and mult evolution against the monolithic loss."""
    grid, pair, source, radius = _sliced_source()
    stf = source.time_function
    slices = greens_decompose(source, 1.0, 1.0, radius, pair, mode="discrete")
    state, t_ends = assemble_multisource_state(slices, pair)
    ham = build_hamiltonian(pair)  # the memoized H the slices were solved with
    t_sync, t_final = max(t_ends), 0.55
    block_dim, arity = state.layout.block_dim, state.layout.arity
    sync = build_sync_hamiltonian(ham, t_ends, t_sync, block_dim=block_dim, arity=arity)
    synced = evolve(state, sync, 1.0)
    settled = evolve(
        synced, build_mult_hamiltonian(ham, arity, block_dim=block_dim), t_final - t_sync
    )
    mask = np.zeros(pair.n_total, dtype=bool)
    mask[64:128] = True
    sliced = estimate(settled, SubspaceProjector(mask=mask)).value
    mono = spectral_forced_solution(pair, chi_pattern(source, grid), stf, stf.t_start, t_final)
    direct = float(np.linalg.norm((np.sqrt(pair.b_diagonal()) * mono)[mask]) ** 2)
    pre = presimulate_pulse(source, pair)
    return [
        ("sliced pipeline vs monolithic loss", abs(sliced - direct) / direct, 1e-6),
        ("pre-simulation support certified (nonzeros)", float(pre.nonzero_count == 0), 0.0),
    ]


def presim_support():
    """Pre-simulated nonzeros stay put when resolution and pulse bandwidth double."""
    counts = []
    for n, sigma in ((255, 0.025), (509, 0.0125)):
        _, pair = _acoustic([(0.0, 2.0)], [n], 1.0, 1.0)
        stf = gaussian_pulse(center=0.25, sigma=sigma)
        source = PointSource(location=(n // 2,), polarization=(1.0, 0.0), time_function=stf)
        counts.append(presimulate_pulse(source, pair).nonzero_count)
    ratio = counts[1] / counts[0]
    return [("presim nonzeros, refined / coarse, offset from 1", abs(ratio - 1.0), 0.10)]


def preparation_circuit():
    """Polar preparation circuit against direct construction, 10 random profiles per size."""
    rng = np.random.default_rng(9)
    rows = []
    for divisions in (2, 4, 8):
        spec = PolarGridSpec.uniform(divisions, 1.0)
        radii = np.asarray(spec.radii)
        worst, budget_miss = 0.0, 0
        for _ in range(10):
            profile = rng.uniform(0.2, 1.0, size=divisions)
            field = RadialField((0.0, 0.0), lambda r, profile=profile: np.interp(r, radii, profile))
            ray = sample_reference_ray(field, spec)
            budget_miss = max(budget_miss, abs(ray.eval_count - divisions))
            prepared = simulate_circuit(build_circuit(spec), ray)
            direct, _ = direct_polar_state(field, spec)
            worst = max(worst, 1.0 - fidelity(prepared, direct))
        rows.append((f"A={divisions} worst preparation infidelity", worst, 1e-10))
        rows.append((f"A={divisions} ray evaluation budget", budget_miss, 0.0))
    return rows


def wall_polarity():
    """A natural wall reflects a pressure bump upright, a Dirichlet wall inverted.

    The SNR is the reflected peak over the largest pressure left in a quiet
    region; SNR > 100 is stored as 1/SNR < 0.01.
    """
    _, pair = _acoustic([(0.0, 1.0)], [256], 1.0, 1.0)
    n_scalar = pair.grid.n_scalar
    xs = pair.grid.scalar_coords[:, 0]
    w0 = _pressure_bump(pair, 0.3, 0.03)
    dt = cfl_limit(pair) / 4
    natural = leapfrog_evolve(pair, w0, dt, 0.6).final
    reduced = reduce_system(pair, dirichlet_constraints(pair.grid, np.array([0])))
    pinned = reduced.embed(leapfrog_evolve(reduced, reduced.restrict(w0), dt, 0.6).final)
    returned = (xs > 0.15) & (xs < 0.45)
    quiet = (xs > 0.5) & (xs < 0.8)

    def reflection(w):
        p = w[:n_scalar]
        window = p[returned]
        peak = float(window[np.argmax(np.abs(window))])
        return peak, abs(peak) / float(np.abs(p[quiet]).max())

    nat_peak, nat_snr = reflection(natural)
    dir_peak, dir_snr = reflection(pinned)
    below_hundredth = float(np.nextafter(0.01, 0.0))
    return [
        ("natural wall peak inverted (must be upright)", float(not nat_peak > 0), 0.0),
        ("natural wall reflection 1/SNR", 1.0 / nat_snr, below_hundredth),
        ("dirichlet wall peak upright (must be inverted)", float(not dir_peak < 0), 0.0),
        ("dirichlet wall reflection 1/SNR", 1.0 / dir_snr, below_hundredth),
    ]


def constraint_compatibility():
    """Decoupled Dirichlet eliminations keep the generator exact; a coupled one is refused."""
    grid, pair = _acoustic([(0.0, 1.0)], [32], 1.2, 0.9)
    cases = [
        (f"1D N=32 pinned {ids}", reduce_system(pair, dirichlet_constraints(grid, np.array(ids))))
        for ids in ([0], [31], [0, 31])
    ]
    grid, pair = _acoustic([(0.0, 1.0), (0.0, 1.0)], [6, 6], 1.0, 1.0)
    walls = dirichlet_constraints(grid, boundary_scalar_indices(grid, ["left", "bottom"]))
    cases.append(("2D 6x6 pinned left+bottom", reduce_system(pair, walls)))
    rows = [row for label, reduced in cases for row in _symmetry_rows(label, reduced)]

    rng = np.random.default_rng(77)
    _, pair = _acoustic([(0.0, 1.0)], [8], 1.0, 1.0)
    coupled = ConstraintSet(
        constrained=np.array([0, 14]),
        r_f=rng.normal(size=(2, pair.n_total - 2)),
        r_c=np.eye(2),
    )
    try:
        reduce_system(pair, coupled)
        accepted = 1.0
    except IncompatibleConstraintError:
        accepted = 0.0
    rows.append(("coupled elimination accepted (must be refused)", accepted, 0.0))
    return rows


# suite name -> its checks, in the order `qwavesim verify` prints their rows
SUITES = {
    "symmetry": (symmetry,),
    "conservation": (conservation,),
    "reference": (leapfrog_agreement, box_basis),
    "estimator": (exact_estimates, shot_scaling),
    "initcircuit": (preparation_circuit,),
    "sources": (windows, sliced_pipeline, presim_support),
    "constraints": (wall_polarity, constraint_compatibility),
}
