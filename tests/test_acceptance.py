"""End-to-end acceptance gate.

Eleven numbered checks cover the whole toolkit: operator symmetry, unitary
conservation, the leapfrog cross-check, exact and sampled estimation,
the sliced source pipeline, pre-simulation support scaling, window
partitions, preparation-circuit fidelity, wall physics, and constraint
compatibility. Each check prints a single [PASS]/[FAIL] line with the
measured numbers (run with -s to see them on success). Checks 01, 02, 04,
05, 06, 08 and 09 assert the rows of the check registry in qwavesim.checks,
the same rows that `qwavesim verify` prints.
"""
import time

import numpy as np
import pytest
import scipy.sparse as sp

import qwavesim as q
from qwavesim import checks
from qwavesim.errors import IncompatibleConstraintError


def _check(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _check_rows(rows, label, ok=True, extra=""):
    """Assert value <= tol on every registry row, plus an optional extra condition."""
    misses = [name for name, value, tol in rows if not value <= tol]
    detail = ", ".join(f"{name} {value:.2e}" for name, value, _ in rows)
    if misses:
        detail = f"missed {'; '.join(misses)} -- {detail}"
    _check(ok and not misses, label, detail + extra)


def _acoustic(bounds, shape, rho, c):
    grid = q.build_grid(bounds, shape)
    return grid, q.assemble_operator_pair(grid, q.MaterialModel.acoustic(grid, rho=rho, c=c))


def _pressure_bump(pair, center, sigma):
    xs = pair.grid.scalar_coords[:, 0]
    w0 = np.zeros(pair.n_total)
    w0[: pair.grid.n_scalar] = np.exp(-((xs - center) ** 2) / (2.0 * sigma**2))
    return w0


def test_01_generator_antisymmetry_and_hamiltonian_hermiticity():
    t0 = time.perf_counter()
    rows = checks.symmetry()
    elapsed = time.perf_counter() - t0
    _check_rows(
        rows, "generator and Hamiltonian symmetry", elapsed < 10.0, f", {elapsed:.2f}s"
    )


def test_02_norm_and_energy_conservation():
    _check_rows(checks.conservation(), "norm and energy conservation")


def test_03_leapfrog_agrees_with_the_decoded_unitary():
    _, pair = _acoustic([(0.0, 1.0)], [128], 1.0, 1.0)
    w0 = _pressure_bump(pair, 0.5, 0.05)
    ham = q.build_hamiltonian(pair)
    errs = []
    for k in (2, 4, 8):
        tr = q.leapfrog_evolve(pair, w0, q.cfl_limit(pair) / k, 0.25)
        exact = q.decode(q.evolve(q.encode(w0, pair), ham, tr.times[-1]), pair)
        errs.append(np.linalg.norm(tr.final - exact) / np.linalg.norm(exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    _check(
        all(1.8 <= o <= 2.2 for o in orders) and errs[-1] < 1e-3,
        "leapfrog vs decoded unitary",
        f"orders {orders[0]:.3f}/{orders[1]:.3f}, finest rel {errs[-1]:.2e}",
    )


def test_04_exact_estimates_match_dense_algebra():
    _check_rows(checks.exact_estimates(), "exact estimation vs dense algebra")


def test_05_shot_error_shrinks_like_root_shots():
    _check_rows(checks.shot_scaling(), "shot-noise scaling")


def test_06_sliced_source_pipeline_matches_the_monolithic_loss():
    t0 = time.perf_counter()
    rows = checks.sliced_pipeline()
    elapsed = time.perf_counter() - t0
    _check_rows(
        rows, "sliced pipeline vs monolithic loss", elapsed < 60.0, f", {elapsed:.1f}s"
    )


def test_07_presimulation_support_is_resolution_independent():
    counts = []
    for n, sigma in ((255, 0.025), (509, 0.0125)):
        _, pair = _acoustic([(0.0, 2.0)], [n], 1.0, 1.0)
        stf = q.gaussian_pulse(center=0.25, sigma=sigma)
        source = q.PointSource(
            location=(n // 2,), polarization=(1.0, 0.0), time_function=stf
        )
        counts.append(q.presimulate_pulse(source, pair).nonzero_count)
    ratio = counts[1] / counts[0]
    _check(
        abs(ratio - 1.0) <= 0.10,
        "initialized-point count under refinement",
        f"nonzeros {counts[0]} -> {counts[1]} when resolution and bandwidth double "
        f"(ratio {ratio:.3f})",
    )


def test_08_window_partition_of_unity_and_box_limit():
    _check_rows(checks.windows(), "window partition of unity")


def test_09_preparation_circuit_fidelity():
    _check_rows(checks.preparation_circuit(), "preparation-circuit fidelity")


def test_10_wall_reflection_polarity():
    _, pair = _acoustic([(0.0, 1.0)], [256], 1.0, 1.0)
    xs = pair.grid.scalar_coords[:, 0]
    w0 = _pressure_bump(pair, 0.3, 0.03)
    dt = q.cfl_limit(pair) / 4

    natural = q.leapfrog_evolve(pair, w0, dt, 0.6).final[: pair.grid.n_scalar]

    reduced = q.reduce_system(pair, q.dirichlet_constraints(pair.grid, np.array([0])))
    tr = q.leapfrog_evolve(reduced, reduced.restrict(w0), dt, 0.6)
    pinned = reduced.embed(tr.final)[: pair.grid.n_scalar]

    returned = (xs > 0.15) & (xs < 0.45)
    quiet = (xs > 0.5) & (xs < 0.8)
    results = {}
    for name, p in (("natural", natural), ("dirichlet", pinned)):
        window = p[returned]
        peak = window[np.argmax(np.abs(window))]
        results[name] = (peak, abs(peak) / np.abs(p[quiet]).max())
    (nat_peak, nat_snr), (dir_peak, dir_snr) = results["natural"], results["dirichlet"]
    _check(
        nat_peak > 0 and dir_peak < 0 and nat_snr > 100 and dir_snr > 100,
        "wall reflection polarity",
        f"natural peak {nat_peak:+.3f} (SNR {nat_snr:.0f}), "
        f"pinned peak {dir_peak:+.3f} (SNR {dir_snr:.0f})",
    )


def test_11_constraint_compatibility():
    herms = []
    _, pair1 = _acoustic([(0.0, 1.0)], [32], 1.2, 0.9)
    for indices in ([0], [31], [0, 31]):
        red = q.reduce_system(
            pair1, q.dirichlet_constraints(pair1.grid, np.asarray(indices))
        )
        assert q.antisymmetry_defect(red.A) == 0.0
        herms.append(q.build_hamiltonian(red).hermiticity_defect())
    grid2, pair2 = _acoustic([(0.0, 1.0), (0.0, 1.0)], [6, 6], 1.0, 1.0)
    walls = q.boundary_scalar_indices(grid2, ["left", "bottom"])
    red2 = q.reduce_system(pair2, q.dirichlet_constraints(grid2, walls))
    assert q.antisymmetry_defect(red2.A) == 0.0
    herms.append(q.build_hamiltonian(red2).hermiticity_defect())

    rng = np.random.default_rng(77)
    _, pair = _acoustic([(0.0, 1.0)], [8], 1.0, 1.0)
    r_f = sp.csr_matrix(rng.normal(size=(2, pair.n_total - 2)))
    bad = q.ConstraintSet(
        constrained=np.array([0, 14]),
        r_f=r_f,
        r_c=sp.csr_matrix(np.eye(2)),
    )
    with pytest.raises(IncompatibleConstraintError):
        q.reduce_system(pair, bad)
    _check(
        max(herms) <= 1e-12,
        "constraint compatibility",
        f"decoupled reductions stay Hermitian ({max(herms):.2e}); "
        f"a coupled elimination is rejected",
    )
