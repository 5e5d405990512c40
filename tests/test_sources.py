import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qwavesim as q
from qwavesim import checks, cli, sources
from qwavesim.discretize import PiecewiseCoefficient
from qwavesim.errors import CausalityError, SourceError, SupportError

from conftest import build_acoustic_1d, build_maxwell

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _scalar_source(n, center, sigma, node=None, amplitude=1.0):
    node = n // 2 if node is None else node
    return q.PointSource(
        location=(node,),
        polarization=(amplitude, 0.0),
        time_function=q.gaussian_pulse(center, sigma),
    )


# ---------------------------------------------------------------------------
# time functions


def test_gaussian_pulse_shape():
    f = q.gaussian_pulse(center=0.5, sigma=0.05, amplitude=2.0)
    assert f.t_start == pytest.approx(0.15)
    assert f.t_end == pytest.approx(0.85)
    assert f(0.5) == pytest.approx(2.0)
    assert f(0.5 + 0.05) == pytest.approx(2.0 * np.exp(-0.5))
    assert f(0.0) == 0.0
    assert f(1.0) == 0.0


def test_ricker_wavelet_shape():
    f = q.ricker_wavelet(peak_frequency=5.0)
    assert f.t_start == pytest.approx(0.0)
    assert f.t_end == pytest.approx(0.8)
    assert f(0.4) == pytest.approx(1.0)
    # zero mean: the wavelet is a second derivative
    t = np.linspace(f.t_start, f.t_end, 20001)
    assert np.trapezoid(f(t), t) == pytest.approx(0.0, abs=1e-6)


def test_windowed_sine_vanishes_at_edges():
    f = q.windowed_sine(frequency=12.0, t_start=0.2, duration=1.0)
    assert abs(f(0.2)) < 1e-8
    assert abs(f(1.2)) < 1e-8
    t = np.linspace(0.3, 1.1, 1001)
    assert np.abs(f(t)).max() == pytest.approx(1.0, abs=0.01)


def test_outside_support_is_exactly_zero():
    for f in (
        q.gaussian_pulse(0.5, 0.05),
        q.ricker_wavelet(4.0),
        q.windowed_sine(8.0, 0.0, 1.0),
    ):
        assert f(f.t_start - 1.0) == 0.0
        assert f(f.t_end + 1e-9) == 0.0


def test_samples_round_trip():
    t = np.linspace(0.0, 1.0, 101)
    v = np.sin(np.pi * t) ** 2
    v[0] = v[-1] = 0.0
    f = q.time_function_from_samples(t, v)
    np.testing.assert_allclose(f(t), v, atol=1e-12)
    assert f(0.37) == pytest.approx(np.sin(np.pi * 0.37) ** 2, abs=1e-5)


def test_time_function_validation():
    with pytest.raises(SourceError):
        q.time_function_from_samples([0.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    with pytest.raises(SourceError):
        # endpoints far from zero: not compactly supported
        q.time_function_from_samples([0.0, 0.5, 1.0], [1.0, 2.0, 1.0])
    with pytest.raises(SourceError):
        q.gaussian_pulse(0.5, sigma=-1.0)
    with pytest.raises(SourceError):
        q.ricker_wavelet(0.0)


# ---------------------------------------------------------------------------
# injection patterns


def test_chi_pattern_scalar_one_hot():
    pair = build_acoustic_1d(n=16)
    src = _scalar_source(16, 0.5, 0.05, node=3, amplitude=2.5)
    chi = q.chi_pattern(src, pair.grid)
    expected = np.zeros(pair.n_total)
    expected[3] = 2.5
    np.testing.assert_array_equal(chi, expected)


def test_chi_pattern_flux_clamps_to_last_midpoint():
    pair = build_acoustic_1d(n=8)
    f = q.gaussian_pulse(0.5, 0.05)
    src = q.PointSource(location=(7,), polarization=(0.0, 1.0), time_function=f)
    chi = q.chi_pattern(src, pair.grid)
    # node 7 has no midpoint to its right; the last one (index 6) takes it
    assert chi[8 + 6] == 1.0
    assert np.count_nonzero(chi) == 1


def test_chi_pattern_2d_block_offsets():
    grid = q.build_grid([(0.0, 1.0), (0.0, 1.0)], [5, 4])
    f = q.gaussian_pulse(0.5, 0.05)
    src = q.PointSource(
        location=(2, 1), polarization=(3.0, 0.0, 1.0), time_function=f
    )
    chi = q.chi_pattern(src, grid)
    assert chi[grid.scalar_index(2, 1)] == 3.0
    # y-flux family starts after the scalars (20) and the x family (16)
    assert chi[20 + 16 + 1 * 5 + 2] == 1.0
    assert np.count_nonzero(chi) == 2


def test_chi_pattern_validation():
    pair = build_acoustic_1d(n=8)
    f = q.gaussian_pulse(0.5, 0.05)
    with pytest.raises(SourceError):
        q.PointSource(location=(3,), polarization=(0.0, 0.0), time_function=f)
    with pytest.raises(SourceError):
        q.chi_pattern(
            q.PointSource(location=(3, 3), polarization=(1.0, 0.0), time_function=f),
            pair.grid,
        )
    with pytest.raises(SourceError):
        q.chi_pattern(
            q.PointSource(location=(99,), polarization=(1.0, 0.0), time_function=f),
            pair.grid,
        )


@pytest.mark.parametrize("location", [(32.7,), [32], (True,), ("3",), 3])
def test_point_source_location_must_be_a_tuple_of_integers(location):
    # a fractional node used to be truncated by chi_pattern and refused by presim
    with pytest.raises(SourceError, match="location must be a tuple of integers"):
        q.PointSource(
            location=location, polarization=(1.0, 0.0), time_function=q.gaussian_pulse(0.5, 0.05)
        )


def test_numpy_integer_locations_are_accepted():
    pair = build_acoustic_1d(n=8)
    f = q.gaussian_pulse(0.5, 0.05)
    src = q.PointSource(location=(np.int64(3),), polarization=(1.0, 0.0), time_function=f)
    plain = q.PointSource(location=(3,), polarization=(1.0, 0.0), time_function=f)
    np.testing.assert_array_equal(q.chi_pattern(src, pair.grid), q.chi_pattern(plain, pair.grid))


# ---------------------------------------------------------------------------
# pulse pre-computation


def test_zero_forcing_gives_zero_field():
    pair = build_acoustic_1d(n=64)
    t = np.linspace(0.0, 0.1, 33)
    f = q.time_function_from_samples(t, np.zeros_like(t))
    src = q.PointSource(location=(32,), polarization=(1.0, 0.0), time_function=f)
    res = q.presimulate_pulse(src, pair)
    np.testing.assert_array_equal(res.field, 0.0)
    assert res.nonzero_count == 0


def test_presim_is_compact_and_stamped():
    pair = build_acoustic_1d(n=128)
    src = _scalar_source(128, center=0.1, sigma=0.01)
    res = q.presimulate_pulse(src, pair)
    f = src.time_function
    assert res.t_end == f.t_end
    assert res.support_radius > pair.material.max_speed * f.duration
    coords = np.concatenate([pair.grid.scalar_coords, pair.grid.flux_coords[0]])
    dist = np.abs(coords[:, 0] - res.center[0])
    assert np.abs(res.field[dist > res.support_radius]).max() == 0.0
    assert res.nonzero_count > 10


def test_presim_matches_spectral_oracle():
    pair = build_acoustic_1d(n=255, bounds=(0.0, 2.0))
    src = _scalar_source(255, center=0.25, sigma=0.03, node=127)
    f = src.time_function
    res = q.presimulate_pulse(src, pair, dt=q.cfl_limit(pair) / 16.0)
    chi = q.chi_pattern(src, pair.grid)
    exact = q.spectral_forced_solution(pair, chi, f, f.t_start, f.t_end)
    rel = np.linalg.norm(res.field - exact) / np.linalg.norm(exact)
    assert rel < 1e-2


def test_presim_refuses_pulse_leaving_domain():
    pair = build_acoustic_1d(n=64)
    src = _scalar_source(64, center=0.3, sigma=0.04, node=2)
    with pytest.raises(CausalityError):
        q.presimulate_pulse(src, pair)


def test_nonzero_count_follows_cells_not_resolution():
    # Doubling the resolution while halving the pulse duration keeps the
    # causal cone a fixed number of cells wide, so the stored nonzero count
    # must stay put (within edge effects).
    counts = []
    for n, sigma in ((255, 0.025), (509, 0.0125)):
        pair = build_acoustic_1d(n=n, bounds=(0.0, 2.0))
        src = _scalar_source(n, center=10.0 * sigma, sigma=sigma, node=n // 2)
        counts.append(q.presimulate_pulse(src, pair).nonzero_count)
    ratio = counts[1] / counts[0]
    assert 0.9 < ratio < 1.1


def test_assemble_single_pulse_matches_encode(rng):
    pair = build_acoustic_1d(n=16)
    field = rng.normal(size=pair.n_total)
    pre = q.PreSimResult.from_field(field, 0.25, pair.grid.scalar_coords[8], 0.3)
    state, t_ends = q.assemble_multisource_state([pre], pair)
    direct = q.encode(field, pair)
    assert t_ends == [0.25]
    assert state.scale == pytest.approx(direct.scale, rel=1e-14)
    np.testing.assert_allclose(state.amplitudes, direct.amplitudes, atol=1e-14)


def test_assemble_stacks_blocks_in_order(rng):
    pair = build_acoustic_1d(n=8)
    f1 = rng.normal(size=pair.n_total)
    f2 = rng.normal(size=pair.n_total)
    center = pair.grid.scalar_coords[4]
    pres = [
        q.PreSimResult.from_field(f1, 0.1, center, 0.2),
        q.PreSimResult.from_field(f2, 0.3, center, 0.2),
    ]
    state, t_ends = q.assemble_multisource_state(pres, pair)
    assert t_ends == [0.1, 0.3]
    assert state.layout.arity == 2
    sqrt_b = np.sqrt(pair.b_diagonal())
    y = np.concatenate([sqrt_b * f1, np.zeros(1), sqrt_b * f2, np.zeros(1)])
    np.testing.assert_allclose(
        state.amplitudes * state.scale, y, atol=1e-12
    )


def test_assemble_identical_pulses_share_the_weight(rng):
    pair = build_acoustic_1d(n=8)
    field = rng.normal(size=pair.n_total)
    pre = q.PreSimResult.from_field(field, 0.2, pair.grid.scalar_coords[4], 0.2)
    single, _ = q.assemble_multisource_state([pre], pair)
    double, _ = q.assemble_multisource_state([pre, pre], pair)
    np.testing.assert_allclose(double.block(0), double.block(1), atol=1e-15)
    assert double.scale == pytest.approx(np.sqrt(2.0) * single.scale, rel=1e-14)


def test_assemble_validation(rng):
    pair = build_acoustic_1d(n=8)
    with pytest.raises(SourceError):
        q.assemble_multisource_state([], pair)
    bad = q.PreSimResult.from_field(np.ones(3), 0.1, np.zeros(1), 0.1)
    with pytest.raises(SourceError):
        q.assemble_multisource_state([bad], pair)


# ---------------------------------------------------------------------------
# windows


@st.composite
def _scheduled_pulses(draw):
    """A pulse and the window schedule of a ball with room for windows.

    The ball spans at least 50 cells, where the grid margin leaves every
    window a positive width, and each pulse lasts at most 14 crossing
    times of the ball, so it is cut into at most about 160 windows.
    """
    c, rho = draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))
    dx = draw(st.floats(1e-4, 1.0))
    radius = draw(st.floats(50.0, 2000.0)) * dx
    t_hom = radius / c
    offset = draw(st.floats(-5.0, 5.0)) * t_hom
    amplitude = draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    kind = draw(st.sampled_from(["gaussian", "ricker", "windowed_sine"]))
    if kind == "gaussian":
        f = q.gaussian_pulse(offset, draw(st.floats(0.005, 1.0)) * t_hom, amplitude)
    elif kind == "ricker":
        peak = 1.0 / (draw(st.floats(0.01, 3.0)) * t_hom)
        f = q.ricker_wavelet(peak, offset + 2.0 / peak, amplitude)
    else:
        duration = draw(st.floats(0.01, 10.0)) * t_hom
        f = q.windowed_sine(draw(st.floats(0.5, 20.0)) / duration, offset, duration, amplitude)
    return f, sources.window_schedule(f, c, rho, radius, dx)


@given(pulse=_scheduled_pulses())
def test_partition_of_unity_on_random_windows(pulse):
    # the windows the schedule cuts with, and the slices they cut, on random pulses and balls
    f, schedule = pulse
    assert schedule.width > 0
    for name, value, tol in checks._window_rows(f, schedule):
        assert value <= tol, name
    assert len(schedule.slices(f)) == len(schedule.breakpoints()) - 1 == schedule.count


def test_window_spec_validation():
    # greens_decompose refuses, through window_schedule, a ball whose derived
    # window values float64 cannot hold, before any of them is used
    pair = build_acoustic_1d(n=64)
    src = _scalar_source(64, center=0.1, sigma=0.01, node=32)
    for c, radius, what in [
        (1e308, 0.45, "a scalar weight 1 / (rho c**2) of 0.0"),
        (1.0, 5e-324, "a sigmoid margin of 0.0"),
        (1.0, 1e308, "a cone length in cells of inf"),
    ]:
        with pytest.raises(SourceError, match=re.escape(what)):
            q.greens_decompose(src, c, 1.0, radius, pair)


def test_the_windows_check_and_greens_decompose_cut_with_one_schedule(monkeypatch):
    _, pair, source, radius = checks._sliced_source()
    before_rows = checks.windows()
    before = q.greens_decompose(source, 1.0, 1.0, radius, pair)
    window = sources.WindowSchedule.window
    monkeypatch.setattr(
        sources.WindowSchedule, "window", lambda self, t, lo, hi: 1.001 * window(self, t, lo, hi)
    )
    after_rows = checks.windows()
    after = q.greens_decompose(source, 1.0, 1.0, radius, pair)
    for (name, old, _), (_, new, _) in zip(before_rows, after_rows):
        assert new > 100 * old, name
    assert len(after) == len(before)
    old, new = (np.concatenate([s.field for s in slices]) for slices in (before, after))
    peak = np.abs(old).max()
    assert peak > 0
    np.testing.assert_allclose(new, 1.001 * old, rtol=0, atol=1e-9 * peak)


# ---------------------------------------------------------------------------
# windowed decomposition


def test_greens_slices_cover_the_source():
    pair = build_acoustic_1d(n=128)
    src = q.PointSource(
        location=(64,),
        polarization=(1.0, 0.0),
        time_function=q.gaussian_pulse(0.08, 0.01),
    )
    slices = q.greens_decompose(src, 1.0, 1.0, 0.45, pair, mode="discrete")
    f = src.time_function
    assert len(slices) >= 2
    ends = [s.t_end for s in slices]
    # end stamps never decrease; late windows clamp to the parent support end
    assert all(b >= a for a, b in zip(ends, ends[1:]))
    assert ends[-1] == pytest.approx(f.t_end)
    assert all(s.support_radius <= 0.45 + 1e-12 for s in slices)
    # windows cut deep in the pulse tails legitimately carry nothing
    assert any(s.nonzero_count > 0 for s in slices)
    assert sum(np.linalg.norm(s.field) for s in slices) > 0.0


def _count_decompositions(monkeypatch):
    """Record the H dimension of every dense decomposition.

    Every H is chiral and is decomposed through the SVD of its off-diagonal
    block C, which stands for an H of dim rows + cols; an eigh call, which
    no path makes, would be recorded by its own dim.
    """
    dims = []
    eigh, svd = np.linalg.eigh, np.linalg.svd

    def counted_eigh(a, *args, **kwargs):
        dims.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    def counted_svd(a, *args, **kwargs):
        dims.append(sum(a.shape))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return dims


# rho = 1 on [0.015, 0.985], which holds the balls of radius 0.45 around
# nodes 60 and 64 of 128, and 1.25 on the two nodes next to each wall: the
# medium varies outside the ball, so the pair's H takes the SVD basis
_GRADED_RHO = {
    "kind": "piecewise", "background": 1.25, "regions": [{"bounds": [[0.015, 0.985]], "value": 1.0}]
}


def _sliced_pulse(graded=True):
    if graded:
        box = np.array(_GRADED_RHO["regions"][0]["bounds"])
        rho = PiecewiseCoefficient(background=_GRADED_RHO["background"], regions=((box, 1.0),))
    else:
        rho = 1.0
    pair = build_acoustic_1d(n=128, rho=rho)
    src = q.PointSource(
        location=(64,), polarization=(1.0, 0.0), time_function=q.gaussian_pulse(0.08, 0.01)
    )
    assert q.build_hamiltonian(pair).basis == ("svd" if graded else "box")
    return pair, src


def _sliced_register(pair, src):
    """The slice -> sync -> mult pipeline on pair, every step through the pair's H."""
    slices = q.greens_decompose(src, 1.0, 1.0, 0.45, pair, mode="discrete")
    state, t_ends = q.assemble_multisource_state(slices, pair)
    ham = q.build_hamiltonian(pair)
    layout = state.layout
    sync = q.build_sync_hamiltonian(
        ham, t_ends, max(t_ends), block_dim=layout.block_dim, arity=layout.arity
    )
    synced = q.evolve(state, sync, 1.0)
    mult = q.build_mult_hamiltonian(ham, layout.arity, block_dim=layout.block_dim)
    assert layout.arity >= 2
    return q.evolve(synced, mult, 0.2)


def test_discrete_decomposition_decomposes_once(monkeypatch):
    pair, src = _sliced_pulse()
    dims = _count_decompositions(monkeypatch)
    slices = q.greens_decompose(src, 1.0, 1.0, 0.45, pair, mode="discrete")
    assert len(slices) >= 2
    assert dims == [pair.n_total]


def test_sync_then_mult_decompose_only_the_block_hamiltonian(monkeypatch):
    # the whole slice -> sync -> mult pipeline decomposes the block H once:
    # the slices and both generators share the H memoized on the pair
    pair, src = _sliced_pulse()
    dims = _count_decompositions(monkeypatch)
    _sliced_register(pair, src)
    assert dims == [pair.n_total]


def test_a_homogeneous_pair_is_never_decomposed(monkeypatch):
    # the box basis is closed form: slices, sync, mult and the sliced
    # pipeline check run without one SVD or eigh
    pair, src = _sliced_pulse(graded=False)
    dims = _count_decompositions(monkeypatch)
    _sliced_register(pair, src)
    rows = checks.sliced_pipeline()
    assert all(value <= tol for _, value, tol in rows)
    assert dims == []


@pytest.mark.parametrize("graded", [False, True], ids=["box", "svd"])
def test_greens_decompose_solves_a_sources_slices_in_one_call(monkeypatch, graded):
    # one forced solve for all the slices, each column equal to that slice
    # solved alone: bit for bit in the box basis, and within the rounding of
    # numpy's matrix product against its matrix-vector one in the SVD basis
    pair, src = _sliced_pulse(graded)
    calls = []
    solve = sources.spectral_forced_solution

    def counted_solve(*args, **kwargs):
        calls.append(args[2])
        return solve(*args, **kwargs)

    monkeypatch.setattr(sources, "spectral_forced_solution", counted_solve)
    slices = q.greens_decompose(src, 1.0, 1.0, 0.45, pair)
    monkeypatch.undo()
    f = src.time_function
    pulses = sources.window_schedule(f, 1.0, 1.0, 0.45, max(pair.grid.spacing)).slices(f)
    assert len(calls) == 1 and len(calls[0]) == len(pulses) == len(slices) >= 2
    chi = pair.restrict(q.chi_pattern(src, pair.grid))
    for piece, g in zip(slices, pulses):
        alone = q.spectral_forced_solution(pair, chi, g, g.t_start, g.t_end)
        kept = piece.field != 0.0
        assert piece.t_end == g.t_end
        if graded:
            np.testing.assert_allclose(
                piece.field[kept], alone[kept], rtol=0,
                atol=pair.n_total * np.finfo(float).eps * np.abs(alone).max(),
            )
        else:
            np.testing.assert_array_equal(piece.field[kept], alone[kept])
        # outside its ball each slice was cut to zero where the solve was negligible
        assert np.all(np.abs(alone[~kept]) <= sources.SUPPORT_RTOL * np.abs(alone).max())


def test_build_hamiltonian_is_memoized_on_the_system_object():
    pair, _ = _sliced_pulse()
    before = repr(pair)
    ham = q.build_hamiltonian(pair)
    assert q.build_hamiltonian(pair) is ham
    assert repr(pair) == before  # kept outside the dataclass fields


def test_equal_pairs_decompose_separately(monkeypatch):
    # the memo is per object, never keyed by content: two pairs assembled
    # from equal inputs each build and decompose their own H
    (first, src), (second, _) = _sliced_pulse(), _sliced_pulse()
    dims = _count_decompositions(monkeypatch)
    a = q.greens_decompose(src, 1.0, 1.0, 0.45, first, mode="discrete")
    b = q.greens_decompose(src, 1.0, 1.0, 0.45, second, mode="discrete")
    assert q.build_hamiltonian(first) is not q.build_hamiltonian(second)
    assert dims == [first.n_total, second.n_total]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.field, y.field)


def test_reduced_system_keeps_its_own_hamiltonian():
    pair, _ = _sliced_pulse()
    constraints = q.dirichlet_constraints(
        pair.grid, q.boundary_scalar_indices(pair.grid, ["left"])
    )
    reduced = q.reduce_system(pair, constraints)
    parent = q.build_hamiltonian(pair)
    own = q.build_hamiltonian(reduced)
    assert own is not parent
    assert own.dim == reduced.n_total < parent.dim
    assert q.build_hamiltonian(reduced) is own
    assert q.build_hamiltonian(pair) is parent


def test_sliced_pipeline_check_decomposes_once(monkeypatch):
    # the check on a pair whose medium varies outside the ball (SVD basis)
    pair, src = _sliced_pulse()
    monkeypatch.setattr(checks, "_sliced_source", lambda: (pair.grid, pair, src, 0.45))
    dims = _count_decompositions(monkeypatch)
    rows = checks.sliced_pipeline()
    assert all(value <= tol for _, value, tol in rows)
    assert dims == [pair.n_total]


def test_discrete_decomposition_shares_a_given_hamiltonian(monkeypatch):
    # a caller that decomposed the system's H first leaves nothing to decompose
    (pair, src), (fresh, _) = _sliced_pulse(), _sliced_pulse()
    own = q.greens_decompose(src, 1.0, 1.0, 0.45, fresh, mode="discrete")
    q.build_hamiltonian(pair).eigendecomposition()
    dims = _count_decompositions(monkeypatch)
    shared = q.greens_decompose(src, 1.0, 1.0, 0.45, pair, mode="discrete")
    assert dims == []
    assert len(shared) == len(own)
    for a, b in zip(shared, own):
        np.testing.assert_array_equal(a.field, b.field)
        assert a.t_end == b.t_end


def test_presim_decomposes_once_for_all_discrete_sources(tmp_path, monkeypatch, capsys):
    # two decompose sources on a medium that varies outside the balls share one H
    doc = json.loads((SCENARIOS / "acoustic_demo.json").read_text())
    doc["material"]["rho"] = _GRADED_RHO
    second = dict(doc["sources"][0], location=[60])
    doc["sources"].append(second)
    scenario = tmp_path / "two_sources.json"
    scenario.write_text(json.dumps(doc))
    dims = _count_decompositions(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["presim", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert dims == [build_acoustic_1d(n=128).n_total]
    index = json.loads((out / "presim.json").read_text())
    assert [entry["basis"] for entry in index["sources"]] == ["svd", "svd"]


def test_presim_of_the_demo_decomposes_nothing(tmp_path, monkeypatch, capsys):
    dims = _count_decompositions(monkeypatch)
    out = tmp_path / "out"
    demo = str(SCENARIOS / "acoustic_demo.json")
    assert cli.main(["presim", "--scenario", demo, "--out", str(out)]) == 0
    assert dims == []
    assert json.loads((out / "presim.json").read_text())["sources"][0]["basis"] == "box"


def test_single_window_slice_matches_the_unsliced_solution():
    # A pulse short enough for one window: the window is 1 on the support
    # up to e^{-z margin} tails, so the slice must reproduce the plain
    # forced solution over the padded interval. On 512 nodes the grid margin
    # of a 0.49 ball leaves one window room for the pulse and both margins.
    pair = build_acoustic_1d(n=512)
    f = q.gaussian_pulse(0.08, 0.009)
    src = q.PointSource(location=(256,), polarization=(1.0, 0.0), time_function=f)
    schedule = sources.window_schedule(f, 1.0, 1.0, 0.49, max(pair.grid.spacing))
    assert schedule.count == 1.0
    slices = q.greens_decompose(src, 1.0, 1.0, 0.49, pair, mode="discrete")
    assert len(slices) == 1
    assert slices[0].t_end == pytest.approx(f.t_end)
    chi = q.chi_pattern(src, pair.grid)
    exact = q.spectral_forced_solution(pair, chi, f, f.t_start, f.t_end)
    rel = np.linalg.norm(slices[0].field - exact) / np.linalg.norm(exact)
    assert rel < 1e-6


def test_greens_refuses_heterogeneous_ball():
    pair = build_acoustic_1d(n=64, rho=1.0, c=1.0)
    grid = pair.grid
    material = q.MaterialModel.acoustic(
        grid, rho=1.0, c=lambda x: 1.0 + 0.5 * (x[:, 0] > 0.5)
    )
    het = q.assemble_operator_pair(grid, material)
    src = _scalar_source(64, center=0.1, sigma=0.01, node=32)
    with pytest.raises(SourceError):
        q.greens_decompose(src, 1.0, 1.0, 0.45, het, mode="discrete")


def test_greens_refuses_ball_outside_domain():
    pair = build_acoustic_1d(n=64)
    src = _scalar_source(64, center=0.1, sigma=0.01, node=4)
    with pytest.raises(CausalityError):
        q.greens_decompose(src, 1.0, 1.0, 0.45, pair, mode="discrete")


def test_greens_refuses_ball_too_small_for_any_window():
    pair = build_acoustic_1d(n=64)
    src = _scalar_source(64, center=0.1, sigma=0.01, node=32)
    with pytest.raises(CausalityError):
        q.greens_decompose(src, 1.0, 1.0, 0.05, pair, mode="discrete")


@pytest.mark.parametrize("steepness", [0.0, -5.0, np.inf, np.nan, 2000.0])
# the window steepness follows from the ball alone, so greens_decompose takes
# no steepness, and any value is refused before the mode is read
@pytest.mark.parametrize("mode", ["dalembert", "discrete"])
def test_greens_refuses_a_steepness_that_is_not_finite_and_positive(mode, steepness):
    pair = build_acoustic_1d(n=64)
    src = _scalar_source(64, center=0.1, sigma=0.01, node=32)
    with pytest.raises(TypeError, match="steepness"):
        q.greens_decompose(src, 1.0, 1.0, 0.45, pair, mode=mode, steepness=steepness)


def test_greens_without_a_mode_solves_on_the_grid():
    # without a mode a 1D scalar source is solved on the grid like any other
    pair = build_acoustic_1d(n=128)
    src = _scalar_source(128, center=0.08, sigma=0.01)
    default = q.greens_decompose(src, 1.0, 1.0, 0.45, pair)
    named = q.greens_decompose(src, 1.0, 1.0, 0.45, pair, mode="discrete")
    assert len(default) == len(named) >= 2
    for a, b in zip(default, named):
        np.testing.assert_array_equal(a.field, b.field)
        assert a.t_end == b.t_end


def test_support_check_refuses_a_field_that_leaks_out_of_the_ball():
    coords = np.linspace(0.0, 1.0, 11)[:, None]
    center = np.array([0.5])
    w = np.zeros(11)
    w[5], w[9] = 1.0, 1e-6
    with pytest.raises(
        SupportError,
        match=r"leaks outside the claimed support ball: 1\.000e-06 against a peak of 1\.000e\+00",
    ):
        sources._enforce_support(w, coords, center, 0.2)
    # a tail under the tolerance is zeroed instead
    w[9] = 1e-9
    kept = sources._enforce_support(w, coords, center, 0.2)
    assert kept[9] == 0.0 and kept[5] == 1.0


def test_greens_mode_restrictions():
    pair = build_acoustic_1d(n=64)
    f = q.gaussian_pulse(0.1, 0.01)
    flux_src = q.PointSource(location=(32,), polarization=(0.0, 1.0), time_function=f)
    # the grid solve is the only solver: any other mode is refused by name
    with pytest.raises(SourceError, match="unknown decomposition mode 'dalembert'"):
        q.greens_decompose(flux_src, 1.0, 1.0, 0.4, pair, mode="dalembert")
    em = build_maxwell(n=64)
    src = q.PointSource(location=(32,), polarization=(1.0, 0.0), time_function=f)
    with pytest.raises(SourceError):
        q.greens_decompose(src, 1.0, 1.0, 0.4, em, mode="discrete")
    with pytest.raises(SourceError, match="unknown decomposition mode 'mystery'"):
        q.greens_decompose(src, 1.0, 1.0, 0.4, pair, mode="mystery")
