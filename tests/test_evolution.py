from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import qwavesim as q
from qwavesim import encoding, evolution
from qwavesim.errors import EvolutionError, NumericalError

from conftest import build_acoustic_1d, chiral_systems


def _two_level():
    a = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    b = np.array([1.0, 1.0])
    system = type(
        "S", (), {"A": a, "b_diagonal": staticmethod(lambda: b), "scalar_slice": slice(0, 1)}
    )
    return q.build_hamiltonian(system), b


def _stack(blocks, block_dim, scale=1.0):
    """Unit-norm stacked register from per-block real amplitude vectors."""
    arity = q.next_power_of_two(len(blocks))
    amps = np.zeros(arity * block_dim)
    for s, blk in enumerate(blocks):
        amps[s * block_dim : s * block_dim + blk.size] = blk
    nrm = np.linalg.norm(amps)
    layout = q.StateLayout(
        num_physical=block_dim, block_dim=block_dim, arity=arity
    )
    return q.QuantumRegisterState(
        amplitudes=amps / nrm, scale=scale * nrm, layout=layout
    )


def _materialized(gen):
    """The stacked K of a schedule generator: block s is times[s] * K, padded to block_dim."""
    padded = gen.block.generator.copy()
    padded.resize((gen.block_dim, gen.block_dim))
    return sp.block_diag([t * padded for t in gen.times], format="csr")


# the MAX_DENSE_DIM that makes Hamiltonian.propagate take each action on an
# undecomposed H: dense at every size, or the sparse (Krylov) action at every
# size; the box basis is taken at every size, so 0 shows it bypasses Krylov
_DENSE_LIMITS = {"dense": np.iinfo(np.intp).max, "krylov": 0, "box": 0}


def _evolve_with(method, state, ham, t):
    """evolve with propagate held to one action; krylov needs an undecomposed SVD-basis H."""
    block = getattr(ham, "block", ham)
    assert block.basis == ("box" if method == "box" else "svd")
    assert method != "krylov" or block._eig is None
    with mock.patch.object(encoding, "MAX_DENSE_DIM", _DENSE_LIMITS[method]):
        return q.evolve(state, ham, t)


def _pair_for(method, n, rho, c):
    """A 1D pair whose H takes method's basis: homogeneous for box, rho graded otherwise."""
    def graded(x):
        return rho + 0.2 * x[:, 0]

    return build_acoustic_1d(n=n, rho=rho if method == "box" else graded, c=c)


def test_zero_time_is_identity():
    pair = build_acoustic_1d(n=8)
    ham = q.build_hamiltonian(pair)
    state = q.encode(np.ones(pair.n_total), pair)
    out = q.evolve(state, ham, 0.0)
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)
    assert out.scale == state.scale


def test_two_level_closed_form():
    # dw/dt = [[0, 1], [-1, 0]] w rotates the plane: w(t) = (cos t + sin t J) w0
    ham, b = _two_level()
    w0 = np.array([1.0, 0.0])
    for t in (0.1, 0.7, 2.0, -0.4):
        out = q.decode(q.evolve(q.encode(w0, b), ham, t), b)
        np.testing.assert_allclose(out, [np.cos(t), -np.sin(t)], atol=1e-13)


def test_norm_and_scale_are_preserved(rng):
    pair = build_acoustic_1d(n=16, rho=1.5, c=0.7)
    ham = q.build_hamiltonian(pair)
    state = q.encode(rng.normal(size=pair.n_total), pair)
    out = q.evolve(state, ham, 3.7)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-14)
    assert out.scale == state.scale
    assert q.energy(out) == q.energy(state)


def test_group_property(rng):
    pair = build_acoustic_1d(n=12)
    ham = q.build_hamiltonian(pair)
    state = q.encode(rng.normal(size=pair.n_total), pair)
    one = q.evolve(q.evolve(state, ham, 0.3), ham, 0.5)
    two = q.evolve(state, ham, 0.8)
    np.testing.assert_allclose(one.amplitudes, two.amplitudes, atol=1e-10)


@pytest.mark.parametrize("kind, dimension", [("acoustic", 1), ("acoustic", 2), ("maxwell", 1)])
@given(
    data=st.data(),
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**16),
)
def test_group_property_on_random_systems(kind, dimension, data, a, b, seed):
    system = data.draw(chiral_systems(kind, dimension))
    ham = q.build_hamiltonian(system)
    state = q.encode(np.random.default_rng(seed).normal(size=system.n_total), system)
    one = q.evolve(q.evolve(state, ham, a), ham, b)
    two = q.evolve(state, ham, a + b)
    np.testing.assert_allclose(one.amplitudes, two.amplitudes, rtol=0, atol=1e-10)


def test_dense_and_krylov_backends_agree(rng):
    pair = _pair_for("dense", 16, 1.0, 1.0)
    ham = q.build_hamiltonian(pair)
    state = q.encode(rng.normal(size=pair.n_total), pair)
    krylov = _evolve_with("krylov", state, ham, 1.1)  # first: dense decomposes H
    dense = _evolve_with("dense", state, ham, 1.1)
    np.testing.assert_allclose(dense.amplitudes, krylov.amplitudes, atol=1e-10)


def test_backend_is_dense_when_small_or_decomposed_and_krylov_above(monkeypatch):
    import scipy.sparse.linalg

    pair = _pair_for("dense", 16, 1.0, 1.0)  # dim 31, rho graded: the SVD basis
    ham = q.build_hamiltonian(pair)
    assert ham.basis == "svd"
    w = np.ones((pair.n_total, 1))
    expm_multiply, krylov_calls = scipy.sparse.linalg.expm_multiply, []

    def recording(*args, **kwargs):
        krylov_calls.append(ham._eig is None)
        return expm_multiply(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", recording)
    monkeypatch.setattr(encoding, "MAX_DENSE_DIM", 30)
    ham.propagate(w, 0.5)
    assert krylov_calls == [True] and ham._eig is None  # the Krylov action never decomposes
    monkeypatch.setattr(encoding, "MAX_DENSE_DIM", 31)
    ham.propagate(w, 0.5)
    assert krylov_calls == [True] and ham._eig is not None
    monkeypatch.setattr(encoding, "MAX_DENSE_DIM", 30)
    ham.propagate(w, 0.5)
    assert krylov_calls == [True]  # cached decomposition
    assert encoding.MAX_DENSE_DIM == 30 and not hasattr(evolution, "MAX_DENSE_DIM")


def test_the_box_basis_propagates_above_max_dense_dim_without_svd_or_krylov(monkeypatch):
    import scipy.sparse.linalg

    pair = build_acoustic_1d(n=4096, rho=1.3, c=0.7)  # dim 8,191
    ham = q.build_hamiltonian(pair)
    assert ham.basis == "box" and ham.dim > encoding.MAX_DENSE_DIM
    w = np.random.default_rng(5).normal(size=(ham.dim, 1))
    # |H| t is about 57; the Krylov action's own error grows with it (5e-13
    # here against the thin SVD, where the box basis is 3e-14 from it)
    want = scipy.sparse.linalg.expm_multiply(sp.csc_matrix(0.01 * ham.generator), w)
    calls = []
    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", lambda *a, **k: calls.append("krylov"))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append("svd"))
    got = ham.propagate(w, 0.01)
    assert calls == [] and ham._eig is None
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_single_block_generator_leaves_padding_alone(rng):
    pair = build_acoustic_1d(n=16)  # 31 physical, 32-dim register
    ham = q.build_hamiltonian(pair)
    state = q.encode(rng.normal(size=pair.n_total), pair)
    out = q.evolve(state, ham, 0.9)
    assert out.amplitudes[31] == 0.0


def test_sync_generator_block_structure():
    ham, _ = _two_level()
    t_ends = [0.2, 0.5, 0.5]
    sync = q.build_sync_hamiltonian(ham, t_ends, t_sync=0.5)
    dense = _materialized(sync).toarray()
    h = ham.generator.toarray()
    np.testing.assert_allclose(dense[:2, :2], 0.3 * h, atol=1e-15)
    np.testing.assert_allclose(dense[2:4, 2:4], 0.0 * h, atol=1e-15)
    np.testing.assert_allclose(dense[4:6, 4:6], 0.0 * h, atol=1e-15)
    # fourth block pads the arity to a power of two and stays zero
    assert np.abs(dense[6:8, 6:8]).max() == 0.0
    off = dense.copy()
    for s in range(4):
        off[2 * s : 2 * s + 2, 2 * s : 2 * s + 2] = 0.0
    assert np.abs(off).max() == 0.0


def test_equal_end_times_synchronize_to_identity(rng):
    pair = build_acoustic_1d(n=4)
    ham = q.build_hamiltonian(pair)
    d = q.next_power_of_two(pair.n_total)
    blocks = [rng.normal(size=pair.n_total) for _ in range(2)]
    state = _stack(blocks, d)
    sync = q.build_sync_hamiltonian(ham, [0.4, 0.4], t_sync=0.4)
    assert _materialized(sync).count_nonzero() == 0
    out = q.evolve(state, sync, 1.0)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-14)


def test_unit_time_under_sync_advances_each_block_by_its_gap(rng):
    pair = build_acoustic_1d(n=4)
    ham = q.build_hamiltonian(pair)
    d = q.next_power_of_two(pair.n_total)
    y = [rng.normal(size=pair.n_total) for _ in range(2)]
    state = _stack(y, d)
    t_ends = [0.1, 0.45]
    sync = q.build_sync_hamiltonian(ham, t_ends, t_sync=0.5)
    out = q.evolve(state, sync, 1.0)
    for s, t_end in enumerate(t_ends):
        single = q.encode(y[s], pair)
        advanced = q.evolve(single, ham, 0.5 - t_end)
        got = out.block(s)[: pair.n_total] * out.scale
        want = advanced.amplitudes[: pair.n_total] * single.scale
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_mult_generator_with_one_block_is_the_padded_hamiltonian():
    ham, _ = _two_level()
    mult = q.build_mult_hamiltonian(ham, arity=1)
    np.testing.assert_array_equal(_materialized(mult).toarray(), ham.generator.toarray())
    assert mult.maxnorm == ham.maxnorm
    assert mult.sparsity == ham.sparsity


def test_mult_generator_advances_all_blocks_identically(rng):
    pair = build_acoustic_1d(n=4)
    ham = q.build_hamiltonian(pair)
    d = q.next_power_of_two(pair.n_total)
    y = [rng.normal(size=pair.n_total) for _ in range(4)]
    state = _stack(y, d)
    mult = q.build_mult_hamiltonian(ham, arity=4)
    t = 0.63
    out = q.evolve(state, mult, t)
    for s in range(4):
        single = q.encode(y[s], pair)
        advanced = q.evolve(single, ham, t)
        got = out.block(s)[: pair.n_total] * out.scale
        want = advanced.amplitudes[: pair.n_total] * single.scale
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_blocks_with_one_time_share_one_action_call(rng):
    # the mult generator is one call on all blocks as columns; the sync
    # generator one call per distinct nonzero time, none for a zero-time block
    pair = build_acoustic_1d(n=8)
    ham = q.build_hamiltonian(pair)
    state = _stack([rng.normal(size=pair.n_total) for _ in range(4)], 16)
    calls = []
    propagate = q.Hamiltonian.propagate

    def recording(block, vecs, t):
        calls.append((vecs.shape, t))
        return propagate(block, vecs, t)

    with mock.patch.object(q.Hamiltonian, "propagate", recording):
        q.evolve(state, q.build_mult_hamiltonian(ham, 4), 0.3)
        q.evolve(state, q.build_sync_hamiltonian(ham, [0.25, 0.5, 0.25, 0.75], 0.75), 2.0)
    assert calls == [((15, 4), 0.3), ((15, 2), 1.0), ((15, 1), 0.5)]


# ---------------------------------------------------------------------------
# stacked generators act per block: equivalence with their materialized matrix

_TIMES = st.sampled_from([0.0, 0.25, 0.7]) | st.floats(0.0, 1.5)


def _random_register(seed, num_physical, arity):
    """A unit-norm register with every coordinate, pads included, nonzero."""
    rng = np.random.default_rng(seed)
    layout = q.StateLayout(
        num_physical=num_physical,
        block_dim=q.next_power_of_two(num_physical),
        arity=arity,
    )
    amps = rng.normal(size=layout.total_dim)
    return q.QuantumRegisterState(
        amplitudes=amps / np.linalg.norm(amps), scale=2.0, layout=layout
    )


def _assert_matches_materialized(state, gen, t, method):
    out = _evolve_with(method, state, gen, t)
    want = scipy.linalg.expm(t * _materialized(gen).toarray()) @ state.amplitudes
    assert np.abs(out.amplitudes - want).max() <= 1e-10
    assert out.scale == state.scale


@pytest.mark.parametrize("method", ["dense", "krylov", "box"])
@given(
    n=st.integers(2, 9),
    t_ends=st.lists(_TIMES, min_size=1, max_size=8),
    lag=st.sampled_from([0.0, 0.3]),
    t=st.sampled_from([1.0, 0.4, -0.6]),
    seed=st.integers(0, 2**16),
)
def test_sync_matches_the_exponential_of_its_matrix(method, n, t_ends, lag, t, seed):
    pair = _pair_for(method, n, 1.3, 0.8)  # 2n - 1 unknowns, padded block
    ham = q.build_hamiltonian(pair)
    sync = q.build_sync_hamiltonian(ham, t_ends, t_sync=max(t_ends) + lag)
    state = _random_register(seed, ham.dim, q.next_power_of_two(len(t_ends)))
    _assert_matches_materialized(state, sync, t, method)


@pytest.mark.parametrize("method", ["dense", "krylov", "box"])
@given(
    n=st.integers(2, 9),
    arity=st.sampled_from([1, 2, 4, 8]),
    t=_TIMES,
    seed=st.integers(0, 2**16),
)
def test_mult_matches_the_exponential_of_its_matrix(method, n, arity, t, seed):
    pair = _pair_for(method, n, 0.7, 1.4)
    ham = q.build_hamiltonian(pair)
    mult = q.build_mult_hamiltonian(ham, arity)
    state = _random_register(seed, ham.dim, arity)
    _assert_matches_materialized(state, mult, t, method)


@given(
    n=st.integers(2, 9),
    t_ends=st.lists(_TIMES, min_size=1, max_size=8),
    lag=st.sampled_from([0.0, 0.3]),
    arity=st.sampled_from([1, 2, 4]),
    perturb_seed=st.none() | st.integers(0, 2**16),
)
def test_derived_metadata_matches_the_materialized_matrix(n, t_ends, lag, arity, perturb_seed):
    ham = q.build_hamiltonian(build_acoustic_1d(n=n, rho=1.3, c=0.8))
    if perturb_seed is not None:
        # the acoustic H has a defect of 0 or of rounding size; one entry of
        # the scalar x flux block (or its mirror) moved by about 1e-6 dwarfs
        # rounding, and no generator can be built from it
        rng = np.random.default_rng(perturb_seed)
        dense = ham.generator.toarray()
        i, j = rng.integers(ham.split), rng.integers(ham.split, ham.dim)
        if rng.integers(2):
            i, j = j, i
        dense[i, j] += rng.uniform(0.5e-6, 2e-6) * rng.choice([1.0, -1.0])
        with pytest.raises(NumericalError, match="not Hermitian"):
            q.Hamiltonian.from_matrix(dense, ham.split)
    sync = q.build_sync_hamiltonian(ham, t_ends, t_sync=max(t_ends) + lag)
    mult = q.build_mult_hamiltonian(ham, arity)
    for gen in (sync, mult):
        assert not isinstance(gen, q.Hamiltonian)
        stacked = _materialized(gen)
        stacked.eliminate_zeros()
        maxnorm = np.abs(stacked.data).max() if stacked.nnz else 0.0
        sparsity = np.diff(stacked.indptr).max() if stacked.nnz else 0
        assert (gen.maxnorm, gen.sparsity) == (maxnorm, sparsity)


def test_stacked_generator_with_another_block_dim_is_refused():
    pair = build_acoustic_1d(n=4)  # 7 unknowns in blocks of 8
    ham = q.build_hamiltonian(pair)
    state = _random_register(3, ham.dim, 4)  # 4 blocks of 8
    # same total dimension, other block structure
    mult = q.build_mult_hamiltonian(ham, arity=2, block_dim=16)
    sync = q.build_sync_hamiltonian(ham, [0.1, 0.2], t_sync=0.5, block_dim=16)
    assert mult.dim == sync.dim == state.layout.total_dim
    for gen in (mult, sync):
        with pytest.raises(EvolutionError):
            q.evolve(state, gen, 1.0)


def test_stacked_generator_refuses_a_block_smaller_than_h():
    pair = build_acoustic_1d(n=4)
    ham = q.build_hamiltonian(pair)
    with pytest.raises(EvolutionError):
        q.build_mult_hamiltonian(ham, arity=2, block_dim=4)
    with pytest.raises(EvolutionError):
        q.build_sync_hamiltonian(ham, [0.1], t_sync=0.5, block_dim=4)


def test_sync_refuses_backward_evolution():
    ham, _ = _two_level()
    with pytest.raises(EvolutionError):
        q.build_sync_hamiltonian(ham, [0.2, 0.9], t_sync=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sync_refuses_non_finite_times(bad):
    ham, _ = _two_level()
    for t_ends, t_sync in (([bad, 0.2], 0.5), ([0.1, 0.2], bad)):
        with pytest.raises(EvolutionError, match=f"must be finite.*{bad}"):
            q.build_sync_hamiltonian(ham, t_ends, t_sync=t_sync)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stacked_generator_refuses_non_finite_times(bad):
    ham, _ = _two_level()
    with pytest.raises(EvolutionError, match=f"{bad}.*not all finite"):
        evolution.StackedHamiltonian(ham, (1.0, bad), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evolve_refuses_a_non_finite_time(bad, rng):
    pair = build_acoustic_1d(n=16)
    state = q.encode(rng.normal(size=pair.n_total), pair)
    with pytest.raises(EvolutionError, match=f"time {bad} is not finite"):
        q.evolve(state, q.build_hamiltonian(pair), bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_matrix_refuses_a_non_finite_generator(bad):
    # a generator is verified where it is made, so evolve never meets one
    with pytest.raises(NumericalError, match="must be finite"):
        q.Hamiltonian.from_matrix(np.array([[0.0, bad], [-1.0, 0.0]]), 1)


def test_a_generator_with_large_entries_evolves(rng):
    # K's antisymmetry defect is rounding, which grows with max|K|: scaled
    # by 2^20 (exactly), this medium's K has an absolute defect of about
    # 1.5e-8 but 1.7e-16 of max|K|, and e^{(t / 2^20)(2^20 K)} = e^{tK}
    pair = build_acoustic_1d(
        n=64, rho=lambda x: 1.0 + 0.5 * np.sin(7.0 * x[:, 0]), c=lambda x: 1.0 + 0.3 * x[:, 0]
    )
    ham = q.build_hamiltonian(pair)
    big = q.Hamiltonian.from_matrix(ham.generator * 2**20, ham.split)
    assert big.hermiticity_defect() > 1e-10
    state = q.encode(rng.normal(size=pair.n_total), pair)
    out = q.evolve(state, big, 0.3 / 2**20)
    want = q.evolve(state, ham, 0.3)
    np.testing.assert_allclose(out.amplitudes, want.amplitudes, rtol=0, atol=1e-10)


def test_mult_refuses_non_power_of_two_arity():
    ham, _ = _two_level()
    with pytest.raises(EvolutionError):
        q.build_mult_hamiltonian(ham, arity=3)


def test_mismatched_generator_dimension_is_refused(rng):
    pair = build_acoustic_1d(n=8)
    other = build_acoustic_1d(n=16)
    state = q.encode(rng.normal(size=pair.n_total), pair)
    with pytest.raises(EvolutionError):
        q.evolve(state, q.build_hamiltonian(other), 0.1)


def test_augmented_states_cannot_be_evolved():
    layout = q.StateLayout(num_physical=2, block_dim=2, augmented=True)
    amps = np.zeros(4)
    amps[0] = 1.0
    state = q.QuantumRegisterState(amplitudes=amps, scale=1.0, layout=layout)
    ham, _ = _two_level()
    with pytest.raises(EvolutionError):
        q.evolve(state, ham, 0.1)

