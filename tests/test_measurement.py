import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qwavesim as q
from qwavesim.encoding import stack_substates
from qwavesim.errors import ComplexityWarning, MeasurementError

from conftest import build_acoustic_1d


def test_masked_permutation_worked_example():
    # Two sub-states [1,2] and [3,4]; the mask keeps coordinate 0 of each
    # block in place and swaps coordinate 1 into the aux=1 half.
    layout = q.StateLayout(num_physical=2, block_dim=2, arity=2, augmented=True)
    proj = q.SubspaceProjector(mask=np.array([True, False]))
    perm = q.masked_permutation(proj, layout)
    padded = np.array([1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(padded[perm], [1, 0, 3, 0, 0, 2, 0, 4])


def test_masked_permutation_is_self_inverse(rng):
    layout = q.StateLayout(num_physical=5, block_dim=8, arity=4, augmented=True)
    for _ in range(10):
        mask = rng.random(5) < 0.5
        proj = q.SubspaceProjector(mask=mask)
        perm = q.masked_permutation(proj, layout)
        np.testing.assert_array_equal(perm[perm], np.arange(perm.size))


def test_full_projector_keeps_everything_under_aux_zero(rng):
    v = rng.normal(size=4)
    state = q.encode(v, np.ones(4))
    aug = q.augment_state(state, q.SubspaceProjector.full(4))
    assert aug.layout.augmented
    np.testing.assert_array_equal(aug.amplitudes[:4], state.amplitudes)
    np.testing.assert_array_equal(aug.amplitudes[4:], 0.0)


def test_empty_projector_moves_everything_to_aux_one(rng):
    v = rng.normal(size=4)
    state = q.encode(v, np.ones(4))
    aug = q.augment_state(state, q.SubspaceProjector.empty(4))
    np.testing.assert_array_equal(aug.amplitudes[:4], 0.0)
    np.testing.assert_array_equal(aug.amplitudes[4:], state.amplitudes)


def test_two_state_observable_strings():
    obs = q.two_state_observable(3)
    assert [s.letters for s in obs.strings] == [
        "IIIII",
        "IXIII",
        "ZIIII",
        "ZXIII",
    ]
    assert [s.coeff for s in obs.strings] == [0.5, -0.5, 0.5, -0.5]
    assert sum(s.coeff for s in obs.strings) == 0.0


def test_two_state_observable_dense_block_form():
    # On (aux, substate) alone the string sum is the difference quadratic form
    obs = q.two_state_observable(0)
    dense = sum(s.coeff * s.dense() for s in obs.strings)
    np.testing.assert_array_equal(
        dense,
        [
            [1.0, -1.0, 0.0, 0.0],
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ],
    )


def test_multi_state_observable_counts_and_coefficients():
    for arity in (1, 2, 4, 8):
        obs = q.multi_state_observable(arity, 3)
        assert len(obs.strings) == 2 * arity
        assert all(s.coeff == 0.5 for s in obs.strings)
        assert all(set(s.letters) <= {"I", "X", "Z"} for s in obs.strings)
    with pytest.raises(MeasurementError):
        q.multi_state_observable(3, 2)


def test_pauli_expectation_matches_dense_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        letters = "".join(rng.choice(list("IXZ"), size=n))
        string = q.PauliString(letters, 1.0)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        direct = np.real(np.conj(psi) @ string.dense() @ psi)
        assert q.pauli_expectation(psi, string) == pytest.approx(direct, abs=1e-12)


def test_pauli_string_rejects_unsupported_letters():
    with pytest.raises(MeasurementError):
        q.PauliString("IYI", 1.0)


def test_single_state_full_subspace_recovers_the_energy(rng):
    pair = build_acoustic_1d(n=8)
    w = rng.normal(size=pair.n_total)
    state = q.encode(w, pair)
    res = q.estimate(state, q.SubspaceProjector.full(pair.n_total))
    assert res.value == pytest.approx(q.energy(state), rel=1e-12)
    assert res.mode == "exact"
    assert res.stderr == 0.0
    assert res.shots is None


def test_multi_state_loss_matches_dense_oracle(rng):
    for m in (1, 2, 4):
        for _ in range(5):
            n = int(rng.integers(3, 9))
            vectors = [rng.normal(size=n) for _ in range(m)]
            k = int(rng.integers(1, n))
            picked = rng.choice(n, size=k, replace=False)
            proj = q.SubspaceProjector(np.isin(np.arange(n), picked))
            res = q.estimate(vectors, proj)
            direct = float(np.sum(np.sum(vectors, axis=0)[proj.mask] ** 2))
            assert res.value == pytest.approx(direct, abs=1e-12)


def test_difference_loss_equals_summation_with_negated_second(rng):
    n = 6
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    proj = q.SubspaceProjector(np.isin(np.arange(n), [0, 2, 5]))
    obs = q.two_state_observable(3)
    diff = q.estimate([a, b], proj, observable=obs)
    summed = q.estimate([a, -b], proj)
    direct = float(np.sum((a - b)[proj.mask] ** 2))
    assert diff.value == pytest.approx(direct, abs=1e-12)
    assert summed.value == pytest.approx(direct, abs=1e-12)


def test_identical_states_have_zero_difference_loss(rng):
    a = rng.normal(size=5)
    proj = q.SubspaceProjector.full(5)
    res = q.estimate([a, a], proj, observable=q.two_state_observable(3))
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_all_zero_input_gives_null_estimate():
    res = q.estimate([np.zeros(4)], q.SubspaceProjector.full(4))
    assert res.value == 0.0
    assert res.stderr == 0.0


def test_shot_mode_needs_a_seed(rng):
    v = rng.normal(size=4)
    with pytest.raises(MeasurementError):
        q.estimate(
            [v],
            q.SubspaceProjector.full(4),
            q.EstimatorConfig(mode="shots", shots=100),
        )


def test_shot_mode_is_reproducible_and_consistent(rng):
    n = 6
    vectors = [rng.normal(size=n) for _ in range(2)]
    proj = q.SubspaceProjector(np.isin(np.arange(n), [1, 3, 4]))
    exact = q.estimate(vectors, proj).value
    cfg = q.EstimatorConfig(mode="shots", shots=20_000, seed=42)
    one = q.estimate(vectors, proj, cfg)
    two = q.estimate(vectors, proj, cfg)
    assert one.value == two.value
    assert one.stderr == two.stderr
    assert one.shots == 20_000
    assert one.stderr > 0.0
    assert abs(one.value - exact) < 6.0 * one.stderr
    other = q.estimate(
        vectors, proj, q.EstimatorConfig(mode="shots", shots=20_000, seed=43)
    )
    assert other.value != one.value


def test_estimator_config_validation():
    with pytest.raises(MeasurementError):
        q.EstimatorConfig(mode="guess")
    with pytest.raises(MeasurementError):
        q.EstimatorConfig(mode="shots", shots=1)


def test_weighted_l2_recovers_untransformed_misfit(rng):
    # With weights 1/B_j on blocks of constant energy weight, the weighted
    # loss of encoded states is the plain squared norm of the summed fields.
    pair = build_acoustic_1d(n=8, rho=2.0, c=3.0)
    n = pair.n_total
    w1 = rng.normal(size=n)
    w2 = rng.normal(size=n)
    b_diag = pair.b_diagonal()
    y = [np.sqrt(b_diag) * w1, np.sqrt(b_diag) * w2]
    n_sc = pair.grid.n_scalar
    scalar_mask = np.zeros(n, dtype=bool)
    scalar_mask[:n_sc] = True
    parts = [
        (q.SubspaceProjector(mask=scalar_mask), 18.0),
        (q.SubspaceProjector(mask=~scalar_mask), 0.5),
    ]
    got = q.weighted_l2(y, parts)
    assert got == pytest.approx(float(np.sum((w1 + w2) ** 2)), rel=1e-12)


def test_weighted_l2_single_partition_matches_estimate(rng):
    vectors = [rng.normal(size=5)]
    proj = q.SubspaceProjector(np.isin(np.arange(5), [0, 1]))
    direct = q.estimate(vectors, proj).value
    assert q.weighted_l2(vectors, [(proj, 1.0)]) == pytest.approx(direct, rel=1e-13)


def test_weighted_l2_rejects_overlap_and_bad_weights(rng):
    vectors = [rng.normal(size=5)]
    p1 = q.SubspaceProjector(np.isin(np.arange(5), [0, 1]))
    p2 = q.SubspaceProjector(np.isin(np.arange(5), [1, 2]))
    with pytest.raises(MeasurementError):
        q.weighted_l2(vectors, [(p1, 1.0), (p2, 1.0)])
    with pytest.raises(MeasurementError):
        q.weighted_l2(vectors, [(p1, -1.0)])
    with pytest.raises(MeasurementError):
        q.weighted_l2(vectors, [])


def test_large_subspace_warns_about_permutation_cost(rng):
    n = 200
    v = rng.normal(size=n)
    state = q.encode(v, np.ones(n))
    proj = q.SubspaceProjector(np.isin(np.arange(n), np.arange(0, n, 2)))
    with pytest.warns(ComplexityWarning):
        q.augment_state(state, proj)


def test_estimate_on_a_large_subspace_emits_no_complexity_warning(rng):
    n = 200
    v = rng.normal(size=n)
    state = q.encode(v, np.ones(n))
    proj = q.SubspaceProjector(np.isin(np.arange(n), np.arange(0, n, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexityWarning)
        exact = q.estimate(state, proj)
        q.estimate(state, proj, q.EstimatorConfig(mode="shots", shots=100, seed=1))
    inside = np.sum(np.abs(state.amplitudes[:n:2]) ** 2)
    assert exact.value == pytest.approx(state.scale**2 * inside)


def _all_words(arity: int, n_data: int) -> q.ObservableDecomposition:
    """Every {I, X, Z} word on aux and the substate qubits, identity on data."""
    n_sub = int(np.log2(arity))
    strings = tuple(
        q.PauliString("".join(word) + "I" * n_data, 1.0)
        for word in itertools.product("IXZ", repeat=1 + n_sub)
    )
    return q.ObservableDecomposition(strings=strings, arity=arity, n_data_qubits=n_data)


@given(
    arity=st.sampled_from([1, 2, 4, 8]),
    n=st.integers(1, 12),
    mask_kind=st.sampled_from(["empty", "full", "random"]),
    seed=st.integers(0, 2**16),
)
def test_block_gram_expectations_match_the_augmented_register(arity, n, mask_kind, seed):
    rng = np.random.default_rng(seed)
    vectors = [rng.normal(size=n) for _ in range(arity)]
    mask = {"empty": np.zeros(n, dtype=bool), "full": np.ones(n, dtype=bool)}.get(
        mask_kind, rng.random(n) < 0.5
    )
    proj = q.SubspaceProjector(mask=mask)
    stack = stack_substates(vectors)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ComplexityWarning)
        augmented = q.augment_state(stack, proj).amplitudes
    n_data = stack.layout.n_data_qubits
    observables = [q.multi_state_observable(arity, n_data), _all_words(arity, n_data)]
    if arity == 2:
        observables.append(q.two_state_observable(n_data))
    for observable in observables:
        result = q.estimate(stack, proj, observable=observable)
        oracle = [q.pauli_expectation(augmented, s) for s in observable.strings]
        np.testing.assert_allclose(result.string_expectations, oracle, rtol=0, atol=1e-12)
        expected = stack.scale**2 * sum(s.coeff * e for s, e in zip(observable.strings, oracle))
        assert result.value == pytest.approx(expected, rel=0, abs=1e-12 * stack.scale**2)


def _multinomial_reference(psi: np.ndarray, string: q.PauliString, shots: int, rng) -> float:
    """Parity mean of a multinomial bitstring draw after Hadamards on the X positions."""
    z_mask, x_mask = string.masks()
    rotated = psi.copy()
    for qubit in range(string.n_qubits):
        if (x_mask >> qubit) & 1:
            shaped = rotated.reshape(-1, 2, 1 << qubit)
            a, b = shaped[:, 0, :].copy(), shaped[:, 1, :].copy()
            shaped[:, 0, :] = (a + b) / np.sqrt(2.0)
            shaped[:, 1, :] = (a - b) / np.sqrt(2.0)
    probs = np.abs(rotated) ** 2
    counts = rng.multinomial(shots, probs / probs.sum())
    idx = np.arange(psi.size)
    eigs = 1.0 - 2.0 * (np.bitwise_count(idx & (z_mask | x_mask)) & 1)
    return float(np.dot(counts, eigs) / shots)


def test_binomial_shots_match_the_multinomial_bitstring_reference(rng):
    n, shots, reps = 3, 40, 2000
    vectors = [rng.normal(size=n) for _ in range(2)]
    proj = q.SubspaceProjector(np.isin(np.arange(n), [0, 2]))
    stack = stack_substates(vectors)
    observable = q.two_state_observable(stack.layout.n_data_qubits)
    augmented = q.augment_state(stack, proj).amplitudes
    fast = np.array([
        q.estimate(
            stack, proj, q.EstimatorConfig(mode="shots", shots=shots, seed=(5, k)), observable
        ).string_expectations
        for k in range(reps)
    ])
    ref_rng = np.random.default_rng(6)
    reference = np.array([
        [_multinomial_reference(augmented, s, shots, ref_rng) for s in observable.strings]
        for _ in range(reps)
    ])
    coeffs = np.array([s.coeff for s in observable.strings])
    for a, b in ((fast, reference), (fast @ coeffs, reference @ coeffs)):
        mean_a, mean_b = a.mean(axis=0), b.mean(axis=0)
        var_a, var_b = a.var(axis=0, ddof=1), b.var(axis=0, ddof=1)
        assert np.all(np.abs(mean_a - mean_b) <= 5.0 * np.sqrt((var_a + var_b) / reps))
        var_se = np.sqrt(2.0 * (var_a**2 + var_b**2) / (reps - 1))
        assert np.all(np.abs(var_a - var_b) <= 5.0 * var_se)


@pytest.mark.parametrize("letter", ["Z", "X"])
def test_estimate_refuses_a_string_on_the_data_qubits(rng, letter):
    vectors = [rng.normal(size=4) for _ in range(2)]
    observable = q.ObservableDecomposition(
        strings=(q.PauliString("II" + letter + "I", 1.0),), arity=2, n_data_qubits=2
    )
    with pytest.raises(MeasurementError, match="data qubits"):
        q.estimate(vectors, q.SubspaceProjector.full(4), observable=observable)
