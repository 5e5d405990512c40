"""Subspace losses of encoded states via Pauli expectation values.

The quantity produced here is ||sum_i P w_i||^2 for a diagonal 0/1 projector
P onto a set of unknowns and up to M stacked sub-states w_i. The route
mirrors what a quantum device would do:

  1. one auxiliary qubit is prepended and the register is permuted so the
     projected part of every sub-state sits under aux=0 and the complement
     under aux=1 (a self-inverse index permutation: P-masked coordinates stay,
     the rest swap halves),
  2. the loss operator factorizes over that layout into Pauli strings made of
     I, X, Z letters: 4 strings with coefficients (+1/2, -1/2, +1/2, -1/2)
     for the two-state difference loss ||P(a - b)||^2, and 2M strings with
     coefficients all +1/2 for the M-state summation loss (the substate
     factor is the all-ones matrix, written as the sum of all I/X words),
  3. each string is estimated exactly or from counts. Both loss
     decompositions are I or Z on aux, an I/X word on the substate qubits and
     identity on the data qubits, so the exact expectation needs no
     augmented register: with G_h the M x M Gram matrix of the sub-state
     blocks restricted to the subspace (h = 0) or its complement (h = 1), a
     string with substate masks (zs, xs) has expectation
     sum_h s_h sum_i (-1)^popcount(i & zs) G_h[i, i ^ xs], where s_1 = -1
     under aux Z and every other s_h = +1; an X on aux gives exactly 0
     because the two halves have disjoint supports. augment_state and
     pauli_expectation keep the explicit register route as a reference. In
     shot mode a device would rotate the X positions by Hadamards, draw
     bitstrings and keep the parity over the string's support; that parity
     count is binomial with success probability (1 + <string>)/2, so one
     binomial draw per string samples exactly the same distribution. Every
     string consumes its own independent child stream of the seed, in
     string order, so results are reproducible and string-wise independent.

Note the sign convention relating the two decompositions: the difference loss
expects the register loaded with (a, b), while the summation loss at M = 2
produces the same value when loaded with (a, -b). The physical scale of the
loaded state multiplies every estimate as scale^2.

Letters are written most-significant qubit first: aux, then the substate
index qubits, then the data qubits.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .encoding import QuantumRegisterState, StateLayout, next_power_of_two, stack_substates
from .errors import ComplexityWarning, MeasurementError


@dataclass(frozen=True)
class SubspaceProjector:
    """Diagonal 0/1 projector over the physical unknowns."""

    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 1 or mask.size == 0:
            raise MeasurementError("projector mask must be a nonempty 1-D bool array")
        object.__setattr__(self, "mask", mask)
        mask.setflags(write=False)

    @classmethod
    def full(cls, n: int) -> "SubspaceProjector":
        return cls(mask=np.ones(n, dtype=bool))

    @classmethod
    def empty(cls, n: int) -> "SubspaceProjector":
        return cls(mask=np.zeros(n, dtype=bool))

    @property
    def n(self) -> int:
        return int(self.mask.size)

    @property
    def cardinality(self) -> int:
        return int(np.count_nonzero(self.mask))

    def padded_mask(self, block_dim: int) -> np.ndarray:
        """Mask extended over pad coordinates (pads belong to the complement)."""
        out = np.zeros(block_dim, dtype=bool)
        out[: self.n] = self.mask
        return out


@dataclass(frozen=True)
class PauliString:
    """Tensor word over {I, X, Z} with a real coefficient, MSB first."""

    letters: str
    coeff: float

    def __post_init__(self):
        bad = set(self.letters) - set("IXZ")
        if bad:
            raise MeasurementError(
                f"unsupported Pauli letters {sorted(bad)}; decompositions here use I, X, Z"
            )

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    def masks(self) -> tuple[int, int]:
        """(z_mask, x_mask) with bit (n-1-k) for letter position k."""
        z = x = 0
        n = len(self.letters)
        for k, letter in enumerate(self.letters):
            bit = 1 << (n - 1 - k)
            if letter == "Z":
                z |= bit
            elif letter == "X":
                x |= bit
        return z, x

    def dense(self) -> np.ndarray:
        """Dense matrix of the word (without the coefficient); exponential size."""
        mats = {
            "I": np.eye(2),
            "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
            "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
        }
        out = np.array([[1.0]])
        for letter in self.letters:
            out = np.kron(out, mats[letter])
        return out


def pauli_expectation(psi: np.ndarray, string: PauliString) -> float:
    """Exact <psi|word|psi> by index arithmetic (no dense matrix)."""
    dim = psi.size
    if dim != 1 << string.n_qubits:
        raise MeasurementError("state dimension does not match the string length")
    z_mask, x_mask = string.masks()
    idx = np.arange(dim)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & z_mask) & 1)
    val = np.sum(np.conj(psi) * signs * psi[idx ^ x_mask])
    return float(np.real(val))


@dataclass(frozen=True)
class ObservableDecomposition:
    """Pauli strings and coefficients for one loss functional."""

    strings: tuple[PauliString, ...]
    arity: int
    n_data_qubits: int

    @property
    def n_qubits(self) -> int:
        return 1 + int(round(np.log2(self.arity))) + self.n_data_qubits

    def __post_init__(self):
        if self.arity != next_power_of_two(self.arity):
            raise MeasurementError("arity must be a power of two")
        for s in self.strings:
            if s.n_qubits != self.n_qubits:
                raise MeasurementError("string length does not match the register")


def two_state_observable(n_data_qubits: int) -> ObservableDecomposition:
    """Difference loss ||P(a - b)||^2 over a register loaded with (a, b).

    Four strings over (aux, one substate qubit, data tail), coefficients
    (+1/2, -1/2, +1/2, -1/2).
    """
    tail = "I" * n_data_qubits
    strings = (
        PauliString("I" + "I" + tail, 0.5),
        PauliString("I" + "X" + tail, -0.5),
        PauliString("Z" + "I" + tail, 0.5),
        PauliString("Z" + "X" + tail, -0.5),
    )
    return ObservableDecomposition(strings=strings, arity=2, n_data_qubits=n_data_qubits)


def multi_state_observable(arity: int, n_data_qubits: int) -> ObservableDecomposition:
    """Summation loss ||P sum_i w_i||^2 over an M-substate register.

    2M strings: (I or Z on aux) tensor (every I/X word on the substate
    qubits) tensor identity on data, all with coefficient +1/2. The substate
    factor sums to the all-ones matrix, which glues the sub-states into their
    coherent sum under aux = 0.
    """
    if arity != next_power_of_two(arity):
        raise MeasurementError("arity must be a power of two")
    n_sub = int(round(np.log2(arity)))
    tail = "I" * n_data_qubits
    strings = []
    for alpha in "IZ":
        for word in product("IX", repeat=n_sub):
            strings.append(PauliString(alpha + "".join(word) + tail, 0.5))
    return ObservableDecomposition(
        strings=tuple(strings), arity=arity, n_data_qubits=n_data_qubits
    )


# ---------------------------------------------------------------------------
# augmentation


def masked_permutation(projector: SubspaceProjector, layout: StateLayout) -> np.ndarray:
    """Self-inverse index permutation of the augmented register.

    Coordinates inside the subspace are fixed points; the rest swap between
    the aux=0 and aux=1 halves. Acts as identity on the substate index.
    """
    if projector.n != layout.num_physical:
        raise MeasurementError(
            f"projector covers {projector.n} unknowns, state has {layout.num_physical}"
        )
    block = layout.block_dim
    half = layout.arity * block
    pad_mask = projector.padded_mask(block)
    coord = np.tile(pad_mask, layout.arity)
    idx = np.arange(2 * half)
    perm = idx.copy()
    swap = ~np.concatenate([coord, coord])
    perm[swap] = idx[swap] ^ half  # flip the aux bit
    return perm


def augment_state(
    state: QuantumRegisterState, projector: SubspaceProjector
) -> QuantumRegisterState:
    """Prepend the auxiliary qubit and apply the masked permutation.

    The input stack (arity M, block dim L) becomes a 2ML register holding
    the projected parts of every sub-state in the aux=0 half and the
    complements in the aux=1 half. Norm and scale are untouched.
    """
    if state.layout.augmented:
        raise MeasurementError("state is already augmented")
    layout = StateLayout(
        num_physical=state.layout.num_physical,
        block_dim=state.layout.block_dim,
        arity=state.layout.arity,
        augmented=True,
    )
    d = projector.cardinality
    small = min(d, projector.n - d)
    if small > 4 * max(1, layout.n_data_qubits):
        warnings.warn(
            f"masked permutation needs {small} controlled flips on "
            f"{layout.n_data_qubits} data qubits; efficient only for small "
            "subspaces or small complements",
            ComplexityWarning,
            stacklevel=2,
        )
    half = state.layout.arity * state.layout.block_dim
    padded = np.concatenate([state.amplitudes, np.zeros(half)])
    perm = masked_permutation(projector, layout)
    return QuantumRegisterState(
        amplitudes=padded[perm], scale=state.scale, layout=layout
    )


# ---------------------------------------------------------------------------
# estimation


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator mode: exact string expectations or seeded binomial parity counts."""

    mode: str = "exact"
    shots: int = 10_000
    seed: int | tuple | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "shots"):
            raise MeasurementError(f"unknown estimator mode {self.mode!r}")
        if self.mode == "shots" and self.shots < 2:
            raise MeasurementError("shot mode needs at least 2 shots")
        limit = np.iinfo(np.int64).max  # rng.binomial draws its count as an int64
        if self.mode == "shots" and self.shots > limit:
            raise MeasurementError(
                f"shots must fit the sampler's int64 range (at most {limit}), got {self.shots}"
            )
        if self.mode == "shots" and self.seed is None:
            raise MeasurementError("shot mode without a seed is not reproducible; refusing")


@dataclass(frozen=True)
class EstimateResult:
    """Estimated loss value with its statistical error bar."""

    value: float
    stderr: float
    shots: int | None
    mode: str
    observable: ObservableDecomposition
    string_expectations: tuple[float, ...]


def _stack_states(states):
    """Validate the input and return it as one stacked, unaugmented register state.

    Vectors are stacked by stack_substates, which refuses a complex one.
    """
    if isinstance(states, QuantumRegisterState):
        if states.layout.augmented:
            raise MeasurementError("pass the unaugmented stack; augmentation happens here")
        return states
    vectors = [np.asarray(v) for v in states]
    if not vectors:
        raise MeasurementError("no states to estimate")
    n = vectors[0].size
    if any(v.shape != (n,) for v in vectors):
        raise MeasurementError("sub-state vectors must share one length")
    return stack_substates(vectors)


def _string_expectations(
    stack: QuantumRegisterState, projector: SubspaceProjector, strings
) -> list[float]:
    """Exact <string> over the augmented register, from two M x M block Gram matrices.

    G[0] and G[1] are the Gram matrices of the sub-state blocks restricted to
    the subspace and to its complement, the contents of the aux=0 and aux=1
    halves of augment_state(stack, projector).
    """
    layout = stack.layout
    if projector.n != layout.num_physical:
        raise MeasurementError(
            f"projector covers {projector.n} unknowns, state has {layout.num_physical}"
        )
    n_data, n_sub = layout.n_data_qubits, layout.n_substate_qubits
    blocks = stack.amplitudes.reshape(layout.arity, layout.block_dim)
    inside = projector.padded_mask(layout.block_dim)
    gram = np.stack([b @ b.T for b in (blocks[:, inside], blocks[:, ~inside])])
    sub = np.arange(layout.arity)
    out = []
    for string in strings:
        z_mask, x_mask = string.masks()
        if (x_mask >> (n_data + n_sub)) & 1:
            out.append(0.0)  # aux X couples the two halves, whose supports are disjoint
            continue
        zs = (z_mask >> n_data) & (layout.arity - 1)
        xs = (x_mask >> n_data) & (layout.arity - 1)
        signs = 1.0 - 2.0 * (np.bitwise_count(sub & zs) & 1)
        halves = gram[:, sub, sub ^ xs] @ signs
        aux_sign = -1.0 if (z_mask >> (n_data + n_sub)) & 1 else 1.0
        out.append(float(halves[0] + aux_sign * halves[1]))
    return out


def estimate(
    states,
    projector: SubspaceProjector,
    config: EstimatorConfig | None = None,
    observable: ObservableDecomposition | None = None,
) -> EstimateResult:
    """Estimate a subspace loss of one or more (sub-)states.

    Args:
        states: a stacked QuantumRegisterState, or a sequence of equal-length
            vectors that will be stacked (padded to power-of-two arity).
        projector: subspace mask over the physical unknowns.
        config: exact expectations by default; shot mode requires a seed.
        observable: defaults to the summation loss for the stack's arity;
            pass the two-state difference observable for ||P(a-b)||^2. Its
            strings must be the identity on the data qubits.

    Returns:
        EstimateResult whose value is scale^2 * sum_j c_j <string_j>. The
        exact expectations come from the block Gram matrices, without
        building the augmented register. In shot mode each string's +-1
        parity count is one binomial draw of config.shots with success
        probability (1 + <string_j>)/2, from the string's own child stream of
        the seed (string order), so runs with one seed are reproducible;
        stderr combines the per-string sample variances.
    """
    config = config or EstimatorConfig()
    stack = _stack_states(states)
    layout = stack.layout
    if observable is None:
        observable = multi_state_observable(layout.arity, layout.n_data_qubits)
    if observable.arity != layout.arity or observable.n_data_qubits != layout.n_data_qubits:
        raise MeasurementError("observable register does not match the state layout")
    data_bits = (1 << layout.n_data_qubits) - 1
    if any((z | x) & data_bits for z, x in (s.masks() for s in observable.strings)):
        raise MeasurementError("observable strings must be the identity on the data qubits")

    if stack.is_null:
        return EstimateResult(
            value=0.0,
            stderr=0.0,
            shots=config.shots if config.mode == "shots" else None,
            mode=config.mode,
            observable=observable,
            string_expectations=tuple(0.0 for _ in observable.strings),
        )

    expectations = _string_expectations(stack, projector, observable.strings)
    scale_sq = stack.scale**2
    stderr, shots = 0.0, None
    if config.mode == "shots":
        shots = config.shots
        streams = np.random.SeedSequence(config.seed).spawn(len(observable.strings))
        sampled, variances = [], []
        for e, stream in zip(expectations, streams):
            rng = np.random.default_rng(stream)
            n_plus = int(rng.binomial(shots, np.clip((1.0 + e) / 2.0, 0.0, 1.0)))
            mean = (2 * n_plus - shots) / shots
            sample_var = max(0.0, shots * (1.0 - mean**2) / (shots - 1))
            sampled.append(mean)
            variances.append(sample_var / shots)
        expectations = sampled
        stderr = scale_sq * float(
            np.sqrt(np.sum([s.coeff**2 * v for s, v in zip(observable.strings, variances)]))
        )
    value = scale_sq * float(
        np.sum([s.coeff * e for s, e in zip(observable.strings, expectations)])
    )
    return EstimateResult(
        value=value,
        stderr=stderr,
        shots=shots,
        mode=config.mode,
        observable=observable,
        string_expectations=tuple(expectations),
    )


def weighted_l2(states, partitions, config: EstimatorConfig | None = None) -> float:
    """Weighted sum of subspace losses over disjoint partitions.

    partitions is a sequence of (projector, weight) with positive weights and
    pairwise disjoint masks. With weights 1/B_j on blocks where the energy
    weight is the constant B_j, the result is the untransformed squared
    misfit of the underlying fields. In shot mode each partition consumes an
    independent child of the seed.
    """
    parts = list(partitions)
    if not parts:
        raise MeasurementError("no partitions given")
    n = parts[0][0].n
    occupied = np.zeros(n, dtype=bool)
    for proj, weight in parts:
        if proj.n != n:
            raise MeasurementError("partition masks must share one length")
        if not np.isfinite(weight) or weight <= 0.0:
            raise MeasurementError("partition weights must be positive")
        if np.any(occupied & proj.mask):
            raise MeasurementError("partitions overlap; weighted loss needs disjoint masks")
        occupied |= proj.mask
    config = config or EstimatorConfig()
    total = 0.0
    for j, (proj, weight) in enumerate(parts):
        part_config = config
        if config.mode == "shots":
            base = config.seed if isinstance(config.seed, tuple) else (config.seed,)
            part_config = EstimatorConfig(
                mode="shots", shots=config.shots, seed=tuple(base) + (j,)
            )
        total += weight * estimate(states, proj, part_config).value
    return float(total)
