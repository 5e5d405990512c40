"""Hermitian encoding of energy-conserving systems onto a qubit register.

A real system B dw/dt = A w with B diagonal positive and A antisymmetric is
mapped to Schrodinger form by the similarity y = B^{1/2} w. Systems carry A
as sparse CSR and B as its diagonal vector (``b_diagonal()``), so every
function here takes that vector, never a matrix B:

    dy/dt = -i H y,    H = i K,    K = B^{-1/2} A B^{-1/2}.

K is real and antisymmetric, so H is Hermitian, the evolution e^{-iHt} =
e^{Kt} is unitary and the squared encoded norm is conserved. A Hamiltonian
holds K, in the canonical float64 CSR form of A; the complex H is never
stored. That norm carries the physics: |y|^2 = <w|B|w> is twice the total
energy of the field, potential plus kinetic, and it is stored separately as
a scale factor so the register amplitudes can stay unit norm. Amplitudes are
padded with exact zeros up to the next power of two; the pad coordinates
never couple to anything.

Functions of H reach vectors through one method, ``Hamiltonian.apply``, and
this module alone chooses how. On the staggered grid A couples scalars only
to fluxes, so K = [[0, C], [-C^T, 0]] with C real, n_scalar x n_flux, and H
is chiral. With the thin SVD C = U diag(s) V^T, H has eigenvalues +-s and
zeros, and every mode k turns the pair (u_k, v_k); for a function phi with
phi(-s) the conjugate of phi(s), a real operator,

    phi(H) w = phi(0) w + [U(a * U^T x + b * V^T y); V(a * V^T y - b * U^T x)],
    a = Re phi(s) - phi(0),  b = -Im phi(s),

for x = w[:split] the scalar and y the flux coordinates (e^{-iHt} has
a = cos(st) - 1, b = sin(st)). The zero modes need no vectors, because they
are the phi(0) term. Every Hamiltonian is chiral: it records the
scalar/flux split, and a K with a stored entry inside either diagonal block
is refused. The dense decomposition is the real thin SVD (s, U, V) of C,
applied in this real form; no complex eigenvectors are built.

A register state may stack several sub-states (block dimension times arity)
and may carry one auxiliary qubit in front (the measurement layout); the
layout bookkeeping lives here so every module talks about the same ordering:
index = aux * (arity * block_dim) + substate * block_dim + coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .discretize import antisymmetry_defect, diagonal_block_entry
from .errors import EncodingError, NumericalError

HERMITICITY_TOL = 1e-12
DECODE_IMAG_TOL = 1e-9
_MEMO_KEY = "_hamiltonian"  # where build_hamiltonian keeps a system's H


def next_power_of_two(n: int) -> int:
    if n < 1:
        raise EncodingError("dimension must be positive")
    p = 1
    while p < n:
        p *= 2
    return p


@dataclass(frozen=True)
class StateLayout:
    """Register layout: arity sub-states of block_dim with num_physical live coords."""

    num_physical: int
    block_dim: int
    arity: int = 1
    augmented: bool = False

    def __post_init__(self):
        if self.num_physical < 1 or self.num_physical > self.block_dim:
            raise EncodingError("physical dimension must fit the padded block")
        if self.block_dim != next_power_of_two(self.block_dim):
            raise EncodingError("block dimension must be a power of two")
        if self.arity != next_power_of_two(self.arity):
            raise EncodingError("arity must be a power of two")

    @property
    def total_dim(self) -> int:
        return self.block_dim * self.arity * (2 if self.augmented else 1)

    @property
    def n_qubits(self) -> int:
        return int(round(np.log2(self.total_dim)))

    @property
    def n_data_qubits(self) -> int:
        return int(round(np.log2(self.block_dim)))

    @property
    def n_substate_qubits(self) -> int:
        return int(round(np.log2(self.arity)))


@dataclass(frozen=True)
class QuantumRegisterState:
    """Unit-norm complex amplitudes plus the physical scale they stand for.

    scale is the encoded norm |B^{1/2} w| (or of the stacked vector); the
    special null state has scale 0 and all-zero amplitudes and cannot be
    decoded. Amplitudes are immutable.
    """

    amplitudes: np.ndarray
    scale: float
    layout: StateLayout

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.layout.total_dim,):
            raise EncodingError(
                f"amplitude vector has dim {amps.shape}, layout wants {self.layout.total_dim}"
            )
        if self.scale < 0.0 or not np.isfinite(self.scale):
            raise EncodingError("scale must be finite and nonnegative")
        if self.scale == 0.0:
            if np.any(amps != 0):
                raise EncodingError("null state must have zero amplitudes")
        else:
            # the real and imaginary parts as one contiguous real vector: one dot, not two strided
            norm = float(np.linalg.norm(np.ascontiguousarray(amps).view(np.float64)))
            if not np.isfinite(norm):  # a NaN norm would pass the unit-norm test
                raise EncodingError("amplitudes must be finite")
            if abs(norm - 1.0) > 1e-12:
                raise EncodingError(f"amplitudes must be unit norm, got {norm!r}")
        object.__setattr__(self, "amplitudes", amps)
        amps.setflags(write=False)

    @property
    def is_null(self) -> bool:
        return self.scale == 0.0

    @property
    def n_qubits(self) -> int:
        return self.layout.n_qubits

    def block(self, s: int) -> np.ndarray:
        """Amplitudes of sub-state s (top half only, for augmented states)."""
        if not 0 <= s < self.layout.arity:
            raise EncodingError("sub-state index out of range")
        d = self.layout.block_dim
        return self.amplitudes[s * d : (s + 1) * d]

    def with_amplitudes(self, amps: np.ndarray) -> "QuantumRegisterState":
        return QuantumRegisterState(amplitudes=amps, scale=self.scale, layout=self.layout)


def stack_substates(vectors, arity: int = 1) -> QuantumRegisterState:
    """Stack equal-length vectors into one register, sub-state s in block s.

    Each vector is zero-padded to a power-of-two block; the arity is at least
    len(vectors), rounded up to a power of two, with zero pad blocks. The
    stack is normalized and its norm kept as the scale (all zeros give the
    null state). The norm is taken over the vectors themselves, not the
    padded stack, and their real and imaginary parts are divided by it
    separately, straight into the register, so one real vector gets exactly
    the scale of np.linalg.norm and the amplitudes of a real division.
    Callers validate the vectors.
    """
    vectors = [np.asarray(v) for v in vectors]
    n = len(vectors[0])
    block = next_power_of_two(n)
    m = next_power_of_two(max(len(vectors), arity))
    stacked = np.zeros(m * block, dtype=np.complex128)
    layout = StateLayout(num_physical=n, block_dim=block, arity=m)
    scale = float(np.sqrt(sum(np.vdot(v, v).real for v in vectors)))
    if scale == 0.0:
        return QuantumRegisterState(amplitudes=stacked, scale=0.0, layout=layout)
    for row, v in zip(stacked.reshape(m, block), vectors):
        np.divide(v.real, scale, out=row.real[:n])
        if np.iscomplexobj(v):
            np.divide(v.imag, scale, out=row.imag[:n])
    return QuantumRegisterState(amplitudes=stacked, scale=scale, layout=layout)


@dataclass
class Hamiltonian:
    """The Hermitian generator H = iK, held as the real antisymmetric K.

    generator is K as canonical float64 CSR (sorted indices, no duplicates,
    no stored zeros); maxnorm is max|H_jk| = max|K_jk| and sparsity the
    largest row population. split is the number of leading scalar
    coordinates; H is chiral about it. The dense decomposition the
    module docstring describes is memoized on first use (``_eig``), and
    ``apply`` is the one way to use it. evolve takes the
    dense backend whenever that memo is set or dim <= MAX_DENSE_DIM, and the
    sparse polynomial action of K otherwise; there is no option to override
    it. The stacked schedule generators of the evolution module keep a
    single-block Hamiltonian and act through it, so one decomposition of the
    block H serves every block of every generator built from it.
    build_hamiltonian memoizes its result on the (frozen, never mutated in
    place) system object it was given, so every caller that asks for the H
    of one system (the forced solve, the windowed slices, the sync and mult
    generators) shares this instance and its one decomposition.
    """

    generator: sp.csr_matrix
    maxnorm: float
    sparsity: int
    split: int
    _eig: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_matrix(cls, generator, split: int) -> "Hamiltonian":
        """Wrap a real generator K (H = iK) as CSR without duplicates or stored zeros.

        K must couple the first split coordinates (the scalars) only to the rest.
        """
        k = sp.csr_matrix(generator)
        if np.iscomplexobj(k.data):
            raise EncodingError("the generator K of H = iK must be real")
        k = k.astype(np.float64, copy=False)
        k.sum_duplicates()
        k.eliminate_zeros()
        entry = diagonal_block_entry(k, split)
        if entry is not None:
            side = "scalar" if entry[0] < split else "flux"
            raise EncodingError(f"K is not chiral: entry {entry} couples two {side} coordinates")
        return cls(
            generator=k,
            maxnorm=float(np.abs(k.data).max()) if k.nnz else 0.0,
            sparsity=int(np.diff(k.indptr).max()) if k.nnz else 0,
            split=split,
        )

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    @property
    def n_qubits(self) -> int:
        return int(round(np.log2(next_power_of_two(self.dim))))

    def hermiticity_defect(self) -> float:
        """max|H - H^H| = max|K + K^T|."""
        return antisymmetry_defect(self.generator)

    def eigendecomposition(self) -> tuple[np.ndarray, ...]:
        """The memoized dense decomposition of H.

        It is the real thin SVD (s, U, V) of the scalar x flux block
        C = U diag(s) V^T of K.
        """
        if self._eig is None:
            c = self.generator[: self.split, self.split :].toarray()
            u, s, vt = np.linalg.svd(c, full_matrices=False)
            self._eig = (s, u, vt.T)
        return self._eig

    def frequencies(self) -> np.ndarray:
        """Where ``apply`` takes phi: the singular values of C."""
        return self.eigendecomposition()[0]

    def apply(self, phi: np.ndarray, phi0, w: np.ndarray) -> np.ndarray:
        """phi(H) applied to the columns of w, from the memoized decomposition.

        phi holds the function's values at ``frequencies()``, shaped (k, 1),
        or (k, columns) for a real w; phi0 is its value at the zero modes, a
        scalar or one per column. phi(H) is real (see the module
        docstring): a real w gives a real result, and the real and
        imaginary parts of a complex w are turned as real columns, never a
        complex product against U or V.
        """
        if np.iscomplexobj(w):
            cols = w.shape[1]
            out = self.apply(phi, phi0, np.concatenate([w.real, w.imag], axis=1))
            return out[:, :cols] + 1j * out[:, cols:]
        _, u, v = self.eigendecomposition()
        a, b = phi.real - phi0, -phi.imag
        x, y = w[: self.split], w[self.split :]
        ux, vy = u.T @ x, v.T @ y
        out = np.concatenate([u @ (a * ux + b * vy), v @ (a * vy - b * ux)])
        out += phi0 * w
        return out


def _as_b_diagonal(b) -> np.ndarray:
    """Accept an OperatorPair/ReducedSystem or a plain diagonal."""
    diag = b.b_diagonal() if hasattr(b, "b_diagonal") else np.asarray(b, dtype=np.float64)
    if diag.ndim != 1 or np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        raise EncodingError("energy weight diagonal must be positive and finite")
    return diag


def build_hamiltonian(system) -> Hamiltonian:
    """H = iK, K = B^{-1/2} A B^{-1/2}, from an operator pair or reduced system.

    Accepts anything exposing a sparse generator .A, the diagonal of B
    through .b_diagonal() and the scalar coordinates as .scalar_slice.
    Hermiticity is verified to 1e-12 in the max-entry norm; the input
    antisymmetry guarantees it, and this is the line of defense against an
    operator assembled some other way. The split is scalar_slice.stop, and
    a K that couples two scalars or two fluxes is refused with an
    EncodingError naming the entry (see Hamiltonian.from_matrix).

    A frozen dataclass system (OperatorPair, ReducedSystem) keeps the result
    in its instance ``__dict__``, outside its fields, so eq and repr are
    unchanged: a later call with the same object returns the same
    Hamiltonian, and with it the same memoized decomposition. Two equal
    systems are two objects and build two Hamiltonians. The memo assumes the
    frozen system is never mutated in place (no write into A or b_diag);
    any other object, such as a mutable namespace, is built afresh per call.
    """
    params = getattr(type(system), "__dataclass_params__", None)
    memo = vars(system) if params is not None and params.frozen else {}
    if _MEMO_KEY not in memo:
        memo[_MEMO_KEY] = _build_hamiltonian(system)
    return memo[_MEMO_KEY]


def _build_hamiltonian(system) -> Hamiltonian:
    diag = _as_b_diagonal(system)
    if system.A.shape[0] != diag.size:
        raise EncodingError("generator and energy weight dimensions differ")
    inv_sqrt = sp.diags(1.0 / np.sqrt(diag))
    k = inv_sqrt @ sp.csr_matrix(system.A) @ inv_sqrt
    ham = Hamiltonian.from_matrix(k, system.scalar_slice.stop)
    defect = ham.hermiticity_defect()
    if defect > HERMITICITY_TOL:
        raise NumericalError(f"encoded generator is not Hermitian: defect {defect:.3e}")
    return ham


def encode(w: np.ndarray, b) -> QuantumRegisterState:
    """Encode a real field vector: amplitudes = B^{1/2} w / scale, padded.

    The scale is the encoded norm, whose square equals the energy quadrature
    <w|B|w> term by term (same arithmetic as the energy report). The zero
    field maps to the null state.
    """
    diag = _as_b_diagonal(b)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != diag.shape:
        raise EncodingError("field vector and energy weight dimensions differ")
    return stack_substates([np.sqrt(diag) * w])


def decode(state: QuantumRegisterState, b) -> np.ndarray:
    """Invert the encoding: w = B^{-1/2} (scale * amplitudes), real part.

    Requires a single-substate, unaugmented, non-null state whose pad
    coordinates are numerically zero. Real systems stay real under the
    encoded evolution; a residual imaginary part above 1e-9 of the scale
    means the state was produced some other way and decoding refuses.
    """
    if state.is_null:
        raise EncodingError("cannot decode the null state")
    if state.layout.arity != 1 or state.layout.augmented:
        raise EncodingError("decode expects a single unaugmented sub-state")
    diag = _as_b_diagonal(b)
    n = diag.size
    if n != state.layout.num_physical:
        raise EncodingError("energy weight does not match the encoded layout")
    pads = state.amplitudes[n:]
    if pads.size and np.abs(pads).max() > 1e-12:
        raise EncodingError("pad coordinates are not zero; layout mismatch")
    y = state.scale * state.amplitudes[:n]
    imag_max = float(np.abs(y.imag).max()) if n else 0.0
    if imag_max > DECODE_IMAG_TOL * max(state.scale, 1.0):
        raise EncodingError(
            f"state is not a real-field encoding (imaginary residual {imag_max:.3e})"
        )
    return y.real / np.sqrt(diag)


def energy(state: QuantumRegisterState) -> float:
    """Total conserved quadrature scale^2 = <w|B|w> (twice the field energy)."""
    return float(state.scale**2)
