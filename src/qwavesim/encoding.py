"""Hermitian encoding of energy-conserving systems onto a qubit register.

A real system B dw/dt = A w with B diagonal positive and A antisymmetric is
mapped to Schrodinger form by the similarity y = B^{1/2} w. Systems carry A
as sparse CSR and B as its diagonal vector (``b_diagonal()``), so every
function here takes that vector, never a matrix B:

    dy/dt = -i H y,    H = i K,    K = B^{-1/2} A B^{-1/2}.

K is real and antisymmetric, so H is Hermitian, the evolution e^{-iHt} =
e^{Kt} is a real orthogonal map and the squared encoded norm is conserved.
A Hamiltonian holds K, in the canonical float64 CSR form of A; the complex H
is never stored. Every state the package makes is therefore real, and the
register holds float64 amplitudes: a complex array is refused by its dtype,
never cast. That norm carries the physics: |y|^2 = <w|B|w> is twice the total
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
is refused. A Hamiltonian holds (U, s, V) in one of two bases, applied in
this real form; no complex eigenvectors are built:

- the box basis, where build_hamiltonian finds it exact: the system is an
  OperatorPair (no constraints, so natural walls), its scalar weights are
  bit-for-bit one constant and so is each flux family, and the entries of C
  on axis a's fluxes have one magnitude e_a (each flux column two entries
  of opposite sign, on the two nodes the flux sits between). Then
  C C^T = sum_a e_a^2 L_a with L_a the Neumann second difference along
  axis a, which the orthonormal DCT-II diagonalizes (Strang, SIAM Review
  41(1), 1999): U is the tensor-product DCT-II in x-fastest mode order and
  s_k = sqrt(sum_a 4 e_a^2 sin^2(pi k_a / (2 n_a))) for n_a nodes on axis
  a. The one zero mode k = 0 is dropped, so ``frequencies()`` is the
  n_scalar - 1 values s > 0 in that mode order, and V = C^T U diag(1/s) is
  never formed. ``apply`` is two forward and two inverse ``scipy.fft`` DCTs
  and one product each with C and C^T: O(n log n), no n x n array, and
  ``propagate`` takes it at every dimension. scipy.fft is imported at the
  first box ``apply``, so no command pays for it at start-up;
- otherwise the dense thin SVD C = U diag(s) V^T, memoized on first use.

A Hamiltonian is verified once, where ``from_matrix`` makes it, so no user
checks H = iK again: K must be finite, real, chiral and antisymmetric to
HERMITICITY_TOL of max|K| (the defect is rounding that grows with the
entries). ``Hamiltonian.propagate`` is the one way to apply e^{-iHt}.
scipy.sparse is imported where build_hamiltonian forms K, so importing this
module loads no scipy.

A register state may stack several sub-states (block dimension times arity)
and may carry one auxiliary qubit in front (the measurement layout); the
layout bookkeeping lives here so every module talks about the same ordering:
index = aux * (arity * block_dim) + substate * block_dim + coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .discretize import OperatorPair, antisymmetry_defect, canonical_csr, diagonal_block_entry
from .errors import EncodingError, NumericalError

if TYPE_CHECKING:
    import scipy.sparse as sp

HERMITICITY_TOL = 1e-12  # of max|K|
MAX_DENSE_DIM = 4096  # largest SVD-basis dimension propagate decomposes without a cached SVD
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


def _real(values, what: str) -> np.ndarray:
    """values as float64; a complex array is refused by its dtype, never cast."""
    if np.iscomplexobj(values):
        raise EncodingError(f"{what} must be real: e^{{-iHt}} = e^{{tK}} keeps every state real")
    return np.asarray(values, dtype=np.float64)


@dataclass(frozen=True)
class QuantumRegisterState:
    """Unit-norm real (float64) amplitudes plus the physical scale they stand for.

    scale is the encoded norm |B^{1/2} w| (or of the stacked vector); the
    special null state has scale 0 and all-zero amplitudes and cannot be
    decoded. A complex array is refused, whatever its imaginary part.
    Amplitudes are immutable: a float64 array is held as given, not
    copied, and set read-only.
    """

    amplitudes: np.ndarray
    scale: float
    layout: StateLayout

    def __post_init__(self):
        amps = _real(self.amplitudes, "register amplitudes")
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
            norm = float(np.sqrt(np.sum(np.square(amps))))  # pairwise, not a threaded BLAS dot
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


def stack_substates(vectors) -> QuantumRegisterState:
    """Stack equal-length vectors into one register, sub-state s in block s.

    Each vector is zero-padded to a power-of-two block; the arity is
    len(vectors) rounded up to a power of two, with zero pad blocks. The
    stack is normalized and its norm kept as the scale (all zeros give the
    null state). The norm is taken over the vectors themselves, not the
    padded stack, as numpy's pairwise sums of their squares, not a BLAS
    dot, so it does not change with the BLAS thread count. Each vector is
    divided by it straight into the register. A complex vector is refused;
    callers validate the shapes.
    """
    vectors = [_real(v, "sub-state vectors") for v in vectors]
    n = len(vectors[0])
    block = next_power_of_two(n)
    m = next_power_of_two(len(vectors))
    stacked = np.zeros(m * block)
    layout = StateLayout(num_physical=n, block_dim=block, arity=m)
    scale = float(np.sqrt(sum(np.sum(np.square(v)) for v in vectors)))
    if scale == 0.0:
        return QuantumRegisterState(amplitudes=stacked, scale=0.0, layout=layout)
    for row, v in zip(stacked.reshape(m, block), vectors):
        np.divide(v, scale, out=row[:n])
    return QuantumRegisterState(amplitudes=stacked, scale=scale, layout=layout)


@dataclass(frozen=True)
class _BoxBasis:
    """The closed-form basis of C on a homogeneous box (see the module docstring).

    shape holds the node count per axis, x first; s the frequencies in
    x-fastest mode order, zero mode dropped; c is C and ct its transpose,
    both canonical CSR.
    """

    shape: tuple[int, ...]
    s: np.ndarray
    c: sp.csr_matrix
    ct: sp.csr_matrix

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """U^T x for the scalar columns of x: the DCT-II without the zero mode."""
        from scipy.fft import dctn

        cols = x.shape[1]
        axes = tuple(range(len(self.shape)))
        return dctn(x.reshape(*self.shape[::-1], cols), 2, axes=axes, norm="ortho").reshape(-1, cols)[1:]

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """U coeffs: the inverse DCT-II of the columns of coeffs, zero mode 0."""
        from scipy.fft import idctn

        cols = coeffs.shape[1]
        full = np.zeros((coeffs.shape[0] + 1, cols))
        full[1:] = coeffs
        axes = tuple(range(len(self.shape)))
        return idctn(full.reshape(*self.shape[::-1], cols), 2, axes=axes, norm="ortho").reshape(-1, cols)


@dataclass
class Hamiltonian:
    """The Hermitian generator H = iK, held as the real antisymmetric K.

    generator is K as canonical float64 CSR (sorted indices, no duplicates,
    no stored zeros); maxnorm is max|H_jk| = max|K_jk| and sparsity the
    largest row population. split is the number of leading scalar
    coordinates; H is chiral about it. ``from_matrix`` makes and verifies
    one. ``apply`` is the one way to use its basis, which ``basis`` names:
    "box", the closed form build_hamiltonian attaches to a homogeneous
    OperatorPair, or "svd", the dense thin SVD, memoized on first use
    (``_eig``). ``eigendecomposition()`` returns that SVD on any H, box
    ones included. The stacked schedule generators of the evolution module keep
    a single-block Hamiltonian and act through it, so one basis of the
    block H serves every block of every generator built from it.
    build_hamiltonian memoizes its result on the (frozen, never mutated in
    place) system object it was given, so every caller that asks for the H
    of one system (the forced solve, the windowed slices, the sync and mult
    generators) shares this instance and its one basis.
    """

    generator: sp.csr_matrix
    maxnorm: float
    sparsity: int
    split: int
    _eig: tuple | None = field(default=None, repr=False, compare=False)
    _box: _BoxBasis | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_matrix(cls, generator, split: int) -> "Hamiltonian":
        """Wrap a real generator K (H = iK) in canonical CSR, once verified.

        K must be finite, couple the first split coordinates (the scalars)
        only to the rest, and be antisymmetric to HERMITICITY_TOL of max|K|.
        A complex or non-chiral K is an EncodingError; a non-finite or
        non-antisymmetric one a NumericalError. The H takes the SVD basis.
        """
        if np.iscomplexobj(generator):
            raise EncodingError("the generator K of H = iK must be real")
        k = canonical_csr(generator, NumericalError)
        entry = diagonal_block_entry(k, split)
        if entry is not None:
            side = "scalar" if entry[0] < split else "flux"
            raise EncodingError(f"K is not chiral: entry {entry} couples two {side} coordinates")
        maxnorm = float(np.abs(k.data).max()) if k.nnz else 0.0
        defect = antisymmetry_defect(k)
        if defect > HERMITICITY_TOL * maxnorm:
            raise NumericalError(
                f"encoded generator is not Hermitian: defect {defect:.3e} "
                f"exceeds {HERMITICITY_TOL:g} of max|K| {maxnorm:.3e}"
            )
        return cls(
            generator=k,
            maxnorm=maxnorm,
            sparsity=int(np.diff(k.indptr).max()) if k.nnz else 0,
            split=split,
        )

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    @property
    def n_qubits(self) -> int:
        return int(round(np.log2(next_power_of_two(self.dim))))

    @property
    def basis(self) -> str:
        """The basis ``apply`` works in: "box" (closed form) or "svd" (dense thin SVD)."""
        return "svd" if self._box is None else "box"

    def hermiticity_defect(self) -> float:
        """max|H - H^H| = max|K + K^T|."""
        return antisymmetry_defect(self.generator)

    def eigendecomposition(self) -> tuple[np.ndarray, ...]:
        """The memoized dense decomposition of H.

        It is the real thin SVD (s, U, V) of the scalar x flux block
        C = U diag(s) V^T of K. ``apply`` uses it only when ``basis`` is
        "svd"; on a box H it is computed only for a caller that asks.
        """
        if self._eig is None:
            c = self.generator[: self.split, self.split :].toarray()
            u, s, vt = np.linalg.svd(c, full_matrices=False)
            self._eig = (s, u, vt.T)
        return self._eig

    def frequencies(self) -> np.ndarray:
        """Where ``apply`` takes phi: the singular values s of C in the basis's order.

        In the SVD basis, all min(n_scalar, n_flux) of them, descending and
        zeros included; in the box basis, the n_scalar - 1 values s > 0 in
        x-fastest mode order.
        """
        return self.eigendecomposition()[0] if self._box is None else self._box.s

    def apply(self, phi: np.ndarray, phi0, w: np.ndarray) -> np.ndarray:
        """phi(H) applied to the columns of w, in the H's basis.

        phi holds the function's values at ``frequencies()``, shaped (k, 1)
        or (k, columns); phi0 is its value at the zero modes, a scalar or one
        per column. phi(H) is real (see the module docstring), so the real
        columns of w give real columns, and no complex product against U or
        V is formed.
        """
        a, b = phi.real - phi0, -phi.imag
        x, y = w[: self.split], w[self.split :]
        box = self._box
        if box is None:
            _, u, v = self.eigendecomposition()
            ux, vy = u.T @ x, v.T @ y
            out = np.concatenate([u @ (a * ux + b * vy), v @ (a * vy - b * ux)])
        else:
            s = box.s[:, None]
            ux, vy = box.coefficients(x), box.coefficients(box.c @ y) / s
            out = np.concatenate(
                [box.synthesize(a * ux + b * vy), box.ct @ box.synthesize((a * vy - b * ux) / s)]
            )
        out += phi0 * w
        return out

    def propagate(self, w: np.ndarray, t: float) -> np.ndarray:
        """e^{-iHt} = e^{tK} applied to the columns of w; there is no option.

        Through ``apply`` in the box basis at every dimension, and in the SVD
        basis when it is cached or dim <= MAX_DENSE_DIM; else by the sparse
        polynomial action of tK (Al-Mohy and Higham 2011; cost roughly
        nnz * |H| * t), which never decomposes.
        """
        if self._box is not None or self._eig is not None or self.dim <= MAX_DENSE_DIM:
            return self.apply(np.exp(-1j * self.frequencies() * t)[:, None], 1.0, w)
        # imported here: scipy.sparse.linalg (and scipy.linalg under it) is only
        # needed above MAX_DENSE_DIM, so no command pays for it at start-up
        from scipy.sparse.linalg import expm_multiply

        return expm_multiply((t * self.generator).tocsc(), w)


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
    The split is scalar_slice.stop; Hamiltonian.from_matrix verifies K,
    refusing one that couples two scalars or two fluxes, or whose
    antisymmetry defect exceeds HERMITICITY_TOL of max|K|. The H takes the
    box basis where it is exact (see the module docstring), else the SVD.

    A frozen dataclass system (OperatorPair, ReducedSystem) keeps the result
    in its instance ``__dict__``, outside its fields, so eq and repr are
    unchanged: a later call with the same object returns the same
    Hamiltonian, and with it the same basis. Two equal
    systems are two objects and build two Hamiltonians. The memo assumes the
    frozen system is never mutated in place (no write into A or b_diag);
    any other object, such as a mutable namespace, is built afresh per call.
    """
    params = getattr(type(system), "__dataclass_params__", None)
    memo = vars(system) if params is not None and params.frozen else {}
    if _MEMO_KEY not in memo:
        diag = _as_b_diagonal(system)
        if system.A.shape[0] != diag.size:
            raise EncodingError("generator and energy weight dimensions differ")
        import scipy.sparse as sp

        # K_ij = (A_ij d_i) d_j with d = B^{-1/2}: per entry the two products
        # diag(d) @ A @ diag(d) takes, so the same bits, on A's own structure
        a = sp.csr_matrix(system.A)
        d = 1.0 / np.sqrt(diag)
        data = a.data * np.repeat(d, np.diff(a.indptr))
        data *= d[a.indices]
        k = sp.csr_matrix((data, a.indices, a.indptr), shape=a.shape)
        ham = Hamiltonian.from_matrix(k, system.scalar_slice.stop)
        ham._box = _box_basis(system, ham.generator)
        memo[_MEMO_KEY] = ham
    return memo[_MEMO_KEY]


def _box_basis(system, k: sp.csr_matrix) -> _BoxBasis | None:
    """The box basis of K where it is exact (see the module docstring), else None.

    Besides the weights, C itself is checked: every flux column holds two
    entries of opposite sign, of magnitude e_a on axis a, on the two nodes
    the flux sits between, which are the grid's ``flux_incidence``. So
    C C^T = sum_a e_a^2 L_a holds exactly.
    """
    if not isinstance(system, OperatorPair):
        return None
    grid = system.grid
    families = np.split(system.b_diag, np.cumsum([grid.n_scalar, *grid.n_flux[:-1]]))
    if any(np.any(w != w[0]) for w in families):
        return None
    c = k[: grid.n_scalar, grid.n_scalar :].tocsc()  # one column per flux, rows sorted
    if np.any(np.diff(c.indptr) != 2):
        return None
    rows, data = c.indices.reshape(-1, 2), c.data.reshape(-1, 2)
    if not np.array_equal(rows, np.column_stack(grid.flux_incidence())):
        return None
    e = []
    for block in np.split(data, np.cumsum(grid.n_flux[:-1])):  # one family per axis
        e.append(abs(block[0, 0]))
        if not (np.array_equal(block[:, 0], -block[:, 1]) and np.all(np.abs(block) == e[-1])):
            return None
    # s = e_max sqrt(sum_a (e_a / e_max)^2 4 sin^2(pi k_a / (2 n_a))): no square overflows
    e_max = max(e)
    squares = np.zeros(grid.shape[::-1])
    for axis, (n, e_a) in enumerate(zip(grid.shape, e)):
        along = np.square(2.0 * (e_a / e_max) * np.sin(np.pi * np.arange(n) / (2 * n)))
        squares = squares + along.reshape([n if ax == axis else 1 for ax in range(grid.dimension)][::-1])
    return _BoxBasis(shape=grid.shape, s=e_max * np.sqrt(squares.ravel()[1:]), c=c.tocsr(), ct=c.T)


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
    """Invert the encoding: w = B^{-1/2} (scale * amplitudes).

    Requires a single-substate, unaugmented, non-null state whose pad
    coordinates are numerically zero.
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
    return state.scale * state.amplitudes[:n] / np.sqrt(diag)


def energy(state: QuantumRegisterState) -> float:
    """Total conserved quadrature scale^2 = <w|B|w> (twice the field energy)."""
    return float(state.scale**2)
