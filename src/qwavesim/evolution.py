"""Unitary evolution of encoded states and multi-block schedule generators.

Single states evolve by e^{-iHt}. Stacked registers use two structured
generators built from the single-system H:

  * a synchronization generator, block diagonal with block s scaled by
    (t_sync - t_end[s]); applying it for unit time advances every sub-state
    from its own birth time to the common time t_sync,
  * a simultaneous generator, identity (on the sub-state register) tensor H,
    which advances all sub-states together after synchronization.

Blocks are zero-padded to power-of-two dimensions so the stacked register is
qubit shaped; pad coordinates carry exact zero rows and columns and are inert.

Both stacked generators carry the single-block H and one time per block
(t_sync - t_end[s], or 0 for a pad block, and 1 for every block of the
simultaneous generator) instead of the stacked matrix. evolve applies
e^{-iH tau_s t} to the first H.dim coordinates of each block s with
tau_s != 0 and leaves pad coordinates and zero-time blocks untouched. The
stacked matrix is built only when its ``matrix``, ``maxnorm`` or ``sparsity``
is read, and MAX_BUILD_DIM bounds that export alone.

Two numerical backends compute the matrix exponential action on one block
(or one unstacked state): a dense eigendecomposition of the block H
(memoized on that Hamiltonian, so every block and every generator built from
it shares one decomposition; exact to rounding, cost dim^3 once then dim^2
per application) and a sparse polynomial-action routine (cost roughly
nnz * |H| * t per application). For the chiral H of a staggered-grid system
the decomposition comes from the real SVD of its scalar x flux block, and
from the complex eigh of H for any other generator (see the encoding
module); the dense backend uses either pair the same way. The automatic
choice takes the dense path up to MAX_DENSE_DIM and whenever a
decomposition is already cached.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .encoding import Hamiltonian, QuantumRegisterState, next_power_of_two
from .errors import EvolutionError, NumericalError

MAX_BUILD_DIM = 1 << 22  # largest stacked matrix built for export
MAX_DENSE_DIM = 4096  # largest dimension the automatic choice diagonalizes
SCHEDULE_TOL = 1e-12


@dataclass(frozen=True)
class EvolutionConfig:
    """Backend selection and accuracy target for exponential action.

    tolerance: l2 error target versus the exact exponential; both backends
    normally land orders of magnitude below it and the result norm is
    verified against it.
    method: "auto", "dense" (eigendecomposition), or "krylov"
    (iterative polynomial action).
    """

    tolerance: float = 1e-12
    method: str = "auto"

    def __post_init__(self):
        if self.method not in ("auto", "dense", "krylov"):
            raise EvolutionError(f"unknown evolution method {self.method!r}")
        if not 0 < self.tolerance < 1e-2:
            raise EvolutionError("tolerance must be in (0, 1e-2)")


def _apply_exponential(ham: Hamiltonian, vec: np.ndarray, t: float, config: EvolutionConfig) -> np.ndarray:
    method = config.method
    if method == "auto":
        if ham._eig is not None or ham.dim <= MAX_DENSE_DIM:
            method = "dense"
        else:
            method = "krylov"
    if method == "dense":
        evals, evecs = ham.eigendecomposition()
        return evecs @ (np.exp(-1j * evals * t) * (vec.conj() @ evecs).conj())
    return expm_multiply(sp.csc_matrix(-1j * t * ham.matrix), vec)


def evolve(
    state: QuantumRegisterState,
    ham: Hamiltonian,
    t: float,
    config: EvolutionConfig | None = None,
) -> QuantumRegisterState:
    """Apply e^{-iHt} to a register state, preserving scale and layout.

    The generator must be a schedule generator whose blocks match the
    register's, a generator spanning the whole register, or one spanning the
    physical block of a single sub-state. A schedule generator acts block by
    block through its single-block H; pad coordinates are untouched.
    Augmented (measurement layout) states are not evolvable here. The result
    is renormalized to exact unit norm; a norm drift beyond 10x the
    configured tolerance raises instead of being papered over.
    """
    config = config or EvolutionConfig()
    if state.is_null:
        return state
    if state.layout.augmented:
        raise EvolutionError("cannot evolve an augmented measurement state")
    defect = ham.hermiticity_defect()
    if defect > 1e-10:
        raise EvolutionError(f"generator is not Hermitian (defect {defect:.3e})")
    layout = state.layout
    total = layout.total_dim
    if t == 0.0:
        return state

    if isinstance(ham, StackedHamiltonian):
        if (ham.block_dim, len(ham.times)) != (layout.block_dim, layout.arity):
            raise EvolutionError(
                f"stacked generator of {len(ham.times)} blocks of dim {ham.block_dim} "
                f"does not match the register's {layout.arity} blocks of dim {layout.block_dim}"
            )
        out = state.amplitudes.copy()
        n = ham.block.dim
        for s, tau in enumerate(ham.times):
            if tau:
                lo = s * ham.block_dim
                out[lo : lo + n] = _apply_exponential(ham.block, out[lo : lo + n], tau * t, config)
    elif ham.dim == total:
        out = _apply_exponential(ham, state.amplitudes, t, config)
    elif layout.arity == 1 and ham.dim == layout.num_physical:
        out = state.amplitudes.copy()
        out[: ham.dim] = _apply_exponential(ham, state.amplitudes[: ham.dim], t, config)
    else:
        raise EvolutionError(
            f"generator dim {ham.dim} matches neither the register ({total}) "
            f"nor a single physical block ({layout.num_physical})"
        )

    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > 10.0 * config.tolerance:
        raise NumericalError(f"evolution lost unitarity: norm {norm!r}")
    return state.with_amplitudes(out / norm)


class StackedHamiltonian(Hamiltonian):
    """Block-diagonal generator whose block s is times[s] * H, padded to block_dim.

    It holds the single-block H and the per-block times, not the stacked
    matrix; evolve acts on each block through H. The stacked ``matrix``,
    ``maxnorm`` and ``sparsity`` are built on first access, and only there
    does MAX_BUILD_DIM apply.
    """

    def __init__(self, block: Hamiltonian, times: Sequence[float], block_dim: int):
        if block_dim < block.dim:
            raise EvolutionError("block dimension smaller than the generator")
        self.block = block
        self.times = tuple(float(t) for t in times)
        self.block_dim = block_dim
        self.split = None
        self._eig = None
        self._stacked = None

    def __repr__(self) -> str:
        return (
            f"StackedHamiltonian(block_dim={self.block_dim}, times={self.times}, "
            f"block={self.block!r})"
        )

    @property
    def dim(self) -> int:
        return self.block_dim * len(self.times)

    def _export(self) -> Hamiltonian:
        if self._stacked is None:
            if self.dim > MAX_BUILD_DIM:
                raise EvolutionError(
                    f"stacked dimension {self.dim} exceeds the build cutoff {MAX_BUILD_DIM}"
                )
            h_pad = _embedded(self.block, self.block_dim)
            blocks = [t * h_pad for t in self.times]
            self._stacked = Hamiltonian.from_matrix(sp.block_diag(blocks, format="csr"))
        return self._stacked

    @property
    def matrix(self) -> sp.csr_matrix:
        return self._export().matrix

    @property
    def maxnorm(self) -> float:
        return self._export().maxnorm

    @property
    def sparsity(self) -> int:
        return self._export().sparsity

    def hermiticity_defect(self) -> float:
        """The stacked defect, computed once per distinct nonzero block time."""
        return max(
            (
                Hamiltonian.from_matrix(t * self.block.matrix).hermiticity_defect()
                for t in set(self.times)
                if t
            ),
            default=0.0,
        )


def _embedded(ham: Hamiltonian, block_dim: int) -> sp.csr_matrix:
    """H padded with zero rows/cols up to block_dim."""
    if block_dim == ham.dim:
        return ham.matrix
    coo = ham.matrix.tocoo()
    return sp.csr_matrix(
        (coo.data, (coo.row, coo.col)), shape=(block_dim, block_dim), dtype=np.complex128
    )


def build_sync_hamiltonian(
    ham: Hamiltonian,
    t_ends: Sequence[float],
    t_sync: float,
    block_dim: int | None = None,
    arity: int | None = None,
) -> Hamiltonian:
    """Block-diagonal generator advancing sub-state s by (t_sync - t_end[s]).

    Applying the result for unit time synchronizes the stack: each block is
    (t_sync - t_end[s]) H. t_sync must not precede any t_end (no block may
    need backward evolution to synchronize; equal times give a zero block).
    Blocks beyond len(t_ends), up to the power-of-two arity, are zero.
    """
    t_ends = [float(x) for x in t_ends]
    if not t_ends:
        raise EvolutionError("need at least one sub-state end time")
    if t_sync < max(t_ends) - SCHEDULE_TOL:
        raise EvolutionError(
            f"synchronization time {t_sync} precedes a sub-state end time {max(t_ends)}"
        )
    arity = arity or next_power_of_two(len(t_ends))
    if arity < len(t_ends) or arity != next_power_of_two(arity):
        raise EvolutionError("arity must be a power of two covering all sub-states")
    times = [t_sync - t_end for t_end in t_ends] + [0.0] * (arity - len(t_ends))
    return StackedHamiltonian(ham, times, block_dim or next_power_of_two(ham.dim))


def build_mult_hamiltonian(
    ham: Hamiltonian, arity: int, block_dim: int | None = None
) -> Hamiltonian:
    """Identity-on-substates tensor H: every block advances under the same H."""
    if arity < 1 or arity != next_power_of_two(arity):
        raise EvolutionError("arity must be a power of two (pad the stack first)")
    return StackedHamiltonian(ham, [1.0] * arity, block_dim or next_power_of_two(ham.dim))
