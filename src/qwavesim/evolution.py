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

Two numerical backends compute the matrix exponential action: a dense
eigendecomposition (memoized on the Hamiltonian, exact to rounding, cost
dim^3 once then dim^2 per application) and a sparse polynomial-action routine
(cost roughly nnz * |H| * t per application). The automatic choice takes the
dense path up to MAX_DENSE_DIM and whenever a decomposition is already
cached.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .encoding import Hamiltonian, QuantumRegisterState, next_power_of_two
from .errors import EvolutionError, NumericalError

MAX_BUILD_DIM = 1 << 22
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
        return evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ vec))
    return expm_multiply(sp.csc_matrix(-1j * t * ham.matrix), vec)


def evolve(
    state: QuantumRegisterState,
    ham: Hamiltonian,
    t: float,
    config: EvolutionConfig | None = None,
) -> QuantumRegisterState:
    """Apply e^{-iHt} to a register state, preserving scale and layout.

    The generator must either span the whole register (stacked evolution with
    a schedule generator) or the physical block of a single sub-state, in
    which case pad coordinates are untouched. Augmented (measurement layout)
    states are not evolvable here. The result is renormalized to exact unit
    norm; a norm drift beyond 10x the configured tolerance raises instead of
    being papered over.
    """
    config = config or EvolutionConfig()
    if state.is_null:
        return state
    if state.layout.augmented:
        raise EvolutionError("cannot evolve an augmented measurement state")
    defect = ham.hermiticity_defect()
    if defect > 1e-10:
        raise EvolutionError(f"generator is not Hermitian (defect {defect:.3e})")
    total = state.layout.total_dim
    if t == 0.0:
        return state

    if ham.dim == total:
        out = _apply_exponential(ham, state.amplitudes, t, config)
    elif state.layout.arity == 1 and ham.dim == state.layout.num_physical:
        out = state.amplitudes.copy()
        out[: ham.dim] = _apply_exponential(ham, state.amplitudes[: ham.dim], t, config)
    else:
        raise EvolutionError(
            f"generator dim {ham.dim} matches neither the register ({total}) "
            f"nor a single physical block ({state.layout.num_physical})"
        )

    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > 10.0 * config.tolerance:
        raise NumericalError(f"evolution lost unitarity: norm {norm!r}")
    return state.with_amplitudes(out / norm)


def _embedded(ham: Hamiltonian, block_dim: int) -> sp.csr_matrix:
    """H padded with zero rows/cols up to block_dim."""
    if block_dim < ham.dim:
        raise EvolutionError("block dimension smaller than the generator")
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
    block_dim = block_dim or next_power_of_two(ham.dim)
    arity = arity or next_power_of_two(len(t_ends))
    if arity < len(t_ends) or arity != next_power_of_two(arity):
        raise EvolutionError("arity must be a power of two covering all sub-states")
    if arity * block_dim > MAX_BUILD_DIM:
        raise EvolutionError(
            f"stacked dimension {arity * block_dim} exceeds the build cutoff {MAX_BUILD_DIM}"
        )
    h_pad = _embedded(ham, block_dim)
    zero = sp.csr_matrix((block_dim, block_dim), dtype=np.complex128)
    blocks = [
        (t_sync - t_ends[s]) * h_pad if s < len(t_ends) else zero
        for s in range(arity)
    ]
    return Hamiltonian.from_matrix(sp.block_diag(blocks, format="csr"))


def build_mult_hamiltonian(
    ham: Hamiltonian, arity: int, block_dim: int | None = None
) -> Hamiltonian:
    """Identity-on-substates tensor H: every block advances under the same H."""
    if arity < 1 or arity != next_power_of_two(arity):
        raise EvolutionError("arity must be a power of two (pad the stack first)")
    block_dim = block_dim or next_power_of_two(ham.dim)
    if arity * block_dim > MAX_BUILD_DIM:
        raise EvolutionError(
            f"stacked dimension {arity * block_dim} exceeds the build cutoff {MAX_BUILD_DIM}"
        )
    h_pad = _embedded(ham, block_dim)
    return Hamiltonian.from_matrix(sp.kron(sp.identity(arity, format="csr"), h_pad, format="csr"))
