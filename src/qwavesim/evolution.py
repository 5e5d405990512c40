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

Both stacked generators are a StackedHamiltonian: the single-block H and one
time per block (t_sync - t_end[s], or 0 for a pad block, and 1 for every
block of the simultaneous generator), not the stacked matrix. A plain
Hamiltonian spanning the register, or the physical block of a single
sub-state, is one block with time 1. evolve applies e^{-iH tau_s t} to the
first H.dim coordinates of each block s with tau_s != 0 and leaves pad
coordinates and zero-time blocks untouched.

Every block goes through ``Hamiltonian.propagate`` of the block H, which
alone chooses how e^{-iHt} acts; the basis it may use is held on H, so
every block and every generator built from it shares one. evolve
hands every block with the same time to one call as the columns of one
array, so the simultaneous generator, whose times are all 1, is one
matrix-matrix product. A Hamiltonian is verified where it is made, so
evolve checks no Hermiticity of its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoding import Hamiltonian, QuantumRegisterState, next_power_of_two
from .errors import EvolutionError, NumericalError

NORM_DRIFT_TOL = 1e-11  # 10x the 1e-12 accuracy both actions of propagate reach
SCHEDULE_TOL = 1e-12


def evolve(
    state: QuantumRegisterState, ham: Hamiltonian | StackedHamiltonian, t: float
) -> QuantumRegisterState:
    """Apply e^{-iHt} to a register state, preserving scale and layout.

    The generator must be a schedule generator whose blocks match the
    register's, a generator spanning the whole register, or one spanning the
    physical block of a single sub-state. Each acts block by block through
    its single-block H; pad coordinates are untouched. Augmented
    (measurement layout) states are not evolvable here. The result is
    renormalized to exact unit norm, by numpy's pairwise sum of squares,
    whose bits do not follow the BLAS thread count; a norm drift beyond
    NORM_DRIFT_TOL raises instead of being papered over. A non-finite time
    is refused.
    """
    if not np.isfinite(t):
        raise EvolutionError(f"evolution time {t} is not finite")
    if state.is_null:
        return state
    if state.layout.augmented:
        raise EvolutionError("cannot evolve an augmented measurement state")
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
        block, times, stride = ham.block, ham.times, ham.block_dim
    elif ham.dim == total or (layout.arity == 1 and ham.dim == layout.num_physical):
        block, times, stride = ham, (1.0,), total
    else:
        raise EvolutionError(
            f"generator dim {ham.dim} matches neither the register ({total}) "
            f"nor a single physical block ({layout.num_physical})"
        )

    out = state.amplitudes.copy()
    blocks = out.reshape(len(times), stride)[:, : block.dim]  # a view: one row per block
    same_time: dict[float, list[int]] = {}
    for s, tau in enumerate(times):
        if tau:
            same_time.setdefault(tau, []).append(s)
    for tau, rows in same_time.items():
        blocks[rows] = block.propagate(blocks[rows].T, tau * t).T

    norm = float(np.sqrt(np.sum(np.square(out))))  # pairwise, not a threaded BLAS dot
    if not abs(norm - 1.0) <= NORM_DRIFT_TOL:
        raise NumericalError(f"evolution lost unitarity: norm {norm!r}")
    return state.with_amplitudes(out / norm)


@dataclass(frozen=True)
class StackedHamiltonian:
    """Block-diagonal generator whose block s is times[s] * block, padded to block_dim.

    It holds the single-block H and the per-block times, not the stacked
    matrix; evolve acts on each block through H. maxnorm and sparsity are
    read off H.
    """

    block: Hamiltonian
    times: tuple[float, ...]
    block_dim: int

    def __post_init__(self):
        if self.block_dim < self.block.dim:
            raise EvolutionError("block dimension smaller than the generator")
        times = tuple(float(t) for t in self.times)
        if not np.all(np.isfinite(times)):
            raise EvolutionError(f"block times {times} are not all finite")
        object.__setattr__(self, "times", times)

    @property
    def dim(self) -> int:
        return self.block_dim * len(self.times)

    @property
    def maxnorm(self) -> float:
        return max(map(abs, self.times), default=0.0) * self.block.maxnorm

    @property
    def sparsity(self) -> int:
        return self.block.sparsity if any(self.times) else 0


def build_sync_hamiltonian(
    ham: Hamiltonian,
    t_ends: Sequence[float],
    t_sync: float,
    block_dim: int | None = None,
    arity: int | None = None,
) -> StackedHamiltonian:
    """Block-diagonal generator advancing sub-state s by (t_sync - t_end[s]).

    Applying the result for unit time synchronizes the stack: each block is
    (t_sync - t_end[s]) H. t_sync must not precede any t_end (no block may
    need backward evolution to synchronize; equal times give a zero block).
    Blocks beyond len(t_ends), up to the power-of-two arity, are zero.
    """
    t_ends = [float(x) for x in t_ends]
    if not t_ends:
        raise EvolutionError("need at least one sub-state end time")
    if not np.all(np.isfinite([*t_ends, t_sync])):
        raise EvolutionError(
            f"schedule times must be finite: end times {t_ends}, synchronization time {t_sync}"
        )
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
) -> StackedHamiltonian:
    """Identity-on-substates tensor H: every block advances under the same H."""
    if arity < 1 or arity != next_power_of_two(arity):
        raise EvolutionError("arity must be a power of two (pad the stack first)")
    return StackedHamiltonian(ham, [1.0] * arity, block_dim or next_power_of_two(ham.dim))
