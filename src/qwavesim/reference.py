"""Classical reference integrators for B dw/dt = A w + s(t).

The workhorse is the staggered leapfrog scheme. With the unknowns split into
the scalar block u and the flux block v (so that A couples only across the
blocks), the updates

    u^{n+1}   = u^n       + dt M_u (A_uv v^{n+1/2} + s_u(t_n + dt/2))
    v^{n+3/2} = v^{n+1/2} + dt M_v (A_vu u^{n+1}   + s_v(t_{n+1}))

with M = B^{-1} conserve the staggered quadrature

    E^n = <u^n|B_u|u^n> + <v^{n-1/2}|B_v|v^{n+1/2}>

exactly in exact arithmetic when s = 0: the telescoped increment is
dt (u^{n+1}+u^n)^T (A_uv + A_vu^T) v^{n+1/2}, which vanishes because
A_vu = -A_uv^T. That quadrature, not the collocated one (whose oscillation is
O(dt^2)), is the energy series a Trajectory reports. Input and output are
collocated: integration starts with a half kick v^{1/2} = v^0 + (dt/2)(...)
and every emitted snapshot undoes half a kick, which makes the scheme an
exact-to-rounding time-symmetric map of (u, v) pairs and second-order
accurate at the snapshots.

Stability requires dt <= safety * dx_min / (c_max sqrt(D)); violations are
refused with the admissible bound in the message.

For forced problems needing far more accuracy than O(dt^2), the module also
provides the spectral quadrature solution: decompose the encoded generator
and evaluate the resulting oscillatory Duhamel integrals by composite
Gauss-Legendre panels sized against both the largest frequency and the
smoothness scale of the forcing, at the frequencies of ``Hamiltonian.apply``.
Its error is at rounding level and it serves as the oracle that
order-of-accuracy and pipeline-equality checks compare against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discretize import diagonal_block_entry
from .encoding import build_hamiltonian
from .errors import EvolutionError, ValidationError

CFL_SAFETY = 0.9
GL_NODES = 12
PANEL_CHUNK = 32  # panels per phase table in the forced solve; bounds its n x chunk temporaries
DUHAMEL_RTOL = 1e-14  # the settling test of a forcing without a dt_hint, relative to int |f|
DUHAMEL_HALVINGS = 10  # the most panel halvings that test may take


@dataclass(frozen=True)
class Trajectory:
    """Recorded leapfrog run: collocated snapshots plus the conserved energy.

    fields[k] is the stacked unknown vector at times[k]; energy[k] is the
    staggered discrete quadrature at the same step (exactly conserved for
    source-free runs). times and energy always have equal length.
    """

    times: np.ndarray
    fields: np.ndarray
    energy: np.ndarray
    dt: float

    def __post_init__(self):
        if not (len(self.times) == len(self.fields) == len(self.energy)):
            raise ValidationError("trajectory series lengths differ")

    @property
    def final(self) -> np.ndarray:
        return self.fields[-1]


def cfl_limit(system) -> float:
    """Largest admissible leapfrog step for this discretization."""
    grid = system.grid
    c_max = system.material.max_speed
    dx_min = min(grid.spacing)
    return CFL_SAFETY * dx_min / (c_max * np.sqrt(grid.dimension))


def _split_blocks(system):
    """Scalar/flux slices and the cross blocks of A; refuse non-staggered systems."""
    su, sv = system.scalar_slice, system.flux_slice
    a = system.A
    entry = diagonal_block_entry(a, su.stop)
    if entry is not None:
        name = "scalar-scalar" if entry[0] < su.stop else "flux-flux"
        raise ValidationError(
            f"leapfrog needs the two-block staggered structure; {name} coupling present"
        )
    return su, sv, a[su, sv].tocsr(), a[sv, su].tocsr()


def counted(count: float, what: str) -> int:
    """A step or window count as an int, refused past np.intp: a loop over more would not end."""
    if not count <= np.iinfo(np.intp).max:
        raise ValidationError(f"{count:.3g} {what} are too many to count")
    return int(count)


def leapfrog_evolve(
    system,
    w0: np.ndarray,
    dt: float,
    t_final: float,
    source: Callable[[float], np.ndarray] | None = None,
    record_every: int = 1,
    t_start: float = 0.0,
) -> Trajectory:
    """Integrate the system by staggered leapfrog from collocated data.

    Args:
        system: OperatorPair or ReducedSystem (anything with A, B, slices,
            grid and material). A reduced system's induced constraint forcing
            is applied automatically on top of ``source``.
        w0: collocated initial unknowns at t_start.
        dt: time step; must satisfy the CFL bound.
        t_final: end time; the step count is rounded to cover it.
        source: optional sampler t -> forcing vector (same length as w0).
        record_every: snapshot stride in steps (first and last always kept).

    Returns:
        Trajectory of collocated snapshots and the staggered energy series.
    """
    limit = cfl_limit(system)
    if dt <= 0.0:
        raise ValidationError("time step must be positive")
    if dt > limit * (1.0 + 1e-12):
        raise ValidationError(
            f"time step {dt} violates the stability bound; use dt <= {limit:.6e}"
        )
    if t_final < t_start:
        raise ValidationError("t_final precedes t_start")

    su, sv, a_uv, a_vu = _split_blocks(system)
    b_diag = system.b_diagonal()
    bu, bv = b_diag[su], b_diag[sv]
    mu, mv = 1.0 / bu, 1.0 / bv

    samplers = []
    induced = getattr(system, "source", None)
    if callable(induced):
        samplers.append(induced)
    if source is not None:
        samplers.append(source)

    def forcing(t: float) -> tuple[np.ndarray, np.ndarray]:
        if not samplers:
            return 0.0, 0.0
        s = samplers[0](t)
        for extra in samplers[1:]:
            s = s + extra(t)
        return s[su], s[sv]

    w0 = np.asarray(w0, dtype=np.float64)
    if w0.shape != (system.n_total,):
        raise ValidationError("initial vector does not match the system size")
    n_steps = 0
    if t_final > t_start:
        steps = np.ceil((t_final - t_start) / dt - 1e-12)
        n_steps = max(1, counted(steps, f"time steps of {dt!r}"))

    u = w0[su].copy()
    v = w0[sv].copy()

    times, fields, energies = [], [], []

    def record(step: int, u_n, v_colloc, e_n):
        times.append(t_start + step * dt)
        fields.append(np.concatenate([u_n, v_colloc]))
        energies.append(e_n)

    su_t0, sv_t0 = forcing(t_start)
    kick0 = mv * (a_vu @ u + sv_t0)
    v_stream = v + 0.5 * dt * kick0       # v^{1/2}
    v_prev_stream = v - 0.5 * dt * kick0  # v^{-1/2}
    record(0, u, v, float(u @ (bu * u) + v_prev_stream @ (bv * v_stream)))

    for n in range(n_steps):
        t_mid = t_start + (n + 0.5) * dt
        t_next = t_start + (n + 1) * dt
        su_mid, _ = forcing(t_mid)
        u = u + dt * mu * (a_uv @ v_stream + su_mid)
        _, sv_next = forcing(t_next)
        kick = mv * (a_vu @ u + sv_next)
        v_prev_stream = v_stream
        v_stream = v_stream + dt * kick
        if (n + 1) % record_every == 0 or n + 1 == n_steps:
            v_colloc = v_stream - 0.5 * dt * kick
            e_n = float(u @ (bu * u) + v_prev_stream @ (bv * v_stream))
            record(n + 1, u, v_colloc, e_n)

    return Trajectory(
        times=np.asarray(times),
        fields=np.asarray(fields),
        energy=np.asarray(energies),
        dt=dt,
    )


def spectral_forced_solution(
    system,
    chi: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    w0: np.ndarray | None = None,
) -> np.ndarray:
    """Rounding-level solution of B dw/dt = A w + chi f(t) at t1.

    Evaluates the Duhamel integral acc = int exp(-i lam (t1 - tau)) f dtau
    at the frequencies lam of the encoded generator with composite
    Gauss-Legendre panels of equal width; the width resolves both the
    fastest frequency and the forcing smoothness scale, read from an
    f.dt_hint attribute when f has one; without one the panels are halved
    until the integrals settle (see _duhamel_integrals). The forced
    part is acc(H) applied to B^{-1/2} chi, with int f at the zero modes.
    The generator is build_hamiltonian(system), which is memoized on the
    system object, so repeated solves on one system (and the sync and mult
    generators built from its H) share one decomposition.
    """
    if t1 < t0:
        raise ValidationError("t1 precedes t0")
    diag = system.b_diagonal()
    chi = np.asarray(chi, dtype=np.float64)
    if chi.shape != diag.shape:
        raise ValidationError("forcing pattern does not match the system size")
    if not np.all(np.isfinite(chi)):
        raise ValidationError("forcing pattern must be finite")
    if w0 is not None:
        w0 = np.asarray(w0)
        if np.iscomplexobj(w0) and np.any(w0.imag != 0):
            raise EvolutionError(
                "initial vector has an imaginary part; inputs are not a real system"
            )
        w0 = np.asarray(w0.real, dtype=np.float64)
        if w0.shape != diag.shape:
            raise ValidationError("initial vector does not match the system size")
        if not np.all(np.isfinite(w0)):
            raise ValidationError("initial vector must be finite")
    ham = build_hamiltonian(system)
    sqrt_b = np.sqrt(diag)
    lam = ham.frequencies()
    acc, total = _duhamel_integrals(lam, f, t0, t1)
    # the columns: the forcing B^{-1/2} chi, then the initial data B^{1/2} w0 if given
    cols, phi, phi0 = [chi / sqrt_b], [acc], [total]
    if w0 is not None:
        cols.append(sqrt_b * w0)
        phi.append(np.exp(-1j * lam * (t1 - t0)))
        phi0.append(1.0)
    y1 = ham.apply(np.stack(phi, axis=1), np.array(phi0), np.stack(cols, axis=1))
    return np.real(y1.sum(axis=1)) / sqrt_b


def _duhamel_integrals(freqs: np.ndarray, f, t0: float, t1: float) -> tuple[np.ndarray, float]:
    """acc_k = int_t0^t1 exp(-i freqs_k (t1 - tau)) f(tau) dtau, and int_t0^t1 f.

    Composite Gauss-Legendre panels of one width, which resolves both the
    largest |freqs| and f.dt_hint when f has one. A forcing without a hint
    may be faster than every frequency, so its panels are halved until the
    integrals move by at most DUHAMEL_RTOL of int |f|, at most
    DUHAMEL_HALVINGS times.
    """
    if t1 == t0:
        return np.zeros(freqs.size, dtype=np.complex128), 0.0
    freq_max = float(np.abs(freqs).max()) if freqs.size else 0.0
    hint = getattr(f, "dt_hint", None)
    h = t1 - t0
    if freq_max > 0.0:
        h = min(h, 2.5 / freq_max)
    if hint:
        h = min(h, float(hint))
    n_panels = int(np.ceil((t1 - t0) / h))
    acc, total, _ = _panel_integrals(freqs, f, t0, t1, n_panels)
    if hint:
        return acc, total
    for _ in range(DUHAMEL_HALVINGS):
        n_panels *= 2
        finer, finer_total, size = _panel_integrals(freqs, f, t0, t1, n_panels)
        moved = max(np.abs(finer - acc).max(initial=0.0), abs(finer_total - total))
        acc, total = finer, finer_total
        if moved <= DUHAMEL_RTOL * size or not np.isfinite(moved):  # f may give NaN
            break
    return acc, total


def _panel_integrals(freqs: np.ndarray, f, t0: float, t1: float, n_panels: int):
    """The integrals of _duhamel_integrals on n_panels panels, and int |f| on them.

    f is called once, on the nodes of all panels together. Because the
    panels share one width, the kernel factors into one n x GL_NODES node
    table and one phase per panel, so the quadrature is a table product
    taken PANEL_CHUNK panels at a time, not a loop over panels.
    """
    acc = np.zeros(freqs.size, dtype=np.complex128)
    nodes, weights = np.polynomial.legendre.leggauss(GL_NODES)
    edges = np.linspace(t0, t1, n_panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (t1 - t0) / n_panels
    # exp(-i w (t1 - c_p - half x_j)) = exp(-i w (t1 - c_p)) exp(i w half x_j):
    # one node table for every panel, one phase per panel
    s_q = centers[None, :] + half * nodes[:, None]
    f_q = np.asarray(f(s_q.ravel()), dtype=np.float64).reshape(s_q.shape)
    f_q = f_q * (half * weights)[:, None]  # a new array: f's own result stays as it was
    node_phase = np.exp(1j * np.outer(freqs, half * nodes))
    for p in range(0, n_panels, PANEL_CHUNK):
        chunk = slice(p, p + PANEL_CHUNK)
        panel_phase = np.exp(-1j * np.outer(freqs, t1 - centers[chunk]))
        acc += np.einsum("kp,kp->k", panel_phase, node_phase @ f_q[:, chunk])
    return acc, float(f_q.sum()), float(np.abs(f_q).sum())
