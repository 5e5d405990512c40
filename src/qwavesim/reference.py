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
accurate at the snapshots. The forcing s is exactly the RowForcings the
caller passes, summed in the order given; the integrator reads no forcing
off the system, so a reduced system's wall data drive a run only when its
``induced`` forcing is passed.

Stability requires dt <= safety * dx_min / (c_max sqrt(D)); violations are
refused with the admissible bound in the message.

For forced problems needing far more accuracy than O(dt^2), the module also
provides the spectral quadrature solution: take the encoded generator's
basis (closed form on a homogeneous box, else its thin SVD) and evaluate the resulting oscillatory Duhamel integrals by composite
Gauss-Legendre panels sized against both the largest frequency and the
smoothness scale of the forcing, at the frequencies of ``Hamiltonian.apply``,
with no exponential per (frequency, panel) pair. One call solves several
forcings with one application of the basis. Its error is at rounding level
and it serves as the oracle that order-of-accuracy and pipeline-equality
checks compare against.

MAX_CELL_UPDATES bounds the work a scenario may ask for (leapfrog steps,
windows and slice panels, each times the unknowns), which the loader checks,
and the panels times frequencies of one forced solve, which it checks itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .discretize import RowForcing, diagonal_block_entry
from .encoding import build_hamiltonian
from .errors import EvolutionError, ValidationError

CFL_SAFETY = 0.9
GL_NODES = 12
PANEL_CHUNK = 32  # panels per phase table in the forced solve; bounds its n x chunk temporaries
# leapfrog steps, decompose windows or quadrature panels, x unknowns (or frequencies);
# 2D 256^2 to t_final 1 needs about 1.6e8 steps
MAX_CELL_UPDATES = 10**10
_COUNTABLE = np.iinfo(np.intp).max


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
    """Largest admissible leapfrog step for this discretization, a Python float
    (messages that print it read ``1e-300``, not ``np.float64(1e-300)``)."""
    grid = system.grid
    c_max = system.material.max_speed
    dx_min = min(grid.spacing)
    return float(CFL_SAFETY * dx_min / (c_max * np.sqrt(grid.dimension)))


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


def counted(count: float, what: str, limit: float = _COUNTABLE) -> int:
    """A step, window or panel count as an int, refused past limit.

    The default limit is np.intp, past which a loop over them would not end.
    """
    if not count <= limit:
        bound = "to count" if limit == _COUNTABLE else f"for the budget of {limit:.0e}"
        raise ValidationError(f"{count:.3g} {what} are too many {bound}")
    return int(count)


def leapfrog_evolve(
    system,
    w0: np.ndarray,
    dt: float,
    t_final: float,
    forcings: Sequence[RowForcing] = (),
    record_every: int = 1,
    t_start: float = 0.0,
) -> Trajectory:
    """Integrate the system by staggered leapfrog from collocated data.

    Args:
        system: OperatorPair or ReducedSystem (anything with A, B, slices,
            grid and material).
        w0: collocated initial unknowns at t_start.
        dt: time step; must satisfy the CFL bound.
        t_final: end time; the step count is rounded to cover it.
        forcings: RowForcings over the unknowns of w0, the whole forcing of
            the run (a reduced system's ``induced`` wall forcing included,
            when wanted). Each is split once into its scalar and its flux
            rows; a step samples the scalar rows at t + dt/2 and the flux
            rows at t + dt, and adds their sum, in the order given, to
            those rows only.
        record_every: snapshot stride in steps, at least 1 (first and last
            always kept).

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
    if record_every < 1:
        raise ValidationError(f"record_every must be at least 1, got {record_every!r}")

    su, sv, a_uv, a_vu = _split_blocks(system)
    b_diag = system.b_diagonal()
    bu, bv = b_diag[su], b_diag[sv]
    mu, mv = 1.0 / bu, 1.0 / bv
    dt_mu = dt * mu

    halves = []
    for f in forcings:
        if not isinstance(f, RowForcing) or f.size != system.n_total:
            raise ValidationError("forcing must be a RowForcing over the system's unknowns")
        halves.append(f.split(su.stop))
    add_scalar_forcing = _forcing_adder([h[0] for h in halves])
    add_flux_forcing = _forcing_adder([h[1] for h in halves])

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

    kick0 = a_vu @ u
    add_flux_forcing(kick0, t_start)
    kick0 *= mv
    v_stream = v + 0.5 * dt * kick0       # v^{1/2}
    v_prev_stream = v - 0.5 * dt * kick0  # v^{-1/2}
    record(0, u, v, float(u @ (bu * u) + v_prev_stream @ (bv * v_stream)))

    for n in range(n_steps):
        t_mid = t_start + (n + 0.5) * dt
        t_next = t_start + (n + 1) * dt
        du = a_uv @ v_stream
        add_scalar_forcing(du, t_mid)
        du *= dt_mu
        u += du
        kick = a_vu @ u
        add_flux_forcing(kick, t_next)
        kick *= mv
        recorded = (n + 1) % record_every == 0 or n + 1 == n_steps
        if recorded:
            v_prev_stream = v_stream.copy()  # v^{n+1/2}, which only the energy reads
        v_stream += dt * kick
        if recorded:
            v_colloc = v_stream - 0.5 * dt * kick
            e_n = float(u @ (bu * u) + v_prev_stream @ (bv * v_stream))
            record(n + 1, u, v_colloc, e_n)

    return Trajectory(
        times=np.asarray(times),
        fields=np.asarray(fields),
        energy=np.asarray(energies),
        dt=dt,
    )


def _forcing_adder(parts: list[RowForcing]) -> Callable[[np.ndarray, float], None]:
    """add(r, t): r += the sum of parts at t, on the rows they touch, in place.

    The parts are summed in the order given before they are added to r,
    so each row gets r + (s_0 + s_1 + ...), as with dense forcing vectors.
    Other rows get nothing, where a dense vector would add a zero: that
    changes no bit, because r is a sparse product, which is never -0.0.
    """
    parts = [p for p in parts if p.rows.size]
    if not parts:
        return lambda _r, _t: None
    rows = np.unique(np.concatenate([p.rows for p in parts]))
    at = [np.searchsorted(rows, p.rows) for p in parts]

    def add(r: np.ndarray, t: float) -> None:
        total = np.zeros(rows.size)
        for part, where in zip(parts, at):
            total[where] += part.on_rows(t)
        r[rows] += total

    return add


def spectral_forced_solution(
    system,
    chi: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray] | Sequence[Callable[[np.ndarray], np.ndarray]],
    t0: float | Sequence[float],
    t1: float | Sequence[float],
    w0: np.ndarray | None = None,
) -> np.ndarray:
    """Rounding-level solution of B dw/dt = A w + chi f(t) at t1, for one forcing or several.

    f, t0 and t1 are one forcing (a callable and two times), which gives
    the solution as an (n,) vector, or several (equal-length sequences),
    which give an (n, k) array whose column j solves forcing j from t0[j]
    to t1[j]. All k share chi, and w0 if given, the data at each one's t0.
    The one-forcing call is the one-column case of the same code.

    Each forcing's Duhamel integral acc = int exp(-i lam (t1 - tau)) f dtau
    at the frequencies lam of the encoded generator is evaluated with
    composite Gauss-Legendre panels of equal width (_duhamel_integrals);
    the width resolves both the fastest frequency and the forcing
    smoothness scale f.dt_hint, which f must carry as a finite positive
    number, as every SourceTimeFunction does. The forced part is acc(H)
    applied to B^{-1/2} chi, with int f at the zero modes, and the data's
    part e^{-iH(t1 - t0)} B^{1/2} w0. The inputs are checked once, and
    ``frequencies()`` and ``Hamiltonian.apply`` are called once for all
    forcings: apply takes one column per forcing (and one more per
    forcing for w0), so the basis is applied to them together.
    The generator is build_hamiltonian(system), which is memoized on the
    system object, so repeated solves on one system (and the sync and mult
    generators built from its H) share one basis.
    """
    several = not callable(f)
    if several and not (np.ndim(t0) == np.ndim(t1) == 1 and len(f) == len(t0) == len(t1)):
        raise ValidationError("several forcings need a sequence of as many t0 and as many t1")
    forcings = list(zip(f, t0, t1)) if several else [(f, t0, t1)]
    if not forcings:
        raise ValidationError("no forcing to solve")
    hints = []
    for g, start, stop in forcings:
        if stop < start:
            raise ValidationError("t1 precedes t0")
        hint = getattr(g, "dt_hint", None)
        if not (isinstance(hint, (int, float)) and 0.0 < hint < np.inf):
            raise ValidationError(
                f"the forcing needs a finite positive dt_hint, its smoothness scale; got {hint!r}"
            )
        hints.append(float(hint))
    diag = system.b_diagonal()
    chi = np.asarray(chi, dtype=np.float64)
    if chi.shape != diag.shape:
        raise ValidationError("forcing pattern does not match the system size")
    if not np.all(np.isfinite(chi)):
        raise ValidationError("forcing pattern must be finite")
    if w0 is not None:
        if np.iscomplexobj(w0):
            raise EvolutionError("initial vector must be real; inputs are a real system")
        w0 = np.asarray(w0, dtype=np.float64)
        if w0.shape != diag.shape:
            raise ValidationError("initial vector does not match the system size")
        if not np.all(np.isfinite(w0)):
            raise ValidationError("initial vector must be finite")
    ham = build_hamiltonian(system)
    sqrt_b = np.sqrt(diag)
    lam = ham.frequencies()
    phi, phi0 = [], []
    for (g, start, stop), hint in zip(forcings, hints):
        acc, total = _duhamel_integrals(lam, g, hint, start, stop)
        phi.append(acc)
        phi0.append(total)
    # the columns: the forcing B^{-1/2} chi once per forcing, then the
    # initial data B^{1/2} w0 once per forcing if given
    k = len(forcings)
    cols = [chi / sqrt_b] * k
    if w0 is not None:
        cols += [sqrt_b * w0] * k
        phi += [np.exp(-1j * lam * (stop - start)) for _, start, stop in forcings]
        phi0 += [1.0] * k
    y1 = ham.apply(np.stack(phi, axis=1), np.array(phi0), np.stack(cols, axis=1))
    out = y1.reshape(diag.size, -1, k).sum(axis=1) / sqrt_b[:, None]
    return out if several else out[:, 0]


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The GL_NODES-point Gauss-Legendre (nodes, weights) on [-1, 1], read-only.

    Computed at the first forced solve and kept: leggauss solves an
    eigenproblem per call, and numpy.polynomial is loaded only then. The
    nodes come in pairs -x, x with equal weights, bit for bit, and
    ascending, so node GL_NODES - 1 - j is minus node j.
    """
    rule = np.polynomial.legendre.leggauss(GL_NODES)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _duhamel_integrals(
    freqs: np.ndarray, f, dt_hint: float, t0: float, t1: float
) -> tuple[np.ndarray, float]:
    """acc_k = int_t0^t1 exp(-i freqs_k (t1 - tau)) f(tau) dtau, and int_t0^t1 f.

    The composite Gauss-Legendre panels share one width 2h, which resolves
    both the largest |freqs| and dt_hint; their count, times the number of
    frequencies (at least 1), is refused past MAX_CELL_UPDATES before
    anything is allocated. f is called once, on the nodes of all panels
    together. With panel centres c_p and nodes x_j,

        acc = sum_p exp(-i lam (t1 - c_p)) sum_j exp(i lam h x_j) f_pj,

    for f_pj = f(c_p + h x_j) h w_j. No exponential is taken per
    (frequency, panel) pair:

    - the nodes pair up as -x, x with equal weights, so the inner sum is
      cos(lam h x) on the even part f(x) + f(-x) plus i sin(lam h x) on the
      odd part f(x) - f(-x): two real table products over GL_NODES / 2
      nodes, from half the transcendentals of one complex node table;
    - the centres are equally spaced, so panel p + j of a chunk has the
      phase exp(-i lam (t1 - c_p)) z^j with z = exp(2i lam h). The table of
      z^j, j < PANEL_CHUNK, is built once per call by products, doubling
      the filled part each time, and each chunk of PANEL_CHUNK panels takes
      one exponential per frequency, at its first panel.

    Temporaries stay n x PANEL_CHUNK. Each z^j carries at most about j
    roundings of z and of a complex product, a relative error under
    PANEL_CHUNK * 4 * 2^-53 (1.4e-14) per term, so acc is within that
    times sum |f_pj| of the exact quadrature; against one exponential per
    panel the difference measured 1e-15 to 1.7e-14 of max |acc|.
    int f is the plain sum of f_pj, unchanged by the above.
    """
    if t1 == t0:
        return np.zeros(freqs.size, dtype=np.complex128), 0.0
    freq_max = float(np.abs(freqs).max()) if freqs.size else 0.0
    h = min(t1 - t0, dt_hint)
    if freq_max > 0.0:
        h = min(h, 2.5 / freq_max)
    panels = float(np.ceil((t1 - t0) / h))
    counted(
        panels * max(freqs.size, 1),
        f"panel-frequency pairs ({panels:.3g} quadrature panels of {h!r} "
        f"over {freqs.size} frequencies)",
        MAX_CELL_UPDATES,
    )
    n_panels = int(panels)
    acc = np.zeros(freqs.size, dtype=np.complex128)
    nodes, weights = _gauss_legendre()
    edges = np.linspace(t0, t1, n_panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (t1 - t0) / n_panels
    s_q = centers[None, :] + half * nodes[:, None]
    f_q = np.asarray(f(s_q.ravel()), dtype=np.float64).reshape(s_q.shape)
    f_q = f_q * (half * weights)[:, None]  # a new array: f's own result stays as it was
    total = float(f_q.sum())
    m = GL_NODES // 2
    pos, neg = f_q[m:], f_q[m - 1 :: -1]  # the nodes x > 0, and -x in the same order
    even, odd = (pos + neg).T, (pos - neg).T  # panels x m
    angles = np.outer(half * nodes[m:], freqs)
    cos_nodes, sin_nodes = np.cos(angles), np.sin(angles)
    width = min(PANEL_CHUNK, n_panels)
    steps = np.empty((width, freqs.size), dtype=np.complex128)  # row j: z^j
    steps[0] = 1.0
    if width > 1:
        steps[1] = np.exp(2j * half * freqs)
    done = min(width, 2)
    while done < width:
        more = min(done, width - done)
        np.multiply(steps[:more], steps[done - 1] * steps[1], out=steps[done : done + more])
        done += more
    steps_re, steps_im = steps.real.copy(), steps.imag.copy()
    del steps  # the real copies replace it, so the table is held once
    for p in range(0, n_panels, PANEL_CHUNK):
        chunk = slice(p, p + PANEL_CHUNK)
        node_re, node_im = even[chunk] @ cos_nodes, odd[chunk] @ sin_nodes
        z_re, z_im = steps_re[: node_re.shape[0]], steps_im[: node_re.shape[0]]
        sum_re = np.einsum("pk,pk->k", z_re, node_re) - np.einsum("pk,pk->k", z_im, node_im)
        sum_im = np.einsum("pk,pk->k", z_re, node_im) + np.einsum("pk,pk->k", z_im, node_re)
        acc += np.exp(-1j * freqs * (t1 - centers[p])) * (sum_re + 1j * sum_im)
    return acc, total
