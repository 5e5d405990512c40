"""Compactly supported sources, window algebra, and pulse pre-computation.

A point source drives the system as B dw/dt = A w + chi f(t), where chi is a
fixed injection pattern (one grid node per field component) and f a smooth
time function supported on [t_start, t_end]. Because the system is linear and
homogeneous after t_end, the entire effect of a pulse can be pre-computed
classically: simulate only while the source is active, store the resulting
compact field w_s stamped with its end time, and let the quantum register
carry it forward unitarily. Several pulses become sub-states of one stacked
register: synchronize each block from its own end time to a common time, then
evolve all blocks together.

Long sources are sliced into short pulses by one window family, the
WindowSchedule that the homogeneous ball fixes (window_schedule). Between
adjacent breakpoints tau_j < tau_{j+1} the window is the double sigmoid

    W_j(t) = sigmoid(z (t - tau_j)) - sigmoid(z (t - tau_{j+1})),

and the windows' sum telescopes to sigmoid(z(t - tau_first)) minus
sigmoid(z(t - tau_last)). The breakpoints reach a margin past each end of
the source support, and z * margin = TAIL_CUT, so on the support the
partition of unity is exact up to two tails of e^{-TAIL_CUT} each, and the
slices W_j f sum to f within a few tens of e^{-TAIL_CUT} of its peak:
slicing commutes with the dynamics to that accuracy.

Each slice is short enough that its wave stays inside a homogeneous ball of
radius r_s around the source, and is solved exactly on the grid by the
eigenbasis quadrature of the reference module, all slices of a source in one
forced solve: the slice obeys the same discrete equations as the H that
carries it forward. Support radii
include a discretization margin that grows like the cube root of the cone
length in cells; fields are verified against the claimed ball and hard-zeroed
outside it, and the surviving nonzero count is what the resolution-scaling
checks compare.

scipy.special (the sigmoid expit) and scipy.interpolate (CubicSpline) are
imported inside the functions that use them, at their first call, so
importing the package loads neither.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .discretize import RowForcing
from .encoding import QuantumRegisterState, stack_substates
from .errors import CausalityError, SourceError, SupportError
from .reference import cfl_limit, counted, leapfrog_evolve, spectral_forced_solution

TAIL_CUT = 25.0
SUPPORT_RTOL = 1e-8
ENDPOINT_RTOL = 1e-6


# ---------------------------------------------------------------------------
# time functions


@dataclass(frozen=True)
class SourceTimeFunction:
    """Smooth f(t) with compact support [t_start, t_end] and export samples.

    Calling the object evaluates the closed form when one exists, else a
    cubic spline through the samples; either way the value is exactly zero
    outside the support. dt_hint is the smoothness scale quadratures should
    resolve.
    """

    times: np.ndarray
    values: np.ndarray
    t_start: float
    t_end: float
    dt_hint: float
    kind: str
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise SourceError("time function needs matching 1-D samples (>= 2)")
        if not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0):
            raise SourceError("sample times must be finite and strictly increasing")
        if not np.all(np.isfinite(v)):
            raise SourceError("sample values must be finite")
        if not self.t_end > self.t_start:
            raise SourceError("support must have positive length")
        peak = float(np.abs(v).max())
        if peak > 0.0:
            edge = max(abs(float(v[0])), abs(float(v[-1])))
            if edge > ENDPOINT_RTOL * peak:
                raise SourceError(
                    "samples are not compactly supported: endpoint value "
                    f"{edge:.3e} exceeds {ENDPOINT_RTOL:g} of the peak"
                )
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        t.setflags(write=False)
        v.setflags(write=False)

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        inside = (t >= self.t_start) & (t <= self.t_end)
        if self.fn is not None:
            raw = np.asarray(self.fn(t), dtype=np.float64)
        else:
            raw = self._spline()(np.clip(t, self.times[0], self.times[-1]))
        out = np.where(inside, raw, 0.0)
        return out if out.ndim else float(out)

    def _spline(self):
        if not hasattr(self, "_spline_cache"):
            # imported here: scipy.interpolate adds about 0.1 s to every command's start-up
            from scipy.interpolate import CubicSpline

            object.__setattr__(self, "_spline_cache", CubicSpline(self.times, self.values))
        return self._spline_cache

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def gaussian_pulse(center: float, sigma: float, amplitude: float = 1.0) -> SourceTimeFunction:
    """Gaussian bump; support truncated at 7 sigma (relative 2e-11), 257 export samples."""
    if sigma <= 0:
        raise SourceError("sigma must be positive")
    t0, t1 = center - 7.0 * sigma, center + 7.0 * sigma
    times = np.linspace(t0, t1, 257)

    def fn(t):
        return amplitude * np.exp(-0.5 * ((t - center) / sigma) ** 2)

    return SourceTimeFunction(
        times=times, values=fn(times), t_start=t0, t_end=t1,
        dt_hint=sigma / 3.0, kind="gaussian", fn=fn,
    )


def ricker_wavelet(
    peak_frequency: float, delay: float | None = None, amplitude: float = 1.0
) -> SourceTimeFunction:
    """Second Gaussian derivative wavelet; support delay +- 2/f_peak, 257 export samples."""
    if peak_frequency <= 0:
        raise SourceError("peak frequency must be positive")
    if delay is None:
        delay = 2.0 / peak_frequency
    t0, t1 = delay - 2.0 / peak_frequency, delay + 2.0 / peak_frequency
    times = np.linspace(t0, t1, 257)

    def fn(t):
        arg = (np.pi * peak_frequency * (t - delay)) ** 2
        return amplitude * (1.0 - 2.0 * arg) * np.exp(-arg)

    return SourceTimeFunction(
        times=times, values=fn(times), t_start=t0, t_end=t1,
        dt_hint=1.0 / (3.0 * peak_frequency), kind="ricker", fn=fn,
    )


def windowed_sine(
    frequency: float, t_start: float, duration: float, amplitude: float = 1.0
) -> SourceTimeFunction:
    """Sine burst under a double-sigmoid envelope vanishing at both ends.

    Each sigmoid edge spans a tenth of the duration; 513 export samples.
    """
    if frequency <= 0 or duration <= 0:
        raise SourceError("frequency and duration must be positive")
    m = 0.1 * duration
    z = TAIL_CUT / m
    t1 = t_start + duration
    times = np.linspace(t_start, t1, 513)

    def fn(t):
        from scipy.special import expit

        env = expit(z * (t - t_start - m)) * expit(-z * (t - t1 + m))
        return amplitude * np.sin(2.0 * np.pi * frequency * (t - t_start)) * env

    return SourceTimeFunction(
        times=times, values=fn(times), t_start=t_start, t_end=t1,
        dt_hint=min(1.0 / (8.0 * frequency), m / 3.0), kind="windowed_sine", fn=fn,
    )


def time_function_from_samples(times, values) -> SourceTimeFunction:
    """Spline-interpolated f from a sample table (CSV import path)."""
    times = np.asarray(times, dtype=np.float64)
    return SourceTimeFunction(
        times=times, values=np.asarray(values, dtype=np.float64),
        t_start=float(times[0]), t_end=float(times[-1]),
        dt_hint=float(np.diff(times).min()), kind="samples", fn=None,
    )


# ---------------------------------------------------------------------------
# point sources


@dataclass(frozen=True)
class PointSource:
    """Injection at one grid node with a per-component polarization.

    location is the node multi-index; polarization lists one coefficient per
    field component in block order (scalar, then one flux family per axis).
    The scalar component drives the named node exactly; flux components drive
    the nearest staggered midpoint (rounding down, clamped at walls).
    """

    location: tuple[int, ...]
    polarization: tuple[float, ...]
    time_function: SourceTimeFunction

    def __post_init__(self):
        if not isinstance(self.location, tuple) or not all(
            isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in self.location
        ):
            raise SourceError(f"location must be a tuple of integers, got {self.location!r}")
        if not any(c != 0.0 for c in self.polarization):
            raise SourceError("polarization must have a nonzero component")


def chi_pattern(source: PointSource, grid) -> np.ndarray:
    """Time-independent injection vector over the full unknown stack."""
    dim = grid.dimension
    loc = source.location
    if len(loc) != dim:
        raise SourceError("source location arity does not match the grid")
    if len(source.polarization) != 1 + dim:
        raise SourceError(
            f"polarization needs {1 + dim} components for a {dim}D grid"
        )
    for i, n in zip(loc, grid.shape):
        if not 0 <= i < n:
            raise SourceError("source location outside the grid")
    chi = np.zeros(grid.n_total)
    chi[grid.scalar_index(*loc)] = source.polarization[0]
    for ax, (offset, coeff) in enumerate(zip(grid.block_offsets[1:], source.polarization[1:])):
        fshape = grid.flux_shape(ax)
        midpoint = np.minimum(loc, np.subtract(fshape, 1))  # clamped at the high wall
        chi[offset + np.ravel_multi_index(midpoint[::-1], fshape[::-1])] = coeff
    return chi


def _source_coords(system) -> np.ndarray:
    """Coordinates of every unknown the system carries."""
    grid = system.grid
    return system.restrict(np.concatenate([grid.scalar_coords, *grid.flux_coords], axis=0))


def _require_ball_in_domain(grid, center, radius: float, name: str, advice: str = "") -> None:
    """Raise CausalityError naming the first axis along which the ball leaves the domain."""
    for ax, (lo, hi) in enumerate(grid.bounds):
        if center[ax] - radius < lo - 1e-12 or center[ax] + radius > hi + 1e-12:
            raise CausalityError(
                f"{name} of radius {radius:.6g} around {tuple(center)} "
                f"leaves the domain along axis {ax}{advice}"
            )


def _support_margin_cells(cone_cells: float) -> int:
    """Cells beyond the exact cone that discrete tails need (Airy-type widening)."""
    return int(np.ceil(9.0 * (max(cone_cells, 1.0) / 2.0) ** (1.0 / 3.0))) + 6


@dataclass(frozen=True)
class PreSimResult:
    """Pre-computed compact pulse field stamped with its birth time.

    field is the unknown vector at t_end, exactly zero outside the claimed
    support ball; nonzero_count uses a relative threshold of 1e-8 of the
    peak, which is what the resolution-scaling comparisons count.
    """

    field: np.ndarray
    t_end: float
    center: np.ndarray
    support_radius: float
    nonzero_count: int

    @classmethod
    def from_field(cls, field, t_end, center, support_radius) -> "PreSimResult":
        field = np.asarray(field, dtype=np.float64)
        peak = float(np.abs(field).max()) if field.size else 0.0
        nnz = int(np.count_nonzero(np.abs(field) > SUPPORT_RTOL * peak)) if peak else 0
        field = field.copy()
        field.setflags(write=False)
        return cls(
            field=field, t_end=float(t_end), center=np.asarray(center, dtype=np.float64),
            support_radius=float(support_radius), nonzero_count=nnz,
        )


def _enforce_support(
    w: np.ndarray, coords: np.ndarray, center: np.ndarray, radius: float
) -> np.ndarray:
    """Verify the field is negligible outside the ball, then zero it there."""
    dist = np.linalg.norm(coords - center[None, :], axis=1)
    outside = dist > radius
    peak = float(np.abs(w).max()) if w.size else 0.0
    if peak > 0.0 and np.any(outside):
        leak = float(np.abs(w[outside]).max())
        if leak > SUPPORT_RTOL * peak:
            raise SupportError(
                f"field leaks outside the claimed support ball: {leak:.3e} "
                f"against a peak of {peak:.3e} (radius {radius:.6g})"
            )
    out = w.copy()
    out[outside] = 0.0
    return out


def presimulate_pulse(
    source: PointSource,
    system,
    dt: float | None = None,
) -> PreSimResult:
    """Classically integrate one pulse over its active window only.

    Runs leapfrog from t_start to t_end with zero initial data, driven by
    the pulse alone: the walls are held at their homogeneous values (a
    reduced system's wall data are not integrated), as in greens_decompose.
    Verifies the result is compact inside the causal ball (pulse duration
    times the wave speed plus the discretization margin), and returns it
    stamped with t_end. Refuses when that ball does not fit inside the
    domain, quoting the radius it would need.
    """
    grid = system.grid
    f = source.time_function
    if dt is None:
        dt = 0.5 * cfl_limit(system)
    c_max = system.material.max_speed
    dx_max = max(grid.spacing)
    cone = c_max * f.duration
    margin = _support_margin_cells(cone / dx_max) * dx_max
    radius = cone + margin
    center = grid.scalar_coords[grid.scalar_index(*source.location)]
    _require_ball_in_domain(
        grid, center, radius, "pulse support ball",
        "; shorten the pulse or move the source inward",
    )
    chi = system.restrict(chi_pattern(source, grid))
    traj = leapfrog_evolve(
        system,
        np.zeros(system.n_total),
        dt,
        f.t_end,
        forcings=[RowForcing.of_columns([chi], [f])],
        record_every=10**9,
        t_start=f.t_start,
    )
    coords = _source_coords(system)
    w = _enforce_support(traj.final, coords, center, radius)
    return PreSimResult.from_field(w, f.t_end, center, radius)


def assemble_multisource_state(
    presims: Sequence[PreSimResult], system
) -> tuple[QuantumRegisterState, list[float]]:
    """Stack pre-computed pulses into one register: blocks B^{1/2} w_s.

    Returns the stacked state (arity padded to a power of two; pad blocks
    zero) and the per-block end times for the synchronization schedule.
    """
    presims = list(presims)
    if not presims:
        raise SourceError("no pre-computed pulses to assemble")
    diag = system.b_diagonal()
    n = diag.size
    for p in presims:
        if p.field.shape != (n,):
            raise SourceError("pre-computed field does not match the system size")
    sqrt_b = np.sqrt(diag)
    state = stack_substates([sqrt_b * p.field for p in presims])
    return state, [p.t_end for p in presims]


# ---------------------------------------------------------------------------
# windowed Green's-function decomposition


def _windowed_slice(
    f: SourceTimeFunction, schedule: WindowSchedule, tau_lo: float, tau_hi: float
) -> SourceTimeFunction:
    """f under the schedule's window from tau_lo to tau_hi, truncated where its tails die.

    Anything beyond schedule.margin past either breakpoint is at the
    exp(-TAIL_CUT) level of the parent pulse and is deliberately discarded,
    so values down at that floor are flushed to exact zeros; otherwise a
    slice cut deep in the parent's tail would fail the compact-support check
    against its own tiny peak.
    """
    lo = max(tau_lo - schedule.margin, f.t_start)
    hi = min(tau_hi + schedule.margin, f.t_end)
    floor = 10.0 * np.exp(-TAIL_CUT) * float(np.abs(f.values).max())

    def fn(t):
        raw = schedule.window(t, tau_lo, tau_hi) * np.asarray(f(t), dtype=np.float64)
        return np.where(np.abs(raw) <= floor, 0.0, raw)

    times = np.linspace(lo, hi, 257)
    return SourceTimeFunction(
        times=times, values=fn(times), t_start=lo, t_end=hi,
        dt_hint=schedule.slice_hint(f), kind="windowed_slice", fn=fn,
    )


@dataclass(frozen=True)
class WindowSchedule:
    """The windows greens_decompose cuts a source into.

    For the ball crossing time t_hom = r_s / c, margin is the sigmoid
    margin t_hom / 8, z = TAIL_CUT / margin the window steepness,
    grid_margin the discretization margin in time, and width what is left
    of t_hom for one window. The windows tile [first, last], the source
    support widened by margin on each side; count is their number, as a
    float, and meaningful only when width > 0. window evaluates one window;
    slices cuts a source with all of them, for greens_decompose and checks;
    slice_hint is the smoothness scale (dt_hint) every slice carries.
    """

    first: float
    last: float
    margin: float
    z: float
    grid_margin: float
    width: float

    @property
    def count(self) -> float:
        return float(max(np.ceil((self.last - self.first) / self.width - 1e-9), 1.0))

    def breakpoints(self) -> list[float]:
        n_windows = counted(self.count, "windows over the source support")
        return [self.first + j * self.width for j in range(n_windows)] + [self.last]

    def slice_hint(self, f: SourceTimeFunction) -> float:
        """The dt_hint of every slice of f: f's own, or the window's 3 / z where that is shorter."""
        return min(f.dt_hint, 3.0 / self.z)

    def window(self, t, tau_lo: float, tau_hi: float):
        """The window expit(z (t - tau_lo)) - expit(z (t - tau_hi)) between two breakpoints."""
        from scipy.special import expit

        return expit(self.z * (t - tau_lo)) - expit(self.z * (t - tau_hi))

    def slices(self, f: SourceTimeFunction) -> list[SourceTimeFunction]:
        """f cut into windowed slices, one per pair of adjacent breakpoints, in time order."""
        bp = self.breakpoints()
        return [_windowed_slice(f, self, lo, hi) for lo, hi in zip(bp[:-1], bp[1:])]


def window_schedule(
    f: SourceTimeFunction, c_hom: float, rho_hom: float, r_s: float, dx_max: float
) -> WindowSchedule:
    """The window schedule of f in the homogeneous ball (r_s, c_hom, rho_hom).

    Raises SourceError naming the first derived value that is not a finite
    positive number, where the float arithmetic of greens_decompose would
    otherwise overflow or divide by zero; that includes the scalar weight
    1 / (rho c**2) of the homogeneity check. A width <= 0 is returned as
    it is: greens_decompose refuses it, and load_scenario leaves it to
    presim, the one command that slices.
    """

    def check(value, what: str) -> float:
        if not 0.0 < value < np.inf:
            raise SourceError(
                f"radius {r_s!r}, c {c_hom!r} and rho {rho_hom!r} give {what} {value!r}, "
                "not a finite positive number"
            )
        return value

    try:
        weight = 1.0 / (rho_hom * c_hom**2)
    except OverflowError:  # c**2 past float range
        weight = 0.0
    except ZeroDivisionError:  # rho c**2 rounds to zero
        weight = np.inf
    check(weight, "a scalar weight 1 / (rho c**2) of")
    t_hom = check(r_s / c_hom, "a crossing time r / c of")
    margin = check(t_hom / 8.0, "a sigmoid margin of")
    z = check(TAIL_CUT / margin, "a window steepness of")
    cone_cells = check((t_hom * c_hom) / dx_max, "a cone length in cells of")
    grid_margin = check(_support_margin_cells(cone_cells) * dx_max / c_hom, "a grid margin of")
    return WindowSchedule(
        first=f.t_start - margin, last=f.t_end + margin, margin=margin, z=z,
        grid_margin=grid_margin, width=t_hom - 2.0 * margin - grid_margin,
    )


def greens_decompose(
    source: PointSource,
    c_hom: float,
    rho_hom: float,
    r_s: float,
    system,
    mode: str | None = None,
) -> list[PreSimResult]:
    """Slice a long source into windowed pulses with known compact responses.

    The medium must be homogeneous (rho_hom, c_hom) inside the ball of radius
    r_s around the source; each slice is short enough that its wave stays in
    that ball, margins included. The slices are those of window_schedule,
    whose steepness is fixed by the ball. Every slice is the exact grid
    response by eigenbasis quadrature: one spectral_forced_solution call
    solves all of them, each from its own start to its own end, with one
    application of the basis of the H that build_hamiltonian memoizes on
    the system object, so one basis serves every slice and any later sync
    or mult generator built from the same system. Each slice's field is
    then checked against, and cut to, its own support ball.

    mode accepts only None or "discrete", the one solver. The benchmark
    harness still passes mode="discrete"; the keyword goes with the next
    change to that harness.

    Returns one PreSimResult per window, each stamped with its slice end
    time, ready for assemble_multisource_state.
    """
    grid = system.grid
    f = source.time_function
    if system.material.family != "acoustic":
        raise SourceError("the windowed decomposition covers the acoustic family")
    if r_s <= 0 or c_hom <= 0 or rho_hom <= 0:
        raise SourceError("ball radius and homogeneous coefficients must be positive")
    if mode not in (None, "discrete"):
        raise SourceError(f"unknown decomposition mode {mode!r}; the only solver is 'discrete'")

    dx_max = max(grid.spacing)
    schedule = window_schedule(f, c_hom, rho_hom, r_s, dx_max)
    center = grid.scalar_coords[grid.scalar_index(*source.location)]
    coords = _source_coords(system)
    _check_homogeneous_ball(system, coords, center, r_s, c_hom, rho_hom)
    if schedule.width <= 0:
        raise CausalityError(
            f"homogeneous ball of radius {r_s:.6g} is too small for any window "
            f"(sigmoid margin {schedule.margin:.4g}, grid margin {schedule.grid_margin:.4g}); "
            "enlarge the ball"
        )
    _require_ball_in_domain(grid, center, r_s, "homogeneous ball")

    chi = system.restrict(chi_pattern(source, grid))

    pulses = schedule.slices(f)
    fields = spectral_forced_solution(
        system, chi, pulses, [g.t_start for g in pulses], [g.t_end for g in pulses]
    )
    slices = []
    for g, w in zip(pulses, fields.T):
        slice_cone = c_hom * g.duration
        radius = min(r_s, slice_cone + _support_margin_cells(slice_cone / dx_max) * dx_max)
        w = _enforce_support(w, coords, center, radius)
        slices.append(PreSimResult.from_field(w, g.t_end, center, radius))
    return slices


def _check_homogeneous_ball(system, coords, center, r_s, c_hom, rho_hom):
    dist = np.linalg.norm(coords - center[None, :], axis=1)
    inside = dist <= r_s
    diag = system.b_diagonal()
    su, sv = system.scalar_slice, system.flux_slice
    expect = np.empty_like(diag)
    expect[su] = 1.0 / (rho_hom * c_hom**2)
    expect[sv] = rho_hom
    bad = inside & (np.abs(diag - expect) > 1e-10 * np.abs(expect))
    if np.any(bad):
        raise SourceError(
            f"{int(np.count_nonzero(bad))} unknowns inside the ball differ from "
            "the declared homogeneous medium"
        )
