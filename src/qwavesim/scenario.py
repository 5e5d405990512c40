"""Scenario files: the JSON contract behind the batch front door.

A scenario bundles everything one run needs: the grid, the material, the
boundary treatment, initial data, point sources, the evolution clock,
measurement requests, and the estimator configuration. load_scenario
parses and cross-validates the whole file up front, resolving regions to
index masks and reading every referenced file, so a bad scenario fails
before a single output is written. It assembles no operator: the pair and
the constraint-reduced system are built at the first use of Scenario.pair
or Scenario.system, so measure and initcircuit, which use neither, never
import scipy.sparse.

All errors raised here are ScenarioError (a ValidationError) carrying the
scenario path for context.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .constraints import WALLS, boundary_scalar_indices, dirichlet_constraints, reduce_system
from .discretize import (
    MaterialModel,
    OperatorPair,
    PiecewiseCoefficient,
    RowForcing,
    StaggeredGrid,
    TabulatedCoefficient,
    assemble_operator_pair,
    build_grid,
)
from .errors import ScenarioError, SourceError
from .initcircuit import PolarGridSpec, RadialField
from .io import JsonObject, finite, finite_array, integer, list_of, positive, read_json
from .io import read_initial_csv, read_source_csv
from .measurement import EstimatorConfig, SubspaceProjector
from .reference import MAX_CELL_UPDATES, cfl_limit
from .sources import (
    PointSource,
    SourceTimeFunction,
    chi_pattern,
    gaussian_pulse,
    ricker_wavelet,
    time_function_from_samples,
    window_schedule,
    windowed_sine,
)


@dataclass(frozen=True)
class SourceSpec:
    """One point source plus its optional slicing request.

    chi is the injection pattern already restricted to the simulated
    unknowns; decompose, when present, holds the validated homogeneous-ball
    parameters for greens_decompose: radius, c and rho. Every slice is
    solved on the grid, so there is no solver to choose.
    """

    source: PointSource
    chi: np.ndarray
    decompose: dict | None


@dataclass(frozen=True)
class MeasurementRequest:
    """A named subspace loss to report, with the mask already resolved."""

    name: str
    projector: SubspaceProjector
    description: str


@dataclass(frozen=True)
class InitCircuitSpec:
    """Rotationally covariant target field plus its polar register layout."""

    spec: PolarGridSpec
    field: Callable[[np.ndarray], np.ndarray]
    profile: str


@dataclass(frozen=True)
class Walls:
    """The scalar unknowns the boundaries pin, and the samples b(t) that drive them.

    pinned is sorted and unique, and empty when every wall is natural.
    b_times and b_values, of shape (n_t,) and (n_t, pinned.size), are None
    when every pinned wall is grounded. n_total counts the unknowns of the
    full pair, so the simulated unknowns and their index map are known
    without assembling an operator.
    """

    n_total: int
    pinned: np.ndarray
    b_times: np.ndarray | None = None
    b_values: np.ndarray | None = None

    @property
    def n_free(self) -> int:
        return self.n_total - int(self.pinned.size)

    def restrict(self, w_full: np.ndarray) -> np.ndarray:
        """w_full on the simulated unknowns, as the system's restrict gives it."""
        return np.asarray(w_full) if not self.pinned.size else np.delete(w_full, self.pinned)


@dataclass(frozen=True)
class Scenario:
    """A fully validated run description.

    system is the operator pair to simulate: the assembled full pair, or
    the constraint-reduced system when any wall is pinned. Both are built
    at their first use; nothing a scenario file can hold makes that fail,
    because the grid gives finite difference weights, the material finite
    positive energy weights, and pinning deletes rows and columns. Initial,
    every source chi and every measurement mask are indexed over the
    simulated unknowns, which walls.restrict picks from a full vector. dt
    is the leapfrog step, half the CFL limit when evolution.dt is null, and
    None without an evolution section.
    """

    path: str
    grid: StaggeredGrid
    material: MaterialModel
    walls: Walls
    initial: np.ndarray
    sources: tuple[SourceSpec, ...]
    t_start: float
    t_final: float | None
    dt: float | None
    record_every: int
    measurements: tuple[MeasurementRequest, ...]
    estimator: EstimatorConfig
    initcircuit: InitCircuitSpec | None
    output_dir: str | None

    @property
    def n_unknowns(self) -> int:
        return self.walls.n_free

    @cached_property
    def pair(self) -> OperatorPair:
        return assemble_operator_pair(self.grid, self.material)

    @cached_property
    def system(self):
        walls = self.walls
        if not walls.pinned.size:
            return self.pair
        constraints = dirichlet_constraints(
            self.grid, walls.pinned, b_times=walls.b_times, b_values=walls.b_values
        )
        return reduce_system(self.pair, constraints)

    def external_forcing(self) -> RowForcing | None:
        """Sum of the point-source injections, or None when there are none."""
        if not self.sources:
            return None
        return RowForcing.of_columns(
            [s.chi for s in self.sources], [s.source.time_function for s in self.sources]
        )


def load_scenario(
    path,
    out_override: str | None = None,
    seed_override: int | None = None,
    shots_override: int | None = None,
) -> Scenario:
    """Parse, cross-validate, and resolve a scenario file.

    Command-line overrides replace the corresponding scenario values:
    out_override the output directory, seed_override the estimator seed,
    and shots_override the shot count (which also switches the estimator
    into shot mode, since overriding shots in exact mode would be inert).
    """
    path = Path(path)
    raw = JsonObject(read_json(path))
    base = path.parent

    try:
        grid = _parse_grid(raw)
        material = _parse_material(raw, grid, base)
        walls = _parse_boundaries(raw, grid, base)
        initial = _parse_initial(raw, grid, walls, base)
        sources = _parse_sources(raw, grid, walls, base)
        t_start, t_final, dt, record_every = _parse_evolution(raw)
        measurements = _parse_measurements(raw, grid, walls)
        estimator = _parse_estimator(raw, seed_override, shots_override)
        initcircuit = _parse_initcircuit(raw, base)
        output_dir = raw.get("output_dir", default=None)
        raw.close()
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

    if output_dir is not None and not isinstance(output_dir, str):
        raise ScenarioError(f"{path}: output_dir must be a string")
    if out_override is not None:
        output_dir = out_override

    if t_final is not None:
        if dt is None:
            # cfl_limit reads only the grid and the material, so it needs no assembled operator
            dt = 0.5 * cfl_limit(SimpleNamespace(grid=grid, material=material))
            if not dt > 0.0:
                raise ScenarioError(
                    f"{path}: the grid spacing {min(grid.spacing)!r} over the largest wave "
                    f"speed {material.max_speed!r} underflows the stable leapfrog step to 0"
                )
        steps = np.ceil((t_final - t_start) / dt)
        if not steps * walls.n_free <= MAX_CELL_UPDATES:
            raise ScenarioError(
                f"{path}: evolution.dt {dt!r} and evolution.t_final {t_final!r} need "
                f"{steps:.3g} leapfrog steps of {walls.n_free} unknowns, "
                f"{steps * walls.n_free:.3g} cell updates, above {MAX_CELL_UPDATES:.0e}"
            )

    return Scenario(
        path=str(path), grid=grid, material=material, walls=walls,
        initial=initial, sources=sources, t_start=t_start, t_final=t_final,
        dt=dt, record_every=record_every, measurements=measurements,
        estimator=estimator, initcircuit=initcircuit, output_dir=output_dir,
    )


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant splitting a double into two halves
_SPLIT_MIN = 2.0**-400  # below this the halves' products can underflow and the error is inexact


def _pow_square(v: float) -> float:
    """v ** 2 through the C library's pow, or inf where float ** raises on overflow."""
    try:
        return v**2.0
    except OverflowError:
        return np.inf


def _square(x) -> np.ndarray:
    """float.__pow__(x, 2.0) elementwise, bit for bit, and inf where that overflows.

    float ** calls the C library's pow, which is not always x * x: with glibc,
    about 1 square in 1,200 differs by an ulp. glibc's pow is within 0.54 ulp,
    so wherever the exact square lies within 0.46 ulp of x * x, pow returns
    x * x. The exact error of x * x comes from Dekker's two-product, and pow
    is called only where that error reaches 0.45 ulp, where x * x is a power
    of two (the ulp below it is half the ulp above), where |x| < 2**-400 (the
    split is inexact) and where x or x * x is not finite.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.asarray(x * x)  # an array even for 0-d x, so .flat writes through
        c = _SPLIT * x
        hi = c - (c - x)
        lo = x - hi
        err = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo
        slow = ~(np.abs(err) < 0.45 * np.spacing(p))  # also where err or p is inf or nan
    slow |= (np.frexp(p)[0] == 0.5) | ~(np.abs(x) >= _SPLIT_MIN)
    where = np.flatnonzero(slow)
    p.flat[where] = [_pow_square(v) for v in x.flat[where].tolist()]
    return p


def _gaussian_spread(width: float, where: str) -> float:
    """2 * width**2 of a Gaussian, refused unless it is finite and positive."""
    spread = 2.0 * float(_square(width))
    if not 0.0 < spread < np.inf:
        raise ScenarioError(f"{where}: 2 * {width!r}**2 is not a finite positive number")
    return spread


def _parse_grid(raw: JsonObject) -> StaggeredGrid:
    spec = raw.get("grid", JsonObject)
    bounds = spec.get("bounds", finite_array)
    counts = spec.get("shape", list_of(integer))
    spec.close()
    # a node table of float64 must be addressable; a larger shape would end in
    # an unrelated numpy error (or a memory error) inside build_grid
    if math.prod(counts) * 8 > np.iinfo(np.intp).max:
        raise ScenarioError(f"grid.shape {counts} has too many nodes to address")
    try:
        return build_grid(bounds.tolist(), counts)
    except MemoryError:
        raise ScenarioError(f"grid.shape {counts}: not enough memory for the grid") from None


def _samples(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The columns of a time,value file that is interpolated: it needs 2 rows at least."""
    first, values = read_source_csv(path)
    if first.size < 2:
        raise ScenarioError(f"{path}: a sample table needs at least 2 rows, got {first.size}")
    return first, values


def _coefficient(material: JsonObject, grid: StaggeredGrid, base: Path, name: str):
    """The material coefficient at name: a constant, a piecewise table, or a file.

    Piecewise and file coefficients become PiecewiseCoefficient and
    TabulatedCoefficient, which MaterialModel samples on the whole
    coordinate table at once.
    """
    spec = material.get(name)
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return finite(spec, material.path(name))
    if not isinstance(spec, dict):
        raise ScenarioError(f"material coefficient {name} must be a number or an object")
    spec = JsonObject(spec, material.path(name))
    kind = spec.get("kind")
    if kind == "piecewise":
        background = spec.get("background", finite)
        boxes = []
        for region in spec.get("regions", list_of(JsonObject)):
            box = region.get("bounds", finite_array)
            if box.shape != (grid.dimension, 2):
                raise ScenarioError(
                    f"{region.path('bounds')} must be {grid.dimension} [lo, hi] pairs"
                )
            boxes.append((box, region.get("value", finite)))
            region.close()
        spec.close()
        return PiecewiseCoefficient(background=background, regions=tuple(boxes))
    if kind == "file":
        if grid.dimension != 1:
            raise ScenarioError(f"{spec.where}: tabulated coefficients are 1D only")
        p = base / spec.get("path")
        spec.close()
        return TabulatedCoefficient(*_samples(p))  # the time,value layout, x instead of t
    raise ScenarioError(f"{spec.where}: unknown kind {kind!r}")


_FAMILIES = {"acoustic": ("rho", "c"), "maxwell1d": ("eps", "mu")}  # MaterialModel constructors


def _parse_material(raw: JsonObject, grid: StaggeredGrid, base: Path) -> MaterialModel:
    spec = raw.get("material", JsonObject)
    family = spec.get("family")
    if family not in _FAMILIES:
        raise ScenarioError(f"material: unknown family {family!r}")
    coefficients = {name: _coefficient(spec, grid, base, name) for name in _FAMILIES[family]}
    spec.close()
    return getattr(MaterialModel, family)(grid, **coefficients)


def _parse_boundaries(raw: JsonObject, grid: StaggeredGrid, base: Path) -> Walls:
    """Natural walls cost nothing; Dirichlet walls pin scalar unknowns.

    All pinned sides are merged into one constraint set. A corner node
    claimed by two sides is fine while both are homogeneous; two data
    series on one node have no single value, so that is refused.
    """
    spec = raw.get("boundaries", JsonObject, {})
    pinned: dict[int, bool] = {}  # node -> pinned by a driven side
    driven = []  # (nodes, times, values) per driven side
    for side in [side for names in WALLS[: grid.dimension] for side in names]:
        entry = spec.get(side, default="natural")
        if entry == "natural":
            # the staggered operators already impose a vanishing
            # perpendicular flux on every wall, so nothing to pin
            continue
        if entry == "dirichlet":
            entry = {"kind": "dirichlet"}
        wall = JsonObject(entry, spec.path(side)) if isinstance(entry, dict) else None
        if wall is None or wall.get("kind") != "dirichlet":
            raise ScenarioError(
                f"{spec.path(side)}: expected 'natural', 'dirichlet', or a dirichlet object"
            )
        series = _wall_series(wall.get("data", JsonObject, None), base)
        wall.close()
        nodes = boundary_scalar_indices(grid, [side])
        for node in nodes.tolist():
            if node in pinned and (pinned[node] or series is not None):
                raise ScenarioError(
                    f"boundaries: node {node} is pinned by two sides whose values "
                    "disagree; a corner shared with a driven side has no single value"
                )
            pinned.setdefault(node, series is not None)
        if series is not None:
            driven.append((nodes, *series))
    spec.close()

    indices = np.asarray(sorted(pinned), dtype=np.int64)
    if not driven:
        return Walls(grid.n_total, indices)
    t_grid = np.unique(np.concatenate([t for _, t, _ in driven]))
    if t_grid.size < 2:
        raise ScenarioError("boundaries: boundary data needs at least 2 samples")
    b_values = np.zeros((t_grid.size, indices.size))
    # a driven side shares no node with another side, so its columns are its own
    for nodes, times, values in driven:
        b_values[:, np.searchsorted(indices, nodes)] = np.interp(t_grid, times, values)[:, None]
    return Walls(grid.n_total, indices, t_grid, b_values)


def _wall_series(data: JsonObject | None, base: Path):
    """The (times, values) that drive a dirichlet wall, or None for a grounded wall."""
    if data is None:
        return None
    path = data.get("path", default=None)
    if path is not None:
        times, values = read_source_csv(base / path)
    else:
        times, values = data.get("times", finite_array), data.get("values", finite_array)
        if not (times.ndim == 1 and times.shape == values.shape and np.all(np.diff(times) > 0)):
            raise ScenarioError(
                f"{data.where}: times and values must be lists of one value per "
                "strictly increasing time"
            )
    data.close()
    return times, values


def _parse_initial(raw: JsonObject, grid, walls: Walls, base: Path) -> np.ndarray:
    spec = raw.get("initial", JsonObject, {"kind": "zero"})
    kind = spec.get("kind")
    if kind == "zero":
        spec.close()
        return np.zeros(walls.n_free)
    if kind == "scalar_gaussian":
        center = spec.get("center", finite_array)
        if center.shape != (grid.dimension,):
            raise ScenarioError("initial.center must match the grid dimension")
        spread = _gaussian_spread(spec.get("sigma", positive), "initial.sigma")
        amplitude = spec.get("amplitude", finite, 1.0)
        spec.close()
        w = np.zeros(grid.n_total)
        r2 = np.sum((grid.scalar_coords - center[None, :]) ** 2, axis=1)
        w[: grid.n_scalar] = amplitude * np.exp(-r2 / spread)
        return walls.restrict(w)
    if kind == "file":
        p = base / spec.get("path")
        spec.close()
        return walls.restrict(read_initial_csv(p, grid.n_total))
    raise ScenarioError(f"initial: unknown kind {kind!r}")


def _parse_time_function(spec: JsonObject, base: Path) -> SourceTimeFunction:
    """A pulse or a sample table; a pulse float64 cannot sample is refused naming its keys."""
    kind = spec.get("kind")
    if kind == "file":
        p = base / spec.get("path")
        spec.close()
        return time_function_from_samples(*_samples(p))
    if kind not in ("gaussian", "ricker", "windowed_sine"):
        raise ScenarioError(f"{spec.where}: unknown kind {kind!r}")
    amplitude = spec.get("amplitude", finite, 1.0)
    if kind == "gaussian":
        center, sigma = spec.get("center", finite), spec.get("sigma", positive)
        _gaussian_spread(sigma, spec.path("sigma"))
        keys, make = ("center", "sigma"), partial(gaussian_pulse, center=center, sigma=sigma)
    elif kind == "ricker":
        peak = spec.get("peak_frequency", positive)
        if _square(np.pi * peak) == np.inf:
            raise ScenarioError(f"{spec.path('peak_frequency')}: (pi * {peak!r})**2 is not finite")
        keys = ("peak_frequency", "delay")
        make = partial(ricker_wavelet, peak_frequency=peak, delay=spec.get("delay", finite, None))
    else:
        frequency = spec.get("frequency", positive)
        if 2.0 * np.pi * frequency == np.inf:
            raise ScenarioError(f"{spec.path('frequency')}: 2 * pi * {frequency!r} is not finite")
        keys = ("frequency", "t_start", "duration")
        make = partial(
            windowed_sine, frequency=frequency, t_start=spec.get("t_start", finite),
            duration=spec.get("duration", positive),
        )
    try:
        pulse = make(amplitude=amplitude)
    except SourceError as exc:
        named = ", ".join(spec.path(key) for key in keys)
        raise ScenarioError(f"{named}: the pulse cannot be sampled in float64: {exc}") from None
    spec.close()
    return pulse


def _parse_sources(raw: JsonObject, grid, walls: Walls, base: Path) -> tuple[SourceSpec, ...]:
    out = []
    for spec in raw.get("sources", list_of(JsonObject), []):
        location = tuple(spec.get("location", list_of(integer)))
        polarization = tuple(spec.get("polarization", list_of(finite)))
        f = _parse_time_function(spec.get("time_function", JsonObject), base)
        decompose = spec.get("decompose", JsonObject, None)
        if decompose is not None:
            decompose = _parse_decompose(decompose, spec.path("time_function"), f, grid, walls)
        spec.close()
        source = PointSource(location=location, polarization=polarization, time_function=f)
        chi = walls.restrict(chi_pattern(source, grid))
        out.append(SourceSpec(source=source, chi=chi, decompose=decompose))
    return tuple(out)


def _parse_decompose(spec: JsonObject, drive: str, f, grid, walls: Walls) -> dict:
    """The greens_decompose parameters, refused here rather than midway through presim.

    Their window schedule must have finite positive derived values, and
    its windows, one grid solve of every unknown each, at most
    MAX_CELL_UPDATES cell updates. So must the slices' quadrature panels,
    one pass over every unknown each: the slices cover the source support
    and each resolves its dt_hint (for a sample table, the smallest sample
    spacing), so together they hold at least duration / dt_hint panels, and
    at least one each. That is a lower bound, since the panels also resolve
    the largest frequency of an H that loading does not build. A ball too
    small for any window is left to presim, the one command that slices.
    """
    parsed = {k: spec.get(k, positive) for k in ("radius", "c", "rho")}
    spec.close()
    try:
        schedule = window_schedule(
            f, parsed["c"], parsed["rho"], parsed["radius"], max(grid.spacing)
        )
    except SourceError as exc:
        keys = ", ".join(spec.path(k) for k in ("radius", "c", "rho"))
        raise ScenarioError(f"{keys}: {exc}") from None
    if schedule.width > 0 and not schedule.count * walls.n_free <= MAX_CELL_UPDATES:
        raise ScenarioError(
            f"{drive} and {spec.path('radius')}: {schedule.count:.3g} windows of "
            f"{schedule.width:.3g} over the source support, each a solve of {walls.n_free} "
            f"unknowns, make {schedule.count * walls.n_free:.3g} cell updates, "
            f"above {MAX_CELL_UPDATES:.0e}"
        )
    if schedule.width > 0:
        hint = schedule.slice_hint(f)
        panels = max(schedule.count, f.duration / hint)
        if not panels * walls.n_free <= MAX_CELL_UPDATES:
            raise ScenarioError(
                f"{drive}: its slices resolve steps of {hint!r} (its dt_hint {f.dt_hint!r}, "
                "for a sample table the smallest sample spacing), so their quadrature needs at "
                f"least {panels:.3g} panels over the support of {f.duration:.3g}, each a pass "
                f"over {walls.n_free} unknowns: {panels * walls.n_free:.3g} cell updates, "
                f"above {MAX_CELL_UPDATES:.0e}"
            )
    return parsed


def _parse_evolution(raw: JsonObject):
    spec = raw.get("evolution", JsonObject, None)
    if spec is None:
        return 0.0, None, None, 1
    t_start = spec.get("t_start", finite, 0.0)
    t_final = spec.get("t_final", finite)
    dt = spec.get("dt", positive, None)
    record_every = spec.get("record_every", integer, 1)
    spec.close()
    if not t_final > t_start:
        raise ScenarioError("evolution: t_final must exceed t_start")
    if record_every < 1:
        raise ScenarioError("evolution: record_every must be >= 1")
    return t_start, t_final, dt, record_every


def _parse_measurements(raw: JsonObject, grid, walls: Walls) -> tuple[MeasurementRequest, ...]:
    n_sys = walls.n_free
    out = []
    seen = set()
    for spec in raw.get("measurements", list_of(JsonObject), []):
        name = spec.get("name")
        if not isinstance(name, str) or not name or any(ch in name for ch in "/\\ "):
            raise ScenarioError(
                f"{spec.where}: name must be a nonempty token without spaces or slashes"
            )
        if name in seen:
            raise ScenarioError(f"{spec.where}: duplicate measurement name {name!r}")
        seen.add(name)
        sub = spec.get("subspace", JsonObject)
        spec.close()
        kind = sub.get("kind")
        mask = np.zeros(n_sys, dtype=bool)
        if kind == "dof_range":
            start, stop = sub.get("start", integer), sub.get("stop", integer)
            if not (0 <= start < stop <= n_sys):
                raise ScenarioError(f"{sub.where}: need 0 <= start < stop <= {n_sys}")
            mask[start:stop] = True
            desc = f"unknowns [{start}, {stop})"
        elif kind == "scalar_region":
            box = sub.get("bounds", finite_array)
            if box.shape != (grid.dimension, 2):
                raise ScenarioError(f"{sub.where}: bounds must be {grid.dimension} [lo, hi] pairs")
            inside = np.all(
                (grid.scalar_coords >= box[:, 0]) & (grid.scalar_coords <= box[:, 1]),
                axis=1,
            )
            full = np.zeros(grid.n_total, dtype=bool)
            full[: grid.n_scalar] = inside
            mask = walls.restrict(full)
            desc = f"scalar nodes in {box.tolist()}"
        elif kind == "indices":
            listed = sub.get("indices", list_of(integer))
            if not all(0 <= i < n_sys for i in listed):
                raise ScenarioError(f"{sub.where}: index out of range (n={n_sys})")
            mask[listed] = True
            desc = f"{len(listed)} listed unknowns"
        else:
            raise ScenarioError(f"{sub.where}: unknown kind {kind!r}")
        sub.close()
        out.append(MeasurementRequest(name=name, projector=SubspaceProjector(mask=mask), description=desc))
    return tuple(out)


def _parse_estimator(raw: JsonObject, seed_override, shots_override) -> EstimatorConfig:
    spec = raw.get("estimator", JsonObject, {})
    mode = spec.get("mode", default="exact")
    shots = spec.get("shots", integer, 10000)
    seed = spec.get("seed", default=None)
    spec.close()
    if shots_override is not None:
        mode, shots = "shots", int(shots_override)
    if seed_override is not None:
        seed = seed_override
    if mode not in ("exact", "shots"):
        raise ScenarioError(f"estimator: unknown mode {mode!r}")
    integral = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if seed is not None and not (integral and seed >= 0):
        raise ScenarioError("estimator: seed must be a non-negative integer")
    if mode == "shots" and seed is None:
        raise ScenarioError(
            "estimator: shot mode needs a seed (scenario key or --seed) to stay reproducible"
        )
    return EstimatorConfig(mode=mode, shots=shots, seed=seed)


def _parse_initcircuit(raw: JsonObject, base: Path) -> InitCircuitSpec | None:
    spec = raw.get("initcircuit", JsonObject, None)
    if spec is None:
        return None
    divisions = spec.get("radial_divisions", integer)
    extent = spec.get("extent", finite)
    center = tuple(spec.get("center", list_of(finite), [0.0, 0.0]))
    if len(center) != 2:
        raise ScenarioError(f"initcircuit.center must be two finite numbers, got {list(center)}")
    profile = spec.get("profile", JsonObject)
    spec.close()
    # the register holds 2 A**2 float64 amplitudes and must be addressable;
    # refused before PolarGridSpec.uniform builds its A radii one by one
    if divisions > 0 and 2 * divisions**2 * 8 > np.iinfo(np.intp).max:
        raise ScenarioError(
            f"{spec.path('radial_divisions')} {divisions}: a register of 2 * {divisions}**2 "
            "amplitudes is too large to address"
        )
    polar = PolarGridSpec.uniform(divisions, extent, center=center)

    kind = profile.get("kind")
    if kind == "gaussian_ring":
        r0 = profile.get("radius", finite)
        if _square(abs(r0) + extent) == np.inf:
            raise ScenarioError(
                f"{profile.path('radius')}: ({abs(r0)!r} + extent {extent!r})**2 is not finite"
            )
        width = profile.get("width", positive)
        spread = _gaussian_spread(width, profile.path("width"))
        amplitude = profile.get("amplitude", finite, 1.0)

        def magnitude(r: np.ndarray) -> np.ndarray:
            return amplitude * np.exp(-_square(r - r0) / spread)

        desc = f"gaussian_ring(radius={r0}, width={width})"
    elif kind == "file":
        p = base / profile.get("path")
        radii, values = _samples(p)

        def magnitude(r: np.ndarray) -> np.ndarray:
            return np.interp(r, radii, values)

        desc = f"file({p.name})"
    else:
        raise ScenarioError(f"{profile.where}: unknown kind {kind!r}")
    profile.close()

    return InitCircuitSpec(spec=polar, field=RadialField(center, magnitude), profile=desc)
