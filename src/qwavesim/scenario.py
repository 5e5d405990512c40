"""Scenario files: the JSON contract behind the batch front door.

A scenario bundles everything one run needs: the grid, the material, the
boundary treatment, initial data, point sources, the evolution clock,
measurement requests, and the estimator configuration. load_scenario
parses and cross-validates the whole file up front, resolving regions to
index masks and reading every referenced file, so a bad scenario fails
before a single output is written.

All errors raised here are ScenarioError (a ValidationError) carrying the
scenario path for context.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .constraints import WALLS, boundary_scalar_indices, dirichlet_constraints, reduce_system
from .discretize import (
    MaterialModel,
    OperatorPair,
    PiecewiseCoefficient,
    StaggeredGrid,
    TabulatedCoefficient,
    assemble_operator_pair,
    build_grid,
)
from .errors import ScenarioError, SourceError
from .initcircuit import PolarGridSpec, RadialField
from .io import read_initial_csv, read_json, read_source_csv
from .measurement import EstimatorConfig, SubspaceProjector
from .sources import (
    PointSource,
    SourceTimeFunction,
    chi_pattern,
    gaussian_pulse,
    ricker_wavelet,
    time_function_from_samples,
    windowed_sine,
)

_TOP_LEVEL_KEYS = {
    "grid", "material", "boundaries", "initial", "sources", "evolution",
    "measurements", "estimator", "initcircuit", "output_dir",
}
_FMAX = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class SourceSpec:
    """One point source plus its optional slicing request.

    chi is the injection pattern already restricted to the simulated
    unknowns; decompose, when present, holds the validated homogeneous-ball
    parameters for greens_decompose: radius, c, rho, mode and steepness
    (mode and steepness None when not given).
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
class Scenario:
    """A fully validated run description.

    system is the operator pair to simulate: the assembled full pair, or
    the constraint-reduced system when any wall is pinned. Either one's
    restrict maps a full vector onto its unknowns, over which initial,
    every source chi, and every measurement mask are indexed.
    """

    path: str
    grid: StaggeredGrid
    material: MaterialModel
    pair: OperatorPair
    system: object
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
        return self.system.A.shape[0]

    def external_forcing(self) -> Callable[[float], np.ndarray] | None:
        """Sum of the point-source injections, or None when there are none."""
        if not self.sources:
            return None
        pairs = [(s.chi, s.source.time_function) for s in self.sources]

        def forcing(t: float) -> np.ndarray:
            total = pairs[0][0] * pairs[0][1](t)
            for chi, f in pairs[1:]:
                total = total + chi * f(t)
            return total

        return forcing


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
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ScenarioError(f"{path}: unknown top-level keys {sorted(unknown)}")
    base = path.parent

    try:
        grid = _parse_grid(raw)
        material = _parse_material(raw, grid, base)
        pair = assemble_operator_pair(grid, material)
        system = _parse_boundaries(raw, grid, pair, base)
        initial = _parse_initial(raw, grid, pair, system, base)
        sources = _parse_sources(raw, grid, system, base)
        t_start, t_final, dt, record_every = _parse_evolution(raw)
        measurements = _parse_measurements(raw, grid, system)
        estimator = _parse_estimator(raw, seed_override, shots_override)
        initcircuit = _parse_initcircuit(raw, base)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

    output_dir = out_override if out_override is not None else raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ScenarioError(f"{path}: output_dir must be a string")

    return Scenario(
        path=str(path), grid=grid, material=material, pair=pair, system=system,
        initial=initial, sources=sources, t_start=t_start, t_final=t_final,
        dt=dt, record_every=record_every, measurements=measurements,
        estimator=estimator, initcircuit=initcircuit, output_dir=output_dir,
    )


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioError(f"{where} is missing the required key {key!r}")
    return obj[key]


def _integer(value, where: str) -> int:
    """An integer field: 3 and 3.0 pass; 3.7, true and "3" are refused, not truncated."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _finite(value, where: str) -> float:
    """A finite float; booleans, strings, NaN, infinities and out-of-range integers are refused."""
    finite = isinstance(value, (int, float)) and -_FMAX <= value <= _FMAX
    if isinstance(value, bool) or not finite:
        raise ScenarioError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _positive(value, where: str) -> float:
    """A finite positive float; booleans, strings and integers past float range are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= _FMAX:
        raise ScenarioError(f"{where} must be a finite positive number, got {value!r}")
    return float(value)


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


def _finite_array(value, where: str) -> np.ndarray:
    """A float array of the shape of a (nested) list, each entry read through _finite."""
    table = np.asarray(value, dtype=object)
    return np.array([_finite(v, where) for v in table.flat]).reshape(table.shape)


def _parse_grid(raw: dict) -> StaggeredGrid:
    spec = _require(raw, "grid", "scenario")
    bounds = _require(spec, "bounds", "grid")
    shape = _require(spec, "shape", "grid")
    extra = set(spec) - {"bounds", "shape"}
    if extra:
        raise ScenarioError(f"grid has unknown keys {sorted(extra)}")
    counts = [_integer(n, "grid.shape") for n in shape]
    # a node table of float64 must be addressable; a larger shape would end in
    # an unrelated numpy error (or a memory error) inside build_grid
    if math.prod(counts) * 8 > np.iinfo(np.intp).max:
        raise ScenarioError(f"grid.shape {counts} has too many nodes to address")
    try:
        return build_grid([tuple(b) for b in bounds], counts)
    except MemoryError:
        raise ScenarioError(f"grid.shape {counts}: not enough memory for the grid") from None


def _coefficient(spec, grid: StaggeredGrid, base: Path, name: str):
    """A material coefficient: a constant, a piecewise table, or a file.

    Piecewise and file coefficients become PiecewiseCoefficient and
    TabulatedCoefficient, which MaterialModel samples on the whole
    coordinate table at once.
    """
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return float(spec)
    if not isinstance(spec, dict):
        raise ScenarioError(f"material coefficient {name} must be a number or an object")
    kind = _require(spec, "kind", f"material.{name}")
    if kind == "piecewise":
        where = f"material.{name}"
        background = _finite(_require(spec, "background", where), f"{where}.background")
        regions = _require(spec, "regions", where)
        boxes = []
        for region in regions:
            bounds = _require(region, "bounds", f"{where} region")
            box = _finite_array(bounds, f"{where} region bounds")
            if box.shape != (grid.dimension, 2):
                raise ScenarioError(
                    f"{where} region bounds must be {grid.dimension} [lo, hi] pairs"
                )
            value = _finite(_require(region, "value", f"{where} region"), f"{where} region value")
            boxes.append((box, value))
        return PiecewiseCoefficient(background=background, regions=tuple(boxes))
    if kind == "file":
        if grid.dimension != 1:
            raise ScenarioError(f"material.{name}: tabulated coefficients are 1D only")
        p = base / _require(spec, "path", f"material.{name}")
        times, values = read_source_csv(p)  # same two-column layout, x instead of t
        if times.size < 2:
            raise ScenarioError(f"{p}: a tabulated coefficient needs at least 2 samples")
        return TabulatedCoefficient(x=times, values=values)
    raise ScenarioError(f"material.{name}: unknown kind {kind!r}")


def _parse_material(raw: dict, grid: StaggeredGrid, base: Path) -> MaterialModel:
    spec = _require(raw, "material", "scenario")
    family = _require(spec, "family", "material")
    if family == "acoustic":
        rho = _coefficient(_require(spec, "rho", "material"), grid, base, "rho")
        c = _coefficient(_require(spec, "c", "material"), grid, base, "c")
        return MaterialModel.acoustic(grid, rho=rho, c=c)
    if family == "maxwell1d":
        eps = _coefficient(_require(spec, "eps", "material"), grid, base, "eps")
        mu = _coefficient(_require(spec, "mu", "material"), grid, base, "mu")
        return MaterialModel.maxwell1d(grid, eps=eps, mu=mu)
    raise ScenarioError(f"material: unknown family {family!r}")


def _parse_boundaries(raw: dict, grid: StaggeredGrid, pair: OperatorPair, base: Path):
    """Natural walls cost nothing; Dirichlet walls pin scalar unknowns.

    All pinned sides are merged into one constraint set. A corner node
    claimed by two sides is fine while both are homogeneous; two data
    series on one node have no single value, so that is refused.
    """
    spec = raw.get("boundaries", {})
    sides = [side for names in WALLS[: grid.dimension] for side in names]
    extra = set(spec) - set(sides)
    if extra:
        raise ScenarioError(f"boundaries: unknown side(s) {sorted(extra)}")

    pinned: dict[int, bool] = {}  # node -> pinned by a driven side
    driven = []  # (nodes, times, values) per driven side
    for side in sides:
        entry = spec.get(side, "natural")
        if entry in ("natural", "neumann"):
            # the staggered operators already impose a vanishing
            # perpendicular flux on every wall, so nothing to pin
            continue
        if entry == "dirichlet":
            entry = {"kind": "dirichlet"}
        if not isinstance(entry, dict) or entry.get("kind") != "dirichlet":
            raise ScenarioError(
                f"boundaries.{side}: expected 'natural'/'neumann', 'dirichlet', "
                "or a dirichlet object"
            )
        data = entry.get("data")
        series = None
        if data is not None:
            if "path" in data:
                times, values = read_source_csv(base / data["path"])
            else:
                times = np.asarray(_require(data, "times", f"boundaries.{side}.data"), dtype=np.float64)
                values = np.asarray(_require(data, "values", f"boundaries.{side}.data"), dtype=np.float64)
                if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))
                        and times.shape == values.shape and np.all(np.diff(times) > 0)):
                    raise ScenarioError(
                        f"boundaries.{side}.data: times and values must be finite numbers, "
                        "one value per strictly increasing time"
                    )
            series = (times, values)
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

    if not pinned:
        return pair

    indices = np.asarray(sorted(pinned), dtype=np.int64)
    if not driven:
        constraints = dirichlet_constraints(grid, indices)
    else:
        t_grid = np.unique(np.concatenate([t for _, t, _ in driven]))
        if t_grid.size < 2:
            raise ScenarioError("boundaries: boundary data needs at least 2 samples")
        b_values = np.zeros((t_grid.size, indices.size))
        # a driven side shares no node with another side, so its columns are its own
        for nodes, times, values in driven:
            b_values[:, np.searchsorted(indices, nodes)] = np.interp(t_grid, times, values)[:, None]
        constraints = dirichlet_constraints(grid, indices, b_times=t_grid, b_values=b_values)
    return reduce_system(pair, constraints)


def _parse_initial(raw: dict, grid, pair, system, base: Path) -> np.ndarray:
    spec = raw.get("initial", {"kind": "zero"})
    kind = _require(spec, "kind", "initial")
    if kind == "zero":
        return np.zeros(system.A.shape[0])
    if kind == "scalar_gaussian":
        center = _finite_array(_require(spec, "center", "initial"), "initial.center")
        if center.shape != (grid.dimension,):
            raise ScenarioError("initial.center must match the grid dimension")
        sigma = _positive(_require(spec, "sigma", "initial"), "initial.sigma")
        spread = _gaussian_spread(sigma, "initial.sigma")
        amplitude = _finite(spec.get("amplitude", 1.0), "initial.amplitude")
        w = np.zeros(pair.n_total)
        r2 = np.sum((grid.scalar_coords - center[None, :]) ** 2, axis=1)
        w[: grid.n_scalar] = amplitude * np.exp(-r2 / spread)
        return system.restrict(w)
    if kind == "file":
        w = read_initial_csv(base / _require(spec, "path", "initial"), pair.n_total)
        return system.restrict(w)
    raise ScenarioError(f"initial: unknown kind {kind!r}")


def _parse_time_function(spec: dict, base: Path, where: str) -> SourceTimeFunction:
    """A pulse or a sample table; a pulse float64 cannot sample is refused naming its keys."""
    def finite(key):
        return _finite(_require(spec, key, where), f"{where}.{key}")

    def positive(key):
        return _positive(_require(spec, key, where), f"{where}.{key}")

    kind = _require(spec, "kind", where)
    amplitude = _finite(spec.get("amplitude", 1.0), f"{where}.amplitude")
    if kind == "gaussian":
        center, sigma = finite("center"), positive("sigma")
        _gaussian_spread(sigma, f"{where}.sigma")
        keys, make = ("center", "sigma"), partial(gaussian_pulse, center=center, sigma=sigma)
    elif kind == "ricker":
        peak = positive("peak_frequency")
        if _square(np.pi * peak) == np.inf:
            raise ScenarioError(f"{where}.peak_frequency: (pi * {peak!r})**2 is not finite")
        delay = spec.get("delay")
        keys = ("peak_frequency", "delay")
        make = partial(
            ricker_wavelet, peak_frequency=peak, delay=None if delay is None else finite("delay")
        )
    elif kind == "windowed_sine":
        frequency = positive("frequency")
        if 2.0 * np.pi * frequency == np.inf:
            raise ScenarioError(f"{where}.frequency: 2 * pi * {frequency!r} is not finite")
        keys = ("frequency", "t_start", "duration")
        make = partial(
            windowed_sine, frequency=frequency, t_start=finite("t_start"),
            duration=positive("duration"),
        )
    elif kind == "file":
        times, values = read_source_csv(base / _require(spec, "path", where))
        return time_function_from_samples(times, values)
    else:
        raise ScenarioError(f"{where}: unknown kind {kind!r}")
    try:
        return make(amplitude=amplitude)
    except SourceError as exc:
        named = ", ".join(f"{where}.{key}" for key in keys)
        raise ScenarioError(f"{named}: the pulse cannot be sampled in float64: {exc}") from None


def _parse_sources(raw: dict, grid, system, base: Path) -> tuple[SourceSpec, ...]:
    out = []
    for k, spec in enumerate(raw.get("sources", [])):
        where = f"sources[{k}]"
        location = tuple(_integer(i, f"{where}.location") for i in _require(spec, "location", where))
        polarization = tuple(
            _finite(v, f"{where}.polarization") for v in _require(spec, "polarization", where)
        )
        f = _parse_time_function(
            _require(spec, "time_function", where), base, f"{where}.time_function"
        )
        source = PointSource(location=location, polarization=polarization, time_function=f)
        chi = system.restrict(chi_pattern(source, grid))
        decompose = spec.get("decompose")
        if decompose is not None:
            decompose = _parse_decompose(decompose, f"{where}.decompose")
        out.append(SourceSpec(source=source, chi=chi, decompose=decompose))
    return tuple(out)


def _parse_decompose(spec: dict, where: str) -> dict:
    """The greens_decompose parameters, refused here rather than midway through presim."""
    parsed = {k: _positive(_require(spec, k, where), f"{where}.{k}") for k in ("radius", "c", "rho")}
    bad = set(spec) - {*parsed, "mode", "steepness"}
    if bad:
        raise ScenarioError(f"{where} has unknown keys {sorted(bad)}")
    steepness = spec.get("steepness")
    parsed["steepness"] = None if steepness is None else _positive(steepness, f"{where}.steepness")
    parsed["mode"] = mode = spec.get("mode")
    if mode not in (None, "dalembert", "discrete"):
        raise ScenarioError(f"{where}.mode must be 'dalembert' or 'discrete', got {mode!r}")
    return parsed


def _parse_evolution(raw: dict):
    spec = raw.get("evolution")
    if spec is None:
        return 0.0, None, None, 1
    t_start = _finite(spec.get("t_start", 0.0), "evolution.t_start")
    t_final = _finite(_require(spec, "t_final", "evolution"), "evolution.t_final")
    if not t_final > t_start:
        raise ScenarioError("evolution: t_final must exceed t_start")
    dt = spec.get("dt")
    if dt is not None:
        dt = _finite(dt, "evolution.dt")
        if dt <= 0:
            raise ScenarioError("evolution: dt must be positive")
    record_every = _integer(spec.get("record_every", 1), "evolution.record_every")
    if record_every < 1:
        raise ScenarioError("evolution: record_every must be >= 1")
    return t_start, t_final, dt, record_every


def _parse_measurements(raw: dict, grid, system) -> tuple[MeasurementRequest, ...]:
    n_sys = system.A.shape[0]
    out = []
    seen = set()
    for k, spec in enumerate(raw.get("measurements", [])):
        where = f"measurements[{k}]"
        name = _require(spec, "name", where)
        if not isinstance(name, str) or not name or any(ch in name for ch in "/\\ "):
            raise ScenarioError(f"{where}: name must be a nonempty token without spaces or slashes")
        if name in seen:
            raise ScenarioError(f"{where}: duplicate measurement name {name!r}")
        seen.add(name)
        sub = _require(spec, "subspace", where)
        kind = _require(sub, "kind", f"{where}.subspace")
        mask = np.zeros(n_sys, dtype=bool)
        if kind == "dof_range":
            start = _integer(_require(sub, "start", f"{where}.subspace"), f"{where}.subspace.start")
            stop = _integer(_require(sub, "stop", f"{where}.subspace"), f"{where}.subspace.stop")
            if not (0 <= start < stop <= n_sys):
                raise ScenarioError(
                    f"{where}.subspace: need 0 <= start < stop <= {n_sys}"
                )
            mask[start:stop] = True
            desc = f"unknowns [{start}, {stop})"
        elif kind == "scalar_region":
            bounds = _require(sub, "bounds", f"{where}.subspace")
            box = _finite_array(bounds, f"{where}.subspace.bounds")
            if box.shape != (grid.dimension, 2):
                raise ScenarioError(
                    f"{where}.subspace: bounds must be {grid.dimension} [lo, hi] pairs"
                )
            inside = np.all(
                (grid.scalar_coords >= box[:, 0]) & (grid.scalar_coords <= box[:, 1]),
                axis=1,
            )
            full = np.zeros(grid.n_scalar + sum(grid.n_flux), dtype=bool)
            full[: grid.n_scalar] = inside
            mask = system.restrict(full)
            desc = f"scalar nodes in {box.tolist()}"
        elif kind == "indices":
            listed = _require(sub, "indices", f"{where}.subspace")
            idx = np.asarray([_integer(i, f"{where}.subspace.indices") for i in listed], dtype=np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= n_sys):
                raise ScenarioError(f"{where}.subspace: index out of range (n={n_sys})")
            mask[idx] = True
            desc = f"{idx.size} listed unknowns"
        else:
            raise ScenarioError(f"{where}.subspace: unknown kind {kind!r}")
        out.append(MeasurementRequest(name=name, projector=SubspaceProjector(mask=mask), description=desc))
    return tuple(out)


def _parse_estimator(raw: dict, seed_override, shots_override) -> EstimatorConfig:
    spec = dict(raw.get("estimator", {}))
    bad = set(spec) - {"mode", "shots", "seed"}
    if bad:
        raise ScenarioError(f"estimator has unknown keys {sorted(bad)}")
    mode = spec.get("mode", "exact")
    shots = _integer(spec.get("shots", 10000), "estimator.shots")
    seed = spec.get("seed")
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


def _parse_initcircuit(raw: dict, base: Path) -> InitCircuitSpec | None:
    spec = raw.get("initcircuit")
    if spec is None:
        return None
    bad = set(spec) - {"radial_divisions", "extent", "center", "profile"}
    if bad:
        raise ScenarioError(f"initcircuit has unknown keys {sorted(bad)}")
    divisions = _require(spec, "radial_divisions", "initcircuit")
    divisions = _integer(divisions, "initcircuit.radial_divisions")
    extent = _finite(_require(spec, "extent", "initcircuit"), "initcircuit.extent")
    center = tuple(_finite(v, "initcircuit.center") for v in spec.get("center", (0.0, 0.0)))
    if len(center) != 2:
        raise ScenarioError(f"initcircuit.center must be two finite numbers, got {list(center)}")
    polar = PolarGridSpec.uniform(divisions, extent, center=center)

    profile = _require(spec, "profile", "initcircuit")
    kind = _require(profile, "kind", "initcircuit.profile")
    if kind == "gaussian_ring":
        where = "initcircuit.profile"
        r0 = _finite(_require(profile, "radius", where), f"{where}.radius")
        if _square(abs(r0) + extent) == np.inf:
            raise ScenarioError(
                f"{where}.radius: ({abs(r0)!r} + extent {extent!r})**2 is not finite"
            )
        width = _positive(_require(profile, "width", where), f"{where}.width")
        spread = _gaussian_spread(width, f"{where}.width")
        amplitude = _finite(profile.get("amplitude", 1.0), f"{where}.amplitude")

        def magnitude(r: np.ndarray) -> np.ndarray:
            return amplitude * np.exp(-_square(r - r0) / spread)

        desc = f"gaussian_ring(radius={r0}, width={width})"
    elif kind == "file":
        p = base / _require(profile, "path", "initcircuit.profile")
        radii, values = read_source_csv(p)

        def magnitude(r: np.ndarray) -> np.ndarray:
            return np.interp(r, radii, values)

        desc = f"file({p.name})"
    else:
        raise ScenarioError(f"initcircuit.profile: unknown kind {kind!r}")

    return InitCircuitSpec(spec=polar, field=RadialField(center, magnitude), profile=desc)
