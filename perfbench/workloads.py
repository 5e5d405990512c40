"""Seeded inputs, the measured work, and the correctness check of each workload.

A workload has four parts:

    generate(rng, work, size) -> spec
        writes the program's input files under ``work`` and returns a
        JSON-serializable spec of everything run and check need;
    run(q, spec, out) -> result
        the measured work; ``q`` is the imported ``qwavesim`` package and
        ``out`` an empty output directory;
    reference(q, spec) -> reference
        an oracle computed once per process, outside any timing;
    check(spec, out, result, reference)
        raises CheckFailed when an output is wrong.

The generator uses numpy only; it recomputes grid coordinates itself, with
the same arithmetic as ``build_grid``, so region masks in the checks do not
come from the code under test. The seed picks positions, pulse timing,
masks and amplitudes. Grid size, slice count, shot count and register
dimension depend on ``size`` alone, so every seed costs the same.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Workload:
    why: str
    generate: Callable
    run: Callable
    check: Callable
    reference: Callable = lambda q, spec: None


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"unreadable output {Path(path).name}: {exc}") from exc


def _axis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Node and midpoint coordinates of one axis of [0, 1], as build_grid makes them."""
    dx = (1.0 - 0.0) / (n - 1)
    nodes = 0.0 + dx * np.arange(n)
    return nodes, nodes[:-1] + dx / 2


def _mesh(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    X, Y = np.meshgrid(xs, ys, indexing="xy")  # x fastest
    return np.column_stack([X.ravel(), Y.ravel()])


def _unknown_coords(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(scalar node coordinates, coordinates of every unknown) of an n x n grid."""
    nodes, mids = _axis(n)
    scalar = _mesh(nodes, nodes)
    return scalar, np.concatenate([scalar, _mesh(mids, nodes), _mesh(nodes, mids)])


def _in_box(coords: np.ndarray, box) -> np.ndarray:
    box = np.asarray(box, dtype=np.float64)
    return np.all((coords >= box[:, 0]) & (coords <= box[:, 1]), axis=1)


def _random_box(rng, lo: float, hi: float, min_width: float, max_width: float) -> list:
    box = []
    for _ in range(2):
        width = rng.uniform(min_width, max_width)
        start = rng.uniform(lo, hi - width)
        box.append([float(start), float(start + width)])
    return box


def _inclusion(rng) -> dict:
    return {
        "kind": "piecewise",
        "background": 1.0,
        "regions": [{"bounds": _random_box(rng, 0.3, 0.8, 0.15, 0.25), "value": 2.0}],
    }


def _read_amplitudes(path: Path, dim: int) -> np.ndarray:
    amps = np.zeros(dim, dtype=np.complex128)
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"unreadable {path.name}: {exc}") from exc
    amps[data[:, 0].astype(np.int64)] = data[:, 1] + 1j * data[:, 2]
    return amps


def _cli(q, *argv) -> None:
    code = q.cli.main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"qwavesim {argv[0]} exited with {code}")


# ---------------------------------------------------------------------------
# simulate_2d_driven: the classical path through `qwavesim simulate`

SIMULATE = {
    "full": {"nodes": 128, "t_final": 0.5, "record_every": 50},
    "tiny": {"nodes": 16, "t_final": 0.1, "record_every": 10},
}


def _generate_simulate(rng, work: Path, size: str) -> dict:
    p = SIMULATE[size]
    n, t_final = p["nodes"], p["t_final"]
    drive_center = t_final * rng.uniform(0.1, 0.4)
    drive_times = np.linspace(0.0, t_final, 11)
    drive_values = rng.uniform(0.5, 1.5) * np.exp(
        -(((drive_times - drive_center) / (0.1 * t_final)) ** 2)
    )
    scenario = {
        "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [n, n]},
        "material": {"family": "acoustic", "rho": _inclusion(rng), "c": 1.0},
        "boundaries": {
            "left": {
                "kind": "dirichlet",
                "data": {"times": drive_times.tolist(), "values": drive_values.tolist()},
            },
            "right": "dirichlet",
        },
        "initial": {"kind": "zero"},
        "sources": [
            {
                "location": [int(i) for i in rng.integers(n // 4, 3 * n // 4, size=2)],
                "polarization": [1.0, 0.0, 0.0],
                "time_function": {
                    "kind": "ricker",
                    "peak_frequency": 5.0 / t_final,
                    "delay": t_final * rng.uniform(0.4, 0.6),
                    "amplitude": rng.uniform(0.5, 1.5),
                },
            }
        ],
        "evolution": {"t_final": t_final, "dt": None, "record_every": p["record_every"]},
        "measurements": [
            {"name": f"region{k}",
             "subspace": {"kind": "scalar_region", "bounds": _random_box(rng, 0.1, 0.9, 0.2, 0.4)}}
            for k in range(2)
        ],
        "estimator": {"mode": "exact"},
    }
    _write_json(work / "scenario.json", scenario)
    return {"scenario": str(work / "scenario.json"), "nodes": n,
            "measurements": scenario["measurements"]}


def _run_simulate(q, spec: dict, out: Path):
    _cli(q, "simulate", "--scenario", spec["scenario"], "--out", out)


def _check_simulate(spec: dict, out: Path, result, reference) -> None:
    """Each measurement equals scale^2 |P a|^2 of the written final state.

    P selects the scalar nodes inside the region that the Dirichlet walls
    (x = 0 and x = 1) leave free; the contraction is done here, densely.
    The estimator's rounding error is of order 1e-16 scale^2, so the
    absolute allowance of 1e-12 scale^2 is wide.
    """
    n = spec["nodes"]
    scalar, everything = _unknown_coords(n)
    pinned = np.zeros(everything.shape[0], dtype=bool)
    column = np.arange(n * n) % n  # x index of each scalar node
    pinned[: n * n] = (column == 0) | (column == n - 1)
    for name in ("snapshots.csv", "energy.csv", "manifest.json"):
        if not (out / name).is_file():
            raise CheckFailed(f"{name} was not written")
    sidecar = _read_json(out / "state.csv.json")
    layout = sidecar["layout"]
    if layout["num_physical"] != int(np.count_nonzero(~pinned)):
        raise CheckFailed(f"state holds {layout['num_physical']} unknowns")
    amps = _read_amplitudes(out / "state.csv", layout["block_dim"] * layout["arity"])
    scale_sq = float(sidecar["scale"]) ** 2
    for request in spec["measurements"]:
        full = np.zeros(everything.shape[0], dtype=bool)
        full[: n * n] = _in_box(scalar, request["subspace"]["bounds"])
        mask = full[~pinned]
        direct = scale_sq * float(np.sum(np.abs(amps[: mask.size][mask]) ** 2))
        got = _read_json(out / f"measurement_{request['name']}.json")
        if got.get("mode") != "exact":
            raise CheckFailed(f"{request['name']}: mode {got.get('mode')!r}")
        value = float(got["value"])
        if not abs(value - direct) <= 1e-12 * scale_sq + 1e-9 * abs(direct):
            raise CheckFailed(f"{request['name']}: estimate {value!r} != dense {direct!r}")


# ---------------------------------------------------------------------------
# register_sliced_1d: the paper's register path through the public API

REGISTER = {"full": {"nodes": 512}, "tiny": {"nodes": 128}}
REGISTER_T_FINAL = 0.55
REGISTER_RADIUS = 0.45
REGISTER_TOLERANCE = 1e-6  # relative; the `qwavesim verify sources` tolerance


def _generate_register(rng, work: Path, size: str) -> dict:
    n = REGISTER[size]["nodes"]
    # the homogeneous ball of radius 0.45 must stay inside [0, 1]
    first = int(np.ceil(REGISTER_RADIUS * (n - 1)))
    last = int(np.floor((1.0 - REGISTER_RADIUS) * (n - 1)))
    # scalar nodes from one wall inward: at t_final the wave has reached the walls
    extent = int(rng.integers(n // 4, n // 2))
    return {
        "nodes": n,
        "location": int(rng.integers(first, last + 1)),
        # a center of at least 7 sigma keeps the pulse support, and so the
        # slice count, independent of the seed
        "center": float(rng.uniform(0.07, 0.1)),
        "sigma": 0.01,
        "amplitude": float(rng.uniform(0.5, 2.0)),
        "mask": [0, extent] if rng.integers(2) else [n - extent, n],
    }


def _register_problem(q, spec: dict):
    grid = q.build_grid([(0.0, 1.0)], [spec["nodes"]])
    pair = q.assemble_operator_pair(grid, q.MaterialModel.acoustic(grid, rho=1.0, c=1.0))
    stf = q.gaussian_pulse(center=spec["center"], sigma=spec["sigma"], amplitude=spec["amplitude"])
    source = q.PointSource(location=(spec["location"],), polarization=(1.0, 0.0), time_function=stf)
    mask = np.zeros(pair.n_total, dtype=bool)
    mask[slice(*spec["mask"])] = True
    return grid, pair, stf, source, mask


def _run_register(q, spec: dict, out: Path) -> float:
    _, pair, _, source, mask = _register_problem(q, spec)
    slices = q.greens_decompose(source, 1.0, 1.0, REGISTER_RADIUS, pair, mode="discrete")
    state, t_ends = q.assemble_multisource_state(slices, pair)
    ham = q.build_hamiltonian(pair)
    layout = state.layout
    t_sync = max(t_ends)
    sync = q.build_sync_hamiltonian(
        ham, t_ends, t_sync, block_dim=layout.block_dim, arity=layout.arity
    )
    synced = q.evolve(state, sync, 1.0)
    mult = q.build_mult_hamiltonian(ham, layout.arity, block_dim=layout.block_dim)
    settled = q.evolve(synced, mult, REGISTER_T_FINAL - t_sync)
    return q.estimate(settled, q.SubspaceProjector(mask=mask)).value


def _reference_register(q, spec: dict) -> float:
    """The loss of the monolithic forced solution, without slicing."""
    grid, pair, stf, source, mask = _register_problem(q, spec)
    mono = q.spectral_forced_solution(
        pair, q.chi_pattern(source, grid), stf, stf.t_start, REGISTER_T_FINAL
    )
    return float(np.linalg.norm((np.sqrt(pair.b_diagonal()) * mono)[mask]) ** 2)


def _check_register(spec: dict, out: Path, result: float, reference: float) -> None:
    gap = abs(result - reference) / abs(reference)
    if not gap <= REGISTER_TOLERANCE:
        raise CheckFailed(f"sliced loss {result!r} vs monolithic {reference!r}: gap {gap:.3e}")


# ---------------------------------------------------------------------------
# measure_stacked_shots: `qwavesim measure` on a stored arity-4 stack

MEASURE = {
    "full": {"nodes": 128, "shots": 1_000_000},
    "tiny": {"nodes": 16, "shots": 10_000},
}
MEASURE_ARITY = 4
MEASURE_SIGMAS = 5.0  # a shot estimate may miss the exact value by this many stderrs


def _smooth_field(rng, coords: np.ndarray) -> np.ndarray:
    """A sum of three seeded Gaussian bumps at the given coordinates."""
    field = np.zeros(coords.shape[0])
    for _ in range(3):
        center = rng.uniform(0.2, 0.8, size=2)
        width = rng.uniform(0.1, 0.3)
        r2 = np.sum((coords - center) ** 2, axis=1)
        field += rng.uniform(-1.0, 1.0) * np.exp(-r2 / (2.0 * width**2))
    return field


def _generate_measure(rng, work: Path, size: str) -> dict:
    p = MEASURE[size]
    n = p["nodes"]
    scalar, everything = _unknown_coords(n)
    n_phys = everything.shape[0]
    block = 1 << int(np.ceil(np.log2(n_phys)))
    blocks = np.zeros((MEASURE_ARITY, block))
    for s in range(MEASURE_ARITY):
        blocks[s, :n_phys] = _smooth_field(rng, everything)
    norm = float(np.linalg.norm(blocks))
    amplitudes = (blocks / norm).ravel()
    scale = float(rng.uniform(0.5, 2.0))

    lines = ["index,real,imag"]
    lines += [f"{i},{a!r},0.0" for i, a in enumerate(amplitudes.tolist())]
    (work / "state.csv").write_text("\n".join(lines) + "\n")
    layout = {"num_physical": n_phys, "block_dim": block, "arity": MEASURE_ARITY,
              "augmented": False}
    _write_json(work / "state.csv.json", {"scale": scale, "layout": layout})

    # eight tiles: three seeded cuts along x, one along y
    xcuts = [0.0, *np.sort(rng.uniform(0.15, 0.85, size=3)).tolist(), 1.0]
    ycut = float(rng.uniform(0.3, 0.7))
    tiles = [[[xcuts[i], xcuts[i + 1]], [y0, y1]]
             for y0, y1 in ((0.0, ycut), (ycut, 1.0)) for i in range(4)]
    stacked = blocks.reshape(MEASURE_ARITY, block)[:, : n * n].sum(axis=0) / norm
    exact = {
        f"tile{k}": scale**2 * float(np.sum(stacked[_in_box(scalar, tile)] ** 2))
        for k, tile in enumerate(tiles)
    }
    scenario = {
        "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [n, n]},
        "material": {"family": "acoustic", "rho": _inclusion(rng), "c": 1.0},
        "measurements": [
            {"name": f"tile{k}", "subspace": {"kind": "scalar_region", "bounds": tile}}
            for k, tile in enumerate(tiles)
        ],
        "estimator": {"mode": "shots", "shots": p["shots"], "seed": int(rng.integers(2**31))},
    }
    _write_json(work / "scenario.json", scenario)
    return {"scenario": str(work / "scenario.json"), "state": str(work / "state.csv"),
            "shots": p["shots"], "exact": exact}


def _run_measure(q, spec: dict, out: Path):
    _cli(q, "measure", "--scenario", spec["scenario"], "--state", spec["state"], "--out", out)


def _check_measure(spec: dict, out: Path, result, reference) -> None:
    for name, exact in spec["exact"].items():
        got = _read_json(out / f"measurement_{name}.json")
        value, stderr = float(got["value"]), float(got["stderr"])
        if got.get("mode") != "shots" or got.get("shots") != spec["shots"]:
            raise CheckFailed(f"{name}: mode {got.get('mode')!r}, shots {got.get('shots')!r}")
        if not (stderr > 0.0 and abs(value - exact) <= MEASURE_SIGMAS * stderr):
            raise CheckFailed(f"{name}: {value!r} is not within 5 stderr ({stderr!r}) of {exact!r}")


# ---------------------------------------------------------------------------
# initcircuit_polar: `qwavesim initcircuit` on a seeded ring

INITCIRCUIT = {"full": {"divisions": 256}, "tiny": {"divisions": 8}}
MAX_INFIDELITY = 1e-10
MAX_COVARIANCE_DEFECT = 1e-12


def _generate_initcircuit(rng, work: Path, size: str) -> dict:
    divisions = INITCIRCUIT[size]["divisions"]
    scenario = {
        "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [8, 8]},
        "material": {"family": "acoustic", "rho": 1.0, "c": 1.0},
        "initcircuit": {
            "radial_divisions": divisions,
            "extent": 1.0,
            "center": rng.uniform(-0.5, 0.5, size=2).tolist(),
            "profile": {
                "kind": "gaussian_ring",
                "radius": rng.uniform(0.3, 0.7),
                "width": rng.uniform(0.1, 0.2),
                "amplitude": rng.uniform(0.5, 2.0),
            },
        },
    }
    _write_json(work / "scenario.json", scenario)
    return {"scenario": str(work / "scenario.json"), "divisions": divisions}


def _run_initcircuit(q, spec: dict, out: Path):
    _cli(q, "initcircuit", "--scenario", spec["scenario"], "--out", out)


def _check_initcircuit(spec: dict, out: Path, result, reference) -> None:
    report = _read_json(out / "initcircuit_report.json")
    if not (out / "circuit.json").is_file():
        raise CheckFailed("circuit.json was not written")
    infidelity = 1.0 - float(report["fidelity"])
    if not infidelity <= MAX_INFIDELITY:
        raise CheckFailed(f"infidelity {infidelity!r} exceeds {MAX_INFIDELITY}")
    defect = float(report["covariance_defect"])
    if not defect <= MAX_COVARIANCE_DEFECT:
        raise CheckFailed(f"covariance defect {defect!r} exceeds {MAX_COVARIANCE_DEFECT}")
    a = spec["divisions"]
    if report["ray_evaluations"] != a or report["direct_evaluations"] != a * a:
        raise CheckFailed("evaluation budgets differ from one ray and one full grid")


WORKLOADS = {
    "simulate_2d_driven": Workload(
        why="the classical path: scenario parse, assembly, reduction, driven leapfrog and CSV writers",
        generate=_generate_simulate, run=_run_simulate, check=_check_simulate,
    ),
    "register_sliced_1d": Workload(
        why="the register path: sliced sources, sync and mult evolution, exact estimate; dense eigh dominates",
        generate=_generate_register, run=_run_register, check=_check_register,
        reference=_reference_register,
    ),
    "measure_stacked_shots": Workload(
        why="io as a reader and the shot sampler over a 2^19-amplitude augmented stack",
        generate=_generate_measure, run=_run_measure, check=_check_measure,
    ),
    "initcircuit_polar": Workload(
        why="the only caller of initcircuit: per-point field evaluation and the covariance check",
        generate=_generate_initcircuit, run=_run_initcircuit, check=_check_initcircuit,
    ),
}


def generate(name: str, seed: int, work: Path, size: str) -> dict:
    """Write the inputs of one workload for one seed and size; return its spec."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    spec = WORKLOADS[name].generate(rng, work, size)
    _write_json(work / "spec.json", spec)
    return spec
