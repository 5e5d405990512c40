"""Command-line front door: scenario-driven batch runs.

Subcommands:
    simulate     integrate a scenario and write snapshots, energies, the
                 final encoded state, measurement results, and a manifest
    measure      apply a scenario's measurement requests to a stored state
    presim       convert each scenario source into compact initial data
                 (whole-pulse pre-simulation or windowed slicing)
    initcircuit  emit the preparation circuit for a covariant field and a
                 fidelity report against brute-force construction
    verify       run a named property suite and print a tolerance table

Exit codes: 0 success, 1 validation failure (bad scenario, bad usage),
2 numerical failure (a computation or verify check did not meet its
tolerance). Nothing is written unless the requested computation finished,
so a run refused for its inputs or for a numerical failure leaves no
output files; an I/O failure partway through the writes can still leave
some. Outputs are deterministic:
rerunning with the same scenario and seeds reproduces every file byte for
byte. The default output directory comes from --out, then the scenario,
then the QWAVESIM_OUTPUT_DIR environment variable.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import checks, io
from .encoding import build_hamiltonian, encode
from .errors import NumericalError, ScenarioError, ValidationError
from .initcircuit import (
    build_circuit,
    covariance_defect,
    direct_polar_state,
    fidelity,
    sample_reference_ray,
    simulate_circuit,
)
from .measurement import estimate
from .reference import cfl_limit, leapfrog_evolve
from .scenario import Scenario, load_scenario
from .sources import greens_decompose, presimulate_pulse

_DEFAULT_OUT = "qwavesim-output"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"qwavesim: validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"qwavesim: numerical failure: {exc}", file=sys.stderr)
        return 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation failures
        self.print_usage(sys.stderr)
        print(f"qwavesim: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qwavesim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_command(name, run, help_text, estimates=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", help="output directory (overrides the scenario)")
        if estimates:
            p.add_argument("--seed", type=int, help="estimator seed override")
            p.add_argument("--shots", type=int, help="shot count override (switches to shot mode)")
        p.set_defaults(handler=lambda args: _write_outputs(name, *run(args)))
        return p

    scenario_command("simulate", _run_simulate, "integrate a scenario end to end", True)
    p_measure = scenario_command(
        "measure", _run_measure, "measure a stored state with a scenario's requests", True
    )
    p_measure.add_argument("--state", required=True, help="state CSV (and sidecar) from simulate")
    scenario_command("presim", _run_presim, "pre-simulate or slice the scenario sources")
    scenario_command("initcircuit", _run_initcircuit, "build the covariant preparation circuit")

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument(
        "suite", choices=sorted(checks.SUITES), help="which property suite to run"
    )
    p_verify.set_defaults(handler=_run_verify)
    return parser


def _load(args) -> Scenario:
    """The scenario of args; presim and initcircuit have no estimator flags to override."""
    return load_scenario(
        args.scenario,
        out_override=args.out,
        seed_override=getattr(args, "seed", None),
        shots_override=getattr(args, "shots", None),
    )


def _write_outputs(command: str, scenario: Scenario, files: list) -> int:
    """Create the output directory, write each (name, io.write_*, data...) file, print the count.

    A command computes all of its results before it returns its files, so a
    run that fails computing writes nothing.
    """
    out = Path(scenario.output_dir or os.environ.get("QWAVESIM_OUTPUT_DIR") or _DEFAULT_OUT)
    out.mkdir(parents=True, exist_ok=True)
    written = 0
    for name, write, *data in files:
        written += write(out / name, *data)
    print(f"{command}: wrote {written} files to {out}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def _run_simulate(args) -> tuple[Scenario, list]:
    scenario = _load(args)
    if scenario.t_final is None:
        raise ScenarioError(f"{scenario.path}: simulate needs an 'evolution' section")
    system = scenario.system
    dt = scenario.dt
    # the walls' data, then the point sources: the order the leapfrog sums them in
    forcings = (getattr(system, "induced", None), scenario.external_forcing())

    traj = leapfrog_evolve(
        system,
        scenario.initial,
        dt,
        scenario.t_final,
        forcings=[f for f in forcings if f is not None],
        record_every=scenario.record_every,
        t_start=scenario.t_start,
    )
    state = encode(traj.final, system)
    ham = build_hamiltonian(system)
    measurements = _measurement_files(scenario, state)
    manifest = _manifest(scenario, ham, dt, traj)
    return scenario, [
        ("snapshots.csv", io.write_field_csv, traj.times, traj.fields),
        ("energy.csv", io.write_energy_csv, traj.times, traj.energy),
        ("state.csv", io.write_state, state),
        *measurements,
        ("manifest.json", io.write_json, manifest),
    ]


def _manifest(scenario: Scenario, ham, dt: float, traj) -> dict:
    system = scenario.system
    n_sys = scenario.n_unknowns
    t_span = float(traj.times[-1]) - scenario.t_start
    steps = int(round(t_span / dt))
    maxnorm = ham.maxnorm
    qubits = ham.n_qubits
    return {
        "scenario": Path(scenario.path).name,
        "grid": {
            "bounds": [list(b) for b in scenario.grid.bounds],
            "shape": list(scenario.grid.shape),
            "spacing": list(scenario.grid.spacing),
        },
        "material_family": scenario.material.family,
        "unknowns": {
            "assembled": scenario.pair.n_total,
            "simulated": n_sys,
            "pinned": scenario.pair.n_total - n_sys,
        },
        "hamiltonian": {
            "maxnorm": maxnorm,
            "sparsity": ham.sparsity,
            "dimension": ham.dim,
            "qubits": qubits,
        },
        "evolution": {
            "t_start": scenario.t_start,
            "t_final": float(traj.times[-1]),
            "dt": dt,
            "steps": steps,
            "cfl_limit": cfl_limit(system),
            "record_every": scenario.record_every,
            "snapshots": len(traj.times),
        },
        "sources": [
            {
                "location": list(s.source.location),
                "polarization": list(s.source.polarization),
                "kind": s.source.time_function.kind,
            }
            for s in scenario.sources
        ],
        "measurements": [req.name for req in scenario.measurements],
        "estimator": {
            "mode": scenario.estimator.mode,
            "shots": scenario.estimator.shots,
            "seed": scenario.estimator.seed,
        },
        "scaling": {
            "classical_cell_updates": steps * n_sys,
            "quantum_query_proxy": maxnorm * t_span * ham.sparsity * qubits,
            "note": (
                "the stability bound ties the classical step count to the grid "
                "spacing, so 1D classical work grows with the square of the "
                "resolution while the Hamiltonian query proxy grows near "
                "linearly with it"
            ),
        },
    }


# ---------------------------------------------------------------------------
# measure


def _measurement_files(scenario: Scenario, state) -> list:
    """Estimate every measurement request now; return their JSON files."""
    return [
        (
            f"measurement_{req.name}.json",
            io.write_measurement_json,
            estimate(state, req.projector, config=scenario.estimator),
            {"name": req.name, "subspace": req.description},
        )
        for req in scenario.measurements
    ]


def _run_measure(args) -> tuple[Scenario, list]:
    scenario = _load(args)
    state = io.read_state(args.state)
    if state.layout.num_physical != scenario.n_unknowns:
        raise ScenarioError(
            f"{args.state}: state holds {state.layout.num_physical} physical "
            f"unknowns but the scenario simulates {scenario.n_unknowns}"
        )
    if not scenario.measurements:
        raise ScenarioError(f"{scenario.path}: no measurements requested")
    return scenario, _measurement_files(scenario, state)


# ---------------------------------------------------------------------------
# presim


def _run_presim(args) -> tuple[Scenario, list]:
    scenario = _load(args)
    if not scenario.sources:
        raise ScenarioError(f"{scenario.path}: no sources to pre-simulate")
    system = scenario.system

    entries = []
    files = []
    for k, spec in enumerate(scenario.sources):
        if spec.decompose is not None:
            dec = spec.decompose
            slices = greens_decompose(spec.source, dec["c"], dec["rho"], dec["radius"], system)
            basis = build_hamiltonian(system).basis  # the memoized H the slices were solved with
        else:
            slices = [presimulate_pulse(spec.source, system, dt=scenario.dt)]
            basis = None  # leapfrog, in no basis
        parts = []
        for j, result in enumerate(slices):
            name = f"presim{k}_slice{j}.csv"
            files.append((name, io.write_field_csv, [result.t_end], [result.field]))
            parts.append(
                {
                    "file": name,
                    "t_end": result.t_end,
                    "support_radius": result.support_radius,
                    "nonzero_count": result.nonzero_count,
                }
            )
        entries.append(
            {
                "source": k,
                "mode": "decompose" if spec.decompose is not None else "presimulate",
                "basis": basis,
                "slices": parts,
            }
        )

    return scenario, [*files, ("presim.json", io.write_json, {"sources": entries})]


# ---------------------------------------------------------------------------
# initcircuit


def _run_initcircuit(args) -> tuple[Scenario, list]:
    scenario = _load(args)
    if scenario.initcircuit is None:
        raise ScenarioError(f"{scenario.path}: no 'initcircuit' section")
    polar = scenario.initcircuit.spec
    field = scenario.initcircuit.field

    ray = sample_reference_ray(field, polar)
    circuit = build_circuit(polar)
    prepared = simulate_circuit(circuit, ray)
    direct, direct_evals = direct_polar_state(field, polar)
    report = {
        "profile": scenario.initcircuit.profile,
        "radial_divisions": polar.radial_divisions,
        "angular_divisions": polar.angular_divisions,
        "fidelity": fidelity(prepared, direct),
        "ray_evaluations": ray.eval_count,
        "direct_evaluations": direct_evals,
        "scale": prepared.scale,
        "min_rotation_angle": circuit.min_rotation_angle,
        "covariance_defect": covariance_defect(field, polar),
    }

    return scenario, [
        ("circuit.json", io.write_circuit_json, circuit),
        ("initcircuit_report.json", io.write_json, report),
    ]


# ---------------------------------------------------------------------------
# verify


def _run_verify(args) -> int:
    rows = [row for check in checks.SUITES[args.suite] for row in check()]
    failed = 0
    print(f"suite {args.suite}: {len(rows)} checks")
    for name, value, tol in rows:
        ok = value <= tol
        failed += 0 if ok else 1
        print(f"  {name:<48} {value:12.4e}  tol {tol:9.3e}  {'PASS' if ok else 'FAIL'}")
    if failed:
        raise NumericalError(f"suite {args.suite}: {failed} of {len(rows)} checks failed")
    print(f"suite {args.suite}: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
