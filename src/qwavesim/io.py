"""External file formats: CSV tables and JSON records.

Every writer formats floats with shortest round-trip repr and emits keys in
sorted order, so a rerun with the same inputs produces byte-identical files.

Formats (one line each, documented fully in the README):
  state              index,real,imag  (+ .json sidecar: scale and layout)
  trajectory         time,dof,value   (long form)
  energy             time,energy
  source samples     time,value       (read only)
  measurement        JSON {value, stderr, shots, mode, strings}
  circuit            JSON {register, gates, min_rotation_angle}
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .encoding import QuantumRegisterState, StateLayout
from .errors import ScenarioError
from .initcircuit import GateCircuit
from .measurement import EstimateResult


def fmt(x: float) -> str:
    return repr(float(x))


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path):
    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"missing file: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed JSON in {p}: {exc}") from exc


# ---------------------------------------------------------------------------
# states


def write_state(path, state: QuantumRegisterState) -> None:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "real", "imag"])
        for i, amp in enumerate(state.amplitudes):
            writer.writerow([i, fmt(amp.real), fmt(amp.imag)])
    sidecar = {
        "scale": state.scale,
        "layout": {
            "num_physical": state.layout.num_physical,
            "block_dim": state.layout.block_dim,
            "arity": state.layout.arity,
            "augmented": state.layout.augmented,
        },
    }
    write_json(str(path) + ".json", sidecar)


def read_state(path) -> QuantumRegisterState:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"missing file: {path}")
    sidecar = read_json(str(path) + ".json")
    try:
        layout = StateLayout(
            num_physical=int(sidecar["layout"]["num_physical"]),
            block_dim=int(sidecar["layout"]["block_dim"]),
            arity=int(sidecar["layout"]["arity"]),
            augmented=bool(sidecar["layout"]["augmented"]),
        )
        scale = float(sidecar["scale"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: bad state sidecar: {exc}") from exc
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    if not path.exists():
        raise ScenarioError(f"missing file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["index", "real", "imag"]:
            raise ScenarioError(f"{path}: expected header index,real,imag")
        for line in reader:
            amps[int(line[0])] = float(line[1]) + 1j * float(line[2])
    return QuantumRegisterState(amplitudes=amps, scale=scale, layout=layout)


# ---------------------------------------------------------------------------
# time series


def write_field_csv(path, times, fields) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "dof", "value"])
        for t, row in zip(times, fields):
            for k, v in enumerate(row):
                writer.writerow([fmt(t), k, fmt(v)])


def write_energy_csv(path, times, energy) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "energy"])
        for t, e in zip(times, energy):
            writer.writerow([fmt(t), fmt(e)])


def read_source_csv(path) -> tuple[np.ndarray, np.ndarray]:
    times, values = [], []
    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"missing file: {p}")
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["time", "value"]:
            raise ScenarioError(f"{p}: expected header time,value")
        for line in reader:
            times.append(float(line[0]))
            values.append(float(line[1]))
    return np.asarray(times), np.asarray(values)


# ---------------------------------------------------------------------------
# measurement and circuits


def measurement_dict(result: EstimateResult) -> dict:
    return {
        "value": result.value,
        "stderr": result.stderr,
        "shots": result.shots,
        "mode": result.mode,
        "strings": [
            {
                "letters": s.letters,
                "coefficient": s.coeff,
                "expectation": e,
            }
            for s, e in zip(result.observable.strings, result.string_expectations)
        ],
    }


def write_measurement_json(path, result: EstimateResult, extra: dict | None = None) -> None:
    payload = measurement_dict(result)
    if extra:
        payload.update(extra)
    write_json(path, payload)


def circuit_dict(circuit: GateCircuit) -> dict:
    return {
        "register": {
            "component_qubits": circuit.n_component_qubits,
            "radial_qubits": circuit.n_radial_qubits,
            "angular_qubits": circuit.n_angular_qubits,
        },
        "n_qubits": circuit.n_qubits,
        "min_rotation_angle": circuit.min_rotation_angle,
        "gates": [
            {
                "kind": g.kind,
                "qubits": list(g.qubits),
                "angle": g.angle,
            }
            for g in circuit.gates
        ],
    }


def write_circuit_json(path, circuit: GateCircuit, extra: dict | None = None) -> None:
    payload = circuit_dict(circuit)
    if extra:
        payload.update(extra)
    write_json(path, payload)
