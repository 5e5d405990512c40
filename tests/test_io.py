"""Byte layout of the CSV writers, against a csv.writer reference."""
import csv
import json

import numpy as np
import pytest

from qwavesim import io
from qwavesim.encoding import QuantumRegisterState, StateLayout

# signed zeros, the smallest subnormal, exponent and fixed forms, and non-finite values
SPECIAL = [-0.0, 0.0, 5e-324, 1e-5, 0.1, 1e16, 123456789.0, -2.5, float("inf"), float("nan")]


def _reference(path, header, rows):
    """What the writers produced row by row: csv.writer cells of repr(float(x))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, int) else repr(float(c)) for c in row])


def _field_rows(times, fields):
    return [[t, k, v] for t, row in zip(times, fields) for k, v in enumerate(row)]


@pytest.mark.parametrize("block", [3, 2048])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_field_csv_bytes_match_the_csv_writer_reference(tmp_path, monkeypatch, dtype, block):
    monkeypatch.setattr(io, "_ROWS_PER_WRITE", block)
    fields = np.array([SPECIAL, SPECIAL[::-1], np.linspace(-1.0, 1.0, len(SPECIAL))], dtype=dtype)
    times = [np.float64(0.0), 0.1, np.float32(1e16)]
    io.write_field_csv(tmp_path / "new.csv", times, fields)
    _reference(tmp_path / "ref.csv", ["time", "dof", "value"], _field_rows(times, fields))
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    assert data.startswith(b"time,dof,value\r\n") and data.endswith(b"\r\n")
    assert b"np." not in data


def test_single_snapshot_field_csv_matches_the_reference(tmp_path):
    # the form presim writes: one time, one field
    field = np.array(SPECIAL)
    io.write_field_csv(tmp_path / "new.csv", [np.float64(0.375)], [field])
    _reference(tmp_path / "ref.csv", ["time", "dof", "value"], _field_rows([0.375], [field]))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_energy_csv_bytes_match_the_csv_writer_reference(tmp_path):
    times = np.linspace(0.0, 1.0, len(SPECIAL))
    for energy in (SPECIAL, np.array(SPECIAL, dtype=np.float32)):
        io.write_energy_csv(tmp_path / "new.csv", times, energy)
        _reference(tmp_path / "ref.csv", ["time", "energy"], zip(times, energy))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("block", [3, 16, 2048])
def test_state_bytes_match_the_csv_writer_reference(tmp_path, monkeypatch, block):
    monkeypatch.setattr(io, "_ROWS_PER_WRITE", block)
    real = np.array([-0.0, 0.0, 5e-324, 1e-5, 0.1, 0.25, -0.3, 0.0, 1e-9, 0.2, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0])
    imag = np.array([0.0, -0.0, 1e-5, 5e-324, -0.1, 0.0, 0.2, 0.4, 0.0, -0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0])
    amps = real + 1j * imag
    amps[-1] = np.sqrt(1.0 - np.vdot(amps, amps).real)
    layout = StateLayout(num_physical=5, block_dim=8, arity=2)
    state = QuantumRegisterState(amplitudes=amps, scale=123456789.0, layout=layout)
    io.write_state(tmp_path / "state.csv", state)
    rows = [[i, a.real, a.imag] for i, a in enumerate(state.amplitudes)]
    _reference(tmp_path / "ref.csv", ["index", "real", "imag"], rows)
    assert (tmp_path / "state.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    sidecar = {
        "layout": {"arity": 2, "augmented": False, "block_dim": 8, "num_physical": 5},
        "scale": 123456789.0,
    }
    assert (tmp_path / "state.csv.json").read_text() == json.dumps(sidecar, indent=2) + "\n"
    back = io.read_state(tmp_path / "state.csv")
    assert np.array_equal(back.amplitudes.view(np.uint64), state.amplitudes.view(np.uint64))
