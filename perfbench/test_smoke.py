"""Smoke test of the benchmark itself, at tiny sizes; takes seconds.

    python3 -m pytest perfbench/test_smoke.py

Run from the root of a checkout. Every workload must pass its check at
the tiny size, and every check must fail on a corrupted output, so a
passing benchmark run means the outputs were really compared.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import qwavesim  # noqa: E402
import qwavesim.cli  # noqa: E402,F401
import qwavesim.io  # noqa: E402,F401

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402

SEED = 3


def _runner(name: str, tmp_path: Path) -> tuple[Runner, dict, object]:
    spec = workloads.generate(name, SEED, tmp_path, "tiny")
    runner = Runner(qwavesim, name, tmp_path)
    return runner, spec, runner.workload.reference(qwavesim, spec)


def _edit_json(path: Path, **changes) -> None:
    payload = json.loads(path.read_text())
    payload.update(changes)
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_its_check_twice_with_equal_digests(name, tmp_path):
    runner, spec, reference = _runner(name, tmp_path)
    runner.once(spec, reference)
    runner.once(spec, reference)
    assert [r["ok"] for r in runner.runs] == [True, True]


def _ran(name: str, tmp_path: Path):
    runner, spec, reference = _runner(name, tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    result = runner.workload.run(qwavesim, spec, out)
    runner.workload.check(spec, out, result, reference)  # the untouched outputs pass
    return runner.workload, spec, out, result, reference


def test_simulate_check_catches_a_perturbed_measurement(tmp_path):
    workload, spec, out, result, reference = _ran("simulate_2d_driven", tmp_path)
    path = out / "measurement_region0.json"
    scale = json.loads((out / "state.csv.json").read_text())["scale"]
    value = json.loads(path.read_text())["value"]
    _edit_json(path, value=value + 1e-9 * scale**2)
    with pytest.raises(workloads.CheckFailed):
        workload.check(spec, out, result, reference)


def test_simulate_check_catches_a_changed_state(tmp_path):
    workload, spec, out, result, reference = _ran("simulate_2d_driven", tmp_path)
    lines = (out / "state.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    lines[1:] = [f"{i},{float(re) * 1.001!r},{im}" for i, re, im in rows]
    (out / "state.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed):
        workload.check(spec, out, result, reference)


def test_register_check_catches_a_perturbed_loss(tmp_path):
    workload, spec, out, result, reference = _ran("register_sliced_1d", tmp_path)
    with pytest.raises(workloads.CheckFailed):
        workload.check(spec, out, result * (1.0 + 1e-5), reference)


def test_measure_check_catches_an_estimate_outside_five_stderr(tmp_path):
    workload, spec, out, result, reference = _ran("measure_stacked_shots", tmp_path)
    path = out / "measurement_tile3.json"
    payload = json.loads(path.read_text())
    _edit_json(path, value=spec["exact"]["tile3"] + 5.5 * payload["stderr"])
    with pytest.raises(workloads.CheckFailed):
        workload.check(spec, out, result, reference)


def test_measure_check_catches_a_flipped_byte(tmp_path):
    workload, spec, out, result, reference = _ran("measure_stacked_shots", tmp_path)
    path = out / "measurement_tile0.json"
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(workloads.CheckFailed):
        workload.check(spec, out, result, reference)


@pytest.mark.parametrize("field,value", [("fidelity", 1.0 - 1e-9), ("covariance_defect", 1e-11)])
def test_initcircuit_check_catches_a_bad_report(tmp_path, field, value):
    workload, spec, out, result, reference = _ran("initcircuit_polar", tmp_path)
    _edit_json(out / "initcircuit_report.json", **{field: value})
    with pytest.raises(workloads.CheckFailed):
        workload.check(spec, out, result, reference)


def test_a_digest_that_changes_between_runs_fails_the_run(tmp_path):
    runner, spec, reference = _runner("initcircuit_polar", tmp_path)
    runner.once(spec, reference)
    original = runner.workload.run

    def run_then_flip_a_byte(q, spec, out):
        original(q, spec, out)
        path = out / "circuit.json"
        path.write_bytes(path.read_bytes() + b" ")

    runner.workload = dataclasses.replace(runner.workload, run=run_then_flip_a_byte)
    runner.once(spec, reference)
    assert [r["ok"] for r in runner.runs] == [True, False]


def test_traced_self_times_add_up_and_counts_repeat(tmp_path):
    runner, spec, reference = _runner("simulate_2d_driven", tmp_path)
    tracer = tracing.Tracer()
    runner.once(spec, reference, tracer)
    runner.once(spec, reference, tracer)
    first, second = runner.layers
    for layers in (first, second):
        spans = sum(v for k, v in layers.items() if k.endswith("_s") and k != "trace.run_s")
        assert spans == pytest.approx(layers["trace.run_s"], rel=1e-9)
    counts = [k for k, unit in tracing.LAYER_METRICS.items() if unit != "s" and k in first]
    assert "reference.leapfrog_steps" in counts and "io.bytes_written" in counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    # the tracer leaves the package as it found it
    assert not hasattr(qwavesim.reference.leapfrog_evolve, "__wrapped__")


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "initcircuit_polar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
