import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qwavesim as q
from qwavesim import checks, cli
from qwavesim.constraints import ReducedSystem
from qwavesim.errors import ScenarioError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _write(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _base(**overrides):
    doc = {
        "grid": {"bounds": [[0.0, 1.0]], "shape": [32]},
        "material": {"family": "acoustic", "rho": 1.0, "c": 1.0},
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# scenario parsing


def test_minimal_scenario_defaults(tmp_path):
    sc = q.load_scenario(_write(tmp_path, _base()))
    assert sc.n_unknowns == 63
    assert sc.system is sc.pair
    np.testing.assert_array_equal(sc.initial, 0.0)
    assert sc.sources == ()
    assert sc.t_final is None
    assert sc.record_every == 1
    assert sc.estimator.mode == "exact"
    assert sc.output_dir is None


def test_unknown_top_level_key_is_refused(tmp_path):
    with pytest.raises(ScenarioError, match="top-level"):
        q.load_scenario(_write(tmp_path, _base(extra_block={})))


def test_the_readme_scenario_example_loads(tmp_path):
    # the documented example is held to the same strict reader as any scenario
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenario files\n", 1)[1]
    example = tmp_path / "example.json"
    example.write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
    sc = q.load_scenario(example)
    assert sc.output_dir == "demo-output"
    assert sc.sources[0].decompose == {"radius": 0.45, "c": 1.0, "rho": 1.0}
    assert sc.initcircuit.spec.radial_divisions == 8


def test_dirichlet_wall_pins_one_scalar_node(tmp_path):
    sc = q.load_scenario(_write(tmp_path, _base(boundaries={"right": "dirichlet"})))
    assert isinstance(sc.system, ReducedSystem)
    assert sc.n_unknowns == 62


def test_bogus_boundary_entry_is_refused(tmp_path):
    with pytest.raises(ScenarioError, match="boundaries.left"):
        q.load_scenario(_write(tmp_path, _base(boundaries={"left": "absorbing"})))
    with pytest.raises(ScenarioError, match=r"unknown keys \['boundaries\.front'\]"):
        q.load_scenario(_write(tmp_path, _base(boundaries={"front": "natural"})))


def test_driven_corner_conflict_is_refused(tmp_path):
    doc = {
        "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [6, 6]},
        "material": {"family": "acoustic", "rho": 1.0, "c": 1.0},
        "boundaries": {
            "left": {
                "kind": "dirichlet",
                "data": {"times": [0.0, 1.0], "values": [0.0, 1.0]},
            },
            "bottom": "dirichlet",
        },
    }
    with pytest.raises(ScenarioError, match="corner"):
        q.load_scenario(_write(tmp_path, doc))


@pytest.mark.parametrize(
    "shape, right",
    [([6, 5], {"kind": "dirichlet", "data": {"times": [0.25, 1.5], "values": [2.0, -1.0]}}),
     ([6, 5], "dirichlet"),
     ([9], {"kind": "dirichlet", "data": {"times": [0.0, 0.6, 0.9], "values": [1.0, 3.0, 0.5]}})],
)
def test_driven_walls_interpolate_each_series_onto_the_union_of_times(tmp_path, shape, right):
    left = {"kind": "dirichlet", "data": {"times": [0.0, 0.5, 1.0], "values": [0.0, 1.0, 0.0]}}
    bounds = [[0.0, 1.0]] * len(shape)
    doc = {
        "grid": {"bounds": bounds, "shape": shape},
        "material": {"family": "acoustic", "rho": 1.0, "c": 1.0},
        "boundaries": {"left": left, "right": right},
    }
    sc = q.load_scenario(_write(tmp_path, doc))
    # reference: one np.interp per pinned node
    series = {side: entry["data"] for side, entry in (("left", left), ("right", right))
              if isinstance(entry, dict)}
    owner = {int(k): side for side in ("left", "right")
             for k in q.boundary_scalar_indices(sc.grid, [side])}
    indices = np.array(sorted(owner))
    t_grid = np.unique(np.concatenate([d["times"] for d in series.values()]))
    b_values = np.zeros((t_grid.size, indices.size))
    for col, node in enumerate(indices):
        if owner[node] in series:
            data = series[owner[node]]
            b_values[:, col] = np.interp(t_grid, data["times"], data["values"])
    cons = q.dirichlet_constraints(sc.grid, indices, b_times=t_grid, b_values=b_values)
    expected = q.reduce_system(sc.pair, cons)
    for t in (-0.1, 0.0, 0.3, 0.5, 0.77, 1.2, 1.5, 2.0):
        assert sc.system.source(t).tobytes() == expected.source(t).tobytes()


def test_homogeneous_corners_may_be_shared(tmp_path):
    doc = {
        "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [6, 6]},
        "material": {"family": "acoustic", "rho": 1.0, "c": 1.0},
        "boundaries": {"left": "dirichlet", "bottom": "dirichlet"},
    }
    sc = q.load_scenario(_write(tmp_path, doc))
    assert isinstance(sc.system, ReducedSystem)
    # 6 + 6 nodes minus the one shared corner
    assert sc.system.constrained_indices.size == 11


def test_gaussian_initial_condition(tmp_path):
    doc = _base(initial={"kind": "scalar_gaussian", "center": [0.5], "sigma": 0.1})
    sc = q.load_scenario(_write(tmp_path, doc))
    scalar = sc.initial[:32]
    # the peak sits between two nodes on this grid
    assert 0.95 < scalar.max() <= 1.0
    np.testing.assert_array_equal(sc.initial[32:], 0.0)


def test_initial_validation(tmp_path):
    bad_sigma = _base(initial={"kind": "scalar_gaussian", "center": [0.5], "sigma": -1.0})
    with pytest.raises(ScenarioError, match="sigma"):
        q.load_scenario(_write(tmp_path, bad_sigma))
    bad_center = _base(initial={"kind": "scalar_gaussian", "center": [0.5, 0.5], "sigma": 0.1})
    with pytest.raises(ScenarioError, match="center"):
        q.load_scenario(_write(tmp_path, bad_center))
    with pytest.raises(ScenarioError, match="unknown kind"):
        q.load_scenario(_write(tmp_path, _base(initial={"kind": "plane_wave"})))


def test_initial_from_file(tmp_path):
    (tmp_path / "w0.csv").write_text("dof,value\n3,1.5\n40,-2.0\n")
    sc = q.load_scenario(_write(tmp_path, _base(initial={"kind": "file", "path": "w0.csv"})))
    assert sc.initial[3] == 1.5
    assert sc.initial[40] == -2.0
    assert np.count_nonzero(sc.initial) == 2
    (tmp_path / "bad.csv").write_text("dof,value\n99,1.0\n")
    with pytest.raises(ScenarioError, match="out of range"):
        q.load_scenario(_write(tmp_path, _base(initial={"kind": "file", "path": "bad.csv"})))


def test_every_time_function_kind_parses(tmp_path):
    (tmp_path / "drive.csv").write_text("time,value\n0.0,0.0\n0.1,1.0\n0.2,0.0\n")
    kinds = [
        {"kind": "gaussian", "center": 0.1, "sigma": 0.02},
        {"kind": "ricker", "peak_frequency": 8.0},
        {"kind": "windowed_sine", "frequency": 5.0, "t_start": 0.0, "duration": 0.4},
        {"kind": "file", "path": "drive.csv"},
    ]
    sources = [
        {"location": [10 + k], "polarization": [1.0, 0.0], "time_function": tf}
        for k, tf in enumerate(kinds)
    ]
    sc = q.load_scenario(_write(tmp_path, _base(sources=sources)))
    assert len(sc.sources) == 4
    forcing = sc.external_forcing()
    assert forcing(0.1).shape == (sc.n_unknowns,)
    with pytest.raises(ScenarioError, match="unknown kind"):
        q.load_scenario(
            _write(
                tmp_path,
                _base(
                    sources=[
                        {
                            "location": [5],
                            "polarization": [1.0, 0.0],
                            "time_function": {"kind": "square"},
                        }
                    ]
                ),
            )
        )


def test_decompose_block_validation(tmp_path):
    src = {
        "location": [16],
        "polarization": [1.0, 0.0],
        "time_function": {"kind": "gaussian", "center": 0.1, "sigma": 0.02},
        "decompose": {"radius": 0.2, "c": 1.0},
    }
    with pytest.raises(ScenarioError, match="rho"):
        q.load_scenario(_write(tmp_path, _base(sources=[src])))
    src = dict(src, decompose={"radius": 0.2, "c": 1.0, "rho": 1.0, "flavor": "x"})
    with pytest.raises(ScenarioError, match="unknown keys"):
        q.load_scenario(_write(tmp_path, _base(sources=[src])))


def test_evolution_validation(tmp_path):
    with pytest.raises(ScenarioError, match="t_final"):
        q.load_scenario(_write(tmp_path, _base(evolution={"t_final": 0.0})))
    with pytest.raises(ScenarioError, match="dt"):
        q.load_scenario(_write(tmp_path, _base(evolution={"t_final": 1.0, "dt": -0.1})))
    with pytest.raises(ScenarioError, match="record_every"):
        q.load_scenario(
            _write(tmp_path, _base(evolution={"t_final": 1.0, "record_every": 0}))
        )


def test_measurement_names_must_be_file_safe(tmp_path):
    def with_name(name):
        return _base(
            measurements=[
                {"name": name, "subspace": {"kind": "dof_range", "start": 0, "stop": 4}}
            ]
        )

    with pytest.raises(ScenarioError, match="name"):
        q.load_scenario(_write(tmp_path, with_name("has space")))
    with pytest.raises(ScenarioError, match="name"):
        q.load_scenario(_write(tmp_path, with_name("a/b")))
    doc = with_name("ok")
    doc["measurements"].append(dict(doc["measurements"][0]))
    with pytest.raises(ScenarioError, match="duplicate"):
        q.load_scenario(_write(tmp_path, doc))


def test_measurement_masks_resolve_to_indices(tmp_path):
    doc = _base(
        measurements=[
            {"name": "band", "subspace": {"kind": "dof_range", "start": 4, "stop": 9}},
            {"name": "probe", "subspace": {"kind": "indices", "indices": [0, 62]}},
            {"name": "window", "subspace": {"kind": "scalar_region", "bounds": [[0.25, 0.5]]}},
        ]
    )
    sc = q.load_scenario(_write(tmp_path, doc))
    band, probe, window = [m.projector.mask for m in sc.measurements]
    assert band.sum() == 5 and band[4] and band[8] and not band[9]
    assert probe.sum() == 2 and probe[0] and probe[62]
    xs = sc.grid.scalar_coords[:, 0]
    expected = int(np.sum((xs >= 0.25) & (xs <= 0.5)))
    assert window[:32].sum() == expected
    assert window[32:].sum() == 0


def test_measurement_subspace_validation(tmp_path):
    bad_range = _base(
        measurements=[{"name": "m", "subspace": {"kind": "dof_range", "start": 5, "stop": 99}}]
    )
    with pytest.raises(ScenarioError, match="start < stop"):
        q.load_scenario(_write(tmp_path, bad_range))
    bad_idx = _base(
        measurements=[{"name": "m", "subspace": {"kind": "indices", "indices": [63]}}]
    )
    with pytest.raises(ScenarioError, match="out of range"):
        q.load_scenario(_write(tmp_path, bad_idx))


def test_estimator_validation_and_overrides(tmp_path):
    with pytest.raises(ScenarioError, match="mode"):
        q.load_scenario(_write(tmp_path, _base(estimator={"mode": "oracle"})))
    with pytest.raises(ScenarioError, match="seed"):
        q.load_scenario(_write(tmp_path, _base(estimator={"mode": "shots", "shots": 100})))
    p = _write(tmp_path, _base(estimator={"mode": "exact"}))
    sc = q.load_scenario(p, shots_override=500, seed_override=3)
    assert sc.estimator.mode == "shots"
    assert sc.estimator.shots == 500
    assert sc.estimator.seed == 3
    with pytest.raises(ScenarioError, match="seed"):
        q.load_scenario(p, shots_override=500)


def test_material_piecewise_and_tabulated_coefficients(tmp_path):
    (tmp_path / "rho.csv").write_text("time,value\n0.0,1.0\n1.0,3.0\n")
    piecewise = _base(
        material={
            "family": "acoustic",
            "rho": {
                "kind": "piecewise",
                "background": 1.0,
                "regions": [{"bounds": [[0.4, 0.6]], "value": 4.0}],
            },
            "c": 1.0,
        }
    )
    sc = q.load_scenario(_write(tmp_path, piecewise, "pw.json"))
    b = sc.pair.b_diagonal()
    assert b[32:].max() == 4.0  # flux weight is rho itself
    assert b[32:].min() == 1.0
    tab = _base(material={"family": "acoustic", "rho": {"kind": "file", "path": "rho.csv"}, "c": 1.0})
    sc2 = q.load_scenario(_write(tmp_path, tab, "tab.json"))
    assert sc2.pair.b_diagonal()[32:].max() > 1.5
    with pytest.raises(ScenarioError, match="unknown kind"):
        q.load_scenario(
            _write(
                tmp_path,
                _base(material={"family": "acoustic", "rho": {"kind": "mystery"}, "c": 1.0}),
                "bad.json",
            )
        )


def _per_point(spec, base):
    """The per-point callable form of a scenario coefficient, the reference for table sampling."""
    if not isinstance(spec, dict):
        return float(spec)
    if spec["kind"] == "piecewise":
        boxes = [(np.asarray(r["bounds"], dtype=np.float64), float(r["value"])) for r in spec["regions"]]

        def fn(x):
            for box, value in boxes:
                if np.all(x >= box[:, 0]) and np.all(x <= box[:, 1]):
                    return value
            return float(spec["background"])

        return fn
    times, values = q.io.read_source_csv(base / spec["path"])
    return lambda x: float(np.interp(float(x[0]), times, values))


# box faces at multiples of 1/64 put nodes and midpoints of these grids exactly
# on a face
_OVERLAPPING = {
    "kind": "piecewise",
    "background": 1.0,
    "regions": [
        {"bounds": [[0.25, 0.5], [0.0, 0.375]], "value": 3.0},
        {"bounds": [[0.375, 0.75], [0.25, 1.0]], "value": 5.0},
        {"bounds": [[0.015625, 0.25], [0.125, 0.140625]], "value": 0.5},
    ],
}


def _one_d(spec):
    return {**spec, "regions": [{**r, "bounds": r["bounds"][:1]} for r in spec["regions"]]}


@pytest.mark.parametrize(
    "grid, material",
    [
        ({"bounds": [[0.0, 1.0]], "shape": [33]},
         {"family": "acoustic", "rho": _one_d(_OVERLAPPING), "c": {"kind": "file", "path": "c.csv"}}),
        ({"bounds": [[0.0, 1.0]], "shape": [17]},
         {"family": "acoustic", "rho": {"kind": "file", "path": "c.csv"}, "c": _one_d(_OVERLAPPING)}),
        ({"bounds": [[0.0, 1.0]], "shape": [33]},
         {"family": "maxwell1d", "eps": {"kind": "file", "path": "c.csv"}, "mu": _one_d(_OVERLAPPING)}),
        ({"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [33, 17]},
         {"family": "acoustic", "rho": _OVERLAPPING, "c": 1.5}),
        ({"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [17, 33]},
         {"family": "acoustic", "rho": 2.0, "c": _OVERLAPPING}),
    ],
)
def test_table_sampled_coefficients_are_bit_equal_to_per_point_sampling(tmp_path, grid, material):
    (tmp_path / "c.csv").write_text("time,value\n0.1,1.0\n0.3,2.5\n0.4,0.7\n0.9,1.9\n")
    sc = q.load_scenario(_write(tmp_path, _base(grid=grid, material=material)))
    specs = {name: spec for name, spec in material.items() if name != "family"}
    per_point = {name: _per_point(spec, tmp_path) for name, spec in specs.items()}
    # the per-point references, called one row at a time behind a table adapter
    adapted = {
        name: (lambda coords, fn=fn: np.array([fn(x) for x in coords])) if callable(fn) else fn
        for name, fn in per_point.items()
    }
    build = q.MaterialModel.acoustic if material["family"] == "acoustic" else q.MaterialModel.maxwell1d
    expected = build(sc.grid, **adapted)
    assert sc.material.scalar_weight.tobytes() == expected.scalar_weight.tobytes()
    assert sc.material.flux_weight.tobytes() == expected.flux_weight.tobytes()
    assert sc.material.max_speed == expected.max_speed
    # the coefficient objects take any coordinate table, the grid's concatenated included
    points = np.concatenate([sc.grid.scalar_coords, *sc.grid.flux_coords])
    for name, spec in specs.items():
        coefficient = q.scenario._coefficient(q.io.JsonObject(specs), sc.grid, tmp_path, name)
        if callable(coefficient):
            assert coefficient(points).tolist() == [per_point[name](x) for x in points]


def test_initcircuit_section(tmp_path):
    doc = _base(
        initcircuit={
            "radial_divisions": 4,
            "extent": 1.0,
            "profile": {"kind": "gaussian_ring", "radius": 0.5, "width": 0.2},
        }
    )
    sc = q.load_scenario(_write(tmp_path, doc))
    assert sc.initcircuit.spec.radial_divisions == 4
    out = sc.initcircuit.field(np.array([0.5, 0.0]))
    assert out[0] == pytest.approx(1.0)
    assert out[1] == 0.0
    bad = _base(initcircuit={"radial_divisions": 4, "extent": 1.0, "profile": {"kind": "?"},
                            "padding": 1})
    with pytest.raises(ScenarioError, match="unknown keys"):
        q.load_scenario(_write(tmp_path, bad))


# ---------------------------------------------------------------------------
# command line


def _fast_doc(**overrides):
    doc = _base(
        initial={"kind": "scalar_gaussian", "center": [0.5], "sigma": 0.08},
        evolution={"t_final": 0.1},
    )
    doc.update(overrides)
    return doc


def test_simulate_writes_the_advertised_files(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(
        ["simulate", "--scenario", str(SCENARIOS / "acoustic_demo.json"), "--out", str(out)]
    )
    assert rc == 0
    assert f"simulate: wrote 7 files to {out}" in capsys.readouterr().out
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "energy.csv",
        "manifest.json",
        "measurement_probe_band.json",
        "measurement_right_half.json",
        "snapshots.csv",
        "state.csv",
        "state.csv.json",
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["unknowns"] == {"assembled": 255, "simulated": 255, "pinned": 0}
    assert manifest["evolution"]["dt"] == pytest.approx(
        0.5 * manifest["evolution"]["cfl_limit"]
    )
    assert manifest["scaling"]["classical_cell_updates"] > 0
    assert manifest["scaling"]["quantum_query_proxy"] > 0
    meas = json.loads((out / "measurement_right_half.json").read_text())
    assert meas["mode"] == "exact"
    assert meas["value"] >= 0.0
    assert meas["name"] == "right_half"


def test_measure_reproduces_simulate_measurements(tmp_path, capsys):
    sim_out = tmp_path / "sim"
    demo = str(SCENARIOS / "acoustic_demo.json")
    assert cli.main(["simulate", "--scenario", demo, "--out", str(sim_out)]) == 0
    meas_out = tmp_path / "meas"
    rc = cli.main(
        ["measure", "--scenario", demo, "--state", str(sim_out / "state.csv"),
         "--out", str(meas_out)]
    )
    assert rc == 0
    assert "measure: wrote 2 files" in capsys.readouterr().out
    for name in ("measurement_right_half.json", "measurement_probe_band.json"):
        assert (meas_out / name).read_bytes() == (sim_out / name).read_bytes()


def test_measure_checks_the_state_dimension(tmp_path, capsys):
    sim_out = tmp_path / "sim"
    demo = str(SCENARIOS / "acoustic_demo.json")
    assert cli.main(["simulate", "--scenario", demo, "--out", str(sim_out)]) == 0
    small = _write(
        tmp_path,
        _base(measurements=[{"name": "m", "subspace": {"kind": "dof_range", "start": 0, "stop": 4}}]),
    )
    rc = cli.main(
        ["measure", "--scenario", str(small), "--state", str(sim_out / "state.csv"),
         "--out", str(tmp_path / "x")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "qwavesim: validation error:" in err
    assert "255" in err and "63" in err


def _measure_with_state(tmp_path, rows, edit_sidecar=lambda sidecar: None):
    """Run measure on a 63-unknown scenario with a hand-written state.csv."""
    scenario = _write(
        tmp_path,
        _base(measurements=[{"name": "m", "subspace": {"kind": "dof_range", "start": 0, "stop": 4}}]),
    )
    state = tmp_path / "state.csv"
    text = "index,real,imag\n" + "".join(row + "\n" for row in rows)
    state.write_bytes(text.encode("utf-8", "surrogateescape"))  # "\udcff" writes byte 0xff
    sidecar = {"scale": 1.0, "layout": {"num_physical": 63, "block_dim": 64, "arity": 1,
                                        "augmented": False}}
    edit_sidecar(sidecar)
    (tmp_path / "state.csv.json").write_text(json.dumps(sidecar))
    return cli.main(
        ["measure", "--scenario", str(scenario), "--state", str(state),
         "--out", str(tmp_path / "out")]
    )


def test_measure_reads_a_hand_written_state(tmp_path, capsys):
    assert _measure_with_state(tmp_path, ["0,0.6,0.0", "40,-0.8,0.0"]) == 0
    meas = json.loads((tmp_path / "out" / "measurement_m.json").read_text())
    assert meas["value"] == pytest.approx(0.36, abs=1e-12)


def test_measure_refuses_a_state_with_an_imaginary_part(tmp_path, capsys):
    # -0.0 is a zero imaginary part; the first other one is named
    rows = ["0,0.6,-0.0", "40,0.0,-0.8"]
    assert _measure_with_state(tmp_path, rows) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'state.csv'}: line 3: imag must be 0.0" in err
    assert not (tmp_path / "out").exists()


def test_measure_refuses_a_simulated_state_turned_by_a_phase(tmp_path, capsys):
    # e^{0.7i} times the state leaves every |amplitude|^2, and so every loss, as it
    # was: a reader that kept the imag column would report the unturned values
    demo = str(SCENARIOS / "acoustic_demo.json")
    assert cli.main(["simulate", "--scenario", demo, "--out", str(tmp_path / "sim")]) == 0
    state = tmp_path / "sim" / "state.csv"
    index, amps = np.loadtxt(state, delimiter=",", skiprows=1, usecols=(0, 1), unpack=True)
    turned = amps * np.exp(0.7j)
    rows = [f"{int(i)},{a.real!r},{a.imag!r}" for i, a in zip(index, turned.tolist())]
    state.write_text("index,real,imag\n" + "\n".join(rows) + "\n")
    rc = cli.main(["measure", "--scenario", demo, "--state", str(state),
                   "--out", str(tmp_path / "meas")])
    assert rc == 1
    first = int(np.flatnonzero(turned.imag)[0]) + 2
    assert f"{state}: line {first}: imag must be 0.0" in capsys.readouterr().err
    assert not (tmp_path / "meas").exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        (["64,1.0,0.0"], "not an integer in [0, 64)"),
        (["-1,1.0,0.0"], "not an integer in [0, 64)"),
        (["0.5,1.0,0.0"], "not an integer in [0, 64)"),
        (["0,1.0"], "expected 3 cells, got 2"),
        (["0,abc,0.0"], "non-numeric cell"),
        (["0,nan,0.0"], "finite numbers"),
        (["0,0.6,0.0", "0,0.8,0.0"], "index 0 appears more than once"),
    ],
)
def test_measure_refuses_a_malformed_state(tmp_path, capsys, rows, message):
    assert _measure_with_state(tmp_path, rows) == 1
    err = capsys.readouterr().err
    assert "qwavesim: validation error:" in err
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "body, message",
    [
        ("0.0,0.0\n0.1\n", "expected 2 cells, got 1"),
        ("0.0,0.0\n0.1,one\n", "non-numeric cell"),
        ("0.0,0.0\ninf,1.0\n", "finite numbers"),
    ],
)
def test_malformed_source_samples_are_refused(tmp_path, body, message):
    (tmp_path / "drive.csv").write_text("time,value\n" + body)
    source = {
        "location": [10],
        "polarization": [1.0, 0.0],
        "time_function": {"kind": "file", "path": "drive.csv"},
    }
    with pytest.raises(ScenarioError, match=message):
        q.load_scenario(_write(tmp_path, _base(sources=[source])))


@pytest.mark.parametrize(
    "body, message",
    [
        ("dof,value\n3.7,1.0\n", "line 2: dof 3.7 is not an integer in [0, 63)"),
        ("dof,value\n3,1.0\n63,2.0\n", "line 3: dof 63 is not an integer in [0, 63)"),
        ("dof,value\n-1,1.0\n", "line 2: dof -1 is not an integer in [0, 63)"),
        ("dof,value\n3,1.0\n5,0.5\n3,2.0\n", "line 4: dof 3 appears more than once"),
        ("anything\n3,1.0\n", "expected header dof,value"),
        ("dof,value\n3,1.0,2.0\n", "line 2: expected 2 cells, got 3"),
        ("dof,value\n3,nan\n", "line 2: cells must be finite numbers"),
    ],
)
def test_simulate_refuses_a_malformed_initial_file(tmp_path, capsys, body, message):
    (tmp_path / "w0.csv").write_text(body)
    doc = _fast_doc(initial={"kind": "file", "path": "w0.csv"})
    scenario = _write(tmp_path, doc)
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "qwavesim: validation error:" in err
    assert message in err
    assert not (tmp_path / "out").exists()


# The whole stderr of each malformed table, byte for byte: the bulk parse in
# io._read_table must leave every line-numbered message as it was. A body is
# written as UTF-8 with "\udcff" standing for the lone byte 0xff.
_PINNED_TABLE_ERRORS = [
    ("w0.csv", "dof,value\n3.7,1.0\n", "line 2: dof 3.7 is not an integer in [0, 63) (fractional)"),
    ("w0.csv", "dof,value\n3,1.0\n63,2.0\n",
     "line 3: dof 63 is not an integer in [0, 63) (out of range)"),
    ("w0.csv", "dof,value\n-1,1.0\n", "line 2: dof -1 is not an integer in [0, 63) (out of range)"),
    ("w0.csv", "dof,value\n3,1.0\n5,0.5\n3,2.0\n", "line 4: dof 3 appears more than once"),
    ("w0.csv", "anything\n3,1.0\n", "expected header dof,value"),
    ("w0.csv", "dof,value\n3,1.0,2.0\n", "line 2: expected 2 cells, got 3"),
    ("w0.csv", "dof,value\n3,nan\n", "line 2: cells must be finite numbers"),
    ("w0.csv", "dof,value\n3,1.0\n\n5,2.0\n", "line 3: expected 2 cells, got 0"),
    ("w0.csv", "dof,value\r\n3,1.0\r\n\r\n", "line 3: expected 2 cells, got 0"),
    ("w0.csv", "dof,value\n3,1.0\n  \n", "line 3: expected 2 cells, got 1"),
    ("w0.csv", "dof,value\n# note\n3,1.0\n", "line 2: expected 2 cells, got 1"),
    ("w0.csv", "dof,value\n3,1.0\n5,two\n", "line 3: non-numeric cell in '5,two'"),
    ("w0.csv", "dof,value\r3,1.0\r5,-inf\r", "line 3: cells must be finite numbers"),
    ("w0.csv", 'dof,value\n"3\n",1.0\n4,x\n', "line 4: non-numeric cell in '4,x'"),
    ("w0.csv", "dof,value\n3,1.0\n5,\udcff\n", "line 3: not valid UTF-8"),
    ("w0.csv", "dof,val\udcffue\n3,1.0\n", "line 1: not valid UTF-8"),
    ("w0.csv", "dof,value\r\n3,1.0\r\r5,2.0\udcff\r\n", "line 4: not valid UTF-8"),
    ("drive.csv", "time,value\n0.0,0.0\n0.1\n", "line 3: expected 2 cells, got 1"),
    ("drive.csv", "time,value\n0.0,0.0\n0.1,1_0e\n", "line 3: non-numeric cell in '0.1,1_0e'"),
    ("drive.csv", "time,value\n0.0,0.0\n0.5,2.0\n0.4,1.5\n",
     "line 4: time must exceed the previous row's"),
]


@pytest.mark.parametrize("name, body, message", _PINNED_TABLE_ERRORS)
def test_malformed_table_messages_are_pinned(tmp_path, capsys, name, body, message):
    (tmp_path / name).write_bytes(body.encode("utf-8", "surrogateescape"))
    if name == "drive.csv":
        time_function = {"kind": "file", "path": name}
        doc = _fast_doc(sources=[dict(_SOURCE, time_function=time_function)])
    else:
        doc = _fast_doc(initial={"kind": "file", "path": name})
    scenario = _write(tmp_path, doc)
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"qwavesim: validation error: {tmp_path / name}: {message}\n"
    )


@pytest.mark.parametrize(
    "rows, message",
    [
        (["0,1.0"], "line 2: expected 3 cells, got 2"),
        (["0,0.6,0.0", "", "1,0.8,0.0"], "line 3: expected 3 cells, got 0"),
        (["0,abc,0.0"], "line 2: non-numeric cell in '0,abc,0.0'"),
        (["0,0.6,0.0", "1,nan,0.0"], "line 3: cells must be finite numbers"),
        (["0.5,1.0,0.0"], "line 2: index 0.5 is not an integer in [0, 64) (fractional)"),
        (["0,0.6,0.0", "0,0.8,0.0"], "line 3: index 0 appears more than once"),
        (["0,0.6,0.0", "1,0.8,0.0\udcff"], "line 3: not valid UTF-8"),
    ],
)
def test_malformed_state_messages_are_pinned(tmp_path, capsys, rows, message):
    assert _measure_with_state(tmp_path, rows) == 1
    assert capsys.readouterr().err == (
        f"qwavesim: validation error: {tmp_path / 'state.csv'}: {message}\n"
    )


def test_scenario_json_that_is_not_utf8_exits_one_naming_the_line(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(json.dumps(_fast_doc(), indent=1).encode() + b"\n\xff\n")
    lines = scenario.read_bytes().count(b"\n")
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"qwavesim: validation error: {scenario}: line {lines}: not valid UTF-8\n"
    )


@pytest.mark.parametrize("name", ["rho", "c"])
def test_boolean_material_coefficient_is_refused(tmp_path, capsys, name):
    material = {"family": "acoustic", "rho": 1.0, "c": 1.0, name: True}
    scenario = _write(tmp_path, _base(material=material))
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"material coefficient {name} must be a number or an object" in err


@pytest.mark.parametrize(
    "data",
    [
        {"times": [0.0, 0.1, 1.0], "values": [0.0, float("inf"), 0.0]},
        {"times": [0.0, 0.1, 1.0], "values": [0.0, float("nan"), 0.0]},
        {"times": [0.0, float("inf")], "values": [0.0, 0.0]},
        {"times": [float("nan"), 1.0], "values": [0.0, 0.0]},
    ],
)
def test_simulate_refuses_non_finite_inline_wall_data(tmp_path, capsys, data):
    # json.dumps writes Infinity and NaN, which json.loads reads back
    doc = _fast_doc(boundaries={"left": {"kind": "dirichlet", "data": data}})
    scenario = _write(tmp_path, doc)
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "qwavesim: validation error:" in err
    key = "values" if np.all(np.isfinite(data["times"])) else "times"
    assert f"boundaries.left.data.{key} must be a finite number" in err
    assert not (tmp_path / "out").exists()


_SOURCE = {
    "location": [16],
    "polarization": [1.0, 0.0],
    "time_function": {"kind": "gaussian", "center": 0.1, "sigma": 0.02},
}
_RING = {
    "radial_divisions": 4,
    "extent": 1.0,
    "profile": {"kind": "gaussian_ring", "radius": 0.5, "width": 0.2},
}
_BACKWARDS = "time,value\n0.0,1.0\n0.5,2.0\n0.4,1.5\n"  # line 4 goes back in time
# acoustic_demo's pulse sampled every 0.001 after a first step of 1e-12, the
# smallest sample spacing and so the table's dt_hint
_SPIKED = "time,value\n0.0,0.0\n1e-12,0.0\n" + "".join(
    f"{0.001 * k!r},{float(np.exp(-0.5 * ((0.001 * k - 0.08) / 0.01) ** 2)) if k < 160 else 0.0!r}\n"
    for k in range(1, 161)
)


def _ring(**bad):
    return {"initcircuit": dict(_RING, profile=dict(_RING["profile"], **bad))}


def _decompose(**bad):
    decompose = dict({"radius": 0.45, "c": 1.0, "rho": 1.0}, **bad)
    return {"sources": [dict(_SOURCE, decompose=decompose)]}


def _sliced(sigma=0.01, pulse=None, **bad):
    """The source of acoustic_demo, whose 0.45 ball has room for windows on 128 nodes."""
    decompose = dict({"radius": 0.45, "c": 1.0, "rho": 1.0}, **bad)
    if pulse is None:
        pulse = {"kind": "gaussian", "center": 0.08, "sigma": sigma}
    source = dict(_SOURCE, location=[64], time_function=pulse, decompose=decompose)
    return {"grid": {"bounds": [[0.0, 1.0]], "shape": [128]}, "sources": [source]}


def _wall(data):
    return {"boundaries": {"left": {"kind": "dirichlet", "data": data}}}


def _measure(subspace):
    return {"measurements": [{"name": "m", "subspace": subspace}]}


def _pulse(**bad):
    return {"sources": [dict(_SOURCE, time_function=dict(_SOURCE["time_function"], **bad))]}


def _initial(**bad):
    return {"initial": dict(_fast_doc()["initial"], **bad)}


def _material(family, **coefficients):
    return {"material": {"family": family, **coefficients}}


def _case(case_id, overrides, message, command="simulate", files=(), args=()):
    return pytest.param(command, overrides, dict(files), list(args), message, id=case_id)


_SEED = "estimator: seed must be a non-negative integer"
_MALFORMED = [
    # the window steepness follows from the ball: decompose has no steepness key
    _case("steepness-zero", _decompose(steepness=0), "sources[0].decompose.steepness", "presim"),
    _case("steepness-text", _decompose(steepness="abc"), "sources[0].decompose.steepness",
          "presim"),
    _case("steepness-negative", _decompose(steepness=-5), "sources[0].decompose.steepness",
          "presim"),
    _case("steepness-any", _decompose(steepness=2000.0),
          "unknown keys ['sources[0].decompose.steepness']", "presim"),
    _case("boundary-neumann", {"boundaries": {"left": "neumann"}},
          "boundaries.left: expected 'natural', 'dirichlet', or a dirichlet object"),
    # derived values of the window schedule that float64 cannot hold: each
    # ended in an overflow, a division by zero or a memory error in presim
    _case("radius-overflowing", _sliced(radius=1e308), "sources[0].decompose.radius", "presim"),
    _case("radius-subnormal", _sliced(radius=5e-324), "sources[0].decompose.radius", "presim"),
    _case("c-overflowing", _sliced(c=1e308), "sources[0].decompose.c", "presim"),
    _case("c-subnormal", _sliced(c=5e-324), "sources[0].decompose.c", "presim"),
    _case("c-underflowing", _sliced(c=1e-300), "sources[0].decompose.c", "presim"),
    _case("windows-past-cell-updates", _sliced(sigma=2**31),
          "sources[0].time_function and sources[0].decompose.radius", "presim"),
    # its slices' quadrature panels of 1e-12 ended in a 520 GiB allocation in presim
    _case("sample-spacing-panels-past-cell-updates",
          _sliced(pulse={"kind": "file", "path": "drive.csv"}),
          "sources[0].time_function: its slices resolve steps of 1e-12 (its dt_hint 1e-12",
          "presim", files={"drive.csv": _SPIKED}),
    _case("c-text", _decompose(c="fast"), "sources[0].decompose.c", "presim"),
    _case("radius-null", _decompose(radius=None), "sources[0].decompose.radius", "presim"),
    _case("radius-infinite", _decompose(radius=float("inf")), "sources[0].decompose.radius",
          "presim"),
    _case("radius-past-float-range", _decompose(radius=10**400), "sources[0].decompose.radius",
          "presim"),
    _case("rho-negative", _decompose(rho=-1.0), "sources[0].decompose.rho", "presim"),
    _case("mode-closed-form", _decompose(mode="closed_form"), "sources[0].decompose.mode",
          "presim"),
    # decompose has no mode key: every slice is solved on the grid
    _case("mode-discrete", _decompose(mode="discrete"),
          "unknown keys ['sources[0].decompose.mode']", "presim"),
    _case("mode-dalembert", _decompose(mode="dalembert"),
          "unknown keys ['sources[0].decompose.mode']", "presim"),
    _case("seed-negative", {"estimator": {"mode": "shots", "seed": -1}}, _SEED),
    _case("seed-text", {"estimator": {"mode": "shots", "seed": "s"}}, _SEED),
    _case("seed-fraction", {"estimator": {"mode": "shots", "seed": 1.5}}, _SEED),
    _case("seed-true", {"estimator": {"mode": "shots", "seed": True}}, _SEED),
    _case("seed-override-negative", {}, _SEED, args=["--shots", "100", "--seed", "-1"]),
    _case("wall-times-decreasing", _wall({"times": [1.0, 0.0], "values": [0.0, 0.0]}),
          "boundaries.left.data"),
    _case("wall-lengths-differ", _wall({"times": [0.0, 1.0], "values": [0.0, 0.0, 0.0]}),
          "boundaries.left.data"),
    _case("wall-csv-decreasing", _wall({"path": "wall.csv"}), "wall.csv: line 4",
          files={"wall.csv": _BACKWARDS}),
    _case("material-file-decreasing",
          {"material": {"family": "acoustic", "rho": {"kind": "file", "path": "rho.csv"},
                        "c": 1.0}},
          "rho.csv: line 4", files={"rho.csv": _BACKWARDS}),
    _case("drive-file-decreasing",
          {"sources": [dict(_SOURCE, time_function={"kind": "file", "path": "drive.csv"})]},
          "drive.csv: line 4", files={"drive.csv": _BACKWARDS}),
    _case("profile-file-decreasing",
          {"initcircuit": dict(_RING, profile={"kind": "file", "path": "profile.csv"})},
          "profile.csv: line 4", "initcircuit", files={"profile.csv": _BACKWARDS}),
    # a table too short to interpolate is refused at load, naming its file
    _case("drive-file-header-only",
          {"sources": [dict(_SOURCE, time_function={"kind": "file", "path": "drive.csv"})]},
          "drive.csv: a sample table needs at least 2 rows, got 0",
          files={"drive.csv": "time,value\n"}),
    _case("drive-file-one-row",
          {"sources": [dict(_SOURCE, time_function={"kind": "file", "path": "drive.csv"})]},
          "drive.csv: a sample table needs at least 2 rows, got 1",
          files={"drive.csv": "time,value\n0.0,1.0\n"}),
    _case("profile-file-header-only",
          {"initcircuit": dict(_RING, profile={"kind": "file", "path": "profile.csv"})},
          "profile.csv: a sample table needs at least 2 rows, got 0", "initcircuit",
          files={"profile.csv": "time,value\n"}),
    # a one-row profile, once taken for a constant, is refused too
    _case("profile-file-one-row",
          {"initcircuit": dict(_RING, profile={"kind": "file", "path": "profile.csv"})},
          "profile.csv: a sample table needs at least 2 rows, got 1", "initcircuit",
          files={"profile.csv": "time,value\n0.5,1.0\n"}),
    _case("material-file-one-row",
          {"material": {"family": "acoustic", "rho": {"kind": "file", "path": "rho.csv"},
                        "c": 1.0}},
          "rho.csv: a sample table needs at least 2 rows, got 1",
          files={"rho.csv": "time,value\n0.5,1.0\n"}),
    _case("location-fraction", {"sources": [dict(_SOURCE, location=[16.7])]},
          "sources[0].location"),
    _case("shape-fraction", {"grid": {"bounds": [[0.0, 1.0]], "shape": [3.7]}}, "grid.shape"),
    _case("shape-2^62", {"grid": {"bounds": [[0.0, 1.0]], "shape": [2**62]}}, "grid.shape"),
    _case("shape-2^63", {"grid": {"bounds": [[0.0, 1.0]], "shape": [2**63]}}, "grid.shape"),
    _case("bounds-infinite", {"grid": {"bounds": [[0.0, float("inf")]], "shape": [32]}},
          "grid.bounds must be a finite number"),
    # a spacing that underflows to zero ended in a ZeroDivisionError in the assembly
    _case("bounds-spacing-underflowing", {"grid": {"bounds": [[0.0, 5e-324]], "shape": [32]}},
          "grid.bounds[0] = [0.0, 5e-324] over 32 nodes gives the spacing 0.0,"),
    # the default step of a tiny spacing: too many steps, and the step reads as a float
    _case("bounds-steps-past-cell-updates", {"grid": {"bounds": [[0.0, 1e-300]], "shape": [32]}},
          "evolution.dt 1.4516129032258066e-302 and evolution.t_final 0.1 need 6.89e+300"),
    _case("indices-fraction", _measure({"kind": "indices", "indices": [1.5]}),
          "measurements[0].subspace.indices"),
    _case("indices-past-int64", _measure({"kind": "indices", "indices": [2**70]}),
          "measurements[0].subspace: index out of range"),
    _case("start-fraction", _measure({"kind": "dof_range", "start": 1.5, "stop": 4}),
          "measurements[0].subspace.start"),
    _case("stop-fraction", _measure({"kind": "dof_range", "start": 1, "stop": 4.5}),
          "measurements[0].subspace.stop"),
    _case("shots-fraction", {"estimator": {"mode": "shots", "shots": 1.5, "seed": 1}},
          "estimator.shots"),
    _case("shots-past-int64", {"estimator": {"mode": "shots", "shots": 2**70, "seed": 1}},
          "shots must fit the sampler's int64 range"),
    _case("shots-override-past-int64", {}, "shots must fit the sampler's int64 range",
          args=["--shots", str(2**70), "--seed", "1"]),
    _case("record-every-fraction", {"evolution": {"t_final": 0.1, "record_every": 2.5}},
          "evolution.record_every"),
    _case("radial-divisions-fraction", {"initcircuit": dict(_RING, radial_divisions=4.5)},
          "initcircuit.radial_divisions", "initcircuit"),
    # refused before any radius is built: unchecked, 2**70 radii grow until the process is killed
    _case("radial-divisions-past-address-range",
          {"initcircuit": dict(_RING, radial_divisions=2**70)},
          f"initcircuit.radial_divisions {2**70}: a register of", "initcircuit"),
    _case("center-one-number", {"initcircuit": dict(_RING, center=[0])}, "initcircuit.center",
          "initcircuit"),
    _case("center-infinite", {"initcircuit": dict(_RING, center=[float("inf"), 0.0])},
          "initcircuit.center", "initcircuit"),
    _case("center-true", {"initcircuit": dict(_RING, center=[True, 0.0])}, "initcircuit.center",
          "initcircuit"),
    _case("extent-nan", {"initcircuit": dict(_RING, extent=float("nan"))},
          "initcircuit.extent", "initcircuit"),
    _case("extent-infinite", {"initcircuit": dict(_RING, extent=float("inf"))},
          "initcircuit.extent", "initcircuit"),
    _case("ring-radius-infinite", _ring(radius=float("inf")), "initcircuit.profile.radius",
          "initcircuit"),
    _case("ring-radius-overflowing", _ring(radius=1e200), "initcircuit.profile.radius",
          "initcircuit"),
    _case("ring-radius-overflowing-negative", _ring(radius=-1e200), "initcircuit.profile.radius",
          "initcircuit"),
    _case("ring-radius-largest", _ring(radius=1e308), "initcircuit.profile.radius",
          "initcircuit"),
    _case("ring-width-nan", _ring(width=float("nan")), "initcircuit.profile.width",
          "initcircuit"),
    _case("ring-width-zero", _ring(width=0.0), "initcircuit.profile.width", "initcircuit"),
    _case("ring-amplitude-nan", _ring(amplitude=float("nan")), "initcircuit.profile.amplitude",
          "initcircuit"),
    _case("t-final-infinite", {"evolution": {"t_final": float("inf")}}, "evolution.t_final"),
    _case("t-start-nan", {"evolution": {"t_start": float("nan"), "t_final": 0.1}},
          "evolution.t_start"),
    _case("dt-nan", {"evolution": {"t_final": 0.1, "dt": float("nan")}}, "evolution.dt"),
    _case("dt-text", {"evolution": {"t_final": 0.1, "dt": "0.01"}}, "evolution.dt"),
    _case("initial-sigma-true", _initial(sigma=True), "initial.sigma"),
    _case("initial-sigma-nan", _initial(sigma=float("nan")), "initial.sigma"),
    _case("initial-sigma-overflowing", _initial(sigma=1e200), "initial.sigma"),
    _case("initial-sigma-underflowing", _initial(sigma=1e-200), "initial.sigma"),
    _case("initial-amplitude-infinite", _initial(amplitude=float("inf")), "initial.amplitude"),
    _case("initial-center-nan", _initial(center=[float("nan")]), "initial.center"),
    _case("pulse-sigma-true", _pulse(sigma=True), "sources[0].time_function.sigma"),
    _case("pulse-sigma-infinite", _pulse(sigma=float("inf")), "sources[0].time_function.sigma"),
    _case("pulse-center-nan", _pulse(center=float("nan")), "sources[0].time_function.center"),
    _case("pulse-amplitude-nan", _pulse(amplitude=float("nan")),
          "sources[0].time_function.amplitude"),
    _case("pulse-sigma-underflowing", _pulse(sigma=1e-200), "sources[0].time_function.sigma"),
    _case("pulse-sigma-overflowing", _pulse(sigma=1e200), "sources[0].time_function.sigma"),
    _case("pulse-times-collapsed", _pulse(center=1e10, sigma=1e-10),
          "sources[0].time_function.center, sources[0].time_function.sigma"),
    _case("ricker-frequency-overflowing", _pulse(kind="ricker", peak_frequency=1e300),
          "sources[0].time_function.peak_frequency"),
    _case("sine-frequency-overflowing",
          _pulse(kind="windowed_sine", frequency=1e308, t_start=0.0, duration=0.1),
          "sources[0].time_function.frequency"),
    _case("sine-duration-subnormal",
          _pulse(kind="windowed_sine", frequency=10.0, t_start=0.0, duration=1e-320),
          "sources[0].time_function.duration"),
    _case("ricker-delay-text",
          _pulse(kind="ricker", peak_frequency=20.0, delay="x"),
          "sources[0].time_function.delay"),
    _case("ricker-frequency-nan", _pulse(kind="ricker", peak_frequency=float("nan")),
          "sources[0].time_function.peak_frequency"),
    _case("sine-duration-infinite",
          _pulse(kind="windowed_sine", frequency=10.0, t_start=0.0, duration=float("inf")),
          "sources[0].time_function.duration"),
    _case("polarization-infinite", {"sources": [dict(_SOURCE, polarization=[float("inf"), 0.0])]},
          "sources[0].polarization"),
    _case("polarization-nan", {"sources": [dict(_SOURCE, polarization=[float("nan"), 0.0])]},
          "sources[0].polarization"),
    _case("background-nan",
          {"material": {"family": "acoustic", "c": 1.0,
                        "rho": {"kind": "piecewise", "background": float("nan"), "regions": []}}},
          "material.rho.background"),
    _case("rho-past-float-range", {"material": {"family": "acoustic", "rho": 10**400, "c": 1.0}},
          "material.rho must be a finite number"),
    _case("region-value-infinite",
          {"material": {"family": "acoustic", "c": 1.0,
                        "rho": {"kind": "piecewise", "background": 1.0,
                                "regions": [{"bounds": [[0.2, 0.4]], "value": float("inf")}]}}},
          "material.rho.regions[0].value"),
    _case("scalar-region-nan", _measure({"kind": "scalar_region", "bounds": [[float("nan"), 1.0]]}),
          "measurements[0].subspace.bounds"),
    _case("ring-width-overflowing", _ring(width=1e200), "initcircuit.profile.width",
          "initcircuit"),
    _case("ring-width-underflowing", _ring(width=1e-200), "initcircuit.profile.width",
          "initcircuit"),
    # finite coefficients whose derived weights or speed leave the float range: each
    # ended in a ZeroDivisionError, or in numpy warnings and a message naming no key
    _case("eps-mu-underflowing", _material("maxwell1d", eps=1e-200, mu=1e-200), "eps and mu"),
    _case("eps-mu-underflowing-initcircuit", _material("maxwell1d", eps=1e-200, mu=1e-200),
          "eps and mu", "initcircuit"),
    _case("eps-mu-overflowing", _material("maxwell1d", eps=1e200, mu=1e200), "eps and mu"),
    _case("c-squared-overflowing", _material("acoustic", rho=1.0, c=1e200), "rho and c"),
    _case("c-squared-underflowing", _material("acoustic", rho=1.0, c=1e-160), "rho and c"),
    # a grid and a material that each pass their checks, but whose default step
    # dx / c underflows to 0: the run divided by it
    _case("cfl-step-underflowing",
          {"grid": {"bounds": [[0.0, 1e-280]], "shape": [16]},
           **_material("acoustic", rho=1.0, c=1e50)},
          "the grid spacing 6.666666666666666e-282 over the largest wave speed 1e+50 "
          "underflows the stable leapfrog step to 0"),
]


@pytest.mark.parametrize("command, overrides, files, args, message", _MALFORMED)
def test_malformed_field_exits_one_naming_the_key(
    tmp_path, capsys, command, overrides, files, args, message
):
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    scenario = _write(tmp_path, _fast_doc(**overrides))
    out = tmp_path / "out"
    # pytest captures warnings instead of printing them, so stderr cannot show one
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([command, "--scenario", str(scenario), "--out", str(out), *args]) == 1
    err = capsys.readouterr().err
    assert "qwavesim: validation error:" in err
    assert message in err
    assert "Traceback" not in err
    assert "np." not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


# each mutated leaf takes one of these; a grid.shape entry never takes 2**31
# or 2**63, whose node tables (16 GiB at 2**31) fit in some hosts' memory
_MUTANTS = (0, -1, 0.5, 1e308, 5e-324, 1e-300, -0.0, 2**63, 2**31, "x", True, None, [], {},
            [1.0, 2.0, 3.0])
_SHIPPED_RUNS = (("acoustic_demo", "simulate"), ("acoustic_demo", "presim"),
                 ("driven_boundary_demo", "simulate"), ("initcircuit_demo", "initcircuit"))


def _leaves(node, path=()):
    """The path of every leaf of a JSON value: scalars, nulls and empty containers."""
    if node and isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(value, path + (key,))
    else:
        yield path


@st.composite
def _mutated_runs(draw):
    """A shipped scenario, the command it runs, and one or two of its leaves replaced."""
    name, command = draw(st.sampled_from(_SHIPPED_RUNS))
    leaves = list(_leaves(json.loads((SCENARIOS / f"{name}.json").read_text())))
    paths = draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=2, unique=True))
    mutations = []
    for path in paths:
        values = _MUTANTS
        if path[:2] == ("grid", "shape"):
            values = [v for v in _MUTANTS if v not in (2**31, 2**63)]
        mutations.append((path, draw(st.sampled_from(values))))
    return name, command, tuple(mutations)


@example(run=("acoustic_demo", "simulate", ((("grid", "bounds", 0, 1), 5e-324),)))
@given(run=_mutated_runs())
def test_a_mutated_shipped_scenario_ends_on_the_contract(run):
    # exit 0, 1 or 2 with no traceback, and no output directory unless it exits 0
    name, command, mutations = run
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    for path, value in mutations:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("QWAVESIM_OUTPUT_DIR", None)
        scenario = _write(Path(tmp), doc)
        work = Path(tmp) / "work"
        work.mkdir()
        err = io.StringIO()
        home = os.getcwd()
        os.chdir(work)  # a relative output_dir lands in work
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([command, "--scenario", str(scenario)])
        finally:
            os.chdir(home)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert not any(work.iterdir())


# one scenario holding every kind of object the loader reads
_EVERY_OBJECT = _fast_doc(
    material={"family": "acoustic", "c": {"kind": "file", "path": "c.csv"},
              "rho": {"kind": "piecewise", "background": 1.0,
                      "regions": [{"bounds": [[0.2, 0.4]], "value": 2.0}]}},
    boundaries={"left": {"kind": "dirichlet",
                         "data": {"times": [0.0, 1.0], "values": [0.0, 0.5]}}},
    sources=[dict(_SOURCE, decompose={"radius": 0.45, "c": 1.0, "rho": 1.0})],
    measurements=[{"name": "m", "subspace": {"kind": "dof_range", "start": 0, "stop": 4}}],
    estimator={"mode": "exact"},
    initcircuit=_RING,
)


def _bad(case_id, where, key, value, message):
    """A case setting key to value in the object at the path where (a tuple of keys)."""
    return pytest.param(where, key, value, message, id=case_id)


_MISSPELLED = [
    _bad("top-level", (), "output_dri", "out", "unknown top-level keys ['output_dri']"),
    _bad("grid", ("grid",), "nodes", 32, "'grid.nodes'"),
    _bad("material", ("material",), "density", 1.0, "'material.density'"),
    _bad("piecewise", ("material", "rho"), "default", 1.0, "'material.rho.default'"),
    _bad("file-coefficient", ("material", "c"), "column", 1, "'material.c.column'"),
    _bad("region", ("material", "rho", "regions", 0), "weight", 1.0,
         "'material.rho.regions[0].weight'"),
    _bad("boundary-side", ("boundaries", "left"), "dat", {"times": [0.0, 1.0], "values": [0, 1]},
         "'boundaries.left.dat'"),
    _bad("wall-data", ("boundaries", "left", "data"), "time", [0.0, 1.0],
         "'boundaries.left.data.time'"),
    _bad("initial", ("initial",), "amplitdue", 2.0, "'initial.amplitdue'"),
    _bad("source", ("sources", 0), "decompse", {}, "'sources[0].decompse'"),
    _bad("time-function", ("sources", 0, "time_function"), "amplitdue", 2.0,
         "'sources[0].time_function.amplitdue'"),
    _bad("decompose", ("sources", 0, "decompose"), "steepnes", 4.0,
         "'sources[0].decompose.steepnes'"),
    _bad("evolution", ("evolution",), "record_evry", 2, "'evolution.record_evry'"),
    _bad("measurement", ("measurements", 0), "descripton", "x", "'measurements[0].descripton'"),
    _bad("subspace", ("measurements", 0, "subspace"), "stpo", 8,
         "'measurements[0].subspace.stpo'"),
    _bad("estimator", ("estimator",), "sed", 3, "'estimator.sed'"),
    _bad("initcircuit", ("initcircuit",), "centre", [0.0, 0.0], "'initcircuit.centre'"),
    _bad("profile", ("initcircuit", "profile"), "amplitdue", 2.0,
         "'initcircuit.profile.amplitdue'"),
    _bad("bounds-text", ("grid",), "bounds", [["0", 1.0]], "grid.bounds must be a finite number"),
    _bad("bounds-true", ("grid",), "bounds", [[0.0, True]], "grid.bounds must be a finite number"),
    _bad("wall-text", ("boundaries", "left", "data"), "times", ["0", 1.0],
         "boundaries.left.data.times must be a finite number"),
    _bad("wall-true", ("boundaries", "left", "data"), "values", [0.0, True],
         "boundaries.left.data.values must be a finite number"),
]


@pytest.mark.parametrize("where, key, value, message", _MISSPELLED)
def test_an_unknown_key_or_a_mistyped_number_exits_one_naming_its_path(
    tmp_path, capsys, where, key, value, message
):
    (tmp_path / "c.csv").write_text("time,value\n0.0,1.0\n1.0,1.5\n")
    doc = json.loads(json.dumps(_EVERY_OBJECT))
    q.load_scenario(_write(tmp_path, doc))  # valid before the edit
    target = doc
    for step in where:
        target = target[step]
    target[key] = value
    scenario = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qwavesim: validation error:") and message in err
    assert not out.exists()


def _set_in_sidecar(where, key, value):
    def edit(sidecar):
        (sidecar[where] if where else sidecar)[key] = value

    return edit


@pytest.mark.parametrize(
    "where, key, value, message",
    [
        ("", "version", 1, "unknown top-level keys ['version']"),
        ("layout", "arty", 1, "'layout.arty'"),
        ("", "scale", "2.5", "scale must be a finite number, got '2.5'"),
        ("layout", "num_physical", 63.9, "layout.num_physical: expected an integer, got 63.9"),
        ("layout", "arity", True, "layout.arity: expected an integer, got True"),
        ("layout", "augmented", "false", "layout.augmented must be true or false, got 'false'"),
    ],
    ids=["top-level", "layout", "scale-text", "num-physical-fraction", "arity-true",
         "augmented-text"],
)
def test_a_malformed_state_sidecar_exits_one_naming_its_path(
    tmp_path, capsys, where, key, value, message
):
    assert _measure_with_state(tmp_path, ["0,0.6,0.0"], _set_in_sidecar(where, key, value)) == 1
    err = capsys.readouterr().err
    sidecar = f"{tmp_path / 'state.csv'}: bad state sidecar"
    assert err.startswith(f"qwavesim: validation error: {sidecar}")
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("amplitude, message", [(1e200, "overflows"), (1e-200, "underflows")])
def test_ring_whose_norm_leaves_float64_exits_one_without_warnings(
    tmp_path, capsys, amplitude, message
):
    # every sample is a finite nonzero double; only their squares leave the range
    ring = dict(_RING, radial_divisions=8, profile=dict(_RING["profile"], amplitude=amplitude))
    scenario = _write(tmp_path, _fast_doc(initcircuit=ring))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["initcircuit", "--scenario", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "qwavesim: validation error:" in err
    assert f"reference ray: the sum of squared samples {message} float64" in err
    assert "Warning" not in err and "Traceback" not in err
    assert not out.exists()


def test_grid_out_of_memory_exits_one_naming_the_shape(tmp_path, capsys, monkeypatch):
    # a shape that passes the address check may still not fit in memory; the
    # allocation failure is faked, since a real one could exhaust the host
    def exhausted(bounds, shape):
        raise MemoryError

    monkeypatch.setattr(q.scenario, "build_grid", exhausted)
    scenario = _write(tmp_path, _fast_doc())
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "qwavesim: validation error:" in err
    assert "grid.shape" in err and "memory" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_integral_floats_are_valid_integer_fields(tmp_path):
    def doc(number):
        return _base(
            grid={"bounds": [[0.0, 1.0]], "shape": [number(32)]},
            sources=[dict(_SOURCE, location=[number(16)])],
            evolution={"t_final": 0.1, "record_every": number(2)},
            measurements=[
                {"name": "a", "subspace": {"kind": "indices", "indices": [number(10)]}},
                {"name": "b", "subspace": {"kind": "dof_range", "start": number(1),
                                           "stop": number(4)}},
            ],
            estimator={"mode": "shots", "shots": number(100), "seed": 3},
        )

    as_int = q.load_scenario(_write(tmp_path, doc(int), "int.json"))
    as_float = q.load_scenario(_write(tmp_path, doc(float), "float.json"))
    assert as_float.grid.shape == as_int.grid.shape == (32,)
    assert as_float.sources[0].source.location == (16,)
    assert as_float.record_every == 2 and as_float.estimator.shots == 100
    for a, b in zip(as_int.measurements, as_float.measurements):
        np.testing.assert_array_equal(a.projector.mask, b.projector.mask)


def test_presim_writes_slices_and_an_index(tmp_path, capsys):
    out = tmp_path / "pre"
    rc = cli.main(
        ["presim", "--scenario", str(SCENARIOS / "acoustic_demo.json"), "--out", str(out)]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    index = json.loads((out / "presim.json").read_text())
    entry = index["sources"][0]
    assert entry["mode"] == "decompose"
    assert entry["basis"] == "box"  # the demo's medium is homogeneous, its walls natural
    slices = entry["slices"]
    assert len(slices) >= 2
    for part in slices:
        assert (out / part["file"]).exists()
        assert part["support_radius"] > 0.0
    ends = [part["t_end"] for part in slices]
    assert ends == sorted(ends)
    assert f"presim: wrote {len(slices) + 1} files" in stdout


def test_presim_of_a_source_without_decompose_is_one_whole_pulse(tmp_path, capsys):
    # no decompose block: the pulse is integrated by leapfrog over its support, in one piece
    pulse = {"kind": "gaussian", "center": 0.04, "sigma": 0.005}
    doc = _fast_doc(
        grid={"bounds": [[0.0, 1.0]], "shape": [128]},
        sources=[{"location": [64], "polarization": [1.0, 0.0], "time_function": pulse}],
    )
    scenario = _write(tmp_path, doc)
    out = tmp_path / "pre"
    assert cli.main(["presim", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert f"presim: wrote 2 files to {out}" in capsys.readouterr().out
    index = json.loads((out / "presim.json").read_text())
    sc = q.load_scenario(scenario)
    whole = q.presimulate_pulse(sc.sources[0].source, sc.system, dt=sc.dt)
    assert index == {"sources": [{"source": 0, "mode": "presimulate", "basis": None, "slices": [{
        "file": "presim0_slice0.csv", "t_end": whole.t_end,
        "support_radius": whole.support_radius, "nonzero_count": whole.nonzero_count,
    }]}]}
    assert whole.t_end == pytest.approx(0.04 + 7 * 0.005)
    assert 0 < whole.nonzero_count < sc.n_unknowns
    assert (out / "presim0_slice0.csv").exists()


def test_presim_holds_a_driven_wall_at_its_homogeneous_value(tmp_path, capsys):
    # the pulse alone drives its pre-simulation, as in a decompose slice: the
    # wall's data belong to simulate, and the left wall driven or grounded
    # gives the same compact field to the byte
    doc = json.loads((SCENARIOS / "driven_boundary_demo.json").read_text())
    pulse = {"kind": "gaussian", "center": 0.1, "sigma": 0.01}
    doc["sources"] = [{"location": [64], "polarization": [1.0, 0.0], "time_function": pulse}]
    slices = []
    for name, left in (("driven", doc["boundaries"]["left"]), ("grounded", "dirichlet")):
        doc["boundaries"]["left"] = left
        out = tmp_path / name
        scenario = _write(tmp_path, doc, f"{name}.json")
        assert cli.main(["presim", "--scenario", str(scenario), "--out", str(out)]) == 0
        slices.append((out / "presim0_slice0.csv").read_bytes())
    assert slices[0] == slices[1]


def test_simulate_takes_a_large_generator_whose_defect_is_rounding(tmp_path, capsys):
    # K = B^{-1/2} A B^{-1/2} of this medium has max|K| about 4.1e4 and an
    # antisymmetry defect of about 1.5e-11, which is rounding: 3.6e-16 of max|K|
    x = np.linspace(0.0, 1.0, 4096).tolist()
    rho = (1.0 + 0.3 * np.sin(37.0 * np.array(x))).tolist()
    (tmp_path / "rho.csv").write_text("time,value\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x, rho)))
    doc = _fast_doc(
        grid={"bounds": [[0.0, 1.0]], "shape": [4096]},
        material={"family": "acoustic", "rho": {"kind": "file", "path": "rho.csv"}, "c": 10.0},
        evolution={"t_final": 0.001, "record_every": 1000},
    )
    scenario = _write(tmp_path, doc)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert f"simulate: wrote 5 files to {out}" in capsys.readouterr().out
    ham = q.build_hamiltonian(q.load_scenario(scenario).system)
    assert ham.hermiticity_defect() > 1e-11  # what a bound of 1e-12 on the entries refused
    assert ham.hermiticity_defect() < 1e-15 * ham.maxnorm


def test_presim_without_sources_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "pre"
    rc = cli.main(
        ["presim", "--scenario", str(SCENARIOS / "initcircuit_demo.json"), "--out", str(out)]
    )
    assert rc == 1
    assert "no sources" in capsys.readouterr().err
    assert not out.exists()


def test_initcircuit_command_reports_fidelity(tmp_path, capsys):
    out = tmp_path / "circ"
    rc = cli.main(
        ["initcircuit", "--scenario", str(SCENARIOS / "initcircuit_demo.json"),
         "--out", str(out)]
    )
    assert rc == 0
    assert "initcircuit: wrote 2 files" in capsys.readouterr().out
    report = json.loads((out / "initcircuit_report.json").read_text())
    assert report["fidelity"] >= 1.0 - 1e-10
    assert report["ray_evaluations"] == 8
    assert report["direct_evaluations"] == 64
    assert report["covariance_defect"] < 1e-10
    circuit = json.loads((out / "circuit.json").read_text())
    assert circuit["register"] == {
        "component_qubits": 1,
        "radial_qubits": 3,
        "angular_qubits": 3,
    }
    kinds = [g["kind"] for g in circuit["gates"]]
    assert kinds == ["prep", "h", "h", "h", "crot", "crot", "crot"]


def test_failed_simulate_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "nothing"
    rc = cli.main(
        ["simulate", "--scenario", str(SCENARIOS / "initcircuit_demo.json"),
         "--out", str(out)]
    )
    assert rc == 1
    assert "qwavesim: validation error:" in capsys.readouterr().err
    assert not out.exists()


def test_shot_override_switches_the_estimator(tmp_path):
    doc = _fast_doc(
        measurements=[{"name": "m", "subspace": {"kind": "dof_range", "start": 0, "stop": 32}}]
    )
    p = _write(tmp_path, doc)
    out = tmp_path / "shots"
    rc = cli.main(
        ["simulate", "--scenario", str(p), "--out", str(out), "--shots", "512", "--seed", "9"]
    )
    assert rc == 0
    meas = json.loads((out / "measurement_m.json").read_text())
    assert meas["mode"] == "shots"
    assert meas["shots"] == 512
    assert meas["stderr"] > 0.0


def test_shot_override_without_a_seed_is_refused(tmp_path, capsys):
    p = _write(tmp_path, _fast_doc())
    rc = cli.main(["simulate", "--scenario", str(p), "--out", str(tmp_path / "x"),
                   "--shots", "512"])
    assert rc == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, demo, args, forked",
    [
        ("simulate", "driven_boundary_demo", [], False),
        ("presim", "acoustic_demo", [], False),
        ("initcircuit", "initcircuit_demo", [], False),
        ("measure", "driven_boundary_demo", ["--shots", "1000", "--seed", "3"], False),
        ("simulate", "acoustic_demo", [], False),
        ("simulate", "driven_boundary_demo", [], True),
        ("presim", "acoustic_demo", [], True),
    ],
    ids=["simulate", "presim", "initcircuit", "measure", "simulate-point-source",
         "simulate-forked", "presim-forked"],
)
def test_outputs_are_byte_for_byte_deterministic(
    tmp_path, monkeypatch, command, demo, args, forked
):
    # every command promises byte-identical reruns, not only simulate; a
    # forked rerun cuts each table into parts of 3 rows over 4 processes
    demo = str(SCENARIOS / f"{demo}.json")
    if command == "measure":
        stored = tmp_path / "stored"
        assert cli.main(["simulate", "--scenario", demo, "--out", str(stored)]) == 0
        args = [*args, "--state", str(stored / "state.csv")]
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert cli.main([command, "--scenario", demo, "--out", str(first), *args]) == 0
    pids, fork = [], getattr(os, "fork", None)
    if forked:
        if not (fork and hasattr(os, "sched_getaffinity")):
            pytest.skip("needs os.fork")
        monkeypatch.setattr(q.io, "_ROWS_PER_PART", 3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
    assert cli.main([command, "--scenario", demo, "--out", str(second), *args]) == 0
    assert bool(pids) == forked
    names = sorted(p.name for p in first.iterdir())
    assert names
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_output_directory_precedence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QWAVESIM_OUTPUT_DIR", raising=False)
    with_dir = _write(tmp_path, _fast_doc(output_dir="scen-dir"), "with_dir.json")
    without = _write(tmp_path, _fast_doc(), "without.json")

    assert cli.main(["simulate", "--scenario", str(with_dir), "--out", "cli-dir"]) == 0
    assert (tmp_path / "cli-dir").is_dir()
    assert not (tmp_path / "scen-dir").exists()

    monkeypatch.setenv("QWAVESIM_OUTPUT_DIR", "env-dir")
    assert cli.main(["simulate", "--scenario", str(with_dir)]) == 0
    assert (tmp_path / "scen-dir").is_dir()
    assert not (tmp_path / "env-dir").exists()

    assert cli.main(["simulate", "--scenario", str(without)]) == 0
    assert (tmp_path / "env-dir").is_dir()

    monkeypatch.delenv("QWAVESIM_OUTPUT_DIR")
    assert cli.main(["simulate", "--scenario", str(without)]) == 0
    assert (tmp_path / "qwavesim-output").is_dir()


@pytest.mark.parametrize("command", ["presim", "initcircuit"])
@pytest.mark.parametrize("flag", [["--seed", "3"], ["--shots", "5"]])
def test_commands_that_estimate_nothing_take_no_estimator_flags(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    demo = str(SCENARIOS / "acoustic_demo.json")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--scenario", demo, "--out", str(out), *flag])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_the_readme_usage_block_lists_every_flag_of_every_command():
    # the documented usage cannot go stale: a flag added to or removed from
    # the parser must be added to or removed from the README too
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    documented = {}
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        if words and words[0] == "qwavesim":
            tokens = (w.strip("[]") for w in words[2:])
            documented[words[1]] = {w for w in tokens if w.startswith("--")}
    (commands,) = [a for a in cli._build_parser()._actions if a.choices and a.dest == "command"]
    flags = {
        name: {o for a in sub._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, sub in commands.choices.items()
    }
    assert documented == flags
    suites = block.split("SUITE", 1)[1].replace("#", " ").replace("|", " ").split()
    assert sorted(suites) == sorted(checks.SUITES)


def test_usage_problems_exit_with_code_one():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 1


def test_the_initcircuit_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # at 256 radial divisions the direct state holds 131,072 values, past the
    # 10,000 at which OpenBLAS splits a dot over its threads
    doc = json.loads((SCENARIOS / "initcircuit_demo.json").read_text())
    doc["initcircuit"]["radial_divisions"] = 256
    scenario = _write(tmp_path, doc)
    src = str(Path(q.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "qwavesim", "initcircuit", "--scenario", str(scenario),
             "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        reports.append((out / "initcircuit_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_python_dash_m_runs_the_cli():
    src = str(Path(q.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "qwavesim", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage: qwavesim" in done.stdout


def _ricker_peak_1e_300(doc):
    doc["sources"][0]["time_function"] = {"kind": "ricker", "peak_frequency": 1e-300}


def _dt_1e_300(doc):
    doc["evolution"]["dt"] = 1e-300


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("presim", _ricker_peak_1e_300,
         "sources[0].time_function and sources[0].decompose.radius: 5.73e+301 windows"),
        ("simulate", _dt_1e_300,
         "evolution.dt 1e-300 and evolution.t_final 0.55 need 5.5e+299 leapfrog steps"),
    ],
    ids=["presim-windows", "simulate-steps"],
)
def test_a_count_too_large_to_address_is_refused_at_once(tmp_path, command, edit, message):
    # the support (or span) is ~1e300 windows (or steps) long: unchecked, the
    # run would build or loop over them until memory or time ran out, so it
    # runs in a child process under a timeout and an address-space limit
    resource = pytest.importorskip("resource")
    doc = json.loads((SCENARIOS / "acoustic_demo.json").read_text())
    edit(doc)
    scenario = _write(tmp_path, doc)
    src = str(Path(q.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    limit = 2 << 30

    done = subprocess.run(
        [sys.executable, "-m", "qwavesim", command, "--scenario", str(scenario),
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 1, done.stderr
    assert "qwavesim: validation error:" in done.stderr
    assert message in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "key, message",
    [
        ("block_dim", "layout.block_dim 1099511627776 is not 64, the next power of two of "
                      "layout.num_physical 63"),
        ("arity", "layout.block_dim 64 x layout.arity 1099511627776 = total_dim "
                  "70368744177664 amplitudes cannot be allocated"),
    ],
)
def test_a_state_layout_too_large_to_allocate_is_refused(tmp_path, key, message):
    # unchecked, a sidecar count of 2**40 sized an index count of 2**40 or
    # more and ended in a MemoryError traceback, so this runs in a child
    # process under an address-space limit
    resource = pytest.importorskip("resource")
    scenario = _write(
        tmp_path,
        _base(measurements=[{"name": "m", "subspace": {"kind": "dof_range", "start": 0, "stop": 4}}]),
    )
    state = tmp_path / "state.csv"
    state.write_text("index,real,imag\n0,1.0,0.0\n")
    layout = {"num_physical": 63, "block_dim": 64, "arity": 1, "augmented": False, key: 2**40}
    sidecar = Path(f"{state}.json")
    sidecar.write_text(json.dumps({"scale": 1.0, "layout": layout}))
    src = str(Path(q.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    limit = 2 << 30

    done = subprocess.run(
        [sys.executable, "-m", "qwavesim", "measure", "--scenario", str(scenario),
         "--state", str(state), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr == f"qwavesim: validation error: {sidecar}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_an_evolution_past_the_work_bound_is_refused_at_load(tmp_path, capsys, monkeypatch):
    # 5.5e11 leapfrog steps of 255 unknowns pass every per-value check, and
    # their count fits an integer; the work bound refuses them before any step
    def started(*args, **kwargs):
        raise AssertionError("the leapfrog started")

    monkeypatch.setattr(cli, "leapfrog_evolve", started)
    doc = json.loads((SCENARIOS / "acoustic_demo.json").read_text())
    doc["evolution"]["dt"] = 1e-12
    scenario = _write(tmp_path, doc)
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert err == (
        f"qwavesim: validation error: {scenario}: evolution.dt 1e-12 and evolution.t_final "
        "0.55 need 5.5e+11 leapfrog steps of 255 unknowns, 1.4e+14 cell updates, above 1e+10\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_verify_suites_pass(suite, capsys):
    assert cli.main(["verify", suite]) == 0
    out = capsys.readouterr().out
    assert f"suite {suite}: all checks passed" in out
    assert "FAIL" not in out


def test_verify_reports_a_missed_tolerance_with_exit_code_two(monkeypatch, capsys):
    (name, _, tol), *rest = checks.conservation()
    for excess in (1.0, float("nan")):  # a NaN value fails too
        monkeypatch.setitem(
            checks.SUITES, "conservation", (lambda: [(name, tol + excess, tol), *rest],)
        )
        assert cli.main(["verify", "conservation"]) == 2
        captured = capsys.readouterr()
        assert "norm drift over 5 crossings" in captured.out
        assert "FAIL" in captured.out
        assert "all checks passed" not in captured.out
        assert "numerical failure: suite conservation: 1 of 2 checks failed" in captured.err


def test_registry_row_names_are_unique_and_tolerances_finite():
    # a duplicate name would hide one printed line
    rows = [row for suite in checks.SUITES.values() for check in suite for row in check()]
    names = [name for name, _, _ in rows]
    assert len(set(names)) == len(names)
    for name, _, tol in rows:
        assert isinstance(tol, float) and np.isfinite(tol) and tol >= 0.0, name
