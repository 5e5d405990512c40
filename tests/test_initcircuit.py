import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qwavesim as q
from qwavesim.errors import InitCircuitError


def _radial_field(profile):
    """Covariant planar field on (..., 2) points: magnitude profile(r), radially outward."""

    def field(x):
        r = np.hypot(x[..., 0], x[..., 1])[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = profile(r) * x / r
        return np.where(r == 0.0, 0.0, w)

    return field


def _angle(spec, k):
    """Angle k of a spec, one point at a time: the reference for angles()."""
    return np.pi * k / spec.angular_divisions


def _point(spec, a, k):
    """Grid point (a, k) of a spec, one point at a time: the reference for points()."""
    th, r = _angle(spec, k), spec.radii[a]
    return np.array([spec.center[0] + r * np.cos(th), spec.center[1] + r * np.sin(th)])


def test_uniform_spec_radii_and_angles():
    spec = q.PolarGridSpec.uniform(4, extent=1.0)
    assert spec.radii == (0.25, 0.5, 0.75, 1.0)
    assert spec.angular_divisions == 4
    assert spec.n_points == 16
    assert spec.angles()[0] == 0.0
    assert spec.angles()[2] == pytest.approx(np.pi / 2)
    np.testing.assert_allclose(spec.points()[3, 2], [0.0, 1.0], atol=1e-15)


def test_spec_validation():
    with pytest.raises(InitCircuitError):
        q.PolarGridSpec.uniform(3, extent=1.0)
    with pytest.raises(InitCircuitError):
        q.PolarGridSpec.uniform(4, extent=-1.0)
    with pytest.raises(InitCircuitError):
        q.PolarGridSpec.uniform(4, extent=float("nan"))
    with pytest.raises(InitCircuitError):
        q.PolarGridSpec.uniform(4, extent=float("inf"))
    with pytest.raises(InitCircuitError):
        q.PolarGridSpec(radial_divisions=2, center=(0.0, 0.0), radii=(0.5, 0.25))


def test_reference_ray_samples_theta_zero_once_per_radius():
    spec = q.PolarGridSpec.uniform(4, extent=1.0)
    ray = q.sample_reference_ray(_radial_field(lambda r: 4.0 * r), spec)
    assert ray.eval_count == 4
    np.testing.assert_allclose(ray.values[0], [1.0, 2.0, 3.0, 4.0], atol=1e-14)
    np.testing.assert_allclose(ray.values[1], 0.0, atol=1e-14)
    assert ray.norm == pytest.approx(np.sqrt(30.0))


def test_constant_magnitude_ray_statevector():
    spec = q.PolarGridSpec.uniform(2, extent=1.0)
    ray = q.sample_reference_ray(_radial_field(lambda r: 1.0), spec)
    np.testing.assert_allclose(
        ray.statevector(), [1.0, 1.0, 0.0, 0.0] / np.sqrt(2.0), atol=1e-15
    )


def test_zero_ray_is_refused():
    spec = q.PolarGridSpec.uniform(2, extent=1.0)
    with pytest.raises(InitCircuitError):
        q.sample_reference_ray(np.zeros_like, spec)
    with pytest.raises(InitCircuitError):
        q.direct_polar_state(np.zeros_like, spec)


def test_circuit_gate_inventory():
    spec = q.PolarGridSpec.uniform(8, extent=1.0)
    circ = q.build_circuit(spec)
    kinds = [g.kind for g in circ.gates]
    assert kinds == ["prep", "h", "h", "h", "crot", "crot", "crot"]
    angles = [g.angle for g in circ.gates if g.kind == "crot"]
    np.testing.assert_allclose(angles, [np.pi / 2, np.pi / 4, np.pi / 8])
    assert circ.n_qubits == 1 + 3 + 3
    assert circ.min_rotation_angle == pytest.approx(np.pi / 8)


def test_two_division_circuit_is_minimal():
    circ = q.build_circuit(q.PolarGridSpec.uniform(2, extent=1.0))
    assert [g.kind for g in circ.gates] == ["prep", "h", "crot"]
    assert circ.gates[-1].angle == pytest.approx(np.pi / 2)
    assert circ.min_rotation_angle == pytest.approx(np.pi / 2)


def test_gate_validation():
    with pytest.raises(InitCircuitError):
        q.Gate(kind="swap", qubits=(0, 1))
    with pytest.raises(InitCircuitError):
        q.Gate(kind="crot", qubits=(0,), angle=0.5)
    with pytest.raises(InitCircuitError):
        q.Gate(kind="crot", qubits=(0, 1))


def test_angular_blocks_carry_binary_cumulative_rotations():
    # Angular index k must see the ray rotated by exactly pi k / Theta.
    spec = q.PolarGridSpec.uniform(8, extent=1.0)
    field = _radial_field(lambda r: np.exp(-3.0 * r))
    ray = q.sample_reference_ray(field, spec)
    state = q.simulate_circuit(q.build_circuit(spec), ray)
    theta_n = spec.angular_divisions
    grid = (state.amplitudes * state.scale).reshape(2, 8, theta_n)
    for k, th in enumerate(spec.angles()):
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        np.testing.assert_allclose(grid[:, :, k], rot @ ray.values, atol=1e-12)


def test_angular_index_zero_reproduces_the_ray():
    spec = q.PolarGridSpec.uniform(4, extent=1.0)
    field = _radial_field(lambda r: 1.0 + r**2)
    ray = q.sample_reference_ray(field, spec)
    state = q.simulate_circuit(q.build_circuit(spec), ray)
    grid = (state.amplitudes * state.scale).reshape(2, 4, 4)
    np.testing.assert_allclose(grid[:, :, 0], ray.values, atol=1e-12)


def test_quarter_turn_block_swaps_components():
    spec = q.PolarGridSpec.uniform(4, extent=1.0)
    field = _radial_field(lambda r: r)
    ray = q.sample_reference_ray(field, spec)
    state = q.simulate_circuit(q.build_circuit(spec), ray)
    grid = (state.amplitudes * state.scale).reshape(2, 4, 4)
    # k = 2 is theta = pi/2: (f(r), 0) becomes (0, f(r))
    np.testing.assert_allclose(grid[0, :, 2], 0.0, atol=1e-12)
    np.testing.assert_allclose(grid[1, :, 2], ray.values[0], atol=1e-12)


def test_amplitude_magnitude_is_uniform_over_angles():
    spec = q.PolarGridSpec.uniform(8, extent=1.0)
    field = _radial_field(lambda r: np.sin(5.0 * r) + 1.5)
    ray = q.sample_reference_ray(field, spec)
    state = q.simulate_circuit(q.build_circuit(spec), ray)
    mags = np.abs(state.amplitudes.reshape(2, 8, 8)) ** 2
    per_angle = mags.sum(axis=0)  # (radial, angular)
    for a in range(8):
        np.testing.assert_allclose(per_angle[a], per_angle[a, 0], atol=1e-13)


def test_circuit_matches_direct_construction(rng):
    for a_n in (2, 4, 8):
        spec = q.PolarGridSpec.uniform(a_n, extent=1.0)
        for _ in range(3):
            coeffs = rng.normal(size=3)

            def profile(r):
                return coeffs[0] + coeffs[1] * r + coeffs[2] * r**2

            field = _radial_field(profile)
            ray = q.sample_reference_ray(field, spec)
            assert ray.eval_count == a_n
            prepared = q.simulate_circuit(q.build_circuit(spec), ray)
            direct, count = q.direct_polar_state(field, spec)
            assert count == a_n * a_n
            assert q.fidelity(prepared, direct) >= 1.0 - 1e-10
            assert prepared.scale == pytest.approx(direct.scale, rel=1e-10)


def test_scale_ties_ray_norm_to_grid_norm():
    spec = q.PolarGridSpec.uniform(4, extent=1.0)
    field = _radial_field(lambda r: r)
    ray = q.sample_reference_ray(field, spec)
    state = q.simulate_circuit(q.build_circuit(spec), ray)
    assert state.scale == pytest.approx(ray.norm * 2.0, rel=1e-14)


def test_covariant_field_has_negligible_defect():
    spec = q.PolarGridSpec.uniform(8, extent=1.0)
    field = _radial_field(lambda r: np.cos(2.0 * r))
    assert q.covariance_defect(field, spec) < 1e-12


def test_non_covariant_field_is_detected():
    spec = q.PolarGridSpec.uniform(4, extent=1.0)
    defect = q.covariance_defect(lambda x: np.broadcast_to([1.0, 0.0], x.shape), spec)
    assert defect > 0.5


def test_fidelity_requires_matching_registers():
    spec2 = q.PolarGridSpec.uniform(2, extent=1.0)
    spec4 = q.PolarGridSpec.uniform(4, extent=1.0)
    field = _radial_field(lambda r: r)
    a = q.simulate_circuit(q.build_circuit(spec2), q.sample_reference_ray(field, spec2))
    b = q.simulate_circuit(q.build_circuit(spec4), q.sample_reference_ray(field, spec4))
    with pytest.raises(InitCircuitError):
        q.fidelity(a, b)


# ---------------------------------------------------------------------------
# whole-table evaluation


def _per_point_profile_field(center, magnitude):
    """The scenario field as it was evaluated before tables: one point at a time."""
    c = np.asarray(center)

    def field(x):
        d = np.asarray(x, dtype=np.float64) - c
        r = float(np.linalg.norm(d))
        if r == 0.0:
            return np.zeros(2)
        return magnitude(r) * d / r

    return field


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


_coord = st.floats(-1.0, 1.0, allow_nan=False)


@given(
    divisions=st.sampled_from([2, 8, 32]),
    extent=st.floats(0.05, 3.0),
    center=st.tuples(_coord, _coord),
    extra=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)), max_size=8),
    ring=st.tuples(st.floats(-1.0, 2.0), st.floats(0.01, 2.0), st.floats(-3.0, 3.0)),
    table=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6, unique=True),
    samples=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    kind=st.sampled_from(["gaussian_ring", "file"]),
)
def test_radial_field_table_is_bit_equal_to_per_point_evaluation(
    tmp_path_factory, divisions, extent, center, extra, ring, table, samples, kind
):
    base = tmp_path_factory.mktemp("profile")
    if kind == "gaussian_ring":
        r0, width, amplitude = ring
        profile = {"kind": kind, "radius": r0, "width": width, "amplitude": amplitude}

        def magnitude(r):
            return amplitude * float(np.exp(-((r - r0) ** 2) / (2.0 * width**2)))
    else:
        radii, values = np.sort(table), np.asarray(samples[: len(table)])
        rows = "".join(f"{x!r},{v!r}\n" for x, v in zip(radii.tolist(), values.tolist()))
        (base / "profile.csv").write_text("time,value\n" + rows)
        profile = {"kind": kind, "path": "profile.csv"}

        def magnitude(r):
            return float(np.interp(r, radii, values))

    raw = {"initcircuit": {"radial_divisions": divisions, "extent": extent,
                           "center": list(center), "profile": profile}}
    parsed = q.scenario._parse_initcircuit(q.io.JsonObject(raw), base)
    assert isinstance(parsed.field, q.RadialField)
    reference = _per_point_profile_field(center, magnitude)
    # grid points (radii past the tabulated range included), the center, and stray points
    points = np.concatenate(
        [parsed.spec.points().reshape(-1, 2), [center], np.asarray(extra).reshape(-1, 2)]
    )
    expected = np.array([reference(x) for x in points])
    np.testing.assert_array_equal(_bits(parsed.field(points)), _bits(expected))
    np.testing.assert_array_equal(_bits([parsed.field(x) for x in points]), _bits(expected))
    assert not np.any(parsed.field(np.asarray(center)))


@given(
    divisions=st.sampled_from([2, 4, 8, 32, 64]),
    extent=st.floats(1e-3, 1e3),
    center=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
)
def test_point_table_is_bit_equal_to_point(divisions, extent, center):
    spec = q.PolarGridSpec.uniform(divisions, extent, center=center)
    table = spec.points()
    assert table.shape == (divisions, divisions, 2)
    expected = [[_point(spec, a, k) for k in range(divisions)] for a in range(divisions)]
    np.testing.assert_array_equal(_bits(table), _bits(expected))
    np.testing.assert_array_equal(
        _bits(spec.angles()), _bits([_angle(spec, k) for k in range(divisions)])
    )


def _counted(field, tables):
    """field behind a plain function that records every table it is called on.

    The wrapper hides every attribute of field, as a benchmark tracer's
    counting wrapper does.
    """

    def counted(x):
        tables.append(x.shape)
        return field(x)

    return counted


def test_oracles_make_no_per_point_call_on_a_table_field():
    spec = q.PolarGridSpec.uniform(8, extent=1.0, center=(0.1, -0.2))
    field = q.RadialField(center=(0.1, -0.2), profile=lambda r: np.exp(-3.0 * r))
    ray = q.sample_reference_ray(field, spec)
    direct, count = q.direct_polar_state(field, spec)
    defect = q.covariance_defect(field, spec)
    assert (ray.eval_count, count) == (8, 64)
    assert defect < 1e-12

    # each oracle calls a plain wrapper once per table, and gets the same bits
    tables = []
    wrapped = _counted(field, tables)
    assert ray.values.tobytes() == q.sample_reference_ray(wrapped, spec).values.tobytes()
    assert tables == [(8, 2)]
    tables.clear()
    direct_wrapped, count_wrapped = q.direct_polar_state(wrapped, spec)
    assert direct.amplitudes.tobytes() == direct_wrapped.amplitudes.tobytes()
    assert (count_wrapped, tables) == (count, [(8, 8, 2)])
    tables.clear()
    fresh = _counted(field, tables)  # a new wrapper is not the memoized field
    assert defect == q.covariance_defect(fresh, spec)
    assert tables == [(8, 2), (8, 8, 2)]


@pytest.mark.parametrize("value", [1.0, (1.0, 2.0, 3.0), ((1.0, 0.0),)])
@pytest.mark.parametrize(
    "oracle", [q.sample_reference_ray, q.direct_polar_state, q.covariance_defect]
)
def test_fields_must_return_two_components(oracle, value):
    spec = q.PolarGridSpec.uniform(4, extent=1.0)
    with pytest.raises(InitCircuitError, match="2 components"):
        oracle(lambda x: value, spec)


def test_covariance_defect_matches_the_pointwise_definition(rng):
    spec = q.PolarGridSpec.uniform(4, extent=1.0)
    matrix = rng.normal(size=(2, 2))

    def field(x):
        # elementwise, so one point and a whole table get the same bits
        x0, x1 = x[..., 0], x[..., 1]
        return np.stack([matrix[0, 0] * x0 + matrix[0, 1] * x1,
                         matrix[1, 0] * x0 + matrix[1, 1] * x1], axis=-1) + 0.3

    ray = q.sample_reference_ray(field, spec)
    worst = 0.0
    for a in range(4):
        for k in range(4):
            th = _angle(spec, k)
            rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            residual = field(_point(spec, a, k)) - rot @ ray.values[:, a]
            worst = max(worst, float(np.linalg.norm(residual)))
    assert q.covariance_defect(field, spec) == worst / np.abs(ray.values).max()


def test_gaussian_ring_table_squares_as_the_per_point_profile_did(rng, tmp_path):
    # x ** 2 on a Python float calls the C library's pow, which rounds a few
    # arguments in a thousand differently from x * x; the table must follow it
    r0, width, amplitude = 0.5, 0.1, 1.5
    raw = {"initcircuit": {"radial_divisions": 2, "extent": 1.0, "profile": {
        "kind": "gaussian_ring", "radius": r0, "width": width, "amplitude": amplitude}}}
    field = q.scenario._parse_initcircuit(q.io.JsonObject(raw), tmp_path).field

    def magnitude(r):
        return amplitude * float(np.exp(-((r - r0) ** 2) / (2.0 * width**2)))

    reference = _per_point_profile_field((0.0, 0.0), magnitude)
    points = rng.uniform(-1.0, 1.0, size=(20000, 2))
    expected = np.array([reference(x) for x in points])
    np.testing.assert_array_equal(_bits(field(points)), _bits(expected))


def _pow_or_inf(v: float) -> float:
    try:
        return float.__pow__(v, 2.0)
    except OverflowError:
        return np.inf


_MAX_ROOT = float(np.sqrt(np.finfo(np.float64).max))  # the largest square root, just under 2**512
_SQUARE_EDGES = np.array(
    [2.0**k for k in range(-1074, 1024)]
    + [2.0**-400, *np.nextafter(2.0**-400, [0.0, 1.0]), 5e-324, 1e-310, 1e-160, 3e-162]
    + [*np.nextafter(_MAX_ROOT, np.full(9, np.inf)), *np.nextafter(_MAX_ROOT, np.zeros(9))]
    + [_MAX_ROOT, 2.0**512, 1e154, 1.35e154, 1e200, np.finfo(np.float64).max]
    + [0.0, np.inf, np.nan, np.array(0x7FF8000200000000, np.uint64).view(np.float64)]
)


@given(seed=st.integers(0, 2**32 - 1))
def test_square_is_float_pow_bit_for_bit(seed):
    # the vectorized square of the gaussian_ring profile against the C library's
    # pow through float.__pow__ (inf where that raises on overflow); 30 examples
    # draw over 10**6 values across every binade, plus the edges of the method
    rng = np.random.default_rng(seed)
    n = 10_000
    spread = rng.uniform(1.0, 2.0, n) * np.exp2(rng.integers(-1074, 1024, n).astype(float))
    scale = 10.0 ** rng.integers(1, 17, n)
    short = np.round(rng.uniform(-4.0, 4.0, n) * scale) / scale  # decimal-like offsets
    values = np.concatenate([rng.uniform(-1.0, 1.0, n), spread, short, _SQUARE_EDGES])
    values = np.concatenate([values, -values])
    expected = np.array([_pow_or_inf(v) for v in values.tolist()])
    np.testing.assert_array_equal(_bits(q.scenario._square(values)), _bits(expected))


# ---------------------------------------------------------------------------
# real statevector and the shared grid table


def _complex_reference(circuit, ray):
    """The preparation gate by gate on a complex128 statevector, as first written."""
    n = circuit.n_qubits
    theta = 1 << circuit.n_angular_qubits
    psi = np.zeros(1 << n, dtype=np.complex128)
    bits = psi.reshape((2,) * n)

    def fixed(qubits):
        return tuple(qubits.get(q, slice(None)) for q in range(n))

    for gate in circuit.gates:
        if gate.kind == "prep":
            psi.reshape(-1, theta)[:, 0] = ray.statevector()
        elif gate.kind == "h":
            q = gate.qubits[0]
            lo, hi = bits[fixed({q: 0})], bits[fixed({q: 1})]
            a, b = lo.copy(), hi.copy()
            lo[...] = (a + b) / np.sqrt(2.0)
            hi[...] = (a - b) / np.sqrt(2.0)
        else:
            control, target = gate.qubits
            i0, i1 = (bits[fixed({control: 1, target: t})] for t in (0, 1))
            a, b = i0.copy(), i1.copy()
            cos_t, sin_t = np.cos(gate.angle), np.sin(gate.angle)
            i0[...] = cos_t * a - sin_t * b
            i1[...] = sin_t * a + cos_t * b
    return psi


def _seeded_fields(seed):
    """A Gaussian ring, a random profile of both signs, and one with signed zeros."""
    rng = np.random.default_rng(seed)
    center = tuple(rng.uniform(-0.5, 0.5, size=2))
    r0, width, amplitude = rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.3), rng.uniform(0.5, 2.0)
    coeffs = rng.normal(size=4)
    return center, [
        lambda r: amplitude * np.exp(-((r - r0) ** 2) / (2.0 * width**2)),
        lambda r: coeffs[0] + coeffs[1] * r + coeffs[2] * np.sin(coeffs[3] * r),
        # -0.0 samples give -0.0 components, which the complex Hadamard sums dropped
        lambda r: np.where(r <= np.median(r), -0.0, coeffs[0] * r),
    ]


@pytest.mark.parametrize("divisions", [2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("seed", [11, 12])
def test_real_statevector_matches_the_complex_gate_by_gate_reference(divisions, seed):
    center, profiles = _seeded_fields(seed)
    spec = q.PolarGridSpec.uniform(divisions, extent=1.5, center=center)
    circuit = q.build_circuit(spec)
    for profile in profiles:
        ray = q.sample_reference_ray(q.RadialField(center, profile), spec)
        state = q.simulate_circuit(circuit, ray)
        expected = _complex_reference(circuit, ray)
        assert state.amplitudes.dtype == np.float64
        assert state.amplitudes.tobytes() == expected.real.tobytes()
        assert np.all(expected.imag == 0.0)


class _CountingProfile:
    """A magnitude profile that counts the radii it is asked for."""

    def __init__(self, scale=1.0):
        self.scale = scale
        self.radii = 0

    def __call__(self, r):
        self.radii += r.size
        return self.scale * np.exp(-2.0 * r)


def test_direct_state_and_covariance_defect_share_one_grid_evaluation():
    a_n = 16
    spec = q.PolarGridSpec.uniform(a_n, extent=1.0, center=(0.2, -0.1))
    profile = _CountingProfile()
    field = q.RadialField(center=(0.2, -0.1), profile=profile)
    direct, count = q.direct_polar_state(field, spec)
    assert profile.radii == a_n * a_n == count
    defect = q.covariance_defect(field, spec)  # samples its own ray, reuses the grid
    assert profile.radii == a_n * a_n + a_n
    q.sample_reference_ray(field, spec)
    assert profile.radii == a_n * a_n + 2 * a_n

    # the shared table gives the values a fresh spec computes
    fresh = q.PolarGridSpec.uniform(a_n, extent=1.0, center=(0.2, -0.1))
    assert direct.amplitudes.tobytes() == q.direct_polar_state(field, fresh)[0].amplitudes.tobytes()
    assert defect == q.covariance_defect(field, fresh)
    assert defect < 1e-12
    profile.radii = 0

    # a second field on the same spec is evaluated and gets its own values
    other_profile = _CountingProfile(scale=-3.0)
    other = q.RadialField(center=(0.2, -0.1), profile=other_profile)
    flipped, _ = q.direct_polar_state(other, spec)
    assert other_profile.radii == a_n * a_n
    np.testing.assert_allclose(flipped.amplitudes, -direct.amplitudes, atol=1e-15)
    assert flipped.scale == pytest.approx(3.0 * direct.scale, rel=1e-14)
    # and the first field, no longer the last one sampled, is evaluated again
    assert q.direct_polar_state(field, spec)[0].amplitudes.tobytes() == direct.amplitudes.tobytes()
    assert profile.radii == a_n * a_n


def test_memoized_tables_are_read_only():
    spec = q.PolarGridSpec.uniform(4, extent=1.0)
    points = spec.points()
    assert spec.points() is points
    with pytest.raises(ValueError):
        points[0, 0, 0] = 1.0
    field = q.RadialField(center=(0.0, 0.0), profile=lambda r: r)
    q.direct_polar_state(field, spec)
    q.covariance_defect(field, spec)
    np.testing.assert_array_equal(points, q.PolarGridSpec.uniform(4, extent=1.0).points())
    # the memo lives outside the fields: equality and repr are unchanged
    assert spec == q.PolarGridSpec.uniform(4, extent=1.0)
    assert "_points" not in repr(spec)


@pytest.mark.parametrize(
    "amplitude, message", [(1e200, "overflows float64"), (1e-200, "underflows float64")]
)
@pytest.mark.parametrize("oracle", [q.sample_reference_ray, q.direct_polar_state])
def test_norms_that_leave_float64_are_refused(oracle, amplitude, message):
    spec = q.PolarGridSpec.uniform(8, extent=1.0)
    field = q.RadialField(center=(0.0, 0.0), profile=lambda r: amplitude * np.exp(-r))
    assert np.all(field(spec.points())[..., 0] != 0.0)  # every sample is representable
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InitCircuitError, match=message):
            oracle(field, spec)


def test_non_finite_samples_are_refused():
    spec = q.PolarGridSpec.uniform(4, extent=1.0)
    field = q.RadialField(center=(0.0, 0.0), profile=lambda r: np.where(r > 0.5, np.nan, r))
    for oracle in (q.sample_reference_ray, q.direct_polar_state):
        with pytest.raises(InitCircuitError, match="finite"):
            oracle(field, spec)
