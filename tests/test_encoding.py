import dataclasses
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given
from hypothesis import strategies as st

import qwavesim as q
from qwavesim import io
from qwavesim.encoding import next_power_of_two, stack_substates
from qwavesim.errors import EncodingError, NumericalError, ValidationError

from conftest import build_acoustic_1d, build_acoustic_2d, build_maxwell, chiral_systems


def _toy_system(a_dense, b_diag):
    diag = np.asarray(b_diag, dtype=float)
    return types.SimpleNamespace(
        A=sp.csr_matrix(np.asarray(a_dense, dtype=float)),
        b_diagonal=lambda: diag,
        scalar_slice=slice(0, 1),
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_amplitudes_are_refused(bad):
    layout = q.StateLayout(num_physical=2, block_dim=2)
    with pytest.raises(EncodingError, match="finite"):
        q.QuantumRegisterState(amplitudes=np.array([bad, 0.0]), scale=1.0, layout=layout)


def test_unit_rotation_maps_to_pauli_y_form():
    sys2 = _toy_system([[0.0, 1.0], [-1.0, 0.0]], [1.0, 1.0])
    k = q.build_hamiltonian(sys2).generator.toarray()
    np.testing.assert_array_equal(1j * k, [[0.0, 1.0j], [-1.0j, 0.0]])


def test_energy_weight_rescales_coupling():
    # B = diag(4, 1) halves the off-diagonal through B^{-1/2} on both sides
    sys2 = _toy_system([[0.0, 1.0], [-1.0, 0.0]], [4.0, 1.0])
    k = q.build_hamiltonian(sys2).generator.toarray()
    np.testing.assert_allclose(1j * k, [[0.0, 0.5j], [-0.5j, 0.0]], atol=1e-15)


def test_encode_three_four_gives_unit_amplitudes_scale_five():
    state = q.encode(np.array([3.0, 4.0]), np.array([1.0, 1.0]))
    assert state.scale == 5.0
    np.testing.assert_array_equal(state.amplitudes, [0.6, 0.8])


def test_encode_applies_weight_before_normalizing():
    state = q.encode(np.array([1.0, 1.0]), np.array([9.0, 1.0]))
    assert state.scale == pytest.approx(np.sqrt(10.0), abs=1e-15)
    np.testing.assert_allclose(
        state.amplitudes, np.array([3.0, 1.0]) / np.sqrt(10.0), atol=1e-15
    )


def test_scale_squared_is_the_energy_quadrature(rng):
    pair = build_acoustic_1d(n=16, rho=1.8, c=0.6)
    b_diag = pair.b_diagonal()
    for _ in range(20):
        w = rng.normal(size=pair.n_total)
        state = q.encode(w, pair)
        assert q.energy(state) == pytest.approx(w @ (b_diag * w), rel=1e-12)


def test_zero_field_is_the_null_state():
    state = q.encode(np.zeros(5), np.ones(5))
    assert state.is_null
    assert q.energy(state) == 0.0
    with pytest.raises(EncodingError):
        q.decode(state, np.ones(5))


def test_padding_is_exact_zero_up_to_power_of_two():
    pair = build_acoustic_1d(n=16)  # 31 unknowns -> 32-dim register
    state = q.encode(np.ones(pair.n_total), pair)
    assert state.layout.block_dim == 32
    assert state.layout.num_physical == 31
    assert np.all(state.amplitudes[31:] == 0.0)
    assert state.n_qubits == 5


def test_a_stack_takes_the_smallest_power_of_two_arity_and_no_other():
    stack = stack_substates([np.ones(3)] * 3)
    assert stack.layout.arity == 4
    np.testing.assert_array_equal(stack.block(3), 0.0)
    with pytest.raises(TypeError, match="arity"):
        stack_substates([np.ones(3)] * 3, arity=8)


def test_decode_round_trip(rng):
    pair = build_acoustic_1d(n=16, rho=2.4, c=0.9)
    for _ in range(10):
        w = rng.normal(size=pair.n_total)
        back = q.decode(q.encode(w, pair), pair)
        np.testing.assert_allclose(back, w, rtol=1e-12, atol=1e-14)


def test_decode_refuses_nonzero_padding():
    layout = q.StateLayout(num_physical=3, block_dim=4)
    amps = np.array([0.5, 0.5, 0.5, 0.5])
    state = q.QuantumRegisterState(amplitudes=amps, scale=1.0, layout=layout)
    with pytest.raises(EncodingError):
        q.decode(state, np.ones(3))


def test_spectrum_is_symmetric_about_zero():
    # +-s is symmetric by construction, so the symmetry is tested on eigvalsh
    # of the dense H, and the handle's spectrum against that
    for pair in (build_acoustic_1d(n=12, rho=1.3, c=0.8), build_maxwell(n=12)):
        ham = q.build_hamiltonian(pair)
        evals = np.sort(np.linalg.eigvalsh(1j * ham.generator.toarray()))
        np.testing.assert_allclose(evals, -evals[::-1], atol=1e-10)
        np.testing.assert_allclose(_spectrum(ham), evals, atol=1e-10)


def test_homogeneous_metadata_values():
    pair = build_acoustic_1d(n=16, rho=1.0, c=1.0)  # dx = 1/15, B = I
    ham = q.build_hamiltonian(pair)
    assert ham.maxnorm == pytest.approx(15.0, rel=1e-14)
    assert ham.sparsity == 2
    assert ham.hermiticity_defect() == 0.0
    assert ham.dim == pair.n_total


def _driven_wall():
    pair = build_acoustic_2d(nx=6, ny=5, c=lambda x: 1.0 + x[:, 1])
    walls = q.dirichlet_constraints(
        pair.grid, q.boundary_scalar_indices(pair.grid, ["left"]), np.array([0.0, 1.0]), np.array([0.0, 2.0])
    )
    return q.reduce_system(pair, walls)


@pytest.mark.parametrize(
    "pair",
    [
        build_acoustic_2d(nx=7, ny=5, rho=lambda x: 1.0 + x[:, 0]),
        build_maxwell(n=12, eps=lambda x: 1.0 + x[:, 0]),
        _driven_wall(),
        build_acoustic_1d(n=11, rho=1.3, c=0.7),
    ],
    ids=["acoustic-2d", "maxwell-1d", "driven-wall", "homogeneous-1d-box"],
)
def test_generator_is_the_scaled_a_in_canonical_real_form(pair):
    # H = iK is held as K = B^{-1/2} A B^{-1/2}: real, in the stored form of A,
    # and each entry is the two products diag(d) @ A @ diag(d) takes
    ham = q.build_hamiltonian(pair)
    k = ham.generator
    assert isinstance(k, sp.csr_matrix) and k.dtype == np.float64 and k.has_canonical_format
    inv_sqrt = sp.diags(1.0 / np.sqrt(pair.b_diagonal()))
    want = inv_sqrt @ pair.A @ inv_sqrt
    want.sum_duplicates()
    want.eliminate_zeros()
    for got, ref in zip((k.indptr, k.indices, k.data), (want.indptr, want.indices, want.data)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert ham.hermiticity_defect() == q.antisymmetry_defect(k)


def test_a_complex_generator_is_refused():
    with pytest.raises(EncodingError, match="must be real"):
        q.Hamiltonian.from_matrix(np.array([[0.0, 1j], [-1j, 0.0]]), 1)


def test_the_hermiticity_bound_is_relative_to_max_k():
    # K's defect is rounding, which grows with its entries: 1e-13 of max|K|
    # is accepted however large max|K| is, and 2e-12 of it is refused
    k = np.array([[0.0, 1e6], [-1e6 - 1e-7, 0.0]])
    assert q.Hamiltonian.from_matrix(k, 1).hermiticity_defect() > 1e-12
    k[1, 0] = -1e6 - 2e-6
    with pytest.raises(
        NumericalError, match=r"not Hermitian: defect 2\.000e-06 exceeds 1e-12 of max\|K\| 1\.000e\+06"
    ):
        q.Hamiltonian.from_matrix(k, 1)
    with pytest.raises(NumericalError, match="not Hermitian"):
        q.Hamiltonian.from_matrix(k * 2.0**-40, 1)  # the same K at another scale


def _printed_under_blas_threads(code: str) -> list[str]:
    """The standard output of code run in two fresh interpreters, with 1 and 2 BLAS threads."""
    src = str(Path(q.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    printed = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        printed.append(done.stdout)
    return printed


def test_the_register_scale_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot of more than 10,000 values over its threads, which
    # moves the last bit of a norm taken by np.vdot; numpy's own sums do not
    code = (
        "import hashlib, numpy as np; from qwavesim.encoding import stack_substates\n"
        "for seed in range(4):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    v = rng.normal(size=131072)\n"
        "    for s in (stack_substates([v]), stack_substates([v, rng.normal(size=v.size)])):\n"
        "        print(s.scale.hex(), hashlib.sha256(s.amplitudes.tobytes()).hexdigest())\n"
    )
    printed = _printed_under_blas_threads(code)
    assert printed[0].count("\n") == 8
    assert printed[0] == printed[1]


def test_a_box_basis_mult_evolve_does_not_depend_on_the_blas_thread_count():
    # the box basis acts by scipy.fft (one worker) and sparse products, and
    # evolve renormalizes by numpy's pairwise sum: 131,072 amplitudes, no BLAS
    code = (
        "import hashlib, numpy as np, qwavesim as q\n"
        "grid = q.build_grid([(0.0, 1.0)], [512])\n"
        "pair = q.assemble_operator_pair(grid, q.MaterialModel.acoustic(grid, rho=1.3, c=0.8))\n"
        "ham = q.build_hamiltonian(pair)\n"
        "rng = np.random.default_rng(7)\n"
        "state = q.encoding.stack_substates([rng.normal(size=pair.n_total) for _ in range(128)])\n"
        "out = q.evolve(state, q.build_mult_hamiltonian(ham, 128), 0.37)\n"
        "print(ham.basis, out.amplitudes.size, hashlib.sha256(out.amplitudes.tobytes()).hexdigest())\n"
    )
    printed = _printed_under_blas_threads(code)
    assert printed[0].startswith("box 131072 ")
    assert printed[0] == printed[1]


def test_non_antisymmetric_generator_is_refused():
    sys2 = _toy_system([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])
    with pytest.raises(NumericalError):
        q.build_hamiltonian(sys2)


def test_layout_validation():
    with pytest.raises(EncodingError):
        q.StateLayout(num_physical=5, block_dim=4)
    with pytest.raises(EncodingError):
        q.StateLayout(num_physical=3, block_dim=3)
    with pytest.raises(EncodingError):
        q.StateLayout(num_physical=3, block_dim=4, arity=3)


def test_augmented_layout_doubles_the_register():
    layout = q.StateLayout(num_physical=3, block_dim=4, arity=2, augmented=True)
    assert layout.total_dim == 16
    assert layout.n_qubits == 4
    assert layout.n_data_qubits == 2
    assert layout.n_substate_qubits == 1


def test_block_extracts_sub_states():
    layout = q.StateLayout(num_physical=4, block_dim=4, arity=2)
    amps = np.zeros(8)
    amps[1] = 1.0 / np.sqrt(2.0)
    amps[6] = 1.0 / np.sqrt(2.0)
    state = q.QuantumRegisterState(amplitudes=amps, scale=2.0, layout=layout)
    np.testing.assert_array_equal(state.block(0), amps[:4])
    np.testing.assert_array_equal(state.block(1), amps[4:])
    with pytest.raises(EncodingError):
        state.block(2)


def test_state_norm_is_validated():
    layout = q.StateLayout(num_physical=2, block_dim=2)
    with pytest.raises(EncodingError):
        q.QuantumRegisterState(
            amplitudes=np.array([1.0, 1.0]), scale=1.0, layout=layout
        )
    with pytest.raises(EncodingError):
        q.QuantumRegisterState(
            amplitudes=np.array([1.0, 0.0]), scale=0.0, layout=layout
        )


def test_a_strided_unit_vector_is_a_state():
    layout = q.StateLayout(num_physical=3, block_dim=4)
    amps = np.zeros(8)
    amps[::2] = [0.5, 0.5, -0.5, -0.5]
    state = q.QuantumRegisterState(amplitudes=amps[::2], scale=1.0, layout=layout)
    np.testing.assert_array_equal(state.amplitudes, amps[::2])
    # a norm 2e-12 from 1 is still refused, whatever order the squares are summed in
    off = amps[::2] * (1.0 + 2e-12)
    with pytest.raises(EncodingError, match="unit norm"):
        q.QuantumRegisterState(amplitudes=off, scale=1.0, layout=layout)


def test_next_power_of_two():
    assert [next_power_of_two(k) for k in (1, 2, 3, 31, 32, 33)] == [
        1,
        2,
        4,
        32,
        32,
        64,
    ]


# ---------------------------------------------------------------------------
# chiral decomposition: H = [[0, iC], [-iC^T, 0]] held as the thin SVD of C


def _assert_decomposes(ham):
    """The memoized decomposition reproduces H: the thin SVD of its block C."""
    s, u, v = ham.eigendecomposition()
    c = ham.generator[: ham.split, ham.split :].toarray()
    k = min(c.shape)
    assert s.shape == (k,) and u.shape == (c.shape[0], k) and v.shape == (c.shape[1], k)
    assert all(x.dtype == np.float64 for x in (s, u, v))
    assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-12
    assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-12
    # both sides, so C = U diag(s) V^T whichever of U and V is square
    assert np.abs(c @ v - u * s).max() <= 1e-12 * ham.maxnorm
    assert np.abs(c.T @ u - v * s).max() <= 1e-12 * ham.maxnorm


def _spectrum(ham):
    """The sorted eigenvalues of H from its decomposition: +-s and zeros."""
    s = ham.eigendecomposition()[0]
    return np.sort(np.concatenate([s, -s, np.zeros(ham.dim - 2 * s.size)]))


def _evolved(ham, psi, t):
    layout = q.StateLayout(num_physical=ham.dim, block_dim=next_power_of_two(ham.dim))
    amps = np.zeros(layout.block_dim)
    amps[: ham.dim] = psi
    out = q.evolve(q.QuantumRegisterState(amplitudes=amps, scale=1.0, layout=layout), ham, t)
    return out.amplitudes[: ham.dim]


def _random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("kind, dimension", [("acoustic", 1), ("acoustic", 2), ("maxwell", 1)])
@given(data=st.data(), t=st.floats(-1.5, 1.5), seed=st.integers(0, 2**16))
def test_chiral_decomposition_is_an_orthonormal_eigenbasis(kind, dimension, data, t, seed):
    system = data.draw(chiral_systems(kind, dimension))
    ham = q.build_hamiltonian(system)
    assert ham.split == system.scalar_slice.stop
    _assert_decomposes(ham)
    psi = _random_state(ham.dim, seed)
    exact = scipy.linalg.expm(t * ham.generator.toarray()) @ psi
    assert np.abs(_evolved(ham, psi, t) - exact).max() <= 1e-12


@pytest.mark.parametrize("kind, dimension", [("acoustic", 1), ("acoustic", 2), ("maxwell", 1)])
@given(data=st.data(), t=st.floats(-1.5, 1.5), seed=st.integers(0, 2**16))
def test_the_box_basis_matches_the_thin_svd(kind, dimension, data, t, seed):
    system = data.draw(chiral_systems(kind, dimension, homogeneous=True))
    box = q.build_hamiltonian(system)
    svd = q.Hamiltonian.from_matrix(box.generator, box.split)  # the same K, no box basis
    assert (box.basis, svd.basis) == ("box", "svd")
    s = box.frequencies()
    assert s.size == box.split - 1 and np.all(s > 0)  # the one zero mode dropped
    top = np.sort(svd.frequencies())[-s.size :]
    assert np.abs(np.sort(s) - top).max() <= 1e-12 * box.maxnorm
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(box.dim, 2))
    p, r = rng.normal(size=2)

    def phi(freqs):  # complex, with phi(0) = p the zero modes' value
        return ((p + 1j * r * freqs) * np.exp(-1j * freqs * t) / (1.0 + freqs))[:, None]

    for got, want in (
        (box.propagate(w, t), svd.propagate(w, t)),
        (box.apply(phi(s), p, w), svd.apply(phi(svd.frequencies()), p, w)),
    ):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _with_generator(pair, edit):
    """pair with A = edit(A as a dense array), mirrored so A stays antisymmetric."""
    a = pair.A.toarray()
    edit(a)
    a[pair.grid.n_scalar :, : pair.grid.n_scalar] = -a[: pair.grid.n_scalar, pair.grid.n_scalar :].T
    return dataclasses.replace(pair, A=sp.csr_matrix(a))


def _scaled_flux(a):
    a[:, -1] *= 2.0  # one flux of the last axis twice as stiff


def _moved_flux(a):
    rows = np.flatnonzero(a[:, -1])
    a[rows[-1] - 2, -1], a[rows[-1], -1] = a[rows[-1], -1], 0.0  # one node too far


def _pinned_left():
    pair = build_acoustic_1d(n=12)
    return q.reduce_system(pair, q.dirichlet_constraints(pair.grid, np.array([0])))


def _namespace():
    pair = build_acoustic_1d(n=12)
    return types.SimpleNamespace(A=pair.A, b_diagonal=pair.b_diagonal, scalar_slice=pair.scalar_slice)


_BASES = {
    "homogeneous-1d": (lambda: build_acoustic_1d(n=12, rho=1.3, c=0.7), "box"),
    "homogeneous-2d": (lambda: build_acoustic_2d(nx=5, ny=4, rho=0.6, c=2.0), "box"),
    "homogeneous-maxwell": (lambda: build_maxwell(n=9, eps=2.0, mu=0.5), "box"),
    "graded-rho": (lambda: build_acoustic_1d(n=12, rho=lambda x: 1.0 + x[:, 0]), "svd"),
    "dirichlet-wall": (_pinned_left, "svd"),
    "not-an-operator-pair": (_namespace, "svd"),
    "one-flux-scaled": (lambda: _with_generator(build_acoustic_2d(nx=5, ny=4), _scaled_flux), "svd"),
    "one-flux-moved": (lambda: _with_generator(build_acoustic_1d(n=12), _moved_flux), "svd"),
}


@pytest.mark.parametrize("case", list(_BASES))
def test_the_box_basis_is_taken_only_where_it_is_exact(case):
    make, basis = _BASES[case]
    system = make()
    ham = q.build_hamiltonian(system)
    assert ham.basis == basis
    w = np.random.default_rng(4).normal(size=(ham.dim, 2))
    want = scipy.linalg.expm(0.7 * ham.generator.toarray()) @ w
    assert np.abs(ham.propagate(w, 0.7) - want).max() <= 1e-12 * np.abs(want).max()


def test_chiral_decomposition_calls_no_eigh(monkeypatch):
    pair = build_acoustic_1d(n=9, rho=lambda x: 1.0 + x[:, 0])

    def refused(*args, **kwargs):
        raise AssertionError("eigh called on a chiral generator")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    _assert_decomposes(q.build_hamiltonian(pair))


def test_a_stored_scalar_scalar_entry_is_refused():
    pair = build_acoustic_1d(n=10, c=lambda x: 1.0 + x[:, 0])
    a = pair.A.tolil()
    a[2, 5], a[5, 2] = 0.75, -0.75  # antisymmetric, but inside the scalar block
    system = types.SimpleNamespace(
        A=sp.csr_matrix(a), b_diagonal=pair.b_diagonal, scalar_slice=pair.scalar_slice
    )
    with pytest.raises(
        EncodingError, match=r"K is not chiral: entry \(2, 5\) couples two scalar coordinates"
    ):
        q.build_hamiltonian(system)


@pytest.mark.parametrize("kind, dimension", [("acoustic", 1), ("acoustic", 2), ("maxwell", 1)])
@given(data=st.data(), a=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1))
def test_a_pair_inside_a_diagonal_block_is_refused_by_both_solvers(kind, dimension, data, a):
    system = data.draw(chiral_systems(kind, dimension))
    split = system.scalar_slice.stop
    assert q.build_hamiltonian(system).split == split
    sizes = {"scalar": split, "flux": system.n_total - split}
    sides = [name for name, size in sizes.items() if size >= 2]
    assume(sides)  # a block of one coordinate holds no pair
    side = data.draw(st.sampled_from(sides))
    start = 0 if side == "scalar" else split
    i, j = sorted(data.draw(st.lists(
        st.integers(start, start + sizes[side] - 1), min_size=2, max_size=2, unique=True
    )))
    pair = sp.csr_matrix(([a, -a], ([i, j], [j, i])), shape=system.A.shape)
    coupled = dataclasses.replace(system, A=(system.A + pair).tocsr())
    with pytest.raises(EncodingError) as refused:
        q.build_hamiltonian(coupled)
    assert str(refused.value) == f"K is not chiral: entry ({i}, {j}) couples two {side} coordinates"
    with pytest.raises(ValidationError, match=f"{side}-{side} coupling present"):
        q.leapfrog_evolve(coupled, np.zeros(system.n_total), 0.5 * q.cfl_limit(system), 0.1)


def _owner(a):
    """The array that owns a's memory (a itself unless a is a view)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_chiral_memo_holds_only_the_real_thin_factors(monkeypatch):
    # a memory guard: the decomposition of a 2D 16x16 pair (dim 736) holds
    # s, U and V in float64 and never allocates a complex array as large as C
    pair = build_acoustic_2d(nx=16, ny=16, rho=lambda x: 1.0 + x[:, 0])
    ham = q.build_hamiltonian(pair)
    n_s, n_f = ham.split, ham.dim - ham.split
    k = min(n_s, n_f)
    complex_tables = []
    for name in ("zeros", "empty"):

        def spy(shape, dtype=float, *args, _make=getattr(np, name), **kwargs):
            if np.dtype(dtype).kind == "c" and np.prod(shape) >= n_s * n_f:
                complex_tables.append(tuple(int(n) for n in np.atleast_1d(shape)))
            return _make(shape, dtype, *args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    memo = ham.eigendecomposition()
    assert complex_tables == []
    assert all(isinstance(a, np.ndarray) and a.dtype == np.float64 for a in memo)
    owners = {id(o): o for o in map(_owner, memo)}
    assert sum(o.nbytes for o in owners.values()) <= 8 * (n_s**2 + n_f**2 + k)

    # and the action never copies U or V: one evolve allocates less than U holds
    state = q.encode(np.random.default_rng(3).normal(size=pair.n_total), pair)
    tracemalloc.start()
    try:
        q.evolve(state, ham, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert complex_tables == []
    assert peak < 8 * n_s * k


# ---------------------------------------------------------------------------
# one real register: a complex array is refused, never cast, and every
# producer of a register state makes float64 amplitudes


def _polar():
    return q.PolarGridSpec.uniform(4, extent=1.0), q.RadialField((0.0, 0.0), lambda r: np.exp(-r))


def _circuit_state(pair, w, tmp_path):
    spec, field = _polar()
    return q.simulate_circuit(q.build_circuit(spec), q.sample_reference_ray(field, spec))


def _direct_polar_state(pair, w, tmp_path):
    spec, field = _polar()
    return q.direct_polar_state(field, spec)[0]


def _written_and_read(pair, w, tmp_path):
    io.write_state(tmp_path / "state.csv", q.encode(w, pair))
    return io.read_state(tmp_path / "state.csv")


_REAL_REGISTER = {
    "refuses-QuantumRegisterState": lambda pair, w, tmp_path: q.QuantumRegisterState(
        amplitudes=np.array([0.6, 0.8]) + 0j, scale=1.0, layout=q.StateLayout(2, 2)
    ),
    "refuses-stack_substates": lambda pair, w, tmp_path: stack_substates([w, w + 0j]),
    "refuses-estimate": lambda pair, w, tmp_path: q.estimate(
        [w + 0j, w], q.SubspaceProjector.full(w.size)
    ),
    "refuses-spectral_forced_solution": lambda pair, w, tmp_path: q.spectral_forced_solution(
        pair, np.ones(w.size), q.gaussian_pulse(0.05, 0.01), 0.0, 0.1, w0=w + 0j
    ),
    "makes-encode": lambda pair, w, tmp_path: q.encode(w, pair),
    "makes-stack_substates": lambda pair, w, tmp_path: stack_substates([w, -w, 2.0 * w]),
    "makes-evolve-sync": lambda pair, w, tmp_path: q.evolve(
        stack_substates([w, -w]),
        q.build_sync_hamiltonian(q.build_hamiltonian(pair), [0.1, 0.2], 0.3, block_dim=8),
        1.0,
    ),
    "makes-evolve-mult": lambda pair, w, tmp_path: q.evolve(
        stack_substates([w, -w]), q.build_mult_hamiltonian(q.build_hamiltonian(pair), 2), 0.3
    ),
    "makes-augment_state": lambda pair, w, tmp_path: q.augment_state(
        stack_substates([w, -w]), q.SubspaceProjector(np.isin(np.arange(w.size), [0, 1]))
    ),
    "makes-assemble_multisource_state": lambda pair, w, tmp_path: q.assemble_multisource_state(
        [q.PreSimResult.from_field(w, 0.1, pair.grid.scalar_coords[2], 0.3)], pair
    )[0],
    "makes-simulate_circuit": _circuit_state,
    "makes-direct_polar_state": _direct_polar_state,
    "makes-read_state": _written_and_read,
}


@pytest.mark.parametrize("case", list(_REAL_REGISTER))
def test_the_register_is_real(case, tmp_path):
    pair = build_acoustic_1d(n=4)  # 7 unknowns in a block of 8
    w = np.linspace(1.0, 2.0, pair.n_total)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning would mean a cast
        if case.startswith("refuses-"):
            with pytest.raises(ValidationError, match="must be real"):
                _REAL_REGISTER[case](pair, w, tmp_path)
        else:
            state = _REAL_REGISTER[case](pair, w, tmp_path)
            assert state.amplitudes.dtype == np.float64
            assert not state.is_null
