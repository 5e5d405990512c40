"""State preparation for rotationally covariant planar fields on a polar grid.

A two-component field w(x) on a polar grid (radii r_a, angles theta_k) is
rotationally covariant when w(x at angle theta) = R(theta) w(x at angle 0)
with R the planar rotation acting on the components. Loading such a field
naively costs one field evaluation per grid point; covariance collapses that
to a single ray. The register is |component>|radial>|angular> (component most
significant) and the circuit is

  1. load the reference ray, the field along theta = 0, into the component
     and radial qubits (exactly A classical evaluations, one per radius),
  2. Hadamard every angular qubit,
  3. for angular bit m (most significant first), rotate the component pair
     by pi/2^m controlled on that bit.

The controlled rotations add up the binary expansion of the angle: angular
index k receives exactly theta_k = pi k / Theta, which is also the angle
convention used when the target state is constructed directly. The prepared
amplitudes are the grid samples of w divided by their norm N, and the norm
identity N = N' sqrt(Theta) ties the circuit normalization N' (the ray norm)
to the full-grid one; both are recorded. Amplitudes here are raw field
samples: the energy weighting of the rectangular pipeline is a separate
concern and does not enter the polar loader.

Fields that are not covariant cannot be prepared this way; the module
measures a covariance defect instead of guessing, and the fidelity between
the circuit output and the direct construction is the acceptance metric.

Every gate is real, so the circuit is emulated on a float64 statevector
updated in place, which the returned register state holds as it is.

A field is any callable from a (..., 2) array of points to the (..., 2)
array of their components, called once per table; a result of another
shape is refused. The ray, the direct construction and the covariance
defect sample the field on the point table PolarGridSpec.points(), shape
(A, Theta, 2), which a spec builds once and keeps read-only: the ray on its
(A, 2) column at theta = 0, the other two on the whole table. A spec also
keeps the read-only values of the last field it sampled on the whole
table, matched by identity of the field object, so the direct construction
and the covariance defect share one grid evaluation. The reported
evaluation counts (A for the ray, A Theta for the direct state) count grid
points. Samples whose norm is zero, not finite, or whose sum of squares
overflows or underflows float64 cannot be normalized and are refused.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .encoding import QuantumRegisterState, StateLayout, next_power_of_two
from .errors import InitCircuitError


@dataclass(frozen=True)
class PolarGridSpec:
    """Polar sampling grid: two components, A radii, Theta = A angles."""

    radial_divisions: int
    center: tuple[float, float]
    radii: tuple[float, ...]

    def __post_init__(self):
        a = self.radial_divisions
        if a < 2 or a != next_power_of_two(a):
            raise InitCircuitError("radial divisions must be a power of two >= 2")
        if len(self.radii) != a:
            raise InitCircuitError("need one radius per radial division")
        r = np.asarray(self.radii, dtype=np.float64)
        if not (np.all(np.isfinite(r)) and np.all(r > 0) and np.all(np.diff(r) > 0)):
            raise InitCircuitError("radii must be finite, positive and strictly increasing")

    @classmethod
    def uniform(
        cls, radial_divisions: int, extent: float, center: tuple[float, float] = (0.0, 0.0)
    ) -> "PolarGridSpec":
        if not extent > 0:
            raise InitCircuitError(f"radial extent must be positive, got {extent!r}")
        radii = tuple(
            extent * (a + 1) / radial_divisions for a in range(radial_divisions)
        )
        return cls(
            radial_divisions=radial_divisions,
            center=(float(center[0]), float(center[1])), radii=radii,
        )

    @property
    def angular_divisions(self) -> int:
        return self.radial_divisions

    @property
    def n_points(self) -> int:
        return self.radial_divisions * self.angular_divisions

    def angles(self) -> np.ndarray:
        """The Theta angles pi k / Theta, k = 0 .. Theta - 1."""
        return np.pi * np.arange(self.angular_divisions) / self.angular_divisions

    def points(self) -> np.ndarray:
        """The read-only (A, Theta, 2) table of grid points, built once per spec."""
        memo = vars(self)
        if "_points" not in memo:
            th = self.angles()
            r = np.asarray(self.radii)[:, None]
            table = np.stack(
                [self.center[0] + r * np.cos(th), self.center[1] + r * np.sin(th)], axis=-1
            )
            table.setflags(write=False)
            memo["_points"] = table
        return memo["_points"]

    def _samples(self, field: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """The read-only (A, Theta, 2) field values on points().

        The spec keeps the table of the last field it sampled, matched by
        identity of the field object, so the direct state and the covariance
        defect share one grid evaluation. The memo assumes a field gives the
        same values every time it is called on the same point.
        """
        memo = vars(self)
        last = memo.get("_sampled")
        if last is None or last[0] is not field:
            values = _sample(field, self.points())
            values.setflags(write=False)
            last = memo["_sampled"] = (field, values)
        return last[1]


@dataclass(frozen=True)
class RadialField:
    """Planar field pointing away from center with magnitude profile(r), zero at the center.

    profile maps an array of radii to magnitudes element by element. The
    field is evaluated on a (..., 2) array of points at once.
    """

    center: tuple[float, float]
    profile: Callable[[np.ndarray], np.ndarray]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        w = np.asarray(points, dtype=np.float64) - np.asarray(self.center, dtype=np.float64)
        # vecdot, like np.linalg.norm on one point, keeps per-point bits; hypot does not
        r = np.vecdot(w, w)[..., None]
        np.sqrt(r, out=r)
        with np.errstate(divide="ignore", invalid="ignore"):
            w *= self.profile(r)
            w /= r
        w[r[..., 0] == 0.0] = 0.0
        return w


# below this norm the sum of squares is subnormal or zero and the norm has lost bits
_MIN_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


def _norm(values: np.ndarray, what: str, reduce=np.linalg.norm) -> float:
    """Norm of field samples by reduce, refused when zero or when its square leaves float64.

    np.linalg.norm is a BLAS dot, whose last bit follows the thread count
    once OpenBLAS splits it, past 10,000 values. The ray keeps it: its norm
    is the reported scale, and its 2A values stay below that up to A = 4096.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(reduce(values))
    if not np.isfinite(norm):
        if not np.all(np.isfinite(values)):
            raise InitCircuitError(f"{what}: field samples must be finite")
        raise InitCircuitError(
            f"{what}: the sum of squared samples overflows float64; scale the field down"
        )
    if norm < _MIN_NORM:
        if not np.any(values):
            raise InitCircuitError(f"{what} is identically zero; nothing to prepare")
        raise InitCircuitError(
            f"{what}: the sum of squared samples underflows float64; scale the field up"
        )
    return norm


def _sample(field: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    """Field values on a (..., 2) point table, in one call of the field."""
    values = np.asarray(field(points), dtype=np.float64)
    if values.shape != points.shape:
        raise InitCircuitError(
            f"field must return 2 components per point, an array of shape {points.shape}, "
            f"not one of shape {values.shape}"
        )
    return values


@dataclass(frozen=True)
class ReferenceRay:
    """Field samples along theta = 0: values[c, a], their norm, and the evaluation count."""

    values: np.ndarray
    norm: float
    eval_count: int

    def statevector(self) -> np.ndarray:
        return (self.values / self.norm).ravel()


def sample_reference_ray(
    field: Callable[[np.ndarray], np.ndarray], spec: PolarGridSpec
) -> ReferenceRay:
    """Evaluate the field once per radius along theta = 0.

    The classical budget of the whole preparation is exactly these
    radial_divisions evaluations. A ray whose norm is zero, not finite, or
    whose square overflows or underflows float64 cannot be normalized and is
    refused.
    """
    values = np.ascontiguousarray(_sample(field, spec.points()[:, 0]).T)
    norm = _norm(values, "reference ray")
    values.setflags(write=False)
    return ReferenceRay(values=values, norm=norm, eval_count=spec.radial_divisions)


@dataclass(frozen=True)
class Gate:
    """One circuit element; qubit ids count from 0 at the most significant."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in ("prep", "h", "crot"):
            raise InitCircuitError(f"unknown gate kind {self.kind!r}")
        if self.kind == "crot" and (self.angle is None or len(self.qubits) != 2):
            raise InitCircuitError("crot needs (control, target) qubits and an angle")


@dataclass(frozen=True)
class GateCircuit:
    """Preparation circuit over |component>|radial>|angular>."""

    n_component_qubits: int
    n_radial_qubits: int
    n_angular_qubits: int
    gates: tuple[Gate, ...]

    @property
    def n_qubits(self) -> int:
        return self.n_component_qubits + self.n_radial_qubits + self.n_angular_qubits

    @property
    def min_rotation_angle(self) -> float:
        angles = [abs(g.angle) for g in self.gates if g.kind == "crot"]
        return min(angles) if angles else 0.0


def build_circuit(spec: PolarGridSpec) -> GateCircuit:
    """Hadamards on the angular register plus binary-weighted controlled rotations.

    Angular bit m (1-based from the most significant) controls a component
    rotation by pi/2^m; together the bits of index k rotate by pi k / Theta.
    The reported minimum angle pi/Theta is the hardware-facing caveat of
    deep angular registers.
    """
    n_c = 1
    n_a = int(round(np.log2(spec.radial_divisions)))
    n_t = int(round(np.log2(spec.angular_divisions)))
    gates = [Gate(kind="prep", qubits=tuple(range(n_c + n_a)))]
    first_angular = n_c + n_a
    for q in range(first_angular, first_angular + n_t):
        gates.append(Gate(kind="h", qubits=(q,)))
    for m in range(1, n_t + 1):
        control = first_angular + (m - 1)  # m-th most significant angular bit
        gates.append(Gate(kind="crot", qubits=(control, 0), angle=np.pi / 2**m))
    return GateCircuit(
        n_component_qubits=n_c, n_radial_qubits=n_a, n_angular_qubits=n_t,
        gates=tuple(gates),
    )


# shortest contiguous run an elementwise gate update loops along; below it a
# strided loop along a longer axis is faster (measured on 2**17 amplitudes)
_MIN_RUN = 16


def _qubit_view(psi: np.ndarray, n_qubits: int, fixed: dict[int, int]) -> np.ndarray:
    """Writable view of the amplitudes of a statevector with the given qubits fixed.

    Qubit q is bit n_qubits - 1 - q of the index (most significant first).
    The free qubits between two fixed ones share one axis, so the view has
    at most len(fixed) + 1 axes. When the contiguous last axis is shorter
    than _MIN_RUN, the longest axis is moved last instead; elementwise
    updates pass order="C", so numpy runs its inner loop along that axis
    rather than along runs of two or four adjacent amplitudes.
    """
    shape, index, free_from = [], [], 0
    for q in sorted(fixed):
        shape += [1 << (q - free_from), 2]
        index += [slice(None), fixed[q]]
        free_from = q + 1
    shape.append(1 << (n_qubits - free_from))
    index.append(slice(None))
    view = psi.reshape(shape)[tuple(index)]
    if view.shape[-1] < _MIN_RUN:
        view = view.transpose(np.argsort(view.shape, kind="stable"))
    return view


# 1/sqrt(2) as a factor: a complex statevector divided by np.sqrt(2.0) was
# multiplied by this reciprocal, and the real one keeps those bits
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def simulate_circuit(circuit: GateCircuit, ray: ReferenceRay) -> QuantumRegisterState:
    """Run the preparation on a statevector and return the register state.

    Every gate is real, so the statevector is float64, each gate updates it
    in place, and the returned state holds it as it is. The scale
    is the full-grid norm N' sqrt(Theta), so scale times the amplitudes
    reproduces the field samples for covariant inputs.
    """
    n = circuit.n_qubits
    theta = 1 << circuit.n_angular_qubits
    dim = 1 << n
    psi = np.zeros(dim)

    for gate in circuit.gates:
        if gate.kind == "prep":
            loaded = ray.statevector()
            if loaded.size * theta != dim:
                raise InitCircuitError("reference ray does not match the circuit register")
            psi[:] = 0.0
            # angular register in |0>; adding 0.0 turns -0.0 into 0.0, as the
            # zero imaginary parts did in the Hadamard sums of a complex state
            np.add(loaded, 0.0, out=psi.reshape(-1, theta)[:, 0])
        elif gate.kind == "h":
            q = gate.qubits[0]
            lo, hi = (_qubit_view(psi, n, {q: b}) for b in (0, 1))
            total = np.add(lo, hi, order="C")
            np.subtract(lo, hi, out=hi, order="C")
            np.multiply(hi, _INV_SQRT2, out=hi, order="C")
            np.multiply(total, _INV_SQRT2, out=lo, order="C")
        else:  # crot
            control, target = gate.qubits
            i0, i1 = (_qubit_view(psi, n, {control: 1, target: t}) for t in (0, 1))
            cos_t, sin_t = np.cos(gate.angle), np.sin(gate.angle)
            sin_a, sin_b = (np.multiply(sin_t, v, order="C") for v in (i0, i1))
            np.multiply(cos_t, i0, out=i0, order="C")
            np.subtract(i0, sin_b, out=i0, order="C")  # cos a - sin b
            np.multiply(cos_t, i1, out=i1, order="C")
            np.add(sin_a, i1, out=i1, order="C")  # sin a + cos b

    layout = StateLayout(num_physical=dim, block_dim=dim)
    return QuantumRegisterState(
        amplitudes=psi, scale=ray.norm * np.sqrt(theta), layout=layout
    )


def direct_polar_state(
    field: Callable[[np.ndarray], np.ndarray], spec: PolarGridSpec
) -> tuple[QuantumRegisterState, int]:
    """Construct the target state by brute force, from the field at every grid point.

    The oracle the circuit is judged against; returns the state and the
    evaluation count (radial times angular divisions). Its norm is numpy's
    pairwise sum, not a BLAS dot, so no BLAS thread count changes its bits.
    """
    values = np.ascontiguousarray(np.moveaxis(spec._samples(field), -1, 0)).ravel()
    norm = _norm(values, "field on the polar grid", lambda v: np.sqrt(np.sum(np.square(v))))
    layout = StateLayout(num_physical=values.size, block_dim=values.size)
    return QuantumRegisterState(amplitudes=values / norm, scale=norm, layout=layout), spec.n_points


# fidelity sums its overlap in runs of this many amplitudes: products of whole
# registers raised the peak memory of a 256-division run by about 1 MiB
_OVERLAP_RUN = 8192


def fidelity(a: QuantumRegisterState, b: QuantumRegisterState) -> float:
    """<a|b>^2 of two real register states of equal dimension.

    The overlap is numpy's pairwise sum, not a BLAS dot, so no BLAS thread
    count changes its bits.
    """
    if a.layout.total_dim != b.layout.total_dim:
        raise InitCircuitError("states live on different registers")
    x, y = a.amplitudes, b.amplitudes
    overlap = sum(
        np.sum(x[k : k + _OVERLAP_RUN] * y[k : k + _OVERLAP_RUN])
        for k in range(0, x.size, _OVERLAP_RUN)
    )
    return float(overlap**2)


def covariance_defect(
    field: Callable[[np.ndarray], np.ndarray], spec: PolarGridSpec
) -> float:
    """Largest relative mismatch between the field and its rotated reference ray.

    Zero (to rounding) for rotationally covariant fields; a substantial value
    means the single-ray preparation cannot represent the input and the
    caller should fall back to direct construction.
    """
    ray = sample_reference_ray(field, spec)
    peak = float(np.abs(ray.values).max())
    th = spec.angles()
    cos, sin = np.cos(th), np.sin(th)
    rot = np.stack([np.stack([cos, -sin], axis=-1), np.stack([sin, cos], axis=-1)], axis=-2)
    # (Theta, 2, 2) rotations times the (A, 2) ray: the rotated ray at every (a, k)
    diff = spec._samples(field) - (rot[None] @ ray.values.T[:, None, :, None])[..., 0]
    worst = float(np.sqrt(np.vecdot(diff, diff).max()))
    return worst / peak if peak else 0.0
