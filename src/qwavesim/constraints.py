"""Linear-constraint elimination for the first-order system B dw/dt = A w.

Constraints take the partitioned form

    R_f w_f + R_c w_c = b(t),

where w_c collects the constrained unknowns and R_c is invertible, so
w_c = R_c^{-1}(b - R_f w_f). Substituting back yields a smaller system of the
same shape,

    B' dw_f/dt = A' w_f + s(t),
    B' = B_ff - B_fc R_c^{-1} R_f,
    A' = A_ff - A_fc R_c^{-1} R_f,
    s(t) = A_fc R_c^{-1} b(t) - B_fc R_c^{-1} db/dt.

The energy weight B of an operator pair is stored as its diagonal, so its
off-diagonal block B_fc is zero. Hence B' = B_ff is the free part of that
diagonal, and the db/dt term of the induced source vanishes:
s(t) = A_fc R_c^{-1} b(t). The elimination is only admissible when it
preserves the structure the rest of the toolchain relies on: B' must stay
positive and A' antisymmetric. Both are re-validated on the reduced
operators, and a violation of the antisymmetry bound raises
IncompatibleConstraintError. The common case R_f = 0 (pinned unknowns, e.g.
Dirichlet walls) reduces to deleting rows and columns, which preserves both
properties trivially. R_f, R_c and the reduced A' are canonical CSR, like the
generator they come from. scipy.sparse is imported by dirichlet_constraints,
not at module level.

b(t) arrives as time samples and is linearly interpolated when the induced
source is evaluated between samples. Only the free unknowns next to a
constrained one feel b, so the source is kept as a RowForcing on those rows:
the rows of A_fc R_c^{-1} that are not empty, times the interpolated b(t).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .discretize import OperatorPair, RowForcing, StaggeredGrid, antisymmetry_defect, canonical_csr
from .errors import ConstraintError, IncompatibleConstraintError

if TYPE_CHECKING:
    import scipy.sparse as sp

REDUCED_SYMMETRY_TOL = 1e-12

# (low, high) wall names per axis: the only place wall names are defined
WALLS = (("left", "right"), ("bottom", "top"))


@dataclass(frozen=True)
class ConstraintSet:
    """Affine constraints R_f w_f + R_c w_c = b(t) on a subset of unknowns.

    constrained: strictly increasing unknown indices (the c-partition).
    r_f: coupling to the free unknowns, shape (n_c, n_free); None means 0.
    r_c: invertible square part, shape (n_c, n_c).
    Both are stored as canonical CSR; non-finite entries are refused.
    b_times/b_values: samples of b(t), shape (n_t,) and (n_t, n_c); None means
    a homogeneous constraint b = 0.
    """

    constrained: np.ndarray
    r_f: sp.csr_matrix | None
    r_c: sp.csr_matrix
    b_times: np.ndarray | None = None
    b_values: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.constrained, dtype=np.int64)
        if c.ndim != 1:
            raise ConstraintError("constrained index list must be 1-D")
        if np.any(np.diff(c) <= 0):
            raise ConstraintError("constrained indices must be strictly increasing")
        object.__setattr__(self, "r_c", canonical_csr(self.r_c, ConstraintError))
        if self.r_f is not None:
            object.__setattr__(self, "r_f", canonical_csr(self.r_f, ConstraintError))
        if self.r_c.shape != (c.size, c.size):
            raise ConstraintError("r_c must be square over the constrained unknowns")
        if self.r_f is not None and self.r_f.shape[0] != c.size:
            raise ConstraintError("r_f row count must match constrained unknowns")
        if (self.b_times is None) != (self.b_values is None):
            raise ConstraintError("b samples need both times and values")
        if self.b_values is not None:
            if self.b_values.shape != (self.b_times.size, c.size):
                raise ConstraintError("b_values must be (n_times, n_constrained)")
            if self.b_times.size < 2:
                raise ConstraintError("need at least 2 time samples to interpolate b(t)")
            if np.any(np.diff(self.b_times) <= 0):
                raise ConstraintError("b sample times must be strictly increasing")


def boundary_scalar_indices(grid: StaggeredGrid, sides: list[str]) -> np.ndarray:
    """Scalar-block unknown indices on named walls of the box.

    WALLS[ax] names the (low, high) walls of axis ax: "left"/"right" at the
    x bounds and, in 2D, "bottom"/"top" at the y bounds. A wall holds the
    nodes whose coordinate on its axis equals that bound. Returned indices
    are sorted and unique.
    """
    # x is the fastest index, so axis ax is array axis D - 1 - ax
    nodes = np.arange(grid.n_scalar, dtype=np.int64).reshape(grid.shape[::-1])
    walls = {
        name: nodes.take(end, axis=grid.dimension - 1 - ax)
        for ax, names in enumerate(WALLS[: grid.dimension])
        for name, end in zip(names, (0, -1))
    }
    bad = set(sides) - set(walls)
    if bad:
        raise ConstraintError(f"unknown boundary side(s) {sorted(bad)} for this grid")
    picked = [walls[side].ravel() for side in sides]
    return np.unique(np.concatenate(picked)) if picked else np.empty(0, dtype=np.int64)


def dirichlet_constraints(
    grid: StaggeredGrid,
    indices: np.ndarray,
    b_times: np.ndarray | None = None,
    b_values: np.ndarray | None = None,
) -> ConstraintSet:
    """Pin the listed scalar unknowns: w_c = b(t) (zero when no samples given).

    An empty index list is the no-op constraint set: reduce_system returns
    the pair unchanged.
    """
    import scipy.sparse as sp

    idx = np.unique(np.asarray(indices, dtype=np.int64))
    if idx.size and (idx.min() < 0 or idx.max() >= grid.n_scalar):
        raise ConstraintError("Dirichlet indices must address scalar-block unknowns")
    n_c = idx.size
    bt = None if b_times is None else np.asarray(b_times, dtype=np.float64)
    bv = None if b_values is None else np.asarray(b_values, dtype=np.float64)
    if bv is not None and bv.ndim == 1:
        bv = bv[:, None] * np.ones((1, n_c))
    return ConstraintSet(constrained=idx, r_f=None, r_c=sp.identity(n_c), b_times=bt, b_values=bv)


@dataclass(frozen=True)
class ReducedSystem:
    """Constraint-eliminated pair plus the bookkeeping to go back and forth.

    A is the reduced generator (canonical CSR) and b_diag the read-only
    diagonal of the reduced energy weight, both over the free unknowns;
    free_indices maps reduced positions to full-system unknowns;
    induced is the forcing the constraint data b(t) induces, a RowForcing
    on the free unknowns next to a constrained one (it touches no row for
    homogeneous constraints). source is its dense view, t -> the full
    forcing vector; solvers read induced. parent grid/material ride along
    for solver metadata.
    """

    A: sp.csr_matrix
    b_diag: np.ndarray
    free_indices: np.ndarray
    constrained_indices: np.ndarray
    induced: RowForcing
    parent: OperatorPair
    source: Callable[[float], np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "source", self.induced)

    @property
    def n_total(self) -> int:
        return int(self.free_indices.size)

    @property
    def grid(self) -> StaggeredGrid:
        return self.parent.grid

    @property
    def material(self):
        return self.parent.material

    @property
    def scalar_slice(self) -> slice:
        n_sc = int(np.searchsorted(self.free_indices, self.parent.grid.n_scalar))
        return slice(0, n_sc)

    @property
    def flux_slice(self) -> slice:
        return slice(self.scalar_slice.stop, self.n_total)

    def b_diagonal(self) -> np.ndarray:
        return self.b_diag

    def embed(self, w_free: np.ndarray) -> np.ndarray:
        """Scatter a free-unknown vector into a full-system vector (w_c = 0)."""
        out = np.zeros(self.parent.n_total, dtype=w_free.dtype)
        out[self.free_indices] = w_free
        return out

    def restrict(self, w_full: np.ndarray) -> np.ndarray:
        return np.asarray(w_full)[self.free_indices]


def _solve_rc(r_c: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """R_c^{-1} rhs with a fast path for (scaled) permutation structure."""
    n = r_c.shape[0]
    row_counts = np.diff(r_c.indptr)
    if np.all(row_counts == 1):
        coo = r_c.tocoo()
        perm = np.zeros(n, dtype=np.int64)
        scale = np.zeros(n)
        perm[coo.row] = coo.col
        scale[coo.row] = coo.data
        if np.unique(perm).size == n and np.all(scale != 0.0):
            # row i states scale[i] * x[perm[i]] = rhs[i]
            x = np.empty(rhs.shape, dtype=np.float64)
            x[perm] = rhs / (scale[:, None] if rhs.ndim == 2 else scale)
            return x
    dense = r_c.toarray()
    try:
        return np.linalg.solve(dense, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConstraintError("r_c is singular; constraints are not solvable") from exc


def reduce_system(pair: OperatorPair, constraints: ConstraintSet) -> ReducedSystem:
    """Eliminate the constrained unknowns from an operator pair.

    Returns the reduced system over the free unknowns, with the induced
    source. Raises IncompatibleConstraintError when the reduced
    generator loses antisymmetry beyond 1e-12, and ConstraintError for a
    singular R_c, index problems, or a reduced weight that is not positive.
    """
    n = pair.n_total
    c_idx = constraints.constrained
    if c_idx.size == 0:
        return ReducedSystem(
            A=pair.A, b_diag=pair.b_diag, free_indices=np.arange(n, dtype=np.int64),
            constrained_indices=c_idx.copy(), induced=RowForcing.zero(n), parent=pair,
        )
    if c_idx.max() >= n:
        raise ConstraintError("constrained index out of range for this system")
    mask = np.ones(n, dtype=bool)
    mask[c_idx] = False
    f_idx = np.nonzero(mask)[0]
    if f_idx.size == 0:
        raise ConstraintError("constraints eliminate every unknown")
    if constraints.r_f is not None and constraints.r_f.shape[1] != f_idx.size:
        raise ConstraintError("r_f column count must match free unknowns")

    a_f = pair.A[f_idx]
    a_ff, a_fc = a_f[:, f_idx], a_f[:, c_idx]
    del a_f  # so the row selection is not held through the canonical copy below
    if constraints.r_f is None or constraints.r_f.nnz == 0:
        a_red = canonical_csr(a_ff)
    else:
        x = _solve_rc(constraints.r_c, constraints.r_f.toarray())
        a_red = canonical_csr(a_ff - a_fc @ x)

    defect = antisymmetry_defect(a_red)
    if defect > REDUCED_SYMMETRY_TOL:
        raise IncompatibleConstraintError(
            "constraints break the antisymmetry of the reduced generator "
            f"(max defect {defect:.3e}); the eliminated system is "
            "no longer energy conserving"
        )
    diag = pair.b_diag[f_idx]
    diag.setflags(write=False)
    if np.any(diag <= 0.0):
        raise ConstraintError(
            f"reduced energy weight is not positive definite (min diagonal {diag.min():.3e})"
        )

    if constraints.b_values is not None:
        times = constraints.b_times
        rc_b = _solve_rc(constraints.r_c, constraints.b_values.T).T
        # only the free unknowns next to a pinned one feel the wall; the
        # product over those rows keeps each row's sum, so it is bit-equal
        coupled = np.flatnonzero(np.diff(a_fc.indptr))
        induced = RowForcing(
            f_idx.size, coupled, a_fc[coupled], lambda t: _interp_rows(times, rc_b, t)
        )
    else:
        induced = RowForcing.zero(f_idx.size)

    return ReducedSystem(
        A=a_red,
        b_diag=diag,
        free_indices=f_idx,
        constrained_indices=c_idx.copy(),
        induced=induced,
        parent=pair,
    )


def _interp_rows(times: np.ndarray, values: np.ndarray, t: float) -> np.ndarray:
    """Linear interpolation of (n_t, n_c) samples at scalar t, clamped outside.

    Bit-equal to np.interp on every column: one bracket search, then one
    row-wise blend with np.interp's slope form. At or outside the end
    samples, and exactly on a sample time, the sample row is returned.
    """
    j = int(np.searchsorted(times, t, side="right")) - 1
    if j < 0:
        return values[0].copy()
    if j == times.size - 1 or times[j] == t:
        return values[j].copy()
    with np.errstate(all="ignore"):  # np.interp warns of no overflow or NaN either
        slope = (values[j + 1] - values[j]) / (times[j + 1] - times[j])
        out = slope * (t - times[j]) + values[j]
        nan = np.isnan(out)
        if np.any(nan):  # np.interp retries from the right sample, then takes an equal pair
            out[nan] = slope[nan] * (t - times[j + 1]) + values[j + 1, nan]
            flat = np.isnan(out) & (values[j] == values[j + 1])
            out[flat] = values[j, flat]
    return out
