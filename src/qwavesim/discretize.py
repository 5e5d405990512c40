"""Staggered-grid discretization of lossless first-order wave systems.

The continuous systems handled here have the energy-conserving form

    B dw/dt = A w,    B = B^T > 0 diagonal,    A = -A^T,

with w stacked from a scalar field and its flux. Acoustics in D dimensions
uses w = [u; v] (pressure, velocity), B = diag(1/(rho c^2), rho) and
A = [[0, -Div], [-Grad, 0]]; the 1D two-field transverse electromagnetic
system uses w = [E; H], B = diag(eps, mu) and A = [[0, Div], [-Div^T, 0]].

Antisymmetry of A is what makes the later Hermitian encoding possible, and it
is not automatic: it requires the discrete divergence and gradient to be exact
anti-transposes, Grad = -Div^T. On the staggered grid below this identity holds
to the last bit, because scalar unknowns sit on nodes, flux unknowns sit on
edge midpoints, and both difference stencils connect the same (node, midpoint)
pairs with weights +-1/dx. Node i of axis a sits at x0 + i*dx with
dx = (x1 - x0)/(n - 1); midpoints sit half a cell further. Flux unknowns exist
only between interior node pairs, so the natural boundary condition (vanishing
perpendicular flux, a rigid wall) is built into the operator shapes.

Unknowns are ordered scalar block first, then the flux block per axis; within
a block, axis 0 (x) runs fastest: k = i_0 + n_0*(i_1 + n_1*(i_2 + ...)) for
per-axis counts n_a, which is C order on the reversed shape.

Materials are sampled pointwise at the unknowns. A coefficient is a scalar
or a callable of the (n, d) coordinate table that returns one value per
row; it is called once per table, never once per point, and a result of
any other shape is refused.

There is one stored form per operator. A and the stencils are canonical
float64 scipy CSR (sorted indices, no duplicates, no stored zeros); B is
diagonal by construction and stored as its positive diagonal vector. Every
stencil entry is +-1/dx on a (node, flux) pair that
``StaggeredGrid.flux_incidence`` names, so the stencils and A are written
straight into their CSR arrays from that incidence, already canonical; any
other operator is brought to the form by canonical_csr. scipy.sparse is
imported inside the functions that build operators, so importing this module
loads no scipy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import GridError, MaterialError, NumericalError, ValidationError

if TYPE_CHECKING:
    import scipy.sparse as sp

# ---------------------------------------------------------------------------
# sparse operators


def canonical_csr(mat, error: type[Exception] = GridError) -> sp.csr_matrix:
    """The one stored form of a sparse operator: canonical float64 CSR.

    Canonical means sorted column indices within each row, no duplicate
    entries and no stored zeros, so equal operators have identical
    (indptr, indices, data) arrays. Non-finite entries raise ``error``.
    """
    import scipy.sparse as sp

    out = sp.csr_matrix(mat, dtype=np.float64, copy=True)
    if not np.all(np.isfinite(out.data)):
        raise error("sparse operator entries must be finite")
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


def _stencil_csr(data: np.ndarray, indices: np.ndarray, counts: np.ndarray, shape) -> sp.csr_matrix:
    """CSR of entries already listed row by row in canonical order.

    counts holds the entries of each row; within a row the columns must
    ascend, with no duplicate and no zero value. The stencil builders
    guarantee that by construction, so the canonical flag is set, not
    recomputed, and scipy picks the index dtype, as canonical_csr would.
    """
    import scipy.sparse as sp

    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    out = sp.csr_matrix((data, indices, indptr), shape=shape)
    out.has_canonical_format = True
    return out


def antisymmetry_defect(op: sp.csr_matrix) -> float:
    """max|A + A^T|, exactly zero for a structurally antisymmetric operator."""
    s = op + op.T
    return float(np.abs(s.data).max()) if s.nnz else 0.0


def diagonal_block_entry(op: sp.csr_matrix, split: int) -> tuple[int, int] | None:
    """The first stored nonzero (i, j) with i and j on one side of split, else None.

    None means op couples the first split coordinates (the scalars) only to
    the rest (the fluxes): the two-block form of a staggered generator.
    Stored zeros are ignored.
    """
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    inside = np.flatnonzero(((rows < split) == (op.indices < split)) & (op.data != 0))
    return (int(rows[inside[0]]), int(op.indices[inside[0]])) if inside.size else None


@dataclass(frozen=True)
class RowForcing:
    """A forcing sum_k chi_k(x) f_k(t) kept on the few rows it touches.

    Its value at t is ``pattern @ coefficients(t)`` on ``rows`` and zero on
    every other of the ``size`` rows. rows are strictly increasing, pattern
    is canonical CSR with one row per forced row and one column per time
    coefficient, and coefficients samples those k coefficients at t.
    Calling the object returns the dense vector of all ``size`` rows.
    """

    size: int
    rows: np.ndarray
    pattern: sp.csr_matrix
    coefficients: Callable[[float], np.ndarray]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 1 or np.any(np.diff(rows) <= 0) or np.any((rows < 0) | (rows >= self.size)):
            raise ValidationError("forcing rows must be strictly increasing indices below its size")
        pattern = canonical_csr(self.pattern, ValidationError)
        if pattern.shape[0] != rows.size:
            raise ValidationError("forcing pattern needs one row per forced row")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pattern", pattern)

    @classmethod
    def of_columns(cls, columns, functions) -> "RowForcing":
        """sum_k columns[k] * functions[k](t), on the rows where some column is nonzero."""
        chi = np.stack([np.asarray(c, dtype=np.float64) for c in columns], axis=1)
        rows = np.flatnonzero(np.any(chi != 0.0, axis=1))
        functions = tuple(functions)
        return cls(
            size=chi.shape[0], rows=rows, pattern=chi[rows],
            coefficients=lambda t: np.array([f(t) for f in functions], dtype=np.float64),
        )

    @classmethod
    def zero(cls, size: int) -> "RowForcing":
        """The forcing that touches no row."""
        return cls(size, np.empty(0, dtype=np.int64), np.zeros((0, 0)), lambda _t: np.zeros(0))

    def on_rows(self, t: float) -> np.ndarray:
        """The value at t on ``rows``."""
        return self.pattern @ self.coefficients(t)

    def __call__(self, t: float) -> np.ndarray:
        out = np.zeros(self.size)
        out[self.rows] = self.on_rows(t)
        return out

    def split(self, stop: int) -> tuple["RowForcing", "RowForcing"]:
        """The forcing on rows [0, stop) and on rows [stop, size), each counted from its first row."""
        k = int(np.searchsorted(self.rows, stop))
        head = RowForcing(stop, self.rows[:k], self.pattern[:k], self.coefficients)
        tail = RowForcing(self.size - stop, self.rows[k:] - stop, self.pattern[k:], self.coefficients)
        return head, tail


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class StaggeredGrid:
    """Node/midpoint staggering of a 1D interval or 2D box.

    Scalar unknowns live on the n_x (by n_y) nodes including the boundary;
    flux unknowns live on axis-aligned edge midpoints, one family per axis.
    ``scalar_coords`` and ``flux_coords[a]`` are the index maps: row k holds
    the physical coordinates of unknown k of that block, and ``scalar_index``
    inverts the scalar map.
    """

    dimension: int
    bounds: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]
    spacing: tuple[float, ...]
    n_scalar: int
    n_flux: tuple[int, ...]
    scalar_coords: np.ndarray
    flux_coords: tuple[np.ndarray, ...]

    @property
    def n_total(self) -> int:
        return self.n_scalar + sum(self.n_flux)

    @property
    def block_offsets(self) -> tuple[int, ...]:
        """Start offset of each block in the stacked unknown vector."""
        return tuple(np.cumsum([0, self.n_scalar, *self.n_flux[:-1]]).tolist())

    def scalar_index(self, *ij: int) -> int:
        """Node multi-index -> scalar unknown index (x fastest)."""
        if len(ij) != self.dimension:
            raise GridError("multi-index arity does not match grid dimension")
        if not all(0 <= i < n for i, n in zip(ij, self.shape)):
            raise GridError("node index out of range")
        return int(np.ravel_multi_index(ij[::-1], self.shape[::-1]))

    def flux_shape(self, axis: int) -> tuple[int, ...]:
        return tuple(
            n - 1 if ax == axis else n for ax, n in enumerate(self.shape)
        )

    def flux_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """The two nodes each flux unknown sits between: (low, high), in flux block order.

        Flux f of axis a lies between scalar unknowns low[f] and
        high[f] = low[f] + n_0 * ... * n_{a-1}, its neighbour one node up
        axis a. The fluxes of axis a are the nodes below axis a's last, in
        node order, so low ascends within each axis family. Both are int64
        over all sum(n_flux) fluxes.
        """
        nodes = np.arange(self.n_scalar, dtype=np.int64).reshape(self.shape[::-1])
        low, high = [], []
        for axis, n in enumerate(self.shape):
            # x is the fastest index, so axis a is array axis D - 1 - a
            low.append(nodes.take(np.arange(n - 1), axis=self.dimension - 1 - axis).ravel())
            high.append(low[-1] + int(np.prod(self.shape[:axis])))
        return np.concatenate(low), np.concatenate(high)


def build_grid(bounds: Sequence[Sequence[float]], shape: Sequence[int]) -> StaggeredGrid:
    """Build a staggered grid over a 1D interval or 2D box.

    Args:
        bounds: per-axis finite (low, high) with high > low, and a spacing
            whose reciprocal is finite.
        shape: per-axis node counts, each >= 2.

    Returns:
        StaggeredGrid with coordinate tables for every unknown family.
    """
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    shape = tuple(int(n) for n in shape)
    dim = len(shape)
    if dim not in (1, 2) or len(bounds) != dim:
        raise GridError("grid must be 1D or 2D with matching bounds")
    for (lo, hi), n in zip(bounds, shape):
        if n < 2:
            raise GridError("need at least 2 nodes per axis")
        if not np.isfinite(hi - lo):  # also refuses an infinite or NaN bound
            raise GridError("grid bounds must be finite numbers")
        if not hi > lo:
            raise GridError("axis upper bound must exceed lower bound")
    spacing = tuple((hi - lo) / (n - 1) for (lo, hi), n in zip(bounds, shape))
    for ax, ((lo, hi), n, dx) in enumerate(zip(bounds, shape, spacing)):
        if not (dx > 0.0 and np.isfinite(1.0 / dx)):  # the difference weights are 1 / dx
            raise GridError(f"grid.bounds[{ax}] = [{lo!r}, {hi!r}] over {n} nodes gives "
                            f"the spacing {dx!r}, whose reciprocal is not a finite number")

    axes = [lo + dx * np.arange(n) for (lo, _), dx, n in zip(bounds, spacing, shape)]
    mids = [ax[:-1] + dx / 2 for ax, dx in zip(axes, spacing)]

    def mesh(per_axis: list[np.ndarray]) -> np.ndarray:
        # the slowest axis first, so the C-order ravel runs x fastest
        slow_first = np.meshgrid(*per_axis[::-1], indexing="ij")
        return np.column_stack([m.ravel() for m in slow_first[::-1]])

    scalar_coords = mesh(axes)
    flux_coords = [mesh([mids[a] if a == ax else axes[a] for a in range(dim)]) for ax in range(dim)]

    n_flux = tuple(fc.shape[0] for fc in flux_coords)
    for arr in (scalar_coords, *flux_coords):
        arr.setflags(write=False)
    return StaggeredGrid(
        dimension=dim,
        bounds=bounds,
        shape=shape,
        spacing=spacing,
        n_scalar=int(scalar_coords.shape[0]),
        n_flux=n_flux,
        scalar_coords=scalar_coords,
        flux_coords=tuple(flux_coords),
    )


# ---------------------------------------------------------------------------
# difference operators


def build_gradient_divergence(grid: StaggeredGrid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Staggered gradient (nodes -> midpoints) and divergence (midpoints -> nodes).

    Both are written straight into canonical CSR arrays from the grid's
    flux_incidence, one entry +-1/dx_a per (node, flux) pair. Gradient row
    f holds -1/dx_a on low[f] and +1/dx_a on high[f], so every row has
    exactly two nonzeros. Divergence row v holds, per axis, -1/dx_a on the
    flux ending at node v and +1/dx_a on the flux starting there; midpoints
    outside the domain do not exist and are simply absent (vanishing
    perpendicular flux at walls). So Grad = -Div^T entry for entry, which
    downstream assembly re-checks.

    Returns:
        (grad, div) as canonical CSR with shapes (sum n_flux, n_scalar) and
        (n_scalar, sum n_flux).
    """
    low, high = grid.flux_incidence()
    n_flux, dim = low.size, grid.dimension
    inv_dx = 1.0 / np.array(grid.spacing)
    per_flux = np.repeat(inv_dx, grid.n_flux)
    grad = _stencil_csr(
        np.column_stack([-per_flux, per_flux]).ravel(), np.column_stack([low, high]).ravel(),
        np.full(n_flux, 2), (n_flux, grid.n_scalar),
    )
    # node v's slots, per axis a: the flux ending at v, then the flux starting
    # at v. Fluxes of one axis ascend with their low node, and axis a's all
    # precede axis a + 1's, so a row's filled slots ascend: canonical order.
    axis = np.repeat(np.arange(dim), grid.n_flux)
    slots = np.full((grid.n_scalar, 2 * dim), -1, dtype=np.int64)
    slots[high, 2 * axis] = slots[low, 2 * axis + 1] = np.arange(n_flux)
    held = slots >= 0
    div = _stencil_csr(
        np.broadcast_to(np.column_stack([-inv_dx, inv_dx]).ravel(), slots.shape)[held], slots[held],
        held.sum(axis=1), (grid.n_scalar, n_flux),
    )
    return grad, div


# ---------------------------------------------------------------------------
# materials


@dataclass(frozen=True)
class PiecewiseCoefficient:
    """A background value overridden inside axis-aligned boxes.

    Each region is (box, value) with box of shape (dimension, 2) holding
    inclusive [lo, hi] bounds per axis; where boxes overlap, the first
    listed region wins. Called on an (n, d) coordinate table, it returns
    the n values.
    """

    background: float
    regions: tuple[tuple[np.ndarray, float], ...]

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        out = np.full(coords.shape[0], self.background)
        for box, value in reversed(self.regions):  # earlier regions overwrite later ones
            out[np.all((coords >= box[:, 0]) & (coords <= box[:, 1]), axis=1)] = value
        return out


@dataclass(frozen=True)
class TabulatedCoefficient:
    """Linear interpolation of (x, value) samples along the first axis.

    Clamped to the end values outside the samples, as np.interp does.
    Called on an (n, d) coordinate table, it returns the n values.
    """

    x: np.ndarray
    values: np.ndarray

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        return np.interp(coords[:, 0], self.x, self.values)


def _sample(spec, coords: np.ndarray, name: str) -> np.ndarray:
    """Pointwise material sampling at unknown coordinates (no cell averaging).

    A scalar is broadcast. A callable is called once on the whole (n, d)
    coordinate table and must return n values, one per row. Anything else,
    per-point arrays included, is refused: one array cannot say which
    staggered unknowns its values belong to.
    """
    if callable(spec):
        out = np.asarray(spec(coords), dtype=np.float64)
        if out.shape != coords.shape[:1]:
            raise MaterialError(
                f"{name}: a callable coefficient must return one value per row of the "
                f"{coords.shape} coordinate table, not an array of shape {out.shape}"
            )
    elif np.isscalar(spec):
        out = np.full(coords.shape[0], float(spec))
    else:
        raise MaterialError(
            f"{name}: pass a scalar or a callable of position, not {type(spec).__name__}"
        )
    if not np.all(np.isfinite(out)) or np.any(out <= 0.0):
        raise MaterialError(f"{name}: material values must be finite and positive")
    return out


def _refuse_out_of_range(names: str, scalar_weight: np.ndarray, max_speed: float) -> None:
    """MaterialError unless the scalar weights and the largest speed are finite and positive.

    Finite positive coefficients can still give values that leave the float
    range (rho c^2 overflowing, eps mu underflowing to 0). The flux weights
    are sampled coefficients, which _sample has checked.
    """
    weights_ok = np.all(np.isfinite(scalar_weight) & (scalar_weight > 0.0))
    if not (weights_ok and 0.0 < max_speed < np.inf):
        raise MaterialError(
            f"{names} give energy weights or a largest wave speed outside the float range; "
            "each must be finite and positive"
        )


@dataclass(frozen=True)
class MaterialModel:
    """Positive material coefficients sampled at the staggered unknowns.

    ``scalar_weight`` holds the energy weight of the scalar block
    (1/(rho c^2) for acoustics, eps for the electromagnetic pair) and
    ``flux_weight`` the flux-block weight (rho, resp. mu), concatenated over
    the flux families in block order. Sampling is pointwise at the unknown
    coordinates.
    """

    family: str
    scalar_weight: np.ndarray
    flux_weight: np.ndarray
    max_speed: float

    @classmethod
    def acoustic(cls, grid: StaggeredGrid, rho, c) -> "MaterialModel":
        """Acoustic medium from density rho and sound speed c.

        rho and c are scalars or callables of the (n, d) coordinate table
        that return one value per row, such as PiecewiseCoefficient and
        TabulatedCoefficient (the scenario file's piecewise and file kinds).
        Each callable is called once per table: c on the nodes, rho on the
        nodes and on the midpoints.
        """
        rho_s = _sample(rho, grid.scalar_coords, "rho")
        c_s = _sample(c, grid.scalar_coords, "c")
        flux_coords = np.concatenate(grid.flux_coords, axis=0)
        rho_f = _sample(rho, flux_coords, "rho")
        with np.errstate(all="ignore"):  # a value out of range is refused below, not warned about
            rho_cc = rho_s * c_s**2
            scalar_weight = 1.0 / rho_cc
            # conservative bound, exact for homogeneous media
            vmax = float(np.sqrt(rho_cc.max() / rho_f.min()))
        _refuse_out_of_range("rho and c", scalar_weight, vmax)
        return cls(
            family="acoustic",
            scalar_weight=scalar_weight,
            flux_weight=rho_f,
            max_speed=vmax,
        )

    @classmethod
    def maxwell1d(cls, grid: StaggeredGrid, eps, mu) -> "MaterialModel":
        """1D transverse electromagnetic medium from permittivity and permeability."""
        if grid.dimension != 1:
            raise MaterialError("the electromagnetic pair is 1D only")
        eps_s = _sample(eps, grid.scalar_coords, "eps")
        mu_f = _sample(mu, grid.flux_coords[0], "mu")
        with np.errstate(all="ignore"):  # a value out of range is refused below, not warned about
            vmax = float(1.0 / np.sqrt(eps_s.min() * mu_f.min()))
        _refuse_out_of_range("eps and mu", eps_s, vmax)
        return cls(family="maxwell1d", scalar_weight=eps_s, flux_weight=mu_f, max_speed=vmax)


# ---------------------------------------------------------------------------
# operator pair


@dataclass(frozen=True)
class OperatorPair:
    """Assembled (B, A) pair kept together with its grid and material.

    A is canonical CSR and exactly antisymmetric (checked on assembly). B is
    diagonal and positive, so only its diagonal is stored: ``b_diag``, a
    read-only vector. Block layout matches the grid: scalar unknowns first,
    then flux per axis.
    """

    A: sp.csr_matrix
    b_diag: np.ndarray
    grid: StaggeredGrid
    material: MaterialModel

    @property
    def n_total(self) -> int:
        return self.A.shape[0]

    @property
    def scalar_slice(self) -> slice:
        return slice(0, self.grid.n_scalar)

    @property
    def flux_slice(self) -> slice:
        return slice(self.grid.n_scalar, self.n_total)

    def b_diagonal(self) -> np.ndarray:
        return self.b_diag

    def restrict(self, w_full: np.ndarray) -> np.ndarray:
        """The identity: every unknown is simulated (ReducedSystem.restrict drops pinned ones)."""
        return np.asarray(w_full)


def assemble_operator_pair(grid: StaggeredGrid, material: MaterialModel) -> OperatorPair:
    """Assemble the energy weight B and antisymmetric generator A.

    Acoustic family:  A = [[0, -Div], [-Grad, 0]], B = diag(1/(rho c^2), rho).
    maxwell1d family: A = [[0,  Div], [ Grad, 0]], B = diag(eps, mu).

    Both couple the scalar and flux blocks through the same staggered stencils;
    only the sign pattern differs, and either pattern is antisymmetric because
    Grad = -Div^T. Assembly verifies max|A + A^T| = 0 exactly and B > 0.
    """
    grad, div = build_gradient_divergence(grid)
    nsc, nfl = grid.n_scalar, sum(grid.n_flux)
    if material.scalar_weight.shape != (nsc,) or material.flux_weight.shape != (nfl,):
        raise MaterialError("material arrays do not match the grid")

    # row by row: the divergence rows, shifted past the scalar columns, then the gradient rows
    sign = -1.0 if material.family == "acoustic" else 1.0
    A = _stencil_csr(
        sign * np.concatenate([div.data, grad.data]),
        np.concatenate([div.indices.astype(np.int64) + nsc, grad.indices]),
        np.concatenate([np.diff(div.indptr), np.diff(grad.indptr)]),
        (nsc + nfl, nsc + nfl),
    )
    defect = antisymmetry_defect(A)
    if defect != 0.0:
        raise NumericalError(f"assembled generator is not antisymmetric: {defect}")

    b_diag = np.concatenate([material.scalar_weight, material.flux_weight])
    if np.any(b_diag <= 0.0) or not np.all(np.isfinite(b_diag)):
        raise MaterialError("energy weight must be positive and finite")
    b_diag.setflags(write=False)
    return OperatorPair(A=A, b_diag=b_diag, grid=grid, material=material)
