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
a block, indices are row-major with x fastest: k = i + j*n_x.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import GridError, MaterialError, NumericalError

SYMMETRY_TOL = 1e-12


# ---------------------------------------------------------------------------
# sparse operator container


@dataclass(frozen=True)
class SparseOperator:
    """Real sparse matrix stored as canonically ordered triplets.

    Triplets are sorted by (row, col) with no duplicates and no stored zeros,
    so equal operators have identical triplet arrays and the text export is
    reproducible byte for byte.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    _csr_cache: list = field(default_factory=list, repr=False, compare=False)

    @classmethod
    def from_triplets(cls, shape, rows, cols, vals) -> "SparseOperator":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape and rows.ndim == 1):
            raise GridError("triplet arrays must be 1-D and equally long")
        if not np.all(np.isfinite(vals)):
            raise GridError("triplet values must be finite")
        if rows.size:
            if rows.min() < 0 or rows.max() >= shape[0]:
                raise GridError("triplet row index out of range")
            if cols.min() < 0 or cols.max() >= shape[1]:
                raise GridError("triplet column index out of range")
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size > 1:
            dup = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if np.any(dup):
                raise GridError("duplicate triplet entries")
        op = cls(shape=(int(shape[0]), int(shape[1])), rows=rows, cols=cols, vals=vals)
        for a in (rows, cols, vals):
            a.setflags(write=False)
        return op

    @classmethod
    def from_scipy(cls, mat) -> "SparseOperator":
        coo = sp.coo_matrix(mat)
        coo.sum_duplicates()
        return cls.from_triplets(coo.shape, coo.row, coo.col, coo.data)

    @classmethod
    def from_dense(cls, arr) -> "SparseOperator":
        arr = np.asarray(arr, dtype=np.float64)
        rows, cols = np.nonzero(arr)
        return cls.from_triplets(arr.shape, rows, cols, arr[rows, cols])

    @classmethod
    def diagonal(cls, diag) -> "SparseOperator":
        diag = np.asarray(diag, dtype=np.float64)
        n = diag.size
        idx = np.arange(n)
        return cls.from_triplets((n, n), idx, idx, diag)

    def to_csr(self) -> sp.csr_matrix:
        if not self._csr_cache:
            m = sp.csr_matrix(
                (self.vals, (self.rows, self.cols)), shape=self.shape, dtype=np.float64
            )
            self._csr_cache.append(m)
        return self._csr_cache[0]

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    def transpose(self) -> "SparseOperator":
        return SparseOperator.from_triplets(
            (self.shape[1], self.shape[0]), self.cols, self.rows, self.vals
        )

    @property
    def T(self) -> "SparseOperator":
        return self.transpose()

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.to_csr() @ vec

    def __matmul__(self, vec: np.ndarray) -> np.ndarray:
        return self.apply(vec)

    def max_row_nnz(self) -> int:
        """Largest number of nonzeros in any row (the sparsity parameter d)."""
        if not self.vals.size:
            return 0
        return int(np.bincount(self.rows, minlength=self.shape[0]).max())

    def diagonal_values(self) -> np.ndarray:
        """Dense main diagonal; only sensible for diagonal-dominant storage."""
        d = np.zeros(min(self.shape), dtype=np.float64)
        on = self.rows == self.cols
        d[self.rows[on]] = self.vals[on]
        return d

    def is_diagonal(self) -> bool:
        return bool(np.all(self.rows == self.cols))


def antisymmetry_defect(op: SparseOperator) -> float:
    """max|A + A^T|, exactly zero for a structurally antisymmetric operator."""
    s = op.to_csr() + op.to_csr().T
    return float(np.abs(s.data).max()) if s.nnz else 0.0


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
        offs = [0, self.n_scalar]
        for n in self.n_flux[:-1]:
            offs.append(offs[-1] + n)
        return tuple(offs)

    def scalar_index(self, *ij: int) -> int:
        """Node multi-index -> scalar unknown index (x fastest)."""
        if len(ij) != self.dimension:
            raise GridError("multi-index arity does not match grid dimension")
        k = 0
        for ax in reversed(range(self.dimension)):
            i = ij[ax]
            if not 0 <= i < self.shape[ax]:
                raise GridError("node index out of range")
            k = k * self.shape[ax] + i
        return k

    def scalar_multi_index(self, k: int) -> tuple[int, ...]:
        if not 0 <= k < self.n_scalar:
            raise GridError("scalar index out of range")
        out = []
        for ax in range(self.dimension):
            out.append(k % self.shape[ax])
            k //= self.shape[ax]
        return tuple(out)

    def flux_shape(self, axis: int) -> tuple[int, ...]:
        return tuple(
            n - 1 if ax == axis else n for ax, n in enumerate(self.shape)
        )


def build_grid(bounds: Sequence[Sequence[float]], shape: Sequence[int]) -> StaggeredGrid:
    """Build a staggered grid over a 1D interval or 2D box.

    Args:
        bounds: per-axis (low, high) with high > low.
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
        if not hi > lo:
            raise GridError("axis upper bound must exceed lower bound")
    spacing = tuple((hi - lo) / (n - 1) for (lo, hi), n in zip(bounds, shape))

    axes = [lo + dx * np.arange(n) for (lo, _), dx, n in zip(bounds, spacing, shape)]
    mids = [ax[:-1] + dx / 2 for ax, dx in zip(axes, spacing)]

    def mesh(per_axis: list[np.ndarray]) -> np.ndarray:
        if dim == 1:
            return per_axis[0][:, None].copy()
        X, Y = np.meshgrid(per_axis[0], per_axis[1], indexing="xy")
        # row-major with x fastest: flatten rows of constant y
        return np.column_stack([X.ravel(order="C"), Y.ravel(order="C")])

    scalar_coords = mesh(axes)
    flux_coords = []
    for ax in range(dim):
        per_axis = [mids[a] if a == ax else axes[a] for a in range(dim)]
        flux_coords.append(mesh(per_axis))

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


def build_gradient_divergence(grid: StaggeredGrid) -> tuple[SparseOperator, SparseOperator]:
    """Staggered gradient (nodes -> midpoints) and divergence (midpoints -> nodes).

    Each gradient row couples the two nodes flanking one midpoint with
    weights -+1/dx, so every row has exactly two nonzeros. Divergence rows
    difference the flanking midpoints of one node per axis; midpoints outside
    the domain do not exist and are simply absent (vanishing perpendicular
    flux at walls). Both stencils are assembled independently; they satisfy
    Grad = -Div^T identically, which downstream assembly re-checks.

    Returns:
        (grad, div) with shapes (sum n_flux, n_scalar) and (n_scalar, sum n_flux).
    """
    dim = grid.dimension
    nsc = grid.n_scalar

    g_rows, g_cols, g_vals = [], [], []
    d_rows, d_cols, d_vals = [], [], []
    flux_off = 0
    for ax in range(dim):
        dx = grid.spacing[ax]
        fshape = grid.flux_shape(ax)
        counts = grid.n_flux[ax]
        # enumerate flux multi-indices in the same x-fastest order as mesh()
        if dim == 1:
            multis = [(i,) for i in range(fshape[0])]
        else:
            multis = [(i, j) for j in range(fshape[1]) for i in range(fshape[0])]
        assert len(multis) == counts
        for k, mi in enumerate(multis):
            lo = list(mi)
            hi = list(mi)
            hi[ax] += 1
            k_lo = grid.scalar_index(*lo)
            k_hi = grid.scalar_index(*hi)
            row = flux_off + k
            g_rows += [row, row]
            g_cols += [k_hi, k_lo]
            g_vals += [1.0 / dx, -1.0 / dx]
            # same couplings seen from the node side
            d_rows += [k_hi, k_lo]
            d_cols += [row, row]
            d_vals += [-1.0 / dx, 1.0 / dx]
        flux_off += counts

    nfl = flux_off
    grad = SparseOperator.from_triplets((nfl, nsc), g_rows, g_cols, g_vals)
    div = SparseOperator.from_triplets((nsc, nfl), d_rows, d_cols, d_vals)
    return grad, div


# ---------------------------------------------------------------------------
# materials


def _sample(
    spec, coords: np.ndarray, name: str
) -> np.ndarray:
    """Pointwise material sampling at unknown coordinates (no cell averaging)."""
    n = coords.shape[0]
    if callable(spec):
        out = np.asarray([spec(x) for x in coords], dtype=np.float64)
    elif np.isscalar(spec):
        out = np.full(n, float(spec))
    else:
        out = np.asarray(spec, dtype=np.float64)
        if out.shape != (n,):
            raise MaterialError(
                f"{name}: expected {n} per-point values, got shape {out.shape}"
            )
    if not np.all(np.isfinite(out)) or np.any(out <= 0.0):
        raise MaterialError(f"{name}: material values must be finite and positive")
    return out


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

        rho and c are scalars or callables of the coordinate vector; rho is
        sampled at both node and midpoint unknowns, so a single per-block
        array cannot describe it and array input is rejected.
        """
        for name, spec in (("rho", rho), ("c", c)):
            if not (np.isscalar(spec) or callable(spec)):
                raise MaterialError(
                    f"{name}: pass a scalar or a callable of position "
                    "(per-point arrays are ambiguous across staggered blocks)"
                )
        rho_s = _sample(rho, grid.scalar_coords, "rho")
        c_s = _sample(c, grid.scalar_coords, "c")
        flux_coords = np.concatenate(grid.flux_coords, axis=0)
        rho_f = _sample(rho, flux_coords, "rho")
        rho_cc = rho_s * c_s**2
        # conservative bound, exact for homogeneous media
        vmax = float(np.sqrt(rho_cc.max() / rho_f.min()))
        return cls(
            family="acoustic",
            scalar_weight=1.0 / rho_cc,
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
        vmax = float(1.0 / np.sqrt(eps_s.min() * mu_f.min()))
        return cls(family="maxwell1d", scalar_weight=eps_s, flux_weight=mu_f, max_speed=vmax)


# ---------------------------------------------------------------------------
# operator pair


@dataclass(frozen=True)
class OperatorPair:
    """Assembled (B, A) pair kept together with its grid and material.

    B is diagonal positive; A is exactly antisymmetric (checked on assembly).
    Block layout matches the grid: scalar unknowns first, then flux per axis.
    """

    A: SparseOperator
    B: SparseOperator
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
        return self.B.diagonal_values()


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

    sign = -1.0 if material.family == "acoustic" else 1.0
    a = sp.bmat(
        [
            [None, sign * div.to_csr()],
            [sign * grad.to_csr(), None],
        ],
        format="csr",
    )
    A = SparseOperator.from_scipy(a)
    defect = antisymmetry_defect(A)
    if defect != 0.0:
        raise NumericalError(f"assembled generator is not antisymmetric: {defect}")

    b_diag = np.concatenate([material.scalar_weight, material.flux_weight])
    if np.any(b_diag <= 0.0) or not np.all(np.isfinite(b_diag)):
        raise MaterialError("energy weight must be positive and finite")
    B = SparseOperator.diagonal(b_diag)
    return OperatorPair(A=A, B=B, grid=grid, material=material)
