from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import qwavesim as q
from qwavesim.constraints import WALLS
from qwavesim.discretize import PiecewiseCoefficient

# Property tests draw the same examples on every run and keep no example file.
settings.register_profile(
    "qwavesim", derandomize=True, database=None, deadline=None, max_examples=30
)
settings.load_profile("qwavesim")


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


def build_acoustic_1d(n=16, rho=1.0, c=1.0, bounds=(0.0, 1.0)):
    grid = q.build_grid([bounds], [n])
    material = q.MaterialModel.acoustic(grid, rho=rho, c=c)
    return q.assemble_operator_pair(grid, material)


def build_acoustic_2d(nx=6, ny=6, rho=1.0, c=1.0):
    grid = q.build_grid([(0.0, 1.0), (0.0, 1.0)], [nx, ny])
    material = q.MaterialModel.acoustic(grid, rho=rho, c=c)
    return q.assemble_operator_pair(grid, material)


def build_maxwell(n=16, eps=1.0, mu=1.0):
    grid = q.build_grid([(0.0, 1.0)], [n])
    material = q.MaterialModel.maxwell1d(grid, eps=eps, mu=mu)
    return q.assemble_operator_pair(grid, material)


@pytest.fixture
def acoustic_1d():
    return build_acoustic_1d()


@pytest.fixture
def acoustic_2d():
    return build_acoustic_2d()


@dataclass(frozen=True)
class GradedCoefficient:
    """base + amplitude sin(frequency (x + y)), smooth, evaluated on a coordinate table."""

    base: float
    amplitude: float
    frequency: float

    def __call__(self, coords):
        return self.base + self.amplitude * np.sin(self.frequency * coords.sum(axis=1))


@st.composite
def coefficients(draw, dimension):
    """A constant, a one-box piecewise or a smooth graded coefficient in [0.5, 3]."""
    level = st.floats(0.5, 3.0)
    kind = draw(st.sampled_from(["constant", "piecewise", "graded"]))
    if kind == "constant":
        return draw(level)
    if kind == "graded":
        return GradedCoefficient(draw(st.floats(1.0, 2.5)), draw(st.floats(0.0, 0.5)),
                                 draw(st.floats(0.5, 10.0)))
    box = np.sort(np.array([draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
                            for _ in range(dimension)]), axis=1)
    return PiecewiseCoefficient(background=draw(level), regions=((box, draw(level)),))


@st.composite
def chiral_systems(draw, kind, dimension, homogeneous=False):
    """A random pair of one family and dimension, with or without Dirichlet walls.

    homogeneous draws constant coefficients and no walls: an OperatorPair
    whose H takes the box basis.
    """
    shape = [draw(st.integers(2, 20 if dimension == 1 else 7)) for _ in range(dimension)]
    grid = q.build_grid([(0.0, 1.0)] * dimension, shape)
    coefficient = st.floats(0.5, 3.0) if homogeneous else coefficients(dimension)
    if kind == "acoustic":
        material = q.MaterialModel.acoustic(grid, rho=draw(coefficient), c=draw(coefficient))
    else:
        material = q.MaterialModel.maxwell1d(grid, eps=draw(coefficient), mu=draw(coefficient))
    pair = q.assemble_operator_pair(grid, material)
    if homogeneous:
        return pair
    walls = [side for names in WALLS[:dimension] for side in names]
    sides = draw(st.lists(st.sampled_from(walls), unique=True, max_size=len(walls)))
    if not sides:
        return pair
    pinned = q.boundary_scalar_indices(grid, sides)
    if pinned.size == grid.n_scalar:
        return pair
    return q.reduce_system(pair, q.dirichlet_constraints(grid, pinned))
