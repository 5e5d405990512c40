import numpy as np
import pytest
from hypothesis import settings

import qwavesim as q

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
