import hypothesis
import numpy as np
import pytest

from rhlab.grid import AngularQuadrature, FrequencyGrid, Grids, SpatialGrid
from rhlab.norms import NormSettings
from rhlab.physics import EquationOfState, PhysicalConstants, ViscosityParams

# one hypothesis profile for every property test: examples have no deadline,
# so a slow or loaded host does not fail a test whose code is right; each
# test keeps its own max_examples
hypothesis.settings.register_profile("rhlab", deadline=None)
hypothesis.settings.load_profile("rhlab")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grid256():
    return SpatialGrid.periodic(256, 1.0)


@pytest.fixture
def grid128():
    return SpatialGrid.periodic(128, 1.0)


@pytest.fixture
def grid128_far():
    return SpatialGrid.farfield(128, 1.0, 1.0)


@pytest.fixture
def slab8():
    return AngularQuadrature.gauss_legendre_slab(8)


@pytest.fixture
def bands4():
    return FrequencyGrid.from_edges([0.5, 1.0, 2.0, 3.0, 4.5])


@pytest.fixture
def grids128(grid128, bands4, slab8):
    return Grids(grid128, bands4, slab8)


@pytest.fixture
def grids128_far(grid128_far, bands4, slab8):
    return Grids(grid128_far, bands4, slab8)


@pytest.fixture
def settings():
    return NormSettings(q=4.0)


@pytest.fixture
def visc():
    return ViscosityParams(mu=1.0, lam=0.0)


@pytest.fixture
def eos():
    return EquationOfState.polytropic(1.0, 2.0)


@pytest.fixture
def consts():
    return PhysicalConstants(c=1.0)


def random_smooth_field(grid, rng, n_modes=4, amplitude=1.0):
    """Random low-frequency trigonometric field (periodic, smooth)."""
    x = grid.coords()
    out = np.zeros(grid.extents)
    for _ in range(n_modes):
        term = np.ones(grid.extents)
        for a in range(grid.dim):
            k = rng.integers(1, 4)
            phase = rng.uniform(0, 2 * np.pi)
            term = term * np.sin(2 * np.pi * k * x[a] / grid.lengths[a] + phase)
        out = out + rng.normal(scale=amplitude) * term
    return out


def random_smooth_vector(grid, rng, n_modes=4, amplitude=1.0):
    return np.stack([random_smooth_field(grid, rng, n_modes, amplitude)
                     for _ in range(grid.dim)])
