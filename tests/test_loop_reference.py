"""The batched phase-space operators agree exactly with their per-(band,
ordinate) loop versions in ``_reference``: same arithmetic, same summation
order, so arrays must match byte for byte (the sign of zero included) and
norms must be ``==``, never within a tolerance.

Three grid families: 1D periodic with slab ordinates, 2D far field with 3D
ordinate sets (the ordinates along z have zero speed on both grid axes), and
3D periodic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rhlab.grid import AngularQuadrature, FrequencyGrid, Grids, SpatialGrid, gradient
from rhlab.norms import MIXED_INNER_KINDS, NormSettings, mixed_radiation_norm
from rhlab.physics import constant_model
from rhlab.transport import free_streaming_step, transport_cfl_limit, transport_step

from _reference import (loop_free_streaming_step, loop_gradient,
                        loop_mixed_radiation_norm, loop_transport_step)

_EDGES = (0.5, 1.0, 2.0, 3.5)


@st.composite
def phase_grids(draw):
    family = draw(st.sampled_from(["periodic1d", "farfield2d", "periodic3d"]))
    bands = FrequencyGrid.from_edges(_EDGES[:draw(st.integers(2, 3))])
    if family == "periodic1d":
        spatial = SpatialGrid.periodic(draw(st.integers(4, 12)),
                                       draw(st.floats(0.5, 2.0)))
        n = draw(st.sampled_from([0, 2, 3, 4, 6]))
        ang = AngularQuadrature.beams_slab() if n == 0 \
            else AngularQuadrature.gauss_legendre_slab(n)
    elif family == "farfield2d":
        cells = tuple(draw(st.lists(st.integers(4, 7), min_size=2, max_size=2)))
        spatial = SpatialGrid.farfield(cells, (1.0, draw(st.floats(0.5, 2.0))),
                                       draw(st.floats(0.0, 2.0)))
        ang = draw(st.sampled_from([AngularQuadrature.axes3d,
                                    AngularQuadrature.combined14]))()
    else:
        cells = tuple(draw(st.lists(st.integers(4, 5), min_size=3, max_size=3)))
        spatial = SpatialGrid.periodic(cells, (1.0, 1.0, draw(st.floats(0.5, 2.0))))
        ang = draw(st.sampled_from([AngularQuadrature.corners3d,
                                    AngularQuadrature.axes3d,
                                    AngularQuadrature.combined14]))()
    return Grids(spatial, bands, ang)


def _field(rng, shape, signed, zeros):
    """Random values; ``zeros`` sets roughly 30% of the entries to 0 or -0."""
    f = rng.normal(size=shape) if signed else rng.uniform(0.0, 5.0, size=shape)
    if zeros:
        f[rng.random(shape) < 0.2] = 0.0
        f[rng.random(shape) < 0.1] = -0.0
    return f


def _identical(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=50, deadline=None)
@given(grids=phase_grids(), seed=seeds, n_lead=st.integers(0, 2),
       farfield_value=st.sampled_from([0.0, 0.7]), zeros=st.booleans())
def test_gradient_leading_axes(grids, seed, n_lead, farfield_value, zeros):
    rng = np.random.default_rng(seed)
    grid = grids.spatial
    f = _field(rng, (2, 3)[:n_lead] + grid.extents, True, zeros)
    got = gradient(f, grid, farfield_value)
    assert got.shape == f.shape[:n_lead] + (grid.dim,) + grid.extents
    assert _identical(got, loop_gradient(f, grid, farfield_value))


@settings(max_examples=50, deadline=None)
@given(grids=phase_grids(), seed=seeds, inner=st.sampled_from(MIXED_INNER_KINDS),
       q=st.floats(3.01, 6.0), signed=st.booleans(), zeros=st.booleans())
def test_mixed_radiation_norm(grids, seed, inner, q, signed, zeros):
    rng = np.random.default_rng(seed)
    I = _field(rng, grids.radiation_shape(), signed, zeros)
    norm_settings = NormSettings(q=q)
    assert mixed_radiation_norm(I, inner, grids, norm_settings) \
        == loop_mixed_radiation_norm(I, inner, grids, norm_settings)


@settings(max_examples=50, deadline=None)
@given(grids=phase_grids(), seed=seeds, c=st.floats(0.5, 2.0),
       cfl=st.floats(0.05, 1.0), coeffs=st.tuples(*[st.floats(0.0, 2.0)] * 3),
       zeros=st.booleans())
def test_transport_step(grids, seed, c, cfl, coeffs, zeros):
    rng = np.random.default_rng(seed)
    shape = grids.radiation_shape()
    I_n, psi = _field(rng, shape, False, zeros), _field(rng, shape, False, zeros)
    rho = _field(rng, grids.spatial.extents, False, zeros)
    model = constant_model(*coeffs)
    dt = cfl * transport_cfl_limit(grids, c)
    assert _identical(transport_step(I_n, psi, rho, model, grids, dt, 0.1, c),
                      loop_transport_step(I_n, psi, rho, model, grids, dt, 0.1, c))


@settings(max_examples=50, deadline=None)
@given(grids=phase_grids(), seed=seeds, c=st.floats(0.5, 2.0),
       cfl=st.floats(0.05, 1.0), zeros=st.booleans())
def test_free_streaming_step(grids, seed, c, cfl, zeros):
    rng = np.random.default_rng(seed)
    I_n = _field(rng, grids.radiation_shape(), False, zeros)
    dt = cfl * transport_cfl_limit(grids, c)
    assert _identical(free_streaming_step(I_n, grids, dt, c),
                      loop_free_streaming_step(I_n, grids, dt, c))
