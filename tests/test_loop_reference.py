"""The batched phase-space operators agree exactly with their per-(band,
ordinate) loop versions in ``_reference``: same arithmetic, same summation
order, so arrays must match byte for byte (the sign of zero included) and
norms must be ``==``, never within a tolerance.

Three grid families: 1D periodic with slab ordinates, 2D far field with 3D
ordinate sets (the ordinates along z have zero speed on both grid axes), and
3D periodic.

The same holds for multilinear interpolation (the flat-index gather against
the per-point loop, and with lead and paired-index axes against one call per
slice), for the characteristics trace of many start times at once against
one start time at a time, for the finite-volume continuity step against
its one-face-at-a-time loop version (its CFL error included), for the in-place heat-flow mollifier
against its freshly padded loop version, for the whole-array coefficient
tables of the built-in models against one callable call per (band,
ordinate), and for the ghost layers against ``np.pad``.  The radiation
half of a Picard step (collision decomposition, transport step, substep
loop, momentum source, and one whole sweep) agrees with its form on
coefficient tables broadcast to (band, ordinate) + cells, out of place.  A
snapshot stack read back with ``np.load`` is the stack that was written,
byte for byte.

The Phi/Theta monitor and the Picard metric, which take their norms over
chunks of stacked snapshots, agree with their one-snapshot-at-a-time loop
versions for every chunk budget.
"""

import contextlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rhlab.norms
from rhlab.diagnostics import blowup_monitor
from rhlab.errors import StepSizeError
from rhlab.fluid import (VelocityHistory, _clamp, _interp, _outside, _trace_backward,
                         continuity_step_characteristics, continuity_step_fv, heat_smooth)
from rhlab.grid import (AngularQuadrature, FrequencyGrid, Grids, SpatialGrid, gradient,
                        pad_ghost, write_field_snapshot)
from rhlab.norms import MIXED_INNER_KINDS, NormSettings, mixed_radiation_norm
from rhlab.physics import (CoefficientModel, EquationOfState, PhysicalConstants,
                           ViscosityParams, _tabulated_emission, compton_model,
                           constant_model, zero_model)
from rhlab.picard import (SlabConfig, State, Trajectory, _iterate_once, _slab_times,
                          gamma_metric)
from rhlab.transport import (_advance, _radiation, collision_decomposition,
                             free_streaming_step, momentum_source, transport_cfl_limit,
                             transport_step)

from _reference import (broadcast_gain, broadcast_momentum_source,
                        broadcast_substep_transport, broadcast_sweep, broadcast_tables,
                        broadcast_transport_step, loop_blowup_monitor, loop_clamp_points,
                        loop_continuity_step_characteristics, loop_continuity_step_fv,
                        loop_free_streaming_step,
                        loop_gamma_increment, loop_gamma_metric, loop_gradient,
                        loop_heat_smooth, loop_interp_field, loop_mixed_radiation_norm,
                        loop_pad_ghost, loop_tabulate, loop_trace_backward,
                        loop_transport_step)

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


def _at_rest(rng, shape):
    """Zeros, with -0.0 planted at roughly half the entries."""
    f = np.zeros(shape)
    f[rng.random(shape) < 0.5] = -0.0
    return f


def _identical(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=100)
@given(dim=st.integers(1, 3), periodic=st.booleans(), seed=seeds, n_lead=st.integers(0, 2),
       farfield_value=st.sampled_from([0.0, -0.0, 0.7, -3.5]), zeros=st.booleans(),
       fortran=st.booleans())
def test_pad_ghost(dim, periodic, seed, n_lead, farfield_value, zeros, fortran):
    rng = np.random.default_rng(seed)
    cells = tuple(int(n) for n in rng.integers(4, 10 if dim == 1 else 6, dim))
    lengths = tuple(rng.uniform(0.5, 2.0, dim))
    grid = SpatialGrid.periodic(cells, lengths) if periodic \
        else SpatialGrid.farfield(cells, lengths, 1.0)
    f = _field(rng, (2, 3)[:n_lead] + cells, True, zeros)
    if fortran:
        f = np.asfortranarray(f)
    got, want = pad_ghost(f, grid, farfield_value), loop_pad_ghost(f, grid, farfield_value)
    assert _identical(got, want)
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.f_contiguous == want.flags.f_contiguous


@settings(max_examples=50)
@given(grids=phase_grids(), seed=seeds, n_lead=st.integers(0, 2),
       farfield_value=st.sampled_from([0.0, 0.7]), zeros=st.booleans())
def test_gradient_leading_axes(grids, seed, n_lead, farfield_value, zeros):
    rng = np.random.default_rng(seed)
    grid = grids.spatial
    f = _field(rng, (2, 3)[:n_lead] + grid.extents, True, zeros)
    got = gradient(f, grid, farfield_value)
    assert got.shape == f.shape[:n_lead] + (grid.dim,) + grid.extents
    assert _identical(got, loop_gradient(f, grid, farfield_value))


# q = 4 is the exponent of NormSettings() and of every benchmark workload,
# which the norms take by two squarings; a float draw from (3.01, 6) rarely
# hits it, so examples pin it, on fields whose norms differ in the last bit
# when |f|^4 is taken as ** 4.0 instead
_GRIDS_1D = Grids(SpatialGrid.periodic(9, 1.5), FrequencyGrid.from_edges(_EDGES),
                  AngularQuadrature.gauss_legendre_slab(4))
_GRIDS_2D = Grids(SpatialGrid.farfield((5, 4), (1.0, 1.5), 1.0),
                  FrequencyGrid.from_edges(_EDGES[:2]), AngularQuadrature.combined14())
_GRIDS_3D = Grids(SpatialGrid.periodic((4, 5, 4), (1.0, 1.0, 0.7)),
                  FrequencyGrid.from_edges(_EDGES[:2]), AngularQuadrature.axes3d())


@settings(max_examples=50)
@given(grids=phase_grids(), seed=seeds, inner=st.sampled_from(MIXED_INNER_KINDS),
       q=st.floats(3.01, 6.0), signed=st.booleans(), zeros=st.booleans())
@example(grids=_GRIDS_1D, seed=12, inner="Lq", q=4.0, signed=True, zeros=True)
@example(grids=_GRIDS_2D, seed=5, inner="W1q", q=4.0, signed=True, zeros=False)
@example(grids=_GRIDS_3D, seed=2, inner="H1W1q", q=4.0, signed=True, zeros=False)
def test_mixed_radiation_norm(grids, seed, inner, q, signed, zeros):
    rng = np.random.default_rng(seed)
    I = _field(rng, grids.radiation_shape(), signed, zeros)
    norm_settings = NormSettings(q=q)
    assert mixed_radiation_norm(I, inner, grids, norm_settings) \
        == loop_mixed_radiation_norm(I, inner, grids, norm_settings)


@settings(max_examples=50)
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


@settings(max_examples=50)
@given(grids=phase_grids(), seed=seeds, c=st.floats(0.5, 2.0),
       cfl=st.floats(0.05, 1.0), zeros=st.booleans(), rest=st.booleans())
def test_free_streaming_step(grids, seed, c, cfl, zeros, rest):
    rng = np.random.default_rng(seed)
    shape = grids.radiation_shape()
    I_n = _at_rest(rng, shape) if rest else _field(rng, shape, False, zeros)
    dt = cfl * transport_cfl_limit(grids, c)
    assert _identical(free_streaming_step(I_n, grids, dt, c),
                      loop_free_streaming_step(I_n, grids, dt, c))


@st.composite
def trace_cases(draw):
    """A grid, a density >= 0, a velocity history, start times including 0
    and one past the history's end, and a substep count.  On the 1D far-field
    family the speeds carry most paths out of the padded domain."""
    family = draw(st.sampled_from(["periodic1d", "farfield1d", "farfield2d", "periodic3d"]))
    if family == "periodic1d":
        grid = SpatialGrid.periodic(draw(st.integers(4, 12)), draw(st.floats(0.5, 2.0)))
        speed = draw(st.floats(0.1, 3.0))
    elif family == "farfield1d":
        grid = SpatialGrid.farfield(draw(st.integers(4, 30)), draw(st.floats(0.5, 2.0)),
                                    draw(st.floats(0.0, 2.0)))
        speed = draw(st.floats(10.0, 40.0))
    elif family == "farfield2d":
        cells = tuple(draw(st.lists(st.integers(4, 7), min_size=2, max_size=2)))
        grid = SpatialGrid.farfield(cells, (1.0, draw(st.floats(0.5, 2.0))),
                                    draw(st.floats(0.0, 2.0)))
        speed = draw(st.floats(0.1, 3.0))
    else:
        cells = tuple(draw(st.lists(st.integers(4, 5), min_size=3, max_size=3)))
        grid = SpatialGrid.periodic(cells, (1.0, 1.0, draw(st.floats(0.5, 2.0))))
        speed = draw(st.floats(0.1, 3.0))
    rng = np.random.default_rng(draw(seeds))
    zeros, rest = draw(st.booleans()), draw(st.booleans())
    steps = draw(st.lists(st.floats(0.01, 0.3), min_size=0, max_size=5))
    times = draw(st.floats(0.0, 0.2)) + np.cumsum([0.0] + steps)
    shape = (grid.dim,) + grid.extents
    fields = [_at_rest(rng, shape) if rest else speed * _field(rng, shape, True, zeros)
              for _ in times]
    rho0 = _field(rng, grid.extents, False, zeros)
    end = float(times[-1])
    t = draw(st.permutations([0.0, 1.25 * end + 0.1]
                             + draw(st.lists(st.floats(0.0, 1.5 * end + 0.1), max_size=3))))
    substeps = draw(st.sampled_from([None, 1, 2, 7]))
    return grid, rho0, VelocityHistory(times, fields), t, substeps


@settings(max_examples=50)
@given(case=trace_cases())
def test_characteristics_array_t(case):
    grid, rho0, hist, t, substeps = case
    got = continuity_step_characteristics(rho0, hist, np.array(t), grid, substeps)
    assert _identical(got, np.stack([continuity_step_characteristics(
        rho0, hist, tb, grid, substeps) for tb in t]))
    assert _identical(got, np.stack([loop_continuity_step_characteristics(
        rho0, hist, tb, grid, substeps) for tb in t]))
    departure, clamped, divint = _trace_backward(hist, np.array(t), grid, substeps)
    traced = [loop_trace_backward(hist, tb, grid, substeps) for tb in t]
    assert _identical(departure, np.stack([pts for pts, _, _ in traced], axis=1))
    assert clamped == sum(n for _, n, _ in traced)
    assert _identical(divint, np.stack([d for _, _, d in traced]))
    for b, tb in enumerate(t):
        one, _, _ = _trace_backward(hist, tb, grid, substeps)
        assert _identical(one[:, 0], departure[:, b])


@settings(max_examples=100)
@given(dim=st.integers(1, 3), periodic=st.booleans(), seed=seeds, zeros=st.booleans(),
       rest=st.booleans(), rho_bar=st.sampled_from([0.0, 0.7, 2.0]),
       courant=st.floats(0.05, 3.0))
def test_continuity_step_fv(dim, periodic, seed, zeros, rest, rho_bar, courant):
    # vacuum cells and signed zeros in rho and w, or w at rest; about one
    # draw in eight fails the CFL check, which both versions must raise alike
    rng = np.random.default_rng(seed)
    cells = tuple(int(n) for n in rng.integers(4, 12 if dim == 1 else 6, dim))
    lengths = tuple(rng.uniform(0.5, 2.0, dim))
    grid = SpatialGrid.periodic(cells, lengths, rho_bar) if periodic \
        else SpatialGrid.farfield(cells, lengths, rho_bar)
    shape = (dim,) + cells
    w = _at_rest(rng, shape) if rest else _field(rng, shape, True, zeros)
    rho = _field(rng, cells, False, zeros)
    dt = courant / (np.max(np.abs(w)) * sum(1.0 / h for h in grid.spacing) + 1.0)
    try:
        want = loop_continuity_step_fv(rho, w, dt, grid)
    except StepSizeError as exc:
        with pytest.raises(StepSizeError) as raised:
            continuity_step_fv(rho, w, dt, grid)
        assert str(raised.value) == str(exc)
        return
    assert _identical(continuity_step_fv(rho, w, dt, grid), want)


def _grid_and_points(rng, dim, periodic, batch):
    """A grid and points spread over three domain lengths per axis, with the
    padded domain's edges, and points just past them, mixed in."""
    cells = tuple(int(n) for n in rng.integers(4, 12 if dim == 1 else 6, dim))
    lengths = tuple(rng.uniform(0.5, 2.0, dim))
    grid = SpatialGrid.periodic(cells, lengths) if periodic \
        else SpatialGrid.farfield(cells, lengths, 1.0)
    points = np.empty((dim,) + batch)
    for a, (n, h) in enumerate(zip(cells, grid.spacing)):
        edges = [-0.5 * h, (n + 0.5) * h, np.nextafter(-0.5 * h, -1.0),
                 np.nextafter((n + 0.5) * h, np.inf), 0.0, n * h]
        x = rng.uniform(-n * h, 2 * n * h, batch)
        pick = rng.random(batch) < 0.3
        x[pick] = rng.choice(edges, size=int(pick.sum()))
        points[a] = x
    return grid, points


@settings(max_examples=100)
@given(dim=st.integers(1, 3), periodic=st.booleans(), seed=seeds, zeros=st.booleans(),
       farfield_value=st.sampled_from([0.0, -0.0, 0.7]), n_batch=st.integers(0, 2))
def test_interp_field(dim, periodic, seed, zeros, farfield_value, n_batch):
    rng = np.random.default_rng(seed)
    grid, points = _grid_and_points(rng, dim, periodic, (5, 3)[:n_batch] + (7,))
    f = _field(rng, grid.extents, True, zeros)
    kept, clamped = _clamp(points.copy(), grid), _outside(points, grid)
    got = _interp(pad_ghost(f, grid, farfield_value), grid, kept)
    assert _identical(got, loop_interp_field(f, grid, points, farfield_value))
    # the clamp is np.clip to the padded domain, bit for bit, and counts
    ref_kept, ref_clamped = loop_clamp_points(points, grid)
    assert _identical(kept, ref_kept) and ref_clamped == clamped
    if periodic:
        assert clamped == 0 and _identical(kept, points)
    else:
        per_axis = (dim,) + (1,) * (points.ndim - 1)
        lo = (-0.5 * np.array(grid.spacing)).reshape(per_axis)
        hi = ((np.array(grid.extents) + 0.5) * np.array(grid.spacing)).reshape(per_axis)
        assert _identical(kept, np.clip(points, lo, hi))
        assert clamped == int(((points < lo) | (points > hi)).sum())


@pytest.mark.parametrize("periodic", [False, True], ids=["farfield", "periodic"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_interp_nan_coordinate(dim, periodic):
    """A NaN coordinate lands in cell -1 with NaN weights: the point
    interpolates to NaN, with no IndexError and no RuntimeWarning, and every
    other point keeps its value."""
    rng = np.random.default_rng(dim + 3 * periodic)
    grid, points = _grid_and_points(rng, dim, periodic, (5, 7))
    points = _clamp(points.copy(), grid)
    fp = pad_ghost(_field(rng, grid.extents, True, True), grid, 0.7)
    nan, axis = rng.random((5, 7)) < 0.3, rng.integers(0, dim, (5, 7))
    hit = points.copy()
    for a in range(dim):
        hit[a][nan & (axis == a)] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _interp(fp, grid, hit)
        both = _interp(np.stack([fp, -fp]), grid, hit)
    assert np.isnan(got[nan]).all() and np.isnan(both[:, nan]).all()
    kept = _interp(fp, grid, points)
    assert _identical(got[~nan], kept[~nan])
    assert _identical(both[0][~nan], kept[~nan])


@settings(max_examples=100)
@given(dim=st.integers(1, 3), periodic=st.booleans(), seed=seeds, zeros=st.booleans(),
       n_lead=st.integers(0, 2), n_paired=st.integers(0, 2), swapped=st.booleans())
def test_interp_lead_and_paired_axes(dim, periodic, seed, zeros, n_lead, n_paired, swapped):
    """Each lead slice and each point's paired slice interpolate as one call
    on that slice alone; ``swapped`` passes a non-contiguous view, which
    ``_interp`` copies once (the characteristics trace passes contiguous
    time mixes)."""
    rng = np.random.default_rng(seed)
    batch = (4, 5)
    grid, points = _grid_and_points(rng, dim, periodic, batch)
    points = _clamp(points.copy(), grid)             # as every caller does
    lead, paired = (2, 3)[:n_lead], (3, 2)[:n_paired]
    padded = tuple(n + 2 for n in grid.extents)
    if swapped:
        fp = np.moveaxis(_field(rng, paired + lead + padded, True, zeros),
                         range(n_paired, n_paired + n_lead), range(n_lead))
    else:
        fp = _field(rng, lead + paired + padded, True, zeros)
    index = tuple(rng.integers(0, p, (4, 1) if k == 0 else batch)
                  for k, p in enumerate(paired))
    got = _interp(fp, grid, points, index)
    assert got.shape == lead + batch
    want = np.zeros(lead + batch)
    for ld in itertools.product(*map(range, lead)):
        for pv in itertools.product(*map(range, paired)):
            hit = np.ones(batch, bool)
            for ix, v in zip(index, pv):
                hit &= np.broadcast_to(ix, batch) == v
            want[ld] = np.where(hit, _interp(fp[ld + pv], grid, points), want[ld])
    assert _identical(got, want)


@settings(max_examples=50)
@given(dim=st.integers(1, 3), periodic=st.booleans(), seed=seeds,
       duration=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)), zeros=st.booleans(),
       rest=st.booleans())
def test_heat_smooth(dim, periodic, seed, duration, zeros, rest):
    rng = np.random.default_rng(seed)
    cells = tuple(int(n) for n in rng.integers(4, 12 if dim == 1 else 6, dim))
    lengths = tuple(rng.uniform(0.5, 2.0, dim))
    grid = SpatialGrid.periodic(cells, lengths) if periodic \
        else SpatialGrid.farfield(cells, lengths, 1.0)
    u = _at_rest(rng, (dim,) + cells) if rest else _field(rng, (dim,) + cells, True, zeros)
    assert _identical(heat_smooth(u, grid, duration), loop_heat_smooth(u, grid, duration))


positive = st.floats(0.05, 20.0)


def _compton_sigma(D1, D2, v0, theta):
    """The Compton sigma as a pointwise callable, written out independently."""
    def sigma(v, omega, t, x, rho):
        z = (v - v0) / v0
        return np.full_like(rho, D1 * theta ** -0.5 * np.exp(-D2 * theta ** -0.5 * z * z))
    return sigma


@st.composite
def coefficient_cases(draw):
    """A built-in model on a 1D, 2D or 3D grid with random band edges, and
    pointwise callables written out independently for its sigma and emission.
    The Compton parameters and edges spread the exponent over many decades,
    down to results that underflow to zero."""
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.lists(st.integers(4, 6), min_size=dim, max_size=dim)))
    spatial = SpatialGrid.periodic(cells, (1.0,) * dim)
    widths = draw(st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=5))
    edges = draw(st.floats(1e-3, 5.0)) + np.cumsum([0.0] + widths)
    ang = {1: AngularQuadrature.gauss_legendre_slab(4), 2: AngularQuadrature.axes3d(),
           3: AngularQuadrature.corners3d()}[dim]
    grids = Grids(spatial, FrequencyGrid.from_edges(edges), ang)
    kind = draw(st.sampled_from(["zero", "constant", "compton"]))
    if kind == "zero":
        model = zero_model()
        sigma, e0 = (lambda v, omega, t, x, rho: np.zeros_like(rho)), 0.0
    elif kind == "constant":
        s0, e0 = draw(positive), draw(positive)
        model = constant_model(s0, draw(positive), e0)
        sigma = lambda v, omega, t, x, rho: np.full_like(rho, s0)
    else:
        params = [draw(positive) for _ in range(4)]
        model = compton_model(*params)
        sigma, e0 = _compton_sigma(*params), 0.0
    if draw(st.booleans()):
        e0 = draw(positive)
        model.emission = _tabulated_emission(lambda v: e0)
    return grids, model, sigma, lambda v, omega, t, x: e0


@settings(max_examples=100)
@given(case=coefficient_cases(), seed=seeds, t=st.floats(-1.0, 1.0), zeros=st.booleans())
def test_coefficient_tables(case, seed, t, zeros):
    grids, model, sigma, emission = case
    assert model.tabulated
    rho = _field(np.random.default_rng(seed), grids.spatial.extents, False, zeros)
    got = model.sigma_bm(grids, t, rho)
    assert _identical(got, loop_tabulate(model.sigma, grids, t, rho))
    assert _identical(got, loop_tabulate(sigma, grids, t, rho))
    got = model.emission_bm(grids, t, rho)
    assert _identical(got, loop_tabulate(model.emission, grids, t))
    assert _identical(got, loop_tabulate(emission, grids, t))


RADIATION_MODELS = ("zero", "constant", "compton", "callable", "rho-emission")


def _kernel(a):
    """A scattering kernel of strength a that varies with mu and with v'/v."""
    def kernel(v_from, v_to, mu):
        return a * (1.0 + 0.5 * np.asarray(mu, dtype=float) ** 2) * np.sqrt(v_from / v_to)
    return kernel


@st.composite
def radiation_cases(draw, max_dim=3):
    """A 1D, 2D or 3D grid, periodic or far field, and a model of each kind
    the radiation half treats: the built-in zero, constant and Compton
    models (tabulated), one with untabulated sigma and emission that depend
    on t, and one whose emission depends on rho (with or without a table)."""
    dim = draw(st.integers(1, max_dim))
    cells = tuple(draw(st.lists(st.integers(4, 10 if dim == 1 else 5), min_size=dim,
                                max_size=dim)))
    lengths = tuple(draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim)))
    spatial = SpatialGrid.periodic(cells, lengths) if draw(st.booleans()) \
        else SpatialGrid.farfield(cells, lengths, draw(st.floats(0.0, 2.0)))
    if dim == 1:
        ang = draw(st.sampled_from([AngularQuadrature.beams_slab(),
                                    AngularQuadrature.gauss_legendre_slab(4)]))
    else:
        ang = draw(st.sampled_from([AngularQuadrature.axes3d, AngularQuadrature.corners3d,
                                    AngularQuadrature.combined14]))()
    grids = Grids(spatial, FrequencyGrid.from_edges(_EDGES[:draw(st.integers(2, 4))]), ang)
    kind = draw(st.sampled_from(RADIATION_MODELS))
    s0, k0, e0 = draw(positive), draw(st.floats(0.0, 2.0)), draw(positive)
    if kind == "zero":
        return grids, zero_model()
    if kind == "constant":
        return grids, constant_model(s0, k0, e0)
    if kind == "compton":
        return grids, compton_model(*[draw(positive) for _ in range(4)],
                                    sigma_s_profile=_kernel(k0), emission0=e0)
    if kind == "callable":
        return grids, CoefficientModel(
            sigma=lambda v, omega, t, x, rho: np.full_like(rho, s0 * (1.0 + t * t) / v),
            sigma_s_bar=_kernel(k0), sigma_s_bar_prime=_kernel(0.5 * k0),
            emission=lambda v, omega, t, x: e0 * (1.0 + t) * v)
    model = constant_model(s0, k0, 0.0)

    def emission(v, omega, t, x, rho):
        return e0 * rho
    if draw(st.booleans()):
        emission.table = lambda v, rho: e0 * rho
    model.emission, model.emission_depends_rho = emission, True
    return grids, model


@settings(max_examples=100)
@given(case=radiation_cases(), seed=seeds, c=st.floats(0.5, 2.0), limits=st.floats(0.05, 3.5),
       t=st.floats(-1.0, 1.0), zeros=st.booleans())
def test_radiation_half(case, seed, c, limits, t, zeros):
    # each step against the broadcast tables, out of place; beyond
    # CFL_FRACTION limits _advance takes two to four substeps
    grids, model = case
    rng = np.random.default_rng(seed)
    shape = grids.radiation_shape()
    I, psi = _field(rng, shape, False, zeros), _field(rng, shape, False, zeros)
    rho = _field(rng, grids.spatial.extents, False, zeros)
    limit = transport_cfl_limit(grids, c)
    removal, emission, gain_matrix = broadcast_tables(model, grids, t, rho)
    dec = collision_decomposition(psi, rho, model, grids, t)
    assert _identical(dec.removal, removal)
    assert _identical(dec.gain, broadcast_gain(emission, gain_matrix, psi, rho))
    assert _identical(momentum_source(I, rho, model, grids, t, c),
                      broadcast_momentum_source(I, rho, model, grids, t, c))
    step = min(limits, 1.0) * limit
    assert _identical(transport_step(I, psi, rho, model, grids, step, t, c),
                      broadcast_transport_step(I, psi, rho, model, grids, step, t, c))
    assert _identical(_advance(I, psi, rho, _radiation(model, grids, c), limits * limit, t),
                      broadcast_substep_transport(I, psi, rho, model, grids, limits * limit,
                                                  t, c))


@settings(max_examples=30)
@given(case=radiation_cases(max_dim=2), seed=seeds, steps=st.integers(1, 3),
       limits=st.floats(0.3, 3.0), zeros=st.booleans())
def test_sweep_radiation_half(case, seed, steps, limits, zeros):
    # one Picard sweep on one record: the removal formed once per step (per
    # substep time when untabulated) and shared by the momentum source,
    # against the broadcast tables at every substep and at t_new
    grids, model = case
    grid = grids.spatial
    rng = np.random.default_rng(seed)
    consts = PhysicalConstants(1.0)
    dt = limits * transport_cfl_limit(grids, consts.c)
    times = _slab_times(0.0, steps * dt, dt)

    def state():
        return State(I=_field(rng, grids.radiation_shape(), False, zeros),
                     rho=rng.uniform(0.5, 2.0, grid.extents),
                     u=0.1 * _field(rng, (grid.dim,) + grid.extents, True, zeros))

    state0, prev = state(), [state() for _ in times]
    visc, eos = ViscosityParams(1.0, 0.0), EquationOfState.polytropic(1.0, 2.0)
    got = _iterate_once(prev, state0, _radiation(model, grids, consts.c), visc, eos,
                        SlabConfig(steps * dt, dt), times)
    want = broadcast_sweep(prev, state0, model, grids, visc, eos, consts, times)
    assert len(got) == len(want) == steps + 1
    for a, b in zip(got[1:], want[1:]):
        assert _identical(a.I, b.I) and _identical(a.rho, b.rho) and _identical(a.u, b.u)


@settings(max_examples=50)
@given(dim=st.integers(1, 3), seed=seeds, zeros=st.booleans(), vector=st.booleans())
def test_field_snapshot(tmp_path_factory, dim, seed, zeros, vector):
    rng = np.random.default_rng(seed)
    cells = tuple(int(n) for n in rng.integers(4, 9 if dim == 1 else 6, dim))
    grid = SpatialGrid.periodic(cells, tuple(rng.uniform(0.1, 3.0, dim)))
    # a stack of 1 to 4 snapshots, scalar or vector, of signed values of
    # magnitude 1e-9 to 1e7, with 0.0 and -0.0
    shape = (int(rng.integers(1, 5)),) + ((dim,) if vector else ()) + cells
    f = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-9.0, 7.0, shape)
    if zeros:
        f[rng.random(shape) < 0.2] = 0.0
        f[rng.random(shape) < 0.2] = -0.0
    path = tmp_path_factory.mktemp("snap") / "field.npy"
    write_field_snapshot(path, f, grid)
    assert _identical(np.load(path), f)


@contextlib.contextmanager
def _chunk_budget(nbytes):
    saved = rhlab.norms.CHUNK_BYTES
    rhlab.norms.CHUNK_BYTES = nbytes
    try:
        yield
    finally:
        rhlab.norms.CHUNK_BYTES = saved


@st.composite
def snapshot_cases(draw):
    """Grids of every dimension and boundary kind, 1 to 9 snapshot times
    with non-uniform steps, a seed for the fields, and a chunk budget of 1
    to 4 radiation fields plus a remainder, so counts split unevenly."""
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.lists(st.integers(4, 9 if dim == 1 else 5),
                                min_size=dim, max_size=dim)))
    lengths = tuple(draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim)))
    spatial = SpatialGrid.periodic(cells, lengths) if draw(st.booleans()) \
        else SpatialGrid.farfield(cells, lengths, draw(st.sampled_from([0.0, 1.0])))
    ang = AngularQuadrature.gauss_legendre_slab(draw(st.sampled_from([2, 4]))) \
        if dim == 1 else draw(st.sampled_from([AngularQuadrature.axes3d,
                                               AngularQuadrature.corners3d]))()
    grids = Grids(spatial, FrequencyGrid.from_edges(_EDGES[:draw(st.integers(2, 3))]), ang)
    steps = draw(st.lists(st.floats(1e-3, 0.3), min_size=0, max_size=8))
    times = [float(t) for t in draw(st.floats(0.0, 1.0)) + np.cumsum([0.0] + steps)]
    nbytes = 8 * int(np.prod(grids.radiation_shape()))
    budget = draw(st.integers(1, 4)) * nbytes + draw(st.integers(0, nbytes - 1))
    return grids, times, draw(seeds), draw(st.booleans()), budget


def _states(rng, grids, count, zeros):
    grid = grids.spatial
    return [State(I=_field(rng, grids.radiation_shape(), False, zeros),
                  rho=_field(rng, grid.extents, False, zeros),
                  u=_field(rng, (grid.dim,) + grid.extents, True, zeros))
            for _ in range(count)]


def _hex(values):
    return [float(v).hex() for v in values]


def _budget(grids, fields):
    return fields * 8 * int(np.prod(grids.radiation_shape())) + 8


@settings(max_examples=60)
@given(case=snapshot_cases(), q=st.floats(3.01, 6.0), rho_bar=st.sampled_from([0.0, 0.8]),
       phi_cap=st.sampled_from([None, 0.5, np.inf]), overflow=st.booleans())
@example(case=(_GRIDS_1D, [0.0, 0.1, 0.15, 0.4], 1, True, _budget(_GRIDS_1D, 2)), q=4.0,
         rho_bar=0.8, phi_cap=None, overflow=False)
@example(case=(_GRIDS_2D, [0.2, 0.25, 0.5], 17, False, _budget(_GRIDS_2D, 1)), q=4.0,
         rho_bar=0.0, phi_cap=0.5, overflow=True)
def test_blowup_monitor(case, q, rho_bar, phi_cap, overflow):
    grids, times, seed, zeros, budget = case
    # Phi's reference density is the grid's background density
    grids = Grids(grids.spatial._replace(rho_bar=rho_bar), grids.freq, grids.ang)
    states = _states(np.random.default_rng(seed), grids, len(times), zeros)
    if overflow:                       # Theta overflows at the last snapshot
        states[-1].u[(0,) * states[-1].u.ndim] = np.inf
    traj = Trajectory(times=times, states=states)
    settings_ = NormSettings(q=q)
    with _chunk_budget(budget), np.errstate(all="ignore"):
        got = blowup_monitor(traj, grids, settings_, phi_cap)
        want = loop_blowup_monitor(traj, grids, settings_, phi_cap)
    assert _hex(got.times) == _hex(want.times)
    assert _hex(got.phi) == _hex(want.phi)
    assert _hex(got.theta) == _hex(want.theta)
    assert [_hex(c) for c in got.phi_components] == [_hex(c) for c in want.phi_components]
    assert float(got.phi_cap).hex() == float(want.phi_cap).hex()
    assert (got.flags, got.flag_snapshots) == (want.flags, want.flag_snapshots)
    assert (got.first_phi_overflow, got.first_theta_overflow) \
        == (want.first_phi_overflow, want.first_theta_overflow)


@settings(max_examples=60)
@given(case=snapshot_cases(), rho_bar=st.sampled_from([0.0, 0.8]))
def test_gamma_metric(case, rho_bar):
    grids, times, seed, zeros, budget = case
    # the grid decides the L^{3/2} term: a far field whose density vanishes
    grids = Grids(grids.spatial._replace(rho_bar=rho_bar), grids.freq, grids.ang)
    include_l32 = grids.spatial.boundary == "farfield" and rho_bar == 0.0
    rng = np.random.default_rng(seed)
    prev, nxt = (_states(rng, grids, len(times), zeros) for _ in range(2))
    with _chunk_budget(budget):
        got = gamma_metric(prev, nxt, grids)
    assert got.hex() == loop_gamma_metric(prev, nxt, grids, include_l32).hex()
    for p, q in zip(prev, nxt):
        assert gamma_metric([p], [q], grids).hex() \
            == loop_gamma_increment(p, q, grids, include_l32).hex()
