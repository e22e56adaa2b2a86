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
one start time at a time, for the in-place heat-flow mollifier
against its freshly padded loop version, for the whole-array coefficient
tables of the built-in models against one callable call per (band,
ordinate), for the one-write snapshot writer against the per-value one, and
for the ghost layers against ``np.pad``.

The Phi/Theta monitor and the Picard metric, which take their norms over
chunks of stacked snapshots, agree with their one-snapshot-at-a-time loop
versions for every chunk budget.
"""

import contextlib
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import rhlab.norms
from rhlab.diagnostics import blowup_monitor
from rhlab.fluid import (VelocityHistory, _clamp_points, _interp,
                         continuity_step_characteristics, heat_smooth,
                         integrate_flow_map, interp_field)
from rhlab.grid import (AngularQuadrature, FrequencyGrid, Grids, SpatialGrid, gradient,
                        pad_ghost, read_field_snapshot, write_field_snapshot)
from rhlab.norms import MIXED_INNER_KINDS, NormSettings, mixed_radiation_norm
from rhlab.physics import compton_model, constant_model, zero_model
from rhlab.picard import State, Trajectory, gamma_increment, gamma_metric
from rhlab.scenarios import _const_emission
from rhlab.transport import free_streaming_step, transport_cfl_limit, transport_step

from _reference import (loop_blowup_monitor, loop_clamp_points,
                        loop_continuity_step_characteristics, loop_free_streaming_step,
                        loop_gamma_increment, loop_gamma_metric, loop_gradient,
                        loop_heat_smooth, loop_interp_field, loop_mixed_radiation_norm,
                        loop_pad_ghost, loop_tabulate, loop_trace_backward,
                        loop_transport_step, loop_write_field_snapshot)

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


@settings(max_examples=100, deadline=None)
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
    zeros = draw(st.booleans())
    steps = draw(st.lists(st.floats(0.01, 0.3), min_size=0, max_size=5))
    times = draw(st.floats(0.0, 0.2)) + np.cumsum([0.0] + steps)
    fields = [speed * _field(rng, (grid.dim,) + grid.extents, True, zeros) for _ in times]
    rho0 = _field(rng, grid.extents, False, zeros)
    end = float(times[-1])
    t = draw(st.permutations([0.0, 1.25 * end + 0.1]
                             + draw(st.lists(st.floats(0.0, 1.5 * end + 0.1), max_size=3))))
    substeps = draw(st.sampled_from([None, 1, 2, 7]))
    return grid, rho0, VelocityHistory(times, fields), t, substeps


@settings(max_examples=50, deadline=None)
@given(case=trace_cases())
def test_characteristics_array_t(case):
    grid, rho0, hist, t, substeps = case
    got = continuity_step_characteristics(rho0, hist, np.array(t), grid, substeps)
    assert _identical(got, np.stack([continuity_step_characteristics(
        rho0, hist, tb, grid, substeps) for tb in t]))
    assert _identical(got, np.stack([loop_continuity_step_characteristics(
        rho0, hist, tb, grid, substeps) for tb in t]))
    fm = integrate_flow_map(hist, np.array(t), grid, substeps)
    traced = [loop_trace_backward(hist, tb, grid, substeps) for tb in t]
    assert _identical(fm.departure, np.stack([pts for pts, _, _ in traced], axis=1))
    assert fm.clamped == sum(n for _, n, _ in traced)
    for b, tb in enumerate(t):
        one = integrate_flow_map(hist, tb, grid, substeps)
        assert _identical(one.departure, fm.departure[:, b])


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


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 3), periodic=st.booleans(), seed=seeds, zeros=st.booleans(),
       farfield_value=st.sampled_from([0.0, -0.0, 0.7]), n_batch=st.integers(0, 2))
def test_interp_field(dim, periodic, seed, zeros, farfield_value, n_batch):
    rng = np.random.default_rng(seed)
    grid, points = _grid_and_points(rng, dim, periodic, (5, 3)[:n_batch] + (7,))
    f = _field(rng, grid.extents, True, zeros)
    got, clamped = interp_field(f, grid, points, farfield_value)
    assert _identical(got, loop_interp_field(f, grid, points, farfield_value))
    # the clamp is np.clip to the padded domain, bit for bit, and counts
    kept, n_clamped = _clamp_points(points, grid)
    assert n_clamped == clamped
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


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 3), periodic=st.booleans(), seed=seeds, zeros=st.booleans(),
       n_lead=st.integers(0, 2), n_paired=st.integers(0, 2), swapped=st.booleans())
def test_interp_lead_and_paired_axes(dim, periodic, seed, zeros, n_lead, n_paired, swapped):
    """Each lead slice and each point's paired slice interpolate as one call
    on that slice alone; ``swapped`` passes a non-contiguous view, as the
    characteristics trace does."""
    rng = np.random.default_rng(seed)
    batch = (4, 5)
    grid, points = _grid_and_points(rng, dim, periodic, batch)
    points, _ = _clamp_points(points, grid)          # as every caller does
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


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(1, 3), periodic=st.booleans(), seed=seeds,
       duration=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)), zeros=st.booleans())
def test_heat_smooth(dim, periodic, seed, duration, zeros):
    rng = np.random.default_rng(seed)
    cells = tuple(int(n) for n in rng.integers(4, 12 if dim == 1 else 6, dim))
    lengths = tuple(rng.uniform(0.5, 2.0, dim))
    grid = SpatialGrid.periodic(cells, lengths) if periodic \
        else SpatialGrid.farfield(cells, lengths, 1.0)
    u = _field(rng, (dim,) + cells, True, zeros)
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
        model.emission = _const_emission(e0)
    return grids, model, sigma, lambda v, omega, t, x: e0


@settings(max_examples=100, deadline=None)
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


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(1, 3), seed=seeds, zeros=st.booleans())
def test_field_snapshot(tmp_path_factory, dim, seed, zeros):
    rng = np.random.default_rng(seed)
    cells = tuple(int(n) for n in rng.integers(4, 9 if dim == 1 else 6, dim))
    grid = SpatialGrid.periodic(cells, tuple(rng.uniform(0.1, 3.0, dim)))
    # signed values of magnitude 1e-9 to 1e7, with 0.0 and -0.0
    f = rng.choice([-1.0, 1.0], cells) * 10.0 ** rng.uniform(-9.0, 7.0, cells)
    if zeros:
        f[rng.random(cells) < 0.2] = 0.0
        f[rng.random(cells) < 0.2] = -0.0
    d = tmp_path_factory.mktemp("snap")
    write_field_snapshot(d / "new.dat", f, grid)
    loop_write_field_snapshot(d / "old.dat", f, grid)
    assert (d / "new.dat").read_bytes() == (d / "old.dat").read_bytes()
    g, extents, spacing = read_field_snapshot(d / "new.dat")
    assert _identical(g, f) and extents == cells and spacing == grid.spacing


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


@settings(max_examples=60, deadline=None)
@given(case=snapshot_cases(), q=st.floats(3.01, 6.0), rho_ref=st.sampled_from([0.0, 0.8]),
       phi_cap=st.sampled_from([None, 0.5, np.inf]), overflow=st.booleans())
def test_blowup_monitor(case, q, rho_ref, phi_cap, overflow):
    grids, times, seed, zeros, budget = case
    states = _states(np.random.default_rng(seed), grids, len(times), zeros)
    if overflow:                       # Theta overflows at the last snapshot
        states[-1].u[(0,) * states[-1].u.ndim] = np.inf
    traj = Trajectory(times=times, states=states)
    settings_ = NormSettings(q=q, rho_ref=rho_ref)
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


@settings(max_examples=60, deadline=None)
@given(case=snapshot_cases(), include_l32=st.booleans())
def test_gamma_metric(case, include_l32):
    grids, times, seed, zeros, budget = case
    rng = np.random.default_rng(seed)
    prev, nxt = (_states(rng, grids, len(times), zeros) for _ in range(2))
    with _chunk_budget(budget):
        got = gamma_metric(prev, nxt, grids, include_l32=include_l32)
    assert got.hex() == loop_gamma_metric(prev, nxt, grids, include_l32).hex()
    for p, q in zip(prev, nxt):
        assert gamma_increment(p, q, grids, include_l32=include_l32).hex() \
            == loop_gamma_increment(p, q, grids, include_l32).hex()
