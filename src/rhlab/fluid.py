"""Fluid half of the system: continuity by backward characteristics and by
conservative upwind finite volumes, the Lame operator of the viscous stress,
the heat-flow mollifier of the initial velocity iterate, and the implicit
(backward-Euler) linearized momentum step.

Continuity by characteristics represents the density with vacuum as

    rho(t, x) = rho0(U(0; t, x)) exp(-int_0^t div w(s, U(s; t, x)) ds),

so rho stays zero wherever rho0 is zero.  The start time ``t`` may be a 1-D
array: all start times are traced back together (RK2, one interpolation of
the stacked, once-padded velocity and divergence samples per substep and
point set), so a Picard sweep traces every one of its steps in one call.
The sample indices and weights of all 2 * substeps + 1 sample times are
found once per trace; the time-mixed fields are built one sample time at a
time.  Interpolation gathers each corner of every point by one flat index
into a contiguous copy of the padded samples (``np.take``): on a 256-cell
1D trace of 10 start times a call costs about 0.11 ms, against about
0.21 ms for broadcast advanced indexing of the (component, time, cells)
view (one thread of a 2-vCPU Xeon).  Clamps use
``np.minimum(np.maximum(...))``, bit for bit ``np.clip`` without its
wrapper overhead.

The momentum system per step is

    rho (u_new - u_old)/dt + rho w . grad u_new + L u_new = -grad p + f_rad,

filled into a sparse pattern computed once per (grid, viscosity).  Where
rho = 0 the time and convection terms vanish and the same solve degenerates
to the elliptic balance L u_new = rhs.

How the system is solved depends on the dimension.  In 1D it is banded
(half-bandwidth 2 on far-field grids, 4 on periodic ones once the ring is
folded), so LAPACK's banded LU (``dgbsv``) solves it directly in O(n): a
128-cell periodic step with convection costs about 0.1 ms, against about
0.5 ms for SuperLU plus one factor-preconditioned Krylov iteration, nearly
all of it scipy's set-up.  Jacobi-preconditioned Krylov is no alternative there,
because vacuum rows leave only the stiff Lame block (one 1D vacuum run with
160 solves took 20,283 Jacobi iterations); it is kept only as the fallback
for a singular band factor or one whose residual fails the check.  In 2D and
3D the system is solved by a Jacobi (v / diag(A)) preconditioned Krylov
iteration (cg when symmetric, bicgstab with convection): on the 2D 32x32
far-field system with convection ``splu`` costs about 27 ms per solve
against 2 to 4 ms for Jacobi-bicgstab, and Jacobi solves a 3D 16^3
vacuum-plateau system in about 20 ms, where incomplete LU plus Krylov took
3.6 s.  All timings on one thread of a 2-vCPU Xeon.

The Krylov iteration starts from whichever of u_old and the convecting
velocity w has the smaller residual |b - A x|.  Inside a Picard sweep w is
the previous iterate's velocity at the same step, within one Picard
increment of the answer, so it is usually the better start (on the 2D
32x32 far-field benchmark run, 711 Krylov iterations over 40 solves
instead of 992 from u_old).  The choice costs two residual evaluations.
Without convection the start is u_old.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import DomainError, ParameterError, ShapeError, SolverError, StepSizeError
from .grid import (SpatialGrid, _fill_ghosts, _view, check_scalar, check_vector,
                   divergence, gradient, pad_ghost)
from .physics import ViscosityParams

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class FluidState:
    """Density rho >= 0 and velocity u on the spatial grid."""

    rho: Array
    u: Array

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if not np.all(np.isfinite(self.rho)) or not np.all(np.isfinite(self.u)):
            raise DomainError("fluid state must be finite")
        if np.any(self.rho < 0):
            idx = np.unravel_index(int(np.argmin(self.rho)), self.rho.shape)
            raise DomainError(f"negative density at cell {tuple(int(i) for i in idx)}")


@dataclass(frozen=True, eq=False)
class FlowMap:
    """Backward-traced departure points U(0; t, x) per cell, plus the count of
    trace points that left the padded domain and were clamped."""

    departure: Array      # (dim,) + extents; (dim, B) + extents for B start times
    clamped: int = 0


class VelocityHistory:
    """Time samples of a velocity field on [t0, t1] with linear interpolation."""

    def __init__(self, times, fields):
        self.times = np.asarray(times, dtype=float)
        self.fields = [np.asarray(f, dtype=float) for f in fields]
        if self.times.ndim != 1 or len(self.fields) != self.times.size or self.times.size < 1:
            raise ShapeError("history needs one field per sample time")
        if any(f.shape != self.fields[0].shape for f in self.fields):
            raise ShapeError("history fields must share one shape")
        if not (np.all(np.isfinite(self.times))
                and all(np.all(np.isfinite(f)) for f in self.fields)):
            raise DomainError("history times and fields must be finite")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise ShapeError("history times must be strictly increasing")

    @classmethod
    def constant(cls, w: Array, t0: float = 0.0, t1: float = 1.0) -> "VelocityHistory":
        return cls([t0, t1], [w, w])

    def __call__(self, s: float) -> Array:
        t = self.times
        if s <= t[0]:
            return self.fields[0]
        if s >= t[-1]:
            return self.fields[-1]
        j = int(np.searchsorted(t, s, side="right")) - 1
        a = (s - t[j]) / (t[j + 1] - t[j])
        return (1.0 - a) * self.fields[j] + a * self.fields[j + 1]


def _at_times(times: Array, s: Array):
    """``VelocityHistory.__call__`` at the rows of the (S, B) sample times
    ``s``: returns ``sample(stack, k)``, the history with samples stacked
    along axis 0 of ``stack`` at the B times ``s[k]``, bit for bit the same
    values, shape (B,) + stack.shape[1:].  The sample indices, weights and
    end masks of all S rows are found once, here."""
    if times.size == 1:
        return lambda stack, k: np.broadcast_to(stack[0], s.shape[1:] + stack.shape[1:])
    j = np.minimum(np.maximum(np.searchsorted(times, s, side="right") - 1, 0),
                   times.size - 2)
    a = (s - times[j]) / (times[j + 1] - times[j])
    first, last = s <= times[0], s >= times[-1]
    any_first, any_last = first.any(axis=1), last.any(axis=1)

    def sample(stack, k):
        per_time = s.shape[1:] + (1,) * (stack.ndim - 1)
        ak = a[k].reshape(per_time)
        out = (1.0 - ak) * stack[j[k]] + ak * stack[j[k] + 1]
        # np.where with an all-False mask would return ``out`` unchanged
        if any_last[k]:
            out = np.where(last[k].reshape(per_time), stack[-1], out)
        if any_first[k]:
            out = np.where(first[k].reshape(per_time), stack[0], out)
        return out
    return sample


# ---------------------------------------------------------------------------
# multilinear interpolation
# ---------------------------------------------------------------------------

def _clamp_points(pts: Array, grid: SpatialGrid) -> tuple[Array, int]:
    """Keep points inside the one-ghost-layer padded far-field domain;
    returns the number of clamped coordinates.  Periodic grids never clamp."""
    if grid.boundary == "periodic":
        return pts, 0
    clamped = 0
    out = pts.copy()
    for a in range(grid.dim):
        h = grid.spacing[a]
        lo, hi = -0.5 * h, (grid.extents[a] + 0.5) * h
        bad = (out[a] < lo) | (out[a] > hi)
        clamped += int(np.count_nonzero(bad))
        np.minimum(np.maximum(out[a], lo, out=out[a]), hi, out=out[a])
    return out, clamped


def _interp(fp: Array, grid: SpatialGrid, points: Array, index: tuple = ()) -> Array:
    """Multilinear interpolation of a ghost-padded field at points inside the
    padded domain (periodic coordinates wrap).

    ``points`` has shape (dim,) + batch.  ``fp`` has shape
    lead + paired + padded extents: each ``paired`` axis is indexed per point
    by the matching array of ``index`` (broadcast against the batch), and the
    ``lead`` axes are carried through, so the result has shape lead + batch.

    Each point gets one flat index into the C-ordered paired + padded axes
    (paired index and ``i0 + 1`` times their strides); corner ``c`` adds the
    constant offset sum_a c_a stride_a, and its values are gathered by
    ``np.take`` from a contiguous copy of ``fp`` with the lead axes folded
    into one.
    """
    batch = points.shape[1:]
    n_lead = fp.ndim - grid.dim - len(index)
    lead = fp.shape[:n_lead]
    strides = [1]                     # of the paired + padded axes, C order
    for size in fp.shape[:n_lead:-1]:
        strides.insert(0, strides[0] * size)
    src = np.ascontiguousarray(fp).reshape(-1, strides[0] * fp.shape[n_lead])
    flat = 0
    for ix, stride in zip(index, strides):
        flat = flat + ix * stride
    weights = []
    for a in range(grid.dim):
        h = grid.spacing[a]
        n = grid.extents[a]
        x = points[a]
        if grid.boundary == "periodic":
            x = np.mod(x, n * h)
        # the clamp keeps both weights in [0, 1] where x / h rounds past the
        # padded domain's far edge
        t = x / h
        t -= 0.5
        np.minimum(np.maximum(t, -1.0, out=t), n, out=t)
        i0 = np.floor(t).astype(int)
        np.minimum(np.maximum(i0, -1, out=i0), n - 1, out=i0)
        flat = flat + (i0 + 1) * strides[len(index) + a]    # padded indexing
        frac = t - i0
        weights.append((1.0 - frac, frac))
    spatial = strides[len(index):]
    out = np.zeros(lead + batch)
    for corner in itertools.product((0, 1), repeat=grid.dim):
        wgt = 1.0
        for a in range(grid.dim):
            wgt = wgt * weights[a][corner[a]]
        offset = sum(c * stride for c, stride in zip(corner, spatial))
        out += wgt * np.take(src, flat + offset, axis=1).reshape(lead + batch)
    return out


def interp_field(f: Array, grid: SpatialGrid, points: Array,
                 farfield_value: float = 0.0) -> tuple[Array, int]:
    """Multilinear interpolation of a scalar field at physical points.

    ``points`` has shape (dim,) + batch.  Periodic grids wrap coordinates;
    far-field grids clamp points that leave the one-ghost-layer padded domain
    and report how many were clamped.
    """
    f = check_scalar(f, grid)
    points = np.asarray(points, dtype=float)
    if points.shape[0] != grid.dim:
        raise ShapeError(f"points must have leading axis {grid.dim}")
    points, clamped = _clamp_points(points, grid)
    return _interp(pad_ghost(f, grid, farfield_value), grid, points), clamped


# ---------------------------------------------------------------------------
# backward characteristics
# ---------------------------------------------------------------------------

def _start_times(t, substeps: int | None) -> Array:
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ShapeError(f"start time must be a float or a 1-D array, got shape {t.shape}")
    if not np.all(np.isfinite(t)) or np.any(t < 0):
        raise ParameterError(f"start times must be finite and >= 0, got {t}")
    if substeps is not None and substeps < 1:
        raise ParameterError(f"substeps must be >= 1, got {substeps}")
    return t


def _trace_backward(w_hist: VelocityHistory, t: Array, grid: SpatialGrid,
                    substeps: int | None, want_div: bool):
    """RK2 (midpoint) backward trace of all cell centers from s = t_b to s = 0,
    for every start time t_b of the 1-D ``t`` at once, optionally accumulating
    the trapezoidal integral of div w along each path.  Traced points leaving
    the padded far-field domain are clamped and counted.

    The velocity samples (with their divergence) are stacked and padded once.
    Each substep interpolates twice: the velocity at the midpoints, and
    velocity and divergence at the new points, which serve the next substep
    as its k1 and the trapezoid's left value.
    """
    if substeps is None:
        substeps = max(1, w_hist.times.size - 1)
    stack = np.stack(w_hist.fields)
    if stack.shape[1:] != (grid.dim,) + grid.extents:
        raise ShapeError(f"velocity history shape {stack.shape[1:]} incompatible "
                         f"with grid {grid.extents}")
    if want_div:
        stack = np.concatenate([stack, divergence(stack, grid, 0.0)[:, None]], axis=1)
    stack = pad_ghost(stack, grid, 0.0)          # (T, dim [+1]) + padded extents
    per_time = (t.size,) + (1,) * grid.dim
    index = (np.arange(t.size).reshape(per_time),)
    # the 2 * substeps + 1 sample times, in the loop's arithmetic: s, then
    # per substep its midpoint and its end
    ds = t / substeps
    sample_times = [t]
    for _ in range(substeps):
        s = sample_times[-1]
        sample_times += [s - 0.5 * ds, s - ds]
    at_times = _at_times(w_hist.times, np.stack(sample_times))

    def sample(k, pts, fields):
        return _interp(at_times(fields, k).swapaxes(0, 1), grid, pts, index)

    half, full = (0.5 * ds).reshape(per_time), ds.reshape(per_time)
    centers = np.stack(np.meshgrid(*[grid.axis_coords(a) for a in range(grid.dim)],
                                   indexing="ij"))
    pts = np.broadcast_to(centers[:, None], (grid.dim, t.size) + grid.extents)
    clamped = 0
    divint = np.zeros((t.size,) + grid.extents) if want_div else None
    vals = sample(0, pts, stack)
    for step in range(substeps):
        mid, _ = _clamp_points(pts - half * vals[:grid.dim], grid)
        k2 = sample(2 * step + 1, mid, stack[:, :grid.dim])
        pts, n_bad = _clamp_points(pts - full * k2, grid)
        clamped += n_bad
        new = sample(2 * step + 2, pts, stack)
        if want_div:
            divint += half * (vals[grid.dim] + new[grid.dim])
        vals = new
    return pts, clamped, divint


def integrate_flow_map(w_hist: VelocityHistory, t, grid: SpatialGrid,
                       substeps: int | None = None) -> FlowMap:
    """Departure points of the flow ODE dU/ds = w(s, U), U(t) = cell center.

    ``t`` is a float (departure shape (dim,) + extents) or a 1-D array of
    start times traced together (departure shape (dim, B) + extents).
    """
    times = _start_times(t, substeps)
    pts, clamped, _ = _trace_backward(w_hist, times.reshape(-1), grid, substeps,
                                      want_div=False)
    return FlowMap(departure=pts[:, 0] if times.ndim == 0 else pts, clamped=clamped)


def continuity_step_characteristics(rho0: Array, w_hist: VelocityHistory, t,
                                    grid: SpatialGrid,
                                    substeps: int | None = None) -> Array:
    """Density along characteristics:
    rho(t, x) = rho0(U(0; t, x)) exp(-int_0^t div w(s, U(s; t, x)) ds).

    ``t`` is a float (result shape ``grid.extents``) or a 1-D array of start
    times (result shape (B,) + extents, row b for t[b]).  All start times are
    traced in one pass, so one call gives every step of a Picard sweep; each
    row is bit for bit the float-``t`` result.  ``substeps`` RK2 steps (by
    default one per history interval) trace each start time back to 0.

    Nonnegative by construction: linear interpolation of rho0 >= 0 times an
    exponential.
    """
    rho0 = check_scalar(rho0, grid)
    if np.any(rho0 < 0):
        raise DomainError("initial density must be >= 0")
    times = _start_times(t, substeps)
    pts, _, divint = _trace_backward(w_hist, times.reshape(-1), grid, substeps,
                                     want_div=True)
    ghost = grid.farfield_rho if grid.boundary == "farfield" else 0.0
    rho = _interp(pad_ghost(rho0, grid, ghost), grid, pts) * np.exp(-divint)
    return rho[0] if times.ndim == 0 else rho


# ---------------------------------------------------------------------------
# conservative finite-volume continuity
# ---------------------------------------------------------------------------

def _face_values(f: Array, grid: SpatialGrid, axis: int, ghost: float) -> Array:
    """Averages onto the n+1 faces along ``axis`` (ghost-padded)."""
    fp = pad_ghost(f, grid, ghost)
    lead = fp.ndim - grid.dim
    lo = [slice(None)] * lead + [slice(1, -1)] * grid.dim
    hi = list(lo)
    lo[lead + axis] = slice(0, -1)
    hi[lead + axis] = slice(1, None)
    return 0.5 * (fp[tuple(lo)] + fp[tuple(hi)])


def continuity_step_fv(rho_n: Array, w: Array, dt: float, grid: SpatialGrid) -> Array:
    """First-order upwind conservative step of rho_t + div(rho w) = 0.

    Mass is conserved to round-off on periodic grids (telescoping fluxes).
    The step is a convex combination of old cell values whenever the per-cell
    outflow satisfies dt * sum_a (outflow_a / h_a) <= 1, which is what the
    CFL check enforces, so rho >= 0 is preserved exactly.
    """
    rho_n = check_scalar(rho_n, grid)
    w = check_vector(w, grid)
    faces = [_face_values(w[a], grid, a, 0.0) for a in range(grid.dim)]
    outflow = np.zeros(grid.extents)
    for a in range(grid.dim):
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[a] = slice(0, -1)
        hi[a] = slice(1, None)
        outflow += (np.maximum(faces[a][tuple(hi)], 0.0)
                    + np.maximum(-faces[a][tuple(lo)], 0.0)) / grid.spacing[a]
    worst = dt * float(np.max(outflow))
    if worst > 1.0 + 1e-12:
        raise StepSizeError(f"continuity CFL violated: dt * max outflow rate "
                            f"= {worst:.3g} > 1")
    ghost_rho = grid.farfield_rho if grid.boundary == "farfield" else 0.0
    rp = pad_ghost(rho_n, grid, ghost_rho)
    out = rho_n.copy()
    for a in range(grid.dim):
        wf = faces[a]
        lo = [slice(1, -1)] * grid.dim
        hi = [slice(1, -1)] * grid.dim
        lo[a] = slice(0, -1)
        hi[a] = slice(1, None)
        rho_left = rp[tuple(lo)]
        rho_right = rp[tuple(hi)]
        flux = np.where(wf > 0, wf * rho_left, wf * rho_right)
        sl_lo = [slice(None)] * grid.dim
        sl_hi = [slice(None)] * grid.dim
        sl_lo[a] = slice(0, -1)
        sl_hi[a] = slice(1, None)
        out -= dt * (flux[tuple(sl_hi)] - flux[tuple(sl_lo)]) / grid.spacing[a]
    return out


# ---------------------------------------------------------------------------
# Lame operator
# ---------------------------------------------------------------------------

def lame_apply(u: Array, visc: ViscosityParams, grid: SpatialGrid) -> Array:
    """L u = -mu lap u - (lam + mu) grad div u, built by composing the centered
    gradient/divergence so the discrete energy identity
    <L u, u> = mu |grad u|_2^2 + (lam + mu) |div u|_2^2 holds exactly on
    periodic grids."""
    u = check_vector(u, grid)
    out = np.empty_like(u)
    graddiv = gradient(divergence(u, grid, 0.0), grid, 0.0)
    for j in range(grid.dim):
        lap = divergence(gradient(u[j], grid, 0.0), grid, 0.0)
        out[j] = -visc.mu * lap - (visc.lam + visc.mu) * graddiv[j]
    return out


def heat_smooth(u: Array, grid: SpatialGrid, duration: float) -> Array:
    """Explicit diffusion u_t = lap u over ``duration`` (unit diffusivity);
    used to mollify the initial velocity iterate.

    Runs in place on one ghost-padded copy of u (zero far-field ghosts,
    periodic ghosts refreshed after every step) with the arithmetic of
    ``second_difference``, summed over the axes from 0.0.
    """
    u = check_vector(u, grid)
    if not np.isfinite(duration):
        raise ParameterError(f"heat-flow duration must be finite, got {duration}")
    if duration <= 0:
        return u.copy()
    stiff = sum(1.0 / h ** 2 for h in grid.spacing)
    dt_stable = 0.4 / stiff
    n = max(1, int(np.ceil(duration / dt_stable)))
    dt = duration / n
    fp = pad_ghost(u, grid, 0.0)
    out = _view(fp, grid.dim, 0, 0)
    stencils = [(_view(fp, grid.dim, a, +1), _view(fp, grid.dim, a, -1), h * h)
                for a, h in enumerate(grid.spacing)]
    lap, term = np.empty(u.shape), np.empty(u.shape)
    for _ in range(n):
        lap.fill(0.0)
        for plus, minus, hh in stencils:
            np.multiply(out, 2.0, out=term)
            np.subtract(plus, term, out=term)
            np.add(term, minus, out=term)
            np.divide(term, hh, out=term)
            lap += term
        lap *= dt
        out += lap
        if grid.boundary == "periodic":
            _fill_ghosts(fp, grid)
    return out.copy()


# ---------------------------------------------------------------------------
# sparse operator assembly
# ---------------------------------------------------------------------------

def _shift(n: int, off: int, periodic: bool) -> sp.spmatrix:
    """(E f)_i = f_{i+off}: wraps around on periodic grids, drops the
    out-of-range neighbour (zero ghost) otherwise."""
    if periodic:
        rows = np.arange(n)
        return sp.csr_matrix((np.ones(n), (rows, (rows + off) % n)), shape=(n, n))
    return sp.diags([np.ones(n - 1)], [off], (n, n))


def _centered_diff_1d(n: int, h: float, periodic: bool) -> sp.spmatrix:
    return ((_shift(n, +1, periodic) - _shift(n, -1, periodic)) / (2.0 * h)).tocsr()


def _one_sided_diff_1d(n: int, h: float, periodic: bool, forward: bool) -> sp.spmatrix:
    eye = sp.eye(n, format="csr")
    if forward:
        return ((_shift(n, +1, periodic) - eye) / h).tocsr()
    return ((eye - _shift(n, -1, periodic)) / h).tocsr()


def _lift(mat: sp.spmatrix, extents: tuple, axis: int) -> sp.spmatrix:
    """Kronecker-lift a 1D operator on ``axis`` to the full grid."""
    out = None
    for a, n in enumerate(extents):
        block = mat if a == axis else sp.eye(n, format="csr")
        out = block if out is None else sp.kron(out, block, format="csr")
    return out


# The sparse operators below depend on a grid's extents, spacing and boundary
# only, never on its far-field density.  Their caches are keyed by those
# values, so a density-lifted grid (``picard._lift_grids``) shares them.

def _layout_key(grid: SpatialGrid) -> tuple:
    return grid.extents, grid.spacing, grid.boundary


@functools.lru_cache(maxsize=16)
def _axis_operators(extents: tuple, spacing: tuple, boundary: str):
    """Per axis, the centered, forward and backward difference matrices."""
    periodic = boundary == "periodic"
    cen, fwd, bwd = [], [], []
    for a, (n, h) in enumerate(zip(extents, spacing)):
        cen.append(_lift(_centered_diff_1d(n, h, periodic), extents, a))
        fwd.append(_lift(_one_sided_diff_1d(n, h, periodic, True), extents, a))
        bwd.append(_lift(_one_sided_diff_1d(n, h, periodic, False), extents, a))
    return cen, fwd, bwd


def lame_matrix(grid: SpatialGrid, visc: ViscosityParams) -> sp.spmatrix:
    """Sparse matrix of lame_apply on the flattened (component, cell) vector."""
    return _lame_matrix_of(*_layout_key(grid), visc)


@functools.lru_cache(maxsize=16)
def _lame_matrix_of(extents: tuple, spacing: tuple, boundary: str,
                    visc: ViscosityParams) -> sp.spmatrix:
    dim = len(extents)
    cen, _, _ = _axis_operators(extents, spacing, boundary)
    lap = None
    for d in cen:
        dd = (d @ d).tocsr()
        lap = dd if lap is None else lap + dd
    blocks = []
    for j in range(dim):
        row = []
        for k in range(dim):
            block = -(visc.lam + visc.mu) * (cen[j] @ cen[k])
            if j == k:
                block = block - visc.mu * lap
            row.append(block.tocsr())
        blocks.append(row)
    return sp.bmat(blocks, format="csr")


@dataclass(frozen=True, eq=False)
class _BandMap:
    """Where a 1D momentum matrix sits in LAPACK ``gbsv`` band storage.  The
    unknowns are reordered by ``perm`` (unknown i of the reordered system is
    unknown perm[i]); in that order every entry lies within ``kl`` of the
    diagonal, and ``pos`` gives each CSR entry's flat position in the
    Fortran-ordered (3*kl + 1, n) band array, whose first kl rows hold the
    factor's fill."""

    perm: Array
    kl: int
    pos: Array


@dataclass(frozen=True, eq=False)
class _MomentumLayout:
    """CSR pattern of the momentum matrix on the flattened (component, cell)
    vector: the union of the Lame, diagonal and upwind entries.  Holds the
    Lame values on that pattern, the data position of each component's
    diagonal, per axis the backward and forward upwind blocks as (positions
    per component, cell of each entry's row, difference weight), and in 1D
    the band map of the pattern (None in 2D and 3D)."""

    indptr: Array
    indices: Array
    lame_data: Array
    diag_pos: Array                                   # (dim, cells)
    upwind: tuple[tuple[tuple[Array, Array, Array], ...], ...]
    band: _BandMap | None

    def matrix(self, data: Array) -> sp.csr_matrix:
        size = self.indptr.size - 1
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(size, size))


def _band_map(n: int, periodic: bool, rows: Array, cols: Array) -> _BandMap:
    """Band map of a 1D pattern on n cells.  Periodic grids fold the ring
    into the order 0, n-1, 1, n-2, ..., so the wrap-around entries sit next
    to the diagonal (half-bandwidth 4 for the +-2 Lame neighbours); far-field
    grids keep the natural order (half-bandwidth 2)."""
    perm = np.arange(n)
    if periodic:
        perm[0::2] = np.arange((n + 1) // 2)
        perm[1::2] = n - 1 - np.arange(n // 2)
    where = np.argsort(perm)
    i, j = where[rows], where[cols]
    kl = int(np.max(np.abs(i - j)))
    return _BandMap(perm=perm, kl=kl, pos=j * (3 * kl + 1) + 2 * kl + i - j)


def _momentum_layout(grid: SpatialGrid, visc: ViscosityParams) -> _MomentumLayout:
    return _momentum_layout_of(*_layout_key(grid), visc)


@functools.lru_cache(maxsize=16)
def _momentum_layout_of(extents: tuple, spacing: tuple, boundary: str,
                        visc: ViscosityParams) -> _MomentumLayout:
    dim = len(extents)
    _, fwd, bwd = _axis_operators(extents, spacing, boundary)
    n = int(np.prod(extents))
    size = dim * n
    lame = _lame_matrix_of(extents, spacing, boundary, visc).tocoo()
    blocks = [(b.tocoo(), f.tocoo()) for b, f in zip(bwd, fwd)]
    offsets = n * np.arange(dim)[:, None]
    rows = [lame.row, np.arange(size)]
    cols = [lame.col, np.arange(size)]
    for pair in blocks:
        for blk in pair:
            rows.append((offsets + blk.row).ravel())
            cols.append((offsets + blk.col).ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    pattern = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(size, size))
    pattern.sum_duplicates()
    # canonical CSR: the key row * size + col of the stored entries ascends
    keys = np.repeat(np.arange(size, dtype=np.int64), np.diff(pattern.indptr)) * size \
        + pattern.indices

    def position(r, c):
        return np.searchsorted(keys, np.asarray(r, dtype=np.int64) * size + c)

    lame_data = np.zeros(keys.size)
    np.add.at(lame_data, position(lame.row, lame.col), lame.data)
    diag = np.arange(size).reshape(dim, n)
    upwind = tuple(
        tuple((position(offsets + blk.row, offsets + blk.col), blk.row, blk.data)
              for blk in pair)
        for pair in blocks)
    band = _band_map(n, boundary == "periodic", keys // size, pattern.indices) \
        if dim == 1 else None
    for a in (pattern.indptr, pattern.indices):
        a.setflags(write=False)     # shared by every matrix built on the layout
    return _MomentumLayout(indptr=pattern.indptr, indices=pattern.indices,
                           lame_data=lame_data, diag_pos=position(diag, diag),
                           upwind=upwind, band=band)


def _momentum_data(lay: _MomentumLayout, rho: Array, w: Array | None,
                   dt: float) -> Array:
    """CSR data of L + rho/dt + implicit upwind rho w . grad (block-diagonal
    over velocity components) on the layout: a positive w_a scales the
    backward difference along axis a, a negative one the forward
    difference."""
    rho = rho.ravel()
    data = lay.lame_data.copy()
    data[lay.diag_pos] += rho / dt
    if w is not None:
        for a, pair in enumerate(lay.upwind):
            wa = w[a].ravel()
            for scale, (pos, cells, weight) in zip(
                    (rho * np.maximum(wa, 0.0), rho * np.minimum(wa, 0.0)), pair):
                data[pos] += scale[cells] * weight
    return data


def _momentum_matrix(rho: Array, w: Array | None, visc: ViscosityParams, dt: float,
                     grid: SpatialGrid) -> sp.csr_matrix:
    """The momentum matrix filled into the cached layout of the grid."""
    lay = _momentum_layout(grid, visc)
    return lay.matrix(_momentum_data(lay, rho, w, dt))


def _band_storage(band: _BandMap, data: Array) -> Array:
    """The matrix with CSR ``data`` in ``gbsv`` band storage of the reordered
    system: a Fortran-ordered (3*kl + 1, n) array, zero outside the band."""
    n = band.perm.size
    flat = np.zeros(n * (3 * band.kl + 1))
    flat[band.pos] = data
    return flat.reshape(n, 3 * band.kl + 1).T


def _band_solve(lay: _MomentumLayout, data: Array, b: Array,
                rtol: float) -> tuple[Array | None, str]:
    """Direct banded LU solve of the 1D system.  Returns (x, "") when x is
    finite with relative residual <= rtol, else (None, why it was left)."""
    band = lay.band
    _, _, y, info = lapack.dgbsv(band.kl, band.kl, _band_storage(band, data),
                                 b[band.perm], overwrite_ab=True, overwrite_b=True)
    if info < 0:
        raise SolverError(f"dgbsv rejected its argument {-info}")
    if info > 0:
        return None, f"singular, dgbsv info {info}"
    x = np.empty_like(y)
    x[band.perm] = y
    if not np.all(np.isfinite(x)):
        return None, "non-finite solution"
    ax = np.add.reduceat(data * x[lay.indices], lay.indptr[:-1])    # A @ x
    res = float(np.linalg.norm(b - ax)) / float(np.linalg.norm(b))
    if res > rtol:
        return None, f"relative residual {res:.3e}"
    return x, ""


# ---------------------------------------------------------------------------
# momentum step
# ---------------------------------------------------------------------------

def momentum_step(u_n: Array, rho_new: Array, w: Array | None, p_m: Array,
                  rad_source: Array, visc: ViscosityParams, dt: float,
                  grid: SpatialGrid, p_ref: float = 0.0, rtol: float = 1e-10,
                  maxiter: int = 10_000) -> Array:
    """Backward-Euler solve of the linearized momentum balance.

    Vacuum cells need no special casing: the rho-weighted terms drop out of
    their rows and the solve reduces to the elliptic balance there.

    The matrix is filled into the cached layout of the grid.  In 1D one
    banded LU factorization (LAPACK ``dgbsv``) solves it, and its solution is
    kept when it is finite with relative residual <= ``rtol``.  Otherwise, and
    always in 2D and 3D, cg (symmetric) or bicgstab (with convection),
    preconditioned by Jacobi, runs to a 1e-13 relative residual; see the
    module docstring for why.  It starts from ``u_n``, or from ``w`` when
    there is convection and ``w`` has the strictly smaller residual
    |b - A w|.  If the residual still exceeds ``rtol``, lgmres retries from
    there; a residual above ``rtol`` after that raises SolverError, whose
    message names every path tried and why it was left, and whose
    ``iterations`` is the last routine's count when it stopped at
    ``maxiter`` (None when that count is unknown).
    """
    u_n = check_vector(u_n, grid)
    rho_new = check_scalar(rho_new, grid)
    p_m = check_scalar(p_m, grid)
    rad_source = check_vector(rad_source, grid)
    if np.any(rho_new < 0):
        raise DomainError("momentum step requires rho >= 0")

    rhs = rho_new[None] * u_n / dt - gradient(p_m, grid, farfield_value=p_ref) + rad_source
    b = rhs.reshape(-1)
    n = b.size
    if not np.any(b):
        return np.zeros_like(u_n)

    symmetric = w is None or not np.any(w)
    if not symmetric:
        w = check_vector(w, grid)
    lay = _momentum_layout(grid, visc)
    data = _momentum_data(lay, rho_new, None if symmetric else w, dt)
    tried = []
    if lay.band is not None:
        x, why = _band_solve(lay, data, b, rtol)
        if x is not None:
            return x.reshape(u_n.shape)
        tried.append(f"band LU ({why})")

    A = lay.matrix(data)
    diag = A.diagonal()
    precond = spla.LinearOperator((n, n), lambda v: v / diag)
    x0 = u_n.reshape(-1)
    if not symmetric:
        guess = w.reshape(-1)
        if np.linalg.norm(b - A @ guess) < np.linalg.norm(b - A @ x0):
            x0 = guess
    krylov = spla.cg if symmetric else spla.bicgstab
    path = "Jacobi-cg" if symmetric else "Jacobi-bicgstab"
    x, info = krylov(A, b, x0=x0, rtol=1e-13, atol=0.0, maxiter=maxiter, M=precond)
    bnorm = float(np.linalg.norm(b))
    res = float(np.linalg.norm(b - A @ x)) / bnorm
    if res > rtol:
        tried.append(f"{path} (relative residual {res:.3e})")
        path = "lgmres"
        x, info = spla.lgmres(A, b, x0=x, rtol=1e-13, atol=0.0, maxiter=maxiter, M=precond)
        res = float(np.linalg.norm(b - A @ x)) / bnorm
    out = x.reshape(u_n.shape)
    if not np.all(np.isfinite(out)):
        tried.append(f"{path} (non-finite values)")
    elif res > rtol:
        tried.append(f"{path} (relative residual {res:.3e})")
    else:
        return out
    raise SolverError(f"momentum solve failed to reach relative residual {rtol:.1e}; "
                      f"tried {', '.join(tried)}", residual=res,
                      iterations=info if info > 0 else None)
