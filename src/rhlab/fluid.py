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
A velocity history of zeros is not traced: every point stays at its cell
center with a zero divergence integral, and ``heat_smooth`` returns such a
field as +0 without stepping, so a slab at rest costs no stepping for its
iterate 0 or the first sweep's trace.
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
to the elliptic balance L u_new = rhs.  The pattern and the Lame values are
built with numpy from stencil neighbours, each value by the float operations
of the sparse block products it stands for, so the matrix is bit for bit
theirs: 0.5 ms on a 1D grid, 3.8 ms at 32^2, 36 ms at 16^3 and 234 ms at
32^3, against 1.9, 6.4, 50 and 323 ms for the Kronecker-product assembly.

How the system is solved depends on the dimension.  In 1D it is banded
(half-bandwidth 2 on far-field grids, 4 on periodic ones once the ring is
folded), so LAPACK's banded LU (``dgbsv``) solves it directly in O(n): a
128-cell periodic step with convection costs about 0.1 ms, against about
0.5 ms for SuperLU plus one factor-preconditioned Krylov iteration, nearly
all of it scipy's set-up.  It is the only 1D path: a singular factor, or a
solution that is not finite or misses the residual bound, raises
SolverError.  Of 4,000 random 1D systems the band LU failed on 337, each
with one parity class of cells entirely in vacuum (the centered-square Lame
stencil couples only cells two apart); Jacobi-Krylov plus lgmres failed on
each one tried too, after 3.5 to 11 s, and in 1D vacuum leaves it only the
stiff Lame block (one vacuum run with 160 solves took 20,283 Jacobi
iterations).  In 2D and 3D the system is solved by a Jacobi (v / diag(A))
preconditioned Krylov iteration (cg when symmetric, bicgstab with
convection): on the 2D 32x32 far-field system with convection ``splu``
costs about 27 ms per solve against 2 to 4 ms for Jacobi-bicgstab, and
Jacobi solves a 3D 16^3 vacuum-plateau system in about 20 ms, where
incomplete LU plus Krylov took 3.6 s.  All timings on one thread of a
2-vCPU Xeon.  ``_cg`` and ``_bicgstab`` are scipy 1.17's ``cg`` and
``bicgstab`` loops, operation for operation, on the compiled CSR product
``_matvec``, so every result is bit for bit scipy's.  They are the only 2D/3D
path, as band LU is in 1D: a solve they leave above the residual bound
raises SolverError.  Of 5,200 random 2D/3D systems 183 failed, each with
one parity class of cells entirely in vacuum; an lgmres retry, run on 124
of them, rescued none and took 21 to 45 s each.

The Krylov iteration starts from whichever of u_old and the convecting
velocity w has the smaller residual |b - A x|.  Inside a Picard sweep w is
the previous iterate's velocity at the same step, within one Picard
increment of the answer, so it is usually the better start (on the 2D
32x32 far-field benchmark run at seed 0, 526 Krylov iterations over 30
solves instead of 656 from u_old, a BiCGSTAB pass that stops at its half
step counted whole).  The choice costs two residual evaluations,
and the chosen one is bicgstab's first residual, so it adds one.
Without convection the start is u_old.

The Krylov routines stop at ``KRYLOV_RTOL = RTOL / 10``.  They stop on
their recursively updated residual, while every solve is checked on its
true residual |b - A x| against ``RTOL``; the decade between the two is
the margin for the drift between them, and a tighter target buys digits
that no output keeps.  On 1,500 random 2D/3D systems (up to 50% vacuum,
periodic and far field, with and without convection) the worst true
residual was 9.997e-12 and no solve raised SolverError.  Against the
earlier 1e-13 target, the 2D far-field benchmark run (w2, seed 0) makes
959 CSR products instead of 1,219, with a worst true residual of 9.9e-12,
and its final theta moves by 7.9e-11 relative.

scipy is loaded in parts.  Two compiled modules are loaded with this module
straight from scipy's directory: ``lapack``, scipy's LAPACK wrappers
``scipy.linalg._flapack`` (6 to 10 ms), and ``sparsetools``, scipy's sparse
kernels ``scipy.sparse._sparsetools`` (about 0.5 ms).  ``from scipy.linalg
import lapack`` takes 0.3 to 0.4 s, because scipy's package import clones
numpy's array API and so imports ``numpy.f2py`` and ``numpy.testing`` (0.1
to 0.2 s together), and ``scipy.sparse.linalg`` costs another 0.3 s.
So a run in any dimension imports no scipy package: w1 set-up fell from
about 0.45 to 0.22 s, and w2 from about 0.48 to 0.23 s.  Only reading
``fluid.spla`` imports ``scipy.sparse.linalg``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParameterError, ShapeError, SolverError, StepSizeError
from .grid import (SpatialGrid, _fill_ghosts, _view, check_scalar, check_step,
                   check_vector, divergence, gradient, pad_ghost)
from .physics import ViscosityParams

Array = np.ndarray

RTOL = 1e-10            # relative residual every momentum solve must reach
# relative residual each 2D/3D Krylov routine aims at: the routines stop on
# their updated residual, RTOL is checked on the true one, and the decade
# between is the margin for the drift between the two (module docstring)
KRYLOV_RTOL = RTOL / 10
MAXITER = 10_000        # iteration cap of each 2D/3D Krylov routine
NONFINITE = -1          # info of a Krylov routine stopped by a non-finite residual


def _scipy_extension(name: str):
    """scipy's compiled module ``name`` (such as ``scipy.linalg._flapack``),
    loaded from the scipy directory without running scipy's package
    imports, and registered under its own name, so scipy shares the module
    whichever is imported first."""
    if name not in sys.modules:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy_dir, *name.split(".")[1:-1]),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


lapack = _scipy_extension("scipy.linalg._flapack")
sparsetools = _scipy_extension("scipy.sparse._sparsetools")


# perfbench/tracing.py is the only reader of ``spla``; ROADMAP item 3 removes it
def __getattr__(name):
    if name == "spla":
        import scipy.sparse.linalg
        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class VelocityHistory:
    """Time samples of a velocity field on [t0, t1] with linear interpolation;
    ``fields`` is one float array, the samples stacked along axis 0."""

    def __init__(self, times, fields):
        self.times = np.asarray(times, dtype=float)
        try:                            # a ragged list raises ValueError
            self.fields = np.asarray(fields, dtype=float)
        except ValueError as exc:
            raise ShapeError("history fields must share one shape") from exc
        if (self.times.ndim != 1 or not self.times.size
                or self.fields.shape[:1] != self.times.shape):
            raise ShapeError("history needs one field per sample time")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.fields))):
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


# ---------------------------------------------------------------------------
# backward characteristics
# ---------------------------------------------------------------------------

def _trace_backward(w_hist: VelocityHistory, t, grid: SpatialGrid,
                    substeps: int | None = None):
    """RK2 (midpoint) backward trace of all cell centers from s = t_b to s = 0
    for every start time t_b of ``t`` (a float, or a 1-D array of B), with the
    trapezoidal integral of div w along each path.  Returns the departure
    points U(0; t_b, x), shape (dim, B) + extents (B = 1 for a float), the
    count of trace points clamped to the padded far-field domain, and the
    integrals, shape (B,) + extents.

    The velocity samples (stacked once, by ``VelocityHistory``) and their
    divergence are padded once.
    Each substep interpolates twice: the velocity at the midpoints, and
    velocity and divergence at the new points, which serve the next substep
    as its k1 and the trapezoid's left value.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ShapeError(f"start time must be a float or a 1-D array, got shape {t.shape}")
    if not np.all(np.isfinite(t)) or np.any(t < 0):
        raise ParameterError(f"start times must be finite and >= 0, got {t}")
    if substeps is not None and substeps < 1:
        raise ParameterError(f"substeps must be >= 1, got {substeps}")
    t = t.reshape(-1)
    if substeps is None:
        substeps = max(1, w_hist.times.size - 1)
    stack = w_hist.fields
    if stack.shape[1:] != (grid.dim,) + grid.extents:
        raise ShapeError(f"velocity history shape {stack.shape[1:]} incompatible "
                         f"with grid {grid.extents}")
    centers = np.stack(np.meshgrid(*[grid.axis_coords(a) for a in range(grid.dim)],
                                   indexing="ij"))
    if not stack.any():
        # at rest every sample interpolates to +0: no point moves or clamps,
        # and the integral stays +0
        return (np.repeat(centers[:, None], t.size, axis=1), 0,
                np.zeros((t.size,) + grid.extents))
    stack = np.concatenate([stack, divergence(stack, grid, 0.0)[:, None]], axis=1)
    stack = pad_ghost(stack, grid, 0.0)          # (T, dim + 1) + padded extents
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
    pts = np.broadcast_to(centers[:, None], (grid.dim, t.size) + grid.extents)
    clamped = 0
    divint = np.zeros((t.size,) + grid.extents)
    vals = sample(0, pts, stack)
    for step in range(substeps):
        mid, _ = _clamp_points(pts - half * vals[:grid.dim], grid)
        k2 = sample(2 * step + 1, mid, stack[:, :grid.dim])
        pts, n_bad = _clamp_points(pts - full * k2, grid)
        clamped += n_bad
        new = sample(2 * step + 2, pts, stack)
        divint += half * (vals[grid.dim] + new[grid.dim])
        vals = new
    return pts, clamped, divint


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
    exponential, and exactly 0 where that interpolation is 0.
    """
    rho0 = check_scalar(rho0, grid)
    if not (rho0 >= 0).all():        # NaN fails too
        raise DomainError("initial density must be >= 0")
    pts, _, divint = _trace_backward(w_hist, t, grid, substeps)
    rho = _interp(pad_ghost(rho0, grid, grid.rho_bar), grid, pts)
    # vacuum stays 0 where exp overflows (0 * inf would be NaN); the overflow
    # is intended and raises no RuntimeWarning
    with np.errstate(over="ignore"):
        np.multiply(rho, np.exp(-divint), out=rho, where=rho != 0.0)
    return rho[0] if np.ndim(t) == 0 else rho


# ---------------------------------------------------------------------------
# conservative finite-volume continuity
# ---------------------------------------------------------------------------

def _sides(dim: int, axis: int, others: slice = slice(None)) -> tuple:
    """Index tuples of the lower and upper neighbours along ``axis``, with
    ``others`` on the other axes: the two cells of each face of a once-padded
    array for ``slice(1, -1)``, the two faces of each cell by default."""
    lo, hi = [others] * dim, [others] * dim
    lo[axis], hi[axis] = slice(0, -1), slice(1, None)
    return tuple(lo), tuple(hi)


def continuity_step_fv(rho_n: Array, w: Array, dt: float, grid: SpatialGrid) -> Array:
    """First-order upwind conservative step of rho_t + div(rho w) = 0.

    Mass is conserved to round-off on periodic grids (telescoping fluxes).
    The step is a convex combination of old cell values whenever the per-cell
    outflow satisfies dt * sum_a (outflow_a / h_a) <= 1, which is what the
    CFL check enforces, so rho >= 0 is preserved exactly.  w (zero ghosts)
    and rho (``rho_bar`` ghosts) are padded once each; no flux is formed
    before the CFL check passes.  A density that is negative or NaN, or a
    NaN velocity (which makes the CFL rate NaN), is a domain error.
    """
    rho_n = check_scalar(rho_n, grid)
    w = check_vector(w, grid)
    check_step(dt, "continuity")
    if not (rho_n >= 0).all():
        raise DomainError("continuity step requires rho >= 0")
    wp = pad_ghost(w, grid, 0.0)
    faces, outflow = [], np.zeros(grid.extents)
    for a, h in enumerate(grid.spacing):
        left, right = _sides(grid.dim, a, slice(1, -1))
        wf = 0.5 * (wp[(a,) + left] + wp[(a,) + right])
        lo, hi = _sides(grid.dim, a)
        outflow += (np.maximum(wf[hi], 0.0) + np.maximum(-wf[lo], 0.0)) / h
        faces.append(wf)
    worst = dt * float(np.max(outflow))
    if math.isnan(worst):
        raise DomainError("continuity step requires a velocity that is not NaN")
    if worst > 1.0 + 1e-12:
        raise StepSizeError(f"continuity CFL violated: dt * max outflow rate "
                            f"= {worst:.3g} > 1")
    rp = pad_ghost(rho_n, grid, grid.rho_bar)
    out = rho_n.copy()
    for a, (wf, h) in enumerate(zip(faces, grid.spacing)):
        left, right = _sides(grid.dim, a, slice(1, -1))
        flux = np.where(wf > 0, wf * rp[left], wf * rp[right])
        lo, hi = _sides(grid.dim, a)
        out -= dt * (flux[hi] - flux[lo]) / h
    return out


# ---------------------------------------------------------------------------
# Lame operator
# ---------------------------------------------------------------------------

def lame_apply(u: Array, visc: ViscosityParams, grid: SpatialGrid) -> Array:
    """L u = -mu lap u - (lam + mu) grad div u: the Lame block of the grid's
    cached momentum layout, so the operator the momentum solve inverts.  Its
    values are the compositions of the centered gradient/divergence (zero
    far-field ghosts), so the discrete energy identity
    <L u, u> = mu |grad u|_2^2 + (lam + mu) |div u|_2^2 holds exactly on
    periodic grids."""
    u = check_vector(u, grid)
    lay = _momentum_layout(grid, visc)
    return _matvec(lay, lay.lame_data, u.ravel()).reshape(u.shape)


def heat_smooth(u: Array, grid: SpatialGrid, duration: float) -> Array:
    """Explicit diffusion u_t = lap u over ``duration`` (unit diffusivity);
    used to mollify the initial velocity iterate.

    Runs in place on one ghost-padded copy of u (zero far-field ghosts,
    periodic ghosts refreshed after every step) with the arithmetic of
    ``second_difference``, summed over the axes from 0.0.  A field of zeros
    (either sign) gives +0 everywhere without stepping: that is what the
    first step makes of it, as its Laplacian is summed from +0.
    """
    u = check_vector(u, grid)
    if not np.isfinite(duration):
        raise ParameterError(f"heat-flow duration must be finite, got {duration}")
    if duration <= 0:
        return u.copy()
    if not u.any():
        return np.zeros(u.shape)
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
# momentum operator layout
# ---------------------------------------------------------------------------

class _BandMap(NamedTuple):
    """Where a 1D momentum matrix sits in LAPACK ``gbsv`` band storage.  The
    unknowns are reordered by ``perm`` (unknown i of the reordered system is
    unknown perm[i]); in that order every entry lies within ``kl`` of the
    diagonal, and ``pos`` gives each CSR entry's flat position in the
    Fortran-ordered (3*kl + 1, n) band array, whose first kl rows hold the
    factor's fill."""

    perm: Array
    kl: int
    pos: Array


class _MomentumLayout(NamedTuple):
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


def _neighbours(extents: tuple, periodic: bool) -> list:
    """Per axis the flat index of every cell's -1 and +1 neighbour, -1 where
    a far-field grid has none."""
    idx = np.arange(math.prod(extents)).reshape(extents)
    out = []
    for a in range(len(extents)):
        pair = []
        for shift in (-1, 1):
            nb = np.roll(idx, -shift, axis=a)
            if not periodic:
                np.moveaxis(nb, a, 0)[-1 if shift > 0 else 0] = -1
            pair.append(nb.ravel())
        out.append(pair)
    return out


def _step(cells: Array, nb: Array) -> Array:
    """The neighbours ``nb`` of ``cells``; -1 stays -1."""
    return np.where(cells >= 0, nb[cells], -1)


def _momentum_layout(grid: SpatialGrid, visc: ViscosityParams) -> _MomentumLayout:
    return _momentum_layout_of(grid.extents, grid.spacing, grid.boundary, visc)


# The one operator cache of the module.  The layout depends on a grid's
# extents, spacing and boundary only, never on its far-field density, and is
# keyed by those values, so a density-lifted grid (``picard._lift_grids``)
# shares it.
@functools.lru_cache(maxsize=16)
def _momentum_layout_of(extents: tuple, spacing: tuple, boundary: str,
                        visc: ViscosityParams) -> _MomentumLayout:
    """The layout from stencil neighbours.  With the centered difference C_a
    (weights -+c_a, c_a = (1/h_a)/2 at the -1/+1 neighbours) the Lame matrix
    has the cross blocks s C_j C_k (s = -(lam + mu)) and the diagonal blocks
    s C_j C_j - mu lap, lap = sum_a C_a C_a summed over the axes in order:
    each value is formed with the float operations of the sparse products
    and sums of these blocks, bit for bit.

    Every row lists its candidate columns in fixed slots: the diagonal, the
    +-2 neighbours of the Laplacian per axis, the four cross-block corners per
    other axis and the +-1 upwind neighbours per axis, -1 where a far-field
    grid has none.  One sort along the slots, dropping repeats (the +-2
    neighbours of a 4-cell ring coincide), gives the CSR pattern and each
    slot's position in it."""
    dim, n = len(extents), math.prod(extents)
    size = dim * n
    cells = np.arange(n)
    nbr = _neighbours(extents, boundary == "periodic")
    cen = [(1.0 / h) / 2 for h in spacing]
    s, mu = -(visc.lam + visc.mu), visc.mu
    # diagonal of C_a C_a: -c_a^2 per neighbour, and of lap
    second = [((lo >= 0).astype(float) + (hi >= 0)) * (c * -c)
              for (lo, hi), c in zip(nbr, cen)]
    lap = functools.reduce(np.add, second)
    cand, vals = [], []             # per component: (n, slots) columns, Lame values
    for j in range(dim):
        # (cells, component block of the column, Lame value) per slot
        slots = [(cells, j, s * second[j] - mu * lap)]
        for a, c in enumerate(cen):
            val = s * (c * c) - mu * (c * c) if a == j else -(mu * (c * c))
            slots += [(_step(nb, nb), j, val) for nb in nbr[a]]
        for k in range(dim):
            if k != j:
                slots += [(_step(first, nb), k, s * ((s1 * cen[j]) * (s2 * cen[k])))
                          for s1, first in zip((-1, 1), nbr[j])
                          for s2, nb in zip((-1, 1), nbr[k])]
        n_lame = len(slots)
        slots += [(nb, j, None) for pair in nbr for nb in pair]
        cand.append(np.stack([np.where(col >= 0, col + blk * n, -1) for col, blk, _ in slots],
                             axis=1))
        vals.append(np.stack([np.broadcast_to(v, n) for _, _, v in slots[:n_lame]], axis=1))
    cand, vals = np.concatenate(cand), np.concatenate(vals)
    order = np.argsort(cand, axis=1)
    srt = np.take_along_axis(cand, order, axis=1)
    new = srt >= 0
    new[:, 1:] &= srt[:, 1:] != srt[:, :-1]
    pos = np.empty_like(order)
    np.put_along_axis(pos, order, np.cumsum(new).reshape(new.shape) - 1, axis=1)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(new, axis=1), out=indptr[1:])
    indices = srt[new].astype(np.int32)
    present = cand[:, :n_lame] >= 0
    lame_data = np.bincount(pos[:, :n_lame][present], weights=vals[present],
                            minlength=indices.size)
    pos = pos.reshape(dim, n, -1)
    diag_pos = pos[:, :, 0].copy()
    upwind = []
    for a, h in enumerate(spacing):
        pair = []
        for side, sign in ((0, -1.0), (1, 1.0)):     # backward, forward difference
            # diagonals, then kept neighbours; each position appears once, so order is free
            keep = nbr[a][side] >= 0
            at = np.concatenate([diag_pos, pos[:, :, n_lame + 2 * a + side][:, keep]], axis=1)
            weight = np.repeat([-sign * (1.0 / h), sign * (1.0 / h)], [n, keep.sum()])
            pair.append((at, np.concatenate([cells, cells[keep]]), weight))
        upwind.append(tuple(pair))
    band = _band_map(n, boundary == "periodic", np.repeat(cells, np.diff(indptr)), indices) \
        if dim == 1 else None
    for a in (indptr, indices):
        a.setflags(write=False)     # shared by every matrix built on the layout
    return _MomentumLayout(indptr=indptr, indices=indices, lame_data=lame_data,
                           diag_pos=diag_pos, upwind=tuple(upwind), band=band)


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


def _band_storage(band: _BandMap, data: Array) -> Array:
    """The matrix with CSR ``data`` in ``gbsv`` band storage of the reordered
    system: a Fortran-ordered (3*kl + 1, n) array, zero outside the band."""
    n = band.perm.size
    flat = np.zeros(n * (3 * band.kl + 1))
    flat[band.pos] = data
    return flat.reshape(n, 3 * band.kl + 1).T


def _solve_failed(path: str, why: str, residual=None, iterations=None) -> SolverError:
    return SolverError(f"momentum solve failed to reach relative residual {RTOL:.1e}; "
                       f"tried {path} ({why})", residual, iterations)


def _matvec(lay: _MomentumLayout, data: Array, x: Array) -> Array:
    """A @ x for the matrix with CSR ``data`` on the layout: scipy's compiled
    ``csr_matvec`` on the layout's pattern, the call ``csr_matrix @ x`` makes,
    so bit for bit its product.  The compiled loop reads x at every column
    index unchecked, so x must have one entry per unknown."""
    size = lay.indptr.size - 1
    if x.shape != (size,):
        raise ShapeError(f"matrix-vector product needs a vector of {size} entries, "
                         f"got shape {x.shape}")
    out = np.zeros(size)
    sparsetools.csr_matvec(size, size, lay.indptr, lay.indices, data, x, out)
    return out


def _band_solve(lay: _MomentumLayout, data: Array, b: Array) -> Array:
    """Direct banded LU solve of the 1D system.  Returns x when it is finite
    with relative residual <= RTOL; raises SolverError naming band LU and
    why otherwise."""
    band = lay.band
    _, _, y, info = lapack.dgbsv(band.kl, band.kl, _band_storage(band, data),
                                 b[band.perm], overwrite_ab=True, overwrite_b=True)
    if info < 0:
        raise SolverError(f"band LU: dgbsv rejected its argument {-info}")
    if info > 0:
        raise _solve_failed("band LU", f"singular, dgbsv info {info}")
    x = np.empty_like(y)
    x[band.perm] = y
    if not np.all(np.isfinite(x)):
        raise _solve_failed("band LU", "non-finite solution")
    res = float(np.linalg.norm(b - _matvec(lay, data, x))) / float(np.linalg.norm(b))
    if res > RTOL:
        raise _solve_failed("band LU", f"relative residual {res:.3e}", residual=res)
    return x


# ---------------------------------------------------------------------------
# Jacobi-preconditioned Krylov routines
# ---------------------------------------------------------------------------
# Both are scipy 1.17's ``cg`` and ``bicgstab`` run with rtol=KRYLOV_RTOL,
# atol=0, maxiter=MAXITER and the preconditioner M v = v / diag, operation for
# operation (the same np.dot, np.linalg.norm and in-place updates, in the same
# order), so (x, info) is bit for bit scipy's.  ``matvec`` applies A.  info is
# 0 on convergence, MAXITER when the cap is hit, and -10/-11 on a bicgstab
# breakdown.  MAXITER is read at each call.  Unlike scipy, both return
# NONFINITE at the first residual norm that is not finite, where scipy runs on
# to MAXITER (NaN fails every test of its loops).

def _cg(matvec, b: Array, x0: Array, diag: Array) -> tuple[Array, int]:
    """Preconditioned conjugate gradients (Hestenes-Stiefel)."""
    x = np.array(x0, dtype=float)
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b, 0
    atol = max(0.0, KRYLOV_RTOL * float(bnrm2))
    r = b - matvec(x) if x.any() else b.copy()
    p = rho_prev = None
    for iteration in range(MAXITER):
        rnorm = np.linalg.norm(r)
        if rnorm < atol:
            return x, 0
        if not math.isfinite(rnorm):
            return x, NONFINITE
        z = r / diag
        rho = np.dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z               # scipy copies z; z is new every iteration
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, MAXITER


def _bicgstab(matvec, b: Array, x0: Array, diag: Array,
              r0: Array | None = None) -> tuple[Array, int]:
    """Preconditioned BiCGSTAB (van der Vorst, SIAM J. Sci. Stat. Comput. 13,
    1992).  ``r0``, when given, is b - A x0, which the caller has computed
    already; the routine takes it over and updates it in place."""
    x = np.array(x0, dtype=float)
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b, 0
    atol = max(0.0, KRYLOV_RTOL * float(bnrm2))
    breakdown = np.finfo(float).eps ** 2      # scipy's rho and omega bound
    if not x.any():
        r = b.copy()
    else:
        r = b - matvec(x) if r0 is None else r0
    rtilde = r.copy()
    p = v = rho_prev = alpha = omega = None
    for iteration in range(MAXITER):
        rnorm = np.linalg.norm(r)
        if rnorm < atol:
            return x, 0
        if not math.isfinite(rnorm):
            return x, NONFINITE
        rho = np.dot(rtilde, r)
        if np.abs(rho) < breakdown:
            return x, -10
        if iteration > 0:
            if np.abs(omega) < breakdown:
                return x, -11
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            p = r.copy()
        phat = p / diag
        v = matvec(phat)
        rv = np.dot(rtilde, v)
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= alpha * v
        # scipy's s is a copy of r here; r is read-only until its next update
        rnorm = np.linalg.norm(r)
        if rnorm < atol:
            x += alpha * phat
            return x, 0
        if not math.isfinite(rnorm):
            return x, NONFINITE
        shat = r / diag
        t = matvec(shat)
        omega = np.dot(t, r) / np.dot(t, t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
    return x, MAXITER


# ---------------------------------------------------------------------------
# momentum step
# ---------------------------------------------------------------------------

def momentum_step(u_n: Array, rho_new: Array, w: Array | None, p_m: Array,
                  rad_source: Array, visc: ViscosityParams, dt: float,
                  grid: SpatialGrid, p_ref: float = 0.0) -> Array:
    """Backward-Euler solve of the linearized momentum balance to relative
    residual ``RTOL``.

    Vacuum cells need no special casing: the rho-weighted terms drop out of
    their rows and the solve reduces to the elliptic balance there.

    The matrix is filled into the cached layout of the grid.  In 1D one
    banded LU factorization (LAPACK ``dgbsv``) solves it; a singular factor,
    or a solution that is not finite or misses ``RTOL``, raises SolverError
    naming band LU and why (with ``residual`` set when it is known).  In 2D
    and 3D ``_cg`` (symmetric) or ``_bicgstab`` (with convection), scipy's
    loops preconditioned by Jacobi, runs to a ``KRYLOV_RTOL`` relative
    residual or ``MAXITER`` iterations; see the module docstring for why.
    It starts from ``u_n``, or from ``w`` when there is convection and ``w``
    has the strictly smaller residual |b - A w|.  It is the only 2D/3D path:
    a result above ``RTOL``, or a routine that met non-finite values, raises
    SolverError naming the routine and why, with ``residual`` set and
    ``iterations`` the routine's count when it stopped at ``MAXITER`` (None
    otherwise).  The routines run with numpy's floating-point warnings off:
    iterates that overflow raise that SolverError as non-finite values, with
    no RuntimeWarning.
    """
    u_n = check_vector(u_n, grid)
    rho_new = check_scalar(rho_new, grid)
    p_m = check_scalar(p_m, grid)
    rad_source = check_vector(rad_source, grid)
    check_step(dt, "momentum")
    if not (rho_new >= 0).all():     # NaN fails too
        raise DomainError("momentum step requires rho >= 0")

    rhs = rho_new[None] * u_n / dt - gradient(p_m, grid, farfield_value=p_ref) + rad_source
    b = rhs.reshape(-1)
    if not np.any(b):
        return np.zeros_like(u_n)

    symmetric = w is None or not np.any(w)
    if not symmetric:
        w = check_vector(w, grid)
    lay = _momentum_layout(grid, visc)
    data = _momentum_data(lay, rho_new, None if symmetric else w, dt)
    if lay.band is not None:
        return _band_solve(lay, data, b).reshape(u_n.shape)

    diag = data[lay.diag_pos.ravel()]       # the pattern has no duplicate entries

    def matvec(v):
        return _matvec(lay, data, v)

    x0 = u_n.reshape(-1)
    if not symmetric:
        # the chosen start's residual is the one bicgstab begins with
        guess = w.reshape(-1)
        r0, r_guess = b - matvec(x0), b - matvec(guess)
        if np.linalg.norm(r_guess) < np.linalg.norm(r0):
            x0, r0 = guess, r_guess
    path = "Jacobi-cg" if symmetric else "Jacobi-bicgstab"
    # iterates that overflow end in the non-finite SolverError below, not in
    # RuntimeWarnings; the values computed are the same either way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, info = _cg(matvec, b, x0, diag) if symmetric \
            else _bicgstab(matvec, b, x0, diag, r0)
        res = float(np.linalg.norm(b - matvec(x))) / float(np.linalg.norm(b))
    iterations = info if info > 0 else None
    if info == NONFINITE or not np.all(np.isfinite(x)):
        raise _solve_failed(path, "non-finite values", res, iterations)
    if res > RTOL:
        raise _solve_failed(path, f"relative residual {res:.3e}", res, iterations)
    return x.reshape(u_n.shape)
