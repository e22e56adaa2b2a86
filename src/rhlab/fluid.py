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
time, by one gather of both samples and one product, and come out as
(field, start time) + padded cells, the layout interpolation reads without
a copy.  Interpolation finds each point's cell and flat index in float,
casts the index once, and gathers each corner by it (``np.take``): on a
256-cell 1D trace of 10 start times a call costs about 0.05 ms for
velocity and divergence, against about 0.07 ms when the index was found in
integers from a copy of a reordered view, and a whole trace about 1.9 ms
against 2.5 ms (one thread of a 2-vCPU Xeon, both in one process).  Both
point sets of a substep are clamped in place; clamps use
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
128-cell periodic step with convection costs about 0.06 ms, a quarter of it
in ``dgbsv``, against about 0.5 ms for SuperLU plus one
factor-preconditioned Krylov iteration, nearly all of it scipy's set-up.
It is the only 1D path: a singular factor raises SolverError.  Of 4,000
random 1D systems the band LU failed on 337, each with one parity class of
cells entirely in vacuum (the centered-square Lame stencil couples only
cells two apart), which leaves the system singular, so an iterative retry
cannot rescue it; and in 1D vacuum leaves only the stiff Lame block, whose
conditioning slows an iteration but not a direct solve.

In 2D and 3D the system is solved by a Krylov iteration (cg when
symmetric, bicgstab with convection) preconditioned by the exact inverse of
the constant-density operator c I + L, c = mean(rho) / dt
(``_lame_inverse``).  The density enters the system only through the rho
terms, so c I + L is the part worth inverting exactly, and per-axis
sine/cosine bases diagonalize it (fast diagonalization: Lynch, Rice and
Thomas, Numer. Math. 6, 1964): in them every centered difference is
block-skew, and Sherman-Morrison inverts the rank-one Lame block of each
mode.  An apply costs about 23 us at 32^2, 82 us at 16^3 and 1.0 ms at
32^3, against 17-26 us, 155 us and 1.3 ms for a CSR product; the bases are
built with the layout (0.2 to 0.8 ms).  The 2D far-field benchmark run
(w2, seed 0) makes 238 CSR products, a solve costing about 0.5 to 0.7 ms;
w3 makes 33 at 16^3, and 195 at 32^3 (dt 0.001, four steps), where a
solve costs 53 to 56 ms.  The preconditioner sees the density only
through its mean, so it is weakest where rho / dt dominates L and rho
jumps from cell to cell, as in the 5,200-system search below, which draws
rho cell by cell; there a pointwise preconditioner, which sees every
cell's rho, can do better.  All timings on one thread of a 2-vCPU Xeon.
``_cg`` and ``_bicgstab`` are scipy 1.17's ``cg`` and ``bicgstab`` loops,
operation for operation, with the apply as scipy's M, on the compiled CSR
product ``_matvec``, so every result is bit for bit scipy's.
They are the only 2D/3D path, as band LU is in 1D.  Both paths end in one
verdict in ``momentum_step``: an x that is not finite, or one above the
residual bound, raises SolverError.  Of 5,200 random 2D/3D systems (60% 2D
with 4-16 cells per axis, 40% 3D with 4-7; periodic or far field; dt 1e-4
to 1; 61% with convection up to 31.6; vacuum none, random, one parity
class or a ball) 275 failed, each with one parity class of cells
entirely in vacuum, which leaves the system singular, so neither another
preconditioner nor a retry by another Krylov method rescues it.

A singular system's residual stagnates or grows.  The routines stop once
the residual norm passes ``DIVERGENCE`` |b| = 1e8 |b| (info ``DIVERGED``),
which the verdict reports as "diverged".  No converging solve measured
came within 4.7e3 of that: the largest ratio |r| / |b| over the iterations
was 2.1e4 in the 5,200-system search (a nearly singular parity system), 68
over 1,500 random systems, 188 in the tests, and 1 (the zero start of the
first step) on w2, w3 at 16^3 and 32^3 and the 2D vacuum-plateau run.  Of
the 275 failing systems 173 stop there, after 1,265 residual norms at the
median; the other 102 stagnate until ``MAXITER``.  A start whose residual
norm exceeds the bound or is not finite (near vacuum, b scaled by a power
of two can throw u_old that far off) is replaced by zeros, whose residual
is b.

The Krylov iteration starts from whichever of u_old and the convecting
velocity w has the smaller residual |b - A x|.  Inside a Picard sweep w is
the previous iterate's velocity at the same step, within one Picard
increment of the answer, so it is usually the better start: w2 (seed 0)
makes 238 CSR products with the choice and 271 from u_old.  Starting from
w whenever there is convection would make 219 on w2 and 189 instead of 195
on w3 at 32^3, but more where w is far off: 32 instead of 30 for a random
w of twice the solution's amplitude, and 17 instead of 16 on an 8^3
vacuum-core system with a random w.  The choice costs two residual
evaluations; the chosen one is handed to the routine, which always takes
its start residual from the caller, so the choice adds one.  Without
convection the start is u_old.

The Krylov routines stop at ``KRYLOV_RTOL = RTOL / 10``.  They stop on
their recursively updated residual, while every solve is checked on its
true residual |b - A x| against ``RTOL``; the decade between the two is
the margin for the drift between them, and a tighter target buys digits
that no output keeps.  On 1,500 random 2D/3D systems (up to 50% vacuum,
periodic and far field, with and without convection) the worst true
residual was 9.999e-12 and no solve raised SolverError.  Against a 1e-13
target, w2 (seed 0) makes 238 CSR products instead of 276.

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
DIVERGENCE = 1e8        # a Krylov solve stops once its residual passes DIVERGENCE |b|
DIVERGED = -2           # info of a Krylov routine so stopped (module docstring)


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
    """``VelocityHistory.__call__`` at the sample times ``s``, shape
    (S, B, 1, ..., 1): one row of B times per sample, with one singleton axis
    per spatial axis.  Returns ``sample(stack, k)``, the history with samples
    stacked along axis 1 of ``stack`` (field, time) + cells at the B times
    ``s[k]``, bit for bit the same values, shape (field, B) + cells.  The
    sample indices, weights and end masks of all S rows are found once,
    here."""
    rows = s.reshape(len(s), -1)
    if times.size == 1:
        return lambda stack, k: np.broadcast_to(
            stack[:, :1], stack.shape[:1] + rows.shape[1:] + stack.shape[2:])
    j = np.minimum(np.maximum(np.searchsorted(times, rows, side="right") - 1, 0),
                   times.size - 2)
    a = ((rows - times[j]) / (times[j + 1] - times[j])).reshape(s.shape)
    # per row the sample pairs (j, j + 1) and their weights (1 - a, a), side
    # by side: one gather and one product give both terms of every mix
    pairs = np.concatenate([j, j + 1], axis=1)
    weights = np.concatenate([1.0 - a, a], axis=1)
    first, last = rows <= times[0], rows >= times[-1]
    any_first, any_last = first.any(axis=1), last.any(axis=1)
    n = rows.shape[1]

    def sample(stack, k):
        terms = stack.take(pairs[k], axis=1)
        terms *= weights[k]
        out = np.add(terms[:, :n], terms[:, n:])
        if any_last[k]:
            out[:, last[k]] = stack[:, -1:]
        if any_first[k]:
            out[:, first[k]] = stack[:, :1]
        return out
    return sample


# ---------------------------------------------------------------------------
# multilinear interpolation
# ---------------------------------------------------------------------------

def _outside(pts: Array, grid: SpatialGrid) -> int:
    """How many coordinates of ``pts`` lie outside the one-ghost-layer padded
    far-field domain (NaN is not outside).  Periodic grids have no outside."""
    if grid.boundary == "periodic":
        return 0
    count = 0
    for a, (n, h) in enumerate(zip(grid.extents, grid.spacing)):
        count += int(np.count_nonzero((pts[a] < -0.5 * h) | (pts[a] > (n + 0.5) * h)))
    return count


def _clamp(pts: Array, grid: SpatialGrid) -> Array:
    """Clamp ``pts`` in place into the one-ghost-layer padded far-field domain
    and return it.  Periodic grids never clamp."""
    if grid.boundary != "periodic":
        for a, (n, h) in enumerate(zip(grid.extents, grid.spacing)):
            np.minimum(np.maximum(pts[a], -0.5 * h, out=pts[a]), (n + 0.5) * h, out=pts[a])
    return pts


def _interp(fp: Array, grid: SpatialGrid, points: Array, index: tuple = ()) -> Array:
    """Multilinear interpolation of a ghost-padded field at points inside the
    padded domain (periodic coordinates wrap).

    ``points`` has shape (dim,) + batch.  ``fp`` has shape
    lead + paired + padded extents: each ``paired`` axis is indexed per point
    by the matching array of ``index`` (broadcast against the batch), and the
    ``lead`` axes are carried through, so the result has shape lead + batch.

    Each point gets one flat index into the C-ordered paired + padded axes:
    paired index and padded cell ``i0 + 1`` times their strides, summed in
    float (exact: every term is an integer below 2^53) and cast once.  The
    cell ``i0`` is found in float too, so a NaN coordinate lands in cell -1
    and interpolates to NaN.  Corner ``c`` adds the constant offset
    sum_a c_a stride_a, and its values are gathered by ``np.take`` from a
    contiguous copy of ``fp`` (no copy when ``fp`` is contiguous) with the
    lead axes folded into one.  The corners are summed in order and +0.0 is
    added last, bit for bit the sum started from +0.0.
    """
    batch = points.shape[1:]
    n_lead = fp.ndim - grid.dim - len(index)
    lead = fp.shape[:n_lead]
    strides = [1]                     # of the paired + padded axes, C order
    for size in fp.shape[:n_lead:-1]:
        strides.insert(0, strides[0] * size)
    src = np.ascontiguousarray(fp).reshape(-1, strides[0] * fp.shape[n_lead])
    spatial = strides[len(index):]
    flat = float(sum(spatial))        # the ghost layer: padded index i0 + 1
    for ix, stride in zip(index, strides):
        flat = ix * stride + flat
    choices = []                      # per axis: (weight, offset) of both corners
    for n, h, stride, x in zip(grid.extents, grid.spacing, spatial, points):
        if grid.boundary == "periodic":
            x = np.mod(x, n * h)
        # the clamp keeps both weights in [0, 1] where x / h rounds past the
        # padded domain's far edge
        t = x / h
        t -= 0.5
        np.minimum(np.maximum(t, -1.0, out=t), n, out=t)
        i0 = np.floor(t)
        np.fmin(np.fmax(i0, -1.0, out=i0), n - 1, out=i0)     # NaN: cell -1
        t -= i0
        flat = flat + (i0 if stride == 1 else i0 * stride)
        choices.append(((1.0 - t, 0), (t, stride)))
    flat = flat.astype(np.intp)
    out = None
    for corner in itertools.product(*choices):
        wgt, offset = corner[0]
        for w, step in corner[1:]:
            wgt = wgt * w
            offset += step
        term = src.take(flat + offset if offset else flat, axis=1).reshape(lead + batch)
        term *= wgt
        if out is None:
            out = term
        else:
            out += term
    out += 0.0
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
    count of trace points clamped to the padded far-field domain at the
    substep ends, and the integrals, shape (B,) + extents.

    The velocity samples (stacked once, by ``VelocityHistory``) and their
    divergence are padded once, as one (field, time) + padded extents array,
    so each time mix comes out contiguous in the layout ``_interp`` reads.
    Each substep interpolates twice: the velocity at the midpoints, and
    velocity and divergence at the new points, which serve the next substep
    as its k1 and the trapezoid's left value.  Both point sets are clamped in
    place as they are formed.
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
    stack = np.concatenate([stack.swapaxes(0, 1), divergence(stack, grid, 0.0)[None]])
    stack = pad_ghost(stack, grid, 0.0)          # (dim + 1, T) + padded extents
    per_time = (t.size,) + (1,) * grid.dim
    index = (np.arange(t.size).reshape(per_time),)
    # the 2 * substeps + 1 sample times, in the loop's arithmetic: s, then
    # per substep its midpoint and its end
    ds = t / substeps
    sample_times = [t]
    for _ in range(substeps):
        s = sample_times[-1]
        sample_times += [s - 0.5 * ds, s - ds]
    at_times = _at_times(w_hist.times, np.stack(sample_times).reshape((-1,) + per_time))

    def sample(k, pts, fields):
        return _interp(at_times(fields, k), grid, pts, index)

    half, full = (0.5 * ds).reshape(per_time), ds.reshape(per_time)
    pts = np.broadcast_to(centers[:, None], (grid.dim, t.size) + grid.extents)
    clamped = 0
    divint = np.zeros((t.size,) + grid.extents)
    vals = sample(0, pts, stack)
    for step in range(substeps):
        mid = _clamp(pts - half * vals[:grid.dim], grid)
        k2 = sample(2 * step + 1, mid, stack[:grid.dim])
        pts = pts - full * k2
        clamped += _outside(pts, grid)
        _clamp(pts, grid)
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
    NaN velocity (which makes the CFL rate NaN), is a domain error; an
    infinite velocity violates the CFL bound, also where a +inf cell meets a
    -inf one and their face is NaN.
    """
    rho_n = check_scalar(rho_n, grid)
    w = check_vector(w, grid)
    check_step(dt, "continuity")
    if not (rho_n >= 0).all():
        raise DomainError("continuity step requires rho >= 0")
    wp = pad_ghost(w, grid, 0.0)
    faces, outflow = [], np.zeros(grid.extents)
    with np.errstate(invalid="ignore"):      # inf + -inf: told apart below
        for a, h in enumerate(grid.spacing):
            left, right = _sides(grid.dim, a, slice(1, -1))
            wf = 0.5 * (wp[(a,) + left] + wp[(a,) + right])
            lo, hi = _sides(grid.dim, a)
            outflow += (np.maximum(wf[hi], 0.0) + np.maximum(-wf[lo], 0.0)) / h
            faces.append(wf)
    worst = dt * float(np.max(outflow))
    if math.isnan(worst):
        if np.isnan(w).any():
            raise DomainError("continuity step requires a velocity that is not NaN")
        worst = math.inf         # a +inf cell next to a -inf one: a NaN face
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


class _LameModes(NamedTuple):
    """The basis in which c I + L is inverted exactly (``_lame_inverse``).
    ``forward`` and ``inverse`` hold per axis a stack of one matrix per
    velocity component j: Q_a^T and Q_a (``_axis_modes``), with the rows of
    Q_a^T and the columns of Q_a permuted to each mode's pair partner where
    j = a.  The stacks of the last axis are transposed, for a product from
    the right; the others carry a broadcast axis.  ``skew`` holds per axis
    a the signed beta of every cell's mode along a, zero on 1x1 blocks, and
    ``xi2`` is |xi|^2 = sum_a beta_a^2; ``mu`` and ``kappa`` = lam + mu are
    the viscosities."""

    forward: tuple
    inverse: tuple
    skew: Array                                       # (dim, cells)
    xi2: Array                                        # (cells,)
    mu: float
    kappa: float


class _MomentumLayout(NamedTuple):
    """CSR pattern of the momentum matrix on the flattened (component, cell)
    vector: the union of the Lame, diagonal and upwind entries.  Holds the
    Lame values on that pattern, the data position of each component's
    diagonal, the terms of the upwind blocks in the order they are added (per
    axis the backward block, then the forward one) as (position, index into
    the stacked per-cell scales, weight), in 1D the band map of the pattern
    and in 2D and 3D the Lame modes (each None in the other dimensions)."""

    indptr: Array
    indices: Array
    lame_data: Array
    diag_pos: Array                                   # (dim, cells)
    upwind: tuple[Array, Array, Array]
    band: _BandMap | None
    modes: _LameModes | None


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


def _axis_modes(n: int, h: float, periodic: bool):
    """(Q, partner, signed beta) of one axis of n cells and spacing h.  The
    columns of Q are the analytic sine/cosine vectors, pairs first, each
    pair (2p, 2p + 1) with Q^T C Q = [[0, beta], [-beta, 0]], then the 1x1
    zero blocks; partner maps each column to the other of its pair (a zero
    block to itself), and the signed beta is +beta, -beta on a pair, 0 on a
    zero block.

    Periodic: C is circulant; cos and sin of 2 pi k j / n (k = 1 ..
    ceil(n/2) - 1) pair with beta = sin(2 pi k / n) / h, and the constant
    and, for even n, the alternating vector are zero blocks.  Far field: C is
    truncated, with eigenvectors i^j sin((j + 1) theta_k) (theta_k = k pi /
    (n + 1)); their parts on the even and on the odd cells pair with beta =
    cos(theta_k) / h (k = 1 .. n // 2), and for odd n the even-cell
    indicator, the middle k, is a zero block."""
    j = np.arange(n)[:, None]
    if periodic:
        theta = 2.0 * np.pi * np.arange(1, (n + 1) // 2) / n
        first, second = np.cos(j * theta), np.sin(j * theta)
        scale, beta = math.sqrt(2.0 / n), np.sin(theta) / h
        zero = [np.full(n, 1.0 / math.sqrt(n))]
        if n % 2 == 0:
            zero.append(np.where(j[:, 0] % 2, -1.0, 1.0) / math.sqrt(n))
    else:
        theta = np.pi * np.arange(1, n // 2 + 1) / (n + 1)
        wave = np.sin((j + 1) * theta) * np.where(j // 2 % 2, -1.0, 1.0)
        first, second = np.where(j % 2, 0.0, wave), np.where(j % 2, wave, 0.0)
        scale, beta = 2.0 / math.sqrt(n + 1), np.cos(theta) / h
        zero = [np.where(j[:, 0] % 2, 0.0, math.sqrt(2.0 / (n + 1)))] if n % 2 else []
    m = 2 * beta.size
    q = np.empty((n, n))
    q[:, 0:m:2], q[:, 1:m:2] = scale * first, scale * second
    if zero:
        q[:, m:] = np.stack(zero, axis=1)
    partner, signed = np.arange(n), np.zeros(n)
    partner[0:m:2] += 1
    partner[1:m:2] -= 1
    signed[0:m:2], signed[1:m:2] = beta, -beta
    return q, partner, signed


def _lame_modes(extents: tuple, spacing: tuple, periodic: bool,
                visc: ViscosityParams) -> _LameModes:
    """The Lame modes of a 2D or 3D grid, from the axis bases."""
    dim = len(extents)
    forward, inverse, skew, xi2 = [], [], [], np.zeros(extents)
    for a, (n, h) in enumerate(zip(extents, spacing)):
        q, partner, signed = _axis_modes(n, h, periodic)
        # component a is read and written at the pair partners along axis a
        fwd, inv = np.stack([q.T] * dim), np.stack([q] * dim)
        fwd[a], inv[a] = q.T[partner], q[:, partner]
        if a == dim - 1:
            fwd, inv = fwd.transpose(0, 2, 1), inv.transpose(0, 2, 1)
        else:
            fwd, inv = fwd[:, None], inv[:, None]
        forward.append(np.ascontiguousarray(fwd))
        inverse.append(np.ascontiguousarray(inv))
        signed = signed.reshape((n,) + (1,) * (dim - 1 - a))
        skew.append(np.broadcast_to(signed, extents).ravel())
        xi2 += signed * signed
    modes = _LameModes(forward=tuple(forward), inverse=tuple(inverse), skew=np.stack(skew),
                       xi2=xi2.ravel(), mu=visc.mu, kappa=visc.lam + visc.mu)
    for arr in modes.forward + modes.inverse + (modes.skew, modes.xi2):
        arr.setflags(write=False)
    return modes


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
    # per axis the backward then the forward difference block: diagonals,
    # then kept neighbours, each as (position, index into the stacked
    # scales, weight); within a block each position appears once
    blocks = []
    for a, h in enumerate(spacing):
        for side, sign in ((0, -1.0), (1, 1.0)):
            keep = nbr[a][side] >= 0
            at = np.concatenate([diag_pos, pos[:, :, n_lame + 2 * a + side][:, keep]], axis=1)
            weight = np.repeat([-sign * (1.0 / h), sign * (1.0 / h)], [n, keep.sum()])
            blocks.append((at, (2 * a + side) * n + np.concatenate([cells, cells[keep]]),
                           weight))
    upwind = tuple(np.concatenate([np.broadcast_to(blk[k], blk[0].shape).ravel()
                                   for blk in blocks]) for k in range(3))
    band = modes = None
    if dim == 1:
        band = _band_map(n, boundary == "periodic", np.repeat(cells, np.diff(indptr)), indices)
    else:
        modes = _lame_modes(extents, spacing, boundary == "periodic", visc)
    for a in (indptr, indices) + upwind:
        a.setflags(write=False)     # shared by every matrix built on the layout
    return _MomentumLayout(indptr=indptr, indices=indices, lame_data=lame_data,
                           diag_pos=diag_pos, upwind=upwind, band=band, modes=modes)


def _momentum_data(lay: _MomentumLayout, rho: Array, w: Array | None,
                   dt: float) -> Array:
    """CSR data of L + rho/dt + implicit upwind rho w . grad (block-diagonal
    over velocity components) on the layout: a positive w_a scales the
    backward difference along axis a, a negative one the forward
    difference.  The scales rho max(w_a, 0) and rho min(w_a, 0) of every
    axis are stacked, and all upwind terms are added by one ``np.add.at``,
    which adds in the layout's order: every entry gets the sums, in the
    order, of adding the blocks one at a time."""
    rho = rho.ravel()
    data = lay.lame_data.copy()
    data[lay.diag_pos] += rho / dt
    if w is not None:
        scales = []
        for wa in w.reshape(len(w), -1):
            scales += [rho * np.maximum(wa, 0.0), rho * np.minimum(wa, 0.0)]
        pos, src, weight = lay.upwind
        np.add.at(data, pos, np.concatenate(scales)[src] * weight)
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
    """Direct banded LU solve of the 1D system, unpermuted.  A singular
    factor, or an argument dgbsv rejects, raises SolverError naming band LU;
    ``momentum_step`` judges the x it returns."""
    band = lay.band
    _, _, y, info = lapack.dgbsv(band.kl, band.kl, _band_storage(band, data),
                                 b[band.perm], overwrite_ab=True, overwrite_b=True)
    if info < 0:
        raise SolverError(f"band LU: dgbsv rejected its argument {-info}")
    if info > 0:
        raise _solve_failed("band LU", f"singular, dgbsv info {info}")
    x = np.empty_like(y)
    x[band.perm] = y
    return x


# ---------------------------------------------------------------------------
# Krylov routines preconditioned by the exact inverse of c I + L
# ---------------------------------------------------------------------------

def _lame_inverse(modes: _LameModes, c: float):
    """The apply r -> (c I + L)^-1 r of the constant-density momentum
    operator, c >= 0, on flattened (component, cell) vectors.

    In the tensor basis Q = Q_1 x ... x Q_dim each C_a is beta_a times a
    signed swap of pair partners along axis a.  With component j read at
    the partners along axis j, L = mu sum_a C_a^T C_a + (lam + mu) D^T D,
    D = [C_1 ... C_dim], becomes per mode a I + kappa xi xi^T, where xi holds
    the signed betas, a = c + mu |xi|^2 and kappa = lam + mu > 0
    (``ViscosityParams``); Sherman-Morrison inverts it as
    z = (y - g xi (xi . y)) / a, g = kappa / (a + kappa |xi|^2).  One apply
    is a forward transform (one batched product per axis, the swaps folded
    into the matrices), that scaling, and the inverse transform.  A mode
    with a = 0 (c = 0 and xi = 0, which needs every axis periodic or of odd
    far-field length) passes through unscaled, so the apply stays finite,
    symmetric and positive definite."""
    dim, extents = len(modes.forward), tuple(m.shape[-1] for m in modes.forward)
    a = c + modes.mu * modes.xi2
    scale = np.divide(1.0, a, out=np.ones_like(a), where=a > 0)
    g = np.divide(modes.kappa, a + modes.kappa * modes.xi2, out=np.zeros_like(a), where=a > 0)
    spread = modes.skew * (g * scale)                   # xi g / a
    # per axis the view its product acts on: (component, cells before,
    # axis, cells after), the last axis (component, cells before, axis)
    views = [(dim, math.prod(extents[:k]), n, math.prod(extents[k + 1:]))
             for k, n in enumerate(extents[:-1])] + [(dim, -1, extents[-1])]

    def transform(v, mats):
        v = v.reshape(views[-1]) @ mats[-1]
        for view, mat in zip(views, mats[:-1]):
            v = mat @ v.reshape(view)
        return v.reshape(dim, -1)

    def apply(r):
        y = transform(r, modes.forward)
        s = np.einsum("jk,jk->k", y, modes.skew)        # xi . y per mode
        y *= scale
        y -= spread * s
        return transform(y, modes.inverse).reshape(-1)
    return apply


# Both routines are scipy 1.17's ``cg`` and ``bicgstab`` loops with
# maxiter=MAXITER and the preconditioner M, applied by ``psolve``, operation
# for operation (the same np.dot, np.linalg.norm and in-place updates, in the
# same order), so (x, info) is bit for bit scipy's for rtol = atol / |b| and
# atol=0.  ``matvec`` applies A, and ``r0`` is b - A x0 (for x0 = 0 it is b,
# as scipy's start); the routine takes it over and updates it in place.  The
# caller sets the bounds on the residual norm: below ``atol`` the routine has
# converged (info 0); not finite (NONFINITE) or above ``limit`` (DIVERGED) it
# stops, where scipy runs on (NaN fails every test of its loops).  info is
# MAXITER when the cap is hit, read at each call, and -10/-11 on a bicgstab
# breakdown.

def _cg(matvec, x0: Array, psolve, r0: Array, atol: float,
        limit: float) -> tuple[Array, int]:
    """Preconditioned conjugate gradients (Hestenes-Stiefel)."""
    x = np.array(x0, dtype=float)
    r = r0
    p = rho_prev = None
    for iteration in range(MAXITER):
        rnorm = np.linalg.norm(r)
        if rnorm < atol:
            return x, 0
        if not rnorm <= limit:
            return x, DIVERGED if math.isfinite(rnorm) else NONFINITE
        z = psolve(r)
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


def _bicgstab(matvec, x0: Array, psolve, r0: Array, atol: float,
              limit: float) -> tuple[Array, int]:
    """Preconditioned BiCGSTAB (van der Vorst, SIAM J. Sci. Stat. Comput. 13,
    1992)."""
    x = np.array(x0, dtype=float)
    breakdown = np.finfo(float).eps ** 2      # scipy's rho and omega bound
    r, rtilde = r0, r0.copy()
    p = v = rho_prev = alpha = omega = None
    for iteration in range(MAXITER):
        rnorm = np.linalg.norm(r)
        if rnorm < atol:
            return x, 0
        if not rnorm <= limit:
            return x, DIVERGED if math.isfinite(rnorm) else NONFINITE
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
        phat = psolve(p)
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
        if not rnorm <= limit:
            return x, DIVERGED if math.isfinite(rnorm) else NONFINITE
        shat = psolve(r)
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

# values that overflow end in momentum_step's verdict, not in RuntimeWarnings;
# a decorator enters the state in 0.6 us, a with-block in 1.4 us (numpy 2.4)
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve(lay: _MomentumLayout, data: Array, b: Array, x0: Array, w: Array | None,
           rho: Array, dt: float):
    """(path, x, info, true relative residual) of the momentum system with
    CSR ``data`` for a nonzero b from x0, or from w when its residual is
    strictly smaller, with the Krylov routines preconditioned by
    (c I + L)^-1, c = mean(rho) / dt; scaled and bounded as
    ``momentum_step`` says."""
    def matvec(v):
        return _matvec(lay, data, v)

    e, bb = 0, b.dot(b)
    if not sys.float_info.min <= bb < math.inf:
        e = int(np.frexp(np.max(np.abs(b)))[1])
        b, x0 = np.ldexp(b, -e), np.ldexp(x0, -e)
        bb = b.dot(b)
    bnorm = math.sqrt(bb)
    if lay.band is not None:
        path, x, info = "band LU", _band_solve(lay, data, b), 0
    else:
        r0 = b - matvec(x0) if x0.any() else b.copy()
        r0_norm = np.linalg.norm(r0)
        if w is not None:
            guess = np.ldexp(w.reshape(-1), -e)
            r_guess = b - matvec(guess)
            guess_norm = np.linalg.norm(r_guess)
            if guess_norm < r0_norm:
                x0, r0, r0_norm = guess, r_guess, guess_norm
        limit = DIVERGENCE * bnorm
        if not r0_norm <= limit:
            x0, r0 = np.zeros_like(b), b.copy()     # the residual of zeros is b
        psolve = _lame_inverse(lay.modes, float(np.mean(rho)) / dt)
        path, routine = ("Lame-cg", _cg) if w is None else ("Lame-bicgstab", _bicgstab)
        x, info = routine(matvec, x0, psolve, r0, KRYLOV_RTOL * bnorm, limit)
    r = b - matvec(x)
    return path, np.ldexp(x, e) if e else x, info, math.sqrt(r.dot(r)) / bnorm


def momentum_step(u_n: Array, rho_new: Array, w: Array | None, p_m: Array,
                  rad_source: Array, visc: ViscosityParams, dt: float,
                  grid: SpatialGrid, p_ref: float = 0.0) -> Array:
    """Backward-Euler solve of the linearized momentum balance to relative
    residual ``RTOL``.

    Vacuum cells need no special casing: the rho-weighted terms drop out of
    their rows and the solve reduces to the elliptic balance there.

    The matrix is filled into the cached layout of the grid.  In 1D one
    banded LU factorization (LAPACK ``dgbsv``) solves it; a singular factor
    raises SolverError naming band LU.  In 2D and 3D ``_cg`` (symmetric) or
    ``_bicgstab`` (with convection), scipy's loops preconditioned by the
    exact inverse of c I + L, c = mean(rho_new) / dt (paths "Lame-cg" and
    "Lame-bicgstab"), runs until its residual norm falls below
    ``KRYLOV_RTOL`` |b|, exceeds ``DIVERGENCE`` |b| or is not finite, or
    for ``MAXITER`` iterations; see the module docstring for why.  It
    starts from ``u_n``, or from ``w`` when there is convection and ``w``
    has the strictly smaller residual |b - A w|; a start whose residual
    norm exceeds ``DIVERGENCE`` |b| or is not finite is replaced by zeros.
    |b| = sqrt(b . b) is formed once per solve, after any scaling below,
    and serves both routine bounds, the start test and the verdict.

    One verdict judges both paths: an x that is not finite, or a routine
    that met non-finite values, raises SolverError naming the path and
    "non-finite values" (``residual`` None); else a true relative residual
    sqrt(r . r) / |b| above ``RTOL`` raises it with ``residual`` set, its
    reason led by "diverged" when the routine stopped on ``DIVERGENCE``.
    ``iterations`` is the routine's count when it stopped at ``MAXITER``,
    None otherwise.

    A zero b gives zeros.  When b . b is not a positive normal double (it
    under- or overflows), b, ``u_n`` and the start guess ``w`` are divided
    by the power of two s that brings max |b| into [0.5, 1), the matrix
    keeps ``w``, and x is multiplied back by s; every other b is solved
    unscaled.  So u_n times a power of two (b with it) gives x times it,
    bit for bit.  Where b is tiny only because rho is (near vacuum), the
    divided ``u_n`` can land that far off, and the Krylov iteration starts
    from zeros.  The solve runs with numpy's floating-point warnings off:
    values that overflow end in the verdict, with no RuntimeWarning.
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
    if not b.any():
        return np.zeros_like(u_n)

    w = None if w is None or not np.asarray(w).any() else check_vector(w, grid)
    lay = _momentum_layout(grid, visc)
    data = _momentum_data(lay, rho_new, w, dt)
    path, x, info, res = _solve(lay, data, b, u_n.reshape(-1), w, rho_new, dt)
    iterations = info if info > 0 else None
    if info == NONFINITE or not np.isfinite(x).all():
        raise _solve_failed(path, "non-finite values", None, iterations)
    if res > RTOL:
        why = f"relative residual {res:.3e}"
        raise _solve_failed(path, "diverged, " + why if info == DIVERGED else why, res,
                            iterations)
    return x.reshape(u_n.shape)
