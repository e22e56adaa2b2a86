"""Discrete-ordinates radiative transfer: collision operator, radiation
moments, the momentum exchange source, and the linearized transport step.

The transfer equation (1/c) I_t + Omega . grad I = A_r is advanced with
explicit first-order upwind streaming and an implicit collision removal,

    I_new = (I_old + c dt (gain - streaming)) / (1 + c dt removal),

which keeps I >= 0 exactly for nonnegative data, sources and kernels.

What the collision operator reads of the model and the quadratures is one
record, ``_Radiation``: the gain matrix, Lambda_s, the band-centre column,
the w Omega matrix of the radiation flux, the upwind ordinate sets and the
light speed c.  The Picard driver builds one per slab solve, for the
iterate 0 and every sweep of each attempt, and each public step its own,
from value-keyed caches (``CoefficientModel``'s kernel cache,
``_upwind_sets``) and the flux weights, which ``_flux_weights`` builds
afresh (about 4 us on one thread of a 2-vCPU Xeon).  A step looks up its
CFL limit (``transport_cfl_limit``, a cached call of about 0.4 us), so a
record that never streams takes any c.  The collision coefficients follow
one rule (``_coefficients``): a tabulated model's sigma and emission
tables, which by contract never depend on t, are read once per density; an
untabulated model is evaluated at each time.
Each step forms the removal (sigma + Lambda_s) rho once, from the sigma
table without broadcasting it, and the update and the momentum source run
in place on the output of one ``np.dot``, with the stream as the only other
radiation-sized buffer.  Against per-step tables broadcast to (B, M) + cells
and out-of-place updates, the radiation half of a Picard step went from
about 234 to 154 us per step of a sweep on a 256-cell 1D far field with 8
ordinates x 4 bands, from 137 to 98 us on a 128-cell periodic one, and from
1019 to 793 us on a 32^2 far field with 14 ordinates x 2 bands (one thread
of a 2-vCPU Xeon; the fastest of six processes, each the fastest of 15
sweeps).

One step, ``_transport_step``, and one substep loop, ``_advance``, serve
every Picard sweep; with no known iterate psi ``_advance`` chains
``free_streaming_step``, which serves iterate 0 and returns a field of
zeros unchanged, so iterate 0 of a slab that starts with no radiation is
not stepped.  ``_radiation_step`` is the radiation half of a Picard step:
the advance and the force on the fluid.  A dark step (a tabulated model
with +0 emission, and zero field and previous iterate) is not advanced
either: it returns a fresh +0 field and the force of it, the stepped path's
bits, once its coefficients are known to be finite, so a sweep of a run
without radiation (the barotropic limit) makes no transport step.  Every
step rejects a dt that is not positive and finite, and ``_advance`` one
that needs more than ``MAX_SUBSTEPS`` substeps.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import StepSizeError
from .grid import (Grids, SpatialGrid, _view, check_radiation, check_scalar, check_step,
                   pad_ghost, phase_weights)
from .physics import CoefficientModel

Array = np.ndarray

CFL_FRACTION = 0.9       # largest substep of ``_advance``, in CFL limits
MAX_SUBSTEPS = 10_000    # most substeps ``_advance`` takes for one step


# ---------------------------------------------------------------------------
# the radiation record
# ---------------------------------------------------------------------------

class _Radiation(NamedTuple):
    """What transport reads of the model and the quadratures: the gain
    matrix W viewed as (B*M, B*M), Lambda_s and the band centres v shaped
    (B, M) and (B, 1) plus one unit axis per dimension, the (k, B*M) w Omega
    matrix, the ``_upwind_sets``, and the light speed c (None when built for
    the collision operator alone)."""

    model: CoefficientModel
    grids: Grids
    gain: Array
    lam_s: Array
    v: Array
    flux_weights: Array
    upwind: tuple
    c: float | None


def _radiation(model: CoefficientModel, grids: Grids, c: float | None = None) -> _Radiation:
    """The ``_Radiation`` record of the model on the grids, at light speed c."""
    gain, lam_s = model.scattering_tables(grids.freq, grids.ang)
    unit = (1,) * grids.spatial.dim
    v = grids.freq.band_centers.reshape((-1, 1) + unit)
    ords = grids.ang.ordinates
    wo = _flux_weights(grids)
    return _Radiation(model, grids, gain.reshape(wo.shape[1], -1),
                      lam_s.reshape(lam_s.shape + unit), v, wo,
                      _upwind_sets(ords.tobytes(), ords.shape[0], grids.spatial.dim), c)


def _coefficients(rad: _Radiation, rho: Array, t: float,
                  known: tuple | None = None) -> tuple:
    """(removal, emission) at density rho and time t: the removal rate
    (sigma + Lambda_s) rho and the emission.  A tabulated model reads
    ``sigma.table(v, rho)`` and its emission table (at rho when the
    emission depends on it) without broadcasting them, and returns
    ``known``, those of the same density at another time, as they are:
    tables never depend on t.  An untabulated model is evaluated at t by
    ``sigma_bm``/``emission_bm``."""
    model = rad.model
    if not model.tabulated:
        sigma = model.sigma_bm(rad.grids, t, rho)
        emission = model.emission_bm(rad.grids, t, rho)
    elif known is not None:
        return known
    else:
        sigma = model.sigma.table(rad.v, rho)
        emission = model.emission.table(rad.v, rho) if model.emission_depends_rho \
            else model.emission.table(rad.v)
    return (sigma + rad.lam_s) * rho, emission


def _gain(rad: _Radiation, psi: Array, rho: Array, emission) -> Array:
    """S + int int (v/v') sigma_s psi dOmega' dv', in a new array.

    The scattering-in is the one dot of the gain matrix and psi viewed as
    (B*M, cells) that ``np.tensordot`` performs, so bit for bit its result
    without its per-call axis bookkeeping; the density and the emission are
    applied to the dot's output in place (a + b is b + a, bit for bit)."""
    out = np.dot(rad.gain, psi.reshape(rad.gain.shape[1], -1)).reshape(psi.shape)
    out *= rho
    out += emission
    return out


# ---------------------------------------------------------------------------
# collision operator
# ---------------------------------------------------------------------------

class CollisionDecomposition(NamedTuple):
    """Removal rate Lambda = sigma_a + int int sigma_s' dOmega' dv' and gain
    F = S + int int (v/v') sigma_s psi dOmega' dv', per (band, ordinate, cell).

    The removal and the emission S depend on the density alone; only the
    scattering-in term of the gain depends on the radiation field psi."""

    removal: Array
    gain: Array


def collision_decomposition(psi: Array, rho: Array, model: CoefficientModel,
                            grids: Grids, t: float) -> CollisionDecomposition:
    """Removal/gain split of the collision operator with scattering-in taken
    from the known field psi (the previous iterate)."""
    psi = check_radiation(psi, grids)
    rho = check_scalar(rho, grids.spatial)
    rad = _radiation(model, grids)
    removal, emission = _coefficients(rad, rho, t)
    return CollisionDecomposition(removal=removal, gain=_gain(rad, psi, rho, emission))


def collision_term(I: Array, rho: Array, model: CoefficientModel,
                   grids: Grids, t: float) -> Array:
    """Full collision term A_r = S - sigma_a I + int int ((v/v') sigma_s I'
    - sigma_s' I) dOmega' dv' by quadrature over the primed phase space."""
    return linearized_collision_term(I, I, rho, model, grids, t)


def linearized_collision_term(I: Array, psi: Array, rho: Array,
                              model: CoefficientModel, grids: Grids, t: float) -> Array:
    """Collision term with scattering-in frozen at the known iterate psi."""
    dec = collision_decomposition(psi, rho, model, grids, t)
    return dec.gain - dec.removal * check_radiation(I, grids)


# ---------------------------------------------------------------------------
# radiation moments
# ---------------------------------------------------------------------------

def _flux_weights(grids: Grids) -> Array:
    """The (k, B*M) matrix of w_bm Omega_m: the (B, M, k) product moved to
    (k, B, M) and copied C-contiguous, as ``np.tensordot`` builds it."""
    o = grids.ang.ordinates
    w = phase_weights(grids.freq, grids.ang)
    return (w[..., None] * o[None, :, :]).transpose(2, 0, 1).reshape(o.shape[1], -1)


def _flux(wo: Array, I: Array) -> Array:
    """One dot of the w Omega matrix with I viewed as (B*M, cells)."""
    return np.dot(wo, I.reshape(wo.shape[1], -1)).reshape(wo.shape[:1] + I.shape[2:])


def radiation_flux(I: Array, grids: Grids) -> Array:
    """F_r = int int I Omega dOmega dv; one component per ordinate dimension.

    One dot of the w Omega matrix of ``_flux_weights`` with I viewed as
    (B*M, cells): bit for bit ``np.tensordot`` over (b, m)."""
    return _flux(_flux_weights(grids), check_radiation(I, grids))


def radiation_pressure_tensor(I: Array, grids: Grids, c: float) -> Array:
    """P_r = (1/c) int int I Omega x Omega dOmega dv."""
    I = check_radiation(I, grids)
    w = phase_weights(grids.freq, grids.ang)
    o = grids.ang.ordinates
    oo = o[:, :, None] * o[:, None, :]                     # (M, k, k)
    woo = w[:, :, None, None] * oo[None, :, :, :]          # (B, M, k, k)
    return np.tensordot(woo, I, axes=([0, 1], [0, 1])) / c


def _momentum_source(I: Array, rho: Array, rad: _Radiation, coeffs: tuple) -> Array:
    """-(1/c) w Omega . (gain - removal I), with ``coeffs`` = (removal,
    emission) at rho, in place on the gain, the flux and the removal."""
    removal, emission = coeffs
    a = _gain(rad, I, rho, emission)
    removal *= I
    a -= removal
    return _force(rad, a)


def _force(rad: _Radiation, a: Array) -> Array:
    """-(1/c) w Omega . a, in a new array."""
    f = _flux(rad.flux_weights, a)
    np.negative(f, out=f)
    f /= rad.c
    return f


def momentum_source(I: Array, rho: Array, model: CoefficientModel, grids: Grids,
                    t: float, c: float) -> Array:
    """Radiative force on the fluid: -(1/c) int int A_r Omega dOmega dv."""
    I = check_radiation(I, grids)
    rho = check_scalar(rho, grids.spatial)
    rad = _radiation(model, grids, c)
    return _momentum_source(I, rho, rad, _coefficients(rad, rho, t))


# ---------------------------------------------------------------------------
# transport step
# ---------------------------------------------------------------------------

def transport_cfl_limit(grids: Grids, c: float) -> float:
    """Largest dt for which the upwind update stays a convex combination."""
    ords = grids.ang.ordinates
    return _cfl_limit(ords.tobytes(), ords.shape[0], tuple(grids.spatial.spacing), c)


@functools.lru_cache(maxsize=8)
def _cfl_limit(ordinates: bytes, n_ordinates: int, spacing: tuple, c: float) -> float:
    """``transport_cfl_limit``, keyed by the ordinate values, the spacing
    and c (about 10 us a call uncached, 0.4 us cached)."""
    speeds = np.frombuffer(ordinates).reshape(n_ordinates, -1)[:, :len(spacing)]
    rates = np.abs(speeds) / np.array(spacing)
    worst = float(np.max(np.sum(rates, axis=1)))
    if worst == 0.0:
        return np.inf
    return 1.0 / (c * worst)


def _check_cfl(dt: float, limit: float) -> None:
    """A step must be positive, finite and within the CFL limit."""
    check_step(dt, "transport")
    if dt > limit * (1.0 + 1e-12):
        raise StepSizeError(f"transport CFL violated: dt={dt} > limit={limit}")


@functools.lru_cache(maxsize=8)
def _upwind_sets(ordinates: bytes, n_ordinates: int, dim: int) -> tuple:
    """Per spatial axis, one (selector, speed, offset) per sign of speed on it:
    the ordinates of that sign (a slice when they are contiguous, else an
    index array), their speeds shaped (m,) + (1,) * dim to broadcast over
    (B, m) + cells, and the offset of the upwind difference, -1 (backward)
    for positive speeds and 0 (forward) for negative ones.  Ordinates of
    zero speed on an axis are in no set.  Keyed by the ordinate values."""
    speeds = np.frombuffer(ordinates).reshape(n_ordinates, -1)[:, :dim]
    shape = (-1,) + (1,) * dim
    sets = []
    for s in speeds.T:
        axis = []
        for side, offset in ((s > 0, -1), (s < 0, 0)):
            idx = np.flatnonzero(side)
            if idx.size == 0:
                continue
            contiguous = idx[-1] - idx[0] + 1 == idx.size
            speed = s[idx].reshape(shape)
            speed.flags.writeable = False
            axis.append((slice(idx[0], idx[-1] + 1) if contiguous else idx, speed, offset))
        sets.append(tuple(axis))
    return tuple(sets)


def _streaming(I: Array, grid: SpatialGrid, upwind: tuple) -> Array:
    """Upwind streaming term Omega . grad I of a whole (B, M) + cells field,
    with the ``_upwind_sets`` of its ordinates.  Callers check dt against
    the CFL limit and scale the term by c dt, so the speeds are the ordinate
    components alone.  Per axis, an ordinate takes only its upwind
    difference: the backward one for a positive speed, the forward one for a
    negative speed, none for a zero speed.  Ghost intensities are zero on
    far-field grids (no incoming radiation).

    Bit for bit the sum of both one-sided terms, each weighted by its
    clipped speed: on a 32^2 far-field grid with 14 ordinates x 2 bands a
    call costs about 0.28 ms against 0.41 ms for that sum, and 1D costs are
    unchanged (about 0.05 ms at 256 cells, 8 ordinates x 4 bands; one
    thread of a 2-vCPU Xeon)."""
    dim = grid.dim
    fp = pad_ghost(I, grid, 0.0)
    lead = (slice(None),) * (I.ndim - dim - 1)      # the axes before the ordinates
    out = np.zeros(I.shape)
    for a, (h, axis_sets) in enumerate(zip(grid.spacing, upwind)):
        for sel, speed, offset in axis_sets:
            part = fp[lead + (sel,)]
            # (speed * difference) / h, in one temporary
            term = _view(part, dim, a, offset + 1) - _view(part, dim, a, offset)
            term *= speed
            term /= h
            out[lead + (sel,)] += term
    return out


def _transport_step(I_n: Array, psi: Array, rho_new: Array, rad: _Radiation,
                    coeffs: tuple, dt: float) -> Array:
    """(I_n + c dt (gain - stream)) / (1 + c dt removal), with ``coeffs`` =
    (removal, emission) at rho_new, in place on the gain; the stream's
    buffer then takes the denominator.  Each operation is the out-of-place
    formula's, bit for bit (products and sums commute)."""
    removal, emission = coeffs
    stream = _streaming(I_n, rad.grids.spatial, rad.upwind)
    cdt = rad.c * dt
    out = _gain(rad, psi, rho_new, emission)
    out -= stream
    out *= cdt
    out += I_n
    np.multiply(removal, cdt, out=stream)
    stream += 1.0
    out /= stream
    return out


def transport_step(I_n: Array, psi: Array, rho_new: Array, model: CoefficientModel,
                   grids: Grids, dt: float, t: float, c: float) -> Array:
    """One linearized transport step of size dt.

    Streaming is explicit first-order upwind per ordinate; the collision
    removal is implicit, so positivity holds under the streaming CFL bound
    c dt sum_a |Omega_a| / h_a <= 1 (checked, never clamped).
    """
    I_n = check_radiation(I_n, grids)
    psi = check_radiation(psi, grids)
    rho_new = check_scalar(rho_new, grids.spatial)
    _check_cfl(dt, transport_cfl_limit(grids, c))
    rad = _radiation(model, grids, c)
    return _transport_step(I_n, psi, rho_new, rad, _coefficients(rad, rho_new, t), dt)


def free_streaming_step(I_n: Array, grids: Grids, dt: float, c: float) -> Array:
    """Collisionless streaming step (removal = 0, gain = 0).

    A field of zeros (either sign) is returned as a copy without streaming:
    its stream is +0 everywhere, so for 0 < c dt < inf the step
    I_n - c dt stream keeps every bit of I_n."""
    I_n = check_radiation(I_n, grids)
    _check_cfl(dt, transport_cfl_limit(grids, c))
    if 0.0 < c * dt < np.inf and not I_n.any():
        return I_n.copy()
    ords = grids.ang.ordinates
    out = _streaming(I_n, grids.spatial,
                     _upwind_sets(ords.tobytes(), ords.shape[0], grids.spatial.dim))
    out *= c * dt
    return np.subtract(I_n, out, out=out)


def _substeps(rad: _Radiation, dt: float) -> tuple:
    """(n, dt / n) for the fewest n equal substeps of dt of at most
    ``CFL_FRACTION`` of the CFL limit at ``rad.c``; dt must be positive and
    finite.  A limit that underflows (c sum_a |Omega_a| / h_a overflows),
    so that no finite count of substeps meets it, is a step-size error, and
    so is a count above ``MAX_SUBSTEPS``."""
    check_step(dt, "transport")      # before it sets the count
    limit = transport_cfl_limit(rad.grids, rad.c)
    largest = CFL_FRACTION * limit
    if largest == 0.0 or dt / largest == math.inf:
        raise StepSizeError(f"transport CFL limit underflowed: limit={limit} at c={rad.c} "
                            f"leaves no finite count of substeps of dt={dt}")
    n_sub = max(1, math.ceil(dt / largest))
    if n_sub > MAX_SUBSTEPS:
        raise StepSizeError(f"transport step dt={dt} needs {n_sub:.6g} substeps under the CFL "
                            f"limit {limit} at c={rad.c}, more than MAX_SUBSTEPS={MAX_SUBSTEPS}")
    sub = dt / n_sub
    _check_cfl(sub, limit)
    return n_sub, sub


def _advance(I_n: Array, psi: Array | None, rho_new: Array | None, rad: _Radiation,
             dt: float, t: float, coeffs: tuple | None = None) -> Array:
    """Advance [t, t + dt] in its ``_substeps``: each a
    ``free_streaming_step`` when psi is None, else a ``_transport_step``
    with the ``_coefficients`` at its start time.  ``coeffs`` are those at t
    when the caller has them."""
    n_sub, sub = _substeps(rad, dt)
    I = I_n
    for k in range(n_sub):
        if psi is None:          # through the module name, which a tracer may wrap
            I = free_streaming_step(I, rad.grids, sub, rad.c)
            continue
        if k or coeffs is None:
            coeffs = _coefficients(rad, rho_new, t + k * sub, coeffs)
        I = _transport_step(I, psi, rho_new, rad, coeffs, sub)
    return I


def _is_plus_zero(a) -> bool:
    """Whether every entry of a is +0 (not -0)."""
    return not (np.any(a) or np.signbit(a).any())


def _stays_dark(rad: _Radiation, removal: Array, dt: float) -> bool:
    """Whether the ``_substeps`` of dt (checked as ``_advance`` checks them)
    keep a field of zeros at +0 when the emission is +0 and the
    scattering-in comes from zeros: c times a substep, the gain matrix and
    the removal are finite and the removal is nonnegative, so no zero meets
    an infinity and every denominator 1 + c dt removal is at least 1."""
    _, sub = _substeps(rad, dt)
    return (rad.c * sub < np.inf and np.isfinite(rad.gain).all()
            and 0.0 <= removal.min() and removal.max() < np.inf)


def _radiation_step(rad: _Radiation, I_n: Array, psi: Array, rho: Array,
                    t0: float, t1: float) -> tuple:
    """The radiation half of a Picard step over [t0, t1] at density rho: I_n
    advanced with scattering-in from psi, and the first dim components of
    its ``_momentum_source`` at t1.  A tabulated model's coefficients at t0
    serve every substep and the source, which overwrites their removal last.

    A dark step is not stepped: for a tabulated model whose emission table
    at rho is +0 everywhere, with I_n and psi all zero (either sign), every
    substep gives +0 and the source's integrand is +0 wherever
    ``_stays_dark`` holds, so a fresh +0 field and the ``_force`` of it are
    the stepped result bit for bit (-0.0 on the shipped quadratures).  The
    coefficients are formed once, before the test, and the emission is
    tested first, so a step with emission costs no further check; an
    untabulated model is always stepped, as its emission may depend on t."""
    coeffs = _coefficients(rad, rho, t0)
    if (rad.model.tabulated and _is_plus_zero(coeffs[1])
            and not (I_n.any() or psi.any()) and _stays_dark(rad, coeffs[0], t1 - t0)):
        I = np.zeros(I_n.shape)
        return I, _force(rad, I)[:rad.grids.spatial.dim]
    I = _advance(I_n, psi, rho, rad, t1 - t0, t0, coeffs)
    force = _momentum_source(I, rho, rad, _coefficients(rad, rho, t1, coeffs))
    return I, force[:rad.grids.spatial.dim]
