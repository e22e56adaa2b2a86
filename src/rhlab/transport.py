"""Discrete-ordinates radiative transfer: collision operator, radiation
moments, the momentum exchange source, and the linearized transport step.

The transfer equation (1/c) I_t + Omega . grad I = A_r is advanced with
explicit first-order upwind streaming and an implicit collision removal,

    I_new = (I_old + c dt (gain - streaming)) / (1 + c dt removal),

which keeps I >= 0 exactly for nonnegative data, sources and kernels.

One step, ``_transport_step`` (free streaming without collision tables),
and one substep loop, ``_advance``, serve iterate 0, every Picard sweep and
``substep_transport``.  ``free_streaming_step`` returns a field of zeros
unchanged without streaming it, so iterate 0 of a slab that starts with no
radiation is not stepped.  What depends on the quadratures alone is built
once per quadrature, keyed by value: the CFL limit (with the spacing and c),
the upwind ordinate sets and the w Omega matrix of the radiation flux.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import StepSizeError
from .grid import Grids, _view, check_radiation, check_scalar, pad_ghost, phase_weights
from .physics import CoefficientModel

Array = np.ndarray

CFL_FRACTION = 0.9       # largest substep of ``_advance``, in CFL limits


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


class _CoefficientTables(NamedTuple):
    """The field-independent half of the collision decomposition at one
    density and time: removal, emission, and the scattering-in gain matrix."""

    removal: Array
    emission: Array
    gain_matrix: Array


def _coefficient_tables(model: CoefficientModel, grids: Grids, t: float,
                        rho: Array) -> _CoefficientTables:
    gain_matrix, lam_s = model.scattering_tables(grids.freq, grids.ang)
    sigma = model.sigma_bm(grids, t, rho)
    ext = grids.spatial.extents
    removal = (sigma + lam_s.reshape(lam_s.shape + (1,) * len(ext))) * rho
    return _CoefficientTables(removal, model.emission_bm(grids, t, rho), gain_matrix)


def _tables_at(model: CoefficientModel, grids: Grids, t: float, rho: Array):
    """t -> the coefficient tables at density rho.  A tabulated model's tables
    do not depend on t, so they are built once, at ``t``; any other model is
    evaluated at each requested time."""
    if model.tabulated:
        tables = _coefficient_tables(model, grids, t, rho)
        return lambda _t: tables
    return lambda t_k: _coefficient_tables(model, grids, t_k, rho)


def _decompose(tables: _CoefficientTables, psi: Array, rho: Array) -> CollisionDecomposition:
    """Add the scattering-in from the known field psi to the tables.

    The contraction over (b', m') is the one dot of the gain matrix viewed
    as (B*M, B*M) and psi viewed as (B*M, cells) that ``np.tensordot``
    performs, so bit for bit its result, without its per-call axis
    bookkeeping (about 42 -> 30 us a call on a 256-cell 1D field of
    8 ordinates x 4 bands; one thread of a 2-vCPU Xeon)."""
    n = psi.shape[0] * psi.shape[1]
    scatter_in = np.dot(tables.gain_matrix.reshape(n, n),
                        psi.reshape(n, -1)).reshape(psi.shape) * rho
    return CollisionDecomposition(removal=tables.removal, gain=tables.emission + scatter_in)


def collision_decomposition(psi: Array, rho: Array, model: CoefficientModel,
                            grids: Grids, t: float) -> CollisionDecomposition:
    """Removal/gain split of the collision operator with scattering-in taken
    from the known field psi (the previous iterate)."""
    psi = check_radiation(psi, grids)
    rho = check_scalar(rho, grids.spatial)
    return _decompose(_coefficient_tables(model, grids, t, rho), psi, rho)


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

@functools.lru_cache(maxsize=8)
def _flux_weights(weights: bytes, ordinates: bytes, n_ordinates: int) -> Array:
    """The (k, B*M) matrix of w_bm Omega_m, read-only: the (B, M, k) product
    moved to (k, B, M) and copied C-contiguous, as ``np.tensordot`` builds
    it.  Keyed by the phase weights' and the ordinates' values."""
    o = np.frombuffer(ordinates).reshape(n_ordinates, -1)
    w = np.frombuffer(weights).reshape(-1, n_ordinates)
    wo = (w[..., None] * o[None, :, :]).transpose(2, 0, 1).reshape(o.shape[1], -1)
    wo.flags.writeable = False
    return wo


def radiation_flux(I: Array, grids: Grids) -> Array:
    """F_r = int int I Omega dOmega dv; one component per ordinate dimension.

    One dot of the cached w Omega matrix with I viewed as (B*M, cells): bit
    for bit ``np.tensordot`` over (b, m), at about half its cost (13.5 ->
    6.6 us a call on a 256-cell 1D field of 8 ordinates x 4 bands)."""
    I = check_radiation(I, grids)
    o = grids.ang.ordinates
    wo = _flux_weights(phase_weights(grids.freq, grids.ang).tobytes(), o.tobytes(),
                       o.shape[0])
    return np.dot(wo, I.reshape(wo.shape[1], -1)).reshape(wo.shape[:1] + I.shape[2:])


def radiation_pressure_tensor(I: Array, grids: Grids, c: float) -> Array:
    """P_r = (1/c) int int I Omega x Omega dOmega dv."""
    I = check_radiation(I, grids)
    w = phase_weights(grids.freq, grids.ang)
    o = grids.ang.ordinates
    oo = o[:, :, None] * o[:, None, :]                     # (M, k, k)
    woo = w[:, :, None, None] * oo[None, :, :, :]          # (B, M, k, k)
    return np.tensordot(woo, I, axes=([0, 1], [0, 1])) / c


def _momentum_source(I: Array, rho: Array, tables: _CoefficientTables, grids: Grids,
                     c: float) -> Array:
    dec = _decompose(tables, I, rho)
    return -radiation_flux(dec.gain - dec.removal * I, grids) / c


def momentum_source(I: Array, rho: Array, model: CoefficientModel, grids: Grids,
                    t: float, c: float) -> Array:
    """Radiative force on the fluid: -(1/c) int int A_r Omega dOmega dv."""
    I = check_radiation(I, grids)
    rho = check_scalar(rho, grids.spatial)
    return _momentum_source(I, rho, _coefficient_tables(model, grids, t, rho), grids, c)


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


def _streaming(I: Array, grids: Grids) -> Array:
    """Upwind streaming term Omega . grad I of a whole (B, M) + cells field.
    Callers check dt against the CFL limit and scale the term by c dt, so the
    speeds are the ordinate components alone.  Per axis, an ordinate takes
    only its upwind difference: the backward one for a positive speed, the
    forward one for a negative speed, none for a zero speed.  Ghost
    intensities are zero on far-field grids (no incoming radiation).

    Bit for bit the sum of both one-sided terms, each weighted by its
    clipped speed: on a 32^2 far-field grid with 14 ordinates x 2 bands a
    call costs about 0.28 ms against 0.41 ms for that sum, and 1D costs are
    unchanged (about 0.05 ms at 256 cells, 8 ordinates x 4 bands; one
    thread of a 2-vCPU Xeon)."""
    grid = grids.spatial
    dim = grid.dim
    ords = grids.ang.ordinates
    sets = _upwind_sets(ords.tobytes(), ords.shape[0], dim)
    fp = pad_ghost(I, grid, 0.0)
    lead = (slice(None),) * (I.ndim - dim - 1)      # the axes before the ordinates
    out = np.zeros(I.shape)
    for a, (h, axis_sets) in enumerate(zip(grid.spacing, sets)):
        for sel, speed, offset in axis_sets:
            part = fp[lead + (sel,)]
            # (speed * difference) / h, in one temporary
            term = _view(part, dim, a, offset + 1) - _view(part, dim, a, offset)
            term *= speed
            term /= h
            out[lead + (sel,)] += term
    return out


def _transport_step(I_n: Array, psi: Array, rho_new: Array, tables: _CoefficientTables | None,
                    grids: Grids, dt: float, c: float) -> Array:
    stream = _streaming(I_n, grids)
    if tables is None:
        return I_n - c * dt * stream
    dec = _decompose(tables, psi, rho_new)
    return (I_n + c * dt * (dec.gain - stream)) / (1.0 + c * dt * dec.removal)


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
    return _transport_step(I_n, psi, rho_new, _coefficient_tables(model, grids, t, rho_new),
                           grids, dt, c)


def free_streaming_step(I_n: Array, grids: Grids, dt: float, c: float) -> Array:
    """Collisionless streaming step (removal = 0, gain = 0).

    A field of zeros (either sign) is returned as a copy without streaming:
    its stream is +0 everywhere, so for 0 < c dt < inf the step
    I_n - c dt stream keeps every bit of I_n."""
    I_n = check_radiation(I_n, grids)
    _check_cfl(dt, transport_cfl_limit(grids, c))
    if 0.0 < c * dt < np.inf and not I_n.any():
        return I_n.copy()
    return _transport_step(I_n, None, None, None, grids, dt, c)


def _advance(I_n: Array, psi: Array | None, rho_new: Array | None, tables_at,
             grids: Grids, dt: float, t: float, c: float) -> Array:
    """Advance [t, t + dt] in the fewest equal substeps of at most
    ``CFL_FRACTION`` of the CFL limit, each with ``tables_at`` of its start
    time, or each a ``free_streaming_step`` without ``tables_at``."""
    limit = transport_cfl_limit(grids, c)
    n_sub = max(1, int(np.ceil(dt / (CFL_FRACTION * limit)))) if np.isfinite(limit) else 1
    sub = dt / n_sub
    _check_cfl(sub, limit)
    I = I_n
    for k in range(n_sub):
        if tables_at is None:    # through the module name, which a tracer may wrap
            I = free_streaming_step(I, grids, sub, c)
        else:
            I = _transport_step(I, psi, rho_new, tables_at(t + k * sub), grids, sub, c)
    return I


def substep_transport(I_n: Array, psi: Array, rho_new: Array, model: CoefficientModel,
                      grids: Grids, dt: float, t: float, c: float) -> Array:
    """Advance dt by chaining CFL-safe transport steps."""
    I_n = check_radiation(I_n, grids)
    psi = check_radiation(psi, grids)
    rho_new = check_scalar(rho_new, grids.spatial)
    return _advance(I_n, psi, rho_new, _tables_at(model, grids, t, rho_new), grids, dt, t, c)
