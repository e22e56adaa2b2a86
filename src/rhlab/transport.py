"""Discrete-ordinates radiative transfer: collision operator, radiation
moments, the momentum exchange source, and the linearized transport step.

The transfer equation (1/c) I_t + Omega . grad I = A_r is advanced with
explicit first-order upwind streaming and an implicit collision removal,

    I_new = (I_old + c dt (gain - streaming)) / (1 + c dt removal),

which keeps I >= 0 exactly for nonnegative data, sources and kernels.

One step, ``_transport_step`` (free streaming without collision tables),
and one substep loop, ``_advance``, serve iterate 0, every Picard sweep and
``substep_transport``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import StepSizeError
from .grid import Grids, check_radiation, check_scalar, pad_ghost, phase_weights
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
    """Add the scattering-in from the known field psi to the tables."""
    scatter_in = np.tensordot(tables.gain_matrix, psi, axes=([2, 3], [0, 1])) * rho
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

def radiation_flux(I: Array, grids: Grids) -> Array:
    """F_r = int int I Omega dOmega dv; one component per ordinate dimension."""
    I = check_radiation(I, grids)
    w = phase_weights(grids.freq, grids.ang)
    # contracts (b, m); the remaining axes are (component,) + cells
    return np.tensordot(w[..., None] * grids.ang.ordinates[None, :, :], I,
                        axes=([0, 1], [0, 1]))


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
    h = grids.spatial.spacing
    rates = np.abs(grids.ang.ordinates[:, :grids.spatial.dim]) / np.array(h)
    worst = float(np.max(np.sum(rates, axis=1)))
    if worst == 0.0:
        return np.inf
    return 1.0 / (c * worst)


def _check_cfl(dt: float, limit: float) -> None:
    if dt > limit * (1.0 + 1e-12):
        raise StepSizeError(f"transport CFL violated: dt={dt} > limit={limit}")


@functools.lru_cache(maxsize=8)
def _speed_splits(ordinates: bytes, n_ordinates: int, dim: int) -> tuple:
    """Per spatial axis, the positive and the negative part of every
    ordinate's speed, shaped (M,) + (1,) * dim to broadcast over
    (B, M) + cells.  Keyed by the ordinate values."""
    speeds = np.frombuffer(ordinates).reshape(n_ordinates, -1)[:, :dim]
    shape = (-1,) + (1,) * dim
    splits = []
    for s in speeds.T:
        pos = np.where(s > 0, s, 0.0).reshape(shape)
        neg = np.where(s < 0, s, 0.0).reshape(shape)
        pos.flags.writeable = neg.flags.writeable = False
        splits.append((pos, neg))
    return tuple(splits)


def _streaming(I: Array, grids: Grids) -> Array:
    """Upwind streaming term Omega . grad I of a whole (B, M) + cells field.
    Callers check dt against the CFL limit and scale the term by c dt, so the
    speeds are the ordinate components alone.  Per axis, one difference per
    face serves both sides: a positive speed takes the backward difference,
    a negative one the forward difference, a zero speed adds nothing.  Ghost
    intensities are zero on far-field grids (no incoming radiation)."""
    grid = grids.spatial
    dim = grid.dim
    ords = grids.ang.ordinates
    splits = _speed_splits(ords.tobytes(), ords.shape[0], dim)
    fp = pad_ghost(I, grid, 0.0)
    lead = I.ndim - dim
    out = np.zeros(I.shape)
    for a, (h, (pos, neg)) in enumerate(zip(grid.spacing, splits)):
        # d[j] = fp[j + 1] - fp[j] along a: face j of the padded row
        hi = [slice(None)] * lead + [slice(1, -1)] * dim
        lo = list(hi)
        hi[lead + a], lo[lead + a] = slice(1, None), slice(0, -1)
        d = fp[tuple(hi)] - fp[tuple(lo)]
        before = (slice(None),) * (lead + a)
        # (pos * backward + neg * forward) / h, with the temporaries reused
        term = pos * d[before + (slice(0, -1),)]
        term += neg * d[before + (slice(1, None),)]
        term /= h
        out += term
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
    """Collisionless streaming step (removal = 0, gain = 0)."""
    I_n = check_radiation(I_n, grids)
    _check_cfl(dt, transport_cfl_limit(grids, c))
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
