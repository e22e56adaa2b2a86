"""Discrete-ordinates radiative transfer: collision operator, radiation
moments, the momentum exchange source, and the linearized transport step.

The transfer equation (1/c) I_t + Omega . grad I = A_r is advanced with
explicit first-order upwind streaming and an implicit collision removal,

    I_new = (I_old + c dt (gain - streaming)) / (1 + c dt removal),

which keeps I >= 0 exactly for nonnegative data, sources and kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepSizeError
from .grid import (Grids, check_radiation, check_scalar, pad_ghost,
                   phase_weights, _view)
from .physics import CoefficientModel

Array = np.ndarray


# ---------------------------------------------------------------------------
# collision operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CollisionDecomposition:
    """Removal rate Lambda = sigma_a + int int sigma_s' dOmega' dv' and gain
    F = S + int int (v/v') sigma_s psi dOmega' dv', per (band, ordinate, cell)."""

    removal: Array
    gain: Array


def _scattering_tables(model: CoefficientModel, grids: Grids) -> tuple[Array, Array]:
    """Gain matrix W[b,m,b',m'] = w_b' w_m' (v_b / v_b') K_in[b,m,b',m'] and
    total out-scattering rate per unit density Lam_s[b,m]."""
    k_in, k_out = model.kernels(grids.freq, grids.ang)
    w = phase_weights(grids.freq, grids.ang)
    v = grids.freq.band_centers
    ratio = (v[:, None] / v[None, :])  # v_b / v_b'
    gain_matrix = k_in * ratio[:, None, :, None] * w[None, None, :, :]
    lam_s = np.tensordot(k_out, w, axes=([2, 3], [0, 1]))
    return gain_matrix, lam_s


def collision_decomposition(psi: Array, rho: Array, model: CoefficientModel,
                            grids: Grids, t: float) -> CollisionDecomposition:
    """Removal/gain split of the collision operator with scattering-in taken
    from the known field psi (the previous iterate)."""
    psi = check_radiation(psi, grids)
    rho = check_scalar(rho, grids.spatial)
    gain_matrix, lam_s = _scattering_tables(model, grids)
    sigma = model.sigma_bm(grids, t, rho)
    ext = grids.spatial.extents
    removal = (sigma + lam_s.reshape(lam_s.shape + (1,) * len(ext))) * rho
    scatter_in = np.tensordot(gain_matrix, psi, axes=([2, 3], [0, 1])) * rho
    gain = model.emission_bm(grids, t, rho) + scatter_in
    return CollisionDecomposition(removal=removal, gain=gain)


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


def momentum_source(I: Array, rho: Array, model: CoefficientModel, grids: Grids,
                    t: float, c: float) -> Array:
    """Radiative force on the fluid: -(1/c) int int A_r Omega dOmega dv."""
    return -radiation_flux(collision_term(I, rho, model, grids, t), grids) / c


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


def transport_substeps(grids: Grids, dt: float, c: float, cfl: float) -> tuple[int, float]:
    """Number and size of the equal substeps of at most cfl x the CFL limit covering dt."""
    limit = transport_cfl_limit(grids, c)
    n_sub = max(1, int(np.ceil(dt / (cfl * limit)))) if np.isfinite(limit) else 1
    return n_sub, dt / n_sub


def _streaming(I: Array, grids: Grids, dt: float, c: float) -> Array:
    """Upwind streaming term Omega . grad I of a whole (B, M) + cells field,
    after checking dt against the CFL limit; callers scale it by c dt, so the
    speeds are the ordinate components alone.  Per axis, a positive speed takes
    the backward difference, a negative one the forward difference, a zero
    speed adds nothing.  Ghost intensities are zero on far-field grids (no
    incoming radiation)."""
    limit = transport_cfl_limit(grids, c)
    if dt > limit * (1.0 + 1e-12):
        raise StepSizeError(f"transport CFL violated: dt={dt} > limit={limit}")
    grid = grids.spatial
    dim = grid.dim
    fp = pad_ghost(I, grid, 0.0)
    out = np.zeros(I.shape)
    for a, h in enumerate(grid.spacing):
        # speed of every ordinate along axis a, broadcast over (B, M) + cells
        s = grids.ang.ordinates[:, a].reshape((-1,) + (1,) * dim)
        ctr = _view(fp, dim, a, 0)
        out += np.where(s > 0, s * (ctr - _view(fp, dim, a, -1)) / h,
                        np.where(s < 0, s * (_view(fp, dim, a, +1) - ctr) / h, 0.0))
    return out


def transport_step(I_n: Array, psi: Array, rho_new: Array, model: CoefficientModel,
                   grids: Grids, dt: float, t: float, c: float) -> Array:
    """One linearized transport step of size dt.

    Streaming is explicit first-order upwind per ordinate; the collision
    removal is implicit, so positivity holds under the streaming CFL bound
    c dt sum_a |Omega_a| / h_a <= 1 (checked, never clamped).
    """
    I_n = check_radiation(I_n, grids)
    rho_new = check_scalar(rho_new, grids.spatial)
    stream = _streaming(I_n, grids, dt, c)
    dec = collision_decomposition(psi, rho_new, model, grids, t)
    return (I_n + c * dt * (dec.gain - stream)) / (1.0 + c * dt * dec.removal)


def free_streaming_step(I_n: Array, grids: Grids, dt: float, c: float) -> Array:
    """Collisionless streaming step (removal = 0, gain = 0)."""
    I_n = check_radiation(I_n, grids)
    return I_n - c * dt * _streaming(I_n, grids, dt, c)


def substep_transport(I_n: Array, psi: Array, rho_new: Array, model: CoefficientModel,
                      grids: Grids, dt: float, t: float, c: float,
                      cfl: float = 0.9) -> Array:
    """Advance dt by chaining CFL-safe transport steps."""
    n_sub, sub = transport_substeps(grids, dt, c, cfl)
    I = I_n
    for k in range(n_sub):
        I = transport_step(I, psi, rho_new, model, grids, sub, t + k * sub, c)
    return I
