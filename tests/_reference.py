"""Independent oracles: brute-force quadrature of the collision term, a
monolithic (no fixed-point) coupled integrator, and per-(band, ordinate) loop
versions of the batched phase-space operators and of the coefficient
tables, the radiation half of a Picard step with the coefficient tables
broadcast to whole (band, ordinate) + cells arrays, the Lame operator
composed from the gradient and divergence, the finite-volume continuity
step one face at a time, the
momentum matrix assembled from whole sparse blocks on its own difference
and Lame matrices, the CSR matrices on a momentum layout's
pattern, the one-start-time characteristics trace
(with its own point clamp) and heat-flow mollifier, the ``np.pad`` ghost
layers, and the one-snapshot-at-a-time
Phi/Theta monitor and Picard metric.
These deliberately avoid the vectorized/precomputed paths of the package so
they can check them.
"""

import itertools

import numpy as np
import scipy.sparse as sp

from rhlab.diagnostics import BlowupReport
from rhlab.errors import StepSizeError
from rhlab.fluid import VelocityHistory, continuity_step_fv, momentum_step
from rhlab.grid import _view, divergence, gradient, phase_weights, second_difference
from rhlab.norms import NormSettings
from rhlab.physics import pressure
from rhlab.picard import State
from rhlab.transport import (CFL_FRACTION, _advance, _radiation, collision_decomposition,
                             momentum_source, transport_cfl_limit)


def brute_force_collision(I, rho, model, grids, t):
    """A_r by explicit loops over the primed phase space."""
    freq, ang, grid = grids.freq, grids.ang, grids.spatial
    B, M = freq.n_bands, ang.n_ordinates
    out = np.zeros_like(I)
    x = grid.coords()
    for b in range(B):
        v = freq.band_centers[b]
        for m in range(M):
            omega = ang.ordinates[m]
            sigma_a = model.sigma(v, omega, t, x, rho) * rho
            if model.emission_depends_rho:
                S = model.emission(v, omega, t, x, rho)
            else:
                S = model.emission(v, omega, t, x)
            acc = np.broadcast_to(S, grid.extents) - sigma_a * I[b, m]
            for bp in range(B):
                vp = freq.band_centers[bp]
                for mp in range(M):
                    w = freq.band_weights[bp] * ang.weights[mp]
                    mu = float(omega @ ang.ordinates[mp])
                    gain_k = model.sigma_s_bar(vp, v, np.asarray(mu)) * rho
                    loss_k = model.sigma_s_bar_prime(v, vp, np.asarray(mu)) * rho
                    acc = acc + w * ((v / vp) * gain_k * I[bp, mp] - loss_k * I[b, m])
            out[b, m] = acc
    return out


def solve_monolithic(state0, model, grids, visc, eos, consts, dt, t_final):
    """Directly coupled first-order integrator: no fixed-point iteration,
    each step uses the freshest available fields."""
    grid = grids.spatial
    dim = grid.dim
    p_ref = eos.reference_pressure(grid.rho_bar)
    n = int(round(t_final / dt))
    state = state0
    t = 0.0
    for _ in range(n):
        rho_new = continuity_step_fv(state.rho, state.u, dt, grid)
        I_new = _advance(state.I, state.I, rho_new, _radiation(model, grids, consts.c), dt, t)
        p_new = pressure(eos, rho_new, grid)
        f_rad = momentum_source(I_new, rho_new, model, grids, t + dt,
                                consts.c)[:dim]
        u_new = momentum_step(state.u, rho_new, state.u, p_new, f_rad, visc,
                              dt, grid, p_ref=p_ref)
        state = State(I=I_new, rho=rho_new, u=u_new)
        t += dt
    return state


# ---------------------------------------------------------------------------
# ghost layers by np.pad
# ---------------------------------------------------------------------------

def loop_pad_ghost(f, grid, farfield_value=0.0):
    """One ghost layer per trailing spatial axis through ``np.pad``: wrap on
    periodic grids, the constant on far-field ones."""
    lead = f.ndim - grid.dim
    width = [(0, 0)] * lead + [(1, 1)] * grid.dim
    if grid.boundary == "periodic":
        return np.pad(f, width, mode="wrap")
    return np.pad(f, width, mode="constant", constant_values=farfield_value)


# ---------------------------------------------------------------------------
# loop versions of the batched phase-space operators
# ---------------------------------------------------------------------------

def loop_gradient(f, grid, farfield_value=0.0):
    """Centered gradient of every leading-axis slice, one scalar field at a time."""
    f = np.asarray(f, dtype=float)
    lead = f.shape[:f.ndim - grid.dim]
    out = np.empty(lead + (grid.dim,) + grid.extents)
    for idx in np.ndindex(*lead):
        fp = loop_pad_ghost(f[idx], grid, farfield_value)
        for a in range(grid.dim):
            out[idx + (a,)] = (_view(fp, grid.dim, a, +1) - _view(fp, grid.dim, a, -1)) \
                / (2.0 * grid.spacing[a])
    return out


def _loop_lp(f, p, grid):
    """Whole-field Lp norm; component axes use the pointwise magnitude.
    |f|^4 is two squarings, as ``rhlab.norms`` takes it."""
    if f.ndim == grid.dim:
        mag = np.abs(f)
    else:
        comps = f.reshape((-1,) + grid.extents)
        mag = np.sqrt(np.sum(comps * comps, axis=0))
    powered = np.square(np.square(mag)) if p == 4 else mag ** p
    return float(np.sum(powered) * grid.cell_volume) ** (1.0 / p)


def _loop_inner_norm(f, inner, settings, grid):
    q = settings.q
    if inner == "L2":
        return _loop_lp(f, 2.0, grid)
    if inner == "Lq":
        return _loop_lp(f, q, grid)
    grad = loop_gradient(f, grid)
    h1 = _loop_lp(f, 2.0, grid) + _loop_lp(grad, 2.0, grid)
    w1q = _loop_lp(f, q, grid) + _loop_lp(grad, q, grid)
    return {"H1": h1, "W1q": w1q, "H1W1q": h1 + w1q}[inner]


def loop_mixed_radiation_norm(I, inner, grids, settings):
    """(sum_b sum_m w_b w_m ||I[b, m]||_inner^2)^(1/2), one (b, m) at a time."""
    total = 0.0
    for b in range(grids.freq.n_bands):
        wb = grids.freq.band_weights[b]
        for m in range(grids.ang.n_ordinates):
            nbm = _loop_inner_norm(I[b, m], inner, settings, grids.spatial)
            total += wb * grids.ang.weights[m] * nbm * nbm
    return float(np.sqrt(total))


def _loop_streaming(I_bm, speeds, grid):
    """Upwind streaming of one (b, m) field; zero ghosts on far-field grids."""
    fp = loop_pad_ghost(I_bm, grid, 0.0)
    out = np.zeros(grid.extents)
    for a in range(grid.dim):
        s = float(speeds[a])
        if s == 0.0:
            continue
        h = grid.spacing[a]
        ctr = _view(fp, grid.dim, a, 0)
        if s > 0:
            out += s * (ctr - _view(fp, grid.dim, a, -1)) / h
        else:
            out += s * (_view(fp, grid.dim, a, +1) - ctr) / h
    return out


def loop_tabulate(fn, grids, t, *rho):
    """fn(v, omega, t, x, *rho) at every (band, ordinate) pair, one callable
    call each (any ``fn.table`` is ignored)."""
    out = np.empty(grids.radiation_shape())
    x = grids.spatial.coords()
    for b, v in enumerate(grids.freq.band_centers):
        for m, omega in enumerate(grids.ang.ordinates):
            out[b, m] = np.broadcast_to(fn(v, omega, t, x, *rho), grids.spatial.extents)
    return out


def loop_transport_step(I_n, psi, rho_new, model, grids, dt, t, c):
    """Linearized transport step, one (b, m) at a time (no CFL check)."""
    dec = collision_decomposition(psi, rho_new, model, grids, t)
    out = np.empty_like(I_n)
    dim = grids.spatial.dim
    for b in range(grids.freq.n_bands):
        for m in range(grids.ang.n_ordinates):
            stream = _loop_streaming(I_n[b, m], grids.ang.ordinates[m, :dim],
                                     grids.spatial)
            out[b, m] = (I_n[b, m] + c * dt * (dec.gain[b, m] - stream)) \
                / (1.0 + c * dt * dec.removal[b, m])
    return out


def loop_free_streaming_step(I_n, grids, dt, c):
    """Collisionless streaming step, one (b, m) at a time (no CFL check)."""
    out = np.empty_like(I_n)
    dim = grids.spatial.dim
    for b in range(grids.freq.n_bands):
        for m in range(grids.ang.n_ordinates):
            stream = _loop_streaming(I_n[b, m], grids.ang.ordinates[m, :dim],
                                     grids.spatial)
            out[b, m] = I_n[b, m] - c * dt * stream
    return out


# ---------------------------------------------------------------------------
# the radiation half with broadcast coefficient tables
# ---------------------------------------------------------------------------

def broadcast_tables(model, grids, t, rho):
    """(removal, emission, gain matrix) at density rho and time t: sigma_bm
    and emission_bm filled out to (B, M) + cells, removal (sigma + Lam_s) rho,
    and the (B, M, B, M) gain matrix."""
    gain_matrix, lam_s = model.scattering_tables(grids.freq, grids.ang)
    sigma = model.sigma_bm(grids, t, rho)
    removal = (sigma + lam_s.reshape(lam_s.shape + (1,) * grids.spatial.dim)) * rho
    return removal, model.emission_bm(grids, t, rho), gain_matrix


def broadcast_gain(emission, gain_matrix, psi, rho):
    """S + the scattering-in from psi, by ``np.tensordot``."""
    return emission + np.tensordot(gain_matrix, psi, axes=([2, 3], [0, 1])) * rho


def loop_streaming(I, grids):
    """Upwind streaming of a whole (B, M) + cells field, one (b, m) at a time."""
    out = np.empty_like(I)
    dim = grids.spatial.dim
    for b in range(grids.freq.n_bands):
        for m in range(grids.ang.n_ordinates):
            out[b, m] = _loop_streaming(I[b, m], grids.ang.ordinates[m, :dim],
                                        grids.spatial)
    return out


def broadcast_transport_step(I_n, psi, rho, model, grids, dt, t, c):
    """Linearized transport step from the broadcast tables, out of place
    (no CFL check)."""
    removal, emission, gain_matrix = broadcast_tables(model, grids, t, rho)
    gain = broadcast_gain(emission, gain_matrix, psi, rho)
    return (I_n + c * dt * (gain - loop_streaming(I_n, grids))) / (1.0 + c * dt * removal)


def broadcast_substep_transport(I_n, psi, rho, model, grids, dt, t, c):
    """The fewest equal substeps of at most ``CFL_FRACTION`` of the CFL
    limit, each a ``broadcast_transport_step`` with the tables of its start
    time."""
    limit = transport_cfl_limit(grids, c)
    n_sub = max(1, int(np.ceil(dt / (CFL_FRACTION * limit)))) if np.isfinite(limit) else 1
    sub = dt / n_sub
    I = I_n
    for k in range(n_sub):
        I = broadcast_transport_step(I, psi, rho, model, grids, sub, t + k * sub, c)
    return I


def broadcast_momentum_source(I, rho, model, grids, t, c):
    """-(1/c) int int A_r Omega: the broadcast tables, ``np.tensordot`` with
    w Omega, out of place."""
    removal, emission, gain_matrix = broadcast_tables(model, grids, t, rho)
    gain = broadcast_gain(emission, gain_matrix, I, rho)
    wo = phase_weights(grids.freq, grids.ang)[..., None] * grids.ang.ordinates[None, :, :]
    return -np.tensordot(wo, gain - removal * I, axes=([0, 1], [0, 1])) / c


def broadcast_sweep(prev, state0, model, grids, visc, eos, consts, times):
    """One Picard sweep with finite-volume continuity, its radiation half
    from the broadcast tables: transport with the tables at each substep's
    start time, the momentum source with those at the step's end."""
    grid = grids.spatial
    p_ref = eos.reference_pressure(grid.rho_bar)
    states = [state0]
    for j in range(1, len(times)):
        dt = float(times[j] - times[j - 1])
        rho = continuity_step_fv(states[-1].rho, prev[j - 1].u, dt, grid)
        I = broadcast_substep_transport(states[-1].I, prev[j - 1].I, rho, model, grids, dt,
                                        float(times[j - 1]), consts.c)
        f_rad = broadcast_momentum_source(I, rho, model, grids, float(times[j]),
                                          consts.c)[:grid.dim]
        u = momentum_step(states[-1].u, rho, prev[j].u, pressure(eos, rho, grid), f_rad,
                          visc, dt, grid, p_ref=p_ref)
        states.append(State(I=I, rho=rho, u=u))
    return states


# ---------------------------------------------------------------------------
# momentum matrix from whole sparse blocks
# ---------------------------------------------------------------------------

def _difference_matrix(grid, axis, stencil):
    """sum_k c_k f_{i+k} along ``axis`` for the (offset k, weight c) pairs of
    ``stencil``, entry by entry: periodic grids wrap, far-field grids drop the
    neighbours outside (zero ghosts).  Lifted to the grid by Kronecker
    products with identities."""
    n = grid.extents[axis]
    rows, cols, vals = [], [], []
    for i in range(n):
        for k, c in stencil:
            j = i + k
            if grid.boundary == "periodic":
                j %= n
            elif not 0 <= j < n:
                continue
            rows.append(i)
            cols.append(j)
            vals.append(c)
    # duplicates (wrapped neighbours on tiny rings) are summed
    diff = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    before = sp.identity(int(np.prod(grid.extents[:axis])))
    after = sp.identity(int(np.prod(grid.extents[axis + 1:])))
    return sp.kron(sp.kron(before, diff), after, format="csr")


def _differences(grid, kind):
    """Per axis the forward, backward or centered difference matrix."""
    return [_difference_matrix(grid, a, {
        "forward": ((0, -1.0 / h), (1, 1.0 / h)),
        "backward": ((-1, -1.0 / h), (0, 1.0 / h)),
        "centered": ((-1, -0.5 / h), (1, 0.5 / h))}[kind])
        for a, h in enumerate(grid.spacing)]


def lame_matrix(grid, visc):
    """L = -mu sum_a C_a C_a - (lam + mu) grad div with the centered
    differences C_a, as a (component, component) block matrix."""
    cen = _differences(grid, "centered")
    blocks = [[-(visc.lam + visc.mu) * (cj @ ck) for ck in cen] for cj in cen]
    lap = sum(c @ c for c in cen)
    for j in range(grid.dim):
        blocks[j][j] = blocks[j][j] - visc.mu * lap
    return sp.bmat(blocks, format="csr")


def loop_lame_apply(u, visc, grid):
    """L u = -mu lap u - (lam + mu) grad div u by composing the centered
    gradient and divergence (zero far-field ghosts), one component at a
    time."""
    out = np.empty_like(u)
    graddiv = gradient(divergence(u, grid, 0.0), grid, 0.0)
    for j in range(grid.dim):
        lap = divergence(gradient(u[j], grid, 0.0), grid, 0.0)
        out[j] = -visc.mu * lap - (visc.lam + visc.mu) * graddiv[j]
    return out


def layout_matrix(lay, data):
    """The CSR matrix with ``data`` on the pattern of the momentum layout
    ``lay``."""
    size = lay.indptr.size - 1
    return sp.csr_matrix((data, lay.indices, lay.indptr), shape=(size, size))


def layout_lame_matrix(lay):
    """The Lame matrix of the momentum layout ``lay``: its Lame values with
    the zeros at the pattern's diagonal-only and upwind-only entries dropped
    (no Lame value is zero, since lam + mu >= mu / 3 > 0)."""
    A = layout_matrix(lay, lay.lame_data).copy()
    A.eliminate_zeros()
    return A


def convection_matrix(rho, w, grid):
    """Implicit upwind rho w . grad, block-diagonal over velocity components."""
    fwd, bwd = _differences(grid, "forward"), _differences(grid, "backward")
    n = int(np.prod(grid.extents))
    conv = sp.csr_matrix((n, n))
    rho_flat = rho.ravel()
    for a in range(grid.dim):
        wa = w[a].ravel()
        pos = sp.diags(rho_flat * np.maximum(wa, 0.0))
        neg = sp.diags(rho_flat * np.minimum(wa, 0.0))
        conv = conv + pos @ bwd[a] + neg @ fwd[a]
    return sp.block_diag([conv] * grid.dim, format="csr")


def momentum_matrix(rho, w, visc, dt, grid):
    """lame_matrix + diag(rho/dt) + upwind convection (none when w is None)."""
    A = lame_matrix(grid, visc) + sp.block_diag(
        [sp.diags(rho.ravel() / dt)] * grid.dim, format="csr")
    if w is not None:
        A = A + convection_matrix(rho, w, grid)
    return A.tocsr()


# ---------------------------------------------------------------------------
# finite-volume continuity, one face at a time
# ---------------------------------------------------------------------------

def loop_continuity_step_fv(rho_n, w, dt, grid):
    """Upwind finite-volume continuity step, one cell face at a time.  The
    face velocity is 0.5 (w_L + w_R), with zero velocity ghosts on far-field
    grids and wrapped neighbours on periodic ones; the flux takes the upwind
    density, rho_bar in far-field ghosts; each cell is updated by
    rho - dt (F_right - F_left) / h, axis by axis in order.  A step whose
    outflow rates, summed over the axes per cell, exceed 1 / dt raises the
    CFL StepSizeError before any update."""
    rho_n, w = np.asarray(rho_n, dtype=float), np.asarray(w, dtype=float)
    periodic = grid.boundary == "periodic"

    def at(f, cell, a, shift, ghost):
        j = list(cell)
        j[a] += shift
        if 0 <= j[a] < grid.extents[a]:
            return f[tuple(j)]
        if periodic:
            j[a] %= grid.extents[a]
            return f[tuple(j)]
        return ghost

    def face(cell, a, side):
        """Face velocity and upwind flux of the face on ``side`` (0 left, 1
        right) of ``cell`` along axis ``a``."""
        left = list(cell)
        left[a] += side - 1
        wl = at(w[a], left, a, 0, 0.0)
        wr = at(w[a], left, a, 1, 0.0)
        wf = 0.5 * (wl + wr)
        rho = at(rho_n, left, a, 0, grid.rho_bar) if wf > 0 \
            else at(rho_n, left, a, 1, grid.rho_bar)
        return wf, wf * rho

    cells = list(itertools.product(*(range(n) for n in grid.extents)))
    worst = 0.0
    for cell in cells:
        rate = 0.0
        for a, h in enumerate(grid.spacing):
            rate += (max(face(cell, a, 1)[0], 0.0) + max(-face(cell, a, 0)[0], 0.0)) / h
        worst = max(worst, rate)
    worst *= dt
    if worst > 1.0 + 1e-12:
        raise StepSizeError(f"continuity CFL violated: dt * max outflow rate "
                            f"= {worst:.3g} > 1")
    out = rho_n.copy()
    for a, h in enumerate(grid.spacing):
        for cell in cells:
            out[cell] -= dt * (face(cell, a, 1)[1] - face(cell, a, 0)[1]) / h
    return out


# ---------------------------------------------------------------------------
# backward characteristics, one start time and one component at a time
# ---------------------------------------------------------------------------

def loop_clamp_points(pts, grid):
    """Every coordinate moved into the one-ghost-layer padded far-field
    domain, axis by axis, and the number of coordinates moved.  Periodic
    grids never clamp."""
    out = np.array(pts, dtype=float)
    if grid.boundary == "periodic":
        return out, 0
    clamped = 0
    for a in range(grid.dim):
        h = grid.spacing[a]
        lo, hi = -0.5 * h, (grid.extents[a] + 0.5) * h
        below, above = out[a] < lo, out[a] > hi
        clamped += int(below.sum() + above.sum())
        out[a] = np.where(below, lo, np.where(above, hi, out[a]))
    return out, clamped


def loop_interp_field(f, grid, points, farfield_value=0.0):
    """Multilinear interpolation of one scalar field, padded on every call."""
    fp = loop_pad_ghost(np.asarray(f, dtype=float), grid, farfield_value)
    batch = points.shape[1:]
    points, _ = loop_clamp_points(points, grid)
    base, frac = [], []
    for a in range(grid.dim):
        h = grid.spacing[a]
        n = grid.extents[a]
        x = points[a]
        if grid.boundary == "periodic":
            x = np.mod(x, n * h)
        t = np.clip(x / h - 0.5, -1.0, n)
        i0 = np.clip(np.floor(t).astype(int), -1, n - 1)
        base.append(i0 + 1)
        frac.append(t - i0)
    out = np.zeros(batch)
    for corner in itertools.product((0, 1), repeat=grid.dim):
        wgt = np.ones(batch)
        ix = []
        for a in range(grid.dim):
            wgt = wgt * (frac[a] if corner[a] else 1.0 - frac[a])
            ix.append(base[a] + corner[a])
        out += wgt * fp[tuple(ix)]
    return out


def _loop_interp_vector(u, grid, points):
    return np.stack([loop_interp_field(u[a], grid, points) for a in range(grid.dim)])


def loop_trace_backward(w_hist, t, grid, substeps=None):
    """RK2 (midpoint) trace of the cell centers from s = t back to s = 0 with
    the trapezoidal integral of div w, every value interpolated afresh."""
    if substeps is None:
        substeps = max(1, w_hist.times.size - 1)
    ds = t / substeps
    pts = np.stack(np.meshgrid(*[grid.axis_coords(a) for a in range(grid.dim)],
                               indexing="ij"))
    clamped = 0
    divint = np.zeros(grid.extents)
    div_hist = VelocityHistory(w_hist.times,
                               [divergence(f, grid, 0.0) for f in w_hist.fields])
    s = t
    for _ in range(substeps):
        g0 = loop_interp_field(div_hist(s), grid, pts)
        k1 = _loop_interp_vector(w_hist(s), grid, pts)
        mid = pts - 0.5 * ds * k1
        k2 = _loop_interp_vector(w_hist(s - 0.5 * ds), grid, mid)
        pts, n_bad = loop_clamp_points(pts - ds * k2, grid)
        clamped += n_bad
        s -= ds
        g1 = loop_interp_field(div_hist(s), grid, pts)
        divint += 0.5 * ds * (g0 + g1)
    return pts, clamped, divint


def loop_continuity_step_characteristics(rho0, w_hist, t, grid, substeps=None):
    """rho0 at the departure point times exp(-int div w), for one start time;
    0 where rho0 at the departure point is 0, even where exp overflows."""
    pts, _, divint = loop_trace_backward(w_hist, t, grid, substeps)
    rho0_at = loop_interp_field(rho0, grid, pts, grid.rho_bar)
    with np.errstate(over="ignore"):      # exp may overflow where rho0_at is 0
        decay = np.exp(-divint)
    return np.where(rho0_at == 0.0, 0.0, rho0_at * decay)


def loop_heat_smooth(u, grid, duration):
    """Explicit heat flow with a freshly padded second difference per axis
    and step."""
    if duration <= 0:
        return u.copy()
    stiff = sum(1.0 / h ** 2 for h in grid.spacing)
    n = max(1, int(np.ceil(duration / (0.4 / stiff))))
    dt = duration / n
    out = u.copy()
    for _ in range(n):
        lap = np.zeros(out.shape)
        for a in range(grid.dim):
            lap += second_difference(out, grid, a, 0.0)
        out = out + dt * lap
    return out


# ---------------------------------------------------------------------------
# Phi/Theta monitor and Picard metric, one snapshot at a time
# ---------------------------------------------------------------------------

def _loop_hessian(f, grid):
    """Second differences D_a D_b of every component, one component at a
    time, in the row order of ``norms._hessian_stack``."""
    rows = []
    for c in np.asarray(f, dtype=float).reshape((-1,) + grid.extents):
        fp = loop_pad_ghost(c, grid)
        grad = loop_gradient(c, grid)
        for a in range(grid.dim):
            h = grid.spacing[a]
            rows.append((_view(fp, grid.dim, a, +1) - 2.0 * _view(fp, grid.dim, a, 0)
                         + _view(fp, grid.dim, a, -1)) / (h * h))
            for b in range(a + 1, grid.dim):
                mixed = loop_gradient(grad[a], grid)[b]        # D_b D_a c
                rows += [mixed, mixed]
    return np.stack(rows)


def _loop_phi_components(state, grids, settings):
    grid = grids.spatial
    return (loop_mixed_radiation_norm(state.I, "H1W1q", grids, settings),
            _loop_inner_norm(state.rho - grid.rho_bar, "H1W1q", settings, grid),
            _loop_lp(loop_gradient(state.u, grid), 2.0, grid))


def _loop_theta(c, state, I_t, rho_t, u_t, int_d2q, int_d1, grids, settings):
    grid, q = grids.spatial, settings.q
    n_I, n_rho, n_u = c
    total = 1.0 + n_I
    total += (loop_mixed_radiation_norm(I_t, "L2", grids, settings)
              + loop_mixed_radiation_norm(I_t, "Lq", grids, settings))
    total += n_rho
    total += _loop_lp(rho_t, 2.0, grid) + _loop_lp(rho_t, q, grid)
    total += n_u + _loop_lp(_loop_hessian(state.u, grid), 2.0, grid)
    total += _loop_lp(np.sqrt(np.maximum(state.rho, 0.0))[None] * u_t, 2.0, grid)
    total += int_d2q + int_d1
    return float(total)


def loop_blowup_monitor(traj, grids, settings, phi_cap=None):
    """``diagnostics.blowup_monitor`` evaluated one snapshot at a time: the
    norms of each snapshot and its backward differences in turn, the Theta
    integrals by the rectangle rule, the cap from snapshot 0."""
    grid = grids.spatial
    states, times = traj.states, traj.times
    comps = [_loop_phi_components(s, grids, settings) for s in states]
    cap = phi_cap if phi_cap is not None else 10.0 * (1.0 + sum(comps[0]))
    int_d2q = int_d1 = 0.0
    phis, thetas, flags, flag_snapshots = [], [], [], []
    first_phi = first_theta = None
    under_cap = True
    for i, (t, state, c) in enumerate(zip(times, states, comps)):
        if i == 0:
            I_t, rho_t, u_t = (np.zeros_like(f) for f in (state.I, state.rho, state.u))
        else:
            dt = float(times[i] - times[i - 1])
            prev = states[i - 1]
            I_t, rho_t, u_t = ((f - g) / dt for f, g in ((state.I, prev.I),
                                                           (state.rho, prev.rho),
                                                           (state.u, prev.u)))
            int_d2q += dt * _loop_lp(_loop_hessian(state.u, grid), settings.q, grid) ** 2
            int_d1 += dt * _loop_lp(loop_gradient(u_t, grid), 2.0, grid) ** 2
        p = 1.0 + sum(c)
        th = _loop_theta(c, state, I_t, rho_t, u_t, int_d2q, int_d1, grids, settings)
        phis.append(p)
        thetas.append(th)
        if not np.isfinite(p) and first_phi is None:
            first_phi = float(t)
        if p > cap:
            under_cap = False
        if not np.isfinite(th) and first_theta is None:
            first_theta = float(t)
            if under_cap:
                flags.append(f"theta overflow at t={t:.6g} while phi stayed under cap {cap:.6g}")
                flag_snapshots.append(i)
    return BlowupReport(times=[float(t) for t in times], phi=phis, theta=thetas,
                        phi_components=comps, phi_cap=cap, flags=flags,
                        flag_snapshots=flag_snapshots, first_phi_overflow=first_phi,
                        first_theta_overflow=first_theta)


def loop_gamma_increment(prev, nxt, grids, include_l32=False):
    """Squared-energy distance of one state pair, weighted by nxt.rho."""
    grid = grids.spatial
    drho = nxt.rho - prev.rho
    du = np.sqrt(np.maximum(nxt.rho, 0.0))[None] * (nxt.u - prev.u)
    total = loop_mixed_radiation_norm(nxt.I - prev.I, "L2", grids, NormSettings()) ** 2
    total += _loop_lp(drho, 2.0, grid) ** 2
    total += _loop_lp(du, 2.0, grid) ** 2
    if include_l32:
        total += _loop_lp(drho, 1.5, grid) ** 2
    return float(total)


def loop_gamma_metric(prev_states, next_states, grids, include_l32=False):
    """Sup of ``loop_gamma_increment`` over the pairs, in order."""
    worst = 0.0
    for p, q in zip(prev_states, next_states):
        worst = max(worst, loop_gamma_increment(p, q, grids, include_l32))
    return worst
