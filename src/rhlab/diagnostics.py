"""Diagnostics: initial-layer compatibility residual and its vacuum-refinement
verdict, the blow-up monitor quantities Phi/Theta, far-field density bounds,
and conservation audits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .fluid import lame_apply
from .grid import Grids, SpatialGrid, check_scalar, gradient, integrate_space
from .norms import NormSettings, d2q_seminorm, lp_norm, mixed_radiation_norm, sobolev_norm
from .physics import (CoefficientModel, EquationOfState, PhysicalConstants,
                      ViscosityParams, pressure)
from .picard import State, Trajectory
from .transport import momentum_source

Array = np.ndarray


# ---------------------------------------------------------------------------
# compatibility condition
# ---------------------------------------------------------------------------

@dataclass
class CompatReport:
    """Weighted residual of the initial force balance on non-vacuum cells.

    ``refinement_trace`` holds (rho_cut, g_l2) pairs at decreasing thresholds;
    the verdict classifies the trend: "satisfied" when the trace is Cauchy,
    "diverging" when it keeps growing, "vacuous" when no cell ever falls below
    the cut (no vacuum present).
    """

    g_field: Array
    g_l2: float
    refinement_trace: list = field(default_factory=list)
    verdict: str | None = None

    @property
    def last_ratio(self) -> float | None:
        if len(self.refinement_trace) < 2:
            return None
        prev, last = self.refinement_trace[-2][1], self.refinement_trace[-1][1]
        return last / prev if prev > 0 else None


def initial_force_imbalance(I0: Array, rho0: Array, u0: Array,
                            eos: EquationOfState, visc: ViscosityParams,
                            model: CoefficientModel, grids: Grids,
                            consts: PhysicalConstants, t: float = 0.0) -> Array:
    """L u0 + grad p(rho0) + (1/c) int int A_r0 Omega dOmega dv, per cell."""
    grid = grids.spatial
    p0 = pressure(eos, rho0, grid)
    p_ref = eos.reference_pressure(grid.farfield_rho) if grid.boundary == "farfield" else 0.0
    out = lame_apply(u0, visc, grid) + gradient(p0, grid, farfield_value=p_ref)
    # momentum_source already carries the minus sign of the force term
    out = out - momentum_source(I0, rho0, model, grids, t, consts.c)[:grid.dim]
    return out


def compatibility_residual(I0: Array, rho0: Array, u0: Array, eos: EquationOfState,
                           visc: ViscosityParams, model: CoefficientModel,
                           grids: Grids, consts: PhysicalConstants,
                           rho_cut: float) -> CompatReport:
    """g1 = rho0^(-1/2) * (initial force imbalance) on cells with rho0 > rho_cut,
    and its weighted L2 norm.  Cells at or below the cut are excluded, so the
    residual is always finite."""
    if rho_cut <= 0:
        raise ParameterError("rho_cut must be positive")
    grid = grids.spatial
    rho0 = check_scalar(rho0, grid)
    phi0 = initial_force_imbalance(I0, rho0, u0, eos, visc, model, grids, consts)
    mask = rho0 > rho_cut
    g = np.zeros_like(phi0)
    g[:, mask] = phi0[:, mask] / np.sqrt(rho0[mask])[None]
    g_l2 = float(np.sqrt(np.sum(g * g) * grid.cell_volume))
    verdict = "vacuous" if bool(np.all(mask)) else None
    return CompatReport(g_field=g, g_l2=g_l2,
                        refinement_trace=[(float(rho_cut), g_l2)], verdict=verdict)


def default_cut_schedule(rho0: Array) -> list:
    peak = float(np.max(rho0))
    if peak <= 0:
        raise ParameterError("cannot build a cut schedule for identically zero density")
    return [s * peak for s in (1e-2, 1e-3, 1e-4, 1e-5)]


def compatibility_check(I0: Array, rho0: Array, u0: Array, eos: EquationOfState,
                        visc: ViscosityParams, model: CoefficientModel,
                        grids: Grids, consts: PhysicalConstants,
                        cuts: list | None = None,
                        cauchy_rtol: float = 0.05) -> CompatReport:
    """Run the residual along a cut schedule (strictly decreasing, at least
    two cuts) and classify the trend.

    Verdicts: "vacuous" when no cell lies at or below the largest cut (single
    finite value), "satisfied" when the last two g_l2 values agree within
    ``cauchy_rtol``, "diverging" otherwise (a last ratio > 2 is the clear
    signature of a non-square-integrable residual at the vacuum boundary).
    """
    if cuts is None:
        cuts = default_cut_schedule(rho0)
    cuts = [float(c) for c in cuts]
    # b < a rather than b >= a, so that a NaN cut fails the order check
    if len(cuts) < 2 or not all(b < a for a, b in zip(cuts, cuts[1:])):
        raise ParameterError(f"cut schedule must be strictly decreasing with at least "
                             f"two cuts, got {cuts}")
    trace = []
    last = None
    for cut in cuts:
        last = compatibility_residual(I0, rho0, u0, eos, visc, model, grids,
                                      consts, cut)
        trace.append((cut, last.g_l2))
    report = CompatReport(g_field=last.g_field, g_l2=last.g_l2, refinement_trace=trace)
    if np.all(np.asarray(rho0) > cuts[0]):
        report.verdict = "vacuous"
        return report
    prev, final = trace[-2][1], trace[-1][1]
    if prev == 0.0 and final == 0.0:
        report.verdict = "satisfied"
    elif prev > 0.0 and abs(final - prev) <= cauchy_rtol * prev:
        report.verdict = "satisfied"
    else:
        report.verdict = "diverging"
    return report


# ---------------------------------------------------------------------------
# blow-up monitor quantities
# ---------------------------------------------------------------------------

def phi_components(state: State, grids: Grids, settings: NormSettings) -> tuple:
    """(radiation, density, velocity) summands of Phi."""
    n_I = mixed_radiation_norm(state.I, "H1W1q", grids, settings)
    n_rho = sobolev_norm(state.rho, "H1W1q", settings, grids.spatial,
                         reference=settings.rho_ref)
    n_u = sobolev_norm(state.u, "D1", settings, grids.spatial)
    return (float(n_I), float(n_rho), float(n_u))


def phi(state: State, grids: Grids, settings: NormSettings) -> float:
    """Phi = 1 + ||I||_{L2(phase; H1 cap W1q)} + ||rho - rho_ref||_{H1 cap W1q}
    + |u|_{D1}."""
    return 1.0 + sum(phi_components(state, grids, settings))


@dataclass
class StateTimeDerivatives:
    """Backward-difference estimates of (I_t, rho_t, u_t) between snapshots."""

    I_t: Array
    rho_t: Array
    u_t: Array


@dataclass
class ThetaHistory:
    """Accumulated time integrals entering Theta."""

    int_u_d2q_sq: float = 0.0
    int_ut_d1_sq: float = 0.0


def theta(state: State, deriv: StateTimeDerivatives, history: ThetaHistory,
          grids: Grids, settings: NormSettings) -> float:
    """Theta = 1 + ||I|| + ||I_t||_{L2(phase; L2 cap Lq)} + ||rho - ref|| +
    |rho_t|_{L2 cap Lq} + |u|_{D1 cap D2} + |sqrt(rho) u_t|_2 + accumulated
    int (|u|^2_{D2q} + |u_t|^2_{D1})."""
    return _theta(phi_components(state, grids, settings), state, deriv, history,
                  grids, settings)


def _theta(components: tuple, state: State, deriv: StateTimeDerivatives,
           history: ThetaHistory, grids: Grids, settings: NormSettings) -> float:
    """Theta given ``phi_components(state, ...)``, the norms it shares with Phi."""
    n_I, n_rho, n_u = components
    grid = grids.spatial
    total = 1.0 + n_I
    total += (mixed_radiation_norm(deriv.I_t, "L2", grids, settings)
              + mixed_radiation_norm(deriv.I_t, "Lq", grids, settings))
    total += n_rho
    total += lp_norm(deriv.rho_t, 2.0, grid) + lp_norm(deriv.rho_t, settings.q, grid)
    total += n_u + sobolev_norm(state.u, "D2", settings, grid)
    total += lp_norm(np.sqrt(np.maximum(state.rho, 0.0))[None] * deriv.u_t, 2.0, grid)
    total += history.int_u_d2q_sq + history.int_ut_d1_sq
    return float(total)


@dataclass
class BlowupReport:
    """Phi/Theta series with overflow bookkeeping.

    ``flags`` records monitor findings; in particular a Theta overflow while
    Phi sits under the cap contradicts the bound tying Theta to Phi and is
    flagged explicitly.  ``flag_snapshots[k]`` is the snapshot index at which
    ``flags[k]`` was raised.
    """

    times: list
    phi: list
    theta: list
    phi_components: list
    phi_cap: float
    flags: list = field(default_factory=list)
    flag_snapshots: list = field(default_factory=list)
    first_phi_overflow: float | None = None
    first_theta_overflow: float | None = None

    @property
    def max_phi(self) -> float:
        finite = [p for p in self.phi if np.isfinite(p)]
        return max(finite) if finite else np.inf


def _zero_derivatives(state: State) -> StateTimeDerivatives:
    return StateTimeDerivatives(I_t=np.zeros_like(state.I),
                                rho_t=np.zeros_like(state.rho),
                                u_t=np.zeros_like(state.u))


def blowup_monitor(traj: Trajectory, grids: Grids, settings: NormSettings,
                   phi_cap: float | None = None) -> BlowupReport:
    """Evaluate Phi and Theta along a trajectory.

    Time derivatives use backward differences of consecutive snapshots (zero
    at the first snapshot); the Theta time integrals accumulate by the
    rectangle rule.  Overflow is data, never an error.
    """
    grid = grids.spatial
    times, phis, thetas, comps = [], [], [], []
    history = ThetaHistory()
    report_flags, flag_snapshots = [], []
    first_phi_of = first_theta_of = None
    c = phi_components(traj.states[0], grids, settings)
    cap = phi_cap if phi_cap is not None else 10.0 * (1.0 + sum(c))
    phi_under_cap = True
    for i, (t, state) in enumerate(zip(traj.times, traj.states)):
        if i == 0:
            deriv = _zero_derivatives(state)      # c: snapshot 0, computed for the cap
        else:
            dt = float(traj.times[i] - traj.times[i - 1])
            prev = traj.states[i - 1]
            deriv = StateTimeDerivatives(I_t=(state.I - prev.I) / dt,
                                         rho_t=(state.rho - prev.rho) / dt,
                                         u_t=(state.u - prev.u) / dt)
            history.int_u_d2q_sq += dt * d2q_seminorm(state.u, settings, grid) ** 2
            history.int_ut_d1_sq += dt * sobolev_norm(deriv.u_t, "D1", settings, grid) ** 2
            c = phi_components(state, grids, settings)
        p = 1.0 + sum(c)
        th = _theta(c, state, deriv, history, grids, settings)
        times.append(float(t))
        phis.append(p)
        thetas.append(th)
        comps.append(c)
        if not np.isfinite(p) and first_phi_of is None:
            first_phi_of = float(t)
        if p > cap:
            phi_under_cap = False
        if not np.isfinite(th) and first_theta_of is None:
            first_theta_of = float(t)
            if phi_under_cap:
                report_flags.append(
                    f"theta overflow at t={t:.6g} while phi stayed under cap {cap:.6g}")
                flag_snapshots.append(i)
    return BlowupReport(times=times, phi=phis, theta=thetas, phi_components=comps,
                        phi_cap=cap, flags=report_flags, flag_snapshots=flag_snapshots,
                        first_phi_overflow=first_phi_of,
                        first_theta_overflow=first_theta_of)


# ---------------------------------------------------------------------------
# far-field density bounds
# ---------------------------------------------------------------------------

@dataclass
class FarfieldBoundsReport:
    applicable: bool
    times: list = field(default_factory=list)
    rho_min: list = field(default_factory=list)
    rho_max: list = field(default_factory=list)
    passed: bool = True
    first_violation: float | None = None


def farfield_bounds_check(traj: Trajectory, grids: Grids, radius: float,
                          rho_bar: float) -> FarfieldBoundsReport:
    """Check 3 rho_bar / 8 <= rho <= 5 rho_bar / 2 outside the ball of the
    given radius around the domain center, per snapshot.  Requires a positive
    background density; rho_bar = 0 reports not-applicable."""
    if rho_bar <= 0:
        return FarfieldBoundsReport(applicable=False)
    grid = grids.spatial
    outside = grid.radius_from_center() > radius
    report = FarfieldBoundsReport(applicable=True)
    if not np.any(outside):
        return report
    lo, hi = 3.0 * rho_bar / 8.0, 5.0 * rho_bar / 2.0
    for t, state in zip(traj.times, traj.states):
        mn = float(np.min(state.rho[outside]))
        mx = float(np.max(state.rho[outside]))
        report.times.append(float(t))
        report.rho_min.append(mn)
        report.rho_max.append(mx)
        if (mn < lo or mx > hi) and report.first_violation is None:
            report.first_violation = float(t)
            report.passed = False
    return report


def mass_total(rho: Array, grid: SpatialGrid) -> float:
    """Conservation audit: integral of the density."""
    return integrate_space(rho, grid)
