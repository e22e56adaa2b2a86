"""Diagnostics: initial-layer compatibility residual and its vacuum-refinement
verdict, the blow-up monitor quantities Phi/Theta, far-field density bounds,
and conservation audits.

The monitor takes its norms over chunks of stacked snapshots, sized by
``norms.CHUNK_BYTES`` (see ``rhlab.norms`` for the budget and its measured
time/RSS trade-off); ``phi_components`` and ``theta`` are the one-snapshot
case of the same helpers, so every value is bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .fluid import lame_apply
from .grid import Grids, SpatialGrid, check_scalar, gradient, integrate_space
from .norms import (NormSettings, _hessian_stack, _lp_cells, _lp_multi, _phase_l2,
                    _sobolev_cells, snapshot_chunks)
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

def _phi_cells(I: Array, rho: Array, u: Array, grids: Grids,
               settings: NormSettings) -> tuple:
    """(radiation, density, velocity) summands of Phi for every snapshot of
    the stacks I (T, B, M) + cells, rho (T,) + cells and u (T, dim) + cells:
    three arrays of shape (T,).  The I stack is scratch and is clobbered."""
    grid = grids.spatial
    return (_phase_l2(_sobolev_cells(I, "H1W1q", settings, grid, lead=3, overwrite=True),
                      grids),
            _sobolev_cells(rho - settings.rho_ref, "H1W1q", settings, grid, lead=1,
                           overwrite=True),
            _sobolev_cells(u, "D1", settings, grid, lead=1))


def phi_components(state: State, grids: Grids, settings: NormSettings) -> tuple:
    """(radiation, density, velocity) summands of Phi."""
    cells = _phi_cells(_one(state.I), _one(state.rho), _one(state.u), grids, settings)
    return tuple(float(c[0]) for c in cells)


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


class _ThetaTerms(NamedTuple):
    """The norms Theta adds to Phi's at one snapshot, and the integrands of
    its time integrals (``u_d2q``, ``u_t_d1``)."""

    I_t_l2: float
    I_t_lq: float
    rho_t_l2: float
    rho_t_lq: float
    u_d2: float
    sqrt_rho_u_t: float
    u_d2q: float
    u_t_d1: float


def _theta_cells(rho: Array, u: Array, I_t: Array, rho_t: Array, u_t: Array,
                 grids: Grids, settings: NormSettings) -> list:
    """``_ThetaTerms`` of every snapshot of the stacks (shapes as in
    ``_phi_cells``).  The velocity Hessian and each magnitude are formed once
    and shared by their L2 and Lq sums.  The I_t and rho_t stacks are
    scratch and are clobbered."""
    grid, q = grids.spatial, settings.q
    cells = [_phase_l2(v, grids)
             for v in _lp_multi(I_t, (2.0, q), grid, lead=3, overwrite=True)]
    cells += _lp_multi(rho_t, (2.0, q), grid, lead=1, overwrite=True)
    d2, d2q = _lp_multi(_hessian_stack(u, grid, lead=1), (2.0, q), grid, lead=1,
                        overwrite=True)
    weighted = np.sqrt(np.maximum(rho, 0.0))[:, None] * u_t
    cells += [d2, _lp_cells(weighted, 2.0, grid, lead=1, overwrite=True),
              d2q, _sobolev_cells(u_t, "D1", settings, grid, lead=1)]
    return [_ThetaTerms(*row) for row in zip(*(c.tolist() for c in cells))]


def _theta_total(components: tuple, terms: _ThetaTerms, history: ThetaHistory) -> float:
    """Theta from Phi's summands, the snapshot's own terms and the integrals."""
    n_I, n_rho, n_u = components
    total = 1.0 + n_I
    total += terms.I_t_l2 + terms.I_t_lq
    total += n_rho
    total += terms.rho_t_l2 + terms.rho_t_lq
    total += n_u + terms.u_d2
    total += terms.sqrt_rho_u_t
    total += history.int_u_d2q_sq + history.int_ut_d1_sq
    return float(total)


def theta(state: State, deriv: StateTimeDerivatives, history: ThetaHistory,
          grids: Grids, settings: NormSettings) -> float:
    """Theta = 1 + ||I|| + ||I_t||_{L2(phase; L2 cap Lq)} + ||rho - ref|| +
    |rho_t|_{L2 cap Lq} + |u|_{D1 cap D2} + |sqrt(rho) u_t|_2 + accumulated
    int (|u|^2_{D2q} + |u_t|^2_{D1})."""
    terms = _theta_cells(_one(state.rho), _one(state.u), _one(deriv.I_t),
                         _one(deriv.rho_t), _one(deriv.u_t), grids, settings)[0]
    return _theta_total(phi_components(state, grids, settings), terms, history)


def _one(f: Array) -> Array:
    """A one-snapshot stack of a copy of f."""
    return np.array(f, dtype=float)[None]


def _backward_differences(fields: list, times: list, start: int, stop: int) -> Array:
    """Rows (f_i - f_{i-1}) / (t_i - t_{i-1}) for i in [start, stop); the
    row of snapshot 0 is zero."""
    out = np.empty((stop - start,) + fields[start].shape)
    for row, i in zip(out, range(start, stop)):
        if i == 0:
            row[...] = 0.0
        else:
            np.subtract(fields[i], fields[i - 1], out=row)
            row /= float(times[i] - times[i - 1])
    return out


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


def blowup_monitor(traj: Trajectory, grids: Grids, settings: NormSettings,
                   phi_cap: float | None = None) -> BlowupReport:
    """Evaluate Phi and Theta along a trajectory.

    Time derivatives use backward differences of consecutive snapshots (zero
    at the first snapshot); the Theta time integrals accumulate by the
    rectangle rule.  Overflow is data, never an error.

    The norms are taken over chunks of stacked snapshots (``snapshot_chunks``),
    each radiation stack released as soon as its norms are taken.  The integrals, the cap and the flags then
    accumulate snapshot by snapshot, so every value is bit-identical to
    evaluating ``phi_components`` and ``theta`` one snapshot at a time.
    """
    times, states = traj.times, traj.states
    I_all, rho_all, u_all = ([getattr(s, k) for s in states] for k in ("I", "rho", "u"))
    comps, terms = [], []
    for start, stop in snapshot_chunks(len(states), states[0].I.nbytes):
        rho, u = np.stack(rho_all[start:stop]), np.stack(u_all[start:stop])
        terms += _theta_cells(rho, u, *(_backward_differences(f, times, start, stop)
                                        for f in (I_all, rho_all, u_all)), grids, settings)
        comps += zip(*(c.tolist() for c in _phi_cells(np.stack(I_all[start:stop]),
                                                      rho, u, grids, settings)))
    cap = phi_cap if phi_cap is not None else 10.0 * (1.0 + sum(comps[0]))
    history = ThetaHistory()
    phis, thetas = [], []
    report_flags, flag_snapshots = [], []
    first_phi_of = first_theta_of = None
    phi_under_cap = True
    for i, (t, c, x) in enumerate(zip(times, comps, terms)):
        if i > 0:
            dt = float(times[i] - times[i - 1])
            history.int_u_d2q_sq += dt * x.u_d2q ** 2
            history.int_ut_d1_sq += dt * x.u_t_d1 ** 2
        p = 1.0 + sum(c)
        th = _theta_total(c, x, history)
        phis.append(p)
        thetas.append(th)
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
    return BlowupReport(times=[float(t) for t in times], phi=phis, theta=thetas,
                        phi_components=comps, phi_cap=cap, flags=report_flags,
                        flag_snapshots=flag_snapshots, first_phi_overflow=first_phi_of,
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
