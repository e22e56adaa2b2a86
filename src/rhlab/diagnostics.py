"""Diagnostics: initial-layer compatibility residual and its vacuum-refinement
verdict, the blow-up monitor quantities Phi/Theta, far-field density bounds,
and conservation audits.

The monitor takes its norms over chunks of stacked snapshots, sized by
``norms.CHUNK_BYTES`` (see ``rhlab.norms`` for the budget and its measured
time/RSS trade-off); ``phi_components`` and ``theta`` are the one-snapshot
case of the same helpers, so every value is bit-identical either way.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._records import Record
from .errors import ParameterError
from .fluid import lame_apply
from .grid import Grids, SpatialGrid, check_scalar, gradient, integrate_space
from .norms import (NormSettings, _differences, _hessian_stack, _lp_cells, _lp_multi,
                    _phase_l2, _sobolev_cells, snapshot_chunks)
from .physics import (CoefficientModel, EquationOfState, PhysicalConstants,
                      ViscosityParams, pressure)
from .picard import State, Trajectory
from .transport import momentum_source

Array = np.ndarray


# ---------------------------------------------------------------------------
# compatibility condition
# ---------------------------------------------------------------------------

# Fewest cells each cut interval of ``compatibility_check`` must admit before
# the trace can decide.  An interval that admits no cell repeats the previous
# g_l2, and two equal values read "satisfied".  On the grid set of the
# ROADMAP.md finding on the static compatibility verdict (the built-in
# compat-satisfied and compat-diverging data on 1D 64-1024 cells, 2D
# 24^2-128^2 and 3D 12^3-32^3 grids, periodic and far field) the last-two-
# values rule alone inverted 12 verdicts, on 2D 24^2 and 3D grids.  With 2,
# none is inverted, and 1D from 128 cells and 2D from 48^2 keep their
# verdicts; with 4, 1D would need 512 cells.
MIN_NEW_CELLS = 2


class CompatReport(Record):
    """Weighted residual of the initial force balance on non-vacuum cells.

    ``refinement_trace`` holds (rho_cut, g_l2, cells) triples at decreasing
    thresholds, ``cells`` being the count of cells at or below the cut; the
    verdict classifies the trend: "satisfied" when the trace is Cauchy,
    "diverging" when it keeps growing, "vacuous" when no cell ever falls below
    the cut (no vacuum present), "unresolved" when the grid is too coarse for
    the cuts to tell.
    """

    __slots__ = ("g_field", "g_l2", "refinement_trace", "verdict")

    def __init__(self, g_field: Array, g_l2: float, refinement_trace: list | None = None,
                 verdict: str | None = None):
        self.g_field = g_field
        self.g_l2 = g_l2
        self.refinement_trace = [] if refinement_trace is None else refinement_trace
        self.verdict = verdict

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
    out = lame_apply(u0, visc, grid) + gradient(
        p0, grid, farfield_value=eos.reference_pressure(grid.rho_bar))
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
    rho0 = check_scalar(rho0, grids.spatial)
    phi0 = initial_force_imbalance(I0, rho0, u0, eos, visc, model, grids, consts)
    return _weighted_residual(phi0, rho0, rho_cut, grids.spatial)


def _weighted_residual(phi0: Array, rho0: Array, rho_cut: float,
                       grid: SpatialGrid) -> CompatReport:
    """The report of ``compatibility_residual`` from the force imbalance
    ``phi0``, weighted by rho0^(-1/2) on the cells above the cut."""
    mask = rho0 > rho_cut
    g = np.zeros_like(phi0)
    g[:, mask] = phi0[:, mask] / np.sqrt(rho0[mask])[None]
    g_l2 = float(np.sqrt(np.sum(g * g) * grid.cell_volume))
    below = mask.size - int(np.count_nonzero(mask))
    verdict = "vacuous" if below == 0 else None
    return CompatReport(g_field=g, g_l2=g_l2,
                        refinement_trace=[(float(rho_cut), g_l2, below)], verdict=verdict)


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
    finite value); "unresolved" when some interval between consecutive cuts
    admits fewer than ``MIN_NEW_CELLS`` cells, so that the trace does not
    sample the approach to vacuum; "satisfied" when the last two g_l2 values
    agree within ``cauchy_rtol``; "diverging" otherwise (a last ratio > 2 is
    the clear signature of a non-square-integrable residual at the vacuum
    boundary).  The force imbalance is computed once and weighted per cut.
    """
    if cuts is None:
        cuts = default_cut_schedule(rho0)
    cuts = [float(c) for c in cuts]
    # b < a rather than b >= a, so that a NaN cut fails the order check
    if len(cuts) < 2 or not all(b < a for a, b in zip(cuts, cuts[1:])):
        raise ParameterError(f"cut schedule must be strictly decreasing with at least "
                             f"two cuts, got {cuts}")
    if cuts[-1] <= 0:
        raise ParameterError("rho_cut must be positive")
    rho0 = check_scalar(rho0, grids.spatial)
    phi0 = initial_force_imbalance(I0, rho0, u0, eos, visc, model, grids, consts)
    trace = []
    for cut in cuts:
        last = _weighted_residual(phi0, rho0, cut, grids.spatial)
        trace += last.refinement_trace
    report = CompatReport(g_field=last.g_field, g_l2=last.g_l2, refinement_trace=trace)
    below = [cells for _, _, cells in trace]
    prev, final = trace[-2][1], trace[-1][1]
    if below[0] == 0:
        report.verdict = "vacuous"
    elif min(a - b for a, b in zip(below, below[1:])) < MIN_NEW_CELLS:
        report.verdict = "unresolved"
    elif prev == 0.0 and final == 0.0:
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
    return (_phase_l2(_sobolev_cells(I, "H1W1q", settings, grid, lead=3), grids),
            _sobolev_cells(rho - grid.rho_bar, "H1W1q", settings, grid, lead=1),
            _sobolev_cells(u, "D1", settings, grid, lead=1))


def phi_components(state: State, grids: Grids, settings: NormSettings) -> tuple:
    """(radiation, density, velocity) summands of Phi."""
    cells = _phi_cells(_one(state.I), _one(state.rho), _one(state.u), grids, settings)
    return tuple(float(c[0]) for c in cells)


def phi(state: State, grids: Grids, settings: NormSettings) -> float:
    """Phi = 1 + ||I||_{L2(phase; H1 cap W1q)} + ||rho - rho_bar||_{H1 cap W1q}
    + |u|_{D1}, with the background density ``rho_bar`` of the grid."""
    return 1.0 + sum(phi_components(state, grids, settings))


class StateTimeDerivatives(NamedTuple):
    """Backward-difference estimates of (I_t, rho_t, u_t) between snapshots."""

    I_t: Array
    rho_t: Array
    u_t: Array


class ThetaHistory(Record):
    """Accumulated time integrals entering Theta."""

    __slots__ = ("int_u_d2q_sq", "int_ut_d1_sq")

    def __init__(self, int_u_d2q_sq: float = 0.0, int_ut_d1_sq: float = 0.0):
        self.int_u_d2q_sq = int_u_d2q_sq
        self.int_ut_d1_sq = int_ut_d1_sq


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
             for v in _lp_multi(I_t, (2.0, q), grid, lead=3)]
    cells += _lp_multi(rho_t, (2.0, q), grid, lead=1)
    d2, d2q = _lp_multi(_hessian_stack(u, grid, lead=1), (2.0, q), grid, lead=1)
    weighted = np.sqrt(np.maximum(rho, 0.0))[:, None] * u_t
    cells += [d2, _lp_cells(weighted, 2.0, grid, lead=1),
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
    """Theta = 1 + ||I|| + ||I_t||_{L2(phase; L2 cap Lq)} + ||rho - rho_bar|| +
    |rho_t|_{L2 cap Lq} + |u|_{D1 cap D2} + |sqrt(rho) u_t|_2 + accumulated
    int (|u|^2_{D2q} + |u_t|^2_{D1})."""
    terms = _theta_cells(_one(state.rho), _one(state.u), _one(deriv.I_t),
                         _one(deriv.rho_t), _one(deriv.u_t), grids, settings)[0]
    return _theta_total(phi_components(state, grids, settings), terms, history)


def _one(f: Array) -> Array:
    """A one-snapshot stack of a copy of f."""
    return np.array(f, dtype=float)[None]


class BlowupReport(Record):
    """Phi/Theta series with overflow bookkeeping.

    ``flags`` records monitor findings; in particular a Theta overflow while
    Phi sits under the cap contradicts the bound tying Theta to Phi and is
    flagged explicitly.  ``flag_snapshots[k]`` is the snapshot index at which
    ``flags[k]`` was raised.
    """

    __slots__ = ("times", "phi", "theta", "phi_components", "phi_cap", "flags",
                 "flag_snapshots", "first_phi_overflow", "first_theta_overflow")

    def __init__(self, times: list, phi: list, theta: list, phi_components: list,
                 phi_cap: float, flags: list | None = None, flag_snapshots: list | None = None,
                 first_phi_overflow: float | None = None,
                 first_theta_overflow: float | None = None):
        self.times = times
        self.phi = phi
        self.theta = theta
        self.phi_components = phi_components
        self.phi_cap = phi_cap
        self.flags = [] if flags is None else flags
        self.flag_snapshots = [] if flag_snapshots is None else flag_snapshots
        self.first_phi_overflow = first_phi_overflow
        self.first_theta_overflow = first_theta_overflow

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
        # backward differences, zero at snapshot 0
        rows = range(start, stop)
        steps = [float(times[i] - times[i - 1]) if i else None for i in rows]
        derivs = (_differences([f[i - 1] if i else None for i in rows], f[start:stop], steps)
                  for f in (I_all, rho_all, u_all))
        terms += _theta_cells(rho, u, *derivs, grids, settings)
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

class FarfieldBoundsReport(Record):
    __slots__ = ("applicable", "times", "rho_min", "rho_max", "passed", "first_violation")

    def __init__(self, applicable: bool, times: list | None = None,
                 rho_min: list | None = None, rho_max: list | None = None,
                 passed: bool = True, first_violation: float | None = None):
        self.applicable = applicable
        self.times = [] if times is None else times
        self.rho_min = [] if rho_min is None else rho_min
        self.rho_max = [] if rho_max is None else rho_max
        self.passed = passed
        self.first_violation = first_violation


def farfield_bounds_check(traj: Trajectory, grids: Grids,
                          radius: float) -> FarfieldBoundsReport:
    """Check 3 rho_bar / 8 <= rho <= 5 rho_bar / 2 outside the ball of the
    given radius around the domain center, per snapshot, with the grid's
    background density rho_bar; rho_bar = 0 reports not-applicable."""
    grid = grids.spatial
    if grid.rho_bar <= 0:
        return FarfieldBoundsReport(applicable=False)
    outside = grid.radius_from_center() > radius
    report = FarfieldBoundsReport(applicable=True)
    if not np.any(outside):
        return report
    lo, hi = 3.0 * grid.rho_bar / 8.0, 5.0 * grid.rho_bar / 2.0
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
