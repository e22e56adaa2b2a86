"""Time-slab fixed-point driver.

Each slab [t0, t0 + T] is solved by iterating the linearized subproblems to a
fixed point: density by continuity with the previous velocity iterate,
intensity by linearized transport with scattering-in from the previous
intensity iterate, velocity by the implicit momentum step.  Convergence is
measured by the slab-sup energy of consecutive iterate differences
(radiation L2 + density L2 + sqrt(rho)-weighted velocity L2); when the
far-field density vanishes the L^{3/2} density term joins the metric.  The
metric takes its norms over chunks of stacked state pairs, sized by
``norms.CHUNK_BYTES`` (see ``rhlab.norms`` for the budget and its measured
time/RSS trade-off), and the sup runs in snapshot order, so the value is
bit-identical to one pair at a time: ``gamma_metric([prev], [next], grids)``
is the squared-energy distance of one state pair.

A slab accepts iterate k (``_stop_rule``) when gamma_k is below the absolute
``_GAMMA_FLOOR`` ("floor"), when gamma_k <= gamma_tol * gamma_1 ("step"), or,
from the second sweep on, when the contraction's a-posteriori bound says the
fixed point is already that close ("bound").  gamma is a squared energy, so
with ratio_k = gamma_k / gamma_{k-1} the contraction constant is estimated
by q = sqrt(ratio_k), and Banach's estimate |x* - x_k| <= q / (1 - q) *
|x_k - x_{k-1}| gives |x* - x_k|^2 <= ratio_k / (1 - q)^2 * gamma_k.  The
bound is trusted only while ratio_k <= ``_RATIO_MAX``, where the estimate of
q is far from 1; it saves the sweep that would only confirm convergence.

A slab whose per-sweep ratio reaches 1 or whose gamma is not finite (a
stall), or that runs out of sweeps, is retried at half its length, at most
``max_halvings`` times; 0 disables halving.  ``PicardDiagnostics`` records
the accepted attempt.

Iterate 0 of a slab (frozen density, heat-flowed velocities and
free-streamed intensities) is built by each attempt that starts from it.
One radiation record serves iterate 0 and every sweep of a slab solve, and
``transport._radiation_step`` is the radiation half of each step.
Every sweep, the first included, gets its characteristics density from one
``continuity_step_characteristics`` trace of the iterate it reads.  A slab
that starts at rest (u0 and I0 all zero) is not stepped for its iterate 0 or
the first sweep's trace: the heat flow, the free streaming and the trace
each return their known result, bit for bit what their steps would give.
"""

from __future__ import annotations

import math

import numpy as np

from ._records import Frozen, Record, Value
from .errors import DomainError, IterationError, ParameterError, raise_first_failure
from .fluid import (VelocityHistory, continuity_step_characteristics, continuity_step_fv,
                    heat_smooth, momentum_step)
from .grid import Grids, check_radiation, check_scalar, check_vector
from .norms import _differences, _lp_cells, _lp_multi, _phase_l2, lp_norm, snapshot_chunks
from .physics import (CoefficientModel, EquationOfState, PhysicalConstants,
                      ViscosityParams, pressure)
from .transport import _Radiation, _advance, _radiation, _radiation_step

Array = np.ndarray

_GAMMA_FLOOR = 1e-28
_RATIO_MAX = 1e-2        # largest per-sweep ratio the a-posteriori bound trusts


class State(Frozen):
    """Full phase-space state (I, rho, u) at one instant; equal only to
    itself."""

    __slots__ = ("I", "rho", "u")

    def __init__(self, I: Array, rho: Array, u: Array):
        self._set(I=I, rho=rho, u=u)

    def validate(self, grids: Grids) -> "State":
        check_radiation(self.I, grids)
        check_scalar(self.rho, grids.spatial)
        check_vector(self.u, grids.spatial)
        if not (np.all(np.isfinite(self.I)) and np.all(np.isfinite(self.rho))
                and np.all(np.isfinite(self.u))):
            raise DomainError("state fields must be finite")
        if np.any(self.rho < 0) or np.any(self.I < 0):
            raise DomainError("state requires rho >= 0 and I >= 0")
        return self


class SlabConfig(Value):
    """Slab length, inner step, continuity scheme ("fv" or
    "characteristics") and fixed-point iteration policy: at most
    ``max_iters`` sweeps per attempt, and at most ``max_halvings`` halvings
    of a slab that stalls or runs out of sweeps (0 disables halving).
    Transport substeps are cut at ``transport.CFL_FRACTION``."""

    __slots__ = ("slab_length", "dt", "max_iters", "gamma_tol", "max_halvings", "continuity")

    def __init__(self, slab_length: float, dt: float, max_iters: int = 30,
                 gamma_tol: float = 1e-8, max_halvings: int = 2, continuity: str = "fv"):
        self._set(slab_length=slab_length, dt=dt, max_iters=max_iters, gamma_tol=gamma_tol,
                  max_halvings=max_halvings, continuity=continuity)
        raise_first_failure(self.checks(*self._fields()))

    @staticmethod
    def checks(slab_length: float, dt: float, max_iters: int, gamma_tol: float,
               max_halvings: int, continuity: str) -> list:
        """(field, failed, message) rows of the constructor's constraints."""
        return [
            ("slab_length", not slab_length > 0,
             f"slab_length must be positive, got {slab_length}"),
            ("dt", not dt > 0 or (slab_length > 0 and dt > slab_length),
             f"need 0 < dt <= slab_length, got dt={dt}"),
            ("max_iters", max_iters < 1, "max_iters must be >= 1"),
            ("gamma_tol", not (math.isfinite(gamma_tol) and gamma_tol > 0),
             f"gamma_tol must be finite and positive, got {gamma_tol}"),
            ("max_halvings", max_halvings < 0, f"max_halvings must be >= 0, got {max_halvings}"),
            ("continuity", continuity not in ("fv", "characteristics"),
             f"continuity must be fv or characteristics, got {continuity!r}"),
        ]


class PicardDiagnostics(Record):
    """Contraction record of one slab attempt: the length and step times of
    the attempt, the halvings before it, the gamma of each sweep, and the
    rule that accepted the last one ("floor", "step" or "bound"; None if
    none did).  The sweep count, the convergence flag and the per-sweep
    ratios derive from these."""

    __slots__ = ("slab_length", "times", "halvings", "gamma_history", "stop_rule")

    def __init__(self, slab_length: float, times: Array, halvings: int = 0,
                 gamma_history: list | None = None, stop_rule: str | None = None):
        self.slab_length = slab_length
        self.times = times
        self.halvings = halvings
        self.gamma_history = [] if gamma_history is None else gamma_history
        self.stop_rule = stop_rule

    @property
    def iterations(self) -> int:
        return len(self.gamma_history)

    @property
    def converged(self) -> bool:
        return self.stop_rule is not None

    @property
    def contraction_ratios(self) -> list:
        """gamma_k / gamma_{k-1} of every sweep k >= 2 whose previous gamma is
        positive."""
        g = self.gamma_history
        return [b / a for a, b in zip(g, g[1:]) if a > 0.0]


class DeltaSchedule(Value):
    """Strictly decreasing, finite, positive density lifts for vacuum
    regularization."""

    __slots__ = ("deltas",)

    def __init__(self, deltas: tuple):
        self._set(deltas=tuple(float(x) for x in deltas))
        raise_first_failure(self.checks(self.deltas))

    @staticmethod
    def checks(deltas: tuple) -> list:
        """(field, failed, message) rows of the constructor's constraints."""
        return [("deltas", not deltas or not all(math.isfinite(x) and x > 0 for x in deltas),
                 f"delta schedule must contain finite positive values, got {deltas}"),
                ("deltas", any(b >= a for a, b in zip(deltas, deltas[1:])),
                 "delta schedule must be strictly decreasing")]


class ContinuationReport(Record):
    """Deltas and pairwise differences of the lifted solutions; ``monotone``
    derives from these."""

    __slots__ = ("deltas", "differences")

    def __init__(self, deltas: list, differences: list):
        self.deltas = deltas
        self.differences = differences

    @property
    def monotone(self) -> bool:
        return all(b < a for a, b in zip(self.differences, self.differences[1:]))


class Trajectory(Record):
    """Snapshot sequence of a chained-slab run."""

    __slots__ = ("times", "states", "diagnostics")

    def __init__(self, times: list, states: list, diagnostics: list | None = None):
        self.times = times
        self.states = states
        self.diagnostics = [] if diagnostics is None else diagnostics


# ---------------------------------------------------------------------------
# contraction metric
# ---------------------------------------------------------------------------

def _increment_norms(prev_states: list, next_states: list, grids: Grids,
                     include_l32: bool) -> list:
    """Per state pair, rho the next state's density: (||dI||_{L2(phase; L2)},
    |d rho|_2, |sqrt(rho) du|_2) and, with ``include_l32``, |d rho|_{3/2}; the
    pairs' radiation differences are stacked, and released once normed."""
    grid = grids.spatial
    inner = _lp_cells(_differences([s.I for s in prev_states], [s.I for s in next_states]),
                      2.0, grid, lead=3, overwrite=True)
    cells = [_phase_l2(inner, grids)]
    drho = _differences([s.rho for s in prev_states], [s.rho for s in next_states])
    du = np.sqrt(np.maximum(np.stack([s.rho for s in next_states]), 0.0))[:, None] \
        * _differences([s.u for s in prev_states], [s.u for s in next_states])
    rho2, *rho32 = _lp_multi(drho, (2.0, 1.5) if include_l32 else (2.0,), grid, lead=1,
                             overwrite=True)
    cells += [rho2, _lp_cells(du, 2.0, grid, lead=1, overwrite=True)] + rho32
    return list(zip(*(c.tolist() for c in cells)))


def gamma_metric(prev_states: list, next_states: list, grids: Grids,
                 include_l32: bool = False) -> float:
    """gamma: the sup over slab snapshots of ||dI||^2_{L2(phase; L2)} + |d
    rho|_2^2 + |sqrt(rho) du|_2^2 (+ |d rho|_{3/2}^2 with ``include_l32``) of
    each state pair (``_increment_norms``), over chunks of stacked pairs
    (``snapshot_chunks``) in snapshot order; NaN once one increment is NaN."""
    if len(prev_states) != len(next_states):
        raise ParameterError("iterate trajectories must share snapshot times")
    worst = 0.0
    if not next_states:
        return worst
    for start, stop in snapshot_chunks(len(next_states), next_states[0].I.nbytes):
        for norms in _increment_norms(prev_states[start:stop], next_states[start:stop],
                                      grids, include_l32):
            total = 0.0
            for norm in norms:       # in the order of the formula above
                total += norm ** 2
            if math.isnan(total):
                return total     # max() would keep the finite sup
            worst = max(worst, total)
    return worst


# ---------------------------------------------------------------------------
# slab iteration
# ---------------------------------------------------------------------------

def _slab_times(t0: float, T: float, dt: float) -> np.ndarray:
    n = max(1, int(np.ceil(T / dt - 1e-12)))
    return t0 + np.linspace(0.0, T, n + 1)


def _initial_iterate(state0: State, rad: _Radiation, times: np.ndarray) -> list:
    """Iterate 0, one state per time of ``times``: frozen density, u0
    carried by explicit heat flow and I0 by ``transport._advance`` without
    collisions (free streaming) over each step in turn."""
    u, I = state0.u, state0.I
    # one stack per field, not one array per step: with per-step arrays kept
    # alive over the slab, a 128-cell 1D run of 2 slabs x 20 steps ran about
    # 4% slower (ten alternating benchmark pairs); with the stacks it does not
    velocities = np.empty((times.size - 1,) + np.shape(u))
    intensities = np.empty((times.size - 1,) + np.shape(I))
    for j in range(1, times.size):
        dt = float(times[j] - times[j - 1])
        velocities[j - 1] = u = heat_smooth(u, rad.grids.spatial, dt)
        intensities[j - 1] = I = _advance(I, None, None, rad, dt, float(times[j - 1]))
    return [state0] + [State(I=I, rho=state0.rho, u=u)
                       for u, I in zip(velocities, intensities)]


def _iterate_once(prev: list, state0: State, rad: _Radiation, visc: ViscosityParams,
                  eos: EquationOfState, cfg: SlabConfig, times: np.ndarray) -> list:
    """One sweep of the linearized system over the slab, driven by the
    previous iterate (w, psi) = (u^k, I^k): per step the density, the
    radiation half on the attempt's record (``transport._radiation_step``,
    scattering-in from psi), then the velocity."""
    grid = rad.grids.spatial
    p_ref = eos.reference_pressure(grid.rho_bar)
    if cfg.continuity == "characteristics":
        # each step's density depends only on state0.rho and the previous
        # iterate's velocities, so one trace covers the whole sweep
        rel_times = times - times[0]
        w_hist = VelocityHistory(rel_times, [s.u for s in prev])
        rho_char = continuity_step_characteristics(state0.rho, w_hist, rel_times[1:], grid)

    new_states = [state0]
    for j in range(1, times.size):
        dt = float(times[j] - times[j - 1])
        if cfg.continuity == "fv":
            rho_new = continuity_step_fv(new_states[-1].rho, prev[j - 1].u, dt, grid)
        else:
            rho_new = rho_char[j - 1]
        I_new, f_rad = _radiation_step(rad, new_states[-1].I, prev[j - 1].I, rho_new,
                                       float(times[j - 1]), float(times[j]))
        p_new = pressure(eos, rho_new, grid)
        u_new = momentum_step(new_states[-1].u, rho_new, prev[j].u, p_new, f_rad,
                              visc, dt, grid, p_ref=p_ref)
        new_states.append(State(I=I_new, rho=rho_new, u=u_new))
    return new_states


def _stop_rule(gamma_history: list, gamma_tol: float) -> str | None:
    """The rule that accepts the last iterate of ``gamma_history``, or None.

    "floor": its gamma is at most ``_GAMMA_FLOOR``; "step": at most
    gamma_tol * gamma_1; "bound": the a-posteriori bound ratio / (1 -
    sqrt(ratio))^2 * gamma on its squared distance to the fixed point is at
    most gamma_tol * gamma_1, with the last ratio at most ``_RATIO_MAX``.
    A non-finite gamma is never accepted.
    """
    gamma = gamma_history[-1]
    target = gamma_tol * gamma_history[0]
    if not math.isfinite(gamma):
        return None
    if gamma <= _GAMMA_FLOOR:
        return "floor"
    if gamma <= target:
        return "step"
    if len(gamma_history) >= 2 and gamma_history[-2] > 0.0:
        ratio = gamma / gamma_history[-2]
        if ratio <= _RATIO_MAX and ratio / (1.0 - np.sqrt(ratio)) ** 2 * gamma <= target:
            return "bound"
    return None


def solve_slab(state0: State, model: CoefficientModel, grids: Grids,
               visc: ViscosityParams, eos: EquationOfState,
               consts: PhysicalConstants, cfg: SlabConfig,
               t0: float = 0.0) -> tuple[State, PicardDiagnostics]:
    """Iterate the linearized system on one slab until ``_stop_rule`` accepts
    a sweep: the contraction metric drops below gamma_tol relative to its
    first value, or the contraction's a-posteriori bound puts the iterate
    that close to the fixed point (per-sweep ratio at most ``_RATIO_MAX``).

    A slab that stalls (per-sweep ratio at least 1, or a non-finite gamma)
    or runs out of sweeps is halved, at most ``cfg.max_halvings`` times;
    then IterationError is raised, carrying the last attempt's diagnostics.
    """
    states, diag = solve_slab_full(state0, model, grids, visc, eos, consts, cfg, t0)
    return states[-1], diag


def solve_slab_full(state0: State, model, grids, visc, eos, consts,
                    cfg: SlabConfig, t0: float = 0.0):
    """Like solve_slab but returns every inner-step snapshot of the slab."""
    state0 = state0.validate(grids)
    include_l32 = grids.spatial.boundary == "farfield" and grids.spatial.rho_bar == 0.0
    T = cfg.slab_length
    rad = _radiation(model, grids, consts.c)     # one record for every attempt
    for halvings in range(cfg.max_halvings + 1):
        # with dt > T (a halved slab) this is the one step dt = T gives
        times = _slab_times(t0, T, cfg.dt)
        diag = PicardDiagnostics(slab_length=T, times=times, halvings=halvings)
        prev = _initial_iterate(state0, rad, times)
        for _ in range(cfg.max_iters):
            current = _iterate_once(prev, state0, rad, visc, eos, cfg, times)
            diag.gamma_history.append(gamma_metric(prev, current, grids,
                                                   include_l32=include_l32))
            prev = current
            diag.stop_rule = _stop_rule(diag.gamma_history, cfg.gamma_tol)
            if diag.converged:
                return prev, diag
            # a stall (a non-finite gamma, or a ratio >= 1) ends the attempt at
            # once, so only the last ratio can be >= 1
            ratios = diag.contraction_ratios
            if not math.isfinite(diag.gamma_history[-1]) or (ratios and ratios[-1] >= 1.0):
                break
        T *= 0.5
    raise IterationError(
        f"fixed-point iteration failed to converge after {cfg.max_halvings} halvings",
        diagnostics=diag)


def _clipped_slab(cfg: SlabConfig, slab_len: float, remaining: float) -> SlabConfig:
    """``cfg`` for a slab of length min(slab_len, remaining), so that it ends
    at most ``remaining`` after its start, with a step no longer than the
    slab."""
    T = min(slab_len, remaining)
    return cfg._replace(slab_length=T, dt=min(cfg.dt, T))


def solve(state0: State, model: CoefficientModel, grids: Grids,
          visc: ViscosityParams, eos: EquationOfState, consts: PhysicalConstants,
          cfg: SlabConfig, t_final: float) -> Trajectory:
    """Chain slab solves over [0, t_final], emitting every inner snapshot."""
    if not (math.isfinite(t_final) and t_final > 0):
        raise ParameterError(f"t_final must be finite and positive, got {t_final}")
    state0 = state0.validate(grids)
    traj = Trajectory(times=[0.0], states=[state0])
    t = 0.0
    slab_len = cfg.slab_length
    while t < t_final - 1e-12 * t_final:
        states, diag = solve_slab_full(traj.states[-1], model, grids, visc, eos, consts,
                                       _clipped_slab(cfg, slab_len, t_final - t), t0=t)
        traj.times.extend(float(s) for s in diag.times[1:])
        traj.states.extend(states[1:])
        traj.diagnostics.append(diag)
        t += diag.slab_length
        # reuse a halved slab length for subsequent slabs instead of rediscovering it
        slab_len = min(cfg.slab_length, max(diag.slab_length, 1e-12))
    return traj


# ---------------------------------------------------------------------------
# vacuum regularization by density lift
# ---------------------------------------------------------------------------

def _lift_grids(grids: Grids, delta: float) -> Grids:
    grid = grids.spatial
    return Grids(grid._replace(rho_bar=grid.rho_bar + delta), grids.freq, grids.ang)


def delta_continuation(state0: State, model: CoefficientModel, grids: Grids,
                       visc: ViscosityParams, eos: EquationOfState,
                       consts: PhysicalConstants, cfg: SlabConfig,
                       schedule: DeltaSchedule,
                       t0: float = 0.0) -> tuple[State, ContinuationReport]:
    """Solve one slab with the initial density lifted by each delta in the
    schedule; report pairwise differences of the resulting (rho, u) states.

    Differences should decrease along the schedule; the report's
    ``monotone`` says whether they do, and a non-monotone sequence is never
    an error.  The state returned is the solution at the last, smallest
    delta.
    """
    finals = [solve_slab(State(I=state0.I, rho=state0.rho + delta, u=state0.u), model,
                         _lift_grids(grids, delta), visc, eos, consts, cfg, t0)[0]
              for delta in schedule.deltas]

    diffs = [float(np.sqrt(lp_norm(a.rho - b.rho, 2.0, grids.spatial) ** 2
                           + lp_norm(a.u - b.u, 2.0, grids.spatial) ** 2))
             for a, b in zip(finals, finals[1:])]

    return finals[-1], ContinuationReport(deltas=list(schedule.deltas), differences=diffs)
