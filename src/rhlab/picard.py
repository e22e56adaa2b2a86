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
time/RSS trade-off); ``gamma_increment`` is the one-pair case of the same
helper, and the sup runs in snapshot order, so the value is bit-identical
to one pair at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, IterationError, ParameterError
from .fluid import (VelocityHistory, continuity_step_characteristics,
                    continuity_step_fv, heat_smooth, momentum_step)
from .grid import Grids, SpatialGrid, check_radiation, check_scalar, check_vector
from .norms import _lp_cells, _lp_multi, _phase_l2, lp_norm, snapshot_chunks
from .physics import (CoefficientModel, EquationOfState, PhysicalConstants,
                      ViscosityParams, pressure)
from .transport import (_momentum_source, _substep_transport, _tables_at,
                        free_streaming_step, transport_substeps)

Array = np.ndarray

_GAMMA_FLOOR = 1e-28


@dataclass(frozen=True, eq=False)
class State:
    """Full phase-space state (I, rho, u) at one instant."""

    I: Array
    rho: Array
    u: Array

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


@dataclass(frozen=True)
class SlabConfig:
    """Slab length, inner step, and fixed-point iteration policy."""

    slab_length: float
    dt: float
    max_iters: int = 30
    gamma_tol: float = 1e-8
    halve_on_stall: bool = True
    max_halvings: int = 2
    transport_cfl: float = 0.9
    continuity: str = "fv"           # "fv" | "characteristics"

    def __post_init__(self):
        if not 0 < self.dt <= self.slab_length:
            raise ParameterError(f"need 0 < dt <= slab_length, got dt={self.dt}, "
                                 f"slab_length={self.slab_length}")
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")
        if not (np.isfinite(self.gamma_tol) and self.gamma_tol > 0):
            raise ParameterError(f"gamma_tol must be finite and positive, got {self.gamma_tol}")
        if self.max_halvings < 0:
            raise ParameterError(f"max_halvings must be >= 0, got {self.max_halvings}")
        if not 0 < self.transport_cfl <= 1:
            raise ParameterError(f"transport_cfl must lie in (0, 1], got {self.transport_cfl}")
        if self.continuity not in ("fv", "characteristics"):
            raise ParameterError(f"unknown continuity scheme {self.continuity!r}")


@dataclass
class PicardDiagnostics:
    """Per-iteration contraction record for one slab."""

    gamma_history: list = field(default_factory=list)
    contraction_ratios: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    slab_length: float = 0.0
    halvings: int = 0


@dataclass(frozen=True)
class DeltaSchedule:
    """Strictly decreasing, finite, positive density lifts for vacuum
    regularization."""

    deltas: tuple
    extrapolate: bool = False

    def __post_init__(self):
        d = tuple(float(x) for x in self.deltas)
        object.__setattr__(self, "deltas", d)
        if len(d) < 1 or not all(np.isfinite(x) and x > 0 for x in d):
            raise ParameterError(f"delta schedule must contain finite positive values, got {d}")
        if any(b >= a for a, b in zip(d, d[1:])):
            raise ParameterError("delta schedule must be strictly decreasing")


@dataclass
class ContinuationReport:
    deltas: list
    differences: list
    monotone: bool
    warning: str | None = None
    extrapolated: bool = False


@dataclass
class Trajectory:
    """Snapshot sequence of a chained-slab run."""

    times: list
    states: list
    diagnostics: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# contraction metric
# ---------------------------------------------------------------------------

def _differences(prev: list, nxt: list) -> Array:
    """Rows nxt[j] - prev[j], stacked."""
    out = np.empty((len(nxt),) + np.shape(nxt[0]))
    for row, a, b in zip(out, prev, nxt):
        np.subtract(b, a, out=row)
    return out


def _increment_norms(prev_states: list, next_states: list, rho_weights: list,
                     grids: Grids, include_l32: bool) -> list:
    """Per state pair: (||dI||_{L2(phase; L2)}, |d rho|_2, |sqrt(rho_w) du|_2)
    and, with ``include_l32``, |d rho|_{3/2}; each pair's radiation
    difference is stacked with the others, and released once normed."""
    grid = grids.spatial
    inner = _lp_cells(_differences([s.I for s in prev_states], [s.I for s in next_states]),
                      2.0, grid, lead=3, overwrite=True)
    cells = [_phase_l2(inner, grids)]
    drho = _differences([s.rho for s in prev_states], [s.rho for s in next_states])
    du = np.sqrt(np.maximum(np.stack(rho_weights), 0.0))[:, None] \
        * _differences([s.u for s in prev_states], [s.u for s in next_states])
    rho2, *rho32 = _lp_multi(drho, (2.0, 1.5) if include_l32 else (2.0,), grid, lead=1,
                             overwrite=True)
    cells += [rho2, _lp_cells(du, 2.0, grid, lead=1, overwrite=True)] + rho32
    return list(zip(*(c.tolist() for c in cells)))


def _gamma_total(n_I: float, n_rho: float, n_u: float, n_rho32: float | None = None) -> float:
    total = n_I ** 2
    total += n_rho ** 2
    total += n_u ** 2
    if n_rho32 is not None:
        total += n_rho32 ** 2
    return float(total)


def gamma_increment(prev_state: State, next_state: State, grids: Grids,
                    rho_weight: Array | None = None,
                    include_l32: bool = False) -> float:
    """Squared-energy distance of two states at one instant:
    ||dI||^2_{L2(phase; L2)} + |d rho|_2^2 + |sqrt(rho_w) du|_2^2
    (+ |d rho|_{3/2}^2 when the far-field density vanishes)."""
    if rho_weight is None:
        rho_weight = next_state.rho
    norms = _increment_norms([prev_state], [next_state], [rho_weight], grids, include_l32)
    return _gamma_total(*norms[0])


def gamma_metric(prev_states: list, next_states: list, grids: Grids,
                 include_l32: bool = False) -> float:
    """Sup over slab snapshots of gamma_increment, with the norms taken over
    chunks of stacked state pairs (``snapshot_chunks``) and the sup in
    snapshot order."""
    if len(prev_states) != len(next_states):
        raise ParameterError("iterate trajectories must share snapshot times")
    worst = 0.0
    if not next_states:
        return worst
    for start, stop in snapshot_chunks(len(next_states), next_states[0].I.nbytes):
        nxt = next_states[start:stop]
        for norms in _increment_norms(prev_states[start:stop], nxt, [s.rho for s in nxt],
                                      grids, include_l32):
            worst = max(worst, _gamma_total(*norms))
    return worst


# ---------------------------------------------------------------------------
# slab iteration
# ---------------------------------------------------------------------------

def _slab_times(t0: float, T: float, dt: float) -> np.ndarray:
    n = max(1, int(np.ceil(T / dt - 1e-12)))
    return t0 + np.linspace(0.0, T, n + 1)


@functools.lru_cache(maxsize=1)
def _heat_flow_chain(u0_bytes: bytes, shape: tuple, times_bytes: bytes,
                     extents: tuple, spacing: tuple, boundary: str) -> tuple:
    """The mollified velocities of iterate 0 at ``times[1:]``: u0 carried by
    explicit heat flow over each step in turn, as read-only arrays.

    Keyed by value.  The heat flow pads with zero velocity whatever the
    far-field density, so the key leaves ``farfield_rho`` out, and the main
    solve and every density-lifted solve of the same slab share one chain.
    """
    grid = SpatialGrid(extents, spacing, boundary,
                       0.0 if boundary == "farfield" else None)
    u = np.frombuffer(u0_bytes).reshape(shape)
    times = np.frombuffer(times_bytes)
    chain = []
    for j in range(1, times.size):
        u = heat_smooth(u, grid, float(times[j] - times[j - 1]))
        u.flags.writeable = False
        chain.append(u)
    return tuple(chain)


def _initial_iterate(state0: State, grids: Grids, consts: PhysicalConstants,
                     cfg: SlabConfig, times: np.ndarray) -> list:
    """Iterate 0: frozen density; velocity mollified by explicit heat flow,
    from the one-slab cache ``_heat_flow_chain``; intensity advanced by
    collisionless free streaming, recomputed on every call (caching it too
    would keep a slab of intensities alive)."""
    grid = grids.spatial
    u0 = np.ascontiguousarray(state0.u, dtype=float)
    velocities = _heat_flow_chain(u0.tobytes(), u0.shape, times.tobytes(),
                                  grid.extents, grid.spacing, grid.boundary)
    states = [state0]
    for j, u in enumerate(velocities, start=1):
        dt = float(times[j] - times[j - 1])
        I = states[-1].I
        n_sub, sub = transport_substeps(grids, dt, consts.c, cfg.transport_cfl)
        for _ in range(n_sub):
            I = free_streaming_step(I, grids, sub, consts.c)
        states.append(State(I=I, rho=state0.rho, u=u))
    return states


def _iterate_once(prev: list, state0: State, model: CoefficientModel, grids: Grids,
                  visc: ViscosityParams, eos: EquationOfState,
                  consts: PhysicalConstants, cfg: SlabConfig,
                  times: np.ndarray) -> list:
    """One sweep of the linearized system over the slab, driven by the
    previous iterate (w, psi) = (u^k, I^k)."""
    grid = grids.spatial
    dim = grid.dim
    p_ref = eos.reference_pressure(grid.farfield_rho) if grid.boundary == "farfield" else 0.0
    if cfg.continuity == "characteristics":
        # each step's density depends only on state0.rho and the previous
        # iterate's velocities, so one trace covers the whole sweep
        rel_times = times - times[0]
        w_hist = VelocityHistory(rel_times, [s.u for s in prev])
        rho_char = continuity_step_characteristics(state0.rho, w_hist, rel_times[1:], grid)

    new_states = [state0]
    for j in range(1, times.size):
        dt = float(times[j] - times[j - 1])
        t_new = float(times[j])
        if cfg.continuity == "fv":
            rho_new = continuity_step_fv(new_states[-1].rho, prev[j - 1].u, dt, grid)
        else:
            rho_new = rho_char[j - 1]
        # removal and emission depend on rho_new alone: one build serves every
        # transport substep and the momentum source (per time if untabulated)
        t_prev = float(times[j - 1])
        tables_at = _tables_at(model, grids, t_prev, rho_new)
        I_new = _substep_transport(new_states[-1].I, prev[j - 1].I, rho_new, tables_at,
                                   grids, dt, t_prev, consts.c, cfg.transport_cfl)
        p_new = pressure(eos, rho_new, grid)
        f_rad = _momentum_source(I_new, rho_new, tables_at(t_new), grids, consts.c)[:dim]
        u_new = momentum_step(new_states[-1].u, rho_new, prev[j].u, p_new, f_rad,
                              visc, dt, grid, p_ref=p_ref)
        new_states.append(State(I=I_new, rho=rho_new, u=u_new))
    return new_states


def _run_picard(state0: State, model, grids, visc, eos, consts, cfg: SlabConfig,
                t0: float, T: float):
    """Picard loop over one slab of length T.  Returns (states, diag, stalled)."""
    include_l32 = grids.spatial.boundary == "farfield" and grids.spatial.farfield_rho == 0.0
    times = _slab_times(t0, T, cfg.dt)
    diag = PicardDiagnostics(slab_length=T)
    prev = _initial_iterate(state0, grids, consts, cfg, times)
    gamma1 = None
    stalled = False
    for k in range(1, cfg.max_iters + 1):
        current = _iterate_once(prev, state0, model, grids, visc, eos, consts, cfg, times)
        gamma = gamma_metric(prev, current, grids, include_l32=include_l32)
        diag.gamma_history.append(gamma)
        diag.iterations = k
        if k >= 2:
            prev_gamma = diag.gamma_history[-2]
            if prev_gamma > 0.0:
                ratio = gamma / prev_gamma
                diag.contraction_ratios.append(ratio)
                if ratio >= 1.0:
                    stalled = True
        if gamma1 is None:
            gamma1 = gamma
        prev = current
        if gamma <= _GAMMA_FLOOR or gamma <= cfg.gamma_tol * gamma1:
            diag.converged = True
            break
        if stalled:
            break
    return prev, diag, stalled or not diag.converged


def solve_slab(state0: State, model: CoefficientModel, grids: Grids,
               visc: ViscosityParams, eos: EquationOfState,
               consts: PhysicalConstants, cfg: SlabConfig,
               t0: float = 0.0) -> tuple[State, PicardDiagnostics]:
    """Iterate the linearized system on one slab until the contraction metric
    drops below gamma_tol relative to its first value.

    On stall the slab is halved (at most ``cfg.max_halvings`` times when
    ``halve_on_stall``); persistent non-convergence raises IterationError
    carrying the last diagnostics.
    """
    states, diag = solve_slab_full(state0, model, grids, visc, eos, consts, cfg, t0)
    return states[-1], diag


def solve_slab_full(state0: State, model, grids, visc, eos, consts,
                    cfg: SlabConfig, t0: float = 0.0):
    """Like solve_slab but returns every inner-step snapshot of the slab."""
    state0 = state0.validate(grids)
    T = cfg.slab_length
    attempts = cfg.max_halvings + 1 if cfg.halve_on_stall else 1
    last_diag = None
    for attempt in range(attempts):
        sub_cfg = replace(cfg, slab_length=T, dt=min(cfg.dt, T))
        states, diag, failed = _run_picard(state0, model, grids, visc, eos, consts,
                                           sub_cfg, t0, T)
        diag.halvings = attempt
        last_diag = diag
        if not failed:
            return states, diag
        T *= 0.5
    raise IterationError(
        f"fixed-point iteration failed to converge after {attempts - 1} halvings",
        diagnostics=last_diag)


def solve(state0: State, model: CoefficientModel, grids: Grids,
          visc: ViscosityParams, eos: EquationOfState, consts: PhysicalConstants,
          cfg: SlabConfig, t_final: float) -> Trajectory:
    """Chain slab solves over [0, t_final], emitting every inner snapshot."""
    if t_final <= 0:
        raise ParameterError("t_final must be positive")
    state0 = state0.validate(grids)
    traj = Trajectory(times=[0.0], states=[state0])
    t = 0.0
    slab_len = cfg.slab_length
    while t < t_final - 1e-12 * t_final:
        T = min(slab_len, t_final - t)
        sub_cfg = replace(cfg, slab_length=T, dt=min(cfg.dt, T))
        states, diag = solve_slab_full(traj.states[-1], model, grids, visc, eos,
                                       consts, sub_cfg, t0=t)
        times = np.linspace(t, t + diag.slab_length, len(states))
        traj.times.extend(float(s) for s in times[1:])
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
    if grid.boundary != "farfield":
        return grids
    lifted = replace(grid, farfield_rho=grid.farfield_rho + delta)
    return Grids(spatial=lifted, freq=grids.freq, ang=grids.ang)


def delta_continuation(state0: State, model: CoefficientModel, grids: Grids,
                       visc: ViscosityParams, eos: EquationOfState,
                       consts: PhysicalConstants, cfg: SlabConfig,
                       schedule: DeltaSchedule,
                       t0: float = 0.0) -> tuple[State, ContinuationReport]:
    """Solve one slab with the initial density lifted by each delta in the
    schedule; report pairwise differences of the resulting (rho, u) states.

    Differences must decrease along the schedule; a non-monotone sequence is
    reported as a warning, never an error.  With ``extrapolate`` the delta -> 0
    state is estimated by first-order Richardson extrapolation of the last two
    solutions.
    """
    finals = []
    for delta in schedule.deltas:
        g = _lift_grids(grids, delta)
        lifted = State(I=state0.I, rho=state0.rho + delta, u=state0.u)
        final, _ = solve_slab(lifted, model, g, visc, eos, consts, cfg, t0)
        finals.append(final)

    diffs = []
    for a, b in zip(finals, finals[1:]):
        d = np.sqrt(lp_norm(a.rho - b.rho, 2.0, grids.spatial) ** 2
                    + lp_norm(a.u - b.u, 2.0, grids.spatial) ** 2)
        diffs.append(float(d))
    monotone = all(b < a for a, b in zip(diffs, diffs[1:])) if len(diffs) > 1 else True
    warning = None if monotone else "delta-continuation differences are not decreasing"

    result = finals[-1]
    extrapolated = False
    if schedule.extrapolate and len(finals) >= 2:
        d_prev, d_last = schedule.deltas[-2], schedule.deltas[-1]
        w = d_last / (d_prev - d_last)
        s_prev, s_last = finals[-2], finals[-1]
        result = State(I=s_last.I + w * (s_last.I - s_prev.I),
                       rho=np.maximum(s_last.rho + w * (s_last.rho - s_prev.rho), 0.0),
                       u=s_last.u + w * (s_last.u - s_prev.u))
        extrapolated = True
    report = ContinuationReport(deltas=list(schedule.deltas), differences=diffs,
                                monotone=monotone, warning=warning,
                                extrapolated=extrapolated)
    return result, report
