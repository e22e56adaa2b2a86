"""Built-in initial-data scenarios.

Each scenario generates (I0, rho0, u0) plus an optional emission override,
instantiating the hypotheses the solver and diagnostics are designed around:
a strict-positive background, interior vacuum sets, a vanishing far-field
density, a constructed compatible / incompatible initial force balance, and a
pure-absorption radiation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ParameterError
from .grid import Grids
from .norms import NormSettings
from .physics import (EquationOfState, PhysicalConstants, ViscosityParams,
                      _tabulated_emission)
from .picard import State

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class ScenarioContext:
    """Everything a generator may need: discretization, physics, parameters."""

    grids: Grids
    eos: EquationOfState
    visc: ViscosityParams
    consts: PhysicalConstants
    settings: NormSettings
    params: dict


@dataclass(frozen=True, eq=False)
class ScenarioData:
    """Generated initial data and an optional emission evaluator override."""

    state: State
    emission: Callable | None = None


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    description: str
    builder: Callable

    def build(self, ctx: ScenarioContext) -> ScenarioData:
        data = self.builder(ctx)
        _validate_data(data, ctx)
        return data


def _validate_data(data: ScenarioData, ctx: ScenarioContext) -> None:
    grid = ctx.grids.spatial
    state = data.state.validate(ctx.grids)
    if grid.boundary == "farfield":
        # generated data must approach (I, rho, u) -> (0, rho_bar, 0) at the edges
        scale = max(float(np.max(state.rho)), grid.farfield_rho, 1.0)
        edge = _edge_mask(grid)
        if float(np.max(np.abs(state.rho[edge] - grid.farfield_rho))) > 0.05 * scale:
            raise ConfigError(f"scenario density does not approach the far-field "
                              f"value {grid.farfield_rho} near the boundary")
        u_scale = max(float(np.max(np.abs(state.u))), 1e-300)
        if float(np.max(np.abs(state.u[:, edge]))) > 0.05 * u_scale:
            raise ConfigError("scenario velocity must decay toward the far-field boundary")


def _edge_mask(grid) -> Array:
    mask = np.zeros(grid.extents, dtype=bool)
    for a in range(grid.dim):
        sl_lo = [slice(None)] * grid.dim
        sl_hi = [slice(None)] * grid.dim
        sl_lo[a] = 0
        sl_hi[a] = -1
        mask[tuple(sl_lo)] = True
        mask[tuple(sl_hi)] = True
    return mask


def _param(ctx: ScenarioContext, key: str, default: float) -> float:
    return float(ctx.params.get(key, default))


def _rho_bar(ctx: ScenarioContext, default: float = 1.0) -> float:
    grid = ctx.grids.spatial
    if grid.boundary == "farfield":
        return float(grid.farfield_rho)
    return _param(ctx, "rho_bar", default)


def _radial(ctx: ScenarioContext) -> Array:
    return ctx.grids.spatial.radius_from_center()


def _zero_state(ctx: ScenarioContext, rho: Array) -> State:
    grids = ctx.grids
    return State(I=np.zeros(grids.radiation_shape()), rho=rho,
                 u=np.zeros((grids.spatial.dim,) + grids.spatial.extents))


def _smoothstep(t: Array) -> Array:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _plateau_density(ctx: ScenarioContext, exponent: float = 2.0) -> Array:
    """Background rho_bar with an interior vacuum plateau; the transition is
    a power of a smoothstep, so rho vanishes to order 2*exponent at the edge
    of the vacuum set and stays in W^{1,q}."""
    rho_bar = _rho_bar(ctx)
    if rho_bar <= 0:
        raise ConfigError("vacuum-plateau needs a positive background density")
    r0 = _param(ctx, "vacuum_radius", 0.1) * max(ctx.grids.spatial.lengths)
    w = _param(ctx, "transition_width", 0.15) * max(ctx.grids.spatial.lengths)
    ramp = _smoothstep((_radial(ctx) - r0) / w)
    return rho_bar * ramp ** exponent


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _equilibrium(ctx: ScenarioContext) -> ScenarioData:
    rho_bar = _rho_bar(ctx)
    if rho_bar <= 0:
        raise ConfigError("equilibrium needs a positive background density")
    rho = np.full(ctx.grids.spatial.extents, rho_bar)
    return ScenarioData(state=_zero_state(ctx, rho), emission=_const_emission(0.0))


def _smooth_bump(ctx: ScenarioContext) -> ScenarioData:
    rho_bar = _rho_bar(ctx)
    if rho_bar <= 0:
        raise ConfigError("smooth-bump needs a positive background density")
    amp = _param(ctx, "amplitude", 0.3)
    width = _param(ctx, "width", 0.12) * max(ctx.grids.spatial.lengths)
    rho = rho_bar + amp * np.exp(-(_radial(ctx) / width) ** 2)
    e0 = _param(ctx, "emission0", 0.05)
    return ScenarioData(state=_zero_state(ctx, rho), emission=_const_emission(e0))


def _vacuum_plateau(ctx: ScenarioContext) -> ScenarioData:
    rho = _plateau_density(ctx)
    e0 = _param(ctx, "emission0", 0.0)
    return ScenarioData(state=_zero_state(ctx, rho), emission=_const_emission(e0))


def _vacuum_farfield(ctx: ScenarioContext) -> ScenarioData:
    grid = ctx.grids.spatial
    if grid.boundary == "farfield" and grid.farfield_rho != 0.0:
        raise ConfigError("vacuum-farfield requires a zero far-field density")
    amp = _param(ctx, "amplitude", 1.0)
    width = _param(ctx, "width", 0.25) * max(grid.lengths)
    # compactly supported C2 bump; (I, rho, u) -> (0, 0, 0) at infinity
    s = np.maximum(0.0, 1.0 - (_radial(ctx) / width) ** 2)
    rho = amp * s ** 3
    return ScenarioData(state=_zero_state(ctx, rho), emission=_const_emission(0.0))


def _edge_taper(ctx: ScenarioContext) -> Array:
    """Smooth factor that is 1 in the bulk and exactly 0 at the domain edge."""
    grid = ctx.grids.spatial
    L = max(grid.lengths)
    return _smoothstep((0.5 * L - _radial(ctx)) / (0.1 * L))


def _compat_satisfied(ctx: ScenarioContext) -> ScenarioData:
    """Initial force imbalance that factors through sqrt(rho0).

    With u0 = a rho0^2 sin(kx) the viscous force L u0 vanishes at the vacuum
    boundary much faster than sqrt(rho0), so the weighted residual decays
    there and its norm is Cauchy as the vacuum cut refines.
    """
    grid = ctx.grids.spatial
    rho = _plateau_density(ctx)
    amp = _param(ctx, "u_amplitude", 0.5)
    u0 = np.zeros((grid.dim,) + grid.extents)
    k = 2.0 * np.pi / grid.lengths[0]
    u0[0] = amp * rho ** 2 * np.sin(k * grid.coords()[0])
    if grid.boundary == "farfield":
        u0 *= _edge_taper(ctx)[None]
    state = State(I=np.zeros(ctx.grids.radiation_shape()), rho=rho, u=u0)
    return ScenarioData(state=state, emission=_const_emission(0.0))


def _compat_diverging(ctx: ScenarioContext) -> ScenarioData:
    """Smooth velocity whose viscous force does not vanish at the vacuum
    boundary, so the weighted residual fails to be square integrable there.
    The density vanishes steeply (sixth order) to make the divergence of the
    refinement trace unambiguous at laboratory resolutions."""
    grid = ctx.grids.spatial
    rho = _plateau_density(ctx, exponent=3.0)
    amp = _param(ctx, "u_amplitude", 1.0)
    u0 = np.zeros((grid.dim,) + grid.extents)
    k = 2.0 * np.pi / grid.lengths[0]
    u0[0] = amp * np.sin(k * grid.coords()[0])
    if grid.boundary == "farfield":
        # vanish at the domain edge but stay active on the vacuum boundary
        u0 *= _edge_taper(ctx)[None]
    state = State(I=np.zeros(ctx.grids.radiation_shape()), rho=rho, u=u0)
    return ScenarioData(state=state, emission=_const_emission(0.0))


def _beam_absorption(ctx: ScenarioContext) -> ScenarioData:
    """A single-ordinate pulse on a uniform background; meant to be paired
    with a pure-absorption coefficient model."""
    grids = ctx.grids
    grid = grids.spatial
    rho_bar = _rho_bar(ctx)
    rho = np.full(grid.extents, max(rho_bar, 1.0) if rho_bar <= 0 else rho_bar)
    I0 = np.zeros(grids.radiation_shape())
    m_star = int(np.argmax(grids.ang.ordinates[:, 0]))
    width = _param(ctx, "width", 0.08) * max(grid.lengths)
    center = _param(ctx, "center", 0.3) * max(grid.lengths)
    x = grid.coords()[0]
    profile = np.exp(-((x - center) / width) ** 2)
    I0[0, m_star] = np.broadcast_to(_param(ctx, "intensity", 1.0) * profile,
                                    grid.extents)
    state = State(I=I0, rho=rho, u=np.zeros((grid.dim,) + grid.extents))
    return ScenarioData(state=state, emission=_const_emission(0.0))


def _custom(ctx: ScenarioContext) -> ScenarioData:
    """Explicit initial data assembled from profile parameters."""
    grid = ctx.grids.spatial
    kind = ctx.params.get("rho0", "constant")
    if kind == "constant":
        rho = np.full(grid.extents, _param(ctx, "rho0_value", _rho_bar(ctx)))
    elif kind == "bump":
        rho = _smooth_bump(ctx).state.rho
    elif kind == "well":
        rho = _plateau_density(ctx)
    else:
        raise ConfigError(f"unknown rho0 profile {kind!r}")
    data = _zero_state(ctx, rho)
    u0 = data.u.copy()
    if ctx.params.get("u0", "zero") == "sine":
        k = 2.0 * np.pi / grid.lengths[0]
        u0[0] = _param(ctx, "u0_amplitude", 0.1) * np.sin(k * grid.coords()[0])
    I0 = data.I.copy()
    if ctx.params.get("I0", "zero") == "uniform":
        I0[:] = _param(ctx, "I0_value", 1.0)
    state = State(I=I0, rho=rho, u=u0)
    return ScenarioData(state=state,
                        emission=_const_emission(_param(ctx, "emission0", 0.0)))


def _const_emission(value: float):
    if value < 0:
        raise ParameterError("emission rate must be >= 0")
    return _tabulated_emission(lambda v: value)


_BUILTINS = [
    Scenario("equilibrium", "constant background at rest; exact fixed point",
             _equilibrium),
    Scenario("smooth-bump", "positive Gaussian density bump, weak emission",
             _smooth_bump),
    Scenario("vacuum-plateau", "interior vacuum set with smooth transition",
             _vacuum_plateau),
    Scenario("vacuum-farfield", "compact density bump over vanishing background",
             _vacuum_farfield),
    Scenario("compat-satisfied", "initial force imbalance factored through sqrt(rho0)",
             _compat_satisfied),
    Scenario("compat-diverging", "viscous force active on the vacuum boundary",
             _compat_diverging),
    Scenario("beam-absorption", "single-ordinate pulse for transport benchmarks",
             _beam_absorption),
    Scenario("custom", "explicit initial-data profiles from parameters", _custom),
]


def builtin_scenarios() -> dict:
    """Name -> Scenario map of the shipped presets."""
    return {s.name: s for s in _BUILTINS}
