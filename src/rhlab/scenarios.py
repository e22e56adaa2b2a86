"""Built-in initial-data scenarios.

A scenario builds the initial state (I0, rho0, u0) and nothing else: the
emission is the ``[model]``'s, the background density ``[grid] rho_bar``.
Each declares the ``[scenario]`` keys it reads, with their defaults.  The
presets instantiate the hypotheses the solver and diagnostics are designed
around: a strict-positive background, interior vacuum sets, a vanishing
far-field density, a constructed compatible / incompatible initial force
balance, and a pure-absorption radiation benchmark.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .grid import Grids
from .picard import State

Array = np.ndarray


class Scenario(NamedTuple):
    """A named builder ``(grids, params) -> State`` and the ``keys`` it reads
    from ``params``, each with its default: a number, a string, or None for
    the background density."""

    name: str
    description: str
    builder: Callable
    keys: dict = {}      # one dict shared by the Scenarios without keys: never mutated

    def build(self, grids: Grids, params: dict | None = None) -> State:
        """The validated initial state on ``grids``; ``params`` overrides the
        declared defaults, and its ``rho_bar`` entry is the background
        density of a periodic grid (1 when absent)."""
        state = self.builder(grids, {**self.keys, **(params or {})}).validate(grids)
        grid = grids.spatial
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
        return state


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


def _rho_bar(grids: Grids, p: dict) -> float:
    grid = grids.spatial
    if grid.boundary == "farfield":
        return float(grid.farfield_rho)
    return float(p.get("rho_bar", 1.0))


def _zero_state(grids: Grids, rho: Array) -> State:
    return State(I=np.zeros(grids.radiation_shape()), rho=rho,
                 u=np.zeros((grids.spatial.dim,) + grids.spatial.extents))


def _smoothstep(t: Array) -> Array:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _plateau_density(grids: Grids, p: dict, exponent: float = 2.0) -> Array:
    """Background rho_bar with an interior vacuum plateau; the transition is
    a power of a smoothstep, so rho vanishes to order 2*exponent at the edge
    of the vacuum set and stays in W^{1,q}."""
    rho_bar = _rho_bar(grids, p)
    if rho_bar <= 0:
        raise ConfigError("vacuum-plateau needs a positive background density")
    L = max(grids.spatial.lengths)
    ramp = _smoothstep((grids.spatial.radius_from_center() - p["vacuum_radius"] * L)
                       / (p["transition_width"] * L))
    return rho_bar * ramp ** exponent


def _edge_taper(grids: Grids) -> Array:
    """Smooth factor that is 1 in the bulk and exactly 0 at the domain edge."""
    L = max(grids.spatial.lengths)
    return _smoothstep((0.5 * L - grids.spatial.radius_from_center()) / (0.1 * L))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _equilibrium(grids: Grids, p: dict) -> State:
    rho_bar = _rho_bar(grids, p)
    if rho_bar <= 0:
        raise ConfigError("equilibrium needs a positive background density")
    return _zero_state(grids, np.full(grids.spatial.extents, rho_bar))


def _smooth_bump(grids: Grids, p: dict) -> State:
    rho_bar = _rho_bar(grids, p)
    if rho_bar <= 0:
        raise ConfigError("smooth-bump needs a positive background density")
    width = p["width"] * max(grids.spatial.lengths)
    rho = rho_bar + p["amplitude"] * np.exp(-(grids.spatial.radius_from_center() / width) ** 2)
    return _zero_state(grids, rho)


def _vacuum_plateau(grids: Grids, p: dict) -> State:
    return _zero_state(grids, _plateau_density(grids, p))


def _vacuum_farfield(grids: Grids, p: dict) -> State:
    grid = grids.spatial
    if grid.boundary == "farfield" and grid.farfield_rho != 0.0:
        raise ConfigError("vacuum-farfield requires a zero far-field density")
    width = p["width"] * max(grid.lengths)
    # compactly supported C2 bump; (I, rho, u) -> (0, 0, 0) at infinity
    s = np.maximum(0.0, 1.0 - (grid.radius_from_center() / width) ** 2)
    return _zero_state(grids, p["amplitude"] * s ** 3)


def _sine_velocity(grids: Grids, amplitude) -> Array:
    """u0 = (amplitude sin(kx), 0, ...) with one period over the first axis;
    ``amplitude`` may be a field."""
    grid = grids.spatial
    u0 = np.zeros((grid.dim,) + grid.extents)
    u0[0] = amplitude * np.sin(2.0 * np.pi / grid.lengths[0] * grid.coords()[0])
    return u0


def _compat_satisfied(grids: Grids, p: dict) -> State:
    """Initial force imbalance that factors through sqrt(rho0).

    With u0 = a rho0^2 sin(kx) the viscous force L u0 vanishes at the vacuum
    boundary much faster than sqrt(rho0), so the weighted residual decays
    there and its norm is Cauchy as the vacuum cut refines.
    """
    rho = _plateau_density(grids, p)
    u0 = _sine_velocity(grids, p["u_amplitude"] * rho ** 2)
    if grids.spatial.boundary == "farfield":
        u0 *= _edge_taper(grids)[None]
    return State(I=np.zeros(grids.radiation_shape()), rho=rho, u=u0)


def _compat_diverging(grids: Grids, p: dict) -> State:
    """Smooth velocity whose viscous force does not vanish at the vacuum
    boundary, so the weighted residual fails to be square integrable there.
    The density vanishes steeply (sixth order) to make the divergence of the
    refinement trace unambiguous at laboratory resolutions."""
    rho = _plateau_density(grids, p, exponent=3.0)
    u0 = _sine_velocity(grids, p["u_amplitude"])
    if grids.spatial.boundary == "farfield":
        # vanish at the domain edge but stay active on the vacuum boundary
        u0 *= _edge_taper(grids)[None]
    return State(I=np.zeros(grids.radiation_shape()), rho=rho, u=u0)


def _beam_absorption(grids: Grids, p: dict) -> State:
    """A single-ordinate pulse on a uniform positive background; meant to be
    paired with a pure-absorption coefficient model."""
    grid = grids.spatial
    rho_bar = _rho_bar(grids, p)
    if rho_bar <= 0:
        raise ConfigError("beam-absorption needs a positive background density")
    state = _zero_state(grids, np.full(grid.extents, rho_bar))
    m_star = int(np.argmax(grids.ang.ordinates[:, 0]))
    L = max(grid.lengths)
    profile = np.exp(-((grid.coords()[0] - p["center"] * L) / (p["width"] * L)) ** 2)
    state.I[0, m_star] = np.broadcast_to(p["intensity"] * profile, grid.extents)
    return state


def _custom(grids: Grids, p: dict) -> State:
    """Explicit initial data assembled from profile parameters."""
    kind = p["rho0"]
    if kind == "constant":
        value = _rho_bar(grids, p) if p["rho0_value"] is None else p["rho0_value"]
        rho = np.full(grids.spatial.extents, float(value))
    elif kind == "bump":
        rho = _smooth_bump(grids, p).rho
    elif kind == "well":
        rho = _plateau_density(grids, p)
    else:
        raise ConfigError(f"unknown rho0 profile {kind!r}")
    state = _zero_state(grids, rho)
    if p["u0"] == "sine":
        state.u[0] = _sine_velocity(grids, p["u0_amplitude"])[0]
    if p["I0"] == "uniform":
        state.I[:] = p["I0_value"]
    return state


_PLATEAU = {"vacuum_radius": 0.1, "transition_width": 0.15}

_BUILTINS = [
    Scenario("equilibrium", "constant background at rest; exact fixed point",
             _equilibrium),
    Scenario("smooth-bump", "positive Gaussian density bump",
             _smooth_bump, {"amplitude": 0.3, "width": 0.12}),
    Scenario("vacuum-plateau", "interior vacuum set with smooth transition",
             _vacuum_plateau, _PLATEAU),
    Scenario("vacuum-farfield", "compact density bump over vanishing background",
             _vacuum_farfield, {"amplitude": 1.0, "width": 0.25}),
    Scenario("compat-satisfied", "initial force imbalance factored through sqrt(rho0)",
             _compat_satisfied, {**_PLATEAU, "u_amplitude": 0.5}),
    Scenario("compat-diverging", "viscous force active on the vacuum boundary",
             _compat_diverging, {**_PLATEAU, "u_amplitude": 1.0}),
    Scenario("beam-absorption", "single-ordinate pulse for transport benchmarks",
             _beam_absorption, {"width": 0.08, "center": 0.3, "intensity": 1.0}),
    Scenario("custom", "explicit initial-data profiles from parameters", _custom,
             {"rho0": "constant", "rho0_value": None, "amplitude": 0.3, "width": 0.12,
              **_PLATEAU, "u0": "zero", "u0_amplitude": 0.1, "I0": "zero",
              "I0_value": 1.0}),
]


def builtin_scenarios() -> dict:
    """Name -> Scenario map of the shipped presets."""
    return {s.name: s for s in _BUILTINS}
