"""Built-in initial-data scenarios.

A scenario builds the initial state (I0, rho0, u0) and nothing else: the
emission is the ``[model]``'s, the background density the grid's
``rho_bar``.  Each declares the ``[scenario]`` keys it reads, with their
defaults, and states its constraints on them and on ``rho_bar`` once, as
``(key, failed, message)`` rows.  The presets instantiate the hypotheses
the solver and diagnostics are designed around: a strict-positive
background, interior vacuum sets, a vanishing far-field density, a
constructed compatible / incompatible initial force balance, and a
pure-absorption radiation benchmark.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, raise_first_failure
from .grid import Grids
from .picard import State

Array = np.ndarray


class Scenario(NamedTuple):
    """A named builder ``(grids, params) -> State``, the ``keys`` it reads
    from ``params``, each with its default (a number, a string, or None for
    the background density), and its ``checks``: ``(boundary, rho_bar,
    params) -> [(key, failed, message)]``, where a key is one of ``keys`` or
    ``"rho_bar"``."""

    name: str
    description: str
    builder: Callable
    keys: dict
    checks: Callable

    def build(self, grids: Grids, params: dict | None = None) -> State:
        """The validated initial state on ``grids``; ``params`` overrides the
        declared defaults.  A failing check raises ParameterError."""
        p = {**self.keys, **(params or {})}
        grid = grids.spatial
        raise_first_failure(self.checks(grid.boundary, grid.rho_bar, p))
        state = self.builder(grids, p).validate(grids)
        if grid.boundary == "farfield":
            # generated data must approach (I, rho, u) -> (0, rho_bar, 0) at the edges
            scale = max(float(np.max(state.rho)), grid.rho_bar, 1.0)
            edge = _edge_mask(grid)
            if float(np.max(np.abs(state.rho[edge] - grid.rho_bar))) > 0.05 * scale:
                raise ConfigError(f"scenario density does not approach the far-field "
                                  f"value {grid.rho_bar} near the boundary")
            u_scale = max(float(np.max(np.abs(state.u))), 1e-300)
            if float(np.max(np.abs(state.u[:, edge]))) > 0.05 * u_scale:
                raise ConfigError("scenario velocity must decay toward the far-field boundary")
        return state


def _edge_mask(grid) -> Array:
    """The cells on the faces of the domain."""
    mask = np.ones(grid.extents, dtype=bool)
    mask[(slice(1, -1),) * grid.dim] = False
    return mask


def _positive(p: dict, *keys) -> list:
    return [(key, not p[key] > 0, f"{key} must be positive, got {p[key]}") for key in keys]


def _over_background(*widths) -> Callable:
    """The checks of a density over a positive background, with positive
    ``widths``."""
    return lambda boundary, rho_bar, p: [
        ("rho_bar", not rho_bar > 0,
         f"needs a positive background density, got rho_bar = {rho_bar}"),
        *_positive(p, *widths)]


_BUMP_CHECKS = _over_background("width")
_PLATEAU_CHECKS = _over_background("transition_width")


def _vacuum_farfield_checks(boundary: str, rho_bar: float, p: dict) -> list:
    return [("rho_bar", boundary == "farfield" and rho_bar != 0,
             f"needs a zero far-field density, got rho_bar = {rho_bar}"),
            *_positive(p, "width")]


# custom profile selector -> the values it accepts
_CUSTOM_PROFILES = {"rho0": ("constant", "bump", "well"), "u0": ("zero", "sine"),
                    "I0": ("zero", "uniform")}


def _custom_checks(boundary: str, rho_bar: float, p: dict) -> list:
    """The value of each profile selector, and the checks of the rho0 profile."""
    profile = {"bump": _BUMP_CHECKS, "well": _PLATEAU_CHECKS}.get(p["rho0"], lambda *_: [])
    return [(key, p[key] not in values,
             f"{key} must be {', '.join(values[:-1])} or {values[-1]}, got {p[key]!r}")
            for key, values in _CUSTOM_PROFILES.items()] + profile(boundary, rho_bar, p)


def _zero_state(grids: Grids, rho: Array) -> State:
    return State(I=np.zeros(grids.radiation_shape()), rho=rho,
                 u=np.zeros((grids.spatial.dim,) + grids.spatial.extents))


def _over(x: Array, width: float) -> Array:
    """x / width for a width > 0 that may be tiny: where the ratio overflows
    it is +-inf, and a width that underflowed to 0 (a tiny fraction of a
    short side) gives the same limit, +-inf off x = 0 and x at x = 0."""
    if width == 0.0:
        return np.where(x == 0.0, x, np.copysign(np.inf, x))
    with np.errstate(over="ignore"):
        return x / width


def _smoothstep(t: Array) -> Array:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _plateau_density(grids: Grids, p: dict, exponent: float = 2.0) -> Array:
    """Background rho_bar with an interior vacuum plateau; the transition is
    a power of a smoothstep, so rho vanishes to order 2*exponent at the edge
    of the vacuum set and stays in W^{1,q}.  ``vacuum_radius`` and
    ``transition_width`` are fractions of the shortest side, so the density
    reaches rho_bar before the nearest face."""
    grid = grids.spatial
    L = min(grid.lengths)
    ramp = _smoothstep(_over(grid.radius_from_center() - p["vacuum_radius"] * L,
                             p["transition_width"] * L))
    return grid.rho_bar * ramp ** exponent


def _edge_taper(grids: Grids) -> Array:
    """Smooth factor that is 1 in the bulk and exactly 0 on the face cells:
    it ramps over 0.1 of the domain down to the nearest face-cell center."""
    grid = grids.spatial
    edge = min(0.5 * (L - h) for L, h in zip(grid.lengths, grid.spacing))
    return _smoothstep((edge - grid.radius_from_center()) / (0.1 * max(grid.lengths)))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _equilibrium(grids: Grids, p: dict) -> State:
    return _zero_state(grids, np.full(grids.spatial.extents, grids.spatial.rho_bar))


def _smooth_bump(grids: Grids, p: dict) -> State:
    grid = grids.spatial
    width = p["width"] * max(grid.lengths)
    # (r / width)^2 overflows for a tiny width, where exp(-inf) = 0 is right
    with np.errstate(over="ignore"):
        bump = np.exp(-_over(grid.radius_from_center(), width) ** 2)
    return _zero_state(grids, grid.rho_bar + p["amplitude"] * bump)


def _vacuum_plateau(grids: Grids, p: dict) -> State:
    return _zero_state(grids, _plateau_density(grids, p))


def _vacuum_farfield(grids: Grids, p: dict) -> State:
    grid = grids.spatial
    width = p["width"] * max(grid.lengths)
    # compactly supported C2 bump; (I, rho, u) -> (0, 0, 0) at infinity.
    # (r / width)^2 overflows for a tiny width, where 1 - inf clips to 0
    with np.errstate(over="ignore"):
        s = np.maximum(0.0, 1.0 - _over(grid.radius_from_center(), width) ** 2)
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
    state = _zero_state(grids, np.full(grid.extents, grid.rho_bar))
    m_star = int(np.argmax(grids.ang.ordinates[:, 0]))
    L = max(grid.lengths)
    # the squared offset overflows for a tiny width, where exp(-inf) = 0 is right
    with np.errstate(over="ignore"):
        profile = np.exp(-_over(grid.coords()[0] - p["center"] * L, p["width"] * L) ** 2)
    state.I[0, m_star] = np.broadcast_to(p["intensity"] * profile, grid.extents)
    return state


def _custom(grids: Grids, p: dict) -> State:
    """Explicit initial data assembled from profile parameters."""
    if p["rho0"] == "constant":
        value = grids.spatial.rho_bar if p["rho0_value"] is None else p["rho0_value"]
        rho = np.full(grids.spatial.extents, float(value))
    elif p["rho0"] == "bump":
        rho = _smooth_bump(grids, p).rho
    else:    # "well"
        rho = _plateau_density(grids, p)
    state = _zero_state(grids, rho)
    if p["u0"] == "sine":
        state.u[0] = _sine_velocity(grids, p["u0_amplitude"])[0]
    if p["I0"] == "uniform":
        state.I[:] = p["I0_value"]
    return state


_PLATEAU = {"vacuum_radius": 0.1, "transition_width": 0.15}

_BUILTINS = [
    Scenario("equilibrium", "constant background at rest; exact fixed point",
             _equilibrium, {}, _over_background()),
    Scenario("smooth-bump", "positive Gaussian density bump",
             _smooth_bump, {"amplitude": 0.3, "width": 0.12}, _BUMP_CHECKS),
    Scenario("vacuum-plateau", "interior vacuum set with smooth transition",
             _vacuum_plateau, _PLATEAU, _PLATEAU_CHECKS),
    Scenario("vacuum-farfield", "compact density bump over vanishing background",
             _vacuum_farfield, {"amplitude": 1.0, "width": 0.25}, _vacuum_farfield_checks),
    Scenario("compat-satisfied", "initial force imbalance factored through sqrt(rho0)",
             _compat_satisfied, {**_PLATEAU, "u_amplitude": 0.5}, _PLATEAU_CHECKS),
    Scenario("compat-diverging", "viscous force active on the vacuum boundary",
             _compat_diverging, {**_PLATEAU, "u_amplitude": 1.0}, _PLATEAU_CHECKS),
    Scenario("beam-absorption", "single-ordinate pulse for transport benchmarks",
             _beam_absorption, {"width": 0.08, "center": 0.3, "intensity": 1.0}, _BUMP_CHECKS),
    Scenario("custom", "explicit initial-data profiles from parameters", _custom,
             {"rho0": "constant", "rho0_value": None, "amplitude": 0.3, "width": 0.12,
              **_PLATEAU, "u0": "zero", "u0_amplitude": 0.1, "I0": "zero",
              "I0_value": 1.0}, _custom_checks),
]


def builtin_scenarios() -> dict:
    """Name -> Scenario map of the shipped presets."""
    return {s.name: s for s in _BUILTINS}
