"""Discrete Lebesgue, Sobolev and mixed radiation norms.

Intersection norms follow the sum convention: ||f||_{X1 cap X2} is the sum of
the two norms.  All norms are instantaneous; monitors that need sup-in-time
quantities take running suprema over snapshots themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import (Grids, SpatialGrid, check_cells, check_radiation, gradient,
                   phase_weights, second_difference)

Array = np.ndarray

SOBOLEV_KINDS = ("H1", "W1q", "H1W1q", "D1", "D2")
MIXED_INNER_KINDS = ("L2", "Lq", "H1", "W1q", "H1W1q")


@dataclass(frozen=True)
class NormSettings:
    """Lebesgue exponent q in (3, 6] and the reference state subtracted from
    density/pressure before norming."""

    q: float = 4.0
    rho_ref: float = 0.0
    p_ref: float = 0.0

    def __post_init__(self):
        if not 3.0 < self.q <= 6.0:
            raise ParameterError(f"q must lie in (3, 6], got {self.q}")
        if self.rho_ref < 0:
            raise ParameterError("reference density must be >= 0")


def _magnitude(f: Array, grid: SpatialGrid, lead: int = 0) -> Array:
    """Pointwise Euclidean magnitude over the component axes that sit between
    the first ``lead`` axes and the trailing ``grid.dim`` cell axes."""
    f = check_cells(f, grid)
    if f.ndim == lead + grid.dim:
        return np.abs(f)
    comps = f.reshape(f.shape[:lead] + (-1,) + grid.extents)
    return np.sqrt(np.sum(comps * comps, axis=lead))


def _lp_cells(f: Array, p: float, grid: SpatialGrid, lead: int = 0) -> Array:
    """Lp norm over the cells for every index of the first ``lead`` axes:
    an array of shape ``f.shape[:lead]``.  Each final 1/p power is a Python
    float power, so every entry equals the whole-field norm of its slice."""
    mag = _magnitude(f, grid, lead)
    cells = tuple(range(lead, mag.ndim))
    if p == np.inf:
        return np.max(mag, axis=cells)
    if p < 1:
        raise ParameterError(f"Lebesgue exponent must be >= 1 or inf, got {p}")
    sums = np.sum(mag ** p, axis=cells) * grid.cell_volume
    return np.array([float(s) ** (1.0 / p) for s in sums.flat]).reshape(sums.shape)


def lp_norm(f: Array, p: float, grid: SpatialGrid) -> float:
    """(sum |f|^p * vol)^(1/p); max |f| for p = inf.  Vector fields use the
    pointwise Euclidean magnitude."""
    return float(_lp_cells(f, p, grid))


def _component_gradients(f: Array, grid: SpatialGrid, lead: int = 0) -> Array:
    """Centered gradients of every component, stacked on one axis after the
    first ``lead`` axes."""
    return gradient(f, grid).reshape(np.shape(f)[:lead] + (-1,) + grid.extents)


def _hessian_stack(f: Array, grid: SpatialGrid) -> Array:
    """All second differences D_a D_b per component: compact 3-point on the
    diagonal, composed centered differences off the diagonal."""
    comps = np.asarray(f, dtype=float).reshape((-1,) + grid.extents)
    mixed = gradient(gradient(comps, grid), grid)     # [k, a, b] = D_b D_a f_k
    rows = []
    for k, c in enumerate(comps):
        for a in range(grid.dim):
            rows.append(second_difference(c, grid, a))
            # each symmetric pair counts twice in |grad^2 f|^2
            rows += [mixed[k, a, b] for b in range(a + 1, grid.dim) for _ in (0, 1)]
    return np.stack(rows)


def _sobolev_cells(g: Array, kind: str, settings: NormSettings, grid: SpatialGrid,
                   lead: int = 0) -> Array:
    """Norm of the kind (Sobolev or L2, Lq) of every slice of the first
    ``lead`` axes; see ``sobolev_norm``.  D2 takes a single field."""
    if kind in ("L2", "Lq"):
        return _lp_cells(g, 2.0 if kind == "L2" else settings.q, grid, lead)
    if kind == "D2":
        return _lp_cells(_hessian_stack(g, grid), 2.0, grid)
    grad = _component_gradients(g, grid, lead)
    if kind == "D1":
        return _lp_cells(grad, 2.0, grid, lead)
    h1 = _lp_cells(g, 2.0, grid, lead) + _lp_cells(grad, 2.0, grid, lead)
    if kind == "H1":
        return h1
    w1q = _lp_cells(g, settings.q, grid, lead) + _lp_cells(grad, settings.q, grid, lead)
    if kind == "W1q":
        return w1q
    return h1 + w1q   # H1W1q: sum of the two norms


def sobolev_norm(f: Array, kind: str, settings: NormSettings, grid: SpatialGrid,
                 reference: float = 0.0) -> float:
    """Discrete Sobolev (semi)norms built from Lp norms and the centered gradient.

    ``reference`` is subtracted before norming (density/pressure fields pass
    the background state here); the shifted field is assumed to decay to zero,
    so far-field ghosts pad with 0.
    """
    if kind not in SOBOLEV_KINDS:
        raise ParameterError(f"unknown Sobolev kind {kind!r}")
    return float(_sobolev_cells(np.asarray(f, dtype=float) - reference, kind, settings, grid))


def d2q_seminorm(f: Array, settings: NormSettings, grid: SpatialGrid) -> float:
    """L^q norm of the second-difference stack (the D^{2,q} seminorm)."""
    return lp_norm(_hessian_stack(f, grid), settings.q, grid)


def mixed_radiation_norm(I: Array, inner: str, grids: Grids,
                         settings: NormSettings) -> float:
    """L2 over phase space of a spatial inner norm:
    (sum_b sum_m w_b w_m ||I[b, m]||_inner^2)^(1/2), with all B x M inner
    norms from one batched evaluation."""
    if inner not in MIXED_INNER_KINDS:
        raise ParameterError(f"unknown inner norm {inner!r}")
    vals = _sobolev_cells(check_radiation(I, grids), inner, settings, grids.spatial, lead=2)
    terms = phase_weights(grids.freq, grids.ang) * vals * vals
    # cumsum adds left to right; np.sum adds pairwise and would move the last bit
    return float(np.sqrt(np.cumsum(terms.ravel())[-1]))
