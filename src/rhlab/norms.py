"""Discrete Lebesgue, Sobolev and mixed radiation norms.

Intersection norms follow the sum convention: ||f||_{X1 cap X2} is the sum of
the two norms.  All norms are instantaneous; monitors that need sup-in-time
quantities take running suprema over snapshots themselves.

The Lp sums take |f|^2 as ``np.square`` (bit for bit ``** 2.0``) and
|f|^4, the q of ``NormSettings()`` and of every benchmark workload, as two
squarings; other exponents, such as the Picard metric's 3/2, keep
``**``.  ``** 4.0`` is libm ``pow`` per element, about 4.3 ns against
0.4 ns for a square.  (x^2)^2 lies within 2 ulp of x ** 4.0 on every
finite double, subnormals included, and one is infinite exactly when the
other is (both overflow from x = finfo.max ** 0.25 = 2^256 up), so an L4
norm moves by a few ulp at most.

The private ``*_cells`` reducers keep any leading axes, so the Phi/Theta
monitor and the Picard metric evaluate a whole chunk of stacked snapshots
per call, and every entry is bit-identical to the norm of its own slice.
``snapshot_chunks`` sizes those chunks by ``CHUNK_BYTES``, a budget for the
stacked radiation field of one chunk.  The 1D benchmark workloads take 8
(w1: 4 bands x 8 ordinates x 128 cells, 32 KiB per snapshot) and 4 (w4,
256 cells) snapshots per chunk; w2's 2D field (229 KiB) fills the budget
alone, and any field over half the budget makes a chunk of one snapshot.
Every stack is scratch: it is overwritten in place and released as soon as
its norms are taken, so a chunk holds only a few radiation-sized arrays at
a time.  Measured on a
2-vCPU Xeon with one BLAS thread (ten alternating 8 s benchmark runs per
side), 256 KiB took w1's run time from 0.200 to 0.149 s and w4's from 0.218
to 0.187 s, for +0.17 MB peak RSS on w1 and -0.17 MB on w4.  In single
in-process measurements, 128 KiB kept w1's peak RSS at the one-snapshot
level but left w4's metric (two snapshots per chunk) about as slow as one
pair at a time: 17.4 ms per run against 17.8 ms, and 13.8 ms at 256 KiB.
"""

from __future__ import annotations

import numpy as np

from ._records import Value
from .errors import ParameterError, raise_first_failure
from .grid import (Grids, SpatialGrid, check_cells, check_radiation, gradient,
                   phase_weights, second_difference)

Array = np.ndarray

SOBOLEV_KINDS = ("H1", "W1q", "H1W1q", "D1", "D2")
MIXED_INNER_KINDS = ("L2", "Lq", "H1", "W1q", "H1W1q")

# radiation-field bytes stacked per chunk of snapshots (module docstring)
CHUNK_BYTES = 256 * 1024


class NormSettings(Value):
    """Lebesgue exponent q in (3, 6]."""

    __slots__ = ("q",)

    def __init__(self, q: float = 4.0):
        self._set(q=q)
        raise_first_failure(self.checks(q))

    @staticmethod
    def checks(q: float) -> list:
        """(field, failed, message) rows of the constructor's constraints."""
        return [("q", not 3.0 < q <= 6.0, f"q must lie in (3, 6], got {q}")]


def _magnitude(f: Array, grid: SpatialGrid, lead: int = 0,
               overwrite: bool = False) -> Array:
    """Pointwise Euclidean magnitude over the component axes that sit between
    the first ``lead`` axes and the trailing ``grid.dim`` cell axes.  With
    ``overwrite`` the float array ``f`` is scratch and may be clobbered."""
    f = check_cells(f, grid)
    scratch = f if overwrite else None
    if f.ndim == lead + grid.dim:
        return np.abs(f, out=scratch)
    comps = f.reshape(f.shape[:lead] + (-1,) + grid.extents)
    sq = np.sum(np.multiply(comps, comps, out=comps if overwrite else None), axis=lead)
    return np.sqrt(sq, out=sq)


def _lp_multi(f: Array, ps: tuple, grid: SpatialGrid, lead: int = 0,
              overwrite: bool = False) -> tuple:
    """Lp norms over the cells, one array of shape ``f.shape[:lead]`` per
    exponent in ``ps``, from one pointwise magnitude (the last power is
    taken in place).  p = 2 and p = 4 are taken by one and two squarings;
    other exponents by ``**``.  Each final 1/p power is a Python float power,
    so every entry equals the whole-field norm of its slice.  ``overwrite``
    as in ``_magnitude``."""
    mag = _magnitude(f, grid, lead, overwrite)
    del f                   # a scratch input passed inline is released here
    cells = tuple(range(lead, mag.ndim))
    out = []
    for k, p in enumerate(ps):
        if p == np.inf:
            out.append(np.max(mag, axis=cells))
            continue
        if p < 1:
            raise ParameterError(f"Lebesgue exponent must be >= 1 or inf, got {p}")
        last = k == len(ps) - 1
        if p == 2:
            # bit for bit mag ** 2.0, without numpy's general power loop
            powered = np.square(mag, out=mag if last else None)
        elif p == 4:
            # (mag^2)^2, within 2 ulp of mag ** 4.0 (module docstring)
            powered = np.square(mag, out=mag if last else None)
            np.square(powered, out=powered)
        elif last:
            mag **= p                   # the same power as mag ** p, in place
            powered = mag
        else:
            powered = mag ** p
        sums = np.sum(powered, axis=cells) * grid.cell_volume
        root = 1.0 / p
        out.append(np.array([s ** root for s in sums.ravel().tolist()]).reshape(sums.shape))
    return tuple(out)


def _lp_cells(f: Array, p: float, grid: SpatialGrid, lead: int = 0,
              overwrite: bool = False) -> Array:
    """Lp norm over the cells for every index of the first ``lead`` axes."""
    return _lp_multi(f, (p,), grid, lead, overwrite)[0]


def lp_norm(f: Array, p: float, grid: SpatialGrid) -> float:
    """(sum |f|^p * vol)^(1/p); max |f| for p = inf.  Vector fields use the
    pointwise Euclidean magnitude."""
    return float(_lp_cells(f, p, grid))


def _component_gradients(f: Array, grid: SpatialGrid, lead: int = 0) -> Array:
    """Centered gradients of every component, stacked on one axis after the
    first ``lead`` axes."""
    return gradient(f, grid).reshape(np.shape(f)[:lead] + (-1,) + grid.extents)


def _hessian_stack(f: Array, grid: SpatialGrid, lead: int = 0) -> Array:
    """All second differences D_a D_b per component, stacked on one axis
    after the first ``lead`` axes: compact 3-point on the diagonal, composed
    centered differences off the diagonal."""
    f = np.asarray(f, dtype=float)
    comps = f.reshape(f.shape[:lead] + (-1,) + grid.extents)
    diag = [second_difference(comps, grid, a) for a in range(grid.dim)]
    if grid.dim > 1:
        mixed = gradient(gradient(comps, grid), grid)   # [..., k, a, b] = D_b D_a f_k
    rows = []
    for k in range(comps.shape[lead]):
        for a in range(grid.dim):
            rows.append(diag[a][(Ellipsis, k) + (slice(None),) * grid.dim])
            # each symmetric pair counts twice in |grad^2 f|^2
            rows += [mixed[(Ellipsis, k, a, b) + (slice(None),) * grid.dim]
                     for b in range(a + 1, grid.dim) for _ in (0, 1)]
    return np.stack(rows, axis=lead)


def _sobolev_cells(g: Array, kind: str, settings: NormSettings, grid: SpatialGrid,
                   lead: int = 0, overwrite: bool = False) -> Array:
    """Norm of the kind (Sobolev or L2, Lq) of every slice of the first
    ``lead`` axes; see ``sobolev_norm``.  Each magnitude is formed once;
    ``overwrite`` as in ``_magnitude``."""
    if kind in ("L2", "Lq"):
        return _lp_cells(g, 2.0 if kind == "L2" else settings.q, grid, lead, overwrite)
    if kind == "D2":
        return _lp_cells(_hessian_stack(g, grid, lead), 2.0, grid, lead, overwrite=True)
    if kind == "D1":
        return _lp_cells(_component_gradients(g, grid, lead), 2.0, grid, lead, overwrite=True)
    ps = {"H1": (2.0,), "W1q": (settings.q,), "H1W1q": (2.0, settings.q)}[kind]
    der = _lp_multi(_component_gradients(g, grid, lead), ps, grid, lead, overwrite=True)
    own = _lp_multi(g, ps, grid, lead, overwrite)
    norms = [a + b for a, b in zip(own, der)]
    return norms[0] if len(norms) == 1 else norms[0] + norms[1]   # H1W1q: sum of the two


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


def _phase_l2(vals: Array, grids: Grids) -> Array:
    """(sum_b sum_m w_b w_m vals[..., b, m]^2)^(1/2): the phase-space L2 sum
    over the last two axes of per-(band, ordinate) inner norms, one value
    per index of the axes before them."""
    terms = phase_weights(grids.freq, grids.ang) * vals * vals
    # cumsum adds left to right; np.sum adds pairwise and would move the last bit
    return np.sqrt(np.cumsum(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)[..., -1])


def mixed_radiation_norm(I: Array, inner: str, grids: Grids,
                         settings: NormSettings) -> float:
    """L2 over phase space of a spatial inner norm:
    (sum_b sum_m w_b w_m ||I[b, m]||_inner^2)^(1/2), with all B x M inner
    norms from one batched evaluation."""
    if inner not in MIXED_INNER_KINDS:
        raise ParameterError(f"unknown inner norm {inner!r}")
    vals = _sobolev_cells(check_radiation(I, grids), inner, settings, grids.spatial, lead=2)
    return float(_phase_l2(vals, grids))


def snapshot_chunks(count: int, snapshot_bytes: int) -> list:
    """[start, stop) bounds of consecutive chunks of ``count`` snapshots:
    as many per chunk as fit ``CHUNK_BYTES`` of radiation field at
    ``snapshot_bytes`` each, and at least one."""
    size = max(1, CHUNK_BYTES // snapshot_bytes)
    return [(s, min(s + size, count)) for s in range(0, count, size)]


def _differences(prev: list, nxt: list, steps: list | None = None) -> Array:
    """Rows nxt[j] - prev[j] in one preallocated stack, each divided by
    ``steps[j]`` when steps are given; a row whose ``prev`` is None is
    zero."""
    out = np.empty((len(nxt),) + np.shape(nxt[0]))
    for j, (row, a, b) in enumerate(zip(out, prev, nxt)):
        if a is None:
            row[...] = 0.0
            continue
        np.subtract(b, a, out=row)
        if steps is not None:
            row /= steps[j]
    return out
