"""Discretization substrate: Cartesian grids, angular ordinate sets, frequency
bands, and the discrete differential/integral operators shared by all solvers.

Fields are plain float64 numpy arrays:

* scalar field  -- shape ``grid.extents``
* vector field  -- shape ``(k,) + grid.extents`` with ``k`` components
* radiation field -- shape ``(n_bands, n_ordinates) + grid.extents``

``pad_ghost``, ``gradient``, ``divergence`` and ``second_difference`` act on
the trailing ``grid.dim`` axes and carry any leading axes through: one call
covers a whole radiation field or a whole velocity history.

Operations are pure functions of their inputs.  All reductions go through
numpy with a fixed summation order, so repeated evaluation is bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from ._records import Frozen, Value
from .errors import ParameterError, ShapeError, StepSizeError, raise_first_failure

Array = np.ndarray

FOUR_PI = 4.0 * np.pi


# ---------------------------------------------------------------------------
# spatial grid
# ---------------------------------------------------------------------------

class SpatialGrid(Value):
    """Uniform Cartesian cell-centered grid on ``[0, L_a)`` per axis, with
    the background density ``rho_bar`` >= 0.

    ``boundary`` is ``"periodic"`` or ``"farfield"``.  Far-field grids pad
    ghost cells with the constant state (``rho_bar``, u = 0, I = 0),
    mirroring decay of the solution toward the background at infinity, and
    must be given ``rho_bar``; periodic ghosts wrap, and ``rho_bar``
    (default 1) is only the reference density of Phi.
    """

    __slots__ = ("extents", "spacing", "boundary", "rho_bar")

    def __init__(self, extents: tuple, spacing: tuple, boundary: str = "periodic",
                 rho_bar: float | None = None):
        if rho_bar is None:
            if boundary == "farfield":
                raise ParameterError("farfield boundary requires rho_bar")
            rho_bar = 1.0
        self._set(extents=extents, spacing=spacing, boundary=boundary, rho_bar=rho_bar)
        raise_first_failure(self.checks(*self._fields()))

    @staticmethod
    def checks(extents, spacing, boundary, rho_bar) -> list:
        """(field, failed, message) rows of the constructor's constraints."""
        return [
            ("extents", not 1 <= len(extents) <= 3,
             f"grid dimension must be 1, 2 or 3, got {len(extents)}"),
            ("spacing", len(spacing) != len(extents),
             "spacing and extents must have the same length"),
            ("extents", any(n < 4 for n in extents),
             f"need at least 4 cells per axis, got {extents}"),
            ("spacing", any(not 0 < h < math.inf for h in spacing),
             f"spacing must be positive and finite, got {spacing}"),
            ("boundary", boundary not in ("periodic", "farfield"),
             f"boundary must be periodic or farfield, got {boundary!r}"),
            ("rho_bar", not 0 <= rho_bar < math.inf,
             f"background density must be >= 0 and finite, got {rho_bar}"),
        ]

    @classmethod
    def periodic(cls, cells, lengths, rho_bar: float = 1.0) -> "SpatialGrid":
        cells = tuple(int(n) for n in np.atleast_1d(cells))
        lengths = tuple(float(x) for x in np.atleast_1d(lengths))
        return cls(cells, tuple(L / n for L, n in zip(lengths, cells)), "periodic",
                   float(rho_bar))

    @classmethod
    def farfield(cls, cells, lengths, rho_bar: float) -> "SpatialGrid":
        cells = tuple(int(n) for n in np.atleast_1d(cells))
        lengths = tuple(float(x) for x in np.atleast_1d(lengths))
        return cls(cells, tuple(L / n for L, n in zip(lengths, cells)),
                   "farfield", float(rho_bar))

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def cell_volume(self) -> float:
        # math.prod multiplies left to right, as np.prod does, at a tenth of the cost
        return float(math.prod(self.spacing))

    @property
    def lengths(self) -> tuple[float, ...]:
        return tuple(n * h for n, h in zip(self.extents, self.spacing))

    def axis_coords(self, axis: int) -> Array:
        """Cell-center coordinates along one axis."""
        return (np.arange(self.extents[axis]) + 0.5) * self.spacing[axis]

    def coords(self) -> tuple[Array, ...]:
        """Broadcastable cell-center coordinate arrays (sparse meshgrid)."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    def center(self) -> Array:
        return np.array([0.5 * L for L in self.lengths])

    def radius_from_center(self) -> Array:
        """Distance of every cell center from the domain center."""
        c = self.center()
        r2 = np.zeros(self.extents)
        for a, x in enumerate(self.coords()):
            r2 = r2 + (x - c[a]) ** 2
        return np.sqrt(r2)


# ---------------------------------------------------------------------------
# angular quadrature
# ---------------------------------------------------------------------------

class AngularQuadrature(Frozen):
    """Discrete-ordinates set on the unit sphere.

    In 3D mode ``ordinates`` has shape (M, 3) and holds unit vectors.  In slab
    mode (1D reduction) it has shape (M, 1) and holds the direction cosines
    mu = Omega . e1 of implicit unit directions; the azimuthal variable is
    integrated out and the surface measure is 2 instead of 4*pi.
    """

    __slots__ = ("ordinates", "weights", "measure", "slab")

    def __init__(self, ordinates: Array, weights: Array, measure: float, slab: bool = False):
        self._set(ordinates=np.asarray(ordinates, dtype=float),
                  weights=np.asarray(weights, dtype=float), measure=measure, slab=slab)
        if self.ordinates.ndim != 2 or self.ordinates.shape[0] != self.weights.shape[0]:
            raise ShapeError("ordinates must be (M, k) with matching weights (M,)")
        if np.any(self.weights <= 0):
            raise ParameterError("quadrature weights must be positive")
        if self.slab:
            if self.ordinates.shape[1] != 1:
                raise ShapeError("slab ordinates store a single direction cosine")
            if np.any(np.abs(self.ordinates) > 1 + 1e-12):
                raise ParameterError("slab direction cosines must satisfy |mu| <= 1")
        else:
            norms = np.linalg.norm(self.ordinates, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-12):
                raise ParameterError("ordinates must be unit vectors (|Omega| = 1)")
        if abs(float(self.weights.sum()) - self.measure) > 1e-10:
            raise ParameterError("quadrature weights must sum to the sphere measure")
        first_moment = self.weights @ self.ordinates
        if np.any(np.abs(first_moment) > 1e-10):
            raise ParameterError("ordinate set must be symmetric (sum w * Omega = 0)")

    @property
    def n_ordinates(self) -> int:
        return self.ordinates.shape[0]

    @classmethod
    def gauss_legendre_slab(cls, n: int) -> "AngularQuadrature":
        """Gauss-Legendre nodes in mu on (-1, 1); weights sum to 2.  Computed
        by ``_leggauss``, so ``numpy.polynomial`` is never imported."""
        raise_first_failure(cls.gauss_legendre_checks(n))
        nodes, weights = _leggauss(int(n))
        return cls(nodes[:, None], weights, 2.0, slab=True)

    @staticmethod
    def gauss_legendre_checks(n: int) -> list:
        """(field, failed, message) rows of ``gauss_legendre_slab``."""
        return [("n", n < 2, "slab quadrature needs at least 2 ordinates")]

    @classmethod
    def beams_slab(cls) -> "AngularQuadrature":
        """Two grazing beams mu = -1, +1.  Exact for pure-streaming tests;
        does not satisfy the second-moment identity of the default sets."""
        return cls(np.array([[-1.0], [1.0]]), np.array([1.0, 1.0]), 2.0, slab=True)

    @classmethod
    def corners3d(cls) -> "AngularQuadrature":
        """Level-symmetric 8-point set: cube corners (+-1,+-1,+-1)/sqrt(3)."""
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                         dtype=float)
        return cls(signs / np.sqrt(3.0), np.full(8, FOUR_PI / 8.0), FOUR_PI)

    @classmethod
    def axes3d(cls) -> "AngularQuadrature":
        """6-point set along the coordinate axes."""
        eye = np.eye(3)
        ords = np.vstack([eye, -eye])
        return cls(ords, np.full(6, FOUR_PI / 6.0), FOUR_PI)

    @classmethod
    def combined14(cls) -> "AngularQuadrature":
        """14-point axes+corners set, exact through fourth angular moments."""
        axes = cls.axes3d()
        corners = cls.corners3d()
        ords = np.vstack([axes.ordinates, corners.ordinates])
        w = np.concatenate([np.full(6, FOUR_PI / 15.0), np.full(8, 3.0 * np.pi / 10.0)])
        return cls(ords, w, FOUR_PI)


def _legval(x: Array, c: Array) -> Array:
    """The Legendre series with coefficients c (at least two) at x, by
    Clenshaw's recurrence as ``numpy.polynomial.legendre.legval`` runs it."""
    nd, c0, c1 = len(c), c[-2], c[-1]
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _legder(c: Array) -> Array:
    """Coefficients of the derivative of the Legendre series c, as
    ``numpy.polynomial.legendre.legder`` computes them."""
    c = c.copy()
    n = len(c) - 1
    der = np.empty(n)
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j - 1) * c[j]
        c[j - 2] += c[j]
    if n > 1:
        der[1] = 3 * c[2]
    der[0] = c[1]
    return der


def _leggauss(n: int) -> tuple[Array, Array]:
    """Gauss-Legendre nodes and weights on (-1, 1) for n >= 2, bit for bit
    those of ``numpy.polynomial.legendre.leggauss``, whose import would cost
    3-14 ms of set-up.  Its steps: eigenvalues of the symmetric scaled
    companion matrix of L_n, one Newton step, then weights from L_n' and
    L_{n-1}, symmetrized and scaled to sum to 2."""
    c = np.zeros(n + 1)
    c[-1] = 1.0
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    companion = np.zeros((n, n))
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    companion.reshape(-1)[1::n + 1] = off
    companion.reshape(-1)[n::n + 1] = off
    x = np.linalg.eigvalsh(companion)
    dy = _legval(x, c)
    df = _legval(x, _legder(c))
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


# ---------------------------------------------------------------------------
# frequency bands
# ---------------------------------------------------------------------------

class FrequencyGrid(Frozen):
    """Finite band truncation of the photon frequency half-line.

    Band b covers [edges[b], edges[b+1]); the midpoint rule assigns
    weight_b = edges[b+1] - edges[b] and center_b = (edges[b]+edges[b+1])/2.
    """

    __slots__ = ("band_edges", "band_weights", "band_centers")

    def __init__(self, band_edges: Array, band_weights: Array, band_centers: Array):
        self._set(band_edges=np.asarray(band_edges, dtype=float),
                  band_weights=np.asarray(band_weights, dtype=float),
                  band_centers=np.asarray(band_centers, dtype=float))
        raise_first_failure(self.checks(self.band_edges, self.band_weights))

    @staticmethod
    def checks(band_edges, band_weights) -> list:
        """(field, failed, message) rows of the constructor's constraints; the
        weight rows are checked once the edges pass."""
        e, w = np.asarray(band_edges, dtype=float), np.asarray(band_weights, dtype=float)
        listed = e.ndim == 1 and e.size >= 2
        edges_ok = listed and 0 < e[0] and e[-1] < math.inf and bool(np.all(np.diff(e) > 0))
        return [
            ("band_edges", not listed, "need at least two band edges"),
            ("band_edges", listed and not edges_ok,
             "band edges must be positive, finite and strictly increasing"),
            ("band_weights", edges_ok and bool(np.any(w <= 0)),
             "band weights must be positive"),
            ("band_weights", edges_ok and not np.allclose(w, np.diff(e), rtol=0,
                                                          atol=1e-12 * e[-1]),
             "band weights must match edge differences (midpoint rule)"),
        ]

    @classmethod
    def from_edges(cls, edges) -> "FrequencyGrid":
        e = np.asarray(edges, dtype=float)
        return cls(e, np.diff(e), 0.5 * (e[:-1] + e[1:]))

    @property
    def n_bands(self) -> int:
        return self.band_weights.size


class Grids(Frozen):
    """Bundle of the three quadratures a phase-space operation needs."""

    __slots__ = ("spatial", "freq", "ang")

    def __init__(self, spatial: SpatialGrid, freq: FrequencyGrid, ang: AngularQuadrature):
        self._set(spatial=spatial, freq=freq, ang=ang)
        if ang.slab and spatial.dim != 1:
            raise ShapeError("slab angular quadrature requires a 1D spatial grid")

    def radiation_shape(self) -> tuple[int, ...]:
        return (self.freq.n_bands, self.ang.n_ordinates) + self.spatial.extents


# ---------------------------------------------------------------------------
# shape checks and ghost padding
# ---------------------------------------------------------------------------

def check_scalar(f: Array, grid: SpatialGrid) -> Array:
    f = np.asarray(f, dtype=float)
    if f.shape != grid.extents:
        raise ShapeError(f"scalar field shape {f.shape} != grid extents {grid.extents}")
    return f


def check_step(dt: float, what: str) -> None:
    """A step of size dt must be positive and finite (NaN fails too);
    StepSizeError names the step that ``what`` is."""
    if not 0.0 < dt < math.inf:
        raise StepSizeError(f"{what} step must be positive and finite, got dt={dt}")


def check_vector(u: Array, grid: SpatialGrid) -> Array:
    u = np.asarray(u, dtype=float)
    if u.ndim != grid.dim + 1 or u.shape[1:] != grid.extents:
        raise ShapeError(f"vector field shape {u.shape} incompatible with grid {grid.extents}")
    return u


def check_radiation(I: Array, grids: Grids) -> Array:
    I = np.asarray(I, dtype=float)
    if I.shape != grids.radiation_shape():
        raise ShapeError(f"radiation field shape {I.shape} != {grids.radiation_shape()}")
    return I


def check_cells(f: Array, grid: SpatialGrid) -> Array:
    """``f`` as a float array whose trailing ``grid.dim`` axes are the cells."""
    f = np.asarray(f, dtype=float)
    if f.shape[f.ndim - grid.dim:] != grid.extents:
        raise ShapeError(f"field shape {f.shape} incompatible with grid {grid.extents}")
    return f


def pad_ghost(f: Array, grid: SpatialGrid, farfield_value: float = 0.0) -> Array:
    """Add one ghost layer per spatial axis (trailing ``grid.dim`` axes).

    Periodic grids wrap; far-field grids pad with the given constant.  The
    values, corners included, and the memory order are those of ``np.pad``.
    """
    f = np.asarray(f)
    lead = f.ndim - grid.dim
    fp = np.empty(f.shape[:lead] + tuple(n + 2 for n in f.shape[lead:]), f.dtype,
                  order="F" if f.flags.fnc else "C")
    fp[(Ellipsis,) + (slice(1, -1),) * grid.dim] = f
    _fill_ghosts(fp, grid, farfield_value)
    return fp


def _fill_ghosts(fp: Array, grid: SpatialGrid, farfield_value: float = 0.0) -> None:
    """Set the ghost layers of a once-padded array in place, axis by axis:
    periodic axes copy the opposite interior layer, far-field axes get the
    constant.  Each axis's layers span the whole padded extent of the others."""
    lead = fp.ndim - grid.dim
    for a in range(grid.dim):
        before = (slice(None),) * (lead + a)
        m = fp.shape[lead + a] - 2
        for ghost, source in ((0, m), (m + 1, 1)):
            if grid.boundary == "periodic":
                fp[before + (ghost,)] = fp[before + (source,)]
            else:
                fp[before + (ghost,)] = farfield_value


def _view(fp: Array, dim: int, axis: int, off: int) -> Array:
    """Interior view of a once-padded array, shifted by ``off`` along ``axis``."""
    lead = fp.ndim - dim
    sl = [slice(None)] * lead + [slice(1, -1)] * dim
    sl[lead + axis] = {1: slice(2, None), -1: slice(0, -2), 0: slice(1, -1)}[off]
    return fp[tuple(sl)]


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------

def gradient(f: Array, grid: SpatialGrid, farfield_value: float = 0.0) -> Array:
    """Second-order centered gradient; ghost cells by the boundary rule.

    A field of shape ``lead + grid.extents`` (any leading axes) gives shape
    ``lead + (grid.dim,) + grid.extents``.  Exact for affine fields away from
    boundary influence.
    """
    f = check_cells(f, grid)
    fp = pad_ghost(f, grid, farfield_value)
    out = np.empty(f.shape[:f.ndim - grid.dim] + (grid.dim,) + grid.extents)
    for a in range(grid.dim):
        row = out[(Ellipsis, a) + (slice(None),) * grid.dim]
        np.subtract(_view(fp, grid.dim, a, +1), _view(fp, grid.dim, a, -1), out=row)
        row /= 2.0 * grid.spacing[a]
    return out


def divergence(u: Array, grid: SpatialGrid, farfield_value: float = 0.0) -> Array:
    """Centered divergence of a vector field (componentwise trace of the gradient).

    A field of shape ``lead + (grid.dim,) + grid.extents`` (any leading axes)
    gives shape ``lead + grid.extents``.
    """
    u = check_cells(u, grid)
    if u.ndim == grid.dim or u.shape[-grid.dim - 1] != grid.dim:
        raise ShapeError(f"vector field shape {u.shape} incompatible with grid {grid.extents}")
    fp = pad_ghost(u, grid, farfield_value)
    out = np.zeros(u.shape[:-grid.dim - 1] + grid.extents)
    for a in range(grid.dim):
        fa = fp[(Ellipsis, a) + (slice(None),) * grid.dim]
        out += (_view(fa, grid.dim, a, +1) - _view(fa, grid.dim, a, -1)) / (2.0 * grid.spacing[a])
    return out


def second_difference(f: Array, grid: SpatialGrid, axis: int,
                      farfield_value: float = 0.0) -> Array:
    """Compact 3-point second difference along one axis; leading axes are
    carried through."""
    f = check_cells(f, grid)
    fp = pad_ghost(f, grid, farfield_value)
    h = grid.spacing[axis]
    return (_view(fp, grid.dim, axis, +1) - 2.0 * _view(fp, grid.dim, axis, 0)
            + _view(fp, grid.dim, axis, -1)) / (h * h)


def integrate_space(f: Array, grid: SpatialGrid) -> float:
    """Midpoint-rule integral: sum of cell values times the cell volume."""
    f = check_scalar(f, grid)
    return float(np.sum(f) * grid.cell_volume)


def inner_product(f: Array, g: Array, grid: SpatialGrid) -> float:
    """L2 inner product; leading axes (components) are contracted too."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise ShapeError(f"inner product shape mismatch {f.shape} vs {g.shape}")
    return float(np.sum(f * g) * grid.cell_volume)


def phase_weights(freq: FrequencyGrid, ang: AngularQuadrature) -> Array:
    """Combined (band, ordinate) quadrature weights."""
    return np.multiply.outer(freq.band_weights, ang.weights)


def integrate_radiation(g: Array, freq: FrequencyGrid, ang: AngularQuadrature) -> Array:
    """Reduce the leading (band, ordinate) axes with the phase-space weights.

    ``g`` may carry any trailing shape (cells, or component + cells); the
    result keeps exactly that trailing shape.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[0] != freq.n_bands or g.shape[1] != ang.n_ordinates:
        raise ShapeError(f"expected leading axes ({freq.n_bands}, {ang.n_ordinates}), got {g.shape}")
    return np.tensordot(phase_weights(freq, ang), g, axes=([0, 1], [0, 1]))


# ---------------------------------------------------------------------------
# field snapshot format
# ---------------------------------------------------------------------------
# One stack per file, as a raw float64 ``.npy`` (``np.load`` reads it back
# bit for bit): the leading axis indexes the snapshots, and the trailing axes
# are the grid's extents (a scalar stack) or (dim, *extents) (a vector stack).

def write_field_snapshot(path, stack: Array, grid: SpatialGrid) -> None:
    np.save(path, check_cells(stack, grid), allow_pickle=False)
