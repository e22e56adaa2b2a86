"""Equations of state, viscosity and light-speed parameters, radiation
coefficient models, and numerical validators for the structural assumptions
the coefficient kernels must satisfy.

Coefficient evaluators are pure callables.  The absorption coefficient
factorizes as sigma_a = sigma * rho; scattering kernels factorize as
sigma_s = sigma_s_bar(v' -> v, Omega'.Omega) * rho and the reverse kernel
sigma_s' = sigma_s_bar_prime(v -> v', Omega.Omega') * rho.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._records import Record, Value
from .errors import ConfigError, DomainError, ParameterError, raise_first_failure
from .grid import (AngularQuadrature, FrequencyGrid, Grids, SpatialGrid, check_scalar,
                   gradient, phase_weights)
from .norms import NormSettings, _lp_cells, lp_norm

Array = np.ndarray


# ---------------------------------------------------------------------------
# fluid parameters
# ---------------------------------------------------------------------------

class ViscosityParams(Value):
    """Shear viscosity mu > 0 and second viscosity lambda with
    lambda + (2/3) mu >= 0 (ellipticity of the viscous stress).  Equal and
    hashed by value: it keys the momentum-layout cache of ``rhlab.fluid``."""

    __slots__ = ("mu", "lam")

    def __init__(self, mu: float, lam: float):
        self._set(mu=mu, lam=lam)
        raise_first_failure(self.checks(mu, lam))

    @staticmethod
    def checks(mu: float, lam: float) -> list:
        """(field, failed, message) rows of the constructor's constraints."""
        bulk = lam + 2.0 * mu / 3.0
        return [("mu", not 0 < mu < math.inf,
                 f"shear viscosity must be positive and finite, got {mu}"),
                ("lam", not (abs(lam) < math.inf and bulk >= 0),
                 f"need lambda + (2/3) mu >= 0 with lambda finite, got {bulk}")]


class PhysicalConstants(Value):
    """Light speed (may be rescaled to 1)."""

    __slots__ = ("c",)

    def __init__(self, c: float = 1.0):
        self._set(c=c)
        raise_first_failure(self.checks(c))

    @staticmethod
    def checks(c: float) -> list:
        """(field, failed, message) rows of the constructor's constraints."""
        return [("c", not 0 < c < math.inf, f"light speed must be positive and finite, got {c}")]


class EquationOfState:
    """Barotropic pressure law: polytropic p = A rho^gamma, or a C1
    interpolation of tabulated (rho, p) samples, which need not be monotone
    (the paper's p_m is any C1 law).

    The table interpolant is SciPy's ``PchipInterpolator``; it is imported
    the first time a table EOS is built, not when ``rhlab`` is imported.  A
    table starts at rho = 0 (p_m is a law on [0, inf)); above it, the law
    goes on linearly with the end slope, as PCHIP's extrapolated cubic does
    not stay near the samples.  A table whose interpolant is not finite
    between its samples, or whose end slope is not finite, is rejected, so
    the law is nowhere NaN; so is one whose interpolant's coefficients
    underflow, since the pieces of such a cubic need not meet C1.
    """

    def __init__(self, kind: str, A: float | None = None, gamma: float | None = None,
                 table: tuple[Array, Array] | None = None):
        raise_first_failure(self.checks(kind, A, gamma))
        self.kind = kind
        if kind == "polytropic":
            self.A = float(A)
            self.gamma = float(gamma)
            self._interp = None
        else:
            if table is None:
                raise ParameterError("table EOS needs (rho, p) samples")
            rho_s, p_s = (np.asarray(s, dtype=float) for s in table)
            raise_first_failure(self.table_checks(rho_s, p_s))
            self.A = None
            self.gamma = None
            # imported here: it costs about 0.3 s and polytropic runs never use it
            from scipy.interpolate import PchipInterpolator
            # PCHIP is C1 for any samples; samples spaced or sized near the float
            # range give it non-finite coefficients or end slope, or cubic terms
            # that overflow on their interval, where the law would be inf or NaN,
            # or coefficients that underflow, losing the digits that make each
            # piece meet the next in value and slope
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                # slopes that overflow (subnormal spacing) raise ValueError, and
                # coefficients that underflow FloatingPointError
                try:
                    with np.errstate(under="raise"):
                        self._interp = PchipInterpolator(rho_s, p_s, extrapolate=True)
                except (ValueError, FloatingPointError) as exc:
                    raise ParameterError(f"table has no finite C1 interpolant: {exc}") \
                        from exc
                self._end = (float(rho_s[-1]), float(self._interp(rho_s[-1], 1)))
                # |c_j| h^(3-j) bounds each term of a piece's cubic on its
                # interval; twice their sum stays finite, so rounding cannot overflow
                powers = np.diff(rho_s) ** np.arange(3.0, -1.0, -1.0)[:, None]
                bound = 2.0 * np.sum(np.abs(self._interp.c) * powers, axis=0)
            if not (np.all(np.isfinite(bound)) and np.isfinite(self._end[1])):
                raise ParameterError("table has no finite C1 interpolant: its cubic overflows")

    @staticmethod
    def checks(kind: str, A: float | None, gamma: float | None) -> list:
        """(field, failed, message) rows of the kind and the polytropic
        parameters; ``table_checks`` states those of the table samples."""
        poly = kind == "polytropic"
        return [
            ("kind", kind not in ("polytropic", "barotropic_table"),
             f"eos must be polytropic or barotropic_table, got {kind!r}"),
            ("A", poly and (A is None or not 0 < A < math.inf),
             f"A must be positive and finite, got {A}"),
            ("gamma", poly and (gamma is None or not 1 < gamma < math.inf),
             f"gamma must exceed 1 and be finite, got {gamma}"),
        ]

    @staticmethod
    def table_checks(rho_s: Array, p_s: Array) -> list:
        """(field, failed, message) rows of the table samples, keyed by the
        ``[physics]`` key of their column; no row raises on malformed arrays."""
        shape = "table needs matching 1D sample arrays (>= 4 points)"
        # differences of a finite 1-D column only, so that none is inf - inf
        steps = np.diff(rho_s) if rho_s.ndim == 1 and np.all(np.isfinite(rho_s)) \
            else np.zeros(0)
        first = rho_s.flat[0] if rho_s.size else 0.0
        return [
            ("rho_table", rho_s.ndim != 1 or rho_s.size < 4, shape),
            ("p_table", p_s.shape != rho_s.shape, shape),
            ("rho_table", not np.all(np.isfinite(rho_s)), "table samples must be finite"),
            ("p_table", not np.all(np.isfinite(p_s)), "table samples must be finite"),
            ("rho_table", np.any(steps <= 0), "table densities must be strictly increasing"),
            ("rho_table", first != 0, f"table densities must start at 0, got {first}"),
        ]

    @classmethod
    def polytropic(cls, A: float, gamma: float) -> "EquationOfState":
        return cls("polytropic", A=A, gamma=gamma)

    @classmethod
    def barotropic_table(cls, rho_samples, p_samples) -> "EquationOfState":
        return cls("barotropic_table", table=(rho_samples, p_samples))

    def __call__(self, rho: Array) -> Array:
        rho = np.asarray(rho, dtype=float)
        if self.kind == "polytropic":
            return self.A * rho ** self.gamma
        end, slope = self._end
        # above the table the law is the line; rho - end is finite where the
        # cubic's (rho - end) ** 3 may not be, and 0 * inf would be NaN
        return np.asarray(self._interp(np.minimum(rho, end))
                          + slope * np.maximum(rho - end, 0.0), dtype=float)

    def reference_pressure(self, rho_bar: float) -> float:
        return float(self(np.asarray(rho_bar)))


def pressure(eos: EquationOfState, rho: Array, grid: SpatialGrid | None = None) -> Array:
    """Pointwise pressure; a negative or NaN density is a domain error naming
    the cell (the first NaN, else the most negative)."""
    rho = np.asarray(rho, dtype=float) if grid is None else check_scalar(rho, grid)
    if not (rho >= 0).all():
        idx = np.unravel_index(int(np.argmin(rho)), rho.shape)
        raise DomainError(f"density {rho[idx]} at cell {tuple(int(i) for i in idx)} "
                          "is not >= 0")
    return eos(rho)


# ---------------------------------------------------------------------------
# coefficient models
# ---------------------------------------------------------------------------

class CoefficientModel(Record):
    """Radiation coefficient evaluators.

    sigma(v, omega, t, x, rho)      absorption coefficient per unit density
    sigma_s_bar(v_from, v_to, mu)   scattering-in kernel (per unit density)
    sigma_s_bar_prime(v_from, v_to, mu)  scattering-out (reverse) kernel
    emission(v, omega, t, x)        spontaneous emission rate S >= 0

    ``x`` is the tuple of broadcastable cell-center coordinate arrays, so
    evaluators vectorize over the spatial grid.  ``majorant`` is the declared
    increasing bound M(.) used by the regularity validators.

    By default the emission is density-independent; setting
    ``emission_depends_rho`` switches its signature to
    emission(v, omega, t, x, rho) and makes it eligible for
    ``validate_emission_regularity``.

    A coefficient callable may carry a whole-array form as its ``table``
    attribute, as every built-in one does.  ``sigma.table(v, rho)`` and
    ``emission.table(v)`` (``emission.table(v, rho)`` when the emission
    depends on rho) take the band-centre column ``v`` of shape
    ``(B, 1) + (1,) * dim`` and the density of shape ``extents``, and return
    one array broadcastable to ``(B, M) + extents``.  By contract a table is
    independent of t, x and Omega, and its values are byte-identical to the
    callable's at every (band, ordinate) pair.  ``sigma_bm``/``emission_bm``
    use the table when there is one and call the callable B x M times
    otherwise; as the table lives on the callable, reassigning ``sigma`` or
    ``emission`` replaces both at once.  ``kernels`` and ``scattering_tables``
    share one cache, which assigning either kernel empties.
    """

    __slots__ = ("sigma", "sigma_s_bar", "sigma_s_bar_prime", "emission", "majorant",
                 "sigma_lipschitz", "emission_depends_rho", "_kernel_cache")

    def __init__(self, sigma: Callable, sigma_s_bar: Callable, sigma_s_bar_prime: Callable,
                 emission: Callable, majorant: Callable | None = None,
                 sigma_lipschitz: Callable | None = None, emission_depends_rho: bool = False):
        self.sigma = sigma
        self.sigma_s_bar = sigma_s_bar
        self.sigma_s_bar_prime = sigma_s_bar_prime
        self.emission = emission
        self.majorant = majorant
        self.sigma_lipschitz = sigma_lipschitz
        self.emission_depends_rho = emission_depends_rho

    def __setattr__(self, name, value):
        if name in ("sigma_s_bar", "sigma_s_bar_prime"):
            object.__setattr__(self, "_kernel_cache", {})
        object.__setattr__(self, name, value)

    # -- vectorized evaluation over the discrete phase space ---------------

    @staticmethod
    def _tabulate(fn: Callable, grids: Grids, t: float, *rho: Array) -> Array:
        """fn(v, omega, t, x, *rho) at every (band, ordinate) pair: shape
        (B, M) + extents; one ``fn.table`` expression when fn carries one."""
        out = np.empty(grids.radiation_shape())
        table = getattr(fn, "table", None)
        if table is not None:
            v = grids.freq.band_centers.reshape((-1, 1) + (1,) * grids.spatial.dim)
            out[...] = table(v, *rho)
            return out
        x = grids.spatial.coords()
        for b, v in enumerate(grids.freq.band_centers):
            for m, omega in enumerate(grids.ang.ordinates):
                out[b, m] = np.broadcast_to(fn(v, omega, t, x, *rho), grids.spatial.extents)
        return out

    def sigma_bm(self, grids: Grids, t: float, rho: Array) -> Array:
        """sigma at every (band, ordinate) pair: shape (B, M) + extents."""
        rho = check_scalar(rho, grids.spatial)
        return self._tabulate(self.sigma, grids, t, rho)

    def emission_bm(self, grids: Grids, t: float, rho: Array | None = None) -> Array:
        if not self.emission_depends_rho:
            return self._tabulate(self.emission, grids, t)
        if rho is None:
            raise ConfigError("density-dependent emission needs rho")
        return self._tabulate(self.emission, grids, t, rho)

    @property
    def tabulated(self) -> bool:
        """True when sigma and the emission both carry a ``table``, so that
        neither depends on t."""
        return all(getattr(fn, "table", None) is not None
                   for fn in (self.sigma, self.emission))

    @staticmethod
    def _quadrature_key(freq: FrequencyGrid, ang: AngularQuadrature) -> tuple:
        return tuple((a.shape, a.tobytes()) for a in (
            freq.band_edges, freq.band_weights, freq.band_centers, ang.ordinates,
            ang.weights))

    def _tables(self, freq: FrequencyGrid, ang: AngularQuadrature) -> tuple:
        """((K_in, K_out), (W, Lam_s)) of the quadratures, built once per key."""
        key = self._quadrature_key(freq, ang)
        if key not in self._kernel_cache:
            v = freq.band_centers
            mu = ang.ordinates @ ang.ordinates.T
            B, M = freq.n_bands, ang.n_ordinates
            k_in = np.empty((B, M, B, M))
            k_out = np.empty((B, M, B, M))
            for b in range(B):
                for bp in range(B):
                    k_in[b, :, bp, :] = self.sigma_s_bar(v[bp], v[b], mu)
                    k_out[b, :, bp, :] = self.sigma_s_bar_prime(v[b], v[bp], mu)
            w = phase_weights(freq, ang)
            ratio = (v[:, None] / v[None, :])  # v_b / v_b'
            gain_matrix = k_in * ratio[:, None, :, None] * w[None, None, :, :]
            lam_s = np.tensordot(k_out, w, axes=([2, 3], [0, 1]))
            self._kernel_cache[key] = ((k_in, k_out), (gain_matrix, lam_s))
        return self._kernel_cache[key]

    def kernels(self, freq: FrequencyGrid, ang: AngularQuadrature) -> tuple[Array, Array]:
        """Dense kernel tables over (band, ordinate)^2, cached by the values of
        the quadratures (band edges and centers, ordinates and weights).

        K_in[b, m, b', m']  = sigma_s_bar(v_b' -> v_b, Omega_m' . Omega_m)
        K_out[b, m, b', m'] = sigma_s_bar_prime(v_b -> v_b', Omega_m . Omega_m')
        """
        return self._tables(freq, ang)[0]

    def scattering_tables(self, freq: FrequencyGrid,
                          ang: AngularQuadrature) -> tuple[Array, Array]:
        """Gain matrix W[b,m,b',m'] = w_b' w_m' (v_b / v_b') K_in[b,m,b',m'] and
        total out-scattering rate per unit density Lam_s[b,m], cached with
        ``kernels``."""
        return self._tables(freq, ang)[1]


def _tabulated_sigma(table: Callable) -> Callable:
    """The pointwise sigma(v, omega, t, x, rho) of a whole-array
    ``table(v, rho)``, carrying it as its ``table``."""
    def sigma(v, omega, t, x, rho):
        return np.full_like(rho, table(v, rho))
    sigma.table = table
    return sigma


def _tabulated_emission(table: Callable) -> Callable:
    """The pointwise emission(v, omega, t, x) of a whole-array ``table(v)``,
    carrying it as its ``table``."""
    def emission(v, omega, t, x):
        return table(v)
    emission.table = table
    return emission


def _zero_kernel(v_from, v_to, mu):
    return np.zeros_like(np.asarray(mu, dtype=float))


def zero_model() -> CoefficientModel:
    """No absorption, no scattering, no emission."""
    return CoefficientModel(
        sigma=_tabulated_sigma(lambda v, rho: 0.0),
        sigma_s_bar=_zero_kernel,
        sigma_s_bar_prime=_zero_kernel,
        emission=_tabulated_emission(lambda v: 0.0),
        majorant=lambda s: 1.0 + s,
    )


def constant_model_checks(sigma0: float = 0.0, kernel0: float = 0.0,
                          emission0: float = 0.0) -> list:
    """(field, failed, message) rows of ``constant_model``."""
    return [(name, not 0 <= value < math.inf,
             f"model parameter {name} must be >= 0 and finite, got {value}")
            for name, value in (("sigma0", sigma0), ("kernel0", kernel0),
                                ("emission0", emission0))]


def constant_model(sigma0: float = 0.0, kernel0: float = 0.0,
                   emission0: float = 0.0) -> CoefficientModel:
    """Frequency- and direction-independent coefficients."""
    raise_first_failure(constant_model_checks(sigma0, kernel0, emission0))

    def kern(v_from, v_to, mu):
        return np.full_like(np.asarray(mu, dtype=float), kernel0)

    return CoefficientModel(
        sigma=_tabulated_sigma(lambda v, rho: sigma0),
        sigma_s_bar=kern,
        sigma_s_bar_prime=kern,
        emission=_tabulated_emission(lambda v: emission0),
        majorant=lambda s: (1.0 + max(sigma0, 1.0)) * (1.0 + s),
        sigma_lipschitz=lambda s: 1.0 + s,
    )


def compton_model_checks(D1: float, D2: float, v0: float, theta: float,
                         emission0: float = 0.0) -> list:
    """(field, failed, message) rows of ``compton_model``.  Besides each
    parameter, the products D1 theta^(-1/2) (the peak) and D2 theta^(-1/2)
    (the exponent's scale) must be finite, computed as sigma computes them;
    either can overflow for a small theta, and sigma is then NaN."""
    params = (("D1", D1), ("D2", D2), ("v0", v0), ("theta", theta))
    rows = [(name, not 0 < value < math.inf,
             f"Compton parameter {name} must be positive and finite, got {value}")
            for name, value in params]
    if 0 < theta < math.inf:
        rows += [(name, not math.isfinite(value * theta ** -0.5),
                  f"Compton product {name} theta^(-1/2) must be finite, got "
                  f"{name} = {value}, theta = {theta}")
                 for name, value in params[:2] if 0 < value < math.inf]
    return rows + constant_model_checks(emission0=emission0)


def compton_model(D1: float, D2: float, v0: float, theta: float,
                  sigma_s_profile: Callable | None = None,
                  emission0: float = 0.0) -> CoefficientModel:
    """Thermal Compton-style absorption peaked at the line frequency v0:

        sigma(v) = D1 theta^(-1/2) exp(-D2 theta^(-1/2) ((v - v0)/v0)^2)

    with an optional user-supplied scattering kernel, whose reverse kernel is
    the same kernel with the frequency arguments swapped, and a constant
    emission rate.
    """
    raise_first_failure(compton_model_checks(D1, D2, v0, theta, emission0))
    amp = D1 * theta ** -0.5

    def sig(v, rho):
        z = (v - v0) / v0
        return amp * np.exp(-D2 * theta ** -0.5 * z * z)

    profile = sigma_s_profile if sigma_s_profile is not None else _zero_kernel

    def kern_prime(v_from, v_to, mu):
        return profile(v_to, v_from, mu)

    # analytic bound: ||sigma||_{L2(phase); Linf} is controlled by the Gaussian
    # integral over v, independent of the band truncation
    gauss_mass = v0 * np.sqrt(np.pi * np.sqrt(theta) / (2.0 * D2))
    c0 = max(1.0, 2.0 * amp * (1.0 + np.sqrt(4.0 * np.pi * gauss_mass)))

    return CoefficientModel(
        sigma=_tabulated_sigma(sig),
        sigma_s_bar=profile,
        sigma_s_bar_prime=kern_prime,
        emission=_tabulated_emission(lambda v: emission0),
        majorant=lambda s: c0 * (1.0 + s),
        sigma_lipschitz=lambda s: 1.0 + s,  # sigma is rho-independent
    )


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

class ValidationEntry(Record):
    __slots__ = ("name", "value", "bound", "passed", "location")

    def __init__(self, name: str, value: float, bound: float, passed: bool,
                 location: tuple | None = None):
        self.name = name
        self.value = value
        self.bound = bound
        self.passed = passed
        self.location = location


class ValidationReport(Record):
    __slots__ = ("entries", "suggested_scale")

    def __init__(self, entries: list, suggested_scale: float = 1.0):
        self.entries = entries
        self.suggested_scale = suggested_scale

    @classmethod
    def scaled(cls, entries: list) -> "ValidationReport":
        """The report suggesting the largest value / bound ratio, >= 1."""
        scale = max((e.value / e.bound for e in entries if e.bound > 0), default=1.0)
        return cls(entries, suggested_scale=max(scale, 1.0))

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> ValidationEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def validate_kernel_integrability(model: CoefficientModel, freq: FrequencyGrid,
                                  ang: AngularQuadrature, lambda1: float = 1.0,
                                  lambda2: float = 1.0, cap: float = 1e4) -> ValidationReport:
    """Evaluate the iterated phase-space integrals the scattering kernels must
    keep bounded: the (v/v')^2-weighted square integral of the in-kernel at
    exponent lambda1 in {1, 1/2}, the iterated integral of the out-kernel at
    exponent lambda2 in {1, 2}, and the plain sup of the inner out-integral.
    """
    if lambda1 not in (1.0, 0.5):
        raise ParameterError("lambda1 must be 1 or 1/2")
    if lambda2 not in (1.0, 2.0):
        raise ParameterError("lambda2 must be 1 or 2")
    k_in, k_out = model.kernels(freq, ang)
    entries = []
    for name, k in (("kernel_in_finite", k_in), ("kernel_out_finite", k_out)):
        bad = np.argwhere(~np.isfinite(k))
        if bad.size:
            entries.append(ValidationEntry(name, np.nan, cap, False,
                                           tuple(int(i) for i in bad[0])))
    if entries:
        return ValidationReport(entries)

    w = phase_weights(freq, ang)   # (B, M)
    v = freq.band_centers
    ratio2 = ((v[:, None] / v[None, :]) ** 2)[:, None, :, None]   # (v_b / v_b')^2

    inner_in = np.tensordot(ratio2 * k_in * k_in, w, axes=([2, 3], [0, 1]))
    int_in = float(np.sum(w * inner_in ** lambda1))
    entries.append(ValidationEntry("in_kernel_weighted_square", int_in, cap, int_in <= cap))

    inner_out = model.scattering_tables(freq, ang)[1]    # Lam_s, cached: read only
    int_out = float(np.sum(w * inner_out ** lambda2))
    entries.append(ValidationEntry("out_kernel_iterated", int_out, cap, int_out <= cap))

    sup_out = float(np.max(inner_out))
    entries.append(ValidationEntry("out_kernel_inner_sup", sup_out, cap, sup_out <= cap))

    return ValidationReport.scaled(entries)


def _mixed_l2_linf(f: Array, p: float, grid: SpatialGrid, w: Array) -> tuple[float, float]:
    """L2 and Linf over (band, ordinate) of the spatial Lp norms of a
    (B, M) + components + cells field."""
    vals = _lp_cells(np.array(f, dtype=float), p, grid, lead=2)
    return float(np.sqrt(np.sum(w * vals * vals))), float(np.max(vals))


def _validate_regularity(model: CoefficientModel, evaluate, name: str, rho: Array,
                         rho_t: Array, settings: NormSettings, grids: Grids, t: float,
                         lipschitz: Callable | None = None) -> ValidationReport:
    """Mixed phase-space norms of a coefficient f = ``evaluate(grids, t, rho)``,
    of grad f and of f_t against the declared majorant; entries are named
    after ``name``.  ``lipschitz`` adds the Lipschitz-in-rho line."""
    if model.majorant is None:
        raise ConfigError("coefficient model declares no majorant M(.)")
    grid = grids.spatial
    rho = check_scalar(rho, grid)
    rho_t = check_scalar(rho_t, grid)
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(rho_t))):
        raise DomainError("density fields must be finite")

    w = phase_weights(grids.freq, grids.ang)
    rho_inf = float(np.max(np.abs(rho)))
    M_rho = float(model.majorant(rho_inf))
    if M_rho < 1.0:
        raise ConfigError(f"majorant must map into [1, inf), got M({rho_inf}) = {M_rho}")

    f0 = evaluate(grids, t, rho)
    entries = []
    if not np.all(np.isfinite(f0)):
        loc = tuple(int(i) for i in np.argwhere(~np.isfinite(f0))[0])
        entries.append(ValidationEntry(f"{name}_finite", np.nan, M_rho, False, loc))
        return ValidationReport(entries)

    # line 1: || f ||_{L2 cap Linf (phase); Linf(x)} <= M(|rho|_inf)
    l2, linf = _mixed_l2_linf(f0, np.inf, grid, w)
    val1 = l2 + linf
    entries.append(ValidationEntry(f"{name}_mixed_sup", val1, M_rho, val1 <= M_rho))

    # line 2: || grad f ||_{L2 cap Linf (phase); Lr(x)} <= M (|grad rho|_r + 1);
    # far-field ghosts are rho_bar, and f at rho_bar of the bordering cell: an
    # edge difference over gradient's 0 ghost moves by that value over 2h
    grad_rho = gradient(rho, grid, farfield_value=grid.rho_bar)
    grad_f0 = gradient(f0, grid)
    if grid.boundary == "farfield":
        f_bar = evaluate(grids, t, np.full(grid.extents, grid.rho_bar))
        for a, h in enumerate(grid.spacing):
            for edge, sign in ((0, -1.0), (-1, 1.0)):
                cells = (slice(None),) * (2 + a) + (edge,)
                grad_f0[:, :, a][cells] += sign * f_bar[cells] / (2.0 * h)
    for r in (2.0, settings.q):
        bound = M_rho * (lp_norm(grad_rho, r, grid) + 1.0)
        l2r, linfr = _mixed_l2_linf(grad_f0, r, grid, w)
        val = l2r + linfr
        entries.append(ValidationEntry(f"grad_{name}_L{r:g}", val, bound, val <= bound))

    # line 3: || f_t ||_{L2(phase); L2(x)} <= M (|rho_t|_2 + 1), where f_t is the
    # total time derivative along the flow by a centered difference in (t, rho)
    eps = 1e-6 * max(1.0, rho_inf)
    f_plus = evaluate(grids, t + eps, rho + eps * rho_t)
    f_minus = evaluate(grids, t - eps, rho - eps * rho_t)
    f_t = (f_plus - f_minus) / (2.0 * eps)
    l2t, _ = _mixed_l2_linf(f_t, 2.0, grid, w)
    bound3 = M_rho * (lp_norm(rho_t, 2.0, grid) + 1.0)
    entries.append(ValidationEntry(f"{name}_t_mixed", l2t, bound3, l2t <= bound3))

    if lipschitz is not None:
        drho = 0.1 * max(1.0, rho_inf)
        lip = float(np.max(np.abs(evaluate(grids, t, rho + drho) - f0))) / drho
        bound_l = float(lipschitz(rho_inf + drho)) * M_rho
        entries.append(ValidationEntry(f"{name}_lipschitz", lip, bound_l, lip <= bound_l))

    return ValidationReport.scaled(entries)


def validate_sigma_regularity(model: CoefficientModel, rho: Array, rho_t: Array,
                              settings: NormSettings, grids: Grids,
                              t: float = 0.0) -> ValidationReport:
    """Check the declared majorant against the discrete mixed norms of sigma,
    grad sigma, and sigma_t over the phase-space quadrature, plus the
    Lipschitz-in-rho bound when the model declares one."""
    return _validate_regularity(model, model.sigma_bm, "sigma", rho, rho_t, settings,
                                grids, t, lipschitz=model.sigma_lipschitz)


def validate_emission_regularity(model: CoefficientModel, rho: Array, rho_t: Array,
                                 settings: NormSettings, grids: Grids,
                                 t: float = 0.0) -> ValidationReport:
    """The same checks for a density-dependent emission rate S: mixed
    phase-space norms of S, grad S, and S_t against the declared majorant."""
    if not model.emission_depends_rho:
        raise ConfigError("emission is density-independent; nothing to validate")
    return _validate_regularity(model, model.emission_bm, "emission", rho, rho_t,
                                settings, grids, t)
