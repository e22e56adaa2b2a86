import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rhlab
from rhlab.errors import ConfigError, DomainError, ParameterError
from rhlab.grid import AngularQuadrature, FrequencyGrid, SpatialGrid
from rhlab.physics import (CoefficientModel, EquationOfState, PhysicalConstants,
                           ViscosityParams, compton_model, constant_model,
                           _zero_kernel, pressure, validate_emission_regularity,
                           validate_kernel_integrability,
                           validate_sigma_regularity, zero_model)


_CONSTRUCTOR_FIELDS = {
    "SpatialGrid.spacing": lambda x: SpatialGrid((8,), (x,)),
    "SpatialGrid.rho_bar": lambda x: SpatialGrid.farfield(8, 1.0, x),
    "SpatialGrid.periodic.lengths": lambda x: SpatialGrid.periodic(8, x),
    "FrequencyGrid.band_edges": lambda x: FrequencyGrid.from_edges([0.5, 1.0, x]),
    "ViscosityParams.mu": lambda x: ViscosityParams(mu=x, lam=0.0),
    "ViscosityParams.lam": lambda x: ViscosityParams(mu=1.0, lam=x),
    "PhysicalConstants.c": lambda x: PhysicalConstants(c=x),
    "EquationOfState.A": lambda x: EquationOfState.polytropic(x, 2.0),
    "EquationOfState.gamma": lambda x: EquationOfState.polytropic(1.0, x),
    "constant_model.sigma0": lambda x: constant_model(sigma0=x),
    "constant_model.kernel0": lambda x: constant_model(kernel0=x),
    "constant_model.emission0": lambda x: constant_model(emission0=x),
    "compton_model.D1": lambda x: compton_model(x, 1.0, 1.0, 1.0),
    "compton_model.D2": lambda x: compton_model(1.0, x, 1.0, 1.0),
    "compton_model.v0": lambda x: compton_model(1.0, 1.0, x, 1.0),
    "compton_model.theta": lambda x: compton_model(1.0, 1.0, 1.0, x),
    "compton_model.emission0": lambda x: compton_model(1.0, 1.0, 1.0, 1.0, emission0=x),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", sorted(_CONSTRUCTOR_FIELDS))
def test_constructor_rows_refuse_non_finite(field, value):
    # every numeric field of the constructor rows, as the config parser
    # refuses non-finite values
    with pytest.raises(ParameterError) as raised:
        _CONSTRUCTOR_FIELDS[field](value)
    assert raised.value.exit_code == 2


class TestViscosityParams:
    def test_valid(self):
        v = ViscosityParams(mu=2.0, lam=-1.0)
        assert v.mu == 2.0

    def test_mu_positive(self):
        with pytest.raises(ParameterError):
            ViscosityParams(mu=0.0, lam=1.0)

    def test_ellipticity_constraint(self):
        # mu=3, lam=-3 gives lam + 2mu/3 = -1 < 0
        with pytest.raises(ParameterError, match=r"lambda \+ \(2/3\) mu"):
            ViscosityParams(mu=3.0, lam=-3.0)

    def test_boundary_case(self):
        ViscosityParams(mu=3.0, lam=-2.0)  # lam + 2mu/3 = 0 is admissible


class TestPhysicalConstants:
    def test_positive_c(self):
        with pytest.raises(ParameterError):
            PhysicalConstants(c=0.0)


class TestEquationOfState:
    def test_polytropic_zero_density(self):
        eos = EquationOfState.polytropic(1.0, 2.0)
        assert np.all(eos(np.zeros(8)) == 0.0)

    def test_polytropic_direct(self):
        eos = EquationOfState.polytropic(1.0, 2.0)
        assert np.all(eos(np.full(8, 3.0)) == 9.0)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            EquationOfState.polytropic(-1.0, 2.0)
        with pytest.raises(ParameterError):
            EquationOfState.polytropic(1.0, 1.0)

    def test_table_matches_power_law(self):
        rho_s = np.linspace(0.0, 4.0, 50)
        eos = EquationOfState.barotropic_table(rho_s, rho_s ** 1.4)
        assert float(eos(np.array(2.0))) == pytest.approx(2.0 ** 1.4, abs=1e-3)

    def test_table_validation(self):
        with pytest.raises(ParameterError):
            EquationOfState.barotropic_table([0.0, 1.0, 1.0, 2.0], [0, 1, 2, 3])
        # a pressure that falls is admitted: the paper's p_m is any C1 law
        eos = EquationOfState.barotropic_table([0.0, 1.0, 2.0, 3.0], [0, 2, 1, 3])
        assert float(eos(np.array(1.5))) < 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["rho", "p"])
    def test_table_rejects_non_finite(self, bad, column):
        rho_s, p_s = np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0, 3.0])
        (rho_s if column == "rho" else p_s)[2] = bad
        with pytest.raises(ParameterError, match="finite"):
            EquationOfState.barotropic_table(rho_s, p_s)

    def test_table_interpolant_imported_on_first_table(self):
        # a fresh interpreter: this session has imported scipy.interpolate already
        code = ("import sys\n"
                "import numpy as np\n"
                "import rhlab\n"
                "print('scipy.interpolate' in sys.modules)\n"
                "rho_s = np.linspace(0.0, 4.0, 50)\n"
                "eos = rhlab.EquationOfState.barotropic_table(rho_s, rho_s ** 1.4)\n"
                "print(float(eos(np.array(2.3))).hex())\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rhlab.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        rho_s = np.linspace(0.0, 4.0, 50)
        here = EquationOfState.barotropic_table(rho_s, rho_s ** 1.4)
        assert out == ["False", float(here(np.array(2.3))).hex()]

    def test_pressure_negative_density(self, grid128, eos):
        rho = np.ones(128)
        rho[17] = -0.5
        with pytest.raises(DomainError, match=r"cell \(17,\)"):
            pressure(eos, rho, grid128)

    @pytest.mark.parametrize("p_s, p4", [((0.0, 1.0, 4.0, 9.0), 15.0),
                                         ((0.0, 3.0, 3.5, 3.6), 3.6)])
    def test_table_continues_linearly_above_its_last_density(self, p_s, p4):
        # PCHIP's cubic extrapolation gave p(10) = 2.0 and -14.4 for these
        eos = EquationOfState.barotropic_table(np.array([0.0, 1.0, 2.0, 3.0]), np.array(p_s))
        p = eos(np.linspace(0.0, 10.0, 1001))
        assert np.all(np.diff(p) >= 0.0)
        assert float(eos(np.array(4.0))) == pytest.approx(p4, rel=1e-12)
        # inside the table the law is the interpolant's, bit for bit
        from scipy.interpolate import PchipInterpolator
        inside = np.linspace(0.0, 3.0, 301)
        assert eos(inside).tobytes() == PchipInterpolator([0.0, 1.0, 2.0, 3.0], p_s)(
            inside).tobytes()

    @settings(max_examples=300)
    @given(st.integers(4, 8).flatmap(lambda n: st.tuples(
        st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False), min_size=n - 1,
                 max_size=n - 1, unique=True).map(lambda r: [0.0] + sorted(r)),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n,
                 max_size=n))))
    @example(([0.0, 1e-160, 1.0, 2.0], [0.0, 5.0, 6.0, 7.0]))    # used to give p(0) NaN
    @example(([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 4.0, 9.0]))       # used to give p(1e103) NaN
    @example(([0.0, 1e200, 2e200, 3e200], [0.0, 1.0, 2.0, 3.0]))
    @example(([0.0, 1.0, 2.0, 3.0], [0.0, 1e308, -1e308, 1e308]))
    @example(([0.0, 1.0, 3.0, 4.0], [0.0, 0.0, 5e-324, 0.0]))    # used to jump by 5e-324 at 3
    @example(([0.0, 1e50, 3e50, 4e50], [0.0, 1e-270, 0.0, 2e-270]))   # used to lose c0, c1
    def test_finite_table_builds_a_finite_c1_law_or_is_rejected(self, table):
        # any finite table with densities rising strictly from 0 is either
        # refused for its interpolant or builds a law that is never NaN, finite
        # at its samples, and C1 at every sample and at the join to the line
        rho_s, p_s = (np.array(column) for column in table)
        try:
            eos = EquationOfState.barotropic_table(rho_s, p_s)
        except ParameterError as exc:
            assert str(exc).startswith("table has no finite C1 interpolant: ")
            return
        end = rho_s[-1]
        with np.errstate(over="ignore"):
            above = np.minimum(end + np.array([0.5, 1.0, 1e10, 1e300]) * max(end, 1.0),
                               np.finfo(float).max)
            inside = rho_s[:-1] + 0.5 * np.diff(rho_s)
            assert not np.any(np.isnan(eos(np.concatenate([rho_s, inside, above]))))
        assert np.all(np.isfinite(eos(rho_s)))
        # left limits of each cubic piece, in extended precision, meet the value
        # and slope on the right: the next piece's, or the line's at the join
        c, h = eos._interp.c.astype(np.longdouble), np.diff(rho_s).astype(np.longdouble)
        value_terms = c * h ** np.arange(3, -1, -1)[:, None]
        slope_terms = np.array([3, 2, 1])[:, None] * c[:3] * h ** np.arange(2, -1, -1)[:, None]
        for terms, right in ((value_terms, np.append(c[3, 1:], eos(end))),
                             (slope_terms, np.append(c[2, 1:], eos._end[1]))):
            scale = np.abs(terms).sum(axis=0) + np.abs(right)
            assert np.all(np.abs(terms.sum(axis=0) - right) <= 1e-9 * scale)

    def test_table_must_start_at_zero_density(self):
        with pytest.raises(ParameterError, match="table densities must start at 0, got 0.2"):
            EquationOfState.barotropic_table([0.2, 1.0, 2.0, 3.0], [0.5, 1.0, 4.0, 9.0])

    @pytest.mark.parametrize("eos_obj", [
        EquationOfState.polytropic(0.7, 1.4),
        EquationOfState.barotropic_table(np.linspace(0, 3, 40),
                                         np.linspace(0, 3, 40) ** 1.4),
    ])
    def test_pressure_monotone(self, eos_obj):
        rho = np.linspace(0.0, 3.0, 200)
        p = eos_obj(rho)
        assert np.all(np.diff(p) >= -1e-12)


class TestComptonModel:
    def test_peak_value(self):
        # at v = v0 the exponent vanishes: sigma = D1 theta^(-1/2)
        m = compton_model(D1=2.0, D2=3.0, v0=1.5, theta=4.0)
        rho = np.ones(4)
        val = m.sigma(1.5, None, 0.0, None, rho)
        assert np.all(val == 2.0 * 4.0 ** -0.5)

    def test_gaussian_tail(self):
        m = compton_model(D1=1.0, D2=500.0, v0=1.0, theta=1.0)
        val = m.sigma(2.0, None, 0.0, None, np.ones(2))
        assert np.all(val < 1e-100)

    def test_direct_evaluation(self):
        m = compton_model(D1=1.0, D2=1.0, v0=1.0, theta=1.0)
        val = m.sigma(2.0, None, 0.0, None, np.ones(1))
        assert float(val[0]) == pytest.approx(np.exp(-1.0), abs=1e-12)

    @pytest.mark.parametrize("D1, D2, name", [
        (1e300, 1.0, "D1"), (1.0, 1e300, "D2"), (1e300, 1e300, "D1")])
    def test_overflowing_products_rejected(self, D1, D2, name):
        # at theta = 1e-300, D theta^(-1/2) overflows: the peak D1 theta^(-1/2)
        # times exp(-huge) = 0 is inf * 0, and the exponent's scale
        # D2 theta^(-1/2) times z^2 = 0 at the line frequency is inf * 0
        with pytest.raises(ParameterError, match=f"Compton product {name} theta"):
            compton_model(D1, D2, 1.0, 1e-300)

    def test_largest_finite_products_accepted(self):
        # both products just finite: sigma is finite at and off the line
        m = compton_model(1e150, 1e150, 1.0, 1e-300)
        val = m.sigma(np.array([0.75, 1.0, 1.5]), None, 0.0, None, np.ones(3))
        assert np.all(np.isfinite(val)) and float(val[1]) == 1e150 * 1e-300 ** -0.5

    def test_nonpositive_parameters(self):
        with pytest.raises(ParameterError):
            compton_model(D1=0.0, D2=1.0, v0=1.0, theta=1.0)
        with pytest.raises(ParameterError):
            compton_model(D1=1.0, D2=1.0, v0=-1.0, theta=1.0)

    def test_maximized_at_line_frequency(self):
        m = compton_model(D1=1.3, D2=2.0, v0=2.0, theta=0.5)
        rho = np.ones(1)
        vals = [float(m.sigma(v, None, 0.0, None, rho)[0])
                for v in np.linspace(0.1, 5.0, 101)]
        peak = float(m.sigma(2.0, None, 0.0, None, rho)[0])
        assert peak >= max(vals)

    def test_reverse_kernel_swaps_arguments(self):
        def profile(v_from, v_to, mu):
            return np.asarray(mu * 0.0 + v_from + 10.0 * v_to)

        m = compton_model(1.0, 1.0, 1.0, 1.0, sigma_s_profile=profile)
        mu = np.array(0.5)
        assert float(m.sigma_s_bar(2.0, 3.0, mu)) == pytest.approx(32.0)
        assert float(m.sigma_s_bar_prime(2.0, 3.0, mu)) == pytest.approx(23.0)


class TestCoefficientNonnegativity:
    @pytest.mark.parametrize("model", [
        zero_model(),
        constant_model(0.5, 0.2, 0.1),
        compton_model(1.0, 2.0, 1.0, 1.0,
                      sigma_s_profile=lambda vf, vt, mu: 0.1 * (1.0 + np.asarray(mu) ** 2)),
    ])
    def test_random_phase_space_samples(self, model, rng):
        n = 10_000
        v = rng.uniform(0.1, 5.0, n)
        mu = rng.uniform(-1.0, 1.0, n)
        rho = rng.uniform(0.0, 3.0, n)
        t = rng.uniform(0.0, 1.0, n)
        for i in range(0, n, 500):
            sl = slice(i, i + 500)
            assert np.all(model.sigma(v[i], None, t[i], None, rho[sl]) >= 0.0)
            assert np.all(np.asarray(model.sigma_s_bar(v[i], v[(i + 7) % n], mu[sl])) >= 0.0)
            assert np.all(np.asarray(model.sigma_s_bar_prime(v[i], v[(i + 7) % n], mu[sl])) >= 0.0)
            assert np.all(np.asarray(model.emission(v[i], None, t[i], None)) >= 0.0)


class TestKernelIntegrability:
    def test_zero_kernels_pass(self, bands4, slab8):
        rep = validate_kernel_integrability(zero_model(), bands4, slab8)
        assert rep.passed
        assert all(e.value == 0.0 for e in rep.entries)

    def test_single_term_hand_value(self):
        # one band, one ordinate pair of unit weights, kernel = 1, lambda1 = 1:
        # the integral collapses to (v/v')^2 at the band centers, which is 1
        ang = AngularQuadrature(np.array([[-1.0], [1.0]]), np.array([1.0, 1.0]),
                                2.0, slab=True)
        freq = FrequencyGrid.from_edges([1.0, 1.5])
        model = constant_model(0.0, 1.0, 0.0)
        rep = validate_kernel_integrability(model, freq, ang, lambda1=1.0)
        entry = rep.entry("in_kernel_weighted_square")
        # two ordinates of weight 1 and one band of weight 0.5:
        # inner = sum w' * 1 = 2 * 0.5 = 1, outer = sum w * inner = 1
        assert entry.value == pytest.approx(1.0, rel=1e-12)

    def test_nan_kernel_fails_with_location(self, bands4, slab8):
        def bad_kernel(v_from, v_to, mu):
            out = np.ones_like(np.asarray(mu, dtype=float))
            if v_from == v_to:
                out = out * np.nan
            return out

        model = CoefficientModel(
            sigma=lambda v, o, t, x, rho: np.zeros_like(rho),
            sigma_s_bar=bad_kernel, sigma_s_bar_prime=bad_kernel,
            emission=lambda v, o, t, x: 0.0)
        rep = validate_kernel_integrability(model, bands4, slab8)
        assert not rep.passed
        failing = [e for e in rep.entries if not e.passed]
        assert failing and failing[0].location is not None

    def test_unbounded_kernel_fails(self, slab8):
        # sigma_s_bar growing in v: iterated integral blows past the cap once
        # the band range is wide
        freq = FrequencyGrid.from_edges(np.linspace(1.0, 100.0, 12))
        model = constant_model(0.0, 0.0, 0.0)
        model.sigma_s_bar = lambda vf, vt, mu: np.full_like(np.asarray(mu, float),
                                                            vt ** 2)
        model.sigma_s_bar_prime = lambda vf, vt, mu: np.full_like(np.asarray(mu, float),
                                                                  vt ** 2)
        rep = validate_kernel_integrability(model, freq, slab8, cap=1e4)
        assert not rep.passed
        assert not rep.entry("in_kernel_weighted_square").passed

    def test_exponent_validation(self, bands4, slab8):
        with pytest.raises(ParameterError):
            validate_kernel_integrability(zero_model(), bands4, slab8, lambda1=0.7)
        with pytest.raises(ParameterError):
            validate_kernel_integrability(zero_model(), bands4, slab8, lambda2=3.0)


class TestKernelCache:
    @staticmethod
    def center_kernel(v_from, v_to, mu):
        return np.full_like(np.asarray(mu, dtype=float), v_to)

    def test_fresh_band_sets_get_their_own_tables(self, slab8):
        # grids built and dropped in a loop reuse memory addresses; the cache
        # must still return each band set's own table
        model = constant_model()
        model.sigma_s_bar = self.center_kernel
        for k in range(50):
            lo = 0.5 + 0.01 * k
            k_in, _ = model.kernels(FrequencyGrid.from_edges([lo, lo + 1.0]), slab8)
            assert k_in[0, 0, 0, 0] == lo + 0.5

    def test_equal_quadratures_share_one_entry(self, slab8):
        model = constant_model(kernel0=0.2)
        first = model.kernels(FrequencyGrid.from_edges([0.5, 1.0, 2.0]), slab8)
        again = model.kernels(FrequencyGrid.from_edges([0.5, 1.0, 2.0]),
                              AngularQuadrature.gauss_legendre_slab(8))
        assert again is first
        assert len(model._kernel_cache) == 1
        model.kernels(FrequencyGrid.from_edges([0.5, 1.0]), slab8)
        assert len(model._kernel_cache) == 2

    def test_band_weights_key_the_gain_matrix(self, slab8):
        # the weights may differ from the edge differences by up to
        # 1e-12 * the last edge; the gain matrix carries them, so they key it
        edges = np.array([0.5, 1.0, 2.0])
        exact = FrequencyGrid.from_edges(edges)
        nudged = FrequencyGrid(edges, np.diff(edges) + [1e-13, 0.0], exact.band_centers)
        model = constant_model(kernel0=0.2)
        model.scattering_tables(exact, slab8)
        got, _ = model.scattering_tables(nudged, slab8)
        want, _ = constant_model(kernel0=0.2).scattering_tables(nudged, slab8)
        assert got.tobytes() == want.tobytes()

    def test_reassigned_kernels_empty_the_cache(self, slab8):
        freq = FrequencyGrid.from_edges([0.5, 1.0, 2.0])
        ang = AngularQuadrature.gauss_legendre_slab(4)
        model = constant_model(sigma0=0.1, kernel0=0.2)
        gain, lam = model.scattering_tables(freq, ang)
        assert gain.max() > 0 and lam.max() > 0
        model.sigma_s_bar = model.sigma_s_bar_prime = _zero_kernel
        gain, lam = model.scattering_tables(freq, ang)
        assert not gain.any() and not lam.any()
        k_in, k_out = model.kernels(freq, ang)
        assert not k_in.any() and not k_out.any()
        assert len(model._kernel_cache) == 1


class TestSigmaRegularity:
    def test_zero_sigma_passes(self, grids128, settings):
        model = zero_model()
        rep = validate_sigma_regularity(model, np.ones(128), np.zeros(128),
                                        settings, grids128)
        assert rep.passed
        assert rep.entry("sigma_mixed_sup").value == 0.0

    def test_constant_sigma_measure(self, grids128, settings):
        # sigma = 1 independent of rho: gradient entries vanish and the L2
        # part of the mixed norm equals the square root of the phase measure
        model = constant_model(sigma0=1.0)
        rep = validate_sigma_regularity(model, np.ones(128), np.zeros(128),
                                        settings, grids128)
        measure = grids128.freq.band_weights.sum() * grids128.ang.weights.sum()
        expected = np.sqrt(measure) + 1.0  # L2 + Linf over phase space
        assert rep.entry("sigma_mixed_sup").value == pytest.approx(expected, rel=1e-12)
        assert rep.entry("grad_sigma_L2").value == 0.0
        assert rep.entry("sigma_t_mixed").value == 0.0

    @pytest.mark.parametrize("model", [
        constant_model(sigma0=0.5),
        compton_model(1.0, 1.0, 1.0, 1.0)], ids=["constant", "compton"])
    def test_background_far_field_has_no_gradient(self, grids128_far, settings, model):
        # far-field ghosts hold the background state, not zeros: a density at
        # rho_bar everywhere has no gradient, nor has a coefficient of rho alone
        rho = np.full(128, grids128_far.spatial.rho_bar)
        rep = validate_sigma_regularity(model, rho, np.zeros(128), settings, grids128_far)
        M = model.majorant(float(rho.max()))
        for name in ("grad_sigma_L2", "grad_sigma_L4"):
            assert rep.entry(name).value == 0.0
            assert rep.entry(name).bound == M * 1.0

    def test_pass_depends_on_majorant(self, grids128, settings):
        loose = constant_model(sigma0=1.0)
        loose.majorant = lambda s: 100.0 * (1.0 + s)
        assert validate_sigma_regularity(loose, np.ones(128), np.zeros(128),
                                         settings, grids128).passed
        tight = constant_model(sigma0=1.0)
        tight.majorant = lambda s: 1.0
        rep = validate_sigma_regularity(tight, np.ones(128), np.zeros(128),
                                        settings, grids128)
        assert not rep.passed

    def test_compton_with_bump_scale_found(self, grids128, settings):
        # the validator reports the scale C making M(s) = C (1 + s) work
        grid = grids128.spatial
        x = grid.axis_coords(0)
        rho = 1.0 + 0.5 * np.exp(-((x - 0.5) / 0.1) ** 2)
        rho_t = 0.1 * np.sin(2 * np.pi * x)
        probe = compton_model(1.0, 1.0, 1.0, 1.0)
        probe.majorant = lambda s: 1.0 + s
        rep = validate_sigma_regularity(probe, rho, rho_t, settings, grids128)
        assert all(np.isfinite(e.value) for e in rep.entries)
        scale = rep.suggested_scale
        tuned = compton_model(1.0, 1.0, 1.0, 1.0)
        tuned.majorant = lambda s: 1.01 * scale * (1.0 + s)
        assert validate_sigma_regularity(tuned, rho, rho_t, settings,
                                         grids128).passed

    def test_missing_majorant_is_config_error(self, grids128, settings):
        model = constant_model(sigma0=1.0)
        model.majorant = None
        with pytest.raises(ConfigError):
            validate_sigma_regularity(model, np.ones(128), np.zeros(128),
                                      settings, grids128)


class TestEmissionHook:
    def make_rho_dependent(self, scale=10.0):
        model = constant_model(0.0, 0.0, 0.0)
        model.emission = lambda v, omega, t, x, rho: 0.1 * rho
        model.emission_depends_rho = True
        model.majorant = lambda s: scale * (1.0 + s)
        return model

    def test_emission_bm_uses_density(self, grids128, rng):
        model = self.make_rho_dependent()
        rho = rng.random(128) + 0.1
        S = model.emission_bm(grids128, 0.0, rho)
        assert np.allclose(S, 0.1 * rho[None, None, :])

    def test_emission_bm_requires_density(self, grids128):
        model = self.make_rho_dependent()
        with pytest.raises(ConfigError):
            model.emission_bm(grids128, 0.0)

    def test_validator_passes_with_generous_majorant(self, grids128, settings):
        grid = grids128.spatial
        x = grid.axis_coords(0)
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * x)
        rep = validate_emission_regularity(self.make_rho_dependent(30.0), rho,
                                           np.zeros(128), settings, grids128)
        assert rep.passed

    def test_validator_rejects_density_independent(self, grids128, settings):
        with pytest.raises(ConfigError):
            validate_emission_regularity(constant_model(0.0, 0.0, 0.1),
                                         np.ones(128), np.zeros(128),
                                         settings, grids128)

    def test_validator_checks_majorant_range(self, grids128, settings):
        with pytest.raises(ConfigError, match="majorant must map into"):
            validate_emission_regularity(self.make_rho_dependent(scale=0.1),
                                         np.ones(128), np.zeros(128), settings, grids128)

    def test_validator_scale_mechanism(self, grids128, settings):
        grid = grids128.spatial
        x = grid.axis_coords(0)
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * x)
        probe = self.make_rho_dependent(scale=1.0)
        rep = validate_emission_regularity(probe, rho, 0.2 * np.cos(2 * np.pi * x),
                                           settings, grids128)
        tuned = self.make_rho_dependent(scale=1.01 * rep.suggested_scale)
        assert validate_emission_regularity(tuned, rho,
                                            0.2 * np.cos(2 * np.pi * x),
                                            settings, grids128).passed
