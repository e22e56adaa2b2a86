import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhlab import transport
from rhlab.errors import StepSizeError
from rhlab.grid import AngularQuadrature, FrequencyGrid, Grids, SpatialGrid, phase_weights
from rhlab.physics import CoefficientModel, compton_model, constant_model, zero_model
from rhlab.transport import (CFL_FRACTION, collision_decomposition, collision_term,
                             linearized_collision_term, momentum_source, radiation_flux,
                             free_streaming_step, radiation_pressure_tensor,
                             substep_transport, transport_cfl_limit, transport_step)

from _reference import brute_force_collision, broadcast_tables, loop_transport_step


@pytest.fixture
def grids_small():
    return Grids(SpatialGrid.periodic(8, 1.0),
                 FrequencyGrid.from_edges([0.5, 1.0, 2.0]),
                 AngularQuadrature.gauss_legendre_slab(4))


@pytest.fixture
def grids3d():
    return Grids(SpatialGrid.periodic((4, 4, 4), (1.0, 1.0, 1.0)),
                 FrequencyGrid.from_edges([1.0, 2.0]),
                 AngularQuadrature.corners3d())


def hand_case():
    """Single band (weight 1), two ordinates of weight 1, unit kernels."""
    grid = SpatialGrid.periodic(4, 1.0)
    ang = AngularQuadrature(np.array([[-0.5], [0.5]]), np.array([1.0, 1.0]),
                            2.0, slab=True)
    freq = FrequencyGrid.from_edges([1.0, 2.0])
    return Grids(grid, freq, ang)


class TestCollisionTerm:
    def test_all_zero(self, grids_small):
        I = np.zeros(grids_small.radiation_shape())
        out = collision_term(I, np.ones(8), zero_model(), grids_small, 0.0)
        assert np.all(out == 0.0)

    def test_emission_only(self, grids_small):
        model = constant_model(0.0, 0.0, 0.7)
        I = np.zeros(grids_small.radiation_shape())
        out = collision_term(I, np.ones(8), model, grids_small, 0.0)
        assert np.allclose(out, 0.7)

    def test_two_ordinate_hand_quadrature(self):
        grids = hand_case()
        model = constant_model(sigma0=0.7, kernel0=1.0, emission0=0.3)
        I = np.zeros((1, 2, 4))
        I[0, 0] = 1.0
        out = collision_term(I, np.ones(4), model, grids, 0.0)
        # ordinate 0: S + gain - sigma_a I - scattering loss
        #           = 0.3 + 1*1*1 - 0.7*1 - (1+1)*1*1 = -1.4
        assert np.allclose(out[0, 0], 0.3 + 1.0 - 0.7 - 2.0)
        # ordinate 1 only gains: 0.3 + 1 (from ordinate 0)
        assert np.allclose(out[0, 1], 0.3 + 1.0)

    def test_matches_brute_force(self, grids_small, rng):
        model = compton_model(
            0.8, 1.0, 1.2, 2.0,
            sigma_s_profile=lambda vf, vt, mu: 0.2 + 0.1 * np.asarray(mu) ** 2
                                               + 0.05 * vf / vt)
        I = rng.random(grids_small.radiation_shape())
        rho = rng.random(8) + 0.2
        fast = collision_term(I, rho, model, grids_small, 0.3)
        slow = brute_force_collision(I, rho, model, grids_small, 0.3)
        assert np.max(np.abs(fast - slow)) < 1e-13


class TestLinearizedCollision:
    def test_coincides_at_fixed_point(self, grids_small, rng):
        model = constant_model(0.4, 0.3, 0.1)
        I = rng.random(grids_small.radiation_shape())
        rho = rng.random(8) + 0.1
        full = collision_term(I, rho, model, grids_small, 0.0)
        lin = linearized_collision_term(I, I, rho, model, grids_small, 0.0)
        assert np.allclose(full, lin)

    def test_pure_removal(self, grids_small, rng):
        model = constant_model(0.4, 0.3, 0.0)
        I = rng.random(grids_small.radiation_shape())
        rho = np.ones(8)
        psi = np.zeros_like(I)
        out = linearized_collision_term(I, psi, rho, model, grids_small, 0.0)
        # removal rate: sigma_a + integral of sigma_s' = 0.4 + 0.3 * (1.5 * 2)
        lam = 0.4 + 0.3 * (grids_small.freq.band_weights.sum()
                           * grids_small.ang.weights.sum())
        assert np.allclose(out, -lam * I)

    def test_hand_case_with_distinct_psi(self):
        grids = hand_case()
        model = constant_model(0.0, 1.0, 0.0)
        I = np.zeros((1, 2, 4))
        psi = np.zeros((1, 2, 4))
        psi[0, 1] = 2.0
        out = linearized_collision_term(I, psi, np.ones(4), model, grids, 0.0)
        # gain from psi ordinate 1 only: kernel * weight * psi = 2.0; no removal
        assert np.allclose(out[0, 0], 2.0)
        assert np.allclose(out[0, 1], 2.0)


class TestMoments:
    def test_zero_field(self, grids3d):
        I = np.zeros(grids3d.radiation_shape())
        assert np.all(radiation_flux(I, grids3d) == 0.0)
        assert np.all(radiation_pressure_tensor(I, grids3d, 2.0) == 0.0)

    def test_isotropic(self, grids3d):
        I = np.ones(grids3d.radiation_shape())
        c = 2.0
        F = radiation_flux(I, grids3d)
        P = radiation_pressure_tensor(I, grids3d, c)
        assert np.max(np.abs(F)) < 1e-10
        eye = np.eye(3)
        for i in range(3):
            for j in range(3):
                expected = (4 * np.pi / (3 * c)) * eye[i, j]
                assert np.max(np.abs(P[i, j] - expected)) < 1e-8

    def test_single_ordinate_beam(self, grids3d):
        I = np.zeros(grids3d.radiation_shape())
        I[0, 3] = 2.0
        F = radiation_flux(I, grids3d)
        w = grids3d.freq.band_weights[0] * grids3d.ang.weights[3]
        expected = w * 2.0 * grids3d.ang.ordinates[3]
        for k in range(3):
            assert np.allclose(F[k], expected[k])


class TestMomentumSource:
    def test_zero(self, grids3d):
        I = np.zeros(grids3d.radiation_shape())
        out = momentum_source(I, np.ones(grids3d.spatial.extents), zero_model(),
                              grids3d, 0.0, 1.0)
        assert np.all(out == 0.0)

    def test_isotropic_symmetry(self, grids3d):
        model = constant_model(0.5, 0.2, 0.3)
        I = np.ones(grids3d.radiation_shape())
        out = momentum_source(I, np.ones(grids3d.spatial.extents), model,
                              grids3d, 0.0, 1.0)
        assert np.max(np.abs(out)) < 1e-8

    def test_absorbed_beam_direction_and_magnitude(self, grids3d):
        model = constant_model(sigma0=0.6)
        c = 3.0
        I = np.zeros(grids3d.radiation_shape())
        I[0, 5] = 1.5
        rho = np.full(grids3d.spatial.extents, 2.0)
        out = momentum_source(I, rho, model, grids3d, 0.0, c)
        w = grids3d.freq.band_weights[0] * grids3d.ang.weights[5]
        sigma_a = 0.6 * 2.0
        expected = (1.0 / c) * sigma_a * w * 1.5 * grids3d.ang.ordinates[5]
        for k in range(3):
            assert np.allclose(out[k], expected[k])


class TestTransportStep:
    def test_uniform_no_collision_unchanged(self, grids_small):
        I = np.full(grids_small.radiation_shape(), 3.0)
        out = transport_step(I, I, np.ones(8), zero_model(), grids_small,
                             0.05, 0.0, 1.0)
        assert np.allclose(out, 3.0)

    def test_exponential_decay(self):
        grids = Grids(SpatialGrid.periodic(8, 1.0),
                      FrequencyGrid.from_edges([1.0, 2.0]),
                      AngularQuadrature.gauss_legendre_slab(2))
        model = constant_model(sigma0=1.0)
        I = np.ones(grids.radiation_shape())
        dt = 1e-3
        for k in range(1000):
            I = transport_step(I, I, np.ones(8), model, grids, dt, k * dt, 1.0)
        assert np.max(np.abs(I - np.exp(-1.0))) / np.exp(-1.0) < 1e-3

    def test_beam_translation_exact_at_unit_cfl(self):
        n = 64
        grid = SpatialGrid.periodic(n, 1.0)
        grids = Grids(grid, FrequencyGrid.from_edges([1.0, 2.0]),
                      AngularQuadrature.beams_slab())
        c = 1.0
        dt = grid.spacing[0] / c
        x = grid.axis_coords(0)
        pulse = np.exp(-((x - 0.3) / 0.05) ** 2)
        I = np.zeros(grids.radiation_shape())
        I[0, 1] = pulse  # ordinate mu = +1
        steps = 16
        for k in range(steps):
            I = transport_step(I, I, np.ones(n), zero_model(), grids, dt,
                               k * dt, c)
        shifted = np.roll(pulse, steps)
        assert np.max(np.abs(I[0, 1] - shifted)) < 1e-13

    def test_spike_at_cfl_limit_with_c2(self):
        # the update is I - c dt Omega . grad I with one factor of c, the one
        # transport_cfl_limit assumes: at the limit a spike moves one cell
        # per step, stays nonnegative and keeps its total on a periodic grid
        grids = Grids(SpatialGrid.periodic(16, 1.0),
                      FrequencyGrid.from_edges([1.0, 2.0]),
                      AngularQuadrature.beams_slab())
        c = 2.0
        dt = transport_cfl_limit(grids, c)
        I = np.zeros(grids.radiation_shape())
        I[:, :, 5] = 1.0
        for out in (free_streaming_step(I, grids, dt, c),
                    transport_step(I, I, np.ones(16), zero_model(), grids, dt, 0.0, c)):
            assert np.min(out) >= 0.0
            assert np.sum(out[0], axis=-1) == pytest.approx([1.0, 1.0], rel=1e-14)

    def test_cfl_violation_raises(self, grids_small):
        I = np.ones(grids_small.radiation_shape())
        limit = transport_cfl_limit(grids_small, 1.0)
        with pytest.raises(StepSizeError):
            transport_step(I, I, np.ones(8), zero_model(), grids_small,
                           1.5 * limit, 0.0, 1.0)

    @pytest.mark.parametrize("dt", [-0.05, 0.0, -0.0, float("nan"), float("inf"),
                                    -float("inf")])
    def test_step_must_be_positive_and_finite(self, grids_small, dt):
        # one unit cell on an 8-cell periodic grid: a negative step would
        # drive it below 0, and a NaN step would return NaN everywhere
        I = np.zeros(grids_small.radiation_shape())
        I[..., 3] = 1.0
        rho, model = np.ones(8), constant_model(0.2, 0.05, 0.05)
        steps = (lambda: free_streaming_step(I, grids_small, dt, 1.0),
                 lambda: transport_step(I, I, rho, model, grids_small, dt, 0.0, 1.0),
                 lambda: substep_transport(I, I, rho, model, grids_small, dt, 0.0, 1.0))
        for step in steps:
            with pytest.raises(StepSizeError, match="positive and finite"):
                step()

    def test_positivity_exact(self, grids_small, rng):
        model = constant_model(0.8, 0.4, 0.2)
        limit = transport_cfl_limit(grids_small, 1.0)
        for _ in range(20):
            I = rng.random(grids_small.radiation_shape())
            psi = rng.random(grids_small.radiation_shape())
            rho = rng.random(8)
            out = transport_step(I, psi, rho, model, grids_small, 0.9 * limit,
                                 0.0, 1.0)
            assert np.min(out) >= 0.0

    def test_first_order_convergence_in_dt(self):
        grids = Grids(SpatialGrid.periodic(8, 1.0),
                      FrequencyGrid.from_edges([1.0, 2.0]),
                      AngularQuadrature.gauss_legendre_slab(2))
        model = constant_model(sigma0=1.0)

        def run(dt):
            I = np.ones(grids.radiation_shape())
            n = int(round(0.5 / dt))
            for k in range(n):
                I = transport_step(I, I, np.ones(8), model, grids, dt, k * dt, 1.0)
            return abs(float(I[0, 0, 0]) - np.exp(-0.5))

        e1, e2 = run(0.02), run(0.01)
        ratio = e1 / e2
        assert 1.6 <= ratio <= 2.4  # halving dt halves the error (+-20%)

    def test_2d_grid_with_3d_ordinates(self, rng):
        # streaming uses the first two ordinate components on a 2D grid
        grid = SpatialGrid.periodic((8, 8), (1.0, 1.0))
        grids = Grids(grid, FrequencyGrid.from_edges([1.0, 2.0]),
                      AngularQuadrature.corners3d())
        model = constant_model(0.5, 0.1, 0.2)
        from rhlab.transport import transport_cfl_limit as cfl
        limit = cfl(grids, 1.0)
        I = rng.random(grids.radiation_shape())
        rho = rng.random(grid.extents) + 0.1
        out = transport_step(I, I, rho, model, grids, 0.9 * limit, 0.0, 1.0)
        assert out.shape == grids.radiation_shape()
        assert np.min(out) >= 0.0
        uniform = np.full(grids.radiation_shape(), 2.0)
        out_u = transport_step(uniform, uniform, np.zeros(grid.extents),
                               zero_model(), grids, 0.9 * limit, 0.0, 1.0)
        assert np.allclose(out_u, 2.0)

    def test_rho_dependent_emission_through_collision(self, grids_small, rng):
        model = constant_model(0.0, 0.0, 0.0)
        model.emission = lambda v, omega, t, x, rho: 0.3 * rho
        model.emission_depends_rho = True
        rho = rng.random(8) + 0.2
        I = np.zeros(grids_small.radiation_shape())
        out = collision_term(I, rho, model, grids_small, 0.0)
        assert np.allclose(out, 0.3 * rho[None, None, :])

    def test_gain_loss_duality(self, rng):
        # symmetric kernel and a single band (v/v' = 1): the phase-space
        # integral of scattering gain minus loss vanishes identically
        grid = SpatialGrid.periodic(8, 1.0)
        grids = Grids(grid, FrequencyGrid.from_edges([1.0, 2.0]),
                      AngularQuadrature.gauss_legendre_slab(6))

        def kern(vf, vt, mu):
            return 0.3 + 0.2 * np.asarray(mu) ** 2

        model = CoefficientModel(
            sigma=lambda v, o, t, x, rho: np.zeros_like(rho),
            sigma_s_bar=kern, sigma_s_bar_prime=kern,
            emission=lambda v, o, t, x: 0.0)
        I = rng.random(grids.radiation_shape())
        rho = rng.random(8) + 0.1
        ar = collision_term(I, rho, model, grids, 0.0)
        w = np.multiply.outer(grids.freq.band_weights, grids.ang.weights)
        net = np.tensordot(w, ar, axes=([0, 1], [0, 1]))
        assert np.max(np.abs(net)) < 1e-8


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCoefficientTables:
    """The tables live on the coefficient callables, so nothing built from an
    earlier model state can be reused after a coefficient is replaced."""

    @pytest.mark.parametrize("attr", ["sigma", "emission"])
    def test_reassigned_coefficient_takes_effect(self, grids_small, rng, attr):
        model = constant_model(0.2, 0.05, 0.05)
        shape = grids_small.radiation_shape()
        I, psi, rho = rng.random(shape), rng.random(shape), rng.random(8)
        dt = 0.9 * transport_cfl_limit(grids_small, 1.0)
        collision_decomposition(psi, rho, model, grids_small, 0.0)
        transport_step(I, psi, rho, model, grids_small, dt, 0.0, 1.0)
        if attr == "sigma":
            model.sigma = lambda v, omega, t, x, rho: np.full_like(rho, 0.7)
            expected = constant_model(0.7, 0.05, 0.05)
        else:
            model.emission = lambda v, omega, t, x: 0.3
            expected = constant_model(0.2, 0.05, 0.3)
        assert not model.tabulated and expected.tabulated
        got = collision_decomposition(psi, rho, model, grids_small, 0.0)
        want = collision_decomposition(psi, rho, expected, grids_small, 0.0)
        assert _same(got.removal, want.removal) and _same(got.gain, want.gain)
        assert _same(transport_step(I, psi, rho, model, grids_small, dt, 0.0, 1.0),
                     transport_step(I, psi, rho, expected, grids_small, dt, 0.0, 1.0))
        assert _same(substep_transport(I, psi, rho, model, grids_small, 3 * dt, 0.0, 1.0),
                     substep_transport(I, psi, rho, expected, grids_small, 3 * dt, 0.0, 1.0))
        assert _same(momentum_source(I, rho, model, grids_small, 0.0, 1.0),
                     momentum_source(I, rho, expected, grids_small, 0.0, 1.0))

    def test_time_dependent_sigma_at_every_substep(self, grids_small, rng):
        seen = set()

        def sigma(v, omega, t, x, rho):
            seen.add(t)
            return np.full_like(rho, 1.0 + t * t)

        model = constant_model(0.0, 0.05, 0.05)
        model.sigma = sigma
        shape = grids_small.radiation_shape()
        I, psi, rho = rng.random(shape), rng.random(shape), rng.random(8)
        c, t0 = 1.0, 0.3
        dt = 3.5 * CFL_FRACTION * transport_cfl_limit(grids_small, c)
        n_sub, sub = 4, dt / 4
        got = substep_transport(I, psi, rho, model, grids_small, dt, t0, c)
        assert seen == {t0 + k * sub for k in range(n_sub)}
        want = I
        for k in range(n_sub):
            want = loop_transport_step(want, psi, rho, model, grids_small, sub,
                                       t0 + k * sub, c)
        assert _same(got, want)


class TestOneAdvance:
    def test_substep_transport_has_no_cfl_parameter(self):
        assert "cfl" not in inspect.signature(substep_transport).parameters

    def test_collisionless_substeps_are_free_streaming_steps(self, grids_small, rng,
                                                              monkeypatch):
        # each substep goes through the module-level name, which a tracer may wrap
        calls = []
        real = transport.free_streaming_step

        def counted(I_n, grids, dt, c):
            calls.append(dt)
            return real(I_n, grids, dt, c)

        monkeypatch.setattr(transport, "free_streaming_step", counted)
        I = rng.random(grids_small.radiation_shape())
        dt = 2.5 * transport_cfl_limit(grids_small, 1.0)
        rad = transport._radiation(zero_model(), grids_small, 1.0)
        got = transport._advance(I, None, None, rad, dt, 0.0)
        want = I
        for _ in range(3):       # ceil(2.5 / CFL_FRACTION) equal substeps
            want = real(want, grids_small, dt / 3, 1.0)
        assert calls == [dt / 3] * 3
        assert _same(got, want)


_SPATIAL = {1: lambda: SpatialGrid.periodic(16, 1.0),
            2: lambda: SpatialGrid.farfield((6, 6), (1.0, 1.0), 0.5)}
_ORDINATES = {1: lambda: AngularQuadrature.gauss_legendre_slab(4),
              2: AngularQuadrature.combined14}


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 2), c=st.floats(0.1, 10.0), limits=st.floats(1e-3, 3.0),
       kind=st.sampled_from(["constant", "compton"]), seed=st.integers(0, 2**32 - 1))
def test_substep_transport_positive(dim, c, limits, kind, seed):
    # each substep is at most CFL_FRACTION x the CFL limit, whatever c and dt are
    grids = Grids(_SPATIAL[dim](), FrequencyGrid.from_edges([0.5, 1.0, 2.0]),
                  _ORDINATES[dim]())
    rng = np.random.default_rng(seed)
    if kind == "constant":
        model = constant_model(*rng.uniform(0.0, 2.0, 3))
    else:
        model = compton_model(*rng.uniform(0.1, 3.0, 4), sigma_s_profile=lambda vf, vt, mu:
                              np.full_like(np.asarray(mu, dtype=float), 0.3))
    shape = grids.radiation_shape()
    I, psi = rng.uniform(0.0, 5.0, shape), rng.uniform(0.0, 5.0, shape)
    I[rng.random(shape) < 0.3] = 0.0
    rho = rng.uniform(0.0, 3.0, grids.spatial.extents)
    dt = limits * transport_cfl_limit(grids, c)
    out = substep_transport(I, psi, rho, model, grids, dt, 0.0, c)
    assert np.min(out) >= 0.0


class TestQuadratureCaches:
    """The CFL limit and the flux weights are cached by value; the cached
    forms are bit for bit the ``np.tensordot`` and loop forms they replace."""

    @staticmethod
    def cases():
        edges = np.array([0.5, 1.0, 2.0, 3.5])
        for lengths in ((1.0, 1.0), (0.7, 1.3)):
            yield Grids(SpatialGrid.periodic(12, lengths[0]), FrequencyGrid.from_edges(edges),
                        AngularQuadrature.gauss_legendre_slab(8))
            yield Grids(SpatialGrid.farfield((5, 6), lengths, 1.0),
                        FrequencyGrid.from_edges(edges[:3]), AngularQuadrature.combined14())

    def test_cached_forms_are_the_reference_forms(self):
        rng = np.random.default_rng(3)
        model = constant_model(0.3, 0.2, 0.1)
        for grids in self.cases():
            shape = grids.radiation_shape()
            I, psi = rng.uniform(0.0, 5.0, shape), rng.uniform(0.0, 5.0, shape)
            rho = rng.uniform(0.0, 3.0, grids.spatial.extents)
            w = phase_weights(grids.freq, grids.ang)
            o = grids.ang.ordinates
            flux = np.tensordot(w[..., None] * o[None, :, :], I, axes=([0, 1], [0, 1]))
            assert radiation_flux(I, grids).tobytes() == flux.tobytes()
            removal, emission, gain_matrix = broadcast_tables(model, grids, 0.0, rho)
            gain = emission + np.tensordot(gain_matrix, psi, axes=([2, 3], [0, 1])) * rho
            got = collision_decomposition(psi, rho, model, grids, 0.0)
            assert got.gain.tobytes() == gain.tobytes()
            assert got.removal.tobytes() == removal.tobytes()
            h = grids.spatial.spacing
            for c in (0.5, 3.0):
                worst = max(sum(abs(o[m, a]) / h[a] for a in range(len(h)))
                            for m in range(len(o)))
                assert transport_cfl_limit(grids, c) == 1.0 / (c * worst)

    def test_keyed_by_value(self):
        grids = next(self.cases())

        def misses(call, cached, *args):
            before = cached.cache_info().misses
            call(*args)
            return cached.cache_info().misses - before

        # other tests may have filled the cache with the quadratures below
        transport._cfl_limit.cache_clear()
        transport_cfl_limit(grids, 1.0)
        copy = Grids(SpatialGrid.periodic(12, 1.0),
                     FrequencyGrid.from_edges(grids.freq.band_edges.copy()),
                     AngularQuadrature.gauss_legendre_slab(8))
        assert misses(transport_cfl_limit, transport._cfl_limit, copy, 1.0) == 0
        edges = grids.freq.band_edges
        nudged = FrequencyGrid(edges, np.diff(edges) + [1e-13, 0.0, 0.0],
                               grids.freq.band_centers)
        six = Grids(grids.spatial, grids.freq, AngularQuadrature.gauss_legendre_slab(6))
        # the flux reads the nudged band weights, bit for bit the tensordot
        other = Grids(grids.spatial, nudged, grids.ang)
        I = np.ones(other.radiation_shape())
        want = np.tensordot(phase_weights(nudged, grids.ang)[..., None] * grids.ang.ordinates,
                            I, axes=([0, 1], [0, 1]))
        assert radiation_flux(I, other).tobytes() == want.tobytes()
        wider = Grids(SpatialGrid.periodic(12, 1.5), grids.freq, grids.ang)
        for other, c in ((six, 1.0), (wider, 1.0), (grids, 0.75)):
            assert misses(transport_cfl_limit, transport._cfl_limit, other, c) == 1
