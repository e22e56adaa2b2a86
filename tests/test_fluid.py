import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhlab import fluid

from rhlab.errors import (DomainError, ParameterError, ShapeError, SolverError,
                          StepSizeError)
from rhlab.fluid import (VelocityHistory, _clamp, _interp, _trace_backward,
                         continuity_step_characteristics, continuity_step_fv,
                         heat_smooth, lame_apply, momentum_step)
from rhlab.grid import SpatialGrid, divergence, gradient, inner_product, pad_ghost
from rhlab.norms import lp_norm
from rhlab.physics import EquationOfState, ViscosityParams, pressure

from conftest import random_smooth_field, random_smooth_vector
from _reference import (convection_matrix, layout_lame_matrix, layout_matrix,
                        loop_continuity_step_characteristics, loop_lame_apply,
                        momentum_matrix)
from _reference import lame_matrix as reference_lame_matrix


def _departure(hist, t, grid, substeps=None):
    """The departure points U(0; t, x) of a float ``t``, shape (dim,) +
    extents, and the count of clamped trace points."""
    pts, clamped, _ = _trace_backward(hist, t, grid, substeps)
    return pts[:, 0], clamped


class TestFlowMap:
    def test_zero_velocity(self, grid128):
        hist = VelocityHistory([0.0, 1.0], [np.zeros((1, 128))] * 2)
        departure, clamped = _departure(hist, 0.5, grid128)
        assert np.array_equal(departure[0], grid128.axis_coords(0))
        assert clamped == 0

    def test_constant_velocity(self, grid128):
        a = 0.125
        hist = VelocityHistory([0.0, 1.0], [np.full((1, 128), a)] * 2)
        departure, _ = _departure(hist, 0.5, grid128, substeps=10)
        expected = grid128.axis_coords(0) - a * 0.5
        assert np.max(np.abs(departure[0] - expected)) < 1e-13

    def test_linear_velocity_rk2_accuracy(self):
        # dU/ds = U gives U(0; t, x) = x exp(-t); interpolation is exact for
        # linear w, so the only error is the RK2 truncation
        grid = SpatialGrid.farfield(128, 1.0, 0.0)
        x = grid.axis_coords(0)
        w = x[None]
        t = 0.5
        times = np.linspace(0.0, t, 51)  # substep 1e-2
        hist = VelocityHistory(times, [w] * times.size)
        departure, _ = _departure(hist, t, grid)
        exact = x * np.exp(-t)
        # skip the first cell: its trajectory dips below the first cell
        # center where ghost interpolation distorts the linear profile
        assert np.max(np.abs(departure[0][1:] - exact[1:])) < 1e-4

    def test_out_of_domain_clamped_and_flagged(self):
        grid = SpatialGrid.farfield(16, 1.0, 0.0)
        w = np.full((1, 16), 4.0)  # sweeps everything out through the left
        hist = VelocityHistory([0.0, 1.0], [w, w])
        departure, clamped = _departure(hist, 1.0, grid, substeps=8)
        assert clamped > 0
        h = grid.spacing[0]
        assert np.min(departure[0]) >= -0.5 * h - 1e-12


class TestContinuityCharacteristics:
    def test_zero_velocity_identity(self, grid128, rng):
        rho0 = np.abs(random_smooth_field(grid128, rng)) + 0.1
        hist = VelocityHistory([0.0, 1.0], [np.zeros((1, 128))] * 2)
        out = continuity_step_characteristics(rho0, hist, 0.7, grid128)
        assert np.allclose(out, rho0, atol=1e-13)

    def test_linear_velocity_exact_decay(self):
        # rho_t + (rho w)_x = 0 with w = x and uniform rho0 = c0 gives
        # rho(t) = c0 exp(-t); at t = ln 2 the density halves
        grid = SpatialGrid.farfield(128, 1.0, 1.0)
        x = grid.axis_coords(0)
        t = np.log(2.0)
        times = np.linspace(0.0, t, 70)
        hist = VelocityHistory(times, [x[None]] * times.size)
        out = continuity_step_characteristics(np.ones(128), hist, t, grid)
        assert np.max(np.abs(out[3:-3] - 0.5)) < 1e-3

    def test_vacuum_plateau_preserved(self, rng):
        grid = SpatialGrid.farfield(128, 1.0, 1.0)
        x = grid.axis_coords(0)
        rho0 = np.where(np.abs(x - 0.5) < 0.15, 0.0, 1.0)
        w = 0.02 * np.sin(2 * np.pi * x)[None]
        hist = VelocityHistory([0.0, 1.0], [w, w])
        out = continuity_step_characteristics(rho0, hist, 0.1, grid, substeps=10)
        assert np.min(out) >= 0.0
        # departure points near the plateau center stay inside it: exact zeros
        center = np.abs(x - 0.5) < 0.05
        assert np.all(out[center] == 0.0)

    def test_clamped_at_far_edge_nonnegative(self):
        # with 26 cells on [0, 1), x / h - 0.5 at the padded domain's right
        # edge rounds past 26, which used to give the last cell a weight of
        # -3.6e-15 and ten cells a negative density
        grid = SpatialGrid.farfield(26, 1.0, 0.0)
        hist = VelocityHistory([0.0, 1.0], [np.full((1, 26), -5.0)] * 2)
        out = continuity_step_characteristics(np.ones(26), hist, 1.0, grid, substeps=4)
        assert np.min(out) >= 0.0
        assert np.all(out[:10] == 0.0)

    def test_vacuum_stays_zero_where_exp_overflows(self):
        # strong compression, w = -1000 (x - 1/2): exp(-int div w) overflows
        # to inf, and where rho0 at the departure point is 0 the density is
        # still 0 (0 * inf used to make 18 of the 20 vacuum cells NaN)
        grid = SpatialGrid.farfield(32, 1.0, 0.0)
        x = grid.axis_coords(0)
        rho0 = np.where(np.abs(x - 0.5) < 0.2, 1.0, 0.0)
        hist = VelocityHistory([0.0, 1.0], [-1000.0 * (x - 0.5)[None]] * 2)
        with np.errstate(over="ignore", invalid="ignore"):
            out = continuity_step_characteristics(rho0, hist, 1.0, grid, substeps=4)
            ref = loop_continuity_step_characteristics(rho0, hist, 1.0, grid, substeps=4)
        departure, _ = _departure(hist, 1.0, grid, substeps=4)
        vacuum = _interp(pad_ghost(rho0, grid, 0.0), grid,
                         _clamp(departure.copy(), grid)) == 0.0
        assert np.count_nonzero(vacuum) == 20 and np.any(np.isinf(out))
        assert not np.any(np.isnan(out))
        assert np.all(out[vacuum] == 0.0)
        assert out.tobytes() == ref.tobytes()

    def test_negative_initial_density_rejected(self, grid128):
        hist = VelocityHistory([0.0, 1.0], [np.zeros((1, 128))] * 2)
        with pytest.raises(DomainError):
            continuity_step_characteristics(-np.ones(128), hist, 0.1, grid128)


def test_intended_overflow_raises_no_warning():
    # exp(-int div w) overflows where the flow compresses for long enough:
    # the overflow is intended (vacuum stays 0), so it raises no RuntimeWarning
    grid = SpatialGrid.periodic(8, 1.0)
    w = 50.0 * np.sin(2 * np.pi * grid.axis_coords(0))[None]
    hist = VelocityHistory([0.0, 20.0], [w, w])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = continuity_step_characteristics(np.ones(8), hist, 20.0, grid)
    assert np.all(rho >= 0.0)


class TestTraceValidation:
    """Start times and substep counts are checked before any tracing."""

    @pytest.fixture
    def hist(self):
        return VelocityHistory([0.0, 1.0], [np.full((1, 16), 3.0)] * 2)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -0.5, [0.1, np.nan], [0.2, -0.1]])
    @pytest.mark.parametrize("trace", [_trace_backward, continuity_step_characteristics])
    def test_bad_start_time(self, hist, t, trace):
        grid = SpatialGrid.periodic(16, 1.0)
        args = (hist, t, grid) if trace is _trace_backward \
            else (np.ones(16), hist, t, grid)
        with pytest.raises(ParameterError):
            trace(*args)

    @pytest.mark.parametrize("substeps", [0, -3])
    @pytest.mark.parametrize("trace", [_trace_backward, continuity_step_characteristics])
    def test_bad_substeps(self, hist, substeps, trace):
        grid = SpatialGrid.periodic(16, 1.0)
        args = (hist, 0.5, grid) if trace is _trace_backward \
            else (np.ones(16), hist, 0.5, grid)
        with pytest.raises(ParameterError):
            trace(*args, substeps=substeps)

    def test_two_dimensional_start_times_rejected(self, hist):
        with pytest.raises(ShapeError):
            _trace_backward(hist, np.zeros((2, 2)), SpatialGrid.periodic(16, 1.0))


class TestStepSize:
    @pytest.mark.parametrize("dt", [-0.01, 0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("step", ["continuity_fv", "momentum"])
    def test_step_must_be_positive_and_finite(self, step, dt):
        # a NaN step used to give all-NaN densities, a negative one a backward
        # step, and a zero momentum step divide-by-zero warnings
        grid = SpatialGrid.periodic(8, 1.0)
        rng = np.random.default_rng(0)
        rho = rng.uniform(0.5, 1.5, 8)
        w = 0.3 * rng.normal(size=(1, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError, match="positive and finite"):
                if step == "continuity_fv":
                    continuity_step_fv(rho, w, dt, grid)
                else:
                    momentum_step(w, rho, w, rho, np.zeros((1, 8)), ViscosityParams(1.0, 0.0),
                                  dt, grid)


class TestVelocityHistoryValidation:
    @pytest.mark.parametrize("times", [[0.0, np.nan], [np.nan, 1.0], [0.0, np.inf]])
    def test_non_finite_times(self, times):
        with pytest.raises(DomainError):
            VelocityHistory(times, [np.zeros((1, 8))] * 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field(self, bad):
        w = np.zeros((1, 8))
        w[0, 3] = bad
        with pytest.raises(DomainError):
            VelocityHistory([0.0, 1.0], [np.zeros((1, 8)), w])

    def test_unequal_field_shapes(self):
        with pytest.raises(ShapeError):
            VelocityHistory([0.0, 1.0], [np.zeros((1, 8)), np.zeros((1, 9))])

    @pytest.mark.parametrize("duration", [np.nan, np.inf])
    def test_heat_smooth_non_finite_duration(self, duration):
        with pytest.raises(ParameterError):
            heat_smooth(np.zeros((1, 8)), SpatialGrid.periodic(8, 1.0), duration)


def _domain_case(step, bad):
    """Call ``step`` on an 8-cell periodic grid with rho = linspace(0.5,
    1.5, 8), and with ``bad`` put into cell 3: a NaN or negative density, or
    a NaN velocity (w = 0.3 elsewhere)."""
    grid = SpatialGrid.periodic(8, 1.0)
    rho, w = np.linspace(0.5, 1.5, 8), np.full((1, 8), 0.3)
    if bad == "nan_velocity":
        w[0, 3] = np.nan
    else:
        rho[3] = np.nan if bad == "nan_density" else -0.5
    if step == "continuity_fv":
        return continuity_step_fv(rho, w, 0.01, grid)
    if step == "characteristics":
        hist = VelocityHistory([0.0, 0.01], [np.zeros((1, 8))] * 2)
        return continuity_step_characteristics(rho, hist, 0.01, grid)
    if step == "momentum":
        return momentum_step(np.zeros((1, 8)), rho, None, np.ones(8), np.zeros((1, 8)),
                             ViscosityParams(1.0, 0.0), 0.01, grid)
    return pressure(EquationOfState.polytropic(1.0, 2.0), rho, grid)


@pytest.mark.parametrize("step, bad", [
    ("continuity_fv", "nan_density"), ("continuity_fv", "negative_density"),
    ("continuity_fv", "nan_velocity"), ("characteristics", "nan_density"),
    ("momentum", "nan_density"), ("pressure", "nan_density")])
def test_nan_or_negative_density_and_nan_velocity_are_domain_errors(step, bad):
    # each returned NaN or negative densities, or (momentum) failed in its
    # solver; a negative density was already refused by the other steps
    with pytest.raises(DomainError) as err:
        _domain_case(step, bad)
    assert err.value.exit_code == 2


def test_infinite_velocity_keeps_its_cfl_error():
    grid = SpatialGrid.periodic(8, 1.0)
    w = np.zeros((1, 8))
    w[0, 3] = np.inf
    with pytest.raises(StepSizeError, match="CFL"):
        continuity_step_fv(np.ones(8), w, 0.01, grid)


@pytest.mark.parametrize("dim", [1, 2])
def test_opposite_infinite_velocities_are_a_cfl_error(dim):
    # their face is inf + -inf = NaN, yet no velocity is NaN: the CFL error
    # of any infinite velocity, without an "invalid value" warning
    grid = SpatialGrid.periodic([8] * dim, [1.0] * dim)
    w = np.zeros((dim,) + grid.extents)
    w[(0, 3) + (0,) * (dim - 1)] = np.inf
    w[(0, 4) + (0,) * (dim - 1)] = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeError, match="CFL") as err:
            continuity_step_fv(np.ones(grid.extents), w, 0.01, grid)
    assert err.value.exit_code == 3


class TestContinuityFV:
    def test_zero_velocity(self, grid128, rng):
        rho = np.abs(random_smooth_field(grid128, rng))
        out = continuity_step_fv(rho, np.zeros((1, 128)), 0.01, grid128)
        assert np.array_equal(out, rho)

    def test_mass_conservation(self, grid128, rng):
        for _ in range(10):
            rho = np.abs(random_smooth_field(grid128, rng)) + 0.05
            w = random_smooth_vector(grid128, rng, amplitude=0.5)
            dt = 0.5 * grid128.spacing[0] / (np.max(np.abs(w)) + 1e-9)
            out = continuity_step_fv(rho, w, dt, grid128)
            drift = abs(out.sum() - rho.sum()) / rho.sum()
            assert drift < 1e-13
            assert np.min(out) >= 0.0

    def test_square_pulse_upwind_monotone(self, grid128):
        x = grid128.axis_coords(0)
        rho = np.where(np.abs(x - 0.3) < 0.1, 1.0, 0.0)
        w = np.full((1, 128), 0.5)
        dt = 0.8 * grid128.spacing[0] / 0.5
        mass0 = rho.sum()
        out = rho
        steps = int(round(1.0 / (0.5 * dt)))  # one full period
        for _ in range(steps):
            out = continuity_step_fv(out, w, dt, grid128)
        assert out.sum() == pytest.approx(mass0, rel=1e-12)
        assert out.max() <= rho.max() + 1e-12
        assert out.min() >= 0.0

    def test_cfl_violation_raises(self, grid128):
        rho = np.ones(128)
        w = np.full((1, 128), 1.0)
        with pytest.raises(StepSizeError):
            continuity_step_fv(rho, w, 10.0 * grid128.spacing[0], grid128)

    def test_agreement_with_characteristics(self, rng):
        # both paths converge to the same solution on smooth data; their
        # mutual distance shrinks at first order under refinement
        diffs = []
        for n in (64, 128):
            grid = SpatialGrid.periodic(n, 1.0)
            x = grid.axis_coords(0)
            rho0 = 1.0 + 0.4 * np.sin(2 * np.pi * x)
            w = (0.3 + 0.1 * np.cos(2 * np.pi * x))[None]
            T = 0.2
            steps = 4 * n  # dt scales with h
            dt = T / steps
            rho_fv = rho0
            for _ in range(steps):
                rho_fv = continuity_step_fv(rho_fv, w, dt, grid)
            hist = VelocityHistory([0.0, T], [w, w])
            rho_ch = continuity_step_characteristics(rho0, hist, T, grid,
                                                     substeps=steps)
            diffs.append(lp_norm(rho_fv - rho_ch, 2.0, grid))
        assert diffs[0] / diffs[1] >= 1.7


class TestLame:
    def test_constant_field(self, grid128, visc):
        assert np.all(lame_apply(np.full((1, 128), 2.0), visc, grid128) == 0.0)

    def test_sine_eigenfunction(self, grid256, visc):
        x = grid256.axis_coords(0)
        u = np.sin(2 * np.pi * x)[None]
        Lu = lame_apply(u, visc, grid256)
        expected = (2 * visc.mu + visc.lam) * (2 * np.pi) ** 2
        ratio = np.max(Lu) / np.max(u)
        assert ratio == pytest.approx(expected, rel=5e-3)

    def test_energy_identity(self, grid128, rng):
        visc = ViscosityParams(mu=0.7, lam=0.4)
        for _ in range(20):
            u = random_smooth_vector(grid128, rng)
            lhs = inner_product(lame_apply(u, visc, grid128), u, grid128)
            grad_sq = sum(lp_norm(gradient(u[j], grid128), 2.0, grid128) ** 2
                          for j in range(grid128.dim))
            div_sq = lp_norm(divergence(u, grid128), 2.0, grid128) ** 2
            rhs = visc.mu * grad_sq + (visc.lam + visc.mu) * div_sq
            assert abs(lhs - rhs) < 1e-9

    def test_energy_identity_2d(self, rng, visc):
        grid = SpatialGrid.periodic((16, 16), (1.0, 1.0))
        for _ in range(5):
            u = random_smooth_vector(grid, rng)
            lhs = inner_product(lame_apply(u, visc, grid), u, grid)
            grad_sq = sum(lp_norm(gradient(u[j], grid), 2.0, grid) ** 2
                          for j in range(2))
            div_sq = lp_norm(divergence(u, grid), 2.0, grid) ** 2
            rhs = visc.mu * grad_sq + (visc.lam + visc.mu) * div_sq
            assert abs(lhs - rhs) < 1e-9

    @settings(max_examples=100)
    @given(dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           mu=st.floats(1e-3, 1e3), lam_excess=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
           log_amplitude=st.floats(-4.0, 4.0), smooth=st.booleans())
    def test_energy_identity_property(self, dim, seed, mu, lam_excess, log_amplitude,
                                      smooth):
        # <L u, u> = mu |grad u|^2 + (lam + mu) |div u|^2 on any periodic grid,
        # for any admissible lam >= -2 mu / 3, up to rounding in the sums
        rng = np.random.default_rng(seed)
        cells = tuple(int(n) for n in rng.integers(4, {1: 40, 2: 12, 3: 7}[dim], dim))
        grid = SpatialGrid.periodic(cells, tuple(rng.uniform(0.2, 5.0, dim)))
        visc = ViscosityParams(mu=mu, lam=lam_excess - 2.0 * mu / 3.0)
        u = random_smooth_vector(grid, rng) if smooth \
            else rng.normal(size=(dim,) + cells)
        u *= 10.0 ** log_amplitude
        Lu = lame_apply(u, visc, grid)
        lhs = inner_product(Lu, u, grid)
        grad_sq = sum(lp_norm(gradient(u[j], grid), 2.0, grid) ** 2 for j in range(dim))
        div_sq = lp_norm(divergence(u, grid), 2.0, grid) ** 2
        rhs = visc.mu * grad_sq + (visc.lam + visc.mu) * div_sq
        terms = rhs + inner_product(np.abs(Lu), np.abs(u), grid)
        assert abs(lhs - rhs) <= 1e-13 * terms

    def test_ellipticity(self, grid128, rng):
        visc = ViscosityParams(mu=1.0, lam=-0.6)  # lam + 2mu/3 > 0
        for _ in range(10):
            u = random_smooth_vector(grid128, rng)
            assert inner_product(lame_apply(u, visc, grid128), u, grid128) >= -1e-12

    def test_matrix_matches_operator(self, grid128, visc, rng):
        # the layout's Lame block against the gradient/divergence composition
        u = random_smooth_vector(grid128, rng)
        direct = loop_lame_apply(u, visc, grid128)
        via_matrix = lame_apply(u, visc, grid128)
        assert np.max(np.abs(direct - via_matrix)) < 1e-12

    def test_matrix_matches_operator_farfield(self, visc, rng):
        grid = SpatialGrid.farfield(64, 1.0, 1.0)
        u = np.zeros((1, 64))
        u[0] = rng.standard_normal(64)
        direct = loop_lame_apply(u, visc, grid)
        via_matrix = lame_apply(u, visc, grid)
        assert np.allclose(direct, via_matrix, rtol=1e-12, atol=1e-11)


class TestMomentumStep:
    def test_zero_forcing_zero_state(self, grid128, visc):
        out = momentum_step(np.zeros((1, 128)), np.ones(128), None,
                            np.ones(128), np.zeros((1, 128)), visc, 0.01, grid128)
        assert np.all(out == 0.0)

    def test_manufactured_solution(self, grid128, visc):
        # pick u*, force the system with rho u*/dt + L u*: the solve must
        # return u* starting from a zero initial guess
        x = grid128.axis_coords(0)
        ustar = np.sin(2 * np.pi * x)[None]
        rho = np.ones(128)
        dt = 0.01
        forcing = rho[None] * ustar / dt + lame_apply(ustar, visc, grid128)
        out = momentum_step(np.zeros((1, 128)), rho, None, np.ones(128),
                            forcing, visc, dt, grid128)
        assert np.max(np.abs(out - ustar)) < 1e-8

    def test_equilibrium(self, grid128, visc):
        out = momentum_step(np.zeros((1, 128)), np.full(128, 2.0), None,
                            np.full(128, 4.0), np.zeros((1, 128)), visc,
                            0.01, grid128)
        assert np.max(np.abs(out)) < 1e-10

    def test_viscous_energy_decay(self, grid128, rng):
        visc = ViscosityParams(mu=0.5, lam=0.2)
        rho = np.ones(128)
        u = random_smooth_vector(grid128, rng)
        p = np.ones(128)
        zero_f = np.zeros_like(u)

        def energy(v):
            grad_sq = lp_norm(gradient(v[0], grid128), 2.0, grid128) ** 2
            div_sq = lp_norm(divergence(v, grid128), 2.0, grid128) ** 2
            return visc.mu * grad_sq + (visc.lam + visc.mu) * div_sq

        energies = [energy(u)]
        for _ in range(5):
            u = momentum_step(u, rho, None, p, zero_f, visc, 0.01, grid128)
            energies.append(energy(u))
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-10

    def test_vacuum_cells_elliptic_balance(self, visc):
        # rho = 0 on part of the domain: the solve still succeeds and the
        # vacuum rows satisfy L u = rhs there
        grid = SpatialGrid.farfield(64, 1.0, 1.0)
        x = grid.axis_coords(0)
        rho = np.where(np.abs(x - 0.5) < 0.2, 0.0, 1.0)
        f = 0.1 * np.sin(2 * np.pi * x)[None]
        out = momentum_step(np.zeros((1, 64)), rho, None, np.ones(64), f,
                            visc, 0.01, grid, p_ref=1.0)
        residual = lame_apply(out, visc, grid) + rho[None] * out / 0.01 - f
        assert np.max(np.abs(residual)) < 1e-7

    def test_upwind_convection_included(self, grid128, visc, rng):
        # solving with w != 0 must reproduce the assembled operator applied
        # to the returned state
        rho = np.abs(random_smooth_field(grid128, rng)) + 0.5
        w = random_smooth_vector(grid128, rng, amplitude=0.3)
        u_n = random_smooth_vector(grid128, rng, amplitude=0.2)
        p = np.abs(random_smooth_field(grid128, rng)) + 1.0
        dt = 0.01
        out = momentum_step(u_n, rho, w, p, np.zeros_like(u_n), visc, dt, grid128)
        # residual check in operator form
        conv = (convection_matrix(rho, w, grid128) @ out.reshape(-1)).reshape(out.shape)
        lhs = rho[None] * (out - u_n) / dt + conv + lame_apply(out, visc, grid128)
        rhs = -gradient(p, grid128)
        assert np.max(np.abs(lhs - rhs)) < 1e-7

    @pytest.mark.parametrize("case", ["singular", "residual", "non-finite", "illegal"])
    def test_band_factor_fallback(self, grid128, visc, monkeypatch, case):
        # the 1D band LU has no fallback: dgbsv reporting an exactly singular
        # factor (info > 0), an x whose residual exceeds RTOL or that is not
        # finite, or an illegal argument (info < 0) raises SolverError naming
        # band LU, and no Krylov routine is called
        dgbsv, calls = fluid.lapack.dgbsv, []

        def fake_dgbsv(*args, **kwargs):
            calls.append("dgbsv")
            lub, piv, x, info = dgbsv(*args, **kwargs)
            if case == "singular":
                return lub, piv, x, 3
            if case == "residual":
                return lub, piv, x * (1.0 + 1e-6), info
            if case == "non-finite":
                return lub, piv, np.where(np.arange(x.size) == 5, np.nan, x), info
            return lub, piv, x, -4

        def krylov(*args, **kwargs):
            raise AssertionError("Krylov path used")

        monkeypatch.setattr(fluid.lapack, "dgbsv", fake_dgbsv)
        for name in ("_cg", "_bicgstab"):
            monkeypatch.setattr(fluid, name, krylov)
        ustar = np.sin(2 * np.pi * grid128.axis_coords(0))[None]
        rho, dt = np.ones(128), 0.01
        forcing = rho[None] * ustar / dt + lame_apply(ustar, visc, grid128)
        with pytest.raises(SolverError) as err:
            momentum_step(np.zeros((1, 128)), rho, None, np.ones(128), forcing, visc, dt,
                          grid128)
        assert calls == ["dgbsv"]
        assert err.value.iterations is None
        if case == "illegal":
            assert str(err.value) == "band LU: dgbsv rejected its argument 4"
            assert err.value.residual is None
            return
        if case == "residual":
            assert 1e-7 < err.value.residual < 1e-5
            why = f"relative residual {err.value.residual:.3e}"
        else:
            assert err.value.residual is None
            why = "singular, dgbsv info 3" if case == "singular" else "non-finite values"
        assert str(err.value) == ("momentum solve failed to reach relative residual "
                                  f"1.0e-10; tried band LU ({why})")

    @pytest.mark.parametrize("boundary", ["periodic", "farfield"])
    @pytest.mark.parametrize("with_w", [False, True])
    def test_parity_vacuum_singular(self, visc, rng, monkeypatch, boundary, with_w):
        # the centered-square Lame stencil couples only cells two apart, so a
        # parity class entirely in vacuum leaves the 1D system singular (on
        # far-field grids when that class is the larger one, n odd): the band
        # LU says so at once, without a Krylov retry
        def krylov(*args, **kwargs):
            raise AssertionError("Krylov path used")

        for name in ("_cg", "_bicgstab"):
            monkeypatch.setattr(fluid, name, krylov)
        grid = SpatialGrid.periodic(64, 1.0) if boundary == "periodic" \
            else SpatialGrid.farfield(63, 1.0, 1.0)
        n = grid.extents[0]
        rho = rng.uniform(0.5, 2.0, n)
        rho[0::2] = 0.0
        w = rng.normal(size=(1, n)) if with_w else None
        start = time.perf_counter()
        with pytest.raises(SolverError, match=r"; tried band LU \("):
            momentum_step(np.zeros((1, n)), rho, w, np.ones(n), rng.normal(size=(1, n)),
                          visc, 0.01, grid)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("with_w", [False, True])
    def test_band_solve_without_krylov(self, visc, rng, monkeypatch, with_w):
        # the 1D solves, periodic (with or without convection) and far field
        # with a vacuum core, never reach Krylov: a slide back to it fails here
        def krylov(*args, **kwargs):
            raise AssertionError("Krylov path used")

        for name in ("_cg", "_bicgstab"):
            monkeypatch.setattr(fluid, name, krylov)
        grid = SpatialGrid.periodic(128, 1.0)
        rho = np.abs(random_smooth_field(grid, rng)) + 0.5
        w = random_smooth_vector(grid, rng, amplitude=0.3) if with_w else None
        u_n = random_smooth_vector(grid, rng, amplitude=0.2)
        out = momentum_step(u_n, rho, w, np.ones(128), np.zeros_like(u_n), visc, 0.01, grid)
        A = momentum_matrix(rho, w, visc, 0.01, grid)
        b = (rho[None] * u_n / 0.01).reshape(-1)
        assert np.linalg.norm(b - A @ out.reshape(-1)) <= 1e-10 * np.linalg.norm(b)

        grid = SpatialGrid.farfield(64, 1.0, 1.0)
        x = grid.axis_coords(0)
        rho = np.where(np.abs(x - 0.5) < 0.2, 0.0, 1.0)
        f = 0.1 * np.sin(2 * np.pi * x)[None]
        out = momentum_step(np.zeros((1, 64)), rho, None, np.ones(64), f,
                            visc, 0.01, grid, p_ref=1.0)
        residual = lame_apply(out, visc, grid) + rho[None] * out / 0.01 - f
        assert np.max(np.abs(residual)) < 1e-7

    @pytest.mark.parametrize("grid, tried, iterations", [
        (SpatialGrid.periodic(128, 1.0), "band LU (singular, dgbsv info 3)", None),
        (SpatialGrid.periodic(128, 1.0), "band LU (relative residual 1.000e+00)", None),
        (SpatialGrid.periodic((8, 8), (1.0, 1.0)), "Lame-cg (relative residual 1.000e+00)", 7)],
        ids=["singular", "residual", "2d"])
    def test_solver_error_names_every_path(self, visc, monkeypatch, grid, tried, iterations):
        # when the solve fails, the error names the one path tried and why it
        # was left: band LU in 1D, Lame-cg in 2D
        dgbsv = fluid.lapack.dgbsv

        def fake_dgbsv(*args, **kwargs):
            lub, piv, x, info = dgbsv(*args, **kwargs)
            return (lub, piv, x, 3) if "singular" in tried else (lub, piv, 2.0 * x, info)

        def krylov(info):
            return lambda matvec, x0, *args: (np.zeros_like(x0), info)

        monkeypatch.setattr(fluid.lapack, "dgbsv", fake_dgbsv)
        monkeypatch.setattr(fluid, "_cg", krylov(7))
        # u = 1 solves the system, so the doubled x leaves residual 1
        u_n = np.ones((grid.dim,) + grid.extents)
        with pytest.raises(SolverError) as err:
            momentum_step(u_n, np.ones(grid.extents), None, np.ones(grid.extents),
                          np.zeros_like(u_n), visc, 0.01, grid)
        assert str(err.value) == (
            "momentum solve failed to reach relative residual 1.0e-10; tried " + tried)
        if "singular" in tried:
            assert err.value.residual is None
        else:
            assert err.value.residual == pytest.approx(1.0, rel=1e-12)
        assert err.value.iterations == iterations   # the routine's count, not MAXITER

    @pytest.mark.parametrize("info", [0, -1])
    def test_solver_error_iterations_unknown(self, visc, monkeypatch, info):
        # a routine that claims convergence (0) or breaks down (< 0) gives no
        # iteration count
        monkeypatch.setattr(fluid, "_cg", lambda matvec, x0, psolve, r0, atol, limit:
                            (np.zeros_like(x0), info))
        grid = SpatialGrid.periodic((8, 8), (1.0, 1.0))
        u_n = np.ones((2, 8, 8))
        with pytest.raises(SolverError) as err:
            momentum_step(u_n, np.ones((8, 8)), None, np.ones((8, 8)),
                          np.zeros_like(u_n), visc, 0.01, grid)
        assert err.value.iterations is None

    def test_overflowing_bicgstab_raises_without_warnings(self, visc, recwarn,
                                                          monkeypatch):
        # a checkerboard-vacuum 4x4 periodic system with strong convection:
        # Lame-bicgstab's residual grows without bound, and its iterates would
        # overflow; bicgstab stops once the residual passes DIVERGENCE |b|,
        # instead of running on to overflow or to MAXITER (2 * MAXITER
        # products), which ends in the diverged SolverError and leaks no
        # RuntimeWarning
        matvec, products = fluid._matvec, []

        def counting(*args):
            products.append(1)
            return matvec(*args)

        monkeypatch.setattr(fluid, "_matvec", counting)
        grid = SpatialGrid.periodic((4, 4), (1.0, 1.0))
        rho = np.ones((4, 4))
        rho[::2, ::2] = rho[1::2, 1::2] = 0.0
        rng = np.random.default_rng(0)
        w = rng.normal(0.0, 10.0, (2, 4, 4))
        f = rng.normal(size=(2, 4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError) as err:
                momentum_step(np.zeros((2, 4, 4)), rho, w, np.zeros((4, 4)), f,
                              visc, 1e-3, grid)
        assert re.search(r"tried Lame-bicgstab \(diverged, relative residual [^)]+\)$",
                         str(err.value))
        assert err.value.iterations is None
        assert len(recwarn) == 0
        assert len(products) < fluid.MAXITER

    @pytest.mark.parametrize("with_w", [False, True])
    def test_parity_vacuum_2d_fails_fast(self, visc, with_w):
        # a 2D periodic system with one parity class all vacuum is singular:
        # Lame-cg or Lame-bicgstab stops once its residual passes
        # DIVERGENCE |b| and gives up well within a second, with no
        # RuntimeWarning
        grid = SpatialGrid.periodic((8, 8), (1.0, 1.0))
        rng = np.random.default_rng(0)
        rho = rng.uniform(0.5, 2.0, (8, 8))
        rho[::2, ::2] = 0.0
        w = rng.normal(size=(2, 8, 8)) if with_w else None
        f = rng.normal(size=(2, 8, 8))
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = "Lame-bicgstab" if with_w else "Lame-cg"
            with pytest.raises(SolverError, match=rf"tried {path} \(diverged, "):
                momentum_step(np.zeros((2, 8, 8)), rho, w, np.ones((8, 8)), f, visc, 0.01,
                              grid)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("case", ["w exact", "w far off", "w zero"])
    def test_krylov_start(self, visc, rng, monkeypatch, case):
        # the 2D Krylov solve starts from whichever of u_n and w has the
        # smaller residual, and from u_n without convection
        starts = {}

        def recording(name):
            routine = getattr(fluid, "_" + name)

            def solve(matvec, x0, *args):
                starts[name] = x0.copy()
                return routine(matvec, x0, *args)
            return solve

        for name in ("cg", "bicgstab"):
            monkeypatch.setattr(fluid, "_" + name, recording(name))
        # a far-field grid with a vacuum core; f is chosen so that ustar
        # solves the system, and u_n lies near it
        grid = SpatialGrid.farfield((32, 32), (1.0, 1.0), 1.0)
        r2 = sum((x - 0.5) ** 2 for x in grid.coords())
        rho = np.where(r2 < 0.2 ** 2, 0.0, 1.0 + 0.5 * np.exp(-r2 / 0.1))
        ustar = random_smooth_vector(grid, rng, amplitude=0.3)
        u_n = ustar + random_smooth_vector(grid, rng, amplitude=0.01)
        w = {"w exact": ustar,
             "w far off": random_smooth_vector(grid, rng, amplitude=0.6),
             "w zero": np.zeros_like(ustar)}[case]
        p = np.abs(random_smooth_field(grid, rng)) + 1.0
        dt = 0.002
        A = momentum_matrix(rho, w, visc, dt, grid)
        b = A @ ustar.reshape(-1)
        f = b.reshape(ustar.shape) - (rho[None] * u_n / dt
                                      - gradient(p, grid, farfield_value=1.0))
        out = momentum_step(u_n, rho, w, p, f, visc, dt, grid, p_ref=1.0)
        assert np.linalg.norm(b - A @ out.reshape(-1)) <= 1e-10 * np.linalg.norm(b)
        if case == "w exact":
            assert list(starts) == ["bicgstab"]
            np.testing.assert_array_equal(starts["bicgstab"], ustar.reshape(-1))
            np.testing.assert_allclose(out, ustar, rtol=0.0, atol=1e-12)
        else:
            assert list(starts) == ["cg" if case == "w zero" else "bicgstab"]
            np.testing.assert_array_equal(starts.popitem()[1], u_n.reshape(-1))

    @pytest.mark.parametrize("cells", [(32, 32), (8, 8, 8)])
    @pytest.mark.parametrize("with_w", [False, True])
    def test_vacuum_core_lame_krylov(self, visc, rng, cells, with_w):
        # a far-field grid whose center ball is vacuum: cg/bicgstab
        # preconditioned by (c I + L)^-1 meets the residual bound
        grid = SpatialGrid.farfield(cells, (1.0,) * len(cells), 1.0)
        r2 = sum((x - 0.5) ** 2 for x in grid.coords())
        rho = np.where(r2 < 0.2 ** 2, 0.0, 1.0)
        w = random_smooth_vector(grid, rng, amplitude=0.3) if with_w else None
        u_n = random_smooth_vector(grid, rng, amplitude=0.2)
        p = np.abs(random_smooth_field(grid, rng)) + 1.0
        f = random_smooth_vector(grid, rng, amplitude=0.1)
        dt = 0.01
        out = momentum_step(u_n, rho, w, p, f, visc, dt, grid, p_ref=1.0)
        b = (rho[None] * u_n / dt - gradient(p, grid, farfield_value=1.0) + f).reshape(-1)
        A = momentum_matrix(rho, w, visc, dt, grid)
        assert np.linalg.norm(b - A @ out.reshape(-1)) <= 1e-10 * np.linalg.norm(b)

    def test_negative_density_rejected(self, grid128, visc):
        with pytest.raises(DomainError):
            momentum_step(np.zeros((1, 128)), -np.ones(128), None, np.ones(128),
                          np.zeros((1, 128)), visc, 0.01, grid128)

    def test_manufactured_solution_2d(self, visc):
        grid = SpatialGrid.periodic((16, 16), (1.0, 1.0))
        x, y = grid.coords()
        ustar = np.zeros((2,) + grid.extents)
        ustar[0] = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        ustar[1] = np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
        rho = np.ones(grid.extents)
        dt = 0.01
        forcing = rho[None] * ustar / dt + lame_apply(ustar, visc, grid)
        out = momentum_step(np.zeros_like(ustar), rho, None,
                            np.ones(grid.extents), forcing, visc, dt, grid)
        assert np.max(np.abs(out - ustar)) < 1e-8


@st.composite
def momentum_grids(draw, families=("periodic1d", "farfield2d", "periodic3d")):
    family = draw(st.sampled_from(families))
    if family == "periodic1d":
        return SpatialGrid.periodic(draw(st.integers(4, 40)), draw(st.floats(0.5, 2.0)))
    if family == "farfield2d":
        cells = tuple(draw(st.lists(st.integers(4, 9), min_size=2, max_size=2)))
        return SpatialGrid.farfield(cells, (1.0, draw(st.floats(0.5, 2.0))),
                                    draw(st.floats(0.0, 2.0)))
    cells = tuple(draw(st.lists(st.integers(4, 5), min_size=3, max_size=3)))
    return SpatialGrid.periodic(cells, (1.0, 1.0, draw(st.floats(0.5, 2.0))))


@settings(max_examples=60)
@given(grid=momentum_grids(), seed=st.integers(0, 2**32 - 1),
       mu=st.floats(0.1, 2.0), lam_excess=st.floats(0.01, 2.0),
       dt=st.floats(1e-4, 1e-1), convect=st.booleans(), vacuum=st.booleans())
def test_layout_matrix_matches_block_assembly(grid, seed, mu, lam_excess, dt,
                                              convect, vacuum):
    # the matrix filled into the cached layout equals lame_matrix + diag(rho/dt)
    # + upwind convection built from whole sparse blocks; a first call with
    # other coefficients shows that filling one matrix leaves the layout intact
    rng = np.random.default_rng(seed)
    visc = ViscosityParams(mu=mu, lam=lam_excess - 2.0 * mu / 3.0)
    rho = rng.uniform(0.0, 3.0, grid.extents)
    if vacuum:
        rho[rng.random(grid.extents) < 0.3] = 0.0
    w = rng.normal(size=(grid.dim,) + grid.extents) if convect else None
    if convect and vacuum:
        w[rng.random(w.shape) < 0.3] = 0.0
    lay = fluid._momentum_layout(grid, visc)
    fluid._momentum_data(lay, rng.uniform(0.0, 3.0, grid.extents),
                         rng.normal(size=(grid.dim,) + grid.extents), dt)
    got = layout_matrix(lay, fluid._momentum_data(lay, rho, w, dt))
    np.testing.assert_allclose(got.toarray(),
                               momentum_matrix(rho, w, visc, dt, grid).toarray(),
                               rtol=1e-14, atol=0.0)


@st.composite
def lame_grids(draw):
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.lists(st.integers(4, {1: 40, 2: 9, 3: 6}[dim]),
                                min_size=dim, max_size=dim)))
    lengths = tuple(draw(st.lists(st.floats(0.1, 3.0), min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        return SpatialGrid.periodic(cells, lengths)
    return SpatialGrid.farfield(cells, lengths, 1.0)


@settings(max_examples=100)
@given(grid=lame_grids(), mu=st.floats(0.1, 2.0), lam_excess=st.floats(0.0, 2.0))
# 4-cell rings, where the +-2 neighbours of the centered square coincide
@example(grid=SpatialGrid.periodic(4, 1.0), mu=1.0, lam_excess=0.5)
@example(grid=SpatialGrid.periodic((4, 4), (1.0, 0.7)), mu=0.3, lam_excess=1.1)
@example(grid=SpatialGrid.periodic((4, 5, 4), (1.0, 1.3, 0.6)), mu=1.7, lam_excess=0.0)
@example(grid=SpatialGrid.farfield((4, 4, 4), (1.0, 1.0, 2.0), 1.0), mu=0.5, lam_excess=0.2)
def test_lame_matrix_equals_block_assembly_exactly(grid, mu, lam_excess):
    # the stencil-built Lame values are the reference's sparse block product
    # bit for bit: the same canonical pattern and the same floats
    visc = ViscosityParams(mu=mu, lam=lam_excess - 2.0 * mu / 3.0)
    lay = fluid._momentum_layout(grid, visc)
    got = layout_lame_matrix(lay)
    ref = reference_lame_matrix(grid, visc).copy()
    ref.sum_duplicates()
    assert got.has_canonical_format
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert fluid._momentum_layout(grid, visc) is lay


@settings(max_examples=60)
@given(grid=momentum_grids(families=("farfield2d", "periodic3d")),
       seed=st.integers(0, 2**32 - 1), mu=st.floats(0.1, 2.0),
       lam_excess=st.floats(0.01, 2.0), dt=st.floats(1e-4, 1e-1),
       w_scale=st.floats(0.0, 1.0), vacuum=st.floats(0.0, 0.5))
# without the dense corner below, this draw leaves a parity class all vacuum
@example(grid=SpatialGrid.periodic((4, 4, 4), (1.0, 1.0, 1.8343786811684191)), seed=2009,
         mu=1.5734112641791798, lam_excess=0.9335298404542721, dt=0.056176347509939294,
         w_scale=0.0, vacuum=0.49865992066300924)
def test_krylov_solve_meets_residual(grid, seed, mu, lam_excess, dt, w_scale, vacuum):
    # on 2D and 3D grids with vacuum cells the Krylov solve returns x with
    # |b - A x| <= 1e-10 |b|, whichever of the random u_n and w it starts
    # from; w near u_n makes either start the better one
    rng = np.random.default_rng(seed)
    visc = ViscosityParams(mu=mu, lam=lam_excess - 2.0 * mu / 3.0)
    shape = (grid.dim,) + grid.extents
    rho = rng.uniform(0.0, 3.0, grid.extents)
    rho[rng.random(grid.extents) < vacuum] = 0.0
    # the periodic Lame block couples only cells two apart along each axis, so
    # a parity class that is all vacuum would leave the system singular; a
    # dense 2^dim corner keeps a dense cell in every class
    rho[(slice(0, 2),) * grid.dim] = rng.uniform(0.5, 3.0, (2,) * grid.dim)
    u_n = rng.normal(size=shape)
    w = w_scale * (u_n + rng.normal(scale=rng.uniform(0.0, 2.0), size=shape))
    p = rng.uniform(0.5, 2.0, grid.extents)
    f = rng.normal(size=shape)
    out = momentum_step(u_n, rho, w, p, f, visc, dt, grid, p_ref=1.0)
    b = (rho[None] * u_n / dt - gradient(p, grid, farfield_value=1.0) + f).reshape(-1)
    A = momentum_matrix(rho, w, visc, dt, grid)
    assert np.linalg.norm(b - A @ out.reshape(-1)) <= 1e-10 * np.linalg.norm(b)


@st.composite
def krylov_grids(draw):
    dim = draw(st.integers(2, 3))
    cells = tuple(draw(st.lists(st.integers(4, 9 if dim == 2 else 5), min_size=dim,
                                max_size=dim)))
    lengths = (1.0,) * (dim - 1) + (draw(st.floats(0.5, 2.0)),)
    if draw(st.booleans()):
        return SpatialGrid.periodic(cells, lengths)
    return SpatialGrid.farfield(cells, lengths, draw(st.floats(0.0, 2.0)))


@settings(max_examples=60)
@given(grid=krylov_grids(), seed=st.integers(0, 2**32 - 1), mu=st.floats(0.1, 2.0),
       lam_excess=st.floats(0.01, 2.0), dt=st.floats(1e-4, 1e-1), convect=st.booleans(),
       vacuum=st.floats(0.0, 0.5), start=st.sampled_from(["zero", "u_n", "w"]),
       maxiter=st.sampled_from([None, 3]))
@example(grid=SpatialGrid.farfield((8, 8), (1.0, 1.0), 1.0), seed=1, mu=1.0, lam_excess=0.5,
         dt=0.01, convect=True, vacuum=0.5, start="w", maxiter=3)
@example(grid=SpatialGrid.periodic((4, 4, 4), (1.0, 1.0, 1.0)), seed=2, mu=1.0,
         lam_excess=0.5, dt=0.01, convect=False, vacuum=0.5, start="u_n", maxiter=3)
def test_krylov_routines_are_scipys_bit_for_bit(grid, seed, mu, lam_excess, dt, convect,
                                                vacuum, start, maxiter):
    # _matvec is csr_matrix @ x, and _cg/_bicgstab return scipy's cg/bicgstab
    # (x, info) to the byte with the same tolerances, cap and preconditioner
    # (the apply of (c I + L)^-1 as scipy's M), from a zero, u_n or w start,
    # when handed the bounds momentum_step sets, KRYLOV_RTOL |b| and
    # DIVERGENCE |b|; maxiter 3 checks the capped return
    import scipy.sparse.linalg as spla
    rng = np.random.default_rng(seed)
    visc = ViscosityParams(mu=mu, lam=lam_excess - 2.0 * mu / 3.0)
    shape = (grid.dim,) + grid.extents
    rho = rng.uniform(0.0, 3.0, grid.extents)
    rho[rng.random(grid.extents) < vacuum] = 0.0
    rho[(slice(0, 2),) * grid.dim] = rng.uniform(0.5, 3.0, (2,) * grid.dim)
    u_n, w = rng.normal(size=shape), rng.normal(size=shape)
    lay = fluid._momentum_layout(grid, visc)
    data = fluid._momentum_data(lay, rho, w if convect else None, dt)
    A = layout_matrix(lay, data)
    x = rng.normal(size=A.shape[0])
    assert fluid._matvec(lay, data, x).tobytes() == (A @ x).tobytes()
    b = rng.normal(size=A.shape[0])
    bnorm = np.linalg.norm(b)
    x0 = {"zero": np.zeros(b.size), "u_n": u_n.reshape(-1), "w": w.reshape(-1)}[start]
    kept = x0.copy()
    psolve = fluid._lame_inverse(lay.modes, float(np.mean(rho)) / dt)
    precond = spla.LinearOperator(A.shape, psolve)
    with pytest.MonkeyPatch.context() as mp:
        if maxiter is not None:
            mp.setattr(fluid, "MAXITER", maxiter)
        for ours, theirs in ((fluid._cg, spla.cg), (fluid._bicgstab, spla.bicgstab)):
            # each routine is handed the start's residual, as momentum_step does
            r0 = b - fluid._matvec(lay, data, x0) if x0.any() else b.copy()
            got, info = ours(lambda v: fluid._matvec(lay, data, v), x0, psolve, r0,
                             fluid.KRYLOV_RTOL * bnorm, fluid.DIVERGENCE * bnorm)
            want, want_info = theirs(A, b, x0=x0, rtol=fluid.KRYLOV_RTOL, atol=0.0,
                                     maxiter=fluid.MAXITER, M=precond)
            assert (got.tobytes(), info) == (want.tobytes(), want_info), ours.__name__
            if maxiter is not None:
                assert info in (0, maxiter, -10, -11)
    assert np.array_equal(x0, kept)


@st.composite
def lame_inverse_grids(draw):
    dim = draw(st.integers(2, 3))
    cells = tuple(draw(st.lists(st.integers(4, 12), min_size=dim, max_size=dim)))
    lengths = tuple(draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        return SpatialGrid.periodic(cells, lengths)
    return SpatialGrid.farfield(cells, lengths, 1.0)


def centered_difference(n: int, h: float, periodic: bool) -> np.ndarray:
    """The dense centered difference (u[i+1] - u[i-1]) / (2h) on n cells,
    circulant or truncated."""
    out = np.zeros((n, n))
    for i in range(n):
        for shift, weight in ((1, 0.5 / h), (-1, -0.5 / h)):
            if periodic or 0 <= i + shift < n:
                out[i, (i + shift) % n] += weight
    return out


@settings(max_examples=80)
@given(grid=lame_inverse_grids(), seed=st.integers(0, 2**32 - 1), mu=st.floats(0.1, 2.0),
       bulk=st.floats(0.0, 2.0), c=st.one_of(st.just(0.0), st.floats(0.1, 1e4)))
@example(grid=SpatialGrid.periodic((4, 5), (1.0, 1.0)), seed=0, mu=1.0, bulk=0.0, c=0.0)
@example(grid=SpatialGrid.farfield((5, 7, 9), (1.0, 0.5, 2.0), 1.0), seed=1, mu=0.1,
         bulk=2.0, c=0.0)
@example(grid=SpatialGrid.farfield((4, 6), (1.0, 1.0), 1.0), seed=2, mu=2.0, bulk=0.0, c=0.0)
def test_lame_inverse_is_exact(grid, seed, mu, bulk, c):
    # in the basis of every axis the centered difference is block-skew: pairs
    # [[0, beta], [-beta, 0]] and 1x1 zero blocks (periodic: the constant
    # and, for even n, the alternating mode; far field: the middle mode of
    # an odd axis); the apply then inverts c I + L to 1e-12 (round-off grows
    # with its condition number, which these draws keep below about 1e5),
    # and is finite, symmetric and positive definite also where c I + L is
    # singular (c = 0 on a periodic grid or an all-odd far-field one)
    periodic = grid.boundary == "periodic"
    for n, h in zip(grid.extents, grid.spacing):
        q, partner, signed = fluid._axis_modes(n, h, periodic)
        np.testing.assert_allclose(q.T @ q, np.eye(n), rtol=0.0, atol=1e-14 * n)
        blocks = np.zeros((n, n))
        blocks[np.arange(n), partner] = signed
        np.testing.assert_allclose(q.T @ centered_difference(n, h, periodic) @ q, blocks,
                                   rtol=0.0, atol=1e-14 * n / h)
        pairs = np.flatnonzero(partner != np.arange(n))
        assert np.array_equal(partner[pairs], pairs ^ 1)
        assert np.all(signed[pairs[0::2]] > 0) and np.array_equal(signed[pairs[1::2]],
                                                                   -signed[pairs[0::2]])
        zeros = n - pairs.size
        assert zeros == ((2 - n % 2) if periodic else n % 2)
        assert not np.any(signed[partner == np.arange(n)])
    visc = ViscosityParams(mu=mu, lam=bulk - 2.0 * mu / 3.0)
    apply = fluid._lame_inverse(fluid._momentum_layout(grid, visc).modes, c)
    rng = np.random.default_rng(seed)
    shape = (grid.dim,) + grid.extents
    r, y = rng.normal(size=shape), rng.normal(size=shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, zy = apply(r.reshape(-1)).reshape(shape), apply(y.reshape(-1))
    assert np.isfinite(z).all() and np.isfinite(zy).all()
    assert abs(zy @ r.reshape(-1) - z.reshape(-1) @ y.reshape(-1)) <= \
        1e-12 * np.linalg.norm(z) * np.linalg.norm(y)
    assert z.reshape(-1) @ r.reshape(-1) > 0
    singular = c == 0 and (periodic or all(n % 2 for n in grid.extents))
    if not singular:
        back = c * z + lame_apply(z, visc, grid)
        assert np.linalg.norm(back - r) <= 1e-12 * np.linalg.norm(r)


@pytest.mark.parametrize("routine", [fluid._cg, fluid._bicgstab], ids=["cg", "bicgstab"])
def test_krylov_routines_stop_at_first_non_finite_residual(routine):
    # a product that turns NaN from its third call on: the routine returns
    # NONFINITE at the next residual norm, after no further product
    calls = []

    def matvec(v):
        calls.append(1)
        out = 2.5 * v - np.roll(v, 1) - np.roll(v, -1)
        return out if len(calls) < 3 else np.full_like(v, np.nan)

    b = np.random.default_rng(0).normal(size=20)
    bnorm = np.linalg.norm(b)
    # b - A 0 is b
    _, info = routine(matvec, np.zeros(20), lambda v: v / 2.5, b.copy(),
                      fluid.KRYLOV_RTOL * bnorm, fluid.DIVERGENCE * bnorm)
    assert (info, len(calls)) == (fluid.NONFINITE, 3)


@pytest.mark.parametrize("routine", [fluid._cg, fluid._bicgstab], ids=["cg", "bicgstab"])
@pytest.mark.parametrize("eps", [1e-9, 1e-15])
def test_krylov_routines_stop_when_the_residual_diverges(routine, eps):
    # the indefinite diag(1, -1 + eps) with b = (1, 1): the first step size
    # is 2 / eps, so the updated residual jumps to about 2.8 / eps, finite
    # but past DIVERGENCE |b|; the routine returns DIVERGED at that residual
    # norm, after its one product
    calls = []

    def matvec(v):
        calls.append(1)
        return np.array([1.0, -1.0 + eps]) * v

    b = np.ones(2)
    bnorm = np.linalg.norm(b)
    x, info = routine(matvec, np.zeros(2), lambda v: v.copy(), b.copy(),
                      fluid.KRYLOV_RTOL * bnorm, fluid.DIVERGENCE * bnorm)
    assert (info, len(calls)) == (fluid.DIVERGED, 1)
    assert np.isfinite(x).all()


@st.composite
def band_grids(draw):
    cells, length = draw(st.integers(4, 40)), draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        return SpatialGrid.periodic(cells, length)
    return SpatialGrid.farfield(cells, length, draw(st.floats(0.0, 2.0)))


@settings(max_examples=150)
@given(grid=band_grids(), seed=st.integers(0, 2**32 - 1),
       mu=st.floats(0.1, 2.0), lam_excess=st.floats(0.0, 2.0),
       dt=st.floats(1e-4, 1e-1), convect=st.booleans(), vacuum=st.booleans())
@example(grid=SpatialGrid.periodic(4, 1.0), seed=0, mu=1.0, lam_excess=0.0, dt=0.01,
         convect=True, vacuum=True)
def test_band_map_unfolds_to_matrix(grid, seed, mu, lam_excess, dt, convect, vacuum):
    # the gbsv band storage of the reordered system, read back through the
    # permutation, is the momentum matrix; the direct solve on it meets a
    # 1e-12 relative residual.  n = 4 periodic makes the +-2 neighbours coincide.
    rng = np.random.default_rng(seed)
    n = grid.extents[0]
    visc = ViscosityParams(mu=mu, lam=lam_excess - 2.0 * mu / 3.0)
    rho = rng.uniform(0.0, 3.0, n)
    if vacuum:
        rho[rng.random(n) < 0.5] = 0.0
    # without convection the Lame block couples only cells two apart, so a
    # dense cell of either parity keeps the system nonsingular
    rho[:2] = rng.uniform(0.5, 3.0, 2)
    w = rng.normal(size=(1, n)) if convect else None
    lay = fluid._momentum_layout(grid, visc)
    data = fluid._momentum_data(lay, rho, w, dt)
    band = lay.band
    assert band.kl == min(4 if grid.boundary == "periodic" else 2, n - 1)
    ab = fluid._band_storage(band, data)
    assert ab.shape == (3 * band.kl + 1, n) and ab.flags.f_contiguous
    assert not np.any(ab[:band.kl])
    i, j = np.indices((n, n))
    inside = np.abs(i - j) <= band.kl
    reordered = np.where(inside, ab[np.where(inside, 2 * band.kl + i - j, 0), j], 0.0)
    unfolded = np.empty((n, n))
    unfolded[np.ix_(band.perm, band.perm)] = reordered
    A = momentum_matrix(rho, w, visc, dt, grid).toarray()
    np.testing.assert_allclose(unfolded, A, rtol=1e-14, atol=0.0)
    b = rng.normal(size=n)
    x = fluid._band_solve(lay, data, b)
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("k", [-1000, -560, 530, 1000])
@pytest.mark.parametrize("with_w", [False, True])
@pytest.mark.parametrize("grid", [
    SpatialGrid.farfield(16, 1.0, 1.0), SpatialGrid.periodic(16, 1.0),
    SpatialGrid.farfield((4, 4), (1.0, 1.0), 1.0), SpatialGrid.periodic((6, 6), (1.0, 1.0))],
    ids=["farfield1d", "periodic1d", "farfield2d", "periodic2d"])
def test_momentum_step_is_scale_free(visc, grid, with_w, k):
    # with p = f = 0 the right-hand side is rho u / dt, and at these scales
    # its b . b under- or overflows: band LU and Lame-Krylov alike solve
    # 2^k u as 2^k times the solve of u, bit for bit, with no warning
    rng = np.random.default_rng(0)
    shape = (grid.dim,) + grid.extents
    rho, u = rng.uniform(0.5, 2.0, grid.extents), rng.normal(size=shape)
    w = rng.normal(size=shape) if with_w else None
    p, f = np.zeros(grid.extents), np.zeros(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = momentum_step(u, rho, w, p, f, visc, 0.01, grid)
        got = momentum_step(np.ldexp(u, k), rho, w, p, f, visc, 0.01, grid)
    assert got.tobytes() == np.ldexp(want, k).tobytes()


@pytest.mark.parametrize("rho_value", [1e-300, 1e-310, 1e-320])
@pytest.mark.parametrize("with_w", [False, True])
@pytest.mark.parametrize("grid", [SpatialGrid.farfield((4, 4), (1.0, 1.0), 1.0),
                                  SpatialGrid.farfield((6, 6), (1.0, 1.0), 1.0)],
                         ids=["4x4", "6x6"])
def test_momentum_step_near_vacuum_starts_from_zeros(visc, grid, with_w, rho_value):
    # b = rho u / dt is tiny only because rho is, so b . b underflows and b is
    # scaled up; u_n scaled with it lands so far off that its residual is not
    # finite, and the Krylov solve starts from zeros: the result is, bit for
    # bit, the solve of the same b from u_n = 0 (b carried by the source)
    rng = np.random.default_rng(0)
    shape = (grid.dim,) + grid.extents
    rho, u = np.full(grid.extents, rho_value), rng.normal(size=shape)
    w = rng.normal(size=shape) if with_w else None
    p = np.zeros(grid.extents)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = momentum_step(u, rho, w, p, np.zeros(shape), visc, 0.01, grid)
        want = momentum_step(np.zeros(shape), rho, w, p, rho[None] * u / 0.01, visc, 0.01, grid)
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got).all() and got.any()


class TestPositivityRandomized:
    def test_characteristics_nonnegative(self, rng):
        grid = SpatialGrid.farfield(64, 1.0, 0.5)
        x = grid.axis_coords(0)
        for _ in range(10):
            rho0 = np.maximum(
                random_smooth_field(grid, rng, amplitude=0.5) + 0.3, 0.0)
            w = random_smooth_vector(grid, rng, amplitude=0.2)
            hist = VelocityHistory([0.0, 0.1], [w, w])
            out = continuity_step_characteristics(rho0, hist, 0.1, grid,
                                                  substeps=10)
            assert np.min(out) >= 0.0

    def test_fv_nonnegative(self, grid128, rng):
        for _ in range(10):
            rho0 = np.maximum(
                random_smooth_field(grid128, rng, amplitude=0.5) + 0.2, 0.0)
            w = random_smooth_vector(grid128, rng, amplitude=0.4)
            dt = 0.9 * grid128.spacing[0] / (np.max(np.abs(w)) + 1e-12)
            out = continuity_step_fv(rho0, w, dt, grid128)
            assert np.min(out) >= 0.0


@st.composite
def transport_fields(draw):
    """A grid, a density >= 0 with vacuum patches and a finite velocity
    history on it."""
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.lists(st.integers(4, 12 if dim == 1 else 5),
                                min_size=dim, max_size=dim)))
    lengths = tuple(draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        grid = SpatialGrid.periodic(cells, lengths)
    else:
        grid = SpatialGrid.farfield(cells, lengths, draw(st.floats(0.0, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = rng.uniform(0.0, 3.0, cells)
    rho[rng.random(cells) < 0.3] = 0.0
    n = draw(st.integers(1, 4))
    speed = draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0)))
    fields = [speed * rng.uniform(-1.0, 1.0, (dim,) + cells) for _ in range(n)]
    return grid, rho, VelocityHistory(np.linspace(0.0, 1.0, n + 1)[1:], fields)


@settings(max_examples=60)
@given(data=transport_fields(), t=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=4),
       substeps=st.sampled_from([None, 1, 5]))
def test_characteristics_density_nonnegative(data, t, substeps):
    grid, rho0, hist = data
    out = continuity_step_characteristics(rho0, hist, np.array(t), grid, substeps)
    assert out.shape == (len(t),) + grid.extents
    assert np.all(np.isfinite(out)) and np.min(out) >= 0.0


@settings(max_examples=60)
@given(data=transport_fields(), cfl=st.floats(0.05, 1.0))
def test_fv_mass_conserved_periodic(data, cfl):
    grid, rho, hist = data
    grid = SpatialGrid.periodic(grid.extents, grid.lengths)
    w = hist.fields[-1]
    # dt * sum_a (outflow_a / h_a) <= 1 for outflow_a <= 2 max|w_a|
    rate = sum(2.0 * np.max(np.abs(w[a])) / h for a, h in enumerate(grid.spacing))
    dt = cfl / rate if rate > 0 else 1.0
    out = continuity_step_fv(rho, w, dt, grid)
    assert np.min(out) >= 0.0
    assert abs(out.sum() - rho.sum()) <= 8 * rho.size * np.finfo(float).eps * rho.sum()


def _fresh_interpreter(code):
    """stdout of ``code`` run by a fresh interpreter that imports this rhlab."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fluid.__file__)))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


class TestScipyBindings:
    # helpers of the fresh interpreter: a 2-step smooth-bump run or set-up on
    # the grid given by the [grid] lines, and the scipy modules loaded
    RUN = '''
import os, sys, tempfile
import rhlab
from rhlab import runner
TEXT = """
[grid]
{}

[model]
kind = constant
sigma0 = 0.2
emission0 = 0.05

[scenario]
name = smooth-bump

[run]
t_final = 0.002
slab_length = 0.002
dt = 0.001
"""
def run(grid):
    with tempfile.TemporaryDirectory() as out:
        os.environ[runner.OUTPUT_DIR_ENV] = out
        runner.run_scenario(rhlab.parse_config(TEXT.format(grid)))
def build(grid):
    runner.build_problem(rhlab.parse_config(TEXT.format(grid)))
def scipy_modules():
    return ",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
'''

    def test_runs_load_only_compiled_scipy_modules(self):
        # 1D, 2D and 3D runs load scipy's compiled LAPACK and sparsetools
        # modules only, none of scipy's package imports, and so do 2D solves
        # that fail: the parity-vacuum systems of
        # test_parity_vacuum_2d_fails_fast and one forced to fail
        out = _fresh_interpreter(self.RUN + '''
print(scipy_modules())
run("dim = 1\\ncells = 32\\nlengths = 1.0\\nboundary = periodic")
run("dim = 1\\ncells = 32\\nlengths = 1.0\\nboundary = farfield\\nrho_bar = 1.0")
run("dim = 2\\ncells = 8, 8\\nlengths = 1.0, 1.0\\nboundary = farfield\\nrho_bar = 1.0")
run("dim = 3\\ncells = 4, 4, 4\\nlengths = 1.0, 1.0, 1.0\\nboundary = periodic")
print(scipy_modules())
import numpy as np
from rhlab import fluid
from rhlab.errors import SolverError
from rhlab.grid import SpatialGrid
from rhlab.physics import ViscosityParams
grid, visc = SpatialGrid.periodic((8, 8), (1.0, 1.0)), ViscosityParams(mu=1.0, lam=0.0)
for with_w in (False, True):
    rng = np.random.default_rng(0)
    rho = rng.uniform(0.5, 2.0, (8, 8))
    rho[::2, ::2] = 0.0
    w = rng.normal(size=(2, 8, 8)) if with_w else None
    try:
        fluid.momentum_step(np.zeros((2, 8, 8)), rho, w, np.ones((8, 8)),
                            rng.normal(size=(2, 8, 8)), visc, 0.01, grid)
    except SolverError:
        print("raised")
fluid.RTOL = -1.0       # no residual meets it, so the Krylov solve fails
try:
    fluid.momentum_step(np.ones((2, 8, 8)), np.ones((8, 8)), None, np.ones((8, 8)),
                        np.ones((2, 8, 8)), visc, 0.01, grid)
except SolverError as err:
    print("lgmres" in str(err))
print(scipy_modules())
''')
        assert out == ["scipy.linalg._flapack,scipy.sparse._sparsetools"] * 2 + [
            "raised", "raised", "False", "scipy.linalg._flapack,scipy.sparse._sparsetools"]

    @pytest.mark.parametrize("first", ["rhlab.fluid", "scipy.linalg.lapack"])
    def test_dgbsv_is_scipys_in_either_import_order(self, first):
        second = ({"rhlab.fluid", "scipy.linalg.lapack"} - {first}).pop()
        out = _fresh_interpreter(f"""
import sys
import {first}
import {second}
from rhlab import fluid
from scipy.linalg import lapack
print(fluid.lapack.dgbsv is lapack.dgbsv,
      fluid.lapack is sys.modules["scipy.linalg._flapack"] is lapack._flapack)
""")
        assert out == ["True", "True"]

    @pytest.mark.parametrize("first", ["rhlab.fluid", "scipy.sparse"])
    def test_sparsetools_is_scipys_in_either_import_order(self, first):
        second = ({"rhlab.fluid", "scipy.sparse"} - {first}).pop()
        out = _fresh_interpreter(f"""
import sys
import {first}
import {second}
from rhlab import fluid
from scipy.sparse import _compressed
print(fluid.sparsetools.csr_matvec is _compressed._sparsetools.csr_matvec,
      fluid.sparsetools is sys.modules["scipy.sparse._sparsetools"] is _compressed._sparsetools)
""")
        assert out == ["True", "True"]

    def test_sparse_names_resolve_to_scipy(self):
        import scipy.sparse.linalg
        assert fluid.spla is scipy.sparse.linalg
        with pytest.raises(AttributeError):
            fluid.no_such_name
