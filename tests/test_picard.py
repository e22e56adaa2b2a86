from dataclasses import replace

import numpy as np
import pytest

import rhlab.picard as picard
from rhlab.config import parse_config
from rhlab.errors import DomainError, IterationError, ParameterError
from rhlab.fluid import heat_smooth
from rhlab.grid import AngularQuadrature, FrequencyGrid, Grids, SpatialGrid
from rhlab.norms import lp_norm
from rhlab.physics import (EquationOfState, PhysicalConstants, ViscosityParams,
                           constant_model, zero_model)
from rhlab.picard import (DeltaSchedule, SlabConfig, State, _initial_iterate, _slab_times,
                          delta_continuation, gamma_increment, gamma_metric, solve,
                          solve_slab)
from rhlab.runner import run_scenario

from _reference import solve_monolithic


def make_grids(n=64, boundary="farfield", rho_bar=1.0, n_ord=8, n_bands=4):
    if boundary == "farfield":
        grid = SpatialGrid.farfield(n, 1.0, rho_bar)
    else:
        grid = SpatialGrid.periodic(n, 1.0)
    edges = np.linspace(0.5, 4.5, n_bands + 1)
    return Grids(grid, FrequencyGrid.from_edges(edges),
                 AngularQuadrature.gauss_legendre_slab(n_ord))


def zero_state(grids):
    grid = grids.spatial
    return State(I=np.zeros(grids.radiation_shape()),
                 rho=np.ones(grid.extents),
                 u=np.zeros((grid.dim,) + grid.extents))


def bump_state(grids, amp=0.3):
    grid = grids.spatial
    x = grid.axis_coords(0)
    rho = 1.0 + amp * np.exp(-((x - 0.5) / 0.12) ** 2)
    return State(I=np.zeros(grids.radiation_shape()), rho=rho,
                 u=np.zeros((grid.dim,) + grid.extents))


PHYS = dict(visc=ViscosityParams(1.0, 0.0),
            eos=EquationOfState.polytropic(1.0, 2.0),
            consts=PhysicalConstants(1.0))


def run_slab(state, model, grids, cfg):
    return solve_slab(state, model, grids, PHYS["visc"], PHYS["eos"],
                      PHYS["consts"], cfg)


class TestSlabConfig:
    def test_dt_bounds(self):
        with pytest.raises(ParameterError):
            SlabConfig(slab_length=0.01, dt=0.02)
        with pytest.raises(ParameterError):
            SlabConfig(slab_length=0.01, dt=0.0)

    def test_bad_scheme(self):
        with pytest.raises(ParameterError):
            SlabConfig(slab_length=0.01, dt=0.01, continuity="weno")

    @pytest.mark.parametrize("bad", [
        dict(transport_cfl=0.0), dict(transport_cfl=-0.5), dict(transport_cfl=1.5),
        dict(transport_cfl=float("nan")), dict(max_halvings=-1),
        dict(gamma_tol=0.0), dict(gamma_tol=-1e-8), dict(gamma_tol=float("nan")),
        dict(gamma_tol=float("inf"))])
    def test_iteration_policy_checked_like_the_config(self, bad):
        # before, transport_cfl=0 raised ZeroDivisionError in the first slab
        # and max_halvings=-1 an IterationError without solving anything
        with pytest.raises(ParameterError) as err:
            SlabConfig(slab_length=0.01, dt=0.01, **bad)
        assert err.value.exit_code == 2

    def test_iteration_policy_edges_accepted(self):
        cfg = SlabConfig(slab_length=0.01, dt=0.01, transport_cfl=1.0, max_halvings=0)
        assert (cfg.transport_cfl, cfg.max_halvings) == (1.0, 0)


class TestDeltaSchedule:
    def test_must_decrease(self):
        with pytest.raises(ParameterError):
            DeltaSchedule((1e-3, 1e-2))

    def test_must_be_positive(self):
        with pytest.raises(ParameterError):
            DeltaSchedule((1e-2, 0.0))

    @pytest.mark.parametrize("deltas", [(1e-2, float("nan")), (float("nan"),),
                                        (float("inf"), 1.0), (float("inf"),),
                                        (1e-2, -float("inf"))])
    def test_must_be_finite(self, deltas):
        with pytest.raises(ParameterError) as err:
            DeltaSchedule(deltas)
        assert err.value.exit_code == 2


class TestGammaMetric:
    def test_identical_states(self):
        grids = make_grids(n=8)
        st = zero_state(grids)
        assert gamma_increment(st, st, grids) == 0.0

    def test_vacuum_weight_annihilates_velocity(self):
        grids = make_grids(n=8)
        shape = grids.radiation_shape()
        a = State(I=np.zeros(shape), rho=np.zeros(8), u=np.zeros((1, 8)))
        b = State(I=np.zeros(shape), rho=np.zeros(8), u=np.ones((1, 8)))
        assert gamma_increment(a, b, grids, rho_weight=b.rho) == 0.0

    def test_hand_built_four_cell_case(self):
        grid = SpatialGrid.periodic(4, 1.0)
        ang = AngularQuadrature(np.array([[-0.5], [0.5]]), np.array([1.0, 1.0]),
                                2.0, slab=True)
        grids = Grids(grid, FrequencyGrid.from_edges([1.0, 2.0]), ang)
        prev = State(I=np.zeros((1, 2, 4)), rho=np.ones(4), u=np.zeros((1, 4)))
        nxt = State(I=np.ones((1, 2, 4)), rho=np.array([1.0, 2.0, 1.0, 2.0]),
                    u=np.ones((1, 4)))
        # by hand: radiation 2 (phase measure), density 0.5, velocity 1.5
        val = gamma_increment(prev, nxt, grids)
        assert val == pytest.approx(2.0 + 0.5 + 1.5, rel=1e-12)
        # the far-field-vacuum variant adds the L^{3/2} density term
        val32 = gamma_increment(prev, nxt, grids, include_l32=True)
        extra = lp_norm(nxt.rho - prev.rho, 1.5, grid) ** 2
        assert val32 == pytest.approx(val + extra, rel=1e-12)

    def test_trajectory_sup(self):
        grids = make_grids(n=8)
        st0 = zero_state(grids)
        st1 = State(I=st0.I, rho=st0.rho + 0.5, u=st0.u)
        assert gamma_metric([st0, st0], [st0, st1], grids) == \
            gamma_increment(st0, st1, grids)


class TestSolveSlabEquilibrium:
    def test_fixed_point_in_one_iteration(self):
        grids = make_grids()
        st = zero_state(grids)
        cfg = SlabConfig(slab_length=0.01, dt=0.002)
        final, diag = run_slab(st, zero_model(), grids, cfg)
        assert diag.iterations == 1
        assert diag.converged
        assert diag.gamma_history[0] < 1e-12
        assert np.array_equal(final.rho, st.rho)
        assert np.array_equal(final.u, st.u)
        assert np.array_equal(final.I, st.I)


class TestSolveSlabContraction:
    MODEL = constant_model(0.5, 0.1, 0.05)

    def test_all_ratios_below_one(self):
        grids = make_grids()
        st = bump_state(grids)
        cfg = SlabConfig(slab_length=0.008, dt=0.001, gamma_tol=1e-8,
                         max_halvings=6)
        final, diag = run_slab(st, self.MODEL, grids, cfg)
        assert diag.converged
        assert diag.contraction_ratios
        assert all(r < 1.0 for r in diag.contraction_ratios)
        assert np.min(final.rho) >= 0.0
        assert np.min(final.I) >= 0.0

    def test_ratio_shrinks_with_slab_length(self):
        grids = make_grids()
        st = bump_state(grids)
        ratios = {}
        for T in (0.008, 0.004):
            cfg = SlabConfig(slab_length=T, dt=T / 8, gamma_tol=1e-12,
                             halve_on_stall=False)
            _, diag = run_slab(st, self.MODEL, grids, cfg)
            ratios[T] = diag.contraction_ratios[0]
        assert ratios[0.004] <= 0.75 * ratios[0.008]

    def test_matches_monolithic_reference(self):
        grids = make_grids()
        st = bump_state(grids)
        cfg = SlabConfig(slab_length=0.004, dt=0.001, gamma_tol=1e-10)
        final, _ = run_slab(st, self.MODEL, grids, cfg)
        ref = solve_monolithic(st, self.MODEL, grids, PHYS["visc"], PHYS["eos"],
                               PHYS["consts"], 0.001 / 8, 0.004)
        grid = grids.spatial
        num = np.sqrt(lp_norm(final.rho - ref.rho, 2.0, grid) ** 2
                      + lp_norm(final.u - ref.u, 2.0, grid) ** 2)
        den = np.sqrt(lp_norm(ref.rho - 1.0, 2.0, grid) ** 2
                      + lp_norm(ref.u, 2.0, grid) ** 2)
        assert num / den < 5e-2

    def test_iteration_count_stable_under_tighter_tolerance(self):
        grids = make_grids()
        st = bump_state(grids)
        iters = {}
        for tol in (1e-5, 1e-6, 1e-8):
            cfg = SlabConfig(slab_length=0.008, dt=0.001, gamma_tol=tol,
                             max_iters=40, halve_on_stall=False)
            _, diag = run_slab(st, self.MODEL, grids, cfg)
            iters[tol] = diag.iterations
        assert iters[1e-6] - iters[1e-5] <= 8
        assert iters[1e-8] - iters[1e-6] <= 8

    def test_iteration_error_carries_diagnostics(self):
        grids = make_grids()
        st = bump_state(grids)
        cfg = SlabConfig(slab_length=0.008, dt=0.001, max_iters=1,
                         gamma_tol=1e-8, max_halvings=2)
        with pytest.raises(IterationError) as ei:
            run_slab(st, self.MODEL, grids, cfg)
        diag = ei.value.diagnostics
        assert diag is not None
        assert diag.halvings == 2
        assert diag.gamma_history


class TestSolveTrajectory:
    MODEL = constant_model(0.3, 0.05, 0.02)

    def test_single_slab_matches_solve_slab(self):
        grids = make_grids()
        st = bump_state(grids)
        cfg = SlabConfig(slab_length=0.004, dt=0.001)
        final, _ = run_slab(st, self.MODEL, grids, cfg)
        traj = solve(st, self.MODEL, grids, PHYS["visc"], PHYS["eos"],
                     PHYS["consts"], cfg, t_final=0.004)
        assert np.array_equal(traj.states[-1].rho, final.rho)
        assert np.array_equal(traj.states[-1].u, final.u)
        assert traj.times[-1] == pytest.approx(0.004)

    def test_equilibrium_drift_over_ten_slabs(self):
        grids = make_grids()
        st = zero_state(grids)
        cfg = SlabConfig(slab_length=0.002, dt=0.001)
        traj = solve(st, zero_model(), grids, PHYS["visc"], PHYS["eos"],
                     PHYS["consts"], cfg, t_final=0.02)
        assert len(traj.diagnostics) == 10
        drift = max(np.max(np.abs(s.rho - st.rho)) + np.max(np.abs(s.u))
                    + np.max(np.abs(s.I)) for s in traj.states)
        assert drift < 1e-10

    def test_mass_series_constant_periodic(self):
        grids = make_grids(boundary="periodic")
        st = bump_state(grids)
        cfg = SlabConfig(slab_length=0.004, dt=0.001)
        traj = solve(st, self.MODEL, grids, PHYS["visc"], PHYS["eos"],
                     PHYS["consts"], cfg, t_final=0.016)
        masses = [float(np.sum(s.rho)) for s in traj.states]
        rel = (max(masses) - min(masses)) / masses[0]
        assert rel < 1e-12

    def test_positivity_randomized(self, rng):
        grids = make_grids(n=32, n_ord=4, n_bands=2)
        grid = grids.spatial
        x = grid.axis_coords(0)
        for _ in range(5):
            rho = np.maximum(0.0, 1.0 + 0.8 * np.sin(
                2 * np.pi * rng.integers(1, 3) * x + rng.uniform(0, 6)) - 0.5)
            I = rng.random(grids.radiation_shape()) * 0.5
            I[:, :, grid.extents[0] // 2:] = 0.0
            model = constant_model(float(rng.uniform(0, 1)),
                                   float(rng.uniform(0, 0.3)),
                                   float(rng.uniform(0, 0.2)))
            st = State(I=I, rho=rho, u=np.zeros((1, 32)))
            cfg = SlabConfig(slab_length=0.004, dt=0.002, gamma_tol=1e-6,
                             max_halvings=3)
            traj = solve(st, model, grids, PHYS["visc"], PHYS["eos"],
                         PHYS["consts"], cfg, t_final=0.008)
            for s in traj.states:
                assert np.min(s.rho) >= 0.0
                assert np.min(s.I) >= 0.0


class TestDeltaContinuation:
    MODEL = constant_model(0.2, 0.0, 0.02)

    def make_plateau(self, grids):
        grid = grids.spatial
        x = grid.axis_coords(0)
        t = np.clip((np.abs(x - 0.5) - 0.1) / 0.15, 0.0, 1.0)
        ramp = t * t * (3 - 2 * t)
        rho = 1.0 * ramp ** 2
        return State(I=np.zeros(grids.radiation_shape()), rho=rho,
                     u=np.zeros((1,) + grid.extents))

    def test_vacuum_differences_decrease(self):
        grids = make_grids(n=64)
        st = self.make_plateau(grids)
        cfg = SlabConfig(slab_length=0.004, dt=0.001, max_halvings=6)
        _, rep = delta_continuation(st, self.MODEL, grids, PHYS["visc"],
                                    PHYS["eos"], PHYS["consts"], cfg,
                                    DeltaSchedule((1e-2, 1e-3, 1e-4)))
        assert rep.monotone
        assert rep.differences[1] < rep.differences[0]
        assert rep.warning is None

    def test_lifted_grids_add_no_layout_cache_miss(self):
        # w4's grid: 256 far-field cells with rho_bar = 0.  The lifted grids
        # differ only in farfield_rho, so they reuse the layout built for it
        import rhlab.fluid as fluid
        grids = make_grids(n=256, rho_bar=0.0)
        st = self.make_plateau(grids)
        cfg = SlabConfig(slab_length=0.001, dt=0.001)
        caches = (fluid._axis_operators, fluid._lame_matrix_of, fluid._momentum_layout_of)
        solve_slab(st, self.MODEL, grids, PHYS["visc"], PHYS["eos"], PHYS["consts"], cfg)
        misses = [c.cache_info().misses for c in caches]
        delta_continuation(st, self.MODEL, grids, PHYS["visc"], PHYS["eos"], PHYS["consts"],
                           cfg, DeltaSchedule((1e-2, 1e-3, 1e-4)))
        assert [c.cache_info().misses for c in caches] == misses
        lifted = picard._lift_grids(grids, 1e-2).spatial
        assert lifted.farfield_rho == 1e-2
        assert fluid.lame_matrix(lifted, PHYS["visc"]) \
            is fluid.lame_matrix(grids.spatial, PHYS["visc"])

    def test_positive_data_first_order_in_delta(self):
        grids = make_grids(n=64)
        st = bump_state(grids)
        cfg = SlabConfig(slab_length=0.004, dt=0.001, max_halvings=6)
        _, rep = delta_continuation(st, self.MODEL, grids, PHYS["visc"],
                                    PHYS["eos"], PHYS["consts"], cfg,
                                    DeltaSchedule((1e-2, 1e-3, 1e-4)))
        order = np.log(rep.differences[0] / rep.differences[1]) / np.log(10.0)
        assert order >= 0.8

    def test_stationary_shift_preserved_exactly(self):
        # constant-pressure EOS and zero coefficients: every delta-run is
        # stationary, so final densities differ exactly by the shift
        grids = make_grids(n=64)
        st = self.make_plateau(grids)
        eos_flat = EquationOfState.barotropic_table(
            np.linspace(0.0, 4.0, 8), np.full(8, 2.0))
        cfg = SlabConfig(slab_length=0.004, dt=0.001)
        finals = {}
        for delta in (1e-2, 1e-3):
            lifted = State(I=st.I, rho=st.rho + delta, u=st.u)
            from dataclasses import replace
            grid_d = replace(grids.spatial, farfield_rho=1.0 + delta)
            grids_d = Grids(grid_d, grids.freq, grids.ang)
            final, _ = solve_slab(lifted, zero_model(), grids_d, PHYS["visc"],
                                  eos_flat, PHYS["consts"], cfg)
            finals[delta] = final
        diff = np.max(np.abs(finals[1e-2].rho - finals[1e-3].rho))
        assert diff == pytest.approx(1e-2 - 1e-3, rel=1e-12)

    def test_single_delta_degenerates_to_one_solve(self):
        grids = make_grids(n=32, n_ord=4, n_bands=2)
        st = bump_state(grids)
        cfg = SlabConfig(slab_length=0.004, dt=0.002)
        final, rep = delta_continuation(st, self.MODEL, grids, PHYS["visc"],
                                        PHYS["eos"], PHYS["consts"], cfg,
                                        DeltaSchedule((1e-3,)))
        assert rep.differences == []
        assert rep.monotone
        lifted = State(I=st.I, rho=st.rho + 1e-3, u=st.u)
        from dataclasses import replace
        grid_d = replace(grids.spatial, farfield_rho=1.0 + 1e-3)
        direct, _ = solve_slab(lifted, self.MODEL,
                               Grids(grid_d, grids.freq, grids.ang),
                               PHYS["visc"], PHYS["eos"], PHYS["consts"], cfg)
        assert np.array_equal(final.rho, direct.rho)

    def test_vacuum_farfield_background_monotone(self):
        # zero far-field density: the lift also raises the background and the
        # contraction metric picks up the L^{3/2} density term
        grids = make_grids(n=64, rho_bar=0.0)
        grid = grids.spatial
        x = grid.axis_coords(0)
        s = np.maximum(0.0, 1.0 - ((x - 0.5) / 0.25) ** 2)
        rho = s ** 3
        st = State(I=np.zeros(grids.radiation_shape()), rho=rho,
                   u=np.zeros((1, 64)))
        cfg = SlabConfig(slab_length=0.004, dt=0.001, max_halvings=6)
        _, rep = delta_continuation(st, self.MODEL, grids, PHYS["visc"],
                                    PHYS["eos"], PHYS["consts"], cfg,
                                    DeltaSchedule((1e-2, 1e-3, 1e-4)))
        assert rep.monotone
        assert rep.differences[1] < rep.differences[0]

    def test_extrapolation_reduces_lift_bias(self):
        grids = make_grids(n=64)
        st = bump_state(grids)
        cfg = SlabConfig(slab_length=0.004, dt=0.001)
        base, _ = solve_slab(st, self.MODEL, grids, PHYS["visc"], PHYS["eos"],
                             PHYS["consts"], cfg)
        extr, rep = delta_continuation(st, self.MODEL, grids, PHYS["visc"],
                                       PHYS["eos"], PHYS["consts"], cfg,
                                       DeltaSchedule((1e-2, 1e-3),
                                                     extrapolate=True))
        assert rep.extrapolated
        last, _ = delta_continuation(st, self.MODEL, grids, PHYS["visc"],
                                     PHYS["eos"], PHYS["consts"], cfg,
                                     DeltaSchedule((1e-3,)))
        err_extr = lp_norm(extr.rho - base.rho, 2.0, grids.spatial)
        err_last = lp_norm(last.rho - base.rho, 2.0, grids.spatial)
        assert err_extr < err_last


class TestStateValidation:
    def test_negative_intensity_rejected(self):
        grids = make_grids(n=8)
        st = State(I=-np.ones(grids.radiation_shape()), rho=np.ones(8),
                   u=np.zeros((1, 8)))
        with pytest.raises(DomainError):
            st.validate(grids)


# a 32-cell version of the vacuum far-field continuation run: the main solve
# and three density-lifted solves of the same single slab [0, 0.002]
_CONTINUATION_RUN = """
[grid]
dim = 1
cells = 32
lengths = 1.0
boundary = farfield
rho_bar = 0

[radiation]
ordinates = 4
band_edges = 0.5, 1.0, 2.0

[model]
kind = compton
D1 = 1
D2 = 1
v0 = 1
theta = 1
kernel0 = 0.05

[scenario]
name = vacuum-farfield

[run]
t_final = 0.002
slab_length = 0.002
dt = 0.001
continuity = characteristics
deltas = 1e-2, 1e-3, 1e-4
output_dir = {out}
"""


class TestHeatFlowChain:
    """The mollified velocities of iterate 0 are computed once per slab and
    shared, by value, by every solve that starts from the same data."""

    @pytest.fixture
    def heat_calls(self, monkeypatch):
        calls = []
        real = picard.heat_smooth

        def counted(u, grid, duration):
            calls.append(duration)
            return real(u, grid, duration)

        picard._heat_flow_chain.cache_clear()
        monkeypatch.setattr(picard, "heat_smooth", counted)
        yield calls
        picard._heat_flow_chain.cache_clear()

    def test_one_chain_per_slab_in_a_continuation_run(self, heat_calls, tmp_path):
        summary = run_scenario(parse_config(_CONTINUATION_RUN.format(out=tmp_path)))
        assert summary["picard"]["slabs"] == 1
        # two steps of one slab: once, not once per solve (4 solves)
        assert heat_calls == [0.001, 0.001]

    def test_keyed_by_value(self, heat_calls):
        grids = make_grids(n=16, rho_bar=0.0, n_ord=2, n_bands=1)
        x = grids.spatial.axis_coords(0)
        st = State(I=np.zeros(grids.radiation_shape()), rho=np.ones(16),
                   u=np.sin(2 * np.pi * x)[None])
        cfg = SlabConfig(slab_length=0.002, dt=0.001)
        times = _slab_times(0.0, 0.002, 0.001)

        def chain(state=st, g=grids, t=times):
            before = len(heat_calls)
            states = _initial_iterate(state, g, PHYS["consts"], cfg, t)
            return [s.u for s in states[1:]], len(heat_calls) - before

        first, n = chain()
        assert n == 2
        assert all(not u.flags.writeable for u in first)
        with pytest.raises(ValueError):
            first[0][0, 0] = 1.0
        # the chain is the heat flow applied step by step, bit for bit
        u = st.u
        for got in first:
            u = heat_smooth(u, grids.spatial, 0.001)
            assert got.tobytes() == u.tobytes()

        # equal values in new objects, and another far-field density: no work
        same = State(I=st.I.copy(), rho=st.rho + 1e-3, u=st.u.copy())
        lifted = Grids(replace(grids.spatial, farfield_rho=1e-3), grids.freq, grids.ang)
        for kwargs in (dict(state=same), dict(g=lifted), dict(t=times.copy())):
            again, n = chain(**kwargs)
            assert n == 0 and all(a is b for a, b in zip(again, first))

        # a changed u0, slab times, spacing or boundary recomputes
        moved = State(I=st.I, rho=st.rho, u=0.5 * st.u)
        wider = make_grids(n=16, rho_bar=0.0, n_ord=2, n_bands=1)
        wider = Grids(replace(wider.spatial, spacing=(0.125,)), wider.freq, wider.ang)
        periodic = make_grids(n=16, boundary="periodic", n_ord=2, n_bands=1)
        for kwargs in (dict(state=moved), dict(t=_slab_times(0.001, 0.002, 0.001)),
                       dict(g=wider), dict(g=periodic)):
            _, n = chain(**kwargs)
            assert n == 2
            chain()                                   # back to the first key
