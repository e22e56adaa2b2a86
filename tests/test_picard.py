import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import rhlab.picard as picard
from rhlab.config import parse_config
from rhlab.diagnostics import mass_total
from rhlab.errors import DomainError, IterationError, ParameterError, StepSizeError
from rhlab import fluid, transport
from rhlab.fluid import (VelocityHistory, _trace_backward, continuity_step_characteristics,
                         heat_smooth)
from rhlab.grid import AngularQuadrature, FrequencyGrid, Grids, SpatialGrid
from rhlab.norms import lp_norm
from rhlab.physics import (CoefficientModel, EquationOfState, PhysicalConstants,
                           ViscosityParams, constant_model, zero_model)
from rhlab.picard import (DeltaSchedule, PicardDiagnostics, SlabConfig, State,
                          _initial_iterate, _slab_times, _stop_rule,
                          delta_continuation, gamma_metric, solve,
                          solve_slab)
from rhlab.runner import run_scenario
from rhlab.transport import _radiation, free_streaming_step

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
        dict(max_halvings=-1),
        dict(gamma_tol=0.0), dict(gamma_tol=-1e-8), dict(gamma_tol=float("nan")),
        dict(gamma_tol=float("inf"))])
    def test_iteration_policy_checked_like_the_config(self, bad):
        # before, max_halvings=-1 raised an IterationError without solving anything
        with pytest.raises(ParameterError) as err:
            SlabConfig(slab_length=0.01, dt=0.01, **bad)
        assert err.value.exit_code == 2

    def test_iteration_policy_edges_accepted(self):
        cfg = SlabConfig(slab_length=0.01, dt=0.01, max_halvings=0)
        assert cfg.max_halvings == 0


class TestOneTransportAdvance:
    """Iterate 0 and every sweep advance the intensity through the one
    substep loop of ``rhlab.transport``."""

    def test_one_advance_per_step_of_every_iterate(self, monkeypatch):
        # iterate 0 calls picard's binding, each sweep's radiation step
        # transport's own
        calls = []
        real = transport._advance

        def counted(I_n, psi, *rest):
            calls.append("free" if psi is None else "sweep")
            return real(I_n, psi, *rest)

        monkeypatch.setattr(picard, "_advance", counted)
        monkeypatch.setattr(transport, "_advance", counted)
        grids = make_grids()
        cfg = SlabConfig(slab_length=0.01, dt=0.002)
        _, diag = run_slab(bump_state(grids), constant_model(0.5, 0.1, 0.05), grids, cfg)
        assert diag.halvings == 0 and diag.iterations >= 2
        assert calls == ["free"] * 5 + ["sweep"] * 5 * diag.iterations

    @pytest.mark.parametrize("kind", ["tabulated", "untabulated", "rho_emission_table"])
    def test_quadrature_constants_read_once_per_attempt(self, monkeypatch, kind):
        # w1's shape: 1D periodic, 128 cells, 8 ordinates x 4 bands, 20 steps
        grids = make_grids(n=128, boundary="periodic")
        model = constant_model(0.2, 0.05, 0.05)
        if kind == "untabulated":
            model.sigma = lambda v, omega, t, x, rho: np.full_like(rho, 0.2)
        elif kind == "rho_emission_table":
            # tables never depend on t, so a rho-dependent emission table is
            # read once per density like any other
            def emission(v, omega, t, x, rho):
                return 0.05 * rho
            emission.table = lambda v, rho: 0.05 * rho
            model.emission, model.emission_depends_rho = emission, True
        cfg = SlabConfig(slab_length=0.01, dt=5e-4)
        counts = {}

        def count(owner, name, wrap=lambda f: f):
            real = getattr(owner, name)
            counts[name] = 0

            def counted(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrap(counted))

        count(CoefficientModel, "_quadrature_key", staticmethod)
        for name in ("_upwind_sets", "_flux_weights", "_cfl_limit"):
            count(transport, name)
        for name in ("sigma_bm", "emission_bm"):
            count(CoefficientModel, name)
        _, diag = picard.solve_slab_full(bump_state(grids), model, grids, PHYS["visc"],
                                         PHYS["eos"], PHYS["consts"], cfg)
        steps, sweeps = diag.times.size - 1, diag.iterations
        assert steps == 20 and diag.halvings == 0 and sweeps >= 2
        # untabulated: each step's one substep and its momentum source, per sweep
        evaluations = 2 * steps * sweeps if kind == "untabulated" else 0
        # one record serves iterate 0 and every sweep; the CFL limit is a
        # cached lookup per advance and per free-streaming step of iterate 0
        # (I0 = 0 is not streamed, so it reads no upwind sets)
        assert counts == dict(_quadrature_key=1, _upwind_sets=1, _flux_weights=1,
                              _cfl_limit=steps * (2 + sweeps), sigma_bm=evaluations,
                              emission_bm=evaluations)

    def test_too_many_substeps_is_a_step_size_error(self):
        # c = 1e300 on 4 cells of a unit ring puts the CFL limit at 2.9e-301,
        # so dt = 0.01 asks for about 3.8e298 substeps: the first advance
        # (iterate 0's free streaming) raises at once instead of looping
        grids = make_grids(n=4, boundary="periodic", n_ord=4, n_bands=1)
        with pytest.raises(StepSizeError, match="MAX_SUBSTEPS=10000") as raised:
            solve_slab(zero_state(grids), zero_model(), grids, PHYS["visc"], PHYS["eos"],
                       PhysicalConstants(1e300), SlabConfig(0.01, 0.01))
        assert raised.value.exit_code == 3

    def test_slab_config_has_no_transport_cfl(self):
        assert "transport_cfl" not in SlabConfig.__slots__
        with pytest.raises(TypeError):
            SlabConfig(slab_length=0.01, dt=0.01, transport_cfl=0.5)


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
        assert gamma_metric([st], [st], grids) == 0.0

    def test_vacuum_weight_annihilates_velocity(self):
        grids = make_grids(n=8)
        shape = grids.radiation_shape()
        a = State(I=np.zeros(shape), rho=np.zeros(8), u=np.zeros((1, 8)))
        b = State(I=np.zeros(shape), rho=np.zeros(8), u=np.ones((1, 8)))
        assert gamma_metric([a], [b], grids) == 0.0

    def test_hand_built_four_cell_case(self):
        grid = SpatialGrid.periodic(4, 1.0)
        ang = AngularQuadrature(np.array([[-0.5], [0.5]]), np.array([1.0, 1.0]),
                                2.0, slab=True)
        grids = Grids(grid, FrequencyGrid.from_edges([1.0, 2.0]), ang)
        prev = State(I=np.zeros((1, 2, 4)), rho=np.ones(4), u=np.zeros((1, 4)))
        nxt = State(I=np.ones((1, 2, 4)), rho=np.array([1.0, 2.0, 1.0, 2.0]),
                    u=np.ones((1, 4)))
        # by hand: radiation 2 (phase measure), density 0.5, velocity 1.5
        val = gamma_metric([prev], [nxt], grids)
        assert val == pytest.approx(2.0 + 0.5 + 1.5, rel=1e-12)
        # the grid decides the L^{3/2} density term: a far field whose
        # density vanishes adds it, one with rho_bar 0.5 does not
        extra = lp_norm(nxt.rho - prev.rho, 1.5, grid) ** 2
        for rho_bar, want in ((0.0, val + extra), (0.5, val)):
            far = Grids(SpatialGrid.farfield(4, 1.0, rho_bar), grids.freq, ang)
            assert gamma_metric([prev], [nxt], far) == pytest.approx(want, rel=1e-12)

    def test_trajectory_sup(self):
        grids = make_grids(n=8)
        st0 = zero_state(grids)
        st1 = State(I=st0.I, rho=st0.rho + 0.5, u=st0.u)
        assert gamma_metric([st0, st0], [st0, st1], grids) == \
            gamma_metric([st0], [st1], grids)

    def test_nan_increment_is_not_zero(self):
        # max(0.0, nan) is 0.0: a NaN sweep must not read as gamma = 0
        grids = make_grids(n=8)
        a = zero_state(grids)
        b = State(I=a.I, rho=np.full(8, np.nan), u=a.u)
        assert math.isnan(gamma_metric([a, a], [a, b], grids))
        assert math.isnan(gamma_metric([a, a], [b, a], grids))
        assert _stop_rule([1.0, math.nan], 1e-8) is None
        assert _stop_rule([math.nan], 1e-8) is None
        assert _stop_rule([math.inf], 1e-8) is None

    def test_nan_sweep_stalls_and_raises(self, monkeypatch):
        # every sweep's density turns NaN: each attempt stops after one sweep,
        # the slab is halved max_halvings times, and IterationError carries
        # the last attempt's diagnostics
        sweep = picard._iterate_once

        def nan_density(*args, **kwargs):
            states = sweep(*args, **kwargs)
            last = states[-1]
            return states[:-1] + [State(I=last.I, rho=np.full_like(last.rho, np.nan),
                                        u=last.u)]

        monkeypatch.setattr(picard, "_iterate_once", nan_density)
        grids = make_grids(n=8)
        cfg = SlabConfig(slab_length=0.004, dt=0.001, max_halvings=2)
        with pytest.raises(IterationError, match="after 2 halvings") as ei:
            run_slab(zero_state(grids), zero_model(), grids, cfg)
        diag = ei.value.diagnostics
        assert diag.halvings == 2 and diag.slab_length == 0.001
        assert len(diag.gamma_history) == 1 and math.isnan(diag.gamma_history[0])
        assert not diag.converged
        # the message names the slab's start time and its last attempt's length
        with pytest.raises(IterationError, match=r"after 2 halvings \(slab from t0 = 0\.25, "
                                                 r"last attempt of length 0\.001\)$"):
            picard.solve_slab(zero_state(grids), zero_model(), grids, PHYS["visc"],
                              PHYS["eos"], PHYS["consts"], cfg, t0=0.25)


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

    def test_fixed_point_stops_on_the_floor(self):
        # the equilibrium slab's first gamma is below the absolute floor
        grids = make_grids()
        cfg = SlabConfig(slab_length=0.01, dt=0.002)
        _, diag = run_slab(zero_state(grids), zero_model(), grids, cfg)
        assert diag.stop_rule == "floor"


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
                             max_halvings=0)
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
                             max_iters=40, max_halvings=0)
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


# a w1-like periodic bump slab and its far-field counterpart
_BUMP_SLABS = {"periodic": (128, 0.01, 5e-4), "farfield": (64, 0.01, 0.002)}


class TestStopRule:
    MODEL = constant_model(0.2, 0.05, 0.05)

    def test_w1_gamma_history(self):
        # sweep 3 of a w1 slab: ratio 9.7e-6, bound 3.5e-17 <= tol * gamma_1
        history = [8.2e-5, 3.7e-7, 3.6e-12]
        assert _stop_rule(history[:2], 1e-8) is None
        assert _stop_rule(history, 1e-8) == "bound"
        assert _stop_rule(history + [1.7e-17], 1e-8) == "step"
        assert _stop_rule(history + [1e-29], 1e-8) == "floor"

    def test_bound_needs_ratio_at_most_ratio_max(self):
        # gamma_3 = 1.5 * tol * gamma_1 in both; the bound is 4.1e-10 at ratio
        # 2e-2 (above _RATIO_MAX, so not trusted) and 8.7e-11 at ratio 5e-3
        assert _stop_rule([1.0, 7.5e-7, 1.5e-8], 1e-8) is None
        assert _stop_rule([1.0, 3e-6, 1.5e-8], 1e-8) == "bound"

    @pytest.mark.parametrize("boundary", sorted(_BUMP_SLABS))
    def test_bump_slab_stops_on_the_bound(self, boundary):
        n, T, dt = _BUMP_SLABS[boundary]
        grids = make_grids(n=n, boundary=boundary)
        cfg = SlabConfig(slab_length=T, dt=dt)
        _, diag = run_slab(bump_state(grids), self.MODEL, grids, cfg)
        assert diag.converged and diag.stop_rule == "bound"
        assert diag.iterations == 3

    @pytest.mark.parametrize("boundary", sorted(_BUMP_SLABS))
    def test_confirming_sweep_meets_the_step_rule(self, boundary):
        # the sweep the step rule alone would run after a "bound" acceptance
        # would have accepted too: its gamma is within gamma_tol * gamma_1
        n, T, dt = _BUMP_SLABS[boundary]
        grids = make_grids(n=n, boundary=boundary)
        state0 = bump_state(grids)
        cfg = SlabConfig(slab_length=T, dt=dt)
        states, diag = picard.solve_slab_full(state0, self.MODEL, grids, PHYS["visc"],
                                              PHYS["eos"], PHYS["consts"], cfg)
        assert diag.stop_rule == "bound" and diag.halvings == 0
        times = _slab_times(0.0, T, dt)
        rad = _radiation(self.MODEL, grids, PHYS["consts"].c)
        confirm = picard._iterate_once(states, state0, rad, PHYS["visc"], PHYS["eos"], cfg,
                                       times)
        gamma = gamma_metric(states, confirm, grids)
        assert gamma <= cfg.gamma_tol * diag.gamma_history[0]

    @settings(max_examples=200)
    @given(dim=hst.integers(1, 8), seed=hst.integers(0, 2**32 - 1),
           q=hst.floats(0.0, 0.1, exclude_min=True), tol=hst.floats(1e-12, 1e-4),
           scale=hst.floats(1e-2, 1e2))
    def test_accepted_iterates_are_within_tolerance(self, dim, seed, q, tol, scale):
        # x -> q Q x + b with Q orthogonal contracts every increment by q
        # exactly, so the per-sweep ratio is q^2; every iterate the rule
        # accepts lies within sqrt(tol * gamma_1) of the fixed point
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        x_star = rng.uniform(-10.0, 10.0, dim)
        b = x_star - q * (Q @ x_star)
        e0 = rng.normal(size=dim)
        x = x_star + scale * e0 / np.linalg.norm(e0)
        history, rule = [], None
        while rule is None and len(history) < 60:
            x_new = q * (Q @ x) + b
            history.append(float(np.sum((x_new - x) ** 2)))
            x = x_new
            rule = _stop_rule(history, tol)
        assert rule is not None
        # b carries round-off, so x_star is the map's fixed point to ~1e-14
        assert np.linalg.norm(x - x_star) <= np.sqrt(tol * history[0]) + 1e-12

    @settings(max_examples=300)
    @given(history=hst.lists(hst.floats(0.0, 1e3), min_size=1, max_size=6),
           tol=hst.floats(1e-12, 10.0))
    @example(history=[8.2e-5, 3.7e-7, 3.6e-12], tol=1e-8)
    def test_bound_only_on_a_small_ratio(self, history, tol):
        if _stop_rule(history, tol) == "bound":
            ratio = history[-1] / history[-2]
            assert ratio <= picard._RATIO_MAX and ratio < 1.0

    @settings(max_examples=500)
    @given(history=hst.lists(hst.one_of(hst.sampled_from([0.0, 1e-28, 1.0, 2.0, math.inf,
                                                          math.nan]),
                                        hst.floats(0.0, 1e3)), min_size=1, max_size=8),
           tol=hst.floats(1e-12, 2.0))
    @example(history=[1.0, 1.0, 0.0], tol=1e-8)
    def test_acceptance_is_never_a_stall(self, history, tol):
        # the driver stops at the first accepted sweep and reads a stall as a
        # last ratio >= 1, so the two must never fall on the same sweep
        for k in range(1, len(history) + 1):
            if _stop_rule(history[:k], tol) is not None:
                if k >= 2 and history[k - 2] > 0.0:
                    assert not history[k - 1] / history[k - 2] >= 1.0
                break
        # the derived ratios are the ones the sweep loop used to append
        appended = []
        for k in range(2, len(history) + 1):
            prev_gamma = history[k - 2]
            if prev_gamma > 0.0:
                appended.append(history[k - 1] / prev_gamma)
        diag = PicardDiagnostics(slab_length=0.01, times=np.zeros(2),
                                 gamma_history=list(history))
        assert [r.hex() for r in diag.contraction_ratios] == [r.hex() for r in appended]


_HALVING_RUN = """
[grid]
dim = 1
cells = 16
lengths = 1.0

[radiation]
ordinates = 2
band_edges = 0.5, 1.0

[model]
kind = zero

[run]
t_final = 0.004
slab_length = 0.002
dt = 0.001
output_dir = {out}
"""


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

    @pytest.mark.parametrize("t_final", [math.nan, math.inf])
    def test_non_finite_t_final_rejected(self, t_final):
        grids = make_grids(n=16)
        with pytest.raises(ParameterError, match="finite and positive"):
            solve(bump_state(grids), self.MODEL, grids, PHYS["visc"], PHYS["eos"],
                  PHYS["consts"], SlabConfig(slab_length=0.004, dt=0.001), t_final)

    def test_times_are_the_slab_step_times(self, monkeypatch):
        # the trajectory records the times each slab stepped through, bit for
        # bit, also after a halving: slab length 0.01 (11 snapshots) stalls on
        # a tie (gamma 1, 1), the run goes on with 0.005, and the slab from
        # 0.01 has t0 + linspace(0, T) one ulp off linspace(t0, t0 + T) at its
        # third step
        metric = picard.gamma_metric

        def first_length_stalls(prev, nxt, grids):
            return 1.0 if len(nxt) == 11 else metric(prev, nxt, grids)

        monkeypatch.setattr(picard, "gamma_metric", first_length_stalls)
        grids = make_grids(n=16, n_ord=2, n_bands=1)
        cfg = SlabConfig(slab_length=0.01, dt=0.001)
        traj = solve(zero_state(grids), zero_model(), grids, PHYS["visc"], PHYS["eos"],
                     PHYS["consts"], cfg, t_final=0.02)
        assert [d.halvings for d in traj.diagnostics] == [1, 0, 0, 0]
        assert [d.stop_rule for d in traj.diagnostics] == ["floor"] * 4
        expected, t = [0.0], 0.0
        for _ in range(4):
            expected += _slab_times(t, 0.005, 0.001)[1:].tolist()
            t += 0.005
        assert [x.hex() for x in traj.times] == [x.hex() for x in expected]
        assert _slab_times(0.01, 0.005, 0.001)[3] != np.linspace(0.01, 0.015, 6)[3]

    def test_halved_and_floor_slabs_in_a_run(self, monkeypatch, tmp_path):
        # scripted gammas: slab 0 stalls at length 0.002 (ratio 2), is halved
        # and accepted on the floor at its third sweep (ratio 0); the three
        # slabs of length 0.001 after it are accepted on the floor at once
        script = iter([1.0, 2.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0])
        monkeypatch.setattr(picard, "gamma_metric", lambda *args, **kwargs: next(script))
        summary = run_scenario(parse_config(_HALVING_RUN.format(out=tmp_path)))
        assert next(script, None) is None
        assert (tmp_path / "picard.csv").read_text() == (
            "slab,k,gamma,ratio\n"
            "0,1,1,\n0,2,0.5,0.5\n0,3,0,0\n1,1,0,\n2,1,0,\n3,1,0,\n")
        assert summary["picard"] == {"slabs": 4, "total_iterations": 6,
                                     "all_converged": True, "max_ratio": 0.5}
        assert summary["snapshots"] == 5

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

    def test_non_monotone_pressure_law_keeps_positivity_and_mass(self, rng):
        # acceptance criteria 1 and 2 under a C1 pressure law that falls
        # between rho = 0.5 and 1, on data with a vacuum region (criterion 1's
        # interior vacuum) and mass measured over 1000 FV steps (criterion 2)
        eos = EquationOfState.barotropic_table([0.0, 0.5, 1.0, 1.5, 2.0, 3.0],
                                               [0.0, 1.0, 0.6, 0.9, 1.6, 3.0])
        grids = make_grids(n=128, boundary="periodic")
        grid = grids.spatial
        x = grid.axis_coords(0)
        st = State(I=rng.random(grids.radiation_shape()),
                   rho=np.maximum(0.0, 0.7 + 0.9 * np.sin(2 * np.pi * x)),
                   u=0.1 * np.sin(2 * np.pi * x)[None])
        assert np.any(st.rho == 0.0) and np.any((st.rho > 0.5) & (st.rho < 1.0))
        cfg = SlabConfig(slab_length=0.01, dt=5e-4)
        traj = solve(st, constant_model(0.2, 0.05, 0.05), grids, PHYS["visc"], eos,
                     PHYS["consts"], cfg, t_final=0.5)
        assert len(traj.states) - 1 >= 1000
        assert min(float(np.min(s.rho)) for s in traj.states) >= 0.0
        assert min(float(np.min(s.I)) for s in traj.states) >= 0.0
        masses = [mass_total(s.rho, grid) for s in traj.states]
        assert (max(masses) - min(masses)) / masses[0] <= 1e-11

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

    def test_lifted_grids_add_no_layout_cache_miss(self):
        # w4's grid: 256 far-field cells with rho_bar = 0.  The lifted grids
        # differ only in rho_bar, so they reuse the layout built for it
        import rhlab.fluid as fluid
        grids = make_grids(n=256, rho_bar=0.0)
        st = self.make_plateau(grids)
        cfg = SlabConfig(slab_length=0.001, dt=0.001)
        # the layout is the one operator cache of the module
        assert [f for f in vars(fluid).values() if hasattr(f, "cache_info")] \
            == [fluid._momentum_layout_of]
        cache = fluid._momentum_layout_of
        solve_slab(st, self.MODEL, grids, PHYS["visc"], PHYS["eos"], PHYS["consts"], cfg)
        misses = cache.cache_info().misses
        delta_continuation(st, self.MODEL, grids, PHYS["visc"], PHYS["eos"], PHYS["consts"],
                           cfg, DeltaSchedule((1e-2, 1e-3, 1e-4)))
        assert cache.cache_info().misses == misses
        lifted = picard._lift_grids(grids, 1e-2).spatial
        assert lifted.rho_bar == 1e-2
        assert fluid._momentum_layout(lifted, PHYS["visc"]) \
            is fluid._momentum_layout(grids.spatial, PHYS["visc"])

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
            grid_d = grids.spatial._replace(rho_bar=1.0 + delta)
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
        grid_d = grids.spatial._replace(rho_bar=1.0 + 1e-3)
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

    def test_lift_bias_shrinks_with_delta(self):
        # the state returned is the smallest delta's, and a smaller lift
        # lands closer to the unlifted solution
        grids = make_grids(n=64)
        st = bump_state(grids)
        cfg = SlabConfig(slab_length=0.004, dt=0.001)
        base, _ = solve_slab(st, self.MODEL, grids, PHYS["visc"], PHYS["eos"],
                             PHYS["consts"], cfg)
        errs = []
        for deltas in ((1e-2,), (1e-2, 1e-3)):
            last, rep = delta_continuation(st, self.MODEL, grids, PHYS["visc"],
                                           PHYS["eos"], PHYS["consts"], cfg,
                                           DeltaSchedule(deltas))
            assert rep.deltas == list(deltas)
            errs.append(lp_norm(last.rho - base.rho, 2.0, grids.spatial))
        assert errs[1] < errs[0]


class TestStateValidation:
    def test_negative_intensity_rejected(self):
        grids = make_grids(n=8)
        st = State(I=-np.ones(grids.radiation_shape()), rho=np.ones(8),
                   u=np.zeros((1, 8)))
        with pytest.raises(DomainError):
            st.validate(grids)

    @pytest.mark.parametrize("bad", [-0.1, np.nan])
    def test_negative_or_nonfinite_density_rejected(self, bad):
        grids = make_grids(n=8)
        rho = np.ones(8)
        rho[1] = bad
        st = State(I=np.zeros(grids.radiation_shape()), rho=rho, u=np.zeros((1, 8)))
        with pytest.raises(DomainError):
            st.validate(grids)

    def test_each_slab_start_validated_once(self, monkeypatch):
        # solve leaves the check to each slab solve: 2 slabs, 2 checks, and
        # a bad start raises the same error through solve
        calls = []
        real = State.validate

        def counted(self, grids):
            calls.append(1)
            return real(self, grids)

        monkeypatch.setattr(State, "validate", counted)
        grids = make_grids(n=8)
        cfg = SlabConfig(slab_length=0.002, dt=0.001)
        traj = solve(zero_state(grids), zero_model(), grids, PHYS["visc"], PHYS["eos"],
                     PHYS["consts"], cfg, t_final=0.004)
        assert len(traj.diagnostics) == 2 and len(calls) == 2
        bad = State(I=np.zeros(grids.radiation_shape()), rho=-np.ones(8), u=np.zeros((1, 8)))
        with pytest.raises(DomainError, match="rho >= 0"):
            solve(bad, zero_model(), grids, PHYS["visc"], PHYS["eos"], PHYS["consts"], cfg,
                  t_final=0.004)


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
    """Iterate 0 (heat-flowed velocities and free-streamed intensities) is
    built by each solve attempt from its own start, and with characteristics
    continuity every sweep, the first included, traces the iterate it reads
    through ``continuity_step_characteristics``."""

    @staticmethod
    def counter(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.fixture
    def heat_calls(self, monkeypatch):
        return self.counter(monkeypatch, picard, "heat_smooth")

    @pytest.fixture
    def attempts(self, monkeypatch):
        """The diagnostics of every slab attempt, in order."""
        diags = []
        real = picard.solve_slab_full

        def recorded(*args, **kwargs):
            states, diag = real(*args, **kwargs)
            diags.append(diag)
            return states, diag

        monkeypatch.setattr(picard, "solve_slab_full", recorded)
        return diags

    def test_heat_flow_and_free_streaming_step_by_step(self, heat_calls):
        grids = make_grids(n=16, rho_bar=0.0, n_ord=2, n_bands=1)
        x = grids.spatial.axis_coords(0)
        st = State(I=np.exp(-((x - 0.5) / 0.1) ** 2) * np.ones(grids.radiation_shape()),
                   rho=np.ones(16), u=np.sin(2 * np.pi * x)[None])
        times = _slab_times(0.0, 0.002, 0.001)
        rad = _radiation(constant_model(0.2, 0.0, 0.02), grids, PHYS["consts"].c)
        states = _initial_iterate(st, rad, times)
        assert len(heat_calls) == 2 and states[0] is st
        # the chain is the heat flow and free streaming applied step by step,
        # bit for bit
        u, I = st.u, st.I
        for got in states[1:]:
            u = heat_smooth(u, grids.spatial, 0.001)
            I = free_streaming_step(I, grids, 0.001, 1.0)
            assert got.u.tobytes() == u.tobytes() and got.I.tobytes() == I.tobytes()
            assert got.rho is st.rho
        # the first sweep's densities are the trace of its velocity history
        cfg = SlabConfig(slab_length=0.002, dt=0.001, continuity="characteristics")
        swept = picard._iterate_once(states, st, rad, PHYS["visc"], PHYS["eos"], cfg, times)
        hist = VelocityHistory(times, [s.u for s in states])
        rho = continuity_step_characteristics(st.rho, hist, times[1:], grids.spatial)
        assert np.stack([s.rho for s in swept[1:]]).tobytes() == rho.tobytes()

    @pytest.mark.parametrize("case", ["0.002", "0.004", "fv"])
    def test_one_trace_per_sweep_of_every_solve(self, heat_calls, attempts, tmp_path,
                                               monkeypatch, case):
        # every sweep, the first included, traces the iterate it reads, and
        # every trace runs inside picard's binding of
        # continuity_step_characteristics, which the benchmark tracer times.
        # At 0.004 the main solve's second slab starts moving; FV continuity
        # makes no trace.
        inside = []
        traces = []
        real_trace, real_char = fluid._trace_backward, picard.continuity_step_characteristics

        def trace(*args, **kwargs):
            traces.append(bool(inside))
            return real_trace(*args, **kwargs)

        def characteristics(*args, **kwargs):
            inside.append(1)
            try:
                return real_char(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(fluid, "_trace_backward", trace)
        monkeypatch.setattr(picard, "continuity_step_characteristics", characteristics)
        text = _CONTINUATION_RUN.format(out=tmp_path)
        if case == "fv":
            text = text.replace("continuity = characteristics", "continuity = fv")
        else:
            text = text.replace("t_final = 0.002", f"t_final = {case}")
        summary = run_scenario(parse_config(text))
        assert len(attempts) == summary["picard"]["slabs"] + 3
        assert all(d.halvings == 0 for d in attempts)
        sweeps = 0 if case == "fv" else sum(d.iterations for d in attempts)
        assert traces == [True] * sweeps
        assert len(heat_calls) == 2 * len(attempts)

    def test_lifted_solves_end_at_t_final(self, attempts, tmp_path):
        # the slab is longer than the run: the main solve and each
        # density-lifted solve stop at t_final, in the same steps
        text = _CONTINUATION_RUN.format(out=tmp_path).replace("slab_length = 0.002",
                                                             "slab_length = 0.01")
        run_scenario(parse_config(text))
        assert len(attempts) == 4
        assert all(d.halvings == 0 and d.times.tobytes() == attempts[0].times.tobytes()
                   for d in attempts)
        assert attempts[0].times[-1] == 0.002

    @pytest.mark.parametrize("moved", [None, "u", "I"])
    def test_a_slab_at_rest_is_not_stepped(self, heat_calls, monkeypatch, moved):
        # at rest (zeros of either sign) the heat flow, the free streaming and
        # the trace return their known results without stepping; one nonzero
        # cell of u0 or I0 makes its operators step again
        streams = self.counter(monkeypatch, transport, "_streaming")
        pads = self.counter(monkeypatch, fluid, "pad_ghost")
        grids = make_grids(n=16, rho_bar=0.0, n_ord=2, n_bands=1)
        rest = zero_state(grids)
        I, u = rest.I.copy(), rest.u.copy()
        I[..., 5], u[0, 3] = -0.0, -0.0
        if moved == "u":
            u[0, 7] = 0.5
        elif moved == "I":
            I[0, 1, 7] = 0.5
        times = _slab_times(0.0, 0.002, 0.001)
        states = _initial_iterate(State(I=I, rho=rest.rho, u=u),
                                  _radiation(zero_model(), grids, PHYS["consts"].c), times)
        # the first sweep's trace, of iterate 0's velocity history
        pts, clamped, divint = _trace_backward(VelocityHistory(times, [s.u for s in states]),
                                               times[1:], grids.spatial)
        assert len(heat_calls) == 2
        assert (len(streams) > 0) == (moved == "I")
        assert (len(pads) > 0) == (moved == "u")
        if moved is None:
            assert all(s.I.tobytes() == I.tobytes() and s.u.tobytes() == bytes(s.u.nbytes)
                       for s in states[1:])
            assert np.all(pts == grids.spatial.axis_coords(0)) and clamped == 0
            assert np.all(np.exp(-divint) == 1.0)
