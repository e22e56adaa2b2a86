import numpy as np
import pytest

from rhlab.config import build_problem, parse_config
from rhlab.diagnostics import (MIN_NEW_CELLS, BlowupReport, StateTimeDerivatives,
                               ThetaHistory, blowup_monitor, compatibility_check,
                               compatibility_residual, default_cut_schedule,
                               farfield_bounds_check,
                               initial_force_imbalance, mass_total, phi,
                               phi_components, theta)
from rhlab.errors import ParameterError
from rhlab.fluid import continuity_step_fv
from rhlab.grid import AngularQuadrature, FrequencyGrid, Grids, SpatialGrid
from rhlab.norms import NormSettings
from rhlab.physics import (EquationOfState, PhysicalConstants, ViscosityParams,
                           constant_model, zero_model)
from rhlab.picard import SlabConfig, State, Trajectory, solve
from rhlab.runner import _write_monitor_csv
from rhlab.scenarios import builtin_scenarios

from conftest import random_smooth_field

VISC = ViscosityParams(1.0, 0.0)
EOS = EquationOfState.polytropic(1.0, 2.0)
CONSTS = PhysicalConstants(1.0)


def make_grids(n=128, boundary="periodic", rho_bar=1.0, n_ord=8):
    grid = SpatialGrid.periodic(n, 1.0) if boundary == "periodic" \
        else SpatialGrid.farfield(n, 1.0, rho_bar)
    return Grids(grid, FrequencyGrid.from_edges([0.5, 1.0, 2.0, 3.0, 4.5]),
                 AngularQuadrature.gauss_legendre_slab(n_ord))


def equilibrium_state(grids, rho_bar=1.0):
    grid = grids.spatial
    return State(I=np.zeros(grids.radiation_shape()),
                 rho=np.full(grid.extents, rho_bar),
                 u=np.zeros((grid.dim,) + grid.extents))


class TestCompatibilityResidual:
    def test_equilibrium_vanishes(self):
        grids = make_grids()
        st = equilibrium_state(grids)
        rep = compatibility_residual(st.I, st.rho, st.u, EOS, VISC, zero_model(),
                                     grids, CONSTS, rho_cut=1e-3)
        assert rep.g_l2 == 0.0
        assert np.all(rep.g_field == 0.0)

    def test_positive_density_matches_direct_formula(self, rng):
        grids = make_grids()
        grid = grids.spatial
        rho = np.abs(random_smooth_field(grid, rng)) + 0.5
        u = np.stack([random_smooth_field(grid, rng)])
        I = np.abs(rng.random(grids.radiation_shape()))
        model = constant_model(0.4, 0.1, 0.2)
        rep = compatibility_residual(I, rho, u, EOS, VISC, model, grids, CONSTS,
                                     rho_cut=1e-6)
        imb = initial_force_imbalance(I, rho, u, EOS, VISC, model, grids, CONSTS)
        direct = np.sqrt(np.sum(imb ** 2 / rho[None]) * grid.cell_volume)
        assert rep.g_l2 == pytest.approx(direct, abs=1e-12)

    def test_viscous_sine_oracle(self):
        # rho = 1, u0 = sin(2 pi x), constant pressure, no radiation:
        # g1 = L u0 with norm (2 mu + lam)(2 pi)^2 times |sin|_2
        grids = make_grids(n=256)
        grid = grids.spatial
        x = grid.axis_coords(0)
        u = np.sin(2 * np.pi * x)[None]
        st_I = np.zeros(grids.radiation_shape())
        flat_eos = EquationOfState.barotropic_table(np.linspace(0, 4, 8),
                                                    np.full(8, 1.0))
        rep = compatibility_residual(st_I, np.ones(256), u, flat_eos, VISC,
                                     zero_model(), grids, CONSTS, rho_cut=1e-3)
        expected = (2 * VISC.mu + VISC.lam) * (2 * np.pi) ** 2 * 0.70711
        assert rep.g_l2 == pytest.approx(expected, rel=5e-3)

    def test_invariant_under_velocity_shift(self, rng):
        grids = make_grids()
        grid = grids.spatial
        rho = np.abs(random_smooth_field(grid, rng)) + 0.5
        u = np.stack([random_smooth_field(grid, rng)])
        model = constant_model(0.2, 0.1, 0.1)
        I = np.abs(rng.random(grids.radiation_shape()))
        rep1 = compatibility_residual(I, rho, u, EOS, VISC, model, grids,
                                      CONSTS, 1e-4)
        rep2 = compatibility_residual(I, rho, u + 3.7, EOS, VISC, model, grids,
                                      CONSTS, 1e-4)
        assert abs(rep1.g_l2 - rep2.g_l2) < 1e-10

    def test_cut_must_be_positive(self):
        grids = make_grids()
        st = equilibrium_state(grids)
        with pytest.raises(ParameterError):
            compatibility_residual(st.I, st.rho, st.u, EOS, VISC, zero_model(),
                                   grids, CONSTS, rho_cut=0.0)


class TestCompatibilityCheck:
    def build(self, name, n=256):
        grids = make_grids(n=n, boundary="farfield")
        return grids, builtin_scenarios()[name].build(grids)

    def test_vacuous_branch(self):
        grids, st = self.build("smooth-bump")
        rep = compatibility_check(st.I, st.rho, st.u, EOS, VISC, zero_model(),
                                  grids, CONSTS)
        assert rep.verdict == "vacuous"
        trace_vals = [v for _, v, _ in rep.refinement_trace]
        assert max(trace_vals) == min(trace_vals)

    def test_satisfied_branch(self):
        grids, st = self.build("compat-satisfied")
        rep = compatibility_check(st.I, st.rho, st.u, EOS, VISC, zero_model(),
                                  grids, CONSTS)
        assert rep.verdict == "satisfied"
        prev, last = rep.refinement_trace[-2][1], rep.refinement_trace[-1][1]
        assert abs(last - prev) <= 0.05 * prev

    def test_diverging_branch(self):
        grids, st = self.build("compat-diverging")
        rep = compatibility_check(st.I, st.rho, st.u, EOS, VISC, zero_model(),
                                  grids, CONSTS)
        assert rep.verdict == "diverging"
        assert rep.last_ratio > 2.0

    @staticmethod
    def check_cube(dim, n, boundary, name):
        """The verdict on n^dim cells of unit lengths, rho_bar = 1, default keys."""
        cells, lengths = ", ".join([str(n)] * dim), ", ".join(["1.0"] * dim)
        prob = build_problem(parse_config(
            f"[grid]\ndim = {dim}\ncells = {cells}\nlengths = {lengths}\n"
            f"boundary = {boundary}\nrho_bar = 1\n[model]\nkind = zero\n"
            f"[scenario]\nname = {name}\n"))
        st = prob.state0
        return compatibility_check(st.I, st.rho, st.u, prob.eos, prob.visc, prob.model,
                                   prob.grids, prob.consts)

    @pytest.mark.parametrize("boundary", ["periodic", "farfield"])
    @pytest.mark.parametrize("name, verdict", [("compat-satisfied", "satisfied"),
                                               ("compat-diverging", "diverging")])
    def test_dichotomy_on_a_2d_grid(self, boundary, name, verdict):
        # 48^2 cells, rho_bar = 1, default keys: traces 117.41 -> 118.29
        # (periodic) and 143.26 -> 143.98 (far field) when satisfied, and
        # last ratios 3.83 and 2.75 when diverging
        rep = self.check_cube(2, 48, boundary, name)
        assert rep.verdict == verdict
        if verdict == "diverging":
            assert rep.last_ratio > 2.0

    def test_trace_counts_the_cells_at_or_below_each_cut(self):
        grids, st = self.build("compat-satisfied")
        rep = compatibility_check(st.I, st.rho, st.u, EOS, VISC, zero_model(),
                                  grids, CONSTS)
        cells = [c for _, _, c in rep.refinement_trace]
        assert cells == [int(np.sum(st.rho <= cut)) for cut, _, _ in rep.refinement_trace]
        assert [a - b for a, b in zip(cells, cells[1:])] == [6, 4, 2]

    @pytest.mark.parametrize("boundary", ["periodic", "farfield"])
    @pytest.mark.parametrize("name, verdict", [("compat-satisfied", "satisfied"),
                                               ("compat-diverging", "diverging")])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_coarse_grid_is_never_inverted(self, dim, boundary, name, verdict):
        # 24^2: the satisfied trace admits 8, 0, 8 new cells per interval
        # (94.1, 114.6, 114.6, 380.3) and the diverging one 0, 8, 0 (84.0,
        # 84.0, 362.1, 362.1); 24^3: 48, 0, 32 and 24, 48, 0.  Comparing the
        # last two values alone inverted all eight verdicts
        rep = self.check_cube(dim, 24, boundary, name)
        assert rep.verdict in (verdict, "unresolved")
        assert rep.last_ratio is not None

    def test_unresolved_when_an_interval_admits_too_few_cells(self):
        grids, st = self.build("compat-diverging")
        cells = [int(np.sum(st.rho <= cut)) for cut in default_cut_schedule(st.rho)]
        assert min(a - b for a, b in zip(cells, cells[1:])) >= MIN_NEW_CELLS
        # a cut just below the smallest admits no new cell
        cuts = default_cut_schedule(st.rho)
        cuts.append(cuts[-1] * (1.0 - 1e-12))
        rep = compatibility_check(st.I, st.rho, st.u, EOS, VISC, zero_model(),
                                  grids, CONSTS, cuts=cuts)
        assert rep.verdict == "unresolved"
        assert rep.refinement_trace[-1][2] == rep.refinement_trace[-2][2]

    def test_schedule_must_decrease(self):
        grids, st = self.build("smooth-bump")
        with pytest.raises(ParameterError):
            compatibility_check(st.I, st.rho, st.u, EOS, VISC, zero_model(),
                                grids, CONSTS, cuts=[1e-3, 1e-2])

    @pytest.mark.parametrize("name", ["compat-diverging", "smooth-bump"])
    @pytest.mark.parametrize("cuts", [[1e-3], [], [np.nan, 1e-3], [1e-2, np.nan]],
                             ids=["one", "none", "nan-first", "nan-last"])
    def test_schedule_rejected_up_front(self, name, cuts):
        # one cut leaves no pair to compare, and a NaN cut orders with
        # nothing; either is rejected up front (exit code 2) whether or not a
        # cell lies at or below the cuts
        grids, st = self.build(name)
        with pytest.raises(ParameterError, match="at least two cuts") as err:
            compatibility_check(st.I, st.rho, st.u, EOS, VISC, zero_model(),
                                grids, CONSTS, cuts=cuts)
        assert err.value.exit_code == 2


class TestPhiTheta:
    def test_phi_equilibrium_is_one(self):
        grids = make_grids()
        st = equilibrium_state(grids)
        settings = NormSettings()
        assert phi(st, grids, settings) == 1.0

    def test_phi_velocity_only(self):
        grids = make_grids(n=256)
        grid = grids.spatial
        x = grid.axis_coords(0)
        st = State(I=np.zeros(grids.radiation_shape()), rho=np.ones(256),
                   u=np.sin(2 * np.pi * x)[None])
        settings = NormSettings()
        assert phi(st, grids, settings) == pytest.approx(1.0 + 4.4429, abs=1e-3)

    def test_phi_monotone_in_scale(self, rng):
        grids = make_grids(n=64)
        grid = grids.spatial
        settings = NormSettings()
        dI = np.abs(rng.random(grids.radiation_shape()))
        drho = random_smooth_field(grid, rng, amplitude=0.1)
        du = np.stack([random_smooth_field(grid, rng)])
        values = []
        for alpha in (0.0, 0.5, 1.0, 2.0, 4.0):
            st = State(I=alpha * dI, rho=np.abs(1.0 + alpha * drho),
                       u=alpha * du)
            values.append(phi(st, grids, settings))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_theta_dominates_phi_summands(self, rng):
        grids = make_grids(n=64)
        grid = grids.spatial
        settings = NormSettings()
        st = State(I=np.abs(rng.random(grids.radiation_shape())),
                   rho=np.abs(1.0 + 0.2 * random_smooth_field(grid, rng)),
                   u=np.stack([random_smooth_field(grid, rng)]))
        deriv = StateTimeDerivatives(I_t=np.zeros_like(st.I),
                                     rho_t=np.zeros_like(st.rho),
                                     u_t=np.zeros_like(st.u))
        th = theta(st, deriv, ThetaHistory(), grids, settings)
        assert th >= phi(st, grids, settings) - 1e-12


class TestBlowupMonitor:
    def test_equilibrium_run(self):
        grids = make_grids(n=64)
        st = equilibrium_state(grids)
        cfg = SlabConfig(slab_length=0.002, dt=0.001)
        traj = solve(st, zero_model(), grids, VISC, EOS, CONSTS, cfg, 0.006)
        settings = NormSettings()
        rep = blowup_monitor(traj, grids, settings)
        assert all(p == 1.0 for p in rep.phi)
        assert all(np.isfinite(t) for t in rep.theta)
        assert rep.flags == []

    def test_phi_matches_recomputation(self):
        grids = make_grids(n=64)
        grid = grids.spatial
        x = grid.axis_coords(0)
        st = State(I=np.zeros(grids.radiation_shape()),
                   rho=1.0 + 0.3 * np.exp(-((x - 0.5) / 0.1) ** 2),
                   u=np.zeros((1, 64)))
        model = constant_model(0.3, 0.05, 0.1)
        cfg = SlabConfig(slab_length=0.002, dt=0.001)
        traj = solve(st, model, grids, VISC, EOS, CONSTS, cfg, 0.006)
        settings = NormSettings()
        rep = blowup_monitor(traj, grids, settings)
        for i in (0, len(traj.states) // 2, len(traj.states) - 1):
            assert rep.phi[i] == pytest.approx(phi(traj.states[i], grids, settings),
                                               abs=1e-10)
        assert rep.first_theta_overflow is None

    def test_growth_recorded_without_flags_under_cap(self):
        # forced run: phi grows but stays under the cap, theta stays finite
        grids = make_grids(n=64)
        st = equilibrium_state(grids)
        model = constant_model(0.0, 0.0, 2.0)  # strong emission
        cfg = SlabConfig(slab_length=0.002, dt=0.001)
        traj = solve(st, model, grids, VISC, EOS, CONSTS, cfg, 0.01)
        settings = NormSettings()
        rep = blowup_monitor(traj, grids, settings)
        assert rep.phi[-1] > rep.phi[0]
        assert rep.max_phi <= rep.phi_cap
        assert rep.flags == []

    def test_phi_components_once_per_snapshot(self, monkeypatch):
        # every snapshot enters the Phi and the Theta norms exactly once, in
        # order, whatever the chunking; snapshot 0's Phi gives the cap
        import rhlab.diagnostics as diagnostics
        import rhlab.norms as norms
        grids = make_grids(n=32)
        x = grids.spatial.axis_coords(0)
        st = State(I=np.zeros(grids.radiation_shape()),
                   rho=1.0 + 0.3 * np.exp(-((x - 0.5) / 0.1) ** 2),
                   u=np.zeros((1, 32)))
        cfg = SlabConfig(slab_length=0.002, dt=0.001)
        traj = solve(st, constant_model(0.3, 0.05, 0.1), grids, VISC, EOS, CONSTS,
                     cfg, 0.004)
        settings = NormSettings()
        # two snapshots per chunk: the five snapshots split 2, 2, 1
        monkeypatch.setattr(norms, "CHUNK_BYTES", 2 * traj.states[0].I.nbytes)
        phi_rho, theta_rho = [], []
        # the density stack is argument 1 of _phi_cells, 0 of _theta_cells
        for name, k, seen in (("_phi_cells", 1, phi_rho), ("_theta_cells", 0, theta_rho)):
            real = getattr(diagnostics, name)
            monkeypatch.setattr(diagnostics, name,
                                lambda *a, real=real, k=k, seen=seen:
                                seen.append(a[k].copy()) or real(*a))
        rep = blowup_monitor(traj, grids, settings)
        want = np.stack([s.rho for s in traj.states])
        assert [len(r) for r in phi_rho] == [2, 2, 1]
        for seen in (phi_rho, theta_rho):
            assert np.array_equal(np.concatenate(seen), want)
        assert rep.phi_cap == 10.0 * phi(traj.states[0], grids, settings)
        assert rep.phi_components == [phi_components(s, grids, settings) for s in traj.states]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_theta_overflow_flagged_under_cap(self):
        grids = make_grids(n=8, n_ord=2)
        st = equilibrium_state(grids)
        good = State(I=st.I, rho=st.rho, u=st.u)
        bad = State.__new__(State)  # bypass validation to inject an overflow
        object.__setattr__(bad, "I", st.I)
        object.__setattr__(bad, "rho", st.rho)
        object.__setattr__(bad, "u", np.full_like(st.u, np.inf))
        traj = Trajectory(times=[0.0, 0.001], states=[good, bad])
        settings = NormSettings()
        rep = blowup_monitor(traj, grids, settings, phi_cap=np.inf)
        assert rep.first_theta_overflow == 0.001
        assert rep.flags  # theta overflow while phi under cap
        assert rep.flag_snapshots == [1]

    def test_monitor_csv_attaches_flags_by_snapshot(self, tmp_path):
        # the flag raised at t=0.012 names a time whose text contains "t=0.01";
        # it must land on the t=0.012 row only
        flag = "theta overflow at t=0.012 while phi stayed under cap 10"
        rep = BlowupReport(times=[0.0, 0.01, 0.012], phi=[1.0] * 3, theta=[1.0] * 3,
                           phi_components=[(0.0, 0.0, 0.0)] * 3, phi_cap=10.0,
                           flags=[flag], flag_snapshots=[2])
        path = tmp_path / "monitor.csv"
        _write_monitor_csv(path, rep, [1.0] * 3, [1.0] * 3)
        flags = [row.split(",")[-1] for row in path.read_text().splitlines()[1:]]
        assert flags == ["", "", flag]


class TestFarfieldBounds:
    def test_equilibrium_passes(self):
        grids = make_grids(n=64, boundary="farfield")
        st = equilibrium_state(grids)
        traj = Trajectory(times=[0.0, 1.0], states=[st, st])
        rep = farfield_bounds_check(traj, grids, radius=0.3)
        assert rep.applicable and rep.passed
        assert rep.first_violation is None

    def test_bump_short_run_passes(self):
        grids = make_grids(n=64, boundary="farfield")
        grid = grids.spatial
        x = grid.axis_coords(0)
        st = State(I=np.zeros(grids.radiation_shape()),
                   rho=1.0 + 0.3 * np.exp(-((x - 0.5) / 0.08) ** 2),
                   u=np.zeros((1, 64)))
        model = constant_model(0.3, 0.0, 0.05)
        cfg = SlabConfig(slab_length=0.002, dt=0.001)
        traj = solve(st, model, grids, VISC, EOS, CONSTS, cfg, 0.008)
        rep = farfield_bounds_check(traj, grids, radius=0.35)
        assert rep.applicable and rep.passed

    def test_violation_detected(self):
        grids = make_grids(n=64, boundary="farfield")
        st = equilibrium_state(grids)
        low = State(I=st.I, rho=np.full(64, 0.1), u=st.u)
        traj = Trajectory(times=[0.0, 0.5], states=[st, low])
        rep = farfield_bounds_check(traj, grids, radius=0.3)
        assert not rep.passed
        assert rep.first_violation == 0.5

    def test_zero_background_not_applicable(self):
        grids = make_grids(n=64, boundary="farfield", rho_bar=0.0)
        st = equilibrium_state(grids)
        traj = Trajectory(times=[0.0], states=[st])
        rep = farfield_bounds_check(traj, grids, radius=0.3)
        assert not rep.applicable


class TestMassTotal:
    def test_unit_density(self, grid128):
        assert mass_total(np.ones(128), grid128) == pytest.approx(1.0, abs=1e-14)

    def test_fv_step_conserves(self, grid128, rng):
        rho = np.abs(random_smooth_field(grid128, rng)) + 0.1
        w = np.full((1, 128), 0.3)
        out = continuity_step_fv(rho, w, 0.5 * grid128.spacing[0] / 0.3, grid128)
        assert mass_total(out, grid128) == pytest.approx(mass_total(rho, grid128),
                                                         rel=1e-13)

    def test_trajectory_drift(self):
        grids = make_grids(n=64, boundary="periodic")
        grid = grids.spatial
        x = grid.axis_coords(0)
        st = State(I=np.zeros(grids.radiation_shape()),
                   rho=1.0 + 0.4 * np.sin(2 * np.pi * x),
                   u=np.zeros((1, 64)))
        model = constant_model(0.2, 0.05, 0.05)
        cfg = SlabConfig(slab_length=0.002, dt=0.001)
        traj = solve(st, model, grids, VISC, EOS, CONSTS, cfg, 0.02)
        masses = [mass_total(s.rho, grid) for s in traj.states]
        assert abs(masses[-1] - masses[0]) / masses[0] < 1e-11
