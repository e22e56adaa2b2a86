"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest

from rhlab.cli import main as cli_main
from rhlab.diagnostics import (blowup_monitor, compatibility_check,
                               farfield_bounds_check, initial_force_imbalance,
                               mass_total, phi)
from rhlab.fluid import (VelocityHistory, continuity_step_characteristics,
                         continuity_step_fv, lame_apply)
from rhlab.grid import (AngularQuadrature, FrequencyGrid, Grids, SpatialGrid,
                        divergence, gradient, inner_product)
from rhlab.norms import NormSettings, lp_norm, sobolev_norm
from rhlab.physics import (EquationOfState, PhysicalConstants, ViscosityParams,
                           compton_model, constant_model, zero_model,
                           validate_kernel_integrability)
from rhlab.picard import (DeltaSchedule, SlabConfig, State, delta_continuation,
                          solve, solve_slab)
from rhlab.scenarios import builtin_scenarios
from rhlab.transport import transport_step

from _reference import solve_monolithic
from conftest import random_smooth_field, random_smooth_vector

VISC = ViscosityParams(1.0, 0.0)
EOS = EquationOfState.polytropic(1.0, 2.0)
CONSTS = PhysicalConstants(1.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


def make_grids(n=128, boundary="farfield", rho_bar=1.0, n_ord=8,
               edges=(0.5, 1.0, 2.0, 3.0, 4.5)):
    grid = SpatialGrid.periodic(n, 1.0) if boundary == "periodic" \
        else SpatialGrid.farfield(n, 1.0, rho_bar)
    return Grids(grid, FrequencyGrid.from_edges(list(edges)),
                 AngularQuadrature.gauss_legendre_slab(n_ord))


def build_scenario(name, grids, params=None):
    return builtin_scenarios()[name].build(grids, params)


def test_criterion_01_positivity_suite():
    """50 randomized admissible runs keep rho >= 0 and I >= 0 exactly."""
    with criterion(1, "positivity over 50 randomized admissible runs"):
        rng = np.random.default_rng(101)
        grids = make_grids(n=128, boundary="farfield", rho_bar=1.0)
        grid = grids.spatial
        x = grid.axis_coords(0)
        worst_rho, worst_I = np.inf, np.inf
        for run in range(50):
            envelope = np.exp(-((x - 0.5) / 0.25) ** 2)
            base = 1.0 + 0.4 * np.sin(
                2 * np.pi * rng.integers(1, 4) * x + rng.uniform(0, 2 * np.pi)) \
                * envelope
            if run % 3 == 0:
                # force an interior vacuum region
                rho0 = np.maximum(base - rng.uniform(0.8, 1.0) * envelope, 0.0) \
                    + (1.0 - envelope)
                rho0 = np.maximum(rho0, 0.0)
            else:
                rho0 = np.maximum(base - rng.uniform(0.0, 0.5) * envelope, 0.05)
            I0 = rng.random(grids.radiation_shape()) * rng.uniform(0.0, 1.0)
            u0 = (rng.uniform(-0.15, 0.15)
                  * np.sin(2 * np.pi * x) * envelope)[None]
            model = constant_model(float(rng.uniform(0.0, 1.0)),
                                   float(rng.uniform(0.0, 0.3)),
                                   float(rng.uniform(0.0, 0.3)))
            st = State(I=I0, rho=rho0, u=u0)
            cfg = SlabConfig(slab_length=0.004, dt=0.002, gamma_tol=1e-6,
                             max_halvings=3)
            traj = solve(st, model, grids, VISC, EOS, CONSTS, cfg, t_final=0.008)
            for s in traj.states:
                worst_rho = min(worst_rho, float(np.min(s.rho)))
                worst_I = min(worst_I, float(np.min(s.I)))
        assert worst_rho >= 0.0
        assert worst_I >= 0.0


def test_criterion_02_mass_conservation():
    """FV continuity mass drift <= 1e-11 relative over a 1000-step trajectory."""
    with criterion(2, "mass drift <= 1e-11 over 1000 finite-volume steps"):
        grids = make_grids(n=128, boundary="periodic")
        grid = grids.spatial
        x = grid.axis_coords(0)
        st = State(I=np.zeros(grids.radiation_shape()),
                   rho=1.0 + 0.4 * np.sin(2 * np.pi * x),
                   u=np.zeros((1, 128)))
        model = constant_model(0.2, 0.05, 0.05)
        cfg = SlabConfig(slab_length=0.01, dt=5e-4, gamma_tol=1e-8)
        traj = solve(st, model, grids, VISC, EOS, CONSTS, cfg, t_final=0.5)
        assert len(traj.states) - 1 >= 1000
        masses = [mass_total(s.rho, grid) for s in traj.states]
        drift = (max(masses) - min(masses)) / masses[0]
        assert drift <= 1e-11


def test_criterion_03_transport_oracles():
    """Pure absorption matches exp(-c Lambda t); streaming shifts by c Omega t."""
    with criterion(3, "transport decay and streaming oracles"):
        # uniform decay: Lambda = sigma rho = 1, c = 1, t = 1, dt = 1e-3
        grids = Grids(SpatialGrid.periodic(8, 1.0),
                      FrequencyGrid.from_edges([1.0, 2.0]),
                      AngularQuadrature.gauss_legendre_slab(2))
        model = constant_model(sigma0=1.0)
        I = np.ones(grids.radiation_shape())
        dt = 1e-3
        for k in range(1000):
            I = transport_step(I, I, np.ones(8), model, grids, dt, k * dt, 1.0)
        assert np.max(np.abs(I - np.exp(-1.0))) / np.exp(-1.0) <= 1e-3

        # streaming at CFL 1: pulse translation within one cell of c Omega t
        n = 128
        grid = SpatialGrid.periodic(n, 1.0)
        sgrids = Grids(grid, FrequencyGrid.from_edges([1.0, 2.0]),
                       AngularQuadrature.beams_slab())
        c = 1.0
        dt = grid.spacing[0] / c
        x = grid.axis_coords(0)
        pulse = np.exp(-((x - 0.25) / 0.04) ** 2)
        I = np.zeros(sgrids.radiation_shape())
        I[0, 1] = pulse
        steps = 32
        for k in range(steps):
            I = transport_step(I, I, np.ones(n), zero_model(), sgrids, dt,
                               k * dt, c)
        t_total = steps * dt
        expected_shift = c * 1.0 * t_total  # Omega_x = +1
        centroid0 = float(np.sum(x * pulse) / np.sum(pulse))
        centroid1 = float(np.sum(x * I[0, 1]) / np.sum(I[0, 1]))
        measured_shift = (centroid1 - centroid0) % 1.0
        assert abs(measured_shift - expected_shift % 1.0) <= grid.spacing[0]


def test_criterion_04_lame_identities():
    """Energy identity on 20 random fields; analytic 1D eigenvalue."""
    with criterion(4, "viscous operator energy identity and eigenvalue"):
        rng = np.random.default_rng(404)
        grid = SpatialGrid.periodic(128, 1.0)
        visc = ViscosityParams(mu=0.9, lam=0.3)
        for _ in range(20):
            u = random_smooth_vector(grid, rng)
            lhs = inner_product(lame_apply(u, visc, grid), u, grid)
            rhs = (visc.mu * lp_norm(gradient(u[0], grid), 2.0, grid) ** 2
                   + (visc.lam + visc.mu)
                   * lp_norm(divergence(u, grid), 2.0, grid) ** 2)
            assert abs(lhs - rhs) <= 1e-9
        grid256 = SpatialGrid.periodic(256, 1.0)
        x = grid256.axis_coords(0)
        u = np.sin(2 * np.pi * x)[None]
        Lu = lame_apply(u, VISC, grid256)
        expected = (2 * VISC.mu + VISC.lam) * (2 * np.pi) ** 2
        assert abs(np.max(Lu) / np.max(u) - expected) / expected <= 5e-3


def test_criterion_05_characteristics_oracles():
    """Linear-velocity exact solution and agreement with the FV path."""
    with criterion(5, "characteristics decay oracle and FV agreement"):
        # rho0 exp(-alpha t) with alpha = 1, t = ln 2, velocity samples at
        # spacing 1e-2
        grid = SpatialGrid.farfield(128, 1.0, 1.0)
        x = grid.axis_coords(0)
        t = float(np.log(2.0))
        times = np.arange(0.0, t + 1e-2, 1e-2)
        times[-1] = t
        hist = VelocityHistory(times, [x[None]] * times.size)
        out = continuity_step_characteristics(np.ones(128), hist, t, grid)
        assert np.max(np.abs(out[3:-3] - 0.5)) <= 1e-3

        # characteristics and FV agree at first order: ratio >= 1.7 per 2x
        diffs = []
        for n in (64, 128):
            g = SpatialGrid.periodic(n, 1.0)
            xs = g.axis_coords(0)
            rho0 = 1.0 + 0.4 * np.sin(2 * np.pi * xs)
            w = (0.3 + 0.1 * np.cos(2 * np.pi * xs))[None]
            T, steps = 0.2, 4 * n
            dt = T / steps
            rho_fv = rho0
            for _ in range(steps):
                rho_fv = continuity_step_fv(rho_fv, w, dt, g)
            rho_ch = continuity_step_characteristics(
                rho0, VelocityHistory([0.0, T], [w, w]), T, g, substeps=steps)
            diffs.append(lp_norm(rho_fv - rho_ch, 2.0, g))
        assert diffs[0] / diffs[1] >= 1.7


def test_criterion_06_picard_contraction():
    """Contractive slab found by halving; matches the monolithic reference."""
    with criterion(6, "fixed-point contraction and monolithic agreement"):
        grids = make_grids(n=64)
        state0 = build_scenario("smooth-bump", grids)
        model = constant_model(0.5, 0.1, 0.05)
        cfg = SlabConfig(slab_length=0.008, dt=0.001, gamma_tol=1e-8,
                         max_iters=30, max_halvings=6)
        final, diag = solve_slab(state0, model, grids, VISC, EOS, CONSTS, cfg)
        assert diag.halvings <= 6
        assert diag.converged and diag.iterations <= 30
        assert diag.contraction_ratios
        assert all(r < 1.0 for r in diag.contraction_ratios)

        # against a direct (no fixed point) integrator at dt/8
        T = diag.slab_length
        sub = SlabConfig(slab_length=T, dt=0.001, gamma_tol=1e-8, max_iters=30,
                         max_halvings=6)
        ref = solve_monolithic(state0, model, grids, VISC, EOS, CONSTS,
                               0.001 / 8.0, T)
        grid = grids.spatial
        num = np.sqrt(lp_norm(final.rho - ref.rho, 2.0, grid) ** 2
                      + lp_norm(final.u - ref.u, 2.0, grid) ** 2)
        den = np.sqrt(lp_norm(ref.rho - 1.0, 2.0, grid) ** 2
                      + lp_norm(ref.u, 2.0, grid) ** 2)
        assert num / den <= 5e-2


def test_criterion_07_delta_continuation():
    """Vacuum lift differences decrease; positive data scales ~O(delta)."""
    with criterion(7, "density-lift continuation monotone and first order"):
        grids = make_grids(n=64)
        model = constant_model(0.2, 0.0, 0.02)
        cfg = SlabConfig(slab_length=0.004, dt=0.001, max_halvings=6)
        schedule = DeltaSchedule((1e-2, 1e-3, 1e-4))

        plateau = build_scenario("vacuum-plateau", grids)
        _, rep = delta_continuation(plateau, model, grids, VISC, EOS,
                                    CONSTS, cfg, schedule)
        assert rep.differences[1] < rep.differences[0]
        assert rep.monotone

        bump = build_scenario("smooth-bump", grids)
        _, rep2 = delta_continuation(bump, model, grids, VISC, EOS,
                                     CONSTS, cfg, schedule)
        order = np.log(rep2.differences[0] / rep2.differences[1]) / np.log(10.0)
        assert order >= 0.8


def test_criterion_08_compatibility_dichotomy():
    """Constructed satisfied/diverging pair plus the vacuous branch."""
    with criterion(8, "compatibility verdicts: satisfied, diverging, vacuous"):
        grids = make_grids(n=256)
        sat = build_scenario("compat-satisfied", grids)
        rep = compatibility_check(sat.I, sat.rho, sat.u, EOS, VISC, zero_model(),
                                  grids, CONSTS)
        assert rep.verdict == "satisfied"
        prev, last = rep.refinement_trace[-2][1], rep.refinement_trace[-1][1]
        assert abs(last - prev) <= 0.05 * prev

        div = build_scenario("compat-diverging", grids)
        rep = compatibility_check(div.I, div.rho, div.u, EOS, VISC, zero_model(),
                                  grids, CONSTS)
        assert rep.verdict == "diverging"
        assert rep.last_ratio > 2.0

        bump = build_scenario("smooth-bump", grids)
        model = constant_model(0.3, 0.1, 0.05)
        rep = compatibility_check(bump.I, bump.rho, bump.u, EOS, VISC, model,
                                  grids, CONSTS)
        assert rep.verdict == "vacuous"
        direct = initial_force_imbalance(bump.I, bump.rho, bump.u, EOS, VISC,
                                         model, grids, CONSTS)
        g_direct = np.sqrt(np.sum(direct ** 2 / bump.rho[None])
                           * grids.spatial.cell_volume)
        assert abs(rep.g_l2 - g_direct) <= 1e-12


def test_criterion_09_blowup_monitor_consistency():
    """Theta finite and unflagged whenever sup Phi <= 10 Phi(0); Phi matches
    an independent recomputation to 1e-10."""
    with criterion(9, "blow-up monitor consistency across scenario runs"):
        cfg = SlabConfig(slab_length=0.002, dt=0.001, max_halvings=4)
        cases = [("equilibrium", zero_model(), 1.0),
                 ("smooth-bump", constant_model(0.4, 0.1, 0.05), 1.0),
                 ("vacuum-plateau", constant_model(0.2, 0.0, 0.0), 1.0)]
        for name, model, rho_bar in cases:
            grids = make_grids(n=64, rho_bar=rho_bar)
            traj = solve(build_scenario(name, grids), model, grids, VISC, EOS, CONSTS,
                         cfg, 0.008)
            settings = NormSettings()
            rep = blowup_monitor(traj, grids, settings)
            assert rep.max_phi <= 10.0 * rep.phi[0]
            assert all(np.isfinite(t) for t in rep.theta)
            assert rep.flags == []
            for i in range(len(traj.states)):
                recomputed = phi(traj.states[i], grids, settings)
                assert abs(rep.phi[i] - recomputed) <= 1e-10


def test_criterion_10_farfield_bounds():
    """smooth-bump with background 1 stays in [3/8, 5/2] outside the radius."""
    with criterion(10, "far-field density bounds along the run"):
        grids = make_grids(n=64)
        model = constant_model(0.4, 0.1, 0.05)
        cfg = SlabConfig(slab_length=0.002, dt=0.001, max_halvings=4)
        traj = solve(build_scenario("smooth-bump", grids), model, grids, VISC, EOS, CONSTS,
                     cfg, 0.01)
        rep = farfield_bounds_check(traj, grids, radius=0.35)
        assert rep.applicable
        assert rep.passed
        assert all(3.0 / 8.0 <= mn and mx <= 5.0 / 2.0
                   for mn, mx in zip(rep.rho_min, rep.rho_max))


def test_criterion_11_norm_oracles():
    """Analytic norms of sin(2 pi x); homogeneity and triangle inequality."""
    with criterion(11, "norm oracles and metric properties"):
        grid = SpatialGrid.periodic(256, 1.0)
        settings = NormSettings()
        x = grid.axis_coords(0)
        f = np.sin(2 * np.pi * x)
        assert abs(lp_norm(f, 2.0, grid) - 0.70711) <= 2e-3
        assert abs(sobolev_norm(f, "D1", settings, grid) - 4.4429) <= 2e-3
        assert abs(sobolev_norm(f, "H1", settings, grid) - 5.1500) <= 2e-3
        rng = np.random.default_rng(1111)
        for _ in range(10):
            g1 = random_smooth_field(grid, rng)
            g2 = random_smooth_field(grid, rng)
            alpha = float(rng.uniform(-4, 4))
            for p in (1.0, 2.0, settings.q, np.inf):
                assert lp_norm(alpha * g1, p, grid) == pytest.approx(
                    abs(alpha) * lp_norm(g1, p, grid), rel=1e-12, abs=1e-300)
                assert lp_norm(g1 + g2, p, grid) <= (
                    lp_norm(g1, p, grid) + lp_norm(g2, p, grid)) * (1 + 1e-12)


def test_criterion_12_validators():
    """Compton kernel report passes; a kernel unbounded in v fails loudly."""
    with criterion(12, "kernel validators accept Compton, reject unbounded"):
        freq = FrequencyGrid.from_edges([0.5, 1.0, 2.0, 3.0, 4.5])
        ang = AngularQuadrature.gauss_legendre_slab(8)
        good = compton_model(1.0, 2.0, 1.5, 1.0,
                             sigma_s_profile=lambda vf, vt, mu:
                             0.2 * np.ones_like(np.asarray(mu, dtype=float)))
        rep = validate_kernel_integrability(good, freq, ang)
        assert rep.passed
        assert all(np.isfinite(e.value) for e in rep.entries)

        bad = constant_model(0.0, 0.0, 0.0)
        bad.sigma_s_bar = lambda vf, vt, mu: np.full_like(
            np.asarray(mu, dtype=float), vt ** 2)
        bad.sigma_s_bar_prime = lambda vf, vt, mu: np.full_like(
            np.asarray(mu, dtype=float), vt ** 2)
        wide = FrequencyGrid.from_edges(np.linspace(1.0, 100.0, 12))
        rep = validate_kernel_integrability(bad, wide, ang, cap=1e4)
        assert not rep.passed
        offending = [e.name for e in rep.entries if not e.passed]
        assert "in_kernel_weighted_square" in offending


def test_criterion_13_determinism(tmp_path):
    """Two identical CLI invocations produce byte-identical summaries."""
    with criterion(13, "byte-identical summaries across invocations"):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        cfg = tmp_path / "det.cfg"
        cfg.write_text(f"""
[grid]
dim = 1
cells = 64
lengths = 1.0
boundary = farfield
rho_bar = 1.0

[model]
kind = constant
sigma0 = 0.4
kernel0 = 0.1
emission0 = 0.05

[scenario]
name = smooth-bump

[run]
t_final = 0.004
slab_length = 0.002
dt = 0.001
output_dir = {out1}
""")
        assert cli_main(["run", str(cfg)]) == 0
        os.environ["RHLAB_OUTPUT_DIR"] = str(out2)
        try:
            assert cli_main(["run", str(cfg)]) == 0
        finally:
            del os.environ["RHLAB_OUTPUT_DIR"]
        assert (out1 / "summary.json").read_bytes() == \
            (out2 / "summary.json").read_bytes()
        assert (out1 / "monitor.csv").read_bytes() == \
            (out2 / "monitor.csv").read_bytes()
        assert (out1 / "picard.csv").read_bytes() == \
            (out2 / "picard.csv").read_bytes()


def _first_step_acceleration(name, dt):
    """||sqrt(rho_1) (u_1 - u_0) / dt||_2 after one accepted step dt, on the
    1D periodic grid of 128 cells over rho_bar = 1, with no radiation
    coupling."""
    grids = make_grids(n=128, boundary="periodic")
    state0 = build_scenario(name, grids)
    state1, _ = solve_slab(state0, zero_model(), grids, VISC, EOS, CONSTS,
                           SlabConfig(slab_length=dt, dt=dt))
    return np.sqrt(np.sum(state1.rho * (state1.u - state0.u) ** 2)
                   * grids.spatial.cell_volume) / dt


def test_criterion_15_initial_layer_dichotomy():
    """The paper's compatibility condition, seen in runs: sqrt(rho) u_t of the
    first step stays bounded as dt -> 0 for compatible data and grows for
    incompatible data.

    Growth per halving of dt from 1e-4 to 6.25e-6, measured when the
    criterion was written:
        smooth-bump (control)  1.017, 1.009, 1.004, 1.002
        compat-satisfied       1.196, 1.119, 1.068, 1.037  (settling)
        compat-diverging       1.164, 1.188, 1.207, 1.221  (rising, a dt^(-1/2) layer)
    The bounds below keep a margin from these."""
    with criterion(15, "initial layer: settles for compatible data, grows otherwise"):
        growth = {}
        for name in ("smooth-bump", "compat-satisfied", "compat-diverging"):
            values = [_first_step_acceleration(name, 1e-4 / 2 ** k) for k in range(5)]
            growth[name] = [b / a for a, b in zip(values, values[1:])]
        satisfied, diverging = growth["compat-satisfied"], growth["compat-diverging"]
        assert all(b < a for a, b in zip(satisfied, satisfied[1:])) and satisfied[-1] < 1.1
        assert all(b > a for a, b in zip(diverging, diverging[1:])) and diverging[-1] > 1.15
        assert all(0.98 <= r <= 1.05 for r in growth["smooth-bump"])
