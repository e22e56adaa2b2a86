import numpy as np
import pytest

from rhlab.config import parse_config
from rhlab.diagnostics import phi
from rhlab.errors import ConfigError
from rhlab.grid import AngularQuadrature, FrequencyGrid, Grids, SpatialGrid
from rhlab.norms import NormSettings
from rhlab.runner import build_problem
from rhlab.scenarios import builtin_scenarios


def make_grids(n=128, boundary="farfield", rho_bar=1.0):
    grid = SpatialGrid.periodic(n, 1.0) if boundary == "periodic" \
        else SpatialGrid.farfield(n, 1.0, rho_bar)
    return Grids(grid, FrequencyGrid.from_edges([0.5, 1.0, 2.0, 3.0, 4.5]),
                 AngularQuadrature.gauss_legendre_slab(8))


def build(name, grids, params=None):
    return builtin_scenarios()[name].build(grids, params)


NAMES = sorted(builtin_scenarios())


class TestBuiltinScenarios:
    @pytest.mark.parametrize("name", [n for n in NAMES if n != "vacuum-farfield"])
    @pytest.mark.parametrize("cells", [64, 128])
    def test_invariants_at_all_resolutions(self, name, cells):
        grids = make_grids(n=cells)
        st = build(name, grids)
        assert np.min(st.rho) >= 0.0
        assert np.min(st.I) >= 0.0
        assert np.isfinite(phi(st, grids, NormSettings()))

    @pytest.mark.parametrize("cells", [64, 128])
    def test_vacuum_farfield_invariants(self, cells):
        st = build("vacuum-farfield", make_grids(n=cells, rho_bar=0.0))
        assert np.min(st.rho) >= 0.0
        assert np.max(st.rho) > 0.0
        # compact support: identically zero at the domain edge
        assert st.rho[0] == 0.0 and st.rho[-1] == 0.0

    @pytest.mark.parametrize("name", ["compat-satisfied", "compat-diverging"])
    @pytest.mark.parametrize("cells", [10, 16])
    def test_compat_builds_on_a_coarse_3d_farfield_grid(self, name, cells):
        # the edge taper reaches 0 on the face cells however few cells span
        # its ramp, so the far-field decay check passes
        text = (f"[grid]\ndim = 3\ncells = {cells}, {cells}, {cells}\n"
                "lengths = 1.0, 1.0, 1.0\nboundary = farfield\nrho_bar = 1\n"
                f"[model]\nkind = zero\n[scenario]\nname = {name}\n")
        u = build_problem(parse_config(text)).state0.u
        assert np.max(np.abs(u)) > 0.0
        for a in range(3):
            assert not np.any(np.take(u, [0, -1], axis=1 + a))

    @pytest.mark.parametrize("name", ["compat-satisfied", "compat-diverging", "vacuum-plateau"])
    def test_plateau_builds_on_a_non_square_farfield_domain(self, name):
        # vacuum_radius and transition_width are fractions of the shortest
        # side, so the density reaches rho_bar before the short side's faces
        text = ("[grid]\ndim = 2\ncells = 32, 16\nlengths = 1.0, 0.5\n"
                "boundary = farfield\nrho_bar = 1\n"
                f"[model]\nkind = zero\n[scenario]\nname = {name}\n")
        rho = build_problem(parse_config(text)).state0.rho
        assert np.min(rho) == 0.0
        assert np.all(rho[[0, -1], :] == 1.0) and np.all(rho[:, [0, -1]] == 1.0)

    def test_equilibrium_phi_is_one(self):
        grids = make_grids()
        assert phi(build("equilibrium", grids), grids, NormSettings()) == 1.0

    def test_vacuum_plateau_has_marked_vacuum_set(self):
        rho = build("vacuum-plateau", make_grids()).rho
        assert np.any(rho == 0.0)
        # transition has finite W^{1,q}-type slope: no jumps between cells
        jumps = np.abs(np.diff(rho))
        assert np.max(jumps) < 0.2

    def test_beam_single_ordinate(self):
        grids = make_grids()
        I = build("beam-absorption", grids).I
        occupied = [(b, m) for b in range(I.shape[0]) for m in range(I.shape[1])
                    if np.any(I[b, m] > 0)]
        assert len(occupied) == 1
        b, m = occupied[0]
        assert grids.ang.ordinates[m, 0] == np.max(grids.ang.ordinates[:, 0])

    def test_beam_absorption_requires_positive_background(self):
        # a zero background used to be replaced by 1 without a word
        text = ("[grid]\ndim = 1\ncells = 16\nlengths = 1.0\nboundary = periodic\n"
                "rho_bar = 0\n\n[run]\nt_final = 0.01\n\n"
                "[scenario]\nname = beam-absorption\n")
        with pytest.raises(ConfigError,
                           match="beam-absorption: needs a positive background density"):
            build_problem(parse_config(text))

    def test_vacuum_farfield_requires_zero_background(self):
        with pytest.raises(ConfigError):
            build("vacuum-farfield", make_grids(rho_bar=1.0))

    def test_custom_profiles(self):
        st = build("custom", make_grids(boundary="periodic"),
                   {"rho0": "bump", "u0": "sine", "u0_amplitude": 0.05,
                    "I0": "uniform", "I0_value": 0.3})
        assert np.max(st.rho) > 1.0
        assert np.max(np.abs(st.u)) == pytest.approx(0.05, rel=0.05)
        assert np.all(st.I == 0.3)

    def test_parameter_override(self):
        # cell centers straddle the bump peak, so compare with a grid margin
        rho = build("smooth-bump", make_grids(), {"amplitude": 0.5}).rho
        assert np.max(rho) == pytest.approx(1.5, rel=1e-2)
        assert np.max(rho) > np.max(build("smooth-bump", make_grids()).rho)
