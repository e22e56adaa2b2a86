import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rhlab.errors import ParameterError
from rhlab.grid import AngularQuadrature, FrequencyGrid, Grids, SpatialGrid
from rhlab.norms import (NormSettings, _lp_cells, _lp_multi, lp_norm, mixed_radiation_norm,
                         sobolev_norm)

from conftest import random_smooth_field


class TestNormSettings:
    def test_default_q(self):
        assert NormSettings().q == 4.0

    @pytest.mark.parametrize("q", [3.0, 6.5, 7.0, 2.0])
    def test_q_range_enforced(self, q):
        with pytest.raises(ParameterError, match=r"q must lie in \(3, 6\]"):
            NormSettings(q=q)

    def test_q_boundary_allowed(self):
        NormSettings(q=6.0)
        NormSettings(q=3.0001)


class TestLpNorm:
    def test_zero(self, grid128):
        assert lp_norm(np.zeros(128), 2.0, grid128) == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    def test_constant(self, grid128, p):
        assert lp_norm(np.full(128, -3.0), p, grid128) == pytest.approx(3.0, rel=1e-13)

    def test_sine_l2(self, grid256):
        x = grid256.axis_coords(0)
        val = lp_norm(np.sin(2 * np.pi * x), 2.0, grid256)
        assert val == pytest.approx(0.70711, abs=1e-4)

    def test_p_below_one_rejected(self, grid128):
        with pytest.raises(ParameterError):
            lp_norm(np.ones(128), 0.5, grid128)

    def test_vector_magnitude(self, grid128):
        u = np.stack([np.full(128, 3.0)])
        assert lp_norm(u, np.inf, grid128) == pytest.approx(3.0)


class TestSobolevNorm:
    def test_reference_subtraction(self, grid128, settings):
        f = np.full(128, 1.7)
        assert sobolev_norm(f, "H1", settings, grid128, reference=1.7) == 0.0

    def test_d1_sine(self, grid256, settings):
        x = grid256.axis_coords(0)
        val = sobolev_norm(np.sin(2 * np.pi * x), "D1", settings, grid256)
        assert val == pytest.approx(4.4429, abs=1e-3)

    def test_h1_sum_convention(self, grid256, settings):
        x = grid256.axis_coords(0)
        f = np.sin(2 * np.pi * x)
        val = sobolev_norm(f, "H1", settings, grid256)
        assert val == pytest.approx(5.1500, abs=2e-3)
        # H1 is the sum of the L2 norm and the D1 seminorm
        parts = lp_norm(f, 2.0, grid256) + sobolev_norm(f, "D1", settings, grid256)
        assert val == pytest.approx(parts, rel=1e-14)

    def test_intersection_is_sum(self, grid128, settings, rng):
        f = random_smooth_field(grid128, rng)
        both = sobolev_norm(f, "H1W1q", settings, grid128)
        assert both == pytest.approx(
            sobolev_norm(f, "H1", settings, grid128)
            + sobolev_norm(f, "W1q", settings, grid128), rel=1e-14)

    def test_d2_of_sine(self, grid256, settings):
        x = grid256.axis_coords(0)
        val = sobolev_norm(np.sin(2 * np.pi * x), "D2", settings, grid256)
        assert val == pytest.approx((2 * np.pi) ** 2 * 0.70711, rel=1e-3)

    def test_unknown_kind(self, grid128, settings):
        with pytest.raises(ParameterError):
            sobolev_norm(np.ones(128), "H3", settings, grid128)


class TestNormProperties:
    KINDS = ("D1", "D2", "H1", "W1q", "H1W1q")

    def test_homogeneity(self, grid128, settings, rng):
        for _ in range(5):
            f = random_smooth_field(grid128, rng)
            alpha = float(rng.uniform(-5, 5))
            for p in (1.0, 2.0, 4.0, np.inf):
                n1 = lp_norm(alpha * f, p, grid128)
                n0 = lp_norm(f, p, grid128)
                assert n1 == pytest.approx(abs(alpha) * n0, rel=1e-12, abs=1e-300)
            for kind in self.KINDS:
                n1 = sobolev_norm(alpha * f, kind, settings, grid128)
                n0 = sobolev_norm(f, kind, settings, grid128)
                assert n1 == pytest.approx(abs(alpha) * n0, rel=1e-12, abs=1e-300)

    def test_triangle_inequality(self, grid128, settings, rng):
        for _ in range(5):
            f = random_smooth_field(grid128, rng)
            g = random_smooth_field(grid128, rng)
            for p in (1.0, 2.0, 4.0, np.inf):
                lhs = lp_norm(f + g, p, grid128)
                rhs = lp_norm(f, p, grid128) + lp_norm(g, p, grid128)
                assert lhs <= rhs * (1 + 1e-12)
            for kind in self.KINDS:
                lhs = sobolev_norm(f + g, kind, settings, grid128)
                rhs = (sobolev_norm(f, kind, settings, grid128)
                       + sobolev_norm(g, kind, settings, grid128))
                assert lhs <= rhs * (1 + 1e-12)

    def test_monotone_refinement(self, settings):
        # Cauchy differences of the norms of a fixed smooth profile shrink
        # by at least 3x per 2x refinement
        vals = {}
        for n in (64, 128, 256):
            grid = SpatialGrid.periodic(n, 1.0)
            x = grid.axis_coords(0)
            f = np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
            vals[n] = {kind: sobolev_norm(f, kind, settings, grid)
                       for kind in ("H1", "D1", "W1q")}
        for kind in ("H1", "D1", "W1q"):
            d1 = abs(vals[128][kind] - vals[64][kind])
            d2 = abs(vals[256][kind] - vals[128][kind])
            assert d1 / d2 >= 3.0


class TestMixedRadiationNorm:
    def test_zero(self, grids128, settings):
        I = np.zeros(grids128.radiation_shape())
        assert mixed_radiation_norm(I, "L2", grids128, settings) == 0.0

    def test_isotropic_3d_weights(self, settings):
        grid = SpatialGrid.periodic((4, 4, 4), (1.0, 1.0, 1.0))
        grids = Grids(grid, FrequencyGrid.from_edges([1.0, 2.0]),
                      AngularQuadrature.corners3d())
        I = np.ones(grids.radiation_shape())
        val = mixed_radiation_norm(I, "L2", grids, settings)
        assert val == pytest.approx(np.sqrt(4 * np.pi), abs=1e-8)

    def test_separable_slab_sine(self, settings):
        grid = SpatialGrid.periodic(256, 1.0)
        grids = Grids(grid, FrequencyGrid.from_edges([1.0, 2.0]),
                      AngularQuadrature.gauss_legendre_slab(8))
        x = grid.axis_coords(0)
        I = np.broadcast_to(np.sin(2 * np.pi * x), grids.radiation_shape()).copy()
        val = mixed_radiation_norm(I, "L2", grids, settings)
        assert val == pytest.approx(1.0, abs=1e-3)  # sqrt(2) * 0.70711

    def test_unknown_inner(self, grids128, settings):
        with pytest.raises(ParameterError):
            mixed_radiation_norm(np.zeros(grids128.radiation_shape()), "L7",
                                 grids128, settings)


@given(values=st.lists(st.one_of(st.floats(), st.floats(1e-170, 1e-150), st.floats(1e150, 1e160)),
                       min_size=1, max_size=64))
@example(values=[0.0, -0.0, 5e-324, 2.2e-308, 1.5e-162, 1.49e-154, 1e150, 1.34e154,
                 1.7e308, np.inf, -np.inf, np.nan])
def test_square_is_the_power_two_bit_for_bit(values):
    # the L2 norms square with np.square where they took ** 2.0: every
    # double, subnormal, zero, huge, infinite or nan, squares to the same bits
    x = np.array(values)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got, want = np.square(x), x ** 2.0
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


_MAX4 = float(np.finfo(float).max) ** 0.25      # 2^256: the fourth power overflows from here
_TINY4 = float(np.finfo(float).tiny) ** 0.25    # fourth powers below it are subnormal


@given(values=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                 st.floats(1e-82, 1e-76), st.floats(1e76, 1.01 * _MAX4)),
                       min_size=1, max_size=64))
@example(values=[0.0, -0.0, 5e-324, 2.2250738585072014e-308, 5e-324 ** 0.25,
                 float(np.nextafter(_TINY4, 0.0)), _TINY4, 1.49e-154,
                 float(np.nextafter(_MAX4, 0.0)), _MAX4, -_MAX4, 1.7e308])
def test_two_squarings_are_the_fourth_power_within_two_ulp(values):
    # the L4 sums take (x^2)^2 in place of ** 4.0 (libm pow): on every
    # finite double the two lie within 2 ulp, and they overflow together
    x = np.array(values)
    with np.errstate(over="ignore", under="ignore"):
        got, want = np.square(np.square(x)), x ** 4.0
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    # both are non-negative, and non-negative doubles order as their bits
    ulps = np.abs(got[finite].view(np.int64) - want[finite].view(np.int64))
    assert np.all(ulps <= 2)


def test_fourth_power_is_two_squarings_whether_or_not_last():
    grid = SpatialGrid.farfield((6, 5), (1.0, 0.8), 1.0)
    f = np.random.default_rng(5).normal(size=(3, 2) + grid.extents)
    fourth, second = _lp_multi(f, (4.0, 2.0), grid, lead=1)
    mag = np.sqrt(np.sum(f * f, axis=1))
    sums = np.sum(np.square(np.square(mag)), axis=(1, 2)) * grid.cell_volume
    assert fourth.tolist() == [s ** 0.25 for s in sums.tolist()]
    assert np.array_equal(fourth, _lp_cells(f, 4.0, grid, lead=1))
    assert np.array_equal(second, _lp_cells(f, 2.0, grid, lead=1))
