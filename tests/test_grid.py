import numpy as np
import pytest

from rhlab.errors import ParameterError, ShapeError
from rhlab.grid import (AngularQuadrature, FrequencyGrid, Grids, SpatialGrid,
                        divergence, gradient, inner_product, integrate_radiation,
                        integrate_space, write_field_snapshot)

from conftest import random_smooth_field, random_smooth_vector


class TestSpatialGrid:
    def test_basic_properties(self):
        g = SpatialGrid.periodic((8, 16), (1.0, 2.0))
        assert g.dim == 2
        assert g.cell_volume == pytest.approx(0.125 * 0.125)
        assert g.lengths == (1.0, 2.0)

    def test_too_few_cells(self):
        with pytest.raises(ParameterError):
            SpatialGrid.periodic(3, 1.0)

    def test_farfield_requires_state(self):
        with pytest.raises(ParameterError):
            SpatialGrid((8,), (0.125,), "farfield")

    def test_bad_boundary(self):
        with pytest.raises(ParameterError):
            SpatialGrid((8,), (0.125,), "reflecting")

    def test_background_density_on_every_boundary(self):
        # a periodic grid defaults to 1; NaN and negative values fail the one row
        assert SpatialGrid((8,), (0.125,)).rho_bar == 1.0
        assert SpatialGrid.periodic(8, 1.0).rho_bar == 1.0
        assert SpatialGrid.periodic(8, 1.0, rho_bar=0.0).rho_bar == 0.0
        assert SpatialGrid.farfield(8, 1.0, 0.4).rho_bar == 0.4
        for make in (SpatialGrid.periodic, SpatialGrid.farfield):
            for bad in (-1.0, float("nan")):
                with pytest.raises(ParameterError, match="background density must be >= 0"):
                    make(8, 1.0, rho_bar=bad)


class TestGradient:
    def test_constant_field(self, grid128):
        g = gradient(np.full(128, 5.0), grid128)
        assert np.all(g == 0.0)

    def test_affine_exact_interior(self):
        grid = SpatialGrid.farfield(128, 1.0, 0.0)
        f = grid.axis_coords(0)
        g = gradient(f, grid)
        assert np.max(np.abs(g[0, 1:-1] - 1.0)) < 1e-13

    def test_sine_oracle(self, grid256):
        x = grid256.axis_coords(0)
        g = gradient(np.sin(2 * np.pi * x), grid256)
        exact = 2 * np.pi * np.cos(2 * np.pi * x)
        assert np.max(np.abs(g[0] - exact)) < 1e-3

    def test_second_order_convergence(self):
        errs = []
        for n in (128, 256):
            grid = SpatialGrid.periodic(n, 1.0)
            x = grid.axis_coords(0)
            g = gradient(np.sin(2 * np.pi * x), grid)
            errs.append(np.max(np.abs(g[0] - 2 * np.pi * np.cos(2 * np.pi * x))))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_shape_mismatch(self, grid128):
        with pytest.raises(ShapeError):
            gradient(np.zeros(64), grid128)


class TestDivergence:
    def test_constant(self, grid128):
        assert np.all(divergence(np.full((1, 128), 2.5), grid128) == 0.0)

    def test_affine(self):
        grid = SpatialGrid.farfield(128, 1.0, 0.0)
        u = 0.7 * grid.axis_coords(0)[None]
        d = divergence(u, grid)
        assert np.max(np.abs(d[1:-1] - 0.7)) < 1e-13

    def test_sine_oracle(self, grid256):
        x = grid256.axis_coords(0)
        d = divergence(np.sin(2 * np.pi * x)[None], grid256)
        assert np.max(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-3

    def test_3d_sine(self):
        grid = SpatialGrid.periodic((32, 4, 4), (1.0, 1.0, 1.0))
        x = grid.coords()[0]
        u = np.zeros((3,) + grid.extents)
        u[0] = np.broadcast_to(np.sin(2 * np.pi * x), grid.extents)
        d = divergence(u, grid)
        exact = np.broadcast_to(2 * np.pi * np.cos(2 * np.pi * x), grid.extents)
        assert np.max(np.abs(d - exact)) < 5e-2  # truncation at 32 cells


class TestIntegration:
    def test_unit(self, grid128):
        assert integrate_space(np.ones(128), grid128) == pytest.approx(1.0, abs=1e-14)

    def test_sine_zero(self, grid256):
        x = grid256.axis_coords(0)
        assert abs(integrate_space(np.sin(2 * np.pi * x), grid256)) < 1e-12

    def test_sine_squared(self, grid256):
        x = grid256.axis_coords(0)
        val = integrate_space(np.sin(2 * np.pi * x) ** 2, grid256)
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_integration_by_parts(self, grid128, rng):
        for _ in range(5):
            f = random_smooth_field(grid128, rng)
            u = random_smooth_vector(grid128, rng)
            lhs = inner_product(gradient(f, grid128), u, grid128)
            rhs = inner_product(f, divergence(u, grid128), grid128)
            assert abs(lhs + rhs) < 1e-10


class TestAngularQuadrature:
    def test_gauss_legendre_slab(self):
        q = AngularQuadrature.gauss_legendre_slab(8)
        assert abs(q.weights.sum() - 2.0) < 1e-10
        assert abs(q.weights @ q.ordinates[:, 0]) < 1e-10
        # second moment: integral of mu^2 over the slab measure
        assert abs(q.weights @ q.ordinates[:, 0] ** 2 - 2.0 / 3.0) < 1e-8

    def test_gauss_legendre_slab_is_numpys_leggauss(self):
        # the in-house port gives numpy's nodes and weights bit for bit
        from numpy.polynomial.legendre import leggauss
        for n in range(2, 129):
            q = AngularQuadrature.gauss_legendre_slab(n)
            nodes, weights = leggauss(n)
            assert np.array_equal(q.ordinates[:, 0], nodes), n
            assert np.array_equal(q.weights, weights), n

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_gauss_legendre_slab_needs_two_ordinates(self, n):
        with pytest.raises(ParameterError, match="at least 2 ordinates"):
            AngularQuadrature.gauss_legendre_slab(n)

    @pytest.mark.parametrize("maker", [AngularQuadrature.corners3d,
                                       AngularQuadrature.axes3d,
                                       AngularQuadrature.combined14])
    def test_3d_sets(self, maker):
        q = maker()
        assert np.max(np.abs(np.linalg.norm(q.ordinates, axis=1) - 1.0)) < 1e-12
        assert abs(q.weights.sum() - 4 * np.pi) < 1e-10
        assert np.max(np.abs(q.weights @ q.ordinates)) < 1e-10
        second = np.einsum("m,mi,mj->ij", q.weights, q.ordinates, q.ordinates)
        assert np.max(np.abs(second - (4 * np.pi / 3) * np.eye(3))) < 1e-8

    def test_asymmetric_set_rejected(self):
        with pytest.raises(ParameterError):
            AngularQuadrature(np.array([[1.0, 0, 0], [0, 1.0, 0]]),
                              np.array([2 * np.pi, 2 * np.pi]), 4 * np.pi)

    def test_non_unit_ordinate_rejected(self):
        with pytest.raises(ParameterError):
            AngularQuadrature(np.array([[0.5, 0, 0], [-0.5, 0, 0]]),
                              np.array([2 * np.pi, 2 * np.pi]), 4 * np.pi)

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            AngularQuadrature(np.array([[-1.0], [1.0]]), np.array([-1.0, 3.0]), 2.0)


class TestFrequencyGrid:
    def test_midpoint_weights(self):
        fr = FrequencyGrid.from_edges([1.0, 2.0, 4.0])
        assert np.allclose(fr.band_weights, [1.0, 2.0])
        assert np.allclose(fr.band_centers, [1.5, 3.0])

    def test_nonincreasing_edges_rejected(self):
        with pytest.raises(ParameterError):
            FrequencyGrid.from_edges([1.0, 1.0, 2.0])

    def test_nonpositive_edges_rejected(self):
        with pytest.raises(ParameterError):
            FrequencyGrid.from_edges([0.0, 1.0])

    def test_inconsistent_weights_rejected(self):
        with pytest.raises(ParameterError):
            FrequencyGrid(np.array([1.0, 2.0]), np.array([2.0]), np.array([1.5]))


class TestIntegrateRadiation:
    def test_zero(self, bands4, slab8):
        g = np.zeros((4, 8, 16))
        assert np.all(integrate_radiation(g, bands4, slab8) == 0.0)

    def test_isotropic_3d(self):
        q = AngularQuadrature.corners3d()
        fr = FrequencyGrid.from_edges([1.0, 2.0])
        g = np.ones((1, 8, 5))
        out = integrate_radiation(g, fr, q)
        assert np.max(np.abs(out - 4 * np.pi)) < 1e-10

    def test_odd_integrand_vanishes(self):
        q = AngularQuadrature.corners3d()
        fr = FrequencyGrid.from_edges([1.0, 2.0])
        g = np.broadcast_to(q.ordinates[None, :, :], (1, 8, 3)).copy()
        out = integrate_radiation(g, fr, q)
        assert np.max(np.abs(out)) < 1e-10

    def test_shape_check(self, bands4, slab8):
        with pytest.raises(ShapeError):
            integrate_radiation(np.zeros((3, 8, 16)), bands4, slab8)


class TestSnapshotIO:
    def test_round_trip(self, tmp_path, grid128, rng):
        f = np.stack([random_smooth_field(grid128, rng) for _ in range(3)])
        path = tmp_path / "rho.npy"
        write_field_snapshot(path, f, grid128)
        g = np.load(path)
        assert g.dtype == np.float64 and g.shape == (3, 128)
        assert np.array_equal(f, g)  # raw float64 round-trips exactly

    def test_round_trip_2d(self, tmp_path, rng):
        grid = SpatialGrid.periodic((8, 12), (1.0, 3.0))
        u = np.stack([random_smooth_vector(grid, rng) for _ in range(2)])
        path = tmp_path / "u.npy"
        write_field_snapshot(path, u, grid)
        assert np.array_equal(np.load(path), u)
        assert np.load(path).shape == (2, 2, 8, 12)

    @pytest.mark.parametrize("shape", [(3, 127), (3, 128, 2), (), (4,)])
    def test_wrong_trailing_shape(self, tmp_path, grid128, shape):
        path = tmp_path / "bad.npy"
        with pytest.raises(ShapeError):
            write_field_snapshot(path, np.zeros(shape), grid128)
        assert not path.exists()


class TestGridsBundle:
    def test_slab_requires_1d(self, bands4, slab8):
        grid2 = SpatialGrid.periodic((8, 8), (1.0, 1.0))
        with pytest.raises(ShapeError):
            Grids(grid2, bands4, slab8)

    def test_radiation_shape(self, grids128):
        assert grids128.radiation_shape() == (4, 8, 128)
