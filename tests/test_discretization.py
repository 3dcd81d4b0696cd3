"""Grids, the discrete Laplacian, quadrature, and bump construction."""

import math

import numpy as np
import pytest

from absorblab import (
    BoundaryCondition,
    DomainKind,
    Field,
    LaplacianBands,
    SpatialDomain,
    build_grid,
    bump_function,
    integrate_field,
    unit_sphere_area,
)

NEU = BoundaryCondition.NEUMANN_ZERO
DIR = BoundaryCondition.DIRICHLET_ZERO


def interval_grid(nodes, extent=1.0):
    return build_grid(SpatialDomain(DomainKind.INTERVAL, extent, 1), nodes)


def radial_grid(nodes, dim_n, extent=1.0):
    return build_grid(SpatialDomain(DomainKind.RADIAL_BALL, extent, dim_n), nodes)


class TestBuildGrid:
    def test_interval_five_nodes(self):
        g = interval_grid(5)
        assert np.allclose(g.coords, [-1, -0.5, 0, 0.5, 1])
        assert g.h == pytest.approx(0.5)

    def test_radial_eleven_nodes(self):
        g = radial_grid(11, 3)
        assert np.allclose(g.coords, np.arange(11) * 0.1)
        assert g.coords[0] == 0.0

    @pytest.mark.parametrize("extent", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("nodes", [5, 100, 101, 800, 801])
    def test_interval_coords_are_mirrored_bit_for_bit(self, nodes, extent):
        # np.linspace(-L, L, 801) misses -coords[::-1] by an ulp on 344 nodes
        x = interval_grid(nodes, extent).coords
        assert np.all(x == -x[::-1])  # == is bit for bit on nonzero floats
        assert np.all(np.diff(x) > 0)
        assert x[0] == -extent and x[-1] == extent
        if nodes % 2:
            centre = x[nodes // 2]
            assert centre == 0.0 and not math.copysign(1.0, centre) < 0
        bump = bump_function(interval_grid(nodes, extent), 0.0, 0.9 * extent).values
        assert bump.tobytes() == bump[::-1].tobytes()

    def test_rejects_two_nodes(self):
        with pytest.raises(ValueError):
            interval_grid(2)

    def test_interval_domain_is_one_dimensional(self):
        with pytest.raises(ValueError):
            SpatialDomain(DomainKind.INTERVAL, 1.0, 3)

    def test_rejects_dimension_below_one(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            SpatialDomain(DomainKind.RADIAL_BALL, 1.0, dim_n=0)

    @pytest.mark.parametrize("extent", [math.nan, math.inf, 0.0])
    def test_rejects_extent_that_is_not_positive_and_finite(self, extent):
        # a nan extent used to build a grid of nan coordinates
        with pytest.raises(ValueError, match="extent"):
            SpatialDomain(DomainKind.INTERVAL, extent, 1)


class TestLaplacian:
    def test_constant_neumann_is_exactly_zero(self):
        g = interval_grid(101)
        lap = LaplacianBands(g, NEU).apply(np.full(101, 3.7))
        assert np.all(lap == 0.0)

    def test_quadratic_interior(self):
        g = interval_grid(101)
        lap = LaplacianBands(g, NEU).apply(g.coords**2)
        assert np.allclose(lap[1:-1], 2.0, atol=1e-8)

    def test_sine_eigenfunction_convergence(self):
        errors, hs = [], []
        for nodes in (101, 201, 401):
            g = interval_grid(nodes)
            w = np.sin(np.pi * g.coords)
            lap = LaplacianBands(g, DIR).apply(w)
            exact = -np.pi**2 * w
            errors.append(np.max(np.abs(lap[1:-1] - exact[1:-1])))
            hs.append(g.h)
        slope, _ = np.polyfit(np.log(hs), np.log(errors), 1)
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_generic_smooth_function_order_two(self):
        errors, hs = [], []
        for nodes in (101, 201, 401):
            g = interval_grid(nodes)
            x = g.coords
            w = np.exp(np.sin(3 * x))
            exact = (9 * np.cos(3 * x) ** 2 - 9 * np.sin(3 * x)) * w
            lap = LaplacianBands(g, NEU).apply(w)
            errors.append(np.max(np.abs(lap[1:-1] - exact[1:-1])))
            hs.append(g.h)
        slope, _ = np.polyfit(np.log(hs), np.log(errors), 1)
        assert slope == pytest.approx(2.0, abs=0.2)

    @pytest.mark.parametrize("dim_n", [1, 2, 3, 5])
    def test_radial_origin_regularity(self, dim_n):
        g = radial_grid(51, dim_n)
        lap = LaplacianBands(g, NEU).apply(g.coords**2)
        assert lap[0] == 2.0 * dim_n

    def test_radial_convergence_dim_three(self):
        c = np.pi / 2
        errors, hs = [], []
        for nodes in (101, 201, 401):
            g = radial_grid(nodes, 3)
            r = g.coords
            w = np.cos(c * r)
            lap = LaplacianBands(g, NEU).apply(w)
            exact = -(c**2) * np.cos(c * r)
            exact[1:] -= 2.0 / r[1:] * c * np.sin(c * r[1:])
            exact[0] = -3.0 * c**2
            errors.append(np.max(np.abs(lap[:-1] - exact[:-1])))
            hs.append(g.h)
        slope, _ = np.polyfit(np.log(hs), np.log(errors), 1)
        assert slope == pytest.approx(2.0, abs=0.2)

    @pytest.mark.parametrize("kind, dim_n", [(DomainKind.INTERVAL, 1)]
                             + [(DomainKind.RADIAL_BALL, n) for n in (1, 2, 3, 5)])
    def test_dirichlet_wall_leaves_the_operator(self, kind, dim_n):
        # a pinned node's row and column are zero: L w never reads a wall value
        g = build_grid(SpatialDomain(kind, 1.0, dim_n), 41)
        bands = LaplacianBands(g, DIR)
        assert np.flatnonzero(bands.pinned).tolist() == (
            [0, 40] if kind is DomainKind.INTERVAL else [40])
        w = np.exp(np.cos(2.0 * g.coords)) + g.coords**2  # nonzero on every wall
        w_pinned = np.where(bands.pinned, 0.0, w)
        assert bands.apply(w).tobytes() == bands.apply(w_pinned).tobytes()
        lap = np.column_stack([bands.apply(e) for e in np.eye(g.nodes)])
        assert np.all(lap[bands.pinned] == 0.0)
        assert np.all(lap[:, bands.pinned] == 0.0)

    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("kind", [DomainKind.INTERVAL, DomainKind.RADIAL_BALL])
    @pytest.mark.parametrize("extent", [0.5, 1.0, 3.0, 7.3])
    @pytest.mark.parametrize("nodes", [3, 5, 41, 400, 801])
    def test_one_dimensional_bands_are_the_central_stencil(self, nodes, extent, kind, bc):
        # at N = 1 the finite-volume form is the second-difference stencil bit for
        # bit: 1/h^2 and -2/h^2 inside, 2/h^2 towards a zero-flux wall or the origin,
        # and a pinned node's row and column 0
        g = build_grid(SpatialDomain(kind, extent, 1), nodes)
        h = g.h
        sub = np.full(nodes, 1.0 / h**2)
        diag = np.full(nodes, -2.0 / h**2)
        sup = np.full(nodes, 1.0 / h**2)
        if kind is DomainKind.RADIAL_BALL or bc is NEU:
            sup[0] = 2.0 / h**2
        else:
            diag[0] = sup[0] = sub[1] = 0.0
        if bc is NEU:
            sub[-1] = 2.0 / h**2
        else:
            diag[-1] = sub[-1] = sup[-2] = 0.0
        bands = LaplacianBands(g, bc)
        assert bands.sub[1:].tobytes() == sub[1:].tobytes()
        assert bands.diag.tobytes() == diag.tobytes()
        assert bands.sup[:-1].tobytes() == sup[:-1].tobytes()

    def test_discrete_green_identity_interval(self):
        # zero-flux walls: the weighted row sums of the stencil telescope away
        rng = np.random.default_rng(3)
        g = interval_grid(257)
        for _ in range(10):
            w = rng.normal(size=257)
            total = integrate_field(Field(g, LaplacianBands(g, NEU).apply(w)))
            assert abs(total) <= 1e-10 * np.max(np.abs(w))


class TestIntegrateField:
    def test_constant_on_interval(self):
        g = interval_grid(101)
        assert integrate_field(Field(g, np.ones(101))) == pytest.approx(2.0, abs=1e-12)

    def test_ball_volume_dim_three(self):
        g = radial_grid(401, 3)
        vol = integrate_field(Field(g, np.ones(401)))
        assert vol == pytest.approx(4 * math.pi / 3, abs=1e-3)

    def test_odd_function_vanishes(self):
        g = interval_grid(101)
        assert integrate_field(Field(g, g.coords)) == pytest.approx(0.0, abs=1e-12)

    def test_weight(self):
        g = interval_grid(401)
        weight = Field(g, g.coords)
        # int x * x^2 over symmetric interval
        assert integrate_field(Field(g, g.coords**2), weight) == pytest.approx(0.0, abs=1e-12)

    def test_grid_mismatch(self):
        g1, g2 = interval_grid(101), interval_grid(102)
        with pytest.raises(ValueError):
            integrate_field(Field(g1, np.ones(101)), Field(g2, np.ones(102)))

    def test_sphere_areas(self):
        assert unit_sphere_area(1) == pytest.approx(2.0)
        assert unit_sphere_area(2) == pytest.approx(2 * math.pi)
        assert unit_sphere_area(3) == pytest.approx(4 * math.pi)


class TestBump:
    def test_unit_integral(self):
        g = interval_grid(401)
        bump = bump_function(g, 0.0, 0.5)
        assert integrate_field(bump) == pytest.approx(1.0, abs=1e-12)

    def test_compact_support_exact_zero(self):
        g = interval_grid(401)
        bump = bump_function(g, 0.2, 0.3)
        outside = np.abs((g.coords - 0.2) / 0.3) >= 1.0
        assert np.all(bump.values[outside] == 0.0)

    def test_even_symmetry(self):
        g = interval_grid(401)
        bump = bump_function(g, 0.0, 0.5)
        assert np.allclose(bump.values, bump.values[::-1], rtol=1e-12, atol=1e-15)

    def test_support_violation(self):
        g = interval_grid(401)
        with pytest.raises(ValueError):
            bump_function(g, 0.8, 0.5)

    def test_radial_centered_bump(self):
        g = radial_grid(401, 3)
        bump = bump_function(g, 0.0, 0.4)
        assert integrate_field(bump) == pytest.approx(1.0, abs=1e-12)

    def test_radial_offcenter_crossing_origin_rejected(self):
        g = radial_grid(401, 3)
        with pytest.raises(ValueError):
            bump_function(g, 0.1, 0.4)


def test_field_requires_matching_length():
    g = interval_grid(101)
    with pytest.raises(ValueError):
        Field(g, np.ones(7))

