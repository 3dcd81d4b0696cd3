"""Diagnostics: fitting, traces, cylinders, dichotomy, and the monitors."""

import math

import numpy as np
import pytest

from absorblab import (
    BoundaryCondition,
    DomainKind,
    Field,
    SolverConfig,
    SpatialDomain,
    Trajectory,
    build_grid,
    bump_function,
    check_f_subsolution,
    check_upper_estimate,
    cylinder_integral,
    derive_exponents,
    dichotomy_classify,
    eval_flat,
    fit_power_law,
    flat_constants,
    heat_solve,
    integrate_field,
    mass_in_region,
    mean_value_check,
    subsolution_constants,
    trace_functional,
)

NEU = BoundaryCondition.NEUMANN_ZERO


def interval_grid(nodes, extent=1.0):
    return build_grid(SpatialDomain(DomainKind.INTERVAL, extent, 1), nodes)


def synthetic_trajectory(grid, times, u_fn, v_fn=None):
    fns = [u_fn] if v_fn is None else [u_fn, v_fn]
    values = np.array([[fn(t) for fn in fns] for t in times], dtype=float)
    return Trajectory(grid, np.array(times, dtype=float), values)


def flat_trajectory(grid, pair, times):
    def u_fn(t):
        return np.full(grid.nodes, eval_flat(pair, t)[0])

    def v_fn(t):
        return np.full(grid.nodes, eval_flat(pair, t)[1])

    return synthetic_trajectory(grid, times, u_fn, v_fn)


def heat_kernel(x, t):
    return np.exp(-(x**2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


class TestFitPowerLaw:
    def test_exact_power_law(self):
        ts = np.linspace(0.01, 0.1, 10)
        fit = fit_power_law([(t, 3.0 * t**-0.6) for t in ts], (0.01, 0.1))
        assert fit.exponent == pytest.approx(-0.6, abs=1e-10)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-10)
        assert fit.rms_residual < 1e-10

    def test_multiplicative_noise_within_tolerance(self):
        rng = np.random.default_rng(42)
        ts = np.linspace(0.01, 0.1, 20)
        samples = [(t, t**-0.6 * (1 + rng.uniform(-0.01, 0.01))) for t in ts]
        fit = fit_power_law(samples, (0.01, 0.1))
        assert fit.exponent == pytest.approx(-0.6, abs=0.02)

    def test_heat_kernel_center_decay(self):
        ts = np.geomspace(0.01, 0.1, 12)
        samples = [(t, (4 * math.pi * t) ** -0.5) for t in ts]
        fit = fit_power_law(samples, (0.01, 0.1))
        assert fit.exponent == pytest.approx(-0.5, abs=1e-3)

    def test_rejects_nonpositive_samples(self):
        samples = [(0.01 * k, 1.0) for k in range(1, 7)]
        samples[2] = (0.03, 0.0)
        with pytest.raises(ValueError):
            fit_power_law(samples, (0.0051, 0.1))

    def test_rejects_underpopulated_window(self):
        samples = [(0.1, 1.0), (0.2, 1.0), (0.3, 1.0), (0.4, 1.0)]
        with pytest.raises(ValueError):
            fit_power_law(samples, (0.05, 0.5))


class TestTraceFunctional:
    def test_constant_component_reads_back_constant(self):
        g = interval_grid(401)
        psi = bump_function(g, 0.0, 0.5)
        traj = synthetic_trajectory(
            g, [0.1, 0.2], lambda t: np.full(401, 2.5), lambda t: np.full(401, 0.5)
        )
        for value_u, value_v in trace_functional(traj, psi):
            assert value_u == pytest.approx(2.5, rel=1e-12)
            assert value_v == pytest.approx(0.5, rel=1e-12)

    def test_one_column_per_row(self):
        g = interval_grid(101)
        psi = bump_function(g, 0.0, 0.5)
        coupled = synthetic_trajectory(g, [0.1, 0.2, 0.3], lambda t: np.ones(101),
                                       lambda t: np.ones(101))
        single = synthetic_trajectory(g, [0.1, 0.2, 0.3], lambda t: np.ones(101))
        assert trace_functional(coupled, psi).shape == (3, 2)
        assert trace_functional(single, psi).shape == (3, 1)

    def test_disjoint_supports_give_exact_zero(self):
        g = interval_grid(401)
        u = bump_function(g, -0.5, 0.3)
        psi = bump_function(g, 0.5, 0.3)
        traj = synthetic_trajectory(g, [0.1], lambda t: u.values, lambda t: u.values)
        assert trace_functional(traj, psi)[0, 0] == 0.0

    def test_heat_run_against_kernel_quadrature(self):
        # double quadrature of G(x-y, t) ic(y) psi(x) on the same mesh
        g = interval_grid(401, extent=2.0)
        ic = bump_function(g, 0.0, 0.1)
        psi = bump_function(g, 0.0, 0.5)
        times = [0.005, 0.01, 0.02, 0.04]
        cfg = SolverConfig(pair=None, bc=NEU, t_start=0.0, t_end=0.04,
                           dt_init=1e-6, tol_step=1e-7)
        traj = heat_solve(ic, cfg, times)
        samples = trace_functional(traj, psi)
        w = np.full(g.nodes, g.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        for t, (value_u,) in zip(traj.times, samples):
            smeared = np.array(
                [np.sum(w * heat_kernel(x - g.coords, t) * ic.values)
                 for x in g.coords]
            )
            oracle = float(np.sum(w * smeared * psi.values))
            assert abs(value_u - oracle) <= 1e-3
        # early-time value approaches psi(0) * (initial mass)
        peak = psi.values.max()
        assert samples[0, 0] == pytest.approx(peak, rel=0.05)

    def test_rejects_boundary_supported_weight(self):
        g = interval_grid(101)
        traj = synthetic_trajectory(g, [0.1], lambda t: np.ones(101))
        with pytest.raises(ValueError):
            trace_functional(traj, Field(g, np.ones(101)))


class TestCylinderIntegral:
    def test_unit_cube_value(self):
        g = interval_grid(401)
        traj = synthetic_trajectory(
            g, np.linspace(0.5, 1.5, 11), lambda t: np.ones(401), lambda t: np.ones(401)
        )
        value = cylinder_integral(traj, 3.0, 0, (-0.5, 0.5), (0.5, 1.5))
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_flat_solution_closed_form(self):
        pair = derive_exponents(2, 2)
        g = interval_grid(401)
        traj = flat_trajectory(g, pair, np.linspace(0.1, 1.0, 181))
        value = cylinder_integral(traj, 2.0, 0, (-0.5, 0.5), (0.2, 0.5))
        exact = (1.0 / 0.2 - 1.0 / 0.5) * 1.0  # A*^2 = 1
        assert value == pytest.approx(exact, rel=0.01)

    def test_logarithmic_growth_of_first_power(self):
        pair = derive_exponents(2, 2)
        g = interval_grid(401)
        traj = flat_trajectory(g, pair, np.linspace(0.05, 1.0, 191))
        v1 = cylinder_integral(traj, 1.0, 0, (-0.5, 0.5), (0.1, 1.0))
        v2 = cylinder_integral(traj, 1.0, 0, (-0.5, 0.5), (0.2, 1.0))
        assert v1 - v2 == pytest.approx(math.log(2.0), rel=0.02)

    def test_monotone_in_window_and_region(self):
        rng = np.random.default_rng(9)
        g = interval_grid(201)
        values = rng.uniform(0.1, 2.0, size=(9, 201))
        times = np.linspace(0.1, 0.9, 9)
        counter = iter(range(9))
        traj = synthetic_trajectory(
            g, times, lambda t: values[next(counter)], None
        )
        inner = cylinder_integral(traj, 1.5, 0, (-0.3, 0.3), (0.2, 0.6))
        outer = cylinder_integral(traj, 1.5, 0, (-0.6, 0.6), (0.2, 0.8))
        assert inner <= outer

    def test_empty_window_rejected(self):
        g = interval_grid(101)
        traj = synthetic_trajectory(g, [0.1, 0.2], lambda t: np.ones(101))
        with pytest.raises(ValueError):
            cylinder_integral(traj, 1.0, 0, (-0.5, 0.5), (0.3, 0.4))

    def test_mass_in_region(self):
        g = interval_grid(401)
        traj = synthetic_trajectory(
            g, [0.1, 0.2], lambda t: np.ones(401), lambda t: 2 * np.ones(401)
        )
        masses = mass_in_region(traj, (-0.5, 0.5), [0.1, 0.2])
        assert masses == pytest.approx([3.0, 3.0], rel=1e-12)

    def test_mass_in_region_needs_a_snapshot_time(self):
        g = interval_grid(101)
        traj = synthetic_trajectory(g, [0.1, 0.2], lambda t: np.ones(101))
        with pytest.raises(ValueError, match="no snapshot at t=0.15"):
            mass_in_region(traj, (-0.5, 0.5), [0.1, 0.15])

    @pytest.mark.parametrize("kind, dim_n", [(DomainKind.INTERVAL, 1),
                                             (DomainKind.RADIAL_BALL, 3)])
    def test_whole_domain_region_matches_integrate_field(self, kind, dim_n):
        # one quadrature rule: a region over every node is the full integral, bit for bit
        g = build_grid(SpatialDomain(kind, 1.0, dim_n), 201)
        u = np.exp(np.sin(3.0 * g.coords))
        traj = synthetic_trajectory(g, [0.1, 0.2], lambda t: u * t)
        masses = mass_in_region(traj, (g.coords[0], g.coords[-1]), [0.1, 0.2])
        assert masses == [integrate_field(Field(g, w[0])) for w in traj.values]


class TestDichotomyClassify:
    def test_saturating_integrals_are_regular(self):
        flat = [1.0, 1.0, 1.0, 1.0]
        verdict = dichotomy_classify(flat, flat, [2.0, 2.0, 2.0, 2.0])
        assert verdict.kind == "regular"

    def test_doubling_everything_is_singular(self):
        doubling = [2.0**k for k in range(6)]
        verdict = dichotomy_classify(doubling, doubling, doubling)
        assert verdict.kind == "singular"
        assert verdict.evidence.mass_trend == pytest.approx(32.0)

    def test_growth_without_mass_growth_is_inconclusive(self):
        doubling = [2.0**k for k in range(6)]
        flat = [1.0] * 6
        verdict = dichotomy_classify(doubling, doubling, flat)
        assert verdict.kind == "inconclusive"

    def test_requires_three_windows(self):
        with pytest.raises(ValueError):
            dichotomy_classify([1.0, 2.0], [1.0, 2.0], [1.0, 2.0])


class TestUpperEstimateMonitor:
    def test_exact_flat_solution_recovers_amplitude(self):
        pair = derive_exponents(2, 2)
        consts = flat_constants(pair)
        g = interval_grid(201)
        traj = flat_trajectory(g, pair, np.geomspace(0.1, 1.0, 12))
        report = check_upper_estimate(traj, pair, 0.2)
        assert report.sup_u_t_a == pytest.approx(consts.a_star, abs=1e-6)
        assert report.sup_v_t_b == pytest.approx(consts.b_star, abs=1e-6)

    def test_monitor_is_linear_in_the_field(self):
        pair = derive_exponents(2, 2)
        g = interval_grid(201)
        times = np.geomspace(0.1, 1.0, 12)
        full = flat_trajectory(g, pair, times)
        halved = synthetic_trajectory(
            g, times,
            lambda t: np.full(201, 0.5 * eval_flat(pair, t)[0]),
            lambda t: np.full(201, 0.5 * eval_flat(pair, t)[1]),
        )
        r_full = check_upper_estimate(full, pair, 0.2)
        r_half = check_upper_estimate(halved, pair, 0.2)
        assert r_half.sup_u_t_a == pytest.approx(0.5 * r_full.sup_u_t_a, rel=1e-12)

    def test_interior_margin_excludes_boundary_layer(self):
        pair = derive_exponents(2, 2)
        g = interval_grid(201)

        def u_fn(t):
            vals = np.full(201, eval_flat(pair, t)[0])
            vals[0] = vals[-1] = 1e6  # boundary spike must be invisible
            return vals

        traj = synthetic_trajectory(g, np.geomspace(0.1, 1.0, 8), u_fn, u_fn)
        report = check_upper_estimate(traj, pair, 0.2)
        assert report.sup_u_t_a < 2.0

    def test_one_row_trajectory_rejected(self):
        pair = derive_exponents(2, 2)
        g = interval_grid(201)
        traj = synthetic_trajectory(g, np.geomspace(0.1, 1.0, 8), lambda t: np.ones(201))
        with pytest.raises(ValueError, match="coupled trajectory"):
            check_upper_estimate(traj, pair, 0.2)

    def test_margin_swallowing_domain_rejected(self):
        pair = derive_exponents(2, 2)
        g = interval_grid(201)
        traj = flat_trajectory(g, pair, np.geomspace(0.1, 1.0, 8))
        with pytest.raises(ValueError):
            check_upper_estimate(traj, pair, 2.5)


class TestFSubsolution:
    def test_constants_for_two_three(self):
        d, c, k = subsolution_constants(derive_exponents(2, 3))
        assert d == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert c == 0.125
        assert k == pytest.approx(512.0, rel=1e-12)
        assert k**3 == pytest.approx(134217728.0, rel=1e-12)

    def test_zero_trajectory_has_zero_violation(self):
        # F is the constant k^d: residual = (c - 1) k^q < 0 everywhere
        g = interval_grid(101)
        traj = synthetic_trajectory(
            g, [0.1, 0.2, 0.3],
            lambda t: np.zeros(101), lambda t: np.zeros(101),
        )
        report = check_f_subsolution(traj, derive_exponents(2, 3))
        assert report.max_violation == 0.0

    def test_exact_flat_trajectory_stays_below_bound(self):
        pair = derive_exponents(2, 3)
        g = interval_grid(101)
        traj = flat_trajectory(g, pair, np.linspace(0.1, 1.0, 30))
        report = check_f_subsolution(traj, pair)
        assert report.max_violation == 0.0

    def test_rejects_equal_exponents(self):
        g = interval_grid(11)
        traj = synthetic_trajectory(
            g, [0.1, 0.2, 0.3], lambda t: np.zeros(11), lambda t: np.zeros(11)
        )
        with pytest.raises(ValueError):
            check_f_subsolution(traj, derive_exponents(2, 2))

    def test_rejects_one_row_trajectory(self):
        g = interval_grid(11)
        traj = synthetic_trajectory(g, [0.1, 0.2, 0.3], lambda t: np.zeros(11))
        with pytest.raises(ValueError, match="coupled trajectory"):
            check_f_subsolution(traj, derive_exponents(2, 3))

    def test_rejects_q_below_p(self):
        with pytest.raises(ValueError):
            subsolution_constants(derive_exponents(3, 2))


class TestMeanValue:
    def _heat_trajectory(self, ic_fn, t_start, t_end, nodes=401, extent=2.0):
        g = interval_grid(nodes, extent=extent)
        ic = Field(g, ic_fn(g.coords))
        cfg = SolverConfig(pair=None, bc=NEU, t_start=t_start, t_end=t_end,
                           dt_init=1e-4, tol_step=1e-7)
        times = np.linspace(t_start + (t_end - t_start) / 60, t_end, 60)
        return heat_solve(ic, cfg, times)

    def test_constant_field_has_unit_ratio(self):
        traj = self._heat_trajectory(lambda x: np.full(x.size, 1.7), 0.0, 0.4)
        for eps, ratio in mean_value_check(traj, 1.0, (0.0, 0.35), 0.5, [0.1, 0.2, 0.4]):
            assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_kernel_ratio_monotone_in_epsilon(self):
        traj = self._heat_trajectory(lambda x: heat_kernel(x, 0.05), 0.05, 0.35)
        ratios = mean_value_check(traj, 1.0, (0.0, 0.3), 0.45, [0.1, 0.2, 0.4])
        values = [r for _, r in ratios]
        assert values[0] >= values[1] >= values[2]

    def test_cylinder_out_of_range(self):
        traj = self._heat_trajectory(lambda x: np.ones(x.size), 0.0, 0.1)
        with pytest.raises(ValueError):
            mean_value_check(traj, 1.0, (0.0, 0.1), 0.5, [0.2])
        with pytest.raises(ValueError):
            mean_value_check(traj, 1.0, (1.9, 0.09), 0.2, [0.2])

    def test_rejects_epsilon_outside_unit_interval(self):
        traj = self._heat_trajectory(lambda x: np.ones(x.size), 0.0, 0.4)
        with pytest.raises(ValueError):
            mean_value_check(traj, 1.0, (0.0, 0.35), 0.5, [1.5])
