"""Time integration: the IMEX step, adaptive solves, and the oracles."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv

from absorblab import (
    BoundaryCondition,
    DomainKind,
    Field,
    SolverConfig,
    SpatialDomain,
    StepSizeUnderflow,
    build_grid,
    bump_function,
    derive_exponents,
    eval_flat,
    flat_constants,
    heat_solve,
    integrate_field,
    laplacian_apply,
    residual_of,
    scalar_profile,
    scalar_solve,
    solve,
    steps_to_csv,
    trajectory_to_csv,
)
from absorblab import evolution
from absorblab.evolution import (
    _FACTOR_CACHE_SIZE,
    StepRecord,
    Trajectory,
    _Diffusion,
    _advance,
    _error,
    _system_reaction,
)

NEU = BoundaryCondition.NEUMANN_ZERO
DIR = BoundaryCondition.DIRICHLET_ZERO


def interval_grid(nodes, extent=1.0):
    return build_grid(SpatialDomain(DomainKind.INTERVAL, extent, 1), nodes)


def config(pair, bc=NEU, t_start=0.0, t_end=1.0, **kw):
    return SolverConfig(pair=pair, bc=bc, t_start=t_start, t_end=t_end, **kw)


def heat_kernel(x, t):
    return np.exp(-(x**2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def one_step(u, v, pair, dt=1e-3):
    """One coupled step as `solve` takes it: implicit diffusion, then absorption."""
    w = np.stack([u.values, v.values])
    return _advance(w, dt, _Diffusion(u.grid, NEU), 1.0, _system_reaction(pair))


class TestOneStep:
    def test_zero_v_reduces_to_implicit_diffusion(self):
        g = interval_grid(101)
        pair = derive_exponents(2, 2)
        u0 = bump_function(g, 0.0, 0.5)
        zero = Field(g, np.zeros(101))
        dt = 1e-3
        out = one_step(u0, zero, pair, dt)
        # independent reference: dense solve of (I - dt L) x = u0
        basis = np.eye(101)
        lap_cols = np.column_stack(
            [laplacian_apply(Field(g, basis[:, j]), NEU).values for j in range(101)]
        )
        x = np.linalg.solve(np.eye(101) - dt * lap_cols, u0.values)
        assert np.allclose(out[0], x, atol=1e-11)
        assert np.all(out[1] == 0.0)

    def test_flat_field_unchanged_by_diffusion(self):
        g = interval_grid(101)
        pair = derive_exponents(2, 2)
        out = one_step(Field(g, np.full(101, 4.2)), Field(g, np.zeros(101)), pair)
        assert np.allclose(out[0], 4.2, rtol=1e-13)

    def test_flat_unit_state_one_step_value(self):
        g = interval_grid(101)
        pair = derive_exponents(2, 2)
        one = Field(g, np.ones(101))
        out = one_step(one, one, pair)
        expected = 1.0 / 1.001
        assert np.allclose(out[0], expected, atol=1e-6)
        assert np.allclose(out[1], expected, atol=1e-6)

    def test_zero_component_stays_exactly_zero(self):
        # with u = 0 the v equation degenerates to pure heat: flat v persists
        g = interval_grid(101)
        pair = derive_exponents(2, 2)
        out = one_step(Field(g, np.zeros(101)), Field(g, np.ones(101)), pair)
        assert np.all(out[0] == 0.0)
        assert np.allclose(out[1], 1.0, rtol=1e-13)

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    @pytest.mark.parametrize("component", ["u", "v"])
    def test_rejects_negative_or_nonfinite_data(self, bad, component):
        # bad data is rejected, never clamped to 0
        g = interval_grid(11)
        pair = derive_exponents(2, 2)
        one = Field(g, np.ones(11))
        wrong = Field(g, np.full(11, bad))
        u, v = (wrong, one) if component == "u" else (one, wrong)
        with pytest.raises(ValueError, match="initial data"):
            solve(u, v, config(pair), [0.01])

    def test_rejects_fields_on_different_grids(self):
        pair = derive_exponents(2, 2)
        u = Field(interval_grid(11), np.ones(11))
        v = Field(grid_of(DomainKind.RADIAL_BALL, 3, nodes=11), np.ones(11))
        with pytest.raises(ValueError, match="different grids"):
            solve(u, v, config(pair), [0.01])


class TestSolve:
    def test_tracks_flat_solution(self):
        g = interval_grid(201)
        pair = derive_exponents(2, 2)
        ic = Field(g, np.full(201, 10.0))
        traj = solve(ic, ic, config(pair, t_start=0.1, t_end=0.5),
                     np.geomspace(0.11, 0.5, 8))
        for t, (u, _) in zip(traj.times, traj.values):
            exact = 1.0 / t
            assert np.max(np.abs(u - exact)) / exact < 1e-4

    def test_symmetric_data_stays_symmetric(self):
        g = interval_grid(101)
        pair = derive_exponents(2.5, 2.5)
        ic = bump_function(g, 0.0, 0.5)
        traj = solve(ic, ic, config(pair, t_end=0.2), [0.05, 0.1, 0.2])
        for u, v in traj.values:
            assert np.max(np.abs(u - v)) <= 1e-12

    def test_positivity_everywhere(self):
        g = interval_grid(101)
        pair = derive_exponents(3, 3)
        ic = bump_function(g, 0.0, 0.1)
        traj = solve(ic, ic, config(pair, t_end=0.1, dt_init=1e-6), [0.01, 0.1])
        for u, v in traj.values:
            assert u.min() >= 0.0
            assert v.min() >= 0.0

    def test_mass_monotone_under_neumann(self):
        g = interval_grid(101)
        pair = derive_exponents(2, 3)
        ic = bump_function(g, 0.0, 0.5)
        traj = solve(ic, ic, config(pair, t_end=0.5), np.linspace(0.05, 0.5, 10))
        masses = [integrate_field(Field(g, u)) for u, _ in traj.values]
        masses.insert(0, integrate_field(ic))
        for before, after in zip(masses, masses[1:]):
            assert after <= before * (1 + 1e-12)

    def test_absorption_never_exceeds_heat(self):
        # matched step sequences (huge tolerance => same doubling pattern),
        # backward Euler diffusion is order-preserving, absorption only removes
        g = interval_grid(101)
        pair = derive_exponents(2, 2)
        ic = bump_function(g, 0.0, 0.4)
        times = [0.02, 0.1, 0.3]
        kw = dict(t_end=0.3, dt_init=1e-4, tol_step=1e6)
        sys_traj = solve(ic, ic, config(pair, **kw), times)
        heat_traj = heat_solve(ic, config(None, **kw), times)
        for (u_sys, _), (u_heat,) in zip(sys_traj.values, heat_traj.values):
            assert np.all(u_sys <= u_heat + 1e-8)

    def test_repeated_runs_bit_identical(self):
        g = interval_grid(101)
        pair = derive_exponents(2, 3)
        ic = bump_function(g, 0.0, 0.3)
        t1 = solve(ic, ic, config(pair, t_end=0.2), [0.1, 0.2])
        t2 = solve(ic, ic, config(pair, t_end=0.2), [0.1, 0.2])
        for (u1, v1), (u2, v2) in zip(t1.values, t2.values):
            assert np.array_equal(u1, u2)
            assert np.array_equal(v1, v2)

    def test_rejects_negative_initial_data(self):
        g = interval_grid(11)
        pair = derive_exponents(2, 2)
        bad = Field(g, np.linspace(-1, 1, 11))
        good = Field(g, np.ones(11))
        with pytest.raises(ValueError):
            solve(bad, good, config(pair), [0.5])

    def test_rejects_output_times_outside_span(self):
        g = interval_grid(11)
        pair = derive_exponents(2, 2)
        ic = Field(g, np.ones(11))
        with pytest.raises(ValueError):
            solve(ic, ic, config(pair, t_start=0.1, t_end=1.0), [0.05, 0.5])

    def test_dt_underflow_reports_time(self):
        g = interval_grid(101)
        pair = derive_exponents(2, 3)
        ic = Field(g, np.full(101, 5.0))
        cfg = config(pair, t_start=0.1, t_end=1.0,
                     dt_init=1e-4, dt_min=9e-5, tol_step=1e-18)
        with pytest.raises(StepSizeUnderflow, match="t="):
            solve(ic, ic, cfg, [1.0])

    def test_step_log_records_accepted_steps(self):
        g = interval_grid(51)
        pair = derive_exponents(2, 2)
        ic = Field(g, np.ones(51))
        traj = solve(ic, ic, config(pair, t_end=0.1), [0.05, 0.1])
        assert len(traj.steps) > 0
        ts = [rec.t for rec in traj.steps]
        assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))


class TestHeatSolve:
    def test_matches_analytic_kernel(self):
        g = interval_grid(401, extent=2.0)
        s0 = 0.05
        ic = Field(g, heat_kernel(g.coords, s0))
        cfg = config(None, t_start=s0, t_end=0.1, dt_init=1e-5, tol_step=1e-7)
        traj = heat_solve(ic, cfg, [0.075, 0.1])
        for t, (u,) in zip(traj.times, traj.values):
            err = np.max(np.abs(u - heat_kernel(g.coords, t)))
            assert err < 1e-3

    def test_constant_forever_under_neumann(self):
        g = interval_grid(101)
        ic = Field(g, np.full(101, 2.5))
        traj = heat_solve(ic, config(None, t_end=1.0), [0.5, 1.0])
        for (u,) in traj.values:
            assert np.allclose(u, 2.5, rtol=1e-12)

    def test_total_mass_conserved_under_neumann(self):
        g = interval_grid(201)
        ic = bump_function(g, 0.2, 0.4)
        m0 = integrate_field(ic)
        traj = heat_solve(ic, config(None, t_end=0.5), [0.1, 0.5])
        for (u,) in traj.values:
            assert abs(integrate_field(Field(g, u)) - m0) <= 1e-8 * m0

    def test_dirichlet_eigenfunction_decay_rate(self):
        extent = 1.0
        g = interval_grid(401, extent=extent)
        ic = Field(g, np.cos(np.pi * g.coords / (2 * extent)))
        cfg = config(None, bc=DIR, t_end=0.5, dt_init=1e-5, tol_step=1e-8)
        traj = heat_solve(ic, cfg, np.linspace(0.05, 0.5, 10))
        center = g.nodes // 2
        values = traj.values[:, 0, center]
        rate = -np.polyfit(traj.times, np.log(values), 1)[0]
        target = np.pi**2 / (2 * extent) ** 2
        assert rate == pytest.approx(target, rel=0.02)


class TestScalarSolve:
    def test_flat_bound_by_universal_profile(self):
        g = interval_grid(101)
        ic = Field(g, np.full(101, 1e4))
        traj = scalar_solve(ic, 2.0, config(None, t_end=0.1), [0.1])
        bound = scalar_profile(2.0, 0.1)
        top = traj.values[-1, 0].max()
        assert top <= bound
        assert top >= 0.95 * bound

    def test_zero_stays_zero(self):
        g = interval_grid(101)
        ic = Field(g, np.zeros(101))
        traj = scalar_solve(ic, 2.0, config(None, t_end=1.0), [0.5, 1.0])
        assert np.all(traj.values == 0.0)

    def test_reduction_of_symmetric_system(self):
        g = interval_grid(101)
        ic = bump_function(g, 0.0, 0.4)
        times = [0.05, 0.2]
        pair = derive_exponents(2, 2)
        sys_traj = solve(ic, ic, config(pair, t_end=0.2), times)
        sc_traj = scalar_solve(ic, 2.0, config(None, t_end=0.2), times)
        for (u_sys, _), (u_sc,) in zip(sys_traj.values, sc_traj.values):
            assert np.max(np.abs(u_sys - u_sc)) <= 1e-10


class TestResidualOf:
    def test_zero_fields_give_zero_residual(self):
        g = interval_grid(101)
        pair = derive_exponents(2, 2)
        zero = Field(g, np.zeros(101))
        r_u, r_v = residual_of(lambda t: zero, lambda t: zero, pair, g, NEU, 1.0, 1e-3)
        assert np.all(r_u.values == 0.0)
        assert np.all(r_v.values == 0.0)

    def test_flat_solution_temporal_order_two(self):
        g = interval_grid(51)
        pair = derive_exponents(2, 2)

        def u_of(t):
            return Field(g, np.full(51, eval_flat(pair, t)[0]))

        def v_of(t):
            return Field(g, np.full(51, eval_flat(pair, t)[1]))

        errs, dts = [], [1e-2, 5e-3, 2.5e-3]
        for dt in dts:
            r_u, _ = residual_of(u_of, v_of, pair, g, NEU, 1.0, dt)
            errs.append(np.max(np.abs(r_u.values)))
        slope, _ = np.polyfit(np.log(dts), np.log(errs), 1)
        assert slope == pytest.approx(2.0, abs=0.2)


def grid_of(kind, dim_n, nodes=9):
    return build_grid(SpatialDomain(kind, 1.0, dim_n), nodes)


def smooth_positive(g):
    # nonzero on every wall, so the Dirichlet pinning is exercised
    return np.exp(np.cos(2.0 * g.coords)) + g.coords**2


GEOMETRIES = [(DomainKind.INTERVAL, 1)] + [(DomainKind.RADIAL_BALL, n) for n in (1, 2, 3, 5)]


def two_rows(g):
    w = smooth_positive(g)
    return np.stack([w, 0.5 * w[::-1] + 0.1])


def list_based_advance(components, dt, bands, theta, pair):
    """Reference: the per-component step, one solve_banded call per field."""
    halves = []
    for w in components:
        rhs = w + (1.0 - theta) * dt * bands.apply(w) if theta < 1.0 else w.copy()
        rhs[bands.pinned] = 0.0
        ab = np.zeros((3, w.size))
        ab[0, 1:] = -theta * dt * bands.sup[:-1]
        ab[1, :] = 1.0 - theta * dt * bands.diag
        ab[2, :-1] = -theta * dt * bands.sub[1:]
        halves.append(np.maximum(solve_banded((1, 1), ab, rhs), 0.0))
    u, v = halves
    u_new = u / (1.0 + dt * v**pair.p / np.maximum(u, 1e-300))
    v_new = v / (1.0 + dt * u**pair.q / np.maximum(v, 1e-300))
    return [np.maximum(u_new, 0.0), np.maximum(v_new, 0.0)]


def gtsv_step(bands, w, theta, dt):
    """Reference: the uncached step, one LAPACK gtsv call on freshly built bands."""
    rhs = w + (1.0 - theta) * dt * bands.apply(w) if theta < 1.0 else w.copy()
    rhs[..., bands.pinned] = 0.0
    c = -theta * dt
    *_, x, info = dgtsv(c * bands.sub[1:], 1.0 + c * bands.diag, c * bands.sup[:-1], rhs.T)
    assert info == 0
    return np.maximum(x.T, 0.0)


# hit, miss and evict: the halve/double ladder, a dt clipped to an output
# time, a return to dt, then more distinct values than the cache holds; on
# the 41-node interval (h = 0.05), theta dt > h^2 makes the LU factorisation
# swap rows at a Dirichlet wall
DT_SEQUENCE = [4e-3, 2e-3, 8e-3, 2.9e-3, 4e-3] + [4e-3 * 1.1**k for k in range(1, 7)] + [4e-3]


class TestSharedOperator:
    """The probe operator `laplacian_apply` is the operator the solver steps with."""

    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("kind, dim_n", GEOMETRIES)
    def test_probe_equals_solver_bands(self, kind, dim_n, bc):
        g = grid_of(kind, dim_n, nodes=41)
        w = smooth_positive(g)
        probe = laplacian_apply(Field(g, w), bc).values
        assert np.array_equal(probe, _Diffusion(g, bc).apply(w))

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("kind, dim_n", GEOMETRIES)
    def test_step_is_dense_theta_solve(self, kind, dim_n, bc, theta):
        g = grid_of(kind, dim_n)
        n, dt = g.nodes, 1e-3
        w = smooth_positive(g)
        basis = np.eye(n)
        lap = np.column_stack(
            [laplacian_apply(Field(g, basis[:, j]), bc).values for j in range(n)]
        )
        wall = np.zeros(n, dtype=bool)
        if bc is DIR:
            wall[-1] = True
            wall[0] = kind is DomainKind.INTERVAL
        rhs = w + (1.0 - theta) * dt * lap @ w
        rhs[wall] = 0.0
        x = np.linalg.solve(np.eye(n) - theta * dt * lap, rhs)
        out = _Diffusion(g, bc).step(w, theta, dt)
        assert np.allclose(out, x, atol=1e-11)
        assert np.all(out[wall] == 0.0)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("kind, dim_n", GEOMETRIES)
    def test_stacked_rows_equal_single_rows(self, kind, dim_n, bc, theta):
        g = grid_of(kind, dim_n, nodes=41)
        op = _Diffusion(g, bc)
        w = two_rows(g)
        applied = op.apply(w)
        stepped = op.step(w, theta, 1e-3)
        for i in range(2):
            assert np.array_equal(applied[i], op.apply(w[i]))
            assert np.array_equal(stepped[i], op.step(w[i], theta, 1e-3))

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("kind, dim_n", GEOMETRIES)
    def test_advance_equals_list_based_reference(self, kind, dim_n, bc, theta):
        g = grid_of(kind, dim_n, nodes=41)
        pair = derive_exponents(2, 3)
        op = _Diffusion(g, bc)
        reaction = _system_reaction(pair)
        w = two_rows(g)
        ref = list(w)
        for dt in DT_SEQUENCE:
            w = _advance(w, dt, op, theta, reaction)
            ref = list_based_advance(ref, dt, op, theta, pair)
            assert np.array_equal(w, np.stack(ref))

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("kind, dim_n", GEOMETRIES)
    def test_cached_factors_equal_gtsv_reference(self, kind, dim_n, bc, theta):
        g = grid_of(kind, dim_n, nodes=41)
        op = _Diffusion(g, bc)
        w = ref = two_rows(g)
        for dt in DT_SEQUENCE:
            w = op.step(w, theta, dt)
            ref = gtsv_step(op, ref, theta, dt)
            assert np.array_equal(w, ref)
            assert np.array_equal(op.step(w[1], theta, dt), gtsv_step(op, ref[1], theta, dt))
            assert len(op._factors) <= _FACTOR_CACHE_SIZE
        assert len(op._factors) == _FACTOR_CACHE_SIZE
        assert (theta, DT_SEQUENCE[-1]) in op._factors


def test_rejection_reuses_the_half_step(monkeypatch):
    # an accepted attempt costs three _advance calls, each retry two more
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _advance(*args)

    monkeypatch.setattr(evolution, "_advance", counted)
    g = interval_grid(41)
    ic = bump_function(g, 0.0, 0.3)
    traj = solve(ic, ic, config(derive_exponents(2, 3), t_end=0.02, dt_init=1e-2), [0.02])
    retries = sum(rec.retries for rec in traj.steps)
    assert retries >= 1
    assert len(calls) == 3 * len(traj.steps) + 2 * retries


def test_always_overflowing_attempts_end_in_underflow():
    # at theta = 0.5 the explicit Laplacian of a 1e308 spike overflows at any
    # dt: every attempt is non-finite, so each is rejected and dt runs down
    # to dt_min, and no non-finite state is ever accepted
    g = interval_grid(41)
    spike = np.zeros(41)
    spike[20] = 1e308
    cfg = config(derive_exponents(2, 3), dt_init=1e-4, dt_min=1e-8, theta_scheme=0.5)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepSizeUnderflow):
        solve(Field(g, spike), Field(g, spike), cfg, [1e-3])


def test_error_is_nan_when_any_row_is_nan():
    # a non-finite attempt must fail the err <= tol test and be retried
    a = np.ones((2, 5))
    b = np.ones((2, 5))
    for row in range(2):
        bad = a.copy()
        bad[row, 2] = np.nan
        assert np.isnan(_error(bad, b))


class TestTheta:
    def test_crank_nicolson_runs_and_stays_accurate(self):
        g = interval_grid(201, extent=2.0)
        s0 = 0.05
        ic = Field(g, heat_kernel(g.coords, s0))
        cfg = config(None, t_start=s0, t_end=0.1, dt_init=1e-4,
                     tol_step=1e-7, theta_scheme=0.5)
        traj = heat_solve(ic, cfg, [0.1])
        err = np.max(np.abs(traj.values[0, 0] - heat_kernel(g.coords, 0.1)))
        assert err < 5e-3
        assert traj.values[0, 0].min() >= 0.0


class TestTrajectory:
    def test_one_row_per_component_at_the_requested_times(self):
        g = interval_grid(21)
        ic = bump_function(g, 0.0, 0.5)
        times = [0.01, 0.02, 0.05]
        coupled = solve(ic, ic, config(derive_exponents(2, 2), t_end=0.05), times)
        heat = heat_solve(ic, config(None, t_end=0.05), times)
        scalar = scalar_solve(ic, 2.0, config(None, t_end=0.05), times)
        assert coupled.values.shape == (3, 2, 21)
        assert heat.values.shape == scalar.values.shape == (3, 1, 21)
        for traj in (coupled, heat, scalar):
            assert traj.times.tolist() == times
            assert traj.grid is g


def per_node_trajectory_csv(traj, path):
    """The per-node trajectory writer the array writer replaced, as the reference."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,node_coordinate,u,v\n")
        coords = traj.grid.coords
        for t, snapshot in zip(traj.times, traj.values):
            u_vals = snapshot[0]
            v_vals = snapshot[1] if len(snapshot) > 1 else None
            for i, x in enumerate(coords):
                v_txt = repr(float(v_vals[i])) if v_vals is not None else ""
                fh.write(f"{float(t)!r},{float(x)!r},{float(u_vals[i])!r},{v_txt}\n")


def per_node_steps_csv(traj, path):
    """The per-record steps writer the `writelines` writer replaced, as the reference."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,dt,retries\n")
        for rec in traj.steps:
            fh.write(f"{float(rec.t)!r},{float(rec.dt)!r},{rec.retries}\n")


# values whose repr needs 17 significant digits, zeros, and the extremes
AWKWARD = [0.1 + 0.2, 1.0 / 3.0, 0.0, 1e-300, 5e-324, 2.0 / 3.0 * 1e-17,
           math.pi * 1e12, 1.7976931348623157e308]


def awkward_trajectory(rows):
    g = interval_grid(len(AWKWARD))
    values = np.array([[np.roll(AWKWARD, i + j) for j in range(rows)] for i in range(3)])
    steps = [StepRecord(0.1 + 0.2, 1e-300, 0), StepRecord(1.0 / 3.0, 0.1 / 3.0, 2),
             StepRecord(1.0, 0.0, 1)]
    return Trajectory(g, np.array([0.1 + 0.2, 1.0 / 3.0, 1.0]), values, steps)


def solved_trajectory(rows):
    g = interval_grid(31)
    ic = bump_function(g, 0.1, 0.3)
    cfg = config(derive_exponents(2, 3) if rows == 2 else None, t_end=0.02, dt_init=1e-5)
    times = np.geomspace(1e-3, 0.02, 5)
    return solve(ic, ic, cfg, times) if rows == 2 else heat_solve(ic, cfg, times)


@pytest.mark.parametrize("make", [awkward_trajectory, solved_trajectory])
@pytest.mark.parametrize("rows", [2, 1], ids=["coupled", "heat"])
def test_csv_writers_match_per_node_reference(tmp_path, make, rows):
    traj = make(rows)
    for writer, reference in ((trajectory_to_csv, per_node_trajectory_csv),
                              (steps_to_csv, per_node_steps_csv)):
        writer(traj, tmp_path / "out.csv")
        reference(traj, tmp_path / "ref.csv")
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_trajectory_csv_export(tmp_path):
    g = interval_grid(11)
    pair = derive_exponents(2, 2)
    ic = Field(g, np.ones(11))
    traj = solve(ic, ic, config(pair, t_end=0.01), [0.005, 0.01])
    tpath = tmp_path / "traj.csv"
    spath = tmp_path / "steps.csv"
    trajectory_to_csv(traj, tpath)
    steps_to_csv(traj, spath)
    tlines = tpath.read_text().strip().splitlines()
    assert tlines[0] == "t,node_coordinate,u,v"
    assert len(tlines) == 1 + 2 * 11
    t, x, u, v = tlines[1].split(",")
    assert float(t) == traj.times[0]
    assert float(u) == traj.values[0, 0, 0]
    slines = spath.read_text().strip().splitlines()
    assert slines[0] == "t,dt,retries"
    assert len(slines) == 1 + len(traj.steps)


def test_config_validation():
    pair = derive_exponents(2, 2)
    with pytest.raises(ValueError):
        SolverConfig(pair=pair, bc=NEU, t_start=0.5, t_end=0.1)
    with pytest.raises(ValueError):
        SolverConfig(pair=pair, bc=NEU, t_start=0.0, t_end=1.0, theta_scheme=0.2)
    with pytest.raises(ValueError):
        SolverConfig(pair=pair, bc=NEU, t_start=0.0, t_end=1.0,
                     dt_init=1e-6, dt_min=1e-3)
