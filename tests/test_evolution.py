"""Time integration: the IMEX step, adaptive solves, and the oracles."""

import dataclasses
import functools
import gc
import importlib.abc
import importlib.machinery
import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
import types
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import solveh_banded

from absorblab import (
    BoundaryCondition,
    DomainKind,
    Field,
    LaplacianBands,
    PowerPair,
    SolverConfig,
    SpatialDomain,
    StepSizeUnderflow,
    build_grid,
    bump_function,
    cylinder_integral,
    eval_flat,
    flat_constants,
    heat_solve,
    integrate_field,
    mean_value_check,
    residual_of,
    solve,
    steps_to_csv,
    trajectory_to_csv,
    wellposedness,
)
from absorblab import evolution
from absorblab.experiments import ExperimentSpec, run_experiment
from absorblab.evolution import (
    _FACTOR_CACHE_SIZE,
    StepRecord,
    Trajectory,
    _coupled,
    _Diffusion,
    _advance,
    _error,
    _power_into,
)

NEU = BoundaryCondition.NEUMANN_ZERO
DIR = BoundaryCondition.DIRICHLET_ZERO
SRC = str(Path(__file__).resolve().parent.parent / "src")


def interval_grid(nodes, extent=1.0):
    return build_grid(SpatialDomain(DomainKind.INTERVAL, extent, 1), nodes)


def config(bc=NEU, t_start=0.0, **kw):
    return SolverConfig(bc=bc, t_start=t_start, **kw)


def heat_kernel(x, t):
    return np.exp(-(x**2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def one_step(u, v, pair, dt=1e-3):
    """One coupled Strang step as `solve` takes it."""
    w = np.stack([u.values, v.values])
    return _advance(w, dt, _Diffusion(u.grid, NEU), _coupled(pair))


class TestLapackLoader:
    FLAPACK = "scipy.linalg._flapack"

    @staticmethod
    def child_output(code):
        # a child interpreter, because this process imports scipy.linalg for its oracles
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, inherited])))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, check=True)
        return result.stdout.split()

    def test_import_loads_no_scipy_module(self):
        code = ("import sys, absorblab, absorblab.cli; "
                "print(*sorted(k for k in sys.modules if k.startswith('scipy')))")
        # where NumPy bundles its OpenBLAS, the solver calls it and loads no scipy module
        bundled = list((Path(np.__file__).parent.parent / "numpy.libs")
                       .glob("libscipy_openblas64_*.so"))
        assert self.child_output(code) == ([] if bundled else [self.FLAPACK])

    def test_later_scipy_linalg_import_reuses_the_routines(self):
        code = ("from absorblab import evolution; dpttrf, dpttrs = evolution._pttr(); "
                "import scipy.linalg.lapack as lapack; "
                "print(dpttrf is lapack.dpttrf, dpttrs is lapack.dpttrs)")
        assert self.child_output(code) == ["True", "True"]

    def test_routines_are_scipy_lapack_ones(self):
        dpttrf, dpttrs = evolution._pttr()
        assert dpttrf is scipy.linalg.lapack.dpttrf and dpttrs is scipy.linalg.lapack.dpttrs

    def test_loaded_module_is_reused(self, monkeypatch):
        stand_in = types.SimpleNamespace(dpttrf=object(), dpttrs=object())
        monkeypatch.setitem(sys.modules, self.FLAPACK, stand_in)
        dpttrf, dpttrs = evolution._pttr()
        assert dpttrf is stand_in.dpttrf and dpttrs is stand_in.dpttrs

    def test_no_extension_file_falls_back_to_scipy_linalg(self, monkeypatch):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        monkeypatch.delitem(sys.modules, self.FLAPACK)
        dpttrf, dpttrs = evolution._pttr()
        assert dpttrf is scipy.linalg.lapack.dpttrf and dpttrs is scipy.linalg.lapack.dpttrs
        assert self.FLAPACK not in sys.modules  # nothing was loaded from a file

    @pytest.mark.parametrize("error", [ImportError, OSError])
    def test_failed_load_falls_back_to_scipy_linalg(self, monkeypatch, error):
        executed = []

        class FailingLoader(importlib.abc.Loader):
            def exec_module(self, module):
                executed.append(sys.modules.get(TestLapackLoader.FLAPACK) is module)
                raise error("a library of the extension is missing")

        monkeypatch.setattr(importlib.util, "spec_from_file_location",
                            lambda name, path: importlib.util.spec_from_loader(name, FailingLoader()))
        monkeypatch.delitem(sys.modules, self.FLAPACK)
        dpttrf, dpttrs = evolution._pttr()
        assert executed == [True]  # the half-made module was registered, then dropped
        assert dpttrf is scipy.linalg.lapack.dpttrf and dpttrs is scipy.linalg.lapack.dpttrs
        assert self.FLAPACK not in sys.modules

    def test_missing_scipy_is_named(self, monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        monkeypatch.delitem(sys.modules, self.FLAPACK)
        with pytest.raises(ImportError, match="needs scipy, which is not installed"):
            evolution._pttr()


class TestOneStep:
    def test_zero_v_reduces_to_implicit_diffusion(self):
        g = interval_grid(101)
        pair = PowerPair(2, 2)
        u0 = bump_function(g, 0.0, 0.5)
        zero = Field(g, np.zeros(101))
        dt = 1e-3
        out = one_step(u0, zero, pair, dt)
        # independent reference: dense solve of (I - dt/2 L) x = (I + dt/2 L) u0
        basis = np.eye(101)
        bands = LaplacianBands(g, NEU)
        lap_cols = np.column_stack([bands.apply(basis[:, j]) for j in range(101)])
        rhs = u0.values + 0.5 * dt * lap_cols @ u0.values
        x = np.linalg.solve(np.eye(101) - 0.5 * dt * lap_cols, rhs)
        assert np.allclose(out[0], x, atol=1e-11)
        assert np.all(out[1] == 0.0)

    def test_flat_field_unchanged_by_diffusion(self):
        g = interval_grid(101)
        pair = PowerPair(2, 2)
        out = one_step(Field(g, np.full(101, 4.2)), Field(g, np.zeros(101)), pair)
        assert np.allclose(out[0], 4.2, rtol=1e-13)

    def test_flat_unit_state_one_step_value(self):
        g = interval_grid(101)
        pair = PowerPair(2, 2)
        one = Field(g, np.ones(101))
        out = one_step(one, one, pair)
        expected = 1.0 / 1.001
        assert np.allclose(out[0], expected, atol=1e-6)
        assert np.allclose(out[1], expected, atol=1e-6)

    def test_zero_component_stays_exactly_zero(self):
        # with u = 0 the v equation degenerates to pure heat: flat v persists
        g = interval_grid(101)
        pair = PowerPair(2, 2)
        out = one_step(Field(g, np.zeros(101)), Field(g, np.ones(101)), pair)
        assert np.all(out[0] == 0.0)
        assert np.allclose(out[1], 1.0, rtol=1e-13)

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    @pytest.mark.parametrize("component", ["u", "v"])
    def test_rejects_negative_or_nonfinite_data(self, bad, component):
        # bad data is rejected, never clamped to 0
        g = interval_grid(11)
        pair = PowerPair(2, 2)
        one = Field(g, np.ones(11))
        wrong = Field(g, np.full(11, bad))
        u, v = (wrong, one) if component == "u" else (one, wrong)
        with pytest.raises(ValueError, match="initial data"):
            solve(u, v, pair, config(), [0.01])

    def test_rejects_fields_on_different_grids(self):
        pair = PowerPair(2, 2)
        u = Field(interval_grid(11), np.ones(11))
        v = Field(grid_of(DomainKind.RADIAL_BALL, 3, nodes=11), np.ones(11))
        with pytest.raises(ValueError, match="different grids"):
            solve(u, v, pair, config(), [0.01])


class TestSolve:
    def test_tracks_flat_solution(self):
        g = interval_grid(201)
        pair = PowerPair(2, 2)
        ic = Field(g, np.full(201, 10.0))
        traj = solve(ic, ic, pair, config(t_start=0.1), np.geomspace(0.11, 0.5, 8))
        for t, (u, _) in zip(traj.times, traj.values):
            exact = 1.0 / t
            assert np.max(np.abs(u - exact)) / exact < 1e-4

    def test_symmetric_data_stays_symmetric(self):
        g = interval_grid(101)
        pair = PowerPair(2.5, 2.5)
        ic = bump_function(g, 0.0, 0.5)
        traj = solve(ic, ic, pair, config(), [0.05, 0.1, 0.2])
        for u, v in traj.values:
            assert np.max(np.abs(u - v)) <= 1e-12

    def test_positivity_everywhere(self):
        g = interval_grid(101)
        pair = PowerPair(3, 3)
        ic = bump_function(g, 0.0, 0.1)
        traj = solve(ic, ic, pair, config(dt_init=1e-6), [0.01, 0.1])
        for u, v in traj.values:
            assert u.min() >= 0.0
            assert v.min() >= 0.0

    def test_mass_monotone_under_neumann(self):
        g = interval_grid(101)
        pair = PowerPair(2, 3)
        ic = bump_function(g, 0.0, 0.5)
        traj = solve(ic, ic, pair, config(), np.linspace(0.05, 0.5, 10))
        masses = [integrate_field(Field(g, u)) for u, _ in traj.values]
        masses.insert(0, integrate_field(ic))
        for before, after in zip(masses, masses[1:]):
            assert after <= before * (1 + 1e-12)

    def test_absorption_never_exceeds_heat(self):
        # matched step sequences (huge tolerance => same doubling pattern),
        # backward Euler diffusion is order-preserving, absorption only removes
        g = interval_grid(101)
        pair = PowerPair(2, 2)
        ic = bump_function(g, 0.0, 0.4)
        times = [0.02, 0.1, 0.3]
        cfg = config(dt_init=1e-4, tol_step=1e6)
        sys_traj = solve(ic, ic, pair, cfg, times)
        heat_traj = heat_solve(ic, cfg, times)
        for (u_sys, _), (u_heat,) in zip(sys_traj.values, heat_traj.values):
            assert np.all(u_sys <= u_heat + 1e-8)

    def test_repeated_runs_bit_identical(self):
        g = interval_grid(101)
        pair = PowerPair(2, 3)
        ic = bump_function(g, 0.0, 0.3)
        t1 = solve(ic, ic, pair, config(), [0.1, 0.2])
        t2 = solve(ic, ic, pair, config(), [0.1, 0.2])
        for (u1, v1), (u2, v2) in zip(t1.values, t2.values):
            assert np.array_equal(u1, u2)
            assert np.array_equal(v1, v2)

    def test_rejects_negative_initial_data(self):
        g = interval_grid(11)
        pair = PowerPair(2, 2)
        bad = Field(g, np.linspace(-1, 1, 11))
        good = Field(g, np.ones(11))
        with pytest.raises(ValueError):
            solve(bad, good, pair, config(), [0.5])

    def test_rejects_output_times_outside_span(self):
        g = interval_grid(11)
        pair = PowerPair(2, 2)
        ic = Field(g, np.ones(11))
        with pytest.raises(ValueError):
            solve(ic, ic, pair, config(t_start=0.1), [0.05, 0.5])

    def test_dt_underflow_reports_time(self):
        g = interval_grid(101)
        pair = PowerPair(2, 3)
        ic = Field(g, np.full(101, 5.0))
        cfg = config(t_start=0.1, dt_init=1e-4, dt_min=9e-5, tol_step=1e-18)
        with pytest.raises(StepSizeUnderflow, match="t="):
            solve(ic, ic, pair, cfg, [1.0])

    def test_step_log_records_accepted_steps(self):
        g = interval_grid(51)
        pair = PowerPair(2, 2)
        ic = Field(g, np.ones(51))
        traj = solve(ic, ic, pair, config(), [0.05, 0.1])
        assert len(traj.steps) > 0
        ts = [rec.t for rec in traj.steps]
        assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))


class TestHeatSolve:
    def test_matches_analytic_kernel(self):
        g = interval_grid(401, extent=2.0)
        s0 = 0.05
        ic = Field(g, heat_kernel(g.coords, s0))
        cfg = config(t_start=s0, dt_init=1e-5, tol_step=1e-7)
        traj = heat_solve(ic, cfg, [0.075, 0.1])
        for t, (u,) in zip(traj.times, traj.values):
            err = np.max(np.abs(u - heat_kernel(g.coords, t)))
            assert err < 1e-3

    def test_constant_forever_under_neumann(self):
        g = interval_grid(101)
        ic = Field(g, np.full(101, 2.5))
        traj = heat_solve(ic, config(), [0.5, 1.0])
        for (u,) in traj.values:
            assert np.allclose(u, 2.5, rtol=1e-12)

    def test_total_mass_conserved_under_neumann(self):
        g = interval_grid(201)
        ic = bump_function(g, 0.2, 0.4)
        m0 = integrate_field(ic)
        traj = heat_solve(ic, config(), [0.1, 0.5])
        for (u,) in traj.values:
            assert abs(integrate_field(Field(g, u)) - m0) <= 1e-8 * m0

    def test_dirichlet_eigenfunction_decay_rate(self):
        extent = 1.0
        g = interval_grid(401, extent=extent)
        ic = Field(g, np.cos(np.pi * g.coords / (2 * extent)))
        cfg = config(bc=DIR, dt_init=1e-5, tol_step=1e-8)
        traj = heat_solve(ic, cfg, np.linspace(0.05, 0.5, 10))
        center = g.nodes // 2
        values = traj.values[:, 0, center]
        rate = -np.polyfit(traj.times, np.log(values), 1)[0]
        target = np.pi**2 / (2 * extent) ** 2
        assert rate == pytest.approx(target, rel=0.02)


def spy_on_integrate(monkeypatch):
    """Record the absorption of every `_integrate` call that `solve` makes."""
    calls, integrate = [], evolution._integrate

    def spy(fields, config, output_times, absorption):
        calls.append(absorption)
        return integrate(fields, config, output_times, absorption)

    monkeypatch.setattr(evolution, "_integrate", spy)
    return calls


class TestSymmetricSolve:
    """At p = q with u0 = v0 bit for bit, `solve` integrates the scalar
    equation U_t - Lap(U) + U^p = 0 as one row and returns it as both."""

    def test_flat_bound_by_universal_profile(self):
        g = interval_grid(101)
        ic = Field(g, np.full(101, 1e4))
        traj = solve(ic, ic, PowerPair(2, 2), config(), [0.1])
        bound = eval_flat(PowerPair(2, 2), 0.1)[0]
        top = traj.values[-1, 0].max()
        assert top <= bound
        assert top >= 0.95 * bound

    def test_zero_stays_zero(self):
        g = interval_grid(101)
        ic = Field(g, np.zeros(101))
        traj = solve(ic, ic, PowerPair(2, 2), config(), [0.5, 1.0])
        assert np.all(traj.values == 0.0)

    @pytest.mark.parametrize("data", ["bump", "flat"])
    @pytest.mark.parametrize("tol_step", [1e-5, 1e-3])
    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("power", [1.5, 2.0, 3.0])
    def test_reduction_of_symmetric_system(self, monkeypatch, power, bc, tol_step, data):
        # the one-row path equals the two-row integration bit for bit, steps included,
        # on the step sequences of a tight and a loose tolerance
        g = interval_grid(101)
        ic = bump_function(g, 0.0, 0.4) if data == "bump" else Field(g, np.full(101, 3.0))
        pair, times = PowerPair(power, power), [0.01, 0.04]
        cfg = config(bc, tol_step=tol_step)
        two_rows = evolution._integrate([ic, ic], cfg, times, _coupled(pair))
        calls = spy_on_integrate(monkeypatch)
        traj = solve(ic, ic, pair, cfg, times)
        assert calls == [((0, power),)]
        assert traj.values.shape == two_rows.values.shape == (2, 2, 101)
        assert traj.values.tobytes() == two_rows.values.tobytes()
        assert traj.steps == two_rows.steps

    @pytest.mark.parametrize("change", ["one ulp", "negative zero", "p != q"])
    def test_asymmetric_input_takes_two_rows(self, monkeypatch, change):
        # data that differ in any bit, -0.0 against 0.0 included, or unequal powers
        g = interval_grid(101)
        u = bump_function(g, 0.0, 0.4)
        v = u.values.copy()
        if change == "one ulp":
            v[50] = np.nextafter(v[50], math.inf)
        elif change == "negative zero":
            assert v[0] == 0.0  # the bump vanishes at the wall
            v[0] = -0.0
        pair = PowerPair(2, 3 if change == "p != q" else 2)
        calls = spy_on_integrate(monkeypatch)
        traj = solve(u, Field(g, v), pair, config(), [0.05])
        assert calls == [_coupled(pair)]
        assert traj.values.shape == (1, 2, 101)


def spy_on_half_line(monkeypatch):
    """Record, per `_integrate` call, the node count of the half grid it solves on,
    or None for the full path."""
    calls, half_line = [], evolution._half_line

    def spy(grid, state):
        half = half_line(grid, state)
        calls.append(None if half is None else half.nodes)
        return half

    monkeypatch.setattr(evolution, "_half_line", spy)
    return calls


def one_ulp_up(values, node):
    out = values.copy()
    out[node] = np.nextafter(out[node], math.inf)
    return out


class TestHalfLine:
    """Even data on an interval of odd n are solved on x >= 0, the radial N = 1
    grid of (n + 1) / 2 nodes, and returned mirrored on the full grid."""

    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("extent", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("nodes", [5, 101, 801])
    def test_half_grid_bands_are_the_interval_bands_right_of_0(self, nodes, extent, bc):
        full_grid = interval_grid(nodes, extent)
        half_grid = evolution._half_line(full_grid, np.zeros((1, nodes)))
        assert half_grid.domain == SpatialDomain(DomainKind.RADIAL_BALL, extent, 1)
        assert half_grid.nodes == (nodes + 1) // 2 and half_grid.h == full_grid.h
        full, half = LaplacianBands(full_grid, bc), LaplacianBands(half_grid, bc)
        c = nodes // 2
        # right of 0 the rows are the interval's; the origin row 2 (w1 - w0) / h^2 is
        # the interval's row at 0 with w[-1] = w[1]
        np.testing.assert_array_max_ulp(half.sub[1:], full.sub[c + 1:], maxulp=4)
        np.testing.assert_array_max_ulp(half.diag, full.diag[c:], maxulp=4)
        np.testing.assert_array_max_ulp(half.sup[1:], full.sup[c + 1:], maxulp=4)
        np.testing.assert_array_max_ulp(half.sup[0], full.sub[c] + full.sup[c], maxulp=4)
        assert np.array_equal(half.pinned, full.pinned[c:])
        w = smooth_positive(full_grid)
        w = w + w[::-1]
        np.testing.assert_allclose(half.apply(w[c:]), full.apply(w)[c:], rtol=1e-12)

    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("kind", ["coupled", "p = q", "heat"])
    def test_even_data_give_an_even_trajectory_with_the_twin_steps(self, monkeypatch, kind, bc):
        # the twin differs in one tail node by one ulp, so it takes the full path; at
        # 101 nodes the two differ by at most 3.0e-15 of the largest value (measured
        # over these cases, on bumps with and without a floor of 0.5 and at 401 and
        # 801 nodes too, where the gap grows to 3.1e-14 and 1.4e-13)
        g = interval_grid(101)
        even = bump_function(g, 0.0, 0.1).values + 0.5
        twin = one_ulp_up(even, 99)
        cfg, times = config(bc, tol_step=1e-5), [0.001, 0.01, 0.05]

        def run(u):
            if kind == "coupled":
                return solve(Field(g, u), Field(g, 2.0 * even), PowerPair(2, 3), cfg, times)
            if kind == "p = q":
                return solve(Field(g, u), Field(g, u), PowerPair(3, 3), cfg, times)
            return heat_solve(Field(g, u), cfg, times)

        halves = spy_on_half_line(monkeypatch)
        traj, full = run(even), run(twin)
        assert halves == [51, None]
        assert traj.grid is g
        assert traj.values.shape == full.values.shape == (3, 1 if kind == "heat" else 2, 101)
        assert traj.values.tobytes() == traj.values[..., ::-1].tobytes()
        assert traj.steps == full.steps
        gap = np.abs(traj.values - full.values).max() / np.abs(full.values).max()
        assert gap <= 1e-14

    @pytest.mark.parametrize("change", ["one ulp", "negative zero", "one row only"])
    def test_data_off_by_one_bit_take_the_full_path(self, monkeypatch, change):
        g = interval_grid(101)
        u = bump_function(g, 0.0, 0.4).values
        v = u
        if change == "one ulp":
            u = one_ulp_up(u, 30)
        elif change == "negative zero":
            assert u[0] == u[-1] == 0.0  # the bump vanishes at the walls
            u = u.copy()
            u[0] = -0.0
        else:
            v = bump_function(g, 0.1, 0.4).values
        halves = spy_on_half_line(monkeypatch)
        traj = solve(Field(g, u), Field(g, v), PowerPair(2, 3), config(), [0.01])
        assert halves == [None]
        assert traj.values.shape == (1, 2, 101)

    @pytest.mark.parametrize("grid", ["even n", "three nodes", "radial"])
    def test_grids_without_a_half_line_take_the_full_path(self, monkeypatch, grid):
        g = {"even n": interval_grid(100), "three nodes": interval_grid(3),
             "radial": grid_of(DomainKind.RADIAL_BALL, 1, nodes=51)}[grid]
        ic = Field(g, np.cos(0.5 * np.pi * g.coords) ** 2)
        assert ic.values.tobytes() == ic.values[::-1].tobytes() or grid == "radial"
        halves = spy_on_half_line(monkeypatch)
        traj = heat_solve(ic, config(), [0.01])
        assert halves == [None]
        assert traj.grid is g and traj.values.shape == (1, 1, g.nodes)

    @pytest.mark.parametrize("wall, times, message", [
        (-1.0, [0.01], "must be nonnegative"),
        (np.nan, [0.01], "must be finite"),
        (1.0, [], "at least one output time"),
        (1.0, [0.02, 0.01], "strictly increasing"),
    ])
    def test_even_bad_input_raises_as_before(self, wall, times, message):
        g = interval_grid(11)
        ic = np.ones(11)
        ic[[0, -1]] = wall
        with pytest.raises(ValueError, match=message):
            solve(Field(g, ic), Field(g, ic), PowerPair(2, 3), config(), times)


class TestResidualOf:
    def test_zero_fields_give_zero_residual(self):
        g = interval_grid(101)
        pair = PowerPair(2, 2)
        zero = np.zeros((2, 101))
        r = residual_of(lambda t: zero, g, pair, NEU, 1.0, 1e-3)
        assert r.shape == (2, 101)
        assert np.all(r == 0.0)

    @pytest.mark.parametrize("nodes", [3, 4, 11, 201])
    @pytest.mark.parametrize("bc", [NEU])
    def test_rows_absorb_as_solve_couples_them(self, bc, nodes):
        # a steady constant state: L w = 0 at every node under zero-flux walls and on
        # any grid, so r_u = v**p and r_v = u**q exactly; convergence_order's temporal
        # probe, on a flat state, therefore takes no `nodes` (a Dirichlet wall leaves
        # the operator, so beside it L of a constant is not 0)
        g = interval_grid(nodes)
        state = np.stack([np.full(nodes, 2.0), np.full(nodes, 3.0)])
        r = residual_of(lambda t: state, g, PowerPair(2, 3), bc, 1.0, 1e-3)
        assert np.all(r[0] == 9.0)
        assert np.all(r[1] == 8.0)

    def test_rates_follow_the_solver_power_rule(self):
        # a constant u whose cube by multiplication is not pow's: r_v is u * u * u,
        # the rate the solver's absorption update takes
        x = next(x for x in np.linspace(1.1, 2.0, 1001) if x * x * x != np.power(x, 3.0))
        state = np.stack([np.full(11, x), np.full(11, 2.0)])
        r = residual_of(lambda t: state, interval_grid(11), PowerPair(2, 3), NEU, 1.0, 1e-3)
        assert np.all(r[1] == x * x * x)
        assert np.all(r[0] == 4.0)

    def test_flat_solution_temporal_order_two(self):
        g = interval_grid(51)
        pair = PowerPair(2, 2)

        def state_of(t):
            return np.full((2, 51), np.array(eval_flat(pair, t))[:, None])

        errs, dts = [], [1e-2, 5e-3, 2.5e-3]
        for dt in dts:
            r = residual_of(state_of, g, pair, NEU, 1.0, dt)
            errs.append(np.max(np.abs(r[0])))
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


def kernel_power(x, power):
    """Reference: the solver's rate x**power, the cube as (x * x) * x, any other power
    as np.power."""
    return x * x * x if power == 3.0 else np.power(x, power)


def list_based_absorb(components, h, pair):
    """Reference: the geometric-mean absorption update A(h), one field at a time."""
    u, v = components
    p, q = pair.p, pair.q
    u1 = u / (1.0 + h * kernel_power(v, p) / np.maximum(u, 1e-300))
    v1 = v / (1.0 + h * kernel_power(u, q) / np.maximum(v, 1e-300))
    u_new = u / (1.0 + h * np.sqrt(kernel_power(v, p)) * np.sqrt(kernel_power(v1, p))
                 / np.maximum(u1, 1e-300))
    v_new = v / (1.0 + h * np.sqrt(kernel_power(u, q)) * np.sqrt(kernel_power(u1, q))
                 / np.maximum(v1, 1e-300))
    return [np.maximum(u_new, 0.0), np.maximum(v_new, 0.0)]


def symmetric_bands(bands, dt):
    """Reference: V - dt/2 A in solveh_banded's upper form, built from the bands'
    volumes and fluxes."""
    c = 0.5 * dt
    ab = np.zeros((2, bands.volume.size))
    ab[0, 1:] = -c * bands.flux
    ab[1, :] = bands.volume - c * bands.flux_diag
    return ab


def list_based_advance(components, dt, bands, pair):
    """Reference: the per-component Strang step, one solveh_banded call per field on
    (V - dt/2 A) y = V w~, w~ = w with its pinned nodes 0, then x = 2 y - w~."""
    halves = []
    for w in list_based_absorb(components, 0.5 * dt, pair):
        w_pinned = np.where(bands.pinned, 0.0, w)
        y = solveh_banded(symmetric_bands(bands, dt), bands.volume * w_pinned)
        halves.append(np.maximum(2.0 * y - w_pinned, 0.0))
    return list_based_absorb(halves, 0.5 * dt, pair)


def dense_flux(bands):
    """Reference: the flux matrix A, dense, from its diagonal and off-diagonal."""
    return np.diag(bands.flux_diag) + np.diag(bands.flux, 1) + np.diag(bands.flux, -1)


def dense_symmetric_step(bands, w, dt):
    """Reference: (V - dt/2 A) y = V w~ by a dense np.linalg.solve, then x = 2 y - w~,
    clamped at 0."""
    w_pinned = np.where(bands.pinned, 0.0, w)
    y = np.linalg.solve(np.diag(bands.volume) - 0.5 * dt * dense_flux(bands),
                        (bands.volume * w_pinned).T).T
    return np.maximum(2.0 * y - w_pinned, 0.0)


# hit, miss and evict: a dt, its half as a retry takes it and its double, a
# dt clipped to an output time, a return to dt, then more distinct values
# than the cache holds; the last dt has dt/2 > 10 h^2 on every 41-node grid
DT_SEQUENCE = ([4e-3, 2e-3, 8e-3, 2.9e-3, 4e-3] + [4e-3 * 1.1**k for k in range(1, 7)]
               + [4e-3, 1.6e-2])
LARGE_DT = DT_SEQUENCE[-1]
# the same cache pattern at a quarter of the steps, without the last
DT_SEQUENCES = {"large": DT_SEQUENCE, "small": [dt / 4 for dt in DT_SEQUENCE[:-1]]}


class TestSharedOperator:
    """The probe `residual_of` applies the operator the solver steps with."""

    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("kind, dim_n", GEOMETRIES)
    def test_probe_equals_solver_bands(self, kind, dim_n, bc):
        # a steady state (w, 0): row 0 of the residual is -L w plus 0**p
        g = grid_of(kind, dim_n, nodes=41)
        w = smooth_positive(g)
        state = np.stack([w, np.zeros_like(w)])
        probe = -residual_of(lambda t: state, g, PowerPair(2, 3), bc, 1.0, 1e-3)[0]
        assert np.array_equal(probe, _Diffusion(g, bc).apply(w))

    # on 9 nodes (h = 1/8) dt = 0.1 has dt/2 > h^2, past the diagonally dominant range
    @pytest.mark.parametrize("dt", [1e-3, 0.1])
    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("kind, dim_n", GEOMETRIES)
    def test_step_is_dense_crank_nicolson_solve(self, kind, dim_n, bc, dt):
        g = grid_of(kind, dim_n)
        n = g.nodes
        w = smooth_positive(g)
        basis = np.eye(n)
        bands = LaplacianBands(g, bc)
        lap = np.column_stack([bands.apply(basis[:, j]) for j in range(n)])
        wall = np.zeros(n, dtype=bool)
        if bc is DIR:
            wall[-1] = True
            wall[0] = kind is DomainKind.INTERVAL
        rhs = w + 0.5 * dt * lap @ w
        rhs[wall] = 0.0
        # from data with a jump at a wall the solve undershoots beside it at
        # dt = 0.1 (to -0.118 at radial N = 1), and the step clamps as here
        x = np.maximum(np.linalg.solve(np.eye(n) - 0.5 * dt * lap, rhs), 0.0)
        out = _Diffusion(g, bc).step(w, dt)
        assert np.allclose(out, x, atol=1e-11)
        assert np.all(out[wall] == 0.0)

    @pytest.mark.parametrize("dt", [1e-3, LARGE_DT])
    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("kind, dim_n", GEOMETRIES)
    def test_step_is_dense_symmetric_solve(self, kind, dim_n, bc, dt):
        # V^-1 A is L, and the step is the dense solve of (V - dt/2 A) y = V w~
        g = grid_of(kind, dim_n, nodes=41)
        op = _Diffusion(g, bc)
        lap = np.column_stack([op.apply(e) for e in np.eye(g.nodes)])
        np.testing.assert_allclose(dense_flux(op) / op.volume[:, None], lap, rtol=1e-15, atol=0.0)
        w = two_rows(g)
        np.testing.assert_allclose(op.step(w, dt), dense_symmetric_step(op, w, dt),
                                   rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("kind, dim_n", GEOMETRIES)
    def test_pinned_rows_are_exactly_zero(self, kind, dim_n):
        # a pinned node's row and column of V - dt/2 A are the identity's, so the
        # step returns +0.0 there from data that do not vanish at the wall
        g = grid_of(kind, dim_n, nodes=41)
        op = _Diffusion(g, DIR)
        w = two_rows(g)
        assert np.all(w[:, op.pinned] > 0.0)
        for dt in DT_SEQUENCE + [10.0**k for k in range(-8, 9)]:
            factors = op._factor(dt)
            assert np.all(factors.d[op.pinned] == 1.0), dt
            assert np.all(factors.e[op.pinned[:-1] | op.pinned[1:]] == 0.0), dt
            out = op.step(w, dt)
            assert out[:, op.pinned].tobytes() == np.zeros((2, op.pinned.sum())).tobytes(), dt

    @pytest.mark.parametrize("kind, dim_n", GEOMETRIES)
    def test_dirichlet_walls_hold_exact_zeros(self, kind, dim_n):
        # data that vanish on the walls, and steps up to 0.02 > 2 h^2 on the interval,
        # where a factorisation that pivoted at a wall would mix round-off into it
        g = grid_of(kind, dim_n, nodes=41)
        u = np.cos(0.5 * np.pi * g.coords) ** 2
        traj = solve(Field(g, u), Field(g, 0.5 * u + 0.1 * u**2), PowerPair(2, 3),
                     config(bc=DIR), np.linspace(0.05, 1.0, 20))
        pinned = LaplacianBands(g, DIR).pinned
        assert np.all(traj.values[..., pinned] == 0.0)

    @pytest.mark.parametrize("dt", [1e-3, 8e-3, LARGE_DT])
    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("kind, dim_n", GEOMETRIES)
    def test_stacked_rows_equal_single_rows(self, kind, dim_n, bc, dt):
        g = grid_of(kind, dim_n, nodes=41)
        op = _Diffusion(g, bc)
        w = two_rows(g)
        applied = op.apply(w)
        stepped = op.step(w, dt)
        for i in range(2):
            assert np.array_equal(applied[i], op.apply(w[i]))
            assert np.array_equal(stepped[i], op.step(w[i], dt))

    # the cube and square shortcuts, and np.power at non-integer powers
    @pytest.mark.parametrize("pair", [PowerPair(2, 3), PowerPair(1.5, 2.5)],
                             ids=["2-3", "1.5-2.5"])
    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("kind, dim_n", GEOMETRIES)
    def test_advance_equals_list_based_reference(self, kind, dim_n, bc, pair):
        g = grid_of(kind, dim_n, nodes=41)
        op = _Diffusion(g, bc)
        absorption = _coupled(pair)
        w = two_rows(g)
        ref = list(w)
        for dt in DT_SEQUENCE:
            w = _advance(w, dt, op, absorption)
            ref = list_based_advance(ref, dt, op, pair)
            assert np.array_equal(w, np.stack(ref))

    @pytest.mark.parametrize("dts", DT_SEQUENCES)
    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("kind, dim_n", GEOMETRIES)
    def test_cached_factors_equal_fresh_factors(self, kind, dim_n, bc, dts):
        # every step on the cached factors equals a step of a new operator, whose
        # factors are computed afresh, bit for bit
        dts = DT_SEQUENCES[dts]
        g = grid_of(kind, dim_n, nodes=41)
        op = _Diffusion(g, bc)
        w = ref = two_rows(g)
        for dt in dts:
            w = op.step(w, dt)
            ref = _Diffusion(g, bc).step(ref, dt)
            assert np.array_equal(w, ref)
            assert np.array_equal(op.step(w[1], dt), _Diffusion(g, bc).step(ref[1], dt))
            info = op._factor.cache_info()
            assert info.maxsize == _FACTOR_CACHE_SIZE == 4 and info.currsize <= 4
        hits, misses = op._factor.cache_info()[:2]
        op.step(w, dts[-1])
        assert op._factor.cache_info()[:2] == (hits + 1, misses)

    def test_stepped_operator_is_freed_by_reference_counting(self):
        g = interval_grid(41)
        op = _Diffusion(g, NEU)
        op.step(two_rows(g), 1e-3)
        ref = weakref.ref(op)
        gc.disable()
        try:
            del op
            assert ref() is None  # no cycle through the factor cache keeps it
        finally:
            gc.enable()


OPENBLAS = evolution._openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None, reason="NumPy bundles no libscipy_openblas64_")
BACKENDS = {"openblas": lambda: functools.partial(evolution._OpenBlasPttr, *OPENBLAS),
            "scipy": lambda: functools.partial(evolution._ScipyPttr, *evolution._pttr())}


@pytest.fixture(params=[pytest.param("openblas", marks=needs_openblas), "scipy"])
def backend(request, monkeypatch):
    """Every operator made in the test solves with the routines of one backend."""
    monkeypatch.setattr(evolution, "_LAPACK", BACKENDS[request.param]())
    return request.param


def random_spd(rng, n):
    """A random symmetric tridiagonal matrix, diagonally dominant: (d, e)."""
    e = rng.standard_normal(n - 1)
    return np.abs(rng.standard_normal(n)) + 0.1 + np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e]), e


class TestLapackBackends:
    """The ctypes routines of NumPy's OpenBLAS, and `_pttr`'s where they are absent."""

    @staticmethod
    def numpy_beside(monkeypatch, tmp_path, libraries: dict) -> None:
        """Point `_openblas` at a numpy package in tmp_path whose numpy.libs holds
        `libraries`, file name -> bytes, or a symlink to a path."""
        libs = tmp_path / "numpy.libs"
        libs.mkdir()
        for name, content in libraries.items():
            if isinstance(content, Path):
                (libs / name).symlink_to(content)
            else:
                (libs / name).write_bytes(content)
        monkeypatch.setattr(evolution.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))

    @needs_openblas
    def test_the_bundled_library_is_used(self):
        assert isinstance(evolution._Diffusion(interval_grid(9), NEU)._solve.__self__,
                          evolution._OpenBlasPttr)

    @pytest.mark.parametrize("library", ["none", "missing symbols", "unloadable"])
    def test_fallback_is_pttr(self, monkeypatch, tmp_path, library):
        name = "libscipy_openblas64_-0.so"
        if library == "missing symbols":
            # libgfortran, bundled beside NumPy's OpenBLAS, loads but has neither symbol
            fortran = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libgfortran*"))
            if not fortran:
                pytest.skip("NumPy bundles no libgfortran")
            libraries = {name: fortran[0]}
        elif library == "unloadable":
            libraries = {name: b"not a shared object"}  # CDLL raises OSError
        else:
            libraries = {}
        self.numpy_beside(monkeypatch, tmp_path, libraries)
        assert evolution._openblas() is None
        lapack = evolution._lapack()
        assert lapack.func is evolution._ScipyPttr
        assert lapack.args == (scipy.linalg.lapack.dpttrf, scipy.linalg.lapack.dpttrs)

    @needs_openblas
    @pytest.mark.parametrize("nrhs", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 51, 401])
    def test_routines_equal_scipy_bit_for_bit(self, n, nrhs):
        rng = np.random.default_rng(1000 * n + nrhs)
        routines = evolution._OpenBlasPttr(*OPENBLAS, n)
        for _ in range(5):
            d, e = random_spd(rng, n)
            d_ref, e_ref, info = scipy.linalg.lapack.dpttrf(d, e)
            factors, info_c = routines.factor(d.copy(), e.copy())
            assert info == info_c == 0
            assert same_bits(factors.d, d_ref) and same_bits(factors.e, e_ref)
            b = rng.standard_normal((nrhs, n))
            x, info = scipy.linalg.lapack.dpttrs(d_ref, e_ref, b.T)
            assert info == 0
            routines.solve(factors, b)
            assert same_bits(b, np.ascontiguousarray(x.T))
            one = b[0].copy()  # one field, as `_Diffusion.step` takes it
            routines.solve(factors, one)
            assert same_bits(one, np.ascontiguousarray(scipy.linalg.lapack.dpttrs(
                d_ref, e_ref, b[0])[0]))

    @needs_openblas
    def test_kept_right_hand_sides(self):
        # the same array solved again with new data, and more arrays than are kept
        n = 51
        rng = np.random.default_rng(4)
        routines = evolution._OpenBlasPttr(*OPENBLAS, n)
        d, e = random_spd(rng, n)
        factors, _ = routines.factor(d.copy(), e.copy())
        d_ref, e_ref, _ = scipy.linalg.lapack.dpttrf(d, e)
        arrays = [np.empty((2, n)) for _ in range(3 * evolution._RHS_KEPT)]
        for b in arrays + arrays[:2] + [np.empty(n)]:
            b[...] = rng.standard_normal(b.shape)
            expected = scipy.linalg.lapack.dpttrs(d_ref, e_ref, b.T)[0].T.copy()
            routines.solve(factors, b)
            assert same_bits(b, expected)
            assert len(routines._rhs) <= evolution._RHS_KEPT
            assert routines._rhs[id(b)][0] is b

    @needs_openblas
    def test_one_equation_has_no_off_diagonal(self):
        # e is empty and from_buffer refuses empty buffers: e goes as a null pointer
        routines = evolution._OpenBlasPttr(*OPENBLAS, 1)
        factors, info = routines.factor(np.array([4.0]), np.empty(0))
        assert info == 0 and factors.d.tolist() == [4.0] and factors.e_ref is None
        b = np.array([[3.0], [-1.0]])
        routines.solve(factors, b)
        assert b.tolist() == [[0.75], [-0.25]]

    @needs_openblas
    def test_solve_refuses_what_lapack_would_misread(self):
        n = 5
        routines = evolution._OpenBlasPttr(*OPENBLAS, n)
        factors, _ = routines.factor(*random_spd(np.random.default_rng(2), n))
        read_only = np.ones((2, n))
        read_only.flags.writeable = False
        with pytest.raises(TypeError):
            routines.solve(factors, read_only)
        with pytest.raises(TypeError):
            routines.solve(factors, np.ones((n, 2)).T)  # not C-contiguous
        with pytest.raises(ValueError, match="not float64 rows of 5"):
            routines.solve(factors, np.ones((2, n), dtype=np.float32))
        with pytest.raises(ValueError, match="not float64 rows of 5"):
            routines.solve(factors, np.ones((2, n + 1)))
        d, e = random_spd(np.random.default_rng(3), n)
        for bad in [(d[:-1], e), (d, e[:-1]), (d.astype(np.float32), e)]:
            with pytest.raises(ValueError, match="float64 arrays of 5 and 4 values"):
                routines.factor(*bad)

    @pytest.mark.parametrize("bc, info", [(NEU, 1), (DIR, 2)])
    def test_factorisation_failure_raises(self, backend, bc, info):
        # dt < 0 makes V - dt/2 A indefinite: pttrf stops at the first pivot that is
        # not positive, the second under Dirichlet walls, whose first row is the identity's
        op = _Diffusion(interval_grid(41), bc)
        with pytest.raises(evolution.NumericsError, match=f"pttrf info={info}$"):
            op._factor(-1.0)
        assert op._factor.cache_info().currsize == 0

    @needs_openblas
    @pytest.mark.parametrize("rows", ["coupled", "scalar", "heat"])
    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("kind, dim_n", [(DomainKind.INTERVAL, 1), (DomainKind.RADIAL_BALL, 3)])
    def test_backends_step_the_same_bits(self, monkeypatch, kind, dim_n, bc, rows):
        absorption = {"coupled": _coupled(PAIR_23), "scalar": ((0, 2.5),), "heat": ()}[rows]
        g = grid_of(kind, dim_n, nodes=41)
        w0 = two_rows(g)[:max(len(absorption), 1)]
        states = {}
        for name, lapack in BACKENDS.items():
            monkeypatch.setattr(evolution, "_LAPACK", lapack())
            op = _Diffusion(g, bc)
            w, out, states[name] = w0, np.empty_like(w0), []
            for dt in DT_SEQUENCE:
                w = _advance(w, dt, op, absorption, out).copy()
                states[name].append(w.tobytes() + op._factor(dt).d.tobytes())
        assert states["openblas"] == states["scipy"]


def cell_volumes(g):
    """Reference: node i's cell, between the midpoints to its neighbours and cut at
    the walls, in the N-ball up to a common factor: hi^N - lo^N in units of h / 2,
    exact in integers."""
    dim, last = g.domain.dim_n, 2 * (g.nodes - 1)
    return np.array([min(k + 1, last) ** dim - max(k - 1, 0) ** dim
                     for k in range(0, last + 1, 2)], dtype=float)


MASS_GEOMETRIES = [(DomainKind.INTERVAL, 1)] + [(DomainKind.RADIAL_BALL, n) for n in (1, 2, 3)]


class TestMassConservation:
    """Under zero flux L = V^-1 A conserves the V-mass, on the interval, the half
    line and in the N-ball."""

    @pytest.mark.parametrize("kind, dim_n", MASS_GEOMETRIES)
    def test_laplacian_has_zero_v_mass(self, kind, dim_n):
        # the fluxes cancel in pairs; each flux is about |diag| w, so the sum is
        # compared with the total size of the terms that cancel
        g = grid_of(kind, dim_n, nodes=201)
        bands = LaplacianBands(g, NEU)
        volume = cell_volumes(g)
        w = smooth_positive(g)
        assert abs(volume @ bands.apply(w)) <= 1e-13 * (volume @ (-2.0 * bands.diag * w))
        assert np.ptp(volume / bands.volume) == 0.0

    @pytest.mark.parametrize("kind, dim_n", MASS_GEOMETRIES)
    def test_crank_nicolson_keeps_the_v_mass(self, kind, dim_n):
        # (V - dt/2 A) y = V w keeps sum(V y) = sum(V w) but for rounding: the
        # diagonal V - dt/2 A_ii rounds alike at every node of a uniform N = 1
        # grid, so the loss adds up, by up to eps (1 - dt/2 L_ii) a step
        g = grid_of(kind, dim_n, nodes=201)
        op, dt, steps = _Diffusion(g, NEU), 1e-3, 200
        volume = cell_volumes(g)
        w = smooth_positive(g)
        x = w
        for _ in range(steps):
            x = op.step(x, dt)
        bound = steps * np.finfo(float).eps * np.max(1.0 - 0.5 * dt * op.diag)
        assert abs(volume @ x - volume @ w) <= bound * (volume @ w)
        assert not np.allclose(x, w, rtol=1e-3)  # the data did diffuse


def reference_absorb(w, rates, h):
    """The absorption update A(h) in plain numpy; rates(x) is the (k, n) array of
    absorption rates at x."""
    d0 = rates(w)
    w1 = w / (1.0 + h * d0 / np.maximum(w, 1e-300))
    return w / (1.0 + h * np.sqrt(d0) * np.sqrt(rates(w1)) / np.maximum(w1, 1e-300))


def clamped_absorb(w, rates, h):
    """`reference_absorb` with np.maximum(., 0) after its last division."""
    return np.maximum(reference_absorb(w, rates, h), 0.0)


def clamped_system_reaction(pair):
    def update(w, h):
        return clamped_absorb(w, lambda x: np.stack([kernel_power(x[1], pair.p),
                                                     kernel_power(x[0], pair.q)]), h)

    return update


def clamped_scalar_reaction(big_q):
    def update(w, h):
        return clamped_absorb(w, lambda x: np.power(x, big_q), h)

    return update


def strang(reaction, op, w, dt):
    """Reference: reaction(., dt/2), then op.step(., dt), then reaction(., dt/2)."""
    return reaction(op.step(reaction(w, 0.5 * dt), dt), 0.5 * dt)


PAIR_23 = PowerPair(2, 3)
# (absorption, the clamped reaction it replaces, number of rows)
ABSORPTIONS = {
    "coupled": (((1, PAIR_23.p), (0, PAIR_23.q)), clamped_system_reaction(PAIR_23), 2),
    "scalar": (((0, 2.5),), clamped_scalar_reaction(2.5), 1),
}
EXTREMES = [0.0, 5e-324, 1e-300, 1e308, math.inf]


def same_bits(a, b):
    # array_equal would let -0.0 match 0.0 and fail on nan
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class ClampOnlyDiffusion:
    """A diffusion step that only clamps at 0, as `_Diffusion.step` ends, so the
    updates see chosen values."""

    def step(self, w, dt, out=None):
        return np.maximum(w, 0.0, out=out)


class TestUnclampedAbsorption:
    """`_advance`, with no clamp after either absorption update, equals the Strang
    step with clamped updates bit for bit."""

    @pytest.mark.parametrize("rows", ["coupled", "scalar"])
    @pytest.mark.parametrize("dts", DT_SEQUENCES)
    @pytest.mark.parametrize("bc", [NEU, DIR])
    def test_equals_clamped_update(self, bc, dts, rows):
        absorption, reaction, k = ABSORPTIONS[rows]
        g = interval_grid(41)
        op = _Diffusion(g, bc)
        w = two_rows(g)[:k]
        # an inf turns the whole line nan, so the finite extremes also go alone
        finite = np.stack([np.resize(EXTREMES[:-1], 41), np.resize(EXTREMES[-2::-1], 41)])[:k]
        with_inf = finite.copy()
        with_inf[0, 20] = math.inf
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for dt in DT_SEQUENCES[dts]:
                for data in (finite, with_inf):
                    assert same_bits(_advance(data, dt, op, absorption),
                                     strang(reaction, op, data, dt))
                ref = strang(reaction, op, w, dt)
                w = _advance(w, dt, op, absorption)
                assert same_bits(w, ref)

    @pytest.mark.parametrize("rows", ["coupled", "scalar"])
    def test_equals_clamped_update_on_extreme_halves(self, rows):
        # every pair of (own, source) values; -0.0, an undershoot and nan are
        # what the diffusion step's clamp receives before it hands on its result
        absorption, reaction, k = ABSORPTIONS[rows]
        values = [*EXTREMES, -0.0, -1e-300, math.nan]
        w = np.array([np.repeat(values, len(values)), np.tile(values, len(values))])[:k]
        op = ClampOnlyDiffusion()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for dt in (1e-3, 1.0, 1e300):
                out = _advance(w, dt, op, absorption)
                assert same_bits(out, strang(reaction, op, w, dt))
                assert not np.any(out < 0)


def count_advance(monkeypatch) -> list:
    """The dt of every `_advance` call from here on: a count of the solver's steps
    made outside it, which its own tally must equal."""
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _advance(*args)

    monkeypatch.setattr(evolution, "_advance", counted)
    return calls


def work_of(call) -> tuple:
    """`call()`'s result and its share of the solver's tally `evolution._WORK`."""
    before = dict(evolution._WORK)
    result = call()
    return result, {key: evolution._WORK[key] - count for key, count in before.items()}


def test_rejection_reuses_the_half_step(monkeypatch):
    # an accepted attempt costs three _advance calls, each retry two more
    calls = count_advance(monkeypatch)
    g = interval_grid(41)
    ic = bump_function(g, 0.0, 0.3)
    traj, work = work_of(lambda: solve(ic, ic, PowerPair(2, 3), config(dt_init=1e-2), [0.02]))
    retries = sum(rec.retries for rec in traj.steps)
    assert retries >= 1
    assert len(calls) == 3 * len(traj.steps) + 2 * retries
    # p != q, so every call advances both rows
    assert work == {"calls": len(calls), "rows": 2 * len(calls), "accepted": len(traj.steps),
                    "retries": retries, "factors": work["factors"]}
    assert 0 < work["factors"] <= len(calls)


def spy_on_buffers(monkeypatch) -> list:
    """Every `_Buffers` that an operator hands out from here on."""
    made = []
    buffers = _Diffusion.buffers

    def spied(self, shape):
        made.append(buffers(self, shape))
        return made[-1]

    monkeypatch.setattr(_Diffusion, "buffers", spied)
    return made


def test_buffers_never_reach_a_result(monkeypatch):
    # test_rejection_reuses_the_half_step's solve: a retry swaps the full and half
    # buffers and every accepted step swaps the state and two-half ones
    made = spy_on_buffers(monkeypatch)
    g = interval_grid(41)
    ic = bump_function(g, 0.0, 0.3)
    data = ic.values.tobytes()
    run = lambda: solve(ic, ic, PowerPair(2, 3), config(dt_init=1e-2), [0.02])
    first = run()
    assert sum(rec.retries for rec in first.steps) >= 1
    arrays = [array for buffers in made
              for array in (buffers.weight, buffers.stepped, *buffers.work, *buffers.attempts)]
    assert arrays and not any(np.shares_memory(first.values, array) for array in arrays)
    kept = first.values.tobytes()
    second = run()
    assert first.values.tobytes() == kept == second.values.tobytes()
    assert ic.values.tobytes() == data  # the first state buffer is a copy of the data


class TestStepBuffers:
    """Given `out`, `_advance` writes only `out` and the operator's buffers."""

    @staticmethod
    def peak_above_start(call, times=50) -> int:
        """The traced peak over `times` calls after a warm-up call, above its start."""
        call()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(times):
                call()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("bc", [NEU, DIR])
    def test_no_temporaries(self, bc):
        # a 2 x 401 radial state, as removability's half line carries it
        g = grid_of(DomainKind.RADIAL_BALL, 1, nodes=401)
        w = two_rows(g)
        op = _Diffusion(g, bc)
        out = np.empty_like(w)
        absorption = _coupled(PAIR_23)
        assert self.peak_above_start(lambda: _advance(w, 1e-4, op, absorption, out)) < w.nbytes
        gap = op.buffers(w.shape).work[0]
        assert self.peak_above_start(lambda: _error(w, out, gap)) < w.nbytes

    @pytest.mark.parametrize("rows", ["coupled", "scalar", "heat"])
    @pytest.mark.parametrize("bc", [NEU, DIR])
    def test_buffered_step_equals_new_arrays(self, bc, rows):
        absorption = {"coupled": _coupled(PAIR_23), "scalar": ((0, 2.5),), "heat": ()}[rows]
        g = grid_of(DomainKind.RADIAL_BALL, 1, nodes=41)
        op = _Diffusion(g, bc)
        w = two_rows(g)[:max(len(absorption), 1)]
        out = np.empty_like(w)
        for dt in DT_SEQUENCE:
            _advance(w, dt, op, absorption, out)
            assert same_bits(out, _advance(w, dt, op, absorption))
            w = out.copy()


class TestWorkTally:
    """`_integrate` adds each solve's work to `evolution._WORK`, and a record
    carries its run's share as `solver`."""

    @pytest.mark.parametrize("recipe, params, work", [
        ("trace_measurement", {"p": 2, "q": 2},
         {"calls": 404, "rows": 404, "accepted": 132, "retries": 4, "factors": 88}),
        # lab_session's failing point: the attempt that underflows counts too
        ("estimate_saturation", {"p": 2, "q": 3, "m": 1e4},
         {"calls": 1019, "rows": 2038, "accepted": 308, "retries": 46, "factors": 102}),
    ])
    def test_record_counts_equal_an_advance_count(self, monkeypatch, recipe, params, work):
        calls = count_advance(monkeypatch)
        record = run_experiment(ExperimentSpec(recipe, params))
        assert record.solver["calls"] == len(calls)
        assert record.solver == work
        assert record.failed == (recipe == "estimate_saturation")

    def test_back_to_back_runs_record_only_their_own(self, monkeypatch):
        calls = count_advance(monkeypatch)
        specs = [ExperimentSpec("blowup_fit", {"p": 2, "q": 3, "nodes": 41}),
                 ExperimentSpec("flat_validation", {"p": 2, "q": 2, "nodes": 41}),
                 ExperimentSpec("blowup_fit", {"p": 2, "q": 3, "nodes": 41})]
        records = []
        for spec in specs:
            calls.clear()
            records.append(run_experiment(spec))
            assert records[-1].solver["calls"] == len(calls) > 0
        first, other, again = records
        assert first.solver == again.solver != other.solver

    def test_a_run_without_a_solve_records_zeros(self):
        record = run_experiment(ExperimentSpec("convergence_order", {"p": 2, "q": 2}))
        assert record.solver == dict.fromkeys(
            ("calls", "rows", "accepted", "retries", "factors"), 0)


def on_ladder(dt, dt_init):
    """Whether dt is a rung dt_init * 2**(j/4), bit for bit, for an integer j."""
    j = round(4 * math.log2(dt / dt_init))
    return dt == dt_init * 2.0 ** (j / 4)


def clipped_steps(traj, t_start, times):
    """Per accepted step, whether its first attempt was clipped to an output time,
    replaying `_integrate`'s clock: t += dt, set to t_out once t_out is reached."""
    t, out, clipped = t_start, iter(times), []
    t_out = next(out)
    for rec in traj.steps:
        clipped.append(rec.dt * 2.0**rec.retries == t_out - t)
        t = rec.t
        if t >= t_out - 1e-13 * max(1.0, abs(t_out)):
            t, t_out = t_out, next(out, math.inf)
    return clipped


class TestStepController:
    """Grow-only quarter-octave rungs: halve on rejection, climb k <= 4 rungs after
    an unretried step, the most with (2**(k/4))**3 err <= tol."""

    def test_first_attempt_after_a_clipped_step_is_on_the_ladder(self):
        def highest_rung_at_or_below(dt, dt_init):
            return max(j for j in range(-400, 400) if dt_init * 2.0 ** (j / 4) <= dt)

        g = interval_grid(201)
        ic = bump_function(g, 0.0, 0.1)
        times = [0.002 * k for k in range(1, 11)]
        cfg = config(dt_init=1e-2)
        traj = solve(ic, ic, PowerPair(2, 3), cfg, times)
        clipped = clipped_steps(traj, 0.0, times)
        after = [(rec, nxt) for rec, nxt, c, c_nxt in
                 zip(traj.steps, traj.steps[1:], clipped, clipped[1:]) if c and not c_nxt]
        assert len(after) >= 5 and any(rec.retries for rec, _ in after)
        for rec, nxt in after:
            first = nxt.dt * 2.0**nxt.retries
            assert on_ladder(first, cfg.dt_init)
            below = cfg.dt_init * 2.0 ** (highest_rung_at_or_below(rec.dt, cfg.dt_init) / 4)
            assert first == below if rec.retries else first >= below

    def test_every_unclipped_step_is_on_the_ladder(self):
        g = interval_grid(201)
        ic = bump_function(g, 0.0, 0.1)
        times = [0.003, 0.007, 0.02]
        cfg = config(dt_init=1e-4)
        traj = solve(ic, ic, PowerPair(2, 3), cfg, times)
        clipped = clipped_steps(traj, 0.0, times)
        free = [rec for rec, c in zip(traj.steps, clipped) if not c]
        assert 0 < sum(clipped) <= len(times)
        assert all(on_ladder(rec.dt, cfg.dt_init) for rec in free)
        # quarter rungs are taken, not only the halve/double ones
        rungs = {round(4 * math.log2(rec.dt / cfg.dt_init)) % 4 for rec in free}
        assert rungs == {0, 1, 2, 3}
        # retried steps are among them: halving a rung's dt lands on a rung
        assert any(rec.retries for rec in free)

    def test_bump_solve_takes_fewer_calls_and_retries(self):
        # the halve / double-below-tol/4 controller took 799 calls and 47 retries here
        g = interval_grid(201)
        ic = bump_function(g, 0.0, 0.1)
        _, work = work_of(lambda: solve(ic, ic, PowerPair(2, 3), config(), [0.02]))
        # this controller: 565 calls, 185 accepted steps and 5 retries
        assert work["calls"] <= 600 and work["retries"] <= 10

    def test_ladder_climbs_past_the_float_powers_of_two(self):
        # from 1e-300 to 1e9 the ladder climbs past 2**1024 times dt_init, a
        # power of 2 that `2.0 ** x` cannot form
        g = interval_grid(21)
        cfg = config(dt_init=1e-300, dt_min=1e-300)
        traj = heat_solve(Field(g, np.ones(21)), cfg, [1e9])
        assert traj.steps[-1].t == 1e9
        assert max(rec.dt for rec in traj.steps) > 1e8
        # the steps of 1e8 lose a few 1e-7 of the constant to rounding
        assert np.allclose(traj.values[-1, 0], 1.0, rtol=1e-6)
        j = 0
        while evolution._rung_dt(j + 1, 1e-300) <= 1e9:
            j += 1
        assert j > 4 * 1024  # rung j is 2**(j/4) times dt_init
        assert evolution._rung_dt(j, 1e-300) <= 1e9 < evolution._rung_dt(j + 1, 1e-300)

    def test_zero_error_climbs_four_rungs(self):
        # flat data under Neumann walls and no absorption: every gap is 0, so dt
        # doubles each step, as it did under the halve/double controller
        g = interval_grid(21)
        traj = heat_solve(Field(g, np.ones(21)), config(dt_init=1e-4), [0.1])
        dts = [rec.dt for rec in traj.steps[:-1]]
        assert dts == [1e-4 * 2.0**k for k in range(len(dts))]


def test_always_overflowing_attempts_end_in_underflow():
    # the explicit half of a Crank-Nicolson step overflows on a 1e308 spike at any
    # dt: every attempt is non-finite, so each is rejected and dt runs down
    # to dt_min, and no non-finite state is ever accepted
    g = interval_grid(41)
    spike = np.zeros(41)
    spike[20] = 1e308
    cfg = config(dt_init=1e-4, dt_min=1e-8)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepSizeUnderflow):
        solve(Field(g, spike), Field(g, spike), PowerPair(2, 3), cfg, [1e-3])


def test_error_is_nan_when_any_row_is_nan():
    # a non-finite attempt must fail the err <= tol test and be retried
    a = np.ones((2, 5))
    b = np.ones((2, 5))
    for row in range(2):
        bad = a.copy()
        bad[row, 2] = np.nan
        assert np.isnan(_error(bad, b))


SHORTCUT_POWERS = [1.5, 2.0, 2.5, 3.0, 7.0]
TINY = 1e-250  # below the cut 2**(-1100/power) of every power from 1.5 up


def power_of_row(x, power):
    out = np.full_like(x, np.nan)  # a node the shortcut forgets stays nan
    _power_into(out, x, power)
    return out


def ulps_around(value, count):
    """`value` and its `count` neighbours on each side, in increasing order."""
    below = [value]
    above = [value]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -math.inf))
        above.append(np.nextafter(above[-1], math.inf))
    return np.array(below[:0:-1] + above)


def tailed_row(lo, tail, nodes=64, body=0.3, tiny=TINY):
    """`lo` tiny nodes, then body values, then `tail` tiny nodes."""
    x = np.full(nodes, body)
    x[:lo] = tiny
    x[nodes - tail:] = tiny
    return x


def plain_power_advance(w, dt, op, absorption):
    """`_advance` with every rate from `kernel_power`: the Strang step without the
    tiny-node mask."""
    if not absorption:
        return op.step(w, dt)
    rates = lambda x: np.stack([kernel_power(x[source], power) for source, power in absorption])
    return strang(lambda x, h: reference_absorb(x, rates, h), op, w, dt)


class TestPowerShortcut:
    """`_power_into` equals x * x * x at power 3.0, and a plain np.power on the whole row
    at any other power, bit for bit."""

    @pytest.mark.parametrize("power", SHORTCUT_POWERS)
    def test_values_around_the_cut(self, power):
        cut = 2.0 ** (-1100.0 / power)
        near = ulps_around(cut, 4)
        # the cut's neighbours at both ends, and at one end; then the values
        # whose power is the least subnormal, outside the mask
        for x in (np.concatenate([near, [0.5], near[::-1]]),
                  np.concatenate([near, [0.5, 0.25]]),
                  np.concatenate([[0.5], near[::-1]]),
                  np.concatenate([near, ulps_around(2.0 ** (-1074.0 / power), 4), near])):
            assert same_bits(power_of_row(x, power), kernel_power(x, power))

    @pytest.mark.parametrize("power", SHORTCUT_POWERS)
    def test_tiny_runs_across_simd_lanes(self, power):
        # every tiny-run length from 0 to 17 at both ends moves the mask's
        # edges across the SIMD lanes of the masked np.power
        assert TINY < 2.0 ** (-1100.0 / power) or power == 2.0
        for lo in range(18):
            for tail in range(18):
                x = tailed_row(lo, tail)
                assert same_bits(power_of_row(x, power), kernel_power(x, power))

    @pytest.mark.parametrize("power", SHORTCUT_POWERS)
    def test_tails_pockets_and_pinned_ends(self, power):
        rows = {
            "left tail": tailed_row(20, 0),
            "right tail": tailed_row(0, 20),
            "both tails": tailed_row(20, 20),
            # second nodes not tiny: no mask is built, np.power takes all
            "pocket": np.full(64, 0.3),
            "all tiny": np.full(64, TINY),
            "all zero": np.zeros(64),
            # a Dirichlet solve pins both walls at 0.0: one tiny node per end
            "pinned ends": np.concatenate([[0.0], np.linspace(1e-120, 0.5, 62), [0.0]]),
            "one-node runs": tailed_row(1, 1),
            # the second nodes are tiny, the end nodes are not: the mask keeps the ends
            "runs behind the ends": tailed_row(20, 20),
        }
        rows["pocket"][20:44] = TINY
        rows["runs behind the ends"][[0, -1]] = 0.3
        for name, x in rows.items():
            assert same_bits(power_of_row(x, power), kernel_power(x, power)), name

    @pytest.mark.parametrize("power", SHORTCUT_POWERS)
    def test_special_values(self, power):
        specials = [0.0, -0.0, 5e-324, math.nan, math.inf]
        with np.errstate(invalid="ignore"):
            for value in specials:
                for at in (0, 1, 20, 38, 39):
                    for x in (tailed_row(10, 10, nodes=40), np.full(40, TINY)):
                        x[at] = value
                        assert same_bits(power_of_row(x, power), kernel_power(x, power)), (value, at)
            # negatives go to np.power too, or to the cube: nan for a fractional power,
            # -0.0 for an odd one
            x = np.concatenate([[-TINY, -0.0], np.full(8, TINY), [-1e-300]])
            assert same_bits(power_of_row(x, power), kernel_power(x, power))

    def test_cube_special_values(self):
        cut = 2.0 ** (-1100.0 / 3.0)
        near = ulps_around(cut, 4)
        cases = [(-0.0, -0.0), (0.0, 0.0), (5e-324, 0.0), (1e103, math.inf),
                 (math.inf, math.inf), (-math.inf, -math.inf), (math.nan, math.nan),
                 (2.0, 8.0), (-0.5, -0.125)]
        x = np.array([v for v, _ in cases] + near.tolist())
        # every node around the cut has an exact cube under 2**-1100: +0.0
        expected = np.array([c for _, c in cases] + [0.0] * near.size)
        with np.errstate(over="ignore"):
            out = power_of_row(x, 3.0)
            assert same_bits(out, expected)
            assert same_bits(out, x * x * x)

    def test_cube_is_within_an_ulp_of_pow(self):
        # normal cubes from 1e-100 to 1e100: two roundings against pow's one
        x = np.geomspace(10.0 ** (-100 / 3), 10.0 ** (100 / 3), 20001)
        cube, exact = power_of_row(x, 3.0), np.power(x, 3.0)
        assert np.all(np.abs(cube - exact) <= np.spacing(exact))

    @pytest.mark.parametrize("power", [0.5, 1.0, -1.0, math.nan])
    def test_powers_without_a_shortcut(self, power):
        x = tailed_row(10, 10)
        with np.errstate(divide="ignore"):
            assert same_bits(power_of_row(x, power), kernel_power(x, power))

    @pytest.mark.parametrize("bc", [NEU, DIR])
    @pytest.mark.parametrize("absorption", [
        ((1, 2.0), (0, 3.0)), ((1, 3.0), (0, 2.0)), ((1, 1.5), (0, 1.5)),
        ((0, 2.5),), ((0, 3.0),), (),
    ], ids=["coupled-p2q3", "coupled-p3q2", "coupled-p1.5q1.5", "scalar-2.5", "scalar-3", "heat"])
    def test_advance_equals_plain_power(self, bc, absorption):
        # a narrow bump on 201 nodes: its tails underflow in every power
        g = interval_grid(201)
        bump = bump_function(g, 0.0, 0.05).values
        w = np.stack([bump, 0.5 * bump])[:max(len(absorption), 1)]
        op = _Diffusion(g, bc)
        halves = op.step(w, 1e-7)
        assert all(halves[s, 1] < 2.0 ** (-1100.0 / power) for s, power in absorption)
        for dt in (1e-7, 1e-6, 1e-5, 1e-4):
            ref = plain_power_advance(w, dt, op, absorption)
            w = _advance(w, dt, op, absorption)
            assert same_bits(w, ref)

    def test_solve_equals_plain_power(self, monkeypatch):
        g = interval_grid(201)
        ic = bump_function(g, 0.0, 0.05)
        args = (ic, ic, PowerPair(2, 3), config(dt_init=1e-6), [1e-3, 4e-3])
        fast = solve(*args)
        monkeypatch.setattr(evolution, "_power_into",
                            lambda out, x, power: np.copyto(out, kernel_power(x, power)))
        plain = solve(*args)
        assert same_bits(fast.values, plain.values)
        assert fast.steps == plain.steps


def test_error_keeps_the_three_temporary_value():
    # one buffer for |a - b| and |b|, same operations in the same order
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.random((2, 2, 51)) * rng.choice([1e-300, 1.0, 1e300])
        expected = float((np.abs(a - b).max(axis=-1) / (1.0 + np.abs(b).max(axis=-1))).max())
        assert _error(a, b).hex() == expected.hex()


class TestCrankNicolson:
    def test_crank_nicolson_runs_and_stays_accurate(self):
        g = interval_grid(201, extent=2.0)
        s0 = 0.05
        ic = Field(g, heat_kernel(g.coords, s0))
        cfg = config(t_start=s0, dt_init=1e-4, tol_step=1e-7)
        traj = heat_solve(ic, cfg, [0.1])
        err = np.max(np.abs(traj.values[0, 0] - heat_kernel(g.coords, 0.1)))
        assert err < 5e-3
        assert traj.values[0, 0].min() >= 0.0


class TestAbsorptionSubstep:
    """`_absorb`, the geometric-mean Patankar update A(h) of the Strang step."""

    FLAT_22 = ((1, 2.0), (0, 2.0))

    def test_exact_for_flat_p2_q2(self):
        # u' = -u**2 from w: w / (1 + h w), here within 2 ulps of its rounding
        w = np.array([[1e-3, 0.7, 1.0, 3.0, 1e3, 1e6], [1e-3, 0.7, 1.0, 3.0, 1e3, 1e6]])
        for h in (1e-6, 1e-3, 0.05, 1.0):
            out = evolution._absorb(w, h, self.FLAT_22)
            for x, got in zip(w[0].tolist(), out[0].tolist()):
                exact = float(Fraction(x) / (1 + Fraction(h) * Fraction(x)))
                assert abs(got - exact) <= 2 * np.spacing(exact), (x, h)
            assert same_bits(out[0], out[1])

    @pytest.mark.parametrize("absorption", [((1, 1.0), (0, 1.0)), ((0, 1.0),)],
                             ids=["coupled", "scalar"])
    def test_rates_near_1e200_stay_finite(self, absorption):
        # rates 1e200 at w and at w1: their product overflows, their geometric
        # mean does not, so the update is w / (1 + h sqrt(1 + h)), not w / inf = 0
        w = np.full((len(absorption), 11), 1e200)
        h = 1e-3
        out = evolution._absorb(w, h, absorption)
        assert np.allclose(out, 1e200 / (1.0 + h * math.sqrt(1.0 + h)), rtol=1e-14, atol=0.0)

    def test_flat_validation_keeps_its_step_count(self, tmp_path):
        # A is exact on u' = -u**2, so the flat p = q = 2 run takes the steps it
        # took under the first-order update: 24 accepted, none rejected
        run_experiment(ExperimentSpec("flat_validation", {"p": 2, "q": 2}),
                       out_dir=tmp_path, runid="flat")
        rows = (tmp_path / "steps_flat.csv").read_text().splitlines()[1:]
        assert len(rows) == 24
        assert all(row.endswith(",0") for row in rows)


def test_adaptive_solve_is_second_order():
    # self-convergence on a bump: the error against a tol = 1e-11 solve falls
    # like (accepted steps)**-2; the first-order Lie splitting read 1.00 here.
    # The grow-only quarter-octave controller reads 1.98 in 16...298 steps
    # (1.99 in 17...391 under halve / double below tol/4).
    g = interval_grid(201)
    ic = bump_function(g, 0.0, 0.5)
    run = lambda tol: solve(ic, ic, PowerPair(2, 3), config(tol_step=tol), [0.02])
    ref = run(1e-11).values[-1]
    steps, errs = [], []
    for tol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        traj = run(tol)
        steps.append(len(traj.steps))
        errs.append(np.abs(traj.values[-1] - ref).max())
    slope, _ = np.polyfit(np.log(steps), np.log(errs), 1)
    assert -slope >= 1.8


def test_first_integral_holds_on_the_separatrix():
    # flat data on H = u**(q+1)/(q+1) - v**(p+1)/(p+1) = 0 at p = 2, q = 3, m = 10;
    # the flat solution keeps H = 0, and the step's drift, relative to
    # m**(q+1)/(q+1), stays below 2e-5 at t = 0.1 (the Lie splitting gave 1.5e-4)
    g = interval_grid(101)
    pair = PowerPair(2, 3)
    p, q, m = pair.p, pair.q, 10.0
    v0 = ((p + 1) / (q + 1) * m ** (q + 1)) ** (1 / (p + 1))
    traj = solve(Field(g, np.full(101, m)), Field(g, np.full(101, v0)), pair, config(), [0.1])
    u, v = traj.values[-1]
    drift = np.abs(u ** (q + 1) / (q + 1) - v ** (p + 1) / (p + 1)) * (q + 1) / m ** (q + 1)
    assert drift.max() < 2e-5


class TestTrajectory:
    def test_one_row_per_component_at_the_requested_times(self):
        g = interval_grid(21)
        ic = bump_function(g, 0.0, 0.5)
        times = [0.01, 0.02, 0.05]
        coupled = solve(ic, ic, PowerPair(2, 3), config(), times)
        symmetric = solve(ic, ic, PowerPair(2, 2), config(), times)
        heat = heat_solve(ic, config(), times)
        assert coupled.values.shape == symmetric.values.shape == (3, 2, 21)
        assert heat.values.shape == (3, 1, 21)
        for traj in (coupled, symmetric, heat):
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


def solved_trajectory(rows, centre=0.1, pair=PowerPair(2, 3)):
    g = interval_grid(31)
    ic = bump_function(g, centre, 0.3)
    cfg = config(dt_init=1e-5)
    times = np.geomspace(1e-3, 0.02, 5)
    if rows == 2:
        return solve(ic, ic, pair, cfg, times)
    return heat_solve(ic, cfg, times)


def solved_even_trajectory(rows):
    """Even data on the half line; at p = q the two rows are one row repeated."""
    traj = solved_trajectory(rows, centre=0.0, pair=PowerPair(2, 2))
    assert all(row.tobytes() == row[::-1].tobytes() for row in traj.values[:, 0])
    return traj


def even_row(right, odd=True):
    """The row whose nodes right of the centre are `right`, mirrored bit for bit;
    on an odd n, right[0] is the centre node."""
    right = np.array(right, dtype=float)
    return np.concatenate([right[:0:-1] if odd else right[::-1], right])


def assert_mirrored_by_value_only(*rows):
    for row in rows:
        assert np.array_equal(row, row[::-1]) and row.tobytes() != row[::-1].tobytes()


def snapshot_trajectory(snapshots, rows):
    """A trajectory of the given (2, n) snapshots, with their first `rows` rows."""
    values = np.array(snapshots, dtype=float)[:, :rows]
    times = (np.arange(len(values)) + 1.0) / 3.0
    steps = [StepRecord(float(t), 1.0 / 3.0, 0) for t in times]
    return Trajectory(interval_grid(values.shape[-1]), times, values, steps)


def even_odd_n_trajectory(rows):
    right = np.array(AWKWARD)
    return snapshot_trajectory([[even_row(right), even_row(np.roll(right, 3))],
                                [even_row(right[::-1]), even_row(right / 3.0)]], rows)


def ulp_off_tail_trajectory(rows):
    """Even but for one tail node, a single ulp off its mirror."""
    u, v = even_row(AWKWARD), even_row(np.roll(AWKWARD, 2))
    u[0] = np.nextafter(u[0], 0.0)
    v[-1] = np.nextafter(v[-1], 0.0)
    return snapshot_trajectory([[u, v]], rows)


def signed_zero_mirror_trajectory(rows):
    """Even by value, but -0.0 faces 0.0 across the centre."""
    u, v = even_row([1.0, 0.0, 0.1 + 0.2, 0.0]), even_row([0.0, 1.0 / 3.0, 0.0, 2.5])
    u[2] = -0.0
    v[-2] = -0.0
    assert_mirrored_by_value_only(u, v)
    return snapshot_trajectory([[u, v]], rows)


def nonfinite_mirror_trajectory(rows):
    """nan and inf at mirrored nodes; then nans of other payloads facing each other."""
    u = even_row([1.0 / 3.0, math.nan, math.inf, 0.1 + 0.2, -math.inf])
    v = even_row([math.inf, 2.0, math.nan, 5e-324, 0.0])
    other = u.copy()
    other[3] = np.uint64(0x7FF8000000000001).view(np.float64)
    assert math.isnan(other[3]) and other.tobytes() != other[::-1].tobytes()
    return snapshot_trajectory([[u, v], [other, u]], rows)


def even_n_trajectory(rows):
    """An even n has no centre node: the mirror pairs node i with node n - 1 - i."""
    right = np.array(AWKWARD)
    u, v, w = (even_row(r, odd=False) for r in (right, right[::-1], right / 7.0))
    return snapshot_trajectory([[u, np.roll(u, 1)], [v, w]], rows)


def equal_rows_trajectory(rows):
    """Two equal rows, even and uneven, as `solve` returns one row at p = q."""
    even, uneven = even_row(np.roll(AWKWARD, 1)), np.roll(even_row(AWKWARD), 2)
    return snapshot_trajectory([[even, even], [uneven, uneven]], rows)


def signed_zero_rows_trajectory(rows):
    """Two rows equal by value that differ only in -0.0 against 0.0, at the centre and off it."""
    u = even_row([0.0, 0.1 + 0.2, 1.0 / 3.0, 0.0])
    v = u.copy()
    v[3] = -0.0
    w = u.copy()
    w[0] = -0.0
    assert_mirrored_by_value_only(w)
    assert np.array_equal(u, v) and np.array_equal(u, w) and u.tobytes() != v.tobytes()
    return snapshot_trajectory([[u, v], [u, w]], rows)


@pytest.mark.parametrize("make", [
    awkward_trajectory, solved_trajectory, solved_even_trajectory, even_odd_n_trajectory,
    ulp_off_tail_trajectory, signed_zero_mirror_trajectory, nonfinite_mirror_trajectory,
    even_n_trajectory, equal_rows_trajectory, signed_zero_rows_trajectory,
])
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
    pair = PowerPair(2, 2)
    ic = Field(g, np.ones(11))
    traj = solve(ic, ic, pair, config(), [0.005, 0.01])
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
    with pytest.raises(ValueError):
        SolverConfig(bc=NEU, t_start=0.0, dt_init=1e-6, dt_min=1e-3)


@pytest.mark.parametrize("key, value", [
    ("t_start", math.nan), ("t_start", math.inf), ("dt_init", math.nan),
    ("dt_init", math.inf), ("dt_min", math.nan), ("tol_step", math.nan),
    ("tol_step", math.inf),
])
def test_config_rejects_non_finite_values(key, value):
    # dt_init = nan used to make a solve loop forever; that solve is not run here
    with pytest.raises(ValueError):
        SolverConfig(**{"bc": NEU, "t_start": 0.0, key: value})


@pytest.mark.parametrize("t_out", [math.nan, math.inf])
def test_non_finite_output_time_rejected(t_out):
    # used to return the initial data after 0 steps, labelled as t_out
    ic = Field(interval_grid(11), np.ones(11))
    with pytest.raises(ValueError, match="output times must be finite"):
        heat_solve(ic, config(), [t_out])


def test_output_times_below_1e_13_are_reached():
    # the end-of-interval slack is 1e-13 t_out; an absolute 1e-13 below t = 1
    # skipped these output times and returned the initial data at them
    g = interval_grid(41)
    ic = bump_function(g, 0.0, 0.3)
    times = [5e-14, 1e-13, 1e-12]
    cfg = config(dt_init=1e-15, dt_min=1e-18)
    traj = solve(ic, ic, PowerPair(2, 3), cfg, times)
    ends = np.array([rec.t for rec in traj.steps])
    for t_out, snapshot in zip(times, traj.values):
        assert np.min(np.abs(ends - t_out)) <= 1e-13 * t_out
        assert not np.array_equal(snapshot[0], ic.values)


def _unit_field():
    return Field(interval_grid(11), np.ones(11))


def _heat_run():
    return heat_solve(_unit_field(), config(), [0.05, 0.1])


def _probe(shape, dt_probe):
    return residual_of(lambda t: np.ones(shape), interval_grid(11), PowerPair(2, 2),
                       NEU, 1.0, dt_probe)


INPUT_CHECKS = {
    "no-output-times": (lambda: heat_solve(_unit_field(), config(), []),
                        "need at least one output time"),
    "falling-output-times": (lambda: solve(_unit_field(), _unit_field(), PowerPair(2, 2),
                                           config(), [0.2, 0.1]),
                             "strictly increasing"),
    "dt-probe-zero": (lambda: _probe((2, 11), 0.0), "dt_probe must be positive"),
    "dt-probe-negative": (lambda: _probe((2, 11), -1e-3), "dt_probe must be positive"),
    "probe-one-row": (lambda: _probe((1, 11), 1e-3), r"not \(2, 11\)"),
    "probe-other-grid": (lambda: _probe((2, 12), 1e-3), r"not \(2, 11\)"),
    # every argument check is written so that nan fails it
    "exponents-nan": (lambda: PowerPair(math.nan, math.nan),
                      "exponents must be positive"),
    "dt-probe-nan": (lambda: _probe((2, 11), math.nan), "dt_probe must be positive"),
    "flat-t-nan": (lambda: eval_flat(PowerPair(2, 2), math.nan), "defined for t > 0"),
    "theta-nan": (lambda: wellposedness(PowerPair(2, 2), 1, math.nan, 1.0),
                  "integrability orders must be >= 1"),
    "lam-nan": (lambda: wellposedness(PowerPair(2, 2), 1, 1.0, math.nan),
                "integrability orders must be >= 1"),
    "cylinder-power-nan": (lambda: cylinder_integral(_heat_run(), math.nan, 0, (-0.5, 0.5),
                                                     (0.05, 0.1)),
                           "power must be positive"),
    "mean-value-power-nan": (lambda: mean_value_check(_heat_run(), math.nan, (0.0, 0.1), 0.2,
                                                      [0.1]),
                             "averaging power must be positive"),
    "mean-value-rho-nan": (lambda: mean_value_check(_heat_run(), 1.0, (0.0, 0.1), math.nan,
                                                    [0.1]),
                           "cylinder radius must be positive"),
    "bump-width-nan": (lambda: bump_function(interval_grid(11), 0.0, math.nan),
                       "width must be positive"),
}


@pytest.mark.parametrize("call, message", INPUT_CHECKS.values(), ids=INPUT_CHECKS.keys())
def test_input_check_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_solver_config_holds_only_what_every_solve_reads():
    names = [f.name for f in dataclasses.fields(SolverConfig)]
    assert names == ["bc", "t_start", "dt_init", "dt_min", "tol_step"]
