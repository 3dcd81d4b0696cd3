"""Declarative experiment runner.

A config is flat key-value text, one experiment per file::

    experiment = flat_validation
    p = 2
    q = 2
    seed = 7
    # axes for the `sweep` entry point use a sweep. prefix
    sweep.m = 10, 100, 1000, 10000

Each recipe fills documented defaults, runs the solver/diagnostics stack,
and produces a RunRecord whose parameter echo contains every value that
affects the numerics.  Records serialize to JSON or self-describing CSV;
trajectories and step logs go to dedicated CSV files next to the record.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import closed_forms as cf
from . import diagnostics as dg
from .discretization import (
    BoundaryCondition,
    DomainKind,
    Field,
    Grid,
    SpatialDomain,
    build_grid,
    bump_function,
    integrate_field,
)
from .evolution import (
    NumericsError,
    SolverConfig,
    Trajectory,
    _WORK,
    _output_times,
    heat_solve,
    residual_of,
    solve,
    steps_to_csv,
    trajectory_to_csv,
)

VERSION = "0.1.0"

__all__ = [
    "VERSION",
    "ConfigError",
    "ExperimentSpec",
    "RunRecord",
    "RECIPE_NAMES",
    "parse_config",
    "run_experiment",
    "sweep",
    "write_records",
]


class ConfigError(ValueError):
    """Malformed or invalid experiment configuration."""


_REQUIRED = object()


@dataclass(frozen=True)
class _Param:
    kind: str  # "int" | "float" | "str" | "float_list"
    default: object = _REQUIRED
    check: Callable[[object], bool] | None = None
    message: str = ""


def _positive(x) -> bool:
    return x > 0


def _distinct_positives(count: int) -> Callable[[list], bool]:
    return lambda xs: len(set(xs)) == len(xs) >= count and min(xs) > 0


_BC_NAMES = ("neumann_zero", "dirichlet_zero")
# 1,250 times the largest default grid; NumPy refuses a grid past its array limit
_MAX_NODES = 10**6

# keys that several recipes read, each declared once; see `_schema`
_SHARED: dict[str, _Param] = {
    "p": _Param("float", _REQUIRED, _positive, "p must be > 0"),
    "q": _Param("float", _REQUIRED, _positive, "q must be > 0"),
    "nodes": _Param("int", 401, lambda x: 3 <= x <= _MAX_NODES,
                    f"nodes must lie in [3, {_MAX_NODES}]"),
    "extent": _Param("float", 1.0, _positive, "extent must be > 0"),
    "bc": _Param("str", "neumann_zero", lambda s: s in _BC_NAMES,
                 f"bc must be one of {_BC_NAMES}"),
    "t_start": _Param("float", 0.1, _positive, "t_start must be > 0"),
    "t_end": _Param("float", 1.0, _positive, "t_end must be > 0"),
    "dt_init": _Param("float", 1e-4, _positive, "dt_init must be > 0"),
    "dt_min": _Param("float", 1e-12, _positive, "dt_min must be > 0"),
    "tol_step": _Param("float", 1e-6, _positive, "tol_step must be > 0"),
    "t_probe": _Param("float", 0.1, _positive, "t_probe must be > 0"),
    "ic_width": _Param("float", 0.3, _positive, "ic_width must be > 0"),
    "ic_mass": _Param("float", 1.0, _positive, "ic_mass must be > 0"),
}
_SOLVER = ("dt_init", "dt_min", "tol_step")  # read by `_solver_config`, with bc if set
# `run_experiment` reads p, q, nodes and extent; a schema with p runs the coupled system
_COUPLED = ("p", "q", "nodes", "extent", "bc", *_SOLVER)
# the flat solution is exact only between zero-flux walls: its recipes run neumann_zero
_FLAT = ("p", "q", "nodes", "extent", *_SOLVER, "t_start", "t_end")

# A rule is a check across keys of the resolved config, with the message of
# the ConfigError its failure raises.  A check fails by returning a false value
# or by raising ValueError, whose reason the message then carries.
_Rule = tuple[Callable[[dict], bool], str]

# (keys, check, message): every recipe whose schema has the keys gets the rule
_SHARED_RULES = (
    (("p", "q"), lambda c: c["p"] * c["q"] != 1.0, "pq = 1 is excluded"),
    (("t_start", "t_end"), lambda c: c["t_end"] > c["t_start"], "t_end must exceed t_start"),
    (("dt_init", "dt_min"), lambda c: c["dt_min"] <= c["dt_init"],
     "dt_min must not exceed dt_init"),
)


def _grid(c: dict) -> Grid:
    """The interval grid every recipe runs on."""
    return build_grid(SpatialDomain(DomainKind.INTERVAL, c["extent"], 1), c["nodes"])


def _holds_two(times: np.ndarray, lo: float, hi: float) -> bool:
    """[lo, hi] holds at least 2 of the output times, as the diagnostics count."""
    return dg._within(times, lo, hi).size >= 2


def _region_nodes(c: dict, lo: float, hi: float) -> int:
    """The count of grid nodes the diagnostics take for [lo, hi], or their ValueError."""
    return dg._region_indices(_grid(c), (lo, hi)).size


def _bumps_fit(c: dict, *supports: tuple[float, float]) -> bool:
    """`bump_function` accepts a bump of each (center, width) on the recipe's grid, or
    raises the ValueError of the first it refuses."""
    grid = _grid(c)
    for center, width in supports:
        bump_function(grid, center, width)
    return True


def _schema(*shared: str, **own) -> dict[str, _Param]:
    """The named shared keys, then `own`: a `_Param` there declares a recipe's own key,
    a plain value takes the shared key of that name with that default."""
    schema = {key: _SHARED[key] for key in shared}
    for key, value in own.items():
        schema[key] = value if isinstance(value, _Param) else dataclasses.replace(
            _SHARED[key], default=value)
    return schema


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    parameters: dict
    seed: int = 0
    sweep_axes: dict = field(default_factory=dict)


@dataclass
class RunRecord:
    name: str
    runid: str
    seed: int
    params: dict
    outcome: dict
    failed: bool = False
    error: str | None = None
    wall_time_s: float = 0.0
    version: str = VERSION
    solver: dict = field(default_factory=dict)  # the run's share of `evolution._WORK`


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_value(text: str):
    if "," in text:
        return [_parse_scalar(part) for part in text.split(",")]
    return _parse_scalar(text)


def _coerce(key: str, value, param: _Param, at: str):
    """`value` as the kind `param` declares, checked; `at` prefixes messages."""
    def fail(expected):
        raise ConfigError(f"{at}key '{key}': expected {expected}, got {value!r}")

    def number(x, kinds=(int, float)) -> bool:
        return isinstance(x, kinds) and not isinstance(x, bool)  # True is an int to Python

    def finite(x) -> float:
        if not abs(x) <= sys.float_info.max:  # inf, nan, or an int past the float range
            fail("a finite number")
        return float(x)

    if isinstance(value, np.integer):  # as a NumPy float passes for a float
        value = int(value)
    if param.kind == "int":
        if not number(value, int):
            fail("an integer")
        out = value
    elif param.kind == "float":
        if not number(value):
            fail("a number")
        out = finite(value)
    elif param.kind == "str":
        if not isinstance(value, str):
            fail("a name")
        out = value
    elif param.kind == "float_list":
        items = value if isinstance(value, list) else [value]
        if not all(number(v, (int, float, np.integer)) for v in items):
            fail("a comma-separated list of numbers")
        out = [finite(v) for v in items]
    else:  # pragma: no cover - schema bug
        raise AssertionError(param.kind)
    if param.check is not None and not param.check(out):
        raise ConfigError(f"{at}key '{key}': {param.message}")
    return out


def _at(line: int | None) -> str:
    return f"line {line}: " if line is not None else ""


def parse_config(text: str) -> ExperimentSpec:
    """Parse a flat key-value experiment document; `_resolve` validates it.

    Swept values stay as written: each sweep point resolves its own, so a bad
    value fails its point and not the sweep.
    """
    entries: dict[str, tuple[object, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, value = line.partition(sep)
                break
        else:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in entries:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        entries[key] = (_parse_value(value), line_no)

    if "experiment" not in entries:
        raise ConfigError("missing required key 'experiment'")
    name = entries["experiment"][0]

    seed = 0
    if "seed" in entries:
        value, line = entries.pop("seed")
        if not isinstance(value, int):
            raise ConfigError(f"line {line}: key 'seed': expected an integer, got {value!r}")
        seed = value

    swept = {key: entries.pop(key) for key in list(entries) if key.startswith("sweep.")}
    lines = {key: line for key, (_, line) in entries.items()}
    params = {key: value for key, (value, _) in entries.items() if key != "experiment"}
    resolved = _resolve(name, params, lines)

    schema = _RECIPES[name].schema
    axes: dict = {}
    for key, (value, line) in swept.items():
        axis = key[len("sweep."):]
        if axis not in schema:
            raise ConfigError(f"line {line}: unknown sweep axis '{axis}' for {name}")
        if schema[axis].kind == "float_list":
            raise ConfigError(f"line {line}: cannot sweep over list parameter '{axis}'")
        axes[axis] = value if isinstance(value, list) else [value]
    return ExperimentSpec(name=name, parameters=resolved, seed=seed, sweep_axes=axes)


def _resolve(name, params: dict, lines: dict[str, int] | None = None) -> dict:
    """Fill defaults and check every key and rule of a recipe.

    The one place that decides whether a config is valid; `lines` maps keys
    (and "experiment") to config-file line numbers for the messages.
    """
    lines = lines or {}
    recipe = _RECIPES.get(name) if isinstance(name, str) else None
    if recipe is None:
        raise ConfigError(
            f"{_at(lines.get('experiment'))}unknown experiment '{name}'; "
            f"known recipes: {', '.join(RECIPE_NAMES)}"
        )
    schema = recipe.schema
    for key in params:
        if key not in schema:
            raise ConfigError(f"{_at(lines.get(key))}unknown key '{key}' for recipe {name}")
    resolved = {}
    for key, param in schema.items():
        if key in params:
            value = _coerce(key, params[key], param, _at(lines.get(key)))
        elif param.default is _REQUIRED:
            raise ConfigError(f"recipe {name}: missing required key '{key}'")
        else:
            value = param.default
        resolved[key] = value
    shared = [(check, message) for keys, check, message in _SHARED_RULES
              if set(keys) <= schema.keys()]
    for check, message in (*shared, *recipe.rules):
        try:
            ok = check(resolved)
        except ValueError as exc:
            raise ConfigError(f"{message} ({exc})") from None
        if not ok:
            raise ConfigError(message)
    return resolved


# ---------------------------------------------------------------------------
# recipe implementations


def _solver_config(params: dict, t_start: float) -> SolverConfig:
    return SolverConfig(
        bc=BoundaryCondition(params["bc"] if "bc" in params else "neumann_zero"),
        t_start=t_start,
        dt_init=params["dt_init"],
        dt_min=params["dt_min"],
        tol_step=params["tol_step"],
    )


def _flat_state(grid: Grid, pair, t: float) -> np.ndarray:
    """The flat solution at t as a (2, n) state."""
    return np.full((2, grid.nodes), np.array(cf.eval_flat(pair, t))[:, None])


def _flat_times(params: dict) -> np.ndarray:
    """flat_validation's and blowup_fit's output times: n_snapshots geometrically
    spaced from 1.02 t_start to t_end."""
    return np.geomspace(params["t_start"] * 1.02, params["t_end"], params["n_snapshots"])


def _flat_tracked(pair, grid: Grid, params: dict, times) -> Trajectory:
    """The coupled solve from the flat solution at t_start to the output times."""
    t0 = params["t_start"]
    ic_u, ic_v = (Field(grid, row) for row in _flat_state(grid, pair, t0))
    return solve(ic_u, ic_v, pair, _solver_config(params, t0), times)


def _run_flat_validation(params: dict, pair, grid: Grid) -> tuple[dict, Trajectory | None]:
    consts = cf.flat_constants(pair)
    traj = _flat_tracked(pair, grid, params, _flat_times(params))
    exact = np.array([cf.eval_flat(pair, t) for t in traj.times.tolist()])
    err = (np.abs(traj.values - exact[:, :, None]).max(axis=2) / exact).max(axis=0)
    outcome = {
        "max_rel_err_u": float(err[0]),
        "max_rel_err_v": float(err[1]),
        "a_star": consts.a_star,
        "b_star": consts.b_star,
    }
    return outcome, traj


def _spatial_grids(params: dict) -> list[Grid]:
    """convergence_order's spatial ladder: one grid per node_list entry."""
    return [_grid({"extent": params["extent"], "nodes": int(n)}) for n in params["node_list"]]


def _far_interior(grid: Grid, radius: float) -> np.ndarray:
    """Indices of the interior nodes with |x| >= radius, as the diagnostics count,
    where convergence_order measures the spatial residual away from the singularity at 0."""
    idx = dg._within(np.abs(grid.coords), radius, math.inf)
    return idx[(idx > 0) & (idx < grid.nodes - 1)]


def _clear_of_origin(grid: Grid, radius: float) -> bool:
    """`_far_interior` keeps neither the node at x = 0, the middle one of an odd grid,
    nor a neighbour whose stencil reads it: `cf.eval_elliptic` floors |x| there, so
    the profile is a huge finite stand-in and the residual is meaningless."""
    return grid.nodes % 2 == 0 or bool(
        np.all(np.abs(_far_interior(grid, radius) - grid.nodes // 2) > 1))


def _fit_slope(xs, errs, name: str) -> float:
    """Slope of log(errs) against log(xs).  A residual that is 0.0, as when all of
    them underflow, or that is not finite has no logarithm: that is a failed run."""
    if not all(0.0 < e < math.inf for e in errs):
        raise ValueError(f"{name} {list(errs)} must all be finite and > 0 to fit an order")
    return dg._fit_line(np.log(xs), np.log(errs))[0]


def _run_convergence_order(params: dict, pair, grid: None) -> tuple[dict, Trajectory | None]:
    # L of a flat state is 0 on any grid under zero-flux walls; the mask keeps interior rows only
    bc = BoundaryCondition.NEUMANN_ZERO
    grids = _spatial_grids(params)
    coarse = min(grids, key=lambda g: g.nodes)
    dt_list = params["dt_list"]
    flat = lambda t: _flat_state(coarse, pair, t)
    temporal_errs = [float(np.abs(residual_of(flat, coarse, pair, bc, params["t_ref"], dt)).max())
                     for dt in dt_list]
    temporal_order = _fit_slope(dt_list, temporal_errs, "temporal_residuals")

    ell = cf.elliptic_constants(pair, 1)
    hs, spatial_errs = [], []
    for g in grids:
        w = np.stack(cf.eval_elliptic(pair, ell, g.coords))
        r = residual_of(lambda t: w, g, pair, bc, 1.0, 1e-3)
        spatial_errs.append(float(np.abs(r[:, _far_interior(g, params["mask_radius"])]).max()))
        hs.append(g.h)
    spatial_order = _fit_slope(hs, spatial_errs, "spatial_residuals")

    outcome = {
        "temporal_order": temporal_order,
        "spatial_order": spatial_order,
        "dt_list": list(dt_list),
        "temporal_residuals": temporal_errs,
        "node_list": [g.nodes for g in grids],
        "spatial_residuals": spatial_errs,
    }
    return outcome, None


def _run_blowup_fit(params: dict, pair, grid: Grid) -> tuple[dict, Trajectory | None]:
    traj = _flat_tracked(pair, grid, params, _flat_times(params))
    center = int(np.argmin(np.abs(grid.coords)))
    window = (params["t_start"], params["t_end"])
    fit_u, fit_v = (dg.fit_power_law(zip(traj.times, traj.values[:, row, center]), window)
                    for row in (0, 1))
    outcome = {
        "exponent_u": fit_u.exponent,
        "exponent_v": fit_v.exponent,
        "target_u": -pair.a,
        "target_v": -pair.b,
        "rel_err_u": abs(fit_u.exponent + pair.a) / pair.a,
        "rel_err_v": abs(fit_v.exponent + pair.b) / pair.b,
        "amplitude_u": fit_u.amplitude,
        "amplitude_v": fit_v.amplitude,
        "rms_u": fit_u.rms_residual,
        "rms_v": fit_v.rms_residual,
    }
    return outcome, traj


def _saturation_times(params: dict) -> np.ndarray:
    """estimate_saturation's output times: n_snapshots geometrically spaced from
    t_probe/32 to t_probe."""
    return np.geomspace(params["t_probe"] / 32.0, params["t_probe"], params["n_snapshots"])


def _run_estimate_saturation(params: dict, pair, grid: Grid) -> tuple[dict, Trajectory | None]:
    m = params["m"]
    ic = Field(grid, np.full(grid.nodes, m))
    t_probe = params["t_probe"]
    traj = solve(ic, ic, pair, _solver_config(params, 0.0), _saturation_times(params))
    margin = params["margin_frac"] * params["extent"]
    report = dg.check_upper_estimate(traj, pair, margin)
    consts = cf.flat_constants(pair)
    outcome = {
        "m": m,
        "t_probe": t_probe,
        "monitor_u": report.sup_u_t_a,
        "monitor_v": report.sup_v_t_b,
        "a_star": consts.a_star,
        "b_star": consts.b_star,
    }
    return outcome, traj


def _trace_times(params: dict) -> np.ndarray:
    """trace_measurement's output times: n_snapshots geometrically spaced from t_min
    to t_end."""
    return np.geomspace(params["t_min"], params["t_end"], params["n_snapshots"])


def _run_trace_measurement(params: dict, pair, grid: Grid) -> tuple[dict, Trajectory | None]:
    ic = Field(grid, bump_function(grid, 0.0, params["ic_width"]).values * params["ic_mass"])
    psi = bump_function(grid, params["psi_center"], params["psi_width"])
    traj = solve(ic, ic, pair, _solver_config(params, 0.0), _trace_times(params))
    trace_u, trace_v = dg.trace_functional(traj, psi).T.tolist()
    target = integrate_field(ic, psi)  # u and v start from the same data
    if target == 0.0:
        raise ValueError("psi and the initial bump overlap on no grid node; refine the grid")
    outcome = {
        "times": traj.times.tolist(),
        "trace_u": trace_u,
        "trace_v": trace_v,
        "target_u": target,
        "target_v": target,
        "earliest_gap_u": abs(trace_u[0] - target) / abs(target),
        "earliest_gap_v": abs(trace_v[0] - target) / abs(target),
    }
    return outcome, traj


def _dichotomy_times(params: dict) -> list[float]:
    """dichotomy_probe's output times: the windows, t_end, and 60 geometrically
    spaced from a quarter of the smallest window to t_end."""
    t_end = params["t_end"]
    ladder = list(np.geomspace(min(params["windows"]) / 4.0, t_end, 60))
    return sorted(set(ladder) | set(params["windows"]) | {t_end})


def _run_dichotomy_probe(params: dict, pair, grid: Grid) -> tuple[dict, Trajectory | None]:
    ic = Field(grid, bump_function(grid, 0.0, params["ic_width"]).values * params["ic_mass"])
    t_end = params["t_end"]
    windows = sorted(params["windows"], reverse=True)  # shrinking lower edges
    traj = solve(ic, ic, pair, _solver_config(params, 0.0), _dichotomy_times(params))
    region = (params["region_lo"], params["region_hi"])
    uq = [dg.cylinder_integral(traj, pair.q, 0, region, (w, t_end)) for w in windows]
    vp = [dg.cylinder_integral(traj, pair.p, 1, region, (w, t_end)) for w in windows]
    masses = dg.mass_in_region(traj, region, windows)
    verdict = dg.dichotomy_classify(
        uq, vp, masses,
        growth_ratio=params["growth_ratio"],
        saturation_tol=params["saturation_tol"],
    )
    outcome = {
        "verdict": verdict.kind,
        "uq_trend": verdict.uq_trend,
        "vp_trend": verdict.vp_trend,
        "mass_trend": verdict.mass_trend,
        "windows": windows,
        "uq_integrals": uq,
        "vp_integrals": vp,
        "masses": masses,
    }
    return outcome, traj


def _probe_times(params: dict) -> list[float]:
    """removability_sweep's output times: t_probe/4, t_probe/2 and t_probe."""
    t_probe = params["t_probe"]
    return [t_probe / 4.0, t_probe / 2.0, t_probe]


def _run_removability_sweep(params: dict, pair, grid: Grid) -> tuple[dict, Trajectory | None]:
    config = _solver_config(params, 0.0)
    times = _probe_times(params)
    masses = []
    last_traj = None
    for eps in params["eps_list"]:
        ic = bump_function(grid, 0.0, eps)
        traj = solve(ic, ic, pair, config, times)
        masses.append(integrate_field(Field(grid, traj.values[-1, 0])))
        last_traj = traj
    last_first = masses[-1] / masses[0]
    last_two_gap = abs(masses[-1] - masses[-2]) / masses[-2]
    if last_first < params["collapse_ratio"]:
        verdict = "collapsing"
    elif last_two_gap <= params["converge_tol"]:
        verdict = "converging"
    else:
        verdict = "mixed"
    outcome = {
        "eps_list": list(params["eps_list"]),
        "masses": masses,
        "last_first_ratio": last_first,
        "last_two_gap": last_two_gap,
        "verdict": verdict,
        "t_probe": params["t_probe"],
    }
    return outcome, last_traj


def _subsolution_times(params: dict) -> np.ndarray:
    """subsolution_check's output times: n_snapshots evenly spaced after t_start."""
    t0, t1, n = params["t_start"], params["t_end"], params["n_snapshots"]
    return np.linspace(t0 + (t1 - t0) / n, t1, n)


def _run_subsolution_check(params: dict, pair, grid: Grid) -> tuple[dict, Trajectory | None]:
    traj = _flat_tracked(pair, grid, params, _subsolution_times(params))
    report = dg.check_f_subsolution(traj, pair)
    bound = report.k**pair.q
    outcome = {
        "max_violation": report.max_violation,
        "d": report.d,
        "c": report.c,
        "k": report.k,
        "k_pow_q": bound,
        "violation_over_bound": report.max_violation / bound,
    }
    return outcome, traj


def _kernel_times(params: dict) -> np.ndarray:
    """mean_value_check's output times: n_snapshots evenly spaced after kernel_time."""
    s0, t_end, n = params["kernel_time"], params["t_end"], params["n_snapshots"]
    return np.linspace(s0 + (t_end - s0) / n, t_end, n)


def _innermost(params: dict) -> float:
    """The smallest radius `dg.mean_value_check` samples; its ball and its window lie
    inside those of every larger radius, so they hold the fewest nodes and snapshots."""
    return params["rho"] * (1.0 - max(params["epsilons"]))


def _run_mean_value_check(params: dict, pair, grid: Grid) -> tuple[dict, Trajectory | None]:
    s0 = params["kernel_time"]
    kernel = np.exp(-grid.coords**2 / (4.0 * s0)) / math.sqrt(4.0 * math.pi * s0)
    ic = Field(grid, kernel)
    traj = heat_solve(ic, _solver_config(params, s0), _kernel_times(params))
    epsilons = sorted(params["epsilons"])
    ratios = dg.mean_value_check(
        traj, params["s"], (params["center_x"], params["center_t"]),
        params["rho"], epsilons,
    )
    weight_exp = 3.0 / params["s"] ** 2  # (N + 2)/s^2 with N = 1
    weighted = [r * e**weight_exp for e, r in ratios]
    bound = weighted[-1]  # constant extracted at the coarsest epsilon
    monotone = all(r1 >= r2 for (_, r1), (_, r2) in zip(ratios, ratios[1:]))
    outcome = {
        "epsilons": [e for e, _ in ratios],
        "ratios": [r for _, r in ratios],
        "weighted": weighted,
        "bound_constant": bound,
        "monotone_ok": monotone,
        "bounded_ok": all(w <= bound * (1 + 1e-12) for w in weighted),
    }
    return outcome, traj


@dataclass(frozen=True)
class _Recipe:
    """A recipe as data: its runner, its config schema, and its own rules."""

    run: Callable[[dict, cf.PowerPair | None, Grid | None], tuple[dict, Trajectory | None]]
    schema: dict[str, _Param]
    rules: tuple[_Rule, ...] = ()


_SUPERLINEAR: _Rule = (lambda c: c["p"] * c["q"] > 1.0, "this recipe requires pq > 1")


def _times_rise(times: Callable[[dict], Sequence[float]], start: str | None,
                message: str) -> _Rule:
    """The rule that a recipe's output times, times(c), pass the solver's own check
    from c[start] (from 0 without a key), which returns them, a nonempty list."""
    return (lambda c: _output_times(times(c), c[start] if start else 0.0)), message


_FLAT_TIMES_RISE = _times_rise(_flat_times, "t_start",
                               "t_end must exceed 1.02 t_start, the first output time")


_RECIPES: dict[str, _Recipe] = {
    "flat_validation": _Recipe(_run_flat_validation, _schema(*_FLAT,
        n_snapshots=_Param("int", 16, lambda x: x >= 2, "n_snapshots must be >= 2"),
    ), (_SUPERLINEAR, _FLAT_TIMES_RISE)),
    "convergence_order": _Recipe(_run_convergence_order, _schema("p", "q", "extent",
        t_ref=_Param("float", 1.0, _positive, "t_ref must be > 0"),
        dt_list=_Param("float_list", [1e-2, 5e-3, 2.5e-3], _distinct_positives(2),
                       "dt_list must hold >= 2 distinct values, each > 0"),
        node_list=_Param("float_list", [101, 201, 401],
                         lambda ns: len(set(ns)) == len(ns) >= 2
                         and all(n.is_integer() and 3 <= n <= _MAX_NODES for n in ns),
                         f"node_list must hold >= 2 distinct integers, each in [3, {_MAX_NODES}]"),
        mask_radius=_Param("float", 0.2, _positive, "mask_radius must be > 0"),
    ), (
        _SUPERLINEAR,
        # the temporal probe evaluates the flat solution at t_ref - dt
        (lambda c: max(c["dt_list"]) < c["t_ref"], "dt_list values must be below t_ref"),
        (lambda c: all(_far_interior(g, c["mask_radius"]).size for g in _spatial_grids(c)),
         "mask_radius must leave an interior node with |x| >= mask_radius on every "
         "node_list grid"),
        (lambda c: all(_clear_of_origin(g, c["mask_radius"]) for g in _spatial_grids(c)),
         "mask_radius must keep x = 0 and its neighbours out of the mask on every "
         "node_list grid with a node at 0, where the elliptic profile is singular"),
    )),
    "blowup_fit": _Recipe(_run_blowup_fit, _schema(*_FLAT,
        nodes=201,
        n_snapshots=_Param("int", 24, lambda x: x >= 5, "n_snapshots must be >= 5"),
    ), (_SUPERLINEAR, _FLAT_TIMES_RISE)),
    "estimate_saturation": _Recipe(_run_estimate_saturation, _schema(*_COUPLED,
        m=_Param("float", 1e4, _positive, "m must be > 0"),
        nodes=101,
        t_probe=0.1,
        n_snapshots=_Param("int", 12, lambda x: x >= 2, "n_snapshots must be >= 2"),
        margin_frac=_Param("float", 0.2, lambda x: 0 < x < 0.5,
                           "margin_frac must lie in (0, 0.5)"),
    ), (
        _SUPERLINEAR,
        _times_rise(_saturation_times, None, "t_probe/32 must be > 0 and below t_probe: the "
                    "output times are n_snapshots geometrically spaced between them"),
    )),
    "trace_measurement": _Recipe(_run_trace_measurement, _schema(*_COUPLED,
        ic_width=0.3,
        ic_mass=1.0,
        psi_center=_Param("float", 0.0),
        psi_width=_Param("float", 0.5, _positive, "psi_width must be > 0"),
        t_min=_Param("float", 1e-3, _positive, "t_min must be > 0"),
        t_end=0.05,
        n_snapshots=_Param("int", 10, lambda x: x >= 2, "n_snapshots must be >= 2"),
    ), (
        (lambda c: _bumps_fit(c, (0.0, c["ic_width"]), (c["psi_center"], c["psi_width"])),
         "the initial bump on ±ic_width and psi on psi_center ± psi_width must each lie "
         "inside [-extent, extent] and hold a grid node"),
        (lambda c: abs(c["psi_center"]) < c["ic_width"] + c["psi_width"],
         "psi must overlap the initial bump: |psi_center| < ic_width + psi_width"),
        _times_rise(_trace_times, None, "t_min and t_end must be far enough apart for "
                    "n_snapshots strictly rising output times geometrically spaced between them"),
    )),
    "dichotomy_probe": _Recipe(_run_dichotomy_probe, _schema(*_COUPLED,
        nodes=801,
        t_end=0.5,
        ic_width=0.4,
        ic_mass=1.0,
        windows=_Param("float_list", [1e-3, 2.5e-4, 6.25e-5, 1.5625e-5],
                       _distinct_positives(3),
                       "windows must hold >= 3 distinct values, each > 0"),
        region_lo=_Param("float", -0.5),
        region_hi=_Param("float", 0.5),
        growth_ratio=_Param("float", 10.0, lambda x: x > 1, "growth_ratio must be > 1"),
        saturation_tol=_Param("float", 0.05, _positive, "saturation_tol must be > 0"),
        dt_init=1e-6,
    ), (
        (lambda c: _bumps_fit(c, (0.0, c["ic_width"])),
         "the initial bump on ±ic_width must lie inside [-extent, extent] and hold a grid node"),
        (lambda c: max(c["windows"]) < c["t_end"], "windows must lie strictly inside (0, t_end)"),
        _times_rise(_dichotomy_times, None, "a quarter of the smallest window must be > 0: "
                    "the output times climb geometrically from it to t_end"),
        (lambda c: _region_nodes(c, c["region_lo"], c["region_hi"]),
         "[region_lo, region_hi] must lie in [-extent, extent] and hold at least 2 grid nodes"),
    )),
    "removability_sweep": _Recipe(_run_removability_sweep, _schema(*_COUPLED,
        nodes=801,
        eps_list=_Param("float_list", [0.2, 0.1, 0.05, 0.025], _distinct_positives(2),
                        "eps_list must hold >= 2 distinct values, each > 0"),
        t_probe=0.05,
        collapse_ratio=_Param("float", 0.2, _positive, "collapse_ratio must be > 0"),
        converge_tol=_Param("float", 0.1, _positive, "converge_tol must be > 0"),
        dt_init=1e-6,
        tol_step=1e-5,  # the work-precision rule in notes/decisions.md
    ), (
        (lambda c: _bumps_fit(c, *((0.0, eps) for eps in c["eps_list"])),
         "every eps_list bump on ±eps must lie inside [-extent, extent] and hold a grid node"),
        _times_rise(_probe_times, None,
                    "t_probe/4, t_probe/2 and t_probe, the output times, must be > 0 and rise"),
    )),
    "subsolution_check": _Recipe(_run_subsolution_check, _schema(*_COUPLED, "t_start", "t_end",
        nodes=201,
        n_snapshots=_Param("int", 40, lambda x: x >= 3, "n_snapshots must be >= 3"),
    ), (
        (lambda c: c["q"] > c["p"] > 1, "composite subsolution needs q > p > 1"),
        _times_rise(_subsolution_times, "t_start", "t_end must exceed t_start by enough for "
                    "n_snapshots strictly rising output times after t_start"),
    )),
    "mean_value_check": _Recipe(_run_mean_value_check, _schema("nodes", "extent", "bc", *_SOLVER,
        extent=2.0,
        kernel_time=_Param("float", 0.05, _positive, "kernel_time must be > 0"),
        t_end=0.35,
        center_x=_Param("float", 0.0),
        center_t=_Param("float", 0.3, _positive, "center_t must be > 0"),
        rho=_Param("float", 0.45, _positive, "rho must be > 0"),
        epsilons=_Param("float_list", [0.1, 0.2, 0.4],
                        lambda es: len(es) >= 1 and all(0 < e < 1 for e in es),
                        "epsilons must hold >= 1 value, each in (0, 1)"),
        s=_Param("float", 1.0, _positive, "s must be > 0"),
        n_snapshots=_Param("int", 60, lambda x: x >= 5, "n_snapshots must be >= 5"),
    ), (
        _times_rise(_kernel_times, "kernel_time", "t_end must exceed kernel_time by enough "
                    "for n_snapshots strictly rising output times after kernel_time"),
        (lambda c: _region_nodes(c, c["center_x"] - c["rho"], c["center_x"] + c["rho"]),
         "center_x ± rho must lie inside [-extent, extent] and hold at least 2 grid nodes"),
        (lambda c: dg._time_window(_kernel_times(c), c["center_t"], c["rho"]),
         "[center_t - rho^2, center_t] must lie between the first output time, "
         "kernel_time + (t_end - kernel_time)/n_snapshots, and t_end"),
        (lambda c: _region_nodes(c, c["center_x"] - _innermost(c), c["center_x"] + _innermost(c)),
         "the innermost ball center_x ± rho (1 - max epsilons) must hold at least 2 grid nodes"),
        (lambda c: _holds_two(_kernel_times(c), c["center_t"] - _innermost(c) ** 2, c["center_t"]),
         "[center_t - r^2, center_t] with r = rho (1 - max epsilons) must hold at least 2 "
         "output times"),
    )),
}

RECIPE_NAMES = tuple(_RECIPES)


# ---------------------------------------------------------------------------
# execution and serialization


def run_experiment(
    spec: ExperimentSpec,
    out_dir: str | Path | None = None,
    runid: str | None = None,
) -> RunRecord:
    """Execute one recipe; solver and arithmetic failures are recorded, config errors raised.

    `seed` only labels the run: no recipe draws random numbers.
    """
    params = _resolve(spec.name, spec.parameters)
    runid = runid or f"{spec.name}-s{spec.seed:04d}"
    start, work = time.perf_counter(), dict(_WORK)
    outcome, traj, error = {}, None, None
    try:
        pair = cf.PowerPair(params["p"], params["q"]) if "p" in params else None
        grid = _grid(params) if "nodes" in params else None
        outcome, traj = _RECIPES[spec.name].run(params, pair, grid)
    except (NumericsError, ValueError, ArithmeticError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    record = RunRecord(
        name=spec.name, runid=runid, seed=spec.seed, params=params, outcome=outcome,
        failed=error is not None, error=error, wall_time_s=time.perf_counter() - start,
        solver={key: _WORK[key] - count for key, count in work.items()},
    )
    if out_dir is not None and traj is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        trajectory_to_csv(traj, out / f"trajectory_{runid}.csv")
        steps_to_csv(traj, out / f"steps_{runid}.csv")
    return record


def sweep(
    base: ExperimentSpec,
    grid: dict[str, list] | None = None,
    out_dir: str | Path | None = None,
) -> list[RunRecord]:
    """One run per grid point; per-run seed = base seed + grid index."""
    axes = grid if grid is not None else base.sweep_axes
    names = list(axes)
    points = list(itertools.product(*(axes[n] for n in names)))
    records = []
    for index, point in enumerate(points):
        params = dict(base.parameters)
        params.update(dict(zip(names, point)))
        spec = ExperimentSpec(base.name, params, seed=base.seed + index)
        runid = f"{base.name}-s{base.seed:04d}-g{index:03d}"
        try:
            record = run_experiment(spec, out_dir=out_dir, runid=runid)
        except ConfigError as exc:
            # a bad grid point must not poison its neighbours
            record = RunRecord(base.name, runid, spec.seed, params, outcome={}, failed=True,
                               error=f"ConfigError: {exc}")
        records.append(record)
    return records


def _flatten(record: RunRecord) -> dict:
    flat = {
        "runid": record.runid,
        "name": record.name,
        "seed": record.seed,
        "version": record.version,
        "failed": record.failed,
        "error": record.error or "",
    }
    for prefix, mapping in (("param", record.params), ("out", record.outcome),
                            ("solver", record.solver)):
        for key in sorted(mapping):
            value = mapping[key]
            if isinstance(value, list):
                value = ";".join(repr(v) for v in value)
            flat[f"{prefix}.{key}"] = value
    flat["wall_time_s"] = record.wall_time_s
    return flat


def write_records(records: list[RunRecord], out_dir: str | Path, fmt: str = "csv") -> Path:
    """Write record.csv or record.json; returns the written path.  An unknown
    `fmt` is refused before the directory is made."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format '{fmt}'")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path = out / "record.json"
        payload = [dataclasses.asdict(r) for r in records]
        if len(payload) == 1:
            payload = payload[0]
        # a sweep point that failed its config check keeps the values as given, of any type
        text = json.dumps(payload, indent=2, sort_keys=True, default=repr)
        path.write_text(text + "\n", encoding="utf-8")
        return path
    path = out / "record.csv"
    rows = [_flatten(r) for r in records]
    header = list(dict.fromkeys(key for row in rows for key in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, header, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path
