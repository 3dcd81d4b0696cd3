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
from typing import Callable

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

# keys that several recipes read, each declared once; see `_schema`
_SHARED: dict[str, _Param] = {
    "p": _Param("float", _REQUIRED, _positive, "p must be > 0"),
    "q": _Param("float", _REQUIRED, _positive, "q must be > 0"),
    "nodes": _Param("int", 401, lambda x: x >= 3, "nodes must be >= 3"),
    "extent": _Param("float", 1.0, _positive, "extent must be > 0"),
    "bc": _Param("str", "neumann_zero", lambda s: s in _BC_NAMES,
                 f"bc must be one of {_BC_NAMES}"),
    "t_start": _Param("float", 0.1, _positive, "t_start must be > 0"),
    "t_end": _Param("float", 1.0, _positive, "t_end must be > 0"),
    "dt_init": _Param("float", 1e-4, _positive, "dt_init must be > 0"),
    "dt_min": _Param("float", 1e-12, _positive, "dt_min must be > 0"),
    "tol_step": _Param("float", 1e-6, _positive, "tol_step must be > 0"),
    "theta": _Param("float", 1.0, lambda x: 0.5 <= x <= 1.0, "theta must lie in [0.5, 1]"),
    "t_probe": _Param("float", 0.1, _positive, "t_probe must be > 0"),
    "ic_width": _Param("float", 0.3, _positive, "ic_width must be > 0"),
    "ic_mass": _Param("float", 1.0, _positive, "ic_mass must be > 0"),
}
_SOLVER = ("bc", "dt_init", "dt_min", "tol_step", "theta")  # read by `_solver_config`
# `run_experiment` reads p, q, nodes and extent; a schema with p runs the coupled system
_COUPLED = ("p", "q", "nodes", "extent", *_SOLVER)

# A rule is a check across keys of the resolved config, with the message of
# the ConfigError its failure raises.
_Rule = tuple[Callable[[dict], bool], str]

# (keys, check, message): every recipe whose schema has the keys gets the rule
_SHARED_RULES = (
    (("p", "q"), lambda c: c["p"] * c["q"] != 1.0, "pq = 1 is excluded"),
    (("t_start", "t_end"), lambda c: c["t_end"] > c["t_start"], "t_end must exceed t_start"),
    (("dt_init", "dt_min"), lambda c: c["dt_min"] <= c["dt_init"],
     "dt_min must not exceed dt_init"),
)


def _inside(c: dict, lo: float, hi: float) -> bool:
    """[lo, hi] lies in the recipe's interval [-extent, extent]."""
    return -c["extent"] <= lo and hi <= c["extent"]


def _grid(c: dict) -> Grid:
    """The interval grid every recipe runs on."""
    return build_grid(SpatialDomain(DomainKind.INTERVAL, c["extent"], 1), c["nodes"])


def _holds_two(x: np.ndarray, lo: float, hi: float) -> bool:
    """[lo, hi] holds at least 2 of the nodes or output times x, as the diagnostics count."""
    return dg._within(x, lo, hi).size >= 2


def _bumps_fit(c: dict, *supports: tuple[float, float]) -> bool:
    """`bump_function` accepts a bump of each (center, width) on the recipe's grid.

    Each recipe's rules keep the supports inside [-extent, extent] before this
    one runs, so a refusal means a support holds no node where the bump is nonzero.
    """
    grid = _grid(c)
    try:
        for center, width in supports:
            bump_function(grid, center, width)
    except ValueError:
        return False
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

    def finite(x) -> float:
        if not abs(x) <= sys.float_info.max:  # inf, nan, or an int past the float range
            fail("a finite number")
        return float(x)

    if param.kind == "int":
        if not isinstance(value, int):
            fail("an integer")
        out = value
    elif param.kind == "float":
        if not isinstance(value, (int, float)):
            fail("a number")
        out = finite(value)
    elif param.kind == "str":
        if not isinstance(value, str):
            fail("a name")
        out = value
    elif param.kind == "float_list":
        items = value if isinstance(value, list) else [value]
        if not all(isinstance(v, (int, float)) for v in items):
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
        if not check(resolved):
            raise ConfigError(message)
    return resolved


# ---------------------------------------------------------------------------
# recipe implementations


def _bc(params: dict) -> BoundaryCondition:
    return BoundaryCondition(params["bc"])


def _solver_config(params: dict, t_start: float) -> SolverConfig:
    return SolverConfig(
        bc=_bc(params),
        t_start=t_start,
        dt_init=params["dt_init"],
        dt_min=params["dt_min"],
        tol_step=params["tol_step"],
        theta=params["theta"],
    )


def _flat_fields(grid: Grid, pair, t: float) -> tuple[Field, Field]:
    u, v = cf.eval_flat(pair, t)
    return Field(grid, np.full(grid.nodes, u)), Field(grid, np.full(grid.nodes, v))


def _flat_times(params: dict) -> np.ndarray:
    """flat_validation's and blowup_fit's output times: n_snapshots geometrically
    spaced from 1.02 t_start to t_end."""
    return np.geomspace(params["t_start"] * 1.02, params["t_end"], params["n_snapshots"])


def _flat_tracked(pair, grid: Grid, params: dict, times) -> Trajectory:
    """The coupled solve from the flat solution at t_start to the output times."""
    t0 = params["t_start"]
    ic_u, ic_v = _flat_fields(grid, pair, t0)
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
    return [_grid({**params, "nodes": int(n)}) for n in params["node_list"]]


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


def _fit_slope(xs, errs) -> float:
    slope, _ = np.polyfit(np.log(xs), np.log(errs), 1)
    return float(slope)


def _run_convergence_order(params: dict, pair, grid: Grid) -> tuple[dict, Trajectory | None]:
    bc = _bc(params)
    flat_u = lambda t: _flat_fields(grid, pair, t)[0]
    flat_v = lambda t: _flat_fields(grid, pair, t)[1]
    dt_list = params["dt_list"]
    temporal_errs = []
    for dt in dt_list:
        r_u, r_v = residual_of(flat_u, flat_v, pair, bc, params["t_ref"], dt)
        temporal_errs.append(
            max(float(np.max(np.abs(r_u.values))), float(np.max(np.abs(r_v.values))))
        )
    temporal_order = _fit_slope(dt_list, temporal_errs)

    ell = cf.elliptic_constants(pair, 1)
    grids = _spatial_grids(params)
    hs, spatial_errs = [], []
    for g in grids:
        u_vals, v_vals = cf.eval_elliptic(pair, ell, g.coords)
        fu = Field(g, u_vals)
        fv = Field(g, v_vals)
        r_u, r_v = residual_of(lambda t: fu, lambda t: fv, pair, bc, 1.0, 1e-3)
        far = _far_interior(g, params["mask_radius"])
        spatial_errs.append(
            max(float(np.max(np.abs(r_u.values[far]))), float(np.max(np.abs(r_v.values[far]))))
        )
        hs.append(g.h)
    spatial_order = _fit_slope(hs, spatial_errs)

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


def _run_estimate_saturation(params: dict, pair, grid: Grid) -> tuple[dict, Trajectory | None]:
    m = params["m"]
    ic = Field(grid, np.full(grid.nodes, m))
    t_probe = params["t_probe"]
    times = np.geomspace(t_probe / 32.0, t_probe, params["n_snapshots"])
    traj = solve(ic, ic, pair, _solver_config(params, 0.0), times)
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


def _run_trace_measurement(params: dict, pair, grid: Grid) -> tuple[dict, Trajectory | None]:
    ic = Field(grid, bump_function(grid, 0.0, params["ic_width"]).values * params["ic_mass"])
    psi = bump_function(grid, params["psi_center"], params["psi_width"])
    times = np.geomspace(params["t_min"], params["t_end"], params["n_snapshots"])
    traj = solve(ic, ic, pair, _solver_config(params, 0.0), times)
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


def _run_dichotomy_probe(params: dict, pair, grid: Grid) -> tuple[dict, Trajectory | None]:
    ic = Field(grid, bump_function(grid, 0.0, params["ic_width"]).values * params["ic_mass"])
    t_end = params["t_end"]
    windows = sorted(params["windows"], reverse=True)  # shrinking lower edges
    ladder = list(np.geomspace(windows[-1] / 4.0, t_end, 60))
    times = sorted(set(ladder) | set(windows) | {t_end})
    traj = solve(ic, ic, pair, _solver_config(params, 0.0), times)
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


def _run_removability_sweep(params: dict, pair, grid: Grid) -> tuple[dict, Trajectory | None]:
    t_probe = params["t_probe"]
    config = _solver_config(params, 0.0)
    times = [t_probe / 4.0, t_probe / 2.0, t_probe]
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
        "t_probe": t_probe,
    }
    return outcome, last_traj


def _run_subsolution_check(params: dict, pair, grid: Grid) -> tuple[dict, Trajectory | None]:
    n = params["n_snapshots"]
    t0, t1 = params["t_start"], params["t_end"]
    traj = _flat_tracked(pair, grid, params, np.linspace(t0 + (t1 - t0) / n, t1, n))
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

    run: Callable[[dict, cf.PowerPair | None, Grid], tuple[dict, Trajectory | None]]
    schema: dict[str, _Param]
    rules: tuple[_Rule, ...] = ()


_SUPERLINEAR: _Rule = (lambda c: c["p"] * c["q"] > 1.0, "this recipe requires pq > 1")
_IC_INSIDE: _Rule = (lambda c: c["ic_width"] <= c["extent"], "ic_width must not exceed extent")
_FLAT_TIMES_RISE: _Rule = (lambda c: bool(np.all(np.diff(_flat_times(c)) > 0)),
                           "t_end must exceed 1.02 t_start, the first output time")


_RECIPES: dict[str, _Recipe] = {
    "flat_validation": _Recipe(_run_flat_validation, _schema(*_COUPLED, "t_start", "t_end",
        n_snapshots=_Param("int", 16, lambda x: x >= 2, "n_snapshots must be >= 2"),
    ), (_SUPERLINEAR, _FLAT_TIMES_RISE)),
    "convergence_order": _Recipe(_run_convergence_order, _schema(
        "p", "q", "nodes", "extent", "bc",
        nodes=201,
        t_ref=_Param("float", 1.0, _positive, "t_ref must be > 0"),
        dt_list=_Param("float_list", [1e-2, 5e-3, 2.5e-3], _distinct_positives(2),
                       "dt_list must hold >= 2 distinct values, each > 0"),
        node_list=_Param("float_list", [101, 201, 401],
                         lambda ns: len(set(ns)) == len(ns) >= 2
                         and all(n.is_integer() and n >= 3 for n in ns),
                         "node_list must hold >= 2 distinct integers, each >= 3"),
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
    "blowup_fit": _Recipe(_run_blowup_fit, _schema(*_COUPLED, "t_start", "t_end",
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
    ), (_SUPERLINEAR,)),
    "trace_measurement": _Recipe(_run_trace_measurement, _schema(*_COUPLED,
        ic_width=0.3,
        ic_mass=1.0,
        psi_center=_Param("float", 0.0),
        psi_width=_Param("float", 0.5, _positive, "psi_width must be > 0"),
        t_min=_Param("float", 1e-3, _positive, "t_min must be > 0"),
        t_end=0.05,
        n_snapshots=_Param("int", 10, lambda x: x >= 2, "n_snapshots must be >= 2"),
    ), (
        _IC_INSIDE,
        (lambda c: _inside(c, c["psi_center"] - c["psi_width"], c["psi_center"] + c["psi_width"]),
         "psi_center ± psi_width must lie inside [-extent, extent]"),
        (lambda c: _bumps_fit(c, (0.0, c["ic_width"]), (c["psi_center"], c["psi_width"])),
         "the initial bump on ±ic_width and psi on psi_center ± psi_width must each hold "
         "a grid node"),
        (lambda c: abs(c["psi_center"]) < c["ic_width"] + c["psi_width"],
         "psi must overlap the initial bump: |psi_center| < ic_width + psi_width"),
        (lambda c: c["t_min"] < c["t_end"], "t_min must be below t_end"),
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
        _IC_INSIDE,
        (lambda c: _bumps_fit(c, (0.0, c["ic_width"])),
         "the initial bump on ±ic_width must hold a grid node"),
        (lambda c: max(c["windows"]) < c["t_end"], "windows must lie strictly inside (0, t_end)"),
        (lambda c: c["region_lo"] < c["region_hi"], "region_lo must be below region_hi"),
        (lambda c: _inside(c, c["region_lo"], c["region_hi"]),
         "[region_lo, region_hi] must lie inside [-extent, extent]"),
        (lambda c: _holds_two(_grid(c).coords, c["region_lo"], c["region_hi"]),
         "[region_lo, region_hi] must hold at least 2 grid nodes"),
    )),
    "removability_sweep": _Recipe(_run_removability_sweep, _schema(*_COUPLED,
        nodes=801,
        eps_list=_Param("float_list", [0.2, 0.1, 0.05, 0.025], _distinct_positives(2),
                        "eps_list must hold >= 2 distinct values, each > 0"),
        t_probe=0.05,
        collapse_ratio=_Param("float", 0.2, _positive, "collapse_ratio must be > 0"),
        converge_tol=_Param("float", 0.1, _positive, "converge_tol must be > 0"),
        dt_init=1e-6,
    ), (
        (lambda c: max(c["eps_list"]) <= c["extent"], "eps_list values must not exceed extent"),
        (lambda c: _bumps_fit(c, *((0.0, eps) for eps in c["eps_list"])),
         "every eps_list bump on ±eps must hold a grid node"),
    )),
    "subsolution_check": _Recipe(_run_subsolution_check, _schema(*_COUPLED, "t_start", "t_end",
        nodes=201,
        n_snapshots=_Param("int", 40, lambda x: x >= 3, "n_snapshots must be >= 3"),
    ), (
        (lambda c: c["q"] > c["p"] > 1, "composite subsolution needs q > p > 1"),
    )),
    "mean_value_check": _Recipe(_run_mean_value_check, _schema("nodes", "extent", *_SOLVER,
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
        (lambda c: c["t_end"] > c["kernel_time"], "t_end must exceed kernel_time"),
        (lambda c: _inside(c, c["center_x"] - c["rho"], c["center_x"] + c["rho"]),
         "center_x ± rho must lie inside [-extent, extent]"),
        (lambda c: _kernel_times(c)[0] <= c["center_t"] - c["rho"] ** 2
         and c["center_t"] <= c["t_end"],
         "[center_t - rho^2, center_t] must lie between the first output time, "
         "kernel_time + (t_end - kernel_time)/n_snapshots, and t_end"),
        (lambda c: _holds_two(_grid(c).coords, c["center_x"] - _innermost(c),
                              c["center_x"] + _innermost(c)),
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
    start = time.perf_counter()
    outcome, traj, error = {}, None, None
    try:
        pair = cf.derive_exponents(params["p"], params["q"]) if "p" in params else None
        outcome, traj = _RECIPES[spec.name].run(params, pair, _grid(params))
    except (NumericsError, ValueError, ArithmeticError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    record = RunRecord(
        name=spec.name, runid=runid, seed=spec.seed, params=params, outcome=outcome,
        failed=error is not None, error=error, wall_time_s=time.perf_counter() - start,
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


def _json_ready(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_json_ready(v) for v in value]
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    return value


def _flatten(record: RunRecord) -> dict:
    flat = {
        "runid": record.runid,
        "name": record.name,
        "seed": record.seed,
        "version": record.version,
        "failed": record.failed,
        "error": record.error or "",
    }
    for prefix, mapping in (("param", record.params), ("out", record.outcome)):
        for key in sorted(mapping):
            value = _json_ready(mapping[key])
            if isinstance(value, list):
                value = ";".join(repr(v) for v in value)
            flat[f"{prefix}.{key}"] = value
    flat["wall_time_s"] = record.wall_time_s
    return flat


def write_records(records: list[RunRecord], out_dir: str | Path, fmt: str = "csv") -> Path:
    """Write record.csv or record.json; returns the written path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path = out / "record.json"
        payload = [_json_ready(dataclasses.asdict(r)) for r in records]
        if len(payload) == 1:
            payload = payload[0]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path
    if fmt != "csv":
        raise ConfigError(f"unknown output format '{fmt}'")
    path = out / "record.csv"
    rows = [_flatten(r) for r in records]
    header = list(dict.fromkeys(key for row in rows for key in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, header, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path
