"""Quantitative checks on trajectories.

Log-log exponent fitting, weighted trace functionals, space-time cylinder
integrals, the regular/singular trend classifier, the backward-estimate
monitor sup u * t^a, the composite-subsolution residual check, and the
parabolic mean value ratio.  Everything here is a pure function over
trajectories; nothing mutates solver state.  A trajectory's `values` is a
(T, k, n) array, rows u, v for a coupled run and one row for a heat or
scalar run; every reduction takes one snapshot and one row at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .closed_forms import PowerPair
from .discretization import (
    BoundaryCondition,
    DomainKind,
    Field,
    Grid,
    LaplacianBands,
    trapezoid_weights,
)
from .evolution import Trajectory

__all__ = [
    "FitResult",
    "DichotomyEvidence",
    "DichotomyVerdict",
    "UpperEstimateReport",
    "SubsolutionReport",
    "fit_power_law",
    "trace_functional",
    "cylinder_integral",
    "mass_in_region",
    "dichotomy_classify",
    "check_upper_estimate",
    "subsolution_constants",
    "check_f_subsolution",
    "mean_value_check",
]


@dataclass(frozen=True)
class FitResult:
    exponent: float
    amplitude: float
    rms_residual: float
    window: tuple[float, float]


@dataclass(frozen=True)
class DichotomyEvidence:
    uq_integral_trend: float
    vp_integral_trend: float
    mass_trend: float


@dataclass(frozen=True)
class DichotomyVerdict:
    kind: str  # "regular" | "singular" | "inconclusive"
    evidence: DichotomyEvidence


@dataclass(frozen=True)
class UpperEstimateReport:
    sup_u_t_a: float
    sup_v_t_b: float


@dataclass(frozen=True)
class SubsolutionReport:
    """Worst positive residual plus the constants (d, c, k) that built F."""

    max_violation: float
    d: float
    c: float
    k: float


def fit_power_law(
    samples: Iterable[tuple[float, float]], window: tuple[float, float]
) -> FitResult:
    """Least-squares line through (log t, log value) inside the window."""
    t_lo, t_hi = window
    if not t_hi > t_lo:
        raise ValueError(f"empty fit window {window}")
    pts = [(float(t), float(v)) for t, v in samples if t_lo <= t <= t_hi]
    if len(pts) < 5:
        raise ValueError(f"need at least 5 samples in the window, got {len(pts)}")
    if any(t <= 0 or v <= 0 for t, v in pts):
        raise ValueError("power-law fit needs strictly positive samples")
    log_t = np.log([t for t, _ in pts])
    log_v = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(log_t, log_v, 1)
    resid = log_v - (slope * log_t + intercept)
    return FitResult(
        exponent=float(slope),
        amplitude=float(np.exp(intercept)),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        window=(t_lo, t_hi),
    )


def _check_interior_support(psi: Field) -> None:
    boundary = [-1] if psi.grid.domain.kind is DomainKind.RADIAL_BALL else [0, -1]
    for i in boundary:
        if psi.values[i] != 0.0:
            raise ValueError("weight must vanish on the lateral boundary")


def trace_functional(traj: Trajectory, psi: Field) -> np.ndarray:
    """Weighted integrals int w psi of every row w at every snapshot, as a (T, k) array."""
    if not traj.grid.compatible(psi.grid):
        raise ValueError("weight lives on a different grid")
    _check_interior_support(psi)
    weights = trapezoid_weights(traj.grid)
    return np.array([[weights @ (row * psi.values) for row in snapshot]
                     for snapshot in traj.values])


_SLACK = 1e-12  # a node or a snapshot this close outside a region or window counts as inside


def _within(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Indices of the entries of x in [lo, hi], widened by `_SLACK` at both ends."""
    return np.nonzero((x >= lo - _SLACK) & (x <= hi + _SLACK))[0]


def _region_indices(grid: Grid, region: tuple[float, float]) -> np.ndarray:
    lo, hi = region
    if not hi > lo:
        raise ValueError(f"empty region {region}")
    x = grid.coords
    if lo < x[0] - _SLACK or hi > x[-1] + _SLACK:
        raise ValueError(f"region {region} exceeds the domain")
    idx = _within(x, lo, hi)
    if idx.size < 2:
        raise ValueError(f"region {region} contains fewer than 2 grid nodes")
    return idx


def _window_indices(traj: Trajectory, t_window: tuple[float, float]) -> np.ndarray:
    lo, hi = t_window
    if not hi > lo:
        raise ValueError(f"empty time window {t_window}")
    idx = _within(traj.times, lo, hi)
    if idx.size < 2:
        raise ValueError(f"time window {t_window} contains fewer than 2 snapshots")
    return idx


def cylinder_integral(
    traj: Trajectory,
    power: float,
    row: int,
    region: tuple[float, float],
    t_window: tuple[float, float],
) -> float:
    """Space-time integral of one row (0 for u, 1 for v) raised to a power.

    Trapezoidal in both space (over the grid nodes inside `region`, with the
    radial surface factor where applicable) and time (over the snapshots
    inside `t_window`).
    """
    if power <= 0:
        raise ValueError(f"power must be positive, got {power}")
    idx = _region_indices(traj.grid, region)
    weights = trapezoid_weights(traj.grid, idx)
    snaps = _window_indices(traj, t_window)
    vals = [float(weights @ traj.values[i, row, idx] ** power) for i in snaps]
    return float(np.trapezoid(np.array(vals), traj.times[snaps]))


def mass_in_region(
    traj: Trajectory, region: tuple[float, float], times: Sequence[float]
) -> list[float]:
    """int_region of the sum of the rows (u + v) at the requested snapshot times."""
    idx = _region_indices(traj.grid, region)
    weights = trapezoid_weights(traj.grid, idx)
    out = []
    for t in times:
        hits = _within(traj.times, t, t)
        if hits.size == 0:
            raise ValueError(f"no snapshot at t={t}")
        total = traj.values[hits[0]].sum(axis=0)
        out.append(float(weights @ total[idx]))
    return out


def _trend(seq: Sequence[float]) -> float:
    first = max(float(seq[0]), 1e-300)
    return float(seq[-1]) / first


def _saturating(seq: Sequence[float], tol: float) -> bool:
    for prev, cur in zip(seq, seq[1:]):
        if abs(cur / max(prev, 1e-300) - 1.0) > tol:
            return False
    return True


def dichotomy_classify(
    uq_integrals: Sequence[float],
    vp_integrals: Sequence[float],
    masses: Sequence[float],
    growth_ratio: float = 10.0,
    saturation_tol: float = 0.05,
) -> DichotomyVerdict:
    """Classify a point as regular/singular from shrinking-window trends.

    All three sequences are indexed by nested windows reaching closer and
    closer to t = 0.  Singular requires the u^q + v^p cylinder integral to
    keep growing (last/first >= growth_ratio) AND the local mass of u + v to
    grow the same way; regular requires both to saturate (all successive
    ratios within 1 +/- saturation_tol).  Anything else is inconclusive.
    """
    k = len(uq_integrals)
    if k < 3 or len(vp_integrals) != k or len(masses) != k:
        raise ValueError("need at least 3 nested windows with matching mass samples")
    total = [a + b for a, b in zip(uq_integrals, vp_integrals)]
    evidence = DichotomyEvidence(
        uq_integral_trend=_trend(uq_integrals),
        vp_integral_trend=_trend(vp_integrals),
        mass_trend=_trend(masses),
    )
    regular = _saturating(total, saturation_tol) and _saturating(masses, saturation_tol)
    singular = _trend(total) >= growth_ratio and _trend(masses) >= growth_ratio
    if regular and not singular:
        kind = "regular"
    elif singular and not regular:
        kind = "singular"
    else:
        kind = "inconclusive"
    return DichotomyVerdict(kind=kind, evidence=evidence)


def _interior_mask(grid: Grid, margin: float) -> np.ndarray:
    x = grid.coords
    if grid.domain.kind is DomainKind.INTERVAL:
        ext = grid.domain.extent
        return (x >= -ext + margin) & (x <= ext - margin)
    return x <= grid.domain.extent - margin


def check_upper_estimate(
    traj: Trajectory, pair: PowerPair, interior_margin: float
) -> UpperEstimateReport:
    """Empirical constants sup u * t^a and sup v * t^b over interior nodes."""
    if not pair.superlinear:
        raise ValueError("backward estimate monitor requires pq > 1")
    if traj.values.shape[1] != 2:
        raise ValueError("monitor needs a coupled trajectory")
    mask = _interior_mask(traj.grid, interior_margin)
    if not mask.any():
        raise ValueError(f"margin {interior_margin} leaves no interior nodes")
    sup_u = 0.0
    sup_v = 0.0
    for t, (u, v) in zip(traj.times.tolist(), traj.values):
        sup_u = max(sup_u, float(np.max(u[mask])) * t**pair.a)
        sup_v = max(sup_v, float(np.max(v[mask])) * t**pair.b)
    return UpperEstimateReport(sup_u_t_a=sup_u, sup_v_t_b=sup_v)


def subsolution_constants(pair: PowerPair) -> tuple[float, float, float]:
    """Constants (d, c, k) of the composite subsolution F = (k+u)^d + v."""
    p, q = pair.p, pair.q
    if not q > p > 1:
        raise ValueError(
            "composite subsolution needs q > p > 1 (the constant degenerates at q = p)"
        )
    d = (q + 1.0) / (p + 1.0)
    c = 2.0 ** (1.0 - p) * min(d, 2.0 ** (1.0 - q))
    k = c ** (-1.0 / (d - 1.0))
    return d, c, k


def check_f_subsolution(traj: Trajectory, pair: PowerPair) -> SubsolutionReport:
    """Largest positive part of F_t - Lap(F) + c (k+u)^(d-1) F^p - k^q.

    The field F = (k+u)^d + v built from any solution of the system should
    satisfy the inequality up to discretization error; the time derivative
    is the nonuniform central difference over snapshot triples and the
    Laplacian is evaluated on interior nodes only, so no boundary ghost
    convention enters.
    """
    d, c, k = subsolution_constants(pair)
    if traj.values.shape[1] != 2:
        raise ValueError("subsolution check needs a coupled trajectory")
    if len(traj.times) < 3:
        raise ValueError("need at least 3 snapshots for the time derivative")
    grid = traj.grid
    interior = np.ones(grid.nodes, dtype=bool)
    interior[-1] = False
    if grid.domain.kind is DomainKind.INTERVAL:
        interior[0] = False
    bound = k**pair.q
    lap_bands = LaplacianBands(grid, BoundaryCondition.NEUMANN_ZERO)
    worst = 0.0
    f_vals = [(k + u) ** d + v for u, v in traj.values]
    times = traj.times
    for i in range(1, len(f_vals) - 1):
        h_m = times[i] - times[i - 1]
        h_p = times[i + 1] - times[i]
        f_t = (
            -h_p / (h_m * (h_m + h_p)) * f_vals[i - 1]
            + (h_p - h_m) / (h_m * h_p) * f_vals[i]
            + h_m / (h_p * (h_m + h_p)) * f_vals[i + 1]
        )
        lap = lap_bands.apply(f_vals[i])
        u_mid = traj.values[i, 0]
        residual = f_t - lap + c * (k + u_mid) ** (d - 1.0) * f_vals[i] ** pair.p - bound
        worst = max(worst, float(np.max(residual[interior])))
    return SubsolutionReport(max_violation=max(worst, 0.0), d=d, c=c, k=k)


def mean_value_check(
    caloric: Trajectory,
    power_s: float,
    center: tuple[float, float],
    rho: float,
    epsilons: Sequence[float],
) -> list[tuple[float, float]]:
    """Sup-over-shrunken-cylinder versus cylinder average of a caloric field.

    For each epsilon, returns sup over B(x0, rho(1-eps)) x [t0 - (rho(1-eps))^2, t0]
    divided by (space-time average of w^s over the full cylinder)^(1/s).
    The average is taken with the same discrete quadrature that measures the
    cylinder, so a constant field gives ratio exactly 1.
    """
    if power_s <= 0:
        raise ValueError("averaging power must be positive")
    x0, t0 = center
    if rho <= 0:
        raise ValueError("cylinder radius must be positive")
    grid = caloric.grid
    if grid.domain.kind is DomainKind.RADIAL_BALL and x0 != 0.0:
        raise ValueError("radial cylinders must be centered at the origin")
    for eps in epsilons:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {eps}")

    def ball(radius):
        if grid.domain.kind is DomainKind.RADIAL_BALL:
            return (0.0, radius)
        return (x0 - radius, x0 + radius)

    if t0 - rho**2 < caloric.times[0] - _SLACK or t0 > caloric.times[-1] + _SLACK:
        raise ValueError("cylinder exceeds the computed time range")

    w = caloric.values[:, 0]  # the caloric field, one row per snapshot
    idx = _region_indices(grid, ball(rho))
    weights = trapezoid_weights(grid, idx)
    snaps = _window_indices(caloric, (t0 - rho**2, t0))
    times = caloric.times[snaps]
    powers = np.array([float(weights @ w[i, idx] ** power_s) for i in snaps])
    volumes = np.full(len(snaps), float(weights @ np.ones(weights.size)))
    avg = float(np.trapezoid(powers, times)) / float(np.trapezoid(volumes, times))
    denom = avg ** (1.0 / power_s)

    out = []
    for eps in epsilons:
        r_in = rho * (1.0 - eps)
        idx_in = _region_indices(grid, ball(r_in))
        snaps_in = _window_indices(caloric, (t0 - r_in**2, t0))
        sup = max(float(np.max(w[i, idx_in])) for i in snaps_in)
        out.append((float(eps), sup / denom))
    return out
