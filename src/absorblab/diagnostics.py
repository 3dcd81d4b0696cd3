"""Quantitative checks on trajectories.

Log-log exponent fitting, weighted trace functionals, space-time cylinder
integrals, the regular/singular trend classifier, the backward-estimate
monitor sup u * t^a, the composite-subsolution residual check, and the
parabolic mean value ratio.  Everything here is a pure function over
trajectories; nothing mutates solver state.  A trajectory's `values` is a
(T, k, n) array, rows u, v for a coupled run and one row for a heat run.
Nodes and snapshots are picked by one rule, `_within` (a space-time
`_cylinder` is both), and the lateral boundary by `_walls`.  Elementwise
arithmetic and maxima run once over the stacked array.  Two things stay per
snapshot so that no output byte moves: each quadrature dots its weights
with one contiguous row (a matrix-vector product, or a dot with a strided
row such as one of a fancy-indexed (T, m) slice, sums in another order),
and the time weights t**a are Python float powers (NumPy's vector pow
differs from Python's in about 5 % of elements).
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


@dataclass(frozen=True)
class DichotomyVerdict:
    """The class of a point and the last/first trends it was read from."""

    kind: str  # "regular" | "singular" | "inconclusive"
    uq_trend: float
    vp_trend: float
    mass_trend: float


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


def _fit_line(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Least-squares line y = slope * x + intercept, as (slope, intercept), from centred
    sums: slope = sum(dx dy) / sum(dx**2) with dx = x - mean(x), dy = y - mean(y), by
    plain NumPy reductions and no BLAS or LAPACK call.  x must hold two distinct
    values, checked on x itself: rounding can leave sum(dx**2) above 0 when it does not."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.min() == x.max():
        raise ValueError(f"a line fit needs two distinct abscissae, got only {float(x[0])!r}")
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = np.sum(dx * (y - y_mean)) / np.sum(dx * dx)
    return float(slope), float(y_mean - slope * x_mean)


def fit_power_law(
    samples: Iterable[tuple[float, float]], window: tuple[float, float]
) -> FitResult:
    """Least-squares line through (log t, log value) inside the window.

    Every time must be positive and finite, in the window or not, so that no
    sample is dropped because its time is nan."""
    t_lo, t_hi = window
    if not t_hi > t_lo:
        raise ValueError(f"empty fit window {window}")
    pts = [(float(t), float(v)) for t, v in samples]
    bad = "power-law fit needs strictly positive, finite samples"
    if not all(0 < t < math.inf for t, _ in pts):  # nan fails it
        raise ValueError(bad)
    pts = [(t, v) for t, v in pts if t_lo <= t <= t_hi]
    if len(pts) < 5:
        raise ValueError(f"need at least 5 samples in the window, got {len(pts)}")
    if not all(0 < v < math.inf for _, v in pts):
        raise ValueError(bad)
    log_t = np.log([t for t, _ in pts])
    log_v = np.log([v for _, v in pts])
    slope, intercept = _fit_line(log_t, log_v)
    resid = log_v - (slope * log_t + intercept)
    return FitResult(
        exponent=slope,
        amplitude=float(np.exp(intercept)),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
    )


def _walls(grid: Grid) -> list[int]:
    """The lateral boundary nodes: both ends of an interval, the rim of a ball."""
    return [-1] if grid.domain.kind is DomainKind.RADIAL_BALL else [0, -1]


def trace_functional(traj: Trajectory, psi: Field) -> np.ndarray:
    """Weighted integrals int w psi of every row w at every snapshot, as a (T, k) array."""
    if not traj.grid.compatible(psi.grid):
        raise ValueError("weight lives on a different grid")
    if np.any(psi.values[_walls(psi.grid)] != 0.0):
        raise ValueError("weight must vanish on the lateral boundary")
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


def _cylinder(
    traj: Trajectory, region: tuple[float, float], t_window: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node indices of `region`, their trapezoid weights, and snapshot indices of `t_window`."""
    idx = _region_indices(traj.grid, region)
    return idx, trapezoid_weights(traj.grid, idx), _window_indices(traj, t_window)


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
    if not power > 0:  # nan fails it
        raise ValueError(f"power must be positive, got {power}")
    idx, weights, snaps = _cylinder(traj, region, t_window)
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
    regular = _saturating(total, saturation_tol) and _saturating(masses, saturation_tol)
    singular = _trend(total) >= growth_ratio and _trend(masses) >= growth_ratio
    if regular and not singular:
        kind = "regular"
    elif singular and not regular:
        kind = "singular"
    else:
        kind = "inconclusive"
    return DichotomyVerdict(kind, _trend(uq_integrals), _trend(vp_integrals), _trend(masses))


def check_upper_estimate(
    traj: Trajectory, pair: PowerPair, interior_margin: float
) -> UpperEstimateReport:
    """Empirical constants sup u * t^a and sup v * t^b over the nodes at least
    `interior_margin` away from the lateral boundary."""
    if not pair.superlinear:
        raise ValueError("backward estimate monitor requires pq > 1")
    if traj.values.shape[1] != 2:
        raise ValueError("monitor needs a coupled trajectory")
    domain = traj.grid.domain
    lo = -domain.extent + interior_margin if domain.kind is DomainKind.INTERVAL else 0.0
    idx = _within(traj.grid.coords, lo, domain.extent - interior_margin)
    if idx.size == 0:
        raise ValueError(f"margin {interior_margin} leaves no interior nodes")
    peaks = traj.values[:, :, idx].max(axis=2)
    scales = [(t**pair.a, t**pair.b) for t in traj.times.tolist()]
    sup_u, sup_v = (peaks * scales).max(axis=0, initial=0.0).tolist()
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
    u, v = traj.values[:, 0], traj.values[:, 1]
    f = (k + u) ** d + v
    h = np.diff(traj.times)[:, None]
    h_m, h_p = h[:-1], h[1:]
    f_t = (
        -h_p / (h_m * (h_m + h_p)) * f[:-2]
        + (h_p - h_m) / (h_m * h_p) * f[1:-1]
        + h_m / (h_p * (h_m + h_p)) * f[2:]
    )
    lap = LaplacianBands(traj.grid, BoundaryCondition.NEUMANN_ZERO).apply(f[1:-1])
    residual = f_t - lap + c * (k + u[1:-1]) ** (d - 1.0) * f[1:-1] ** pair.p - k**pair.q
    worst = np.delete(residual, _walls(traj.grid), axis=1).max(initial=0.0)
    return SubsolutionReport(max_violation=float(worst), d=d, c=c, k=k)


def _time_window(times: Sequence[float], t0: float, rho: float) -> tuple[float, float]:
    """A cylinder's time window [t0 - rho^2, t0]; refused unless `times`, the snapshot
    times, reach over it, as `_within` counts."""
    if t0 - rho**2 < times[0] - _SLACK or t0 > times[-1] + _SLACK:
        raise ValueError("cylinder exceeds the computed time range")
    return (t0 - rho**2, t0)


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
    if not power_s > 0:
        raise ValueError("averaging power must be positive")
    x0, t0 = center
    if not rho > 0:
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

    window = _time_window(caloric.times, t0, rho)
    _, weights, snaps = _cylinder(caloric, ball(rho), window)
    sizes = np.full(snaps.size, float(weights @ np.ones(weights.size)))
    volume = float(np.trapezoid(sizes, caloric.times[snaps]))
    avg = cylinder_integral(caloric, power_s, 0, ball(rho), window) / volume
    denom = avg ** (1.0 / power_s)

    out = []
    for eps in epsilons:
        r_in = rho * (1.0 - eps)
        idx, _, snaps = _cylinder(caloric, ball(r_in), (t0 - r_in**2, t0))
        sup = float(caloric.values[snaps, 0][:, idx].max())
        out.append((float(eps), sup / denom))
    return out
