"""Time integration of the coupled system with positivity preservation.

One step = theta-implicit diffusion (one tridiagonal solve covering all
components along the 1D/radial line, on LU factors computed once per
(theta, dt) and cached) followed by a semi-implicit absorption update of
denominator form,

    u_new = u_half / (1 + dt * v_half**p / max(u_half, floor)),

which keeps components nonnegative without Newton iteration and leaves an
exactly zero component at zero.  The same machinery integrates the scalar
equation U_t - Lap(U) + U^Q = 0 and the pure heat equation, which serve as
oracles for the diagnostics.

Adaptive stepping is plain step doubling: a full step is compared against
two half steps, the step is rejected and dt halved whenever the scaled gap
exceeds the local tolerance, and the half-step composition is what gets
accepted (no extrapolation, so the positivity clamp is never undone).  A
rejected attempt's half step is the retry's full step, so a retry costs two
steps, not three.  dt only halves, doubles or is clipped to an output time,
so a few cached factorisations serve almost every step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .closed_forms import PowerPair
from .discretization import BoundaryCondition, Field, Grid, LaplacianBands, laplacian_apply

__all__ = [
    "SolverConfig",
    "StepRecord",
    "Trajectory",
    "NumericsError",
    "StepSizeUnderflow",
    "solve",
    "heat_solve",
    "scalar_solve",
    "residual_of",
    "trajectory_to_csv",
    "steps_to_csv",
]


class NumericsError(RuntimeError):
    """Base class for runtime integration failures."""


class StepSizeUnderflow(NumericsError):
    """Raised when error control pushes dt below dt_min."""


@dataclass(frozen=True)
class SolverConfig:
    pair: PowerPair | None
    bc: BoundaryCondition
    t_start: float
    t_end: float
    dt_init: float = 1e-4
    dt_min: float = 1e-12
    tol_step: float = 1e-6
    theta_scheme: float = 1.0

    def __post_init__(self):
        if self.t_start < 0:
            raise ValueError(f"t_start must be >= 0, got {self.t_start}")
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")
        if self.dt_init <= 0 or self.dt_min <= 0:
            raise ValueError("time steps must be positive")
        if self.dt_min > self.dt_init:
            raise ValueError("dt_min must not exceed dt_init")
        if self.tol_step <= 0:
            raise ValueError("tol_step must be positive")
        if not 0.5 <= self.theta_scheme <= 1.0:
            raise ValueError("theta_scheme must lie in [0.5, 1]")


@dataclass(frozen=True)
class StepRecord:
    t: float
    dt: float
    retries: int


@dataclass
class Trajectory:
    """Snapshots of one solve: `values[i]` is the (k, n) state at `times[i]`.

    Rows are u, v for `solve` and the one field for `heat_solve` and
    `scalar_solve`; `steps` logs every accepted step.
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    steps: list[StepRecord] = field(default_factory=list)


_FACTOR_CACHE_SIZE = 4  # (theta, dt) factorisations one operator keeps, oldest out first


class _Diffusion(LaplacianBands):
    """Theta-implicit diffusion step on the shared Laplacian bands."""

    def __init__(self, grid: Grid, bc: BoundaryCondition):
        super().__init__(grid, bc)
        self._pinned_at = np.flatnonzero(self.pinned)
        self._factors: dict[tuple[float, float], list] = {}

    def _factor(self, theta: float, dt: float) -> list:
        """LU factors of I - theta dt L, from a small first-in-first-out cache."""
        key = (theta, dt)
        factors = self._factors.get(key)
        if factors is None:
            c = -theta * dt
            *factors, info = dgttrf(c * self.sub[1:], 1.0 + c * self.diag, c * self.sup[:-1])
            if info != 0:
                raise NumericsError(f"tridiagonal factorisation failed: LAPACK gttrf info={info}")
            if len(self._factors) >= _FACTOR_CACHE_SIZE:
                del self._factors[next(iter(self._factors))]
            self._factors[key] = factors
        return factors

    def step(self, w: np.ndarray, theta: float, dt: float) -> np.ndarray:
        """Solve (I - theta dt L) x = (I + (1-theta) dt L) w, pinned nodes -> 0.

        w is one field or a (k, n) stack; every row is a right-hand side of
        one LAPACK gttrs call on the cached factors of I - theta dt L.
        gttrf + gttrs do the same floating-point operations as one gtsv
        call, row interchanges included, so the result equals a gtsv solve
        bit for bit.
        """
        if theta < 1.0:
            rhs = w + (1.0 - theta) * dt * self.apply(w)
        else:
            rhs = w.copy()
        if self._pinned_at.size:
            rhs[..., self._pinned_at] = 0.0
        x, _ = dgttrs(*self._factor(theta, dt), rhs.T, overwrite_b=1)
        # theta < 1 can undershoot slightly; fractional powers need >= 0
        return np.maximum(x, 0.0, out=x).T


_Reaction = Callable[[np.ndarray, float], np.ndarray]
_ABSORPTION_FLOOR = 1e-300  # the floor in the update's max(u, floor)


def _absorb(halves: np.ndarray, rate: np.ndarray, dt: float) -> np.ndarray:
    """halves / (1 + dt * rate / max(halves, floor)), clamped at 0, computed in rate."""
    rate *= dt
    rate /= np.maximum(halves, _ABSORPTION_FLOOR)
    rate += 1.0
    np.divide(halves, rate, out=rate)
    return np.maximum(rate, 0.0, out=rate)


def _system_reaction(pair: PowerPair) -> _Reaction:
    def update(halves, dt):
        rate = np.empty_like(halves)
        np.power(halves[1], pair.p, out=rate[0])  # v**p absorbs u
        np.power(halves[0], pair.q, out=rate[1])  # u**q absorbs v
        return _absorb(halves, rate, dt)

    return update


def _scalar_reaction(big_q: float) -> _Reaction:
    def update(halves, dt):
        return _absorb(halves, np.power(halves, big_q), dt)

    return update


def _advance(
    w: np.ndarray,
    dt: float,
    op: _Diffusion,
    theta: float,
    reaction: _Reaction | None,
) -> np.ndarray:
    halves = op.step(w, theta, dt)
    if reaction is None:
        return halves
    return reaction(halves, dt)


def _stacked(*fields: Field) -> np.ndarray:
    """The fields' values as a (k, n) solver state; rejects bad data."""
    if not all(f.grid.compatible(fields[0].grid) for f in fields):
        raise ValueError("initial fields live on different grids")
    w = np.stack([f.values for f in fields])
    if np.any(w < 0):
        raise ValueError("initial data must be nonnegative")
    if not np.isfinite(w).all():
        raise ValueError("initial data must be finite")
    return w


def _error(a: np.ndarray, b: np.ndarray) -> float:
    """Largest per-row max |a - b| / (1 + max |b|); nan if any row is nan."""
    scale = 1.0 + np.abs(b).max(axis=-1)
    return float((np.abs(a - b).max(axis=-1) / scale).max())


def _integrate(
    fields: Sequence[Field],
    config: SolverConfig,
    output_times: Sequence[float],
    reaction: _Reaction | None,
) -> Trajectory:
    times = [float(t) for t in output_times]
    if not times:
        raise ValueError("need at least one output time")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("output times must be strictly increasing")
    if times[0] <= config.t_start or times[-1] > config.t_end * (1 + 1e-12):
        raise ValueError("output times must lie in (t_start, t_end]")
    state = _stacked(*fields)

    grid = fields[0].grid
    op = _Diffusion(grid, config.bc)
    theta = config.theta_scheme
    tol = config.tol_step
    t = config.t_start
    dt_ctrl = config.dt_init
    values = np.empty((len(times), *state.shape))
    log: list[StepRecord] = []

    for i, t_out in enumerate(times):
        while t < t_out - 1e-13 * max(1.0, abs(t_out)):
            dt_try = min(dt_ctrl, t_out - t)
            retries = 0
            full = _advance(state, dt_try, op, theta, reaction)
            while True:
                half = _advance(state, 0.5 * dt_try, op, theta, reaction)
                two_half = _advance(half, 0.5 * dt_try, op, theta, reaction)
                err = _error(full, two_half)
                # err is nan or inf whenever two_half holds a nan or an inf, so
                # an accepted state is always finite and needs no check
                if np.isfinite(err) and err <= tol:
                    break
                dt_try *= 0.5
                retries += 1
                if dt_try < config.dt_min:
                    raise StepSizeUnderflow(
                        f"dt fell below dt_min={config.dt_min} at t={t:.6g}"
                    )
                # the retry's full step is the rejected half step: same state, same dt
                full = half
            state = two_half
            t += dt_try
            log.append(StepRecord(t, dt_try, retries))
            if retries:
                dt_ctrl = dt_try
            elif err < 0.25 * tol:
                dt_ctrl = max(dt_ctrl, 2.0 * dt_try)
        t = t_out
        values[i] = state

    return Trajectory(grid, np.array(times), values, log)


def solve(
    ic_u: Field,
    ic_v: Field,
    config: SolverConfig,
    output_times: Sequence[float],
) -> Trajectory:
    """Integrate the coupled system from nonnegative initial fields."""
    if config.pair is None:
        raise ValueError("config.pair is required for the coupled system")
    return _integrate([ic_u, ic_v], config, output_times, _system_reaction(config.pair))


def heat_solve(ic: Field, config: SolverConfig, output_times: Sequence[float]) -> Trajectory:
    """Integrate the pure heat equation (absorption removed)."""
    return _integrate([ic], config, output_times, None)


def scalar_solve(
    ic: Field, big_q: float, config: SolverConfig, output_times: Sequence[float]
) -> Trajectory:
    """Integrate the scalar equation U_t - Lap(U) + U^Q = 0."""
    if big_q <= 0:
        raise ValueError(f"Q must be positive, got {big_q}")
    return _integrate([ic], config, output_times, _scalar_reaction(big_q))


def residual_of(
    u_of_t: Callable[[float], Field],
    v_of_t: Callable[[float], Field],
    pair: PowerPair,
    grid: Grid,
    bc: BoundaryCondition,
    t: float,
    dt_probe: float,
) -> tuple[Field, Field]:
    """Discrete residuals of the system on a pair of time-dependent fields.

    r_u = (u(t+dt) - u(t-dt)) / (2 dt) - Lap(u(t)) + v(t)**p and the
    symmetric r_v.  Used to verify exact solutions against the discrete
    operator: Lap is `laplacian_apply`, the bands the solver steps with.
    Zero-flux wall rows use the mirrored ghost; Dirichlet wall rows of Lap
    are zero, because the solver pins those nodes.  Exclude boundary nodes
    when the probed fields do not satisfy the condition of `bc`.
    """
    if dt_probe <= 0:
        raise ValueError("dt_probe must be positive")
    u0, v0 = u_of_t(t), v_of_t(t)
    du = (u_of_t(t + dt_probe).values - u_of_t(t - dt_probe).values) / (2.0 * dt_probe)
    dv = (v_of_t(t + dt_probe).values - v_of_t(t - dt_probe).values) / (2.0 * dt_probe)
    r_u = du - laplacian_apply(u0, bc).values + v0.values**pair.p
    r_v = dv - laplacian_apply(v0, bc).values + u0.values**pair.q
    return Field(grid, r_u), Field(grid, r_v)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Long-format CSV with one row per (snapshot, node); v is empty for one row."""
    coords = list(map(repr, traj.grid.coords.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,node_coordinate,u,v\n")
        for t, snapshot in zip(map(repr, traj.times.tolist()), traj.values):
            columns = [map(repr, row) for row in snapshot.tolist()]
            if len(columns) == 1:
                columns.append(itertools.repeat(""))
            fh.writelines(f"{t},{x},{u},{v}\n" for x, u, v in zip(coords, *columns))


def steps_to_csv(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,dt,retries\n")
        fh.writelines(f"{float(rec.t)!r},{float(rec.dt)!r},{rec.retries}\n" for rec in traj.steps)
