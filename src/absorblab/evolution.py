"""Time integration of the coupled system with positivity preservation.

One step of size dt is a Strang splitting, A(dt/2) -> D(dt) -> A(dt/2),
second order in dt.  D is Crank-Nicolson diffusion: one symmetric
tridiagonal solve covering all components along the 1D/radial line, on the
L D L^T factors of V - dt/2 A (L = V^-1 A, discretization.LaplacianBands)
computed once per dt and kept in a small least-recently-used cache, its
result clamped at 0.  The explicit half is never applied: the step is
x = 2 y - w with (V - dt/2 A) y = V w, twice the backward half step minus
w.  V - dt/2 A is symmetric positive definite for every dt > 0, so the
factorisation needs no pivoting.  A(h) is a positive second-order Patankar
update of the absorption (MPRK22 with a geometric mean of the rates) for
every row i absorbed by row s = source:

    d0  = w_s**power                              (the rate at w)
    w1  = w_i / (1 + h * d0 / max(w_i, floor))
    d1  = w1_s**power                             (the rate at w1)
    new = w_i / (1 + h * sqrt(d0) * sqrt(d1) / max(w1_i, floor)).

The geometric mean makes the effective rate k = sqrt(d0 d1) / w1 equal
k0 + h (k0' + k0**2) / 2 + O(h**2), the second-order condition of
1 / (1 + h k), and makes A exact for u' = -u**2 (flat p = q = 2 data);
taken as sqrt(d0) * sqrt(d1), it stays finite whenever both rates are.
A solve gives its absorption as (source, power) per row: ((1, p), (0, q))
for the coupled system, ((0, p),) for it at p = q with u0 = v0 bit for bit
(the scalar equation U_t - Lap(U) + U^p = 0, one row returned as both), and
() for the pure heat equation, an oracle whose step is D alone.  The update
needs no Newton iteration and leaves an exactly zero component at zero.
No clamp follows it: from values >= 0 every intermediate lies in [0, inf]
or is nan, so the quotient is >= 0, inf or nan already.
A cube is x * x * x, two multiplications within an ulp or so of pow, and
NumPy squares at 2.0.  Any other power masks out of np.power the nodes
below 2**(-1100/power), as on the tails of a narrow bump, where pow takes
its slow path: such a node's exact power lies under 2**-1100, 25 binades
below half the least subnormal, so it rounds to 0.0 and the update stays
bit-identical to a plain np.power.  -0.0, negatives and nan always go
through np.power.

A solve allocates its arrays once.  The operator holds, per state shape,
2V at that shape and the buffers the step loop writes: `_advance` writes its
result into a given `out` and its intermediates into the operator's
buffers, an accepted step or a retry swaps buffer references, and h, 1.0,
0.0 and the absorption floor reach the ufuncs as 0-d arrays, which they
take without converting a Python float on every call.  Called without
`out`, as the unit tests call them, the same kernels return new arrays.

Even data are solved on the half line.  On an interval of odd n, build_grid
mirrors the nodes bit for bit, with +0.0 at the centre.  When every row of
the state equals its mirror bit for bit (compared by bytes, so -0.0 against
0.0 differs), the solve steps x >= 0 alone, on the radial N = 1 grid of
(n + 1) / 2 nodes: it has the interval's h and bands right of 0, its origin
row 2 (w1 - w0) / h^2 is the interval's row at 0 for even data, and its far
wall keeps its bc.  The loop, controller and absorption are the same, and
each snapshot is written into the full-width values and mirrored there.
The half solve differs from the full one by round-off, about 1e-15 of the
largest value at 101 nodes and 1e-13 at 801, and took the same steps on
every case measured.  Even n has no node at 0 and takes the full grid, as
do radial grids and data off by one bit.

Flat data are stepped as one node.  Under zero-flux walls L 1 = 0, so a
state whose every row is constant bit for bit (compared by bytes, so -0.0
beside 0.0 is not constant) solves an ODE in its k row values: diffusion
is the identity and the Strang step is A(dt/2) -> A(dt/2).  The solve
holds the k values as Python floats and steps them through `_flat_advance`
and `_flat_error`, the same absorption formula and error as `_absorb` and
`_error` in a second storage form: the same operations in the same order,
the square x * x, the cube (x * x) * x, any other power np.power's, and the
floor and the maximum over rows keeping a nan.  They equal the array
kernels on one value per row bit for bit.  The loop, controller and tally
are the same; nothing is factored, so the tally's `factors` stays 0, and
each snapshot broadcasts the values across the grid, every row constant.
The array step of such data drifts by round-off: one D step leaves most
random flat states no longer flat.  Interval and radial grids alike take the
flat step; Dirichlet walls and data off by one bit take the array path.

Adaptive stepping is plain step doubling: a full step is compared against
two half steps, the step is rejected and dt halved whenever the scaled gap
exceeds the local tolerance, and the half-step composition is what gets
accepted (no extrapolation, so positivity is never undone).  A
rejected attempt's half step is the retry's full step, so a retry costs two
steps, not three.  dt lives on the quarter-octave ladder dt_init * 2**(j/4),
integer j, one float per rung, so a rung that recurs reuses its cached
factors; while dt climbs, each attempt's dt and dt/2 are new, and the cache
misses about once per accepted step.  Only a step clipped to an output time
leaves the ladder.  Let j0 be the highest rung at or below the accepted dt:
the tried rung, 4 rungs down per retry, unless the step was clipped, when
the controller walks down from there.  After a retry, dt takes rung
j0.  After a step accepted with no retry, it takes rung max(j, j0 + k), with
k = min(4, floor(4/3 log2(tol/err))), the most rungs with
(2**(k/4))**3 err <= tol for the step's third-order local error, and k = 4
at err = 0: it never shrinks on an accepted step.

The factorisation and the solve are LAPACK's dpttrf and dpttrs.  They are
called through ctypes in the OpenBLAS that NumPy's wheel bundles and has
already loaded, numpy.libs/libscipy_openblas64_*.so, as scipy_dpttrf_64_
and scipy_dpttrs_64_ (ILP64: every integer is 64 bits).  No scipy module
and no second BLAS are loaded, which keeps about 2.5 MiB off every
interpreter's peak memory and the extension's load off its import.  The
calls take prebuilt references: n and info once per operator, the
factors' once per factorisation, and a right-hand side's once per array,
since the step loop solves into the same few buffers; c_double.from_buffer
makes them and refuses a read-only or non-contiguous array.  Where NumPy
bundles no such library, or it lacks the two symbols (NumPy built on
Accelerate, MKL or a system BLAS), the same routines come from scipy's
Fortran extension, scipy.linalg._flapack, loaded by its file without any
scipy package init; if that file is not there, or loading it raises
ImportError or OSError, scipy.linalg.lapack supplies them.  What is on
disk picks the routines: no option does.  Both give the same bits on every
golden case.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .closed_forms import PowerPair
from .discretization import (
    BoundaryCondition,
    DomainKind,
    Field,
    Grid,
    LaplacianBands,
    SpatialDomain,
    build_grid,
)

__all__ = [
    "SolverConfig",
    "StepRecord",
    "Trajectory",
    "NumericsError",
    "StepSizeUnderflow",
    "solve",
    "heat_solve",
    "residual_of",
    "trajectory_to_csv",
    "steps_to_csv",
]


def _pttr() -> tuple[Callable, Callable]:
    """LAPACK's dpttrf and dpttrs from scipy's Fortran extension, loaded from its file
    without running any scipy package init.  The module goes into sys.modules under
    its own name, so a later `import scipy.linalg` reuses it and its lapack functions
    are these very objects.  With no file found, or one that raises ImportError or
    OSError as it loads (its half-made module is dropped), scipy.linalg supplies them."""
    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None:
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is None:
            raise ImportError("absorblab needs scipy, which is not installed")
        linalg = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(linalg, "_flapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                try:
                    flapack = sys.modules[name] = importlib.util.module_from_spec(spec)
                    spec.loader.exec_module(flapack)
                except (ImportError, OSError):
                    sys.modules.pop(name, None)
                    flapack = None
                break
        if flapack is None:
            from scipy.linalg.lapack import dpttrf, dpttrs

            return dpttrf, dpttrs
    return flapack.dpttrf, flapack.dpttrs


def _openblas() -> tuple[Callable, Callable] | None:
    """scipy_dpttrf_64_ and scipy_dpttrs_64_ of the OpenBLAS in numpy.libs, beside the
    numpy package, as ctypes functions; None when NumPy bundles no such library, the
    library lacks either symbol, or loading it raises OSError.  NumPy has already
    loaded it, so the loader maps nothing new."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(glob.escape(libs), "libscipy_openblas64_*.so")))
    if not paths:
        return None
    try:
        library = ctypes.CDLL(paths[0])
        routines = library.scipy_dpttrf_64_, library.scipy_dpttrs_64_
    except (OSError, AttributeError):
        return None
    for routine in routines:
        routine.restype = None  # Fortran subroutines
    return routines


class NumericsError(RuntimeError):
    """Base class for runtime integration failures."""


class StepSizeUnderflow(NumericsError):
    """Raised when error control pushes dt below dt_min."""


@dataclass(frozen=True)
class SolverConfig:
    """What every solve reads; a solve runs from t_start to its last output time."""

    bc: BoundaryCondition
    t_start: float
    dt_init: float = 1e-4
    dt_min: float = 1e-12
    tol_step: float = 1e-6

    def __post_init__(self):
        # every check is written so that nan fails it
        if not 0 <= self.t_start < math.inf:
            raise ValueError(f"t_start must be finite and >= 0, got {self.t_start}")
        if not (0 < self.dt_init < math.inf and 0 < self.dt_min < math.inf):
            raise ValueError("time steps must be positive and finite")
        if self.dt_min > self.dt_init:
            raise ValueError("dt_min must not exceed dt_init")
        if not 0 < self.tol_step < math.inf:
            raise ValueError("tol_step must be positive and finite")


@dataclass(frozen=True)
class StepRecord:
    t: float
    dt: float
    retries: int


@dataclass
class Trajectory:
    """Snapshots of one solve: `values[i]` is the (k, n) state at `times[i]`.

    Rows are u, v for `solve`, two equal rows when it solved one, and the
    one field for `heat_solve`; `steps` logs every accepted step.
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    steps: list[StepRecord] = field(default_factory=list)


_FACTOR_CACHE_SIZE = 4  # dt factorisations one operator keeps, least recently used out first

# 0-d operands: a ufunc takes an array as it is, where it converts a Python
# float on every call.  Read-only, since every solve shares them.  _FLOOR is
# the floor in the absorption update's max(u, floor).
_ZERO, _ONE, _FLOOR = np.array(0.0), np.array(1.0), np.array(1e-300)
_ZERO.flags.writeable = _ONE.flags.writeable = _FLOOR.flags.writeable = False
_FLOAT_FLOOR = float(_FLOOR)  # the floor as the float step takes it
_FLOAT64 = np.dtype(np.float64)  # the dtype the ctypes routines read
_RHS_KEPT = 4  # right-hand sides whose references a ctypes operator keeps: `stepped` and the attempts


class _Buffers(NamedTuple):
    """The arrays that steps on states of one shape write, made once per operator."""

    weight: np.ndarray  # 2V at the state's shape, with 0 at the pinned nodes
    stepped: np.ndarray  # the diffusion step's result inside `_advance`
    work: tuple[np.ndarray, np.ndarray]  # `_absorb`'s scratch; work[0] is also `_error`'s
    attempts: tuple[np.ndarray, np.ndarray, np.ndarray]  # `_integrate`'s full, half, two-half


class _Factors(NamedTuple):
    """L D L^T factors of a symmetric positive definite tridiagonal matrix, as dpttrf
    leaves them, with the references the ctypes dpttrs takes (None for scipy's)."""

    d: np.ndarray  # D's diagonal
    e: np.ndarray  # L's subdiagonal
    d_ref: object = None
    e_ref: object = None


class _OpenBlasPttr:
    """dpttrf and dpttrs through ctypes, for systems of n equations.

    No argtypes are declared: checking the seven arguments of every dpttrs
    call would cost 0.85 to 1.3 µs, a sixth to a quarter of a 2 x 401
    solve.  Instead every argument is a reference made here to a ctypes
    object of the type the routine reads, c_int64 or c_double, from arrays
    whose dtype and length are checked first.

    A right-hand side's references, its row count and its data, are made
    once per array: the step loop solves into the same few buffers, and
    making them costs 0.5 µs, a sixth of a 2 x 201 solve.  Up to _RHS_KEPT
    arrays are kept by identity, and one more empties the cache; each is
    held with its references, so that its id is not reused while it is
    kept.  A kept array cannot be
    resized, since its data reference holds its buffer, so the solve never
    writes past the bytes that were checked."""

    def __init__(self, pttrf: Callable, pttrs: Callable, n: int):
        self._pttrf, self._pttrs = pttrf, pttrs
        self._n = n
        self._info = ctypes.c_int64()
        self._n_ref, self._info_ref = ctypes.byref(ctypes.c_int64(n)), ctypes.byref(self._info)
        self._rhs: dict[int, tuple] = {}  # id(b) -> (b, its row count's reference, its data's)

    def factor(self, d: np.ndarray, e: np.ndarray) -> tuple[_Factors, int]:
        """Factor in place the matrix with diagonal d and off-diagonal e, C-contiguous,
        writable float64 arrays of n and n - 1 values; returns the factors and info."""
        if d.shape != (self._n,) or e.shape != (self._n - 1,) or not d.dtype == e.dtype == _FLOAT64:
            raise ValueError(f"factors of {self._n} equations need float64 arrays of "
                             f"{self._n} and {self._n - 1} values")
        d_ref = ctypes.byref(ctypes.c_double.from_buffer(d))
        # one equation has no off-diagonal, and from_buffer refuses an empty buffer:
        # a null pointer, which LAPACK does not read at n = 1
        e_ref = ctypes.byref(ctypes.c_double.from_buffer(e)) if e.size else None
        self._pttrf(self._n_ref, d_ref, e_ref, self._info_ref)
        return _Factors(d, e, d_ref, e_ref), self._info.value

    def solve(self, factors: _Factors, b: np.ndarray) -> None:
        """Overwrite b, C-contiguous and writable, n values or rows of n, with the
        solution of the factored system for each row."""
        kept = self._rhs.get(id(b))  # a kept array is alive, so its id is its own
        if kept is None:
            kept = self._keep(b)
        self._pttrs(self._n_ref, kept[1], factors.d_ref, factors.e_ref, kept[2],
                    self._n_ref, self._info_ref)

    def _keep(self, b: np.ndarray) -> tuple:
        """b with the references the solve passes for it, checked and kept."""
        if b.dtype != _FLOAT64 or b.shape[-1] != self._n:
            raise ValueError(f"right-hand side of {b.dtype} and shape {b.shape}, "
                             f"not float64 rows of {self._n}")
        data = ctypes.byref(ctypes.c_double.from_buffer(b))  # refuses read-only, non-contiguous
        if len(self._rhs) >= _RHS_KEPT:
            self._rhs.clear()
        kept = self._rhs[id(b)] = b, ctypes.byref(ctypes.c_int64(b.size // self._n)), data
        return kept


class _ScipyPttr:
    """dpttrf and dpttrs as scipy's Fortran extension wraps them."""

    def __init__(self, pttrf: Callable, pttrs: Callable, n: int):
        self._pttrf, self._pttrs = pttrf, pttrs

    def factor(self, d: np.ndarray, e: np.ndarray) -> tuple[_Factors, int]:
        d, e, info = self._pttrf(d, e)
        return _Factors(d, e), info

    def solve(self, factors: _Factors, b: np.ndarray) -> None:
        # on a C-contiguous b, b.T is Fortran-contiguous and pttrs solves in place
        self._pttrs(factors.d, factors.e, b.T, overwrite_b=1)


def _lapack() -> Callable[[int], _OpenBlasPttr | _ScipyPttr]:
    """What makes an operator's dpttrf/dpttrs for n equations: the ctypes routines
    of NumPy's OpenBLAS where `_openblas` finds them, else `_pttr`'s."""
    routines = _openblas()
    if routines is not None:
        return functools.partial(_OpenBlasPttr, *routines)
    return functools.partial(_ScipyPttr, *_pttr())


_LAPACK = _lapack()


class _Diffusion(LaplacianBands):
    """Crank-Nicolson diffusion step on the shared Laplacian L = V^-1 A."""

    def __init__(self, grid: Grid, bc: BoundaryCondition):
        super().__init__(grid, bc)
        # twice V, with 0 at the pinned nodes: the right-hand side's weight
        self._weight = np.where(self.pinned, 0.0, 2.0 * self.volume)
        # a plain dict of arrays, which refer to nothing: no cycle through self
        self._buffers: dict[tuple[int, ...], _Buffers] = {}
        volume, flux_diag, flux = self.volume, self.flux_diag, self.flux
        lapack = _LAPACK(grid.nodes)
        self._solve = lapack.solve

        # a closure over the bands, not a bound method: the cache holds no
        # reference to self, so an operator is freed without the cycle collector
        @functools.lru_cache(_FACTOR_CACHE_SIZE)
        def factor(dt: float) -> _Factors:
            """L D L^T factors of V - dt/2 A, symmetric positive definite."""
            c = 0.5 * dt
            factors, info = lapack.factor(volume - c * flux_diag, -c * flux)
            if info != 0:
                raise NumericsError(f"tridiagonal factorisation failed: LAPACK pttrf info={info}")
            return factors

        self._factor = factor

    def buffers(self, shape: tuple[int, ...]) -> _Buffers:
        """The arrays for states of `shape`, made on the first call with it and the
        same ones on every later call."""
        made = self._buffers.get(shape)
        if made is None:
            scratch = np.empty((6, *shape))
            made = self._buffers[shape] = _Buffers(
                np.broadcast_to(self._weight, shape).copy(), scratch[0],
                tuple(scratch[1:3]), tuple(scratch[3:]))
        return made

    def step(self, w: np.ndarray, dt: float, out: np.ndarray | None = None) -> np.ndarray:
        """Solve (I - dt/2 L) x = (I + dt/2 L) w, pinned nodes -> 0, into out (new if None).

        With M = V - dt/2 A, so that I - dt/2 L = V^-1 M, the right-hand side
        is never formed: x = 2 y - w~ with M y = V w~, w~ = w whose pinned
        nodes are 0: twice the backward half step minus w~, one solve and no
        product with A.  The solve takes 2 V w~ and returns 2 y, since scaling
        by 2 is exact.  A pinned node's row and column of A are zero, so A w~
        is A w, and M's pinned rows are identity rows: 2 y is exactly 0 there,
        and so is x, clamped from -w <= 0.

        w is one field or a (k, n) stack; every row is a right-hand side of
        one LAPACK pttrs call on the cached factors of M, solved in place.
        The weight 2V is held at w's shape: NumPy's iterator takes a buffer
        on every call to broadcast an (n,) weight over (k, n).  out,
        C-contiguous and not overlapping w, holds the result and is returned.
        """
        b = np.multiply(w, self.buffers(w.shape).weight, out=out)  # 2 V w~, then 2 y
        self._solve(self._factor(dt), b)
        b -= w
        # the explicit half can undershoot slightly; fractional powers and the
        # unclamped absorption need >= 0
        return np.maximum(b, _ZERO, out=b)


# (source row, power) per row: row i is absorbed at the rate w[source] ** power
_Absorption = tuple[tuple[int, float], ...]


def _coupled(pair: PowerPair) -> _Absorption:
    """The coupled system's absorption: u by v**p, v by u**q."""
    return ((1, pair.p), (0, pair.q))


def _power_into(out: np.ndarray, x: np.ndarray, power: float) -> None:
    """out[:] = x ** power: x * x * x at 3.0, else np.power's value bit for bit.

    The cube is two multiplications, (x * x) * x, within an ulp or so of pow
    and a fraction of its cost; NumPy already squares at 2.0 without pow.
    For the other powers, below cut = 2**(-1100/power) a node's exact power
    lies under 2**-1100, 25 binades below half the least subnormal, so it
    rounds to +0.0 whatever the pow behind np.power does with its last bits,
    and whatever cut's own rounding.  Such nodes get 0.0 and np.power runs on
    the rest, through its `where=` mask.  A node is tiny when its bits, read
    as uint64, lie below cut's: that is +0.0 <= x < cut exactly, so -0.0,
    negatives and nan stay on the np.power side.  The mask is built only when
    the second node from an end is below cut: a lone tiny node, such as a
    pinned Dirichlet wall, costs np.power less than the mask.
    """
    if power == 3.0:
        np.multiply(x, x, out=out)
        np.multiply(out, x, out=out)
        return
    if power != 2.0 and power > 0.0:
        cut = 2.0 ** (-1100.0 / power)
        if x[1] < cut or x[-2] < cut:
            tiny = x.view(np.uint64) < np.array(cut).view(np.uint64)
            out[tiny] = 0.0
            np.power(x, power, out=out, where=~tiny)
            return
    np.power(x, power, out=out)


def _absorb(w: np.ndarray, h: float | np.ndarray, absorption: _Absorption,
            out: np.ndarray | None = None,
            work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """A(h): the geometric-mean Patankar update of every row over h, into out.

    h is a float or a 0-d array.  work is two scratch arrays of w's shape;
    neither they nor out may overlap w.  What is not given is new."""
    d0 = np.empty(w.shape) if out is None else out
    floor, w1 = np.empty((2, *w.shape)) if work is None else work
    for row, (source, power) in enumerate(absorption):
        _power_into(d0[row], w[source], power)
    np.maximum(w, _FLOOR, out=floor)
    np.multiply(d0, h, out=w1)
    w1 /= floor
    w1 += _ONE
    np.divide(w, w1, out=w1)
    d1 = floor  # the floor of w is spent: it takes the rate at w1
    for row, (source, power) in enumerate(absorption):
        _power_into(d1[row], w1[source], power)
    np.sqrt(d0, out=d0)
    d0 *= h
    np.sqrt(d1, out=d1)
    d0 *= d1
    d0 /= np.maximum(w1, _FLOOR, out=w1)
    d0 += _ONE
    return np.divide(w, d0, out=d0)


def _advance(w: np.ndarray, dt: float, op: _Diffusion, absorption: _Absorption,
             out: np.ndarray | None = None) -> np.ndarray:
    """One Strang step A(dt/2) -> diffusion over dt -> A(dt/2); without absorption, diffusion.

    Given out, which must not overlap w, the step writes out and op's
    buffers and nothing else: out holds A(dt/2) w until diffusion has read
    it.  Without out every array is new."""
    if not absorption:
        return op.step(w, dt, out)
    h = np.array(0.5 * dt)  # one 0-d operand for the four products with h
    stepped = work = None
    if out is not None:
        _, stepped, work, _ = op.buffers(w.shape)
    mid = _absorb(w, h, absorption, out, work)
    return _absorb(op.step(mid, dt, stepped), h, absorption, out, work)


def _flat_power(x: float, power: float) -> float:
    """x ** power as `_power_into` computes it on a row: the cube (x * x) * x, the
    square x * x, and any other power np.power's value, whose loop may differ
    from the C library's pow in the last bit."""
    if power == 3.0:
        return x * x * x
    if power == 2.0:
        return x * x
    return float(np.power(x, power))


def _flat_absorb(w: list[float], h: float, absorption: _Absorption) -> list[float]:
    """A(h) on one value per row, as floats: `_absorb`'s operations in its order,
    so every value equals `_absorb`'s on the rows held as arrays, bit for bit.
    The floor is np.maximum's, which keeps a nan where max() would drop it."""
    floor = _FLOAT_FLOOR
    d0 = [_flat_power(w[source], power) for source, power in absorption]
    w1 = [x / (d * h / (floor if x < floor else x) + 1.0) for x, d in zip(w, d0)]
    return [x / (math.sqrt(d) * h * math.sqrt(_flat_power(w1[source], power))
                 / (floor if y < floor else y) + 1.0)
            for x, y, d, (source, power) in zip(w, w1, d0, absorption)]


def _flat_advance(w: list[float], dt: float, op: None, absorption: _Absorption,
                  out: None = None) -> list[float]:
    """`_advance` on rows that are each one value under zero-flux walls: L 1 = 0, so
    diffusion is the identity and the Strang step is A(dt/2) -> A(dt/2).  op and
    out are not read: the step returns a new list, or w itself without absorption."""
    if not absorption:
        return w
    h = 0.5 * dt
    return _flat_absorb(_flat_absorb(w, h, absorption), h, absorption)


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


def _half_line(grid: Grid, state: np.ndarray) -> Grid | None:
    """The radial N = 1 grid of (n + 1) / 2 nodes on [0, L] that carries even data
    of an interval grid of odd n >= 5, or None when the data or the grid are not such.

    Every row must equal its mirror bit for bit: the bytes left of the centre
    node equal those right of it in reverse order, so -0.0 against 0.0 counts as
    a difference.  The half grid has the interval's h, and its bands equal the
    interval's right of 0; its origin row 2 (w1 - w0) / h^2 is the interval's
    row at 0 for even data, and its far wall keeps its bc.
    """
    n = grid.nodes
    if (grid.domain.kind is not DomainKind.INTERVAL or n % 2 == 0 or n < 5
            or state[:, :n // 2].tobytes() != state[:, :n // 2:-1].tobytes()):
        return None
    return build_grid(SpatialDomain(DomainKind.RADIAL_BALL, grid.domain.extent), (n + 1) // 2)


def _flat_rows(state: np.ndarray, bc: BoundaryCondition) -> list[float] | None:
    """Each row's one value when every row of the state is constant bit for bit
    under zero-flux walls, else None.  Bytes are compared, as `_half_line`
    compares them, so a -0.0 beside 0.0 is not constant."""
    if bc is BoundaryCondition.NEUMANN_ZERO and state[:, 1:].tobytes() == state[:, :-1].tobytes():
        return state[:, 0].tolist()
    return None


def _error(a: np.ndarray, b: np.ndarray, gap: np.ndarray | None = None) -> float:
    """Largest per-row max |a - b| / (1 + max |b|); nan if any row is nan.

    gap, a scratch array of a's shape (new if None), takes |a - b| and then
    |b|.  np.maximum.reduce is what ndarray.max calls, without its wrapper."""
    gap = np.subtract(a, b, out=gap)
    err = np.maximum.reduce(np.abs(gap, out=gap), axis=-1)
    scale = np.maximum.reduce(np.abs(b, out=gap), axis=-1)
    scale += _ONE
    err /= scale
    return float(np.maximum.reduce(err))


def _flat_error(a: list[float], b: list[float], gap: None = None) -> float:
    """`_error` on one value per row, as floats; nan if any row is nan, as
    np.maximum.reduce gives it and max() would not.  gap is not read."""
    err = 0.0
    for x, y in zip(a, b):
        row = abs(x - y) / (abs(y) + 1.0)
        if err == err and not row <= err:  # a larger row or a nan; a nan stays
            err = row
    return err


def _rung_dt(j: int, dt_init: float) -> float:
    """Rung j of the ladder, dt_init * 2**(j/4); ldexp scales by 2**(j//4), so
    no power of 2 overflows however far the ladder climbs."""
    return math.ldexp(dt_init * 2.0 ** (j % 4 / 4), j // 4)


def _output_times(output_times: Sequence[float], t_start: float) -> list[float]:
    """The output times as floats; refused unless finite, rising and after t_start."""
    times = [float(t) for t in output_times]
    if not times:
        raise ValueError("need at least one output time")
    if not all(map(math.isfinite, times)):
        raise ValueError("output times must be finite")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("output times must be strictly increasing")
    if times[0] <= t_start:
        raise ValueError("output times must lie after t_start")
    return times


# Every solve's work, added as it ends, also by StepSizeUnderflow; a run's share
# is the tally after it minus before.  `calls` counts `_advance` calls, `rows` the
# right-hand sides they solved, `retries` those of the accepted steps, and
# `factors` the factor-cache misses, one dpttrf call each.
_WORK = Counter(calls=0, rows=0, accepted=0, retries=0, factors=0)


def _integrate(
    fields: Sequence[Field],
    config: SolverConfig,
    output_times: Sequence[float],
    absorption: _Absorption,
) -> Trajectory:
    times = _output_times(output_times, config.t_start)
    state = _stacked(*fields)

    grid = fields[0].grid
    values = np.empty((len(times), *state.shape))
    centre = 0  # the first node stepped; on the half line, the nodes left of it are mirrored
    flat = _flat_rows(state, config.bc)
    if flat is not None:
        # one float per row, with nothing to factor and no buffers to write
        state, op, advance, error = flat, None, _flat_advance, _flat_error
        full = half = two_half = gap = None
    else:
        half_grid = _half_line(grid, state)
        if half_grid is not None:
            centre = grid.nodes // 2
            state = state[:, centre:].copy()
        op = _Diffusion(half_grid or grid, config.bc)
        advance, error = _advance, _error
        buffers = op.buffers(state.shape)
        full, half, two_half = buffers.attempts  # each attempt's _advance writes into these
        gap = buffers.work[0]
    tol = config.tol_step
    t = config.t_start
    rung = 0  # dt is _rung_dt(rung, dt_init), the same float on every visit
    log: list[StepRecord] = []
    calls = 0

    try:
        for i, t_out in enumerate(times):
            while t < t_out - 1e-13 * t_out:  # t_out > t_start >= 0
                dt_try = min(_rung_dt(rung, config.dt_init), t_out - t)
                retries = 0
                calls += 1
                full = advance(state, dt_try, op, absorption, full)
                while True:
                    calls += 2
                    half = advance(state, 0.5 * dt_try, op, absorption, half)
                    two_half = advance(half, 0.5 * dt_try, op, absorption, two_half)
                    err = error(full, two_half, gap)
                    # a nan or an inf in two_half makes err nan or inf, which fails
                    # the finite tol: an accepted state is always finite, unchecked
                    if err <= tol:
                        break
                    dt_try *= 0.5
                    retries += 1
                    if dt_try < config.dt_min:
                        raise StepSizeUnderflow(
                            f"dt fell below dt_min={config.dt_min} at t={t:.6g}"
                        )
                    # the retry's full step is the rejected half step: same state, same dt
                    full, half = half, full
                state, two_half = two_half, state
                t += dt_try
                log.append(StepRecord(t, dt_try, retries))
                # the highest rung at or below dt_try: the tried rung is exact, since
                # halving a rung's float is exact; only a clipped step walks down
                rung_below = rung - 4 * retries
                while _rung_dt(rung_below, config.dt_init) > dt_try:
                    rung_below -= 1
                if retries:
                    rung = rung_below
                else:
                    # climb k rungs, the most with (2**(k/4))**3 err <= tol; never shrink
                    k = math.floor(min(4.0, 4.0 / 3.0 * math.log2(tol / err))) if err else 4
                    rung = max(rung, rung_below + k)
            t = t_out
            if op is None:  # each row's one value, across the grid
                values[i] = np.reshape(state, (-1, 1))
            else:
                values[i, :, centre:] = state
                if centre:  # from state: mirroring within values would copy through a buffer
                    values[i, :, :centre] = state[:, :0:-1]
    finally:
        _WORK.update(calls=calls, rows=calls * len(fields), accepted=len(log),
                     retries=sum(r.retries for r in log),
                     factors=0 if op is None else op._factor.cache_info().misses)

    return Trajectory(grid, np.array(times), values, log)


def solve(
    ic_u: Field,
    ic_v: Field,
    pair: PowerPair,
    config: SolverConfig,
    output_times: Sequence[float],
) -> Trajectory:
    """Integrate the coupled system with exponents `pair` from nonnegative initial fields.

    At p = q with u0 = v0 bit for bit the two rows stay equal bit for bit, so
    one row is integrated and returned as both."""
    if (pair.p == pair.q and ic_u.grid.compatible(ic_v.grid)
            and ic_u.values.tobytes() == ic_v.values.tobytes()):
        traj = _integrate([ic_u], config, output_times, ((0, pair.p),))
        traj.values = np.repeat(traj.values, 2, axis=1)
        return traj
    return _integrate([ic_u, ic_v], config, output_times, _coupled(pair))


def heat_solve(ic: Field, config: SolverConfig, output_times: Sequence[float]) -> Trajectory:
    """Integrate the pure heat equation (absorption removed)."""
    return _integrate([ic], config, output_times, ())


def residual_of(
    state_of_t: Callable[[float], np.ndarray],
    grid: Grid,
    pair: PowerPair,
    bc: BoundaryCondition,
    t: float,
    dt_probe: float,
) -> np.ndarray:
    """Discrete residual of the system on a time-dependent (2, n) state.

    Row i is (w_i(t+dt) - w_i(t-dt)) / (2 dt) - L w_i(t) + w_s(t)**power,
    with (s, power) the row's absorption as `solve` steps it: r_u carries
    v**p, r_v carries u**q, each from the solver's own power rule, the cube
    as x * x * x.  Used to verify exact solutions against the discrete
    operator: L is `LaplacianBands(grid, bc)`, the bands the solver steps
    with.  Zero-flux wall rows pass no flux through the wall; Dirichlet wall
    rows and columns of L are zero, because the solver pins those nodes.  Exclude
    boundary nodes, and their neighbours under Dirichlet walls, when the
    probed state does not satisfy the condition of `bc`.
    """
    if not dt_probe > 0:  # nan fails it
        raise ValueError("dt_probe must be positive")
    w = np.asarray(state_of_t(t), dtype=float)
    if w.shape != (2, grid.nodes):
        raise ValueError(f"state of shape {w.shape} is not (2, {grid.nodes})")
    r = (state_of_t(t + dt_probe) - state_of_t(t - dt_probe)) / (2.0 * dt_probe)
    r -= LaplacianBands(grid, bc).apply(w)
    rate = np.empty(grid.nodes)
    for row, (source, power) in enumerate(_coupled(pair)):
        _power_into(rate, w[source], power)
        r[row] += rate
    return r


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Long-format CSV with one row per (snapshot, node); v is empty for one row.

    A value is written as its repr, the writer's main cost, so a row that is
    constant bit for bit, as a flat solve leaves every row, reprs one value,
    and a row that equals its mirror bit for bit (the bytes left of the
    centre equal those right of it in reverse, as `_half_line` compares them)
    reprs its right half once and reads its left half from those strings in
    reverse.  Comparing bytes keeps -0.0 against 0.0 apart.
    """
    coords = list(map(repr, traj.grid.coords.tolist()))
    half = len(coords) // 2  # the nodes left of the centre; an odd n has a centre node
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,node_coordinate,u,v\n")
        for t, snapshot in zip(map(repr, traj.times.tolist()), traj.values):
            columns = []
            for row in snapshot:
                if row[1:].tobytes() == row[:-1].tobytes():
                    columns.append(itertools.repeat(repr(row[0].item())))
                elif row[:half].tobytes() == row[::-1][:half].tobytes():
                    right = list(map(repr, row[half:].tolist()))
                    columns.append(right[::-1][:half] + right)
                else:
                    columns.append(list(map(repr, row.tolist())))
            if len(columns) == 1:
                columns.append(itertools.repeat(""))
            fh.writelines(f"{t},{x},{u},{v}\n" for x, u, v in zip(coords, *columns))


def steps_to_csv(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,dt,retries\n")
        fh.writelines(f"{float(rec.t)!r},{float(rec.dt)!r},{rec.retries}\n" for rec in traj.steps)
