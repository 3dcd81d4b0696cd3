"""Exact formulas for the coupled diffusion-absorption system.

Everything in this module is closed-form: the scaling exponents attached to
an exponent pair (p, q), the amplitudes of the spatially flat decaying
solution, the amplitudes of the singular steady radial profiles, and the
inequality-based regime / well-posedness classifiers.  At p = q = Q the flat
solution is the scalar decay profile ((Q-1)t)^(-1/(Q-1)).  No discretization
is involved; these functions double as oracles for the solver tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PowerPair",
    "FlatSolutionConstants",
    "EllipticSolutionConstants",
    "RegimeReport",
    "WellposednessVerdict",
    "flat_constants",
    "eval_flat",
    "elliptic_constants",
    "eval_elliptic",
    "classify_regime",
    "wellposedness",
]


@dataclass(frozen=True)
class PowerPair:
    """Exponent pair (p, q) with the derived scaling exponents (a, b).

    a = (p+1)/(pq-1) and b = (q+1)/(pq-1).  Both are positive exactly when
    pq > 1 (the superlinear range); for pq < 1 the raw negative values are
    kept.  pq = 1 is rejected since the exponents are undefined there.
    """

    p: float
    q: float
    a: float = field(init=False)
    b: float = field(init=False)

    def __post_init__(self):
        p, q = float(self.p), float(self.q)
        if not (p > 0 and q > 0):
            raise ValueError(f"exponents must be positive, got p={p}, q={q}")
        if p * q == 1.0:
            raise ValueError("pq = 1 is excluded: scaling exponents are undefined")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", (p + 1.0) / (p * q - 1.0))
        object.__setattr__(self, "b", (q + 1.0) / (p * q - 1.0))

    @property
    def superlinear(self) -> bool:
        return self.p * self.q > 1.0


@dataclass(frozen=True)
class FlatSolutionConstants:
    """Amplitudes (A*, B*) of the flat solution (A* t^-a, B* t^-b)."""

    a_star: float
    b_star: float


@dataclass(frozen=True)
class EllipticSolutionConstants:
    """Amplitudes of the singular steady radial pair (A |x|^-2a, B |x|^-2b)."""

    a_sub: float
    b_sub: float


@dataclass(frozen=True)
class RegimeReport:
    superlinear: bool
    sublinear: bool
    measure_subcritical: bool
    removable_supercritical: bool
    elliptic_singular_exists: bool


@dataclass(frozen=True)
class WellposednessVerdict:
    existence: bool
    uniqueness: bool


def _positive_root(coef: float, base: float, power: float, exponent: float) -> float:
    """The positive x with x**exponent = coef * base**power, all four positive.

    x = exp(log(rhs) / exponent).  When rhs = coef * base**power is not a
    positive normal float (base**power underflows at a large power) its
    logarithm is taken as log(coef) + power * log(base) instead; a normal
    rhs keeps the direct product, and with it every bit of x.
    """
    rhs = coef * base**power
    if sys.float_info.min <= rhs < math.inf:
        log_rhs = math.log(rhs)
    else:
        log_rhs = math.log(coef) + power * math.log(base)
    return math.exp(log_rhs / exponent)


def flat_constants(pair: PowerPair) -> FlatSolutionConstants:
    """Amplitudes of the spatially flat decaying solution, pq > 1 only.

    (A*)^(pq-1) = a * b**p and (B*)^(pq-1) = b * a**q, which is the unique
    positive solution of the amplitude system a*A = B**p, b*B = A**q coming
    from substituting (A t^-a, B t^-b) into u' = -v**p, v' = -u**q.
    """
    if not pair.superlinear:
        raise ValueError("flat solution requires pq > 1")
    a, b = pair.a, pair.b
    a_star = _positive_root(a, b, pair.p, pair.p * pair.q - 1.0)
    b_star = _positive_root(b, a, pair.q, pair.p * pair.q - 1.0)
    return FlatSolutionConstants(a_star, b_star)


def eval_flat(pair: PowerPair, t: float) -> tuple[float, float]:
    """Value (u, v) = (A* t^-a, B* t^-b) of the flat solution at time t > 0."""
    if not t > 0:  # nan fails it
        raise ValueError(f"flat solution is defined for t > 0, got t={t}")
    c = flat_constants(pair)
    return c.a_star * t**-pair.a, c.b_star * t**-pair.b


def elliptic_constants(pair: PowerPair, dim_n: int) -> EllipticSolutionConstants:
    """Amplitudes of the singular steady radial pair in dimension dim_n.

    Requires min(2a, 2b) > N - 2 so that both radial-Laplacian factors
    2a(2a+2-N) and 2b(2b+2-N) are positive.  The amplitudes are fixed by
    re-substitution into the steady system: with L(g) = g(g+2-N),

        A * L(2a) = B**p,    B * L(2b) = A**q,

    giving A^(pq-1) = L(2a) * L(2b)**p and B^(pq-1) = L(2b) * L(2a)**q.
    """
    if dim_n < 1:
        raise ValueError(f"dimension must be >= 1, got {dim_n}")
    two_a, two_b = 2.0 * pair.a, 2.0 * pair.b
    if not min(two_a, two_b) > dim_n - 2:
        raise ValueError(
            f"singular steady profile needs min(2a, 2b) > N-2; "
            f"got 2a={two_a}, 2b={two_b}, N={dim_n}"
        )
    lap_u = two_a * (two_a + 2.0 - dim_n)
    lap_v = two_b * (two_b + 2.0 - dim_n)
    exponent = pair.p * pair.q - 1.0
    a_sub = _positive_root(lap_u, lap_v, pair.p, exponent)
    b_sub = _positive_root(lap_v, lap_u, pair.q, exponent)
    return EllipticSolutionConstants(a_sub, b_sub)


_ORIGIN_FLOOR = 1e-12  # smallest |x| that `eval_elliptic` evaluates at


def eval_elliptic(
    pair: PowerPair,
    constants: EllipticSolutionConstants,
    coords,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (A|x|^-2a, B|x|^-2b) on an array of coordinates.

    |x| is floored at `_ORIGIN_FLOOR` so that a node sitting exactly on the
    singularity yields a large finite value instead of inf; callers are
    expected to restrict any accuracy claim to nodes away from the origin.
    """
    r = np.maximum(np.abs(np.asarray(coords, dtype=float)), _ORIGIN_FLOOR)
    return constants.a_sub * r ** (-2.0 * pair.a), constants.b_sub * r ** (-2.0 * pair.b)


def classify_regime(pair: PowerPair, dim_n: int) -> RegimeReport:
    """Evaluate the five regime inequalities for (p, q) in dimension N."""
    if dim_n < 1:
        raise ValueError(f"dimension must be >= 1, got {dim_n}")
    p, q = pair.p, pair.q
    crit = 1.0 + 2.0 / dim_n
    return RegimeReport(
        superlinear=p * q > 1.0,
        sublinear=p * q < 1.0,
        measure_subcritical=max(p, q) < crit,
        removable_supercritical=p >= crit and q >= crit,
        elliptic_singular_exists=min(2.0 * pair.a, 2.0 * pair.b) > dim_n - 2,
    )


def wellposedness(
    pair: PowerPair, dim_n: int, theta: float, lam: float
) -> WellposednessVerdict:
    """Existence/uniqueness verdict for data in L^theta x L^lam.

    Use math.inf for theta or lam to encode bounded data; the ratios p/lam,
    q/theta, 1/theta, 1/lam then evaluate to 0 as intended.  Existence holds
    iff max(p/lam, q/theta) < 1 + 2/N; uniqueness additionally needs
    p, q >= 1 and max(p/lam - 1/theta, q/theta - 1/lam) < 2/N.
    """
    if dim_n < 1:
        raise ValueError(f"dimension must be >= 1, got {dim_n}")
    if not (theta >= 1 and lam >= 1):
        raise ValueError(f"integrability orders must be >= 1, got theta={theta}, lam={lam}")
    p, q = pair.p, pair.q
    existence = max(p / lam, q / theta) < 1.0 + 2.0 / dim_n
    uniqueness = (
        existence
        and p >= 1.0
        and q >= 1.0
        and max(p / lam - 1.0 / theta, q / theta - 1.0 / lam) < 2.0 / dim_n
    )
    return WellposednessVerdict(existence=existence, uniqueness=uniqueness)
