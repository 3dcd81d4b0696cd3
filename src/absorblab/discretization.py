"""Spatial meshes, the discrete Laplacian, quadrature, and test bumps.

Two mesh geometries: a symmetric interval [-L, L] and the radial reduction
of a ball of radius R in dimension N (nodes on [0, R], integrals weighted
by the sphere area omega * r^(N-1)).  All grids are uniform; the Laplacian
is the second-order finite-volume stencil, which conserves mass under zero
flux in every dimension, stored once as tridiagonal bands that the solver
steps with and every probe applies.  A homogeneous Dirichlet wall node is
pinned at 0 by the solver, so it is not an unknown: its Laplacian row and
column are zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DomainKind",
    "BoundaryCondition",
    "SpatialDomain",
    "Grid",
    "Field",
    "build_grid",
    "LaplacianBands",
    "trapezoid_weights",
    "integrate_field",
    "bump_function",
    "unit_sphere_area",
]


class DomainKind(Enum):
    INTERVAL = "interval"
    RADIAL_BALL = "radial_ball"


class BoundaryCondition(Enum):
    DIRICHLET_ZERO = "dirichlet_zero"
    NEUMANN_ZERO = "neumann_zero"


@dataclass(frozen=True)
class SpatialDomain:
    """Interval of half-length `extent`, or radial ball of radius `extent`."""

    kind: DomainKind
    extent: float
    dim_n: int = 1

    def __post_init__(self):
        if not 0 < self.extent < math.inf:
            raise ValueError(f"extent must be positive and finite, got {self.extent}")
        if self.dim_n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim_n}")
        if self.kind is DomainKind.INTERVAL and self.dim_n != 1:
            raise ValueError("interval domains are one-dimensional")


@dataclass(frozen=True, eq=False)
class Grid:
    domain: SpatialDomain
    nodes: int
    h: float
    coords: np.ndarray

    def compatible(self, other: "Grid") -> bool:
        return (
            self.domain == other.domain
            and self.nodes == other.nodes
        )


@dataclass(frozen=True, eq=False)
class Field:
    """Scalar sample per grid node.  Treated as immutable once built."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.nodes,):
            raise ValueError(
                f"field length {values.shape} does not match grid with {self.grid.nodes} nodes"
            )
        object.__setattr__(self, "values", values)


def build_grid(domain: SpatialDomain, nodes: int) -> Grid:
    """Uniform mesh over the domain; radial meshes start at r = 0.

    Interval node i sits at k / (n - 1) * L with k = 2i - (n - 1): the integers
    k are mirrored exactly and rounding is symmetric about 0, so coords ==
    -coords[::-1] bit for bit, the ends are -L and L, and the centre node of an
    odd n is +0.0.  Data even in x, such as a bump centred at 0, are then even
    to the bit.  k is a float arange: an integer one gives the same bytes but
    first calls NumPy code that no solve needs, about 64 KiB of resident memory.
    """
    if nodes < 3:
        raise ValueError(f"need at least 3 nodes, got {nodes}")
    if domain.kind is DomainKind.INTERVAL:
        coords = np.arange(1.0 - nodes, nodes, 2.0) / (nodes - 1) * domain.extent
        h = 2.0 * domain.extent / (nodes - 1)
    else:
        coords = np.linspace(0.0, domain.extent, nodes)
        h = domain.extent / (nodes - 1)
    coords.setflags(write=False)
    return Grid(domain=domain, nodes=nodes, h=h, coords=coords)


def unit_sphere_area(dim_n: int) -> float:
    """Surface area of the unit sphere in R^N (2 for N=1, 2*pi, 4*pi, ...)."""
    return 2.0 * math.pi ** (dim_n / 2.0) / math.gamma(dim_n / 2.0)


def trapezoid_weights(grid: Grid, idx: slice | np.ndarray = slice(None)) -> np.ndarray:
    """Trapezoid weights over a contiguous run of nodes (all nodes by default).

    `idx` is a slice or a sorted array of consecutive node indices; the end
    nodes of the run get half weight.  Radial grids carry the surface-measure
    factor omega_{N-1} r^(N-1), so the weights integrate over the N-ball.
    """
    coords = grid.coords[idx]
    w = np.full(coords.size, grid.h)
    w[0] *= 0.5
    w[-1] *= 0.5
    if grid.domain.kind is DomainKind.RADIAL_BALL:
        n = grid.domain.dim_n
        w = w * unit_sphere_area(n) * coords ** (n - 1)
    return w


class LaplacianBands:
    """The discrete Laplacian L = V^-1 A under one boundary condition, as bands.

    The finite-volume form: node i owns the cell between the faces r_(i-1/2)
    and r_(i+1/2), cut at 0 and at the far wall, of volume V_i =
    (r_(i+1/2)^N - r_(i-1/2)^N) / N, and the flux through a face is
    r_(i+1/2)^(N-1) (w[i+1] - w[i]) / h.  A is the symmetric flux matrix, so
    the V-mass sum(V L w) = sum(A w) changes only through the walls: L
    conserves it exactly under zero flux, in every dimension.  The interval is
    the form at N = 1, its end cells halves.  V and A are stored times
    N / h^N, with the faces at i + 1/2 in units of h from the first node:

        volume[i] = (i + 1/2)^N - (i - 1/2)^N, the faces cut at 0 and n - 1,
        flux[i]   = N (i + 1/2)^(N-1) / h^2 = A[i, i+1] = A[i+1, i],

    and flux_diag[i] = A[i, i] = -(the fluxes through node i's faces).  At
    N = 1 a volume is 1.0 inside and 0.5 at an end and a flux is 1.0 / h^2,
    so the rows are (w[i-1] - 2 w[i] + w[i+1]) / h^2 inside and
    2 (w[1] - w[0]) / h^2 at an end, bit for bit; at N >= 2 the origin row
    is 2N (w[1] - w[0]) / h^2.  Row i of L w is sub[i] w[i-1] + diag[i] w[i]
    + sup[i] w[i+1].

    Dirichlet wall nodes are `pinned`: the solver holds them at 0, so their
    rows and columns of A are zero, L w never reads a (finite) wall value,
    and their volume is 1.0, so that their rows of V - c A are the
    identity's.  The flux through a wall face still leaves its neighbour's
    diagonal.
    """

    def __init__(self, grid: Grid, bc: BoundaryCondition):
        n = grid.nodes
        dim = grid.domain.dim_n
        faces = np.arange(-0.5, n)  # the n + 1 cell faces in units of h, cut at both ends
        faces[0], faces[-1] = 0.0, n - 1.0
        volume = np.diff(faces**dim)
        flux = dim * faces[1:-1] ** (dim - 1) * (1.0 / grid.h**2)
        flux_diag = np.zeros(n)
        flux_diag[:-1] -= flux
        flux_diag[1:] -= flux
        pinned = np.zeros(n, dtype=bool)
        if bc is BoundaryCondition.DIRICHLET_ZERO:
            pinned[-1] = True
            pinned[0] = grid.domain.kind is DomainKind.INTERVAL  # the origin is no wall
        flux[pinned[:-1] | pinned[1:]] = 0.0
        flux_diag[pinned] = 0.0
        volume[pinned] = 1.0

        self.volume = volume
        self.flux = flux
        self.flux_diag = flux_diag
        self.pinned = pinned
        self.sub = np.concatenate([[0.0], flux / volume[1:]])
        self.diag = flux_diag / volume
        self.sup = np.concatenate([flux / volume[:-1], [0.0]])

    def apply(self, w: np.ndarray) -> np.ndarray:
        """L w for one field of n values, or row by row for a (k, n) stack."""
        out = self.diag * w
        out[..., :-1] += self.sup[:-1] * w[..., 1:]
        out[..., 1:] += self.sub[1:] * w[..., :-1]
        return out


def integrate_field(field: Field, weight: Field | None = None) -> float:
    """Trapezoidal integral of field (optionally times weight) over the domain.

    Radial domains carry the surface-measure factor omega_{N-1} r^(N-1), so
    the result is the integral over the full N-dimensional ball.
    """
    values = field.values
    if weight is not None:
        if not field.grid.compatible(weight.grid):
            raise ValueError("field and weight live on different grids")
        values = values * weight.values
    return float(trapezoid_weights(field.grid) @ values)


def bump_function(grid: Grid, center: float, width: float) -> Field:
    """Smooth compactly supported bump, normalized to unit integral.

    Profile exp(1 - 1/(1 - s^2)) with s = (x - center)/width, identically
    zero for |s| >= 1.  The support [center - width, center + width] must
    lie inside the domain; on radial grids a bump centered at r = 0 is
    allowed (its support is the ball of radius `width`).
    """
    if not width > 0:  # nan fails it
        raise ValueError(f"width must be positive, got {width}")
    domain = grid.domain
    if domain.kind is DomainKind.INTERVAL:
        inside = -domain.extent <= center - width and center + width <= domain.extent
    else:
        inside = (center == 0.0 or center - width >= 0.0) and center + width <= domain.extent
    if not inside:
        raise ValueError(
            f"bump support [{center - width}, {center + width}] exceeds the domain"
        )
    s = (grid.coords - center) / width
    values = np.zeros(grid.nodes)
    core = np.abs(s) < 1.0
    values[core] = np.exp(1.0 - 1.0 / (1.0 - s[core] ** 2))
    raw = Field(grid, values)
    mass = integrate_field(raw)
    if mass <= 0:
        raise ValueError(
            f"bump support [{center - width}, {center + width}] does not contain any grid node"
        )
    return Field(grid, values / mass)

