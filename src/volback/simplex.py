"""Ordered simplex domains and quadrature.

The integration domains throughout the package are the ordered simplices

    T_n(x) = { (xi_1, ..., xi_n) : 0 <= xi_n <= ... <= xi_1 <= x },

with volume x**n / n!.  Points carry the upper limit ``x`` alongside the
coordinates because every kernel evaluation needs it.  The gap
coordinates of a point are the consecutive differences

    gaps = (x - xi_1, xi_1 - xi_2, ..., xi_{n-1} - xi_n),

which together with ``x`` determine the point (the innermost coordinate
is ``x - sum(gaps)``).  Gap coordinates are the natural variables for the
divided-power calculus in :mod:`volback.gapcascade`.

Three quadrature rules are provided, all returning nodes strictly inside
the simplex description:

``nested-trapezoid-on-mesh``
    composite trapezoid applied axis by axis in stick-breaking
    coordinates, ``resolution`` points per axis,
``tensor-gauss-legendre-on-gaps``
    Gauss-Legendre applied axis by axis in the same stick-breaking
    coordinates (exact for polynomial integrands of per-axis degree
    below roughly twice the node count),
``monte-carlo``
    sorted uniform samples with the volume as aggregate weight,
    seeded through :class:`QuadratureRule`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

DETERMINISTIC_KINDS = ("nested-trapezoid-on-mesh", "tensor-gauss-legendre-on-gaps")
QUADRATURE_KINDS = DETERMINISTIC_KINDS + ("monte-carlo",)


class SimplexDomainError(ValueError):
    """A point or parameter fell outside the admissible simplex data."""


class QuadratureConfigError(ValueError):
    """A quadrature rule was configured with unusable parameters."""


@dataclass(frozen=True)
class SimplexPoint:
    """A point of T_n(x): upper limit ``x`` plus descending coordinates.

    Construction validates membership exactly (no tolerance): the
    coordinates must satisfy 0 <= xi[n-1] <= ... <= xi[0] <= x <= 1.
    """

    x: float
    xi: tuple[float, ...]

    def __post_init__(self) -> None:
        xi = tuple(float(v) for v in self.xi)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "x", float(self.x))
        if len(xi) == 0:
            raise SimplexDomainError("simplex points need at least one coordinate")
        if not simplex_contains(self.x, xi):
            raise SimplexDomainError(
                f"point xi={xi} is not in T_{len(xi)}({self.x})"
            )

    @property
    def order(self) -> int:
        return len(self.xi)

    @property
    def gaps(self) -> tuple[float, ...]:
        chain = (self.x,) + self.xi
        return tuple(chain[i] - chain[i + 1] for i in range(len(self.xi)))


def simplex_contains(x: float, xi: Iterable[float]) -> bool:
    """Exact membership test for T_n(x).

    Accepts precisely the tuples with 0 <= xi_n <= ... <= xi_1 <= x and
    0 <= x <= 1; boundary points belong to the simplex.
    """
    xs = list(xi)
    if not xs:
        return False
    if not (0.0 <= x <= 1.0):
        return False
    chain = [x] + xs + [0.0]
    return all(chain[i] >= chain[i + 1] for i in range(len(chain) - 1))


def simplex_volume(n: int, x: float) -> float:
    """Volume of T_n(x), i.e. x**n / n!.

    Raises :class:`SimplexDomainError` for n < 1 or x outside [0, 1].
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise SimplexDomainError(f"simplex order must be a positive integer, got {n!r}")
    if not (0.0 <= x <= 1.0):
        raise SimplexDomainError(f"upper limit must lie in [0, 1], got {x!r}")
    return float(x) ** n / math.factorial(n)


def to_gap_coords(point: SimplexPoint) -> tuple[tuple[float, ...], float]:
    """Gap coordinates of a point: ``(gaps, xi_n)``.

    ``gaps[r]`` is the difference between consecutive chain entries
    (x, xi_1, ..., xi_n); the innermost coordinate is returned as well
    so the pair is manifestly invertible.
    """
    return point.gaps, point.xi[-1]


def from_gap_coords(x: float, gaps: Iterable[float]) -> SimplexPoint:
    """Rebuild the point of T_n(x) with the given consecutive gaps.

    Raises :class:`SimplexDomainError` if any gap is negative or the
    gaps overshoot ``x`` (the innermost coordinate would be negative).
    """
    gs = [float(g) for g in gaps]
    if any(g < 0.0 for g in gs):
        raise SimplexDomainError(f"negative gap in {gs}")
    xi = []
    cur = float(x)
    for g in gs:
        cur -= g
        xi.append(cur)
    if xi and xi[-1] < 0.0:
        raise SimplexDomainError(
            f"gaps {gs} overshoot the upper limit {x} (innermost coordinate {xi[-1]})"
        )
    return SimplexPoint(x, tuple(xi))


@dataclass(frozen=True)
class QuadratureRule:
    """Description of a quadrature rule over an ordered simplex.

    ``resolution`` means points per axis for the deterministic kinds and
    sample count for ``monte-carlo``.  Deterministic kinds require at
    least 2 points per axis; a zero or negative resolution is rejected
    outright.
    """

    kind: str = "tensor-gauss-legendre-on-gaps"
    resolution: int = 32
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in QUADRATURE_KINDS:
            raise QuadratureConfigError(
                f"unknown quadrature kind {self.kind!r}; expected one of {QUADRATURE_KINDS}"
            )
        if self.resolution <= 0:
            raise QuadratureConfigError(
                f"quadrature resolution must be positive, got {self.resolution}"
            )
        if self.kind in DETERMINISTIC_KINDS and self.resolution < 2:
            raise QuadratureConfigError(
                f"deterministic rules need resolution >= 2, got {self.resolution}"
            )

    @staticmethod
    def trapezoid(resolution: int = 64) -> "QuadratureRule":
        return QuadratureRule("nested-trapezoid-on-mesh", resolution)

    @staticmethod
    def gauss(resolution: int = 16) -> "QuadratureRule":
        return QuadratureRule("tensor-gauss-legendre-on-gaps", resolution)

    @staticmethod
    def monte_carlo(samples: int, seed: int = 0) -> "QuadratureRule":
        return QuadratureRule("monte-carlo", samples, seed)


def _axis_nodes(rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis nodes and weights on [0, 1] for the deterministic kinds."""
    k = rule.resolution
    if rule.kind == "nested-trapezoid-on-mesh":
        t = np.linspace(0.0, 1.0, k)
        w = np.full(k, 1.0 / (k - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return t, w
    t, w = np.polynomial.legendre.leggauss(k)
    return 0.5 * (t + 1.0), 0.5 * w


def simplex_nodes(n: int, x: float, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights for T_n(x).

    Returns ``(points, weights)`` with ``points`` of shape (N, n), rows
    descending, and ``weights`` of shape (N,) summing to the simplex
    volume (exactly for the deterministic kinds, in expectation for
    monte-carlo).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise SimplexDomainError(f"simplex order must be a positive integer, got {n!r}")
    if not (0.0 <= x <= 1.0):
        raise SimplexDomainError(f"upper limit must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return np.zeros((0, n)), np.zeros(0)

    if rule.kind == "monte-carlo":
        rng = np.random.default_rng(rule.seed)
        pts = rng.uniform(0.0, x, size=(rule.resolution, n))
        pts = -np.sort(-pts, axis=1)
        w = np.full(rule.resolution, simplex_volume(n, x) / rule.resolution)
        return pts, w

    t, tw = _axis_nodes(rule)
    # Stick breaking: xi_i = xi_{i-1} * t, starting from xi_0 = x.  Each
    # axis contributes weight (upper limit) * tw since the inner integral
    # runs over [0, upper limit].
    upper = np.array([x])
    weights = np.array([1.0])
    cols: list[np.ndarray] = []
    for _ in range(n):
        pts_axis = upper[:, None] * t[None, :]
        w_axis = weights[:, None] * (upper[:, None] * tw[None, :])
        cols = [np.repeat(c, len(t)) for c in cols]
        cols.append(pts_axis.ravel())
        upper = pts_axis.ravel()
        weights = w_axis.ravel()
    return np.stack(cols, axis=1), weights


def integrate_simplex(
    n: int,
    x: float,
    integrand: Callable,
    rule: QuadratureRule,
) -> float:
    """Integrate a scalar function over T_n(x) with the given rule.

    ``integrand`` is either a function of a single :class:`SimplexPoint`
    or, when it carries a truthy ``vectorized`` attribute (all kernel
    evaluators in this package do), a function ``f(x, points)`` mapping
    the scalar upper limit and an (N, n) coordinate array to N values.

    ``x == 0`` returns 0.0 without evaluating the integrand.
    """
    pts, w = simplex_nodes(n, x, rule)
    if len(w) == 0:
        return 0.0
    if getattr(integrand, "vectorized", False):
        vals = np.asarray(integrand(x, pts), dtype=float)
    else:
        vals = np.array([integrand(SimplexPoint(x, tuple(row))) for row in pts])
    return float(np.dot(vals, w))
