"""Ordered simplex domains and quadrature.

The integration domains throughout the package are the ordered simplices

    T_n(x) = { (xi_1, ..., xi_n) : 0 <= xi_n <= ... <= xi_1 <= x },

with volume x**n / n!.  A set of N points of T_n(x) is an (N, n) array
of descending rows, evaluated together with the upper limit ``x`` as
kernels are, ``kern(x, xi)``.

Two cached enumerators serve the kernel constructions: the
order-preserving splits of trailing positions into two blocks
(:func:`ordered_splits`) and the multi-indices of a given weight
(:func:`compositions`).

The one quadrature rule is Gauss-Legendre applied axis by axis in
stick-breaking coordinates, ``resolution`` nodes per axis, all strictly
inside the simplex.  It is exact for polynomial integrands of per-axis
degree below roughly twice the node count, which is what the kernel
norms integrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import numpy as np


class SimplexDomainError(ValueError):
    """A point or parameter fell outside the admissible simplex data."""


class QuadratureConfigError(ValueError):
    """A quadrature rule was configured with unusable parameters."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre in stick-breaking coordinates over an ordered simplex,
    ``resolution`` nodes per axis (at least 2)."""

    resolution: int

    def __post_init__(self) -> None:
        if self.resolution < 2:
            raise QuadratureConfigError(
                f"quadrature rules need resolution >= 2, got {self.resolution}"
            )


def simplex_nodes(n: int, x: float, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights for T_n(x).

    Returns ``(points, weights)`` with ``points`` of shape (N, n), rows
    descending, and ``weights`` of shape (N,).  The weights sum to the
    simplex volume x**n / n! (up to rounding) when 2 * resolution >= n.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise SimplexDomainError(f"simplex order must be a positive integer, got {n!r}")
    if not (0.0 <= x <= 1.0):
        raise SimplexDomainError(f"upper limit must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return np.zeros((0, n)), np.zeros(0)

    t, tw = np.polynomial.legendre.leggauss(rule.resolution)
    t, tw = 0.5 * (t + 1.0), 0.5 * tw
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


def random_simplex_points(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` random points of T_n(1), from ``rng``: sorted uniform draws."""
    pts = np.sort(rng.uniform(0.0, 1.0, size=(count, n)), axis=1)[:, ::-1]
    return np.ascontiguousarray(pts)


@lru_cache(maxsize=None)
def ordered_splits(
    total: int, first_size: int
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All splits of the positions 0..total-1 into two order-preserving blocks.

    Returns ``(first, second)`` pairs with ``first_size`` positions in
    ``first``; both blocks are ascending.  The count is
    binomial(total, first_size).
    """
    if not (0 <= first_size <= total):
        raise SimplexDomainError(
            f"block size {first_size} out of range for {total} positions"
        )
    return tuple(
        (chosen, tuple(i for i in range(total) if i not in chosen))
        for chosen in combinations(range(total), first_size)
    )


@lru_cache(maxsize=None)
def compositions(total: int, slots: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices of length ``slots`` whose entries sum to ``total``."""
    if slots == 0:
        return ((),) if total == 0 else ()
    out = []
    for bars in combinations_with_replacement(range(slots), total):
        vec = [0] * slots
        for b in bars:
            vec[b] += 1
        out.append(tuple(vec))
    return tuple(out)
