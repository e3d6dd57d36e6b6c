"""Inversion of the state transformation by Picard iteration.

The transformation w = u - K[u] is invertible on a ball whose radius
comes from the gain functions: pick s with ell(s) = 1/2 (bisection),
then any target w with ||w||^2 < rho_L := (s - 2 k(s)) / 2 is reached by
the fixed-point iteration

    u_0 = w,   u_{j+1} = w + K[u_j],

which contracts in L2 at rate sqrt(ell(s)).  The Frechet derivative of
K at u applies the kernel multilinearly with one slot replaced:

    (DK[u] h)(x) = sum_n int_{T_n(x)} k_n(x, xi)
                   sum_j h(xi_j) prod_{i != j} u(xi_i) dxi,

and (I - DK[u]) has a Neumann-series inverse with norm at most
1 / (1 - sqrt(ell(s))) on the same ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simplex import QuadratureRule
from .volterra import (
    GainFunctions,
    GridFunction,
    QuadratureNode,
    VolterraKernelSeries,
    gain_ell,
    gain_k,
    linearized_values,
    series_profile,
)


class NoContractionError(ValueError):
    """The Lipschitz gain never drops below 1: no contraction ball exists."""


class InversionDomainError(ValueError):
    """The requested inversion lies outside the certified ball."""


@dataclass(frozen=True)
class InversionConfig:
    """Parameters of one inversion run.

    ``s`` is the squared-radius parameter the gains were balanced at,
    ``rho_L`` the certified squared radius for targets w.
    """

    s: float
    rho_L: float
    tol: float = 1e-10
    max_iters: int = 200

    def __post_init__(self) -> None:
        if self.s <= 0 or self.rho_L <= 0:
            raise InversionDomainError("radii must be positive")
        if self.tol <= 0 or self.max_iters < 1:
            raise InversionDomainError("tolerance and iteration cap must be positive")


def choose_radius(
    gains: GainFunctions, target_ell: float = 0.5, s_cap: float = 1e6
) -> InversionConfig:
    """Balance the Lipschitz gain: find s with ell(s) = target_ell.

    Bisection on [0, s_cap]; ell is increasing in s.  The certified
    target radius is then rho_L = (s - 2 k(s)) / 2, which saturates the
    budget 2 rho_L + 2 k(s) <= s.  A series with all-zero norms has
    ell = 0 everywhere; s = 1 is returned with rho_L = s/2.  If even
    tiny s gives ell >= 1 there is no contraction ball at all.
    """
    if not (0 < target_ell < 1):
        raise InversionDomainError("target_ell must lie in (0, 1)")
    if gain_ell(gains, s_cap) <= target_ell:
        s = s_cap if any(v > 0 for v in gains.norms_sq) else 1.0
        return InversionConfig(s=s, rho_L=(s - 2 * gain_k(gains, s)) / 2)
    if gain_ell(gains, 1e-12) >= 1.0:
        raise NoContractionError("ell(s) >= 1 for every representable s")
    lo, hi = 0.0, s_cap
    while gain_ell(gains, hi) < target_ell:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gain_ell(gains, mid) < target_ell:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    rho_l = (s - 2 * gain_k(gains, s)) / 2
    if rho_l <= 0:
        raise NoContractionError(
            f"balanced radius s={s:.4g} leaves no target ball (k(s) too large)"
        )
    return InversionConfig(s=s, rho_L=rho_l)


@dataclass
class InversionResult:
    """Picard iterate history of one inversion."""

    u: GridFunction
    iterations: int
    residuals: list[float]
    converged: bool

    @property
    def contraction_ratios(self) -> list[float]:
        return [
            b / a for a, b in zip(self.residuals, self.residuals[1:]) if a > 0
        ]


def invert_with_info(
    w: GridFunction,
    series: VolterraKernelSeries,
    config: InversionConfig,
    rule: QuadratureRule | None = None,
) -> InversionResult:
    """Solve u - K[u] = w by Picard iteration, keeping diagnostics.

    Requires ||w||^2 < rho_L.  Iterates u <- w + K[u] until successive
    iterates differ by less than ``tol`` in L2 or the cap is reached.
    """
    if w.l2_norm() ** 2 >= config.rho_L:
        raise InversionDomainError(
            f"target norm^2 {w.l2_norm()**2:.4g} is not below rho_L {config.rho_L:.4g}"
        )
    u = w
    residuals: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        nxt = w + series_profile(series, u, rule)
        step = (nxt - u).l2_norm()
        residuals.append(step)
        u = nxt
        if step < config.tol:
            converged = True
            break
    return InversionResult(u, iterations, residuals, converged)


def invert(
    w: GridFunction,
    series: VolterraKernelSeries,
    config: InversionConfig,
    rule: QuadratureRule | None = None,
) -> GridFunction:
    """Solve u - K[u] = w on the certified ball; see invert_with_info."""
    return invert_with_info(w, series, config, rule).u


def frechet_dk(
    series: VolterraKernelSeries,
    u: GridFunction,
    h: GridFunction,
    x: float,
    rule: QuadratureRule,
) -> float:
    """(DK[u] h)(x) by direct quadrature at a single point."""
    if not (0.0 <= x <= 1.0):
        raise InversionDomainError(f"evaluation point must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    u._check_mesh(h)
    total = 0.0
    for n, kern in series.kernels.items():
        node = QuadratureNode(kern, n, x, rule, u.mesh)
        for slot in range(n):
            total += float(node.value([h.values if i == slot else u.values for i in range(n)]))
    return total


def dk_matrix(
    series: VolterraKernelSeries, u: GridFunction, rule: QuadratureRule | None = None
) -> np.ndarray:
    """Dense mesh matrix of h -> DK[u] h (columns are basis responses).

    One batched linearized profile of all basis vectors at once (rows of
    the identity, memory O(M^2) per cascade trie node or quadrature
    node); non-polynomial kernels need ``rule``.
    """
    return np.ascontiguousarray(linearized_values(series, u, np.eye(u.size), rule).T)


def neumann_norm_estimate(
    series: VolterraKernelSeries,
    u: GridFunction,
    rule: QuadratureRule | None = None,
    iters: int = 60,
    seed: int = 0,
) -> float:
    """L2 operator norm of (I - DK[u])^{-1}, estimated on the mesh.

    Builds the dense derivative matrix, then runs power iteration on
    the symmetrized inverse in the trapezoid-weighted inner product.
    """
    m = u.size
    a = np.eye(m) - dk_matrix(series, u, rule)
    wts = np.full(m, u.dx)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    sq = np.sqrt(wts)
    # Similarity transform makes the weighted norm the euclidean norm.
    a_w = sq[:, None] * a / sq[None, :]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        y = np.linalg.solve(a_w, v)
        z = np.linalg.solve(a_w.T, y)
        nz = np.linalg.norm(z)
        if nz == 0:
            return 0.0
        est = math.sqrt(nz)
        v = z / nz
    return est


@dataclass
class LipschitzReport:
    """Sampled Lipschitz ratios of K on the ball of squared radius s."""

    worst_ratio: float
    threshold: float
    passed: bool
    trials: int
    seed: int


def lipschitz_check(
    series: VolterraKernelSeries,
    gains: GainFunctions,
    s: float,
    trials: int = 30,
    mesh_points: int = 201,
    seed: int = 0,
    tol: float = 1e-6,
    rule: QuadratureRule | None = None,
) -> LipschitzReport:
    """Sample ||K[u] - K[v]|| / ||u - v|| against sqrt(ell(s)).

    Draws random pairs with L2 norms at most sqrt(s) (smooth random
    profiles, rescaled) and reports the worst observed ratio; passes
    iff it stays below sqrt(ell(s)) + tol.
    """
    rng = np.random.default_rng(seed)
    mesh = np.linspace(0.0, 1.0, mesh_points)
    threshold = math.sqrt(gain_ell(gains, s))
    worst = 0.0
    for _ in range(trials):
        pair = []
        for _ in range(2):
            coeffs = rng.standard_normal(4)
            vals = sum(
                c * np.sin((k + 1) * math.pi * mesh)
                for k, c in enumerate(coeffs)
            ) + rng.standard_normal() * 0.3
            g = GridFunction(vals)
            target = math.sqrt(s) * rng.uniform(0.2, 0.999)
            if g.l2_norm() > 0:
                g = g.scale(target / g.l2_norm())
            pair.append(g)
        u, v = pair
        du = (u - v).l2_norm()
        if du == 0:
            continue
        dk = (series_profile(series, u, rule) - series_profile(series, v, rule)).l2_norm()
        worst = max(worst, dk / du)
    return LipschitzReport(worst, threshold, worst <= threshold + tol, trials, seed)
