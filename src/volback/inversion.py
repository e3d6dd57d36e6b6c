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

from .charkernels import build_controller_kernels, pdae_plant
from .simplex import QuadratureRule
from .volterra import (
    GainFunctions,
    GridFunction,
    SeriesTerms,
    VolterraKernelSeries,
    build_gains,
    gain_ell,
    gain_k,
    linearized_values,
)

GAIN_RULE = QuadratureRule(12)  # the kernel norms behind the gains
TARGET_ELL = 0.5  # the value of ell at the balanced radius s
S_CAP = 1e6
PICARD_TOL = 1e-10
PICARD_MAX_ITERS = 200
LIPSCHITZ_TRIALS = 20
LIPSCHITZ_MESH_POINTS = 201
LIPSCHITZ_TOL = 1e-6
NEUMANN_ITERS = 60
NEUMANN_SEED = 0


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

    def __post_init__(self) -> None:
        if self.s <= 0 or self.rho_L <= 0:
            raise InversionDomainError("radii must be positive")


def choose_radius(gains: GainFunctions) -> InversionConfig:
    """Balance the Lipschitz gain: find s with ell(s) = TARGET_ELL.

    Bisection on [0, S_CAP]; ell is increasing in s.  The certified
    target radius is then rho_L = (s - 2 k(s)) / 2, which saturates the
    budget 2 rho_L + 2 k(s) <= s.  A series with all-zero norms has
    ell = 0 everywhere; s = 1 is returned with rho_L = s/2.  If even
    tiny s gives ell >= 1 there is no contraction ball at all.
    """
    if gain_ell(gains, S_CAP) <= TARGET_ELL:
        s = S_CAP if any(v > 0 for v in gains.norms_sq) else 1.0
        return InversionConfig(s=s, rho_L=(s - 2 * gain_k(gains, s)) / 2)
    if gain_ell(gains, 1e-12) >= 1.0:
        raise NoContractionError("ell(s) >= 1 for every representable s")
    lo, hi = 0.0, S_CAP
    while gain_ell(gains, hi) < TARGET_ELL:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gain_ell(gains, mid) < TARGET_ELL:
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


def builtin_series() -> VolterraKernelSeries:
    """The builtin plant's order-3 controller series, by the recursion."""
    return VolterraKernelSeries(build_controller_kernels(pdae_plant(), 3))


def builtin_design() -> tuple[VolterraKernelSeries, GainFunctions, InversionConfig]:
    """The builtin plant's order-3 controller series, its gains under
    ``GAIN_RULE`` and the balanced radius (:func:`choose_radius`)."""
    series = builtin_series()
    gains = build_gains(series, GAIN_RULE)
    return series, gains, choose_radius(gains)


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
) -> InversionResult:
    """Solve u - K[u] = w by Picard iteration, keeping diagnostics.

    Requires ||w||^2 < rho_L.  Iterates u <- w + K[u] until successive
    iterates differ by less than ``PICARD_TOL`` in L2, at most
    ``PICARD_MAX_ITERS`` times.
    """
    with np.errstate(over="ignore"):  # a norm that overflows is inf, refused below
        norm_sq = w.l2_norm() ** 2
    if norm_sq >= config.rho_L:
        raise InversionDomainError(
            f"target norm^2 {norm_sq:.4g} is not below rho_L {config.rho_L:.4g}"
        )
    terms = SeriesTerms(series, w.mesh)
    u = w
    residuals: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, PICARD_MAX_ITERS + 1):
        nxt = w + GridFunction(terms.profile(u.values))
        step = (nxt - u).l2_norm()
        residuals.append(step)
        u = nxt
        if step < PICARD_TOL:
            converged = True
            break
    return InversionResult(u, iterations, residuals, converged)


def dk_matrix(series: VolterraKernelSeries, u: GridFunction) -> np.ndarray:
    """Dense mesh matrix of h -> DK[u] h (columns are basis responses).

    One batched linearized profile of all basis vectors at once (rows of
    the identity, memory O(M^2) per cascade trie node).
    """
    return np.ascontiguousarray(linearized_values(series, u, np.eye(u.size)).T)


def neumann_norm_estimate(series: VolterraKernelSeries, u: GridFunction) -> float:
    """L2 operator norm of (I - DK[u])^{-1}, estimated on the mesh.

    Builds the dense derivative matrix, inverts it once, then runs power
    iteration (``NEUMANN_ITERS`` steps from a seeded random start) on
    the symmetrized inverse in the trapezoid-weighted inner product.
    """
    m = u.size
    a = np.eye(m) - dk_matrix(series, u)
    wts = np.full(m, u.dx)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    sq = np.sqrt(wts)
    # Similarity transform makes the weighted norm the euclidean norm.
    a_w = sq[:, None] * a / sq[None, :]
    inv = np.linalg.inv(a_w)
    rng = np.random.default_rng(NEUMANN_SEED)
    v = rng.standard_normal(m)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(NEUMANN_ITERS):
        z = inv.T @ (inv @ v)
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
    seed: int


def lipschitz_check(
    series: VolterraKernelSeries,
    gains: GainFunctions,
    s: float,
    seed: int = 0,
) -> LipschitzReport:
    """Sample ||K[u] - K[v]|| / ||u - v|| against sqrt(ell(s)).

    Draws ``LIPSCHITZ_TRIALS`` random pairs on the uniform mesh of
    ``LIPSCHITZ_MESH_POINTS`` with L2 norms at most sqrt(s) (smooth random
    profiles, rescaled) and reports the worst observed ratio; passes
    iff it stays below sqrt(ell(s)) + ``LIPSCHITZ_TOL``.
    """
    rng = np.random.default_rng(seed)
    mesh = np.linspace(0.0, 1.0, LIPSCHITZ_MESH_POINTS)
    terms = SeriesTerms(series, mesh)
    threshold = math.sqrt(gain_ell(gains, s))
    worst = 0.0
    for _ in range(LIPSCHITZ_TRIALS):
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
        dk = GridFunction(terms.profile(u.values) - terms.profile(v.values)).l2_norm()
        worst = max(worst, dk / du)
    return LipschitzReport(worst, threshold, worst <= threshold + LIPSCHITZ_TOL, seed)
