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
    VolterraKernelSeries,
    build_gains,
    gain_ell,
    gain_k,
)

GAIN_RULE = QuadratureRule(12)  # the kernel norms behind the gains
TARGET_ELL = 0.5  # the value of ell at the balanced radius s
S_CAP = 1e6
PICARD_TOL = 1e-10
PICARD_MAX_ITERS = 200
LIPSCHITZ_TRIALS = 20
LIPSCHITZ_MESH_POINTS = 201
NEUMANN_RESOLUTION = 1e-8  # the least lambda_min / lambda_max neumann_norm_estimate resolves


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
    lo, hi = 0.0, S_CAP  # ell(S_CAP) is not <= TARGET_ELL: see the early return
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
    return build_controller_kernels(pdae_plant(), 3)


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
    ``PICARD_MAX_ITERS`` times, on the value arrays, by the series' cascade
    on the mesh of ``w`` (:meth:`VolterraKernelSeries.cascade`).  Each
    step is one :class:`GridFunction`, which takes its norm and refuses an
    iterate that is not finite.
    """
    with np.errstate(over="ignore"):  # a norm that overflows is inf, refused below
        norm_sq = w.l2_norm() ** 2
    if norm_sq >= config.rho_L:
        raise InversionDomainError(
            f"target norm^2 {norm_sq:.4g} is not below rho_L {config.rho_L:.4g}"
        )
    terms = series.cascade(w.size)
    u = w.values
    residuals: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, PICARD_MAX_ITERS + 1):
        nxt = w.values + terms.profile(u)
        # A non-finite profile makes nxt, and so the step, non-finite,
        # which the step's GridFunction refuses.
        step = GridFunction(nxt - u).l2_norm()
        residuals.append(step)
        u = nxt
        if step < PICARD_TOL:
            converged = True
            break
    return InversionResult(GridFunction(u), iterations, residuals, converged)


def dk_matrix(series: VolterraKernelSeries, u: GridFunction) -> np.ndarray:
    """Dense mesh matrix of h -> DK[u] h (columns are basis responses).

    DK[u] is causal, so the matrix is lower triangular.  The series'
    cascade on the mesh of ``u`` (:meth:`VolterraKernelSeries.cascade`,
    shared with its profiles) takes the identity's columns through its
    tangent pass in blocks (:meth:`MeshCascade.tangent_matrix`): a block
    of columns from c on integrates only the mesh points from c - 1 on,
    and takes as many columns as fit those points' work arrays in
    ``volterra.DK_BLOCK_BYTES`` (one column at least).  Every block reuses
    one workspace and the value integrals of ``u``, formed once.
    """
    return series.cascade(u.size).tangent_matrix(u.values)


def neumann_norm_estimate(series: VolterraKernelSeries, u: GridFunction) -> float:
    """L2 operator norm of (I - DK[u])^{-1} on the mesh.

    With A the dense matrix of I - DK[u] in the trapezoid-weighted inner
    product, the norm is 1 / sigma_min(A) = 1 / sqrt(lambda_min(A^T A)),
    the extreme eigenvalues of the Gram A^T A from a symmetric
    eigensolver.  The Gram squares A's condition number: forming it and
    its eigenvalues moves lambda_min by about eps * lambda_max
    (eps = 2**-52).  So lambda_min is resolved only where it exceeds
    ``NEUMANN_RESOLUTION`` * lambda_max, and there the estimate is within
    about eps / (2 NEUMANN_RESOLUTION), some 1e-8, relative of 1 / sigma_min
    from a singular value decomposition.  Otherwise, or when an entry of
    A or of the Gram is not finite, A is singular to working precision
    and the estimate is inf.

    A is formed in the array ``dk_matrix`` returns, with the rounding of
    I - DK[u] and of sq[:, None] * A / sq[None, :].
    """
    m = u.size
    wts = np.full(m, u.dx)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    sq = np.sqrt(wts)
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: refused below
        a = dk_matrix(series, u)
        np.subtract(0.0, a, out=a)
        a.flat[:: m + 1] += 1.0  # 1 - d rounds as -d + 1
        # Similarity transform makes the weighted norm the euclidean norm.
        a *= sq[:, None]
        a /= sq[None, :]
        gram = a.T @ a
    if not np.all(np.isfinite(gram)):
        return math.inf
    lam = np.linalg.eigvalsh(gram)
    return 1.0 / math.sqrt(lam[0]) if lam[0] > NEUMANN_RESOLUTION * lam[-1] else math.inf


def lipschitz_check(series: VolterraKernelSeries, s: float, seed: int = 0) -> float:
    """The worst sampled ratio ||K[u] - K[v]|| / ||u - v|| on the ball of
    squared radius ``s``, to compare with sqrt(ell(s)).

    Draws ``LIPSCHITZ_TRIALS`` random pairs on the uniform mesh of
    ``LIPSCHITZ_MESH_POINTS`` with L2 norms at most sqrt(s) (smooth random
    profiles, rescaled), and maps all of them with one batched profile.
    """
    rng = np.random.default_rng(seed)
    mesh = np.linspace(0.0, 1.0, LIPSCHITZ_MESH_POINTS)
    modes = [np.sin((k + 1) * math.pi * mesh) for k in range(4)]
    states = []
    for _ in range(2 * LIPSCHITZ_TRIALS):
        coeffs = rng.standard_normal(4)
        vals = sum(c * mode for c, mode in zip(coeffs, modes)) + rng.standard_normal() * 0.3
        g = GridFunction(vals)
        target = math.sqrt(s) * rng.uniform(0.2, 0.999)
        if g.l2_norm() > 0:
            g = g.scale(target / g.l2_norm())
        states.append(g.values)
    images = series.cascade(LIPSCHITZ_MESH_POINTS).profile(np.array(states))
    worst = 0.0
    for u, v, ku, kv in zip(states[::2], states[1::2], images[::2], images[1::2]):
        du = GridFunction(u - v).l2_norm()
        if du == 0:
            continue
        worst = max(worst, GridFunction(ku - kv).l2_norm() / du)
    return worst
