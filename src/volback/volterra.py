"""Volterra kernel series, their evaluation, and the induced gains.

A spatial Volterra series is a sum of multilinear integral terms

    F[u](x) = sum_n  int_{T_n(x)} f_n(x, xi) u(xi_1) ... u(xi_n) dxi,

with the order-n kernel f_n defined on the ordered simplex T_n(x).  The
same shape describes the plant nonlinearity, the state transformation,
and its inverse, so one module serves all three.

Each multilinear term is evaluated on a mesh by one of two evaluators
with the same interface (``profile`` for the whole mesh, ``endpoint``
for x = 1 only; factors may carry leading batch axes), chosen by
:func:`term_evaluator`.  Polynomial kernels get a :class:`MeshCascade`,
cumulative trapezoid sums (each nested integral is one pass over the
mesh) that share the inner passes between monomials with equal trailing
exponents.  Every other kernel gets a :class:`QuadratureTerm`: simplex
quadrature at each mesh node with an explicit rule, the factors
interpolated linearly; without a rule such a kernel is a
:class:`SeriesDefinitionError`.  Profiles, derivatives, the derivative
matrix and the simulator all go through this choice;
:func:`eval_series` and the point derivative use the single-x
:class:`QuadratureNode` directly.

Gains: with ``norm_sq[n]`` the squared L2 norm of the order-n kernel
over T_n(1), the series

    k(s)   = sum_n 2 n**2 norm_sq[n] s**n / n!
    ell(s) = sum_n 2 n**4 norm_sq[n] s**(n-1) / (n-1)!

bound the transformation and its Lipschitz modulus on the ball of
squared radius ``s``.  Note ``ell``'s coefficient for s**(n-1) is n**3
times ``k``'s coefficient for s**n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Mapping, Sequence

import numpy as np

from .polynomial import SimplexPolyKernel
from .simplex import (
    QuadratureRule,
    SimplexDomainError,
    SimplexPoint,
    simplex_nodes,
)


class SeriesDefinitionError(ValueError):
    """A kernel series was assembled with inconsistent orders or data."""


@dataclass
class GridFunction:
    """A function on the uniform mesh x_i = i/(M-1), i = 0..M-1."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("grid functions need a 1-D array with at least 2 values")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function values must be finite")

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def mesh(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.values.size)

    @property
    def dx(self) -> float:
        return 1.0 / (self.values.size - 1)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.trapezoid(self.values**2, dx=self.dx)))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def interp(self, xq) -> np.ndarray:
        return np.interp(xq, self.mesh, self.values)

    def scale(self, c: float) -> "GridFunction":
        return GridFunction(self.values * c)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_mesh(other)
        return GridFunction(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_mesh(other)
        return GridFunction(self.values - other.values)

    def _check_mesh(self, other: "GridFunction") -> None:
        if self.size != other.size:
            raise ValueError(f"mesh mismatch: {self.size} vs {other.size}")

    @staticmethod
    def zeros(m: int) -> "GridFunction":
        return GridFunction(np.zeros(m))

    @staticmethod
    def from_callable(func: Callable[[np.ndarray], np.ndarray], m: int) -> "GridFunction":
        x = np.linspace(0.0, 1.0, m)
        return GridFunction(np.asarray(func(x), dtype=float))


def _wrap_pointwise(func: Callable) -> Callable:
    """Adapt a SimplexPoint-based kernel to the array calling convention."""

    def wrapped(x, xi: np.ndarray) -> np.ndarray:
        xi = np.atleast_2d(xi)
        xs = np.broadcast_to(np.asarray(x, dtype=float), (xi.shape[0],))
        return np.array(
            [func(SimplexPoint(float(xv), tuple(row))) for xv, row in zip(xs, xi)]
        )

    wrapped.vectorized = True  # type: ignore[attr-defined]
    return wrapped


@dataclass
class VolterraKernelSeries:
    """A truncated Volterra kernel family {f_n}, orders starting at 2.

    ``kernels`` maps the order n to an evaluator.  Evaluators are either
    array-aware callables ``f(x, xi)`` (marked with a ``vectorized``
    attribute; :class:`SimplexPolyKernel` and kernel nodes qualify) or
    plain functions of a :class:`~volback.simplex.SimplexPoint`, which
    get wrapped.  ``growth`` optionally carries the (D, rho) pair of the
    plant growth assumption.
    """

    kernels: Dict[int, Callable]
    growth: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        norm: Dict[int, Callable] = {}
        for n, kern in self.kernels.items():
            n = int(n)
            if n < 2:
                raise SeriesDefinitionError(
                    f"series orders start at 2, got an order-{n} kernel"
                )
            if not getattr(kern, "vectorized", False):
                kern = _wrap_pointwise(kern)
            norm[n] = kern
        if norm and min(norm) != 2:
            raise SeriesDefinitionError(
                f"lowest order present must be 2, got {min(norm)}"
            )
        self.kernels = dict(sorted(norm.items()))
        if self.growth is not None:
            d, rho = self.growth
            if d <= 0 or rho <= 0:
                raise SeriesDefinitionError("growth constants must be positive")
            self.growth = (float(d), float(rho))

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(self.kernels)

    @property
    def n_max(self) -> int:
        return max(self.kernels) if self.kernels else 1

    def kernel(self, n: int) -> Callable:
        try:
            return self.kernels[n]
        except KeyError:
            raise SeriesDefinitionError(f"series has no order-{n} kernel") from None

    def truncated(self, n_cap: int) -> "VolterraKernelSeries":
        return VolterraKernelSeries(
            {n: k for n, k in self.kernels.items() if n <= n_cap}, self.growth
        )

    def is_zero(self) -> bool:
        return not self.kernels


def _monomial_map(kern: Callable):
    """Extract the exact monomial dict if the kernel is polynomial."""
    mono = getattr(kern, "monomials", None)
    if isinstance(mono, dict):
        return mono
    inner = getattr(kern, "polynomial", None)
    if inner is not None:
        mono = getattr(inner, "monomials", None)
        if isinstance(mono, dict):
            return mono
    return None


def eval_series(
    series: VolterraKernelSeries,
    u: GridFunction,
    x: float,
    rule: QuadratureRule,
) -> float:
    """Evaluate F[u](x) by quadrature, interpolating ``u`` linearly.

    Each order contributes ``int_{T_n(x)} f_n(x, xi) prod u(xi_i)``.
    ``x`` must lie in [0, 1]; ``x == 0`` contributes nothing.
    """
    if not (0.0 <= x <= 1.0):
        raise SimplexDomainError(f"evaluation point must lie in [0, 1], got {x}")
    if x == 0.0 or series.is_zero():
        return 0.0
    return sum(
        float(QuadratureNode(kern, n, x, rule, u.mesh).value([u.values] * n))
        for n, kern in series.kernels.items()
    )


class QuadratureNode:
    """One multilinear term at a single upper limit ``x``, by simplex quadrature.

    ``value(factors)`` is int_{T_n(x)} kern(x, xi) prod_i factors[i](xi_i) dxi
    over the nodes of ``rule``, each factor a mesh sample interpolated
    linearly exactly as ``np.interp`` does.  The nodes, weights, kernel
    values and bracketing mesh cells are computed once; factors may
    carry leading batch axes.
    """

    def __init__(
        self, kern: Callable, n: int, x: float, rule: QuadratureRule, mesh: np.ndarray
    ) -> None:
        pts, self.weights = simplex_nodes(n, x, rule)
        self.kvals = np.asarray(kern(x, pts), dtype=float) if len(pts) else np.zeros(0)
        lo = np.clip(np.searchsorted(mesh, pts, side="right") - 1, 0, mesh.size - 1)
        hi = np.minimum(lo + 1, mesh.size - 1)
        span = np.where(hi > lo, mesh[hi] - mesh[lo], 1.0)  # the last node: its sample
        offset = pts - mesh[lo]
        self.cells = [(lo[:, i], hi[:, i], span[:, i], offset[:, i]) for i in range(n)]

    def value(self, factors: Sequence[np.ndarray]) -> np.ndarray | float:
        prod = 1.0
        for f, (lo, hi, span, offset) in zip(factors, self.cells):
            low = f[..., lo]
            prod = prod * ((f[..., hi] - low) / span * offset + low)
        return np.dot(self.kvals * prod, self.weights)


class QuadratureTerm:
    """Per-node simplex quadrature of one multilinear term on a mesh.

    The evaluator for kernels without monomials: one
    :class:`QuadratureNode` per mesh node, built on first use, so
    ``endpoint`` evaluates the kernel at x = 1 only.
    """

    def __init__(
        self, kern: Callable, n: int, mesh: np.ndarray, rule: QuadratureRule
    ) -> None:
        self.size = mesh.size
        self.node = lru_cache(maxsize=None)(
            lambda j: QuadratureNode(kern, n, float(mesh[j]), rule, mesh)
        )

    def profile(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        """The term on the whole mesh, shape (..., M)."""
        return np.stack([self.node(j).value(factors) for j in range(self.size)], axis=-1)

    def endpoint(self, factors: Sequence[np.ndarray]) -> np.ndarray | float:
        """The term at x = 1 only."""
        return self.node(self.size - 1).value(factors)


def _sum_from_zero(terms: np.ndarray, axis: int) -> np.ndarray:
    """0.0 + t_0 + t_1 + ... along ``axis``, left to right.

    cumsum adds sequentially.  Starting it from 0.0 would change only the
    sign of partial sums that are zero, which the final ``0.0 +`` clears,
    so the bits equal those of a loop that starts from 0.0.
    """
    return 0.0 + terms.cumsum(axis).take(-1, axis)


class MeshCascade:
    """Nested trapezoid sums of one polynomial multilinear term on a mesh.

    Built once from a kernel's monomials ``{(e, alphas): c}`` and the
    uniform mesh, it evaluates

        sum c x**e int_0^x xi_1**a_1 f_1(xi_1) int_0^xi_1 ... f_n(xi_n) dxi

    innermost slot first, each level one cumulative trapezoid pass
    (exactly the mesh-aligned nested trapezoid rule).  Monomials with
    equal trailing exponents share their inner passes: the exponent
    tuples form a suffix trie, and each trie level is one batched
    ``cumsum`` over its distinct suffixes.  ``factors[i]`` is the mesh
    sample in slot i; factors may carry leading batch axes.
    """

    def __init__(self, monomials: Mapping, mesh: np.ndarray) -> None:
        self.dx = mesh[1] - mesh[0]
        self.size = mesh.size
        keys = list(monomials)
        exps = {e for e, _ in keys}.union(*(alphas for _, alphas in keys))
        pw = {a: mesh**a for a in exps}
        # Trie levels, innermost slot first: (x**alpha per node, parent node per node).
        self.levels: list[tuple[np.ndarray, np.ndarray | None]] = []
        index: Dict[tuple, int] = {}
        for i in reversed(range(len(keys[0][1]) if keys else 0)):
            nodes: Dict[tuple, int] = {}
            for _, alphas in keys:
                nodes.setdefault(alphas[i:], len(nodes))
            parent = np.array([index[s[1:]] for s in nodes]) if index else None
            self.levels.append((np.array([pw[s[0]] for s in nodes]), parent))
            index = nodes
        self.nodes = np.array([index[a] for _, a in keys], dtype=int)
        self.coef = np.array([float(c) for c in monomials.values()])
        self.e_pows = np.array([pw[e] for e, _ in keys])
        self.e_ends = np.array([pw[e][-1] for e, _ in keys])

    def _outer_terms(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        """Trapezoid terms of the outermost level, shape (..., nodes, M-1)."""
        trap = None
        for (pows, parent), f in zip(self.levels, reversed(factors)):
            g = f[..., None, :] * pows
            if trap is not None:
                g = g * self._integrate(trap).take(parent, -2)
            # dx * (g[1:] + g[:-1]) / 2.0: stored outputs are pinned to its rounding.
            trap = g[..., 1:] + g[..., :-1]
            trap *= self.dx
            trap /= 2.0
        return trap

    @staticmethod
    def _integrate(trap: np.ndarray) -> np.ndarray:
        out = np.zeros(trap.shape[:-1] + (trap.shape[-1] + 1,))
        trap.cumsum(-1, out=out[..., 1:])
        return out

    def profile(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        """The term on the whole mesh, shape (..., M)."""
        if not self.levels:
            return np.zeros(self.size)
        inner = self._integrate(self._outer_terms(factors)).take(self.nodes, -2)
        return _sum_from_zero(self.coef[:, None] * inner * self.e_pows, -2)

    def endpoint(self, factors: Sequence[np.ndarray]) -> np.ndarray | float:
        """The term at x = 1 only; equals ``profile(factors)[..., -1]`` bit for bit."""
        if not self.levels:
            return 0.0
        ends = self._outer_terms(factors).cumsum(-1)[..., -1].take(self.nodes, -1)
        return _sum_from_zero(self.coef * ends * self.e_ends, -1)


def trie_nodes(kern: Callable) -> int:
    """Nodes of the suffix trie a :class:`MeshCascade` of ``kern`` builds
    (its distinct trailing exponent tuples); 0 for a kernel without
    monomials."""
    mono = _monomial_map(kern) or {}
    return len({alphas[i:] for _, alphas in mono for i in range(len(alphas))})


def term_evaluator(
    kern: Callable, n: int, mesh: np.ndarray, rule: QuadratureRule | None = None
) -> MeshCascade | QuadratureTerm:
    """The mesh evaluator of one order-n term: the cascade if ``kern``
    is polynomial, else per-node quadrature with ``rule``."""
    mono = _monomial_map(kern)
    if mono is not None:
        return MeshCascade(mono, mesh)
    if rule is None:
        raise SeriesDefinitionError(
            f"order-{n} kernel is not polynomial; evaluating it needs a quadrature rule"
        )
    return QuadratureTerm(kern, n, mesh, rule)


def series_terms(
    series: VolterraKernelSeries, mesh: np.ndarray, rule: QuadratureRule | None = None
) -> Dict[int, MeshCascade | QuadratureTerm]:
    """One :func:`term_evaluator` per order of ``series``."""
    return {n: term_evaluator(kern, n, mesh, rule) for n, kern in series.kernels.items()}


def profile_of(
    terms: Mapping[int, MeshCascade | QuadratureTerm], values: np.ndarray
) -> np.ndarray:
    """Sum of the term profiles at the mesh samples ``values``."""
    out = np.zeros(values.size)
    for n, term in terms.items():
        out += term.profile([values] * n)
    return out


def series_profile(
    series: VolterraKernelSeries,
    u: GridFunction,
    rule: QuadratureRule | None = None,
) -> GridFunction:
    """The full profile x -> F[u](x) on the mesh of ``u``.

    The evaluators are built for this call (a cascade's set-up cost does
    not depend on the mesh size); non-polynomial kernels need ``rule``.
    """
    return GridFunction(profile_of(series_terms(series, u.mesh, rule), u.values))


def linearized_values(
    series: VolterraKernelSeries,
    u: GridFunction,
    h: np.ndarray,
    rule: QuadratureRule | None = None,
) -> np.ndarray:
    """The derivative of F at ``u`` applied to the mesh samples ``h``.

    The derivative of an order-n term replaces one ``u`` factor by ``h``
    in each of the n slots and sums the results.  ``h`` may carry
    leading batch axes (the result then has them too).
    """
    out = np.zeros(h.shape[:-1] + (u.size,))
    for n, term in series_terms(series, u.mesh, rule).items():
        for slot in range(n):
            out += term.profile([h if i == slot else u.values for i in range(n)])
    return out


def linearized_profile(
    series: VolterraKernelSeries,
    u: GridFunction,
    h: GridFunction,
    rule: QuadratureRule | None = None,
) -> GridFunction:
    """Profile of the derivative of F at ``u`` applied to ``h``."""
    u._check_mesh(h)
    return GridFunction(linearized_values(series, u, h.values, rule))


def kernel_l2_sq(series: VolterraKernelSeries, n: int, rule: QuadratureRule) -> float:
    """Squared L2 norm of the order-n kernel over T_n(1)."""
    kern = series.kernel(n)
    pts, w = simplex_nodes(n, 1.0, rule)
    vals = np.asarray(kern(1.0, pts), dtype=float)
    return float(np.dot(vals * vals, w))


@dataclass
class GainFunctions:
    """Cached kernel norms plus optional tail-bound constants.

    ``norms_sq[i]`` is the squared L2 norm of the kernel of order
    ``orders[i]``.  ``tail_constants`` is an optional (C, D, Upsilon)
    triple for the norm bound norm_sq[n] <= n! D^2 C^(2(n-1)) e^(2 Upsilon),
    enabling tail estimates past the stored truncation.
    """

    orders: tuple[int, ...]
    norms_sq: tuple[float, ...]
    tail_constants: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        self.orders = tuple(int(n) for n in self.orders)
        self.norms_sq = tuple(float(v) for v in self.norms_sq)
        if len(self.orders) != len(self.norms_sq):
            raise SeriesDefinitionError("orders and norms_sq must have equal length")
        if any(v < 0 for v in self.norms_sq):
            raise SeriesDefinitionError("squared norms cannot be negative")
        if any(n < 2 for n in self.orders):
            raise SeriesDefinitionError("gain orders start at 2")

    def k_coefficient(self, n: int) -> float:
        """Coefficient of s**n in k(s)."""
        i = self.orders.index(n)
        return 2.0 * n**2 * self.norms_sq[i] / math.factorial(n)

    def ell_coefficient(self, n: int) -> float:
        """Coefficient of s**(n-1) in ell(s); equals n**3 * k_coefficient(n)."""
        i = self.orders.index(n)
        return 2.0 * n**4 * self.norms_sq[i] / math.factorial(n - 1)

    def rho_estimate(self) -> float:
        """Empirical convergence-radius estimate for k(s).

        Cauchy-Hadamard applied to the stored coefficients only, so this
        is an estimate, not a certificate: rho ~ 1 / max_n c_n**(1/n).
        """
        rates = [
            self.k_coefficient(n) ** (1.0 / n)
            for n in self.orders
            if self.k_coefficient(n) > 0
        ]
        if not rates:
            return math.inf
        return 1.0 / max(rates)

    def tail_k(self, s: float) -> float | None:
        """Upper bound on the k(s) tail past the stored orders, if known."""
        return self._tail(s, power=2, shift=0)

    def tail_ell(self, s: float) -> float | None:
        return self._tail(s, power=5, shift=1)

    def _tail(self, s: float, power: int, shift: int) -> float | None:
        if self.tail_constants is None:
            return None
        if s < 0:
            raise ValueError(f"gain argument must be nonnegative, got {s}")
        c, d, ups = self.tail_constants
        if c * c * s >= 1.0:
            return math.inf
        total = 0.0
        n = (max(self.orders) if self.orders else 1) + 1
        scale = 2.0 * d * d * math.exp(2.0 * ups)
        while n < 10000:
            term = scale * n**power * c ** (2 * (n - 1)) * s ** (n - shift)
            total += term
            if term <= 1e-18 * max(total, 1.0):
                break
            n += 1
        return total


def build_gains(
    series: VolterraKernelSeries,
    rule: QuadratureRule,
    tail_constants: tuple[float, float, float] | None = None,
) -> GainFunctions:
    """Compute kernel norms for every stored order and package them."""
    orders = series.orders
    norms = tuple(kernel_l2_sq(series, n, rule) for n in orders)
    return GainFunctions(orders, norms, tail_constants)


def gain_k(gains: GainFunctions, s: float) -> float:
    """k(s) = sum 2 n^2 ||k_n||^2 s^n / n! over the stored orders."""
    if s < 0:
        raise ValueError(f"gain argument must be nonnegative, got {s}")
    return sum(gains.k_coefficient(n) * s**n for n in gains.orders)


def gain_ell(gains: GainFunctions, s: float) -> float:
    """ell(s) = sum 2 n^4 ||k_n||^2 s^(n-1) / (n-1)! over the stored orders."""
    if s < 0:
        raise ValueError(f"gain argument must be nonnegative, got {s}")
    return sum(gains.ell_coefficient(n) * s ** (n - 1) for n in gains.orders)


@dataclass
class GrowthReport:
    """Outcome of sampling the plant growth assumption."""

    worst_ratio: float
    passed: bool
    per_order: Dict[int, float]
    samples: int
    seed: int


def check_growth_assumption(
    series: VolterraKernelSeries, samples: int = 200, seed: int = 0
) -> GrowthReport:
    """Sample |f_n(x, xi)| rho^(n-1) / (n! D) over random points.

    The series must carry growth metadata (D, rho).  For each order the
    upper limit x is drawn uniformly from [0, 1] and the coordinates
    uniformly from T_n(x); the report passes iff the worst observed
    ratio is at most 1.
    """
    if series.growth is None:
        raise SeriesDefinitionError("series has no growth metadata (D, rho)")
    d, rho = series.growth
    rng = np.random.default_rng(seed)
    per_order: Dict[int, float] = {}
    worst = 0.0
    for n, kern in series.kernels.items():
        xs = rng.uniform(0.0, 1.0, size=samples)
        pts = -np.sort(-rng.uniform(0.0, 1.0, size=(samples, n)), axis=1) * xs[:, None]
        vals = np.abs(np.asarray(kern(xs, pts), dtype=float))
        ratio = float(np.max(vals)) * rho ** (n - 1) / (math.factorial(n) * d)
        per_order[n] = ratio
        worst = max(worst, ratio)
    return GrowthReport(worst, worst <= 1.0, per_order, samples, seed)


@dataclass
class CouplingBoundReport:
    """One instance of the coupling-term norm bound."""

    n: int
    m: int
    x: float
    coefficient: float
    lhs_sq: float
    rhs_sq: float
    passed: bool


def coupling_bound_check(
    n: int,
    m: int,
    k_lower_norm: float,
    f_m_sup: float,
    b_norm_estimate: float,
    x: float = 1.0,
    tol: float = 1e-9,
) -> CouplingBoundReport:
    """Check the L2 bound on the order-(n, m) coupling term.

    The bound reads

        ||B||^2 <= [(n+1)! (n-m+1) / ((m+1)! (n-m)!)]
                   * (x^m sup|f_m|^2 / m!) * ||k_{n-m+1}||^2,

    e.g. combinatorial coefficient 8 and overall factor 4 for
    (n, m, x) = (3, 2, 1) with a unit kernel bound.
    """
    if not (2 <= m <= n):
        raise ValueError(f"need 2 <= m <= n, got m={m}, n={n}")
    coeff = (
        math.factorial(n + 1)
        * (n - m + 1)
        / (math.factorial(m + 1) * math.factorial(n - m))
    )
    rhs = coeff * (x**m * f_m_sup**2 / math.factorial(m)) * k_lower_norm**2
    lhs = b_norm_estimate**2
    return CouplingBoundReport(n, m, x, coeff, lhs, rhs, lhs <= rhs + tol)
