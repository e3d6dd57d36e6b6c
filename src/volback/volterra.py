"""Volterra kernel series, their evaluation, and the induced gains.

A spatial Volterra series is a sum of multilinear integral terms

    F[u](x) = sum_n  int_{T_n(x)} f_n(x, xi) u(xi_1) ... u(xi_n) dxi,

with the order-n kernel f_n defined on the ordered simplex T_n(x).  The
same shape describes the plant nonlinearity, the state transformation,
and its inverse, so one module serves all three.

Every kernel is an exact polynomial (a
:class:`~volback.polynomial.SimplexPolyKernel`), and
:class:`VolterraKernelSeries` is the one place that decides so: it
unwraps kernel nodes to their polynomials and refuses anything else,
and a kernel whose order differs from its key, with a
:class:`SeriesDefinitionError` naming the order.  The mesh
evaluators, the gains and the simulator take a series, or build one
from a kernel table, and so inherit that check.

Each multilinear term is evaluated on a mesh by one evaluator, the
:class:`MeshCascade`: cumulative trapezoid sums (each nested integral
is one pass over the mesh) that share the inner passes between
monomials with equal trailing exponents.  At x = 1 alone the outermost
pass is one weighted sum instead.

Where every slot carries the same state (series profiles, the Picard
and Lipschitz loops, the simulator's plant and controller),
:class:`SeriesTerms` evaluates all orders with one cascade, whose trie
shares suffixes between orders.  The derivative and the derivative
matrix put a different factor in one slot, so they keep one cascade per
order.  :func:`eval_series` and the point derivative integrate the
kernels at a single x by Gauss quadrature on the simplex
(:class:`QuadratureNode`); they serve as pointwise references.

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
from functools import cached_property
from typing import Callable, Dict, Mapping, Sequence

import numpy as np

from .polynomial import SimplexPolyKernel
from .simplex import (
    QuadratureRule,
    SimplexDomainError,
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


@dataclass
class VolterraKernelSeries:
    """A truncated Volterra kernel family {f_n}, orders starting at 2.

    ``kernels`` maps the order n to its exact polynomial, a
    :class:`SimplexPolyKernel` of order n; a kernel node (anything with
    such a polynomial as its ``polynomial``) is unwrapped to it.  This is
    the one place that decides what a kernel is: anything else, or a
    kernel whose order differs from its key, is a
    :class:`SeriesDefinitionError` naming the order.  ``growth``
    optionally carries the (D, rho) pair of the plant growth assumption.
    """

    kernels: Dict[int, SimplexPolyKernel]
    growth: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        polys: Dict[int, SimplexPolyKernel] = {}
        for n, kern in self.kernels.items():
            n = int(n)
            if n < 2:
                raise SeriesDefinitionError(
                    f"series orders start at 2, got an order-{n} kernel"
                )
            poly = getattr(kern, "polynomial", kern)
            if not isinstance(poly, SimplexPolyKernel):
                raise SeriesDefinitionError(
                    f"order-{n} kernel is a {type(kern).__name__}, not a polynomial kernel"
                )
            if poly.order != n:
                raise SeriesDefinitionError(f"order-{n} kernel has order {poly.order}")
            polys[n] = poly
        if polys and min(polys) != 2:
            raise SeriesDefinitionError(
                f"lowest order present must be 2, got {min(polys)}"
            )
        self.kernels = dict(sorted(polys.items()))
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

    def kernel(self, n: int) -> SimplexPolyKernel:
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
        # Gauss nodes lie inside [0, x), so each has a mesh cell [lo, lo + 1].
        lo = np.searchsorted(mesh, pts, side="right") - 1
        hi = lo + 1
        span = mesh[hi] - mesh[lo]
        offset = pts - mesh[lo]
        self.cells = [(lo[:, i], hi[:, i], span[:, i], offset[:, i]) for i in range(n)]

    def value(self, factors: Sequence[np.ndarray]) -> np.ndarray | float:
        prod = 1.0
        for f, (lo, hi, span, offset) in zip(factors, self.cells):
            low = f[..., lo]
            prod = prod * ((f[..., hi] - low) / span * offset + low)
        return np.dot(self.kvals * prod, self.weights)


def _sum_from_zero(terms: np.ndarray, axis: int) -> np.ndarray:
    """0.0 + t_0 + t_1 + ... along ``axis``, left to right; ``terms`` is
    overwritten with its running sums.

    cumsum adds sequentially.  Starting it from 0.0 would change only the
    sign of partial sums that are zero, which the final ``0.0 +`` clears,
    so the bits equal those of a loop that starts from 0.0.
    """
    return 0.0 + terms.cumsum(axis, out=terms).take(-1, axis)


class MeshCascade:
    """Nested trapezoid sums of polynomial multilinear terms on a mesh.

    Built once from the monomials of one or several orders
    ``{n: {(e, alphas): c}}`` and the uniform mesh, it evaluates for
    every order n

        sum c x**e int_0^x xi_1**a_1 f_1(xi_1) int_0^xi_1 ... f_n(xi_n) dxi

    innermost slot first, each level one cumulative trapezoid pass
    (exactly the mesh-aligned nested trapezoid rule).  Monomials with
    equal trailing exponents share their inner passes: the exponent
    tuples of all orders form one suffix trie, level j holding the
    length-(j+1) suffixes, and each level is one batched ``cumsum`` over
    its nodes.  Order n reads its sums at level n - 1, so its profile is
    bit for bit the nested trapezoid rule of each monomial alone (outside
    the subnormal range, see ``_integrals``).  Orders start at 2, as in
    every ``VolterraKernelSeries``: the x = 1 value of order n reads
    level n - 2.

    At x = 1 only, the outermost integral of order n is one weighted sum
    over the integrals of level n - 2, with the coefficients, x**alphas[0]
    and the trapezoid weights folded into one row per node (``folds``,
    ``endpoints``).  That value is the same trapezoid rule summed in
    another order: it agrees with the profile's last value to within
    rounding, not bit for bit.

    ``factors`` has one mesh sample per level, outermost first; level j
    reads ``factors[-1 - j]``, so for a single order ``factors[i]`` is
    slot i, and an order below the deepest reads the last n factors.
    Orders share a suffix only in value, so a cascade of several orders
    is meant for equal factors in every slot.  Factors may carry leading
    batch axes.  The work arrays are one block, allocated again only when
    the batch axes change its size; each call overwrites them, and no
    result aliases them.
    """

    def __init__(self, orders: Mapping[int, Mapping], mesh: np.ndarray) -> None:
        self.dx = mesh[1] - mesh[0]
        self.size = mesh.size
        orders = {n: orders[n] for n in sorted(orders) if orders[n]}
        keys = [key for mono in orders.values() for key in mono]
        exps = {e for e, _ in keys}.union(*(alphas for _, alphas in keys))
        pw = {a: mesh**a for a in exps}
        # Trie levels, innermost slot first: (x**alpha per node, parent node per node).
        self.levels: list[tuple[np.ndarray, np.ndarray | None]] = []
        # Per order: its monomials' nodes at level n - 1, their
        # coefficients and x**e on the mesh.
        self.reads: Dict[int, tuple[np.ndarray, ...]] = {}
        index: Dict[tuple, int] = {}
        for j in range(max(orders, default=0)):
            nodes: Dict[tuple, int] = {}
            for _, alphas in keys:
                if len(alphas) > j:
                    nodes.setdefault(alphas[-1 - j :], len(nodes))
            parent = np.array([index[s[1:]] for s in nodes]) if index else None
            self.levels.append((np.array([pw[s[0]] for s in nodes]), parent))
            index = nodes
            if j + 1 in orders:
                mono = orders[j + 1]
                self.reads[j + 1] = (
                    np.array([nodes[a] for _, a in mono], dtype=int),
                    np.array([float(c) for c in mono.values()]),
                    np.array([pw[e] for e, _ in mono]),
                )
        self._batch: list | None = None
        self._block = np.empty(0)
        self._work: list[tuple[np.ndarray, ...]] = []
        self._terms: Dict[int, np.ndarray] = {}
        self._totals: list[np.ndarray] = []

    @cached_property
    def folds(self) -> Dict[int, np.ndarray]:
        """Per order n, the weight rows of its x = 1 value (see
        ``endpoints``), shape (nodes at level n - 2, M): row p is the
        trapezoid weights (dx/2, dx, ..., dx, dx/2) times the sum of
        c x**alphas[0] over the monomials whose inner suffix alphas[1:] is
        node p (x**e is 1 at x = 1).  Built on first use, so cascades
        read only as profiles never pay for it."""
        weights = np.full(self.size, self.dx)
        weights[[0, -1]] *= 0.5
        folds = {}
        for n, (ids, coef, _) in self.reads.items():
            # A monomial's node at level n - 1 holds x**alphas[0], and its
            # parent is the node of alphas[1:].  Rows add up in monomial
            # order, from 0.
            pows, parent = self.levels[n - 1]
            fold = np.zeros((len(self.levels[n - 2][0]), self.size))
            np.add.at(fold, parent[ids], coef[:, None] * pows[ids])
            folds[n] = fold * weights
        return folds

    def _buffers(self, factors: Sequence[np.ndarray]) -> list:
        """Per level, for the batch shapes of ``factors``: the integrals
        (..., nodes, M) with views of their flat memory (the gathered
        parent integrals at its start, the trapezoid terms from its
        second slot on) and of their columns past the first, and g, a
        view of a scratch area that the levels share.  Per order, a view
        of the same scratch area for its monomial terms.

        All of it lies in one block, sized as if every level carried the
        batch axes of all factors, so the calls of a linearization,
        which move the batched factor from slot to slot, reuse one block
        instead of fragmenting the heap."""
        batch = [f.shape for f in factors]
        if batch == self._batch:
            return self._work
        shapes, shape = [], ()
        for (pows, _), f in zip(self.levels, reversed(factors)):
            prev, shape = shape, np.broadcast_shapes(shape, f.shape[:-1])
            shapes.append((prev + pows.shape, shape + pows.shape))
        rows = [len(pows) for pows, _ in self.levels]
        scratch_rows = max(rows + [len(e) for _, _, e in self.reads.values()], default=0)
        width = math.prod(shape) * self.size  # one row with every batch axis
        if self._block.size != width * (scratch_rows + sum(rows)):
            self._block = np.empty(width * (scratch_rows + sum(rows)))
        scratch = self._block[: width * scratch_rows]
        start = scratch.size
        self._batch, self._work = batch, []
        for gathered_shape, level_shape in shapes:
            size = math.prod(level_shape)
            flat = self._block[start : start + size]
            start += size
            total = flat.reshape(level_shape)
            g = scratch[:size].reshape(level_shape)
            gathered = flat[: math.prod(gathered_shape)].reshape(gathered_shape)
            self._work.append((total, gathered, flat[1:], total[..., 1:], g, g.reshape(-1)))
        self._terms = {}
        for n, (_, _, e_pows) in self.reads.items():
            terms_shape = shapes[n - 1][1][:-2] + e_pows.shape
            self._terms[n] = scratch[: math.prod(terms_shape)].reshape(terms_shape)
        self._totals = [w[0] for w in self._work]
        return self._work

    def _integrals(self, factors: Sequence[np.ndarray], depth: int) -> list[np.ndarray]:
        """The cumulative integrals of levels 0..depth-1, shape (..., nodes, M)."""
        work = self._buffers(factors)
        half_dx = 0.5 * self.dx
        prev = None
        for (pows, parent), f, (total, gathered, flat, sums, g, flat_g) in zip(
            self.levels[:depth], reversed(factors), work
        ):
            np.multiply(f[..., None, :], pows, out=g)
            if prev is not None:
                g *= prev.take(parent, -2, gathered, "clip")
            # dx * (g[1:] + g[:-1]) / 2.0 per node: stored outputs are pinned
            # to its rounding (halving is exact outside the subnormal range,
            # so one product with dx / 2 rounds as the two steps do).  Formed
            # over the flat arrays, so each node's first column holds a term
            # mixing two nodes; it is reset to the integral from 0 to 0.
            np.add(flat_g[1:], flat_g[:-1], out=flat)
            flat *= half_dx
            total[..., 0] = 0.0
            sums.cumsum(-1, out=sums)
            prev = total
        return self._totals

    def profiles(self, factors: Sequence[np.ndarray]) -> Dict[int, np.ndarray]:
        """Each order's term on the whole mesh, shape (..., M)."""
        totals = self._integrals(factors, len(self.levels))
        out = {}
        for n, (ids, coef, e_pows) in self.reads.items():
            terms = totals[n - 1].take(ids, -2, self._terms[n], "clip")
            terms *= coef[:, None]
            terms *= e_pows
            out[n] = _sum_from_zero(terms, -2)
        return out

    def endpoints(self, factors: Sequence[np.ndarray]) -> Dict[int, np.ndarray]:
        """Each order's term at x = 1 only, shape (...).

        Order n's term is sum_{p,i} fold[p, i] f_i T[p, i], with T the
        integrals of level n - 2 and f the outermost factor: its outermost
        integral is this one weighted sum, and the deepest level is not
        integrated at all.  It agrees with the profile's last value to
        within rounding, not bit for bit.
        """
        totals = self._integrals(factors, len(self.levels) - 1)
        return {
            n: np.einsum(
                "...i,...i->...",
                np.einsum("...pi,pi->...i", totals[n - 2], fold),
                factors[-n],
            )
            for n, fold in self.folds.items()
        }

    def profile(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        """The sum of the orders on the whole mesh, shape (..., M)."""
        parts = self.profiles(factors)
        return _in_order(parts) if parts else np.zeros(self.size)

    def endpoint(self, factors: Sequence[np.ndarray]) -> np.ndarray | float:
        """The sum of the orders at x = 1 only."""
        parts = self.endpoints(factors)
        return _in_order(parts) if parts else 0.0


def _in_order(parts: Mapping[int, np.ndarray]):
    """The parts added in increasing order of their keys, as a loop over
    per-order evaluators adds them to 0.0.  A profile's part is a sum from
    0.0, so it is never -0.0, and starting from the first part instead of
    0.0 changes no bit."""
    total = None
    for n in sorted(parts):
        total = parts[n] if total is None else total + parts[n]
    return total


def trie_nodes(kern: SimplexPolyKernel) -> int:
    """Nodes of the suffix trie a :class:`MeshCascade` of ``kern`` alone
    builds (its distinct trailing exponent tuples).  A cascade of several
    orders shares suffixes between them, so it has at most the sum over
    its orders."""
    return len({alphas[i:] for _, alphas in kern.monomials for i in range(len(alphas))})


class SeriesTerms:
    """Every order of a kernel series on one mesh, at one state.

    One :class:`MeshCascade` of all orders, fed the same state in every
    slot, so a suffix common to several orders is integrated once.
    ``profile`` adds the orders in increasing order, each formed as its
    own cascade forms it, so it rounds bit for bit as a loop over
    per-order cascades would.  ``endpoint`` adds the orders' folded x = 1
    values (see :meth:`MeshCascade.endpoints`), which agree with the
    profile's last value to within rounding.
    """

    def __init__(self, kernels: Mapping[int, SimplexPolyKernel], mesh: np.ndarray) -> None:
        self.cascade = MeshCascade({n: k.monomials for n, k in kernels.items()}, mesh)

    def profile(self, values: np.ndarray) -> np.ndarray:
        """F[u] on the whole mesh at the mesh samples ``values`` of u."""
        return self.cascade.profile([values] * len(self.cascade.levels))

    def endpoint(self, values: np.ndarray) -> float:
        """F[u](1) at the mesh samples ``values`` of u."""
        return float(self.cascade.endpoint([values] * len(self.cascade.levels)))


def series_terms(series: VolterraKernelSeries, mesh: np.ndarray) -> SeriesTerms:
    """The :class:`SeriesTerms` of every order of ``series``."""
    return SeriesTerms(series.kernels, mesh)


def series_profile(series: VolterraKernelSeries, u: GridFunction) -> GridFunction:
    """The full profile x -> F[u](x) on the mesh of ``u``.

    The cascade is built for this call (its set-up cost does not depend
    on the mesh size).
    """
    return GridFunction(series_terms(series, u.mesh).profile(u.values))


def linearized_values(
    series: VolterraKernelSeries, u: GridFunction, h: np.ndarray
) -> np.ndarray:
    """The derivative of F at ``u`` applied to the mesh samples ``h``.

    The derivative of an order-n term replaces one ``u`` factor by ``h``
    in each of the n slots and sums the results, so each order gets its
    own cascade.  ``h`` may carry leading batch axes (the result then
    has them too).
    """
    out = np.zeros(h.shape[:-1] + (u.size,))
    for n, kern in series.kernels.items():
        term = MeshCascade({n: kern.monomials}, u.mesh)
        for slot in range(n):
            out += term.profile([h if i == slot else u.values for i in range(n)])
    return out


def linearized_profile(
    series: VolterraKernelSeries, u: GridFunction, h: GridFunction
) -> GridFunction:
    """Profile of the derivative of F at ``u`` applied to ``h``."""
    u._check_mesh(h)
    return GridFunction(linearized_values(series, u, h.values))


def kernel_l2_sq(series: VolterraKernelSeries, n: int, rule: QuadratureRule) -> float:
    """Squared L2 norm of the order-n kernel over T_n(1)."""
    kern = series.kernel(n)
    pts, w = simplex_nodes(n, 1.0, rule)
    vals = np.asarray(kern(1.0, pts), dtype=float)
    return float(np.dot(vals * vals, w))


@dataclass
class GainFunctions:
    """Cached kernel norms: ``norms_sq[i]`` is the squared L2 norm of the
    kernel of order ``orders[i]``."""

    orders: tuple[int, ...]
    norms_sq: tuple[float, ...]

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


def build_gains(series: VolterraKernelSeries, rule: QuadratureRule) -> GainFunctions:
    """Compute kernel norms for every stored order and package them."""
    orders = series.orders
    return GainFunctions(orders, tuple(kernel_l2_sq(series, n, rule) for n in orders))


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
