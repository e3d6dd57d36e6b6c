"""Volterra kernel series, their evaluation, and the induced gains.

A spatial Volterra series is a sum of multilinear integral terms

    F[u](x) = sum_n  int_{T_n(x)} f_n(x, xi) u(xi_1) ... u(xi_n) dxi,

with the order-n kernel f_n defined on the ordered simplex T_n(x).  The
same shape describes the plant nonlinearity, the state transformation,
and its inverse, so one module serves all three.

Every kernel is an exact polynomial (a
:class:`~volback.polynomial.SimplexPolyKernel`), and
:class:`VolterraKernelSeries` is the one place that decides so: it
refuses anything else, and a kernel whose order differs from its key,
with a :class:`SeriesDefinitionError` naming the order.  The mesh
evaluators, the gains and the simulator take a series, or build one
from a kernel table, and so inherit that check.

Each multilinear term is evaluated on a mesh by one evaluator, the
:class:`MeshCascade`: cumulative trapezoid sums (each nested integral
is one pass over the mesh) that share the inner passes between
monomials with equal trailing exponents.  Each order is read from them
as one weighted sum over its nodes, on the whole mesh or at x = 1
alone, where only the highest order skips its outermost pass; either
agrees with the nested trapezoid rule of each monomial alone to within
rounding.

Where every slot carries the same state (series profiles, the Picard
and Lipschitz loops, the simulator's plant and controller),
:class:`SeriesTerms` evaluates all orders with one cascade, whose trie
shares suffixes between orders.  The derivative and the derivative
matrix put a different factor in one slot, so they keep one cascade per
order.  Gauss quadrature on the simplex remains only for the kernel
norms (:func:`kernel_l2_sq`), behind the gains and the coupling-bound
check; no term is evaluated pointwise.

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
from typing import Dict, Mapping, Sequence

import numpy as np

from .polynomial import SimplexPolyKernel
from .simplex import QuadratureRule, simplex_nodes

GROWTH_SAMPLES = 200  # random points per order of check_growth_assumption
COUPLING_TOL = 1e-9  # slack of coupling_bound_check's squared norms


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


@dataclass
class VolterraKernelSeries:
    """A truncated Volterra kernel family {f_n} of orders 2 and above.

    ``kernels`` maps the order n to its exact polynomial, a
    :class:`SimplexPolyKernel` of order n.  This is the one place that
    decides what a kernel is: anything else, or a kernel whose order
    differs from its key, is a
    :class:`SeriesDefinitionError` naming the order.  An absent order is
    zero, so the lowest order present may lie above 2.  ``growth``
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
            if not isinstance(kern, SimplexPolyKernel):
                raise SeriesDefinitionError(
                    f"order-{n} kernel is a {type(kern).__name__}, not a polynomial kernel"
                )
            if kern.order != n:
                raise SeriesDefinitionError(f"order-{n} kernel has order {kern.order}")
            polys[n] = kern
        self.kernels = dict(sorted(polys.items()))
        if self.growth is not None:
            d, rho = self.growth
            if d <= 0 or rho <= 0:
                raise SeriesDefinitionError("growth constants must be positive")
            self.growth = (float(d), float(rho))

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(self.kernels)

    def kernel(self, n: int) -> SimplexPolyKernel:
        try:
            return self.kernels[n]
        except KeyError:
            raise SeriesDefinitionError(f"series has no order-{n} kernel") from None

    def is_zero(self) -> bool:
        return not self.kernels


class MeshCascade:
    """Nested trapezoid sums of polynomial multilinear terms on a mesh.

    Built once from the kernels of one or several orders ``{n: kernel}``
    and the uniform mesh, it evaluates the sum over every order n of

        sum c x**e int_0^x xi_1**a_1 f_1(xi_1) int_0^xi_1 ... f_n(xi_n) dxi

    over its monomials, c the float of numerator / den, innermost slot
    first, each level one cumulative trapezoid pass (exactly the
    mesh-aligned nested trapezoid rule).  Monomials with
    equal trailing exponents share their inner passes: the exponent
    tuples of all orders form one suffix trie, level j holding the
    length-(j+1) suffixes, and each level is one batched ``cumsum`` over
    its nodes.  No order is below 2, as in every ``VolterraKernelSeries``.

    Each order is read as weights over a prefix of one trie level,
    contracted over the nodes.  The trie inserts orders in increasing
    order, so order n's own nodes are the first of level n - 1, and its
    profile reads them with rows of c x**e (``rows``).  At x = 1
    (``folds``) an order below the highest reads the last column of that
    level, with the sum of c per node; only the highest order's
    outermost integral is one weighted sum over level n - 2 instead, with
    c x**alphas[0] and the trapezoid weights in the rows, so the deepest
    level is not integrated at all.  Both reads are the nested trapezoid
    rule summed in another order than one monomial at a time: they agree
    with it, and the x = 1 value with the profile's last value, to within
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

    def __init__(self, orders: Mapping[int, SimplexPolyKernel], mesh: np.ndarray) -> None:
        self.dx = mesh[1] - mesh[0]
        self.size = mesh.size
        orders = {n: orders[n] for n in sorted(orders) if orders[n].monomials}
        keys = [key for kern in orders.values() for key in kern.monomials]
        exps = {e for e, _ in keys}.union(*(alphas for _, alphas in keys))
        pw = {a: mesh**a for a in exps}
        # Trie levels, innermost slot first: (x**alpha per node, parent node per node).
        self.levels: list[tuple[np.ndarray, np.ndarray | None]] = []
        # Per order: its monomials' nodes at level n - 1, their
        # coefficients and x**e on the mesh, from which the rows are built.
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
                kern = orders[j + 1]
                self.reads[j + 1] = (
                    np.array([nodes[a] for _, a in kern.monomials], dtype=int),
                    np.array([c / kern.den for c in kern.monomials.values()]),
                    np.array([pw[e] for e, _ in kern.monomials]),
                )
        self._batch: list | None = None
        self._block = np.empty(0)
        self._work: list[tuple[np.ndarray, ...]] = []
        self._totals: list[np.ndarray] = []

    @cached_property
    def rows(self) -> Dict[int, np.ndarray]:
        """Per order n, the weight rows of its profile over the first nodes
        of level n - 1: row p is the sum of c x**e over the monomials whose
        alphas is node p.  Built on first use, so cascades read only at
        x = 1 never pay for it."""
        return {
            n: _rows(ids, coef[:, None] * e_pows)
            for n, (ids, coef, e_pows) in self.reads.items()
        }

    @cached_property
    def folds(self) -> Dict[int, np.ndarray]:
        """Per order n, its weights at x = 1 (where x**e is 1).  An order
        below the highest has a vector over the first nodes of level n - 1,
        whose last column it reads: weight p is the sum of c over the
        monomials whose alphas is node p.  The highest order has the one
        fold, a block of rows over the first nodes of level n - 2, up to the
        last parent of one of its monomials: row p is the trapezoid weights
        (dx/2, dx, ..., dx, dx/2) times the sum of c x**alphas[0] over the
        monomials whose inner suffix alphas[1:] is node p.  Built on first
        use, so cascades read only as profiles never pay for it."""
        top = len(self.levels)  # the highest order
        folds = {n: _rows(ids, coef) for n, (ids, coef, _) in self.reads.items() if n < top}
        if top:
            ids, coef, _ = self.reads[top]
            # A monomial's node at level top - 1 holds x**alphas[0], and its
            # parent is the node of alphas[1:].
            pows, parent = self.levels[top - 1]
            weights = np.full(self.size, self.dx)
            weights[[0, -1]] *= 0.5
            folds[top] = _rows(parent[ids], coef[:, None] * pows[ids]) * weights
        return folds

    def _buffers(self, factors: Sequence[np.ndarray]) -> list:
        """Per level, for the batch shapes of ``factors``: the integrals
        (..., nodes, M) with views of their flat memory (the gathered
        parent integrals at its start, the trapezoid terms from its
        second slot on) and of their columns past the first, and g, a
        view of a scratch area that the levels share.

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
        scratch_rows = max(rows, default=0)
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

    def profile(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        """The sum of the orders on the whole mesh, shape (..., M)."""
        totals = self._integrals(factors, len(self.levels))
        parts = (_contract(totals[n - 1], rows) for n, rows in self.rows.items())
        return sum(parts, np.zeros(self.size))

    def endpoint(self, factors: Sequence[np.ndarray]) -> np.ndarray | float:
        """The sum of the orders at x = 1 only, shape (...).  An order n
        below the highest is sum_p w[p] T[p, -1], with T the integrals of
        its own level n - 1; the highest order is sum_{p,i} fold[p, i]
        T[p, i] f_i, with T those of level n - 2 and f its outermost factor
        (see ``folds``), which only it reads."""
        top = len(self.levels)
        totals = self._integrals(factors, top - 1)
        parts = (
            totals[n - 1][..., : len(w), -1] @ w
            if n < top
            else np.vecdot(totals[n - 2][..., : len(w), :] * w, factors[-n][..., None, :]).sum(-1)
            for n, w in self.folds.items()
        )
        return sum(parts, 0.0)


def _rows(ids: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Weight rows: row p is the sum, from 0 in the order given, of the
    ``terms`` whose id is p, for p up to the largest id (a weight per id
    when ``terms`` is a vector)."""
    rows = np.zeros((ids.max() + 1,) + terms.shape[1:])
    np.add.at(rows, ids, terms)
    return rows


def _contract(totals: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_p rows[p, i] totals[..., p, i] over the first len(rows) nodes."""
    return np.einsum("...pi,pi->...i", totals[..., : len(rows), :], rows)


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
    ``profile`` and ``endpoint`` add the orders in increasing order; at
    x = 1 an order below the highest reads the last column of its own
    level and only the highest is folded.  Both agree with a loop over
    per-order cascades, and ``endpoint`` with the profile's last value,
    to within rounding.
    """

    def __init__(self, series: VolterraKernelSeries, mesh: np.ndarray) -> None:
        self.cascade = MeshCascade(series.kernels, mesh)

    def profile(self, values: np.ndarray) -> np.ndarray:
        """F[u] on the whole mesh at the mesh samples ``values`` of u."""
        return self.cascade.profile([values] * len(self.cascade.levels))

    def endpoint(self, values: np.ndarray) -> float:
        """F[u](1) at the mesh samples ``values`` of u."""
        return float(self.cascade.endpoint([values] * len(self.cascade.levels)))


def series_profile(series: VolterraKernelSeries, u: GridFunction) -> GridFunction:
    """The full profile x -> F[u](x) on the mesh of ``u``.

    The cascade is built for this call (its set-up cost does not depend
    on the mesh size).
    """
    return GridFunction(SeriesTerms(series, u.mesh).profile(u.values))


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
        term = MeshCascade({n: kern}, u.mesh)
        for slot in range(n):
            out += term.profile([h if i == slot else u.values for i in range(n)])
    return out


def linearized_profile(
    series: VolterraKernelSeries, u: GridFunction, h: GridFunction
) -> GridFunction:
    """Profile of the derivative of F at ``u`` applied to ``h``."""
    u._check_mesh(h)
    return GridFunction(linearized_values(series, u, h.values))


def kernel_l2_sq(kern: SimplexPolyKernel, rule: QuadratureRule) -> float:
    """Squared L2 norm of a kernel over T_n(1), n its order."""
    pts, w = simplex_nodes(kern.order, 1.0, rule)
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
    return GainFunctions(orders, tuple(kernel_l2_sq(series.kernel(n), rule) for n in orders))


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
    seed: int


def check_growth_assumption(series: VolterraKernelSeries, seed: int = 0) -> GrowthReport:
    """Sample |f_n(x, xi)| rho^(n-1) / (n! D) over random points.

    The series must carry growth metadata (D, rho).  For each order the
    upper limit x is drawn uniformly from [0, 1] and the coordinates
    uniformly from T_n(x), at ``GROWTH_SAMPLES`` points; the report
    passes iff the worst observed ratio is at most 1.
    """
    if series.growth is None:
        raise SeriesDefinitionError("series has no growth metadata (D, rho)")
    d, rho = series.growth
    rng = np.random.default_rng(seed)
    per_order: Dict[int, float] = {}
    worst = 0.0
    for n, kern in series.kernels.items():
        xs = rng.uniform(0.0, 1.0, size=GROWTH_SAMPLES)
        pts = -np.sort(-rng.uniform(0.0, 1.0, size=(GROWTH_SAMPLES, n)), axis=1) * xs[:, None]
        vals = np.abs(np.asarray(kern(xs, pts), dtype=float))
        peak = float(np.max(vals))
        try:
            ratio = peak * rho ** (n - 1) / (math.factorial(n) * d)
        except OverflowError:  # rho ** (n - 1) beyond the float range
            ratio = math.inf if peak else 0.0
        per_order[n] = ratio
        worst = max(worst, ratio)
    return GrowthReport(worst, worst <= 1.0, per_order, seed)


@dataclass
class CouplingBoundReport:
    """One instance of the coupling-term norm bound."""

    n: int
    m: int
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
) -> CouplingBoundReport:
    """Check the L2 bound on the order-(n, m) coupling term at x = 1.

    The bound reads

        ||B||^2 <= [(n+1)! (n-m+1) / ((m+1)! (n-m)!)]
                   * (x^m sup|f_m|^2 / m!) * ||k_{n-m+1}||^2,

    e.g. combinatorial coefficient 8 and overall factor 4 for
    (n, m) = (3, 2) with a unit kernel bound; it passes within
    ``COUPLING_TOL``.
    """
    if not (2 <= m <= n):
        raise ValueError(f"need 2 <= m <= n, got m={m}, n={n}")
    coeff = (
        math.factorial(n + 1)
        * (n - m + 1)
        / (math.factorial(m + 1) * math.factorial(n - m))
    )
    rhs = coeff * (f_m_sup**2 / math.factorial(m)) * k_lower_norm**2
    lhs = b_norm_estimate**2
    return CouplingBoundReport(n, m, coeff, lhs, rhs, lhs <= rhs + COUPLING_TOL)
