"""Volterra kernel series, their evaluation, and the induced gains.

A spatial Volterra series is a sum of multilinear integral terms

    F[u](x) = sum_n  int_{T_n(x)} f_n(x, xi) u(xi_1) ... u(xi_n) dxi,

with the order-n kernel f_n defined on the ordered simplex T_n(x).  The
same shape describes the plant nonlinearity, the state transformation,
and its inverse, so one module serves all three.

Every kernel is an exact polynomial (a
:class:`~volback.polynomial.SimplexPolyKernel`) with coefficients in
the floating-point range, and :class:`VolterraKernelSeries`, the
mapping {n: kernel}, is the one place that decides so: it refuses
anything else, and a kernel whose order differs from its key, with a
:class:`SeriesDefinitionError` naming the order.  Every kernel table is
a series: both kernel constructions return one, and the mesh
evaluators, the gains and the simulator take one.

Each multilinear term is evaluated on a mesh by one evaluator, the
:class:`MeshCascade`: cumulative trapezoid sums (each nested integral
is one pass over the mesh) that share the inner passes between
monomials with equal trailing exponents.  Each order is read from them
as one weighted sum over its nodes, on the whole mesh or at x = 1
alone, where only the highest order skips its outermost pass; either
agrees with the nested trapezoid rule of each monomial alone to within
rounding.

The cascade takes the state once, for every slot, and evaluates all
orders together, its trie sharing suffixes between orders.  A series
owns its cascade (:meth:`VolterraKernelSeries.cascade`): built on the
first evaluation at a mesh size and kept for the most recent size, it
serves every evaluator of that series there (series profiles, the
Picard and Lipschitz loops, the derivative matrix, the mild-solution
residual and the simulator's plant).  Only the simulator's controller,
which reads orders 2 up to its cap, builds a cascade of its own, once
per run.  The derivative at that state, summed over the slots, is formed
only as its matrix on the mesh, by one tangent pass of the same cascade
(:meth:`MeshCascade.tangent_matrix`), so its cost does not grow with
the number of slots; a derivative in one direction
(:func:`linearized_profile`) is that matrix times the direction.  The
matrix is causal (lower triangular), and each block of its columns
integrates only the mesh points where it can be nonzero.  Gauss
quadrature on the simplex remains only for the kernel norms
(:func:`kernel_l2_sq`), behind the gains and the coupling-bound check;
no term is evaluated pointwise.

Gains: with ``norm_sq[n]`` the squared L2 norm of the order-n kernel
over T_n(1), the series

    k(s)   = sum_n 2 n**2 norm_sq[n] s**n / n!
    ell(s) = sum_n 2 n**4 norm_sq[n] s**(n-1) / (n-1)!

bound the transformation and its Lipschitz modulus on the ball of
squared radius ``s``.  Note ``ell``'s coefficient for s**(n-1) is n**3
times ``k``'s coefficient for s**n.

Two of the checked inequalities are stated here as numbers:
:func:`check_growth_assumption` returns the worst sampled ratio to the
growth envelope, and :func:`coupling_bound_sq` the right-hand side of
the coupling-term bound.  :mod:`volback.verification` and the plant
parser compare them with their limits.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Dict

import numpy as np

from .polynomial import SimplexPolyKernel
from .simplex import QuadratureRule, simplex_nodes

GROWTH_SAMPLES = 200  # random points per order of check_growth_assumption
DK_BLOCK_BYTES = 1 << 20  # tangent work arrays of a tangent_matrix block, over its own mesh points


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


class VolterraKernelSeries(Mapping[int, SimplexPolyKernel]):
    """A truncated Volterra kernel family {f_n} of orders 2 and above: the
    read-only mapping {n: kernel}, in increasing order.

    Every kernel table is one, so it is checked once, when it is built.
    This is the one place that decides what a kernel is: an exact
    polynomial (a :class:`SimplexPolyKernel`) of its key's order whose
    coefficients lie within the floating-point range, since kernels are
    evaluated in floats.  Anything else is a
    :class:`SeriesDefinitionError` naming the order.  An absent order is
    zero, so the lowest order present may lie above 2, and an empty
    series is the zero series.  ``growth`` optionally carries the
    (D, rho) pair of the plant growth assumption.
    """

    def __init__(
        self,
        kernels: Mapping[int, SimplexPolyKernel],
        growth: tuple[float, float] | None = None,
    ) -> None:
        polys: Dict[int, SimplexPolyKernel] = {}
        for n, kern in kernels.items():
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
            try:
                for c in kern.monomials.values():
                    c / kern.den  # raises OverflowError past the float range
            except OverflowError:
                raise SeriesDefinitionError(
                    f"order-{n} kernel has coefficients beyond the floating-point range"
                ) from None
            polys[n] = kern
        self._kernels = dict(sorted(polys.items()))
        if growth is not None:
            d, rho = growth
            if d <= 0 or rho <= 0:
                raise SeriesDefinitionError("growth constants must be positive")
            growth = (float(d), float(rho))
        self.growth = growth
        self._cascade: MeshCascade | None = None

    def cascade(self, size: int) -> "MeshCascade":
        """The series' :class:`MeshCascade` on the uniform mesh of ``size``
        points, built on first use.  Only the most recently asked size is
        kept, so a series holds one cascade at most.

        The kept cascade holds, until the series is dropped or asked for
        another size, 8 bytes per mesh point for each trie node and each
        monomial, its rows, and the work block of its last call (8 bytes
        per mesh point for each node and each state of that call's batch):
        about 0.3 MiB for the builtin order-3 series at 801 points, 1.3 MiB
        after the batched Lipschitz check, and 219 MiB for the order-5
        controller series of a plant with orders 2 to 5 at 1601 points."""
        if self._cascade is None or self._cascade.size != size:
            self._cascade = MeshCascade(self, np.linspace(0.0, 1.0, size))
        return self._cascade

    def __getitem__(self, n: int) -> SimplexPolyKernel:
        return self._kernels[n]

    def __iter__(self) -> Iterator[int]:
        return iter(self._kernels)

    def __len__(self) -> int:
        return len(self._kernels)

    def __repr__(self) -> str:
        return f"VolterraKernelSeries({self._kernels!r}, growth={self.growth!r})"


class MeshCascade:
    """Nested trapezoid sums of polynomial multilinear terms on a mesh.

    Built from the kernels of one or several orders ``{n: kernel}``
    and the uniform mesh, it evaluates the sum over every order n of

        sum c x**e int_0^x xi_1**a_1 u(xi_1) int_0^xi_1 ... u(xi_n) dxi

    over its monomials at one state u, c the float of numerator / den,
    innermost slot first, each level one cumulative trapezoid pass
    (exactly the mesh-aligned nested trapezoid rule).  Monomials with
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

    ``profile`` and ``endpoint`` take the mesh samples of one state u,
    which fills every slot, with optional leading batch axes.  Their work
    arrays are one block, allocated again only when the batch axes
    change; each call overwrites it, and no result aliases it.  The
    derivative of the profile at u is formed as its matrix
    (``tangent_matrix``), which takes the unit directions in column
    blocks that share a workspace of their own and skip the points where
    the matrix is 0.

    A series keeps one cascade for its most recent mesh size
    (:meth:`VolterraKernelSeries.cascade`), and every evaluator of the
    series shares it.  That is safe: each call overwrites the work block,
    no result aliases it, and the integrals ``_integrals`` returns are
    read, into a new array, before the call that formed them returns, so
    no call leaves state that the next one, from whichever evaluator,
    could disturb or need.
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
        self._batch: tuple[int, ...] | None = None
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

    def _buffers(self, batch: tuple[int, ...]) -> list:
        """Per level, for the batch axes ``batch`` of the state, the
        integrals (..., nodes, M) and g laid out by ``_layout``: the
        integrals of every level in one block, after a scratch area for g
        that the levels share.  The block is allocated again only when the
        batch axes change."""
        if batch == self._batch:
            return self._work
        rows = [len(pows) for pows, _ in self.levels]
        width = math.prod(batch) * self.size  # one row
        start = width * max(rows, default=0)  # after g's scratch area
        block = np.empty(start + width * sum(rows))
        self._batch, self._work = batch, []
        for n in rows:
            self._work.append(_layout(block[start:], block, batch + (n, self.size)))
            start += width * n
        self._totals = [w[0] for w in self._work]
        return self._work

    def _trapezoid(self, work: tuple) -> None:
        """One cumulative trapezoid pass of a level, from its g into its
        integrals (``_layout``'s views)."""
        out, flat, sums, _, flat_g = work
        # dx * (g[1:] + g[:-1]) / 2.0 per node: stored outputs are pinned
        # to its rounding (halving is exact outside the subnormal range,
        # so one product with dx / 2 rounds as the two steps do).  Formed
        # over the flat arrays, so each node's first column holds a term
        # mixing two nodes; it is reset to the integral from 0 to 0.
        np.add(flat_g[1:], flat_g[:-1], out=flat)
        flat *= 0.5 * self.dx
        out[..., 0] = 0.0
        sums.cumsum(-1, out=sums)

    def _integrals(self, values: np.ndarray, depth: int) -> list[np.ndarray]:
        """The cumulative integrals of levels 0..depth-1 at the state
        ``values`` in every slot, shape (..., nodes, M)."""
        work = self._buffers(values.shape[:-1])
        prev = None
        for (pows, parent), level in zip(self.levels[:depth], work):
            total, _, _, g, _ = level
            np.multiply(values[..., None, :], pows, out=g)
            if prev is not None:
                # The gathered parents borrow the level's own integrals,
                # which the trapezoid pass then overwrites.
                g *= prev.take(parent, -2, total, "clip")
            self._trapezoid(level)
            prev = total
        return self._totals

    def profile(self, values: np.ndarray) -> np.ndarray:
        """The sum of the orders on the whole mesh at the state ``values``
        (..., M) in every slot, shape (..., M)."""
        totals = self._integrals(values, len(self.levels))
        parts = (_contract(totals[n - 1], rows) for n, rows in self.rows.items())
        return sum(parts, np.zeros(self.size))

    @property
    def tangent_point_bytes(self) -> int:
        """Bytes of the tangent's work arrays per direction and mesh point:
        two areas of floats (dT, which each level overwrites in turn, and the
        scratch g), each as wide as the widest level."""
        return 2 * 8 * max((len(pows) for pows, _ in self.levels), default=0)

    def _tangent_factors(self, values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Per level j, the factors of the tangent at ``values`` that no
        direction changes, on the whole mesh: x**a T_{j-1}[parent], which
        multiplies h (x**a at level 0, where T_{-1} = 1), and x**a u, which
        multiplies dT_{j-1}[parent] (None at level 0).  The value integrals
        T_j are formed here, once per state."""
        depth = len(self.levels)
        totals = self._integrals(values, depth - 1)
        return [
            (pows, None) if j == 0 else (pows * totals[j - 1].take(parent, -2), pows * values)
            for j, (pows, parent) in enumerate(self.levels)
        ]

    def _tangent_buffers(self, block: np.ndarray, width: int, points: int) -> list:
        """Per level, for a block of ``width`` columns over ``points`` mesh
        points: dT (width, nodes, points) and g laid out by ``_layout``.  dT
        lies in the first half of ``block`` and g in the second; level j
        forms its g from dT_{j-1} before its own dT overwrites it."""
        half = block[block.size // 2 :]
        return [_layout(block, half, (width, len(pows), points)) for pows, _ in self.levels]

    def _tangent_pass(self, factors: list, work: list, out: np.ndarray, start: int, lo: int) -> None:
        """Add the tangent over mesh points lo.. to ``out`` in the unit
        directions start, start + 1, ... (one per row of ``out``), each 1 at
        its own point and 0 elsewhere, so the term h x**a T_{j-1}[parent]
        is that point's factor alone.  dT is 0 at point ``lo``."""
        prev = None
        cols = np.arange(len(out))
        for j, ((_, parent), (inject, weight), level) in enumerate(zip(self.levels, factors, work)):
            dt, _, _, g, _ = level
            if prev is None:
                g.fill(0.0)
            else:
                prev.take(parent, -2, g, "clip")
                g *= weight[:, lo:]
            g[cols, :, cols + (start - lo)] += inject[:, cols + start].T
            self._trapezoid(level)
            if j + 1 in self.rows:
                out += _contract(dt, self.rows[j + 1][:, lo:])
            prev = dt

    def tangent_matrix(self, values: np.ndarray) -> np.ndarray:
        """The (M, M) matrix of the derivative of ``profile`` at ``values``
        in every slot: column c is the sum over the slots of the profile
        with the c-th unit vector h in that slot.

        Forward mode (Griewank and Walther, *Evaluating Derivatives*, 2nd
        ed., SIAM 2008) through the trie: level j's integrals
        T_j = I(u x**a T_{j-1}[parent]), I the trapezoid pass
        (``_trapezoid``), have the tangent

            dT_j = I(x**a u dT_{j-1}[parent] + h x**a T_{j-1}[parent]),

        with T_{-1} = 1 and dT_{-1} = 0, and each order reads dT with the
        rows of its profile.  Each level is linear in each factor, so this
        is the sum over the slots in exact arithmetic, and agrees with it to
        within rounding.

        The tangent is causal: in a direction that is 0 before point c, dT
        is 0 at every point before c, so the matrix is lower triangular.  A
        block of columns start.. is integrated only over the points from
        lo = max(start - 1, 0) on, with dT 0 at lo (the trapezoid term
        between points start - 1 and start is the first that can be
        nonzero).  The terms it skips are zeros, which add exactly 0 to each
        sequential ``cumsum``, and every column reads the same nodes in the
        same order, so each entry is the one a pass over all M points gives,
        bit for bit, wherever the factors are finite.

        A block takes as many columns as fit its work arrays over its own
        points in ``DK_BLOCK_BYTES`` (one column at least), so later blocks
        are wider.  The blocks share one workspace and the factors of
        ``_tangent_factors``, each formed once per call.
        """
        m = self.size
        point_bytes = self.tangent_point_bytes
        blocks, start = [], 0
        while start < m:
            lo = max(start - 1, 0)
            width = min(m - start, max(1, DK_BLOCK_BYTES // max(point_bytes * (m - lo), 1)))
            blocks.append((start, width, lo))
            start += width
        block = np.empty(max(width * (m - lo) for _, width, lo in blocks) * point_bytes // 8)
        factors = self._tangent_factors(values)
        out = np.zeros((m, m))
        for start, width, lo in blocks:
            work = self._tangent_buffers(block, width, m - lo)
            self._tangent_pass(factors, work, out[lo:, start : start + width].T, start, lo)
        return out

    def endpoint(self, values: np.ndarray) -> np.ndarray | float:
        """The sum of the orders at x = 1 only at the state ``values``
        (..., M) in every slot, shape (...).  An order n below the highest
        is sum_p w[p] T[p, -1], with T the integrals of its own level
        n - 1; the highest order is sum_{p,i} fold[p, i] T[p, i] u_i, with
        T those of level n - 2 (see ``folds``)."""
        top = len(self.levels)
        totals = self._integrals(values, top - 1)
        parts = (
            totals[n - 1][..., : len(w), -1] @ w
            if n < top
            else np.vecdot(totals[n - 2][..., : len(w), :] * w, values[..., None, :]).sum(-1)
            for n, w in self.folds.items()
        )
        return sum(parts, 0.0)


def _layout(area: np.ndarray, scratch: np.ndarray, shape: tuple[int, ...]) -> tuple:
    """A level's work arrays of ``shape`` (..., nodes, points): its
    integrals at the start of ``area``, with views of their flat memory
    past the first element and of their columns past the first, and g at
    the start of ``scratch``, with a flat view."""
    size = math.prod(shape)
    flat, flat_g = area[:size], scratch[:size]
    out = flat.reshape(shape)
    return out, flat[1:], out[..., 1:], flat_g.reshape(shape), flat_g


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


def series_profile(series: VolterraKernelSeries, u: GridFunction) -> GridFunction:
    """The full profile x -> F[u](x) on the mesh of ``u``, by the series'
    cascade on that mesh (:meth:`VolterraKernelSeries.cascade`), built on
    the first call at its size and shared with the series' other
    evaluators."""
    return GridFunction(series.cascade(u.size).profile(u.values))


def linearized_profile(
    series: VolterraKernelSeries, u: GridFunction, h: GridFunction
) -> GridFunction:
    """Profile of the derivative of F at ``u`` applied to ``h``: the
    derivative matrix of the series' cascade on the mesh of ``u``
    (:meth:`MeshCascade.tangent_matrix`) times the samples of ``h``.

    The derivative of an order-n term replaces one ``u`` factor by ``h``
    in each of the n slots and sums the results."""
    u._check_mesh(h)
    return GridFunction(series.cascade(u.size).tangent_matrix(u.values) @ h.values)


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
    return GainFunctions(tuple(series), tuple(kernel_l2_sq(k, rule) for k in series.values()))


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


def check_growth_assumption(series: VolterraKernelSeries, seed: int = 0) -> float:
    """The worst sampled ratio |f_n(x, xi)| rho^(n-1) / (n! D).

    The series must carry growth metadata (D, rho); the assumption holds
    on the samples iff the ratio is at most 1.  For each order the upper
    limit x is drawn uniformly from [0, 1] and the coordinates uniformly
    from T_n(x), at ``GROWTH_SAMPLES`` points.
    """
    if series.growth is None:
        raise SeriesDefinitionError("series has no growth metadata (D, rho)")
    d, rho = series.growth
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, kern in series.items():
        xs = rng.uniform(0.0, 1.0, size=GROWTH_SAMPLES)
        pts = -np.sort(-rng.uniform(0.0, 1.0, size=(GROWTH_SAMPLES, n)), axis=1) * xs[:, None]
        vals = np.abs(np.asarray(kern(xs, pts), dtype=float))
        peak = float(np.max(vals))
        try:
            ratio = peak * rho ** (n - 1) / (math.factorial(n) * d)
        except OverflowError:  # rho ** (n - 1) beyond the float range
            ratio = math.inf if peak else 0.0
        worst = max(worst, ratio)
    return worst


def coupling_bound_sq(n: int, m: int, k_lower_norm: float, f_m_sup: float) -> float:
    """The bound on ||B||^2 of the order-(n, m) coupling term at x = 1:

        [(n+1)! (n-m+1) / ((m+1)! (n-m)!)] * (x^m sup|f_m|^2 / m!) * ||k_{n-m+1}||^2,

    e.g. combinatorial coefficient 8 and bound 4 for (n, m) = (3, 2)
    with unit norms.
    """
    if not (2 <= m <= n):
        raise ValueError(f"need 2 <= m <= n, got m={m}, n={n}")
    coeff = (
        math.factorial(n + 1)
        * (n - m + 1)
        / (math.factorial(m + 1) * math.factorial(n - m))
    )
    return coeff * (f_m_sup**2 / math.factorial(m)) * k_lower_norm**2
