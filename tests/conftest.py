"""Shared fixtures: the quadratic-integral example plant and its kernels,
kernels built from rational coefficients and read back as them, the
reference evaluations of polynomial Volterra terms on a mesh, and the
pointwise references: exact rational evaluation of polynomials and
kernels, and Gauss quadrature of the series and of its derivative at a
single upper limit."""

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np
import pytest

from volback.charkernels import pdae_closed_forms, pdae_plant
from volback.gapcascade import cascade, pdae_b_family
from volback.inversion import InversionDomainError
from volback.polynomial import SimplexPolyKernel
from volback.simplex import QuadratureRule, SimplexDomainError, simplex_nodes
from volback.volterra import GridFunction, VolterraKernelSeries


@pytest.fixture(scope="session")
def plant():
    return pdae_plant()


@pytest.fixture(scope="session")
def b_family():
    return pdae_b_family()


@pytest.fixture(scope="session")
def a_family(b_family):
    return cascade(b_family, 3)


@pytest.fixture(scope="session")
def closed_forms():
    return pdae_closed_forms()


@pytest.fixture(scope="session")
def kernel_table(closed_forms):
    return dict(closed_forms)


@pytest.fixture(scope="session")
def kernel_series(closed_forms):
    return VolterraKernelSeries(dict(closed_forms))


@pytest.fixture(scope="session")
def gl8():
    return QuadratureRule(8)


def exact_kernel(n, monomials) -> SimplexPolyKernel:
    """The order-n kernel with the rational coefficients
    ``{(e, alphas): c}``: integer numerators over the lcm of their
    denominators."""
    coeffs = {key: Fraction(c) for key, c in monomials.items()}
    den = math.lcm(1, *(c.denominator for c in coeffs.values()))
    return SimplexPolyKernel(n, {key: int(c * den) for key, c in coeffs.items()}, den)


def kernel_fractions(kern) -> dict:
    """The rational coefficients ``{(e, alphas): Fraction}`` of a kernel."""
    return {key: Fraction(c, kern.den) for key, c in kern.monomials.items()}


def random_simplex_points(rng, n, count, x=1.0):
    """Descending-sorted uniform tuples inside T_n(x)."""
    pts = np.sort(rng.uniform(0.0, x, size=(count, n)), axis=1)[:, ::-1]
    return np.ascontiguousarray(pts)


def _inner_integral(alphas, factors, mesh, stop):
    """Slots len(alphas)-1 down to ``stop`` of one monomial, innermost
    first, each a cumulative trapezoid ``dx * (g[1:] + g[:-1]) / 2.0``
    summed from 0 (None when no slot is left)."""
    dx = mesh[1] - mesh[0]
    inner = None
    for i in reversed(range(stop, len(alphas))):
        g = factors[i] * mesh ** alphas[i]
        if inner is not None:
            g = g * inner
        inner = np.concatenate([[0.0], np.cumsum(dx * (g[1:] + g[:-1]) / 2.0)])
    return inner


def reference_profile(monomials, factors, mesh):
    """One monomial at a time, no shared passes: the nested trapezoid rule
    written out, innermost slot first, each level a cumulative trapezoid
    ``dx * (g[1:] + g[:-1]) / 2.0`` summed from 0."""
    out = np.zeros_like(mesh)
    for (e, alphas), c in monomials.items():
        out += float(c) * _inner_integral(alphas, factors, mesh, 0) * mesh**e
    return out


def _rounding_bound(k, magnitude):
    """gamma_k = k u / (1 - k u), u = 2**-53, times the terms' magnitudes;
    the factor 1.01 covers the second-order terms of gamma_k and the
    rounding of the magnitudes themselves."""
    return 1.01 * k * 2.0**-53 * magnitude


def assert_profile_within_rounding(value, orders, factors, mesh):
    """At every mesh node, |value - ref| <= gamma_k * (sum of the terms'
    magnitudes), with ref the ``math.fsum`` of the terms c x**e inner of
    every monomial of the kernels ``orders`` ``{n: kernel}``, c its
    rational coefficient, inner its nested trapezoid rule
    (``_inner_integral``) and order n reading the last n factors.

    Rounding-error analysis of sums and products (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 4.2): a term that
    passes through k rounded operations carries a relative error of at
    most gamma_k, whatever the order of the additions.  ``MeshCascade``
    forms the inner integrals as the reference does, bit for bit, and in
    ``MeshCascade.profile`` a term then passes through one product
    c * x**e, at most N - 1 additions into its weight row, the product by
    the integral, at most P - 1 additions over the row's nodes and O - 1
    over the orders: at most 2N + O operations, with N the monomials of
    all O orders (N bounds the nodes P).  The reference rounds each term
    in two products and the sum once, three more.
    """
    terms = np.array(
        [
            float(c) * _inner_integral(alphas, factors[-n:], mesh, 0) * mesh**e
            for n, kern in orders.items()
            for (e, alphas), c in kernel_fractions(kern).items()
        ]
    ).reshape(-1, mesh.size)
    want = np.array([math.fsum(col) for col in terms.T])
    magnitude = np.array([math.fsum(col) for col in np.abs(terms).T])
    k = 2 * len(terms) + len(orders) + 3
    bound = _rounding_bound(k, magnitude)
    excess = np.abs(value - want) - bound
    assert value.shape == want.shape and np.all(excess <= 0), (np.max(excess), value, want)


def reference_endpoint(orders, factors, mesh):
    """The nested trapezoid rule at x = 1 with its outermost integral
    written as one exactly rounded sum.

    ``orders`` maps n to the order-n kernel; order n reads the last n
    factors.  The inner slots are integrated as ``reference_profile``
    integrates them; then ``math.fsum`` adds, over every monomial and mesh
    node i, the term c * x_i**alphas[0] * w_i * f_i * inner_i, with w the
    trapezoid weights (dx/2, dx, ..., dx, dx/2) and f the outermost factor
    (x**e is 1).  Returns that sum and the sum of the terms' magnitudes.
    """
    dx = mesh[1] - mesh[0]
    weights = np.full(mesh.size, dx)
    weights[[0, -1]] /= 2.0
    terms = [np.zeros(0)]
    for n, kern in orders.items():
        slots = factors[-n:]
        for (_, alphas), c in kernel_fractions(kern).items():
            inner = _inner_integral(alphas, slots, mesh, 1)
            terms.append(float(c) * mesh ** alphas[0] * weights * slots[0] * inner)
    terms = np.concatenate(terms)
    return math.fsum(terms), math.fsum(np.abs(terms))


def assert_endpoint_within_rounding(value, orders, factors, mesh):
    """|value - reference_endpoint| <= gamma_k * (sum of the terms' magnitudes).

    Rounding-error analysis of sums and products (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 4.2): a term that
    passes through k rounded operations carries a relative error of at
    most gamma_k = k u / (1 - k u), u = 2**-53, whatever the order of the
    additions.  In ``MeshCascade.endpoint`` a term of the highest order
    passes through one product c * x**alphas[0], at most N - 1 additions
    into its fold row, the products by w, by the inner integral and by f,
    at most M - 1 additions over the mesh, P - 1 over the row's nodes and
    O - 1 over the orders.  A term of a lower order, read from the last
    column of its own level, passes through the products by f, by the
    inner integral and by dx/2, the addition of the trapezoid's two ends,
    at most M - 2 additions of the cumulative sum, the product by its
    node's weight (at most N - 1 additions of c), at most P - 1 additions
    over the nodes and O - 1 over the orders.  Either is at most
    2N + M + O operations, with N the monomials of all O orders (N bounds
    the nodes P) and M the mesh size.  The reference rounds each term in
    four products and the sum once, five more.
    """
    want, magnitude = reference_endpoint(orders, factors, mesh)
    monomials = sum(len(kern.monomials) for kern in orders.values())
    k = 2 * monomials + mesh.size + len(orders) + 5
    bound = _rounding_bound(k, magnitude)
    assert abs(value - want) <= bound, (value, want, bound)


def poly_eval_exact(poly, t) -> Fraction:
    """A ``RationalPoly`` at the rational ``t``, by Horner in Fractions."""
    t = Fraction(t)
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * t + c
    return acc


def kernel_eval_exact(kern, x, xi: Iterable) -> Fraction:
    """A ``SimplexPolyKernel`` at the rational point (x, xi), monomial by
    monomial in Fractions."""
    x = Fraction(x)
    xs = [Fraction(v) for v in xi]
    acc = Fraction(0)
    for (e, alphas), c in kernel_fractions(kern).items():
        term = c * x**e
        for v, a in zip(xs, alphas):
            term *= v**a
        acc += term
    return acc


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
