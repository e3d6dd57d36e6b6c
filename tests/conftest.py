"""Shared fixtures: the quadratic-integral example plant and its kernels,
and the reference evaluations of polynomial Volterra terms on a mesh."""

import math

import numpy as np
import pytest

from volback.charkernels import pdae_closed_forms, pdae_plant
from volback.gapcascade import cascade, pdae_b_family
from volback.simplex import QuadratureRule
from volback.volterra import VolterraKernelSeries


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


def reference_endpoint(orders, factors, mesh):
    """The nested trapezoid rule at x = 1 with its outermost integral
    written as one exactly rounded sum.

    ``orders`` maps n to the order-n monomials; order n reads the last n
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
    for n, monomials in orders.items():
        slots = factors[-n:]
        for (_, alphas), c in monomials.items():
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
    additions.  In ``MeshCascade.endpoints`` a term of order n passes
    through one product c * x**alphas[0], at most N - 1 additions into its
    weight row, the products by w, by the inner integral and by f, at most
    P - 1 additions over the row's nodes, M - 1 over the mesh and O - 1
    over the orders: at most 2N + M + O operations, with N the monomials
    of all O orders (N bounds the nodes P) and M the mesh size.  The
    reference rounds each term in four products and the sum once, five
    more.  The factor 1.01 covers the second-order terms of gamma_k and
    of the magnitudes' own rounding.
    """
    want, magnitude = reference_endpoint(orders, factors, mesh)
    monomials = sum(len(m) for m in orders.values())
    k = 2 * monomials + mesh.size + len(orders) + 5
    bound = 1.01 * k * 2.0**-53 * magnitude
    assert abs(value - want) <= bound, (value, want, bound)
