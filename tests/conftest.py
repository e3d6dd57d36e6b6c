"""Shared fixtures: the quadratic-integral example plant and its kernels."""

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


def reference_profile(monomials, factors, mesh):
    """One monomial at a time, no shared passes: the nested trapezoid rule
    written out, innermost slot first, each level a cumulative trapezoid
    ``dx * (g[1:] + g[:-1]) / 2.0`` summed from 0."""
    dx = mesh[1] - mesh[0]
    out = np.zeros_like(mesh)
    for (e, alphas), c in monomials.items():
        inner = None
        for i in reversed(range(len(alphas))):
            g = factors[i] * mesh ** alphas[i]
            if inner is not None:
                g = g * inner
            inner = np.concatenate([[0.0], np.cumsum(dx * (g[1:] + g[:-1]) / 2.0)])
        out += float(c) * inner * mesh**e
    return out
