"""Ordered-simplex geometry and quadrature rules."""

import math

import numpy as np
import pytest

from volback.simplex import (
    QuadratureConfigError,
    QuadratureRule,
    SimplexDomainError,
    simplex_nodes,
)


class TestVolume:
    """The weights of a rule sum to the volume x**n / n! of T_n(x)."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_volume_formula(self, n):
        _, w = simplex_nodes(n, 1.0, QuadratureRule(3))
        assert w.sum() == pytest.approx(1.0 / math.factorial(n), rel=1e-12)

    def test_volume_scales_with_x(self):
        _, w = simplex_nodes(2, 0.5, QuadratureRule(3))
        assert w.sum() == pytest.approx(0.125, rel=1e-12)

    def test_volume_zero_at_origin(self):
        pts, w = simplex_nodes(3, 0.0, QuadratureRule(3))
        assert pts.shape == (0, 3)
        assert w.sum() == 0.0

    def test_bad_order_rejected(self):
        with pytest.raises(SimplexDomainError):
            simplex_nodes(0, 1.0, QuadratureRule(3))

    def test_upper_limit_above_one_rejected(self):
        with pytest.raises(SimplexDomainError):
            simplex_nodes(1, 1.5, QuadratureRule(3))


class TestRuleValidation:
    def test_nonpositive_resolution_rejected(self):
        with pytest.raises(QuadratureConfigError):
            QuadratureRule(0)

    def test_deterministic_needs_two_nodes(self):
        with pytest.raises(QuadratureConfigError):
            QuadratureRule(1)


class TestQuadrature:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_gauss_volume(self, n):
        _, w = simplex_nodes(n, 1.0, QuadratureRule(4))
        assert w.sum() == pytest.approx(1.0 / math.factorial(n), rel=1e-12)

    def test_polynomial_moment(self):
        # integral of xi2 over T_2(1) is 1/6
        pts, w = simplex_nodes(2, 1.0, QuadratureRule(6))
        assert np.dot(pts[:, 1], w) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_tail_moment_order3(self):
        # integral of xi3 over T_3(1) is 1/24
        pts, w = simplex_nodes(3, 1.0, QuadratureRule(6))
        assert np.dot(pts[:, 2], w) == pytest.approx(1.0 / 24.0, rel=1e-12)

    def test_nodes_inside_simplex(self):
        pts, w = simplex_nodes(3, 0.8, QuadratureRule(5))
        assert np.all(pts[:, 0] <= 0.8 + 1e-15)
        assert np.all(np.diff(pts, axis=1) <= 1e-15)
        assert np.all(pts >= -1e-15)
        assert w.sum() == pytest.approx(0.8**3 / 6.0, rel=1e-12)
