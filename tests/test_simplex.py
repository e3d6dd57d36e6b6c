"""Ordered-simplex geometry and quadrature rules."""

import math

import numpy as np
import pytest

from volback.simplex import (
    QuadratureConfigError,
    QuadratureRule,
    SimplexDomainError,
    SimplexPoint,
    integrate_simplex,
    simplex_contains,
    simplex_nodes,
)


def ones(x, xi):
    return np.ones(len(xi))


class TestMembership:
    def test_ordered_point_inside(self):
        assert simplex_contains(1.0, (0.5, 0.25, 0.2))

    def test_boundary_points_included(self):
        assert simplex_contains(1.0, (1.0, 0.5, 0.0))
        assert simplex_contains(0.5, (0.5, 0.5, 0.5))

    def test_unordered_point_outside(self):
        assert not simplex_contains(1.0, (0.25, 0.5, 0.2))

    def test_negative_coordinate_outside(self):
        assert not simplex_contains(1.0, (0.5, -0.01))

    def test_x_above_one_not_a_member(self):
        assert not simplex_contains(1.5, (0.5,))

    def test_point_validates_on_construction(self):
        with pytest.raises(SimplexDomainError):
            SimplexPoint(1.0, (0.2, 0.5))


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


class TestGapCoordinates:
    def test_round_trip(self):
        pt = SimplexPoint(0.9, (0.5, 0.25, 0.2))
        assert pt.gaps == pytest.approx((0.4, 0.25, 0.05))
        assert 0.9 - np.cumsum(pt.gaps) == pytest.approx(pt.xi)


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
        rule = QuadratureRule(4)
        val = integrate_simplex(n, 1.0, ones, rule)
        assert val == pytest.approx(1.0 / math.factorial(n), rel=1e-12)

    def test_polynomial_moment(self):
        # integral of xi2 over T_2(1) is 1/6
        def second(x, xi):
            return xi[:, 1]

        val = integrate_simplex(2, 1.0, second, QuadratureRule(6))
        assert val == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_tail_moment_order3(self):
        # integral of xi3 over T_3(1) is 1/24
        def third(x, xi):
            return xi[:, 2]

        val = integrate_simplex(3, 1.0, third, QuadratureRule(6))
        assert val == pytest.approx(1.0 / 24.0, rel=1e-12)

    def test_x_zero_returns_zero_without_eval(self):
        def boom(x, xi):
            raise AssertionError("must not be called")

        assert integrate_simplex(3, 0.0, boom, QuadratureRule(4)) == 0.0

    def test_nodes_inside_simplex(self):
        pts, w = simplex_nodes(3, 0.8, QuadratureRule(5))
        assert np.all(pts[:, 0] <= 0.8 + 1e-15)
        assert np.all(np.diff(pts, axis=1) <= 1e-15)
        assert np.all(pts >= -1e-15)
        assert w.sum() == pytest.approx(0.8**3 / 6.0, rel=1e-12)
