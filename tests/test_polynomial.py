"""Exact rational polynomial helpers behind the closed-form kernels."""

from fractions import Fraction as Fr

import numpy as np
import pytest

from conftest import kernel_eval_exact, poly_eval_exact
from volback.polynomial import RationalPoly, SimplexPolyKernel, pdae_k2, pdae_k3


class TestRationalPoly:
    def test_degree_and_zero(self):
        assert RationalPoly([0]).is_zero()
        assert RationalPoly([0]).degree == -1
        assert RationalPoly([1, 0, Fr(2, 3)]).degree == 2

    def test_arithmetic_exact(self):
        p = RationalPoly([Fr(1, 2), 1])
        q = RationalPoly([0, Fr(1, 3)])
        assert (p + q).coeffs == (Fr(1, 2), Fr(4, 3))
        assert (p - p).is_zero()
        assert (p * q).coeffs == (Fr(0), Fr(1, 6), Fr(1, 3))

    def test_derivative_and_integral(self):
        p = RationalPoly([0, 0, Fr(3)])  # 3 x^2
        assert p.derivative().coeffs == (Fr(0), Fr(6))
        assert p.derivative(2).coeffs == (Fr(6),)
        assert p.integral().coeffs == (Fr(0), Fr(0), Fr(0), Fr(1))

    def test_integral_vanishes_at_zero(self):
        p = RationalPoly([Fr(5), Fr(-2)])
        assert poly_eval_exact(p.integral(), Fr(0)) == 0

    def test_call_matches_eval_exact(self):
        p = RationalPoly([Fr(1, 3), Fr(-2), Fr(1, 7)])
        xs = np.linspace(0, 1, 11)
        vals = p(xs)
        want = [float(poly_eval_exact(p, Fr(x).limit_denominator(10**9))) for x in xs]
        assert vals == pytest.approx(want, abs=1e-12)


class TestSimplexPolyKernel:
    def test_canonicalizes_and_drops_zeros(self):
        k = SimplexPolyKernel(2, {(1, (0, 0)): 0, (0, (0, 1)): 4, (0, (1, 0)): -6}, den=8)
        assert k.monomials == {(0, (0, 1)): 2, (0, (1, 0)): -3} and k.den == 4
        assert list(k.monomials) == sorted(k.monomials)
        assert SimplexPolyKernel(2, {(0, (0, 1)): 0}, den=6).den == 1

    def test_equal_values_with_different_den_compare_equal(self):
        half = SimplexPolyKernel(2, {(0, (0, 1)): 1, (1, (0, 0)): 3}, den=2)
        same = SimplexPolyKernel(2, {(1, (0, 0)): 9, (0, (0, 1)): 3}, den=6)
        assert half == same and half.den == same.den == 2
        assert half != SimplexPolyKernel(2, {(0, (0, 1)): 1, (1, (0, 0)): 3}, den=4)
        pts = np.array([[0.7, 0.3], [0.4, 0.1]])
        assert np.array_equal(half(0.9, pts), same(0.9, pts))

    def test_coefficient_floats_are_the_fractions_floats(self):
        # Past 2**53 neither the numerator nor den is an exact float; c / den
        # still rounds once, as float(Fraction) does.
        den = 3 * 10**29
        for c in (1, 10**30 + 1, -(2**80) - 7):
            k = SimplexPolyKernel(1, {(0, (0,)): c}, den=den)
            assert k(1.0, np.array([[0.5]]))[0] == float(Fr(c, den))

    @pytest.mark.parametrize("den", [0, -2])
    def test_nonpositive_den_rejected(self, den):
        with pytest.raises(ValueError, match="denominator"):
            SimplexPolyKernel(2, {(0, (0, 1)): 1}, den=den)

    @pytest.mark.parametrize("coeff", [Fr(1, 2), Fr(2), 0.5])
    def test_non_integer_coefficient_rejected(self, coeff):
        with pytest.raises(TypeError):
            SimplexPolyKernel(2, {(0, (0, 1)): coeff})

    def test_mismatched_index_length_rejected(self):
        with pytest.raises(ValueError):
            SimplexPolyKernel(2, {(0, (0, 1, 0)): 1})

    def test_quadratic_example_order2(self):
        k2 = pdae_k2()
        pts = np.array([[0.6, 0.3], [1.0, 0.0]])
        assert k2(1.0, pts) == pytest.approx([-0.3, 0.0])

    def test_quadratic_example_order3_frozen_point(self):
        k3 = pdae_k3()
        val = k3(1.0, np.array([[0.5, 0.25, 0.2]]))[0]
        assert val == pytest.approx(-63.0 / 800.0, abs=1e-14)

    def test_order3_vanishes_at_zero_tail(self):
        k3 = pdae_k3()
        pts = np.array([[0.5, 0.25, 0.0], [0.9, 0.4, 0.0]])
        assert k3(1.0, pts) == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_eval_exact_matches_float(self):
        k3 = pdae_k3()
        exact = kernel_eval_exact(k3, Fr(1), (Fr(1, 2), Fr(1, 4), Fr(1, 5)))
        assert exact == Fr(-63, 800)

    def test_broadcast_x(self):
        k2 = pdae_k2()
        xs = np.array([1.0, 0.8])
        pts = np.array([[0.5, 0.2], [0.5, 0.2]])
        assert k2(xs, pts) == pytest.approx([-0.2, -0.2])
