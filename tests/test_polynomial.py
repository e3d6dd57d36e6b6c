"""The exact polynomial type: kernels on simplices, and polynomials in x
alone (order-0 kernels) with the integer operations of the gap cascade."""

from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import (
    kernel_eval_exact,
    packed_case,
    packed_kernel_case,
    poly_coefficients,
    poly_eval_exact,
    rational_poly,
)
from volback.gapcascade import (
    poly_derivative,
    poly_integral,
    poly_numerators,
    poly_product,
    poly_sum,
    x_poly,
)
from volback.polynomial import SimplexPolyKernel, _pack, _unpack, pdae_k2, pdae_k3, poly_degree

POINTS = [Fr(0), Fr(1, 3), Fr(-2, 5), Fr(7, 4)]


def integral(poly):
    """``poly_integral`` of a polynomial given as a kernel."""
    return poly_integral(poly_numerators(poly, poly.den), poly.den)


class TestRationalPoly:
    """Polynomials in x with rational coefficients, held as order-0
    kernels, against Fraction references (``rational_poly``,
    ``poly_coefficients``, ``poly_eval_exact``)."""

    def test_degree_and_zero(self):
        zero = rational_poly([0])
        assert zero.monomials == {} and zero.den == 1 and zero == x_poly(())
        assert poly_degree(zero) == -1 and poly_coefficients(zero) == ()
        assert poly_degree(rational_poly([1, 0, Fr(2, 3)])) == 2
        assert x_poly([2, 0, -4], 6) == rational_poly([Fr(1, 3), 0, Fr(-2, 3)])

    def test_arithmetic_exact(self):
        p = rational_poly([Fr(1, 2), 1])
        q = rational_poly([0, Fr(1, 3)])
        assert poly_coefficients(poly_sum(p, q)) == (Fr(1, 2), Fr(4, 3))
        assert poly_sum(p, poly_product(p, x_poly([1]), -1)) == x_poly(())
        assert poly_coefficients(poly_product(p, q)) == (Fr(0), Fr(1, 6), Fr(1, 3))
        assert poly_product(p, q, 6) == x_poly([0, 1, 2])
        for t in POINTS:
            a, b = poly_eval_exact(p, t), poly_eval_exact(q, t)
            assert poly_eval_exact(poly_sum(p, q), t) == a + b
            assert poly_eval_exact(poly_product(q, x_poly([1]), -1), t) == -b
            assert poly_eval_exact(poly_product(p, q, -3), t) == -3 * a * b

    def test_derivative_and_integral(self):
        p = rational_poly([0, 0, Fr(3)])  # 3 x^2
        assert poly_coefficients(poly_derivative(p)) == (Fr(0), Fr(6))
        assert poly_coefficients(poly_derivative(p, 2)) == (Fr(6),)
        assert poly_derivative(p, 3) == x_poly(())
        assert poly_coefficients(integral(p)) == (Fr(0), Fr(0), Fr(0), Fr(1))
        r = rational_poly([Fr(1, 3), Fr(-2), 0, Fr(5, 7)])
        assert poly_derivative(integral(r)) == r

    def test_integral_vanishes_at_zero(self):
        p = rational_poly([Fr(5), Fr(-2)])
        assert poly_eval_exact(integral(p), Fr(0)) == 0
        # the integral of 5 - 2x from 0 to t is 5t - t^2
        for t in POINTS:
            assert poly_eval_exact(integral(p), t) == 5 * t - t * t

    def test_call_matches_eval_exact(self):
        p = rational_poly([Fr(1, 3), Fr(-2), Fr(1, 7)])
        xs = np.linspace(0, 1, 11)
        vals = p(xs, np.empty((xs.size, 0)))
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

    @pytest.mark.parametrize("key", [(0, (1.7, 0)), (1.0, (0, 1)), (0, (Fr(2), 0)), (0, (0, "1"))])
    def test_non_integer_exponent_rejected(self, key):
        # int() would truncate 1.7 to 1; an exponent is an integer or refused.
        with pytest.raises(TypeError):
            SimplexPolyKernel(2, {key: 1})

    @pytest.mark.parametrize("key", [(0, (-1, 0)), (0, (2, -3)), (-1, (0, 0))])
    def test_negative_exponent_rejected(self, key):
        # xi_1**-1 is not a polynomial, and a packed key would borrow from
        # the slot next to it.
        with pytest.raises(ValueError, match="negative exponent"):
            SimplexPolyKernel(2, {key: 1})

    def test_numpy_integer_exponents_become_ints(self):
        k = SimplexPolyKernel(2, {(np.int64(1), (np.int32(0), np.int64(2))): 3})
        ((e, alphas),) = k.monomials
        assert (e, alphas) == (1, (0, 2)) and all(type(v) is int for v in (e, *alphas))

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


class TestFromPacked:
    """Kernels built from packed keys, x on top (x in slot n, xi_i in slot
    n - i), against the validating dict constructor."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=packed_kernel_case())
    @example(case=(0, 1, {}, 4))
    @example(case=(2, 1, {(1, 1, 1): 6, (0, 1, 1): 0, (1, 0, 0): -3}, 9))
    @example(case=(4, 8, {(255, 0, 255, 0, 255): -70, (255, 255, 255, 255, 255): 35}, 35))
    def test_matches_dict_constructor(self, case):
        order, width, numerators, den = case
        packed = {
            sum(v << ((order - i) * width) for i, v in enumerate(vec)): c
            for vec, c in numerators.items()
        }
        got = SimplexPolyKernel.from_packed(order, packed, den, width)
        want = SimplexPolyKernel(order, {(vec[0], vec[1:]): c for vec, c in numerators.items()}, den)
        assert list(got.monomials.items()) == list(want.monomials.items())
        assert got.den == want.den and got == want

    @pytest.mark.parametrize("den", [0, -2])
    def test_nonpositive_den_rejected(self, den):
        with pytest.raises(ValueError, match="denominator"):
            SimplexPolyKernel.from_packed(2, {1: 1}, den, 3)

    @pytest.mark.parametrize("key", [-1, 1 << 9])
    def test_key_outside_the_slots_rejected(self, key):
        # Order 2 at width 3 has the slots of (x, xi_1, xi_2): bits 0..8.
        with pytest.raises(ValueError, match="outside the slots"):
            SimplexPolyKernel.from_packed(2, {key: 1}, 1, 3)


class TestPacking:
    """Gap vectors held as one int, slot i at bits i*width."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=packed_case())
    @example(case=(3, (7, 7, 7, 7, 7, 7, 7, 7, 7)))
    @example(case=(1, (1, 0, 1)))
    def test_pack_round_trip(self, case):
        width, vec = case
        packed = _pack(vec, width)
        assert _unpack(packed, width, len(vec)) == vec
        assert packed < 1 << (width * len(vec))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(first=packed_case(), second=packed_case())
    @example(first=(4, (8, 0, 7)), second=(4, (7, 15, 8)))  # sums reach 15, 15, 15
    def test_sum_of_packed_is_packed_sum(self, first, second):
        # A product of monomials is one addition of keys while no slot's
        # sum outgrows the width.
        width = max(first[0], second[0]) + 1
        length = max(len(first[1]), len(second[1]))
        u, v = (vec + (0,) * (length - len(vec)) for _, vec in (first, second))
        want = tuple(a + b for a, b in zip(u, v))
        assert _unpack(_pack(u, width) + _pack(v, width), width, length) == want
