"""Exact polynomial arithmetic used by the symbolic kernel routes.

Two representations live here:

``RationalPoly``
    a univariate polynomial with :class:`fractions.Fraction`
    coefficients, dense low-degree storage ``coeffs[i] = coefficient of
    x**i``.  These are the scalar coefficient functions of the gap
    cascade, so exactness matters more than speed.

``SimplexPolyKernel``
    a polynomial kernel on an ordered simplex, stored as integer
    numerators ``(e, (a_1, ..., a_n)) -> c`` over one denominator
    ``den``, meaning ``c / den * x**e * xi_1**a_1 * ... * xi_n**a_n``.
    Every kernel of the package is one.  Evaluation works on point
    arrays; the monomial list is also what the mesh cascades in
    :mod:`volback.volterra` consume, in one canonical order (sorted by
    key) whatever built them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Tuple

import numpy as np

Monomial = Tuple[int, Tuple[int, ...]]


class RationalPoly:
    """Univariate polynomial over exact rationals.

    Immutable in practice: all operations return new instances.  The
    zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @staticmethod
    def constant(c) -> "RationalPoly":
        return RationalPoly([Fraction(c)])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly(out)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly([-c for c in self.coeffs])

    def scale(self, c) -> "RationalPoly":
        c = Fraction(c)
        return RationalPoly([c * v for v in self.coeffs])

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        if self.is_zero() or other.is_zero():
            return RationalPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    def derivative(self, order: int = 1) -> "RationalPoly":
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(Fraction(i) * cs[i] for i in range(1, len(cs)))
            if not cs:
                break
        return RationalPoly(cs)

    def integral(self) -> "RationalPoly":
        """Antiderivative vanishing at zero."""
        return RationalPoly(
            [Fraction(0)] + [c / Fraction(i + 1) for i, c in enumerate(self.coeffs)]
        )

    def __call__(self, t):
        """Float (or array) evaluation via Horner."""
        if self.is_zero():
            if isinstance(t, np.ndarray):
                return np.zeros_like(np.asarray(t, dtype=float))
            return 0.0
        acc = np.zeros_like(np.asarray(t, dtype=float)) if isinstance(t, np.ndarray) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + float(c)
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "RationalPoly(0)"
        parts = [
            f"{c}" if i == 0 else (f"{c}*x^{i}" if i > 1 else f"{c}*x")
            for i, c in enumerate(self.coeffs)
            if c != 0
        ]
        return "RationalPoly(" + " + ".join(parts) + ")"


@dataclass
class SimplexPolyKernel:
    """Polynomial kernel on T_n(x), exact monomial storage.

    ``monomials`` maps ``(e, alphas)`` to an integer numerator over
    ``den``, ``e`` the power of the upper limit and ``alphas`` the
    coordinate powers.  Calling an instance with a scalar or array upper
    limit and an (N, n) coordinate array returns N kernel values.

    The constructor sums equal keys, drops zeros, divides the numerators
    and ``den`` by their gcd and sorts the monomials by ``(e, alphas)``:
    two kernels are equal exactly when their values are, and then sum the
    same floats in the same order.  It refuses a non-integer coefficient
    and ``den < 1``.  A kernel is not mutated after construction.
    """

    order: int
    monomials: Dict[Monomial, int] = field(default_factory=dict)
    den: int = 1

    def __post_init__(self) -> None:
        den = operator.index(self.den)
        if den < 1:
            raise ValueError(f"kernel denominator must be a positive integer, got {den}")
        clean: Dict[Monomial, int] = {}
        for (e, alphas), c in self.monomials.items():
            alphas = tuple(int(a) for a in alphas)
            if len(alphas) != self.order:
                raise ValueError(
                    f"monomial {alphas} has {len(alphas)} coordinate powers, kernel order is {self.order}"
                )
            key = (int(e), alphas)
            clean[key] = clean.get(key, 0) + operator.index(c)
        g = math.gcd(den, *clean.values())
        self.monomials = {k: clean[k] // g for k in sorted(clean) if clean[k]}
        self.den = den // g

    def __call__(self, x, xi: np.ndarray) -> np.ndarray:
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        xs = np.asarray(x, dtype=float)
        out = np.zeros(xi.shape[0])
        for (e, alphas), c in self.monomials.items():
            term = np.full(xi.shape[0], c / self.den)
            if e:
                term = term * xs**e
            for i, a in enumerate(alphas):
                if a:
                    term = term * xi[:, i] ** a
            out += term
        return out


def pdae_k2() -> SimplexPolyKernel:
    """Second-order controller kernel for the quadratic integral plant: -xi_2."""
    return SimplexPolyKernel(2, {(0, (0, 1)): -1})


def pdae_k3() -> SimplexPolyKernel:
    """Third-order controller kernel for the quadratic integral plant.

    Expanded monomial form of
    -xi_3 * ((x - xi_1)(xi_1 + xi_2) + (xi_1^2 - xi_2^2)/2 - xi_3 (x - xi_2)/2).
    """
    # Twice the kernel: -2 (x - xi_1)(xi_1 + xi_2) xi_3 - (xi_1^2 - xi_2^2) xi_3
    # + xi_3^2 (x - xi_2).
    twice = {(1, (1, 0, 1)): -2, (1, (0, 1, 1)): -2, (0, (2, 0, 1)): 1, (0, (1, 1, 1)): 2}
    twice.update({(0, (0, 2, 1)): 1, (1, (0, 0, 2)): 1, (0, (0, 1, 2)): -1})
    return SimplexPolyKernel(3, twice, den=2)
