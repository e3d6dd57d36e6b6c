"""The one exact polynomial type of the symbolic kernel routes.

``SimplexPolyKernel`` is a polynomial kernel on an ordered simplex,
stored as integer numerators ``(e, (a_1, ..., a_n)) -> c`` over one
denominator ``den``, meaning ``c / den * x**e * xi_1**a_1 * ... *
xi_n**a_n``.  Every kernel of the package is one, and so is every scalar
coefficient of the gap cascade: a polynomial in x alone is the order-0
kernel with keys ``(k, ())`` (:mod:`volback.gapcascade` holds the few
integer operations its families need).  Evaluation works on point arrays;
the monomial list is also what the mesh cascades in
:mod:`volback.volterra` consume, in one canonical order (sorted by key)
whatever built them.

Both exact kernel routes and the gap cascade's walks hold an exponent
vector as one int: slot i at bits i*width and up, so a product of
monomials is one addition of keys.  Exponents are nonnegative, so a
width whose slots hold the largest total degree a computation reaches
means no slot ever carries into the next; both kernel routes take it
from :func:`_width`, on a degree bound built from :func:`poly_degree`.
A gap vector of the walks packs slot i from its entry i (:func:`_pack`).  A kernel key packs x on
top: variable v of an order-n key, x = 0 and xi_i = i, sits in slot
n - v (:func:`_shift`), so x is in slot n and xi_n in slot 0, and
integer order is the canonical ``(e, alphas)`` order.  A scratch
variable (s or t, v = -1) sits above x, in slot n + 1.
:meth:`SimplexPolyKernel.from_packed` builds a kernel from such keys.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

Monomial = Tuple[int, Tuple[int, ...]]


def _pack(vec: Sequence[int], width: int) -> int:
    """The nonnegative powers ``vec`` as one int, slot i at bits i*width."""
    return sum(v << (i * width) for i, v in enumerate(vec))


def _shift(n: int, v: int, width: int) -> int:
    """The lowest bit of variable v (x = 0, xi_i = i, a scratch variable
    -1) in an order-n kernel key at ``width`` bits a slot."""
    return (n - v) * width


def _unpack(packed: int, width: int, length: int) -> Tuple[int, ...]:
    """The first ``length`` slots of a packed vector (``width`` >= 1)."""
    mask = (1 << width) - 1
    return tuple([packed >> shift & mask for shift in range(0, length * width, width)])


def _width(degree: int) -> int:
    """Bits per slot of packed keys whose slots hold at most ``degree``
    (one at least)."""
    return max(degree, 1).bit_length()


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
    and ``den < 1``, and an exponent that is not a nonnegative integer.  A
    kernel is not mutated after construction.
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
            e = operator.index(e)
            alphas = tuple(map(operator.index, alphas))
            if len(alphas) != self.order:
                raise ValueError(
                    f"monomial {alphas} has {len(alphas)} coordinate powers, kernel order is {self.order}"
                )
            if e < 0 or (alphas and min(alphas) < 0):
                raise ValueError(f"monomial {(e, alphas)} has a negative exponent")
            key = (e, alphas)
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

    @classmethod
    def from_packed(
        cls, order: int, terms: Mapping[int, int], den: int, width: int
    ) -> SimplexPolyKernel:
        """The kernel of the numerators ``terms`` over ``den``, each keyed
        by its order-``order`` kernel key at ``width`` bits a slot
        (:func:`_shift`): the dict constructor's kernel, without its
        per-key checks.  Refuses ``den < 1`` and a key outside the slots
        of (x, xi_1, ..., xi_order)."""
        den = operator.index(den)
        if den < 1:
            raise ValueError(f"kernel denominator must be a positive integer, got {den}")
        keys = sorted(key for key, c in terms.items() if c)
        if keys and (keys[0] < 0 or keys[-1] >> _shift(order, -1, width)):
            raise ValueError(f"packed key outside the slots of an order-{order} kernel")
        g = math.gcd(den, *(terms[key] for key in keys))
        mask = (1 << width) - 1
        top = _shift(order, 0, width)
        shifts = [_shift(order, v, width) for v in range(1, order + 1)]
        kern = cls.__new__(cls)
        kern.order = order
        kern.monomials = {
            (key >> top, tuple([key >> sh & mask for sh in shifts])): terms[key] // g for key in keys
        }
        kern.den = den // g
        return kern


def poly_degree(kern: SimplexPolyKernel) -> int:
    """Total degree of a kernel, -1 for zero: of a polynomial in x (an
    order-0 kernel), its degree."""
    return max((e + sum(alphas) for e, alphas in kern.monomials), default=-1)


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
