"""Controller kernels by characteristic-line integration, in exact arithmetic.

The order-n transformation kernel satisfies a transport equation on the
ordered simplex whose forcing couples the plant kernel f_n with the
lower-order kernels through integral operators.  Integrating back along
the characteristic direction (1, ..., 1) from the inflow face xi_n = 0
yields

    k_n(x, xi) = - int_{-xi_n}^0 I(x + t, xi_1 + t, ..., xi_n + t) dt,
    I = f_n - sum_m B[n, m],

so kernels are built recursively: k_2 needs only f_2, k_3 needs k_2,
and so on.  The m = n coupling term always pairs with the first-order
kernel, which is identically zero, and is skipped.

The coupling operator B[n, m] pairs the lower kernel k_p, p = n - m + 1,
with f_m.  Writing xi_0 = x, its value at (x, xi_1, ..., xi_n) is

    sum_{j=1}^{p} int_{xi_j}^{xi_{j-1}}
        sum_{(A, B)} k_p(x, xi_1, ..., xi_{j-1}, s, A) f_m(s, B) ds,

where (A, B) runs over all order-preserving distributions of the
trailing coordinates (xi_j, ..., xi_n) into a k-block of size p - j and
an f-block of size m, enumerated by :func:`volback.simplex.ordered_splits`.

The plant kernels are exact polynomials
(:class:`~volback.polynomial.SimplexPolyKernel`; a
:class:`~volback.volterra.VolterraKernelSeries` holds nothing else), so
every step is exact integration of monomials, in integer numerators
over one common denominator.  In B[n, m] the variables of k_p and f_m
are renamed into (x, xi_1, ..., xi_n, s), and since
both bounds of the s-integral are single variables, evaluating its
antiderivative is another rename.  The characteristic integral expands
I binomially in t, one variable at a time.  The kernels therefore equal the
gap cascade's polynomials coefficient for coefficient, which is how
:func:`volback.verification.compare_constructions` cross-checks the two.

Inside one order's step an exponent vector over (x, xi_1, ..., xi_n)
is one packed int in the kernel-key layout of :mod:`volback.polynomial`:
x on top in slot n, xi_i in slot n - i, and s or t above them in slot
n + 1 (:func:`~volback.polynomial._shift`), every slot wide enough for
the kernel's degree bound (the forcing's degree plus one), so each key
is one integer add.  Renaming a variable of k_p or f_m into variable i
is a shift to its slot: each split places the packed k- and f-terms
once and a product's key is their sum.  Integrating out s moves e[s] + 1
into the slot of xi_{j-1} or xi_j, and v -> v + t moves k powers from
the slot of v to that of t, by adding k times the difference of their
unit keys.  The finished kernel is built from its packed keys
(:meth:`~volback.polynomial.SimplexPolyKernel.from_packed`), whose
integer order is the kernel's monomial order.
"""

from __future__ import annotations

from math import comb, lcm
from operator import lshift
from typing import Dict, Mapping, Sequence

import numpy as np

from .polynomial import SimplexPolyKernel, _shift, _width, pdae_k2, pdae_k3, poly_degree
from .simplex import ordered_splits
from .volterra import VolterraKernelSeries

PROVENANCES = ("characteristic-recursion", "gap-cascade")

# Read only by the benchmark tracer (perfbench/tracer.py), which counts
# memo hits of kernel nodes without a polynomial.  No program path builds
# a node, so the count stays 0; the constant goes when the benchmark
# drops its memo counters.
_MEMO_BATCH_LIMIT = 1024

class KernelConfigError(ValueError):
    """The kernel recursion was asked to run with missing ingredients."""


class KernelNode:
    """A kernel's exact polynomial and the construction that produced it.

    No program path builds a node: kernel series hold the polynomials.
    The class stays only because the benchmark tracer (perfbench/tracer.py)
    patches ``KernelNode.__call__``.
    """

    def __init__(self, polynomial: SimplexPolyKernel, provenance: str) -> None:
        if provenance not in PROVENANCES:
            raise KernelConfigError(f"unknown provenance {provenance!r}")
        if polynomial.order < 1:
            raise KernelConfigError(f"kernel order must be positive, got {polynomial.order}")
        self.order = polynomial.order
        self.provenance = provenance
        self.polynomial = polynomial

    def __call__(self, x, xi) -> np.ndarray:
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        if xi.shape[1] != self.order:
            raise KernelConfigError(
                f"order-{self.order} kernel got points with {xi.shape[1]} coordinates"
            )
        return self.polynomial(x, xi)

    def __repr__(self) -> str:
        return f"KernelNode(order={self.order}, provenance={self.provenance!r})"


def _flat(kern: SimplexPolyKernel) -> list[tuple[tuple[int, ...], int]]:
    """The numerators (e, a_1, ..., a_n) -> c of a kernel."""
    return [((e, *alphas), c) for (e, alphas), c in kern.monomials.items()]


def _placed(flat: Sequence[tuple[tuple[int, ...], int]], shifts: Sequence[int]) -> list[tuple[int, int]]:
    """Flattened numerators with power i at bit ``shifts[i]``, as
    (packed key, numerator) pairs."""
    return [(sum(map(lshift, vec, shifts)), c) for vec, c in flat]


def _coupling_terms(
    n: int, m: int, k_lower: SimplexPolyKernel, f_m: SimplexPolyKernel, width: int
) -> tuple[Dict[int, int], int]:
    """B[n, m] for m < n as packed numerators over (x, xi_1..xi_n) at
    ``width`` bits a slot, and their denominator.  ``width`` must hold the
    degree deg k_p + deg f_m + 1."""
    p = n - m + 1
    at = [_shift(n, v, width) for v in range(n + 1)]
    s = _shift(n, -1, width)  # the integration variable, above x
    k_flat, f_flat = _flat(k_lower), _flat(f_m)
    legs: list[tuple[int, Dict[int, int]]] = []
    for j in range(1, p + 1):
        leg: Dict[int, int] = {}
        head = at[:j] + [s]
        for k_idx, f_idx in ordered_splits(n - j + 1, p - j):
            # Where each variable of k_p and of f_m lands in (s, x, xi).
            k_terms = _placed(k_flat, head + [at[j + i] for i in k_idx])
            f_terms = _placed(f_flat, [s] + [at[j + i] for i in f_idx])
            for kp, kc in k_terms:
                for fp, fc in f_terms:
                    key = kp + fp
                    leg[key] = leg.get(key, 0) + kc * fc
        legs.append((j, leg))
    # int_{xi_j}^{xi_{j-1}} s^q ds = (xi_{j-1}^{q+1} - xi_j^{q+1}) / (q + 1)
    scale = lcm(1, *((key >> s) + 1 for _, leg in legs for key in leg))
    below_s = (1 << s) - 1
    out: Dict[int, int] = {}
    for j, leg in legs:
        upper, lower = at[j - 1], at[j]
        for key, c in leg.items():
            q = (key >> s) + 1
            rest = key & below_s
            c *= scale // q
            up, down = rest + (q << upper), rest + (q << lower)
            out[up] = out.get(up, 0) + c
            out[down] = out.get(down, 0) - c
    return out, k_lower.den * f_m.den * scale


def coupling_polynomial(
    n: int,
    m: int,
    k_lower: SimplexPolyKernel | None,
    f_m: SimplexPolyKernel,
) -> SimplexPolyKernel:
    """The coupling operator B[n, m] as an exact order-n polynomial.

    Requires 2 <= m <= n and, for m < n, a lower kernel of order
    n - m + 1.  B[n, n] pairs with the identically-zero first-order
    kernel and is the zero polynomial.  Multiplies the numerators of
    k_p and f_m and integrates each s**q over the lcm of the q + 1.
    """
    if not (2 <= m <= n):
        raise KernelConfigError(f"need 2 <= m <= n, got n={n}, m={m}")
    if m == n:
        return SimplexPolyKernel(n, {})
    if k_lower is None:
        raise KernelConfigError("coupling needs the lower kernel for m < n")
    if k_lower.order != n - m + 1:
        raise KernelConfigError(f"lower kernel has order {k_lower.order}, expected {n - m + 1}")
    width = _width(poly_degree(k_lower) + poly_degree(f_m) + 1)
    terms, den = _coupling_terms(n, m, k_lower, f_m, width)
    return SimplexPolyKernel.from_packed(n, terms, den, width)


def _characteristic(n: int, forcing: Mapping[int, int], den: int, width: int) -> SimplexPolyKernel:
    """k_n(x, xi) = -int_{-xi_n}^0 I(x + t, xi_1 + t, ..., xi_n + t) dt
    for the forcing I given by its packed numerators over ``den``.

    Substitutes v -> v + t one variable at a time and sums equal terms
    after each pass, in integers.  ``width`` must hold the forcing's
    degree plus one.
    """
    t = _shift(n, -1, width)  # the slot of t, above (x, xi_1, ..., xi_n)
    mask = (1 << width) - 1
    terms: Dict[int, int] = {key: c for key, c in forcing.items() if c}
    binomials = [[comb(a, k) for k in range(a + 1)] for a in range(mask + 1)]
    for v in range(n + 1):
        # (v + t)^a = sum_k C(a, k) v^(a - k) t^k
        low = _shift(n, v, width)
        step = (1 << t) - (1 << low)  # one power from slot v to slot t
        moves = [k * step for k in range(mask + 1)]
        shifted: Dict[int, int] = {}
        for key, c in terms.items():
            for move, b in zip(moves, binomials[key >> low & mask]):
                moved = key + move
                shifted[moved] = shifted.get(moved, 0) + c * b
        terms = shifted
    # -int_{-xi_n}^0 t^K dt = (-1)^(K+1) xi_n^(K+1) / (K + 1)
    scale = lcm(1, *((key >> t) + 1 for key in terms))
    below_t = (1 << t) - 1
    xi_n = _shift(n, n, width)
    out: Dict[int, int] = {}
    for key, c in terms.items():
        power = key >> t
        moved = (key & below_t) + ((power + 1) << xi_n)
        sign = -1 if power % 2 == 0 else 1
        out[moved] = out.get(moved, 0) + sign * c * (scale // (power + 1))
    return SimplexPolyKernel.from_packed(n, out, den * scale, width)


def _recursion_kernel(
    n: int,
    plant_kernels: Mapping[int, SimplexPolyKernel],
    lower: Mapping[int, SimplexPolyKernel],
) -> SimplexPolyKernel:
    """The order-n kernel from the plant and the lower kernels of orders
    2..n-1: the forcing f_n - sum_m B[n, m] sums in integers over the lcm
    of their denominators, packed from the coupling terms to the
    characteristic integral."""
    couplings = [m for m in range(2, n) if m in plant_kernels]
    # deg B[n, m] <= deg k_p + deg f_m + 1, and the kernel's degree is one
    # more than the forcing's.
    degree = max(
        [poly_degree(plant_kernels[n]) if n in plant_kernels else -1]
        + [poly_degree(lower[n - m + 1]) + poly_degree(plant_kernels[m]) + 1 for m in couplings]
    )
    width = _width(degree + 1)
    parts: list[tuple[int, Mapping[int, int], int]] = []
    if n in plant_kernels:
        f_n = plant_kernels[n]
        packed = dict(_placed(_flat(f_n), [_shift(n, v, width) for v in range(n + 1)]))
        parts.append((1, packed, f_n.den))
    for m in couplings:
        terms, den = _coupling_terms(n, m, lower[n - m + 1], plant_kernels[m], width)
        parts.append((-1, terms, den))
    den = lcm(1, *(part_den for _, _, part_den in parts))
    forcing: Dict[int, int] = {}
    for sign, terms, part_den in parts:
        unit = sign * (den // part_den)
        for key, c in terms.items():
            forcing[key] = forcing.get(key, 0) + unit * c
    return _characteristic(n, forcing, den, width)


def build_controller_kernels(plant: VolterraKernelSeries, n_max: int) -> VolterraKernelSeries:
    """The kernel series of orders 2..n_max by the recursion."""
    if n_max < 2:
        raise KernelConfigError(f"n_max must be at least 2, got {n_max}")
    kernels: Dict[int, SimplexPolyKernel] = {}
    for n in range(2, n_max + 1):
        kernels[n] = _recursion_kernel(n, plant, kernels)
    return VolterraKernelSeries(kernels)


def pdae_plant() -> VolterraKernelSeries:
    """The quadratic integral plant: f_2 = 1, all higher kernels zero.

    Its nonlinearity is F[u](x) = (int_0^x u)^2 / 2; growth constants
    (D, rho) = (1, 1).
    """
    f2 = SimplexPolyKernel(2, {(0, (0, 0)): 1})
    return VolterraKernelSeries({2: f2}, growth=(1.0, 1.0))


def is_pdae_plant(plant: VolterraKernelSeries) -> bool:
    """Recognise the quadratic integral plant by its kernels."""
    return plant == pdae_plant()


def pdae_closed_forms() -> VolterraKernelSeries:
    """Known closed-form kernels for the quadratic integral plant, the
    reference the recursion and the cascade are checked against."""
    return VolterraKernelSeries({2: pdae_k2(), 3: pdae_k3()})
