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
"""

from __future__ import annotations

from math import comb, lcm
from typing import Dict, Mapping

import numpy as np

from .polynomial import SimplexPolyKernel, pdae_k2, pdae_k3
from .simplex import ordered_splits
from .volterra import VolterraKernelSeries

PROVENANCES = ("characteristic-recursion", "gap-cascade")

# Read only by the benchmark tracer (perfbench/tracer.py), which counts
# memo hits of kernel nodes without a polynomial.  No program path builds
# a node, so the count stays 0; the constant goes when the benchmark
# drops its memo counters.
_MEMO_BATCH_LIMIT = 1024

# Exponents of (x, xi_1, ..., xi_n), with s appended inside B[n, m].
Exps = tuple[int, ...]


class KernelConfigError(ValueError):
    """The kernel recursion was asked to run with missing ingredients."""


class KernelNode:
    """A kernel's exact polynomial and the construction that produced it.

    No program path builds a node: kernel tables hold the polynomials.
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


def _monomials(kern: SimplexPolyKernel) -> list[tuple[Exps, int]]:
    """The flattened numerators (e, a_1, ..., a_n) -> c of a kernel."""
    return [((e, *alphas), c) for (e, alphas), c in kern.monomials.items()]


def _add(acc: Dict[Exps, int], key: Exps, c: int) -> None:
    acc[key] = acc.get(key, 0) + c


def _kernel(n: int, terms: Mapping[Exps, int], den: int) -> SimplexPolyKernel:
    return SimplexPolyKernel(n, {(e[0], e[1:]): c for e, c in terms.items()}, den)


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
    p = n - m + 1
    if k_lower.order != p:
        raise KernelConfigError(f"lower kernel has order {k_lower.order}, expected {p}")
    k_terms = _monomials(k_lower)
    f_terms = _monomials(f_m)
    s = n + 1  # the slot of the integration variable
    legs: list[tuple[int, Dict[Exps, int]]] = []
    for j in range(1, p + 1):
        leg: Dict[Exps, int] = {}
        for k_idx, f_idx in ordered_splits(n - j + 1, p - j):
            # Where each variable of k_p and of f_m lands in (x, xi, s).
            k_slots = (0, *range(1, j), s, *(j + i for i in k_idx))
            f_slots = (s, *(j + i for i in f_idx))
            for ke, kc in k_terms:
                for fe, fc in f_terms:
                    e = [0] * (n + 2)
                    for slot, a in zip(k_slots, ke):
                        e[slot] += a
                    for slot, a in zip(f_slots, fe):
                        e[slot] += a
                    _add(leg, tuple(e), kc * fc)
        legs.append((j, leg))
    # int_{xi_j}^{xi_{j-1}} s^q ds = (xi_{j-1}^{q+1} - xi_j^{q+1}) / (q + 1)
    scale = lcm(1, *(e[s] + 1 for _, leg in legs for e in leg))
    out: Dict[Exps, int] = {}
    for j, leg in legs:
        for e, c in leg.items():
            q = e[s] + 1
            for slot, sign in ((j - 1, 1), (j, -1)):
                key = list(e[:s])
                key[slot] += q
                _add(out, tuple(key), sign * c * (scale // q))
    return _kernel(n, out, k_lower.den * f_m.den * scale)


def _characteristic(n: int, forcing: Mapping[Exps, int], den: int) -> SimplexPolyKernel:
    """k_n(x, xi) = -int_{-xi_n}^0 I(x + t, xi_1 + t, ..., xi_n + t) dt
    for the forcing I given by its numerators over ``den``.

    Substitutes v -> v + t one variable at a time and sums equal terms
    after each pass, in integers.
    """
    # Exponents of (x, xi_1, ..., xi_n, t).
    terms: Dict[Exps, int] = {(*e, 0): c for e, c in forcing.items() if c}
    for v in range(n + 1):
        # (v + t)^a = sum_k C(a, k) v^(a - k) t^k
        shifted: Dict[Exps, int] = {}
        for e, c in terms.items():
            a = e[v]
            for k in range(a + 1):
                key = (*e[:v], a - k, *e[v + 1 : -1], e[-1] + k)
                shifted[key] = shifted.get(key, 0) + c * comb(a, k)
        terms = shifted
    # -int_{-xi_n}^0 t^K dt = (-1)^(K+1) xi_n^(K+1) / (K + 1)
    scale = lcm(1, *(e[-1] + 1 for e in terms))
    out: Dict[Exps, int] = {}
    for e, c in terms.items():
        power = e[-1]
        key = (*e[:n], e[n] + power + 1)
        sign = -1 if power % 2 == 0 else 1
        out[key] = out.get(key, 0) + sign * c * (scale // (power + 1))
    return _kernel(n, out, den * scale)


def _recursion_kernel(
    n: int,
    plant_kernels: Mapping[int, SimplexPolyKernel],
    lower: Mapping[int, SimplexPolyKernel],
) -> SimplexPolyKernel:
    """The order-n kernel from the plant and the lower kernels of orders
    2..n-1: the forcing f_n - sum_m B[n, m] sums in integers over the lcm
    of their denominators."""
    parts = [(1, plant_kernels[n])] if n in plant_kernels else []
    for m in range(2, n):
        if m in plant_kernels:
            parts.append((-1, coupling_polynomial(n, m, lower[n - m + 1], plant_kernels[m])))
    den = lcm(1, *(kern.den for _, kern in parts))
    forcing: Dict[Exps, int] = {}
    for sign, kern in parts:
        unit = sign * (den // kern.den)
        for e, c in _monomials(kern):
            _add(forcing, e, unit * c)
    return _characteristic(n, forcing, den)


def build_controller_kernels(
    plant: VolterraKernelSeries, n_max: int
) -> Dict[int, SimplexPolyKernel]:
    """Build the kernel hierarchy ``{n: kernel}`` for orders 2..n_max by
    the recursion."""
    if n_max < 2:
        raise KernelConfigError(f"n_max must be at least 2, got {n_max}")
    kernels: Dict[int, SimplexPolyKernel] = {}
    for n in range(2, n_max + 1):
        kernels[n] = _recursion_kernel(n, plant.kernels, kernels)
    return kernels


def pdae_plant() -> VolterraKernelSeries:
    """The quadratic integral plant: f_2 = 1, all higher kernels zero.

    Its nonlinearity is F[u](x) = (int_0^x u)^2 / 2; growth constants
    (D, rho) = (1, 1).
    """
    f2 = SimplexPolyKernel(2, {(0, (0, 0)): 1})
    return VolterraKernelSeries({2: f2}, growth=(1.0, 1.0))


def is_pdae_plant(plant: VolterraKernelSeries) -> bool:
    """Recognise the quadratic integral plant by its kernels."""
    return plant.kernels == pdae_plant().kernels


def pdae_closed_forms() -> Dict[int, SimplexPolyKernel]:
    """Known closed-form kernels for the quadratic integral plant, the
    reference the recursion and the cascade are checked against."""
    return {2: pdae_k2(), 3: pdae_k3()}
