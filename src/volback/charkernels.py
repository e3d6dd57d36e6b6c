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

The plant kernels must be polynomial
(:class:`~volback.polynomial.SimplexPolyKernel`), and then every step
is exact rational integration of monomials.  In B[n, m] the variables
of k_p and f_m are renamed into (x, xi_1, ..., xi_n, s), and since
both bounds of the s-integral are single variables, evaluating its
antiderivative is another rename.  The characteristic integral expands
each monomial of I binomially in t.  The kernels therefore equal the
gap cascade's polynomials coefficient for coefficient, which is how
:func:`volback.harness.build_kernel_table` cross-checks the two.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, Dict, Iterable, Mapping

import numpy as np

from .polynomial import SimplexPolyKernel, pdae_k2, pdae_k3
from .simplex import SimplexPoint, ordered_splits
from .volterra import VolterraKernelSeries, check_growth_assumption

PROVENANCES = ("characteristic-recursion", "gap-cascade")

# Read only by the benchmark tracer (perfbench/tracer.py), which counts
# memo hits of kernel nodes without a polynomial.  Every node has one
# now, so the count stays 0; the constant goes when the benchmark drops
# its memo counters.
_MEMO_BATCH_LIMIT = 1024

# Exponents of (x, xi_1, ..., xi_n), with s appended inside B[n, m].
Exps = tuple[int, ...]


class KernelConfigError(ValueError):
    """The kernel recursion was asked to run with missing ingredients."""


class PlantAssumptionError(ValueError):
    """The plant failed its growth-assumption sampling check."""


class KernelNode:
    """One kernel of the controller hierarchy: its exact polynomial and
    the construction that produced it.

    Nodes are callable in the package-wide array convention
    ``node(x, xi)`` and additionally offer :meth:`eval_point` for a
    single :class:`~volback.simplex.SimplexPoint`.
    """

    vectorized = True

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

    def eval_point(self, point: SimplexPoint) -> float:
        return float(self(point.x, np.asarray(point.xi)[None, :])[0])

    def __repr__(self) -> str:
        return f"KernelNode(order={self.order}, provenance={self.provenance!r})"


def _monomials(kern: Callable, what: str) -> list[tuple[Exps, Fraction]]:
    """The flattened monomials (e, a_1, ..., a_n) -> c of a polynomial
    kernel or a kernel node."""
    poly = kern.polynomial if isinstance(kern, KernelNode) else kern
    if not isinstance(poly, SimplexPolyKernel):
        raise KernelConfigError(
            f"{what} has no monomials; the recursion integrates polynomial kernels"
        )
    return [((e, *alphas), c) for (e, alphas), c in poly.monomials.items()]


def _add(acc: Dict[Exps, Fraction], key: Exps, c: Fraction) -> None:
    acc[key] = acc.get(key, 0) + c


def _kernel(n: int, terms: Mapping[Exps, Fraction]) -> SimplexPolyKernel:
    return SimplexPolyKernel(n, {(e[0], e[1:]): c for e, c in terms.items()})


def coupling_polynomial(
    n: int, m: int, k_lower: KernelNode | Callable | None, f_m: Callable
) -> SimplexPolyKernel:
    """The coupling operator B[n, m] as an exact order-n polynomial.

    Requires 2 <= m <= n and, for m < n, a polynomial lower kernel of
    order n - m + 1.  B[n, n] pairs with the identically-zero
    first-order kernel and is the zero polynomial.
    """
    if not (2 <= m <= n):
        raise KernelConfigError(f"need 2 <= m <= n, got n={n}, m={m}")
    if m == n:
        return SimplexPolyKernel(n, {})
    if k_lower is None:
        raise KernelConfigError("coupling needs the lower kernel for m < n")
    p = n - m + 1
    order = getattr(k_lower, "order", None)
    if order is not None and order != p:
        raise KernelConfigError(f"lower kernel has order {order}, expected {p}")
    k_terms = _monomials(k_lower, f"order-{p} lower kernel")
    f_terms = _monomials(f_m, f"order-{m} plant kernel")
    s = n + 1  # the slot of the integration variable
    out: Dict[Exps, Fraction] = {}
    for j in range(1, p + 1):
        leg: Dict[Exps, Fraction] = {}
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
        # int_{xi_j}^{xi_{j-1}} s^q ds = (xi_{j-1}^{q+1} - xi_j^{q+1}) / (q + 1)
        for e, c in leg.items():
            q = e[s] + 1
            for slot, sign in ((j - 1, 1), (j, -1)):
                key = list(e[:s])
                key[slot] += q
                _add(out, tuple(key), sign * c / q)
    return _kernel(n, out)


def _characteristic(n: int, forcing: Mapping[Exps, Fraction]) -> SimplexPolyKernel:
    """k_n(x, xi) = -int_{-xi_n}^0 I(x + t, xi_1 + t, ..., xi_n + t) dt
    for the forcing I given by its monomials."""
    out: Dict[Exps, Fraction] = {}
    for e, c in forcing.items():
        # prod_v (v + t)^{e_v} = sum_k prod_v C(e_v, k_v) v^{e_v - k_v} t^{k_v}
        expansion: list[tuple[Exps, int, int]] = [((), 1, 0)]
        for a in e:
            expansion = [
                (rest + (a - k,), weight * comb(a, k), power + k)
                for rest, weight, power in expansion
                for k in range(a + 1)
            ]
        # -int_{-xi_n}^0 t^K dt = (-1)^(K+1) xi_n^(K+1) / (K + 1)
        for rest, weight, power in expansion:
            key = rest[:n] + (rest[n] + power + 1,)
            sign = -1 if power % 2 == 0 else 1
            _add(out, key, c * Fraction(sign * weight, power + 1))
    return _kernel(n, out)


def _recursion_kernel(
    n: int, plant_kernels: Mapping[int, Callable], lower: Mapping[int, Callable]
) -> SimplexPolyKernel:
    """The order-n kernel from the plant and the lower kernels it couples to."""
    forcing: Dict[Exps, Fraction] = {}
    f_n = plant_kernels.get(n)
    if f_n is not None:
        for e, c in _monomials(f_n, f"order-{n} plant kernel"):
            _add(forcing, e, c)
    for m in range(2, n):
        f_m = plant_kernels.get(m)
        if f_m is None:
            continue
        p = n - m + 1
        if p not in lower:
            raise KernelConfigError(
                f"order-{n} kernel needs the order-{p} kernel for its m={m} coupling"
            )
        for (e, alphas), c in coupling_polynomial(n, m, lower[p], f_m).monomials.items():
            _add(forcing, (e, *alphas), -c)
    return _characteristic(n, forcing)


def eval_B(
    n: int,
    m: int,
    k_lower: KernelNode | Callable | None,
    f_m: Callable,
    point: SimplexPoint,
) -> float:
    """Value of the coupling operator B[n, m] at one simplex point.

    Requires 2 <= m <= n and a lower kernel of order n - m + 1.  The
    m = n case pairs with the identically-zero first-order kernel and
    returns 0 without touching ``k_lower``.  Both kernels must be
    polynomial (a :class:`SimplexPolyKernel` or a :class:`KernelNode`).
    """
    if point.order != n:
        raise KernelConfigError(f"point has {point.order} coordinates, expected {n}")
    b = coupling_polynomial(n, m, k_lower, f_m)
    return float(b(point.x, np.asarray(point.xi, dtype=float)[None, :])[0])


def kernel_characteristic(
    n: int,
    plant: VolterraKernelSeries,
    lower: Iterable[KernelNode] | Mapping[int, KernelNode],
    point: SimplexPoint,
) -> float:
    """Order-n kernel value from the characteristic integral at one point.

    ``lower`` must contain the kernels of orders 2..n-1 that the plant's
    coupling terms require (none for n = 2).  Returns exactly 0 when the
    innermost coordinate is 0.
    """
    if point.order != n:
        raise KernelConfigError(f"point has {point.order} coordinates, expected {n}")
    lower_map = lower if isinstance(lower, Mapping) else {nd.order: nd for nd in lower}
    k_n = _recursion_kernel(n, plant.kernels, lower_map)
    return float(k_n(point.x, np.asarray(point.xi, dtype=float)[None, :])[0])


def build_controller_kernels(
    plant: VolterraKernelSeries, n_max: int
) -> list[KernelNode]:
    """Build the kernel hierarchy for orders 2..n_max by the recursion.

    If the plant carries growth metadata, it is sampled first and a
    failing check aborts the build.  A plant kernel without monomials
    raises :class:`KernelConfigError`.
    """
    if n_max < 2:
        raise KernelConfigError(f"n_max must be at least 2, got {n_max}")
    if plant.growth is not None and plant.kernels:
        report = check_growth_assumption(plant)
        if not report.passed:
            raise PlantAssumptionError(
                f"plant growth check failed with worst ratio {report.worst_ratio:.3g}"
            )
    lower: Dict[int, SimplexPolyKernel] = {}
    for n in range(2, n_max + 1):
        lower[n] = _recursion_kernel(n, plant.kernels, lower)
    return [KernelNode(poly, "characteristic-recursion") for poly in lower.values()]


def pdae_plant() -> VolterraKernelSeries:
    """The quadratic integral plant: f_2 = 1, all higher kernels zero.

    Its nonlinearity is F[u](x) = (int_0^x u)^2 / 2; growth constants
    (D, rho) = (1, 1).
    """
    f2 = SimplexPolyKernel(2, {(0, (0, 0)): 1})
    return VolterraKernelSeries({2: f2}, growth=(1.0, 1.0))


def is_pdae_plant(plant: VolterraKernelSeries) -> bool:
    """Recognise the quadratic integral plant by its monomials."""
    if plant.orders != (2,):
        return False
    mono = getattr(plant.kernels[2], "monomials", None)
    return mono == {(0, (0, 0)): 1}


def pdae_closed_forms() -> Dict[int, SimplexPolyKernel]:
    """Known closed-form kernels for the quadratic integral plant, the
    reference the recursion and the cascade are checked against."""
    return {2: pdae_k2(), 3: pdae_k3()}
