"""Shared fixtures: the quadratic-integral example plant and its kernels,
kernels built from rational coefficients and read back as them, the
iterated divided-power expansion of a gap chain, the two tuple-keyed
references for the exact kernel routes (the gap expansion in Fractions
and the characteristic recursion), the reference evaluations of
polynomial Volterra terms on a mesh and of the derivative slot by slot,
two plant files, and the pointwise references: exact
rational evaluation of polynomials and kernels, and Gauss quadrature of
the series and of its derivative at a single upper limit."""

import math
from fractions import Fraction
from math import comb, lcm
from typing import Callable, Iterable, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from volback.charkernels import pdae_closed_forms, pdae_plant
from volback.gapcascade import cascade, pdae_b_family
from volback.harness import parse_plant
from volback.inversion import InversionDomainError
from volback.polynomial import SimplexPolyKernel
from volback.simplex import QuadratureRule, SimplexDomainError, ordered_splits, simplex_nodes
from volback.volterra import GridFunction, VolterraKernelSeries

# A plant file shaped like the kernel-synthesis benchmark's plants, and one
# with sigma >= 1 at m = 2 and unrelated denominators.
KS_SHAPED = "2 0,0 -3/2\n2 0,1 1/2\n3 1,0,0 1 -1/4\n3 0,0,1 -4/3 -3/2\n"
MIXED = "2 0,0 1/3\n2 1,0 2/7 1/5\n3 0,1,0 -5/6 1/9\n"


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
def kernel_series(closed_forms):
    return closed_forms


@pytest.fixture(scope="session")
def gl8():
    return QuadratureRule(8)


def exact_kernel(n, monomials) -> SimplexPolyKernel:
    """The order-n kernel with the rational coefficients
    ``{(e, alphas): c}``: integer numerators over the lcm of their
    denominators."""
    coeffs = {key: Fraction(c) for key, c in monomials.items()}
    den = math.lcm(1, *(c.denominator for c in coeffs.values()))
    return SimplexPolyKernel(n, {key: int(c * den) for key, c in coeffs.items()}, den)


def kernel_fractions(kern) -> dict:
    """The rational coefficients ``{(e, alphas): Fraction}`` of a kernel."""
    return {key: Fraction(c, kern.den) for key, c in kern.monomials.items()}


def rational_poly(coeffs) -> SimplexPolyKernel:
    """The polynomial in x with the rational coefficients ``coeffs``,
    constant term first, as the order-0 kernel a gap family holds."""
    return exact_kernel(0, {(k, ()): c for k, c in enumerate(coeffs)})


def poly_coefficients(poly) -> tuple:
    """The rational coefficients of a polynomial in x (an order-0 kernel),
    constant term first, up to its degree; () for zero."""
    fractions = {k: c for (k, _), c in kernel_fractions(poly).items()}
    return tuple(fractions.get(k, Fraction(0)) for k in range(max(fractions, default=-1) + 1))


def iterated_chain_expansion(n_gaps, positions, q) -> dict:
    """Divided-power expansion of Phi_q along a sub-chain, built one factor
    at a time: gap r of the sub-chain is the sum S of the extended gaps
    positions[r]..positions[r+1]-1, and T S^[k-1] -> T S^[k] multiplies by
    S and divides by k, with Delta^[g] Delta_i = (g_i + 1) Delta^[g + e_i].
    Returns ``{gap vector: integer coefficient}``."""
    result = {(0,) * n_gaps: 1}
    for r, qr in enumerate(q):
        for k in range(1, qr + 1):
            out = {}
            for g, c in result.items():
                for i in range(positions[r], positions[r + 1]):
                    v = g[:i] + (g[i] + 1,) + g[i + 1 :]
                    out[v] = out.get(v, 0) + c * (g[i] + 1)
            result = {v: c // k for v, c in out.items()}
    return result


def fraction_phi_monomials(P):
    """Phi_P over (x, xi_1..xi_n), expanded gap by gap in Fractions."""
    n = len(P)
    terms = {(0, (0,) * n): Fraction(1)}
    for r, pw in enumerate(P):
        if pw == 0:
            continue
        new = {}
        for i in range(pw + 1):
            coeff = Fraction(math.comb(pw, i) * (-1) ** (pw - i), math.factorial(pw))
            for (e, alphas), c in terms.items():
                al2 = list(alphas)
                if r == 0:
                    e += i
                else:
                    al2[r - 1] += i
                al2[r] += pw - i
                key = (e, tuple(al2))
                new[key] = new.get(key, Fraction(0)) + c * coeff
        terms = {k: v for k, v in new.items() if v != 0}
    return terms


def fraction_expansion(family, n, shifted):
    """Reference for the gap-cascade assembly: sum_P c_P(x) Phi_P summed
    term by term in Fractions and turned into a kernel (``exact_kernel``),
    with c_P(x) = a_P(x) - a_P(x - xi_n) when ``shifted``."""
    out = {}

    def add(coeff, e, alphas):
        out[(e, alphas)] = out.get((e, alphas), Fraction(0)) + coeff

    for P, poly in family.at_order(n).items():
        phi = fraction_phi_monomials(P)
        for k, ck in enumerate(poly_coefficients(poly)):
            if ck == 0:
                continue
            for (e, alphas), c in phi.items():
                add(ck * c, e + k, alphas)
            if not shifted:
                continue
            for i in range(k + 1):
                bcoeff = math.comb(k, i) * Fraction(-1) ** (k - i)
                for (e, alphas), c in phi.items():
                    al2 = alphas[:-1] + (alphas[-1] + k - i,)
                    add(-ck * bcoeff * c, e + i, al2)
    return exact_kernel(n, out)


def _flat_monomials(kern):
    return [((e, *alphas), c) for (e, alphas), c in kern.monomials.items()]


def _tuple_kernel(n, terms, den) -> SimplexPolyKernel:
    return SimplexPolyKernel(n, {(e[0], e[1:]): c for e, c in terms.items()}, den)


def reference_coupling(n, m, k_lower, f_m) -> SimplexPolyKernel:
    """Reference for ``coupling_polynomial`` with m < n: exponent vectors
    over (x, xi_1, ..., xi_n, s) as tuples, each product's vector built
    slot by slot, and s**q integrated over the lcm of the q + 1."""
    p = n - m + 1
    s = n + 1  # the slot of the integration variable
    legs = []
    for j in range(1, p + 1):
        leg = {}
        for k_idx, f_idx in ordered_splits(n - j + 1, p - j):
            k_slots = (0, *range(1, j), s, *(j + i for i in k_idx))
            f_slots = (s, *(j + i for i in f_idx))
            for ke, kc in _flat_monomials(k_lower):
                for fe, fc in _flat_monomials(f_m):
                    e = [0] * (n + 2)
                    for slot, a in zip(k_slots, ke):
                        e[slot] += a
                    for slot, a in zip(f_slots, fe):
                        e[slot] += a
                    leg[tuple(e)] = leg.get(tuple(e), 0) + kc * fc
        legs.append((j, leg))
    # int_{xi_j}^{xi_{j-1}} s^q ds = (xi_{j-1}^{q+1} - xi_j^{q+1}) / (q + 1)
    scale = lcm(1, *(e[s] + 1 for _, leg in legs for e in leg))
    out = {}
    for j, leg in legs:
        for e, c in leg.items():
            q = e[s] + 1
            for slot, sign in ((j - 1, 1), (j, -1)):
                key = list(e[:s])
                key[slot] += q
                out[tuple(key)] = out.get(tuple(key), 0) + sign * c * (scale // q)
    return _tuple_kernel(n, out, k_lower.den * f_m.den * scale)


def reference_characteristic(n, forcing: SimplexPolyKernel) -> SimplexPolyKernel:
    """Reference for the characteristic integral
    k_n(x, xi) = -int_{-xi_n}^0 I(x + t, xi_1 + t, ..., xi_n + t) dt:
    exponent vectors over (x, xi_1, ..., xi_n, t) as tuples, v -> v + t
    substituted one variable at a time."""
    terms = {(*e, 0): c for e, c in _flat_monomials(forcing)}
    for v in range(n + 1):
        # (v + t)^a = sum_k C(a, k) v^(a - k) t^k
        shifted = {}
        for e, c in terms.items():
            a = e[v]
            for k in range(a + 1):
                key = (*e[:v], a - k, *e[v + 1 : -1], e[-1] + k)
                shifted[key] = shifted.get(key, 0) + c * comb(a, k)
        terms = shifted
    # -int_{-xi_n}^0 t^K dt = (-1)^(K+1) xi_n^(K+1) / (K + 1)
    scale = lcm(1, *(e[-1] + 1 for e in terms))
    out = {}
    for e, c in terms.items():
        power = e[-1]
        key = (*e[:n], e[n] + power + 1)
        sign = -1 if power % 2 == 0 else 1
        out[key] = out.get(key, 0) + sign * c * (scale // (power + 1))
    return _tuple_kernel(n, out, forcing.den * scale)


def reference_recursion(plant, n_max) -> tuple[dict, dict]:
    """Reference for ``build_controller_kernels``: the kernels ``{n: k_n}``
    of orders 2..n_max and the coupling terms ``{(n, m): B[n, m]}``, the
    forcing f_n - sum_m B[n, m] summed in Fractions."""
    kernels, couplings = {}, {}
    for n in range(2, n_max + 1):
        forcing = dict(kernel_fractions(plant[n])) if n in plant else {}
        for m in range(2, n):
            if m in plant:
                b = couplings[(n, m)] = reference_coupling(n, m, kernels[n - m + 1], plant[m])
                for key, c in kernel_fractions(b).items():
                    forcing[key] = forcing.get(key, 0) - c
        kernels[n] = reference_characteristic(n, exact_kernel(n, forcing))
    return kernels, couplings


def plant_file(tmp_path, text):
    """The parsed plant file with the given lines."""
    path = tmp_path / "plant.txt"
    path.write_text(text)
    return parse_plant(path)


@st.composite
def packed_case(draw):
    """(width, vector): slots of 1..5 bits and a vector of 1..9 powers that
    fit them, the largest power 2**width - 1 included."""
    width = draw(st.integers(1, 5))
    vec = draw(st.lists(st.integers(0, 2**width - 1), min_size=1, max_size=9))
    return width, tuple(vec)


@st.composite
def packed_kernel_case(draw):
    """(order, width, {(e, a_1, ..., a_n): numerator}, den): orders 0..4,
    slots of 1..8 bits filled up to 2**width - 1, zero and negative
    numerators, and a factor the numerators share with ``den``."""
    order, width = draw(st.integers(0, 4)), draw(st.integers(1, 8))
    powers = st.tuples(*[st.integers(0, 2**width - 1)] * (order + 1))
    factor = draw(st.sampled_from([1, 2, 6, 35]))
    numerators = draw(st.dictionaries(powers, st.integers(-40, 40), max_size=12))
    den = factor * draw(st.integers(1, 30))
    return order, width, {vec: factor * c for vec, c in numerators.items()}, den


def random_simplex_points(rng, n, count, x=1.0):
    """Descending-sorted uniform tuples inside T_n(x)."""
    pts = np.sort(rng.uniform(0.0, x, size=(count, n)), axis=1)[:, ::-1]
    return np.ascontiguousarray(pts)


def _inner_integral(alphas, factors, mesh, stop):
    """Slots len(alphas)-1 down to ``stop`` of one monomial, innermost
    first, each a cumulative trapezoid ``dx * (g[1:] + g[:-1]) / 2.0``
    summed from 0 along the last axis (None when no slot is left).
    ``factors[i]`` is slot i's factor; factors may carry leading batch
    axes."""
    dx = mesh[1] - mesh[0]
    inner = None
    for i in reversed(range(stop, len(alphas))):
        g = factors[i] * mesh ** alphas[i]
        if inner is not None:
            g = g * inner
        inner = np.zeros(g.shape)
        inner[..., 1:] = np.cumsum(dx * (g[..., 1:] + g[..., :-1]) / 2.0, axis=-1)
    return inner


def reference_profile(monomials, factors, mesh):
    """One monomial at a time, no shared passes: the nested trapezoid rule
    written out, innermost slot first, each level a cumulative trapezoid
    ``dx * (g[1:] + g[:-1]) / 2.0`` summed from 0."""
    out = np.zeros_like(mesh)
    for (e, alphas), c in monomials.items():
        out += float(c) * _inner_integral(alphas, factors, mesh, 0) * mesh**e
    return out


def _rounding_bound(k, magnitude):
    """gamma_k = k u / (1 - k u), u = 2**-53, times the terms' magnitudes;
    the factor 1.01 covers the second-order terms of gamma_k and the
    rounding of the magnitudes themselves."""
    return 1.01 * k * 2.0**-53 * magnitude


def assert_profile_within_rounding(value, orders, state, mesh):
    """At every mesh node, |value - ref| <= gamma_k * (sum of the terms'
    magnitudes), with ref the ``math.fsum`` of the terms c x**e inner of
    every monomial of the kernels ``orders`` ``{n: kernel}``, c its
    rational coefficient and inner its nested trapezoid rule
    (``_inner_integral``) with ``state`` in every slot.

    Rounding-error analysis of sums and products (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 4.2): a term that
    passes through k rounded operations carries a relative error of at
    most gamma_k, whatever the order of the additions.  ``MeshCascade``
    forms the inner integrals as the reference does, bit for bit, and in
    ``MeshCascade.profile`` a term then passes through one product
    c * x**e, at most N - 1 additions into its weight row, the product by
    the integral, at most P - 1 additions over the row's nodes and O - 1
    over the orders: at most 2N + O operations, with N the monomials of
    all O orders (N bounds the nodes P).  The reference rounds each term
    in two products and the sum once, three more.
    """
    terms = np.array(
        [
            float(c) * _inner_integral(alphas, [state] * n, mesh, 0) * mesh**e
            for n, kern in orders.items()
            for (e, alphas), c in kernel_fractions(kern).items()
        ]
    ).reshape(-1, mesh.size)
    want = np.array([math.fsum(col) for col in terms.T])
    magnitude = np.array([math.fsum(col) for col in np.abs(terms).T])
    k = 2 * len(terms) + len(orders) + 3
    bound = _rounding_bound(k, magnitude)
    excess = np.abs(value - want) - bound
    assert value.shape == want.shape and np.all(excess <= 0), (np.max(excess), value, want)


def per_slot_linearized(series, u, h):
    """Reference for ``linearized_profile`` and ``dk_matrix`` (with the
    identity for ``h``, its rows the matrix's columns), independent of
    ``MeshCascade``:
    one monomial at a time, the nested trapezoid rule (``_inner_integral``)
    run once per slot with ``h`` (which may carry leading batch axes) in
    the slot and ``u`` in the others, and the terms c x**e inner summed."""
    mesh = u.mesh
    out = np.zeros(h.shape[:-1] + (u.size,))
    for n, kern in series.items():
        for (e, alphas), c in kernel_fractions(kern).items():
            for slot in range(n):
                factors = [h if i == slot else u.values for i in range(n)]
                out += float(c) * _inner_integral(alphas, factors, mesh, 0) * mesh**e
    return out


def reference_endpoint(orders, state, mesh):
    """The nested trapezoid rule at x = 1 with its outermost integral
    written as one exactly rounded sum.

    ``orders`` maps n to the order-n kernel, and ``state`` fills every
    slot.  The inner slots are integrated as ``reference_profile``
    integrates them; then ``math.fsum`` adds, over every monomial and mesh
    node i, the term c * x_i**alphas[0] * w_i * f_i * inner_i, with w the
    trapezoid weights (dx/2, dx, ..., dx, dx/2) and f the state (x**e is
    1).  Returns that sum and the sum of the terms' magnitudes.
    """
    dx = mesh[1] - mesh[0]
    weights = np.full(mesh.size, dx)
    weights[[0, -1]] /= 2.0
    terms = [np.zeros(0)]
    for n, kern in orders.items():
        for (_, alphas), c in kernel_fractions(kern).items():
            inner = _inner_integral(alphas, [state] * n, mesh, 1)
            terms.append(float(c) * mesh ** alphas[0] * weights * state * inner)
    terms = np.concatenate(terms)
    return math.fsum(terms), math.fsum(np.abs(terms))


def assert_endpoint_within_rounding(value, orders, state, mesh):
    """|value - reference_endpoint| <= gamma_k * (sum of the terms' magnitudes).

    Rounding-error analysis of sums and products (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 4.2): a term that
    passes through k rounded operations carries a relative error of at
    most gamma_k = k u / (1 - k u), u = 2**-53, whatever the order of the
    additions.  In ``MeshCascade.endpoint`` a term of the highest order
    passes through one product c * x**alphas[0], at most N - 1 additions
    into its fold row, the products by w, by the inner integral and by
    the state f, at most M - 1 additions over the mesh, P - 1 over the
    row's nodes and O - 1 over the orders.  A term of a lower order, read
    from the last column of its own level, passes through the products by
    f, by the inner integral and by dx/2, the addition of the trapezoid's
    two ends, at most M - 2 additions of the cumulative sum, the product
    by its node's weight (at most N - 1 additions of c), at most P - 1
    additions over the nodes and O - 1 over the orders.  Either is at most
    2N + M + O operations, with N the monomials of all O orders (N bounds
    the nodes P) and M the mesh size.  The reference rounds each term in
    four products and the sum once, five more.
    """
    want, magnitude = reference_endpoint(orders, state, mesh)
    monomials = sum(len(kern.monomials) for kern in orders.values())
    k = 2 * monomials + mesh.size + len(orders) + 5
    bound = _rounding_bound(k, magnitude)
    assert abs(value - want) <= bound, (value, want, bound)


def poly_eval_exact(poly, t) -> Fraction:
    """A polynomial in x (an order-0 kernel) at the rational ``t``, by
    Horner in Fractions."""
    t = Fraction(t)
    acc = Fraction(0)
    for c in reversed(poly_coefficients(poly)):
        acc = acc * t + c
    return acc


def kernel_eval_exact(kern, x, xi: Iterable) -> Fraction:
    """A ``SimplexPolyKernel`` at the rational point (x, xi), monomial by
    monomial in Fractions."""
    x = Fraction(x)
    xs = [Fraction(v) for v in xi]
    acc = Fraction(0)
    for (e, alphas), c in kernel_fractions(kern).items():
        term = c * x**e
        for v, a in zip(xs, alphas):
            term *= v**a
        acc += term
    return acc


class QuadratureNode:
    """One multilinear term at a single upper limit ``x``, by simplex quadrature.

    ``value(factors)`` is int_{T_n(x)} kern(x, xi) prod_i factors[i](xi_i) dxi
    over the nodes of ``rule``, each factor a mesh sample interpolated
    linearly exactly as ``np.interp`` does.  The nodes, weights, kernel
    values and bracketing mesh cells are computed once; factors may
    carry leading batch axes.
    """

    def __init__(
        self, kern: Callable, n: int, x: float, rule: QuadratureRule, mesh: np.ndarray
    ) -> None:
        pts, self.weights = simplex_nodes(n, x, rule)
        self.kvals = np.asarray(kern(x, pts), dtype=float) if len(pts) else np.zeros(0)
        # Gauss nodes lie inside [0, x), so each has a mesh cell [lo, lo + 1].
        lo = np.searchsorted(mesh, pts, side="right") - 1
        hi = lo + 1
        span = mesh[hi] - mesh[lo]
        offset = pts - mesh[lo]
        self.cells = [(lo[:, i], hi[:, i], span[:, i], offset[:, i]) for i in range(n)]

    def value(self, factors: Sequence[np.ndarray]) -> np.ndarray | float:
        prod = 1.0
        for f, (lo, hi, span, offset) in zip(factors, self.cells):
            low = f[..., lo]
            prod = prod * ((f[..., hi] - low) / span * offset + low)
        return np.dot(self.kvals * prod, self.weights)


def eval_series(
    series: VolterraKernelSeries,
    u: GridFunction,
    x: float,
    rule: QuadratureRule,
) -> float:
    """Evaluate F[u](x) by quadrature, interpolating ``u`` linearly.

    Each order contributes ``int_{T_n(x)} f_n(x, xi) prod u(xi_i)``.
    ``x`` must lie in [0, 1]; ``x == 0`` contributes nothing.
    """
    if not (0.0 <= x <= 1.0):
        raise SimplexDomainError(f"evaluation point must lie in [0, 1], got {x}")
    if x == 0.0 or not series:
        return 0.0
    return sum(
        float(QuadratureNode(kern, n, x, rule, u.mesh).value([u.values] * n))
        for n, kern in series.items()
    )


def frechet_dk(
    series: VolterraKernelSeries,
    u: GridFunction,
    h: GridFunction,
    x: float,
    rule: QuadratureRule,
) -> float:
    """(DK[u] h)(x) by direct quadrature at a single point."""
    if not (0.0 <= x <= 1.0):
        raise InversionDomainError(f"evaluation point must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    u._check_mesh(h)
    total = 0.0
    for n, kern in series.items():
        node = QuadratureNode(kern, n, x, rule, u.mesh)
        for slot in range(n):
            total += float(node.value([h.values if i == slot else u.values for i in range(n)]))
    return total
