"""Gap-basis kernel construction: divided-power algebra, integer
structure constants, and the scalar coefficient cascade.

In the gap variables

    Delta_0 = x - xi_1,  Delta_1 = xi_1 - xi_2, ...,
    Delta_{n-1} = xi_{n-1} - xi_n,

the basis functions Phi_P(x; xi) = prod_r Delta_r**P_r / P_r! are
constant along the characteristic flow (every gap is), so transport
equations for kernels expanded in this basis reduce to scalar ODEs for
the coefficients.  Writing the plant kernels as f_n = sum_P b_P(x) Phi_P
and making the ansatz

    k_n(x, xi) = sum_P [a_P(x) - a_P(x - xi_n)] Phi_P(x; xi),

the inflow condition at xi_n = 0 holds automatically and the
coefficients satisfy

    a_P'(x) = -b_P(x) + c_P(x),      a_P(0) = 0,

where c_P collects the lower-order kernels' contribution through the
coupling operators.  For polynomial plant data everything here is exact:
every coefficient a_P, b_P, c_P is a polynomial in x with integer
numerators over one denominator, an order-0 :class:`SimplexPolyKernel`
(keys ``(k, ())``), and the few operations the families need on them
(:func:`poly_sum`, :func:`poly_product`, :func:`poly_derivative`,
:func:`poly_integral`) work in integers.  :func:`coupling_c` returns
c_P as dense integer numerators over one denominator, and the cascade
forms each a_P = int (c_P - b_P) from them as one kernel.  c_P
assembles as

    c_P(x) = sum_m sum_keys Gamma * x**(tau-|alpha|)/(tau-|alpha|)!
             * d^tau/dx^tau a_q(x) * d^sigma/dx^sigma b_q'(x)

with plant-independent integer structure constants Gamma from a
symbolic expansion, and the cascade integrates the scalar ODEs order by
order (:func:`cascade`).  The expansion is demand-driven:
:func:`coupling_c` walks only the keys its families can use (q in
supp a, tau <= deg a_q, q' in supp b, sigma <= deg b_q'; derivatives
past those degrees vanish).  Its walk (:func:`_summed_walk`) never lists
alpha: the Gamma summed over |alpha| = w come from one divided-power
product with the w-th power of a sum of gaps, taken after merging the
two gaps next to the integration variable when both lie in its range,
so each product d^tau a_q * d^sigma b_q' is formed once and no table is
kept.  :func:`gamma_table` keeps the alpha-resolved walk
(:func:`_gamma_walk`) over every multi-index up to given caps; it is the
reference the tests compare against.  Both walks expand the basis
factors in closed form (in divided powers a power of a sum of gaps is
the sum of its compositions, each with coefficient 1;
:func:`_chain_expansion`) and hold gap vectors as ints packed in
fixed-width slots (:func:`_slot_width`), so adding a unit vector is one
addition and merging the gaps next to s is a few shifts.

Kernels are assembled from a family by nested gap sums
(:func:`_expand_kernel`): each c_P sits at the leaf P of the prefix
trie of the support, and for r = n-1 down to 0 every node is multiplied
by Delta_r**P_r and added into its parent, so a gap is expanded once
per distinct prefix rather than once per P and per shift term;
:func:`assemble_kernels` returns the orders 2..n_max as a
:class:`~volback.volterra.VolterraKernelSeries`.

The expansion substitutes the ansatz for the lower kernel into the
coupling operator, Taylor-expands the coefficient functions at x
(finite for polynomials), rewrites every appearance of the integration
variable through the extended gap chain, integrates in s with the Beta
identity (coefficient exactly 1 in divided powers), and projects onto
Phi_P.  All structure constants along the way are binomial, so the
Gamma values are integers by construction; that is the reason for
storing everything in the divided-power normalization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product, zip_longest
from typing import Dict, Iterator, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .polynomial import SimplexPolyKernel, _pack, _shift, _unpack, _width, poly_degree
from .simplex import compositions, ordered_splits
from .volterra import VolterraKernelSeries

MultiIndex = Tuple[int, ...]

FAMILY_ROLES = ("plant-b", "cascade-a")


class GammaCapError(ValueError):
    """A structure-constant table was requested for an order pair with no
    coupling term, or with caps below 1."""


class FamilyConfigError(ValueError):
    """A coefficient family violates the requirements of an operation."""


@lru_cache(maxsize=None)
def _multi_indices_up_to(slots: int, cap: int) -> tuple[MultiIndex, ...]:
    out: list[MultiIndex] = []
    for total in range(cap + 1):
        out.extend(compositions(total, slots))
    return tuple(out)


def x_poly(numerators: Sequence[int], den: int = 1) -> SimplexPolyKernel:
    """The polynomial sum_k numerators[k] x**k / den, as the order-0 kernel
    with keys (k, ()): the exact type of every family coefficient."""
    return SimplexPolyKernel(0, {(k, ()): c for k, c in enumerate(numerators)}, den)


def poly_numerators(poly: SimplexPolyKernel, den: int) -> list[int]:
    """Numerators over ``den`` (a multiple of ``poly.den``) of the dense
    coefficients of a polynomial in x, constant term first, up to its degree."""
    row = [0] * (poly_degree(poly) + 1)
    for (k, _), c in poly.monomials.items():
        row[k] = c * (den // poly.den)
    return row


def poly_sum(p: SimplexPolyKernel, q: SimplexPolyKernel) -> SimplexPolyKernel:
    den = math.lcm(p.den, q.den)
    out: Dict[tuple[int, tuple], int] = {}
    for poly in (p, q):
        for key, c in poly.monomials.items():
            out[key] = out.get(key, 0) + c * (den // poly.den)
    return SimplexPolyKernel(0, out, den)


def poly_product(p: SimplexPolyKernel, q: SimplexPolyKernel, scale: int = 1) -> SimplexPolyKernel:
    """``scale`` times the product of two polynomials in x."""
    out: Dict[tuple[int, tuple], int] = {}
    for (i, _), a in p.monomials.items():
        for (j, _), b in q.monomials.items():
            out[(i + j, ())] = out.get((i + j, ()), 0) + scale * a * b
    return SimplexPolyKernel(0, out, p.den * q.den)


def poly_derivative(p: SimplexPolyKernel, order: int = 1) -> SimplexPolyKernel:
    """d^order/dx^order of a polynomial in x."""
    out = {(k - order, ()): c * math.perm(k, order)
           for (k, _), c in p.monomials.items() if k >= order}
    return SimplexPolyKernel(0, out, p.den)


def poly_integral(numerators: Sequence[int], den: int = 1) -> SimplexPolyKernel:
    """The antiderivative that vanishes at x = 0 of the polynomial
    sum_k numerators[k] x**k / den (as :func:`x_poly` reads them)."""
    top = math.lcm(1, *range(1, len(numerators) + 1))
    out = {(k + 1, ()): c * (top // (k + 1)) for k, c in enumerate(numerators)}
    return SimplexPolyKernel(0, out, den * top)


@dataclass
class GapCoefficientFamily:
    """Scalar coefficient functions of a gap-basis expansion.

    ``entries`` maps (n, P) with P of length n to the coefficient of Phi_P
    at order n, a polynomial in x with integer numerators over one
    denominator (an order-0 :class:`SimplexPolyKernel`, see
    :func:`x_poly`).  ``role`` is ``plant-b`` (the b family of a plant)
    or ``cascade-a`` (the ansatz coefficients; these must vanish at
    x = 0).  ``metadata`` optionally carries the growth constants (D, rho,
    mu, nu).
    """

    entries: Dict[tuple[int, MultiIndex], SimplexPolyKernel]
    role: str
    metadata: Dict[str, float] | None = None

    def __post_init__(self) -> None:
        if self.role not in FAMILY_ROLES:
            raise FamilyConfigError(f"unknown family role {self.role!r}")
        clean: Dict[tuple[int, MultiIndex], SimplexPolyKernel] = {}
        for (n, P), poly in self.entries.items():
            if not isinstance(poly, SimplexPolyKernel) or poly.order != 0:
                raise FamilyConfigError(
                    f"family coefficient [{n}, {P}] must be a polynomial in x "
                    "(an order-0 SimplexPolyKernel)"
                )
            n = int(n)
            P = tuple(int(v) for v in P)
            if len(P) != n:
                raise FamilyConfigError(f"multi-index {P} has length != order {n}")
            if not poly.monomials:
                continue
            if self.role == "cascade-a" and (0, ()) in poly.monomials:
                raise FamilyConfigError(
                    f"cascade coefficient a[{n}, {P}] must vanish at x = 0"
                )
            clean[(n, P)] = poly
        self.entries = clean

    def orders(self) -> tuple[int, ...]:
        return tuple(sorted({n for n, _ in self.entries}))

    def at_order(self, n: int) -> Dict[MultiIndex, SimplexPolyKernel]:
        return {P: poly for (m, P), poly in self.entries.items() if m == n}

    def support(self, n: int) -> tuple[MultiIndex, ...]:
        return tuple(sorted(P for (m, P) in self.entries if m == n))


class GammaKey(NamedTuple):
    """Index of one structure constant of the coupling assembly."""

    n: int
    m: int
    P: MultiIndex
    q: MultiIndex
    qp: MultiIndex
    sigma: int
    tau: int
    alpha: MultiIndex


# The walks store a gap vector as one int (polynomial._pack), slot i at
# bits i*width and up (see _slot_width): adding e_i is one addition, a
# product of two vectors is their sum, and merging a split pair is a few
# shifts.


def _slot_width(
    q_taus: Sequence[tuple[MultiIndex, int]], qp_sigmas: Sequence[tuple[MultiIndex, int]]
) -> int:
    """Bits per slot of the packed gap vectors of a walk over these indices.

    A vector of the walk has total power at most |q| + tau + |q'| + sigma
    + 1 (the 1 from the s-integral), and no slot exceeds the total, so no
    slot of a vector the walk reaches can carry into the next.
    """
    top = max(sum(q) + t for q, t in q_taus) + max(sum(qp) + s for qp, s in qp_sigmas) + 1
    return top.bit_length()


def _collapse(packed: int, j: int, width: int, lift: int = 0) -> int:
    """Merge the split pair (j-1, j) of a packed extended gap vector into
    slot j-1, adding ``lift``; the slots above move down by one."""
    low = (j - 1) * width
    rest = packed >> low
    mask = (1 << width) - 1
    merged = (rest & mask) + (rest >> width & mask) + lift
    return packed & ((1 << low) - 1) | (merged + (rest >> (2 * width) << width)) << low


@lru_cache(maxsize=None)
def _packed_compositions(total: int, slots: int, first: int, width: int) -> tuple[int, ...]:
    """The compositions of ``total`` over slots first..first+slots-1, packed."""
    return tuple(_pack(vec, width) << (first * width) for vec in compositions(total, slots))


def _chain_expansion(positions: Sequence[int], q: MultiIndex, width: int) -> list[int]:
    """Divided-power expansion of Phi_q along a sub-chain, as packed gap vectors.

    ``positions`` are the extended-chain indices of the sub-chain
    entries (upper limit first, increasing); gap r of the sub-chain is
    the sum S_r of the extended gaps between positions r and r+1.  By the
    multinomial theorem S_r^[q_r] = sum_{|beta| = q_r} Delta^[beta], and
    the ranges are disjoint, so every vector of the expansion carries
    coefficient 1: the vectors are the concatenated compositions of each
    q_r over its range.
    """
    parts = [_packed_compositions(qr, hi - lo, lo, width)
             for qr, lo, hi in zip(q, positions, positions[1:])]
    return [sum(combo) for combo in product(*parts)]


def _dp_mul_gap(a: Sequence[int], b: Sequence[int], width: int) -> Dict[int, int]:
    """Divided-power product of two sums of coefficient-1 packed gap vectors:
    Delta^[u] Delta^[v] = prod_i comb(u_i + v_i, u_i) Delta^[u + v]."""
    mask = (1 << width) - 1
    out: Dict[int, int] = {}
    for g1 in a:
        slots = [(sh, u) for sh in range(0, g1.bit_length(), width) if (u := g1 >> sh & mask)]
        for g2 in b:
            coeff = 1
            for sh, u in slots:
                v = g2 >> sh & mask
                if v:
                    coeff *= math.comb(u + v, u)
            out[g1 + g2] = out.get(g1 + g2, 0) + coeff
    return out


def _dp_times_sum(terms: Dict[int, int], gaps: range, w: int, width: int) -> Dict[int, int]:
    """``terms`` times the sum S of the listed gaps, over ``w``, in divided
    powers (Delta^[g] Delta_i = (g_i + 1) Delta^[g + e_i]): T S^[w-1] -> T S^[w]."""
    mask = (1 << width) - 1
    units = [(i * width, 1 << (i * width)) for i in gaps]
    out: Dict[int, int] = {}
    for g, c in terms.items():
        for sh, unit in units:
            v = g + unit
            out[v] = out.get(v, 0) + c * ((g >> sh & mask) + 1)
    return {v: c // w for v, c in out.items()}


_GAMMA_CACHE: Dict[tuple[int, int, int, int], Dict[GammaKey, int]] = {}


@lru_cache(maxsize=None)
def _alpha_placements(
    upper: int, j: int, w: int, width: int
) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """The |alpha| = w powers over extended gaps 0..upper-1.

    Each entry is (the nonzero (slot shift, power) pairs, alpha collapsed
    at the split pair (j-1, j), packed).
    """
    out = []
    for alpha_hat in compositions(w, upper):
        nonzero = tuple((g * width, pw) for g, pw in enumerate(alpha_hat) if pw)
        out.append((nonzero, _collapse(_pack(alpha_hat, width), j, width)))
    return tuple(out)


def _gamma_walk(
    n: int,
    m: int,
    q_taus: Sequence[tuple[MultiIndex, int]],
    qp_sigmas: Sequence[tuple[MultiIndex, int]],
    weight_cap: int | None = None,
) -> Iterator[
    tuple[MultiIndex, MultiIndex, int, int, Dict[tuple[MultiIndex, MultiIndex], int]]
]:
    """Walk the (n, m) coupling operator symbolically.

    ``q_taus`` lists the lower-kernel indices q with the largest tau to
    cover, ``qp_sigmas`` the plant indices q' with the largest sigma,
    and ``weight_cap``, when given, bounds |P| - 1.  Yields
    ``(q, qp, sigma, w, terms)``, where ``terms`` maps (P, alpha) with
    |alpha| = w to an integer; the structure constant of the key with
    that (P, q, q', sigma, tau, alpha) collects (-1)**(tau+1) times
    these integers, for every tau from max(w, 1) up to q's bound.

    The walk runs once per insertion leg j and order-preserving split of
    the trailing coordinates: the lower kernel's ansatz difference is
    Taylor-expanded at x (index tau), its last argument's powers are
    rewritten in the gaps above it (index alpha), the plant coefficient
    is Taylor-expanded at x (index sigma), the basis factors of both
    kernels are expanded over the extended gap chain containing the
    integration variable s, the s-integral is performed by the Beta
    identity (which carries coefficient 1 in divided powers and merges
    the two gaps adjacent to s), and the result is read off against
    Phi_P.
    """
    limit = math.inf if weight_cap is None else weight_cap
    p = n - m + 1
    width = _slot_width(q_taus, qp_sigmas)
    mask = (1 << width) - 1
    unpack = lru_cache(maxsize=None)(lambda packed: _unpack(packed, width, n))  # for this walk
    for j in range(1, p + 1):
        # Extended chain: x @ 0, xi_1..xi_{j-1} @ 1..j-1, s @ j,
        # xi_j..xi_n @ j+1..n+1.  Extended gap g sits between chain
        # entries g and g+1; gaps j-1 and j flank s and merge into the
        # original gap j-1 once s is integrated out.
        trailing = tuple(range(j, n + 1))
        for a_pos_rel, b_pos_rel in ordered_splits(len(trailing), p - j):
            a_positions = [trailing[i] + 1 for i in a_pos_rel]
            b_positions = [trailing[i] + 1 for i in b_pos_rel]
            k_chain = list(range(j + 1)) + a_positions
            # The plant factor Phi_q' times (x - s)^[sigma], x - s the sum
            # of gaps 0..j-1: one chain from x through s and the b-positions.
            f_chain = [0, j] + b_positions
            eta_last_pos = k_chain[-1]
            for q, tau_max in q_taus:
                deg_q = sum(q)
                phi_q = _chain_expansion(k_chain, q, width)
                for qp, sigma_max in qp_sigmas:
                    deg_qq = deg_q + sum(qp)
                    if deg_qq > limit:
                        continue
                    for sigma in range(min(sigma_max, limit - deg_qq) + 1):
                        plant = _chain_expansion(f_chain, (sigma,) + qp, width)
                        base = _dp_mul_gap(phi_q, plant, width)
                        sigma_sign = -1 if sigma % 2 else 1
                        deg_base = deg_qq + sigma
                        for w in range(min(tau_max, limit - deg_base) + 1):
                            sign = -sigma_sign if w % 2 else sigma_sign
                            terms: Dict[tuple[int, int], int] = {}
                            placements = _alpha_placements(eta_last_pos, j, w, width)
                            for gvec, cbase in base.items():
                                # P = collapse(gvec + alpha_hat) + e_{j-1}
                                lifted = _collapse(gvec, j, width, 1)
                                signed = sign * cbase
                                for nonzero, alpha in placements:
                                    coeff = signed
                                    for shift, av in nonzero:
                                        coeff *= math.comb((gvec >> shift & mask) + av, av)
                                    slot = (lifted + alpha, alpha)
                                    terms[slot] = terms.get(slot, 0) + coeff
                            yield q, qp, sigma, w, {
                                (unpack(P), unpack(alpha)): c for (P, alpha), c in terms.items()
                            }


def gamma_table(
    n: int, m: int, p_degree_cap: int, tau_cap: int
) -> Dict[GammaKey, int]:
    """Integer structure constants for the (n, m) coupling term.

    The table is complete for keys with |P| <= p_degree_cap and
    tau <= tau_cap; every returned value is a plain integer, and every
    key satisfies |q| + |q'| + sigma + |alpha| = |P| - 1 with
    |alpha| <= tau.  It enumerates every multi-index up to the caps, so
    it is the reference for :func:`coupling_c`, which walks only the
    keys its families can use.
    """
    if not (2 <= m <= n - 1):
        raise GammaCapError(
            f"coupling terms exist for 2 <= m <= n-1, got n={n}, m={m}"
        )
    if p_degree_cap < 1 or tau_cap < 1:
        raise GammaCapError("caps must be at least 1")
    cache_key = (n, m, p_degree_cap, tau_cap)
    if cache_key in _GAMMA_CACHE:
        return _GAMMA_CACHE[cache_key]

    top = p_degree_cap - 1
    q_taus = [(q, tau_cap) for q in _multi_indices_up_to(n - m + 1, top)]
    qp_sigmas = [(qp, top) for qp in _multi_indices_up_to(m, top)]
    table: Dict[GammaKey, int] = {}
    for q, qp, sigma, w, terms in _gamma_walk(n, m, q_taus, qp_sigmas, top):
        for tau in range(max(w, 1), tau_cap + 1):
            tau_sign = 1 if tau % 2 else -1
            for (P, alpha), coeff in terms.items():
                key = GammaKey(n, m, P, q, qp, sigma, tau, alpha)
                table[key] = table.get(key, 0) + tau_sign * coeff

    table = {k: v for k, v in table.items() if v}
    for key in table:
        assert sum(key.q) + sum(key.qp) + key.sigma + sum(key.alpha) == sum(key.P) - 1
        assert sum(key.alpha) <= key.tau
    _GAMMA_CACHE[cache_key] = table
    return table


def _summed_walk(
    n: int, m: int, q_taus, qp_sigmas, width: int
) -> Iterator[tuple[MultiIndex, Dict]]:
    """:func:`_gamma_walk` summed over alpha, one q at a time (only one q's
    sums are held): yields ``(q, sums)``, where ``sums[(q', sigma)][w][P]``
    adds its terms at (P, alpha) over |alpha| = w and all legs and splits.
    P is packed in slots of ``width`` bits, at least
    :func:`_slot_width` of the indices.

    The alpha sum over extended gaps 0..upper-1 is the product with S^[w],
    S their sum, built as T_w = T_{w-1} S / w.  If the lower kernel has
    arguments after s, both gaps next to s lie in that range and, as
    sum_{a+b=c} comb(g+a, a) comb(g'+b, b) = comb(g+g'+1+c, c), the merge
    of the s-integral (power g + g' + 1) commutes with the product: terms
    are merged first, summed over the legs with the same upper, and
    multiplied by the sum of merged gaps 0..upper-2.  If s is the lower
    kernel's last argument, gap j is outside the range: the product runs in
    extended gaps, per j, and merges per w.
    """
    p = n - m + 1
    legs = []
    for j in range(1, p + 1):
        trailing = tuple(range(j, n + 1))
        for a_pos_rel, b_pos_rel in ordered_splits(len(trailing), p - j):
            k_chain = list(range(j + 1)) + [trailing[i] + 1 for i in a_pos_rel]
            f_chain = [0, j] + [trailing[i] + 1 for i in b_pos_rel]
            plant = []  # (q', sigma, Phi_q' (x - s)^[sigma], None for 1)
            for qp, sigma_max in qp_sigmas:
                for sigma in range(sigma_max + 1):
                    factor = _chain_expansion(f_chain, (sigma,) + qp, width)
                    plant.append((qp, sigma, None if factor == [0] else factor))
            legs.append((j, k_chain, plant))
    for q, tau_max in q_taus:
        groups: Dict[tuple, Dict[int, int]] = {}  # (q', sigma, upper, merged)
        for j, k_chain, plant in legs:
            phi_q = _chain_expansion(k_chain, q, width)
            upper = k_chain[-1]
            for qp, sigma, factor in plant:
                group = groups.setdefault((qp, sigma, upper, upper > j), {})
                if factor is None:
                    terms = dict.fromkeys(phi_q, 1)
                else:
                    terms = _dp_mul_gap(phi_q, factor, width)
                for g, c in terms.items():
                    g = _collapse(g, j, width, 1) if upper > j else g
                    group[g] = group.get(g, 0) + c
        sums: Dict[tuple[MultiIndex, int], Dict[int, Dict[int, int]]] = {}
        for (qp, sigma, upper, merged), terms in groups.items():
            by_w = sums.setdefault((qp, sigma), {})
            sign = -1 if sigma % 2 else 1
            for w in range(tau_max + 1):
                if w:
                    terms = _dp_times_sum(terms, range(upper - 1 if merged else upper), w, width)
                    sign = -sign
                bucket = by_w.setdefault(w, {})
                for g, c in terms.items():
                    g = g if merged else _collapse(g, upper, width, 1)
                    bucket[g] = bucket.get(g, 0) + sign * c
        yield q, sums


def coupling_c(
    n: int, a_family: GapCoefficientFamily, b_family: GapCoefficientFamily
) -> tuple[Dict[MultiIndex, list[int]], int]:
    """The coupling coefficients c_P at order n, as integer numerators
    ``{P: [c_0, c_1, ...]}`` (constant term first, nonzero rows only, P
    ascending) over one denominator: returns ``(rows, den)``.

    Sums the contributions of every plant order m = 2..n-1 whose lower
    cascade family (order n-m+1) is present.  For n = 2 the result is
    identically zero.  The structure constants are walked only for the
    keys the families use: q in supp a_{n-m+1} with tau <= deg a_q, and
    q' in supp b_m with sigma <= deg b_q' (higher derivatives vanish).
    The walk sums them over alpha (:func:`_summed_walk`), so each product
    d^tau a_q * d^sigma b_q' is formed once and no table is kept.
    """
    a_all = a_family.entries.values()
    b_all = b_family.entries.values()
    # Every product d^tau a_q * d^sigma b_q' has coefficients in
    # (1/(lcm_a*lcm_b)) Z, and x**(tau-w)/(tau-w)! in (1/(max deg a)!) Z[x],
    # so c_P sums in integers over one denominator, reduced once per entry.
    lcm_a = math.lcm(1, *(poly.den for poly in a_all))
    lcm_b = math.lcm(1, *(poly.den for poly in b_all))
    deg_a = max(map(poly_degree, a_all), default=0)
    size = deg_a + max(map(poly_degree, b_all), default=0) + 1
    fact_top = math.factorial(deg_a)

    def derivatives(poly: SimplexPolyKernel, den: int) -> list[list[int]]:
        """Numerators over ``den`` of d^k poly, k = 0..deg poly."""
        row = poly_numerators(poly, den)
        return [[c * math.perm(i, k) for i, c in enumerate(row[k:], start=k)] for k in range(len(row))]

    acc: Dict[MultiIndex, list[int]] = {}
    for m in range(2, n - 1 + 1):
        a_entries = a_family.at_order(n - m + 1)
        b_entries = b_family.at_order(m)
        if not b_entries or not a_entries:
            continue
        q_taus = [(q, poly_degree(poly)) for q, poly in sorted(a_entries.items())]
        qp_sigmas = [(qp, poly_degree(poly)) for qp, poly in sorted(b_entries.items())]
        da = {q: derivatives(poly, lcm_a) for q, poly in a_entries.items()}
        db = {qp: derivatives(poly, lcm_b) for qp, poly in b_entries.items()}
        width = _slot_width(q_taus, qp_sigmas)
        packed: Dict[int, list[int]] = {}
        for q, sums in _summed_walk(n, m, q_taus, qp_sigmas, width):
            for (qp, sigma), by_w in sums.items():
                for w, gammas in by_w.items():
                    # sum over tau of (-1)**(tau+1) x**(tau-w)/(tau-w)! d^tau a_q d^sigma b_q'
                    poly = [0] * size
                    for tau in range(max(w, 1), len(da[q])):
                        unit = fact_top // math.factorial(tau - w) * (1 if tau % 2 else -1)
                        for i, u in enumerate(da[q][tau], start=tau - w):
                            for k, v in enumerate(db[qp][sigma], start=i):
                                poly[k] += unit * u * v
                    terms = [(k, c) for k, c in enumerate(poly) if c]
                    for P, gamma in gammas.items():
                        row = packed.setdefault(P, [0] * size)
                        for k, c in terms:
                            row[k] += gamma * c
        for P, row in packed.items():
            total = acc.setdefault(_unpack(P, width, n), [0] * size)
            for k, c in enumerate(row):
                total[k] += c
    rows = {P: acc[P] for P in sorted(acc) if any(acc[P])}
    return rows, lcm_a * lcm_b * fact_top


def cascade(b_family: GapCoefficientFamily, n_max: int) -> GapCoefficientFamily:
    """Solve the scalar coefficient ODEs exactly for orders 2..n_max.

    Triangular in the order: a at order n needs only the plant family
    and the already-computed a entries of orders below n.  Every
    coefficient is the exact antiderivative of -b_P + c_P, formed in
    integers over one denominator, so it vanishes at x = 0 by
    construction.
    """
    if n_max < 2:
        raise FamilyConfigError(f"n_max must be at least 2, got {n_max}")
    if b_family.role != "plant-b":
        raise FamilyConfigError(
            f"cascade consumes a plant-b family, got role {b_family.role!r}"
        )
    # One family, filled order by order: coupling_c at order n reads the
    # orders below n, and every entry added is a nonzero antiderivative.
    a_family = GapCoefficientFamily({}, "cascade-a", metadata=b_family.metadata)
    for n in range(2, n_max + 1):
        rows, den_c = coupling_c(n, a_family, b_family)
        b_entries = b_family.at_order(n)
        for P in set(b_family.support(n)) | set(rows):
            b_poly = b_entries.get(P)
            den = den_c if b_poly is None else math.lcm(den_c, b_poly.den)
            c_row = [c * (den // den_c) for c in rows.get(P, ())]
            b_row = [] if b_poly is None else poly_numerators(b_poly, den)
            row = [c - b for c, b in zip_longest(c_row, b_row, fillvalue=0)]
            poly = poly_integral(row, den)  # a_P = int_0^x (c_P - b_P)
            if poly.monomials:
                a_family.entries[(n, P)] = poly
    return a_family


def _expand_kernel(family: GapCoefficientFamily, n: int, shifted: bool) -> SimplexPolyKernel:
    """sum_P c_P(x) Phi_P as monomials, where c_P(x) is a_P(x) - a_P(x - xi_n)
    when ``shifted`` and the family's coefficient otherwise.

    Nested gap sums in integers over L = lcm over P of den(c_P) * P!.
    Leaf P holds c_P(x, xi_n) / P!; shifted, x**k - (x - xi_n)**k keeps the
    i < k terms of -(x - xi_n)**k.  For r = n-1 down to 0 each node is
    multiplied by (c_r - c_{r+1})**P_r (c_0 = x, c_i = xi_i) and added into
    its parent P_0..P_{r-1}, where siblings merge.  The packed constructor
    drops the monomials that cancel, reduces and orders them.

    An exponent vector over (x, xi_1..xi_n) is one kernel key of
    :mod:`volback.polynomial` (variable v in slot n - v,
    :func:`~volback.polynomial._shift`) whose slots hold the largest total
    degree, max over P of |P| + deg c_P: the leaf term x**i xi_n**d is
    ``(i << n*W) + d``, and the term i of (c_r - c_{r+1})**P_r multiplies a
    monomial by adding ``(i << (n-r)*W) + ((P_r - i) << (n-r-1)*W)`` to its
    key.
    """
    entries = family.at_order(n)
    pfact = {P: math.prod(map(math.factorial, P)) for P in entries}
    den = math.lcm(1, *(poly.den * pfact[P] for P, poly in entries.items()))
    width = _width(max((sum(P) + poly_degree(poly) for P, poly in entries.items()), default=0))
    # Each trie node maps packed exponent vectors to integers.
    nodes: Dict[MultiIndex, Dict[int, int]] = {}
    x, xi_n = _shift(n, 0, width), _shift(n, n, width)
    for P, poly in entries.items():
        leaf = nodes[P] = {}
        scale = den // (poly.den * pfact[P])
        for (k, _), ck in poly.monomials.items():
            unit = ck * scale
            if shifted:  # x**i xi_n**(k-i), one key per (k, i)
                for i in range(k):
                    leaf[(i << x) + ((k - i) << xi_n)] = -unit * math.comb(k, i) * (-1) ** (k - i)
            else:
                leaf[k << x] = unit
    for r in range(n - 1, -1, -1):
        high, low = _shift(n, r, width), _shift(n, r + 1, width)
        parents: Dict[MultiIndex, Dict[int, int]] = {}
        for prefix, poly in nodes.items():
            pw = prefix[r]
            acc = parents.setdefault(prefix[:r], {})
            for i in range(pw + 1):
                b = math.comb(pw, i) * (-1) ** (pw - i)
                shift = (i << high) + ((pw - i) << low)
                for key, c in poly.items():
                    key += shift
                    acc[key] = acc.get(key, 0) + b * c
        nodes = parents
    return SimplexPolyKernel.from_packed(n, nodes.get((), {}), den, width)


def family_plant_kernel(family: GapCoefficientFamily, n: int) -> SimplexPolyKernel:
    """The order-n plant kernel sum_P b_P(x) Phi_P as an explicit polynomial."""
    return _expand_kernel(family, n, shifted=False)


def assemble_kernel_polynomial(a_family: GapCoefficientFamily, n: int) -> SimplexPolyKernel:
    """The assembled order-n kernel sum_P [a_P(x) - a_P(x - xi_n)] Phi_P as
    an exact polynomial in (x, xi), the form the mesh cascades consume."""
    return _expand_kernel(a_family, n, shifted=True)


def assemble_kernels(a_family: GapCoefficientFamily, n_max: int) -> VolterraKernelSeries:
    """The controller kernels of orders 2..n_max assembled from a cascade
    family, as a series (which refuses coefficients past the float range)."""
    return VolterraKernelSeries(
        {n: assemble_kernel_polynomial(a_family, n) for n in range(2, n_max + 1)}
    )


def dp_norm(entries: Mapping[MultiIndex, SimplexPolyKernel], r: float, R: float) -> float:
    """The weighted coefficient norm of one order's coefficients ``{P: poly}``.

    sup over x in [0, 1] (sampled on a 1001-point grid, hence a lower
    bound of the true sup) of

        sum_P sum_sigma |d^sigma/dx^sigma poly_P(x)| r^|P| R^sigma / (P! sigma!).

    Raises for r <= 0 or R <= 0.
    """
    if r <= 0 or R <= 0:
        raise ValueError(f"norm weights must be positive, got r={r}, R={R}")
    grid = np.linspace(0.0, 1.0, 1001)
    acc = np.zeros_like(grid)
    for P, poly in entries.items():
        pfact = 1.0
        for pw in P:
            pfact *= math.factorial(pw)
        weight = r ** sum(P) / pfact
        for sigma in range(poly_degree(poly) + 1):
            dp = poly_derivative(poly, sigma)
            vals = np.zeros_like(grid)
            for c in reversed(poly_numerators(dp, dp.den)):  # Horner
                vals = vals * grid + c / dp.den
            acc += np.abs(vals) * weight * R**sigma / math.factorial(sigma)
    return float(np.max(acc)) if entries else 0.0


def dp_family_product(
    a_entries: Mapping[MultiIndex, SimplexPolyKernel],
    b_entries: Mapping[MultiIndex, SimplexPolyKernel],
) -> Dict[MultiIndex, SimplexPolyKernel]:
    """Coefficient family of the product of two gap-basis expansions.

    In divided powers the product rule is a binomial convolution:
    d_P = sum_{u + v = P} prod_r comb(P_r, u_r) a_u b_v.
    """
    out: Dict[MultiIndex, SimplexPolyKernel] = {}
    for u, pa in a_entries.items():
        for v, pb in b_entries.items():
            P = tuple(a + b for a, b in zip(u, v))
            coeff = 1
            for a, b in zip(u, v):
                coeff *= math.comb(a + b, a)
            term = poly_product(pa, pb, coeff)
            if term.monomials:
                out[P] = poly_sum(out[P], term) if P in out else term
    return {k: v for k, v in out.items() if v.monomials}


def split_gap_integration(
    entries: Mapping[MultiIndex, SimplexPolyKernel], d: int
) -> Dict[MultiIndex, SimplexPolyKernel]:
    """Integrate out a split of gap ``d`` into two adjacent gaps.

    Input indices have length N+1 (gaps d and d+1 are the split pair);
    output indices have length N with gap d merged.  By the Beta
    identity, the output coefficient at P collects the inputs whose pair
    powers sum to P_d - 1:

        (I H)_P = sum_{a + b = P_d - 1} h_{(..., a, b, ...)}.
    """
    out: Dict[MultiIndex, SimplexPolyKernel] = {}
    for vec, poly in entries.items():
        if d < 0 or d + 1 >= len(vec):
            raise FamilyConfigError(
                f"split index {d} out of range for length-{len(vec)} multi-index"
            )
        merged = vec[:d] + (vec[d] + vec[d + 1] + 1,) + vec[d + 2 :]
        out[merged] = poly_sum(out[merged], poly) if merged in out else poly
    return {k: v for k, v in out.items() if v.monomials}


def pdae_b_family() -> GapCoefficientFamily:
    """Plant family of the quadratic integral example: b at order 2 is 1."""
    return GapCoefficientFamily(
        {(2, (0, 0)): x_poly([1])},
        "plant-b",
        metadata={"D": 1.0, "rho": 1.0, "mu": 1.0, "nu": 1.0},
    )


def family_to_json(family: GapCoefficientFamily) -> str:
    """Serialize a family with exact numerator/denominator strings: each
    coefficient from the constant term to the degree, reduced, zeros as 0/1."""

    def rational(c: int, den: int) -> str:
        g = math.gcd(c, den)
        return f"{c // g}/{den // g}"

    entries = []
    for (n, P), poly in sorted(family.entries.items()):
        entries.append(
            {
                "n": n,
                "P": list(P),
                "coeffs": [rational(c, poly.den) for c in poly_numerators(poly, poly.den)],
            }
        )
    doc = {"role": family.role, "entries": entries}
    if family.metadata:
        doc["metadata"] = family.metadata
    return json.dumps(doc, indent=2)

