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
coupling operators.  For polynomial plant data everything here is exact
rational arithmetic: c_P assembles as

    c_P(x) = sum_m sum_keys Gamma * x**(tau-|alpha|)/(tau-|alpha|)!
             * d^tau/dx^tau a_q(x) * d^sigma/dx^sigma b_q'(x)

with plant-independent integer structure constants Gamma from a
symbolic expansion, and the cascade integrates the scalar ODEs order by
order (:func:`cascade`).  The expansion is demand-driven:
:func:`coupling_c` walks only the keys its families can use (q in
supp a, tau <= deg a_q, q' in supp b, sigma <= deg b_q'; derivatives
past those degrees vanish), sums the Gamma of keys that share
(P, q, tau, q', sigma, tau-|alpha|) as integers, and so forms each
product d^tau a_q * d^sigma b_q' once.  No table is kept.
:func:`gamma_table` runs the same walk over every multi-index up to
given caps and is the reference the tests compare against.

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
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Dict, Iterator, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .polynomial import RationalPoly, SimplexPolyKernel
from .simplex import compositions, ordered_splits

MultiIndex = Tuple[int, ...]

FAMILY_ROLES = ("plant-b", "cascade-a", "coupling-c")


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


@dataclass
class GapCoefficientFamily:
    """Scalar coefficient functions of a gap-basis expansion.

    ``entries`` maps (n, P) with P of length n to the exact polynomial
    coefficient of Phi_P at order n.  ``role`` is one of ``plant-b``
    (the b family of a plant), ``cascade-a`` (the ansatz coefficients;
    these must vanish at x = 0), and ``coupling-c``.  ``metadata``
    optionally carries the growth constants (D, rho, mu, nu).
    """

    entries: Dict[tuple[int, MultiIndex], RationalPoly]
    role: str
    metadata: Dict[str, float] | None = None

    def __post_init__(self) -> None:
        if self.role not in FAMILY_ROLES:
            raise FamilyConfigError(f"unknown family role {self.role!r}")
        clean: Dict[tuple[int, MultiIndex], RationalPoly] = {}
        for (n, P), poly in self.entries.items():
            if not isinstance(poly, RationalPoly):
                raise FamilyConfigError(
                    "family coefficients must be exact polynomials (RationalPoly)"
                )
            n = int(n)
            P = tuple(int(v) for v in P)
            if len(P) != n:
                raise FamilyConfigError(f"multi-index {P} has length != order {n}")
            if poly.is_zero():
                continue
            if self.role == "cascade-a" and poly.coeffs[0] != 0:
                raise FamilyConfigError(
                    f"cascade coefficient a[{n}, {P}] must vanish at x = 0"
                )
            clean[(n, P)] = poly
        self.entries = clean

    def orders(self) -> tuple[int, ...]:
        return tuple(sorted({n for n, _ in self.entries}))

    def at_order(self, n: int) -> Dict[MultiIndex, RationalPoly]:
        return {P: poly for (m, P), poly in self.entries.items() if m == n}

    def get(self, n: int, P: MultiIndex) -> RationalPoly:
        return self.entries.get((n, tuple(P)), RationalPoly())

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


def _dp_mul_gap(a: Dict[MultiIndex, int], b: Dict[MultiIndex, int]) -> Dict[MultiIndex, int]:
    """Divided-power product of two pure-gap term dicts (integer coeffs)."""
    out: Dict[MultiIndex, int] = {}
    for g1, c1 in a.items():
        for g2, c2 in b.items():
            coeff = c1 * c2
            for u, v in zip(g1, g2):
                if u and v:
                    coeff *= math.comb(u + v, u)
            gv = tuple(u + v for u, v in zip(g1, g2))
            out[gv] = out.get(gv, 0) + coeff
    return {k: v for k, v in out.items() if v}


def _segment_sum_power(
    n_gaps: int, segment: Sequence[int], power: int
) -> Dict[MultiIndex, int]:
    """(sum of the listed gaps)**power / power! in divided powers.

    In the divided-power basis the multinomial coefficients cancel, so
    every composition of ``power`` over the segment appears with
    coefficient exactly 1.
    """
    out: Dict[MultiIndex, int] = {}
    for comp in compositions(power, len(segment)):
        vec = [0] * n_gaps
        for g, p in zip(segment, comp):
            vec[g] = p
        out[tuple(vec)] = 1
    return out


def _chain_expansion(
    n_gaps: int, positions: Sequence[int], q: MultiIndex
) -> Dict[MultiIndex, int]:
    """Divided-power expansion of Phi_q along a sub-chain.

    ``positions`` are the extended-chain indices of the sub-chain
    entries (upper limit first); gap r of the sub-chain is the sum of
    the extended gaps between consecutive positions.
    """
    result: Dict[MultiIndex, int] = {tuple([0] * n_gaps): 1}
    for r, qr in enumerate(q):
        if qr == 0:
            continue
        segment = list(range(positions[r], positions[r + 1]))
        factor = _segment_sum_power(n_gaps, segment, qr)
        result = _dp_mul_gap(result, factor)
    return result


def _collapse(vec: MultiIndex, j: int) -> MultiIndex:
    """Merge the split pair (j-1, j) of an extended gap vector."""
    out = list(vec[: j - 1]) + [vec[j - 1] + vec[j]] + list(vec[j + 1 :])
    return tuple(out)


_GAMMA_CACHE: Dict[tuple[int, int, int, int], Dict[GammaKey, int]] = {}


@lru_cache(maxsize=None)
def _alpha_placements(
    n_ext: int, upper: int, j: int, w: int
) -> tuple[tuple[tuple[tuple[int, int], ...], MultiIndex], ...]:
    """The |alpha| = w powers over extended gaps 0..upper-1.

    Each entry is (the nonzero (gap, power) pairs, alpha collapsed at
    the split pair (j-1, j)).
    """
    out = []
    for alpha_hat in compositions(w, upper):
        avec = tuple(alpha_hat) + (0,) * (n_ext - upper)
        nonzero = tuple((g, pw) for g, pw in enumerate(alpha_hat) if pw)
        out.append((nonzero, _collapse(avec, j)))
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
    n_ext = n + 1
    for j in range(1, p + 1):
        # Extended chain: x @ 0, xi_1..xi_{j-1} @ 1..j-1, s @ j,
        # xi_j..xi_n @ j+1..n+1.  Extended gap g sits between chain
        # entries g and g+1; gaps j-1 and j flank s and merge into the
        # original gap j-1 once s is integrated out.
        trailing = tuple(range(j, n + 1))
        sigma_upper = list(range(j))
        for a_pos_rel, b_pos_rel in ordered_splits(len(trailing), p - j):
            a_positions = [trailing[i] + 1 for i in a_pos_rel]
            b_positions = [trailing[i] + 1 for i in b_pos_rel]
            k_chain = [0] + list(range(1, j)) + [j] + a_positions
            f_chain = [j] + b_positions
            eta_last_pos = k_chain[-1]
            for q, tau_max in q_taus:
                deg_q = sum(q)
                phi_q = _chain_expansion(n_ext, k_chain, q)
                for qp, sigma_max in qp_sigmas:
                    deg_qq = deg_q + sum(qp)
                    if deg_qq > limit:
                        continue
                    base_qq = _dp_mul_gap(phi_q, _chain_expansion(n_ext, f_chain, qp))
                    for sigma in range(min(sigma_max, limit - deg_qq) + 1):
                        if sigma == 0:
                            base = base_qq
                        else:
                            factor = _segment_sum_power(n_ext, sigma_upper, sigma)
                            base = _dp_mul_gap(base_qq, factor)
                        sigma_sign = -1 if sigma % 2 else 1
                        deg_base = deg_qq + sigma
                        for w in range(min(tau_max, limit - deg_base) + 1):
                            sign = -sigma_sign if w % 2 else sigma_sign
                            terms: Dict[tuple[MultiIndex, MultiIndex], int] = {}
                            placements = _alpha_placements(n_ext, eta_last_pos, j, w)
                            for gvec, cbase in base.items():
                                # P = collapse(gvec + alpha_hat) + e_{j-1}
                                lifted = list(_collapse(gvec, j))
                                lifted[j - 1] += 1
                                signed = sign * cbase
                                for nonzero, alpha in placements:
                                    coeff = signed
                                    for g_idx, av in nonzero:
                                        coeff *= math.comb(gvec[g_idx] + av, av)
                                    slot = (tuple(map(add, lifted, alpha)), alpha)
                                    terms[slot] = terms.get(slot, 0) + coeff
                            yield q, qp, sigma, w, terms


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


def coupling_c(
    n: int, a_family: GapCoefficientFamily, b_family: GapCoefficientFamily
) -> GapCoefficientFamily:
    """The coupling coefficients c_P at order n, as an exact family.

    Sums the contributions of every plant order m = 2..n-1 whose lower
    cascade family (order n-m+1) is present.  For n = 2 the result is
    identically zero.  The structure constants are walked only for the
    keys the families use: q in supp a_{n-m+1} with tau <= deg a_q, and
    q' in supp b_m with sigma <= deg b_q' (higher derivatives vanish).
    Keys that share (P, q, tau, q', sigma, tau - |alpha|) are summed as
    integers first, so each product d^tau a_q * d^sigma b_q' is formed
    once and no table is kept.
    """
    a_all = a_family.entries.values()
    b_all = b_family.entries.values()
    # Every product d^tau a_q * d^sigma b_q' has coefficients in
    # (1/(lcm_a*lcm_b)) Z, and x**(tau-w)/(tau-w)! in (1/(max deg a)!) Z[x],
    # so c_P sums in integers over one denominator, reduced once per entry.
    lcm_a = math.lcm(1, *(c.denominator for poly in a_all for c in poly.coeffs))
    lcm_b = math.lcm(1, *(c.denominator for poly in b_all for c in poly.coeffs))
    scale = lcm_a * lcm_b
    fact_top = math.factorial(max((poly.degree for poly in a_all), default=0))
    acc: Dict[MultiIndex, list[int]] = {}
    for m in range(2, n - 1 + 1):
        a_entries = a_family.at_order(n - m + 1)
        b_entries = b_family.at_order(m)
        if not b_entries or not a_entries:
            continue
        q_taus = [(q, poly.degree) for q, poly in sorted(a_entries.items())]
        qp_sigmas = [(qp, poly.degree) for qp, poly in sorted(b_entries.items())]
        # sums[(q, q', sigma)][|alpha|][P]: Gamma summed over alpha and
        # over the walk's legs and splits, before the tau sign.
        sums: Dict[tuple, Dict[int, Dict[MultiIndex, int]]] = {}
        for q, qp, sigma, w, terms in _gamma_walk(n, m, q_taus, qp_sigmas):
            bucket = sums.setdefault((q, qp, sigma), {}).setdefault(w, {})
            for (P, _), coeff in terms.items():
                bucket[P] = bucket.get(P, 0) + coeff
        for (q, qp, sigma), by_w in sums.items():
            db = b_entries[qp].derivative(sigma)
            for tau in range(1, a_entries[q].degree + 1):
                prod = a_entries[q].derivative(tau) * db
                coeffs = [c.numerator * (scale // c.denominator) for c in prod.coeffs]
                for w in range(tau + 1):
                    xpow = tau - w
                    unit = fact_top // math.factorial(xpow)
                    if tau % 2 == 0:
                        unit = -unit
                    for P, gamma in by_w.get(w, {}).items():
                        row = acc.setdefault(P, [])
                        if len(row) < xpow + len(coeffs):
                            row.extend([0] * (xpow + len(coeffs) - len(row)))
                        weight = unit * gamma
                        for k, c in enumerate(coeffs, start=xpow):
                            row[k] += weight * c
    den = scale * fact_top
    return GapCoefficientFamily(
        {(n, P): RationalPoly(Fraction(v, den) for v in row) for P, row in acc.items()},
        "coupling-c",
    )


def cascade(b_family: GapCoefficientFamily, n_max: int) -> GapCoefficientFamily:
    """Solve the scalar coefficient ODEs exactly for orders 2..n_max.

    Triangular in the order: a at order n needs only the plant family
    and the already-computed a entries of orders below n.  Every
    coefficient is the exact antiderivative of -b_P + c_P, so it
    vanishes at x = 0 by construction.
    """
    if n_max < 2:
        raise FamilyConfigError(f"n_max must be at least 2, got {n_max}")
    if b_family.role != "plant-b":
        raise FamilyConfigError(
            f"cascade consumes a plant-b family, got role {b_family.role!r}"
        )
    a_entries: Dict[tuple[int, MultiIndex], RationalPoly] = {}
    for n in range(2, n_max + 1):
        a_sofar = GapCoefficientFamily(dict(a_entries), "cascade-a")
        c_fam = coupling_c(n, a_sofar, b_family)
        slots = set(b_family.support(n)) | set(c_fam.support(n))
        for P in slots:
            rhs = (-b_family.get(n, P)) + c_fam.get(n, P)
            poly = rhs.integral()
            if not poly.is_zero():
                a_entries[(n, P)] = poly
    return GapCoefficientFamily(a_entries, "cascade-a", metadata=b_family.metadata)


def _phi_monomials(P: MultiIndex) -> Dict[MultiIndex, int]:
    """P! Phi_P = prod_r Delta_r**P_r as integer monomials over (x, xi_1..xi_n)."""
    # Chain index 0 is x, index i >= 1 is xi_i; gap r = chain_r - chain_{r+1}.
    terms: Dict[MultiIndex, int] = {(0,) * (len(P) + 1): 1}
    for r, pw in enumerate(P):
        if pw == 0:
            continue
        new: Dict[MultiIndex, int] = {}
        for i in range(pw + 1):
            coeff = math.comb(pw, i) * (-1) ** (pw - i)
            for vec, c in terms.items():
                key = vec[:r] + (vec[r] + i, vec[r + 1] + pw - i) + vec[r + 2 :]
                new[key] = new.get(key, 0) + c * coeff
        terms = {k: v for k, v in new.items() if v}
    return terms


def _expand_kernel(family: GapCoefficientFamily, n: int, shifted: bool) -> SimplexPolyKernel:
    """sum_P c_P(x) Phi_P as monomials, where c_P(x) is a_P(x) - a_P(x - xi_n)
    when ``shifted`` and the family's coefficient otherwise.

    Sums integers over L = lcm of denominator(coefficient) * P!; the
    kernel's constructor drops the monomials that cancel, reduces and
    orders them.
    """
    entries = family.at_order(n)
    pfact = {P: math.prod(map(math.factorial, P)) for P in entries}
    den = math.lcm(1, *(c.denominator * pfact[P] for P, p in entries.items() for c in p.coeffs))
    acc: Dict[MultiIndex, int] = {}
    for P, poly in entries.items():
        phi = _phi_monomials(P)
        for k, ck in enumerate(poly.coeffs):
            if ck == 0:
                continue
            unit = ck.numerator * (den // (ck.denominator * pfact[P]))
            # + ck x^k Phi_P, then (shifted) - ck (x - xi_n)^k Phi_P binomially.
            parts = [(unit, k, 0)]
            for i in range(k + 1) if shifted else ():
                parts.append((-unit * math.comb(k, i) * (-1) ** (k - i), i, k - i))
            for scale, de, dxi in parts:
                for vec, c in phi.items():
                    key = (vec[0] + de,) + vec[1:-1] + (vec[-1] + dxi,)
                    acc[key] = acc.get(key, 0) + scale * c
    return SimplexPolyKernel(n, {(v[0], v[1:]): c for v, c in acc.items()}, den)


def family_plant_kernel(family: GapCoefficientFamily, n: int) -> SimplexPolyKernel:
    """The order-n plant kernel sum_P b_P(x) Phi_P as an explicit polynomial."""
    return _expand_kernel(family, n, shifted=False)


def assemble_kernel_polynomial(a_family: GapCoefficientFamily, n: int) -> SimplexPolyKernel:
    """The assembled order-n kernel as an explicit polynomial in (x, xi).

    Expands sum_P [a_P(x) - a_P(x - xi_n)] Phi_P exactly, in integers over
    one common denominator.  The result is what the mesh cascades consume.
    """
    return _expand_kernel(a_family, n, shifted=True)


def dp_norm(entries: Mapping[MultiIndex, RationalPoly], r: float, R: float) -> float:
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
        for sigma in range(poly.degree + 1):
            dp = poly.derivative(sigma)
            if dp.is_zero():
                break
            acc += np.abs(dp(grid)) * weight * R**sigma / math.factorial(sigma)
    return float(np.max(acc)) if entries else 0.0


def dp_family_product(
    a_entries: Mapping[MultiIndex, RationalPoly],
    b_entries: Mapping[MultiIndex, RationalPoly],
) -> Dict[MultiIndex, RationalPoly]:
    """Coefficient family of the product of two gap-basis expansions.

    In divided powers the product rule is a binomial convolution:
    d_P = sum_{u + v = P} prod_r comb(P_r, u_r) a_u b_v.
    """
    out: Dict[MultiIndex, RationalPoly] = {}
    for u, pa in a_entries.items():
        for v, pb in b_entries.items():
            P = tuple(a + b for a, b in zip(u, v))
            coeff = 1
            for a, b in zip(u, v):
                coeff *= math.comb(a + b, a)
            term = (pa * pb).scale(coeff)
            if term.is_zero():
                continue
            out[P] = out.get(P, RationalPoly()) + term
    return {k: v for k, v in out.items() if not v.is_zero()}


def split_gap_integration(
    entries: Mapping[MultiIndex, RationalPoly], d: int
) -> Dict[MultiIndex, RationalPoly]:
    """Integrate out a split of gap ``d`` into two adjacent gaps.

    Input indices have length N+1 (gaps d and d+1 are the split pair);
    output indices have length N with gap d merged.  By the Beta
    identity, the output coefficient at P collects the inputs whose pair
    powers sum to P_d - 1:

        (I H)_P = sum_{a + b = P_d - 1} h_{(..., a, b, ...)}.
    """
    out: Dict[MultiIndex, RationalPoly] = {}
    for vec, poly in entries.items():
        if d < 0 or d + 1 >= len(vec):
            raise FamilyConfigError(
                f"split index {d} out of range for length-{len(vec)} multi-index"
            )
        merged = vec[:d] + (vec[d] + vec[d + 1] + 1,) + vec[d + 2 :]
        out[merged] = out.get(merged, RationalPoly()) + poly
    return {k: v for k, v in out.items() if not v.is_zero()}


def pdae_b_family() -> GapCoefficientFamily:
    """Plant family of the quadratic integral example: b at order 2 is 1."""
    return GapCoefficientFamily(
        {(2, (0, 0)): RationalPoly.constant(1)},
        "plant-b",
        metadata={"D": 1.0, "rho": 1.0, "mu": 1.0, "nu": 1.0},
    )


def family_to_json(family: GapCoefficientFamily) -> str:
    """Serialize a family with exact numerator/denominator strings."""
    entries = []
    for (n, P), poly in sorted(family.entries.items()):
        entries.append(
            {
                "n": n,
                "P": list(P),
                "coeffs": [f"{c.numerator}/{c.denominator}" for c in poly.coeffs],
            }
        )
    doc = {"role": family.role, "entries": entries}
    if family.metadata:
        doc["metadata"] = family.metadata
    return json.dumps(doc, indent=2)

