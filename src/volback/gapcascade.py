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

with plant-independent integer structure constants Gamma produced once
per (n, m) by a symbolic expansion (:func:`gamma_table`), and the
cascade integrates the scalar ODEs order by order (:func:`cascade`).

The expansion behind ``gamma_table`` substitutes the ansatz for the
lower kernel into the coupling operator, Taylor-expands the coefficient
functions at x (finite for polynomials), rewrites every appearance of
the integration variable through the extended gap chain, integrates in
s with the Beta identity (coefficient exactly 1 in divided powers), and
projects onto Phi_P.  All structure constants along the way are
binomial, so the Gamma values are integers by construction; that is the
reason for storing everything in the divided-power normalization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .polynomial import RationalPoly, SimplexPolyKernel
from .simplex import SimplexPoint, compositions, ordered_splits

MultiIndex = Tuple[int, ...]

FAMILY_ROLES = ("plant-b", "cascade-a", "coupling-c")


class GammaCapError(ValueError):
    """A structure-constant table was requested with insufficient caps."""


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

    def is_zero(self) -> bool:
        return not self.entries


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


def phi_eval(P: Sequence[int], point: SimplexPoint) -> float:
    """Phi_P at a simplex point: product of gap powers over factorials."""
    gaps = point.gaps
    if len(P) != len(gaps):
        raise FamilyConfigError(
            f"multi-index length {len(P)} does not match point order {point.order}"
        )
    val = 1.0
    for g, p in zip(gaps, P):
        if p:
            val *= g ** int(p) / math.factorial(int(p))
    return val


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


def gamma_table(
    n: int, m: int, p_degree_cap: int, tau_cap: int
) -> Dict[GammaKey, int]:
    """Integer structure constants for the (n, m) coupling term.

    The table is complete for keys with |P| <= p_degree_cap and
    tau <= tau_cap; every returned value is a plain integer, and every
    key satisfies |q| + |q'| + sigma + |alpha| = |P| - 1 with
    |alpha| <= tau.

    The computation walks the coupling operator symbolically, once per
    insertion leg j and order-preserving split of the trailing
    coordinates: the lower kernel's ansatz difference is Taylor-expanded
    at x (index tau), its last argument's powers are rewritten in the
    gaps above it (index alpha), the plant coefficient is Taylor-expanded
    at x (index sigma), the basis factors of both kernels are expanded
    over the extended gap chain containing the integration variable s,
    the s-integral is performed by the Beta identity (which carries
    coefficient 1 in divided powers and merges the two gaps adjacent to
    s), and the result is read off against Phi_P.
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

    p = n - m + 1
    n_ext = n + 1
    table: Dict[GammaKey, int] = {}

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
            eta_upper = list(range(eta_last_pos))
            for q in _multi_indices_up_to(p, p_degree_cap - 1):
                phi_q = _chain_expansion(n_ext, k_chain, q)
                deg_q = sum(q)
                for qp in _multi_indices_up_to(m, p_degree_cap - 1 - deg_q):
                    phi_qp = _chain_expansion(n_ext, f_chain, qp)
                    base_qq = _dp_mul_gap(phi_q, phi_qp)
                    deg_qq = deg_q + sum(qp)
                    for sigma in range(p_degree_cap - deg_qq):
                        if sigma == 0:
                            base = base_qq
                        else:
                            factor = _segment_sum_power(n_ext, sigma_upper, sigma)
                            base = _dp_mul_gap(base_qq, factor)
                        sigma_sign = -1 if sigma % 2 else 1
                        deg_base = deg_qq + sigma
                        w_room = p_degree_cap - 1 - deg_base
                        for tau in range(1, tau_cap + 1):
                            tau_sign = 1 if tau % 2 else -1
                            for w in range(0, min(tau, w_room) + 1):
                                w_sign = -1 if w % 2 else 1
                                sign = sigma_sign * tau_sign * w_sign
                                for alpha_hat in compositions(w, len(eta_upper)):
                                    avec = [0] * n_ext
                                    for g, pw in zip(eta_upper, alpha_hat):
                                        avec[g] = pw
                                    alpha = _collapse(tuple(avec), j)
                                    for gvec, cbase in base.items():
                                        coeff = sign * cbase
                                        tot = list(gvec)
                                        for g_idx in range(n_ext):
                                            av = avec[g_idx]
                                            if av:
                                                coeff *= math.comb(
                                                    tot[g_idx] + av, av
                                                )
                                                tot[g_idx] += av
                                        P = _collapse(tuple(tot), j)
                                        P = (
                                            P[: j - 1]
                                            + (P[j - 1] + 1,)
                                            + P[j:]
                                        )
                                        key = GammaKey(
                                            n, m, P, q, qp, sigma, tau, alpha
                                        )
                                        table[key] = table.get(key, 0) + coeff

    table = {k: v for k, v in table.items() if v}
    for key in table:
        assert sum(key.q) + sum(key.qp) + key.sigma + sum(key.alpha) == sum(key.P) - 1
        assert sum(key.alpha) <= key.tau
    _GAMMA_CACHE[cache_key] = table
    return table


def _required_caps(
    a_entries: Mapping[MultiIndex, RationalPoly],
    b_entries: Mapping[MultiIndex, RationalPoly],
) -> tuple[int, int]:
    tau_need = max(1, max((poly.degree for poly in a_entries.values()), default=1))
    sigma_max = max((poly.degree for poly in b_entries.values()), default=0)
    q_max = max((sum(q) for q in a_entries), default=0)
    qp_max = max((sum(qp) for qp in b_entries), default=0)
    p_cap = 1 + q_max + qp_max + sigma_max + tau_need
    return p_cap, tau_need


def coupling_c(
    n: int,
    a_family: GapCoefficientFamily,
    b_family: GapCoefficientFamily,
    p_degree_cap: int | None = None,
    tau_cap: int | None = None,
) -> GapCoefficientFamily:
    """The coupling coefficients c_P at order n, as an exact family.

    Sums the contributions of every plant order m = 2..n-1 whose lower
    cascade family (order n-m+1) is present.  For n = 2 the result is
    identically zero.  Explicit caps smaller than what the polynomial
    degrees require raise :class:`GammaCapError` naming the needed caps.
    """
    out: Dict[tuple[int, MultiIndex], RationalPoly] = {}
    for m in range(2, n - 1 + 1):
        p = n - m + 1
        b_entries = b_family.at_order(m)
        a_entries = a_family.at_order(p)
        if not b_entries or not a_entries:
            continue
        p_need, tau_need = _required_caps(a_entries, b_entries)
        use_p = p_degree_cap if p_degree_cap is not None else p_need
        use_tau = tau_cap if tau_cap is not None else tau_need
        if use_p < p_need or use_tau < tau_need:
            raise GammaCapError(
                f"coupling (n={n}, m={m}) needs p_degree_cap >= {p_need} "
                f"and tau_cap >= {tau_need}, got ({use_p}, {use_tau})"
            )
        table = gamma_table(n, m, use_p, use_tau)
        a_derivs: Dict[tuple[MultiIndex, int], RationalPoly] = {}
        b_derivs: Dict[tuple[MultiIndex, int], RationalPoly] = {}
        for key, gamma in table.items():
            a_poly = a_entries.get(key.q)
            if a_poly is None:
                continue
            b_poly = b_entries.get(key.qp)
            if b_poly is None:
                continue
            da = a_derivs.get((key.q, key.tau))
            if da is None:
                da = a_poly.derivative(key.tau)
                a_derivs[(key.q, key.tau)] = da
            if da.is_zero():
                continue
            db = b_derivs.get((key.qp, key.sigma))
            if db is None:
                db = b_poly.derivative(key.sigma)
                b_derivs[(key.qp, key.sigma)] = db
            if db.is_zero():
                continue
            xpow = key.tau - sum(key.alpha)
            lead = RationalPoly.monomial(
                Fraction(gamma, math.factorial(xpow)), xpow
            )
            term = lead * da * db
            slot = (n, key.P)
            out[slot] = out.get(slot, RationalPoly()) + term
    return GapCoefficientFamily(
        {k: v for k, v in out.items() if not v.is_zero()}, "coupling-c"
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


def assemble_kernel(a_family: GapCoefficientFamily, n: int, point: SimplexPoint) -> float:
    """Kernel value from the ansatz: sum_P [a_P(x) - a_P(x - xi_n)] Phi_P.

    Exact rational arithmetic on the (binary) rational coordinates, cast
    to float at the end.  Vanishes identically at xi_n = 0.
    """
    if point.order != n:
        raise FamilyConfigError(
            f"point has order {point.order}, expected {n}"
        )
    x = Fraction(point.x)
    xi_n = Fraction(point.xi[-1])
    gaps = [Fraction(a) - Fraction(b) for a, b in zip((point.x,) + point.xi, point.xi)]
    total = Fraction(0)
    for P, poly in a_family.at_order(n).items():
        diff = poly.eval_exact(x) - poly.eval_exact(x - xi_n)
        if diff == 0:
            continue
        phi = Fraction(1)
        for g, pw in zip(gaps, P):
            if pw:
                phi *= g**pw / math.factorial(pw)
        total += diff * phi
    return float(total)


def _phi_monomials(P: MultiIndex) -> Dict[tuple[int, MultiIndex], Fraction]:
    """Monomial expansion of Phi_P over the variables (x, xi_1..xi_n)."""
    n = len(P)
    # Chain symbols: index 0 is x, index i >= 1 is xi_i.  A monomial is
    # (x power, xi powers).
    terms: Dict[tuple[int, MultiIndex], Fraction] = {(0, tuple([0] * n)): Fraction(1)}
    for r, pw in enumerate(P):
        if pw == 0:
            continue
        inv = Fraction(1, math.factorial(pw))
        new: Dict[tuple[int, MultiIndex], Fraction] = {}
        for i in range(pw + 1):
            coeff = inv * math.comb(pw, i) * (-1) ** (pw - i)
            # gap r = chain_r - chain_{r+1}: upper entry to power i,
            # lower entry to power pw - i.
            for (e, alphas), c in terms.items():
                e2, al2 = e, list(alphas)
                if r == 0:
                    e2 += i
                else:
                    al2[r - 1] += i
                al2[r] += pw - i
                key = (e2, tuple(al2))
                new[key] = new.get(key, Fraction(0)) + c * coeff
        terms = {k: v for k, v in new.items() if v != 0}
    return terms


def family_plant_kernel(family: GapCoefficientFamily, n: int) -> SimplexPolyKernel:
    """The order-n plant kernel sum_P b_P(x) Phi_P as an explicit polynomial."""
    out = SimplexPolyKernel(n, {})
    for P, poly in family.at_order(n).items():
        phi = _phi_monomials(P)
        for k, ck in enumerate(poly.coeffs):
            if ck == 0:
                continue
            for (e, alphas), c in phi.items():
                out.add_term(ck * c, e + k, alphas)
    return out


def assemble_kernel_polynomial(a_family: GapCoefficientFamily, n: int) -> SimplexPolyKernel:
    """The assembled order-n kernel as an explicit polynomial in (x, xi).

    Expands sum_P [a_P(x) - a_P(x - xi_n)] Phi_P monomial by monomial,
    exactly.  The result is what the fast mesh cascades consume.
    """
    out = SimplexPolyKernel(n, {})
    for P, poly in a_family.at_order(n).items():
        phi = _phi_monomials(P)
        for k, ck in enumerate(poly.coeffs):
            if ck == 0:
                continue
            # a_P(x) contribution: + ck x^k Phi_P
            for (e, alphas), c in phi.items():
                out.add_term(ck * c, e + k, alphas)
            # a_P(x - xi_n) contribution: - ck (x - xi_n)^k Phi_P
            for i in range(k + 1):
                bcoeff = math.comb(k, i) * Fraction(-1) ** (k - i)
                for (e, alphas), c in phi.items():
                    al2 = list(alphas)
                    al2[n - 1] += k - i
                    out.add_term(-ck * bcoeff * c, e + i, tuple(al2))
    return out


def dp_norm(
    family: GapCoefficientFamily, r: float, R: float, n: int | None = None
) -> float:
    """The weighted coefficient norm of a finite family.

    sup over x in [0, 1] (sampled on a 1001-point grid, hence a lower
    bound of the true sup) of

        sum_P sum_sigma |d^sigma/dx^sigma poly_P(x)| r^|P| R^sigma / (P! sigma!).

    Raises for r <= 0 or R <= 0.
    """
    if r <= 0 or R <= 0:
        raise ValueError(f"norm weights must be positive, got r={r}, R={R}")
    grid = np.linspace(0.0, 1.0, 1001)
    acc = np.zeros_like(grid)
    for (order, P), poly in family.entries.items():
        if n is not None and order != n:
            continue
        pfact = 1.0
        for pw in P:
            pfact *= math.factorial(pw)
        weight = r ** sum(P) / pfact
        for sigma in range(poly.degree + 1):
            dp = poly.derivative(sigma)
            if dp.is_zero():
                break
            acc += np.abs(dp(grid)) * weight * R**sigma / math.factorial(sigma)
    return float(np.max(acc)) if family.entries else 0.0


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


def family_from_json(text: str) -> GapCoefficientFamily:
    doc = json.loads(text)
    entries: Dict[tuple[int, MultiIndex], RationalPoly] = {}
    for item in doc["entries"]:
        poly = RationalPoly([Fraction(c) for c in item["coeffs"]])
        entries[(int(item["n"]), tuple(item["P"]))] = poly
    return GapCoefficientFamily(entries, doc["role"], metadata=doc.get("metadata"))
