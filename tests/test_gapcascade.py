"""Gap-basis cascade: exact coefficient recursion and kernel assembly."""

import hashlib
import json
import math
from collections import defaultdict
from fractions import Fraction as Fr
from functools import lru_cache

import numpy as np
import pytest

from volback import gapcascade
from volback.gapcascade import (
    FamilyConfigError,
    GammaCapError,
    GapCoefficientFamily,
    assemble_kernel_polynomial,
    cascade,
    coupling_c,
    dp_family_product,
    dp_norm,
    family_plant_kernel,
    family_to_json,
    gamma_table,
    pdae_b_family,
    split_gap_integration,
)
from volback.polynomial import RationalPoly, pdae_k2, pdae_k3
from volback.verification import _phi

from conftest import exact_kernel, poly_eval_exact, random_simplex_points


def assemble_kernel(a_family: GapCoefficientFamily, n: int, x: float, xi) -> float:
    """Kernel value from the ansatz, sum_P [a_P(x) - a_P(x - xi_n)] Phi_P,
    at one point ``xi`` of T_n(x).

    Exact rational arithmetic on the (binary) rational coordinates, cast
    to float at the end.  Vanishes identically at xi_n = 0.
    """
    chain = [Fr(float(v)) for v in (x, *xi)]
    if len(chain) != n + 1:
        raise FamilyConfigError(f"point has order {len(chain) - 1}, expected {n}")
    x, xi_n = chain[0], chain[-1]
    gaps = [a - b for a, b in zip(chain, chain[1:])]
    total = Fr(0)
    for P, poly in a_family.at_order(n).items():
        diff = poly_eval_exact(poly, x) - poly_eval_exact(poly, x - xi_n)
        if diff == 0:
            continue
        phi = Fr(1)
        for g, pw in zip(gaps, P):
            if pw:
                phi *= g**pw / math.factorial(pw)
        total += diff * phi
    return float(total)


def family_from_json(text: str) -> GapCoefficientFamily:
    """The family that ``family_to_json`` wrote as ``text`` (the reader
    of ``a_family.json``)."""
    doc = json.loads(text)
    entries = {}
    for item in doc["entries"]:
        poly = RationalPoly([Fr(c) for c in item["coeffs"]])
        entries[(int(item["n"]), tuple(item["P"]))] = poly
    return GapCoefficientFamily(entries, doc["role"], metadata=doc.get("metadata"))


class TestPhi:
    """Phi_P at chain rows (x, xi_1, ..., xi_n), as the transport-invariance
    check evaluates it."""

    def test_frozen_value(self):
        chain = np.array([[1.0, 0.8, 0.3, 0.1]])
        assert _phi((0, 2, 0), chain) == pytest.approx([0.125])

    def test_weight_zero_is_one(self):
        chain = np.array([[0.7, 0.5, 0.2], [0.9, 0.4, 0.1]])
        assert list(_phi((0, 0), chain)) == [1.0, 1.0]

    def test_diagonal_shift_invariance(self):
        p = (1, 0, 2)
        h = 0.04
        chain = np.array([[0.8, 0.5, 0.3, 0.1]])
        assert _phi(p, chain + h) == pytest.approx(_phi(p, chain), abs=1e-14)


class TestFamilyValidation:
    def test_role_checked(self):
        with pytest.raises(FamilyConfigError):
            GapCoefficientFamily({}, "mystery")

    def test_index_length_checked(self):
        with pytest.raises(FamilyConfigError):
            GapCoefficientFamily({(2, (0, 0, 0)): RationalPoly.constant(1)}, "plant-b")

    def test_cascade_entries_vanish_at_zero(self):
        with pytest.raises(FamilyConfigError):
            GapCoefficientFamily(
                {(2, (0, 0)): RationalPoly.constant(1)}, "cascade-a"
            )

    def test_zero_entries_dropped(self):
        fam = GapCoefficientFamily(
            {(2, (0, 0)): RationalPoly([0])}, "plant-b"
        )
        assert fam.entries == {}


class TestGammaTable:
    def test_out_of_range_orders_rejected(self):
        with pytest.raises(GammaCapError):
            gamma_table(3, 3, 4, 2)
        with pytest.raises(GammaCapError):
            gamma_table(2, 2, 4, 2)

    def test_key_weight_invariant(self):
        for key, val in gamma_table(3, 2, 4, 2).items():
            total = sum(key.q) + sum(key.qp) + key.sigma + sum(key.alpha)
            assert total == sum(key.P) - 1
            assert sum(key.alpha) <= key.tau
            assert isinstance(val, int)

    def test_quadratic_example_slice(self):
        # the only keys active for the quadratic plant at order 3
        table = gamma_table(3, 2, 4, 2)
        sums = defaultdict(int)
        for key, g in table.items():
            if key.q == (0, 0) and key.qp == (0, 0) and key.sigma == 0 and key.tau == 1:
                sums[(key.P, sum(key.alpha))] += g
        assert sums[((1, 0, 0), 0)] == 3
        assert sums[((0, 1, 0), 0)] == 1
        assert sums[((2, 0, 0), 1)] == -6
        assert sums[((1, 1, 0), 1)] == -3
        assert sums[((1, 0, 1), 1)] == -1
        assert sums[((0, 2, 0), 1)] == -1


class TestCoupling:
    def test_order2_has_no_coupling(self, b_family):
        a2 = cascade(b_family, 2)
        c2 = coupling_c(2, a2, b_family)
        assert c2.entries == {}

    def test_quadratic_example_coupling(self, b_family, a_family):
        c3 = coupling_c(3, a_family, b_family)
        want = {
            (1, 0, 0): (Fr(0), Fr(-3)),
            (0, 1, 0): (Fr(0), Fr(-1)),
            (2, 0, 0): (Fr(6),),
            (1, 1, 0): (Fr(3),),
            (1, 0, 1): (Fr(1),),
            (0, 2, 0): (Fr(1),),
        }
        got = {P: c3.get(3, P).coeffs for P in c3.support(3)}
        assert got == want


def ks_shaped_family():
    """A plant of the kernel-synthesis benchmark's shape: two constant
    order-2 entries and two degree-1 order-3 entries, |P| <= 1."""
    return GapCoefficientFamily(
        {
            (2, (0, 0)): RationalPoly([Fr(-3, 2)]),
            (2, (0, 1)): RationalPoly([Fr(1, 2)]),
            (3, (1, 0, 0)): RationalPoly([Fr(1), Fr(-1, 4)]),
            (3, (0, 0, 1)): RationalPoly([Fr(-4, 3), Fr(-3, 2)]),
        },
        "plant-b",
    )


def coupling_from_full_table(n, a_family, b_family):
    """c_P assembled term by term from the full ``gamma_table``, at the
    smallest caps the families' indices and degrees need."""
    out = {}
    for m in range(2, n):
        a_entries = a_family.at_order(n - m + 1)
        b_entries = b_family.at_order(m)
        if not a_entries or not b_entries:
            continue
        tau_cap = max(poly.degree for poly in a_entries.values())
        p_cap = (
            1
            + max(sum(q) for q in a_entries)
            + max(sum(qp) for qp in b_entries)
            + max(poly.degree for poly in b_entries.values())
            + tau_cap
        )
        for key, gamma in gamma_table(n, m, p_cap, tau_cap).items():
            if key.q not in a_entries or key.qp not in b_entries:
                continue
            xpow = key.tau - sum(key.alpha)
            lead = RationalPoly([0] * xpow + [Fr(gamma, math.factorial(xpow))])
            term = (
                lead
                * a_entries[key.q].derivative(key.tau)
                * b_entries[key.qp].derivative(key.sigma)
            )
            out[(n, key.P)] = out.get((n, key.P), RationalPoly()) + term
    return {k: v for k, v in out.items() if not v.is_zero()}


class TestCouplingOracle:
    """The demand-driven walk against the full structure-constant table."""

    @pytest.mark.parametrize("plant", ["pdae", "ks-shaped"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_full_table(self, plant, n):
        b = pdae_b_family() if plant == "pdae" else ks_shaped_family()
        a = cascade(b, n - 1)
        want = coupling_from_full_table(n, a, b)
        assert want
        assert coupling_c(n, a, b).entries == want

    def test_cascade_builds_no_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("cascade must not build a full gamma table")

        monkeypatch.setattr(gapcascade, "gamma_table", refuse)
        assert cascade(ks_shaped_family(), 4).at_order(4)

    @pytest.mark.parametrize(
        "plant, n, digest",
        [
            ("pdae", 4, "df0adcd0ba5c324e81441f2a00227bdb8471d9b12bd365371289fdd150627bc2"),
            ("pdae", 5, "5d46b8e751b4a3ae745a4fd32309e5ec57506540653d9cd7a95a86a8218dd1cf"),
            ("ks-shaped", 4, "fad0ead8aa57106b07878e5630d6227375cfd3c4b51c1723b8176a62ae4c586c"),
        ],
    )
    def test_cascade_snapshot(self, plant, n, digest):
        b = pdae_b_family() if plant == "pdae" else ks_shaped_family()
        text = family_to_json(cascade(b, n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCascade:
    def test_exact_order2(self, a_family):
        assert a_family.get(2, (0, 0)).coeffs == (Fr(0), Fr(-1))

    def test_exact_order3(self, a_family):
        want = {
            (2, 0, 0): (Fr(0), Fr(6)),
            (1, 1, 0): (Fr(0), Fr(3)),
            (1, 0, 1): (Fr(0), Fr(1)),
            (1, 0, 0): (Fr(0), Fr(0), Fr(-3, 2)),
            (0, 2, 0): (Fr(0), Fr(1)),
            (0, 1, 0): (Fr(0), Fr(0), Fr(-1, 2)),
        }
        got = {P: a_family.get(3, P).coeffs for P in a_family.support(3)}
        assert got == want

    def test_support_is_exactly_seven(self, a_family):
        assert len(a_family.support(2)) + len(a_family.support(3)) == 7

    def test_requires_plant_role(self, a_family):
        with pytest.raises(FamilyConfigError):
            cascade(a_family, 3)

    def test_metadata_propagates(self, b_family, a_family):
        assert a_family.metadata == b_family.metadata


class TestAssembly:
    def test_frozen_point(self, a_family):
        assert assemble_kernel(a_family, 3, 1.0, (0.5, 0.25, 0.2)) == pytest.approx(-63.0 / 800.0)

    def test_zero_tail(self, a_family):
        assert assemble_kernel(a_family, 3, 1.0, (0.5, 0.25, 0.0)) == 0.0

    def test_polynomial_forms_match_closed_forms(self, a_family):
        assert assemble_kernel_polynomial(a_family, 2) == pdae_k2()
        assert assemble_kernel_polynomial(a_family, 3) == pdae_k3()

    def test_polynomial_matches_pointwise(self, a_family):
        poly = assemble_kernel_polynomial(a_family, 3)
        rng = np.random.default_rng(4)
        pts = random_simplex_points(rng, 3, 50)
        vals = poly(1.0, pts)
        want = [assemble_kernel(a_family, 3, 1.0, r) for r in pts]
        assert vals == pytest.approx(want, abs=1e-13)

    def test_plant_kernel_assembly(self, b_family):
        kern = family_plant_kernel(b_family, 2)
        pts = np.array([[0.5, 0.2], [0.9, 0.1]])
        assert kern(1.0, pts) == pytest.approx([1.0, 1.0])


def mixed_denominator_family():
    """A plant whose coefficients have unrelated denominators, so the
    expansion's common denominator is a nontrivial lcm."""
    return GapCoefficientFamily(
        {
            (2, (0, 0)): RationalPoly([Fr(1, 3)]),
            (2, (1, 0)): RationalPoly([Fr(2, 7), Fr(1, 5)]),
            (3, (0, 1, 0)): RationalPoly([Fr(-5, 6), Fr(1, 9)]),
        },
        "plant-b",
    )


PLANTS = {"pdae": pdae_b_family, "ks-shaped": ks_shaped_family, "mixed": mixed_denominator_family}


@lru_cache(maxsize=None)
def cascade_of(plant, n_max):
    return cascade(PLANTS[plant](), n_max)


def fraction_phi_monomials(P):
    """Phi_P over (x, xi_1..xi_n), expanded gap by gap in Fractions."""
    n = len(P)
    terms = {(0, (0,) * n): Fr(1)}
    for r, pw in enumerate(P):
        if pw == 0:
            continue
        new = {}
        for i in range(pw + 1):
            coeff = Fr(math.comb(pw, i) * (-1) ** (pw - i), math.factorial(pw))
            for (e, alphas), c in terms.items():
                al2 = list(alphas)
                if r == 0:
                    e += i
                else:
                    al2[r - 1] += i
                al2[r] += pw - i
                key = (e, tuple(al2))
                new[key] = new.get(key, Fr(0)) + c * coeff
        terms = {k: v for k, v in new.items() if v != 0}
    return terms


def fraction_expansion(family, n, shifted):
    """Reference kernel: sum_P c_P(x) Phi_P summed term by term in
    Fractions and turned into a kernel (``exact_kernel``), with
    c_P(x) = a_P(x) - a_P(x - xi_n) when ``shifted``."""
    out = {}

    def add(coeff, e, alphas):
        out[(e, alphas)] = out.get((e, alphas), Fr(0)) + coeff

    for P, poly in family.at_order(n).items():
        phi = fraction_phi_monomials(P)
        for k, ck in enumerate(poly.coeffs):
            if ck == 0:
                continue
            for (e, alphas), c in phi.items():
                add(ck * c, e + k, alphas)
            if not shifted:
                continue
            for i in range(k + 1):
                bcoeff = math.comb(k, i) * Fr(-1) ** (k - i)
                for (e, alphas), c in phi.items():
                    al2 = alphas[:-1] + (alphas[-1] + k - i,)
                    add(-ck * bcoeff * c, e + i, al2)
    return exact_kernel(n, out)


EXPANSION_CASES = (
    [("pdae", n) for n in range(2, 6)]
    + [("ks-shaped", n) for n in range(2, 5)]
    + [("mixed", n) for n in range(2, 5)]
)


class TestIntegerExpansion:
    """The integer expander reproduces the Fraction expansion exactly:
    the same kernel, integer numerators over the same denominator, in the
    same (canonical) monomial order."""

    @staticmethod
    def assert_same_kernel(got, want):
        assert got == want
        assert list(got.monomials) == list(want.monomials)
        assert all(type(v) is int for v in got.monomials.values()) and type(got.den) is int

    @pytest.mark.parametrize("plant, n", EXPANSION_CASES)
    def test_assembly_matches_fraction_expansion(self, plant, n):
        a = cascade_of(plant, n)
        want = fraction_expansion(a, n, shifted=True)
        self.assert_same_kernel(assemble_kernel_polynomial(a, n), want)

    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_plant_kernel_matches_fraction_expansion(self, plant):
        b = PLANTS[plant]()
        for n in b.orders():
            want = fraction_expansion(b, n, shifted=False)
            self.assert_same_kernel(family_plant_kernel(b, n), want)

    @pytest.mark.parametrize("plant, n", [("pdae", 4), ("ks-shaped", 3), ("mixed", 3)])
    def test_unshifted_expansion_of_cascade_family(self, plant, n):
        a = cascade_of(plant, n)
        want = fraction_expansion(a, n, shifted=False)
        self.assert_same_kernel(family_plant_kernel(a, n), want)


class TestNorms:
    def test_plant_family_norm(self, b_family):
        assert dp_norm(b_family.at_order(2), 3.0, 2.0) == pytest.approx(1.0)

    def test_linear_entry_norm(self):
        assert dp_norm({(0, 0): RationalPoly([0, -1])}, 1.0, 3.0) == pytest.approx(4.0)

    def test_zero_family_norm(self):
        assert dp_norm({}, 1.0, 1.0) == 0.0

    def test_domain_errors(self, b_family):
        with pytest.raises(ValueError):
            dp_norm(b_family.at_order(2), 0.0, 1.0)
        with pytest.raises(ValueError):
            dp_norm(b_family.at_order(2), 1.0, -2.0)


class TestRawOperations:
    def test_product_divided_power_rule(self):
        one = RationalPoly.constant(1)
        prod = dp_family_product({(1, 0): one}, {(1, 0): one})
        assert set(prod) == {(2, 0)}
        assert prod[(2, 0)].coeffs == (Fr(2),)

    def test_split_gap_beta_identity(self):
        one = RationalPoly.constant(1)
        merged = split_gap_integration({(0, 0, 0): one}, 0)
        assert set(merged) == {(1, 0)}
        assert merged[(1, 0)].coeffs == (Fr(1),)

    def test_split_gap_collects_pairs(self):
        one = RationalPoly.constant(1)
        entries = {(1, 0, 0): one, (0, 1, 0): one}
        merged = split_gap_integration(entries, 0)
        assert merged[(2, 0)].coeffs == (Fr(2),)


class TestSerialization:
    def test_round_trip(self, a_family):
        text = family_to_json(a_family)
        back = family_from_json(text)
        assert back.entries == a_family.entries
        assert back.role == a_family.role
        assert back.metadata == a_family.metadata

    def test_exact_rational_strings(self, a_family):
        text = family_to_json(a_family)
        assert "-3/2" in text
        assert "0.5" not in text
