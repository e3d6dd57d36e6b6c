"""Gap-basis cascade: exact coefficient recursion and kernel assembly."""

import hashlib
import json
import math
from collections import defaultdict
from fractions import Fraction as Fr
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
    poly_numerators,
    poly_product,
    poly_sum,
    split_gap_integration,
    x_poly,
)
from volback.polynomial import SimplexPolyKernel, _pack, _unpack, pdae_k2, pdae_k3, poly_degree
from volback.verification import _phi

from conftest import (
    fraction_expansion,
    iterated_chain_expansion,
    packed_case,
    poly_coefficients,
    poly_derivative,
    poly_eval_exact,
    random_simplex_points,
    rational_poly,
)


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
        poly = rational_poly([Fr(c) for c in item["coeffs"]])
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
            GapCoefficientFamily({(2, (0, 0, 0)): x_poly([1])}, "plant-b")

    @pytest.mark.parametrize(
        "coeff",
        [Fr(1), (Fr(1),), SimplexPolyKernel(1, {(0, (1,)): 1})],
        ids=["fraction", "tuple", "order-1-kernel"],
    )
    def test_entry_must_be_order0_kernel(self, coeff):
        with pytest.raises(FamilyConfigError, match=r"\[2, \(0, 0\)\] must be a polynomial in x"):
            GapCoefficientFamily({(2, (0, 0)): coeff}, "plant-b")

    def test_cascade_entries_vanish_at_zero(self):
        with pytest.raises(FamilyConfigError, match=r"a\[3, \(1, 0, 2\)\] must vanish at x = 0"):
            GapCoefficientFamily(
                {(2, (0, 0)): x_poly([0, 1]), (3, (1, 0, 2)): x_poly([1, 0, 1], 3)}, "cascade-a"
            )

    def test_zero_entries_dropped(self):
        fam = GapCoefficientFamily(
            {(2, (0, 0)): x_poly([0]), (2, (1, 0)): x_poly([0, 0], 7)}, "plant-b"
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


def coupling_entries(n, a_family, b_family):
    """``coupling_c``'s numerator rows as ``{(n, P): polynomial}``."""
    rows, den = coupling_c(n, a_family, b_family)
    return {(n, P): x_poly(row, den) for P, row in rows.items()}


class TestCoupling:
    def test_order2_has_no_coupling(self, b_family):
        a2 = cascade(b_family, 2)
        assert coupling_entries(2, a2, b_family) == {}

    def test_quadratic_example_coupling(self, b_family, a_family):
        c3 = coupling_entries(3, a_family, b_family)
        want = {
            (1, 0, 0): (Fr(0), Fr(-3)),
            (0, 1, 0): (Fr(0), Fr(-1)),
            (2, 0, 0): (Fr(6),),
            (1, 1, 0): (Fr(3),),
            (1, 0, 1): (Fr(1),),
            (0, 2, 0): (Fr(1),),
        }
        got = {P: poly_coefficients(poly) for (_, P), poly in c3.items()}
        assert got == want


def ks_shaped_family():
    """A plant of the kernel-synthesis benchmark's shape: two constant
    order-2 entries and two degree-1 order-3 entries, |P| <= 1."""
    return GapCoefficientFamily(
        {
            (2, (0, 0)): rational_poly([Fr(-3, 2)]),
            (2, (0, 1)): rational_poly([Fr(1, 2)]),
            (3, (1, 0, 0)): rational_poly([Fr(1), Fr(-1, 4)]),
            (3, (0, 0, 1)): rational_poly([Fr(-4, 3), Fr(-3, 2)]),
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
        tau_cap = max(map(poly_degree, a_entries.values()))
        p_cap = (
            1
            + max(sum(q) for q in a_entries)
            + max(sum(qp) for qp in b_entries)
            + max(map(poly_degree, b_entries.values()))
            + tau_cap
        )
        for key, gamma in gamma_table(n, m, p_cap, tau_cap).items():
            if key.q not in a_entries or key.qp not in b_entries:
                continue
            xpow = key.tau - sum(key.alpha)
            lead = rational_poly([0] * xpow + [Fr(gamma, math.factorial(xpow))])
            term = poly_product(
                poly_product(lead, poly_derivative(a_entries[key.q], key.tau)),
                poly_derivative(b_entries[key.qp], key.sigma),
            )
            out[(n, key.P)] = poly_sum(out.get((n, key.P), x_poly(())), term)
    return {k: v for k, v in out.items() if v.monomials}


class TestCouplingOracle:
    """The demand-driven walk against the full structure-constant table."""

    @pytest.mark.parametrize("plant", ["pdae", "ks-shaped"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_full_table(self, plant, n):
        b = pdae_b_family() if plant == "pdae" else ks_shaped_family()
        a = cascade(b, n - 1)
        want = coupling_from_full_table(n, a, b)
        assert want
        assert coupling_entries(n, a, b) == want

    def test_cascade_builds_no_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("cascade must not build a full gamma table")

        monkeypatch.setattr(gapcascade, "gamma_table", refuse)
        assert cascade(ks_shaped_family(), 4).at_order(4)

    def test_cascade_runs_no_alpha_resolved_walk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("cascade must not run the alpha-resolved walk")

        monkeypatch.setattr(gapcascade, "_gamma_walk", refuse)
        assert cascade(mixed_denominator_family(), 4).at_order(4)

    @pytest.mark.parametrize(
        "plant, n, digest",
        [
            ("pdae", 4, "df0adcd0ba5c324e81441f2a00227bdb8471d9b12bd365371289fdd150627bc2"),
            ("pdae", 5, "5d46b8e751b4a3ae745a4fd32309e5ec57506540653d9cd7a95a86a8218dd1cf"),
            ("ks-shaped", 4, "fad0ead8aa57106b07878e5630d6227375cfd3c4b51c1723b8176a62ae4c586c"),
            # sigma = 1 at m = 2, and denominators 3, 5, 6, 7, 9
            ("mixed", 4, "f9f5aa558facd543cf99b8ffeff7be1bddf2e45a73d1d1a548f4a0c21d1ca2cd"),
            ("pdae", 6, "cfd1b9202c2599a9ff6099dfaf44e36db5f2f6f444c3cbb07c35ca65fe977097"),
            ("bench-seed1", 4, "d2cf55c5286c2b2e02e174a669165f07ab0d7b5e1b9703cfd405d82c5110096d"),
        ],
    )
    def test_cascade_snapshot(self, plant, n, digest):
        text = family_to_json(cascade(PLANTS[plant](), n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def alpha_summed_reference(n, m, q_taus, qp_sigmas):
    """``_gamma_walk``'s terms summed over alpha and over its legs and
    splits: {(q, q', sigma, w): {P: int}}, zeros dropped."""
    out = defaultdict(lambda: defaultdict(int))
    for q, qp, sigma, w, terms in gapcascade._gamma_walk(n, m, q_taus, qp_sigmas):
        for (P, _), coeff in terms.items():
            out[(q, qp, sigma, w)][P] += coeff
    return {key: {P: v for P, v in by_P.items() if v} for key, by_P in out.items()}


def summed_walk(n, m, q_taus, qp_sigmas):
    """``_summed_walk`` in the reference's layout, P unpacked."""
    width = gapcascade._slot_width(q_taus, qp_sigmas)
    return {
        (q, qp, sigma, w): {_unpack(P, width, n): v for P, v in by_P.items() if v}
        for q, sums in gapcascade._summed_walk(n, m, q_taus, qp_sigmas, width)
        for (qp, sigma), by_w in sums.items()
        for w, by_P in by_w.items()
    }


@st.composite
def walk_case(draw):
    """(n, m, q_taus, qp_sigmas): n = 3..5, 2 <= m <= n-1, a few lower
    and plant indices with |q|, |q'| <= 2 and tau, sigma bounds 0..3."""
    n = draw(st.integers(3, 5))
    m = draw(st.integers(2, n - 1))
    bound = st.integers(0, 3)

    def indexed(slots):
        indices = gapcascade._multi_indices_up_to(slots, 2)
        chosen = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=3, unique=True))
        return [(idx, draw(bound)) for idx in sorted(chosen)]

    return n, m, indexed(n - m + 1), indexed(m)


class TestSummedWalk:
    """The alpha-summed walk of ``coupling_c`` against the alpha-resolved
    ``_gamma_walk`` of ``gamma_table``, key by key."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=walk_case())
    @example(case=(5, 2, [((0, 1, 0, 1), 3), ((2, 0, 0, 0), 2)], [((1, 0), 3)]))
    @example(case=(4, 3, [((0, 0), 3)], [((0, 1, 1), 2), ((0, 0, 0), 0)]))
    def test_matches_alpha_resolved_walk(self, case):
        want = alpha_summed_reference(*case)
        assert want
        assert summed_walk(*case) == want

    @pytest.mark.parametrize("branch", ["merged", "unmerged"])
    @pytest.mark.parametrize("n, m", [(4, 2), (5, 2), (5, 3)])
    def test_each_branch_alone(self, monkeypatch, branch, n, m):
        # Keep only the splits that give the lower kernel arguments after s
        # (merged: j < p) or none (unmerged: j = p, s is its last argument).
        splits = gapcascade.ordered_splits

        def only(total, first_size):
            keep = first_size > 0 if branch == "merged" else first_size == 0
            return splits(total, first_size) if keep else ()

        monkeypatch.setattr(gapcascade, "ordered_splits", only)
        q_taus = [(q, 3) for q in gapcascade._multi_indices_up_to(n - m + 1, 1)]
        qp_sigmas = [(qp, 2) for qp in gapcascade._multi_indices_up_to(m, 1)]
        want = alpha_summed_reference(n, m, q_taus, qp_sigmas)
        assert any(want.values())
        assert summed_walk(n, m, q_taus, qp_sigmas) == want


def draw_chain(draw, n_gaps):
    """Increasing positions in 0..n_gaps and q_r = 0..4 for each range
    between them."""
    positions = sorted(draw(st.sets(st.integers(0, n_gaps), min_size=2, max_size=n_gaps + 1)))
    q = draw(st.lists(st.integers(0, 4), min_size=len(positions) - 1, max_size=len(positions) - 1))
    return tuple(positions), tuple(q)


@st.composite
def chain_case(draw):
    """(n_gaps, positions, q) with n_gaps = 1..8."""
    n_gaps = draw(st.integers(1, 8))
    return (n_gaps, *draw_chain(draw, n_gaps))


@st.composite
def chain_pair(draw):
    """Two chains over the same number of gaps, 1..8."""
    n_gaps = draw(st.integers(1, 8))
    return n_gaps, draw_chain(draw, n_gaps), draw_chain(draw, n_gaps)


class TestPackedGaps:
    """The closed-form chain expansion and the packed gap vectors of both
    walks against the tuple forms."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(case=chain_case())
    @example(case=(8, (0, 3, 8), (0, 0)))  # all-zero q
    @example(case=(8, (2, 3, 7), (4, 3)))  # a large q_r on a length-1 range
    @example(case=(1, (0, 1), (4,)))
    def test_closed_form_matches_iterated_product(self, case):
        n_gaps, positions, q = case
        want = iterated_chain_expansion(n_gaps, positions, q)
        assert set(want.values()) == {1}
        width = 3  # q_r <= 4 < 2**3
        got = [_unpack(v, width, n_gaps)
               for v in gapcascade._chain_expansion(positions, q, width)]
        assert len(got) == len(set(got))
        assert dict.fromkeys(got, 1) == want

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(case=chain_pair())
    @example(case=(4, ((0, 4), (4,)), ((0, 2, 4), (3, 2))))
    def test_product_matches_ordinary_powers(self, case):
        # Delta^[u] = Delta^u / u!: multiply in ordinary powers, read back.
        n_gaps, first, second = case
        width = 4  # a slot holds at most 4 + 4 < 2**4
        a, b = (gapcascade._chain_expansion(pos, q, width) for pos, q in (first, second))
        ordinary = defaultdict(Fr)
        for u in (_unpack(g, width, n_gaps) for g in a):
            for v in (_unpack(g, width, n_gaps) for g in b):
                key = tuple(x + y for x, y in zip(u, v))
                ordinary[key] += Fr(1, math.prod(map(math.factorial, u + v)))
        want = {key: c * math.prod(map(math.factorial, key)) for key, c in ordinary.items()}
        got = gapcascade._dp_mul_gap(a, b, width)
        assert {_unpack(g, width, n_gaps): c for g, c in got.items()} == want

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=packed_case(), lift=st.integers(0, 1))
    @example(case=(3, (7, 7, 0, 7, 7)), lift=1)  # merged powers reach 2**3 - 1
    def test_collapse_at_every_j_matches_tuple_form(self, case, lift):
        width, vec = case
        vec = tuple(v // 2 for v in vec) + (0,)  # any pair plus lift fits a slot
        for j in range(1, len(vec)):
            want = vec[: j - 1] + (vec[j - 1] + vec[j] + lift,) + vec[j + 1 :]
            got = gapcascade._collapse(_pack(vec, width), j, width, lift)
            assert _unpack(got, width, len(vec) - 1) == want

    @pytest.mark.parametrize(
        "case",
        [
            (3, 2, [((0, 0), 2)], [((2, 0), 2)]),
            (4, 2, [((0, 0, 0), 1)], [((0, 0), 1)]),
        ],
    )
    def test_power_at_the_slot_width_limit(self, case):
        # The walk reaches a power of 2**width - 1 in one slot, the most the
        # slots hold; the packed walk still matches the tuple reference.
        n, m, q_taus, qp_sigmas = case
        width = gapcascade._slot_width(q_taus, qp_sigmas)
        want = alpha_summed_reference(*case)
        assert max(max(P) for by_P in want.values() for P in by_P) == 2**width - 1
        assert summed_walk(*case) == want


class TestCascade:
    def test_exact_order2(self, a_family):
        assert poly_coefficients(a_family.entries[(2, (0, 0))]) == (Fr(0), Fr(-1))

    def test_exact_order3(self, a_family):
        want = {
            (2, 0, 0): (Fr(0), Fr(6)),
            (1, 1, 0): (Fr(0), Fr(3)),
            (1, 0, 1): (Fr(0), Fr(1)),
            (1, 0, 0): (Fr(0), Fr(0), Fr(-3, 2)),
            (0, 2, 0): (Fr(0), Fr(1)),
            (0, 1, 0): (Fr(0), Fr(0), Fr(-1, 2)),
        }
        got = {P: poly_coefficients(poly) for P, poly in a_family.at_order(3).items()}
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
            (2, (0, 0)): rational_poly([Fr(1, 3)]),
            (2, (1, 0)): rational_poly([Fr(2, 7), Fr(1, 5)]),
            (3, (0, 1, 0)): rational_poly([Fr(-5, 6), Fr(1, 9)]),
        },
        "plant-b",
    )


def bench_seed1_family():
    """The kernel-synthesis benchmark's seed-1 plant: 2 0,0 -2/3; 2 0,1 -1;
    3 1,0,0 1/2 1/2; 3 0,0,1 1 -1."""
    return GapCoefficientFamily(
        {
            (2, (0, 0)): rational_poly([Fr(-2, 3)]),
            (2, (0, 1)): rational_poly([-1]),
            (3, (1, 0, 0)): rational_poly([Fr(1, 2), Fr(1, 2)]),
            (3, (0, 0, 1)): rational_poly([1, -1]),
        },
        "plant-b",
    )


PLANTS = {
    "pdae": pdae_b_family,
    "ks-shaped": ks_shaped_family,
    "mixed": mixed_denominator_family,
    "bench-seed1": bench_seed1_family,
}


@lru_cache(maxsize=None)
def cascade_of(plant, n_max):
    return cascade(PLANTS[plant](), n_max)


EXPANSION_CASES = (
    [("pdae", n) for n in range(2, 6)]
    + [("ks-shaped", n) for n in range(2, 5)]
    + [("mixed", n) for n in range(2, 5)]
)


coefficient = st.builds(Fr, st.integers(-6, 6), st.integers(1, 12))


@st.composite
def random_family(draw):
    """A family of orders 2-5 with small random supports (zeros inside P
    included) and polynomials of degree <= 3 whose coefficients have mixed
    denominators and may be zero anywhere; ``cascade-a`` families get a
    zero constant term."""
    role = draw(st.sampled_from(["plant-b", "cascade-a"]))
    entries = {}
    for n in draw(st.sets(st.integers(2, 5), min_size=1, max_size=2)):
        support = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
        for P in draw(st.lists(support, min_size=1, max_size=3, unique=True)):
            coeffs = draw(st.lists(coefficient, min_size=1, max_size=4))
            if role == "cascade-a":
                coeffs[0] = Fr(0)
            entries[(n, P)] = rational_poly(coeffs)
    return GapCoefficientFamily(entries, role)


def family_of(role, entries):
    """A family from ``{P: coefficient strings}``."""
    return GapCoefficientFamily(
        {(len(P), P): rational_poly(map(Fr, cs)) for P, cs in entries.items()}, role
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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fam=random_family())
    @example(fam=family_of("plant-b", {(1, 0, 2): ["1/3", "0", "-5/7"], (0, 0, 0, 1): ["2/9"]}))
    @example(fam=family_of("cascade-a", {(2, 0, 1): ["0", "3/4", "0", "-1/6"], (0, 1): ["0", "1/5"]}))
    @example(fam=family_of("cascade-a", {(0, 0, 0, 0, 2): ["0", "0", "7/10"], (1, 0, 0, 1, 0): ["0", "1"]}))
    def test_random_families_match_fraction_expansion(self, fam):
        for n in fam.orders():
            for shifted, expand in ((True, assemble_kernel_polynomial), (False, family_plant_kernel)):
                self.assert_same_kernel(expand(fam, n), fraction_expansion(fam, n, shifted))


class TestNorms:
    def test_plant_family_norm(self, b_family):
        assert dp_norm(b_family.at_order(2), 3.0, 2.0) == pytest.approx(1.0)

    def test_linear_entry_norm(self):
        assert dp_norm({(0, 0): x_poly([0, -1])}, 1.0, 3.0) == pytest.approx(4.0)

    def test_zero_family_norm(self):
        assert dp_norm({}, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("plant, n_max", [("pdae", 5), ("mixed", 4)])
    def test_derivative_table_rounds_as_reduced_derivatives(self, plant, n_max):
        """Horner over the table's rows, each over the coefficient's own
        denominator, is the same float as over each derivative reduced by its
        gcd (equal rationals divide to the same float), so dp_norm is bit for
        bit the sum over exact derivatives."""
        grid = np.linspace(0.0, 1.0, 1001)
        family = cascade_of(plant, n_max)
        for n in family.orders():
            entries = family.at_order(n)
            acc = np.zeros_like(grid)
            for P, poly in entries.items():
                weight = 0.5 ** sum(P) / math.prod(map(math.factorial, P))
                for sigma in range(poly_degree(poly) + 1):
                    dp = poly_derivative(poly, sigma)
                    vals = np.zeros_like(grid)
                    for c in reversed(poly_numerators(dp, dp.den)):
                        vals = vals * grid + c / dp.den
                    acc += np.abs(vals) * weight * 3.0**sigma / math.factorial(sigma)
            assert dp_norm(entries, 0.5, 3.0) == float(np.max(acc))

    def test_domain_errors(self, b_family):
        with pytest.raises(ValueError):
            dp_norm(b_family.at_order(2), 0.0, 1.0)
        with pytest.raises(ValueError):
            dp_norm(b_family.at_order(2), 1.0, -2.0)


class TestRawOperations:
    def test_product_divided_power_rule(self):
        one = x_poly([1])
        prod = dp_family_product({(1, 0): one}, {(1, 0): one})
        assert set(prod) == {(2, 0)}
        assert poly_coefficients(prod[(2, 0)]) == (Fr(2),)

    def test_split_gap_beta_identity(self):
        one = x_poly([1])
        merged = split_gap_integration({(0, 0, 0): one}, 0)
        assert set(merged) == {(1, 0)}
        assert poly_coefficients(merged[(1, 0)]) == (Fr(1),)

    def test_split_gap_collects_pairs(self):
        one = x_poly([1])
        entries = {(1, 0, 0): one, (0, 1, 0): one}
        merged = split_gap_integration(entries, 0)
        assert poly_coefficients(merged[(2, 0)]) == (Fr(2),)


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
