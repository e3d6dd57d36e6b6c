"""Coupling operator, shuffle enumeration, and the kernel recursion."""

import math
from fractions import Fraction

import numpy as np
import pytest

from volback.charkernels import (
    KernelConfigError,
    KernelNode,
    build_controller_kernels,
    coupling_polynomial,
    is_pdae_plant,
)
from volback.gapcascade import (
    GapCoefficientFamily,
    assemble_kernel_polynomial,
    cascade,
    family_plant_kernel,
    pdae_b_family,
)
from volback.harness import parse_plant
from volback.polynomial import SimplexPolyKernel, pdae_k2, pdae_k3
from volback.simplex import SimplexDomainError, ordered_splits
from volback.volterra import SeriesDefinitionError, VolterraKernelSeries

from conftest import (
    KS_SHAPED,
    MIXED,
    exact_kernel,
    fraction_expansion,
    plant_file,
    random_simplex_points,
    rational_poly,
    reference_recursion,
)

# The benchmark's seed-1 plant (mixed denominators, degree-1 order-3
# coefficients).
BENCH_SEED1 = "2 0,0 -2/3\n2 0,1 -1\n3 1,0,0 1/2 1/2\n3 0,0,1 1 -1\n"


def x_power(k):
    """Plant-file coefficients of x**k, constant term first."""
    return " ".join(["0"] * k + ["1"])


def largest_exponent(kernels):
    return max(max(e, *alphas) for kern in kernels for e, alphas in kern.monomials)


class TestShuffles:
    """The coupling operator's two-block splits for leg j of B[n, m], p = n - m + 1:
    ordered_splits(p + m - 1 - j, p - j), the k-block first."""

    def test_single_element_goes_to_f_block(self):
        splits = ordered_splits(1, 0)
        assert len(splits) == 1
        assert splits[0][0] == ()
        assert len(splits[0][1]) == 1

    def test_two_element_case(self):
        splits = ordered_splits(2, 1)
        assert len(splits) == 2
        assert len(set(splits)) == 2

    def test_last_leg(self):
        assert len(ordered_splits(1, 0)) == 1

    @pytest.mark.parametrize("p", range(1, 6))
    @pytest.mark.parametrize("m", range(2, 5))
    def test_counts_match_binomial(self, p, m):
        for j in range(1, p + 1):
            got = len(ordered_splits(p + m - 1 - j, p - j))
            assert got == math.comb(p + m - 1 - j, m - 1)

    def test_blocks_preserve_order(self):
        for k_block, f_block in ordered_splits(6, 3):
            assert list(k_block) == sorted(k_block)
            assert list(f_block) == sorted(f_block)
            assert sorted(k_block + f_block) == list(range(6))

    def test_bounds_validated(self):
        with pytest.raises(SimplexDomainError):
            ordered_splits(2, 3)
        with pytest.raises(SimplexDomainError):
            ordered_splits(2, -1)
        with pytest.raises(SimplexDomainError):
            ordered_splits(-1, 0)


class TestEvalB:
    """B[n, m] evaluated as its exact polynomial, coupling_polynomial(...)(x, xi)."""

    def test_diagonal_term_vanishes(self, plant):
        b = coupling_polynomial(2, 2, None, plant[2])
        assert b(1.0, np.array([[0.5, 0.25]]))[0] == 0.0

    def test_closed_form_value(self, plant):
        b = coupling_polynomial(3, 2, pdae_k2(), plant[2])
        assert b(1.0, np.array([[0.5, 0.25, 0.0]]))[0] == pytest.approx(-0.46875, abs=1e-10)

    def test_closed_form_everywhere(self, plant):
        rng = np.random.default_rng(11)
        pts = random_simplex_points(rng, 3, 20)
        x1, x2, x3 = pts.T
        want = -(1.0 - x1) * (x1 + x2 + x3) - 0.5 * (x1**2 - x2**2)
        got = coupling_polynomial(3, 2, pdae_k2(), plant[2])(1.0, pts)
        assert got == pytest.approx(want, abs=1e-9)

    def test_order_mismatch_rejected(self, plant):
        with pytest.raises(KernelConfigError):
            coupling_polynomial(3, 2, pdae_k3(), plant[2])

    def test_opaque_forcing_rejected(self):
        # Plant kernels reach the recursion through a series, which holds
        # polynomials only.
        with pytest.raises(SeriesDefinitionError, match="order-2 kernel"):
            VolterraKernelSeries({2: lambda x, xi: np.ones(len(xi))})

    def test_m_out_of_range_rejected(self, plant):
        with pytest.raises(KernelConfigError):
            coupling_polynomial(3, 4, None, plant[2])


class TestCharacteristicRecursion:
    def test_order2_matches_closed_form(self, plant):
        rng = np.random.default_rng(2)
        pts = random_simplex_points(rng, 2, 30)
        (k2,) = build_controller_kernels(plant, 2).values()
        assert k2(1.0, pts) == pytest.approx(-pts[:, 1], abs=1e-10)

    def test_zero_tail_is_exact_zero(self, plant):
        k3 = build_controller_kernels(plant, 3)[3]
        assert k3(1.0, np.array([[0.5, 0.25, 0.0]]))[0] == 0.0

    def test_order3_frozen_point(self, plant):
        k3 = build_controller_kernels(plant, 3)[3]
        val = k3(1.0, np.array([[0.5, 0.25, 0.2]]))[0]
        assert val == pytest.approx(-63.0 / 800.0, abs=1e-9)

    def test_transport_residual_matches_coupling(self, plant):
        # directional derivative of k3 along (1,1,1,1) equals the
        # order-(3,2) coupling term when the order-3 forcing vanishes
        k3 = pdae_k3()
        b32 = coupling_polynomial(3, 2, pdae_k2(), plant[2])
        rng = np.random.default_rng(5)
        h = 1e-5
        count = 0
        while count < 50:
            x = rng.uniform(0.4, 0.9)
            gaps = rng.uniform(0.05, x / 5, size=3)
            xi = x - np.cumsum(gaps)
            if xi[-1] < 0.05:
                continue
            count += 1
            up = k3(x + h, np.array([xi + h]))[0]
            dn = k3(x - h, np.array([xi - h]))[0]
            fd = (up - dn) / (2 * h)
            assert fd == pytest.approx(b32(x, np.array([xi]))[0], abs=1e-6)


class TestBuildControllerKernels:
    def test_recursion_route(self, plant, closed_forms):
        kernels = build_controller_kernels(plant, 3)
        assert list(kernels) == [2, 3]
        assert all(isinstance(k, SimplexPolyKernel) and k.order == n for n, k in kernels.items())
        assert kernels == closed_forms

    def test_zero_plant_gives_zero_kernels(self):
        zero = VolterraKernelSeries({})
        kernels = build_controller_kernels(zero, 3)
        assert list(kernels) == [2, 3]
        rng = np.random.default_rng(0)
        for n, kern in kernels.items():
            assert kern == SimplexPolyKernel(n, {})
            pts = random_simplex_points(rng, n, 10)
            assert np.max(np.abs(kern(1.0, pts))) == 0.0

    def test_inflow_condition(self, plant):
        kernels = build_controller_kernels(plant, 5)
        rng = np.random.default_rng(9)
        for n, kern in kernels.items():
            pts = random_simplex_points(rng, n, 20)
            pts[:, -1] = 0.0
            assert np.max(np.abs(kern(1.0, pts))) == 0.0

    def test_cap_below_two_rejected(self, plant):
        with pytest.raises(KernelConfigError):
            build_controller_kernels(plant, 1)


class TestDegreeRule:
    """The recursion's kernels, degrees included, equal the cascade's."""

    PLANT = "2 0,0 3/2 1/2\n2 1,0 -1/3 0 2\n3 1,0,0 1/2 -2/3\n3 0,1,1 -3/4 1\n"

    @staticmethod
    def assert_equal_to_cascade(series, b_family, n_max):
        kernels = build_controller_kernels(series, n_max)
        a_family = cascade(b_family, n_max)
        assert list(kernels) == list(range(2, n_max + 1))
        for n, kern in kernels.items():
            assert kern == assemble_kernel_polynomial(a_family, n), f"order {n}"

    @pytest.mark.parametrize("n_max", [2, 3, 4, 5])
    def test_pdae_recursion_matches_cascade(self, plant, n_max):
        self.assert_equal_to_cascade(plant, pdae_b_family(), n_max)

    def test_file_plant_recursion_matches_cascade(self, tmp_path):
        path = tmp_path / "plant.txt"
        path.write_text(self.PLANT)
        parsed = parse_plant(path)
        self.assert_equal_to_cascade(parsed.series, parsed.family, 3)

    @pytest.mark.parametrize(
        "text, n_max",
        [(KS_SHAPED, 4), (MIXED, 3), ("2 20,0 1\n", 3)],
        ids=["ks-shaped", "mixed", "degree-20"],
    )
    def test_more_file_plants_match_cascade(self, tmp_path, text, n_max):
        path = tmp_path / "plant.txt"
        path.write_text(text)
        parsed = parse_plant(path)
        self.assert_equal_to_cascade(parsed.series, parsed.family, n_max)

    def test_degree_bound_is_the_pdae_degree(self, plant):
        kernels = build_controller_kernels(plant, 5)
        degrees = [max(e + sum(alphas) for e, alphas in k.monomials) for k in kernels.values()]
        assert degrees == [1, 3, 5, 7]

    def test_rule_exact_for_forcing_that_moves_along_characteristics(self):
        # x^2 + xi_2^2 is not constant along (1, 1, 1), unlike the gap
        # monomials: k_2 = -(x^3 - (x - xi_2)^3 + xi_2^3) / 3.
        f2 = SimplexPolyKernel(2, {(2, (0, 0)): 1, (0, (0, 2)): 1})
        (kern,) = build_controller_kernels(VolterraKernelSeries({2: f2}), 2).values()
        want = {(2, (0, 1)): -1, (1, (0, 2)): 1, (0, (0, 3)): Fraction(-2, 3)}
        assert kern == exact_kernel(2, want)
        assert kern.monomials == {(2, (0, 1)): -3, (1, (0, 2)): 3, (0, (0, 3)): -2}
        assert kern.den == 3

    @pytest.mark.parametrize("opaque_order", [2, 3])
    def test_opaque_plant_kernel_rejected(self, opaque_order):
        # The plant is refused when its series is built, before any
        # recursion can run on it.
        kernels = {2: pdae_k2(), 3: pdae_k3()}
        kernels[opaque_order] = lambda pt: 1.0
        with pytest.raises(SeriesDefinitionError, match=f"order-{opaque_order} kernel"):
            VolterraKernelSeries(kernels)


class TestRecursionOracle:
    """The packed recursion against the tuple-keyed reference
    (``reference_recursion``), kernel for kernel and coupling term for
    coupling term.  Both exact routes share the packing helper, so the
    cross-check between them would not see a packing bug they share."""

    @pytest.mark.parametrize(
        "text, n_max",
        [(None, 5), (KS_SHAPED, 4), (MIXED, 4), (BENCH_SEED1, 4)],
        ids=["pdae", "ks-shaped", "mixed", "bench-seed1"],
    )
    def test_matches_tuple_reference(self, tmp_path, plant, text, n_max):
        series = plant if text is None else plant_file(tmp_path, text).series
        kernels, couplings = reference_recursion(series, n_max)
        got = build_controller_kernels(series, n_max)
        assert dict(got) == kernels
        assert couplings
        coupled = {
            (n, m): coupling_polynomial(n, m, kernels[n - m + 1], series[m]) for n, m in couplings
        }
        for (n, m), want in couplings.items():
            assert coupled[n, m] == want, (n, m)
        # The mesh cascades sum in .monomials order, which == does not see.
        assert all(list(k.monomials) == sorted(k.monomials) for k in [*got.values(), *coupled.values()])


class TestSlotBoundaries:
    """Exponents that fill a packed slot (2**k - 1) or need one more bit
    (2**k), against the tuple references: the Fraction expansion for the
    gap assembly and the plant kernels, the tuple-keyed recursion for the
    characteristic route."""

    @pytest.mark.parametrize(
        "text, reached",
        [
            ("3 0,7,0 1\n", 7),
            ("3 8,0,0 1\n", 8),
            ("4 0,0,0,15 1\n", 15),
            ("4 0,16,0,0 1\n", 16),
            (f"3 0,0,0 {x_power(15)}\n", 15),
            (f"4 0,0,0,0 {x_power(16)}\n", 16),
        ],
        ids=["0,7,0", "8,0,0", "0,0,0,15", "0,16,0,0", "x^15", "x^16"],
    )
    def test_plant_kernel(self, tmp_path, text, reached):
        family = plant_file(tmp_path, text).family
        (n,) = family.orders()
        kern = family_plant_kernel(family, n)
        assert kern == fraction_expansion(family, n, shifted=False)
        assert largest_exponent([kern]) == reached

    @pytest.mark.parametrize(
        "P, degree, reached",
        [((0, 0, 14), 1, 15), ((0, 0, 15), 1, 16), ((0, 0, 0), 15, 15), ((0, 0, 0, 0), 16, 16),
         ((0, 0, 0, 6), 1, 7), ((0, 0, 0, 7), 1, 8)],
        ids=["0,0,14", "0,0,15", "x^15", "x^16", "0,0,0,6", "0,0,0,7"],
    )
    def test_assembly(self, P, degree, reached):
        # a_P = x**degree: a_P(x) - a_P(x - xi_n) reaches xi_n**degree, and
        # times (xi_{n-1} - xi_n)**P_{n-1} it reaches xi_n**(degree + P_{n-1}).
        family = GapCoefficientFamily(
            {(len(P), P): rational_poly([0] * degree + [1])}, "cascade-a"
        )
        kern = assemble_kernel_polynomial(family, len(P))
        assert kern == fraction_expansion(family, len(P), shifted=True)
        assert largest_exponent([kern]) == reached

    @pytest.mark.parametrize(
        "text, n_max, reached",
        [
            ("2 7,0 1\n", 4, 7),
            ("2 8,0 1\n", 3, 8),
            ("2 0,15 1\n", 3, 32),
            ("2 0,16 1\n", 3, 16),
            (f"2 0,0 {x_power(14)}\n", 3, 15),
            (f"2 0,0 {x_power(15)}\n", 3, 16),
        ],
        ids=["7,0", "8,0", "0,15", "0,16", "x^14", "x^15"],
    )
    def test_recursion(self, tmp_path, text, n_max, reached):
        series = plant_file(tmp_path, text).series
        kernels, _ = reference_recursion(series, n_max)
        got = build_controller_kernels(series, n_max)
        assert dict(got) == kernels
        assert all(list(k.monomials) == sorted(k.monomials) for k in got.values())
        exponents = {
            max(e, *alphas)
            for kern in [*series.values(), *got.values()]
            for e, alphas in kern.monomials
        }
        assert reached in exponents


class TestKernelNode:
    def test_column_count_validated(self):
        node = KernelNode(pdae_k2(), "gap-cascade")
        with pytest.raises(KernelConfigError):
            node(1.0, np.zeros((3, 3)))

    def test_provenance_validated(self):
        with pytest.raises(KernelConfigError):
            KernelNode(pdae_k2(), "guesswork")


class TestPlantHelpers:
    def test_builtin_recognized(self, plant):
        assert is_pdae_plant(plant)

    def test_other_series_not_recognized(self):
        assert not is_pdae_plant(VolterraKernelSeries({2: pdae_k2()}))

    def test_half_the_pdae_kernel_not_recognized(self, tmp_path):
        # Numerator 1 over den 2: the pdae plant's numerators, another value.
        path = tmp_path / "plant.txt"
        path.write_text("2 0,0 1/2\n")
        series = parse_plant(path).series
        assert series[2].monomials == {(0, (0, 0)): 1} and series[2].den == 2
        assert not is_pdae_plant(series)
        path.write_text("2 0,0 1\n")
        assert is_pdae_plant(parse_plant(path).series)

    def test_closed_form_registry(self, closed_forms):
        assert sorted(closed_forms) == [2, 3]
