"""Coupling operator, shuffle enumeration, and the kernel recursion."""

import math
from fractions import Fraction

import numpy as np
import pytest

from volback.charkernels import (
    KernelConfigError,
    KernelNode,
    PlantAssumptionError,
    build_controller_kernels,
    eval_B,
    is_pdae_plant,
    kernel_characteristic,
    pdae_closed_forms,
    pdae_plant,
)
from volback.gapcascade import assemble_kernel_polynomial, cascade, pdae_b_family
from volback.harness import parse_plant
from volback.polynomial import SimplexPolyKernel, pdae_k2, pdae_k3
from volback.simplex import SimplexDomainError, SimplexPoint, ordered_splits
from volback.volterra import VolterraKernelSeries

from conftest import random_simplex_points


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
    def test_diagonal_term_vanishes(self, plant):
        pt = SimplexPoint(1.0, (0.5, 0.25))
        assert eval_B(2, 2, None, plant.kernel(2), pt) == 0.0

    def test_closed_form_value(self, plant):
        pt = SimplexPoint(1.0, (0.5, 0.25, 0.0))
        val = eval_B(3, 2, pdae_k2(), plant.kernel(2), pt)
        assert val == pytest.approx(-0.46875, abs=1e-10)

    def test_closed_form_everywhere(self, plant):
        k2n = KernelNode(pdae_k2(), "gap-cascade")
        rng = np.random.default_rng(11)
        for row in random_simplex_points(rng, 3, 20):
            x1, x2, x3 = row
            want = -(1.0 - x1) * (x1 + x2 + x3) - 0.5 * (x1**2 - x2**2)
            got = eval_B(3, 2, k2n, plant.kernel(2), SimplexPoint(1.0, tuple(row)))
            assert got == pytest.approx(want, abs=1e-9)

    def test_order_mismatch_rejected(self, plant):
        with pytest.raises(KernelConfigError):
            eval_B(3, 2, pdae_k3(), plant.kernel(2), SimplexPoint(1.0, (0.5, 0.25, 0.1)))

    def test_opaque_forcing_rejected(self):
        with pytest.raises(KernelConfigError, match="order-2 plant kernel"):
            eval_B(3, 2, pdae_k2(), lambda x, xi: np.ones(len(xi)), SimplexPoint(1.0, (0.5, 0.25, 0.1)))

    def test_m_out_of_range_rejected(self, plant):
        with pytest.raises(KernelConfigError):
            eval_B(3, 4, None, plant.kernel(2), SimplexPoint(1.0, (0.5, 0.25, 0.1)))


class TestCharacteristicRecursion:
    def test_order2_matches_closed_form(self, plant):
        rng = np.random.default_rng(2)
        for row in random_simplex_points(rng, 2, 30):
            pt = SimplexPoint(1.0, tuple(row))
            val = kernel_characteristic(2, plant, {}, pt)
            assert val == pytest.approx(-row[1], abs=1e-10)

    def test_zero_tail_is_exact_zero(self, plant):
        pt = SimplexPoint(1.0, (0.5, 0.25, 0.0))
        nodes = build_controller_kernels(plant, 3)
        table = {nd.order: nd for nd in nodes}
        val = kernel_characteristic(3, plant, table, pt)
        assert val == 0.0

    def test_order3_frozen_point(self, plant):
        nodes = build_controller_kernels(plant, 3)
        table = {nd.order: nd for nd in nodes}
        pt = SimplexPoint(1.0, (0.5, 0.25, 0.2))
        val = kernel_characteristic(3, plant, table, pt)
        assert val == pytest.approx(-63.0 / 800.0, abs=1e-9)

    def test_missing_lower_order_rejected(self, plant):
        pt = SimplexPoint(1.0, (0.5, 0.25, 0.2))
        with pytest.raises(KernelConfigError):
            kernel_characteristic(3, plant, {}, pt)

    def test_transport_residual_matches_coupling(self, plant):
        # directional derivative of k3 along (1,1,1,1) equals the
        # order-(3,2) coupling term when the order-3 forcing vanishes
        k3 = pdae_k3()
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
            b = eval_B(3, 2, pdae_k2(), plant.kernel(2), SimplexPoint(x, tuple(xi)))
            assert fd == pytest.approx(b, abs=1e-6)


class TestBuildControllerKernels:
    def test_recursion_route(self, plant, closed_forms):
        nodes = build_controller_kernels(plant, 3)
        assert [nd.order for nd in nodes] == [2, 3]
        assert all(nd.provenance == "characteristic-recursion" for nd in nodes)
        for nd in nodes:
            assert nd.polynomial.monomials == closed_forms[nd.order].monomials

    def test_zero_plant_gives_zero_kernels(self):
        zero = VolterraKernelSeries({})
        nodes = build_controller_kernels(zero, 3)
        assert [nd.order for nd in nodes] == [2, 3]
        rng = np.random.default_rng(0)
        for nd in nodes:
            assert nd.polynomial.is_zero()
            pts = random_simplex_points(rng, nd.order, 10)
            assert np.max(np.abs(nd(1.0, pts))) == 0.0

    def test_inflow_condition(self, plant):
        nodes = build_controller_kernels(plant, 5)
        rng = np.random.default_rng(9)
        for nd in nodes:
            pts = random_simplex_points(rng, nd.order, 20)
            pts[:, -1] = 0.0
            assert np.max(np.abs(nd(1.0, pts))) == 0.0

    def test_cap_below_two_rejected(self, plant):
        with pytest.raises(KernelConfigError):
            build_controller_kernels(plant, 1)

    def test_growth_violation_rejected(self):
        bad = VolterraKernelSeries({2: pdae_k2().scale(10)}, growth=(0.1, 1.0))
        with pytest.raises(PlantAssumptionError):
            build_controller_kernels(bad, 2)


class TestDegreeRule:
    """The recursion's polynomials, degrees included, equal the cascade's
    monomial for monomial."""

    PLANT = "2 0,0 3/2 1/2\n2 1,0 -1/3 0 2\n3 1,0,0 1/2 -2/3\n3 0,1,1 -3/4 1\n"
    # Shaped like the kernel-synthesis benchmark's plants.
    KS_SHAPED = "2 0,0 -3/2\n2 0,1 1/2\n3 1,0,0 1 -1/4\n3 0,0,1 -4/3 -3/2\n"
    MIXED = "2 0,0 1/3\n2 1,0 2/7 1/5\n3 0,1,0 -5/6 1/9\n"

    @staticmethod
    def assert_equal_to_cascade(series, b_family, n_max):
        nodes = build_controller_kernels(series, n_max)
        a_family = cascade(b_family, n_max)
        assert [nd.order for nd in nodes] == list(range(2, n_max + 1))
        for node in nodes:
            want = assemble_kernel_polynomial(a_family, node.order).monomials
            assert node.polynomial.monomials == want, f"order {node.order}"

    @pytest.mark.parametrize("n_max", [2, 3, 4, 5])
    def test_pdae_recursion_matches_cascade(self, plant, n_max):
        self.assert_equal_to_cascade(plant, pdae_b_family(), n_max)

    def test_file_plant_recursion_matches_cascade(self, tmp_path):
        path = tmp_path / "plant.txt"
        path.write_text(self.PLANT)
        parsed = parse_plant(path)
        self.assert_equal_to_cascade(parsed.series, parsed.family, 3)

    @pytest.mark.parametrize("text, n_max", [(KS_SHAPED, 4), (MIXED, 3)], ids=["ks-shaped", "mixed"])
    def test_more_file_plants_match_cascade(self, tmp_path, text, n_max):
        path = tmp_path / "plant.txt"
        path.write_text(text)
        parsed = parse_plant(path)
        self.assert_equal_to_cascade(parsed.series, parsed.family, n_max)

    def test_degree_bound_is_the_pdae_degree(self, plant):
        nodes = build_controller_kernels(plant, 5)
        assert [nd.polynomial.max_degree() for nd in nodes] == [1, 3, 5, 7]

    def test_rule_exact_for_forcing_that_moves_along_characteristics(self):
        # x^2 + xi_2^2 is not constant along (1, 1, 1), unlike the gap
        # monomials: k_2 = -(x^3 - (x - xi_2)^3 + xi_2^3) / 3.
        f2 = SimplexPolyKernel(2, {(2, (0, 0)): 1, (0, (0, 2)): 1})
        (node,) = build_controller_kernels(VolterraKernelSeries({2: f2}), 2)
        want = {(2, (0, 1)): -1, (1, (0, 2)): 1, (0, (0, 3)): Fraction(-2, 3)}
        assert node.polynomial.monomials == want

    @pytest.mark.parametrize("opaque_order", [2, 3])
    def test_opaque_plant_kernel_rejected(self, opaque_order):
        kernels = {2: pdae_k2(), 3: pdae_k3()}
        kernels[opaque_order] = lambda pt: 1.0
        series = VolterraKernelSeries(kernels)
        with pytest.raises(KernelConfigError, match=f"order-{opaque_order} plant kernel"):
            build_controller_kernels(series, 3)
        pt = SimplexPoint(1.0, (0.5, 0.25, 0.2)[:opaque_order])
        with pytest.raises(KernelConfigError, match=f"order-{opaque_order} plant kernel"):
            kernel_characteristic(opaque_order, series, {2: pdae_k2()}, pt)


class TestKernelNode:
    def test_column_count_validated(self):
        node = KernelNode(pdae_k2(), "gap-cascade")
        with pytest.raises(KernelConfigError):
            node(1.0, np.zeros((3, 3)))

    def test_provenance_validated(self):
        with pytest.raises(KernelConfigError):
            KernelNode(pdae_k2(), "guesswork")

    def test_eval_point_api(self):
        node = KernelNode(pdae_k2(), "gap-cascade")
        assert node.eval_point(SimplexPoint(1.0, (0.6, 0.3))) == pytest.approx(-0.3)


class TestPlantHelpers:
    def test_builtin_recognized(self, plant):
        assert is_pdae_plant(plant)

    def test_other_series_not_recognized(self):
        assert not is_pdae_plant(VolterraKernelSeries({2: pdae_k2()}))

    def test_closed_form_registry(self, closed_forms):
        assert sorted(closed_forms) == [2, 3]
