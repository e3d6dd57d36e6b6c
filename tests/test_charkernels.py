"""Coupling operator, shuffle enumeration, and the kernel recursion."""

import math

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
from volback.polynomial import pdae_k2, pdae_k3
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
        assert eval_B(2, 2, None, plant.kernel(2), pt, rule=8) == 0.0

    def test_closed_form_value(self, plant):
        k2n = KernelNode.from_polynomial(pdae_k2())
        pt = SimplexPoint(1.0, (0.5, 0.25, 0.0))
        val = eval_B(3, 2, k2n, plant.kernel(2), pt, rule=8)
        assert val == pytest.approx(-0.46875, abs=1e-10)

    def test_closed_form_everywhere(self, plant):
        k2n = KernelNode.from_polynomial(pdae_k2())
        rng = np.random.default_rng(11)
        for row in random_simplex_points(rng, 3, 20):
            x1, x2, x3 = row
            want = -(1.0 - x1) * (x1 + x2 + x3) - 0.5 * (x1**2 - x2**2)
            got = eval_B(3, 2, k2n, plant.kernel(2), SimplexPoint(1.0, tuple(row)), rule=8)
            assert got == pytest.approx(want, abs=1e-9)

    def test_order_mismatch_rejected(self, plant):
        k3n = KernelNode.from_polynomial(pdae_k3())
        with pytest.raises(KernelConfigError):
            eval_B(3, 2, k3n, plant.kernel(2), SimplexPoint(1.0, (0.5, 0.25, 0.1)), rule=8)

    def test_m_out_of_range_rejected(self, plant):
        with pytest.raises(KernelConfigError):
            eval_B(3, 4, None, plant.kernel(2), SimplexPoint(1.0, (0.5, 0.25, 0.1)), rule=8)


class TestCharacteristicRecursion:
    def test_order2_matches_closed_form(self, plant):
        rng = np.random.default_rng(2)
        for row in random_simplex_points(rng, 2, 30):
            pt = SimplexPoint(1.0, tuple(row))
            val = kernel_characteristic(2, plant, {}, pt, rule=8)
            assert val == pytest.approx(-row[1], abs=1e-10)

    def test_zero_tail_is_exact_zero(self, plant):
        pt = SimplexPoint(1.0, (0.5, 0.25, 0.0))
        nodes = build_controller_kernels(plant, 3, rule=8, closed_forms={})
        table = {nd.order: nd for nd in nodes}
        val = kernel_characteristic(3, plant, table, pt, rule=8)
        assert val == 0.0

    def test_order3_frozen_point(self, plant):
        nodes = build_controller_kernels(plant, 3, rule=8, closed_forms={})
        table = {nd.order: nd for nd in nodes}
        pt = SimplexPoint(1.0, (0.5, 0.25, 0.2))
        val = kernel_characteristic(3, plant, table, pt, rule=8)
        assert val == pytest.approx(-63.0 / 800.0, abs=1e-9)

    def test_missing_lower_order_rejected(self, plant):
        pt = SimplexPoint(1.0, (0.5, 0.25, 0.2))
        with pytest.raises(KernelConfigError):
            kernel_characteristic(3, plant, {}, pt, rule=8)

    def test_transport_residual_matches_coupling(self, plant):
        # directional derivative of k3 along (1,1,1,1) equals the
        # order-(3,2) coupling term when the order-3 forcing vanishes
        k3 = pdae_k3()
        k2n = KernelNode.from_polynomial(pdae_k2())
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
            b = eval_B(3, 2, k2n, plant.kernel(2), SimplexPoint(x, tuple(xi)), rule=8)
            assert fd == pytest.approx(b, abs=1e-6)


class TestBuildControllerKernels:
    def test_closed_forms_preferred(self, plant):
        nodes = build_controller_kernels(plant, 3)
        provenances = {nd.order: nd.provenance for nd in nodes}
        assert provenances == {2: "closed-form", 3: "closed-form"}

    def test_recursion_route(self, plant):
        nodes = build_controller_kernels(plant, 3, rule=8, closed_forms={})
        assert [nd.order for nd in nodes] == [2, 3]
        assert all(nd.provenance == "characteristic-recursion" for nd in nodes)
        rng = np.random.default_rng(7)
        pts = random_simplex_points(rng, 3, 50)
        closed = pdae_k3()
        got = nodes[1](1.0, pts)
        want = closed(1.0, pts)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_zero_plant_gives_zero_kernels(self):
        zero = VolterraKernelSeries({})
        nodes = build_controller_kernels(zero, 3, rule=8)
        rng = np.random.default_rng(0)
        for nd in nodes:
            pts = random_simplex_points(rng, nd.order, 10)
            assert np.max(np.abs(nd(1.0, pts))) == 0.0

    def test_inflow_condition(self, plant):
        nodes = build_controller_kernels(plant, 3, rule=8, closed_forms={})
        rng = np.random.default_rng(9)
        for nd in nodes:
            pts = random_simplex_points(rng, nd.order, 20)
            pts[:, -1] = 0.0
            assert np.max(np.abs(nd(1.0, pts))) < 1e-12

    def test_cap_below_two_rejected(self, plant):
        with pytest.raises(KernelConfigError):
            build_controller_kernels(plant, 1)

    def test_growth_violation_rejected(self):
        bad = VolterraKernelSeries({2: pdae_k2().scale(10)}, growth=(0.1, 1.0))
        with pytest.raises(PlantAssumptionError):
            build_controller_kernels(bad, 2, rule=8)


class TestKernelNode:
    def test_column_count_validated(self):
        node = KernelNode.from_polynomial(pdae_k2())
        with pytest.raises(KernelConfigError):
            node(1.0, np.zeros((3, 3)))

    def test_provenance_validated(self):
        with pytest.raises(KernelConfigError):
            KernelNode(2, lambda x, xi: np.zeros(len(xi)), "guesswork")

    def test_memoized_eval_is_stable(self, plant):
        nodes = build_controller_kernels(plant, 2, rule=8, closed_forms={})
        pt = np.array([[0.6, 0.3]])
        first = nodes[0](1.0, pt)[0]
        second = nodes[0](1.0, pt)[0]
        assert first == second

    def test_eval_point_api(self):
        node = KernelNode.from_polynomial(pdae_k2())
        assert node.eval_point(SimplexPoint(1.0, (0.6, 0.3))) == pytest.approx(-0.3)


class TestPlantHelpers:
    def test_builtin_recognized(self, plant):
        assert is_pdae_plant(plant)

    def test_other_series_not_recognized(self):
        assert not is_pdae_plant(VolterraKernelSeries({2: pdae_k2()}))

    def test_closed_form_registry(self, closed_forms):
        assert sorted(closed_forms) == [2, 3]
