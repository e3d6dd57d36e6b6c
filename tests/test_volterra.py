"""Series operator evaluation, kernel norms, and gain functions."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import volback
from volback.charkernels import pdae_plant
from volback.harness import build_kernel_table, load_plant
from volback.inversion import dk_matrix
from volback.polynomial import SimplexPolyKernel, pdae_k2, pdae_k3
from volback.simplex import QuadratureRule, SimplexDomainError, simplex_nodes
from volback.simulator import SimConfig, _controller_series, mild_solution_residual, simulate
from conftest import (
    QuadratureNode,
    _inner_integral,
    assert_endpoint_within_rounding,
    assert_profile_within_rounding,
    eval_series,
    exact_kernel,
)
from volback.volterra import (
    GainFunctions,
    GridFunction,
    MeshCascade,
    SeriesDefinitionError,
    SeriesTerms,
    VolterraKernelSeries,
    build_gains,
    check_growth_assumption,
    coupling_bound_check,
    gain_ell,
    gain_k,
    kernel_l2_sq,
    linearized_profile,
    series_profile,
)

GL8 = QuadratureRule(8)


class TestGridFunction:
    def test_norms(self):
        u = GridFunction(np.ones(101))
        assert u.l2_norm() == pytest.approx(1.0)

    def test_sine_l2(self):
        u = GridFunction(np.sin(np.pi * np.linspace(0.0, 1.0, 401)))
        assert u.l2_norm() == pytest.approx(math.sqrt(0.5), rel=1e-4)

    def test_arithmetic(self):
        u = GridFunction(np.linspace(0.0, 1.0, 21))
        v = u - u
        assert v.l2_norm() == 0.0
        w = u + u
        assert w.values == pytest.approx(2 * u.values)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, np.nan, 1.0]))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([1.0]))


class TestSeriesValidation:
    def test_order_one_rejected(self):
        with pytest.raises(SeriesDefinitionError):
            VolterraKernelSeries({1: pdae_k2()})

    def test_lowest_order_may_exceed_two(self):
        # An absent order is zero: a purely cubic series is a series.
        assert VolterraKernelSeries({3: pdae_k3()}).orders == (3,)

    def test_kernel_order_must_match_its_key(self):
        # Accepted, this series failed later: series_profile with a bare
        # KeyError, build_gains with an IndexError.
        with pytest.raises(SeriesDefinitionError, match="order-2 kernel has order 3"):
            VolterraKernelSeries({2: pdae_k3()})
        node = build_kernel_table(load_plant("pdae"), 2)[2]
        with pytest.raises(SeriesDefinitionError, match="order-3 kernel has order 2"):
            VolterraKernelSeries({2: pdae_k2(), 3: node})

    def test_kernel_table_is_stored_as_given(self):
        table = build_kernel_table(load_plant("pdae"), 3)
        series = VolterraKernelSeries(table)
        assert series.kernels == table
        assert all(series.kernel(n) is kern for n, kern in table.items())

    def test_missing_order_raises(self, plant):
        with pytest.raises(SeriesDefinitionError):
            plant.kernel(5)

    def test_empty_is_zero(self):
        assert VolterraKernelSeries({}).is_zero()

    def test_growth_must_be_positive(self):
        with pytest.raises(SeriesDefinitionError):
            VolterraKernelSeries({2: pdae_k2()}, growth=(0.0, 1.0))


class TestEvalSeries:
    def test_constant_input(self, plant):
        u = GridFunction(np.ones(201))
        assert eval_series(plant, u, 1.0, GL8) == pytest.approx(0.5, rel=1e-9)

    def test_linear_input(self, plant):
        u = GridFunction(np.linspace(0.0, 1.0, 201))
        assert eval_series(plant, u, 1.0, GL8) == pytest.approx(0.125, rel=1e-6)

    def test_x_zero(self, plant):
        u = GridFunction(np.ones(51))
        assert eval_series(plant, u, 0.0, GL8) == 0.0

    def test_x_outside_domain(self, plant):
        u = GridFunction(np.ones(51))
        with pytest.raises(SimplexDomainError):
            eval_series(plant, u, 1.2, GL8)

    def test_order2_homogeneity(self, plant):
        u = GridFunction(np.cos(np.linspace(0.0, 1.0, 201)))
        base = eval_series(plant, u, 0.8, GL8)
        scaled = eval_series(plant, u.scale(3.0), 0.8, GL8)
        assert scaled == pytest.approx(9.0 * base, rel=1e-9)


class TestProfiles:
    def test_polynomial_profile_closed_form(self, plant):
        u = GridFunction(np.ones(201))
        prof = series_profile(plant, u)
        assert prof.values == pytest.approx(0.5 * u.mesh**2, abs=2e-5)

    def test_profile_matches_pointwise_eval(self, kernel_series):
        u = GridFunction(np.sin(np.linspace(0.0, 1.0, 101)))
        prof = series_profile(kernel_series, u)
        for xq in (0.25, 0.5, 1.0):
            want = eval_series(kernel_series, u, xq, GL8)
            assert np.interp(xq, prof.mesh, prof.values) == pytest.approx(want, abs=5e-5)

    def test_linearized_profile_matches_fd(self, kernel_series):
        x = np.linspace(0.0, 1.0, 201)
        u = GridFunction(0.3 * np.sin(np.pi * x))
        h = GridFunction(0.2 * x * (1 - x))
        lin = linearized_profile(kernel_series, u, h)
        eps = 1e-5
        plus = series_profile(kernel_series, u + h.scale(eps))
        minus = series_profile(kernel_series, u + h.scale(-eps))
        fd = (plus - minus).scale(1.0 / (2 * eps))
        assert (lin - fd).l2_norm() <= 1e-7 * max(fd.l2_norm(), 1e-12)


class TestKernelNorms:
    def test_order2_norm(self):
        val = kernel_l2_sq(pdae_k2(), QuadratureRule(16))
        assert val == pytest.approx(1.0 / 12.0, rel=1e-10)

    def test_order3_norm(self, kernel_series):
        val = kernel_l2_sq(kernel_series.kernel(3), QuadratureRule(12))
        assert val == pytest.approx(3.0 / 2240.0, rel=1e-9)


class TestGains:
    def test_coefficients(self):
        gains = GainFunctions(orders=(2,), norms_sq=(1.0 / 12.0,))
        assert gains.k_coefficient(2) == pytest.approx(1.0 / 3.0)
        assert gains.ell_coefficient(2) == pytest.approx(8.0 / 3.0)

    def test_series_values(self, kernel_series):
        gains = build_gains(kernel_series, QuadratureRule(12))
        s = 3.0 / 16.0
        assert gain_k(gains, s) == pytest.approx(s**2 / 3 + 9 * s**3 / 2240, rel=1e-8)
        assert gain_ell(gains, s) == pytest.approx(
            8 * s / 3 + 243 * s**2 / 2240, rel=1e-8
        )

    def test_zero_at_origin_and_monotone(self, kernel_series):
        gains = build_gains(kernel_series, QuadratureRule(10))
        assert gain_k(gains, 0.0) == 0.0
        assert gain_ell(gains, 0.0) == 0.0
        grid = np.linspace(0.0, 1.0, 20)
        kv = [gain_k(gains, s) for s in grid]
        lv = [gain_ell(gains, s) for s in grid]
        assert all(b >= a for a, b in zip(kv, kv[1:]))
        assert all(b >= a for a, b in zip(lv, lv[1:]))

    def test_negative_argument_rejected(self):
        gains = GainFunctions(orders=(2,), norms_sq=(1.0,))
        with pytest.raises(ValueError):
            gain_k(gains, -0.1)

    def test_rho_estimate(self):
        gains = GainFunctions(orders=(2,), norms_sq=(1.0 / 12.0,))
        # single coefficient 1/3 at n = 2: rho = (1/3)**(-1/2)
        assert gains.rho_estimate() == pytest.approx(math.sqrt(3.0))


class TestGrowthSampling:
    def test_quadratic_example_passes(self, plant):
        report = check_growth_assumption(plant, seed=3)
        assert report.passed
        assert report.worst_ratio == pytest.approx(0.5)

    def test_needs_metadata(self):
        series = VolterraKernelSeries({2: pdae_k2()})
        with pytest.raises(SeriesDefinitionError):
            check_growth_assumption(series)


class TestCouplingBound:
    def test_worked_coefficient(self):
        report = coupling_bound_check(3, 2, 1.0, 1.0, 0.5)
        assert report.coefficient == pytest.approx(8.0)
        assert report.rhs_sq == pytest.approx(4.0)
        assert report.passed

    def test_violation_detected(self):
        report = coupling_bound_check(3, 2, 0.1, 1.0, 10.0)
        assert not report.passed

    def test_bad_orders_rejected(self):
        with pytest.raises(ValueError):
            coupling_bound_check(2, 3, 1.0, 1.0, 1.0)


def random_kernel(rng, n, count):
    """Small exponents, so many monomials share trailing exponents."""
    mono = {}
    for _ in range(count):
        key = (int(rng.integers(0, 4)), tuple(int(a) for a in rng.integers(0, 3, n)))
        mono[key] = Fraction(int(rng.integers(-9, 10)) or 1, int(rng.integers(1, 7)))
    return exact_kernel(n, mono)


class TestMeshCascade:
    """The trapezoid passes equal the reference loop's bit for bit; the
    profiles and the x = 1 values, each order read as one weighted sum
    over its nodes, agree with the exactly summed reference to within the
    rounding bound."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_reference_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        kern = random_kernel(rng, n, 12)
        keys = kern.monomials
        assert any(e > 0 for e, _ in keys)
        assert len({a[1:] for _, a in keys}) < len(keys)  # some suffix is shared
        for m in (3, 57, 201):
            mesh = np.linspace(0.0, 1.0, m)
            factors = [rng.standard_normal(m) for _ in range(n)]
            cascade = MeshCascade({n: kern}, mesh)
            ids = cascade.reads[n][0]
            passes = cascade._integrals(factors, n)[n - 1]
            for node, (_, alphas) in zip(ids, keys):
                assert np.array_equal(passes[node], _inner_integral(alphas, factors, mesh, 0))
            assert_profile_within_rounding(cascade.profile(factors), {n: kern}, factors, mesh)
            assert_endpoint_within_rounding(cascade.endpoint(factors), {n: kern}, factors, mesh)

    def test_builtin_order4_kernel(self):
        kern = build_kernel_table(load_plant("pdae"), 4)[4]
        mesh = np.linspace(0.0, 1.0, 101)
        u = 0.7 * np.sin(math.pi * mesh) + mesh
        cascade = MeshCascade({4: kern}, mesh)
        assert_profile_within_rounding(cascade.profile([u] * 4), {4: kern}, [u] * 4, mesh)
        assert_endpoint_within_rounding(cascade.endpoint([u] * 4), {4: kern}, [u] * 4, mesh)

    @pytest.mark.parametrize("slots", [(0,), (2,), (0, 1, 2)])
    def test_batched_factor(self, slots):
        rng = np.random.default_rng(5)
        kern = random_kernel(rng, 3, 10)
        mesh = np.linspace(0.0, 1.0, 41)
        factors = [
            rng.standard_normal((4, 41)) if i in slots else rng.standard_normal(41)
            for i in range(3)
        ]
        cascade = MeshCascade({3: kern}, mesh)
        prof = cascade.profile(factors)
        ends = cascade.endpoint(factors)
        assert prof.shape == (4, 41) and ends.shape == (4,)
        for b in range(4):
            row = [f[b] if f.ndim == 2 else f for f in factors]
            assert_profile_within_rounding(prof[b], {3: kern}, row, mesh)
            assert_endpoint_within_rounding(ends[b], {3: kern}, row, mesh)

    def test_zero_kernel(self):
        mesh = np.linspace(0.0, 1.0, 11)
        cascade = MeshCascade({2: SimplexPolyKernel(2, {})}, mesh)
        assert np.array_equal(cascade.profile([mesh, mesh]), np.zeros(11))
        assert cascade.endpoint([mesh, mesh]) == 0.0

    @staticmethod
    def mixed_orders(rng):
        """Orders 2 to 5 whose suffixes overlap across orders."""
        orders = {n: random_kernel(rng, n, 10) for n in (2, 3, 4, 5)}
        suffixes = [
            {a[i:] for _, a in kern.monomials for i in range(n)} for n, kern in orders.items()
        ]
        assert len(set().union(*suffixes)) < sum(map(len, suffixes))
        return orders

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_trie_for_several_orders(self, seed):
        rng = np.random.default_rng(seed)
        orders = self.mixed_orders(rng)
        for m in (3, 57, 201):
            mesh = np.linspace(0.0, 1.0, m)
            u = rng.standard_normal(m)
            cascade = MeshCascade(orders, mesh)
            alone = {n: MeshCascade({n: kern}, mesh) for n, kern in orders.items()}
            alone_nodes = sum(len(pows) for c in alone.values() for pows, _ in c.levels)
            assert sum(len(pows) for pows, _ in cascade.levels) < alone_nodes
            for n, kern in orders.items():
                slots = [u] * n
                assert_profile_within_rounding(alone[n].profile(slots), {n: kern}, slots, mesh)
                assert_endpoint_within_rounding(alone[n].endpoint(slots), {n: kern}, slots, mesh)
            assert_profile_within_rounding(cascade.profile([u] * 5), orders, [u] * 5, mesh)
            assert_endpoint_within_rounding(cascade.endpoint([u] * 5), orders, [u] * 5, mesh)

    def test_one_trie_with_batched_factors(self):
        rng = np.random.default_rng(7)
        orders = self.mixed_orders(rng)
        mesh = np.linspace(0.0, 1.0, 57)
        u = rng.standard_normal((3, 57))
        cascade = MeshCascade(orders, mesh)
        prof, ends = cascade.profile([u] * 5), cascade.endpoint([u] * 5)
        assert prof.shape == (3, 57) and ends.shape == (3,)
        for b in range(3):
            assert_profile_within_rounding(prof[b], orders, [u[b]] * 5, mesh)
            assert_endpoint_within_rounding(ends[b], orders, [u[b]] * 5, mesh)

    def test_rows_are_level_prefixes(self):
        # Order n's profile rows are its distinct alphas, the first nodes of
        # level n - 1.  Below the highest order its x = 1 weights span the
        # same prefix and are the rows' last column (x**e is 1 at x = 1);
        # the highest order's fold ends at its last parent node, a row that
        # is not zero.  For the builtin plant no fold row is zero.
        rng = np.random.default_rng(29)
        orders = self.mixed_orders(rng)
        builtin = build_kernel_table(load_plant("pdae"), 5)
        mesh = np.linspace(0.0, 1.0, 21)
        for table in (orders, builtin):
            cascade = MeshCascade(table, mesh)
            *lower, top = table
            for n, kern in table.items():
                nodes = len({a for _, a in kern.monomials})
                assert len(cascade.rows[n]) == nodes
                assert set(cascade.reads[n][0]) == set(range(nodes))
            for n in lower:
                assert np.array_equal(cascade.folds[n], cascade.rows[n][:, -1])
            assert cascade.folds[top].ndim == 2 and np.any(cascade.folds[top][-1])
        folds = MeshCascade(builtin, mesh).folds
        assert np.all(np.any(folds[5], axis=1))
        assert [len(w) for w in folds.values()] == [1, 7, 38, 137]

    def test_one_fold_block(self):
        # Orders 2 and 3 read their own levels at x = 1; only order 4 folds.
        rng = np.random.default_rng(37)
        orders = {n: random_kernel(rng, n, 10) for n in (2, 3, 4)}
        mesh = np.linspace(0.0, 1.0, 41)
        u = rng.standard_normal(41)
        cascade = MeshCascade(orders, mesh)
        value = cascade.endpoint([u] * 4)
        assert [w.ndim for w in cascade.folds.values()] == [1, 1, 2]
        assert cascade.folds[4].shape[1] == 41
        assert_endpoint_within_rounding(value, orders, [u] * 4, mesh)

    @pytest.mark.parametrize("m", [2, 3])
    def test_fold_on_the_coarsest_meshes(self, m):
        # M = 2: both weights are dx/2; M = 3: dx/2, dx, dx/2.
        rng = np.random.default_rng(13)
        orders = self.mixed_orders(rng)
        mesh = np.linspace(0.0, 1.0, m)
        weights = np.full(m, 1.0 / (m - 1))
        weights[[0, -1]] /= 2.0
        unit = MeshCascade({2: SimplexPolyKernel(2, {(0, (0, 0)): 1})}, mesh)
        assert np.array_equal(unit.folds[2], weights[None, :])
        cascade = MeshCascade(orders, mesh)
        alone = {n: MeshCascade({n: kern}, mesh) for n, kern in orders.items()}
        for _ in range(5):
            factors = [rng.standard_normal(m) for _ in range(5)]
            for n, kern in orders.items():
                end = alone[n].endpoint(factors[-n:])
                assert_endpoint_within_rounding(end, {n: kern}, factors, mesh)
            assert_endpoint_within_rounding(cascade.endpoint(factors), orders, factors, mesh)

    def test_order_two_alone_skips_its_outer_level(self, monkeypatch):
        depths = []
        integrals = MeshCascade._integrals

        def recording(self, factors, depth):
            depths.append(depth)
            return integrals(self, factors, depth)

        monkeypatch.setattr(MeshCascade, "_integrals", recording)
        rng = np.random.default_rng(17)
        kern = random_kernel(rng, 2, 8)
        mesh = np.linspace(0.0, 1.0, 57)
        factors = [rng.standard_normal(57) for _ in range(2)]
        cascade = MeshCascade({2: kern}, mesh)
        assert list(cascade.folds) == [2] and cascade.folds[2].shape[0] == len(
            cascade.levels[0][0]
        )
        assert_endpoint_within_rounding(cascade.endpoint(factors), {2: kern}, factors, mesh)
        assert_profile_within_rounding(cascade.profile(factors), {2: kern}, factors, mesh)
        assert depths == [1, 2]  # the endpoint integrates level 0 only

    def test_each_read_builds_only_its_own_rows(self):
        rng = np.random.default_rng(31)
        orders = self.mixed_orders(rng)
        mesh = np.linspace(0.0, 1.0, 21)
        u = rng.standard_normal(21)
        at_one, on_mesh = MeshCascade(orders, mesh), MeshCascade(orders, mesh)
        at_one.endpoint([u] * 5)
        on_mesh.profile([u] * 5)
        assert "folds" in vars(at_one) and "rows" not in vars(at_one)
        assert "rows" in vars(on_mesh) and "folds" not in vars(on_mesh)

    def test_zero_order_among_others(self):
        rng = np.random.default_rng(19)
        orders = {
            2: random_kernel(rng, 2, 6),
            3: SimplexPolyKernel(3, {}),
            4: random_kernel(rng, 4, 6),
        }
        nonzero = {n: kern for n, kern in orders.items() if kern.monomials}
        mesh = np.linspace(0.0, 1.0, 41)
        u = rng.standard_normal(41)
        cascade = MeshCascade(orders, mesh)
        assert list(cascade.rows) == list(cascade.folds) == [2, 4]
        for n, kern in nonzero.items():
            alone = MeshCascade({n: kern}, mesh)
            assert_profile_within_rounding(alone.profile([u] * n), {n: kern}, [u] * n, mesh)
            assert_endpoint_within_rounding(alone.endpoint([u] * n), {n: kern}, [u] * n, mesh)
        assert_profile_within_rounding(cascade.profile([u] * 4), nonzero, [u] * 4, mesh)
        assert_endpoint_within_rounding(cascade.endpoint([u] * 4), nonzero, [u] * 4, mesh)

    def test_batched_outermost_factor(self):
        # Slot 0 is the outermost factor of order 3 only; order 2 reads
        # slots 1 and 2, so its endpoint keeps no batch axis.
        rng = np.random.default_rng(23)
        orders = {2: random_kernel(rng, 2, 8), 3: random_kernel(rng, 3, 8)}
        mesh = np.linspace(0.0, 1.0, 41)
        factors = [rng.standard_normal((4, 41)), rng.standard_normal(41), rng.standard_normal(41)]
        cascade = MeshCascade(orders, mesh)
        total = cascade.endpoint(factors)
        third = MeshCascade({3: orders[3]}, mesh).endpoint(factors)
        second = MeshCascade({2: orders[2]}, mesh).endpoint(factors[1:])
        assert second.shape == () and third.shape == total.shape == (4,)
        for b in range(4):
            row = [factors[0][b]] + factors[1:]
            assert_endpoint_within_rounding(third[b], {3: orders[3]}, row, mesh)
            assert_endpoint_within_rounding(total[b], orders, row, mesh)
        assert_endpoint_within_rounding(second, {2: orders[2]}, factors[1:], mesh)

    def test_work_arrays_are_reused_safely(self):
        rng = np.random.default_rng(11)
        orders = self.mixed_orders(rng)
        mesh = np.linspace(0.0, 1.0, 57)
        u, v = rng.standard_normal(57), rng.standard_normal(57)
        cascade = MeshCascade(orders, mesh)
        first = cascade.profile([u] * 5)
        kept = first.copy()
        end = cascade.endpoint([u] * 5)
        cascade.profile([v] * 5)
        cascade.profile([np.stack([v, u])] * 5)  # another batch shape in between
        assert np.array_equal(first, kept)
        assert np.array_equal(cascade.profile([u] * 5), kept)
        assert cascade.endpoint([u] * 5) == end

    def test_batched_dk_matrix_equals_columns(self, kernel_series):
        kernels = dict(kernel_series.kernels)
        kernels[4] = build_kernel_table(load_plant("pdae"), 4)[4]
        series = VolterraKernelSeries(kernels)
        m = 31
        u = GridFunction(0.4 * np.sin(math.pi * np.linspace(0.0, 1.0, m)) + 0.1)
        columns = [
            linearized_profile(series, u, GridFunction(e)).values for e in np.eye(m)
        ]
        assert np.array_equal(dk_matrix(series, u), np.column_stack(columns))


class TestQuadratureTerm:
    def test_node_is_interp_quadrature(self):
        """A node equals np.interp factors, np.prod and np.dot bit for bit."""
        mesh = np.linspace(0.0, 1.0, 21)
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, mesh.size))
        firsts = np.concatenate([np.eye(mesh.size), rng.standard_normal((10, mesh.size))])

        def kern(x, pts):
            return np.cos(x + pts @ [1.0, 2.0, 3.0])

        for rule in (GL8, QuadratureRule(5)):
            for x in (0.3, 1.0):
                pts, w = simplex_nodes(3, x, rule)
                node = QuadratureNode(kern, 3, x, rule, mesh)
                for first in firsts:
                    factors = [first, a, b]
                    vals = [np.interp(pts[:, i], mesh, f) for i, f in enumerate(factors)]
                    want = np.dot(kern(x, pts) * np.prod(np.stack(vals, axis=1), axis=1), w)
                    assert node.value(factors) == want

    def test_opaque_kernels_need_a_rule(self):
        """A kernel that is not a polynomial is refused when its series is
        built, naming its order, also after a polynomial order; kernel
        tables become series, so the simulator's entry points refuse it
        too."""
        record = simulate(SimConfig(t_end=0.1, mesh_points=11), None)
        opaque = {
            n: (lambda x, pts, _p=poly: _p(x, pts))
            for n, poly in ((2, pdae_k2()), (3, pdae_k3()))
        }
        mixed = {2: pdae_k2(), 3: opaque[3]}
        for kernels, order in ((opaque, 2), (mixed, 3)):
            calls = [
                lambda: VolterraKernelSeries(kernels),
                lambda: mild_solution_residual(record, kernels, [0.05]),
                lambda: SeriesTerms(_controller_series(kernels, 3), record.mesh),
            ]
            for call in calls:
                with pytest.raises(SeriesDefinitionError, match=f"order-{order} kernel"):
                    call()


def test_import_leaves_scipy_out():
    """Importing the package must not pull in scipy (about 0.5 s of import time)."""
    src = str(Path(volback.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, volback; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert out.stdout.strip() == "False"
