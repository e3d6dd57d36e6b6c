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
from volback.polynomial import pdae_k2, pdae_k3
from volback.simplex import QuadratureRule, SimplexDomainError, simplex_nodes
from volback.volterra import (
    GainFunctions,
    GridFunction,
    MeshCascade,
    QuadratureNode,
    QuadratureTerm,
    SeriesDefinitionError,
    VolterraKernelSeries,
    build_gains,
    check_growth_assumption,
    coupling_bound_check,
    eval_series,
    gain_ell,
    gain_k,
    kernel_l2_sq,
    linearized_profile,
    series_profile,
)

GL8 = QuadratureRule.gauss(8)


class TestGridFunction:
    def test_norms(self):
        u = GridFunction.from_callable(lambda x: np.ones_like(x), 101)
        assert u.l2_norm() == pytest.approx(1.0)
        assert u.sup_norm() == 1.0

    def test_sine_l2(self):
        u = GridFunction.from_callable(lambda x: np.sin(np.pi * x), 401)
        assert u.l2_norm() == pytest.approx(math.sqrt(0.5), rel=1e-4)

    def test_interp(self):
        u = GridFunction.from_callable(lambda x: x, 11)
        assert u.interp(0.55) == pytest.approx(0.55)

    def test_arithmetic(self):
        u = GridFunction.from_callable(lambda x: x, 21)
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

    def test_min_order_must_be_two(self):
        with pytest.raises(SeriesDefinitionError):
            VolterraKernelSeries({3: pdae_k3()})

    def test_missing_order_raises(self, plant):
        with pytest.raises(SeriesDefinitionError):
            plant.kernel(5)

    def test_truncated(self):
        s = VolterraKernelSeries({2: pdae_k2(), 3: pdae_k3()})
        assert s.truncated(2).orders == (2,)

    def test_empty_is_zero(self):
        assert VolterraKernelSeries({}).is_zero()

    def test_growth_must_be_positive(self):
        with pytest.raises(SeriesDefinitionError):
            VolterraKernelSeries({2: pdae_k2()}, growth=(0.0, 1.0))


class TestEvalSeries:
    def test_constant_input(self, plant):
        u = GridFunction.from_callable(lambda x: np.ones_like(x), 201)
        assert eval_series(plant, u, 1.0, GL8) == pytest.approx(0.5, rel=1e-9)

    def test_linear_input(self, plant):
        u = GridFunction.from_callable(lambda x: x, 201)
        assert eval_series(plant, u, 1.0, GL8) == pytest.approx(0.125, rel=1e-6)

    def test_x_zero(self, plant):
        u = GridFunction.from_callable(lambda x: np.ones_like(x), 51)
        assert eval_series(plant, u, 0.0, GL8) == 0.0

    def test_x_outside_domain(self, plant):
        u = GridFunction.from_callable(lambda x: np.ones_like(x), 51)
        with pytest.raises(SimplexDomainError):
            eval_series(plant, u, 1.2, GL8)

    def test_order2_homogeneity(self, plant):
        u = GridFunction.from_callable(lambda x: np.cos(x), 201)
        base = eval_series(plant, u, 0.8, GL8)
        scaled = eval_series(plant, u.scale(3.0), 0.8, GL8)
        assert scaled == pytest.approx(9.0 * base, rel=1e-9)


class TestProfiles:
    def test_polynomial_profile_closed_form(self, plant):
        u = GridFunction.from_callable(lambda x: np.ones_like(x), 201)
        prof = series_profile(plant, u)
        assert prof.values == pytest.approx(0.5 * u.mesh**2, abs=2e-5)

    def test_profile_matches_pointwise_eval(self, kernel_series):
        u = GridFunction.from_callable(lambda x: np.sin(x), 101)
        prof = series_profile(kernel_series, u)
        for xq in (0.25, 0.5, 1.0):
            want = eval_series(kernel_series, u, xq, GL8)
            assert prof.interp(xq) == pytest.approx(want, abs=5e-5)

    def test_linearized_profile_matches_fd(self, kernel_series):
        u = GridFunction.from_callable(lambda x: 0.3 * np.sin(np.pi * x), 201)
        h = GridFunction.from_callable(lambda x: 0.2 * x * (1 - x), 201)
        lin = linearized_profile(kernel_series, u, h)
        eps = 1e-5
        plus = series_profile(kernel_series, u + h.scale(eps))
        minus = series_profile(kernel_series, u + h.scale(-eps))
        fd = (plus - minus).scale(1.0 / (2 * eps))
        assert (lin - fd).l2_norm() <= 1e-7 * max(fd.l2_norm(), 1e-12)


class TestKernelNorms:
    def test_order2_norm(self):
        series = VolterraKernelSeries({2: pdae_k2()})
        val = kernel_l2_sq(series, 2, QuadratureRule.gauss(16))
        assert val == pytest.approx(1.0 / 12.0, rel=1e-10)

    def test_order3_norm(self, kernel_series):
        val = kernel_l2_sq(kernel_series, 3, QuadratureRule.gauss(12))
        assert val == pytest.approx(3.0 / 2240.0, rel=1e-9)


class TestGains:
    def test_coefficients(self):
        gains = GainFunctions(orders=(2,), norms_sq=(1.0 / 12.0,))
        assert gains.k_coefficient(2) == pytest.approx(1.0 / 3.0)
        assert gains.ell_coefficient(2) == pytest.approx(8.0 / 3.0)

    def test_series_values(self, kernel_series):
        gains = build_gains(kernel_series, QuadratureRule.gauss(12))
        s = 3.0 / 16.0
        assert gain_k(gains, s) == pytest.approx(s**2 / 3 + 9 * s**3 / 2240, rel=1e-8)
        assert gain_ell(gains, s) == pytest.approx(
            8 * s / 3 + 243 * s**2 / 2240, rel=1e-8
        )

    def test_zero_at_origin_and_monotone(self, kernel_series):
        gains = build_gains(kernel_series, QuadratureRule.gauss(10))
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

    def test_tail_bound_behavior(self):
        gains = GainFunctions(
            orders=(2, 3), norms_sq=(1.0 / 12.0, 3.0 / 2240.0),
            tail_constants=(1.0, 1.0, 0.0),
        )
        assert gains.tail_k(2.0) == math.inf
        small = gains.tail_k(0.1)
        smaller = gains.tail_k(0.05)
        assert 0 < smaller < small < math.inf
        assert gains.tail_ell(0.1) > 0

    def test_tail_none_without_constants(self):
        gains = GainFunctions(orders=(2,), norms_sq=(1.0,))
        assert gains.tail_k(0.1) is None

    def test_rho_estimate(self):
        gains = GainFunctions(orders=(2,), norms_sq=(1.0 / 12.0,))
        # single coefficient 1/3 at n = 2: rho = (1/3)**(-1/2)
        assert gains.rho_estimate() == pytest.approx(math.sqrt(3.0))


class TestGrowthSampling:
    def test_quadratic_example_passes(self, plant):
        report = check_growth_assumption(plant, samples=100, seed=3)
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


def reference_profile(monomials, factors, mesh):
    """One monomial at a time, no shared passes: the nested trapezoid rule
    written out, innermost slot first, each level a cumulative trapezoid
    ``dx * (g[1:] + g[:-1]) / 2.0`` summed from 0."""
    dx = mesh[1] - mesh[0]
    out = np.zeros_like(mesh)
    for (e, alphas), c in monomials.items():
        inner = None
        for i in reversed(range(len(alphas))):
            g = factors[i] * mesh ** alphas[i]
            if inner is not None:
                g = g * inner
            inner = np.concatenate([[0.0], np.cumsum(dx * (g[1:] + g[:-1]) / 2.0)])
        out += float(c) * inner * mesh**e
    return out


def random_monomials(rng, n, count):
    """Small exponents, so many monomials share trailing exponents."""
    mono = {}
    for _ in range(count):
        key = (int(rng.integers(0, 4)), tuple(int(a) for a in rng.integers(0, 3, n)))
        mono[key] = Fraction(int(rng.integers(-9, 10)) or 1, int(rng.integers(1, 7)))
    return mono


class TestMeshCascade:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_reference_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        mono = random_monomials(rng, n, 12)
        assert any(e > 0 for e, _ in mono)
        assert len({a[1:] for _, a in mono}) < len(mono)  # some suffix is shared
        for m in (3, 57, 201):
            mesh = np.linspace(0.0, 1.0, m)
            factors = [rng.standard_normal(m) for _ in range(n)]
            want = reference_profile(mono, factors, mesh)
            cascade = MeshCascade(mono, mesh)
            assert np.array_equal(cascade.profile(factors), want)
            assert cascade.endpoint(factors) == want[-1]

    def test_builtin_order4_kernel(self):
        mono = build_kernel_table(load_plant("pdae"), 4)[4].polynomial.monomials
        mesh = np.linspace(0.0, 1.0, 101)
        u = 0.7 * np.sin(math.pi * mesh) + mesh
        cascade = MeshCascade(mono, mesh)
        want = reference_profile(mono, [u] * 4, mesh)
        assert np.array_equal(cascade.profile([u] * 4), want)
        assert cascade.endpoint([u] * 4) == want[-1]

    @pytest.mark.parametrize("slots", [(0,), (2,), (0, 1, 2)])
    def test_batched_factor(self, slots):
        rng = np.random.default_rng(5)
        mono = random_monomials(rng, 3, 10)
        mesh = np.linspace(0.0, 1.0, 41)
        factors = [
            rng.standard_normal((4, 41)) if i in slots else rng.standard_normal(41)
            for i in range(3)
        ]
        cascade = MeshCascade(mono, mesh)
        prof = cascade.profile(factors)
        ends = cascade.endpoint(factors)
        assert prof.shape == (4, 41) and ends.shape == (4,)
        for b in range(4):
            row = [f[b] if f.ndim == 2 else f for f in factors]
            want = reference_profile(mono, row, mesh)
            assert np.array_equal(prof[b], want)
            assert ends[b] == want[-1]

    def test_zero_kernel(self):
        mesh = np.linspace(0.0, 1.0, 11)
        cascade = MeshCascade({}, mesh)
        assert np.array_equal(cascade.profile([mesh, mesh]), np.zeros(11))
        assert cascade.endpoint([mesh, mesh]) == 0.0

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


def opaque_series():
    """The builtin order-2 and order-3 kernels behind plain callables (no monomials)."""
    kernels = {}
    for n, poly in ((2, pdae_k2()), (3, pdae_k3())):
        kernels[n] = lambda x, pts, _p=poly: _p(x, pts)
        kernels[n].vectorized = True
    return VolterraKernelSeries(kernels)


class TestQuadratureTerm:
    def test_node_is_interp_quadrature(self):
        """A node equals np.interp factors, np.prod and np.dot bit for bit,
        also with quadrature points on the last mesh node (trapezoid rule)."""
        mesh = np.linspace(0.0, 1.0, 21)
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, mesh.size))
        firsts = np.concatenate([np.eye(mesh.size), rng.standard_normal((10, mesh.size))])

        def kern(x, pts):
            return np.cos(x + pts @ [1.0, 2.0, 3.0])

        for rule in (GL8, QuadratureRule.trapezoid(5)):
            for x in (0.3, 1.0):
                pts, w = simplex_nodes(3, x, rule)
                node = QuadratureNode(kern, 3, x, rule, mesh)
                for first in firsts:
                    factors = [first, a, b]
                    vals = [np.interp(pts[:, i], mesh, f) for i, f in enumerate(factors)]
                    want = np.dot(kern(x, pts) * np.prod(np.stack(vals, axis=1), axis=1), w)
                    assert node.value(factors) == want

    def test_batched_profile_and_endpoint(self):
        mesh = np.linspace(0.0, 1.0, 21)
        term = QuadratureTerm(opaque_series().kernel(3), 3, mesh, GL8)
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((3, mesh.size))
        u = np.sin(mesh)
        prof = term.profile([u, batch, u])
        assert prof.shape == (3, mesh.size) and prof[:, 0].tolist() == [0.0] * 3
        for b in range(3):
            row = term.profile([u, batch[b], u])
            assert np.allclose(prof[b], row, rtol=1e-12, atol=1e-15)
            assert term.endpoint([u, batch[b], u]) == row[-1]

    def test_opaque_kernels_need_a_rule(self):
        series = opaque_series()
        u = GridFunction(np.ones(11))
        with pytest.raises(SeriesDefinitionError):
            series_profile(series, u)
        with pytest.raises(SeriesDefinitionError):
            linearized_profile(series, u, u)
        with pytest.raises(SeriesDefinitionError):
            dk_matrix(series, u)

    def test_dk_matrix_equals_columns(self):
        series = opaque_series()
        m = 21
        u = GridFunction(0.4 * np.sin(math.pi * np.linspace(0.0, 1.0, m)) + 0.1)
        columns = [
            linearized_profile(series, u, GridFunction(e), GL8).values for e in np.eye(m)
        ]
        assert np.allclose(dk_matrix(series, u, GL8), np.column_stack(columns),
                           rtol=1e-12, atol=1e-15)


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
