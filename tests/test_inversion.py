"""Transform inversion: radius selection, Picard iteration, derivative."""

import math
import warnings

import numpy as np
import pytest

from conftest import frechet_dk
from volback import inversion, volterra
from volback.charkernels import build_controller_kernels, pdae_plant
from volback.inversion import (
    InversionConfig,
    InversionDomainError,
    LIPSCHITZ_MESH_POINTS,
    LIPSCHITZ_TRIALS,
    choose_radius,
    dk_matrix,
    invert_with_info,
    lipschitz_check,
    neumann_norm_estimate,
)
from volback.polynomial import SimplexPolyKernel
from volback.simplex import QuadratureRule
from volback.verification import LIPSCHITZ_TOL
from volback.volterra import (
    GainFunctions,
    GridFunction,
    MeshCascade,
    VolterraKernelSeries,
    build_gains,
    gain_ell,
    linearized_profile,
    series_profile,
)


@pytest.fixture(scope="module")
def gains(kernel_series):
    return build_gains(kernel_series, rule=QuadratureRule(12))


@pytest.fixture(scope="module")
def config(gains):
    return choose_radius(gains)


@pytest.fixture(scope="module")
def mesh():
    return np.linspace(0.0, 1.0, 201)


def smooth_profile(rng, mesh, norm):
    vals = sum(
        rng.standard_normal() * np.sin((k + 1) * math.pi * mesh) for k in range(4)
    )
    g = GridFunction(vals)
    return g.scale(norm / g.l2_norm())


class TestChooseRadius:
    def test_quadratic_only_balance_is_exact(self):
        g = GainFunctions(orders=(2,), norms_sq=(1.0 / 12.0,))
        cfg = choose_radius(g)
        assert cfg.s == pytest.approx(3.0 / 16.0, rel=1e-10)
        assert cfg.rho_L == pytest.approx(21.0 / 256.0, rel=1e-9)

    def test_full_series_frozen(self, config):
        assert config.s == pytest.approx(0.186091, abs=1e-5)
        assert config.rho_L == pytest.approx(0.081476, abs=1e-5)

    def test_balance_hits_target(self, gains, config):
        assert gain_ell(gains, config.s) == pytest.approx(0.5, abs=1e-9)

    def test_zero_series_gets_unit_radius(self):
        g = GainFunctions(orders=(2,), norms_sq=(0.0,))
        cfg = choose_radius(g)
        assert cfg.s == 1.0
        assert cfg.rho_L == 0.5

    def test_config_validation(self):
        with pytest.raises(InversionDomainError):
            InversionConfig(s=-1.0, rho_L=0.1)


class TestInvert:
    def test_round_trip(self, kernel_series, config, mesh):
        rng = np.random.default_rng(7)
        w = smooth_profile(rng, mesh, 0.5 * math.sqrt(config.rho_L))
        u = invert_with_info(w, kernel_series, config).u
        back = u - series_profile(kernel_series, u)
        assert (back - w).l2_norm() < 1e-8

    def test_zero_is_fixed(self, kernel_series, config):
        w = GridFunction(np.zeros(101))
        res = invert_with_info(w, kernel_series, config)
        assert res.u.l2_norm() == 0.0
        assert res.converged

    def test_target_outside_ball_rejected(self, kernel_series, config, mesh):
        big = GridFunction(np.full(mesh.size, 2.0))
        with pytest.raises(InversionDomainError):
            invert_with_info(big, kernel_series, config)

    def test_contraction_ratios_bounded(self, kernel_series, gains, config, mesh):
        bound = math.sqrt(gain_ell(gains, config.s))
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = smooth_profile(rng, mesh, 0.6 * math.sqrt(config.rho_L))
            res = invert_with_info(w, kernel_series, config)
            assert res.converged
            # ignore the last ratio: it is noise at the tolerance floor
            for ratio in res.contraction_ratios[:-1]:
                assert ratio <= bound + 0.05


class TestDerivative:
    def test_pointwise_matches_profile(self, kernel_series, mesh, gl8):
        rng = np.random.default_rng(11)
        u = smooth_profile(rng, mesh, 0.3)
        h = smooth_profile(rng, mesh, 0.2)
        prof = linearized_profile(kernel_series, u, h)
        # trapezoid cascade vs interpolated quadrature: both O(dx^2)
        for x in (0.25, 0.5, 1.0):
            direct = frechet_dk(kernel_series, u, h, x, gl8)
            idx = int(round(x * (mesh.size - 1)))
            assert direct == pytest.approx(prof.values[idx], abs=5e-5)

    def test_against_central_difference(self, kernel_series, mesh):
        rng = np.random.default_rng(13)
        eps = 1e-5
        for _ in range(5):
            u = smooth_profile(rng, mesh, 0.3)
            h = smooth_profile(rng, mesh, 0.25)
            lin = linearized_profile(kernel_series, u, h)
            plus = series_profile(kernel_series, u + h.scale(eps))
            minus = series_profile(kernel_series, u - h.scale(eps))
            fd = (plus - minus).scale(1.0 / (2.0 * eps))
            rel = (lin - fd).l2_norm() / max(lin.l2_norm(), 1e-30)
            assert rel < 1e-4

    def test_vanishes_at_origin(self, kernel_series, mesh, gl8):
        rng = np.random.default_rng(17)
        u = smooth_profile(rng, mesh, 0.3)
        h = smooth_profile(rng, mesh, 0.2)
        assert frechet_dk(kernel_series, u, h, 0.0, gl8) == 0.0

    def test_point_outside_interval_rejected(self, kernel_series, mesh, gl8):
        u = GridFunction(np.zeros(11))
        with pytest.raises(InversionDomainError):
            frechet_dk(kernel_series, u, u, 1.5, gl8)


class TestDkMatrixBlocks:
    """``dk_matrix`` takes the identity through one cascade's tangent pass
    in blocks of columns, each over the mesh points from its first column
    less one on; every block edge gives the columns of the unblocked
    tangent exactly, and the matrix is causal."""

    @pytest.fixture(scope="class")
    def series(self, kernel_series):
        return VolterraKernelSeries({**kernel_series, 4: build_controller_kernels(pdae_plant(), 4)[4]})

    @staticmethod
    def recorded_blocks(monkeypatch):
        """Record, per block, the workspace, the block width, the mesh
        points and the work arrays ``_tangent_buffers`` hands out."""
        calls = []
        buffers = MeshCascade._tangent_buffers

        def recording(self, block, width, points):
            work = buffers(self, block, width, points)
            calls.append((block, width, points, work))
            return work

        monkeypatch.setattr(MeshCascade, "_tangent_buffers", recording)
        return calls

    def blocks(self, series, u, monkeypatch):
        """The (width, points) of each block of ``dk_matrix``, whose matrix
        is held exactly to the unblocked one (one block over every mesh
        point) and to be causal."""
        with monkeypatch.context() as unblocked:
            unblocked.setattr(volterra, "DK_BLOCK_BYTES", 1 << 30)
            want = dk_matrix(series, u)
        calls = self.recorded_blocks(monkeypatch)
        dk = dk_matrix(series, u)
        assert np.array_equal(dk, want)
        assert np.array_equal(np.triu(dk, 1), np.zeros((u.size, u.size)))
        return [(width, points) for _, width, points, _ in calls]

    # A first block of 4 columns over all m points; later blocks, over
    # fewer points, are wider: less than one block, one block, exactly two
    # blocks, two blocks where the second is wider, and three blocks.
    WIDTHS = {3: [3], 4: [4], 8: [4, 4], 9: [4, 5], 12: [4, 6, 2], 13: [4, 5, 4]}

    @pytest.mark.parametrize("m", [3, 4, 8, 9, 12, 13])
    def test_block_edges(self, series, monkeypatch, m):
        u = GridFunction(0.4 * np.sin(math.pi * np.linspace(0.0, 1.0, m)) + 0.1)
        point_bytes = MeshCascade(series, u.mesh).tangent_point_bytes
        monkeypatch.setattr(volterra, "DK_BLOCK_BYTES", 4 * point_bytes * m + point_bytes * m // 2)
        widths = self.WIDTHS[m]
        starts = np.cumsum([0] + widths[:-1])
        assert self.blocks(series, u, monkeypatch) == [
            (w, m - max(s - 1, 0)) for s, w in zip(starts, widths)
        ]

    def test_one_column_per_block(self, series, monkeypatch):
        u = GridFunction(0.4 * np.sin(math.pi * np.linspace(0.0, 1.0, 13)) + 0.1)
        monkeypatch.setattr(volterra, "DK_BLOCK_BYTES", 1)
        assert self.blocks(series, u, monkeypatch) == [(1, 13)] + [
            (1, 13 - (s - 1)) for s in range(1, 13)
        ]

    def test_one_block_from_column_zero(self, series, monkeypatch):
        u = GridFunction(0.4 * np.sin(math.pi * np.linspace(0.0, 1.0, 41)) + 0.1)
        monkeypatch.setattr(volterra, "DK_BLOCK_BYTES", 1 << 30)
        assert self.blocks(series, u, monkeypatch) == [(41, 41)]

    def test_lower_triangular_at_default_blocks(self, kernel_series, monkeypatch):
        mesh = np.linspace(0.0, 1.0, 201)
        u = GridFunction(0.3 * np.sin(math.pi * mesh))
        calls = self.recorded_blocks(monkeypatch)
        dk = dk_matrix(kernel_series, u)
        assert np.array_equal(np.triu(dk, 1), np.zeros((201, 201)))
        assert np.any(np.tril(dk))
        widths = [width for _, width, _, _ in calls]
        assert len(widths) > 2 and widths[:-1] == sorted(widths[:-1])

    @pytest.mark.parametrize("order, m", [(4, 201), (5, 101)])
    def test_default_blocks_match_unblocked(self, monkeypatch, order, m):
        series = build_controller_kernels(pdae_plant(), order)
        u = GridFunction(0.3 * np.sin(math.pi * np.linspace(0.0, 1.0, m)))
        assert len(self.blocks(series, u, monkeypatch)) > 1

    def test_blocks_share_one_workspace(self, series, monkeypatch):
        u = GridFunction(0.4 * np.sin(math.pi * np.linspace(0.0, 1.0, 13)) + 0.1)
        point_bytes = MeshCascade(series, u.mesh).tangent_point_bytes
        monkeypatch.setattr(volterra, "DK_BLOCK_BYTES", 4 * point_bytes * 13)
        calls = self.recorded_blocks(monkeypatch)
        dk_matrix(series, u)
        block = calls[0][0]
        assert len(calls) > 1 and all(b is block for b, _, _, _ in calls)
        assert block.nbytes <= volterra.DK_BLOCK_BYTES
        for _, _, _, work in calls:
            assert all(a.base is block for arrays in work for a in arrays)

    def test_value_integrals_formed_once(self, series, monkeypatch):
        u = GridFunction(0.3 * np.sin(math.pi * np.linspace(0.0, 1.0, 201)))
        depths = []
        integrals = MeshCascade._integrals

        def recording(self, values, depth):
            depths.append(depth)
            return integrals(self, values, depth)

        monkeypatch.setattr(MeshCascade, "_integrals", recording)
        dk_matrix(series, u)  # in several blocks at the default DK_BLOCK_BYTES
        assert depths == [3]


class TestNeumannEstimate:
    def test_bounded_by_geometric_series(self, kernel_series, gains, config):
        coarse = np.linspace(0.0, 1.0, 41)
        u = GridFunction(0.5 * math.sqrt(config.s) * np.sin(math.pi * coarse))
        est = neumann_norm_estimate(kernel_series, u)
        bound = 1.0 / (1.0 - math.sqrt(gain_ell(gains, config.s)))
        assert 1.0 <= est <= bound + 1e-6

    def test_zero_state_gives_identity(self, kernel_series):
        u = GridFunction(np.zeros(31))
        est = neumann_norm_estimate(kernel_series, u)
        assert est == pytest.approx(1.0, abs=1e-9)

    def test_singular_operator_gives_inf(self, kernel_series, monkeypatch):
        # DK[u] = I makes I - DK[u] zero: no inverse, no finite norm.
        monkeypatch.setattr(inversion, "dk_matrix", lambda series, u: np.eye(u.size))
        assert neumann_norm_estimate(kernel_series, GridFunction(np.zeros(11))) == math.inf

    @staticmethod
    def inverse_singular_value(series, u):
        """1 / sigma_min of I - DK[u] in the trapezoid-weighted norm, from
        a full singular value decomposition."""
        m = u.size
        a = np.eye(m) - dk_matrix(series, u)
        wts = np.full(m, u.dx)
        wts[0] *= 0.5
        wts[-1] *= 0.5
        sq = np.sqrt(wts)
        a_w = sq[:, None] * a / sq[None, :]
        return 1.0 / np.linalg.svd(a_w, compute_uv=False)[-1]

    def test_in_place_matches_formula(self, kernel_series):
        # A = I - DK[u], weighted, formed out of place: the same floats.
        m = 201
        u = GridFunction(0.3 * np.sin(math.pi * np.linspace(0.0, 1.0, m)))
        wts = np.full(m, u.dx)
        wts[[0, -1]] *= 0.5
        sq = np.sqrt(wts)
        a = np.eye(m) - dk_matrix(kernel_series, u)
        a_w = sq[:, None] * a / sq[None, :]
        lam = np.linalg.eigvalsh(a_w.T @ a_w)
        assert neumann_norm_estimate(kernel_series, u) == 1.0 / math.sqrt(lam[0])

    def test_matches_smallest_singular_value(self, kernel_series, config):
        mesh = np.linspace(0.0, 1.0, 61)
        rng = np.random.default_rng(3)
        for _ in range(4):
            coeffs = rng.standard_normal(3)
            vals = sum(c * np.sin((k + 1) * math.pi * mesh) for k, c in enumerate(coeffs))
            u = GridFunction(0.5 * math.sqrt(config.s) * vals / np.abs(vals).max())
            want = self.inverse_singular_value(kernel_series, u)
            assert neumann_norm_estimate(kernel_series, u) == pytest.approx(want, rel=1e-12)


    @pytest.mark.parametrize("m", [21, 61])
    def test_sweep_within_resolution(self, kernel_series, m):
        # Every finite estimate is within 1e-6 of the singular value
        # decomposition's; the sweep ends where the Gram can no longer
        # resolve lambda_min (cond 1.9e9 at 1e4 on M = 61), which reads inf.
        mesh = np.linspace(0.0, 1.0, m)
        finite = 0
        for scale in np.geomspace(0.3, 1e4, 40):
            u = GridFunction(scale * np.sin(math.pi * mesh))
            est = neumann_norm_estimate(kernel_series, u)
            if math.isfinite(est):
                finite += 1
                want = self.inverse_singular_value(kernel_series, u)
                assert est == pytest.approx(want, rel=1e-6), scale
        assert 20 <= finite < 40
        assert est == math.inf

    @pytest.mark.parametrize(
        "m, values",
        [
            (61, lambda mesh: 1e4 * np.sin(math.pi * mesh)),  # cond 1.9e9: was 1352.39
            (21, lambda mesh: np.full(mesh.size, 1e50)),  # cond 1e98: was 1.0
            (21, lambda mesh: np.full(mesh.size, 1e100)),  # the Gram overflows: was LinAlgError
        ],
        ids=["sine-1e4", "ones-1e50", "ones-1e100"],
    )
    def test_unresolved_gives_inf(self, kernel_series, m, values):
        u = GridFunction(values(np.linspace(0.0, 1.0, m)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert neumann_norm_estimate(kernel_series, u) == math.inf


class TestLipschitzSampling:
    def test_report_passes_on_certified_ball(self, kernel_series, gains, config):
        worst = lipschitz_check(kernel_series, config.s)
        threshold = math.sqrt(gain_ell(gains, config.s))
        assert worst <= threshold + 1e-6
        assert threshold == pytest.approx(math.sqrt(0.5), abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_per_pair_profiles(self, kernel_series, config, seed):
        # The profiles drawn and mapped one pair at a time give the same ratio.
        rng = np.random.default_rng(seed)
        mesh = np.linspace(0.0, 1.0, LIPSCHITZ_MESH_POINTS)
        worst = 0.0
        for _ in range(LIPSCHITZ_TRIALS):
            pair = []
            for _ in range(2):
                coeffs = rng.standard_normal(4)
                vals = sum(c * np.sin((k + 1) * math.pi * mesh) for k, c in enumerate(coeffs))
                g = GridFunction(vals + rng.standard_normal() * 0.3)
                target = math.sqrt(config.s) * rng.uniform(0.2, 0.999)
                pair.append(g.scale(target / g.l2_norm()))
            u, v = pair
            dk = series_profile(kernel_series, u) - series_profile(kernel_series, v)
            worst = max(worst, dk.l2_norm() / (u - v).l2_norm())
        assert lipschitz_check(kernel_series, config.s, seed) == worst


class TestEvaluatorsBuiltOnce:
    """A series builds its cascade once per mesh size, whichever evaluators
    read it, and keeps only the most recent size."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []

        class Counting(MeshCascade):
            def __init__(self, orders, mesh):
                calls.append(mesh.size)
                super().__init__(orders, mesh)

        monkeypatch.setattr(volterra, "MeshCascade", Counting)
        return calls

    @pytest.fixture()
    def series(self, kernel_series):
        # A series of its own: the session fixture's cascade would hide builds.
        return VolterraKernelSeries(dict(kernel_series))

    def test_picard_matches_per_iteration_profiles(self, series, config, mesh, builds):
        rng = np.random.default_rng(4)
        w = smooth_profile(rng, mesh, 0.6 * math.sqrt(config.rho_L))
        results = [invert_with_info(w, series, config) for _ in range(3)]
        # The reference: each iterate, and each step's norm, a GridFunction.
        u, residuals = w, []
        for _ in range(results[0].iterations):
            nxt = w + series_profile(series, u)
            residuals.append((nxt - u).l2_norm())
            u = nxt
        assert builds == [mesh.size]
        ratios = [b / a for a, b in zip(residuals, residuals[1:])]
        for res in results:
            assert np.array_equal(u.values, res.u.values)
            assert res.residuals == residuals
            assert res.contraction_ratios == ratios
        series_profile(series, GridFunction(w.values[::2]))
        assert builds == [mesh.size, (mesh.size + 1) // 2]

    def test_lipschitz_pairs_share_evaluators(self, series, gains, config, builds):
        worst = lipschitz_check(series, config.s)
        assert worst <= math.sqrt(gain_ell(gains, config.s)) + LIPSCHITZ_TOL
        assert lipschitz_check(series, config.s) == worst
        assert builds == [LIPSCHITZ_MESH_POINTS]

    @pytest.mark.parametrize("coef, iteration", [(10**307, 1), (10**196, 2)])
    def test_non_finite_iterate_raises_at_its_iteration(self, monkeypatch, coef, iteration):
        # 10**196: the first iterate is finite, though its step's square
        # overflows; the second is not.
        series = VolterraKernelSeries({2: SimplexPolyKernel(2, {(0, (0, 0)): coef})})
        w = GridFunction(50.0 * np.sin(math.pi * np.linspace(0.0, 1.0, 101)))
        cfg = InversionConfig(s=1e4, rho_L=1e4)
        with np.errstate(over="ignore", invalid="ignore"):
            monkeypatch.setattr(inversion, "PICARD_MAX_ITERS", iteration - 1)
            assert not invert_with_info(w, series, cfg).converged
            monkeypatch.setattr(inversion, "PICARD_MAX_ITERS", iteration)
            with pytest.raises(ValueError, match="grid function values must be finite"):
                invert_with_info(w, series, cfg)


class TestSharedCascade:
    def test_interleaved_evaluators_match_fresh_cascades(self, kernel_series, config, mesh):
        series = VolterraKernelSeries(dict(kernel_series))
        rng = np.random.default_rng(12)
        u = smooth_profile(rng, mesh, 0.5 * math.sqrt(config.s))
        w = smooth_profile(rng, mesh, 0.6 * math.sqrt(config.rho_L))
        coarse = GridFunction(u.values[::2])

        held = series_profile(series, u)
        first = held.values.copy()
        res = invert_with_info(w, series, config)
        dk = dk_matrix(series, u)
        worst = lipschitz_check(series, config.s)  # batched, on the same mesh size
        small = series_profile(series, coarse)  # another size: a new cascade
        again = invert_with_info(w, series, config)
        profile = series_profile(series, u)

        # Each reference on a cascade of its own, outside the series.
        assert np.array_equal(held.values, first)
        assert np.array_equal(held.values, MeshCascade(series, mesh).profile(u.values))
        assert np.array_equal(profile.values, held.values)
        assert np.array_equal(dk, MeshCascade(series, mesh).tangent_matrix(u.values))
        picard, v = MeshCascade(series, mesh), w.values
        for _ in range(res.iterations):
            v = w.values + picard.profile(v)
        assert np.array_equal(res.u.values, v)
        assert np.array_equal(again.u.values, v) and again.residuals == res.residuals
        assert lipschitz_check(VolterraKernelSeries(dict(kernel_series)), config.s) == worst
        assert np.array_equal(small.values, MeshCascade(series, coarse.mesh).profile(coarse.values))
