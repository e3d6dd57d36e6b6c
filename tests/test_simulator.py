"""Closed-loop transport simulation and the target-flow comparison."""

import csv
import json
import math

import numpy as np
import pytest

from conftest import kernel_fractions, reference_profile
from volback import simulator, volterra
from volback.charkernels import is_pdae_plant, pdae_plant
from volback.harness import build_kernel_table, load_plant
from volback.simulator import (
    CONTROLLERS,
    MAX_GRID_UPDATES,
    STEP_COST,
    MissingKernelError,
    NotApplicableError,
    SimConfig,
    SimConfigError,
    SimulationRecord,
    _advection,
    _controller_kernels,
    _frame_ids,
    _plant_nonlinearity,
    cubic_pulse,
    feedback,
    mild_solution_residual,
    simulate,
    stability_constants,
    target_semigroup,
    write_metadata_json,
    write_series_csv,
    write_snapshots_csv,
)
from volback.volterra import GridFunction, MeshCascade, SeriesDefinitionError, VolterraKernelSeries


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = SimConfig()
        assert cfg.mesh_points == 201
        assert cfg.controller in CONTROLLERS

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mesh_points": 2},
            {"cfl": 0.0},
            {"cfl": 1.5},
            {"t_end": 0.0},
            {"controller": "order-9"},
            {"blow_up_threshold": 0.0},
            {"snapshot_count": 1},
            {"t_end": math.nan},  # would reach math.ceil in simulate
            {"blow_up_threshold": math.nan},  # would date a blow-up only at overflow
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(SimConfigError):
            SimConfig(**kwargs)

    def test_initial_values_scaled(self):
        mesh = np.linspace(0.0, 1.0, 11)
        cfg = SimConfig(initial_scale=2.0)
        assert cfg.initial_values(mesh) == pytest.approx(2.0 * cubic_pulse(mesh))

    def test_grid_budget_admits_the_finest_protocol_mesh(self):
        # M = 1601 at t_end = 2 and CFL 0.5 takes 6400 steps; each grid
        # update costs 1 + the order-3 controller's trie nodes + the
        # plant's one.
        kernels = build_kernel_table(load_plant("pdae"), 3)
        nodes = sum(map(volterra.trie_nodes, kernels.values()))
        assert nodes == 16
        assert 9 * 6400 * (STEP_COST + 1601 * (1 + nodes + 1)) < MAX_GRID_UPDATES

    def test_trie_nodes_are_the_cascade_levels(self):
        # Each order alone has trie_nodes nodes; the controller's one
        # cascade shares suffixes between orders, so the per-order sum
        # that the budget charges bounds it.
        mesh = np.linspace(0.0, 1.0, 11)
        kernels = build_kernel_table(load_plant("pdae"), 4)
        for n, kern in kernels.items():
            levels = volterra.MeshCascade({n: kern}, mesh).levels
            assert volterra.trie_nodes(kern) == sum(len(p) for p, _ in levels)
        merged = volterra.MeshCascade(kernels, mesh).levels
        assert sum(len(pows) for pows, _ in merged) == 72
        assert sum(map(volterra.trie_nodes, kernels.values())) == 88

    def test_controller_cost_counts_in_the_budget(self, plant, monkeypatch):
        # The blow-up threshold stops the order-3 run after its first step.
        cfg = SimConfig(controller="full-N_max", mesh_points=1601, blow_up_threshold=1e-9)
        pdae = load_plant("pdae")
        rec = simulate(cfg, plant, build_kernel_table(pdae, 3))
        assert rec.blow_up is not None
        order5 = build_kernel_table(pdae, 5)

        def no_evaluators(*args):
            raise AssertionError("the refused run built its evaluators")

        monkeypatch.setattr(simulator, "MeshCascade", no_evaluators)
        with pytest.raises(
            SimConfigError, match=r"\(1 \+ 570 suffix-trie nodes\)\) = 5\.9e\+09 grid updates"
        ):
            simulate(cfg, plant, order5)

    @pytest.mark.parametrize("t_end", [1e6, 1e307])  # the second overflows to inf
    def test_run_over_grid_budget_refused(self, t_end):
        with pytest.raises(SimConfigError, match="MAX_GRID_UPDATES"):
            simulate(SimConfig(t_end=t_end, mesh_points=21), None)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mesh_points": 10**15, "t_end": 1e-300},  # below one step: one step is charged
            {"mesh_points": 10**400},  # beyond the float range
            {"mesh_points": 10**10, "cfl": 1e-320},  # the time step underflows to 0
        ],
    )
    def test_extreme_runs_refused_before_the_mesh(self, kwargs):
        with pytest.raises(SimConfigError, match="MAX_GRID_UPDATES"):
            simulate(SimConfig(**kwargs), None)

    def test_describe_round_trips_through_json(self):
        doc = json.dumps(SimConfig().describe())
        assert json.loads(doc)["controller"] == "open-loop"


class TestRecordValidation:
    def test_negative_norm_rejected(self):
        with pytest.raises(SimConfigError):
            SimulationRecord(
                times=np.array([0.0]),
                l2_norms=np.array([-1.0]),
                sup_norms=np.array([0.0]),
                controls=np.array([0.0]),
                snapshot_times=np.array([0.0]),
                snapshots=np.zeros((1, 3)),
                blow_up=None,
                final_l2=0.0,
                max_abs=0.0,
                config={},
            )


class TestPlantRhs:
    """u_x + v^2/2, v the running integral of u: what simulate steps for the builtin plant."""

    @staticmethod
    def rhs(values):
        quadratic = _plant_nonlinearity(pdae_plant(), values.size)
        return _advection(values, 1.0 / (values.size - 1)) + quadratic(values)

    @pytest.mark.parametrize("m", [21, 201, 401])
    def test_builtin_reads_its_cascade_as_the_closed_form(self, m):
        """Half the square of the first level of the plant's cascade is the
        closed form that ran before, its running integral rounded as
        dx * (u[i+1] + u[i]) * 0.5, bit for bit."""
        rng = np.random.default_rng(m)
        mesh = np.linspace(0.0, 1.0, m)
        dx = mesh[1] - mesh[0]
        quadratic = _plant_nonlinearity(pdae_plant(), m)
        for values in (cubic_pulse(mesh), *(s * rng.standard_normal(m) for s in (1e-5, 1.0, 1e5))):
            running = np.empty_like(values)
            running[0] = 0.0
            np.cumsum((values[1:] + values[:-1]) * dx * 0.5, out=running[1:])
            assert np.array_equal(quadratic(values), 0.5 * running**2)

    def test_constant_state(self):
        mesh = np.linspace(0.0, 1.0, 401)
        out = self.rhs(np.ones_like(mesh))
        # advection of a constant vanishes; forcing is (x)^2 / 2... no:
        # v(x) = int_0^x 1 = x, forcing = x^2/2
        assert out[:-1] == pytest.approx(0.5 * mesh[:-1] ** 2, abs=1e-10)

    def test_linear_state(self):
        mesh = np.linspace(0.0, 1.0, 801)
        out = self.rhs(mesh.copy())
        want = 1.0 + 0.125 * mesh**4
        assert out[1:-1] == pytest.approx(want[1:-1], abs=1e-6)


class TestFeedback:
    @staticmethod
    def boundary(kernels, cap, values):
        mesh = np.linspace(0.0, 1.0, values.size)
        return feedback(values, MeshCascade(_controller_kernels(kernels, cap), mesh))

    def test_order2_constant_state(self, kernel_series):
        val = self.boundary(kernel_series, 2, np.ones(201))
        assert val == pytest.approx(-1.0 / 6.0, abs=1e-4)

    def test_order3_constant_state(self, kernel_series):
        val = self.boundary(kernel_series, 3, np.ones(201))
        assert val == pytest.approx(-1.0 / 6.0 - 1.0 / 80.0, abs=2e-4)

    def test_missing_order_raises(self, kernel_series, plant):
        only3 = VolterraKernelSeries({3: kernel_series[3]})
        with pytest.raises(MissingKernelError):
            _controller_kernels(only3, 3)
        cfg = SimConfig(controller="order-3", t_end=0.1, mesh_points=51)
        with pytest.raises(MissingKernelError):
            simulate(cfg, plant, only3)

    @staticmethod
    def opaque(kernel_series, orders):
        """The kernels behind plain callables, so no monomials are visible."""
        return {n: (lambda x, pts, _k=kernel_series[n]: _k(x, pts)) for n in orders}

    def test_opaque_kernel_needs_rule(self, kernel_series):
        # The controller is a series, and a kernel that is not a polynomial
        # is refused when its series is built, naming the first such order.
        for orders, first in (((2, 3), 2), ((3,), 3)):
            table = {**kernel_series, **self.opaque(kernel_series, orders)}
            with pytest.raises(SeriesDefinitionError, match=f"order-{first}"):
                VolterraKernelSeries(table)
        with pytest.raises(SeriesDefinitionError, match="order-2"):
            VolterraKernelSeries({2: lambda p: 1.0})

    def test_file_plant_builds_each_cascade_once(self, tmp_path, monkeypatch):
        # One cascade for the plant's orders and one for the controller's.
        built = []

        class Counting(MeshCascade):
            def __init__(self, orders, mesh):
                built.append(sorted(orders))
                super().__init__(orders, mesh)

        # The plant's cascade is its series' own (volterra); the controller's
        # is built by the simulator.
        monkeypatch.setattr(volterra, "MeshCascade", Counting)
        monkeypatch.setattr(simulator, "MeshCascade", Counting)
        path = tmp_path / "plant.txt"
        path.write_text("2 0,1 1\n")
        plant = load_plant(str(path))
        kernels = build_kernel_table(plant, 3)
        cfg = SimConfig(controller="order-3", t_end=0.2, mesh_points=51)
        rec = simulate(cfg, plant.series, kernels)
        assert rec.blow_up is None
        assert sorted(built) == [[2], [2, 3]]


def reference_run(cfg, plant, kernels, cap):
    """The step loop with each order evaluated alone, one monomial at a
    time (``reference_profile``), the orders added in increasing order:
    (controls, L2 norms, snapshots)."""
    m = cfg.mesh_points
    mesh = np.linspace(0.0, 1.0, m)
    dx = 1.0 / (m - 1)
    dt = cfg.cfl * dx

    def term(kern, n, values):
        return reference_profile(kernel_fractions(kern), [values] * n, mesh)

    def rhs(values):
        out = np.empty_like(values)
        out[:-1] = (values[1:] - values[:-1]) / dx
        out[-1] = (values[-1] - values[-2]) / dx
        if is_pdae_plant(plant):
            return out + 0.5 * reference_profile({(0, (0,)): 1}, [values], mesh) ** 2
        forcing = np.zeros(m)
        for n, kern in plant.items():
            forcing += term(kern, n, values)
        return out + forcing

    def boundary(values):
        total = 0.0
        for n in range(2, cap + 1):
            total += float(term(kernels[n], n, values)[-1])
        return total

    n_steps = max(1, int(math.ceil(cfg.t_end / dt - 1e-12)))
    frames = set(int(i) for i in np.round(np.linspace(0, n_steps, cfg.snapshot_count)))
    u = cfg.initial_values(mesh).astype(float)
    u[-1] = boundary(u)
    controls, l2, snaps = [u[-1]], [np.sqrt(np.trapezoid(u**2, dx=dx))], [u.copy()]
    t = 0.0
    for k in range(1, n_steps + 1):
        step = min(dt, cfg.t_end - t)
        f1 = rhs(u)
        pred = u + step * f1
        pred[-1] = boundary(pred)
        f2 = rhs(pred)
        u = u + 0.5 * step * (f1 + f2)
        u[-1] = boundary(u)
        t += step
        controls.append(u[-1])
        l2.append(np.sqrt(np.trapezoid(u**2, dx=dx)))
        if k in frames:
            snaps.append(u.copy())
    return np.array(controls), np.array(l2), np.array(snaps)


class TestFrames:
    @pytest.mark.parametrize("n_steps", [1, 2, 7, 40, 160])
    def test_capped_point_count_keeps_the_frames(self, n_steps):
        for count in list(range(2, 3 * n_steps + 8)) + [10**4, 10**5]:
            full = set(int(i) for i in np.round(np.linspace(0, n_steps, count)))
            assert _frame_ids(n_steps, count) == full

    def test_huge_count_builds_no_huge_array(self):
        assert _frame_ids(40, 10**9) == set(range(41))


class TestAgainstReferenceLoop:
    """simulate's records agree with those of the step loop that evaluates
    every order alone to within 1e-12 of each record's largest magnitude.
    The cascade reads each order as one weighted sum over its nodes, and
    the boundary feedback folds its outermost integral
    (``MeshCascade.endpoint``) where the loop reads the profile's last
    value, so the two round differently."""

    @staticmethod
    def check(cfg, plant, kernels, cap):
        rec = simulate(cfg, plant, kernels)
        assert rec.blow_up is None
        controls, l2, snaps = reference_run(cfg, plant, kernels, cap)
        for got, want in ((rec.controls, controls), (rec.l2_norms, l2), (rec.snapshots, snaps)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_pdae_controllers(self, order):
        kernels = build_kernel_table(load_plant("pdae"), order)
        cfg = SimConfig(controller="full-N_max", mesh_points=41, t_end=0.3, snapshot_count=7)
        self.check(cfg, pdae_plant(), kernels, order)

    def test_feedback_builds_no_profile_rows(self, monkeypatch):
        # The builtin plant's nonlinearity is its closed form, so the one
        # cascade of the run is the controller's, read at x = 1 only.
        def refused(cascade):
            raise AssertionError("the closed loop built profile rows")

        monkeypatch.setattr(volterra.MeshCascade, "rows", property(refused))
        kernels = build_kernel_table(load_plant("pdae"), 4)
        cfg = SimConfig(controller="full-N_max", mesh_points=41, t_end=0.3)
        assert simulate(cfg, pdae_plant(), kernels).blow_up is None

    def test_file_plant(self, tmp_path):
        path = tmp_path / "plant.txt"
        path.write_text("2 0,1 1\n3 0,0,1 1/2\n")
        plant = load_plant(str(path))
        kernels = build_kernel_table(plant, 3)
        cfg = SimConfig(controller="order-3", mesh_points=33, t_end=0.4, snapshot_count=5)
        self.check(cfg, plant.series, kernels, 3)


class TestSimulate:
    def test_open_loop_blow_up_recorded(self, plant):
        cfg = SimConfig(controller="open-loop", t_end=2.0, mesh_points=101)
        rec = simulate(cfg, plant)
        assert rec.blow_up is not None
        assert 0.9 < rec.blow_up < 1.2
        # the diverged state itself is not stored; blow_up is one step past
        dt = cfg.cfl / (cfg.mesh_points - 1)
        assert 0.0 <= rec.blow_up - rec.times[-1] <= dt + 1e-12

    def test_initial_blow_up_takes_no_step(self, plant, kernel_series, monkeypatch):
        def no_step(values, dx):
            raise AssertionError("simulate stepped from a diverged initial state")

        monkeypatch.setattr(simulator, "_advection", no_step)
        for scale, nan in ((1e7, False), (1e200, True)):  # past the threshold; overflowing
            cfg = SimConfig(controller="order-3", mesh_points=51, initial_scale=scale)
            rec = simulate(cfg, plant, kernel_series)
            assert rec.blow_up == 0.0 and rec.final_l2 is None
            assert list(rec.times) == [0.0] and len(rec.snapshots) == 1
            assert math.isnan(rec.max_abs) == nan

    def test_controller_without_kernels_rejected(self, plant):
        cfg = SimConfig(controller="order-2", mesh_points=51)
        with pytest.raises(MissingKernelError):
            simulate(cfg, plant)

    def test_full_order_runs_to_completion(self, plant, kernel_series):
        cfg = SimConfig(controller="full-N_max", t_end=2.0, mesh_points=101)
        rec = simulate(cfg, plant, kernel_series)
        assert rec.blow_up is None
        assert rec.final_l2 < 0.5
        assert rec.times[-1] == pytest.approx(2.0, abs=1e-8)

    def test_pure_transport_clears_by_t1(self, kernel_series):
        cfg = SimConfig(controller="open-loop", t_end=1.5, mesh_points=201)
        rec = simulate(cfg, None)
        assert rec.blow_up is None
        _, frame = rec.snapshot_at(1.4)
        assert frame.l2_norm() < 5e-2

    def test_snapshot_frames_cover_run(self, plant, kernel_series):
        cfg = SimConfig(
            controller="order-3", t_end=2.0, mesh_points=101, snapshot_count=10
        )
        rec = simulate(cfg, plant, kernel_series)
        assert rec.snapshots.shape == (10, 101)
        assert rec.snapshot_times[0] == 0.0
        assert rec.snapshot_times[-1] == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("order", [3, 4])
    def test_kernel_routes_give_identical_closed_loops(self, plant, order):
        """The cascade and the recursion build equal kernels, and equal
        kernels reproduce the closed loop bit for bit."""
        pdae = load_plant("pdae")
        cfg = SimConfig(controller="full-N_max", t_end=1.0, mesh_points=101)
        by_route = [
            simulate(cfg, plant, build_kernel_table(pdae, order, route=route))
            for route in ("cascade", "recursion")
        ]
        assert np.array_equal(by_route[0].controls, by_route[1].controls)
        assert by_route[0].final_l2 == by_route[1].final_l2


class TestTargetFlow:
    def test_zero_time_is_identity(self):
        w = GridFunction(np.linspace(0.5, -0.25, 31))
        out = target_semigroup(w, 0.0)
        assert out.values == pytest.approx(w.values)

    def test_exact_zero_after_unit_time(self):
        mesh = np.linspace(0.0, 1.0, 41)
        w = GridFunction(np.sin(math.pi * mesh))
        for t in (1.0, 1.3, 7.0):
            assert np.all(target_semigroup(w, t).values == 0.0)

    def test_shift_semantics(self):
        mesh = np.linspace(0.0, 1.0, 101)
        w = GridFunction(mesh.copy())
        out = target_semigroup(w, 0.25)
        inside = mesh + 0.25 < 1.0
        assert out.values[inside] == pytest.approx(mesh[inside] + 0.25)
        assert np.all(out.values[~inside] == 0.0)

    def test_nonexpansive(self):
        mesh = np.linspace(0.0, 1.0, 101)
        w = GridFunction(np.cos(3 * mesh))
        for t in (0.1, 0.5, 0.9):
            assert target_semigroup(w, t).l2_norm() <= w.l2_norm() + 1e-12

    def test_negative_time_rejected(self):
        w = GridFunction(np.zeros(11))
        with pytest.raises(SimConfigError):
            target_semigroup(w, -0.1)


class TestStabilityConstants:
    def test_frozen_quadratic_only_values(self):
        s, rho_l, ell_s = 3.0 / 16.0, 21.0 / 256.0, 0.5
        c1, c2 = stability_constants(s, ell_s, rho_l)
        assert c1 == pytest.approx(math.sqrt(rho_l) / (1 + math.sqrt(0.5)), rel=1e-12)
        assert c1 == pytest.approx(0.1678, abs=5e-4)
        assert c2 == pytest.approx(math.e * (1 + math.sqrt(0.5)) / (1 - math.sqrt(0.5)))
        assert c2 == pytest.approx(15.84, abs=0.01)

    def test_ell_must_stay_below_one(self):
        with pytest.raises(SimConfigError):
            stability_constants(0.1, 1.0, 0.05)

    def test_overshoot_grows_with_ell(self):
        vals = [stability_constants(0.1, e, 0.05)[1] for e in (0.1, 0.5, 0.9)]
        assert vals == sorted(vals)


class TestMildResidual:
    def test_blow_up_record_rejected(self, plant, kernel_series):
        cfg = SimConfig(controller="open-loop", t_end=2.0, mesh_points=101)
        rec = simulate(cfg, plant)
        with pytest.raises(NotApplicableError):
            mild_solution_residual(rec, kernel_series, [0.5])

    def test_small_data_residual_small(self, plant, kernel_series):
        cfg = SimConfig(
            controller="order-3", t_end=1.0, mesh_points=201, initial_scale=0.1
        )
        rec = simulate(cfg, plant, kernel_series)
        res = mild_solution_residual(rec, kernel_series, [0.25, 0.5, 0.75])
        # dominated by the O(dx) upwind error; about 0.07 at this mesh
        assert res < 0.1

    def test_evaluators_built_once(self, plant, kernel_series, monkeypatch):
        # The residual reads the series' own cascade: two residuals and a
        # profile on one mesh build it once.  A series of its own, since the
        # session fixture's cascade would hide builds.
        series = VolterraKernelSeries(dict(kernel_series))
        cfg = SimConfig(
            controller="order-2", t_end=1.0, mesh_points=51, initial_scale=0.1
        )
        rec = simulate(cfg, plant, series)
        builds = []

        class Counting(MeshCascade):
            def __init__(self, orders, mesh):
                builds.append(mesh.size)
                super().__init__(orders, mesh)

        monkeypatch.setattr(volterra, "MeshCascade", Counting)
        res = mild_solution_residual(rec, series, [0.25, 0.5, 0.75])
        assert builds == [51]
        assert mild_solution_residual(rec, series, [0.25, 0.5, 0.75]) == res
        volterra.series_profile(series, GridFunction(rec.snapshots[-1]))
        assert builds == [51]

    def test_late_time_residual_is_state_norm(self, plant, kernel_series):
        cfg = SimConfig(
            controller="order-3", t_end=1.6, mesh_points=101, initial_scale=0.1
        )
        rec = simulate(cfg, plant, kernel_series)
        res = mild_solution_residual(rec, kernel_series, [1.5])
        t_snap, u = rec.snapshot_at(1.5)
        w = u - volterra.series_profile(kernel_series, u)
        assert res == pytest.approx(w.l2_norm(), rel=1e-12)


def oracle_series_csv(record, path):
    """The reference writers: one value at a time through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "l2_norm", "control", "sup_norm"])
        for row in zip(record.times, record.l2_norms, record.controls, record.sup_norms):
            writer.writerow([f"{v:.12g}" for v in row])


def oracle_snapshots_csv(record, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"{x:.12g}" for x in record.mesh])
        for t, row in zip(record.snapshot_times, record.snapshots):
            writer.writerow([f"{t:.12g}"] + [f"{v:.12g}" for v in row])


class TestWriters:
    @staticmethod
    def assert_writers_match_oracle(record, tmp_path):
        for write, oracle in (
            (write_series_csv, oracle_series_csv),
            (write_snapshots_csv, oracle_snapshots_csv),
        ):
            write(record, str(tmp_path / "new.csv"))
            oracle(record, str(tmp_path / "old.csv"))
            new, old = (tmp_path / "new.csv").read_bytes(), (tmp_path / "old.csv").read_bytes()
            assert new == old and old.count(b"\r\n") > 1

    def test_byte_identical_on_a_run(self, tmp_path, plant, kernel_series):
        cfg = SimConfig(controller="order-3", t_end=0.5, mesh_points=41, snapshot_count=7)
        self.assert_writers_match_oracle(simulate(cfg, plant, kernel_series), tmp_path)

    def test_byte_identical_on_edge_values(self, tmp_path):
        edge = [-0.0, 5e-324, 1e300, 0.1 + 0.2, 0.12345678901234567, -1.7976931348623157e308]
        values = np.array(edge)
        rec = SimulationRecord(
            times=np.linspace(0.0, 1.0, values.size),
            l2_norms=np.abs(values),
            sup_norms=np.abs(values[::-1]),
            controls=values,
            snapshot_times=np.array([0.0, 0.1 + 0.2]),
            snapshots=np.stack([values, values[::-1]]),
            blow_up=None,
            final_l2=None,
            max_abs=1e300,
            config={"t_end": 1.0},
        )
        self.assert_writers_match_oracle(rec, tmp_path)

    def test_byte_identical_on_an_overflowing_run(self, tmp_path, plant, kernel_series):
        cfg = SimConfig(controller="order-3", mesh_points=51, initial_scale=1e200)
        rec = simulate(cfg, plant, kernel_series)
        assert not np.all(np.isfinite(rec.snapshots)) and not np.all(np.isfinite(rec.controls))
        self.assert_writers_match_oracle(rec, tmp_path)

    def test_series_csv(self, tmp_path, plant, kernel_series):
        cfg = SimConfig(controller="order-2", t_end=0.2, mesh_points=51)
        rec = simulate(cfg, plant, kernel_series)
        path = tmp_path / "series.csv"
        write_series_csv(rec, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "l2_norm", "control", "sup_norm"]
        assert len(rows) == len(rec.times) + 1
        assert float(rows[1][0]) == 0.0

    def test_snapshot_csv_shape(self, tmp_path, plant, kernel_series):
        cfg = SimConfig(
            controller="order-2", t_end=0.2, mesh_points=51, snapshot_count=5
        )
        rec = simulate(cfg, plant, kernel_series)
        path = tmp_path / "frames.csv"
        write_snapshots_csv(rec, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 6
        assert len(rows[0]) == 52

    def test_metadata_json(self, tmp_path, plant, kernel_series):
        cfg = SimConfig(controller="order-2", t_end=0.2, mesh_points=51)
        rec = simulate(cfg, plant, kernel_series)
        path = tmp_path / "meta.json"
        write_metadata_json(rec, str(path), extra={"plant": "pdae"})
        doc = json.loads(path.read_text())
        assert doc["plant"] == "pdae"
        assert doc["blow_up"] is None
        assert "version" in doc
        assert "timestamp" not in doc

    def test_metadata_json_writes_non_finite_numbers_as_null(self, tmp_path):
        rec = SimulationRecord(
            times=np.array([0.0]),
            l2_norms=np.array([np.inf]),
            sup_norms=np.array([np.nan]),
            controls=np.array([np.nan]),
            snapshot_times=np.array([0.0]),
            snapshots=np.full((1, 3), np.nan),
            blow_up=0.0,
            final_l2=None,
            max_abs=math.nan,
            config={"t_end": 1.0},
        )
        path = tmp_path / "meta.json"
        write_metadata_json(rec, str(path), extra={"checks": {"value": [np.float64(-np.inf), 2.5]}})

        def reject(constant):
            raise AssertionError(f"wrote {constant}, which is not JSON")

        doc = json.loads(path.read_text(), parse_constant=reject)
        assert doc["max_abs"] is None and doc["blow_up"] == 0.0
        assert doc["checks"] == {"value": [None, 2.5]}
