"""CLI harness: plant files, experiment configs, presets, exit codes."""

import json

import numpy as np
import pytest

from volback import harness
from volback.gapcascade import pdae_b_family
from volback.harness import (
    ExperimentSpec,
    CROSS_CHECK_MAX_ORDER,
    ConfigError,
    PlantParseError,
    build_kernel_table,
    load_plant,
    main,
    parse_config,
    parse_plant,
    run_experiment,
    run_preset,
)


@pytest.fixture()
def out_root(tmp_path, monkeypatch):
    root = tmp_path / "out"
    monkeypatch.setenv("VOLBACK_OUTPUT_ROOT", str(root))
    return root


class TestParsePlant:
    def test_quadratic_example_file(self, tmp_path):
        f = tmp_path / "plant.txt"
        f.write_text(
            "# quadratic integral example\n"
            "D = 1\n"
            "rho = 1\n"
            "2 0,0 1\n"
        )
        plant = parse_plant(f)
        assert plant.family.entries == pdae_b_family().entries
        assert plant.series.growth == (1.0, 1.0)
        assert plant.n_max == 2

    def test_empty_is_zero_plant(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("# nothing here\n\n")
        plant = parse_plant(f)
        assert plant.family.entries == {}

    def test_low_order_names_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("2 0,0 1\n1 0 1\n")
        with pytest.raises(PlantParseError, match="line 2"):
            parse_plant(f)

    def test_bad_rational_names_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("2 0,0 one\n")
        with pytest.raises(PlantParseError, match="line 1"):
            parse_plant(f)

    def test_multi_index_arity_checked(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3 0,0 1\n")
        with pytest.raises(PlantParseError, match="line 1"):
            parse_plant(f)

    def test_duplicate_entries_summed(self, tmp_path):
        f = tmp_path / "dup.txt"
        f.write_text("2 0,0 1\n2 0,0 1/2\n")
        plant = parse_plant(f)
        poly = plant.family.get(2, (0, 0))
        assert poly(0.3) == pytest.approx(1.5)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_plant(tmp_path / "nope.txt")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("D = 0.1\nRho = 1\n2 0,0 10\n", r"line 2: unknown metadata key 'Rho'"),
            ("D = 1\nrho = 1\nD = 2\n2 0,0 1\n", r"line 3: metadata key 'D' repeats line 1"),
            ("D = 0.1\n2 0,0 10\n", r"line 1: D without rho"),
            ("rho = 1\n2 0,0 1\n", r"line 1: rho without D"),
        ],
        ids=["misspelt", "repeated", "D-alone", "rho-alone"],
    )
    def test_metadata_that_would_skip_the_growth_check(self, tmp_path, text, message):
        # Read as given, each file would skip its growth check; spelt
        # `rho`, the first fails it (worst ratio 50).
        f = tmp_path / "plant.txt"
        f.write_text(text)
        with pytest.raises(PlantParseError, match=message):
            parse_plant(f)

    @pytest.mark.parametrize("key", ["mu", "nu"])
    def test_unread_metadata_key_exits_2_naming_line(self, out_root, tmp_path, capsys, key):
        # No command reads mu or nu from a plant file, so neither is accepted.
        f = tmp_path / "plant.txt"
        f.write_text(f"D = 1\nrho = 1\n{key} = 1\n2 0,0 1\n")
        assert main(["kernels", "--plant", str(f)]) == 2
        assert f"line 3: unknown metadata key '{key}'" in capsys.readouterr().err


class TestLoadPlant:
    def test_builtin_pdae(self):
        plant = load_plant("pdae")
        assert plant.source == "builtin:pdae"
        assert plant.n_max == 2

    def test_builtin_zero(self):
        plant = load_plant("zero")
        assert plant.family.entries == {}

    def test_unknown_descriptor(self):
        with pytest.raises(ConfigError):
            load_plant("not-a-plant")


class TestKernelRoutes:
    def test_routes_agree_on_builtin(self):
        plant = load_plant("pdae")
        by_cascade = build_kernel_table(plant, 3, route="cascade")
        by_recursion = build_kernel_table(plant, 3, route="recursion")
        for n in (2, 3):
            # Same monomials, numerators, den and order: the float values agree bit for bit.
            got = list(by_cascade[n].monomials.items())
            assert got == list(by_recursion[n].monomials.items())
            assert by_cascade[n].den == by_recursion[n].den

    def test_routes_give_equal_tables_to_the_cross_check_order(self):
        plant = load_plant("pdae")
        by_cascade = build_kernel_table(plant, CROSS_CHECK_MAX_ORDER, route="cascade")
        by_recursion = build_kernel_table(plant, CROSS_CHECK_MAX_ORDER, route="recursion")
        assert list(by_cascade) == list(range(2, CROSS_CHECK_MAX_ORDER + 1))
        assert by_cascade == by_recursion

    def test_unknown_route(self):
        with pytest.raises(ConfigError):
            build_kernel_table(load_plant("pdae"), 3, route="magic")

    def test_low_cap_rejected(self):
        with pytest.raises(ConfigError):
            build_kernel_table(load_plant("pdae"), 1)


class TestParseConfig:
    def test_full_config(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text(
            "plant = pdae\n"
            "controller = order-3\n"
            "mesh_points = 101\n"
            "t_end = 1/2\n"
            "check_mild_solution = true\n"
        )
        spec = parse_config(f)
        assert spec.controller == "order-3"
        assert spec.overrides == {"mesh_points": 101, "t_end": 0.5}
        assert spec.check_mild_solution

    def test_unknown_key_names_line(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("plant = pdae\nwibble = 3\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(f)

    def test_bad_number_reported(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("mesh_points = many\n")
        with pytest.raises(ConfigError, match="mesh_points"):
            parse_config(f)

    @pytest.mark.parametrize(
        "value, expected",
        [("1", True), ("True", True), ("YES", True), ("on", True),
         ("0", False), ("false", False), ("No", False), ("OFF", False)],
    )
    def test_boolean_spellings(self, tmp_path, value, expected):
        f = tmp_path / "run.cfg"
        f.write_text(f"check_kernels = {value}\ncheck_mild_solution = {value}\n")
        spec = parse_config(f)
        assert spec.check_kernels is expected and spec.check_mild_solution is expected

    @pytest.mark.parametrize("value", ["maybe", "", "2", "y"])
    def test_other_boolean_values_name_the_line(self, tmp_path, value):
        f = tmp_path / "run.cfg"
        f.write_text(f"plant = pdae\ncheck_kernels = {value}\n")
        with pytest.raises(ConfigError, match="line 2: bad value for check_kernels"):
            parse_config(f)


class TestPresets:
    def test_unknown_preset_rejected(self, out_root):
        with pytest.raises(ConfigError):
            run_preset("fig9z")

    def test_kernels_preset(self, out_root):
        assert run_preset("kernels") == 0
        doc = json.loads((out_root / "kernels" / "consistency.json").read_text())
        assert doc["consistency"]["passed"]
        assert doc["consistency"]["max_abs_vs_closed_form"] < 1e-10

    def test_gains_preset(self, out_root):
        assert run_preset("gains") == 0
        doc = json.loads((out_root / "gains" / "chosen.json").read_text())
        assert doc["s"] == pytest.approx(0.186091, abs=1e-5)
        assert doc["rho_L"] == pytest.approx(0.081476, abs=1e-5)
        assert doc["ell_at_s"] == pytest.approx(0.5, abs=1e-9)

    def test_invert_demo_preset(self, out_root):
        assert run_preset("invert-demo") == 0
        doc = json.loads((out_root / "invert-demo" / "metadata.json").read_text())
        assert doc["residual"] < 1e-8


class TestMain:
    def test_run_fig1a(self, out_root, capsys):
        assert main(["run", "fig1a"]) == 0
        meta = json.loads((out_root / "fig1a" / "metadata.json").read_text())
        assert meta["controller"] == "open-loop"
        assert 1.01 <= meta["blow_up"] <= 1.11
        assert "timestamp" not in meta

    def test_simulate_subcommand(self, out_root, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "plant = pdae\ncontroller = order-2\nmesh_points = 101\nt_end = 1/4\n"
            "output_dir = quick\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (out_root / "quick" / "series.csv").exists()

    def test_bad_config_exits_2(self, out_root, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("controller = warp-drive\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unbounded_run_exits_2_before_stepping(self, out_root, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "plant = pdae\ncontroller = order-2\nmesh_points = 21\ncfl = 1/1000000000\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "4.0e+10 steps" in err and "MAX_GRID_UPDATES" in err

    def test_missing_plant_exits_2(self, out_root, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("plant = /no/such/file\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_kernels_subcommand_with_file(self, out_root, tmp_path):
        plant = tmp_path / "plant.txt"
        plant.write_text("2 0,0 1\n")
        assert main(["kernels", "--plant", str(plant), "--order", "3"]) == 0

    def test_cubic_plant_cross_check_passes(self, out_root, tmp_path):
        # No order needs f_2: a missing order is zero in both constructions.
        plant = tmp_path / "plant.txt"
        plant.write_text("D = 1\nrho = 1\n3 0,0,0 1\n")
        assert main(["kernels", "--plant", str(plant), "--order", "5"]) == 0
        doc = json.loads((out_root / "kernels" / "consistency.json").read_text())
        assert doc["consistency"]["passed"]
        assert doc["consistency"]["max_abs_difference"] == 0.0
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"plant = {plant}\ncontroller = full-N_max\nmesh_points = 51\n"
            "initial_scale = 0.3\ncheck_kernels = yes\ncheck_mild_solution = yes\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        meta = json.loads((out_root / "simulate" / "metadata.json").read_text())
        assert meta["blow_up"] is None
        assert meta["checks"]["kernel_cross_check"]["passed"]

    def test_open_loop_mild_solution_check_is_recorded(self, out_root, tmp_path):
        # With no controller K = 0, so w = u is compared with the target flow.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "controller = open-loop\nmesh_points = 21\nt_end = 0.5\ncheck_mild_solution = yes\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        meta = json.loads((out_root / "simulate" / "metadata.json").read_text())
        assert meta["checks"]["mild_solution_residual"]["value"] == pytest.approx(9.785, abs=1e-3)

    @pytest.mark.parametrize("controller", ["open-loop", "order-3"])
    def test_blow_up_skips_the_mild_solution_check(self, out_root, tmp_path, controller):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"controller = {controller}\nmesh_points = 21\nblow_up_threshold = 1e-9\n"
            "check_mild_solution = yes\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        meta = json.loads((out_root / "simulate" / "metadata.json").read_text())
        assert meta["blow_up"] == 0.0
        assert meta["checks"] == {"mild_solution_residual": {"skipped": "blow-up record"}}

    @pytest.mark.parametrize("command", ["kernels", "simulate"])
    def test_kernels_past_the_float_range_exit_2(self, out_root, tmp_path, capsys, command):
        # The plant's coefficient is a float; k_3's squares it past the range.
        plant = tmp_path / "plant.txt"
        plant.write_text("2 0,0 1e200\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"plant = {plant}\ncontroller = order-3\nmesh_points = 21\n")
        args = {"kernels": ["--plant", str(plant)], "simulate": ["--config", str(cfg)]}
        assert main([command, *args[command]]) == 2
        err = capsys.readouterr().err
        assert "order-3 kernel has coefficients beyond the floating-point range" in err
        assert not out_root.exists() or not any(out_root.iterdir())

    def test_kernels_order_4_cross_check_passes(self, out_root):
        assert main(["kernels", "--plant", "pdae", "--order", "4"]) == 0
        doc = json.loads((out_root / "kernels" / "consistency.json").read_text())
        assert doc["consistency"]["passed"]

    def test_kernels_order_below_2_exits_2(self, out_root, capsys):
        assert main(["kernels", "--plant", "pdae", "--order", "1"]) == 2
        assert "order cap must be at least 2, got 1" in capsys.readouterr().err

    def test_plant_failing_growth_check_exits_2(self, out_root, tmp_path, capsys):
        plant = tmp_path / "plant.txt"
        plant.write_text("D = 0.001\nrho = 1\n2 0,0 5\n")
        assert main(["kernels", "--plant", str(plant)]) == 2
        assert "plant growth check failed" in capsys.readouterr().err
        assert not (out_root / "kernels").exists()

    @pytest.mark.parametrize(
        "lines",
        ["controller = order-3", "controller = open-loop\ncheck_kernels = yes"],
        ids=["order-3", "open-loop-checked"],
    )
    def test_simulate_refuses_failing_growth_before_writing(
        self, out_root, tmp_path, capsys, lines
    ):
        # Either route builds kernels from this plant: the controller's by
        # the cascade, the cross-check's by the recursion as well.
        plant = tmp_path / "plant.txt"
        plant.write_text("D = 0.1\nrho = 1\n2 0,0 10\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"plant = {plant}\nmesh_points = 21\nt_end = 0.1\n{lines}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "plant growth check failed" in capsys.readouterr().err
        assert not any(out_root.rglob("*"))  # the root is made, nothing in it

    @pytest.mark.parametrize("cell", ["abc", "nan"])
    def test_invert_non_numeric_w_exits_2(self, out_root, tmp_path, capsys, cell):
        target = tmp_path / "target.csv"
        target.write_text(f"x,w\n0,0\n0.5,{cell}\n1,0\n")
        assert main(["invert", "--input", str(target)]) == 2
        assert "bad w value" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["check_gains", "check_inversion"])
    def test_dropped_check_keys_exit_2(self, out_root, tmp_path, capsys, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"plant = pdae\ncontroller = order-2\nmesh_points = 51\n{key} = true\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_invert_with_mesh_column(self, out_root, tmp_path):
        target = tmp_path / "target.csv"
        rows = [f"{x:.12g},{0.05 * np.sin(np.pi * x):.12g}" for x in np.linspace(0, 1, 21)]
        target.write_text("x,w\n" + "\n".join(rows) + "\n")
        assert main(["invert", "--input", str(target)]) == 0
        assert (out_root / "invert" / "result.csv").exists()

    def test_invert_without_w_column_exits_2(self, out_root, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_text("x,v\n0,0\n0.5,0.01\n1,0\n")
        assert main(["invert", "--input", str(target)]) == 2
        assert "no 'w' column; found ['x', 'v']" in capsys.readouterr().err

    def test_invert_nonuniform_x_exits_2(self, out_root, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_text("x,w\n0,0\n0.4,0.01\n1,0\n")
        assert main(["invert", "--input", str(target)]) == 2
        assert "not the uniform mesh" in capsys.readouterr().err

    def test_invert_outside_certified_ball_exits_2(self, out_root, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_text("x,w\n0,0\n0.5,5\n1,0\n")
        assert main(["invert", "--input", str(target)]) == 2
        assert "is not below rho_L" in capsys.readouterr().err

    def test_invert_overflowing_target_prints_one_error_line(self, out_root, tmp_path, capsys):
        # The target's squared norm overflows: refused as outside the ball,
        # with no numpy warning before the error line.
        target = tmp_path / "target.csv"
        target.write_text("w\n1e200\n1e200\n")
        assert main(["invert", "--input", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_explicit_output_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VOLBACK_OUTPUT_ROOT", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        assert main(["--output", str(chosen), "run", "gains"]) == 0
        assert (chosen / "gains" / "gains.csv").exists()
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize(
        "case",
        [
            "input-dir",
            "input-not-utf8",
            "output-file",
            "output-under-file",
            "config-output-file",
            "config-output-under-file",
            "kernels-output-file",
        ],
    )
    def test_unusable_path_exits_2(self, out_root, tmp_path, capsys, monkeypatch, case):
        """An input that cannot be read as text, or an output directory that
        cannot be made, is a usage error: exit 2, one error line, no traceback,
        and found before any simulation or cascade runs."""
        calls = []
        monkeypatch.setattr(harness, "simulate", lambda *a: calls.append("simulate"))
        monkeypatch.setattr(harness, "cascade", lambda *a: calls.append("cascade"))
        out_root.mkdir()
        taken = out_root / "taken"
        taken.write_text("")
        (out_root / "kernels").write_text("")
        binary = tmp_path / "target.csv"
        binary.write_bytes(b"x,w\n0,0\n0.5,\xff\n1,0\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("controller = order-2\nmesh_points = 21\noutput_dir = taken\n")
        under = tmp_path / "under.cfg"
        under.write_text("controller = order-3\noutput_dir = taken/run\n")
        argv = {
            "input-dir": ["invert", "--input", str(tmp_path)],
            "input-not-utf8": ["invert", "--input", str(binary)],
            "output-file": ["--output", str(taken), "run", "gains"],
            "output-under-file": ["--output", str(taken / "sub"), "run", "gains"],
            "config-output-file": ["simulate", "--config", str(cfg)],
            "config-output-under-file": ["simulate", "--config", str(under)],
            "kernels-output-file": ["kernels", "--plant", "pdae", "--order", "6"],
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert calls == []


    def test_overflowing_run_is_a_quiet_blow_up(self, out_root, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "plant = pdae\ncontroller = order-3\nmesh_points = 51\ninitial_scale = 1e200\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        meta = json.loads((out_root / "simulate" / "metadata.json").read_text())
        assert meta["blow_up"] is not None

    def test_initial_overflow_is_a_blow_up_at_zero_in_strict_json(self, out_root, tmp_path):
        # The initial boundary value overflows to NaN: the run is dated
        # 0.0, and metadata.json holds null where the number is not finite.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "plant = pdae\ncontroller = order-3\nmesh_points = 51\ninitial_scale = 1e200\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 0

        def reject(constant):
            raise AssertionError(f"metadata.json holds {constant}, which is not JSON")

        text = (out_root / "simulate" / "metadata.json").read_text()
        meta = json.loads(text, parse_constant=reject)
        assert meta["blow_up"] == 0.0
        assert meta["max_abs"] is None and meta["final_l2"] is None


class TestCascadeOncePerCommand:
    """A kernels command runs the coefficient cascade once and cross-checks
    the recursion against the table built from it.  A simulation builds
    its controller by the recursion and runs the cascade only for its
    kernel check."""

    @pytest.fixture()
    def cascades(self, monkeypatch):
        calls = []

        def counting(family, n_max):
            calls.append(n_max)
            return cascade(family, n_max)

        cascade = harness.cascade
        monkeypatch.setattr(harness, "cascade", counting)
        return calls

    def test_kernels_subcommand(self, out_root, cascades):
        assert main(["kernels", "--plant", "pdae", "--order", "3"]) == 0
        assert cascades == [3]

    def test_kernels_preset(self, out_root, cascades):
        assert run_preset("kernels") == 0
        assert cascades == [3]

    def test_kernels_above_cross_check_order_exit_2(self, out_root, cascades, capsys):
        assert main(["kernels", "--plant", "pdae", "--order", "7"]) == 2
        assert "supports orders up to 6" in capsys.readouterr().err
        assert not (out_root / "kernels").exists()
        assert cascades == []

    def test_experiment_kernel_check_above_limit_exits_2(
        self, out_root, tmp_path, cascades, capsys
    ):
        plant = tmp_path / "plant.txt"
        plant.write_text("2 0,0 1\n7 0,0,0,0,0,0,0 1/2\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"plant = {plant}\ncontroller = full-N_max\nmesh_points = 21\n"
            "check_kernels = true\noutput_dir = high\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "at order 7; it supports orders up to 6" in capsys.readouterr().err
        assert not (out_root / "high").exists()
        assert cascades == []

    def test_experiment_without_kernel_check_runs_no_cascade(self, tmp_path, cascades):
        spec = ExperimentSpec(
            controller="full-N_max", overrides={"mesh_points": 21, "t_end": 0.1}
        )
        meta = run_experiment(spec, tmp_path / "run")
        assert meta["blow_up"] is None and "checks" not in meta
        assert cascades == []

    def test_experiment_kernel_check(self, tmp_path, cascades):
        spec = ExperimentSpec(
            controller="order-2",
            overrides={"mesh_points": 51, "t_end": 0.1},
            check_kernels=True,
        )
        meta = run_experiment(spec, tmp_path / "run")
        assert meta["checks"]["kernel_cross_check"]["passed"]
        assert "recursion_panels" not in meta["quadrature"]
        assert cascades == [2]


class TestDeterminism:
    def test_fig1b_reruns_identically(self, out_root):
        assert main(["run", "fig1b"]) == 0
        first = (out_root / "fig1b" / "series.csv").read_bytes()
        assert main(["run", "fig1b"]) == 0
        assert (out_root / "fig1b" / "series.csv").read_bytes() == first
