"""Property-based fuzzing of the two file formats the CLI reads.

Plant tables (``harness.parse_plant``) and experiment configs
(``harness.parse_config``) are generated line by line, mixing
well-formed entries with malformed ones, and fed through ``main``.  The
CLI contract: the exit code is 0, 1 or 2, and no exception escapes.

Numeric values are drawn from small ranges (mesh_points <= 41,
t_end <= 0.3, a few fixed CFL numbers) so that each example runs in
milliseconds.  The large but valid values drawn besides (mesh_points =
3e9 or 10**401, beyond the float range; t_end = 1e9 or 1e300; cfl =
1e-12 or 1e-320) are ones the run budget refuses before the first step
whatever the other lines say, so they stay as fast.
"""

import string

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from volback.harness import main

FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

junk = st.text(alphabet=string.ascii_letters + string.punctuation + " 0123456789", max_size=12)
rational = st.builds(
    lambda num, den: f"{num}/{den}", st.integers(-4, 4), st.integers(0, 4)
) | st.sampled_from(["0", "1", "-3/2", "0.25", "1e400", "1e200", "nan", "inf", "1/0", "x"])


@st.composite
def plant_entry(draw):
    n = draw(st.integers(1, 4))
    width = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
    p_vec = draw(st.lists(st.integers(-1, 2), min_size=max(width, 0), max_size=max(width, 0)))
    coeffs = draw(st.lists(rational, min_size=0, max_size=3))
    return " ".join([str(n), ",".join(map(str, p_vec))] + coeffs)


metadata_line = st.builds(
    lambda key, value: f"{key} = {value}",
    st.sampled_from(["D", "rho", "mu", "nu", "zeta"]),
    rational | junk,
)
plant_line = plant_entry() | metadata_line | junk | st.just("# comment")


@FUZZ
@given(lines=st.lists(plant_line, max_size=5))
@example(lines=["2 0,0 1e400"])  # coefficient beyond the float range
@example(lines=["D = 1e400", "2 0,0 1"])  # metadata beyond the float range
@example(lines=["2 0,0 1e200"])  # kernel coefficients beyond the float range
@example(lines=["D = 1", "rho = 1e200", "2 0,0 1", "3 0,0,0 1"])  # rho**2 past float range
def test_plant_files_keep_the_exit_contract(tmp_path, lines):
    path = tmp_path / "plant.txt"
    path.write_text("\n".join(lines) + "\n")
    code = main(["--output", str(tmp_path / "out"), "kernels", "--plant", str(path), "--order", "3"])
    assert code in (0, 1, 2)


CONFIG_VALUES = {
    "plant": st.sampled_from(["pdae", "zero", "none", "no-such-plant", ".", ""]),
    "controller": st.sampled_from(["open-loop", "order-2", "order-3", "full-N_max", "warp"]),
    "mesh_points": st.integers(-5, 41).map(str)
    | st.sampled_from(["3000000000", "10" + "0" * 400]),
    "snapshot_count": st.integers(-2, 8).map(str),
    "cfl": st.sampled_from(["1/2", "0.25", "1", "0", "-1", "2", "1e400", "1e-12", "1e-320"]),
    "t_end": st.sampled_from(["0.1", "1/4", "0.3", "0", "-1", "1e400", "1/0", "1e9", "1e300"]),
    "initial_scale": rational,
    "blow_up_threshold": rational | st.just("1e7"),
    "output_dir": st.sampled_from(["", "a", "run-1"]),
    "check_kernels": st.sampled_from(["true", "false", "1", "Off", "maybe"]),
    "check_mild_solution": st.sampled_from(["true", "false", "YES", "0", "2"]),
}
config_line = (
    st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
        lambda key: st.builds(lambda v: f"{key} = {v}", CONFIG_VALUES[key] | junk)
    )
    | st.builds(lambda k, v: f"{k} = {v}", junk, junk)
    | junk
)


@FUZZ
@given(lines=st.lists(config_line, max_size=6))
@example(lines=["cfl = 1e400"])  # value beyond the float range
@example(lines=["plant = ."])  # a directory, not a plant file
@example(lines=["zeta = 1"])  # unknown key
@example(lines=["initial_scale = 1e200"])  # state overflows inside a step
# Refused by the run budget before any mesh array is built.
@example(lines=["plant = pdae", "controller = order-2", "mesh_points = 10000000000"])
# Less than one step on a huge mesh: the budget charges the one step it runs.
@example(lines=["mesh_points = 3000000000", "t_end = 1e-300"])
# Far more frames than steps: every step is a frame.
@example(lines=["plant = pdae", "controller = order-2", "snapshot_count = 1000000000"])
def test_config_files_keep_the_exit_contract(tmp_path, lines):
    path = tmp_path / "exp.cfg"
    # Keep each run short: fuzzed lines may override these.
    path.write_text("mesh_points = 21\nt_end = 0.1\n" + "\n".join(lines) + "\n")
    code = main(["--output", str(tmp_path / "out"), "simulate", "--config", str(path)])
    assert code in (0, 1, 2)
