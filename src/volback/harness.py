"""Command-line front end: presets, plant files, and result persistence.

Subcommands
-----------
``run <preset>``
    Canned experiments: ``fig1a``/``fig1b``/``fig1c`` simulate the
    quadratic-integral plant under the open-loop, order-2, and order-3
    controllers; ``kernels`` builds both kernel constructions and
    cross-checks them; ``gains`` tabulates the gain functions and the
    balanced radius; ``invert-demo`` runs a contraction round trip;
    ``verify-all`` runs the property battery.
``simulate --config <file>``
    One simulation driven by a key-value config file.
``kernels --plant <file> --order N``
    Kernel construction for a user plant file.
``gains``
    Gain table for the builtin plant.
``invert --input <csv>``
    Invert a target profile read from CSV.

All artifacts land under the output root (``--output`` flag, else the
``VOLBACK_OUTPUT_ROOT`` environment variable, else ``./volback-out``).
Exit codes: 0 success, 1 verification failure, 2 usage or config error
(a kernel series refused when built, e.g. with coefficients past the
float range, included).
Metadata records carry the config echo, seeds, resolutions, and the
package version so a run can be reproduced bit-identically; nothing
time- or host-dependent is written.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from . import __version__
from .charkernels import (
    build_controller_kernels,
    pdae_closed_forms,
    pdae_plant,
)
from .gapcascade import (
    GapCoefficientFamily,
    assemble_kernels,
    cascade,
    family_plant_kernel,
    family_to_json,
    pdae_b_family,
    poly_sum,
    x_poly,
)
from .inversion import (
    GAIN_RULE,
    TARGET_ELL,
    InversionDomainError,
    InversionResult,
    builtin_design,
    invert_with_info,
)
from .polynomial import SimplexPolyKernel
from .simplex import random_simplex_points
from .simulator import (
    SimConfig,
    SimConfigError,
    _csv_row,
    controller_cap,
    mild_solution_residual,
    simulate,
    stability_constants,
    write_metadata_json,
    write_series_csv,
    write_snapshots_csv,
)
from .verification import COMPARE_POINTS, compare_constructions, run_all
from .volterra import (
    GridFunction,
    SeriesDefinitionError,
    VolterraKernelSeries,
    check_growth_assumption,
    gain_ell,
    gain_k,
    series_profile,
)

PRESETS = ("fig1a", "fig1b", "fig1c", "kernels", "gains", "invert-demo", "verify-all")
PRESET_CONTROLLER = {"fig1a": "open-loop", "fig1b": "order-2", "fig1c": "order-3"}
DEFAULT_SEED = 0
METADATA_KEYS = ("D", "rho")
BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,  # in any case
            "0": False, "false": False, "no": False, "off": False}


class ConfigError(ValueError):
    """A config or plant file failed validation."""


class PlantParseError(ConfigError):
    """A plant file entry is malformed; the message names the line."""


class PlantAssumptionError(ConfigError):
    """A plant file's kernels fail the growth assumption its D and rho state."""


@dataclass
class ParsedPlant:
    """A plant in both usable forms plus its growth metadata."""

    family: GapCoefficientFamily
    series: VolterraKernelSeries
    source: str

    @property
    def n_max(self) -> int:
        orders = self.family.orders()
        return max(orders) if orders else 1


@dataclass
class ExperimentSpec:
    """One experiment: plant, controller, protocol overrides, checks."""

    plant: str = "pdae"
    controller: str = "order-3"
    overrides: Dict = field(default_factory=dict)
    output_dir: str | None = None
    check_kernels: bool = False
    check_mild_solution: bool = False

    def sim_config(self) -> SimConfig:
        return SimConfig(controller=self.controller, **self.overrides)


def output_root(explicit: str | None = None) -> Path:
    root = explicit or os.environ.get("VOLBACK_OUTPUT_ROOT", "volback-out")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _check_output_dir(out_dir: Path) -> None:
    """Refuse an output directory under a file before computing; creates nothing."""
    existing = out_dir
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise ConfigError(f"output directory {out_dir} cannot be made: {existing} is a file")


def parse_plant(path: str | Path) -> ParsedPlant:
    """Read a plant coefficient table.

    Format: optional ``key = value`` metadata lines (D and rho),
    then one entry per line: the order n, the comma-separated gap
    multi-index P (n integers), and the coefficient polynomial in x as
    space-separated exact rationals, constant term first.  ``#`` starts
    a comment.  An empty table is the zero plant; its lowest order may
    lie above 2.  Orders below 2, a metadata key other than D and rho,
    a repeated key, and D without rho or rho without D are rejected with
    the offending line number.  A plant whose kernels fail the growth
    assumption that its D and rho state is refused here, so every
    command that reads the file refuses it before computing anything,
    whichever route would build its kernels.
    """
    path = Path(path)
    entries: Dict[tuple[int, tuple[int, ...]], SimplexPolyKernel] = {}
    metadata: Dict[str, float] = {}
    key_lines: Dict[str, int] = {}
    for lineno, raw in enumerate(_read_lines(path, "plant file"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in METADATA_KEYS:
                raise PlantParseError(
                    f"line {lineno}: unknown metadata key {key!r}; "
                    f"expected one of {', '.join(METADATA_KEYS)}"
                )
            _first_setting(key_lines, key, lineno, "metadata key", PlantParseError)
            try:
                metadata[key] = float(Fraction(value.strip()))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise PlantParseError(f"line {lineno}: bad metadata value: {exc}")
            continue
        tokens = line.split()
        if len(tokens) < 3:
            raise PlantParseError(
                f"line {lineno}: expected 'n P coeffs...', got {raw!r}"
            )
        try:
            n = int(tokens[0])
        except ValueError:
            raise PlantParseError(f"line {lineno}: order {tokens[0]!r} is not an integer")
        if n < 2:
            raise PlantParseError(
                f"line {lineno}: order {n} is below 2; the series starts at second order"
            )
        try:
            p_vec = tuple(int(v) for v in tokens[1].split(","))
        except ValueError:
            raise PlantParseError(f"line {lineno}: bad multi-index {tokens[1]!r}")
        if len(p_vec) != n or any(v < 0 for v in p_vec):
            raise PlantParseError(
                f"line {lineno}: multi-index {tokens[1]!r} must be {n} nonnegative integers"
            )
        try:
            coeffs = [Fraction(tok) for tok in tokens[2:]]
            for c in coeffs:
                float(c)  # the kernels are evaluated in floating point
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise PlantParseError(f"line {lineno}: bad coefficient: {exc}")
        den = math.lcm(*(c.denominator for c in coeffs))
        poly = x_poly([c.numerator * (den // c.denominator) for c in coeffs], den)
        if not poly.monomials:
            continue
        key = (n, p_vec)
        entries[key] = poly_sum(entries[key], poly) if key in entries else poly
    for given, needed in (("D", "rho"), ("rho", "D")):
        if given in key_lines and needed not in key_lines:
            raise PlantParseError(
                f"line {key_lines[given]}: {given} without {needed}; the growth "
                "assumption needs both"
            )
    family = GapCoefficientFamily(entries, "plant-b", metadata=metadata or None)
    try:
        series = _family_series(family, metadata)
    except SeriesDefinitionError as exc:
        raise ConfigError(f"plant file {path}: {exc}") from None
    if series.growth is not None:
        worst = check_growth_assumption(series)
        if not worst <= 1.0:
            raise PlantAssumptionError(
                f"plant file {path}: plant growth check failed with worst ratio {worst:.3g}"
            )
    return ParsedPlant(family, series, str(path))


def _first_setting(
    key_lines: Dict[str, int],
    key: str,
    lineno: int,
    what: str = "key",
    error: type[ConfigError] = ConfigError,
) -> None:
    """Record that line ``lineno`` sets ``key``; a second setting is refused,
    naming both lines."""
    if key in key_lines:
        raise error(f"line {lineno}: {what} {key!r} repeats line {key_lines[key]}")
    key_lines[key] = lineno


def _read_lines(path: Path, what: str) -> List[str]:
    if not path.exists():
        raise ConfigError(f"{what} {path} does not exist")
    try:
        return path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} {path} cannot be read: {exc}") from None


def _family_series(
    family: GapCoefficientFamily, metadata: Dict[str, float]
) -> VolterraKernelSeries:
    kernels = {n: family_plant_kernel(family, n) for n in family.orders()}
    growth = None
    if "D" in metadata and "rho" in metadata:
        growth = (metadata["D"], metadata["rho"])
    return VolterraKernelSeries(kernels, growth=growth)


def load_plant(descriptor: str) -> ParsedPlant:
    """Resolve a plant descriptor: builtin name or coefficient file."""
    if descriptor == "pdae":
        return ParsedPlant(pdae_b_family(), pdae_plant(), "builtin:pdae")
    if descriptor in ("zero", "none"):
        family = GapCoefficientFamily({}, "plant-b")
        return ParsedPlant(family, VolterraKernelSeries({}), "builtin:zero")
    if Path(descriptor).exists():
        return parse_plant(descriptor)
    raise ConfigError(
        f"unknown plant {descriptor!r}: not a builtin and not an existing file"
    )


def build_kernel_table(
    plant: ParsedPlant, n_max: int, route: str = "cascade"
) -> VolterraKernelSeries:
    """The controller kernel series of every order 2..n_max.

    ``cascade`` assembles exact polynomials from the coefficient-family
    recursion (available whenever the plant is a finite gap table);
    ``recursion`` integrates the characteristic representation instead.
    Both give exact polynomials, equal kernel for kernel.
    """
    _check_order_cap(n_max)
    if route == "recursion":
        return build_controller_kernels(plant.series, n_max)
    if route != "cascade":
        raise ConfigError(f"unknown kernel route {route!r}")
    return assemble_kernels(cascade(plant.family, n_max), n_max)


def _check_order_cap(n_max: int) -> None:
    if n_max < 2:
        raise ConfigError(f"kernel order cap must be at least 2, got {n_max}")


# The cross-check builds every order by the cascade and by the exact
# recursion.  In process on a 2-core x86-64 VM (one script, three runs
# each), for pdae the cascade plus assembly take about 0.02 s to order 5,
# 0.22-0.24 s to order 6 and 4.0-4.2 s to order 7; the recursion 0.005 s,
# 0.05 s and 0.43-0.47 s.  The cascade's cost grows with the plant's
# support, not with the order alone: for the three-entry plant
# 2 0,0 1/3; 2 1,0 2/7 1/5; 3 0,1,0 -5/6 1/9 the cascade plus assembly
# take 2.4-2.5 s to order 5 (the recursion 0.84-0.99 s), and the cascade
# alone took 330-407 s to order 6 when last timed.
CROSS_CHECK_MAX_ORDER = 6


def _check_cross_check_order(n_max: int) -> None:
    if n_max > CROSS_CHECK_MAX_ORDER:
        raise ConfigError(
            f"the kernel cross-check supports orders up to {CROSS_CHECK_MAX_ORDER}, "
            f"got order {n_max}: past the cap the cascade's cost depends on the "
            "plant's support and is not estimated yet"
        )


def run_experiment(spec: ExperimentSpec, out_dir: Path) -> Dict:
    """Simulate one spec, write artifacts, return the metadata dict."""
    _check_output_dir(out_dir)
    plant = load_plant(spec.plant)
    cfg = spec.sim_config()
    kernel_cap = controller_cap(spec.controller, max(plant.n_max, 3))
    if spec.check_kernels:
        _check_cross_check_order(kernel_cap or 3)
    kernels = VolterraKernelSeries({})
    if kernel_cap is not None:
        kernels = build_kernel_table(plant, kernel_cap, route="recursion")
    record = simulate(cfg, plant.series, kernels)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_series_csv(record, str(out_dir / "series.csv"))
    write_snapshots_csv(record, str(out_dir / "snapshots.csv"))
    extra = {
        "plant": plant.source,
        "controller": spec.controller,
        "seed": DEFAULT_SEED,
        "quadrature": {"gain_rule": GAIN_RULE.resolution},
    }
    checks: Dict[str, Dict] = {}
    failures = []
    if spec.check_mild_solution:
        if record.blow_up is None:
            res = mild_solution_residual(record, kernels, [0.25, 0.5, 0.75, 1.0])
            checks["mild_solution_residual"] = {"value": res}
        else:
            checks["mild_solution_residual"] = {"skipped": "blow-up record"}
    if spec.check_kernels:
        rec = kernels or build_kernel_table(plant, 3, route="recursion")
        gap = build_kernel_table(plant, max(rec))
        checks["kernel_cross_check"] = _kernel_cross_check(rec, gap)
        if not checks["kernel_cross_check"]["passed"]:
            failures.append("kernel_cross_check")
    if checks:
        extra["checks"] = checks
    if failures:
        extra["failed_checks"] = failures
    write_metadata_json(record, str(out_dir / "metadata.json"), extra)
    meta = json.loads((out_dir / "metadata.json").read_text())
    meta["_failures"] = failures
    return meta


def _kernel_cross_check(rec: VolterraKernelSeries, gap: VolterraKernelSeries) -> Dict:
    """The recursion's series ``rec`` against the cascade's series ``gap``
    (orders 2..n_max), compared by
    :func:`~volback.verification.compare_constructions`: passes when
    every order has the same kernel."""
    equal, worst = compare_constructions(rec, gap, DEFAULT_SEED)
    return {"max_abs_difference": worst, "points": COMPARE_POINTS, "passed": equal}


def _write_kernels(
    plant: ParsedPlant,
    n_max: int,
    out_dir: Path,
    closed_forms: VolterraKernelSeries | None = None,
) -> Dict:
    """Run the cascade once, cross-check the recursion (and any closed
    forms) against its kernels, and write a_family.json, samples.csv and
    consistency.json; returns the consistency report."""
    _check_order_cap(n_max)
    _check_cross_check_order(n_max)
    _check_output_dir(out_dir)
    a_family = cascade(plant.family, n_max)
    gap = assemble_kernels(a_family, n_max)
    report = _kernel_cross_check(build_kernel_table(plant, n_max, route="recursion"), gap)
    if closed_forms:
        equal, worst_closed = compare_constructions(closed_forms, gap, DEFAULT_SEED)
        report["max_abs_vs_closed_form"] = worst_closed
        report["passed"] = report["passed"] and equal
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "a_family.json").write_text(family_to_json(a_family))
    _write_kernel_samples(gap, out_dir / "samples.csv")
    doc = {"version": __version__, "seed": DEFAULT_SEED, "consistency": report}
    (out_dir / "consistency.json").write_text(json.dumps(doc, indent=2))
    return report


def preset_kernels(out_dir: Path) -> int:
    report = _write_kernels(load_plant("pdae"), 3, out_dir, pdae_closed_forms())
    print(f"kernel consistency: max diff {report['max_abs_difference']:.3e}")
    return 0 if report["passed"] else 1


def _write_kernel_samples(series: VolterraKernelSeries, path: Path) -> None:
    rng = np.random.default_rng(DEFAULT_SEED)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["order", "x", "xi", "value"])
        for n, kern in series.items():
            pts = random_simplex_points(rng, n, 50)
            vals = kern(1.0, pts)
            for row, v in zip(pts, vals):
                writer.writerow(
                    [n, "1", ";".join(f"{c:.12g}" for c in row), f"{v:.12g}"]
                )


def preset_gains(out_dir: Path) -> int:
    _, gains, icfg = builtin_design()
    out_dir.mkdir(parents=True, exist_ok=True)
    row = _csv_row("%.12g", 2)
    with open(out_dir / "gains.csv", "w", newline="") as fh:
        fh.write("s,k,ell\r\n")
        fh.writelines(
            row % (s, gain_k(gains, s), gain_ell(gains, s)) for s in np.linspace(0.0, 0.5, 51)
        )
    c1, c2 = stability_constants(icfg.s, TARGET_ELL, icfg.rho_L)
    doc = {
        "s": icfg.s,
        "rho_L": icfg.rho_L,
        "ell_at_s": gain_ell(gains, icfg.s),
        "C1": c1,
        "C2": c2,
        "norms_sq": dict(zip(map(str, gains.orders), gains.norms_sq)),
        "rho_estimate": gains.rho_estimate(),
        "version": __version__,
        "quadrature": {"gain_rule": GAIN_RULE.resolution},
    }
    (out_dir / "chosen.json").write_text(json.dumps(doc, indent=2))
    print(f"balanced radius s={icfg.s:.6f}, rho_L={icfg.rho_L:.6f}, C1={c1:.4f}, C2={c2:.2f}")
    return 0


def preset_invert_demo(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    mesh = np.linspace(0.0, 1.0, 201)
    w = GridFunction(0.05 * np.sin(math.pi * mesh))
    _write_profile_csv(out_dir / "input.csv", mesh, {"w": w.values})
    result, residual = _write_inversion(w, out_dir, diagnostics=True)
    print(f"inversion round trip residual {residual:.3e} in {result.iterations} iterations")
    return 0 if result.converged and residual < 1e-8 else 1


def _write_inversion(
    w: GridFunction, out_dir: Path, diagnostics: bool
) -> tuple[InversionResult, float]:
    """Invert ``w`` for the builtin plant's order-3 controller; write
    result.csv (u and w_back = u - K[u] on the mesh of ``w``) and
    metadata.json (iterations, convergence, the round-trip residual
    ||w_back - w|| and, with ``diagnostics``, the contraction bound, the
    largest observed ratio and the radii).  Returns the result and the
    residual."""
    series, gains, icfg = builtin_design()
    result = invert_with_info(w, series, icfg)
    back = result.u - series_profile(series, result.u)
    residual = (back - w).l2_norm()
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_profile_csv(
        out_dir / "result.csv", w.mesh, {"u": result.u.values, "w_back": back.values}
    )
    doc = {"iterations": result.iterations, "converged": result.converged, "residual": residual}
    if diagnostics:
        doc["contraction_bound"] = math.sqrt(gain_ell(gains, icfg.s))
        doc["observed_ratios_max"] = max(result.contraction_ratios, default=0.0)
        doc["s"] = icfg.s
        doc["rho_L"] = icfg.rho_L
    doc["version"] = __version__
    (out_dir / "metadata.json").write_text(json.dumps(doc, indent=2))
    return result, residual


def _write_profile_csv(path: Path, mesh: np.ndarray, columns: Dict[str, np.ndarray]) -> None:
    row = _csv_row("%.12g", len(columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["x", *columns]) + "\r\n")
        fh.writelines(row % values for values in zip(mesh, *columns.values()))


def preset_verify_all(out_dir: Path) -> int:
    results = run_all(seed=DEFAULT_SEED)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = out_dir / "report.txt"
    lines = [r.line() for r in results]
    report.write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    if all(r.passed for r in results):
        print(f"all {len(results)} checks passed")
        return 0
    print(f"verification failures; report at {report}", file=sys.stderr)
    return 1


def run_preset(name: str, out_root: Path | None = None) -> int:
    """Execute one preset; returns the process exit code."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")
    root = out_root if out_root is not None else output_root()
    out_dir = root / name
    if name in PRESET_CONTROLLER:
        spec = ExperimentSpec(plant="pdae", controller=PRESET_CONTROLLER[name])
        meta = run_experiment(spec, out_dir)
        blow = meta.get("blow_up")
        final = meta.get("final_l2")
        print(
            f"{name}: controller={spec.controller} blow_up={blow} "
            f"final_l2={final} max_abs={meta.get('max_abs'):.4g}"
        )
        return 1 if meta["_failures"] else 0
    if name == "kernels":
        return preset_kernels(out_dir)
    if name == "gains":
        return preset_gains(out_dir)
    if name == "invert-demo":
        return preset_invert_demo(out_dir)
    return preset_verify_all(out_dir)


def parse_config(path: str | Path) -> ExperimentSpec:
    """Read a key = value experiment config.

    An unknown key, a key set twice, a bad value and an empty ``plant``
    or ``output_dir`` are refused with the offending line number.
    """
    path = Path(path)
    spec = ExperimentSpec()
    overrides: Dict = {}
    key_lines: Dict[str, int] = {}
    text_keys = {"plant", "controller", "output_dir"}
    bool_keys = {"check_kernels", "check_mild_solution"}
    float_keys = {"cfl", "t_end", "blow_up_threshold", "initial_scale"}
    int_keys = {"mesh_points", "snapshot_count"}
    for lineno, raw in enumerate(_read_lines(path, "config file"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in text_keys | bool_keys | float_keys | int_keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        _first_setting(key_lines, key, lineno)
        try:
            if key in ("plant", "output_dir") and not value:
                raise ValueError("empty; give a value or leave the key out")
            if key in text_keys:
                setattr(spec, key, value)
            elif key in bool_keys:
                if value.lower() not in BOOLEANS:
                    raise ValueError(f"{value!r} is not one of {sorted(BOOLEANS)}")
                setattr(spec, key, BOOLEANS[value.lower()])
            elif key in float_keys:
                overrides[key] = float(Fraction(value))
            else:
                overrides[key] = int(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}")
    spec.overrides = overrides
    return spec


def cmd_simulate(args) -> int:
    spec = parse_config(args.config)
    root = output_root(args.output)
    out_dir = root / (spec.output_dir or "simulate")
    meta = run_experiment(spec, out_dir)
    print(
        f"simulate: controller={spec.controller} blow_up={meta.get('blow_up')} "
        f"final_l2={meta.get('final_l2')}"
    )
    return 1 if meta["_failures"] else 0


def cmd_kernels(args) -> int:
    plant = load_plant(args.plant)
    report = _write_kernels(plant, args.order, output_root(args.output) / "kernels")
    print(
        f"kernels up to order {args.order}: cross-check max diff "
        f"{report['max_abs_difference']:.3e}"
    )
    return 0 if report["passed"] else 1


def cmd_invert(args) -> int:
    rows = list(csv.reader(_read_lines(Path(args.input), "input")))
    if not rows or len(rows) < 3:
        raise ConfigError(f"input {args.input} has too few rows")
    header = rows[0]
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise ConfigError(f"input {args.input} repeats the column {repeated[0]!r}")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ConfigError(
                f"input {args.input}: line {line} has {len(row)} cells, the header {len(header)}"
            )
    if "w" not in header:
        raise ConfigError(f"input {args.input} has no 'w' column; found {header}")
    w = GridFunction(_csv_column(rows, header.index("w"), args.input))
    if "x" in header:
        x = _csv_column(rows, header.index("x"), args.input)
        if np.max(np.abs(x - w.mesh)) > 1e-9:
            raise ConfigError(
                f"input {args.input}: the x column is not the uniform mesh on [0, 1]"
            )
    result, residual = _write_inversion(w, output_root(args.output) / "invert", diagnostics=False)
    print(f"invert: residual {residual:.3e} in {result.iterations} iterations")
    return 0 if result.converged else 1


def _csv_column(rows: List[List[str]], col: int, path: str) -> np.ndarray:
    name = rows[0][col]
    try:
        vals = np.array([float(r[col]) for r in rows[1:]])
    except ValueError as exc:
        raise ConfigError(f"input {path}: bad {name} value: {exc}") from None
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"input {path}: bad {name} value: not finite")
    return vals


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volback",
        description="Boundary-feedback kernel construction and closed-loop simulation",
    )
    parser.add_argument(
        "--output", default=None, help="output root (else VOLBACK_OUTPUT_ROOT)"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a named preset")
    p_run.add_argument("preset", choices=PRESETS)
    p_sim = sub.add_parser("simulate", help="simulate from a config file")
    p_sim.add_argument("--config", required=True)
    p_ker = sub.add_parser(
        "kernels",
        help="build kernels for a plant file into <output root>/kernels, as 'run kernels' does",
        description="Build and cross-check kernels for a plant into <output root>/kernels. "
        "The 'run kernels' preset writes the same directory, so the second of the two run "
        "into one output root silently replaces the first; give each its own --output.",
    )
    p_ker.add_argument("--plant", required=True)
    p_ker.add_argument("--order", type=int, default=3)
    sub.add_parser("gains", help="gain table for the builtin plant")
    p_inv = sub.add_parser("invert", help="invert a target profile from CSV")
    p_inv.add_argument("--input", required=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_preset(args.preset, output_root(args.output))
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "kernels":
            return cmd_kernels(args)
        if args.command == "gains":
            return preset_gains(output_root(args.output) / "gains")
        if args.command == "invert":
            return cmd_invert(args)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, SimConfigError, InversionDomainError, SeriesDefinitionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. an output path that is a file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
