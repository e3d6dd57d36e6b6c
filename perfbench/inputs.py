"""Seeded input generators for the three workloads.

Everything the program under test receives is written here as a file in
one of its own input formats: key = value experiment configs (read by
``harness.parse_config``), plant coefficient tables (read by
``harness.parse_plant``) and CSV profiles.  The same seed always gives
byte-identical files.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

# Certified radii of the builtin quadratic plant with its order-3
# kernels, as printed by `volback run gains` (s = 0.18609, rho_L =
# 0.081476).  Targets and states are drawn strictly inside these balls;
# the worker rejects anything outside, so a drift in the program's radii
# shows up as failed ops, not as silently different inputs.
BUILTIN_RHO_L = 0.0814
BUILTIN_S = 0.186

# The kernel-synthesis plant support.  Assembly and recursion cost
# depend on the support: over the 18 two-entry supports with |P| <= 1,
# the a-family has 195-278 entries and the order-4 kernel 371-592
# monomials.  Drawing the support from the seed moved the per-run
# assembly median by more than its bound, so the seed picks
# coefficients only.
PLANT_SUPPORT = {2: ((0, 0), (0, 1)), 3: ((1, 0, 0), (0, 0, 1))}


def closed_loop_configs(rng: np.random.Generator, out: Path, sizes: dict) -> list[dict]:
    """The fig1c paper protocol plus the seeded stable variants.

    Only ``initial_scale`` is drawn from the seed (in [0.5, 1]); the
    controllers are the stable ones, so every op runs its full horizon
    and its step count does not depend on the seed.
    """
    specs = [("fig1c", "order-3", 201, 1.0, 3)]
    for i, (controller, mesh, n_max) in enumerate(sizes["variants"]):
        scale = float(rng.uniform(0.5, 1.0))
        specs.append((f"variant{i + 1}", controller, mesh, scale, n_max))
    jobs = []
    for name, controller, mesh, scale, n_max in specs:
        path = out / f"{name}.cfg"
        path.write_text(
            "plant = pdae\n"
            f"controller = {controller}\n"
            f"mesh_points = {mesh}\n"
            f"initial_scale = {scale!r}\n"
            f"output_dir = {name}\n"
        )
        jobs.append({"config": str(path), "n_max": n_max, "mesh": mesh,
                     "protocol": name == "fig1c"})
    return jobs


def _rational(rng: np.random.Generator) -> Fraction:
    num = int(rng.integers(1, 5)) * (1 if rng.random() < 0.5 else -1)
    return Fraction(num, int(rng.integers(1, 5)))


def plant_table(rng: np.random.Generator) -> str:
    """One plant of the fixed kernel-synthesis shape.

    Orders 2 and 3 on the fixed ``PLANT_SUPPORT`` (two entries per order,
    |P| <= 1).  Order-2 coefficients are nonzero constants and order-3
    coefficients have degree exactly 1.  The seed picks the rational
    coefficients only, never degrees: one degree-1 order-2 coefficient
    makes the order-4 cascade over twenty times slower.
    """
    lines = [f"2 {','.join(map(str, p))} {_rational(rng)}" for p in PLANT_SUPPORT[2]]
    lines += [f"3 {','.join(map(str, p))} {_rational(rng)} {_rational(rng)}"
              for p in PLANT_SUPPORT[3]]
    return "\n".join(lines) + "\n"


def plant_files(rng: np.random.Generator, out: Path, count: int) -> list[str]:
    paths = []
    for i in range(count):
        path = out / f"plant{i}.txt"
        path.write_text(plant_table(rng))
        paths.append(str(path))
    return paths


def _smooth_profiles(
    rng: np.random.Generator, mesh: np.ndarray, count: int, radius_sq: float
) -> np.ndarray:
    """Columns of low-mode sine/cosine sums, each with a seeded L2 norm
    between 0.2 and 0.9 of sqrt(radius_sq) (trapezoid norm on the mesh)."""
    dx = mesh[1] - mesh[0]
    cols = []
    for _ in range(count):
        a, b = rng.standard_normal(4), rng.standard_normal(2)
        vals = sum(c * np.sin((k + 1) * math.pi * mesh) for k, c in enumerate(a))
        vals = vals + sum(c * np.cos((k + 1) * math.pi * mesh) for k, c in enumerate(b))
        norm = math.sqrt(np.trapezoid(vals**2, dx=dx))
        cols.append(vals * (math.sqrt(radius_sq) * rng.uniform(0.2, 0.9) / norm))
    return np.stack(cols, axis=1)


def profile_csv(
    rng: np.random.Generator, path: Path, mesh_points: int, count: int,
    radius_sq: float, prefix: str,
) -> str:
    mesh = np.linspace(0.0, 1.0, mesh_points)
    cols = _smooth_profiles(rng, mesh, count, radius_sq)
    header = ",".join(["x"] + [f"{prefix}{i}" for i in range(count)])
    np.savetxt(path, np.column_stack([mesh, cols]), delimiter=",",
               header=header, comments="", fmt="%.17g")
    return str(path)


def generate(workload: str, seed: int, out: Path, sizes: dict) -> dict:
    """Write the inputs of one run and describe them for the workers."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    if workload == "closed-loop":
        return {"jobs": closed_loop_configs(rng, out, sizes)}
    if workload == "kernel-synthesis":
        return {"plants": plant_files(rng, out, sizes["plants"]),
                "points_seed": int(rng.integers(2**31))}
    if workload == "certify":
        return {
            "targets": profile_csv(rng, out / "targets.csv", sizes["target_mesh"],
                                   sizes["targets"], BUILTIN_RHO_L, "w"),
            "states": profile_csv(rng, out / "states.csv", sizes["state_mesh"],
                                  sizes["states"], BUILTIN_S, "u"),
        }
    raise ValueError(f"unknown workload {workload!r}")
