"""End-to-end acceptance gates.

Each test prints one [PASS]/[FAIL] line with the measured numbers and
the elapsed time, then asserts.  Budgets are wall-clock seconds.
"""

import math
import time
from fractions import Fraction as Fr

import numpy as np

from volback.charkernels import build_controller_kernels, pdae_plant
from volback.gapcascade import (
    assemble_kernel_polynomial,
    cascade,
    pdae_b_family,
)
from volback.inversion import choose_radius, invert_with_info
from volback.polynomial import pdae_k3
from volback.simplex import QuadratureRule
from volback.simulator import (
    SimConfig,
    mild_solution_residual,
    simulate,
    target_semigroup,
)
from volback.verification import run_all
from volback.volterra import (
    GridFunction,
    build_gains,
    gain_ell,
    linearized_profile,
    series_profile,
)

from conftest import poly_coefficients, random_simplex_points


def _emit(capsys, num, ok, detail, elapsed, budget):
    flag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[{flag}] acceptance {num}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")


def _recursion_kernels(n_max):
    return build_controller_kernels(pdae_plant(), n_max)


def _smooth(rng, mesh, norm):
    vals = sum(
        rng.standard_normal() * np.sin((k + 1) * math.pi * mesh) for k in range(4)
    )
    g = GridFunction(vals)
    return g.scale(norm / g.l2_norm())


def test_criterion_1_closed_form_kernels(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    table = _recursion_kernels(3)
    rng = np.random.default_rng(1)

    pts2 = random_simplex_points(rng, 2, 500)
    err2 = float(np.max(np.abs(table[2](1.0, pts2) - (-pts2[:, 1]))))

    pts3 = random_simplex_points(rng, 3, 500)
    err3 = float(np.max(np.abs(table[3](1.0, pts3) - pdae_k3()(1.0, pts3))))

    elapsed = time.perf_counter() - t0
    ok = err2 < 1e-10 and err3 < 1e-6 and elapsed < budget
    _emit(capsys, 1, ok, f"k2 err {err2:.2e} (<1e-10), k3 err {err3:.2e} (<1e-6)", elapsed, budget)
    assert ok


def test_criterion_2_exact_cascade(capsys):
    budget = 10.0
    t0 = time.perf_counter()
    a = cascade(pdae_b_family(), 3)

    ok2 = {P: poly_coefficients(poly) for P, poly in a.at_order(2).items()} == {(0, 0): (Fr(0), Fr(-1))}
    want3 = {
        (0, 1, 0): (Fr(0), Fr(0), Fr(-1, 2)),
        (0, 2, 0): (Fr(0), Fr(1)),
        (1, 0, 0): (Fr(0), Fr(0), Fr(-3, 2)),
        (1, 0, 1): (Fr(0), Fr(1)),
        (1, 1, 0): (Fr(0), Fr(3)),
        (2, 0, 0): (Fr(0), Fr(6)),
    }
    got3 = {P: poly_coefficients(poly) for P, poly in a.at_order(3).items()}
    ok3 = got3 == want3
    no_extra = set(a.orders()) == {2, 3}

    elapsed = time.perf_counter() - t0
    ok = ok2 and ok3 and no_extra and elapsed < budget
    _emit(
        capsys, 2, ok,
        f"a2 exact {ok2}, a3 six-tuple exact {ok3}, no extra entries {no_extra}",
        elapsed, budget,
    )
    assert ok


def test_criterion_3_dual_construction(capsys):
    budget = 120.0
    t0 = time.perf_counter()
    by_recursion = _recursion_kernels(3)[3]
    by_cascade = assemble_kernel_polynomial(cascade(pdae_b_family(), 3), 3)
    rng = np.random.default_rng(3)
    pts = random_simplex_points(rng, 3, 200)
    diff = float(np.max(np.abs(by_recursion(1.0, pts) - by_cascade(1.0, pts))))
    elapsed = time.perf_counter() - t0
    ok = diff < 1e-6 and elapsed < budget
    _emit(capsys, 3, ok, f"max |recursion - cascade| {diff:.2e} (<1e-6)", elapsed, budget)
    assert ok


def test_criterion_4_simulation_reproduction(capsys, plant, kernel_series):
    budget = 300.0
    t0 = time.perf_counter()

    rec_a = simulate(SimConfig(controller="open-loop", t_end=2.0), plant)
    rec_b = simulate(SimConfig(controller="order-2", t_end=2.0), plant, kernel_series)
    rec_c = simulate(SimConfig(controller="order-3", t_end=2.0), plant, kernel_series)

    blow_a = rec_a.blow_up
    blow_b = rec_b.blow_up
    ok_a = blow_a is not None and 1.01 <= blow_a <= 1.11
    ok_b = blow_b is not None and 1.58 <= blow_b <= 1.78
    ok_c = (
        rec_c.blow_up is None
        and 0.15 <= rec_c.final_l2 <= 0.25
        and 20.0 <= rec_c.max_abs <= 28.0
    )

    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and elapsed < budget
    _emit(
        capsys, 4, ok,
        f"open-loop blow {blow_a:.3f} in [1.01,1.11], order-2 blow {blow_b:.3f} "
        f"in [1.58,1.78], order-3 final L2 {rec_c.final_l2:.3f} in [0.15,0.25], "
        f"max|u| {rec_c.max_abs:.1f} in [20,28]",
        elapsed, budget,
    )
    assert ok


def test_criterion_5_contraction_inverse(capsys, kernel_series):
    budget = 120.0
    t0 = time.perf_counter()
    gains = build_gains(kernel_series, rule=QuadratureRule(12))
    config = choose_radius(gains)
    ratio_cap = math.sqrt(gain_ell(gains, config.s)) + 0.05

    mesh = np.linspace(0.0, 1.0, 201)
    rng = np.random.default_rng(5)
    worst_round_trip = 0.0
    worst_ratio = 0.0
    for _ in range(50):
        u = _smooth(rng, mesh, rng.uniform(0.1, 1.0) * 0.5 * math.sqrt(config.s))
        w = u - series_profile(kernel_series, u)
        res = invert_with_info(w, kernel_series, config)
        worst_round_trip = max(worst_round_trip, (res.u - u).l2_norm())
        steps = res.residuals
        for a, b in zip(steps, steps[1:]):
            if a > 1e-12 and b > 1e-12:
                worst_ratio = max(worst_ratio, b / a)

    elapsed = time.perf_counter() - t0
    ok = worst_round_trip < 1e-8 and worst_ratio <= ratio_cap and elapsed < budget
    _emit(
        capsys, 5, ok,
        f"round-trip {worst_round_trip:.2e} (<1e-8), Picard ratio {worst_ratio:.3f} "
        f"(<= {ratio_cap:.3f}) over 50 draws",
        elapsed, budget,
    )
    assert ok


def test_criterion_6_frechet_derivative(capsys, kernel_series):
    budget = 120.0
    t0 = time.perf_counter()
    mesh = np.linspace(0.0, 1.0, 201)
    rng = np.random.default_rng(6)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        u = _smooth(rng, mesh, rng.uniform(0.05, 0.4))
        h = _smooth(rng, mesh, rng.uniform(0.05, 0.4))
        lin = linearized_profile(kernel_series, u, h)
        plus = series_profile(kernel_series, u + h.scale(eps))
        minus = series_profile(kernel_series, u - h.scale(eps))
        fd = (plus - minus).scale(1.0 / (2.0 * eps))
        rel = (lin - fd).l2_norm() / max(lin.l2_norm(), 1e-30)
        worst = max(worst, rel)

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < budget
    _emit(capsys, 6, ok, f"max relative L2 error vs central FD {worst:.2e} (<1e-4) on 20 pairs", elapsed, budget)
    assert ok


def test_criterion_7_semigroup_and_mild_solution(capsys, plant, kernel_series):
    budget = 300.0
    t0 = time.perf_counter()

    mesh = np.linspace(0.0, 1.0, 101)
    w0 = GridFunction(np.sin(math.pi * mesh) + 0.3)
    zero_ok = all(
        bool(np.all(target_semigroup(w0, t).values == 0.0)) for t in (1.0, 1.25, 3.0)
    )

    residuals = []
    for m in (101, 201, 401):
        cfg = SimConfig(
            controller="order-3", t_end=1.0, mesh_points=m, initial_scale=0.1
        )
        rec = simulate(cfg, plant, kernel_series)
        residuals.append(
            mild_solution_residual(rec, kernel_series, [0.25, 0.5, 0.75])
        )
    mono_ok = all(b <= 1.1 * a for a, b in zip(residuals, residuals[1:]))

    elapsed = time.perf_counter() - t0
    ok = zero_ok and mono_ok and elapsed < budget
    res_str = "/".join(f"{r:.4f}" for r in residuals)
    _emit(
        capsys, 7, ok,
        f"flow exactly zero for t>=1: {zero_ok}; residuals {res_str} "
        f"decrease across M=101/201/401 (10% slack)",
        elapsed, budget,
    )
    assert ok


def test_criterion_8_property_suites(capsys):
    budget = 300.0
    t0 = time.perf_counter()
    results = run_all(seed=0)
    failed = [r.name for r in results if not r.passed]
    elapsed = time.perf_counter() - t0
    ok = not failed and elapsed < budget
    detail = (
        f"all {len(results)} property checks pass"
        if not failed
        else f"failing checks: {', '.join(failed)}"
    )
    _emit(capsys, 8, ok, detail, elapsed, budget)
    assert ok
