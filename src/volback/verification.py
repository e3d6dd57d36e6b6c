"""Property-check battery shared by the CLI verifier and the test suite.

Each check returns a :class:`CheckResult` with a pass flag and a short
human-readable detail string.  ``run_all`` executes the whole battery;
the CLI turns any failure into a nonzero exit.

The battery covers the analytic inequalities the package relies on:
the coupling-operator norm bound, the Lipschitz bound of the series
operator at the balanced radius, invariance of the gap monomials under
the diagonal flow, the two divided-power norm inequalities (product and
split-gap integration), the plant growth and sup sampling bounds, the
sparsity of the quadratic example's coefficient family, agreement of
the two kernel constructions, and the closed-loop constant arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List

import numpy as np

from .charkernels import build_controller_kernels, coupling_polynomial, pdae_plant
from .gapcascade import (
    cascade,
    assemble_kernel_polynomial,
    dp_family_product,
    dp_norm,
    family_plant_kernel,
    pdae_b_family,
    split_gap_integration,
)
from .inversion import builtin_design, builtin_series, lipschitz_check
from .polynomial import RationalPoly
from .simplex import QuadratureRule, compositions, random_simplex_points
from .volterra import (
    GROWTH_SAMPLES,
    VolterraKernelSeries,
    check_growth_assumption,
    coupling_bound_check,
    kernel_l2_sq,
)
from .simulator import stability_constants

MultiIndex = tuple[int, ...]

COMPARE_POINTS = 200  # random points of T_n(1) per order in compare_constructions
DP_TRIALS = 20  # random families or pairs per divided-power norm check


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail}"


def check_coupling_bound(seed: int = 0) -> CheckResult:
    """Coupling-operator norm against the combinatorial bound.

    ||B[n, m](1, .)||^2 over T_n(1) is integrated by quadrature of the
    exact coupling polynomial and compared with the bound built from the
    lower kernel norm and the forcing sup.  Runs the quadratic example at (n, m) = (3, 2) and
    (4, 2), the two orders with a nonzero operator.
    """
    plant = pdae_plant()
    series = builtin_series()
    rule = QuadratureRule(8)
    details = []
    all_ok = True
    for n, m in ((3, 2), (4, 2)):
        b = coupling_polynomial(n, m, series.kernel(n - m + 1), plant.kernel(m))
        b_norm = math.sqrt(kernel_l2_sq(b, rule))
        k_norm = math.sqrt(kernel_l2_sq(series.kernel(n - m + 1), rule))
        report = coupling_bound_check(n, m, k_norm, 1.0, b_norm)
        all_ok = all_ok and report.passed
        details.append(f"(n={n},m={m}) {report.lhs_sq:.5f} <= {report.rhs_sq:.5f}")
    return CheckResult("coupling-bound", all_ok, "; ".join(details))


def check_lipschitz(seed: int = 0) -> CheckResult:
    """Series operator Lipschitz constant at the balanced radius."""
    series, gains, cfg = builtin_design()
    report = lipschitz_check(series, gains, cfg.s, seed=seed)
    return CheckResult(
        "lipschitz-gain",
        report.passed,
        f"worst ratio {report.worst_ratio:.4f} <= sqrt(ell) {report.threshold:.4f}",
    )


def _phi(P: MultiIndex, chain: np.ndarray) -> np.ndarray:
    """Phi_P at chain rows (x, xi_1, ..., xi_n): gap powers over factorials."""
    gaps = chain[:, :-1] - chain[:, 1:]
    val = np.ones(len(chain))
    for g, p in zip(gaps.T, P):  # float_power: C pow per element, as Python floats use
        if p:
            val *= np.float_power(g, p) / math.factorial(p)
    return val


def check_transport_invariance(seed: int = 0) -> CheckResult:
    """Gap monomials are constant along the diagonal flow.

    Central finite differences of phi along the direction (1, ..., 1)
    in (x, xi) must vanish to 1e-7 for every multi-index of weight at
    most 4 at 20 interior points.
    """
    rng = np.random.default_rng(seed)
    h = 1e-5
    n = 3
    indices = [
        p
        for total in range(0, 5)
        for p in compositions(total, n)
    ]
    rows = []
    while len(rows) < 20:
        x = rng.uniform(0.4, 0.95)
        gaps = rng.uniform(0.03, x / 4, size=n)
        xi = x - np.cumsum(gaps)
        if xi[-1] > 0.03:
            rows.append((x, *xi))
    chain = np.array(rows)
    worst = max(
        float(np.max(np.abs(_phi(P, chain + h) - _phi(P, chain - h)) / (2 * h)))
        for P in indices
    )
    passed = worst < 1e-7
    return CheckResult(
        "transport-invariance",
        passed,
        f"max |directional derivative| {worst:.2e} over {len(indices)} indices",
    )


def _random_family(rng: np.random.Generator, n: int) -> Dict[MultiIndex, RationalPoly]:
    entries: Dict[MultiIndex, RationalPoly] = {}
    count = rng.integers(1, 4)
    for _ in range(count):
        P = tuple(int(v) for v in rng.integers(0, 3, size=n))
        coeffs = [
            Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        poly = RationalPoly(coeffs)
        if not poly.is_zero():
            entries[P] = poly
    if not entries:
        entries[(0,) * n] = RationalPoly.constant(1)
    return entries


def check_dp_submultiplicative(seed: int = 0) -> CheckResult:
    """Divided-power product norm is bounded by the product of norms.

    Every norm is :func:`dp_norm`'s sampled sup, a lower bound of the true
    norm, so a pass is evidence, not a certificate.
    """
    rng = np.random.default_rng(seed)
    r, big_r = 0.9, 1.7
    worst_margin = -math.inf
    for _ in range(DP_TRIALS):
        n = int(rng.integers(2, 5))
        a_raw = _random_family(rng, n)
        b_raw = _random_family(rng, n)
        lhs = dp_norm(dp_family_product(a_raw, b_raw), r, big_r)
        rhs = dp_norm(a_raw, r, big_r) * dp_norm(b_raw, r, big_r)
        worst_margin = max(worst_margin, lhs - rhs)
    passed = worst_margin <= 1e-6
    return CheckResult(
        "dp-product-norm",
        passed,
        "sampled sup (lower bound): "
        f"worst excess {worst_margin:.3e} over {DP_TRIALS} random pairs",
    )


def check_split_gap_bound(seed: int = 0) -> CheckResult:
    """Split-gap integration contracts the norm by a factor r.

    Compares sampled sups (lower bounds), as :func:`check_dp_submultiplicative`.
    """
    rng = np.random.default_rng(seed)
    r, big_r = 0.9, 1.7
    worst_margin = -math.inf
    for _ in range(DP_TRIALS):
        n_out = int(rng.integers(2, 4))
        raw = _random_family(rng, n_out + 1)
        d = int(rng.integers(0, n_out))
        lhs = dp_norm(split_gap_integration(raw, d), r, big_r)
        rhs = r * dp_norm(raw, r, big_r)
        worst_margin = max(worst_margin, lhs - rhs)
    passed = worst_margin <= 1e-6
    return CheckResult(
        "split-gap-integration-norm",
        passed,
        "sampled sup (lower bound): "
        f"worst excess {worst_margin:.3e} over {DP_TRIALS} random families",
    )


def check_growth_sampling(seed: int = 0) -> CheckResult:
    """Plant kernels stay below the factorial growth envelope."""
    report = check_growth_assumption(pdae_plant(), seed=seed)
    return CheckResult(
        "growth-envelope",
        report.passed,
        f"worst ratio {report.worst_ratio:.4f} over {GROWTH_SAMPLES} samples",
    )


def check_sup_bound(seed: int = 0) -> CheckResult:
    """Family forcing stays below D rho^-(n-1) exp(1/mu) pointwise."""
    family = pdae_b_family()
    meta = family.metadata or {}
    d_const = float(meta.get("D", 1.0))
    rho = float(meta.get("rho", 1.0))
    mu = float(meta.get("mu", 1.0))
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for n in family.orders():
        kern = family_plant_kernel(family, n)
        pts = random_simplex_points(rng, n, 100)
        vals = np.abs(kern(1.0, pts))
        bound = d_const * rho ** (-(n - 1)) * math.exp(1.0 / mu)
        worst = max(worst, float(np.max(vals)) - bound)
    passed = worst <= 1e-9
    return CheckResult(
        "forcing-sup-bound", passed, f"worst excess {worst:.3e} over sampled orders"
    )


def check_support_sparsity() -> CheckResult:
    """The quadratic example's coefficient family has exactly 7 entries."""
    a = cascade(pdae_b_family(), 3)
    support2 = set(a.support(2))
    support3 = set(a.support(3))
    want3 = {
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (1, 0, 0),
        (0, 2, 0),
        (0, 1, 0),
    }
    passed = support2 == {(0, 0)} and support3 == want3
    return CheckResult(
        "cascade-support-sparsity",
        passed,
        f"{len(support2)} + {len(support3)} entries (want 1 + 6)",
    )


def compare_constructions(
    recursion: VolterraKernelSeries,
    gap: VolterraKernelSeries,
    seed: int = 0,
) -> tuple[bool, float]:
    """Whether the kernels built by the recursion (or closed forms) and by
    the gap cascade are equal, order by order, and the largest difference
    of their float values at ``COMPARE_POINTS`` random points of T_n(1)
    per order, drawn from ``seed`` (exactly 0 when the kernels are equal,
    as equal kernels sum the same floats in the same order)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, kern in recursion.kernels.items():
        pts = random_simplex_points(rng, n, COMPARE_POINTS)
        worst = max(worst, float(np.max(np.abs(kern(1.0, pts) - gap.kernel(n)(1.0, pts)))))
    equal = all(k == gap.kernel(n) for n, k in recursion.kernels.items())
    return equal, worst


def check_dual_construction(seed: int = 0) -> CheckResult:
    """Both kernel constructions give the same kernels; the detail
    reports their largest float difference on random simplex points."""
    a = cascade(pdae_b_family(), 3)
    passed, worst = compare_constructions(
        VolterraKernelSeries(build_controller_kernels(pdae_plant(), 3)),
        VolterraKernelSeries({n: assemble_kernel_polynomial(a, n) for n in (2, 3)}),
        seed,
    )
    return CheckResult(
        "dual-construction",
        passed,
        f"monomials {'equal' if passed else 'differ'}, "
        f"max |recursion - cascade| {worst:.2e}",
    )


def check_stability_arithmetic() -> CheckResult:
    """Closed-loop constants of the worked example (s = 3/16, ell = 1/2,
    rho_L = 21/256, lambda = 1) match its values, and the overshoot grows
    with ell.  These are not the gains that ``run gains`` certifies."""
    c1, c2 = stability_constants(3.0 / 16.0, 0.5, 21.0 / 256.0)
    ok = abs(c1 - 0.1678) < 5e-4 and abs(c2 - 15.84) < 5e-2
    last = 0.0
    for ell in (0.1, 0.3, 0.5, 0.7, 0.9):
        _, c2i = stability_constants(3.0 / 16.0, ell, 21.0 / 256.0)
        ok = ok and c2i > last
        last = c2i
    return CheckResult(
        "stability-constants",
        ok,
        "worked example s = 3/16, ell = 1/2, rho_L = 21/256, lambda = 1: "
        f"C1 {c1:.4f}, C2 {c2:.2f}, overshoot increasing",
    )


ALL_CHECKS: Dict[str, Callable[..., CheckResult]] = {
    "coupling-bound": check_coupling_bound,
    "lipschitz-gain": check_lipschitz,
    "transport-invariance": check_transport_invariance,
    "dp-product-norm": check_dp_submultiplicative,
    "split-gap-integration-norm": check_split_gap_bound,
    "growth-envelope": check_growth_sampling,
    "forcing-sup-bound": check_sup_bound,
    "cascade-support-sparsity": check_support_sparsity,
    "dual-construction": check_dual_construction,
    "stability-constants": check_stability_arithmetic,
}


def run_all(seed: int = 0) -> List[CheckResult]:
    """Run every check; order is fixed so reports are reproducible."""
    results = []
    for name, fn in ALL_CHECKS.items():
        try:
            if name in ("cascade-support-sparsity", "stability-constants"):
                results.append(fn())
            else:
                results.append(fn(seed))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(name, False, f"raised {exc!r}"))
    return results
