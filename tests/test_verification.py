"""Detail lines of the verify-all checks that evaluate points, kernels
and coefficient families in the array convention."""

import pytest

from volback import verification
from volback.polynomial import SimplexPolyKernel, pdae_k2, pdae_k3
from volback.verification import ALL_CHECKS, compare_constructions
from volback.volterra import VolterraKernelSeries

DETAILS = {
    "coupling-bound": "(n=3,m=2) 0.03651 <= 0.33333; (n=4,m=2) 0.00145 <= 0.02009",
    "transport-invariance": "max |directional derivative| 5.55e-12 over 35 indices",
    "dp-product-norm": "sampled sup (lower bound): worst excess 1.110e-16 over 20 random pairs",
    "split-gap-integration-norm": (
        "sampled sup (lower bound): worst excess 0.000e+00 over 20 random families"
    ),
}


@pytest.mark.parametrize("name", DETAILS)
def test_detail_line(name):
    result = ALL_CHECKS[name](0)
    assert result.passed
    assert result.detail == DETAILS[name]


@pytest.mark.parametrize(
    "name, attr, value",
    [
        ("lipschitz-gain", "gain_ell", lambda gains, s: 0.0),
        ("growth-envelope", "check_growth_assumption", lambda series, seed: 1.5),
    ],
    ids=["lipschitz-gain", "growth-envelope"],
)
def test_check_fails_past_its_bound(monkeypatch, name, attr, value):
    assert ALL_CHECKS[name](0).passed
    monkeypatch.setattr(verification, attr, value)
    assert not ALL_CHECKS[name](0).passed


class TestCompareConstructions:
    def test_equal_tables_are_not_evaluated(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an equal kernel was evaluated")

        monkeypatch.setattr(SimplexPolyKernel, "__call__", refuse)
        table = {2: pdae_k2(), 3: pdae_k3()}
        got = compare_constructions(VolterraKernelSeries(table), VolterraKernelSeries(dict(table)))
        assert got == (True, 0.0)

    def test_mismatch_reports_the_float_difference(self):
        k3 = pdae_k3()
        first = next(iter(k3.monomials))
        assert first == (0, (0, 1, 2))
        bent = SimplexPolyKernel(3, {**k3.monomials, first: k3.monomials[first] + 1}, k3.den)
        got = compare_constructions(
            VolterraKernelSeries({2: pdae_k2(), 3: bent}),
            VolterraKernelSeries({2: pdae_k2(), 3: pdae_k3()}),
            0,
        )
        assert got == (False, 0.25348726400680466)
