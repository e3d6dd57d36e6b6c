"""Detail lines of the verify-all checks that evaluate points, kernels
and coefficient families in the array convention."""

import pytest

from volback.verification import ALL_CHECKS

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
