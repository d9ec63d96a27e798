import math
import re

import numpy as np
import pytest
from hypothesis import strategies as st

from lagmesh import (
    GaussianPotential,
    NonrelativisticKinetic,
    ProblemSpec,
    SalpeterKinetic,
    YukawaPotential,
    solve,
)

# mu = 1/2 so that T = p^2: the dimensionless convention used by every
# reference value in the suite.
DIMENSIONLESS = NonrelativisticKinetic(1.0, 1.0)


def gauss15(l=0, size=50, scale=0.5) -> ProblemSpec:
    return ProblemSpec(DIMENSIONLESS, GaussianPotential(15.0, 1.0), l, size, scale)


def yukawa10(l=0, size=200, scale=0.8) -> ProblemSpec:
    return ProblemSpec(DIMENSIONLESS, YukawaPotential(10.0, 1.0), l, size, scale)


def salpeter_gauss(size=50, scale=0.5) -> ProblemSpec:
    return ProblemSpec(SalpeterKinetic(1.0, 1.0), GaussianPotential(3.0, 1.0), 0, size, scale)


@pytest.fixture(scope="session")
def gauss15_ground():
    """Ground state of the g=15 Gaussian benchmark at N=50, h=0.5."""
    return solve(gauss15())[0]


def print_ulp(printed: str) -> float:
    """One unit of the last printed decimal digit of a reference string."""
    mantissa = printed.split("e")[0]
    decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return 10.0 ** (-decimals)


def assert_ulp(value: float, printed: str, units: float = 2.0):
    tol = units * print_ulp(printed)
    assert value == pytest.approx(float(printed), abs=tol), (
        f"{value!r} vs printed {printed} (tol {tol:g})"
    )


# NaN, the infinities, negatives, zeros, subnormals and huge values, then any double
EDGE_POINTS = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 2.2e-308, 1e300, 1.7e308]
    ),
    st.floats(),
)


def assert_finite_or_named(call, points):
    """call() is finite when every (name, point) is finite and >= 0, and
    otherwise raises ValueError naming the first point that is not."""
    bad = [(name, x) for name, x in points if not 0.0 <= x < math.inf]
    if bad:
        name, x = bad[0]
        with pytest.raises(ValueError, match=re.escape(f"got {name} = {x!r}")):
            call()
    else:
        assert np.all(np.isfinite(call()))
