import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lagmesh.errors import ConfigurationError
from lagmesh.kinetics import (
    CustomKinetic,
    NonrelativisticKinetic,
    SalpeterKinetic,
)


def test_nonrelativistic_value():
    kin = NonrelativisticKinetic(1.0, 1.0)  # mu = 1/2
    assert kin.mu == 0.5
    assert kin.value(2.0) == pytest.approx(4.0, rel=1e-15)


def test_salpeter_rest_mass():
    assert SalpeterKinetic(1.0, 1.0).value(0.0) == 2.0


def test_salpeter_pythagorean_point():
    assert SalpeterKinetic(16.0, 16.0).value(12.0) == pytest.approx(40.0, rel=1e-15)


def test_bound_windows():
    assert NonrelativisticKinetic(3.0, 5.0).bound_window() == (-math.inf, 0.0)
    assert SalpeterKinetic(16.0, 16.0).bound_window() == (0.0, 32.0)
    assert SalpeterKinetic(1.0, 1.0).bound_window() == (0.0, 2.0)


def test_custom_kinetic_window_required():
    # a kinetic operator without a bound-state window cannot be built
    with pytest.raises(TypeError, match="window"):
        CustomKinetic(t_of_p2=lambda p2: math.sqrt(p2 + 1.0))
    kin = CustomKinetic(t_of_p2=lambda p2: math.sqrt(p2 + 1.0), window=(-1.0, 0.0))
    assert kin.value(3.0) == pytest.approx(math.sqrt(10.0), rel=1e-15)
    assert kin.bound_window() == (-1.0, 0.0)


@pytest.mark.parametrize("mass", [1e200, 1e308])
def test_reduced_mass_of_huge_masses_is_finite(mass):
    # the product m1 m2 overflows at these masses; mu must not
    kin = NonrelativisticKinetic(mass, mass)
    assert kin.mu == mass / 2
    assert kin.value(1.0) == 1.0 / mass


@pytest.mark.parametrize("mass", [1.35e154, 1e200, 1e308])
@pytest.mark.parametrize("name", ["m1", "m2"])
def test_salpeter_mass_whose_square_overflows_is_refused_by_name(name, mass):
    # sqrt(p^2 + m^2) would be inf at every momentum
    with pytest.raises(ConfigurationError, match=re.escape(f"finite {name}^2, got {name} = {mass!r}")):
        SalpeterKinetic(**{"m1": 1.0, "m2": 1.0, name: mass})


def test_salpeter_largest_mass_stays_finite():
    kin = SalpeterKinetic(1.34e154, 1.34e154)
    assert kin.value(1.0) == 2 * 1.34e154
    assert kin.bound_window() == (0.0, 2 * 1.34e154)


def test_vanishing_reduced_mass_is_refused():
    with pytest.raises(ConfigurationError, match="m1 = 5e-324, m2 = 5e-324"):
        NonrelativisticKinetic(5e-324, 5e-324)


@pytest.mark.parametrize(
    "window", [(math.nan, 0.0), (-1.0, math.nan), (0.0, -10.0), (0.0, 0.0), (math.inf, math.inf)]
)
def test_custom_kinetic_window_that_holds_no_state_is_refused(window):
    with pytest.raises(ConfigurationError, match=re.escape(repr(window))):
        CustomKinetic(t_of_p2=lambda p2: p2, window=window)


def test_custom_kinetic_window_may_have_infinite_ends():
    assert CustomKinetic(t_of_p2=lambda p2: p2, window=(-math.inf, math.inf)).bound_window()


def test_masses_must_be_positive():
    with pytest.raises(ConfigurationError):
        NonrelativisticKinetic(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        SalpeterKinetic(1.0, -2.0)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("kinetic", [NonrelativisticKinetic, SalpeterKinetic])
@pytest.mark.parametrize("name", ["m1", "m2"])
def test_non_finite_mass_is_refused_by_name(kinetic, name, value):
    masses = {"m1": 1.0, "m2": 1.0, name: value}
    with pytest.raises(ConfigurationError, match=f"got {name} = {value!r}"):
        kinetic(**masses)


@pytest.mark.parametrize("ratio", [0.001, 0.01, 0.1])
def test_salpeter_nonrelativistic_limit(ratio):
    # T - (m1 + m2) - p^2/2mu is bounded by the quartic expansion term
    m1, m2 = 1.0, 2.0
    kin = SalpeterKinetic(m1, m2)
    mu = m1 * m2 / (m1 + m2)
    p = ratio * min(m1, m2)
    residual = abs(kin.value(p) - (m1 + m2) - p * p / (2.0 * mu))
    bound = p**4 * (1.0 / (8.0 * m1**3) + 1.0 / (8.0 * m2**3)) * (1.0 + 1e-6)
    assert residual <= bound


@given(st.floats(0.0, 50.0))
def test_salpeter_above_threshold(p):
    kin = SalpeterKinetic(2.0, 3.0)
    assert kin.value(p) >= 5.0
