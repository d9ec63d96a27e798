"""Kinetic-energy operators T(p^2), diagonal in momentum space."""

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigurationError, _require_positive

__all__ = [
    "NonrelativisticKinetic",
    "SalpeterKinetic",
    "CustomKinetic",
]


@dataclass(frozen=True)
class NonrelativisticKinetic:
    """T = p^2 / 2 mu for reduced mass mu = m1 m2 / (m1 + m2).

    Eigenvalues are binding energies, so bound states live below zero.
    """

    m1: float
    m2: float

    def __post_init__(self):
        _require_positive("nonrelativistic kinetics", m1=self.m1, m2=self.m2)
        if not 0.0 < self.mu < math.inf:
            raise ConfigurationError(f"m1 = {self.m1!r}, m2 = {self.m2!r} give no reduced mass > 0")

    @property
    def mu(self) -> float:
        small, large = sorted((self.m1, self.m2))  # no product to overflow; m/2 for equal masses
        return small / (1.0 + small / large)

    def value(self, p: float) -> float:
        return p * p / (2.0 * self.mu)

    def bound_window(self) -> tuple[float, float]:
        return (-math.inf, 0.0)


@dataclass(frozen=True)
class SalpeterKinetic:
    """Spinless-Salpeter kinetic term sqrt(p^2+m1^2) + sqrt(p^2+m2^2).

    Eigenvalues are system masses; bound states sit between zero and the
    free threshold m1 + m2.
    """

    m1: float
    m2: float

    def __post_init__(self):
        _require_positive("Salpeter kinetics", m1=self.m1, m2=self.m2)
        for name, m in (("m1", self.m1), ("m2", self.m2)):
            if not math.isfinite(m * m):  # sqrt(p^2 + m^2) would be inf at every p
                raise ConfigurationError(f"Salpeter kinetics requires a finite {name}^2, got {name} = {m!r}")

    def value(self, p: float) -> float:
        p2 = p * p
        return math.sqrt(p2 + self.m1 * self.m1) + math.sqrt(p2 + self.m2 * self.m2)

    def bound_window(self) -> tuple[float, float]:
        return (0.0, self.m1 + self.m2)


@dataclass(frozen=True)
class CustomKinetic:
    """Arbitrary kinetic operator given as a function of p^2.

    Supports unusual dispersion laws such as momentum-dependent masses,
    T = sqrt(p^2 + m^2(p^2)); no smoothness is assumed. The bound-state
    window (lower, upper), lower < upper, is part of the operator.
    """

    t_of_p2: Callable[[float], float]
    window: tuple[float, float]

    def __post_init__(self):
        if not self.window[0] < self.window[1]:
            raise ConfigurationError(f"a bound-state window needs lower < upper, got {self.window!r}")

    def value(self, p: float) -> float:
        return self.t_of_p2(p * p)

    def bound_window(self) -> tuple[float, float]:
        return self.window

