"""Central interactions and their partial-wave kernels in momentum space.

A potential is known through its configuration-space form V(r) and/or the
Fourier transform V_FT(k); the nonlocal kernel entering the radial integral
equation for partial wave l is the Legendre projection

    V_l(p, p') = 2 pi * integral_{-1}^{+1} P_l(t) V_FT(|p - p'|)(t) dt,

with t the cosine of the angle between the two momenta. Gaussian and Yukawa
interactions admit closed forms; anything else goes through an adaptive
Gauss-Legendre quadrature of the same integral.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, NumericalError, _require_positive
from .mesh import _point_values
from .specfun import MAX_DEGREE, _bessel_series, _domain_points, legendre_q

__all__ = [
    "GaussianPotential",
    "YukawaPotential",
    "CustomPotential",
    "vft_gaussian",
    "vft_yukawa",
    "partial_wave_gaussian",
    "partial_wave_yukawa",
    "partial_wave_numeric",
]

# V_l(p, p') of one partial wave: arrays of momenta p and p' of one shape in,
# the kernel values as an array of that shape out
Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]


def vft_gaussian(k: float, a: float, b: float) -> float:
    """Fourier transform of -a exp(-b^2 r^2): -a/(8 pi^{3/2} b^3) exp(-k^2/4b^2)."""
    return -a / (8.0 * math.pi**1.5 * b**3) * math.exp(-(k * k) / (4.0 * b * b))


def vft_yukawa(k: float, a: float, b: float) -> float:
    """Fourier transform of -a exp(-b r)/r: -(a/2 pi^2) / (b^2 + k^2)."""
    return -a / (2.0 * math.pi**2 * (b * b + k * k))


def _momenta(p, q, what: str) -> tuple[np.ndarray, np.ndarray]:
    """p and p' as float arrays, which must share one shape; the first
    momentum that is not finite and >= 0 raises ValueError naming it."""
    p_arr = _domain_points(p, what, "p")
    q_arr = _domain_points(q, what, "p'")
    if p_arr.shape != q_arr.shape:
        raise ValueError(f"p and p' differ in shape: {p_arr.shape} vs {q_arr.shape}")
    return p_arr, q_arr


def partial_wave_gaussian(l: int, p, q, a: float, b: float):
    """Gaussian kernel V_l(p, p') = -a/(2 sqrt(pi) b^3) e^(-s) i_l(y), with
    y = p p'/2b^2, s = (p^2 + p'^2)/4b^2 and i_l the modified spherical
    Bessel function, scalar or elementwise on arrays p, p' of one shape.

    e^(-s) i_l(y) is taken as e^(-(p - p')^2/4b^2) times e^(-y) i_l(y), so
    no exponent overflows and s - y is never formed by subtraction. Below
    y = max(40, l^2), e^(-y) i_l(y) is the all-positive power series; above
    it, the finite form sum_{k<=l} (-1)^k a_k / 2y^(k+1) with
    a_k = (l+k)!/(2^k k! (l-k)!) (DLMF 10.49.12), whose terms fall at least
    twofold once y >= l^2 and whose dropped e^(-2y) half is below 1e-34 of
    it once y >= 40. Against 40-digit mpmath on random pairs of meshes
    N = 10..400, h = 0.1..2, b = 0.3..3 (the property test in
    tests/test_potentials.py), the worst |dV|/max|V| over the sampled pairs
    is 1.3e-15 for l <= 8, 2.3e-15 for l <= 18 and 9.4e-15 for l <= 26.
    Past l = 26 = ``specfun.MAX_DEGREE`` the series' e^y overflows below
    the branch point (709 < 27^2), so other degrees raise ``ValueError``.
    So do an a or b that is not finite and > 0, and the first momentum that
    is not finite and >= 0, each by name.
    """
    if not 0 <= l <= MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_DEGREE}], got {l}")
    _require_positive("the Gaussian kernel", a=a, b=b)
    p_arr, q_arr = _momenta(p, q, "the Gaussian kernel is")
    with np.errstate(over="ignore"):  # an infinite y or gap gives the limit 0
        y = np.atleast_1d(p_arr * q_arr / (2.0 * b * b))
        gap = np.atleast_1d((p_arr - q_arr) ** 2 / (4.0 * b * b))
    damped = np.empty_like(y)  # e^(-y) i_l(y)
    small = y < max(40.0, float(l * l))
    damped[small] = np.exp(-y[small]) * _bessel_series(l, y[small], 1.0)
    u = 1.0 / y[~small]
    acc = np.zeros_like(u)
    for k in range(l, -1, -1):
        a_k = float(math.factorial(l + k) // (2**k * math.factorial(k) * math.factorial(l - k)))
        acc = acc * u + (-a_k if k % 2 else a_k)
    damped[~small] = 0.5 * u * acc
    out = -a / (2.0 * math.sqrt(math.pi) * b**3) * (np.exp(-gap) * damped)
    return float(out[0]) if p_arr.ndim == 0 else out


def partial_wave_yukawa(l: int, p, q, a: float, b: float):
    """Yukawa kernel V_l(p, p') = -(a / pi p p') Q_l(1 + d), for 0 <= l <= 26,
    scalar or elementwise on arrays p, p' of one shape.

    The offset d = x - 1 = (b^2 + (p - p')^2)/(2 p p') is formed without
    cancellation, so the kernel keeps its accuracy on the diagonal at any
    momentum, where x itself rounds to 1. Against 40-digit mpmath on random
    pairs of meshes N = 10..400, h = 0.1..2, b = 0.3..3 (the property test
    in tests/test_potentials.py, and three more draws like it), the worst
    |dV|/max|V| over the sampled pairs is 4.1e-15 for l <= 8 and 2.7e-14
    for l <= 26. Past l = 26 ``legendre_q`` raises ``ValueError``.

    Where d > 2^500, p p' = 0 and underflow included, the kernel is its
    p p' -> 0 limit: -2a/(pi (b^2 + p^2 + p'^2)) for l = 0, which it equals
    there to rounding, and 0 for l >= 1, below 2^-500 |V_0|. Where
    d < 2^-1000, p p' overflow included, p p' > 2^999 b^2, so |V| and the
    same limit are both below 2^-990 a / b^2, and the limit is taken. An a
    or b that is not finite and > 0, and the first momentum that is not
    finite and >= 0, raise ``ValueError`` naming it.
    """
    # b = 0 would put the Q_l argument on its logarithmic singularity at p = p'
    _require_positive("the Yukawa kernel", a=a, b=b)
    p_arr, q_arr = _momenta(p, q, "the Yukawa kernel is")
    # grouping keeps V_l(p, p') == V_l(p', p) bit for bit
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pq = p_arr * q_arr
        offset = (b * b + (p_arr - q_arr) ** 2) / (2.0 * pq)
    limited = ~((offset >= _NEAR_OFFSET) & (offset <= _FAR_OFFSET))
    any_limited = limited.any()
    if any_limited:
        pq, offset = np.where(limited, 1.0, pq), np.where(limited, 1.0, offset)
    out = -a / (math.pi * pq) * legendre_q(l, offset)
    if any_limited:
        limit = 0.0
        if l == 0:
            with np.errstate(over="ignore"):
                limit = -2.0 * a / (math.pi * (b * b + (p_arr * p_arr + q_arr * q_arr)))
        out = np.where(limited, limit, out)
    return float(out) if out.ndim == 0 else out


_FAR_OFFSET = 2.0**500  # beyond it the Yukawa kernel is its p p' -> 0 limit
_NEAR_OFFSET = 2.0**-1000  # below it p p' > 2^999 b^2 and |V| < 2^-990 a / b^2


_REL_TOL = 1e-12  # agreement of successive quadrature orders, relative to the estimate
# rounding floor of a Gauss-Legendre sum, relative to the same sum of |f|
_ROUNDING_SCALE = 64.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


@lru_cache(maxsize=16)
def _gauss_legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.legendre.leggauss(order)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def partial_wave_numeric(l: int, p: float, q: float, v_ft: Callable[[float], float]) -> float:
    """Legendre projection of an arbitrary V_FT by adaptive Gauss-Legendre.

    The quadrature order doubles from 32 until two successive estimates agree,
    which they do when their difference is
      - within ``_REL_TOL`` = 1e-12 times the estimate, or
      - within 64 eps times the same rule applied to |P_l(t) V_FT(k(t))|,
        i.e. 2 pi * 64 eps * integral |P_l V_FT| dt, the rounding scale of the
        sum, which is all that is left once P_l cancels the integral towards
        zero, or
      - below the smallest normal double, where no relative precision exists
        (subnormal kernels far off the diagonal).
    Failure to agree past order 1024 raises ``NumericalError``, and so does
    a non-finite V_FT, at once, naming its k.
    """
    legendre = np.polynomial.legendre.Legendre.basis(l)  # P_l, refusing l < 0
    previous = None
    order = 32
    while order <= 1024:
        t, w = _gauss_legendre_rule(order)
        k = np.sqrt(p * p + q * q - 2.0 * p * q * t)
        values = _point_values(v_ft, k, "V_FT", "quadrature point", "k")
        integrand = legendre(t) * values
        estimate = 2.0 * math.pi * float(np.dot(w, integrand))
        if previous is not None:
            rounding = 2.0 * math.pi * _ROUNDING_SCALE * float(np.dot(w, np.abs(integrand)))
            if abs(estimate - previous) <= max(_REL_TOL * abs(estimate), rounding, _TINY):
                return estimate
        previous = estimate
        order *= 2
    raise NumericalError(
        f"partial-wave integration did not converge for l={l}, p={p!r}, p'={q!r}"
    )


@dataclass(frozen=True)
class GaussianPotential:
    """V(r) = -a exp(-b^2 r^2) with finite a, b > 0 (attractive, short range)."""

    a: float
    b: float

    def __post_init__(self):
        _require_positive("Gaussian potential", a=self.a, b=self.b)

    def radial_value(self, r: float) -> float:
        return -self.a * math.exp(-((self.b * r) ** 2))

    def kernel(self, l: int) -> Kernel:
        if l > MAX_DEGREE:
            raise ConfigurationError(
                f"the Gaussian kernel is evaluated for l <= {MAX_DEGREE} "
                f"(to about 1e-14 of max|V|), got l = {l}"
            )
        a, b = self.a, self.b
        return lambda p, q: partial_wave_gaussian(l, p, q, a, b)


@dataclass(frozen=True)
class YukawaPotential:
    """V(r) = -a exp(-b r)/r with finite a, b > 0 (attractive, screened Coulomb)."""

    a: float
    b: float

    def __post_init__(self):
        _require_positive("Yukawa potential", a=self.a, b=self.b)

    def radial_value(self, r: float) -> float:
        return -self.a * math.exp(-self.b * r) / r

    def kernel(self, l: int) -> Kernel:
        if l > MAX_DEGREE:
            raise ConfigurationError(
                f"the Yukawa kernel is evaluated for l <= {MAX_DEGREE} "
                f"(to about 3e-14 of max|V|), got l = {l}"
            )
        a, b = self.a, self.b
        return lambda p, q: partial_wave_yukawa(l, p, q, a, b)


@dataclass(frozen=True)
class CustomPotential:
    """Interaction given by its momentum-space form, radial form optional.

    Radial mean values and the configuration-space cross-check need
    ``radial``; momentum-space solves work from ``fourier`` alone, through
    the numeric partial-wave projection.
    """

    fourier: Callable[[float], float]
    radial: Optional[Callable[[float], float]] = None

    def radial_value(self, r: float) -> float:
        if self.radial is None:
            raise ConfigurationError(
                "radial observables need the configuration-space form of the "
                "potential, which this CustomPotential does not define"
            )
        return self.radial(r)

    def kernel(self, l: int) -> Kernel:
        fourier = self.fourier

        def evaluate(p, q):
            p_arr, q_arr = _momenta(p, q, "a custom kernel is")
            pairs = zip(p_arr.ravel().tolist(), q_arr.ravel().tolist())
            values = [partial_wave_numeric(l, pp, qq, fourier) for pp, qq in pairs]
            return np.array(values, dtype=float).reshape(p_arr.shape)

        return evaluate
