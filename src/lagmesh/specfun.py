"""Special functions for the Laguerre mesh and the analytic partial-wave kernels.

Everything here is a pure real-valued function: Laguerre polynomials, their
zeros and the associated Gauss quadrature weights, Legendre functions of
the second kind, and spherical Bessel functions.
"""

import math

import numpy as np

from .errors import NumericalError
from .linalg import _two_sum

__all__ = [
    "laguerre_weighted",
    "laguerre_zeros",
    "laguerre_weights",
    "legendre_q",
    "spherical_bessel_j",
]

_SPLITTER = 134217729.0  # 2^27 + 1: Dekker's split keeps 26 bits in the head
_DD_RESCALE = 2.0**500


def _domain_points(x, what: str, name: str) -> np.ndarray:
    """x as a float array; its first point that is not finite and >= 0, NaN
    included, raises ValueError naming it."""
    x = np.asarray(x, dtype=float)
    bad = x[~((x >= 0.0) & (x < math.inf))]
    if bad.size:
        raise ValueError(f"{what} defined on finite {name} >= 0, got {name} = {float(bad[0])!r}")
    return x


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = head + tail, each with at most 26 significant bits (Dekker)."""
    t = _SPLITTER * a
    head = t - (t - a)
    return head, a - head


def _dd_newton_step(N: int, x: np.ndarray) -> np.ndarray:
    """Newton correction -x q_N / (N (q_N + N q_{N-1})) at every element of x,
    with q_N evaluated in double-double.

    q_k = (-1)^k k! L_k obeys the monic recurrence
        q_{k+1} = (x - 2k - 1) q_k - k^2 q_{k-1},  q_0 = 1,
    run on pairs (hi, lo) with Knuth's TwoSum and Dekker's TwoProduct, the
    error-free transformations of Ogita, Rump and Oishi, SIAM J. Sci.
    Comput. 26 (2005) 1955. x - (2k + 1) is formed as an exact pair, and
    k^2 < 2^18 times each 26-bit half of a double is exact. For x below
    2^19, one step grows max(|q_k|, |q_{k-1}|) by less than 2^20, so scaling
    the pairs by 2^-500 once they pass 2^500, checked every 8 steps, keeps
    every product finite; the scaling is exact and per element, so an array
    call equals the scalar calls bit for bit. q_{N-1} enters only the
    derivative and stays in double.
    """
    q_hi, q_lo = np.ones_like(x), np.zeros_like(x)
    r_hi, r_lo = np.zeros_like(x), np.zeros_like(x)
    r_head, r_tail = r_hi, r_lo
    for k in range(N):
        if k % 8 == 0:
            big = np.maximum(np.abs(q_hi), np.abs(r_hi)) > _DD_RESCALE
            if big.any():
                factor = np.where(big, 1.0 / _DD_RESCALE, 1.0)
                q_hi, q_lo, r_hi, r_lo = q_hi * factor, q_lo * factor, r_hi * factor, r_lo * factor
                r_head, r_tail = r_head * factor, r_tail * factor
        a, a_lo = _two_sum(x, np.full_like(x, -(2.0 * k + 1.0)))
        # p + p_lo = (a + a_lo)(q_hi + q_lo) to double-double (TwoProduct)
        a_head, a_tail = _split(a)
        q_head, q_tail = _split(q_hi)
        p = a * q_hi
        p_lo = ((a_head * q_head - p) + a_head * q_tail + a_tail * q_head) + a_tail * q_tail
        p_lo += a * q_lo + a_lo * q_hi
        # s + s_lo = k^2 (r_hi + r_lo); the two half products are exact
        kk = float(k * k)
        s = kk * r_hi
        s_lo = (kk * r_head - s) + kk * r_tail + kk * r_lo
        hi, lo = _two_sum(p, -s)
        lo += p_lo - s_lo
        r_hi, r_lo, r_head, r_tail = q_hi, q_lo, q_head, q_tail
        q_hi, q_lo = _two_sum(hi, lo)
    q = q_hi + q_lo
    return -x * q / (N * (q + N * r_hi))


def laguerre_zeros(N: int) -> np.ndarray:
    """Zeros of L_N, ascending, each the double nearest the exact zero.

    Newton polishes the eigenvalues of the Jacobi matrix (Golub and Welsch,
    Math. Comp. 23 (1969) 221), each root on its own, with L_N evaluated in
    double-double (``_dd_newton_step``), until a step has |dz| <= 1e-11 z.
    From the LAPACK eigenvalues that is one step for every N <= 512; starts
    off by 1e-5 relative take at most four. Against the exact zeros every
    root of every N up to 512 is correctly rounded, with plain double
    arithmetic only.
    """
    if not 1 <= N <= 512:
        raise ValueError(f"mesh size must satisfy 1 <= N <= 512, got {N}")
    jacobi = np.diag(2.0 * np.arange(N) + 1.0)
    np.fill_diagonal(jacobi[1:], np.arange(1.0, N))  # eigvalsh reads the lower triangle
    z = np.linalg.eigvalsh(jacobi)
    live = np.arange(N)
    for _ in range(100):
        if not live.size:
            break
        dz = _dd_newton_step(N, z[live])
        z[live] += dz
        live = live[~(np.abs(dz) <= 1e-11 * z[live])]
    if live.size:
        raise NumericalError(
            f"Laguerre root {live[0] + 1}/{N} did not converge "
            f"(last at x={float(z[live[0]])!r})"
        )
    if np.any(np.diff(z) <= 0.0):
        raise NumericalError(f"Laguerre zeros for N={N} are not strictly increasing")
    return z


# Products, factorials and exponentials that leave the double range are
# carried as a mantissa and a power of two.


def _frexp_product(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Product along the last axis as (mantissa, exponent); overwrites factors.

    The ``np.frexp`` mantissas are multiplied and their exponents summed; N
    mantissas in [1/2, 1) multiply to at least 2^-N, so nothing underflows
    for N <= 512.
    """
    mantissas, exponents = np.frexp(factors, out=(factors, np.empty(factors.shape, dtype=np.intc)))
    product, exponent = np.frexp(np.prod(mantissas, axis=-1))
    exponent += exponents.sum(axis=-1, dtype=np.intc)
    return product, exponent


def _factorial(N: int) -> tuple[float, int]:
    """N! as (mantissa, exponent), the mantissa rounded once from the exact integer."""
    factorial = math.factorial(N)
    exponent = factorial.bit_length()
    return factorial / (1 << exponent), exponent


# ln 2 = _LN2_HI + _LN2_LO (fdlibm); _LN2_HI has 32 significant bits, so
# n * _LN2_HI is exact for every |n| < 2^21
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_EXP_SHIFT = 2.0**20  # cap on |n|; past |x| = 2^20 ln 2 the results here under- or overflow


def _exp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^x as (e^r, n) with e^x = 2^n e^r and the Cody-Waite reduction r = x - n ln 2."""
    n = np.rint(np.clip(x / math.log(2.0), -_EXP_SHIFT, _EXP_SHIFT))
    r = (x - n * _LN2_HI) - n * _LN2_LO
    return np.exp(r), n.astype(np.intc)


def laguerre_weights(zeros) -> np.ndarray:
    """Gauss-Laguerre weights rescaled by exp(x_i), from the zeros of L_N:
        w_i = e^(x_i) / x_i * (N!)^2 / prod_{j != i} (x_i - x_j)^2.

    The product overflows near N = 200 and e^(x_i) beyond x = 709, so every
    factor is carried as a mantissa and a power of two. The product's
    mantissa is squared once at the end, since a product of N squared
    mantissas could underflow at N = 512. Against 40-digit weights at the
    exact zeros, at twelve roots per size, the relative error is at most
    8.8e-15 at N = 200, 3.2e-14 at N = 400 and 2.7e-14 at N = 512.
    """
    x = np.asarray(zeros, dtype=float)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    product, exponent = _frexp_product(diff)
    factorial_mant, factorial_exp = _factorial(x.size)
    scaled, n = _exp(x)
    w = np.ldexp(scaled / x * (factorial_mant / product) ** 2, n + 2 * (factorial_exp - exponent))
    if not np.all(np.isfinite(w)):
        raise NumericalError(f"quadrature weights overflowed for N={x.size}")
    return w


def laguerre_weighted(zeros, x):
    """L_N(x) exp(-x/2) from the N zeros of L_N, scalar or elementwise on an array:
        L_N(x) = (-1)^N / N! prod_k (x - x_k).

    The product, N! and exp(-x/2) are carried as in ``laguerre_weights``, so
    the value stays representable for every N <= 512 at any finite x >= 0;
    the first other point raises ``ValueError`` naming it. Each
    point takes its own product, so an array call equals the scalar calls
    bit for bit. The rounding of the zeros sets the error: against 60-digit
    values at N = 200-512 it is at most 1.1e-16 x_k / |x - x_k| relative
    near a zero x_k, 1.1e-7 at x_k (1 +- 1e-9), and 5.5e-14 midway between
    zeros.
    """
    zeros = np.asarray(zeros, dtype=float)
    x_arr = _domain_points(x, "L_N(x) exp(-x/2) is", "x")
    flat = x_arr.reshape(-1)
    product, exponent = _frexp_product(flat[:, None] - zeros)
    factorial_mant, factorial_exp = _factorial(zeros.size)
    scaled, n = _exp(-0.5 * flat)
    sign = -1.0 if zeros.size % 2 else 1.0
    out = np.ldexp(sign * product / factorial_mant * scaled, exponent - factorial_exp + n)
    return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)


MAX_DEGREE = 26  # highest l of legendre_q and of the analytic partial-wave kernels
_Q_START = 18.0  # downward start degree l + ceil(18 / ln rho): rho^(-2(K - l)) <= e^(-36)
_ASYMPTOTIC = 2.0**500  # above this offset, Q_l/Q_0 = l!/(2l+1)!! d^-l to relative order 1/d


def legendre_q(l: int, d):
    """Legendre function of the second kind Q_l(1 + d) for offsets d = x - 1 > 0
    and 0 <= l <= 26, scalar or elementwise on an array.

    The offset keeps the logarithmic singularity at x = 1 free of
    cancellation: Q_0 = 1/2 log1p(2/d), and every (2k+1) x below is taken as
    (2k+1) d + (2k+1). With rho = x + sqrt(x^2 - 1), where l ln rho <= 1 the
    forward recurrence
        (k+1) Q_{k+1} = (2k+1) x Q_k - k Q_{k-1},  Q_1 = x Q_0 - 1,
    runs from Q_0; it amplifies rounding by about rho^(2l) <= e^2. Elsewhere
    Q_l is the minimal solution: the ratios r_k = Q_k/Q_{k-1} come from
    Gautschi's downward recurrence r_k = k / ((2k+1) x - (k+1) r_{k+1})
    (SIAM Rev. 9 (1967) 24), started at r_{K+1} = 1/rho, which is within
    about 1/(2K+3) of the true ratio, from K = l + ceil(18 / ln rho), so the
    start's error is damped by rho^(-2(K-l)) <= e^(-36); then
    Q_l = Q_0 r_1 ... r_l. Against 40-digit mpmath on 281 offsets
    d = 1e-10..1e4 the worst relative error is 4.9e-15 for l <= 8 and
    2.8e-14 for l <= 26.
    """
    if not 0 <= l <= MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_DEGREE}], got {l}")
    d_arr = np.asarray(d, dtype=float)
    ds = d_arr.reshape(-1)
    bad = ds[~(ds > 0.0)]
    if bad.size:
        raise ValueError(f"Q_l requires x - 1 > 0, got x - 1 = {float(bad[0])!r}")
    out = 0.5 * np.log1p(2.0 / ds)
    if l > 0:
        up = ds <= 2.0 * math.sinh(0.5 / l) ** 2  # l ln rho <= 1
        out[up] = _q_forward(l, ds[up], out[up])
        out[~up] *= _q_ratio_product(l, ds[~up])
    return float(out[0]) if d_arr.ndim == 0 else out.reshape(d_arr.shape)


def _q_forward(l: int, d: np.ndarray, q0: np.ndarray) -> np.ndarray:
    q_prev, q = q0, d * q0 + (q0 - 1.0)
    for k in range(1, l):
        q_prev, q = q, ((2 * k + 1) * d * q + ((2 * k + 1) * q - k * q_prev)) / (k + 1)
    return q


def _q_ratio_product(l: int, d: np.ndarray) -> np.ndarray:
    """r_1 ... r_l = Q_l/Q_0, each element recurring from its own start degree K.

    The loop runs from the largest K down; an element's ratio is updated only
    from its own K on, so an array call equals the scalar calls bit for bit.
    Past d = 2^500 the product is its asymptote l!/(2l+1)!! d^-l, exact to
    relative order 1/d, taken as l!/(2l+1)!! (1/d)^l because (2k+1) d and
    d (2 + d) overflow near the top of the double range.
    """
    big = d > _ASYMPTOTIC
    product = np.ones_like(d)
    product[big] = math.prod(k / (2 * k + 1) for k in range(1, l + 1)) * (1.0 / d[big]) ** l
    d = d[~big]
    if not d.size:
        return product
    rho_m1 = d + np.sqrt(d * (2.0 + d))
    start = l + np.ceil(_Q_START / np.log1p(rho_m1))
    r = 1.0 / (1.0 + rho_m1)
    small = np.ones_like(d)
    for k in range(int(start.max()), 0, -1):
        live = start >= k
        r[live] = k / ((2 * k + 1) * d[live] + ((2 * k + 1) - (k + 1) * r[live]))
        if k <= l:
            small *= r
    product[~big] = small
    return product


def spherical_bessel_j(l: int, x):
    """Spherical Bessel function j_l(x) for finite x >= 0, scalar or array;
    the first other point raises ``ValueError`` naming it.

    The ascending recurrence is stable only for x >= l; below that the power
    series around the origin is summed instead, which avoids the catastrophic
    cancellation of the trigonometric closed forms at small arguments.
    """
    if l < 0:
        raise ValueError(f"order must be >= 0, got {l}")
    x_arr = _domain_points(x, "j_l is", "x")
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    out = np.empty_like(x_arr)
    small = x_arr < l + 1.0
    if np.any(small):
        out[small] = _bessel_series(l, x_arr[small], -1.0)
    large = ~small
    if np.any(large):
        out[large] = _bessel_recurrence(l, x_arr[large])
    return float(out[0]) if scalar else out


def _bessel_series(l: int, x: np.ndarray, sign: float) -> np.ndarray:
    # x^l/(2l+1)!! sum_k (sign x^2/2)^k / (k! (2l+3)...(2l+2k+1)) is j_l for
    # sign = -1 and i_l for sign = +1 (DLMF 10.53.1, 10.53.3); i_l takes ~x terms
    pref = np.ones_like(x)
    for k in range(1, l + 1):
        pref *= x / (2 * k + 1)
    w = sign * 0.5 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 1000):
        term *= w / (k * (2 * l + 2 * k + 1))
        total += term
        if np.all(np.abs(term) <= 1e-18 * np.abs(total)):
            break
    return pref * total


def _bessel_recurrence(l: int, x: np.ndarray) -> np.ndarray:
    j_prev = np.sin(x) / x
    if l == 0:
        return j_prev
    j = j_prev / x - np.cos(x) / x
    for k in range(1, l):
        j_prev, j = j, (2 * k + 1) / x * j - j_prev
    return j
