import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EDGE_POINTS, assert_finite_or_named
from lagmesh.errors import NumericalError
from lagmesh.specfun import (
    MAX_DEGREE,
    _dd_newton_step,
    laguerre_weighted,
    laguerre_weights,
    laguerre_zeros,
    legendre_q,
    spherical_bessel_j,
)


_zeros = functools.lru_cache(maxsize=8)(laguerre_zeros)


def _laguerre_oracle(N, x):
    """L_N(x) exp(-x/2) from NumPy's Laguerre-series evaluation."""
    return np.polynomial.laguerre.lagval(x, [0.0] * N + [1.0]) * np.exp(-np.asarray(x) / 2)


class TestLaguerreValue:
    def test_degree_zero_is_one(self):
        assert laguerre_weighted([], 5.0) == pytest.approx(_laguerre_oracle(0, 5.0), rel=1e-15)

    def test_degree_one(self):
        assert laguerre_weighted(laguerre_zeros(1), 2.0) == pytest.approx(
            _laguerre_oracle(1, 2.0), rel=1e-15
        )

    def test_degree_two_explicit_polynomial(self):
        x = np.array([0.5, 2.0, 7.0])
        assert laguerre_weighted(laguerre_zeros(2), x) == pytest.approx(
            _laguerre_oracle(2, x), rel=1e-14
        )

    def test_weighted_matches_plain_at_moderate_arguments(self):
        x = np.linspace(0.1, 40.0, 57)
        assert laguerre_weighted(laguerre_zeros(12), x) == pytest.approx(
            _laguerre_oracle(12, x), rel=1e-12
        )

    def test_weighted_survives_large_mesh_arguments(self):
        # beyond the last zero of L_512 the damped value must stay finite
        vals = laguerre_weighted(
            laguerre_zeros(512), np.array([1000.0, 2003.0, 2500.0, 1e12, 1e300])
        )
        assert np.all(np.isfinite(vals))

    @settings(deadline=None)  # the first draw of each size finds its zeros
    @given(st.sampled_from([1, 10, 200, 512]), EDGE_POINTS)
    def test_point_outside_the_domain_is_named(self, n, x):
        zeros = _zeros(n)
        assert_finite_or_named(lambda: laguerre_weighted(zeros, x), [("x", x)])

    @pytest.mark.parametrize("n", [1, 2, 17, 400, 512])
    def test_array_equals_scalar_calls(self, n):
        # points below, at, between and beyond the roots
        zeros = laguerre_zeros(n)
        x = np.array([0.0, 1e-3, 0.5, 3.0, 40.0, zeros[-1], 700.0, 1400.0, 1990.0, 2100.0])
        values = laguerre_weighted(zeros, x)
        assert np.all(np.isfinite(values))
        assert values.tolist() == [laguerre_weighted(zeros, v) for v in x.tolist()]

    @pytest.mark.parametrize("n", [50, 200, 400, 512])
    def test_near_the_zeros_against_60_digits(self, n):
        # at x_k (1 +- 1e-9) the value is a small difference of the
        # polynomial's large terms; the product over the zeros keeps it to
        # the rounding of the zeros, about 1e-16 / 1e-9 relative
        mp = pytest.importorskip("mpmath")
        zeros = laguerre_zeros(n)
        roots = zeros[np.linspace(0, n - 1, 20).round().astype(int)]
        x = np.concatenate([roots * (1.0 - 1e-9), roots * (1.0 + 1e-9)])
        values = laguerre_weighted(zeros, x)
        with mp.workdps(60):
            reference = []
            for point in x.tolist():
                t = mp.mpf(point)
                p_prev, p = mp.mpf(1), 1 - t
                for k in range(1, n):
                    p_prev, p = p, ((2 * k + 1 - t) * p - k * p_prev) / (k + 1)
                reference.append(float(p * mp.exp(-t / 2)))
        reference = np.array(reference)
        assert np.all(np.abs(values - reference) <= 1e-6 * np.abs(reference))


# Exact zeros of L_N: Newton from the Golub-Welsch eigenvalues in 2^-160
# fixed point on Python integers, so no multiple-precision library is needed.
# Rounding each Fraction to float gives the correctly rounded zero.

_FRACTION_BITS = 160
_EXACT_SIZES = list(range(1, 41)) + [50, 64, 100, 200, 256, 400, 512]


def _golub_welsch(N: int) -> np.ndarray:
    """Zeros of L_N as the eigenvalues of the Jacobi matrix."""
    jacobi = (
        np.diag(2.0 * np.arange(N) + 1.0)
        + np.diag(np.arange(1.0, N), 1)
        + np.diag(np.arange(1.0, N), -1)
    )
    return np.linalg.eigvalsh(jacobi)


@functools.lru_cache(maxsize=None)
def _exact_zeros(N: int) -> tuple[Fraction, ...]:
    one = 1 << _FRACTION_BITS
    x = np.array([int(math.ldexp(v, _FRACTION_BITS)) for v in _golub_welsch(N)], dtype=object)
    for _ in range(8):
        p_prev = np.full(N, one, dtype=object)
        p = one - x
        for k in range(1, N):
            p_prev, p = p, (((2 * k + 1) * one - x) * p - k * one * p_prev) // ((k + 1) * one)
        dx = -p * x // (N * (p - p_prev))
        x += dx
        # Newton squares the error, so after a step below 2^-100 only the
        # fixed-point rounding is left
        if max(abs(d) for d in dx) <= one >> 100:
            return tuple(Fraction(int(v), one) for v in x)
    raise AssertionError(f"exact zeros of L_{N} did not converge")


def _ulps_off_exact(N: int) -> np.ndarray:
    """Distance in ulps of each computed zero from the correctly rounded one."""
    nearest = np.array([float(zero) for zero in _exact_zeros(N)])
    return np.abs(laguerre_zeros(N).view(np.int64) - nearest.view(np.int64))


class TestLaguerreZeros:
    def test_single_zero(self):
        assert laguerre_zeros(1) == pytest.approx([1.0], abs=1e-15)

    def test_two_zeros_closed_form(self):
        assert laguerre_zeros(2) == pytest.approx(
            [2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)], rel=1e-15
        )

    def test_three_zeros_against_cubic_root_oracle(self):
        # roots of 1 - 3x + 3x^2/2 - x^3/6
        oracle = np.sort(np.roots([-1.0 / 6.0, 1.5, -3.0, 1.0]).real)
        zeros = laguerre_zeros(3)
        assert zeros == pytest.approx(oracle, rel=1e-13)
        assert zeros == pytest.approx([0.4157745568, 2.2942803603, 6.2899450829], abs=1e-10)

    @pytest.mark.parametrize("n", [5, 20, 64])
    def test_against_tridiagonal_construction(self, n):
        assert laguerre_zeros(n) == pytest.approx(_golub_welsch(n), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 19, 40])
    def test_interlacing(self, n):
        inner = laguerre_zeros(n)
        outer = laguerre_zeros(n + 1)
        assert np.all(outer[:-1] < inner) and np.all(inner < outer[1:])

    def test_residual_contract(self):
        # the Newton step -L_N / L_N' is below 1e-13 of the root
        for n in (10, 100):
            zeros = laguerre_zeros(n)
            assert np.all(np.abs(_dd_newton_step(n, zeros)) <= 1e-13 * zeros)

    @pytest.mark.parametrize("n", [0, 513])
    def test_out_of_range_rejected(self, n):
        with pytest.raises(ValueError):
            laguerre_zeros(n)

    @pytest.mark.parametrize("n", _EXACT_SIZES)
    def test_against_exact_zeros(self, n):
        # every zero is the double nearest the exact one
        assert not _ulps_off_exact(n).any()

    @pytest.mark.parametrize("n", _EXACT_SIZES)
    def test_equals_sequential_recurrence(self, n):
        # the root-by-root recurrence is an independent path to the same zeros
        assert np.array_equal(laguerre_zeros(n), _sequential_zeros(n))

    def test_exact_zero_misses_in_total(self):
        assert sum(np.count_nonzero(_ulps_off_exact(n)) for n in _EXACT_SIZES) == 0

    def test_exact_reference_closed_forms(self):
        assert _exact_zeros(1) == (1,)
        one = 1 << _FRACTION_BITS
        root2 = Fraction(math.isqrt(2 * one * one), one)
        for zero, closed in zip(_exact_zeros(2), (2 - root2, 2 + root2)):
            assert abs(zero - closed) <= Fraction(1, 1 << 150)

    @pytest.mark.parametrize("n", [10, 100, 512])
    def test_poorer_start_gives_the_same_zeros(self, n, monkeypatch):
        # eigenvalues off by 1e-9 relative, ten times the LAPACK bound
        # eps ||J|| at root 1 of N = 512, still polish to the same doubles
        zeros = laguerre_zeros(n)
        eigvalsh = np.linalg.eigvalsh

        def perturbed(a):
            start = eigvalsh(a)
            return start * (1.0 + 1e-9 * np.where(np.arange(start.size) % 2, 1.0, -1.0))

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        assert np.array_equal(laguerre_zeros(n), zeros)

    @pytest.mark.parametrize("n", [1, 2, 17, 400, 512])
    def test_dd_newton_step_array_equals_scalar_steps(self, n):
        # each element rescales its double-double pairs on its own
        x = np.array([1e-3, 0.5, 3.0, 40.0, 700.0, 1400.0, 1990.0, 2100.0])
        steps = _dd_newton_step(n, x)
        assert np.all(np.isfinite(steps))
        assert steps.tolist() == [_dd_newton_step(n, x[i : i + 1])[0] for i in range(x.size)]


# The scalar recurrence and Newton step, and the root-by-root iteration
# built on them: each root guessed from the two before it and polished in
# double, then every root corrected once by the package's double-double
# Newton step.


def _sequential_laguerre_pair(N: int, x):
    p_prev = 1.0
    p = 1.0 - x
    for k in range(1, N):
        p_prev, p = p, ((2 * k + 1 - x) * p - k * p_prev) / (k + 1)
        if abs(p) > 1e250:
            p /= 1e250
            p_prev /= 1e250
    return p, p_prev


def _sequential_newton_step(N: int, x):
    p, p_prev = _sequential_laguerre_pair(N, x)
    return -p * x / (N * (p - p_prev))


def _sequential_zeros(N: int) -> np.ndarray:
    zeros = np.empty(N)
    z = 0.0
    for i in range(N):
        if i == 0:
            z = 3.0 / (1.0 + 2.4 * N)
        elif i == 1:
            z += 15.0 / (1.0 + 2.5 * N)
        else:
            step = i - 1
            z += ((1.0 + 2.55 * step) / (1.9 * step)) * (z - zeros[i - 2])
        for _ in range(100):
            dz = _sequential_newton_step(N, z)
            z += dz
            if abs(dz) <= 1e-11 * z:
                break
        else:
            raise NumericalError(
                f"Laguerre root {i + 1}/{N} did not converge (last at x={z!r})"
            )
        zeros[i] = z
    dz = _dd_newton_step(N, zeros)
    if not np.all(np.abs(dz) <= 1e-11 * zeros):
        raise NumericalError(f"Laguerre zeros for N={N} fail the double-double correction")
    zeros += dz
    if np.any(np.diff(zeros) <= 0.0):
        raise NumericalError(f"Laguerre zeros for N={N} are not strictly increasing")
    return zeros


class TestLaguerreWeights:
    def test_single_point_weight_is_e(self):
        w = laguerre_weights(laguerre_zeros(1))
        assert w == pytest.approx([math.e], rel=1e-14)

    def test_two_point_against_classical_weights(self):
        zeros = laguerre_zeros(2)
        classical = np.array([(2.0 + math.sqrt(2.0)) / 4.0, (2.0 - math.sqrt(2.0)) / 4.0])
        assert laguerre_weights(zeros) == pytest.approx(classical * np.exp(zeros), rel=1e-13)

    @pytest.mark.parametrize("n", [1, 5, 20, 50, 200, 512])
    def test_unit_normalization(self, n):
        zeros = laguerre_zeros(n)
        weights = laguerre_weights(zeros)
        assert np.all(np.isfinite(weights)) and np.all(weights > 0.0)
        total = math.fsum(w * math.exp(-x) for w, x in zip(weights, zeros))
        assert total == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 5, 20, 50, 200])
    def test_monomial_exactness(self, n):
        # sum_k w_k x_k^m e^{-x_k} = m! for every m <= 2N-1
        zeros = laguerre_zeros(n)
        log_w = np.log(laguerre_weights(zeros))
        log_x = np.log(zeros)
        for m in range(2 * n):
            total = np.exp(log_w + m * log_x - zeros - math.lgamma(m + 1)).sum()
            assert total == pytest.approx(1.0, rel=1e-11), f"monomial degree {m}"

    @pytest.mark.parametrize("n", [200, 512])
    def test_against_40_digit_weights_at_exact_zeros(self, n):
        # e^x_i (N!)^2 / (x_i prod_{j != i} (x_i - x_j)^2) at twelve roots
        # spread from the first to the last
        mp = pytest.importorskip("mpmath")
        exact = _exact_zeros(n)
        roots = np.linspace(0, n - 1, 12).round().astype(int)
        weights = laguerre_weights(np.array([float(zero) for zero in exact]))[roots]
        with mp.workdps(40):
            x = [mp.mpf(zero.numerator) / zero.denominator for zero in exact]
            square_factorial = mp.factorial(n) ** 2
            reference = []
            for i in roots.tolist():
                product = mp.fprod(x[i] - x[j] for j in range(n) if j != i)
                reference.append(float(mp.exp(x[i]) * square_factorial / (x[i] * product**2)))
        assert np.all(np.abs(weights - reference) <= 5e-14 * np.array(reference))


class TestLegendreQ:
    # legendre_q takes the offset d = x - 1
    def test_closed_forms_at_two(self):
        assert legendre_q(0, 1.0) == pytest.approx(0.5 * math.log(3.0), rel=1e-14)
        assert legendre_q(1, 1.0) == pytest.approx(math.log(3.0) - 1.0, rel=1e-13)
        assert legendre_q(2, 1.0) == pytest.approx(5.5 * 0.5 * math.log(3.0) - 3.0, rel=1e-12)

    @pytest.mark.parametrize("l", range(MAX_DEGREE + 1))
    @pytest.mark.parametrize("x", [1.1, 1.5, 2.0, 10.0])
    def test_against_integral_oracle(self, l, x):
        # Q_l(x) = 1/2 int_{-1}^{1} P_l(t)/(x - t) dt, Gauss-Legendre + fsum;
        # x - 1 is exact for these x
        t, w = np.polynomial.legendre.leggauss(400)
        direct = 0.5 * math.fsum(w * np.polynomial.legendre.Legendre.basis(l)(t) / (x - t))
        mine = legendre_q(l, x - 1.0)
        assert abs(mine - direct) <= 1e-9 * max(1.0, abs(direct))

    @pytest.mark.parametrize("l", range(MAX_DEGREE + 1))
    def test_against_40_digit_legenq(self, l):
        # relative accuracy where the quadrature oracle is too coarse: at the
        # singularity, and past x = 2 where Q_l falls like x^-(l+1)
        mp = pytest.importorskip("mpmath")
        d = np.array([1e-12, 1e-6, 1e-3, 0.05, 0.1, 0.5, 1.0, 9.0, 1e3])
        values = legendre_q(l, d)
        with mp.workdps(40):
            reference = np.array(
                [float(mp.re(mp.legenq(l, 0, 1 + mp.mpf(dd), type=3))) for dd in d.tolist()]
            )
        assert np.all(np.abs(values - reference) <= 1e-13 * np.abs(reference))

    @pytest.mark.parametrize("l", range(MAX_DEGREE + 1))
    def test_array_call_equals_scalar_calls(self, l):
        # both sides of the forward/downward switch at l ln rho = 1 (none for
        # l = 0), interleaved so that neighbouring elements start their
        # downward recurrences at different degrees
        switch = math.cosh(1.0 / max(l, 1)) - 1.0
        d = np.array([1e-9, 50.0, switch * (1.0 - 1e-12), switch, 2.0, 0.05 * switch,
                      1e4, switch * (1.0 + 1e-12), 1.7 * switch, 0.7, 1e-3, 3.0 * switch])
        if l:
            assert (d <= switch).sum() >= 4 and (d > switch).sum() >= 4
        values = legendre_q(l, d)
        assert values.tolist() == [legendre_q(l, float(v)) for v in d]
        assert legendre_q(l, d.reshape(3, 4)).tolist() == values.reshape(3, 4).tolist()
        with pytest.raises(ValueError):
            legendre_q(l, np.append(d, 0.0))

    @pytest.mark.parametrize("l", [1, 2, MAX_DEGREE])
    @pytest.mark.parametrize("d", [1e155, 1e300, 1e307, 8e307, 1e308])
    def test_huge_offsets_follow_the_asymptote(self, l, d):
        # past d = 1.3e154, d (2 + d) overflows, and near the top of the double
        # range so do (2k + 1) d and d + sqrt(d (2 + d)); Q_l(x) = l!/(2l+1)!! x^-(l+1)
        # to relative order x^-2, here rounded once from exact rationals, so
        # a subnormal or zero reference is the correctly rounded asymptote
        reference = float(
            Fraction(math.factorial(l), math.prod(range(1, 2 * l + 2, 2))) / (Fraction(d) + 1) ** (l + 1)
        )
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            value = legendre_q(l, d)
            array = legendre_q(l, np.array([d, 0.5]))
        assert abs(value - reference) <= 1e-13 * reference + 2 * math.ulp(0.0)
        assert array.tolist() == [value, legendre_q(l, 0.5)]

    def test_domain_and_degree_errors(self):
        with pytest.raises(ValueError):
            legendre_q(0, 0.0)
        with pytest.raises(ValueError):
            legendre_q(0, -0.5)
        with pytest.raises(ValueError):
            legendre_q(MAX_DEGREE + 1, 1.0)


class TestSphericalBessel:
    def test_origin(self):
        assert spherical_bessel_j(0, 0.0) == 1.0
        assert spherical_bessel_j(1, 0.0) == 0.0
        assert spherical_bessel_j(5, 0.0) == 0.0

    def test_zero_of_j0_at_pi(self):
        assert abs(spherical_bessel_j(0, math.pi)) < 1e-15

    def test_j1_at_one(self):
        assert spherical_bessel_j(1, 1.0) == pytest.approx(
            math.sin(1.0) - math.cos(1.0), rel=1e-14
        )

    def test_trigonometric_closed_forms(self):
        # recurrence/series vs explicit forms where those are well conditioned
        x = np.linspace(0.5, 30.0, 119)
        j0 = np.sin(x) / x
        j1 = np.sin(x) / x**2 - np.cos(x) / x
        j2 = (3.0 / x**3 - 1.0 / x) * np.sin(x) - 3.0 * np.cos(x) / x**2
        for l, oracle in ((0, j0), (1, j1), (2, j2)):
            assert np.max(np.abs(spherical_bessel_j(l, x) - oracle)) < 1e-12

    def test_small_argument_series_scale(self):
        # j_2(x) -> x^2/15 for x -> 0; the closed form would cancel badly here
        x = 1e-4
        assert spherical_bessel_j(2, x) == pytest.approx(x * x / 15.0, rel=1e-8)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            spherical_bessel_j(0, -1.0)

    @given(st.integers(0, 12), EDGE_POINTS)
    def test_point_outside_the_domain_is_named(self, l, x):
        assert_finite_or_named(lambda: spherical_bessel_j(l, x), [("x", x)])
