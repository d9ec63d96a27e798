import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import EDGE_POINTS, assert_finite_or_named
from lagmesh.errors import ConfigurationError, NumericalError
from lagmesh.mesh import build_mesh
from lagmesh.potentials import (
    CustomPotential,
    GaussianPotential,
    YukawaPotential,
    partial_wave_gaussian,
    partial_wave_numeric,
    partial_wave_yukawa,
    vft_gaussian,
    vft_yukawa,
)

momenta = st.floats(0.05, 20.0)


def gaussian_l0_closed_form(p, q, a, b):
    """Independent oracle: -(a / sqrt(pi) b p p') e^{-(p^2+p'^2)/4b^2} sinh(pp'/2b^2)."""
    return (
        -a
        / (math.sqrt(math.pi) * b * p * q)
        * math.exp(-(p * p + q * q) / (4.0 * b * b))
        * math.sinh(p * q / (2.0 * b * b))
    )


class TestFourierTransforms:
    def test_gaussian_at_origin(self):
        assert vft_gaussian(0.0, 1.0, 1.0) == pytest.approx(-1.0 / (8.0 * math.pi**1.5), rel=1e-14)

    def test_gaussian_decay(self):
        assert vft_gaussian(2.0, 1.0, 1.0) == pytest.approx(
            -math.exp(-1.0) / (8.0 * math.pi**1.5), rel=1e-14
        )
        assert vft_gaussian(60.0, 1.0, 1.0) == 0.0  # fully underflowed tail

    def test_yukawa_values(self):
        assert vft_yukawa(0.0, 1.0, 1.0) == pytest.approx(-1.0 / (2.0 * math.pi**2), rel=1e-14)
        assert vft_yukawa(1.0, 1.0, 1.0) == pytest.approx(-1.0 / (4.0 * math.pi**2), rel=1e-14)

    def test_yukawa_power_law_tail(self):
        assert vft_yukawa(1e4, 1.0, 1.0) == pytest.approx(-1.0 / (2.0 * math.pi**2 * 1e8), rel=1e-8)


class TestGaussianKernel:
    def test_matches_closed_form_l0(self):
        assert partial_wave_gaussian(0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
            gaussian_l0_closed_form(1.0, 1.0, 1.0, 1.0), rel=1e-13
        )
        # frozen from the closed form / angular quadrature oracle
        assert partial_wave_gaussian(0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
            -0.17831791741872940, rel=1e-12
        )

    def test_small_momentum_limit_finite(self):
        values = [partial_wave_gaussian(0, p, p, 1.0, 1.0) for p in (1e-3, 1e-5, 1e-7)]
        limit = -1.0 / (2.0 * math.sqrt(math.pi))  # sinh(y)/y -> 1
        assert values == pytest.approx([limit] * 3, rel=1e-6)

    def test_matches_numeric_l1(self):
        num = partial_wave_numeric(1, 1.0, 1.0, lambda k: vft_gaussian(k, 1.0, 1.0))
        assert partial_wave_gaussian(1, 1.0, 1.0, 1.0, 1.0) == pytest.approx(num, rel=1e-10)

    @pytest.mark.parametrize("l", [0, 1, 2, 8, 26])
    def test_array_call_equals_scalar_calls(self, l):
        # y = p p'/2b^2 on both sides of the branch point y = max(40, l^2),
        # interleaved, with p = 0 among them
        cut = math.sqrt(2.0 * max(40.0, l * l))
        p = np.array([0.01, cut - 1e-9, 0.5, cut + 1e-9, 0.0, 0.9 * cut, 10.0, 1.2 * cut, 0.2])
        q = np.array([0.3, cut, 2.0, cut, 1.5, cut, 200.0, cut, 0.05])
        y = p * q / 2.0
        assert (y < max(40.0, l * l)).sum() >= 3 and (y >= max(40.0, l * l)).sum() >= 3
        values = partial_wave_gaussian(l, p, q, 15.0, 1.0)
        assert values.tolist() == [
            partial_wave_gaussian(l, float(a), float(b), 15.0, 1.0) for a, b in zip(p, q)
        ]

    @pytest.mark.parametrize("b", [1.0, 1.5])
    def test_zero_momentum_is_the_limit(self, b):
        # p -> 0 in the l = 0 closed form: sinh(y)/(p p') -> 1/2b^2; i_l(0) = 0 for l > 0
        limit = -2.0 / (2.0 * math.sqrt(math.pi) * b**3) * math.exp(-(1.3 * 1.3) / (4.0 * b * b))
        for p, q in ((0.0, 1.3), (1.3, 0.0)):
            assert partial_wave_gaussian(0, p, q, 2.0, b) == pytest.approx(limit, rel=1e-15)
            assert partial_wave_gaussian(2, p, q, 2.0, b) == 0.0
        assert partial_wave_gaussian(0, 0.0, 0.0, 2.0, b) == pytest.approx(
            -2.0 / (2.0 * math.sqrt(math.pi) * b**3), rel=1e-15
        )

    def test_matches_40_digit_bessel_form(self):
        # -a/(2 sqrt(pi) b^3) e^(-s) i_l(y), i_l(y) = sqrt(pi/2y) I_{l+1/2}(y), on
        # random pairs of random meshes, for every degree up to the cap
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        for size in (10, 50, 200, 400):
            for _ in range(2):
                h, b = rng.uniform(0.1, 2.0), rng.uniform(0.3, 3.0)
                mesh = build_mesh(size, h)
                i = rng.integers(0, size, 8)
                # half the pairs near the diagonal, where V is largest; far pairs underflow
                near = np.clip(i[4:] + rng.integers(-2, 3, 4), 0, size - 1)
                j = np.concatenate([rng.integers(0, size, 4), near])
                p, q = mesh.scale * mesh.nodes[i], mesh.scale * mesh.nodes[j]
                for l in range(27):
                    values = partial_wave_gaussian(l, p, q, 3.0, b)
                    with mp.workdps(40):
                        reference = []
                        for pp, qq in zip(p.tolist(), q.tolist()):
                            y = mp.mpf(pp) * qq / (2 * mp.mpf(b) ** 2)
                            s = (mp.mpf(pp) ** 2 + mp.mpf(qq) ** 2) / (4 * mp.mpf(b) ** 2)
                            i_l = mp.sqrt(mp.pi / (2 * y)) * mp.besseli(l + mp.mpf(0.5), y)
                            v = -3 / (2 * mp.sqrt(mp.pi) * mp.mpf(b) ** 3) * mp.exp(-s) * i_l
                            reference.append(float(v))
                    reference = np.array(reference)
                    scale = np.max(np.abs(reference))
                    assert scale > 0.0
                    error = np.max(np.abs(values - reference))
                    assert error <= 1e-13 * scale, f"N={size} h={h} b={b} l={l}"

    def test_no_overflow_at_large_momenta(self):
        assert math.isfinite(partial_wave_gaussian(0, 600.0, 600.0, 1.0, 1.0))
        assert math.isfinite(partial_wave_gaussian(1, 700.0, 0.01, 1.0, 1.0))


class TestYukawaKernel:
    def test_l0_log_form(self):
        assert partial_wave_yukawa(0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
            -math.log(5.0) / (2.0 * math.pi), rel=1e-13
        )

    def test_l1_closed_form(self):
        expected = -(1.5 * 0.5 * math.log(5.0) - 1.0) / math.pi
        assert partial_wave_yukawa(1, 1.0, 1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert partial_wave_yukawa(1, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
            -0.06591511286129140, rel=1e-11
        )

    def test_unscreened_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            partial_wave_yukawa(0, 1.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("b", [1.0, 1.5])
    def test_zero_momentum_is_the_limit(self, b):
        # Q_0(x) -> 1/x as p p' -> 0, so V_0 -> -2a/(pi (b^2 + p^2 + p'^2));
        # Q_l(x) falls like x^-(l+1), so V_l -> 0 for l > 0
        limit = -4.0 / (math.pi * (b * b + 1.3 * 1.3))
        for p, q in ((0.0, 1.3), (1.3, 0.0)):
            assert partial_wave_yukawa(0, p, q, 2.0, b) == pytest.approx(limit, rel=1e-15)
            assert partial_wave_yukawa(2, p, q, 2.0, b) == 0.0
        # at p = p' = 0 and where p p' underflows
        for p in (0.0, 1e-300, 1e-160):
            assert partial_wave_yukawa(0, p, p, 2.0, b) == pytest.approx(
                -4.0 / (math.pi * b * b), rel=1e-15
            )
            assert partial_wave_yukawa(1, p, p, 2.0, b) == 0.0
        # the closed form near the origin agrees with the limit
        assert partial_wave_yukawa(0, 1e-8, 1.3, 2.0, b) == pytest.approx(limit, rel=1e-15)
        assert abs(partial_wave_yukawa(1, 1e-8, 1.3, 2.0, b)) <= 1e-8 * abs(limit)
        p, q = np.array([0.0, 1e-8, 1.3, 1e-300]), np.array([1.3, 1.3, 0.0, 1e-300])
        assert partial_wave_yukawa(0, p, q, 2.0, b).tolist() == [
            partial_wave_yukawa(0, float(x), float(y), 2.0, b) for x, y in zip(p, q)
        ]

    @pytest.mark.parametrize("p", [1e8, 1e9])
    def test_diagonal_at_large_momenta(self, p):
        # x = 1 + b^2/2p^2 rounds to 1 here; the offset b^2/2p^2 does not
        value = partial_wave_yukawa(0, p, p, 1.0, 1.0)
        expected = -1.0 / (math.pi * p * p) * 0.5 * math.log1p(4.0 * p * p)
        assert math.isfinite(value)
        assert abs(value - expected) <= 1e-15 * abs(expected)

    @staticmethod
    def _reference(mp, l, p, q, a, b):
        """-(a/pi p p') Q_l((b^2 + p^2 + p'^2)/(2 p p')) at 40 digits."""
        with mp.workdps(40):
            out = []
            for pp, qq in zip(np.ravel(p).tolist(), np.ravel(q).tolist()):
                pp, qq = mp.mpf(pp), mp.mpf(qq)
                x = (mp.mpf(b) ** 2 + pp**2 + qq**2) / (2 * pp * qq)
                out.append(float(-a / (mp.pi * pp * qq) * mp.re(mp.legenq(l, 0, x, type=3))))
        return np.array(out)

    def test_matches_40_digit_legendre_form(self):
        # on random pairs of random meshes plus the last diagonal pair, for
        # every degree up to the cap
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        for size in (10, 50, 200, 400):
            for _ in range(2):
                h, b = rng.uniform(0.1, 2.0), rng.uniform(0.3, 3.0)
                mesh = build_mesh(size, h)
                i = rng.integers(0, size, 8)
                # half the pairs near the diagonal, where V is largest
                near = np.clip(i[4:] + rng.integers(-2, 3, 4), 0, size - 1)
                j = np.concatenate([rng.integers(0, size, 4), near])
                i, j = np.append(i, size - 1), np.append(j, size - 1)
                p, q = mesh.scale * mesh.nodes[i], mesh.scale * mesh.nodes[j]
                for l in range(27):
                    values = partial_wave_yukawa(l, p, q, 3.0, b)
                    reference = self._reference(mp, l, p, q, 3.0, b)
                    scale = np.max(np.abs(reference))
                    assert scale > 0.0
                    error = np.max(np.abs(values - reference))
                    assert error <= 1e-13 * scale, f"N={size} h={h} b={b} l={l}"

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_last_diagonal_pair_of_a_large_mesh(self, l):
        # N=400, h=0.8, pair (400, 400): p = 1247, where x - 1 = b^2/2p^2
        # loses its leading digits if formed as x - 1
        mp = pytest.importorskip("mpmath")
        mesh = build_mesh(400, 0.8)
        p = mesh.scale * mesh.nodes[-1]
        value = partial_wave_yukawa(l, p, p, 10.0, 1.0)
        reference = float(self._reference(mp, l, p, p, 10.0, 1.0)[0])
        assert abs(value - reference) <= 1e-14 * abs(reference)


class TestNumericKernel:
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_constant_transform_projects_to_zero(self, l):
        assert abs(partial_wave_numeric(l, 1.0, 2.0, lambda k: 0.25)) < 1e-14

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_analytic_kernels_match_quadrature_on_grid(self, l):
        grid = (0.2, 0.5, 1.0, 2.0, 5.0)
        for p in grid:
            for q in grid:
                gauss = partial_wave_gaussian(l, p, q, 1.0, 1.0)
                num = partial_wave_numeric(l, p, q, lambda k: vft_gaussian(k, 1.0, 1.0))
                assert gauss == pytest.approx(num, rel=1e-9), f"gaussian l={l} p={p} q={q}"
                yuk = partial_wave_yukawa(l, p, q, 1.0, 1.0)
                num = partial_wave_numeric(l, p, q, lambda k: vft_yukawa(k, 1.0, 1.0))
                assert yuk == pytest.approx(num, rel=1e-9), f"yukawa l={l} p={p} q={q}"

    def test_subnormal_kernel_converges(self):
        # mesh pair (7, 43) of the g=15 Gaussian benchmark at N=50, h=0.5: the
        # kernel lies below the normal range, where successive estimates can
        # only agree to a few subnormal units, never to a relative tolerance
        mesh = build_mesh(50, 0.5)
        p, q = mesh.scale * mesh.nodes[6], mesh.scale * mesh.nodes[42]
        exact = partial_wave_gaussian(0, p, q, 15.0, 1.0)
        assert 0.0 < abs(exact) < np.finfo(float).tiny
        num = partial_wave_numeric(0, p, q, lambda k: vft_gaussian(k, 15.0, 1.0))
        assert abs(num - exact) <= 4 * np.finfo(float).smallest_subnormal


    def test_non_finite_transform_is_refused_at_its_first_point(self):
        # refused at once, naming k at the first node of the 32-point rule
        calls = []

        def v_ft(k):
            calls.append(k)
            return math.nan

        with pytest.raises(NumericalError, match=r"V_FT contains non-finite values, first at quadrature point 1 \(k = "):
            partial_wave_numeric(0, 1.0, 2.0, v_ft)
        assert len(calls) == 32

    def test_negative_degree_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            partial_wave_numeric(-1, 1.0, 2.0, lambda k: 0.25)


class TestKernelProperties:
    @given(momenta, momenta, st.integers(0, 26), st.integers(0, 26))
    def test_symmetry_is_exact(self, p, q, l_gauss, l_yukawa):
        assert partial_wave_gaussian(l_gauss, p, q, 2.0, 1.5) == partial_wave_gaussian(
            l_gauss, q, p, 2.0, 1.5
        )
        assert partial_wave_yukawa(l_yukawa, p, q, 2.0, 1.5) == partial_wave_yukawa(
            l_yukawa, q, p, 2.0, 1.5
        )

    @given(st.integers(0, 26), EDGE_POINTS, EDGE_POINTS)
    def test_gaussian_momentum_outside_the_domain_is_named(self, l, p, q):
        assert_finite_or_named(
            lambda: partial_wave_gaussian(l, p, q, 15.0, 1.0), [("p", p), ("p'", q)]
        )

    @given(st.integers(0, 26), EDGE_POINTS, EDGE_POINTS)
    def test_yukawa_momentum_outside_the_domain_is_named(self, l, p, q):
        assert_finite_or_named(
            lambda: partial_wave_yukawa(l, p, q, 10.0, 1.0), [("p", p), ("p'", q)]
        )

    @pytest.mark.parametrize("kernel", [partial_wave_gaussian, partial_wave_yukawa])
    def test_momenta_of_different_shapes_are_refused(self, kernel):
        with pytest.raises(ValueError, match=r"p and p' differ in shape: \(2,\) vs \(3,\)"):
            kernel(0, np.ones(2), np.ones(3), 10.0, 1.0)

    @given(momenta, momenta)
    def test_s_wave_kernels_attractive(self, p, q):
        assert partial_wave_gaussian(0, p, q, 1.0, 1.0) < 0.0
        assert partial_wave_yukawa(0, p, q, 1.0, 1.0) < 0.0


class TestPotentialSpecs:
    def test_gaussian_radial_values(self):
        assert GaussianPotential(15.0, 1.0).radial_value(1e-9) == pytest.approx(-15.0, rel=1e-12)
        assert GaussianPotential(3.0, 1.0).radial_value(1.0) == pytest.approx(-3.0 / math.e, rel=1e-14)

    def test_yukawa_radial_value(self):
        assert YukawaPotential(10.0, 1.0).radial_value(1.0) == pytest.approx(-10.0 / math.e, rel=1e-14)

    def test_positivity_required(self):
        with pytest.raises(ConfigurationError):
            GaussianPotential(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            YukawaPotential(1.0, 0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("potential", [GaussianPotential, YukawaPotential])
    @pytest.mark.parametrize("name", ["a", "b"])
    def test_non_finite_parameter_is_refused_by_name(self, potential, name, value):
        params = {"a": 10.0, "b": 1.0, name: value}
        with pytest.raises(ConfigurationError, match=f"got {name} = {value!r}"):
            potential(**params)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0], ids=["nan", "inf", "negative", "zero"])
    @pytest.mark.parametrize("kernel", [partial_wave_gaussian, partial_wave_yukawa])
    @pytest.mark.parametrize("name", ["a", "b"])
    def test_kernel_refuses_a_parameter_by_name(self, kernel, name, value):
        # the rule the potential classes apply, on the public kernels themselves
        params = {"a": 10.0, "b": 1.0, name: value}
        with pytest.raises(ConfigurationError, match=f"got {name} = {value!r}"):
            kernel(0, 1.0, 2.0, **params)

    def test_custom_kernel_goes_through_quadrature(self):
        custom = CustomPotential(fourier=lambda k: vft_gaussian(k, 1.0, 1.0))
        kernel = custom.kernel(0)
        assert kernel(1.0, 1.0) == pytest.approx(
            gaussian_l0_closed_form(1.0, 1.0, 1.0, 1.0), rel=1e-10
        )

    def test_custom_without_radial_form_cannot_do_radial_observables(self):
        custom = CustomPotential(fourier=lambda k: 0.0)
        with pytest.raises(ConfigurationError):
            custom.radial_value(1.0)

    @pytest.mark.parametrize(
        "potential, cap", [(GaussianPotential, 26), (YukawaPotential, 26)], ids=["gaussian", "yukawa"]
    )
    def test_degree_cap_is_a_configuration_error(self, potential, cap):
        values = potential(10.0, 1.0).kernel(cap)(np.array([0.5, 2.0]), np.array([1.0, 3.0]))
        assert values.shape == (2,) and np.all(np.isfinite(values)) and np.all(values < 0.0)
        with pytest.raises(ConfigurationError, match=f"l <= {cap}"):
            potential(10.0, 1.0).kernel(cap + 1)

    def test_gaussian_kernel_refuses_degrees_past_the_cap(self):
        with pytest.raises(ValueError):
            partial_wave_gaussian(27, 1.0, 1.0, 1.0, 1.0)

    def test_custom_kernel_keeps_the_array_shape(self):
        kernel = CustomPotential(fourier=lambda k: vft_gaussian(k, 1.0, 1.0)).kernel(0)
        p = np.array([[0.5, 1.0], [2.0, 1.0]])
        values = kernel(p, p.T)
        assert values.shape == (2, 2)
        assert values[0, 1] == values[1, 0]

    def test_kernel_symmetry_attribute(self):
        kernel = YukawaPotential(10.0, 1.0).kernel(1)
        assert kernel(0.3, 2.0) == kernel(2.0, 0.3)
