from fractions import Fraction

import numpy as np
import pytest

from conftest import yukawa10
from lagmesh import ConfigProblem, YukawaPotential, assemble_hamiltonian
from lagmesh.configspace import assemble_config_hamiltonian
from lagmesh.errors import NumericalError
from lagmesh.linalg import eigh_refined
from lagmesh.mesh import build_mesh, radial_form

EPS = np.finfo(float).eps


def _yukawa_hamiltonian(size=30):
    return assemble_hamiltonian(yukawa10(size=size, scale=0.8))


def _r2_form(size=30):
    return radial_form(build_mesh(size, 0.8), 0) / 0.64


def _graded_config_hamiltonian():
    # centrifugal corner of order 5e5 against eigenvalues of order one
    return assemble_config_hamiltonian(ConfigProblem(YukawaPotential(10.0, 1.0), 1, 0.5, 30, 0.05))


@pytest.mark.parametrize(
    "build",
    [_yukawa_hamiltonian, _r2_form, _graded_config_hamiltonian],
    ids=["yukawa_h", "r2", "config_l1"],
)
def test_matches_correctly_rounded_40_digit_spectrum(build):
    a = build()
    reference, reference_vectors = _spectrum_40_digits(a)

    w, v = eigh_refined(a)

    np.testing.assert_array_equal(w, reference)
    reference_vectors *= np.sign(np.sum(reference_vectors * v, axis=0))
    assert np.abs(v - reference_vectors).max() <= 2 * EPS


def _spectrum_40_digits(a):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        values, vectors = mpmath.eigsy(mpmath.matrix(a.tolist()))
        reference = np.array([float(x) for x in values])
        reference_vectors = np.array(vectors.tolist(), dtype=float)
    order = np.argsort(reference)
    return reference[order], reference_vectors[:, order]


@pytest.mark.parametrize(
    "build",
    [_yukawa_hamiltonian, _r2_form, _graded_config_hamiltonian],
    ids=["yukawa_h", "r2", "config_l1"],
)
def test_correctly_rounded_where_longdouble_is_double(build, monkeypatch):
    # MSVC and macOS-arm64 builds of NumPy have an 8-byte longdouble
    a = build()
    reference, _ = _spectrum_40_digits(a)
    monkeypatch.setattr(np, "longdouble", np.float64)
    w, _ = eigh_refined(a)
    np.testing.assert_array_equal(w, reference)


def _exact_quotient_and_norm(a_ints, v):
    """v^T A v / v^T v and v^T v as Fractions, for A as integers times 2^-1074."""
    v_ints = np.array([int(Fraction(x) * 2**1074) for x in v], dtype=object)
    norm2 = v_ints @ v_ints
    return Fraction(v_ints @ (a_ints @ v_ints), norm2 * 2**1074), Fraction(norm2, 2**2148)


@pytest.mark.parametrize("build", [_yukawa_hamiltonian, _r2_form], ids=["yukawa_h", "r2"])
def test_rayleigh_quotients_and_norms_at_table_size(build):
    a = build(size=200)
    # every double is an integer multiple of 2^-1074
    a_ints = np.array([int(Fraction(x) * 2**1074) for x in a.flat], dtype=object)
    a_ints = a_ints.reshape(a.shape)
    w, v = eigh_refined(a)
    for k in [0, 1, 2, 3, len(a) - 1]:
        quotient, norm2 = _exact_quotient_and_norm(a_ints, v[:, k])
        assert abs(Fraction(w[k]) - quotient) <= Fraction(np.spacing(abs(w[k]))), f"eigenpair {k}"
        # a unit vector rounded entrywise; normalizing in plain double gives up to 4.5 EPS
        assert abs(norm2 - 1) <= EPS, f"eigenvector {k}"


@pytest.mark.parametrize("spectrum", [[1.0, 1.0, 2.0, 3.0, 3.0], [3.0, 1.0, 2.0, 1.0, 3.0]])
@pytest.mark.parametrize("rotated", [True, False], ids=["rotated", "diagonal"])
def test_degenerate_spectrum_stays_orthonormal(spectrum, rotated):
    a = np.diag(spectrum)
    if rotated:
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((5, 5)))
        a = q @ a @ q.T
        a = (a + a.T) / 2
    with np.errstate(divide="raise", invalid="raise"):
        w, v = eigh_refined(a)
    assert np.all(np.isfinite(v))
    np.testing.assert_allclose(w, sorted(spectrum), rtol=0, atol=8 * EPS)
    assert np.abs(v.T @ v - np.eye(5)).max() <= 8 * EPS
    assert np.abs(a @ v - v * w).max() <= 16 * EPS


def _graded_mix():
    a = np.diag([1e300, 1.0, -1e-300])
    a[0, 1] = a[1, 0] = 1e-20
    a[0, 2] = a[2, 0] = 3e140
    a[1, 2] = a[2, 1] = 1e-250
    return a


def _subnormal():
    r = np.random.default_rng(3).standard_normal((4, 4))
    return (r + r.T) * 1e-310


@pytest.mark.parametrize(
    "a",
    [
        np.array([[2.5]]),
        np.zeros((3, 3)),
        np.array([[1e307, 1e306], [1e306, 2e306]]),
        _graded_mix(),
        _subnormal(),
    ],
    ids=["1x1", "zero", "near_overflow", "graded_1e300", "subnormal"],
)
def test_edge_matrices_agree_with_lapack(a):
    w, v = eigh_refined(a)
    reference = np.linalg.eigvalsh(a)
    norm = np.abs(reference).max()
    # np.spacing is EPS * norm for normal numbers and the subnormal grid below
    np.testing.assert_allclose(w, reference, rtol=0, atol=8 * np.spacing(norm))
    assert np.abs(v.T @ v - np.eye(len(a))).max() <= 8 * EPS
    assert np.abs(a @ v - v * w).max() <= 1e-11 * norm


def test_eigenvalue_beyond_double_range_is_refused():
    with pytest.raises(NumericalError, match="double range"):
        eigh_refined(np.full((2, 2), 1.5e308))
