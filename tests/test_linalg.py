import numpy as np
import pytest

from conftest import yukawa10
from lagmesh import ConfigProblem, YukawaPotential, assemble_hamiltonian
from lagmesh.configspace import assemble_config_hamiltonian
from lagmesh.linalg import eigh_refined
from lagmesh.mesh import build_mesh, radial_form

EPS = np.finfo(float).eps


def _yukawa_hamiltonian():
    return assemble_hamiltonian(yukawa10(size=30, scale=0.8))


def _r2_form():
    return radial_form(build_mesh(30, 0.8), 0) / 0.64


def _graded_config_hamiltonian():
    # centrifugal corner of order 5e5 against eigenvalues of order one
    return assemble_config_hamiltonian(ConfigProblem(YukawaPotential(10.0, 1.0), 1, 0.5, 30, 0.05))


@pytest.mark.parametrize(
    "build",
    [_yukawa_hamiltonian, _r2_form, _graded_config_hamiltonian],
    ids=["yukawa_h", "r2", "config_l1"],
)
def test_matches_correctly_rounded_40_digit_spectrum(build):
    mpmath = pytest.importorskip("mpmath")
    a = build()
    with mpmath.workdps(40):
        values, vectors = mpmath.eigsy(mpmath.matrix(a.tolist()))
        reference = np.array([float(x) for x in values])
        reference_vectors = np.array(vectors.tolist(), dtype=float)
    order = np.argsort(reference)
    reference = reference[order]
    reference_vectors = reference_vectors[:, order]

    w, v = eigh_refined(a)

    np.testing.assert_array_equal(w, reference)
    reference_vectors *= np.sign(np.sum(reference_vectors * v, axis=0))
    assert np.abs(v - reference_vectors).max() <= 2 * EPS


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
