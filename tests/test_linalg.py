import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import DIMENSIONLESS, gauss15, salpeter_gauss, yukawa10
from lagmesh import ProblemSpec, YukawaPotential, assemble_hamiltonian, linalg, solve, solver
from lagmesh.cli import _usable_cpus
from lagmesh.configspace import assemble_config_hamiltonian
from lagmesh.errors import NumericalError
from lagmesh.linalg import eigh_refined
from lagmesh.mesh import build_mesh, radial_form
from lagmesh.observables import build_position_calculus, mean_values

EPS = np.finfo(float).eps


def _yukawa_hamiltonian(size=30):
    return assemble_hamiltonian(yukawa10(size=size, scale=0.8))


def _gaussian_hamiltonian():
    # LAPACK leaves 287 nonzero eigenvector entries below 2^-511 and 9 subnormal
    # ones: the refinement's products reach gradual underflow, and its results must
    # still be correctly rounded
    return assemble_hamiltonian(gauss15(size=40, scale=2.0))


def _r2_form(size=30):
    return radial_form(build_mesh(size, 0.8), 0) / 0.64


def _graded_config_hamiltonian():
    # centrifugal corner of order 5e5 against eigenvalues of order one
    return assemble_config_hamiltonian(ProblemSpec(DIMENSIONLESS, YukawaPotential(10.0, 1.0), 1, 30, 0.05))


@pytest.mark.parametrize(
    "build",
    [_yukawa_hamiltonian, _gaussian_hamiltonian, _r2_form, _graded_config_hamiltonian],
    ids=["yukawa_h", "gaussian_h", "r2", "config_l1"],
)
def test_matches_correctly_rounded_40_digit_spectrum(build):
    a = build()
    reference, reference_vectors = _spectrum_40_digits(a)

    w, v, _ = eigh_refined(a)

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
    w, v, _ = eigh_refined(a)
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
        w, v, _ = eigh_refined(a)
    assert np.all(np.isfinite(v))
    np.testing.assert_allclose(w, sorted(spectrum), rtol=0, atol=8 * EPS)
    assert np.abs(v.T @ v - np.eye(5)).max() <= 8 * EPS
    assert np.abs(a @ v - v * w).max() <= 16 * EPS


def test_close_pair_is_mixed_to_the_40_digit_vectors():
    # a relative gap of 1e-11, above the window margin: LAPACK's vectors of the
    # pair are off by eps ||A|| / gap, about 1e-5, and the refinement must mix them
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))
    a = q @ np.diag([1.0, 1.0 + 1e-11, 2.0, 3.0]) @ q.T
    a = (a + a.T) / 2
    reference, reference_vectors = _spectrum_40_digits(a)
    w, v, _ = eigh_refined(a)
    np.testing.assert_array_equal(w, reference)
    reference_vectors *= np.sign(np.sum(reference_vectors * v, axis=0))
    assert np.abs(v - reference_vectors).max() <= 1e-12


def test_pairs_closer_than_the_margin_stay_orthonormal():
    # the r^2 form at N = 512, l = 26 has 4 pairs below 1e-12 ||A||_2 among its
    # smallest eigenvalues; mixing their neighbours alone leaves them 5.5e-10 apart
    a = radial_form(build_mesh(512, 1.0), 26)
    w, v, norm = eigh_refined(a)
    assert np.count_nonzero(np.diff(w) <= 1e-12 * norm) == 4
    assert np.abs(v.T @ v - np.eye(len(a))).max() <= 16 * EPS


def test_ascending_spectrum_skips_the_sort_bit_for_bit(monkeypatch):
    a = _yukawa_hamiltonian(size=200)
    w, v, _ = eigh_refined(a)
    assert np.all(np.diff(w) > 0)
    # a diff that is never positive sends the same call through the lexsort
    monkeypatch.setattr(np, "diff", lambda x: np.zeros_like(x))
    w_sorted, v_sorted, _ = eigh_refined(a)
    assert w.tobytes() == w_sorted.tobytes()
    assert v.flags.c_contiguous and v.tobytes() == v_sorted.tobytes()


def _plain_start(monkeypatch):
    """Send every matrix to LAPACK as an unflushed copy, whatever its entries."""
    monkeypatch.setattr(linalg, "_lapack_start", lambda a, out: np.copyto(out, a) or out)


_FLUSHED_PROBLEMS = {f"table1-N{n}": gauss15(size=n, scale=0.5) for n in (10, 20, 50)}
_FLUSHED_PROBLEMS |= {f"table2-N{n}": salpeter_gauss(size=n, scale=0.5) for n in (10, 20, 50)}
_FLUSHED_PROBLEMS |= {
    f"gaussian-N200-h{h}": gauss15(size=200, scale=h) for h in (0.35, 0.55, 0.75, 0.95, 1.15, 1.35)
}


@pytest.mark.parametrize("problem", _FLUSHED_PROBLEMS.values(), ids=_FLUSHED_PROBLEMS.keys())
def test_flushed_start_keeps_the_bound_energies_bit_for_bit(problem, monkeypatch):
    a = assemble_hamiltonian(problem)
    window = problem.kinetic.bound_window()
    assert not np.array_equal(linalg._lapack_start(a, np.empty_like(a)), a)  # the Gaussian tail is flushed
    w, v, norm = eigh_refined(a, window)
    _plain_start(monkeypatch)
    w_plain, v_plain, norm_plain = eigh_refined(a, window)
    assert len(w) and w.tobytes() == w_plain.tobytes()
    v_plain *= np.sign(np.sum(v * v_plain, axis=0))
    # the floor of the split product, far below an ulp of the coefficients
    assert np.abs(v - v_plain).max() <= EPS / 1024 * np.abs(v).max()
    assert norm == pytest.approx(norm_plain, rel=1e-14)  # LAPACK's largest eigenvalue


def _reversed(a):
    """eigh_refined of a with its index order reversed, its vectors reversed back."""
    w, v, norm = eigh_refined(a[::-1, ::-1].copy())
    return w, v[::-1], norm


@pytest.mark.parametrize(
    "build",
    [lambda: _yukawa_hamiltonian(size=400), lambda: radial_form(build_mesh(400, 1.0), 0)],
    ids=["yukawa_N400", "r2_N400"],
)
def test_every_lapack_start_gives_the_same_pairs(build, monkeypatch):
    # LAPACK rotates its closest pairs (about 1.5e-10 ||A||_2 apart) differently from
    # each start; every pair above the margin is mixed, so the refined ones agree
    a = build()
    w, v, norm = eigh_refined(a)
    w_reversed, v_reversed, norm_reversed = _reversed(a)
    _plain_start(monkeypatch)
    w_plain, v_plain, norm_plain = eigh_refined(a)
    for w_other, v_other, norm_other in [(w_plain, v_plain, norm_plain), (w_reversed, v_reversed, norm_reversed)]:
        assert w.tobytes() == w_other.tobytes() and norm == norm_other
        v_other *= np.sign(np.sum(v * v_other, axis=0))
        assert np.all(np.abs(v - v_other) <= np.spacing(np.abs(v).max(axis=0)))


def test_mean_values_do_not_depend_on_the_blas_thread_count():
    if linalg._blas_thread_calls() is None:
        pytest.skip("the BLAS thread count cannot be set")
    if _usable_cpus() < 2:
        pytest.skip("one usable CPU: BLAS runs one thread either way")
    problem = yukawa10(size=400, scale=0.8)

    def cold_mean_values():
        solver._solve_cached.cache_clear()
        build_position_calculus.cache_clear()
        return mean_values(solve(problem)[0], problem)

    values = cold_mean_values()
    with linalg._one_blas_thread():
        one_thread = cold_mean_values()
    assert values == one_thread  # floats compared exactly


def test_flush_takes_the_local_grid_of_each_pair():
    # (eps/3) sqrt(|a_ii a_jj|) is 3.7e-27, 3.7e-7 and 3.7e-17 for the pairs
    # (0, 1), (1, 2) and (0, 2): only a_02 is below its grid, and a global
    # (eps/3) max|A| = 3.7e3 would flush all three
    a = np.diag([1e-20, 1.0, 1e20])
    a[0, 1] = a[1, 0] = 1e-17
    a[1, 2] = a[2, 1] = 1e-6
    a[0, 2] = a[2, 0] = 1e-17
    start = linalg._lapack_start(a, np.empty_like(a))
    expected = a.copy()
    expected[0, 2] = expected[2, 0] = 0.0
    np.testing.assert_array_equal(start, expected)


def test_refinement_workspace_is_bounded():
    # a1, vh, vl and four work buffers: about 7.4 matrices beyond the input
    a = _yukawa_hamiltonian(size=200)
    tracemalloc.start()
    try:
        eigh_refined(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * a.nbytes


def _windowed_sweep():
    """(id, H, bound-state window) of 42 solver matrices, N = 10 to 400."""
    cases = []
    for n in (10, 30, 50, 100, 200, 400):
        problems = [yukawa10(size=n, scale=0.3), yukawa10(size=n, scale=0.8)]
        problems += [gauss15(l=0, size=n), gauss15(l=1, size=n), salpeter_gauss(size=n)]
        for problem in problems:
            cases.append((problem, assemble_hamiltonian))
        for l in (0, 1):
            problem = ProblemSpec(DIMENSIONLESS, YukawaPotential(10.0, 1.0), l, n, 0.05)
            cases.append((problem, assemble_config_hamiltonian))
    return [
        (f"{assemble.__name__}-{p.potential}-{p.kinetic}-l{p.l}-N{p.size}-h{p.scale}",
         assemble(p), p.kinetic.bound_window())
        for p, assemble in cases
    ]


def _inside(w, window):
    return (w > window[0]) & (w < window[1])


def test_window_refines_the_full_paths_selected_pairs_bit_for_bit():
    sweep = _windowed_sweep()
    assert len(sweep) >= 40
    for name, a, window in sweep:
        w, v, norm = eigh_refined(a)
        w_window, v_window, norm_window = eigh_refined(a, window)
        full, windowed = _inside(w, window), _inside(w_window, window)
        assert full.sum() == windowed.sum(), name
        assert w[full].tobytes() == w_window[windowed].tobytes(), name
        selected, selected_window = v[:, full], v_window[:, windowed]
        selected_window *= np.sign(np.sum(selected * selected_window, axis=0))
        ulp = np.spacing(np.abs(selected).max(axis=0))
        assert np.all(np.abs(selected - selected_window) <= ulp), name
        assert len(w_window) < len(a) or len(a) <= 10, name
        assert norm_window == pytest.approx(norm, rel=1e-13), name


def test_eigenvalue_at_the_window_edge_is_classified_as_the_full_path_does():
    a = _yukawa_hamiltonian(size=200)
    w, _, _ = eigh_refined(a)
    lapack = np.linalg.eigvalsh(a)
    k = int(np.flatnonzero(lapack[:5] != w[:5])[0])  # LAPACK is off by its error
    edges = [w[k], np.nextafter(w[k], -math.inf), np.nextafter(w[k], math.inf)]
    windows = [(-math.inf, e) for e in edges] + [(e, math.inf) for e in edges]
    misread = 0
    for window in windows:
        w_window, _, _ = eigh_refined(a, window)
        assert w_window[_inside(w_window, window)].tobytes() == w[_inside(w, window)].tobytes()
        misread += _inside(lapack, window)[k] != _inside(w, window)[k]
    assert misread  # without the margin, some window would drop or keep the wrong pair


@pytest.mark.parametrize(
    "problem, bound",
    [(yukawa10(size=200), 2), (gauss15(size=200), 1)],
    ids=["yukawa_N200", "gaussian_N200"],
)
def test_bound_window_refines_only_the_bound_pairs(problem, bound):
    # the margin is far below the gap to the first continuum pair
    w, _, _ = eigh_refined(assemble_hamiltonian(problem), (-math.inf, 0.0))
    assert len(w) == bound and np.all(w < 0.0)


@pytest.mark.parametrize(
    "build",
    [lambda: _yukawa_hamiltonian(size=400), lambda: assemble_hamiltonian(gauss15(size=400))],
    ids=["yukawa_N400", "gaussian_N400"],
)
def test_narrow_window_works_in_three_matrices(build):
    # LAPACK's basis, A1 and the A2 tail; the rest is N x k. A flushed start
    # is built in A1's buffer
    a = build()
    tracemalloc.start()
    try:
        eigh_refined(a, (-math.inf, 0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * a.nbytes


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
    w, v, _ = eigh_refined(a)
    reference = np.linalg.eigvalsh(a)
    norm = np.abs(reference).max()
    # np.spacing is EPS * norm for normal numbers and the subnormal grid below
    np.testing.assert_allclose(w, reference, rtol=0, atol=8 * np.spacing(norm))
    assert np.abs(v.T @ v - np.eye(len(a))).max() <= 8 * EPS
    assert np.abs(a @ v - v * w).max() <= 1e-11 * norm


def test_graded_matrix_is_not_flushed():
    # rows of order 1 against max|A| = 1e200 fall to about 2^-665 after the
    # scaling; zeroing the GEMM factors below 2^-511 there gives 0.1161 and 1.8839,
    # so the refinement must carry such rows in full
    a = np.diag([1e200, 1.0, 2.0])
    a[0, 1] = a[1, 0] = 1e90
    a[1, 2] = a[2, 1] = 0.5
    w, *_ = eigh_refined(a)
    # correctly rounded, from a 700-digit mpmath solve
    np.testing.assert_array_equal(w, [0.79289321881345248, 2.2071067811865475, 1e200])


@pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3,), (2, 2, 2)])
def test_input_that_is_not_a_square_matrix_is_refused(shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        eigh_refined(np.ones(shape))


def test_eigenvalue_beyond_double_range_is_refused():
    with pytest.raises(NumericalError, match="double range"):
        eigh_refined(np.full((2, 2), 1.5e308))
