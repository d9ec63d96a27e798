import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import DIMENSIONLESS, gauss15, salpeter_gauss, yukawa10
from lagmesh import (
    CustomKinetic,
    CustomPotential,
    GaussianPotential,
    ProblemSpec,
    SalpeterKinetic,
    YukawaPotential,
    assemble_hamiltonian,
    solve,
)
from lagmesh import solver as solver_module
from lagmesh.errors import ConfigurationError, NumericalError
from lagmesh.linalg import eigh_refined
from lagmesh.mesh import build_mesh
from lagmesh.potentials import partial_wave_gaussian


@pytest.fixture
def no_eigensolver(monkeypatch):
    """Fail the test if the solver reaches the eigensolver."""

    def must_not_run(a, window):
        raise AssertionError("the eigensolver ran")

    monkeypatch.setattr(solver_module, "eigh_refined", must_not_run)


def _solve_matrix(matrix, window=(-math.inf, math.inf), l=0):
    """The states the solve path keeps from a given mesh matrix, bypassing
    the cache; the default window keeps the full spectrum."""
    problem = ProblemSpec(CustomKinetic(lambda p2: p2, window), None, l, len(matrix), 1.0)
    return list(solver_module._solve_cached.__wrapped__(lambda _: matrix, problem))


def _spectrum(states):
    return np.array([s.energy for s in states]), np.column_stack([s.coefficients for s in states])


class TestAssembly:
    def test_zero_potential_gives_diagonal_kinetic(self):
        problem = ProblemSpec(DIMENSIONLESS, CustomPotential(fourier=lambda k: 0.0), 0, 6, 0.7)
        h = assemble_hamiltonian(problem)
        mesh = problem.mesh()
        expected = np.diag((0.7 * mesh.nodes) ** 2)
        assert h == pytest.approx(expected, abs=1e-15)

    def test_single_point_closed_form(self):
        # H_11 = T(h^2 x_1^2) + h^3 w_1 x_1^2 V_0(h x_1, h x_1) with x_1 = 1
        problem = ProblemSpec(DIMENSIONLESS, GaussianPotential(15.0, 1.0), 0, 1, 1.0)
        h = assemble_hamiltonian(problem)
        expected = 1.0 + math.e * partial_wave_gaussian(0, 1.0, 1.0, 15.0, 1.0)
        assert h[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_symmetry_exact(self):
        cases = [(YukawaPotential(10.0, 1.0), 0, 0.8)]
        cases += [(GaussianPotential(15.0, 1.0), l, 0.5) for l in (0, 1, 2)]
        for potential, l, scale in cases:
            problem = ProblemSpec(DIMENSIONLESS, potential, l, 20, scale)
            h = assemble_hamiltonian(problem)
            assert np.array_equal(h, h.T), f"{potential} l={l}"

    def test_kernel_failure_reports_the_site(self):
        def broken(k):
            raise ValueError("synthetic kernel breakdown")

        problem = ProblemSpec(DIMENSIONLESS, CustomPotential(fourier=broken), 0, 3, 1.0)
        with pytest.raises(NumericalError, match=r"\(i=1, j=1\)") as info:
            assemble_hamiltonian(problem)
        message = str(info.value)
        site = re.search(r"p=([^,]+), p'=([^:]+):", message)
        assert site, message
        assert float(site.group(1)) > 0.0 and float(site.group(2)) > 0.0
        assert "np.float64" not in message

    def test_non_finite_kernel_value_names_the_pair(self):
        mesh = build_mesh(5, 0.7)
        p_bad, q_bad = mesh.scale * mesh.nodes[1], mesh.scale * mesh.nodes[3]

        class NanAtOnePair:
            def kernel(self, l):
                def evaluate(p, q):
                    hit = (p == p_bad) & (q == q_bad)
                    return np.where(hit, np.nan, -1.0)

                return evaluate

        problem = ProblemSpec(DIMENSIONLESS, NanAtOnePair(), 0, 5, 0.7)
        with pytest.raises(NumericalError, match=r"\(i=2, j=4\)"):
            assemble_hamiltonian(problem)

    def test_failure_inside_a_batch_names_the_first_failing_pair(self):
        mesh = build_mesh(5, 0.7)
        p_bad = mesh.scale * mesh.nodes[2]

        def breaks_on_the_third_row(p, q):
            if np.any(p == p_bad):
                raise ValueError("synthetic breakdown")
            return np.full(np.shape(p), -1.0)

        class Stub:
            def kernel(self, l):
                return breaks_on_the_third_row

        problem = ProblemSpec(DIMENSIONLESS, Stub(), 0, 5, 0.7)
        with pytest.raises(NumericalError, match=r"\(i=3, j=3\).*synthetic breakdown"):
            assemble_hamiltonian(problem)

    def test_non_finite_kinetic_value_names_the_node(self):
        kinetic = CustomKinetic(
            lambda p2: math.nan if p2 > 100.0 else p2, window=(-math.inf, 0.0)
        )
        problem = ProblemSpec(kinetic, GaussianPotential(15.0, 1.0), 0, 20, 0.5)
        mesh = problem.mesh()
        momenta = mesh.scale * mesh.nodes
        first = int(np.flatnonzero(momenta * momenta > 100.0)[0])
        assert 0 < first < mesh.size - 1
        with pytest.raises(NumericalError, match=rf"kinetic energy .* mesh node {first + 1} "):
            solve(problem)


class TestSpectrum:
    def test_identity_matrix(self):
        energies, vectors = _spectrum(_solve_matrix(np.eye(3)))
        assert energies == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)

    def test_two_by_two_closed_form(self):
        energies, _ = _spectrum(_solve_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert energies == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_benchmark_ground_state(self):
        h = assemble_hamiltonian(gauss15(size=20))
        energies, _ = _spectrum(_solve_matrix(h))
        assert len(energies) == len(h)
        assert energies[0] == pytest.approx(-5.3775999078195, abs=1e-11)

    def test_residual_and_orthonormality_contracts(self):
        h = assemble_hamiltonian(yukawa10(size=50, scale=0.8))
        energies, vectors = _spectrum(_solve_matrix(h))
        residual = np.abs(h @ vectors - vectors * energies).max()
        assert residual <= 1e-11 * np.linalg.norm(h, 2)
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(len(h)))) < 1e-11
        assert np.all(np.diff(energies) >= 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_refused_before_the_eigensolver(self, no_eigensolver, bad):
        h = np.eye(3)
        h[1, 2] = h[2, 1] = bad
        with pytest.raises(NumericalError, match="contains non-finite"):
            _solve_matrix(h)

    @pytest.mark.parametrize("broken", ["energy", "vector"])
    def test_non_finite_eigenpair_refused(self, monkeypatch, broken):
        # a NaN residual compares False against any bound
        def nan_eigensolver(a, window):
            energies, vectors = np.linalg.eigh(a)
            if broken == "energy":
                energies[1] = np.nan
            else:
                vectors[0, 1] = np.nan
            return energies, vectors, 3.0

        monkeypatch.setattr(solver_module, "eigh_refined", nan_eigensolver)
        with pytest.raises(NumericalError, match="non-finite eigenpairs"):
            _solve_matrix(np.diag([1.0, 2.0, 3.0]))

    def test_residual_above_the_bound_is_refused(self, monkeypatch):
        def rotated_eigensolver(a, window):
            energies, vectors = np.linalg.eigh(a)
            c, s = math.cos(1e-6), math.sin(1e-6)  # mixes pairs 1 and 2 by 1e-6
            vectors[:, :2] = vectors[:, :2] @ np.array([[c, s], [-s, c]])
            return energies, vectors, 3.0

        monkeypatch.setattr(solver_module, "eigh_refined", rotated_eigensolver)
        with pytest.raises(NumericalError, match="residual .* exceeds 1e-11"):
            _solve_matrix(np.diag([1.0, 2.0, 3.0]))

    def test_kinetic_infinite_at_a_node_is_numerical_failure(self):
        mesh = build_mesh(6, 0.7)
        p_bad = mesh.scale * mesh.nodes[3]
        kinetic = CustomKinetic(
            lambda p2: math.inf if p2 == p_bad * p_bad else p2, window=(-math.inf, 0.0)
        )
        problem = ProblemSpec(kinetic, GaussianPotential(15.0, 1.0), 0, 6, 0.7)
        with pytest.raises(NumericalError, match="contains non-finite"):
            solve(problem)


class TestBoundStates:
    def test_gaussian_ground_state_energy(self):
        states = solve(gauss15())
        assert len(states) == 1
        assert states[0].energy == pytest.approx(-5.3775999070682, abs=1e-9)
        assert states[0].n == 0 and states[0].l == 0

    def test_yukawa_excited_state(self):
        states = solve(yukawa10(scale=1.0))
        assert len(states) == 2
        assert states[1].n == 1
        assert states[1].energy == pytest.approx(-0.6053975, abs=2e-7)

    def test_salpeter_single_state(self):
        states = solve(salpeter_gauss(size=50, scale=0.4))
        assert len(states) == 1
        assert 0.0 < states[0].energy < 2.0
        # converged limit of the mass; the printed table value is reproduced
        # at h = 0.5 in the acceptance suite
        assert states[0].energy == pytest.approx(1.87098367, abs=1e-7)

    def test_normalization_and_sign_convention(self):
        for state in solve(yukawa10(scale=1.0)):
            assert np.sum(state.coefficients**2) == pytest.approx(1.0, abs=1e-12)
            nonzero = state.coefficients[state.coefficients != 0.0]
            assert nonzero[0] > 0.0

    def test_energies_inside_window(self):
        lower, upper = SalpeterKinetic(1.0, 1.0).bound_window()
        for state in solve(salpeter_gauss()):
            assert lower < state.energy < upper

    def test_no_bound_state_is_a_valid_outcome(self):
        # g = 0.1 is far below the critical Gaussian coupling
        problem = ProblemSpec(DIMENSIONLESS, GaussianPotential(0.1, 1.0), 0, 30, 0.5)
        assert solve(problem) == []

    def test_negative_partial_wave_is_refused(self):
        with pytest.raises(ConfigurationError, match="partial wave must be >= 0, got -1"):
            gauss15(l=-1)

    @pytest.mark.parametrize("field, value", [("l", 1.0), ("l", True), ("size", 20.0)])
    def test_non_integer_field_is_refused_after_a_cached_solve(self, field, value):
        solve(gauss15(l=1, size=20))
        with pytest.raises(ConfigurationError, match=f"got {field} = {value!r}"):
            solve(gauss15(**{"l": 1, "size": 20, field: value}))

    def test_select_returns_rank_labels(self):
        states = _solve_matrix(np.diag([-2.0, -1.0, 3.0]), DIMENSIONLESS.bound_window(), l=2)
        assert [s.energy for s in states] == [-2.0, -1.0]
        assert [s.n for s in states] == [0, 1]
        assert all(s.l == 2 for s in states)


class TestScalingRelations:
    def test_yukawa_table_rescaling(self):
        # a = 20, b = 2 at h = 1.6 is the g = 10, b = 1 mesh at h = 0.8 with
        # every entry of H scaled by b^2 = 4
        problem = ProblemSpec(DIMENSIONLESS, YukawaPotential(20.0, 2.0), 0, 200, 1.6)
        assert solve(problem)[0].energy == pytest.approx(-65.36166, abs=1e-5)


class TestConvergenceBehavior:
    def test_plateau_insensitivity(self):
        e_a = solve(gauss15(scale=0.4))[0].energy
        e_b = solve(gauss15(scale=0.5))[0].energy
        assert abs(e_a - e_b) <= 1e-9

    def test_mesh_size_convergence(self):
        e10 = solve(gauss15(size=10))[0].energy
        e20 = solve(gauss15(size=20))[0].energy
        e50 = solve(gauss15(size=50))[0].energy
        assert abs(e50 - e20) < abs(e20 - e10)


class TestSolveCache:
    def test_scan_retains_less_than_one_matrix(self):
        # eight h values of a plateau scan: the cache keeps bound states,
        # not one N x N eigenvector matrix per point
        size = 200
        solve(yukawa10(size=size, scale=0.5))  # the N=200 nodes and weights
        solver_module._solve_cached.cache_clear()
        tracemalloc.start()
        try:
            for k in range(8):
                solve(yukawa10(size=size, scale=0.55 + 0.05 * k))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < size * size * 8

    def test_repeated_solve_assembles_once(self, monkeypatch):
        calls = []

        def counting(problem):
            calls.append(problem)
            return assemble_hamiltonian(problem)

        monkeypatch.setattr(solver_module, "assemble_hamiltonian", counting)
        problem = gauss15(size=30, scale=0.45)
        first, second = solve(problem), solve(problem)
        assert len(calls) == 1
        assert [s.energy for s in first] == [s.energy for s in second]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.coefficients, b.coefficients)

    @pytest.mark.parametrize(
        "problem",
        [yukawa10(size=120, scale=0.7), salpeter_gauss(size=60, scale=0.55)],
        ids=["yukawa", "salpeter"],
    )
    def test_solve_refines_only_the_bound_window(self, monkeypatch, problem):
        refined = []

        def counting(a, window):
            result = eigh_refined(a, window)
            refined.append((window, len(result[0])))
            return result

        monkeypatch.setattr(solver_module, "eigh_refined", counting)
        solver_module._solve_cached.cache_clear()
        states = solve(problem)
        window = problem.kinetic.bound_window()
        [(used, count)] = refined
        assert used == window and len(states) <= count < problem.size
        lower, upper = window
        spectrum = _solve_matrix(assemble_hamiltonian(problem))
        full = [s for s in spectrum if lower < s.energy < upper]
        assert [s.energy for s in states] == [s.energy for s in full]
        for state, reference in zip(states, full):
            ulp = np.spacing(np.abs(reference.coefficients).max())
            assert np.abs(state.coefficients - reference.coefficients).max() <= ulp
