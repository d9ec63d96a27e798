import math
import re

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
    select_bound_states,
    solve,
    solve_spectrum,
)
from lagmesh import solver as solver_module
from lagmesh.errors import ConfigurationError, NumericalError
from lagmesh.mesh import build_mesh
from lagmesh.potentials import PartialWaveKernel, partial_wave_gaussian


@pytest.fixture
def no_eigensolver(monkeypatch):
    """Fail the test if the solver reaches the eigensolver."""

    def must_not_run(a):
        raise AssertionError("the eigensolver ran")

    monkeypatch.setattr(solver_module, "eigh_refined", must_not_run)


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

                return PartialWaveKernel(l, evaluate)

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
                return PartialWaveKernel(l, breaks_on_the_third_row)

        problem = ProblemSpec(DIMENSIONLESS, Stub(), 0, 5, 0.7)
        with pytest.raises(NumericalError, match=r"\(i=3, j=3\).*synthetic breakdown"):
            assemble_hamiltonian(problem)


class TestSpectrum:
    def test_identity_matrix(self):
        energies, vectors = solve_spectrum(np.eye(3))
        assert energies == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)

    def test_two_by_two_closed_form(self):
        energies, _ = solve_spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert energies == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_benchmark_ground_state(self):
        h = assemble_hamiltonian(gauss15(size=20))
        energies, _ = solve_spectrum(h)
        assert energies[0] == pytest.approx(-5.3775999078195, abs=1e-11)

    def test_residual_and_orthonormality_contracts(self):
        h = assemble_hamiltonian(yukawa10(size=50, scale=0.8))
        energies, vectors = solve_spectrum(h)
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
            solve_spectrum(h)

    @pytest.mark.parametrize("broken", ["energy", "vector"])
    def test_non_finite_eigenpair_refused(self, monkeypatch, broken):
        # a NaN residual compares False against any bound
        def nan_eigensolver(a):
            energies, vectors = np.linalg.eigh(a)
            if broken == "energy":
                energies[1] = np.nan
            else:
                vectors[0, 1] = np.nan
            return energies, vectors

        monkeypatch.setattr(solver_module, "eigh_refined", nan_eigensolver)
        with pytest.raises(NumericalError, match="non-finite eigenpairs"):
            solve_spectrum(np.diag([1.0, 2.0, 3.0]))

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

    def test_missing_window_refused_before_the_solve(self, no_eigensolver):
        problem = ProblemSpec(CustomKinetic(lambda p2: p2), GaussianPotential(15.0, 1.0), 0, 6, 0.7)
        with pytest.raises(ConfigurationError, match="window"):
            solve(problem)

    def test_select_returns_rank_labels(self):
        energies = np.array([-2.0, -1.0, 3.0])
        vectors = np.eye(3)
        states = select_bound_states(
            energies, vectors, DIMENSIONLESS.bound_window(), build_mesh(3, 1.0), l=2
        )
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
