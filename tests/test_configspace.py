from dataclasses import replace

import numpy as np
import pytest

from conftest import DIMENSIONLESS, assert_ulp, gauss15
from lagmesh import (
    CustomPotential,
    GaussianPotential,
    ProblemSpec,
    SalpeterKinetic,
    YukawaPotential,
    reduced_wavefunction,
    solve,
    solve_config,
)
from lagmesh.configspace import mean_values
from lagmesh.errors import ConfigurationError, NumericalError


@pytest.fixture(scope="module")
def gauss_conf():
    problem = ProblemSpec(DIMENSIONLESS, GaussianPotential(15.0, 1.0), 0, 100, 0.4)
    return problem, solve_config(problem)[0]


class TestGaussianBenchmark:
    def test_ground_state_energy(self, gauss_conf):
        _, state = gauss_conf
        assert state.energy == pytest.approx(-5.3775999070684, abs=1e-9)

    def test_non_finite_radial_observable_rejected(self, gauss_conf):
        problem, state = gauss_conf
        with pytest.raises(NumericalError, match="mesh node 1 "):
            mean_values(state, replace(problem, potential=CustomPotential(
                fourier=lambda k: 0.0, radial=lambda r: float("nan"))))

    def test_observables(self, gauss_conf):
        problem, state = gauss_conf
        values = mean_values(state, problem)
        assert_ulp(values["r_mean"], "0.7134620")
        assert_ulp(values["potential_mean"], "-9.1182387832920")
        assert_ulp(values["p2_mean"], "3.74063887622353")

    def test_cross_space_eigenvalue_agreement(self, gauss_conf):
        _, conf_state = gauss_conf
        mom_state = solve(gauss15())[0]
        assert abs(mom_state.energy - conf_state.energy) <= 1e-11


class TestYukawaBenchmark:
    def test_deep_ground_state(self):
        problem = ProblemSpec(DIMENSIONLESS, YukawaPotential(10.0, 1.0), 0, 200, 0.02)
        states = solve_config(problem)
        assert_ulp(states[0].energy, "-16.340426")

    def test_radial_excitation(self):
        problem = ProblemSpec(DIMENSIONLESS, YukawaPotential(10.0, 1.0), 0, 200, 0.05)
        states = solve_config(problem)
        assert len(states) == 2
        assert_ulp(states[1].energy, "-0.6053933")

    def test_p_wave_state_and_observable(self):
        problem = ProblemSpec(DIMENSIONLESS, YukawaPotential(10.0, 1.0), 1, 200, 0.05)
        states = solve_config(problem)
        assert len(states) == 1
        assert_ulp(states[0].energy, "-0.205082327")
        assert_ulp(mean_values(states[0], problem)["potential_mean"], "-2.913010896")


class TestProblemValidation:
    def test_non_integer_partial_wave_is_refused(self):
        with pytest.raises(ConfigurationError, match="got l = 0.5"):
            solve_config(ProblemSpec(DIMENSIONLESS, GaussianPotential(15.0, 1.0), 0.5, 40, 0.3))

    def test_salpeter_kinetics_rejected(self):
        problem = ProblemSpec(SalpeterKinetic(1.0, 1.0), GaussianPotential(3.0, 1.0), 0, 20, 0.4)
        with pytest.raises(ConfigurationError, match="nonrelativistic"):
            solve_config(problem)

    def test_momentum_only_potential_cannot_be_solved_radially(self):
        from lagmesh import CustomPotential

        problem = ProblemSpec(DIMENSIONLESS, CustomPotential(fourier=lambda k: 0.0), 0, 10, 0.4)
        with pytest.raises(ConfigurationError):
            solve_config(problem)


class TestReducedWavefunction:
    def test_node_values_match_coefficients(self):
        problem = ProblemSpec(DIMENSIONLESS, GaussianPotential(15.0, 1.0), 0, 20, 0.4)
        states = solve_config(problem)
        state = states[0]
        mesh = state.mesh
        for j in (0, 5, 12):
            r = mesh.scale * mesh.nodes[j]
            expected = state.coefficients[j] / np.sqrt(mesh.scale * mesh.weights[j])
            assert reduced_wavefunction(state, r) == pytest.approx(expected, rel=1e-12)

    def test_vanishes_at_origin(self):
        problem = ProblemSpec(DIMENSIONLESS, GaussianPotential(15.0, 1.0), 0, 20, 0.4)
        states = solve_config(problem)
        assert reduced_wavefunction(states[0], 0.0) == 0.0
