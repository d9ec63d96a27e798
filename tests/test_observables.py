import math
import re

import numpy as np
import pytest

from conftest import DIMENSIONLESS, gauss15, salpeter_gauss
from lagmesh import (
    BoundState,
    CustomPotential,
    GaussianPotential,
    ProblemSpec,
    assemble_hamiltonian,
    build_mesh,
    build_position_calculus,
    expval_momentum,
    expval_radial,
    reduced_wavefunction,
    solve,
    solve_config,
    wavefunction_momentum,
    wavefunction_position,
)
from lagmesh.configspace import mean_values as config_mean_values
from lagmesh.errors import ConfigurationError, NumericalError
from lagmesh.linalg import eigh_refined
from lagmesh.mesh import lagrange_function, radial_form
from lagmesh.observables import mean_values


class TestSecondDerivativeMatrix:
    def test_single_node(self):
        # (1/12)(4 + 6 x - x^2) / x^2 at x = 1
        t = radial_form(build_mesh(1, 1.0), 0)
        assert t[0, 0] == pytest.approx(0.75, rel=1e-14)

    def test_two_node_off_diagonal(self):
        # x1 x2 = 2, x1 + x2 = 4, (x1 - x2)^2 = 8
        t = radial_form(build_mesh(2, 1.0), 0)
        assert t[0, 1] == pytest.approx(-4.0 / (math.sqrt(2.0) * 8.0), rel=1e-14)

    def test_symmetry_exact(self):
        t = radial_form(build_mesh(50, 1.0), 0)
        assert np.array_equal(t, t.T)


class TestPositionCalculus:
    def test_l0_is_scaled_second_derivative(self):
        mesh = build_mesh(10, 0.5)
        eigenvalues, transform = build_position_calculus(10, 0)
        r2 = transform @ np.diag(eigenvalues / 0.25) @ transform.T
        assert r2 == pytest.approx(radial_form(mesh, 0) / 0.25, rel=1e-15)

    @pytest.mark.parametrize("size", [10, 20, 50])
    @pytest.mark.parametrize("l", [0, 1])
    def test_spectrum_nonnegative(self, size, l):
        eigenvalues, _ = build_position_calculus(size, l)
        assert np.all(eigenvalues >= 0.0)

    def test_one_factorization_per_size_and_wave(self):
        # the factorization is dimensionless, so meshes differing only in h share it
        build_position_calculus.cache_clear()
        for scale in (0.5, 0.7):
            expval_radial(solve(gauss15(size=20, scale=scale))[0], lambda r: r)
        assert build_position_calculus.cache_info().misses == 1
        eigenvalues, transform = build_position_calculus(20, 0)
        assert not (eigenvalues.flags.writeable or transform.flags.writeable)

    @pytest.mark.parametrize(
        "size, l, refused", [(20.0, 0, "size = 20.0"), (20, 0.0, "l = 0.0"), (20, True, "l = True")]
    )
    def test_non_integer_argument_is_refused_after_a_cached_build(self, size, l, refused):
        # untyped, 20.0 and True would be the cache keys 20 and 1
        build_position_calculus(20, 0)
        build_position_calculus(20, 1)
        with pytest.raises(ConfigurationError, match=f"got {refused}"):
            build_position_calculus(size, l)

    def test_transform_orthogonal(self):
        _, transform = build_position_calculus(50, 0)
        gram = transform @ transform.T
        assert np.max(np.abs(gram - np.eye(50))) <= 1e-11


class TestMomentumExpectations:
    def test_unit_operator_is_normalization(self, gauss15_ground):
        assert expval_momentum(gauss15_ground, lambda p: 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_q2_benchmark(self, gauss15_ground):
        assert expval_momentum(gauss15_ground, lambda p: p * p) == pytest.approx(
            3.74063887622358, abs=1e-10
        )

    def test_q4_benchmark(self, gauss15_ground):
        assert expval_momentum(gauss15_ground, lambda p: p**4) == pytest.approx(
            26.50642515646, abs=1e-9
        )

    def test_node_indicator_collapses_to_coefficient(self, gauss15_ground):
        mesh = gauss15_ground.mesh
        for j in (0, 7, 31):
            target = mesh.scale * mesh.nodes[j]
            value = expval_momentum(gauss15_ground, lambda p: 1.0 if p == target else 0.0)
            assert value == gauss15_ground.coefficients[j] ** 2


class TestRadialExpectations:
    def test_unit_operator(self, gauss15_ground):
        assert expval_radial(gauss15_ground, lambda r: 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_mean_radius_benchmark(self, gauss15_ground):
        assert expval_radial(gauss15_ground, lambda r: r) == pytest.approx(
            0.7134620, abs=2e-7
        )

    def test_potential_mean_benchmark(self, gauss15_ground):
        pot = GaussianPotential(15.0, 1.0)
        assert expval_radial(gauss15_ground, pot.radial_value) == pytest.approx(
            -9.1182387832920, abs=1e-10
        )

    def test_function_calculus_composition(self, gauss15_ground):
        # K = r^2 through the factorization equals the direct quadratic form
        via_calculus = expval_radial(gauss15_ground, lambda r: r * r)
        mesh = gauss15_ground.mesh
        r2 = radial_form(mesh, 0) / mesh.scale**2
        direct = float(gauss15_ground.coefficients @ r2 @ gauss15_ground.coefficients)
        assert via_calculus == pytest.approx(direct, abs=1e-10)


    def test_non_finite_operator_is_named_at_its_first_spectral_point(self, gauss15_ground):
        # the radii sqrt(lam_m) / h ascend, so the first one is the smallest
        eigenvalues, _ = build_position_calculus(50, 0)
        r = float(np.sqrt(eigenvalues[0]) / gauss15_ground.mesh.scale)
        message = f"radial observable contains non-finite values, first at spectral point 1 (r = {r!r})"
        with pytest.raises(NumericalError, match=re.escape(message)):
            expval_radial(gauss15_ground, lambda r: math.nan)


class TestHamiltonianConsistency:
    def test_gaussian_benchmark(self, gauss15_ground):
        eps = gauss15_ground.energy
        mean = mean_values(gauss15_ground, gauss15())["hamiltonian_mean"]
        assert eps == pytest.approx(-5.3775999070682, abs=1e-9)
        assert mean == pytest.approx(-5.3775999070684, abs=1e-9)
        assert abs(eps - mean) <= 1e-9

    def test_free_problem_is_exactly_consistent(self):
        problem = ProblemSpec(
            DIMENSIONLESS,
            CustomPotential(fourier=lambda k: 0.0, radial=lambda r: 0.0),
            0,
            8,
            0.6,
        )
        energies, vectors, _ = eigh_refined(assemble_hamiltonian(problem))
        mesh = problem.mesh()
        state = BoundState(float(energies[0]), vectors[:, 0].copy(), 0, 0, mesh)
        eps, mean = state.energy, mean_values(state, problem)["hamiltonian_mean"]
        assert abs(eps - mean) < 1e-12


class TestMeanValues:
    @pytest.mark.parametrize("make_problem", [gauss15, salpeter_gauss])
    def test_hamiltonian_mean_is_t_plus_v(self, make_problem):
        problem = make_problem()
        state = solve(problem)[0]
        values = mean_values(state, problem)
        assert values["hamiltonian_mean"] == values["kinetic_mean"] + values["potential_mean"]


class TestLagrangeExpansion:
    """Every wavefunction evaluator against sum_j c_j f_j(x) term by term."""

    @pytest.mark.parametrize("size", [5, 50, 400])
    def test_callers_match_lagrange_functions(self, size):
        # Each reference term costs an O(N) scalar call, so at most 24 random
        # coefficients are nonzero; they include the three probed nodes.
        rng = np.random.default_rng(size)
        h = 0.7
        mesh = build_mesh(size, h)
        probed = [0, size // 2, size - 1]
        support = np.union1d(probed, rng.choice(size, min(size, 24), replace=False))
        coefficients = np.zeros(size)
        coefficients[support] = rng.standard_normal(support.size)
        state = BoundState(-1.0, coefficients, 0, 0, mesh)
        nodes = mesh.nodes[probed]
        x = np.concatenate(
            ([0.0], nodes, nodes + 1e-12, nodes - 1e-12, nodes[-1] * np.array([1.01, 1.5]))
        )
        expected = np.array(
            [sum(coefficients[j] * lagrange_function(mesh, j + 1, xv) for j in support)
             for xv in x]
        )
        tol = 1e-12 * np.max(np.abs(expected))
        momentum = x * h**1.5 * wavefunction_momentum(state, h * x)
        reduced = np.sqrt(h) * reduced_wavefunction(state, h * x)
        assert np.max(np.abs(momentum - expected)) <= tol
        assert np.max(np.abs(reduced - expected)) <= tol

    @pytest.mark.parametrize("evaluate", [wavefunction_momentum, wavefunction_position])
    def test_array_call_equals_scalar_calls(self, gauss15_ground, evaluate):
        grid = np.concatenate(([0.0], np.linspace(0.05, 12.0, 40)))
        values = evaluate(gauss15_ground, grid)
        assert values.tolist() == [evaluate(gauss15_ground, float(v)) for v in grid]

    @pytest.mark.parametrize("evaluate", [wavefunction_momentum, reduced_wavefunction])
    @pytest.mark.parametrize("point", [-1.0, math.nan, [0.0, 2.0, -1.0, -3.0, 4.0]])
    def test_point_below_zero_rejected(self, gauss15_ground, evaluate, point):
        # the error names the first offending point, in mesh units p / h
        first = float(next(v for v in np.ravel(point) if not v >= 0.0) / gauss15_ground.mesh.scale)
        with pytest.raises(ValueError, match=re.escape(f"got x = {first!r}")):
            evaluate(gauss15_ground, point)

    @pytest.mark.parametrize(
        "evaluate, name, unit",
        [(wavefunction_momentum, "x", "scale"), (wavefunction_position, "r", None)],
        ids=["momentum", "position"],
    )
    @pytest.mark.parametrize(
        "point",
        [math.inf, math.nan, -1.0, -math.inf, [0.5, math.inf, -1.0], np.array([1.0, math.nan, 2.0])],
    )
    def test_point_not_finite_and_nonnegative_is_named(self, gauss15_ground, evaluate, name, unit, point):
        # every point must be finite and >= 0; the error names the first other one
        first = next(v for v in np.ravel(point) if not 0.0 <= v < math.inf)
        if unit:
            first /= getattr(gauss15_ground.mesh, unit)
        with pytest.raises(ValueError, match=re.escape(f"got {name} = {float(first)!r}")):
            evaluate(gauss15_ground, point)


class TestWavefunctions:
    def test_momentum_values_at_mesh_points(self, gauss15_ground):
        # q P(q) at node i collapses to C_i / sqrt(h w_i)
        mesh = gauss15_ground.mesh
        for i in (0, 10, 42):
            q = mesh.scale * mesh.nodes[i]
            expected = gauss15_ground.coefficients[i] / math.sqrt(mesh.scale * mesh.weights[i])
            assert q * wavefunction_momentum(gauss15_ground, q) == pytest.approx(
                expected, rel=1e-12
            )

    def test_momentum_normalization_identity(self, gauss15_ground):
        mesh = gauss15_ground.mesh
        u = mesh.scale * mesh.nodes * wavefunction_momentum(
            gauss15_ground, mesh.scale * mesh.nodes
        )
        total = float(np.dot(mesh.weights, u * u)) * mesh.scale
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_momentum_ground_state_is_nodeless(self, gauss15_ground):
        q = np.linspace(1e-3, 6.0, 200)
        values = wavefunction_momentum(gauss15_ground, q)
        assert np.all(values > 0.0)

    def test_momentum_finite_at_origin(self, gauss15_ground):
        assert math.isfinite(wavefunction_momentum(gauss15_ground, 0.0))

    def test_position_origin_behavior(self):
        l1_state = solve(gauss15(l=1, size=20))[0]
        assert wavefunction_position(l1_state, 0.0) == 0.0
        l0_state = solve(gauss15(size=20))[0]
        mesh = l0_state.mesh
        expected = (
            math.sqrt(2.0 / math.pi)
            * mesh.scale**1.5
            * float(np.dot(l0_state.coefficients, np.sqrt(mesh.weights) * mesh.nodes))
        )
        assert wavefunction_position(l0_state, 0.0) == pytest.approx(expected, rel=1e-13)

    def test_parseval_against_configuration_space(self, gauss15_ground):
        problem = ProblemSpec(DIMENSIONLESS, GaussianPotential(15.0, 1.0), 0, 100, 0.4)
        conf_q2 = config_mean_values(solve_config(problem)[0], problem)["p2_mean"]
        mom_q2 = expval_momentum(gauss15_ground, lambda p: p * p)
        assert abs(mom_q2 - conf_q2) <= 1e-8

    def test_salpeter_table_observables(self):
        # h = 0.5 reproduces the printed benchmark column
        problem = salpeter_gauss(size=50, scale=0.5)
        state = solve(problem)[0]
        assert expval_momentum(state, lambda p: math.sqrt(p * p + 1.0)) == pytest.approx(
            1.3553807, abs=2e-7
        )
        assert expval_momentum(state, lambda p: p**4) == pytest.approx(3.991570, abs=2e-6)
        assert expval_radial(state, lambda r: r) == pytest.approx(1.73376, abs=2e-5)
