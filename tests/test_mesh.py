import math

import numpy as np
import pytest

from lagmesh.errors import ConfigurationError, NumericalError
from lagmesh.mesh import LaguerreMesh, _node_values, build_mesh, lagrange_function


class TestBuildMesh:
    def test_single_point(self):
        m = build_mesh(1, 1.0)
        assert m.nodes == pytest.approx([1.0], abs=1e-15)
        assert m.weights == pytest.approx([math.e], rel=1e-14)
        assert m.scale == 1.0

    def test_two_points_unscaled_nodes(self):
        m = build_mesh(2, 0.5)
        assert m.nodes == pytest.approx([2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)], rel=1e-14)
        assert m.scale == 0.5

    def test_normalization_invariant(self):
        m = build_mesh(20, 0.5)
        total = math.fsum(w * math.exp(-x) for w, x in zip(m.weights, m.nodes))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_immutability(self):
        m = build_mesh(5, 1.0)
        with pytest.raises(ValueError):
            m.nodes[0] = 2.0
        with pytest.raises(ValueError):
            m.weights[0] = 2.0

    @pytest.mark.parametrize("size,scale", [(0, 1.0), (513, 1.0), (10, 0.0), (10, -1.0), (10, math.inf), (10, math.nan)])
    def test_invalid_parameters(self, size, scale):
        with pytest.raises(ConfigurationError):
            build_mesh(size, scale)

    @pytest.mark.parametrize("size", [20.0, True], ids=["float", "bool"])
    def test_non_integer_size_is_refused_after_a_cached_build(self, size):
        # untyped, 20.0 and True would be the cache keys 20 and 1; typed, they reach the check
        build_mesh(20, 0.5)
        build_mesh(1, 0.5)
        with pytest.raises(ConfigurationError, match=f"got size = {size!r}"):
            build_mesh(size, 0.5)


class TestLaguerreMesh:
    def test_size_is_the_node_count(self):
        m = build_mesh(10, 1.0)
        assert LaguerreMesh(m.nodes.copy(), m.weights.copy(), 1.0).size == 10
        with pytest.raises(TypeError, match="size"):
            LaguerreMesh(size=3, nodes=m.nodes.copy(), weights=m.weights.copy(), scale=1.0)

    @pytest.mark.parametrize(
        "change, error, message",
        [
            (lambda x, w: (x.reshape(2, 5), w.reshape(2, 5)), ConfigurationError, "1-D"),
            (lambda x, w: (x, w[:9]), ConfigurationError, "weights of their shape"),
            (lambda x, w: (x[::-1], w[::-1]), NumericalError, "positive and increasing"),
            (lambda x, w: (x, np.where(np.arange(10) == 4, 0.0, w)), NumericalError, "weights must be positive"),
            (lambda x, w: (x, w * (1.0 + 1e-9)), NumericalError, "normalization off"),
        ],
        ids=["nodes-2d", "weights-shape", "nodes-decrease", "weight-zero", "normalization"],
    )
    def test_inconsistent_rule_is_refused(self, change, error, message):
        m = build_mesh(10, 1.0)
        nodes, weights = change(m.nodes.copy(), m.weights.copy())
        with pytest.raises(error, match=message):
            LaguerreMesh(nodes, weights, 1.0)


class TestLagrangeFunction:
    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_lagrange_condition_matrix(self, n):
        # [f_j(x_i) sqrt(w_i)] must be the identity
        m = build_mesh(n, 1.0)
        mat = np.array(
            [
                [lagrange_function(m, j + 1, x) * math.sqrt(w) for j in range(n)]
                for x, w in zip(m.nodes, m.weights)
            ]
        )
        assert np.max(np.abs(mat - np.eye(n))) < 1e-10

    def test_vanishes_at_origin(self):
        m = build_mesh(7, 1.0)
        for i in range(1, 8):
            assert lagrange_function(m, i, 0.0) == 0.0

    def test_single_point_value(self):
        # N=1: f_1(x) = x exp(-x/2), so f_1(2) = 2/e
        m = build_mesh(1, 1.0)
        assert lagrange_function(m, 1, 2.0) == pytest.approx(2.0 / math.e, rel=1e-14)

    def test_removable_singularity_window(self):
        m = build_mesh(9, 1.0)
        for i in (1, 5, 9):
            limit = 1.0 / math.sqrt(m.weights[i - 1])
            assert lagrange_function(m, i, m.nodes[i - 1] + 1e-12) == limit
            assert lagrange_function(m, i, m.nodes[i - 1] - 1e-12) == limit

    def test_gauss_orthonormality(self):
        m = build_mesh(12, 1.0)
        for i in (1, 4, 12):
            for j in (1, 4, 12):
                products = [
                    lagrange_function(m, i, x) * lagrange_function(m, j, x) for x in m.nodes
                ]
                overlap = np.dot(m.weights, products)
                assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)

    def test_index_bounds(self):
        m = build_mesh(3, 1.0)
        with pytest.raises(ValueError):
            lagrange_function(m, 0, 1.0)
        with pytest.raises(ValueError):
            lagrange_function(m, 4, 1.0)


class TestQuadrature:
    def test_exponential(self):
        m = build_mesh(6, 1.0)
        assert np.dot(m.weights, np.exp(-m.nodes)) == pytest.approx(1.0, abs=1e-12)

    def test_linear_times_exponential(self):
        m = build_mesh(3, 1.0)
        assert np.dot(m.weights, m.nodes * np.exp(-m.nodes)) == pytest.approx(1.0, abs=1e-11)

    def test_cubic_exact_at_two_points(self):
        # degree 3 = 2N-1 is the exactness edge for N=2
        m = build_mesh(2, 1.0)
        assert np.dot(m.weights, m.nodes**3 * np.exp(-m.nodes)) == pytest.approx(6.0, abs=1e-10)

    def test_non_finite_integrand_rejected(self):
        # the node evaluator behind every diagonal mean value and the
        # configuration-space potential
        m = build_mesh(4, 1.0)
        with pytest.raises(NumericalError, match="mesh node 1 "):
            _node_values(m, lambda x: float("inf"), "integrand")
