"""Scaled Gauss-Laguerre Lagrange mesh and regularized Lagrange functions."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, NumericalError, _require_integer
from .specfun import _domain_points, laguerre_weighted, laguerre_weights, laguerre_zeros

__all__ = [
    "LaguerreMesh",
    "build_mesh",
    "lagrange_expansion",
    "lagrange_function",
    "radial_form",
]

_NODE_WINDOW = 1e-10  # half-width of the removable-singularity window


@dataclass(frozen=True, eq=False)
class LaguerreMesh:
    """Zeros and weights of the N-point Gauss-Laguerre rule plus a scale.

    ``nodes`` and ``weights`` are dimensionless; ``scale`` maps node i onto
    the physical momentum (or length) scale * nodes[i]; ``size`` is the
    number of nodes. Instances are immutable and safe to share.
    """

    nodes: np.ndarray
    weights: np.ndarray
    scale: float

    def __post_init__(self):
        if self.nodes.ndim != 1 or self.weights.shape != self.nodes.shape:
            shapes = f"{self.nodes.shape} and {self.weights.shape}"
            raise ConfigurationError(f"mesh nodes must be 1-D, weights of their shape: {shapes}")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)
        if np.any(self.nodes <= 0.0) or np.any(np.diff(self.nodes) <= 0.0):
            raise NumericalError("mesh nodes must be positive and increasing")
        if np.any(self.weights <= 0.0):
            raise NumericalError("mesh weights must be positive")
        norm = math.fsum(
            w * math.exp(-x) for w, x in zip(self.weights, self.nodes)
        )
        if abs(norm - 1.0) > 1e-12:
            raise NumericalError(
                f"quadrature normalization off by {norm - 1.0:.3e} for N={self.size}"
            )

    @property
    def size(self) -> int:
        return len(self.nodes)


@lru_cache(maxsize=128)
def _nodes_and_weights(size: int) -> tuple[np.ndarray, np.ndarray]:
    nodes = laguerre_zeros(size)  # LaguerreMesh makes both arrays read-only
    return nodes, laguerre_weights(nodes)


@lru_cache(maxsize=128, typed=True)
def build_mesh(size: int, scale: float) -> LaguerreMesh:
    """Construct the N-point mesh with the given physical scale factor.

    Cached per (size, scale) and argument type, so a non-integer size
    always reaches the integer check.
    """
    _require_integer("a mesh", size=size)
    if not 1 <= size <= 512:
        raise ConfigurationError(f"mesh size must be an integer in [1, 512], got {size!r}")
    if not 0.0 < scale < math.inf:
        raise ConfigurationError(f"mesh scale factor must be positive and finite, got {scale!r}")
    nodes, weights = _nodes_and_weights(size)
    return LaguerreMesh(nodes, weights, scale)


def lagrange_expansion(mesh: LaguerreMesh, coefficients, x) -> np.ndarray:
    """sum_j c_j f_j(x) / x elementwise on x >= 0, with the shape of x.

    Written as L_N(x) exp(-x/2) sum_j (-1)^j c_j x_j^{-1/2} (x - x_j)^{-1},
    which is finite at the origin for any coefficients. Inside a 1e-10
    window around x_j the removable singularity of f_j is replaced by its
    limit weights[j]^{-1/2}. A point that is not finite and >= 0, NaN
    included, raises ValueError.
    """
    x = _domain_points(x, "Lagrange functions are", "x")
    flat = x.reshape(-1)
    nodes = mesh.nodes
    signs = np.where(np.arange(1, mesh.size + 1) % 2 == 0, 1.0, -1.0)
    terms = flat[:, None] - nodes
    near = np.abs(terms) < _NODE_WINDOW
    terms[near] = np.inf
    np.divide(coefficients * signs / np.sqrt(nodes), terms, out=terms)
    out = laguerre_weighted(nodes, flat) * terms.sum(axis=1)
    rows, cols = np.nonzero(near)
    out[rows] += coefficients[cols] / flat[rows] / np.sqrt(mesh.weights[cols])
    return out.reshape(x.shape)


def lagrange_function(mesh: LaguerreMesh, i: int, x: float) -> float:
    """Regularized Lagrange function f_i(x), with i the 1-based node index.

    f_i(x) = (-1)^i x_i^{-1/2} x (x - x_i)^{-1} L_N(x) exp(-x/2),
    which vanishes at the origin and at every node but x_i, where it takes
    the value weights[i]^{-1/2}. Inside a 1e-10 window around x_i the
    removable singularity is replaced by that limit.
    """
    if not 1 <= i <= mesh.size:
        raise ValueError(f"node index must be in [1, {mesh.size}], got {i}")
    # The coefficient x turns f_i(x) / x into f_i(x); in the node window the
    # limit then comes out exactly, because x / x is 1.
    coefficients = np.zeros(mesh.size)
    coefficients[i - 1] = x
    return float(lagrange_expansion(mesh, coefficients, x))


def radial_form(mesh: LaguerreMesh, l: int) -> np.ndarray:
    """Mesh matrix of -d^2/dx^2 + l(l+1)/x^2 between regularized Lagrange functions.

    t_ij = (-1)^(i-j) (x_i x_j)^{-1/2} (x_i + x_j) (x_i - x_j)^{-2} off the
    diagonal and (12 x_i^2)^{-1} [4 + (4N + 2) x_i - x_i^2] + l(l+1)/x_i^2
    on it. This is the Gauss-quadrature approximation, which behaves better
    than the exact matrix elements of the regularized basis. Divided by the
    squared scale it is r^2 on a momentum mesh and q^2 on a radial mesh.
    """
    x = mesh.nodes
    n = mesh.size
    idx = np.arange(n)
    signs = np.where((idx[:, None] + idx[None, :]) % 2 == 0, 1.0, -1.0)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    t = signs * (x[:, None] + x[None, :]) / (np.sqrt(x[:, None] * x[None, :]) * diff * diff)
    np.fill_diagonal(
        t, (4.0 + (4.0 * n + 2.0) * x - x * x) / (12.0 * x * x) + l * (l + 1) / (x * x)
    )
    return t


def _node_values(mesh: LaguerreMesh, f, what: str) -> np.ndarray:
    """f(scale * x_j) at every node, refusing a non-finite value."""
    return _point_values(f, mesh.scale * mesh.nodes, what, "mesh node", "scale * x")


def _point_values(f, points: np.ndarray, what: str, where: str, name: str) -> np.ndarray:
    """f at each point of a 1-D array, passed as a Python float. A non-finite
    value raises NumericalError naming ``what``, the first such point as
    ``where`` and its 1-based index, and its value as ``name``."""
    values = np.array([f(point) for point in points.tolist()], dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = int(bad[0])
        raise NumericalError(
            f"{what} contains non-finite values, first at {where} {k + 1} "
            f"({name} = {float(points[k])!r})"
        )
    return values
