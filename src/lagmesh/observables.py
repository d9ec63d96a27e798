"""Wavefunctions and mean values from momentum-space mesh solutions.

Momentum-dependent operators are diagonal on the mesh, so their mean values
collapse to sum_j C_j^2 U(h x_j). Radial operators go through the spectral
calculus of the r^2 matrix: r^2 = -laplacian_p in momentum space, whose mesh
representation P is the radial form of :mod:`lagmesh.mesh` divided by h^2,
diagonalized once per (N, l); K(r) is then applied as K(sqrt(.)/h) on the
eigenvalues. The momentum wavefunction is the Lagrange expansion of
:mod:`lagmesh.mesh` rescaled to momentum units; the position wavefunction
is the mesh Fourier-Bessel sum. Both take a scalar or an array.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import NumericalError, _require_integer
from .linalg import eigh_refined
from .mesh import _node_values, _point_values, build_mesh, lagrange_expansion, radial_form
from .solver import BoundState, ProblemSpec
from .specfun import _domain_points, spherical_bessel_j

__all__ = [
    "build_position_calculus",
    "wavefunction_momentum",
    "wavefunction_position",
    "expval_momentum",
    "expval_radial",
    "mean_values",
]

_CLAMP = 1e-9  # tolerated quadrature leakage of the dimensionless r^2 spectrum below zero


@lru_cache(maxsize=32, typed=True)
def build_position_calculus(size: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Factorize t_ij + l(l+1)/x_i^2 delta_ij on the N-point mesh at scale 1.

    Returns read-only ``(eigenvalues, transform)`` with
    ``radial_form(mesh, l) = transform @ diag(eigenvalues) @ transform.T``.
    On a mesh of scale h, r^2 is this form divided by h^2, so one
    factorization per (N, l) serves every h and its radii are
    sqrt(eigenvalues) / h. The spectrum must be nonnegative up to quadrature
    error; eigenvalues inside a 1e-9 window below zero are clamped to zero.
    Cached per (N, l) and argument type, so a non-integer one is refused.
    """
    _require_integer("an r^2 calculus", size=size, l=l)
    eigenvalues, transform, _ = eigh_refined(radial_form(build_mesh(size, 1.0), l))
    if np.any(eigenvalues < -_CLAMP):
        raise NumericalError(
            f"r^2 spectrum dips to {eigenvalues.min():.3e}, below the -1e-9 "
            f"quadrature-consistency bound (N={size}, l={l})"
        )
    eigenvalues = np.where(eigenvalues < 0.0, 0.0, eigenvalues)
    eigenvalues.setflags(write=False)
    transform.setflags(write=False)
    return eigenvalues, transform


def wavefunction_momentum(state: BoundState, p):
    """Radial momentum wavefunction of the state, defined for finite p >= 0.

    Between mesh points this is the full expansion
    sum_j C_j f_j(p/h) / (sqrt(h) p), evaluated for a scalar or an array of
    momenta; it is finite at p = 0 for every l.
    """
    h = state.mesh.scale
    out = lagrange_expansion(state.mesh, state.coefficients, np.divide(p, h)) / h**1.5
    return float(out) if np.ndim(p) == 0 else out


def wavefunction_position(state: BoundState, r):
    """Position wavefunction reconstructed by the mesh Fourier formula.

    R(r) = (-1)^l sqrt(2/pi) h^(3/2) sum_i C_i sqrt(l_i) x_i j_l(h x_i r).
    No smoothing is applied: beyond some radius the reconstruction develops
    rapid unphysical oscillations that only a larger mesh pushes outward.
    A radius that is not finite and >= 0 raises ValueError naming it.
    """
    m = state.mesh
    h = m.scale
    r_arr = np.atleast_1d(_domain_points(r, "the position wavefunction is", "r"))
    weights = state.coefficients * np.sqrt(m.weights) * m.nodes
    bess = spherical_bessel_j(state.l, np.outer(r_arr, h * m.nodes))
    out = (
        (-1.0 if state.l % 2 else 1.0)
        * math.sqrt(2.0 / math.pi)
        * h**1.5
        * np.sum(bess * weights, axis=1)
    )
    return float(out[0]) if np.ndim(r) == 0 else out


def expval_momentum(state: BoundState, u) -> float:
    """Mean value of a momentum-dependent operator: sum_j C_j^2 U(h x_j)."""
    values = _node_values(state.mesh, u, "momentum observable")
    return float(np.dot(state.coefficients**2, values))


def expval_radial(state: BoundState, k) -> float:
    """Mean value of a radial operator through the r^2 spectral calculus.

    K is evaluated at the radii sqrt(lam_m) / h of the (N, l) factorization
    and rotated back: <K> = sum_m K(sqrt(lam_m) / h) (S^T C)_m^2, using
    S^-1 = S^T.
    """
    eigenvalues, transform = build_position_calculus(state.mesh.size, state.l)
    radii = np.sqrt(eigenvalues) / state.mesh.scale
    diag = _point_values(k, radii, "radial observable", "spectral point", "r")
    projected = transform.T @ state.coefficients
    return float(np.dot(diag, projected * projected))


def mean_values(state: BoundState, problem: ProblemSpec) -> dict:
    """The state's mean values by name, in a fixed order.

    ``energy``, ``kinetic_mean`` (<T>), ``p2_mean``, ``p4_mean``, ``r_mean``,
    ``potential_mean`` (<V>) and ``hamiltonian_mean`` = <T> + <V>. Momentum
    operators are diagonal sums; r and V go through the r^2 calculus.
    """
    values = {
        "energy": state.energy,
        "kinetic_mean": expval_momentum(state, problem.kinetic.value),
        "p2_mean": expval_momentum(state, lambda p: p * p),
        "p4_mean": expval_momentum(state, lambda p: p**4),
        "r_mean": expval_radial(state, lambda r: r),
        "potential_mean": expval_radial(state, problem.potential.radial_value),
    }
    values["hamiltonian_mean"] = values["kinetic_mean"] + values["potential_mean"]
    return values
