"""Configuration-space Lagrange-mesh solver (nonrelativistic only).

Independent route used to cross-validate momentum-space results: the same
Laguerre mesh carries the reduced radial Schroedinger equation in r, where
the potential is diagonal and the kinetic matrix is the radial form of
:mod:`lagmesh.mesh` divided by h_r^2,

    H_ij = (2 mu h_r^2)^-1 (t_ij + l(l+1)/x_i^2 delta_ij) + V(h_r x_i) delta_ij.

A problem is the momentum solver's ``ProblemSpec`` with its ``scale`` h_r
in units of length. mu and the bound-state window come from its kinetic
operator, which must be a ``NonrelativisticKinetic``: semirelativistic
kinematics is deliberately not supported here. The reduced wavefunction is
the Lagrange expansion of :mod:`lagmesh.mesh` times r.
"""

import math

import numpy as np

from .errors import ConfigurationError
from .kinetics import NonrelativisticKinetic
from .mesh import _node_values, lagrange_expansion, radial_form
from .solver import BoundState, ProblemSpec, _solve_cached

__all__ = [
    "assemble_config_hamiltonian",
    "solve_config",
    "mean_values",
    "reduced_wavefunction",
]


def _reduced_mass(problem: ProblemSpec) -> float:
    if not isinstance(problem.kinetic, NonrelativisticKinetic):
        raise ConfigurationError(
            "the configuration-space cross-check supports nonrelativistic kinematics only"
        )
    return problem.kinetic.mu


def assemble_config_hamiltonian(problem: ProblemSpec) -> np.ndarray:
    mu = _reduced_mass(problem)
    m = problem.mesh()
    values = radial_form(m, problem.l) / (m.scale * m.scale) / (2.0 * mu)
    return values + np.diag(_node_values(m, problem.potential.radial_value, "potential"))


def solve_config(problem: ProblemSpec) -> list[BoundState]:
    """The labeled bound states inside the kinetic operator's window, in
    ascending energy; they are cached per problem, as ``solve`` caches them."""
    return list(_solve_cached(assemble_config_hamiltonian, problem))


def mean_values(state: BoundState, problem: ProblemSpec) -> dict:
    """The state's mean values by name, in a fixed order.

    ``energy``; ``p2_mean``, <q^2> through the radial form divided by h_r^2;
    ``r_mean`` and ``potential_mean``, diagonal in configuration space as
    sum C_j^2 K(h x_j); and ``hamiltonian_mean`` = <p^2> / (2 mu) + <V>.
    """
    mu = _reduced_mass(problem)
    m = state.mesh
    c = state.coefficients
    form = radial_form(m, problem.l) / (m.scale * m.scale)
    values = {
        "energy": state.energy,
        "p2_mean": float(c @ form @ c),
        "r_mean": float(np.dot(c**2, m.scale * m.nodes)),
        "potential_mean": float(
            np.dot(c**2, _node_values(m, problem.potential.radial_value, "radial observable"))
        ),
    }
    values["hamiltonian_mean"] = values["p2_mean"] / (2.0 * mu) + values["potential_mean"]
    return values


def reduced_wavefunction(state: BoundState, r):
    """u(r) = r R(r) = sum_j C_j f_j(r / h_r) / sqrt(h_r), scalar or array r >= 0."""
    h = state.mesh.scale
    x = np.divide(r, h)
    out = x * lagrange_expansion(state.mesh, state.coefficients, x) / math.sqrt(h)
    return float(out) if np.ndim(r) == 0 else out
