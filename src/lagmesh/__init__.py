"""Two-body bound states on a Gauss-Laguerre Lagrange mesh in momentum space.

The mesh turns the radial momentum-space integral equation into a small dense
symmetric eigenproblem in which any kinetic operator T(p^2) is diagonal;
wavefunctions and observables in both spaces follow from the expansion
coefficients alone. A configuration-space solver on the same mesh provides an
independent cross-check for nonrelativistic problems: it takes the same
``ProblemSpec``, with its scale a length instead of a momentum.
"""

from .configspace import reduced_wavefunction, solve_config
from .errors import ConfigurationError, NumericalError
from .kinetics import CustomKinetic, NonrelativisticKinetic, SalpeterKinetic
from .mesh import LaguerreMesh, build_mesh
from .observables import (
    build_position_calculus,
    expval_momentum,
    expval_radial,
    wavefunction_momentum,
    wavefunction_position,
)
from .potentials import CustomPotential, GaussianPotential, YukawaPotential
from .solver import (
    BoundState,
    ProblemSpec,
    assemble_hamiltonian,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BoundState",
    "ConfigurationError",
    "CustomKinetic",
    "CustomPotential",
    "GaussianPotential",
    "LaguerreMesh",
    "NonrelativisticKinetic",
    "NumericalError",
    "ProblemSpec",
    "SalpeterKinetic",
    "YukawaPotential",
    "assemble_hamiltonian",
    "build_mesh",
    "build_position_calculus",
    "expval_momentum",
    "expval_radial",
    "reduced_wavefunction",
    "solve",
    "solve_config",
    "wavefunction_momentum",
    "wavefunction_position",
]
