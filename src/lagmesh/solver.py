"""Momentum-space Lagrange-mesh Hamiltonian assembly and bound-state extraction.

On the scaled mesh the radial integral equation becomes the symmetric dense
eigenproblem

    H_ij = T(h^2 x_i^2) delta_ij + h^3 sqrt(l_i l_j) x_i x_j V_l(h x_i, h x_j),

with h the momentum scale, x_i the mesh nodes and l_i the quadrature
weights. Bound states are the eigenpairs whose energy falls inside the
kinetic operator's bound-state window. The configuration-space solver
turns its matrix into bound states through the same cached path.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, NumericalError, _require_integer
from .linalg import eigh_refined
from .mesh import LaguerreMesh, _node_values, build_mesh

__all__ = [
    "ProblemSpec",
    "BoundState",
    "assemble_hamiltonian",
    "solve",
]


@dataclass(frozen=True)
class ProblemSpec:
    """One partial-wave eigenproblem: kinetics + potential + mesh settings.

    ``scale`` is the mesh scale factor: a momentum for ``solve``, a length
    for the configuration-space solver of :mod:`lagmesh.configspace`. The
    kinetic operator alone fixes the masses and the bound-state window.
    """

    kinetic: object
    potential: object
    l: int
    size: int
    scale: float

    def __post_init__(self):
        _require_integer("a problem", l=self.l, size=self.size)
        if self.l < 0:
            raise ConfigurationError(f"partial wave must be >= 0, got {self.l}")

    def mesh(self) -> LaguerreMesh:
        return build_mesh(self.size, self.scale)


@dataclass(frozen=True, eq=False)
class BoundState:
    """Eigenvalue and normalized expansion coefficients with labels (n, l).

    ``n`` counts radial excitations (rank by energy within the partial
    wave); ``coefficients`` obey sum C_j^2 = 1 with the first nonzero entry
    positive.
    """

    energy: float
    coefficients: np.ndarray
    n: int
    l: int
    mesh: LaguerreMesh

    def __post_init__(self):
        self.coefficients.setflags(write=False)


def assemble_hamiltonian(problem: ProblemSpec) -> np.ndarray:
    """Build the dense symmetric H, one kernel call on the upper triangle.

    A kernel that raises or returns a non-finite value is reported as a
    ``NumericalError`` naming the first failing mesh pair in row order, and
    a non-finite kinetic energy as one naming its mesh node.
    """
    m = problem.mesh()
    h = m.scale
    x = m.nodes
    sqrt_w = np.sqrt(m.weights)
    kernel = problem.potential.kernel(problem.l)
    n = m.size
    momenta = h * x
    i, j = np.triu_indices(n)
    try:
        v = kernel(momenta[i], momenta[j])
    except Exception as exc:
        _raise_at_first_failure(kernel, momenta, i, j)
        raise NumericalError(f"potential kernel failed on the mesh triangle: {exc}") from exc
    # an overflowing h**3 gives inf/NaN entries, refused just below
    with np.errstate(over="ignore", invalid="ignore"):
        entries = np.float64(h) ** 3 * sqrt_w[i] * sqrt_w[j] * x[i] * x[j] * v
    bad = np.flatnonzero(~np.isfinite(entries))
    if bad.size:
        k = bad[0]
        raise NumericalError(
            f"non-finite Hamiltonian entry at {_site(momenta, i[k], j[k])}: "
            f"kernel value {float(v[k])!r}"
        )
    values = np.empty((n, n))
    values[i, j] = entries
    values[j, i] = entries
    values[np.diag_indices(n)] += _node_values(m, problem.kinetic.value, "kinetic energy")
    return values


def _site(momenta: np.ndarray, i: int, j: int) -> str:
    return f"mesh pair (i={i + 1}, j={j + 1}), p={float(momenta[i])!r}, p'={float(momenta[j])!r}"


def _raise_at_first_failure(kernel, momenta: np.ndarray, rows, cols) -> None:
    """After a failed batch call, evaluate pair by pair and report the first
    pair whose kernel call raises or gives a non-finite value."""
    for i, j in zip(rows, cols):
        try:
            v = kernel(momenta[i : i + 1], momenta[j : j + 1])
        except Exception as exc:
            raise NumericalError(
                f"potential kernel failed at {_site(momenta, i, j)}: {exc}"
            ) from exc
        if not np.all(np.isfinite(v)):
            raise NumericalError(
                f"non-finite Hamiltonian entry at {_site(momenta, i, j)}: "
                f"kernel value {float(v[0])!r}"
            )


@lru_cache(maxsize=128)
def _solve_cached(assemble, problem):
    """The bound states of ``assemble(problem)`` as a tuple, cached per
    (assembler, problem) for the solvers of both spaces. A non-finite entry
    is refused before the pairs near the kinetic operator's window are
    refined, and a non-finite pair or a residual above 1e-11 * ||H||_2 after.
    Each pair with lower < energy < upper becomes a unit vector with its first
    nonzero entry positive, ranked by ``n``; only these few N-vectors stay."""
    hamiltonian = assemble(problem)
    if not np.all(np.isfinite(hamiltonian)):
        raise NumericalError("Hamiltonian contains non-finite entries")
    lower, upper = window = problem.kinetic.bound_window()
    energies, vectors, norm = eigh_refined(hamiltonian, window)
    if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(vectors))):
        raise NumericalError("eigensolver returned non-finite eigenpairs")
    residual = np.abs(hamiltonian @ vectors - vectors * energies).max(initial=0.0)
    bound = 1e-11 * norm  # ||H||_2 from the eigenvalues, without an SVD
    if not residual <= bound:
        raise NumericalError(
            f"eigensolver residual {residual:.3e} exceeds 1e-11 * ||H|| = {bound:.3e}"
        )
    mesh = problem.mesh()
    states = []
    for n, idx in enumerate(np.flatnonzero((energies > lower) & (energies < upper))):
        c = vectors[:, idx].copy()
        c /= np.linalg.norm(c)
        first = np.flatnonzero(c)
        if first.size and c[first[0]] < 0.0:
            c = -c
        states.append(BoundState(float(energies[idx]), c, n=n, l=problem.l, mesh=mesh))
    return tuple(states)


def solve(problem: ProblemSpec) -> list[BoundState]:
    """Assemble, diagonalize and select the bound states of a problem.

    The bound states are cached per ProblemSpec, so a repeated solve of the
    same problem is free. No eigenvector matrix is kept: a full spectrum
    comes from ``lagmesh.linalg.eigh_refined(assemble_hamiltonian(problem))``,
    without the checks a solve applies.
    """
    return list(_solve_cached(assemble_hamiltonian, problem))
