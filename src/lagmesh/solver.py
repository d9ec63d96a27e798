"""Momentum-space Lagrange-mesh Hamiltonian assembly and bound-state extraction.

On the scaled mesh the radial integral equation becomes the symmetric dense
eigenproblem

    H_ij = T(h^2 x_i^2) delta_ij + h^3 sqrt(l_i l_j) x_i x_j V_l(h x_i, h x_j),

with h the momentum scale, x_i the mesh nodes and l_i the quadrature
weights. Bound states are the eigenpairs whose energy falls inside the
kinetic operator's bound-state window. ``solve_spectrum`` and
``select_bound_states`` take any mesh matrix and window, so the
configuration-space solver turns its matrix into bound states the same way.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .linalg import eigh_refined
from .mesh import LaguerreMesh, build_mesh

__all__ = [
    "ProblemSpec",
    "BoundState",
    "assemble_hamiltonian",
    "solve_spectrum",
    "select_bound_states",
    "solve",
]


@dataclass(frozen=True)
class ProblemSpec:
    """One partial-wave eigenproblem: kinetics + potential + mesh settings."""

    kinetic: object
    potential: object
    l: int
    size: int
    scale: float

    def __post_init__(self):
        if self.l < 0:
            raise ValueError(f"partial wave must be >= 0, got {self.l}")

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
    ``NumericalError`` naming the first failing mesh pair in row order.
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
        v = kernel.evaluate(momenta[i], momenta[j])
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
    for k in range(n):
        values[k, k] += problem.kinetic.value(momenta[k])
    return values


def _site(momenta: np.ndarray, i: int, j: int) -> str:
    return f"mesh pair (i={i + 1}, j={j + 1}), p={float(momenta[i])!r}, p'={float(momenta[j])!r}"


def _raise_at_first_failure(kernel, momenta: np.ndarray, rows, cols) -> None:
    """After a failed batch call, evaluate pair by pair and report the first
    pair whose kernel call raises or gives a non-finite value."""
    for i, j in zip(rows, cols):
        try:
            v = kernel.evaluate(momenta[i : i + 1], momenta[j : j + 1])
        except Exception as exc:
            raise NumericalError(
                f"potential kernel failed at {_site(momenta, i, j)}: {exc}"
            ) from exc
        if not np.all(np.isfinite(v)):
            raise NumericalError(
                f"non-finite Hamiltonian entry at {_site(momenta, i, j)}: "
                f"kernel value {float(v[0])!r}"
            )


def solve_spectrum(hamiltonian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues (ascending) and orthonormal eigenvectors of a mesh H.

    A non-finite entry is refused before the eigensolver sees it, and a
    non-finite eigenpair or a residual above 1e-11 * ||H|| after it. Exact
    degeneracies are ordered by the index of the largest-magnitude
    coefficient, so the output is reproducible.
    """
    if not np.all(np.isfinite(hamiltonian)):
        raise NumericalError("Hamiltonian contains non-finite entries")
    energies, vectors = eigh_refined(hamiltonian)
    if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(vectors))):
        raise NumericalError("eigensolver returned non-finite eigenpairs")
    order = np.lexsort((np.argmax(np.abs(vectors), axis=0), energies))
    energies = energies[order]
    vectors = vectors[:, order]
    residual = np.abs(hamiltonian @ vectors - vectors * energies).max()
    bound = 1e-11 * np.abs(energies).max()  # ||H||_2 of a symmetric H, without an SVD
    if not residual <= bound:
        raise NumericalError(
            f"eigensolver residual {residual:.3e} exceeds 1e-11 * ||H|| = {bound:.3e}"
        )
    return energies, vectors


def select_bound_states(
    energies: np.ndarray,
    vectors: np.ndarray,
    window: tuple[float, float],
    mesh: LaguerreMesh,
    l: int,
) -> list[BoundState]:
    """Keep eigenpairs with lower < energy < upper, normalized and labeled.

    Returns them in ascending energy; an empty list is a legitimate outcome.
    """
    lower, upper = window
    states = []
    for idx in np.flatnonzero((energies > lower) & (energies < upper)):
        c = vectors[:, idx].copy()
        c /= np.linalg.norm(c)
        first = np.flatnonzero(c)
        if first.size and c[first[0]] < 0.0:
            c = -c
        states.append(
            BoundState(
                energy=float(energies[idx]),
                coefficients=c,
                n=len(states),
                l=l,
                mesh=mesh,
            )
        )
    return states


@lru_cache(maxsize=64)
def _solve_cached(problem: ProblemSpec):
    spectrum, vectors = solve_spectrum(assemble_hamiltonian(problem))
    spectrum.setflags(write=False)
    vectors.setflags(write=False)
    return spectrum, vectors


def solve(problem: ProblemSpec) -> list[BoundState]:
    """Assemble, diagonalize and select the bound states of a problem.

    Full spectra are cached per ProblemSpec, so repeated observable
    evaluations on the same problem are free.
    """
    window = problem.kinetic.bound_window()  # a missing window fails before the solve
    spectrum, vectors = _solve_cached(problem)
    return select_bound_states(spectrum, vectors, window, problem.mesh(), problem.l)
