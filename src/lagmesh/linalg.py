"""Dense symmetric eigensolver with extended-precision refinement.

LAPACK's backward error ~eps*||A|| is not small enough for the strongly
graded matrices this package produces (configuration-space Hamiltonians
carry a 1/x_1^2 centrifugal corner of order 1e7 while the physical
eigenvalues are of order one). Two rounds of residual-form iterative
refinement (Ogita & Aishima, "Iterative refinement for symmetric eigenvalue
decomposition", Japan J. Indust. Appl. Math. 35 (2018) 1007) push both
eigenvalues and eigenvectors to the accuracy of the 80-bit ``longdouble``
type without any extra factorization.

Only one O(N^3) product per round needs 80-bit arithmetic: A V, from which
the Rayleigh quotients d and the residual R = A V - V diag(d) follow in
O(N^2). NumPy has no BLAS for ``longdouble``, so this product is the cost of
a round. Everything R multiplies runs in double-precision BLAS: R is of
order eps*||A|| (eps the double epsilon), so rounding V^T R and the
correction V C in double leaves errors of order eps^2*||A||, below the
extended-precision floor. One more 80-bit product gives the final Rayleigh
quotients, so a call makes three 80-bit products.
"""

import numpy as np

__all__ = ["eigh_refined"]

_DEGENERACY_GUARD = 1e-9  # relative gap below which vector mixing is skipped


def eigh_refined(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of symmetric a.

    Starts from ``numpy.linalg.eigh`` and applies two rounds of residual-form
    refinement. Each round takes the 80-bit residual R = A V - V diag(d) at
    the Rayleigh quotients d, forms B = V^T R in double BLAS, and corrects V
    by V C in double BLAS with C_ij = B_ij / (d_j - d_i); pairs closer than
    the degeneracy guard are not mixed. Each round squares the eigenpair
    error, so two rounds reach the extended-precision floor from any LAPACK
    start. The returned eigenvalues are the 80-bit Rayleigh quotients of the
    refined vectors.
    """
    _, v = np.linalg.eigh(a)
    a_ext = a.astype(np.longdouble)
    # Column-major V makes every inner product of np.dot(a_ext, v_ext)
    # unit-stride; NumPy's non-BLAS matmul is about three times slower.
    v_ext = np.asfortranarray(v, dtype=np.longdouble)
    for _ in range(2):
        residual = np.dot(a_ext, v_ext)
        d = np.sum(v_ext * residual, axis=0) / np.sum(v_ext * v_ext, axis=0)
        residual -= v_ext * d
        v_hi = v_ext.astype(float)
        b = v_hi.T @ residual.astype(float)
        del residual  # N^2 longdouble; peak RSS is set inside this loop at large N
        gap = (d[None, :] - d[:, None]).astype(float)
        scale = np.max(np.abs(d)) or 1.0
        safe = np.abs(gap) > _DEGENERACY_GUARD * scale
        np.fill_diagonal(safe, False)
        c = np.zeros_like(b)
        c[safe] = b[safe] / gap[safe]
        v_ext += v_hi @ c
        v_ext /= np.sqrt(np.sum(v_ext * v_ext, axis=0))
    d = np.sum(v_ext * np.dot(a_ext, v_ext), axis=0)
    order = np.argsort(d, kind="stable")
    return d[order].astype(float), np.ascontiguousarray(v_ext[:, order], dtype=float)
