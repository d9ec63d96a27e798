"""Dense symmetric eigensolver refined beyond double precision in double BLAS.

LAPACK's backward error ~eps*||A|| is not small enough for the strongly
graded matrices this package produces (configuration-space Hamiltonians
carry a 1/x_1^2 centrifugal corner of order 1e7 while the physical
eigenvalues are of order one). Two rounds of residual-form iterative
refinement (Ogita & Aishima, "Iterative refinement for symmetric eigenvalue
decomposition", Japan J. Indust. Appl. Math. 35 (2018) 1007) push both
eigenvalues and eigenvectors below double rounding without any extra
factorization.

A round needs A V for V held as a double-double pair vh + vl (Ogita, Rump &
Oishi, "Accurate sum and dot product", SIAM J. Sci. Comput. 26 (2005)
1955). It comes from double GEMMs through the error-free split product of
Ozaki, Ogita, Oishi & Rump (Numer. Algorithms 59 (2012) 95). Each row of A
and each column of vh is cut into a head of beta bits on a power-of-two grid
and a tail, with N 4^beta <= 2^53, so the head product A1 V1 is exact in
any summation order. The tail products A1 (V2 + vl) + A2 vh are of relative
size 2^-beta and cost only their double rounding, which leaves A V accurate
to about eps 2^-beta |A||V| (2^-75 at N = 400). The Rayleigh quotients d
cut the same way, into a head of 53 - beta bits, so V1 d_head is exact and
the residual R = A V - V diag(d) keeps that accuracy. Everything R
multiplies runs in plain double: R is of order eps*||A||, so rounding V^T R
and the correction V C leaves errors of order eps^2*||A||.

A is first scaled by the power of two that brings max|A| into [0.5, 1).
The scaling is exact, and it keeps every split grid inside the double range.
"""

import numpy as np

from .errors import NumericalError

__all__ = ["eigh_refined"]

_DEGENERACY_GUARD = 1e-9  # relative gap below which vector mixing is skipped


def eigh_refined(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of symmetric a.

    Starts from ``numpy.linalg.eigh`` and applies two rounds of residual-form
    refinement. Each round takes the residual R = A V - V diag(d) at the
    Rayleigh quotients d from the split product, forms B = V^T R in double
    BLAS, and corrects V by V C in double BLAS with C_ij = B_ij / (d_j - d_i);
    pairs closer than the degeneracy guard are not mixed. Each round squares
    the eigenpair error, so two rounds reach the floor of the split product
    from any LAPACK start. The returned eigenvalues are the Rayleigh quotients
    of the refined vectors, rounded once to double; an eigenvalue beyond the
    double range is a ``NumericalError``.
    """
    a = np.asarray(a, dtype=float)  # the split grids assume 53-bit doubles
    _, vh = np.linalg.eigh(a)
    exponent = np.frexp(np.max(np.abs(a)))[1]
    a2 = np.ldexp(a, -exponent)
    bits = (53 - (len(a) - 1).bit_length()) // 2  # N 4^bits <= 2^53
    a1 = _head(a2, _top(a2, axis=1), bits)
    a2 -= a1
    vl = np.zeros_like(vh)
    for _ in range(2):
        v1, d_head, d_tail, residual = _rayleigh(a1, a2, vh, vl, bits)
        residual -= vh * d_tail
        b = vh.T @ residual
        del residual
        gap = d_head[None, :] - d_head[:, None]
        gap += d_tail[None, :] - d_tail[:, None]
        scale = np.max(np.abs(d_head + d_tail)) or 1.0
        safe = np.abs(gap) > _DEGENERACY_GUARD * scale
        np.fill_diagonal(safe, False)
        c = np.zeros_like(b)
        np.divide(b, gap, out=c, where=safe)
        del b, gap
        vl += vh @ c
        del c
        vh, vl = _normalize(vh, vl, v1)
    _, d_head, d_tail, _ = _rayleigh(a1, a2, vh, vl, bits)
    with np.errstate(over="ignore"):
        d = np.ldexp(d_head + d_tail, exponent)
    if not np.all(np.isfinite(d)):
        raise NumericalError("an eigenvalue lies beyond the double range")
    order = np.argsort(d, kind="stable")
    return d[order], np.ascontiguousarray(vh[:, order])


def _top(x: np.ndarray, axis: int) -> np.ndarray:
    """Smallest t with max|x| < 2^t along axis (0 for an all-zero line)."""
    return np.frexp(np.max(np.abs(x), axis=axis, keepdims=True))[1]


def _head(x: np.ndarray, top, bits: int) -> np.ndarray:
    """x rounded to a multiple of 2^(top - bits), where |x| <= 2^top.

    The head has at most ``bits`` significant bits, and x - head is exact.
    Adding and removing sigma = 0.75 * 2^(top + 53 - bits) rounds x on the
    grid of sigma's last bit (Rump, Ogita & Oishi's ExtractScalar).
    """
    sigma = np.ldexp(0.75, top + 53 - bits)
    head = x + sigma
    head -= sigma
    return head


def _rayleigh(a1, a2, vh, vl, bits):
    """Split product P = A V, Rayleigh quotients d and residual P - V d_head.

    Returns the head v1 of vh, d as the unevaluated sum d_head + d_tail, and
    the residual at d_head (not yet at d).
    """
    v1 = _head(vh, _top(vh, axis=0), bits)
    t = vh - v1
    t += vl
    p2 = a1 @ t
    p2 += a2 @ vh
    p1 = a1 @ v1  # exact: bits + bits + log2(N) <= 53
    norm2 = np.sum(vh * vh, axis=0)
    np.add(p1, p2, out=t)
    t *= vh
    d_head = np.sum(t, axis=0) / norm2
    d_head = _head(d_head, np.frexp(d_head)[1], 53 - bits)
    np.multiply(v1, d_head, out=t)  # exact: bits + (53 - bits) significant bits
    p1 -= t
    np.subtract(vh, v1, out=t)
    t += vl
    t *= d_head
    p2 -= t
    p1 += p2
    np.multiply(vh, p1, out=t)
    d_tail = np.sum(t, axis=0) / norm2
    return v1, d_head, d_tail, p1


def _normalize(vh, vl, v1):
    """Columns of vh + vl scaled to unit norm, as a renormalized pair.

    v1, the head of vh from the split product and overwritten here, makes
    sum(v1^2) exact, and with v2 = vh - v1
    |vh + vl|^2 = sum(v1^2) + sum(v2 (v1 + vh) + vl (2 vh + vl)).
    """
    excess = np.sum(v1 * v1, axis=0) - 1.0
    t = vh - v1
    v1 += vh
    t *= v1
    np.add(vh, vh, out=v1)
    v1 += vl
    v1 *= vl
    t += v1
    excess += np.sum(t, axis=0)
    np.add(vh, vl, out=t)
    t *= np.expm1(-0.5 * np.log1p(excess))  # 1/|v| - 1 to relative eps
    vl += t
    return _two_sum(vh, vl)


def _two_sum(a, b):
    """s = fl(a + b) and the exact error (a + b) - s, overwriting b (Knuth)."""
    s = a + b
    z = s - a
    b -= z
    np.subtract(s, z, out=z)
    np.subtract(a, z, out=z)
    b += z
    return s, b
