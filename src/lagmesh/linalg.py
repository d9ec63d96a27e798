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
Its limit: an eigenvalue below about 2^-1022 max|A| is accurate only to
eps ||A||, not relatively, because its products underflow after the scaling.

LAPACK gets one start, in A1's buffer: A with every entry below its local
double grid, |a_ij| < (eps/N) sqrt(|a_ii a_jj|) with eps = 2^-53, set to 0
(a local bound, after Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13
(1992) 1204, so graded matrices keep their small couplings), read from the
upper triangle. Most of the Gaussian H is below its grid, and LAPACK's
reduction dsytrd then starts at its large-momentum end, among the zeros,
instead of in subnormal products: 2.9 ms instead of 7.0 at N = 200 (one
BLAS thread). The flush moves A by at most eps ||A||_2, within LAPACK's own
error, and the refinement runs on the exact A.

One margin, 1e-12 ||A||_2, about 500 times LAPACK's largest error from this
start (2.1e-15 ||A||_2 on 42 solver matrices at N = 10-400), widens the
window and is the gap above which a round mixes two pairs. Two rounds take
those to the floor of the split product, so the refined pairs depend neither
on LAPACK's start nor on the BLAS thread count. None of the 42 matrices has
a closer pair, nor has the r^2 form at N = 400 up to l = 60; at N = 512,
l = 26 it has 4, among its smallest eigenvalues. Such a pair keeps LAPACK's
rotation within it, and a round only restores its orthogonality, with
C_ij = -u_i^T v_j / 2 (Ogita & Aishima's rule for a cluster), from one more
GEMM.

A window picks the k pairs whose LAPACK eigenvalue lies in it, widened by
the margin. Only those columns V enter the split product; U^T R and U C take
the whole basis U, LAPACK's vectors with the refined columns written back
after round 1, and the gap to an unrefined pair is taken at its LAPACK
eigenvalue. A pair's correction needs no other refined pair, so on the 42
matrices a windowed pair's eigenvalue equals the full refinement's bit for
bit, and its vector agrees within 1/128 ulp. A full window, k = N and U = V,
is the same algorithm.

A call makes 10 double GEMMs of N x N by N x k, five per round: three for
the split product, one each for U^T R and U C. The eigenvalues are round
2's Rayleigh quotients, with an error of order |C_2|^2 ||A|| (C_2 is at most
5.6e-17 at Yukawa N = 400), far below the split product's floor, so the
final vectors need no product of their own. Every step writes with ``out=``
into a fixed workspace: with a full window seven N x N arrays (A1, vh, vl
and four work buffers, one of which holds the tail A2 = 2^-e A - A1,
rebuilt for round 2); with a narrow one LAPACK's basis, A1, A2 and N x k
for the rest. Strictly ascending eigenvalues need no sort, and vh is
returned without a copy.

At N = 200 a second BLAS thread gains nothing, so a caller solving several
matrices at once can hold OpenBLAS at one thread per solving thread with
``_one_blas_thread``.
"""

import ctypes
import math
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .errors import NumericalError

__all__ = ["eigh_refined"]

_EPS = 2.0**-53  # the unit roundoff of a double
_WINDOW_MARGIN = 1e-12  # LAPACK's error, relative to ||A||_2, with a 500x margin
# (setter, getter) of the OpenBLAS thread count: the suffixed names of the
# scipy-openblas wheels NumPy ships, and the plain names of a system OpenBLAS
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def eigh_refined(
    a: np.ndarray, window: tuple[float, float] = (-math.inf, math.inf)
) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues (ascending), orthonormal eigenvectors and ||a||_2 of symmetric a.

    LAPACK's ``numpy.linalg.eigh`` finds every pair; those whose LAPACK
    eigenvalue lies in the window, widened by _WINDOW_MARGIN ||a||_2, get two
    rounds of residual-form refinement and are returned. ||a||_2 is the
    largest |eigenvalue|, refined where refined. Exact degeneracies are
    ordered by the index of each vector's largest-magnitude entry.

    A round takes the residual R = A V - V diag(d) of the refined columns V at
    their Rayleigh quotients d from the split product, forms B = U^T R against
    the basis U in double BLAS, and corrects V by U C with C_ij = B_ij /
    (d_j - d_i), or C_ij = -u_i^T v_j / 2 for a pair within the margin, which
    only keeps it orthogonal. Each round squares the error of a mixed pair.
    The eigenvalues are round 2's Rayleigh quotients, rounded once to double.
    One beyond the double range is a ``NumericalError``; an a that is not a
    square matrix with at least one row is a ``ValueError``.
    """
    a = np.asarray(a, dtype=float)  # the split grids assume 53-bit doubles
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not len(a):
        raise ValueError(f"eigh_refined needs a square matrix with at least one row, got shape {a.shape}")
    start = _lapack_start(a, np.empty_like(a))  # in the buffer that becomes A1
    w, basis = np.linalg.eigh(start, UPLO="U")
    n = len(a)
    lower, upper = window
    margin = _WINDOW_MARGIN * max(-w[0], w[-1])
    first = 0 if lower == -math.inf else int(np.searchsorted(w, lower - margin, "left"))
    stop = n if upper == math.inf else int(np.searchsorted(w, upper + margin, "right"))
    stop = max(first, stop)
    refined, k = slice(first, stop), stop - first
    exponent = np.frexp(max(a.max(), -a.min()))[1]
    guard = np.ldexp(margin, -exponent)  # the margin, scaled: closer pairs are not mixed
    head = np.ldexp(w, -exponent)  # every d_i: LAPACK's, refined ones replaced
    tail = np.zeros(n)
    bits = (53 - (n - 1).bit_length()) // 2  # N 4^bits <= 2^53
    v1, t, p1, p2 = (np.empty((n, k)) for _ in range(4))
    a2 = p2 if k == n else np.empty_like(a)  # the split tail
    np.ldexp(a, -exponent, out=a2)
    a1 = _head(a2, _top(a2, axis=1), bits, start)
    a2 -= a1
    vh = basis if k == n else basis[:, refined].copy()
    vl = np.zeros_like(vh)
    for step in range(2 if k else 0):
        d_head, d_tail = _rayleigh(a1, a2, vh, vl, bits, v1, t, p1, p2)
        head[refined] = d_head
        tail[refined] = d_tail
        np.multiply(vh, d_tail, out=t)
        p1 -= t  # the residual at d
        np.matmul(basis.T, p1, out=p2)  # B
        np.subtract(d_head[None, :], head[:, None], out=t)  # the gaps
        np.subtract(d_tail[None, :], tail[:, None], out=p1)
        t += p1
        mask = np.abs(t, out=p1) > guard  # the pairs to mix
        p1.fill(0.0)
        np.divide(p2, t, out=p1, where=mask)  # C
        np.logical_not(mask, out=mask)  # the pairs closer than the guard
        np.fill_diagonal(mask[refined], False)  # but i = j, where the gap is 0
        if mask.any():  # keep them orthogonal: C_ij = -u_i^T v_j / 2
            np.multiply(np.matmul(basis.T, vh, out=p2), -0.5, out=p1, where=mask)
        del mask
        vl += np.matmul(basis, p1, out=t)
        vh, p1 = _normalize(vh, vl, v1, t, p1, p2), vh
        if step == 0 and k == n:
            basis = vh  # the refined vectors are the whole basis
            np.subtract(np.ldexp(a, -exponent, out=a2), a1, out=a2)  # A2 again: p2 was reused
        elif step == 0:
            basis[:, refined] = vh  # the refined columns join the basis
    with np.errstate(over="ignore"):
        d = np.ldexp(head[refined] + tail[refined], exponent)
        norm = float(np.ldexp(np.max(np.abs(head + tail)), exponent))
    if not (np.all(np.isfinite(d)) and math.isfinite(norm)):
        raise NumericalError("an eigenvalue lies beyond the double range")
    if np.all(np.diff(d) > 0):  # LAPACK's order, with no tie to break
        return d, vh, norm
    del basis, start, a1, a2, vl, v1, t, p1, p2  # the sorted vectors reuse this memory: a lower peak RSS
    order = np.lexsort((np.argmax(np.abs(vh), axis=0), d))
    return d[order], np.ascontiguousarray(vh[:, order]), norm


def _lapack_start(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a with every |a_ij| < (eps/N) sqrt(|a_ii a_jj|) set to 0, in out, by comparisons alone."""
    root = np.sqrt(np.abs(np.diagonal(a)))
    np.multiply.outer(root * (_EPS / len(a)), root, out=out)  # the bound
    below = np.less(a, out)
    below &= np.greater(a, np.negative(out, out=out))
    np.copyto(out, a)
    np.putmask(out, below, 0.0)
    return out


def _top(x: np.ndarray, axis: int) -> np.ndarray:
    """Smallest t with max|x| < 2^t along axis (0 for an all-zero line)."""
    return np.frexp(np.maximum(np.max(x, axis, keepdims=True), -np.min(x, axis, keepdims=True)))[1]


def _head(x: np.ndarray, top, bits: int, out: np.ndarray) -> np.ndarray:
    """x rounded to a multiple of 2^(top - bits), where |x| <= 2^top, into out.

    The head has at most ``bits`` significant bits, and x - head is exact.
    Adding and removing sigma = 0.75 * 2^(top + 53 - bits) rounds x on the
    grid of sigma's last bit (Rump, Ogita & Oishi's ExtractScalar).
    """
    sigma = np.ldexp(0.75, top + 53 - bits)
    np.add(x, sigma, out=out)
    out -= sigma
    return out


def _rayleigh(a1, a2, vh, vl, bits, v1, t, p1, p2):
    """Split product P = A V, Rayleigh quotients d and residual P - V d_head.

    Takes the scaled A as its head a1 and tail a2 (which may be p2: A2 is
    dead once p2 is written). Writes the head of vh into v1 and the residual
    at d_head (not yet at d) into p1, and returns d as d_head + d_tail.
    """
    norm2 = np.sum(np.multiply(vh, vh, out=t), axis=0)
    _head(vh, _top(vh, axis=0), bits, v1)
    np.subtract(vh, v1, out=t)
    t += vl
    np.matmul(a2, vh, out=p1)
    np.matmul(a1, t, out=p2)
    p2 += p1
    np.matmul(a1, v1, out=p1)  # exact: bits + bits + log2(N) <= 53
    np.add(p1, p2, out=t)
    t *= vh
    d_head = np.sum(t, axis=0) / norm2
    _head(d_head, np.frexp(d_head)[1], 53 - bits, d_head)
    np.multiply(v1, d_head, out=t)  # exact: bits + (53 - bits) significant bits
    p1 -= t
    np.subtract(vh, v1, out=t)
    t += vl
    t *= d_head
    p2 -= t
    p1 += p2
    np.multiply(vh, p1, out=t)
    d_tail = np.sum(t, axis=0) / norm2
    return d_head, d_tail


def _normalize(vh, vl, v1, t, s, z):
    """Columns of vh + vl scaled to unit norm, as the renormalized pair s + vl.

    v1, the head of vh from the split product and overwritten here, makes
    sum(v1^2) exact, and with v2 = vh - v1
    |vh + vl|^2 = sum(v1^2) + sum(v2 (v1 + vh) + vl (2 vh + vl)).
    """
    excess = np.sum(np.multiply(v1, v1, out=t), axis=0) - 1.0
    np.subtract(vh, v1, out=t)
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
    return _two_sum(vh, vl, s, z)[0]


def _two_sum(a, b, s=None, z=None):
    """s = fl(a + b) and the exact error (a + b) - s, overwriting b (Knuth); s, z: out arrays."""
    s = np.add(a, b, out=s)
    z = np.subtract(s, a, out=z)
    b -= z
    np.subtract(s, z, out=z)
    np.subtract(a, z, out=z)
    b += z
    return s, b


@lru_cache(maxsize=None)
def _blas_thread_calls():
    """(set, get) of the thread count of the OpenBLAS NumPy links, or None.

    The symbols are looked up through NumPy's ``_multiarray_umath``
    extension, which links the BLAS; another BLAS, or none found, gives None.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for setter, getter in _BLAS_THREAD_SYMBOLS:
        if hasattr(lib, setter) and hasattr(lib, getter):
            return getattr(lib, setter), getattr(lib, getter)
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with the BLAS at one thread, then restore its count.

    The count is restored on error too. Needs a settable BLAS:
    ``_blas_thread_calls()`` not None.
    """
    set_threads, get_threads = _blas_thread_calls()
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)
