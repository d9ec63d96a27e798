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

LAPACK gets A itself unless A has a nonzero entry below its local double
grid, |a_ij| < (eps/N) sqrt(|a_ii a_jj|) with eps = 2^-53; the bound is
local, after Demmel & Veselic (SIAM J. Matrix Anal. Appl. 13 (1992) 1204),
so a graded matrix keeps its small couplings. The Gaussian kernel leaves
most of H there, and LAPACK's tridiagonal reduction, dsytrd, reading the
lower triangle from the small-momentum corner, crawls through their
subnormal products. Such an A reaches LAPACK with those entries set to 0,
in A1's buffer, and LAPACK reads its upper triangle, so the reduction
starts at the large-momentum end, where the zeros are: eigh on the
Gaussian H at N = 200 takes 2.9 ms instead of 7.0 (one BLAS thread). The
flush moves A by ||E||_2 <= (eps/N) sum|a_ii| <= eps ||A||_2, within
LAPACK's own backward error, and the refinement runs on the exact A. Any
other matrix keeps LAPACK's old start: a new one moves the pairs that the
degeneracy guard leaves unmixed (the Yukawa N = 400 mean potential, from
the r^2 calculus, by 1e-9).

A window picks the k pairs to refine: those whose LAPACK eigenvalue lies in
it, widened by 1e-12 ||A||_2, 500 times LAPACK's largest error (2.0e-15
||A||_2 on the solver's matrices at N = 10-400; the flushed starts of 378
Gaussian and Salpeter matrices stay below 1.1e-15). Only those columns
V enter the split product; U^T R and U C take the whole basis U, LAPACK's
vectors with the refined columns written back after round 1, and the gap to
an unrefined pair is taken at its LAPACK eigenvalue. A pair's correction
needs no other refined pair, so on 42 solver matrices a windowed pair's
eigenvalue equals the full refinement's bit for bit, and its vector agrees
within 1/128 ulp. The full window, k = N and U = V, is the same algorithm.

A call makes 10 double GEMMs of N x N by N x k, five per round: three for
the split product, one each for U^T R and U C. The eigenvalues are the
Rayleigh quotients of round 2, of the vectors after round 1. Their error is
of order |C_2|^2 ||A||, with C_2 the correction of round 2 (at most 5.6e-17
at Yukawa N = 400), far below the floor of the split product, so the final
vectors need no product of their own. Every step writes with ``out=`` into
a fixed workspace besides the input: with a full window seven N x N arrays
(A1, vh, vl and four work buffers, one of which holds the tail
A2 = 2^-e A - A1, rebuilt for round 2); with a narrow one
LAPACK's basis, A1 and A2, and N x k for the rest. A flushed start lives in
A1's buffer until LAPACK returns. Strictly ascending
eigenvalues need no sort, and vh is returned without a copy.

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
_DEGENERACY_GUARD = 1e-9  # relative gap below which vector mixing is skipped
_WINDOW_MARGIN = 1e-12  # a window's widening, relative to ||A||_2: above LAPACK's error
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

    LAPACK's ``numpy.linalg.eigh`` finds every pair; the pairs whose LAPACK
    eigenvalue lies in the window, widened by _WINDOW_MARGIN ||a||_2, get
    two rounds of residual-form refinement and are returned. ||a||_2 is the
    largest |eigenvalue|, refined where refined. Exact degeneracies are
    ordered by the index of each vector's largest-magnitude entry, so the
    output is reproducible.

    A round takes the residual R = A V - V diag(d) of the refined columns V
    at their Rayleigh quotients d from the split product, forms B = U^T R
    against the basis U in double BLAS, and corrects V by U C with
    C_ij = B_ij / (d_j - d_i); pairs closer than the degeneracy guard are
    not mixed. Each round squares the eigenpair error, so two rounds reach
    the floor of the split product from any LAPACK start. The eigenvalues
    are round 2's Rayleigh quotients, rounded once to double; one beyond
    the double range is a ``NumericalError``.
    """
    a = np.asarray(a, dtype=float)  # the split grids assume 53-bit doubles
    start = _flushed(a, np.empty_like(a))  # in the buffer that becomes A1
    w, basis = np.linalg.eigh(a) if start is None else np.linalg.eigh(start, UPLO="U")
    n = len(a)
    lower, upper = window
    margin = _WINDOW_MARGIN * max(-w[0], w[-1])
    first = 0 if lower == -math.inf else int(np.searchsorted(w, lower - margin, "left"))
    stop = n if upper == math.inf else int(np.searchsorted(w, upper + margin, "right"))
    stop = max(first, stop)
    refined, k = slice(first, stop), stop - first
    exponent = np.frexp(max(a.max(), -a.min()))[1]
    head = np.ldexp(w, -exponent)  # every d_i: LAPACK's, refined ones replaced
    tail = np.zeros(n)
    bits = (53 - (n - 1).bit_length()) // 2  # N 4^bits <= 2^53
    v1, t, p1, p2 = (np.empty((n, k)) for _ in range(4))
    a2 = p2 if k == n else np.empty_like(a)  # the split tail
    np.ldexp(a, -exponent, out=a2)
    a1 = _head(a2, _top(a2, axis=1), bits, np.empty_like(a) if start is None else start)
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
        scale = np.max(np.abs(head + tail)) or 1.0
        safe = np.abs(t, out=p1) > _DEGENERACY_GUARD * scale  # never i = j: the gap is 0
        p1.fill(0.0)
        np.divide(p2, t, out=p1, where=safe)  # C
        del safe
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


def _flushed(a: np.ndarray, out: np.ndarray):
    """a with every nonzero |a_ij| < (eps/N) sqrt(|a_ii a_jj|) set to 0, in out; None if none is.

    Only comparisons touch a, so its subnormal entries cost nothing here.
    """
    root = np.sqrt(np.abs(np.diagonal(a)))
    np.multiply.outer(root * (_EPS / len(a)), root, out=out)  # the bound
    below = np.less(a, out)
    below &= np.greater(a, np.negative(out, out=out))
    below &= np.not_equal(a, 0.0)
    if not below.any():
        return None
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
