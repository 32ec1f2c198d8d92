"""Truncated Toeplitz operators with analytic symbols and the least-squares
density profile.

For an analytic symbol the truncation to ``span{1, z, .., z^{M-1}}`` in the
monomial basis is lower triangular with the Taylor coefficients down the
diagonals. The density distance

    dist(f, M) = min over polynomials p of degree < M of || 1 - p*f ||_{H^2}

is computed by an orthogonal factorization of the (tall) convolution matrix —
never through the normal equations, which are routinely ill-conditioned for
nearly-inner symbols. The matrix is banded, so its Householder QR runs on
blocks of k = max(64, b + 1) columns and touches only the band: a whole
profile to order M costs O(M (k + b)^2) time and O((k + b)^2) memory for a
symbol of bandwidth b. Closed forms used in the tests: dist(1-z, M)^2 =
1/(M+1); dist(z, M) = 1; dist -> sqrt(1-|f(0)|^2) for inner f.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ZeroFunction
from .grid import _as_index, _as_indices, _as_real, _unit_scaled
from .hardy import AnalyticRep

#: Relative singular-value cutoff for kernel dimension counts.
KERNEL_TOL = 1e-10

#: Default truncation-order schedule for density profiles.
DENSITY_SCHEDULE = (16, 32, 64, 128, 256, 512, 1024)

#: Largest truncation order. A dense kernel count at it factors one
#: order x order complex matrix (~270 MB). A density distance factors one
#: block of [T | e_0] at a time and refuses a symbol whose largest block would
#: have more than MAX_ORDER^2 entries; a symbol of length at most 64 has
#: blocks of about 70 KB at every order.
MAX_ORDER = 4096

#: Fewest columns per block of the banded density QR; a longer symbol's blocks
#: are as wide as it is long. Timed at order 1024 on a 2-core box with one
#: BLAS thread, a length-3 symbol took 6.5, 4.2, 4.1, 8.5 and 27 ms with
#: blocks of 16, 32, 64, 128 and 256 columns, and exp(z) (length 48) took 14
#: ms at 16 to 64 and 20 ms at 128; one dense QR took 240–260 ms.
_BLOCK = 64

#: Kernel counts reduce the truncation to bidiagonal form when this many times
#: the symbol's bandwidth is at most the order, else take a dense SVD. Timed on
#: a 2-core box with one BLAS thread (best of 5), the reduction and count took
#: 18 ms at order 1024, bandwidth 2, against 0.88 s for the dense SVD, and 28,
#: 54 and 63 ms at bandwidths 4, 8 and 10. The ratio stays at 100 because a
#: wide symbol is faster dense (bandwidth 319 at order 1024: 2.8 s reduced,
#: 1.1 s dense), and a lower one would send small orders, such as 64 for a
#: bandwidth-1 symbol, through the 0.24–0.33 s import of scipy.linalg.
BANDED_ORDER_RATIO = 100


def _check_order(order: int) -> None:
    if _as_index(order, "order") < 1:
        raise ValueError("order must be at least 1")
    if order > MAX_ORDER:
        raise ValueError(f"order must be at most {MAX_ORDER}")


def _lower_toeplitz(a: np.ndarray, rows: int, cols: int, shift: int = 0) -> np.ndarray:
    """rows x cols matrix of multiplication by sum a_k z^k on degrees < cols,
    from row ``shift`` on: T[i, j] = a_{i+shift-j}.

    Row i is a reversed window of one zero-padded coefficient vector:
    T[i, j] = col[cols - 1 + i - j].
    """
    col = np.zeros(rows + cols - 1, dtype=complex)
    lo, hi = max(0, shift - cols + 1), min(a.size, shift + rows)
    if hi > lo:
        col[lo - shift + cols - 1 : hi - shift + cols - 1] = a[lo:hi]
    return np.lib.stride_tricks.sliding_window_view(col, cols)[:, ::-1].copy()


@functools.cache
def _zgbbrd():
    """LAPACK zgbbrd (complex band to real bidiagonal), called through the
    function pointer that scipy.linalg.cython_lapack exports: scipy.linalg.lapack
    does not wrap it. Every argument is a pointer."""
    import ctypes

    from scipy.linalg import cython_lapack  # imported on first use: only banded kernel counts need it

    capsule = cython_lapack.__pyx_capi__["zgbbrd"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 19)(address)


def _bidiagonal(a: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal d and superdiagonal e of a real bidiagonal B with the singular
    values of the order x order truncation of sum a_k z^k.

    LAPACK zgbbrd reduces the band of T (lower bandwidth b = min(len(a),
    order) - 1) by Givens rotations from both sides, chasing each bulge down
    the band: O(order^2 b) time and O(order b) memory. It is backward stable,
    with absolute error about eps * sigma_max.

    zgbbrd makes B real by dividing entries by their moduli, and the modulus
    of a subnormal entry rounds so coarsely that its phase is no unit (for
    5e-324 (1 + i) it is 1 + i, which scales a singular value by sqrt 2). In
    the unit scale such entries lie far below that error, so they are dropped.
    The scale is taken from the coefficients the truncation keeps, so a cut
    one never pushes a kept one into that range.
    """
    a, exp = _unit_scaled(a[:order])
    a[np.abs(a) < np.finfo(float).tiny] = 0.0
    b = a.size - 1
    # LAPACK band storage, column-major with KU = 0: AB(1 + i - j, j) = T[i, j]
    ab = np.zeros((order, b + 1), dtype=complex)
    for k in range(b + 1):
        ab[: order - k, k] = a[k]
    d = np.empty(order)
    e = np.empty(order)  # the first order - 1 entries are B's superdiagonal
    work = np.empty(order, dtype=complex)
    rwork = np.empty(order)
    unused = np.zeros(1, dtype=complex)  # Q, P^H and C: not referenced with VECT='N'
    # M, N, NCC, KL, KU, LDAB, LDQ, LDPT, LDC, INFO
    ints = np.array([order, order, 0, b, 0, b + 1, 1, 1, 1, 0], dtype=np.intc)
    m, n, ncc, kl, ku, ldab, ldq, ldpt, ldc, info = (
        ints.ctypes.data + i * ints.itemsize for i in range(ints.size)
    )
    vect = np.array(b"N")
    # every array above stays referenced until the call returns
    _zgbbrd()(
        vect.ctypes.data, m, n, ncc, kl, ku, ab.ctypes.data, ldab, d.ctypes.data,
        e.ctypes.data, unused.ctypes.data, ldq, unused.ctypes.data, ldpt,
        unused.ctypes.data, ldc, work.ctypes.data, rwork.ctypes.data, info,
    )
    if ints[-1] != 0:
        raise RuntimeError(f"LAPACK zgbbrd failed with INFO = {ints[-1]}")
    return np.ldexp(d, exp), np.ldexp(e[: order - 1], exp)


def _golub_kahan(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Off-diagonal |d_1|, |e_1|, |d_2|, .., |d_n| of the symmetric tridiagonal
    of order 2n with zero diagonal whose eigenvalues are +-sigma for the
    singular values sigma of the bidiagonal (d, e)."""
    off = np.empty(2 * d.size - 1)
    off[0::2] = np.abs(d)
    off[1::2] = np.abs(e)
    return off


def _banded_kernel_dim(a: np.ndarray, order: int, tol: float) -> int:
    """Singular values of the truncation below tol * sigma_max, counted on the
    Golub–Kahan tridiagonal of its bidiagonal form by bisection (LAPACK
    dstebz): sigma_max is its top eigenvalue, and each sigma < tol * sigma_max
    puts two eigenvalues in (-tol * sigma_max, tol * sigma_max]."""
    from scipy.linalg import eigvalsh_tridiagonal

    off = _golub_kahan(*_bidiagonal(a, order))
    zero = np.zeros(off.size + 1)
    top = eigvalsh_tridiagonal(zero, off, select="i", select_range=(off.size, off.size))[0]
    inside = eigvalsh_tridiagonal(zero, off, select="v", select_range=(-tol * top, tol * top))
    return inside.size // 2


def adjoint_kernel_dim(symbol: AnalyticRep, order: int, tol: float = KERNEL_TOL) -> int:
    """Number of singular values below ``tol`` times the largest one.

    The adjoint's kernel and the truncation's cokernel have equal dimension,
    so a rank-revealing factorization of the truncation answers both. An
    identically-zero truncation kills everything: dimension = order.

    With bandwidth b = min(len(symbol), order) - 1 and
    ``BANDED_ORDER_RATIO * b <= order``, LAPACK zgbbrd reduces the truncation
    to a real bidiagonal B, and two bisections on B's Golub–Kahan tridiagonal
    give sigma_max and the count: O(order^2 b) time, O(order b) memory, and
    never the whole spectrum. Wider symbols take a dense SVD (O(order^3) time,
    order^2 entries). Both are backward stable, with absolute error about
    eps * sigma_max, so the count against ``tol * sigma_max`` agrees unless a
    singular value sits within roundoff of the threshold. Never T^H T: it
    would square the threshold below double precision.
    """
    tol = _as_real(tol, "tol", "finite with 0 < tol < 1", lambda x: 0.0 < x < 1.0)
    _check_order(order)
    a = _unit_scaled(symbol.coefficients[:order])[0]  # counted in the kept ones' scale
    # the largest kept part is at least 1/2 here unless every one is 0, so
    # sigma_max is 0 exactly when this returns
    if not np.any(a):
        return order
    if BANDED_ORDER_RATIO * (a.size - 1) <= order:
        return _banded_kernel_dim(a, order, tol)
    sv = np.linalg.svd(_lower_toeplitz(a, order, order), compute_uv=False)
    return int(np.count_nonzero(sv < tol * np.max(sv)))


def _distances(f: AnalyticRep, order: int) -> np.ndarray:
    """dist(f, m) for m = 1..order from a blocked banded Householder QR of
    [T | e_0].

    T is the convolution matrix on degrees < order, with one extra zero row so
    a constant symbol still gives order+1 rows; its lower bandwidth is
    b = len(f) - 1, and R's upper bandwidth is b too. The columns go in blocks
    of k = max(_BLOCK, len(f)). Each block is one R-only QR of the rows carried
    from the block before (their entries on this block's columns and on e_0)
    over the rows of T that first reach this block, on the block's k columns,
    the next b and e_0. The first k rows of that R are final: their e_0
    entries are t_j = (Q^H e_0)_j. The rest, at most b+1 rows on the next b
    columns and e_0, are carried; after the last block the carry's e_0 column
    holds the residual, of norm |t_order|. QR is column-nested, so
    dist(f, m)^2 = sum_{j >= m} |t_j|^2: no cancellation.

    Householder QR is backward stable in any order of application, so this is
    the dense factorization's accuracy class at O(order (k+b)^2) time and
    O((k+b)^2) memory. An order of at most k is one block: the whole of
    [T | e_0], factored by one QR.
    """
    if not np.any(f.coefficients):
        raise ZeroFunction("symbol is identically zero")
    _check_order(order)
    size = f.coefficients.size
    k = max(_BLOCK, size)
    # no block has more than L + min(order, k) + 1 rows or min(order, k + b) + 1
    # columns; an order of at most k is one block, (L + order) x (order + 1)
    if (size + min(order, k) + 1) * (min(order, k + size - 1) + 1) > MAX_ORDER**2:
        raise ValueError(
            f"{size} coefficients at order {order} exceed the "
            f"{MAX_ORDER}x{MAX_ORDER}-entry matrix budget"
        )
    # dist(f, m) = dist(c f, m) for c != 0, and in this scale neither the
    # matrix nor its factorization overflows or works in subnormals
    a = _unit_scaled(f.coefficients)[0]
    b = size - 1
    t = np.empty(order + 1)
    carry = np.zeros((0, 1), dtype=complex)  # entries on the next columns, then on e_0
    for c0 in range(0, order, k):
        c1 = min(c0 + k, order)
        width = min(c1 + b, order) - c0
        # the rows whose first entry lies in columns c0 .. c1-1, from row 0 in
        # the first block and through the zero row in the last
        r0 = c0 + b if c0 else 0
        r1 = c1 + b if c1 < order else order + b + 1
        n = carry.shape[0]
        block = np.zeros((n + r1 - r0, width + 1), dtype=complex)
        block[:n, : carry.shape[1] - 1] = carry[:, :-1]
        block[:n, -1] = carry[:, -1]
        block[n:, :width] = _lower_toeplitz(a, r1 - r0, width, r0 - c0)
        if c0 == 0:
            block[0, -1] = 1.0
        r = np.linalg.qr(block, mode="r")
        t[c0:c1] = np.abs(r[: c1 - c0, -1]) ** 2
        carry = r[c1 - c0 :, c1 - c0 :]
    t[order] = np.sum(np.abs(carry[:, -1]) ** 2)
    return np.sqrt(np.cumsum(t[::-1])[::-1][1:])


def szego_distance(f: AnalyticRep, order: int) -> float:
    """H^2 distance from 1 to {p*f : deg p < order}, via QR."""
    return float(_distances(f, order)[-1])


def density_profile(f: AnalyticRep, schedule=DENSITY_SCHEDULE) -> tuple[tuple[int, float], ...]:
    """(order, distance) pairs along an increasing truncation schedule."""
    orders = _as_indices(schedule, "a truncation order")
    if any(b <= a for a, b in zip((0, *orders), orders)):  # increasing from 0
        raise ValueError("schedule must be increasing positive integers")
    dist = _distances(f, orders[-1]) if orders else ()
    return tuple((m, float(dist[m - 1])) for m in orders)


def density_profile_csv(profile) -> str:
    lines = ["M,distance"]
    for m, d in profile:
        lines.append(f"{m},{d:.17g}")
    return "\n".join(lines) + "\n"
