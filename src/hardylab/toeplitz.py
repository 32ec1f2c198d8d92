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
symbol of bandwidth b, each block written column-major in place and factored
there by LAPACK zgeqrf, with no copy. Closed forms used in the tests:
dist(1-z, M)^2 = 1/(M+1); dist(z, M) = 1; dist -> sqrt(1-|f(0)|^2) for inner
f.
"""

from __future__ import annotations

import functools
import sys

import numpy as np
from numpy.linalg import lapack_lite

from .errors import ZeroFunction
from .grid import _as_index, _as_indices, _as_real, _unit_scaled
from .hardy import AnalyticRep

#: Relative singular-value cutoff for kernel dimension counts.
KERNEL_TOL = 1e-10

#: Default truncation-order schedule for density profiles.
DENSITY_SCHEDULE = (16, 32, 64, 128, 256, 512, 1024)

#: Largest truncation order. A kernel count at it reduces the band of T,
#: order x (b + 1) complex entries: 21 MB for 320 coefficients, and ~270 MB
#: for a symbol at least as long as the order. A density distance factors one
#: block of [T | e_0] at a time and refuses a symbol whose largest block would
#: have more than MAX_ORDER^2 entries; a symbol of length at most 64 has
#: blocks of about 70 KB at every order.
MAX_ORDER = 4096

#: Fewest columns per block of the banded density QR; a longer symbol's blocks
#: are as wide as it is long. Timed at order 1024 on a 2-core box with one
#: BLAS thread (best of 9, three runs), a length-3 symbol took 1.5, 1.1, 1.1,
#: 2.6-4.4 and 9-13 ms with blocks of 16, 32, 64, 128 and 256 columns, and
#: exp(z) (length 48) 7 ms at 16 to 64, 8-13 at 128 and 14 at 256; one dense
#: QR took 142 ms. 32 ties 64, but another size factors other blocks, so it
#: moves the distances' last bits.
_BLOCK = 64


def _check_order(order: int) -> None:
    if _as_index(order, "order") < 1:
        raise ValueError("order must be at least 1")
    if order > MAX_ORDER:
        raise ValueError(f"order must be at most {MAX_ORDER}")


def _put_band(
    out: np.ndarray, a: np.ndarray, cols: int, shift: int = 0, top: int = 0
) -> np.ndarray:
    """``out``, zeroed and C-contiguous, read as the column-major layout of a
    matrix (row j of ``out`` is column j), with entry top + i of column j set
    to a_{i+shift-j} for i >= 0 and j < cols: multiplication by sum a_k z^k
    on degrees < cols, from row ``shift`` on, below the first ``top`` rows,
    which are left as they are. One strided slice of the flat array per
    diagonal."""
    rows = out.shape[1]
    flat = out.reshape(-1)
    for d in range(a.size):
        j0, j1 = max(0, shift - d), min(cols, rows - top + shift - d)
        if j1 > j0:
            start = j0 * (rows + 1) + top + d - shift
            flat[start : start + (j1 - j0 - 1) * (rows + 1) + 1 : rows + 1] = a[d]
    return out


def _geqrf(block: np.ndarray) -> None:
    """Householder QR, in place, of the matrix whose column-major layout is
    the C-contiguous ``block`` (row j of it column j of the matrix): R on and
    above the diagonal, the reflectors below, as numpy.linalg.qr(mode="raw")
    leaves them, by the same LAPACK zgeqrf with the same workspace (the size
    a query returns, at least one entry per column), so with the same bits.

    numpy.linalg.lapack_lite exports zgeqrf from the LAPACK numpy links, and
    imports in well under a millisecond. zgbbrd and dstebz below come from
    scipy's cython_lapack instead: lapack_lite has neither, and loading
    scipy's capsules costs 15-24 ms, which a density profile never pays."""
    n, m = block.shape
    tau = np.empty(min(m, n), dtype=complex)
    work = np.empty(1, dtype=complex)
    lapack_lite.zgeqrf(m, n, block, m, tau, work, -1, 0)
    work = np.empty(max(1, n, int(work[0].real)), dtype=complex)
    info = lapack_lite.zgeqrf(m, n, block, m, tau, work, work.size, 0)["info"]
    if info != 0:
        raise RuntimeError(f"LAPACK zgeqrf failed with INFO = {info}")


@functools.cache
def _lapack_capsules() -> dict:
    """The LAPACK function pointers that scipy.linalg.cython_lapack exports,
    by routine name, without scipy.linalg's Python API.

    A loaded scipy.linalg has the extension in sys.modules already. Otherwise
    it is run from its file in scipy's linalg directory (which also holds its
    .pxd and .pyx sources) and taken out of sys.modules again: left there, it
    would keep a later ``import scipy.linalg`` from binding it as an
    attribute."""
    module = sys.modules.get("scipy.linalg.cython_lapack")
    if module is None:
        import os
        from importlib import machinery, util

        import scipy  # the package only: its subpackages load on first use

        finder = machinery.FileFinder(
            os.path.join(os.path.dirname(scipy.__file__), "linalg"),
            (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec("scipy.linalg.cython_lapack")
        if spec is None:
            raise ImportError("scipy has no scipy.linalg.cython_lapack extension")
        module = util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)  # which enters it in sys.modules
        finally:
            sys.modules.pop(spec.name, None)
    return module.__pyx_capi__


@functools.cache
def _lapack(name: str, nargs: int):
    """LAPACK routine ``name``, which takes ``nargs`` arguments, all pointers,
    as a ctypes function. scipy.linalg.lapack does not wrap zgbbrd, and its
    dstebz wrapper needs scipy.linalg's Python API."""
    import ctypes

    capsule = _lapack_capsules()[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


def _pointers(a: np.ndarray):
    """The address of each entry of the 1-d array ``a``."""
    return (a.ctypes.data + i * a.itemsize for i in range(a.size))


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
    m, n, ncc, kl, ku, ldab, ldq, ldpt, ldc, info = _pointers(ints)
    vect = np.array(b"N")
    # every array above stays referenced until the call returns
    _lapack("zgbbrd", 19)(
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


def _tridiagonal_eigenvalues(
    off: np.ndarray, select: bytes, index: int = 1, bound: float = 0.0
) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric tridiagonal with zero diagonal
    and off-diagonal ``off``, by LAPACK dstebz bisection: the index-th
    smallest (counted from 1) for select b"I", those in (-bound, bound] for
    b"V". ORDER 'E' and ABSTOL 0, as scipy's eigvalsh_tridiagonal passes."""
    n = off.size + 1
    zero = np.zeros(n)
    w = np.empty(n)
    iblock = np.empty(n, dtype=np.intc)
    isplit = np.empty(n, dtype=np.intc)
    work = np.empty(4 * n)
    iwork = np.empty(3 * n, dtype=np.intc)
    # N, IL, IU, M, NSPLIT, INFO
    ints = np.array([n, index, index, 0, 0, 0], dtype=np.intc)
    n_, il, iu, m, nsplit, info = _pointers(ints)
    reals = np.array([-bound, bound, 0.0])  # VL, VU, ABSTOL
    vl, vu, abstol = _pointers(reals)
    flags = np.array([select, b"E"])  # RANGE, ORDER
    range_, order = _pointers(flags)
    # every array above stays referenced until the call returns
    _lapack("dstebz", 18)(
        range_, order, n_, vl, vu, il, iu, abstol, zero.ctypes.data, off.ctypes.data,
        m, nsplit, w.ctypes.data, iblock.ctypes.data, isplit.ctypes.data,
        work.ctypes.data, iwork.ctypes.data, info,
    )
    if ints[-1] != 0:
        raise RuntimeError(f"LAPACK dstebz failed with INFO = {ints[-1]}")
    return w[: ints[3]]


def _top_and_count(off: np.ndarray, tol: float) -> tuple[float, int]:
    """sigma_max and the number of singular values below tol * sigma_max, for
    the bidiagonal whose Golub–Kahan off-diagonal is ``off``: sigma_max is the
    top eigenvalue, and each sigma < tol * sigma_max puts two eigenvalues in
    (-tol * sigma_max, tol * sigma_max]. A threshold that underflows to 0
    counts nothing: no singular value lies below 0."""
    top = float(_tridiagonal_eigenvalues(off, b"I", index=off.size + 1)[0])
    if not tol * top > 0.0:
        return top, 0
    return top, _tridiagonal_eigenvalues(off, b"V", bound=tol * top).size // 2


def adjoint_kernel_dim(symbol: AnalyticRep, order: int, tol: float = KERNEL_TOL) -> int:
    """Number of singular values below ``tol`` times the largest one.

    The adjoint's kernel and the truncation's cokernel have equal dimension,
    so a rank-revealing factorization of the truncation answers both. An
    identically-zero truncation kills everything: dimension = order.

    With bandwidth b = min(len(symbol), order) - 1, LAPACK zgbbrd reduces
    the truncation to a real bidiagonal B, and two bisections on B's
    Golub–Kahan tridiagonal give sigma_max and the count: O(order^2 b) time,
    O(order b) memory, and never the whole spectrum. The reduction is
    backward stable, with absolute error about eps * sigma_max, so the count
    against ``tol * sigma_max`` is a dense SVD's unless a singular value sits
    within roundoff of the threshold. Never T^H T: it would square the
    threshold below double precision.
    """
    tol = _as_real(tol, "tol", "finite with 0 < tol < 1", lambda x: 0.0 < x < 1.0)
    _check_order(order)
    a = _unit_scaled(symbol.coefficients[:order])[0]  # counted in the kept ones' scale
    # the largest kept part is at least 1/2 here unless every one is 0, so
    # sigma_max is 0 exactly when this returns
    if not np.any(a):
        return order
    return _top_and_count(_golub_kahan(*_bidiagonal(a, order)), tol)[1]


def _distances(f: AnalyticRep, order: int) -> np.ndarray:
    """dist(f, m) for m = 1..order from a blocked banded Householder QR of
    [T | e_0].

    T is the convolution matrix on degrees < order, with one extra zero row so
    a constant symbol still gives order+1 rows; its lower bandwidth is
    b = len(f) - 1, and R's upper bandwidth is b too. The columns go in blocks
    of k = max(_BLOCK, len(f)). Each block, written in place, is one QR of the
    rows carried from the block before (their entries on this block's columns
    and on e_0) over the rows of T that first reach this block, on the block's
    k columns, the next b and e_0. The block is written column-major, one
    array row per column, and factored in place by ``_geqrf``; R is the upper
    triangle of the factor, so the e_0 column is the array's last row and no
    transpose or triu copy is made. R's first k rows are final: their e_0
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
    # column-major, one column per row: entries on the next columns, then on e_0
    carry = np.zeros((1, 0), dtype=complex)
    for c0 in range(0, order, k):
        c1 = min(c0 + k, order)
        width = min(c1 + b, order) - c0
        # the rows whose first entry lies in columns c0 .. c1-1, from row 0 in
        # the first block and through the zero row in the last
        r0 = c0 + b if c0 else 0
        r1 = c1 + b if c1 < order else order + b + 1
        n = carry.shape[1]
        block = np.zeros((width + 1, n + r1 - r0), dtype=complex)
        block[: carry.shape[0] - 1, :n] = carry[:-1]
        block[-1, :n] = carry[-1]
        _put_band(block, a, width, r0 - c0, n)
        if c0 == 0:
            block[-1, 0] = 1.0
        _geqrf(block)
        done = c1 - c0
        t[c0:c1] = np.abs(block[-1, :done]) ** 2
        carry = np.tril(block[done:, done : min(block.shape)])
        del block  # or the next block is allocated while this one is held
    t[order] = np.sum(np.abs(carry[-1]) ** 2)
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
