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

import numpy as np

from .errors import ZeroFunction
from .grid import _unit_scaled
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

#: Kernel counts use the banded Golub–Kahan spectrum when this many times the
#: symbol's bandwidth is at most the order, else a dense SVD. Timed on a
#: 2-core box with one BLAS thread: the two cost the same near order/bandwidth
#: = 100 at orders 256 and 512; the banded route is 4x faster at order 1024,
#: bandwidth 2, and 10x at 2048.
BANDED_ORDER_RATIO = 100


def _check_order(order: int) -> None:
    if order < 1:
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


def _banded_singular_values(a: np.ndarray, order: int) -> np.ndarray:
    """Singular values of the truncation, ascending, from the spectrum of the
    Golub–Kahan matrix [[0, T], [T^H, 0]].

    Index 2i stands for row i of T and 2j+1 for column j, so T[i, j] = a_{i-j}
    sits at offset 2(i-j)-1 below the diagonal and its zero diagonal blocks
    leave only conj(a_0) at offset 1. The 2*order eigenvalues are +-sigma.

    The coefficients are scaled by ``_unit_scaled``, and those then below
    eps^2 are set to zero. That moves no singular value by more than
    b*eps^2*sigma_max, far below roundoff. It is needed because LAPACK's
    tridiagonal eigenvalue step works on squared off-diagonals and cannot
    split at a tiny one next to a zero diagonal: a_0 = 1e-160 beside
    a_1 = 0.54 moved sigma by 2e-5 sigma_max, as its square is subnormal.
    The singular values come back in the caller's scale.
    """
    import scipy.linalg  # imported on first use: only banded kernel counts need it

    b = min(a.size, order) - 1
    a, exp = _unit_scaled(a[: b + 1])
    if not np.any(a):
        return np.zeros(order)
    a[np.abs(a) < np.finfo(float).eps ** 2] = 0.0
    band = np.zeros((2 * max(b, 1), 2 * order), dtype=complex)
    band[1, 0::2] = np.conj(a[0])
    for d in range(1, b + 1):
        band[2 * d - 1, 1 : 2 * (order - d) : 2] = a[d]
    return np.ldexp(scipy.linalg.eigvals_banded(band, lower=True)[order:], exp)


def adjoint_kernel_dim(symbol: AnalyticRep, order: int, tol: float = KERNEL_TOL) -> int:
    """Number of singular values below ``tol`` times the largest one.

    The adjoint's kernel and the truncation's cokernel have equal dimension,
    so a rank-revealing factorization of the truncation answers both. An
    identically-zero truncation kills everything: dimension = order.

    With bandwidth b = min(len(symbol), order) - 1 and
    ``BANDED_ORDER_RATIO * b <= order``, the singular values are the upper
    half of the spectrum of the interleaved Golub–Kahan matrix, which is
    Hermitian and banded (``eigvals_banded``; O(order^2 b) time, O(order b)
    memory). Wider symbols take a dense SVD (O(order^3) time, order^2
    entries). Both are backward stable, with absolute error about
    eps * sigma_max, so the count against ``tol * sigma_max`` agrees unless a
    singular value sits within roundoff of the threshold. Never T^H T: it
    would square the threshold below double precision.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be finite with 0 < tol < 1, got {tol}")
    _check_order(order)
    a = _unit_scaled(symbol.coefficients)[0]  # counted in this scale, never scaled back
    if BANDED_ORDER_RATIO * (min(a.size, order) - 1) <= order:
        sv = _banded_singular_values(a, order)
    else:
        sv = np.linalg.svd(_lower_toeplitz(a, order, order), compute_uv=False)
    top = float(np.max(sv))
    if top == 0.0:
        return order
    return int(np.count_nonzero(sv < tol * top))


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
    orders = [int(m) for m in schedule]
    if any(m < 1 for m in orders) or any(b <= a for a, b in zip(orders, orders[1:])):
        raise ValueError("schedule must be increasing positive integers")
    if not orders:
        return ()
    dist = _distances(f, orders[-1])
    return tuple((m, float(dist[m - 1])) for m in orders)


def density_profile_csv(profile) -> str:
    lines = ["M,distance"]
    for m, d in profile:
        lines.append(f"{m},{d:.17g}")
    return "\n".join(lines) + "\n"
