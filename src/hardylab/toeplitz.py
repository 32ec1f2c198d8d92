"""Truncated Toeplitz operators with analytic symbols and the least-squares
density profile.

For an analytic symbol the truncation to ``span{1, z, .., z^{M-1}}`` in the
monomial basis is lower triangular with the Taylor coefficients down the
diagonals. The density distance

    dist(f, M) = min over polynomials p of degree < M of || 1 - p*f ||_{H^2}

is computed by an orthogonal factorization of the (tall) convolution matrix —
never through the normal equations, which are routinely ill-conditioned for
nearly-inner symbols. Closed forms used in the tests: dist(1-z, M)^2 =
1/(M+1); dist(z, M) = 1; dist -> sqrt(1-|f(0)|^2) for inner f.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import ZeroFunction
from .hardy import AnalyticRep

#: Relative singular-value cutoff for kernel dimension counts.
KERNEL_TOL = 1e-10

#: Default truncation-order schedule for density profiles.
DENSITY_SCHEDULE = (16, 32, 64, 128, 256, 512, 1024)

#: Largest truncation order; one dense complex matrix at it takes ~270 MB,
#: and no distance computation builds a matrix with more entries than that.
MAX_ORDER = 4096

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


def _lower_toeplitz(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix of multiplication by sum a_k z^k on degrees < cols."""
    col = np.zeros(rows, dtype=complex)
    take = min(rows, a.size)
    col[:take] = a[:take]
    return scipy.linalg.toeplitz(col, np.zeros(cols, dtype=complex))


def _banded_singular_values(a: np.ndarray, order: int) -> np.ndarray:
    """Singular values of the truncation, ascending, from the spectrum of the
    Golub–Kahan matrix [[0, T], [T^H, 0]].

    Index 2i stands for row i of T and 2j+1 for column j, so T[i, j] = a_{i-j}
    sits at offset 2(i-j)-1 below the diagonal and its zero diagonal blocks
    leave only conj(a_0) at offset 1. The 2*order eigenvalues are +-sigma.

    The coefficients are scaled exactly by a power of two to a largest
    modulus in [1/2, 1), and those then below eps^2 are set to zero. That
    moves no singular value by more than b*eps^2*sigma_max, far below
    roundoff. It is needed because LAPACK's tridiagonal eigenvalue step works
    on squared off-diagonals and cannot split at a tiny one next to a zero
    diagonal: a_0 = 1e-160 beside a_1 = 0.54 moved sigma by 2e-5 sigma_max,
    as its square is subnormal.
    """
    b = min(a.size, order) - 1
    top = float(np.max(np.abs(a[: b + 1])))
    if top == 0.0:
        return np.zeros(order)
    exp = math.frexp(top)[1]
    a = np.ldexp(a[: b + 1].real, -exp) + 1j * np.ldexp(a[: b + 1].imag, -exp)
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
    a = symbol.coefficients
    if BANDED_ORDER_RATIO * (min(a.size, order) - 1) <= order:
        sv = _banded_singular_values(a, order)
    else:
        sv = np.linalg.svd(_lower_toeplitz(a, order, order), compute_uv=False)
    top = float(np.max(sv))
    if top == 0.0:
        return order
    return int(np.count_nonzero(sv < tol * top))


def _distances(f: AnalyticRep, order: int) -> np.ndarray:
    """dist(f, m) for m = 1..order from one R-only QR of [T | e_0].

    T is the convolution matrix on degrees < order, with one extra zero row so
    a constant symbol still gives order+1 rows. t = R[:, order] = Q^H e_0, and
    QR is column-nested, so dist(f, m)^2 = sum_{j >= m} |t_j|^2: no cancellation.
    """
    if float(np.max(np.abs(f.coefficients))) == 0.0:
        raise ZeroFunction("symbol is identically zero")
    _check_order(order)
    a = f.coefficients
    if (a.size + order + 1) * (order + 1) > MAX_ORDER**2:
        raise ValueError(
            f"{a.size} coefficients at order {order} exceed the "
            f"{MAX_ORDER}x{MAX_ORDER}-entry matrix budget"
        )
    aug = _lower_toeplitz(a, a.size + order, order + 1)
    aug[:, order] = 0.0
    aug[0, order] = 1.0
    t = np.abs(np.linalg.qr(aug, mode="r")[:, order]) ** 2
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
