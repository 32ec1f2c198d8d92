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


def toeplitz_matrix(symbol: AnalyticRep, order: int) -> np.ndarray:
    """Compression of multiplication by the symbol to degrees < order."""
    _check_order(order)
    return _lower_toeplitz(symbol.coefficients, order, order)


def adjoint_kernel_dim(symbol: AnalyticRep, order: int, tol: float = KERNEL_TOL) -> int:
    """Number of singular values below ``tol`` times the largest one.

    The adjoint's kernel and the truncation's cokernel have equal dimension,
    so a rank-revealing factorization of the truncation answers both. An
    identically-zero truncation kills everything: dimension = order.
    """
    sv = np.linalg.svd(toeplitz_matrix(symbol, order), compute_uv=False)
    top = float(sv[0])
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
