"""Independent reference routes that the tests compare the package against.

None of these runs in the program. Each route recomputes an answer by a
second, simpler way (Horner evaluation, a dense matrix, a bisection, complex
FFTs and complex moduli where the program works on real arrays), so a
test can hold the program's route to it; the corpus names the functions on
which two independent outerness tests must agree.
"""

import numpy as np

from hardylab import AnalyticRep, PointOnBoundary

#: Catalog names whose Jensen outerness test and least-squares density must
#: classify them identically.
ORACLE_CORPUS = (
    "one-minus-z",
    "one-plus-z",
    "two-plus-z",
    "one-minus-half-z",
    "exp-z",
    "shift",
    "shift-squared",
    "shift-times-one-minus-z",
    "shift-exp",
    "blaschke-half",
    "blaschke-half-times-one-minus-z",
    "singular-inner-1",
)


def evaluate(f: AnalyticRep, z) -> complex | np.ndarray:
    """Horner evaluation of the Taylor polynomial at points of the open disc."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(np.abs(zs) >= 1.0):
        raise PointOnBoundary("evaluate expects |z| < 1")
    out = np.zeros_like(zs)
    for c in f.coefficients[::-1]:
        out = out * zs + c
    return out if np.ndim(z) else complex(out[0])


def toeplitz_matrix(symbol: AnalyticRep, order: int) -> np.ndarray:
    """Dense compression of multiplication by the symbol to degrees < order:
    column k holds the coefficients shifted down k rows."""
    a = symbol.coefficients
    t = np.zeros((order, order), dtype=complex)
    for k in range(order):
        take = min(a.size, order - k)
        t[k : k + take, k] = a[:take]
    return t


def peak_scale_bisection(w: np.ndarray) -> float | None:
    """Largest c in [1e-8, 1] with max |1 - c w| <= 1 + 1e-12, by 80 halvings
    of the feasible interval; None when even 1e-8 is infeasible."""

    def feasible(c: float) -> bool:
        return float(np.max(np.abs(1.0 - c * w))) <= 1.0 + 1e-12

    if not feasible(1e-8):
        return None
    lo, hi = 1e-8, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def conjugate_complex_fft(k: np.ndarray) -> np.ndarray:
    """Harmonic conjugate of real samples by a full complex FFT pair, with
    the two-sided multiplier -i sign(n) and zero at n = 0 and Nyquist."""
    n = k.size
    c = np.fft.fft(k)
    c[[0, n // 2]] = 0.0
    c[1 : n // 2] *= -1j
    c[n // 2 + 1 :] *= 1j
    return np.fft.ifft(c).real


def rotated_sup_complex(values: np.ndarray, phi: float) -> float:
    """sup |1 - e^{-i phi} G| in complex arithmetic."""
    return float(np.max(np.abs(1.0 - np.exp(-1j * phi) * values)))
