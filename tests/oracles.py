"""Independent reference routes that the tests compare the package against.

None of these runs in the program. Each route recomputes an answer by a
second, simpler way (Horner evaluation, a dense matrix, a bisection, complex
FFTs, complex units and complex moduli where the program works on real
arrays, exact hulls where it bounds diameters, one point at a time where it
works in blocks, 60-digit arithmetic where it works in doubles), so a test
can hold the program's route to it; the corpus names the functions on which
two independent outerness tests must agree.
"""

import math

import mpmath
import numpy as np

from hardylab import AnalyticRep, BoundarySignal, PointOnBoundary
from hardylab.factorization import CLIP_FLOOR, clipped_log_modulus, outer_boundary
from hardylab.grid import _scaled_mean
from hardylab.ideals import _power, prepare_peak
from hardylab.zerosets import WIDTH_SCHEDULE, value_diameter, window_nodes

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


def distances_r_mode(f: AnalyticRep, order: int) -> np.ndarray:
    """dist(f, m) for m = 1..order from the R that numpy's qr(mode="r")
    returns (a triu copy of the factor) for [T | e_0], T built column by
    column. The symbol is first scaled by the exact power of two that brings
    its largest real or imaginary part into [1/2, 1), as the program does:
    that scaling is exact for normal coefficients, but it moves the bits of
    a subnormal one, so both routes must factor the same scaled matrix."""
    parts = f.coefficients.view(float)
    a = np.ldexp(parts, -math.frexp(float(np.max(np.abs(parts))))[1]).view(complex)
    aug = np.zeros((a.size + order, order + 1), dtype=complex)
    for k in range(order):
        aug[k : k + a.size, k] = a
    aug[0, order] = 1.0
    t = np.abs(np.linalg.qr(aug, mode="r")[:, order]) ** 2
    return np.sqrt(np.cumsum(t[::-1])[::-1][1:])


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


def continuous_extension_hull(f: BoundarySignal, center: float) -> tuple:
    """(ok, value, oscillations, tolerance) of a continuity test that takes
    the exact diameter of every window."""
    sup = float(np.max(np.abs(f.values)))
    tol = 10.0 * sup * f.grid.size ** (-0.25)
    windows = [f.values[window_nodes(f.grid, center, w)] for w in WIDTH_SCHEDULE]
    oscs = tuple(value_diameter(v) for v in windows)
    worst = max(oscs)
    flat = worst <= 1e-12 * max(1.0, sup)
    ok = oscs[-1] <= tol and (flat or oscs[-1] <= 0.5 * worst)
    return ok, _scaled_mean(windows[-1]), oscs, tol


def merge_runs(runs: list[tuple[int, int]], n: int, gap: int) -> list[tuple[int, int]]:
    """Merge circular runs separated by at most ``gap`` unmasked nodes, one
    pair at a time in order of their starts, then once across the wrap; a
    run merged across the wrap comes first."""
    if len(runs) <= 1:
        return runs
    runs = sorted(runs)
    merged = [runs[0]]
    for s, length in runs[1:]:
        ps, pl = merged[-1]
        if s - (ps + pl) <= gap:
            merged[-1] = (ps, s + length - ps)
        else:
            merged.append((s, length))
    if len(merged) > 1:
        s0, l0 = merged[0]
        s1, l1 = merged[-1]
        if (s0 + n) - (s1 + l1) <= gap:
            merged[0] = (s1, s0 + l0 + n - s1)
            merged.pop()
    return merged


#: Stage statistics that the complex-unit routes recompute.
SUBLEVEL_FIELDS = ("error", "sup_norm", "cofactor_sup", "off_support_deviation", "on_support_max")


def sublevel_stages_complex(spec, stages) -> list:
    """For each stage index m: None when the e^-m sublevel mask is empty,
    else (the stage statistics by ``SUBLEVEL_FIELDS``, the unit's values),
    read off the complex unit base * cofactor."""
    gens = spec.generators
    k_c = np.maximum.reduce([clipped_log_modulus(g).values.real for g in gens])
    base = gens[0].values if len(gens) == 1 else outer_boundary(k_c, np.count_nonzero(k_c == CLIP_FLOOR))
    out = []
    for m in stages:
        mask = np.exp(k_c) < float(np.exp(-m))
        if not mask.any():
            out.append(None)
            continue
        log_cof = np.maximum(np.where(mask, 0.0, -k_c), CLIP_FLOOR)
        cofactor = outer_boundary(log_cof, np.count_nonzero(log_cof == CLIP_FLOOR))
        unit = base * cofactor
        mod = np.abs(unit)
        stats = {
            "error": max(float(np.max(np.abs(unit * g.values - g.values))) for g in gens),
            "sup_norm": float(np.max(mod)),
            "cofactor_sup": float(np.max(np.abs(cofactor))),
            "off_support_deviation": float(np.max(np.abs(mod[~mask] - 1.0))) if not mask.all() else 0.0,
            "on_support_max": float(np.max(mod[mask])),
        }
        out.append((stats, unit))
    return out


def peak_stages_complex(spec, schedule) -> list:
    """(error, sup_norm, unit values) for each power n of the peak route:
    u_n = 1 - g^n, error sup |u_n h - h| and sup norm sup |u_n|, all in
    complex arithmetic."""
    gv = spec.generators[0].values
    prep = prepare_peak(spec.generators[0])
    g_mid = 0.5 * (1.0 + (1.0 - prep.scale * np.conj(prep.alpha) * gv))
    h = 0.5 * prep.scale * np.conj(prep.alpha) * gv
    out = []
    for n in schedule:
        u = 1.0 - _power(g_mid, n)
        out.append((float(np.max(np.abs(u * h - h))), float(np.max(np.abs(u))), u))
    return out


def peak_sup_norms_mp(spec, schedule, dps: int = 50) -> list[float]:
    """sup |1 - g^n| for each power n of the peak route, with g the averaged
    function in floating point and the power and distance taken in
    ``dps``-digit arithmetic."""
    gv = spec.generators[0].values
    prep = prepare_peak(spec.generators[0])
    g_mid = 0.5 * (1.0 + (1.0 - prep.scale * np.conj(prep.alpha) * gv))
    with mpmath.workdps(dps):
        gs = [mpmath.mpc(complex(g)) for g in g_mid]
        return [float(max(abs(1 - g**n) for g in gs)) for n in schedule]


def outer_at_pointwise(outer, z) -> complex | np.ndarray:
    """exp of the Herglotz node mean of the outer function's log-modulus,
    one point at a time."""
    k = outer.log_modulus
    e = k.grid.boundary_points()
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(zs.size, dtype=complex)
    for i, w in enumerate(zs):
        if abs(w) >= 1.0 or abs(w) ** k.grid.size > 1e-8:
            raise PointOnBoundary("too close to the circle")
        out[i] = np.exp(np.mean((e + w) / (e - w) * k.values.real))
    return out if np.ndim(z) else complex(out[0])


def density_mp(f: AnalyticRep, orders, dps: int = 60) -> list[float]:
    """dist(f, m) for each order m, from the normal equations G x = T^H e_0
    solved in ``dps``-digit arithmetic.

    G = T^H T for the full convolution matrix T is Hermitian, Toeplitz and
    banded (bandwidth b = len(f) - 1), entries G_ij = sum_l conj(a_{l-i})
    a_{l-j}. Its band Cholesky factor L is column-nested, so with
    y = L^{-1} e_0 one forward substitution gives every order:
    dist(f, m)^2 = 1 - |a_0|^2 sum_{j < m} |y_j|^2.
    """
    top = max(orders)
    with mpmath.workdps(dps):
        a = [mpmath.mpc(complex(c).real, complex(c).imag) for c in f.coefficients]
        b = len(a) - 1
        # G_{j+d, j} = r_d = sum_l conj(a_l) a_{l+d} on the lower band
        r = [mpmath.fsum(mpmath.conj(a[l]) * a[l + d] for l in range(len(a) - d)) for d in range(b + 1)]
        low = [[mpmath.mpc(0)] * (b + 1) for _ in range(top)]  # low[i][d] = L[i][i-d]
        for i in range(top):
            for d in range(min(b, i), -1, -1):
                j = i - d
                acc = r[d] - mpmath.fsum(
                    low[i][i - k] * mpmath.conj(low[j][j - k]) for k in range(max(0, i - b), j)
                )
                low[i][d] = mpmath.sqrt(acc.real) if d == 0 else acc / low[j][0]
        y = []
        for i in range(top):
            rhs = 1 if i == 0 else 0
            acc = rhs - mpmath.fsum(low[i][i - k] * y[k] for k in range(max(0, i - b), i))
            y.append(acc / low[i][0])
        scale = abs(a[0]) ** 2
        tail = mpmath.mpf(0)
        dist = []
        for m in range(1, top + 1):
            tail += abs(y[m - 1]) ** 2
            if m in orders:
                dist.append(float(mpmath.sqrt(1 - scale * tail)))
        return dist
