"""Independent reference routes that the tests compare the package against.

None of these runs in the program. Each route recomputes an answer by a
second, simpler way (Horner evaluation, a dense matrix, a bisection, complex
FFTs, complex units and complex moduli where the program works on real
arrays, copied blocks where it writes them in place, pairwise diameters
where it bounds them by radii, one point at a time where it works in
blocks, 60-digit arithmetic where it works in doubles, scipy's checked
wrappers where it calls LAPACK itself, a rotation scan and golden-section
search where it intersects arcs), so a test can hold the program's route
to it; the corpus names the functions on which two independent outerness
tests must agree, and the pinned symbols carry the kernel counts their
zeros predict.
"""

import cmath
import math

import mpmath
import numpy as np

from hardylab import AnalyticRep, BoundarySignal, CircleGrid, PointOnBoundary, signal_from_values
from hardylab.errors import HardyLabError, NormExceeded, RangeMiss
from hardylab.factorization import CLIP_FLOOR, clipped_log_modulus, outer_boundary
from hardylab.grid import _scaled_mean, _unit_scaled, circular_distance
from hardylab.ideals import RANGE_TOL, SUP_SLACK, PeakPreparation, prepare_peak
from hardylab.toeplitz import _BLOCK
from hardylab.zerosets import MIN_WINDOW_CELLS, WIDTH_SCHEDULE

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


def polynomial(roots, scale=1.0) -> AnalyticRep:
    """scale * prod (z - r), lowest coefficient first."""
    a = np.array([scale], dtype=complex)
    for r in roots:
        a = np.convolve(a, [-r, 1.0])
    return AnalyticRep(a)


#: Symbols and the kernel count of their order-1024 truncation, every one on
#: the banded route: the shapes of the density benchmark's symbols (a root on
#: the circle beside one inside or outside it, scale 0.5), the shift, the zero
#: symbol, and the splitting cases with zeros {0.5} and {0.5, -0.3i}: one
#: vanishing singular value per zero inside the disc.
PINNED_1024 = [
    (polynomial([cmath.exp(2.1j), 0.55 * cmath.exp(-0.7j)], 0.5), 1),
    (polynomial([cmath.exp(-2.6j), 1.45 * cmath.exp(1.3j)], 0.5), 0),
    (AnalyticRep(np.array([0.0, 1.0])), 1),
    (AnalyticRep(np.array([0.0, 0.0])), 1024),
    (polynomial([0.5]), 1),
    (polynomial([0.5, -0.3j]), 2),
]


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


def sturm_top_and_count(off: np.ndarray, tol: float) -> tuple[float, int]:
    """sigma_max and the count of singular values below tol * sigma_max from
    scipy's eigvalsh_tridiagonal on the Golub–Kahan tridiagonal with
    off-diagonal ``off``: its top eigenvalue (select="i") and half the number
    of its eigenvalues in (-tol sigma_max, tol sigma_max] (select="v"), by the
    same LAPACK dstebz behind scipy's argument checks."""
    from scipy.linalg import eigvalsh_tridiagonal  # only toeplitz tests load scipy.linalg

    zero = np.zeros(off.size + 1)
    top = eigvalsh_tridiagonal(zero, off, select="i", select_range=(off.size, off.size))[0]
    inside = eigvalsh_tridiagonal(zero, off, select="v", select_range=(-tol * top, tol * top))
    return float(top), inside.size // 2


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


def distances_blocked_reference(f: AnalyticRep, order: int) -> np.ndarray:
    """dist(f, m) for m = 1..order by the program's blocked banded QR of
    [T | e_0], with each block's T rows built as a reversed-window copy, the
    block copied together row-major, and R taken from qr(mode="r"). The
    program writes each block column-major in place and calls LAPACK zgeqrf
    on it directly; qr copies the block into that layout and calls the same
    zgeqrf with the same workspace size, so the two must agree bit for bit."""
    size = f.coefficients.size
    k = max(_BLOCK, size)
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


def prepare_peak_scan(generator: BoundarySignal):
    """``prepare_peak`` by a rotation scan, frozen: alpha from the least sup
    at 256 coarse angles, then 72 sups of a golden-section search in that
    angle's cell; where the sup there is above 1 + ``SUP_SLACK``, the largest
    scale with sup within 1e-12 of 1 at that alpha, in closed form. Returns
    the alignment, or raises the error the package raises."""
    gv = generator.values
    range_gap = generator.inf_abs
    if range_gap > RANGE_TOL:
        raise RangeMiss("generator modulus stays away from zero")
    if generator.sup_abs > 1e10:
        raise NormExceeded("no scale fits")
    pairs = gv.view(float).reshape(-1, 2)
    q = 1.0 + np.einsum("ij,ij->i", pairs, pairs)

    def sup_at(phi: float) -> float:
        return math.sqrt(max(float(np.max(q - pairs @ (2.0 * math.cos(phi), 2.0 * math.sin(phi)))), 0.0))

    coarse = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    i0 = int(np.argmin([sup_at(phi) for phi in coarse]))
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = coarse[i0] - coarse[1], coarse[i0] + coarse[1]
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = sup_at(c), sup_at(d)
    for _ in range(70):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = sup_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = sup_at(d)
    phi_star = (a + b) / 2.0
    alpha = complex(np.exp(1j * phi_star))
    scale, rescaled = 1.0, sup_at(phi_star) > 1.0 + SUP_SLACK
    if rescaled:
        w = np.conj(alpha) * gv
        t = 2e-12 + 1e-24
        with np.errstate(over="ignore"):
            root = np.hypot(w.real, np.sqrt(t) * np.abs(w))
            inv = (root - w.real) / t
            pos = w.real > 0.0
            inv[pos] = np.abs(w[pos]) ** 2 / (w.real[pos] + root[pos])
            scale = 1.0 / float(np.max(inv))
        if scale < 1e-8:
            raise NormExceeded("no scale fits")
    return PeakPreparation(
        alpha=alpha,
        scale=scale,
        rescaled=rescaled,
        sup_base=float(np.max(np.abs(1.0 - scale * np.conj(alpha) * gv))),
        range_gap=range_gap,
    )


def aligned_or_refused(prepare, f):
    """``prepare(f)``, or the name of the error it raises."""
    try:
        return prepare(f)
    except HardyLabError as exc:
        return type(exc).__name__


def peak_alignment_fault(arc, scan, f: BoundarySignal) -> str:
    """'' when ``arc``, what ``prepare_peak`` gives for ``f`` by
    ``aligned_or_refused``, holds to ``scan``, what ``prepare_peak_scan``
    gives, else what fails: the same refusal, a sup_base no more than 1e-12
    above the scan's and a scale no more than 1e-7 relative below it.

    The scan can refuse with NormExceeded where the arc aligns: its alpha
    minimises the sup before any scaling, and at that alpha a node with
    Re(conj(alpha) G) < 0 can leave no scale of 1e-8 or more, while another
    alpha does. There the arc's alignment is checked on its own: scale at
    least 1e-8, and sup |1 - scale conj(alpha) G|, in complex arithmetic, at
    most 1 + 1e-12 but for rounding."""
    if isinstance(arc, str):
        return "" if arc == scan else "refusals differ"
    if scan == "NormExceeded":
        sup = float(np.max(np.abs(1.0 - arc.scale * np.conj(arc.alpha) * f.values)))
        return "" if sup <= 1.0 + 1e-12 + 1e-15 and arc.scale >= 1e-8 else "alignment fails the sup"
    if isinstance(scan, str):
        return "refusals differ"
    if arc.sup_base > scan.sup_base + 1e-12:
        return "sup_base above the scan's"
    if arc.scale < scan.scale * (1.0 - 1e-7):
        return "scale below the scan's"
    return ""


def peak_product(n: int, zeros, c: float, scale: float, rotation: float, spike=None) -> BoundarySignal:
    """scale e^{i rotation} e^{c z} prod_k (1 - z e^{-i t_k}) on n nodes, with a
    zero at t_k = (2 pi / n) k for each node index k in ``zeros``, or half a
    cell past it for a half-integer k. ``spike`` = (start, width, height)
    multiplies the values at ``width`` nodes from ``start`` on by
    1 + ``height``: a narrow peak of the modulus."""
    grid = CircleGrid(n)
    z = np.exp(1j * grid.nodes)
    v = scale * np.exp(1j * rotation) * np.exp(c * z)
    for k in zeros:
        v = v * (1.0 - z * np.exp(-2j * np.pi * k / n))
    if spike is not None:
        start, width, height = spike
        v[np.arange(start, start + width) % n] *= 1.0 + height
    return BoundarySignal(grid, v)


def random_product(seed: int, n: int):
    """1-3 simple zeros at uniform angles times e^{p1 z + p2 z^2}, with
    p ~ N(0, 0.5^2): the zero angles and the boundary signal on n nodes."""
    rng = np.random.default_rng(seed)
    zeros = rng.uniform(0.0, 2 * math.pi, size=rng.integers(1, 4))
    p1, p2 = rng.normal(0.0, 0.5, size=2)
    grid = CircleGrid(n)
    z = np.exp(1j * grid.nodes)
    values = np.exp(p1 * z + p2 * z * z) * np.prod(1.0 - np.exp(-1j * zeros)[:, None] * z, axis=0)
    return zeros, signal_from_values(grid, values)


def distance_window(grid, center: float, full_width: float) -> np.ndarray:
    """Ascending indices of the nodes within ``full_width / 2`` of ``center``
    (at least ``MIN_WINDOW_CELLS / 2`` cells), from the distance of every node."""
    half = max(full_width / 2.0, MIN_WINDOW_CELLS * grid.spacing / 2.0)
    return np.flatnonzero(circular_distance(grid.nodes, center) <= half)


def reference_radii(f, center: float) -> tuple:
    """For each ``WIDTH_SCHEDULE`` width, the largest distance of the values
    in its distance window from the value at the node nearest ``center``."""
    out = []
    for w in WIDTH_SCHEDULE:
        idx = distance_window(f.grid, center, w)
        v = f.values[idx]
        near = np.argmin(circular_distance(f.grid.nodes[idx], center))
        out.append(float(np.abs(v - v[near]).max()))
    return tuple(out)


def continuous_extension_hull(f: BoundarySignal, center: float) -> tuple:
    """(ok, value, oscillations, tolerance) of a continuity test that takes
    the exact diameter of every window. The widest window's nodes, ordered by
    their distance to ``center``, give one pairwise distance matrix, and each
    narrower window is a leading block of it."""
    sup = float(np.max(np.abs(f.values)))
    tol = 10.0 * sup * f.grid.size ** (-0.25)
    windows = [distance_window(f.grid, center, w) for w in WIDTH_SCHEDULE]
    near = windows[0][np.argsort(circular_distance(f.grid.nodes[windows[0]], center), kind="stable")]
    dist = np.abs(f.values[near, None] - f.values[None, near])
    oscs = tuple(float(dist[: w.size, : w.size].max()) for w in windows)
    ok = continuity_rule(oscs, tol, 1e-12 * max(1.0, sup))
    return ok, _scaled_mean(f.values[windows[-1]]), oscs, tol


def continuity_rule(oscs, tol: float, flat: float) -> bool:
    """The documented rule on exact window diameters: the finest within
    ``tol``, and every diameter at most ``flat`` or the finest at most half
    the largest."""
    worst = max(oscs)
    return oscs[-1] <= tol and (worst <= flat or oscs[-1] <= 0.5 * worst)


def fstring_oracle_csv(f: BoundarySignal) -> str:
    """The CSV text of ``f`` written one f-string per row."""
    rows = [f"{t:.17g},{v.real:.17g},{v.imag:.17g}\n" for t, v in zip(f.grid.nodes, f.values)]
    return "theta,re,im\n" + "".join(rows)


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
        cofactor = outer_boundary(np.where(mask, 0.0, -k_c), 0)  # unclipped
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


def _peak_halves(spec) -> tuple[np.ndarray, np.ndarray]:
    """The peak route's averaged function g = (1 + (1 - w))/2 and
    half-generator h = w/2 for the rebased generator w, in floating point."""
    prep = prepare_peak(spec.generators[0])
    w = prep.scale * np.conj(prep.alpha) * spec.generators[0].values
    return 0.5 * (1.0 + (1.0 - w)), 0.5 * w


def peak_stages_complex(spec, schedule) -> list:
    """(error, sup_norm) for each power n of the peak route: u_n = 1 - g^n
    with numpy's complex power, error sup |u_n h - h| and sup norm sup |u_n|,
    all in complex arithmetic."""
    g_mid, h = _peak_halves(spec)
    out = []
    for n in schedule:
        u = 1.0 - g_mid**n
        out.append((float(np.max(np.abs(u * h - h))), float(np.max(np.abs(u)))))
    return out


def peak_sup_norms_mp(spec, schedule, dps: int = 50) -> list[float]:
    """sup |1 - g^n| for each power n of the peak route, with g the averaged
    function in floating point and the power and distance taken in
    ``dps``-digit arithmetic."""
    with mpmath.workdps(dps):
        gs = [mpmath.mpc(complex(g)) for g in _peak_halves(spec)[0]]
        return [float(max(abs(1 - g**n) for g in gs)) for n in schedule]


def peak_unit_error_mp(spec, unit: np.ndarray, n: int, dps: int = 50) -> float:
    """max_j |unit_j - (1 - g_j^n)|, with g the averaged function in floating
    point and the power and difference taken in ``dps``-digit arithmetic."""
    with mpmath.workdps(dps):
        return float(max(
            abs(mpmath.mpc(complex(u)) - (1 - mpmath.mpc(complex(g)) ** n))
            for u, g in zip(unit, _peak_halves(spec)[0])
        ))


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
