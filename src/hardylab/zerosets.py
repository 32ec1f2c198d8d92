"""Essential zero sets on the boundary, oscillation profiles, and continuous
extendability.

A boundary point belongs to the essential zero set when every neighborhood
meets every sublevel set ``{|outer part| < eps}`` in positive measure. The
grid estimator works with the clipped modulus ``exp(clip(log|f|))`` (identical
to the modulus of the outer factor by construction), proposes candidates from
the finest sublevel set's node clusters, and keeps a candidate only if the
evidence holds for *every* tested ``(eps, width)`` pair — a finite shrinking
family standing in for the quantifier over all neighborhoods. Results carry
the angular resolution (eight grid cells) at which they are meaningful.

Continuous extendability is judged by window oscillation: the value-set
diameter over shrinking windows must both fall below an absolute tolerance
and actually decay (final oscillation at most half the peak); plateauing
oscillation profiles are the signature of an essential discontinuity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .factorization import clipped_log_modulus
from .grid import TWO_PI, BoundarySignal, CircleGrid, circular_distance, circular_runs

#: Sublevel thresholds e^{-1} .. e^{-8}, finest last.
EPS_SCHEDULE = tuple(float(np.exp(-m)) for m in range(1, 9))

#: Window full widths (radians) 2^{-1} .. 2^{-8}, finest last.
WIDTH_SCHEDULE = tuple(2.0 ** (-j) for j in range(1, 9))

#: Windows and cluster gaps never shrink below this many grid cells.
MIN_WINDOW_CELLS = 8

#: An extension needs its finest oscillation at most this times the largest.
DECAY_RATIO = 0.5


def window_nodes(grid: CircleGrid, center: float, full_width: float) -> np.ndarray:
    """Ascending indices of the nodes within the (floored) window at ``center``.

    Only the index range ``round(center/h) +- (half/h + 2)`` (mod N) is tested,
    so a window costs O(its width) rather than a pass over all N nodes.
    """
    n, h = grid.size, grid.spacing
    half = max(full_width / 2.0, MIN_WINDOW_CELLS * h / 2.0)
    reach = int(half / h) + 2
    if 2 * reach + 1 >= n:
        idx = np.arange(n)
    else:
        k = int(round(center / h))
        idx = np.sort(np.arange(k - reach, k + reach + 1) % n)
    return idx[circular_distance(grid.nodes[idx], center) <= half]


def _turn(x: np.ndarray, y: np.ndarray, i, j, k) -> np.ndarray:
    """Cross product of (p_j - p_i) and (p_k - p_i): > 0 for a left turn."""
    return (x[j] - x[i]) * (y[k] - y[i]) - (y[j] - y[i]) * (x[k] - x[i])


def _lower_chain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Positions of the strictly convex lower hull of distinct points sorted by
    (x, y), first and last point included.

    Quickhull over all hull edges at once. Each round drops the points on or
    above their edge, judged against its two end vertices, which stay. An edge
    whose remaining points all turn left between its ends is finished: they
    are all vertices. Every other edge is split at its farthest point below.
    """
    hull = np.array([0, x.size - 1])
    cand = np.arange(1, x.size - 1)
    while cand.size:
        edge = np.searchsorted(hull, cand) - 1
        depth = _turn(x, y, hull[edge], hull[edge + 1], cand)
        below = depth < 0.0
        cand, edge, depth = cand[below], edge[below], depth[below]
        chain = np.sort(np.concatenate((hull, cand)))
        left = _turn(x, y, chain[:-2], chain[1:-1], chain[2:]) > 0.0
        bent = np.zeros(hull.size, dtype=bool)
        bent[edge[~left[np.searchsorted(chain, cand) - 1]]] = True
        take = ~bent[edge]  # finished edges: all their points are vertices
        split = np.flatnonzero(bent[edge])
        order = split[np.lexsort((depth[split], edge[split]))]
        take[order[np.diff(edge[order], prepend=-1) != 0]] = True  # deepest
        hull = np.sort(np.concatenate((hull, cand[take])))
        cand = cand[~take]
    return hull


def value_diameter(values: np.ndarray) -> float:
    """Exact max pairwise distance of a finite complex value set.

    The diameter is attained by an antipodal pair of convex-hull vertices
    (Shamos 1978; Preparata & Shamos 1985). The hull is a lower and an upper
    monotone chain; for each hull edge the antipodal vertex is found by
    ``searchsorted`` on the unwrapped edge angles, and its neighbours are
    tried too. Typical cost O(w log w) time and O(w) memory for w values.
    """
    if values.size <= 1:
        return 0.0
    v = np.unique(values)  # sorted by (real, imag), repeats dropped
    # Exact power-of-two rescaling to |coordinates| < 1, so that the turn
    # tests neither overflow nor underflow.
    e = np.frexp(max(np.abs(v.real).max(), np.abs(v.imag).max()))[1]
    x, y = np.ldexp(v.real, -e), np.ldexp(v.imag, -e)
    lower = _lower_chain(x, y)
    upper = x.size - 1 - _lower_chain(x[::-1], y[::-1])
    hull = v[np.concatenate((lower[:-1], upper[:-1]))]  # counter-clockwise
    m = hull.size
    if m < 3:  # collinear or coincident values
        return float(abs(v[-1] - v[0]))
    edges = np.roll(hull, -1) - hull
    ang = np.unwrap(np.arctan2(edges.imag, edges.real))
    j = np.searchsorted(np.concatenate((ang, ang + TWO_PI)), ang + np.pi)
    i = np.arange(m)
    return float(
        max(
            np.abs(hull[(i + di) % m] - hull[(j + dj) % m]).max()
            for di in (0, 1)
            for dj in (-1, 0, 1)
        )
    )


def extension_tolerance(f: BoundarySignal) -> float:
    """Oscillation tolerance 10 * sup|f| * N^{-1/4} of ``continuous_extension``."""
    return 10.0 * float(np.max(np.abs(f.values))) * f.grid.size ** (-0.25)


@dataclass(frozen=True)
class ExtensionResult:
    ok: bool
    value: complex
    oscillations: tuple[float, ...]
    tolerance: float
    decay_ratio: float


def continuous_extension(f: BoundarySignal, center: float) -> ExtensionResult:
    """Attempt a continuous extension of ``f`` at angle ``center``.

    Succeeds when the finest-window oscillation over ``WIDTH_SCHEDULE`` is
    below ``extension_tolerance(f)`` *and* below ``DECAY_RATIO`` times the
    largest oscillation seen. The extension value is the mean over the finest
    window.
    """
    tol = extension_tolerance(f)
    windows = [f.values[window_nodes(f.grid, center, w)] for w in WIDTH_SCHEDULE]
    oscs = tuple(value_diameter(v) for v in windows)
    value = complex(np.mean(windows[-1]))
    worst = max(oscs)
    # A flat profile (constant data up to roundoff) is continuous outright;
    # otherwise require genuine decay, not just a small final window.
    flat = worst <= 1e-12 * max(1.0, float(np.max(np.abs(f.values))))
    ok = oscs[-1] <= tol and (flat or oscs[-1] <= DECAY_RATIO * worst)
    return ExtensionResult(ok, value, oscs, tol, DECAY_RATIO)


# ---------------------------------------------------------------------------
# Zero-set estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroCandidate:
    angle: float
    point: complex
    #: normalized measure of sublevel(eps) within the window, per (eps, width)
    evidence: tuple[tuple[float, ...], ...]
    accepted: bool


@dataclass(frozen=True)
class ZeroSetEstimate:
    angles: tuple[float, ...]
    points: tuple[complex, ...]
    resolution: float
    candidates: tuple[ZeroCandidate, ...] = field(repr=False, default=())

    def covers_angle(self, theta: float, slack: float) -> bool:
        return any(circular_distance(theta, a) <= slack for a in self.angles)


def _merge_runs(runs: list[tuple[int, int]], n: int, gap: int) -> list[tuple[int, int]]:
    """Merge circular runs separated by at most ``gap`` unmasked nodes."""
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
    # wrap-around merge between the last and first runs
    if len(merged) > 1:
        s0, l0 = merged[0]
        s1, l1 = merged[-1]
        if (s0 + n) - (s1 + l1) <= gap:
            merged[0] = (s1, s0 + l0 + n - s1)
            merged.pop()
    return merged


def essential_zero_set(f: BoundarySignal) -> ZeroSetEstimate:
    """Estimate the essential zero set of the outer part of ``f``.

    Candidates are midpoints of the finest sublevel set's node clusters
    (clusters closer than the resolution are merged, wrap included); each must
    show positive sublevel measure inside every tested window.
    """
    grid = f.grid
    n = grid.size
    h = grid.spacing
    outer_mod = np.exp(clipped_log_modulus(f).values.real)

    masks = [outer_mod < eps for eps in EPS_SCHEDULE]
    runs = _merge_runs(circular_runs(masks[-1]), n, MIN_WINDOW_CELLS)

    theta = grid.nodes
    candidates = []
    accepted_angles = []
    for start, length in runs:
        center = float((theta[start] + (length - 1) * h / 2.0) % TWO_PI)
        windows = [window_nodes(grid, center, w) for w in WIDTH_SCHEDULE]
        rows = tuple(
            tuple(float(np.count_nonzero(mask[win])) / n for win in windows)
            for mask in masks
        )
        ok = all(m > 0.0 for row in rows for m in row)
        cand = ZeroCandidate(
            angle=center,
            point=complex(np.exp(1j * center)),
            evidence=rows,
            accepted=ok,
        )
        candidates.append(cand)
        if ok:
            accepted_angles.append(center)

    accepted_angles.sort()
    return ZeroSetEstimate(
        angles=tuple(accepted_angles),
        points=tuple(complex(np.exp(1j * a)) for a in accepted_angles),
        resolution=MIN_WINDOW_CELLS * h,
        candidates=tuple(candidates),
    )


@dataclass(frozen=True)
class ZinftyReport:
    in_class: bool
    zero_set: ZeroSetEstimate
    extensions: tuple[ExtensionResult, ...]


def zinfty_report(f: BoundarySignal) -> ZinftyReport:
    """Does ``f`` extend continuously to (each point of) its zero set?"""
    est = essential_zero_set(f)
    exts = tuple(continuous_extension(f, a) for a in est.angles)
    return ZinftyReport(all(e.ok for e in exts), est, exts)


# Test-only, but kept: perfbench/tracing.py wraps in_zinfty by name (ROADMAP item 6).
def in_zinfty(f: BoundarySignal) -> bool:
    return zinfty_report(f).in_class


def in_disc_algebra(f: BoundarySignal) -> bool:
    """Continuity of the boundary data, probed at 64 equispaced angles."""
    step = TWO_PI / 64
    return all(continuous_extension(f, j * step).ok for j in range(64))
