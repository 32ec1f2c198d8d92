"""Essential zero sets on the boundary, oscillation profiles, and continuous
extendability.

A boundary point belongs to the essential zero set when every neighborhood
meets every sublevel set ``{|outer part| < eps}`` in positive measure. The
grid estimator reads the set of eps = e^{-m} as ``clip(log|f|) < _level_cut(m)``
(the log-modulus of the outer factor by construction), proposes candidates from
the finest sublevel set's node clusters, and keeps a candidate only if the
evidence holds for *every* tested ``(eps, width)`` pair — a finite shrinking
family standing in for the quantifier over all neighborhoods. Results carry
the angular resolution (eight grid cells) at which they are meaningful.

Continuous extendability is judged by window oscillation: the value-set
diameter over shrinking windows must both fall below an absolute tolerance
and actually decay (final oscillation at most half the peak); plateauing
oscillation profiles are the signature of an essential discontinuity. The
radius r of a window's values about one of them bounds its diameter to
[r, 2r], and that settles most verdicts without the exact diameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .grid import (
    TWO_PI,
    BoundarySignal,
    CircleGrid,
    _as_real,
    _level_cut,
    _scaled_mean,
    _unit_scaled,
    circular_distance,
    circular_runs,
)

#: Sublevel thresholds e^{-m}, m = 1 .. 8, and their log-modulus cuts, finest last.
EPS_SCHEDULE = tuple(float(np.exp(-m)) for m in range(1, 9))
_CUTS = _level_cut(np.arange(1, 9))

#: Window full widths (radians) 2^{-1} .. 2^{-8}, finest last.
WIDTH_SCHEDULE = tuple(2.0 ** (-j) for j in range(1, 9))

#: Windows and cluster gaps never shrink below this many grid cells.
MIN_WINDOW_CELLS = 8

#: An extension needs its finest oscillation at most this times the largest.
DECAY_RATIO = 0.5

#: Window radii decide a continuity verdict only when each of its
#: inequalities holds by at least this relative margin.
BOUND_MARGIN = 1e-12


def _half_width(grid: CircleGrid, full_width: float) -> float:
    """Half the width of a window, floored at ``MIN_WINDOW_CELLS`` cells."""
    return max(full_width / 2.0, MIN_WINDOW_CELLS * grid.spacing / 2.0)


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
    scaled = _unit_scaled(v)[0]
    x, y = scaled.real, scaled.imag
    lower = _lower_chain(x, y)
    upper = x.size - 1 - _lower_chain(x[::-1], y[::-1])
    hull = v[np.concatenate((lower[:-1], upper[:-1]))]  # counter-clockwise
    m = hull.size
    if m < 3:  # collinear in the unit scale: the farthest from v[0] is an end
        end = v[np.argmax(np.abs(v - v[0]))]
        return float(np.abs(v - end).max())
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


def _windows(grid: CircleGrid, center: float) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of the widest ``WIDTH_SCHEDULE`` window at ``center``,
    nearest first with ties by index, and the node count of each width's
    window, finest last.

    The windows are nested and centred alike, so each is a prefix of that
    order. Only the index range ``round(center/h) +- (half/h + 2)`` (mod N, at
    most N indices) is tested, with node j at ``TWO_PI * j / N`` (bitwise
    ``grid.nodes[j]``), so the windows cost O(their width), not O(N).
    """
    n, h = grid.size, grid.spacing
    reach = int(_half_width(grid, WIDTH_SCHEDULE[0]) / h) + 2
    start = int(round(center / h)) - reach
    idx = np.arange(start, start + min(2 * reach + 1, n)) % n
    dist = circular_distance(TWO_PI * idx / n, center)
    order = np.lexsort((idx, dist))
    halves = [_half_width(grid, w) for w in WIDTH_SCHEDULE]
    counts = np.searchsorted(dist[order], halves, side="right")
    return idx[order[: counts[0]]], counts


def _verdict(lo: Sequence[float], hi: Sequence[float], tol: float, flat: float) -> Optional[bool]:
    """The continuity rule for window diameters known to lie in [lo, hi], or
    None when those intervals leave it open; exact ones (lo == hi) decide it.

    The finest diameter must be within ``tol``, and the profile flat (every
    diameter at most ``flat``) or decaying to at most ``DECAY_RATIO`` times
    the largest: a small final window alone is not enough.
    """
    if lo[-1] > tol or (max(lo) > flat and lo[-1] > DECAY_RATIO * max(hi)):
        return False
    if hi[-1] <= tol and (max(hi) <= flat or hi[-1] <= DECAY_RATIO * max(lo)):
        return True
    return None


@dataclass(frozen=True)
class ExtensionResult:
    """A continuity verdict at ``center``. ``oscillations`` holds the exact
    window diameters; it is computed on first read, unless the verdict
    already needed them."""

    ok: bool
    value: complex
    tolerance: float
    decay_ratio: float
    signal: BoundarySignal = field(repr=False, compare=False)
    center: float = field(repr=False, compare=False)

    @cached_property
    def oscillations(self) -> tuple[float, ...]:
        idx, counts = _windows(self.signal.grid, self.center)
        return tuple(value_diameter(self.signal.values[idx[:s]]) for s in counts)


def continuous_extension(f: BoundarySignal, center: float) -> ExtensionResult:
    """Attempt a continuous extension of ``f`` at the angle ``center`` mod 2 pi.

    Succeeds when the finest-window oscillation over ``WIDTH_SCHEDULE`` is
    below the tolerance 10 sup|f| N^{-1/4} *and* either below
    ``DECAY_RATIO`` times the largest oscillation seen or every oscillation
    is at the roundoff level 1e-12 max(1, sup|f|) of constant data. The
    extension value is the mean over the finest window.

    The windows are nested, so each is a prefix of the widest one's nodes
    taken nearest first. A window's radius r, the largest distance of its
    values from the value at the node nearest ``center`` (the first node of
    every window), bounds its diameter to [r, 2r]; the exact diameters are
    taken only when those bounds leave the verdict open, and then kept as
    ``oscillations``. The mean runs over the finest window in ascending index
    order.
    """
    center = _as_real(center, "center") % TWO_PI
    tol, flat = 10.0 * f.sup_abs * f.grid.size ** (-0.25), 1e-12 * max(1.0, f.sup_abs)
    idx, counts = _windows(f.grid, center)
    values = f.values[idx]
    r = np.maximum.accumulate(np.abs(values - values[0]))[counts - 1]
    ok = _verdict(r * (1.0 - BOUND_MARGIN), 2.0 * r * (1.0 + BOUND_MARGIN), tol, flat)
    oscs = None
    if ok is None:
        oscs = tuple(value_diameter(values[:s]) for s in counts)
        ok = _verdict(oscs, oscs, tol, flat)
    value = _scaled_mean(f.values[np.sort(idx[: counts[-1]])])
    ext = ExtensionResult(ok, value, tol, DECAY_RATIO, f, center)
    if oscs is not None:
        vars(ext)["oscillations"] = oscs  # the cache ``cached_property`` reads first
    return ext


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


def essential_zero_set(f: BoundarySignal) -> ZeroSetEstimate:
    """Estimate the essential zero set of the outer part of ``f``."""
    return _log_zero_set(f.grid, f.log_abs)


def _log_zero_set(grid: CircleGrid, log_mod: np.ndarray) -> ZeroSetEstimate:
    """The essential zero set of the clipped log-modulus ``log_mod`` on ``grid``.

    Candidates are midpoints of the finest sublevel set's node clusters
    (clusters closer than the resolution are merged, wrap included); each must
    show positive sublevel measure inside every tested window.
    """
    n, h = grid.size, grid.spacing
    candidates = []
    for start, length in circular_runs(log_mod < _CUTS[-1], MIN_WINDOW_CELLS):
        center = float((TWO_PI * start / n + (length - 1) * h / 2.0) % TWO_PI)
        idx, counts = _windows(grid, center)
        below = np.cumsum(log_mod[idx, None] < _CUTS, axis=0)
        rows = tuple(map(tuple, (below[counts - 1].T / n).tolist()))
        ok = all(m > 0.0 for row in rows for m in row)
        candidates.append(ZeroCandidate(center, complex(np.exp(1j * center)), rows, ok))
    angles = sorted(c.angle for c in candidates if c.accepted)
    return ZeroSetEstimate(
        angles=tuple(angles),
        points=tuple(complex(np.exp(1j * a)) for a in angles),
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


# Test-only, but kept: perfbench/tracing.py wraps it by name (ROADMAP item 8).
def in_zinfty(f: BoundarySignal) -> bool:
    return zinfty_report(f).in_class


def in_disc_algebra(f: BoundarySignal) -> bool:
    """Continuity of the boundary data, probed at 64 equispaced angles."""
    step = TWO_PI / 64
    return all(continuous_extension(f, j * step).ok for j in range(64))
