"""Essential zero sets on the boundary, oscillation profiles, and continuous
extendability.

A boundary point belongs to the essential zero set when every neighborhood
meets every sublevel set ``{|outer part| < eps}`` in positive measure. The
grid estimator reads the finest sublevel set, eps = e^{-8}, as
``clip(log|f|) < _level_cut(8)`` (the log-modulus of the outer factor by
construction), and each cluster of its nodes (runs with at most eight nodes
between them merge) is a zero at the cluster's midpoint. Results carry the
angular resolution (eight grid cells) at which they are meaningful; the
windows below serve only the continuity verdicts.

Continuous extendability is judged by window oscillation: the value-set
diameter over shrinking windows must both fall below an absolute tolerance
and actually decay (final oscillation at most half the peak); plateauing
oscillation profiles are the signature of an essential discontinuity. The
radius r of a window's values about the value at its nearest node bounds its
diameter to [r, 2r]. The verdict is True only when the rule holds for every
diameter in those bounds; radii that cannot prove it read False.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    TWO_PI,
    BoundarySignal,
    CircleGrid,
    _as_real,
    _level_cut,
    _scaled_mean,
    circular_distance,
    circular_runs,
)

# Unused by the program, but kept: perfbench/tracing.py reads it (ROADMAP item 8).
#: Sublevel thresholds e^{-m}, m = 1 .. 8, finest last.
EPS_SCHEDULE = tuple(float(np.exp(-m)) for m in range(1, 9))

#: Window full widths (radians) 2^{-1} .. 2^{-8}, finest last.
WIDTH_SCHEDULE = tuple(2.0 ** (-j) for j in range(1, 9))

#: Windows and cluster gaps never shrink below this many grid cells.
MIN_WINDOW_CELLS = 8

#: An extension needs its finest oscillation at most this times the largest.
DECAY_RATIO = 0.5

#: A continuity verdict is True only when each of its inequalities holds on
#: the window radii by at least this relative margin.
BOUND_MARGIN = 1e-12


def _half_width(grid: CircleGrid, full_width: float) -> float:
    """Half the width of a window, floored at ``MIN_WINDOW_CELLS`` cells."""
    return max(full_width / 2.0, MIN_WINDOW_CELLS * grid.spacing / 2.0)


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


def _verdict(radii: np.ndarray, tol: float, flat: float) -> bool:
    """The continuity rule on window radii ``radii``, finest last: True only
    when it holds for every diameter in [r (1 - m), 2 r (1 + m)], with
    m = ``BOUND_MARGIN``.

    The finest diameter must be within ``tol``, and the profile flat (every
    diameter at most ``flat``) or decaying to at most ``DECAY_RATIO`` times
    the largest: a small final window alone is not enough. Radii that cannot
    prove it read False. ``continuous_extension``'s radii never increase
    from widest to finest, so there the largest is the widest and only the
    widest and finest radii decide.
    """
    lo, hi = radii * (1.0 - BOUND_MARGIN), 2.0 * radii * (1.0 + BOUND_MARGIN)
    return bool(hi[-1] <= tol and (hi.max() <= flat or hi[-1] <= DECAY_RATIO * lo.max()))


@dataclass(frozen=True)
class ExtensionResult:
    """A continuity verdict at ``center``, with its window radii, widest
    first: they never increase, and only the first and last decide."""

    ok: bool
    value: complex
    tolerance: float
    decay_ratio: float
    radii: tuple[float, ...]
    center: float = field(repr=False, compare=False)


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
    every window), bounds its oscillation to [r, 2r]; the verdict is True
    only when the rule holds across those bounds (``_verdict``). The mean
    runs over the finest window in ascending index order.
    """
    center = _as_real(center, "center") % TWO_PI
    tol, flat = 10.0 * f.sup_abs * f.grid.size ** (-0.25), 1e-12 * max(1.0, f.sup_abs)
    idx, counts = _windows(f.grid, center)
    values = f.values[idx]
    r = np.maximum.accumulate(np.abs(values - values[0]))[counts - 1]
    value = _scaled_mean(f.values[np.sort(idx[: counts[-1]])])
    return ExtensionResult(_verdict(r, tol, flat), value, tol, DECAY_RATIO, tuple(r.tolist()), center)


# ---------------------------------------------------------------------------
# Zero-set estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroSetEstimate:
    angles: tuple[float, ...]
    resolution: float

    # Unused by the program, but kept: perfbench/tracing.py reads it (ROADMAP item 8).
    candidates = property(lambda self: self.angles)

    def covers_angle(self, theta: float, slack: float) -> bool:
        return any(circular_distance(theta, a) <= slack for a in self.angles)


def essential_zero_set(f: BoundarySignal) -> ZeroSetEstimate:
    """Estimate the essential zero set of the outer part of ``f``."""
    return _log_zero_set(f.grid, f.log_abs)


def _log_zero_set(grid: CircleGrid, log_mod: np.ndarray) -> ZeroSetEstimate:
    """The essential zero set of the clipped log-modulus ``log_mod`` on ``grid``:
    the midpoint of each node cluster of the finest sublevel set (clusters
    closer than the resolution are merged, wrap included), sorted.
    """
    n, h = grid.size, grid.spacing
    angles = sorted(
        float((TWO_PI * start / n + (length - 1) * h / 2.0) % TWO_PI)
        for start, length in circular_runs(log_mod < _level_cut(8), MIN_WINDOW_CELLS)
    )
    return ZeroSetEstimate(tuple(angles), MIN_WINDOW_CELLS * h)


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
    """Continuity of the boundary data, probed at 64 equispaced angles and at the
    midpoints of the 64 largest local maxima of |f_{j+1} - f_j| (circularly)."""
    rise = np.abs(np.roll(f.values, -1) - f.values)
    peaks = np.flatnonzero((rise > np.roll(rise, 1)) & (rise >= np.roll(rise, -1)))
    jumps = peaks[np.argsort(-rise[peaks], kind="stable")[:64]]
    probes = np.concatenate((np.arange(64) * (TWO_PI / 64), (jumps + 0.5) * f.grid.spacing))
    return all(continuous_extension(f, a).ok for a in probes.tolist())
