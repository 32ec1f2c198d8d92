"""Essential zero sets on the boundary, window oscillation, and continuous
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
diameter over the widest and the finest window must both fall below an
absolute tolerance and actually decay (finest oscillation at most half the
widest); a plateauing oscillation is the signature of an essential
discontinuity. The radius r of a window's values about the value at the
node nearest its centre bounds its diameter to [r, 2r]. The verdict is True
only when the rule holds for every diameter in those bounds; radii that
cannot prove it read False.
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

#: Window full widths (radians) of the continuity verdicts: the widest, then
#: the finest.
WIDTH_SCHEDULE = (2.0**-1, 2.0**-8)

#: Windows and cluster gaps never shrink below this many grid cells.
MIN_WINDOW_CELLS = 8

#: An extension needs its finest oscillation at most this times the widest.
DECAY_RATIO = 0.5

#: A continuity verdict is True only when each of its inequalities holds on
#: the window radii by at least this relative margin.
BOUND_MARGIN = 1e-12


def _window(grid: CircleGrid, center: float, full_width: float) -> tuple[np.ndarray, np.ndarray]:
    """The nodes within ``full_width / 2`` of ``center`` (floored at
    ``MIN_WINDOW_CELLS / 2`` cells), in ascending index order, and their
    distances to it.

    Only the index range ``round(center/h) +- (half/h + 2)`` (mod N, at most N
    indices) is tested, with node j at ``TWO_PI * j / N`` (bitwise
    ``grid.nodes[j]``), so a window costs O(its width), not O(N).
    """
    n, h = grid.size, grid.spacing
    half = max(full_width / 2.0, MIN_WINDOW_CELLS * h / 2.0)
    reach = int(half / h) + 2
    start = int(round(center / h)) - reach
    idx = np.sort(np.arange(start, start + min(2 * reach + 1, n)) % n)
    dist = circular_distance(TWO_PI * idx / n, center)
    keep = dist <= half
    return idx[keep], dist[keep]


def _verdict(wide: float, fine: float, tol: float, flat: float) -> bool:
    """The continuity rule on the radii of the widest and the finest window,
    ``fine <= wide``: True only when it holds for every diameter in
    [r (1 - m), 2 r (1 + m)], with m = ``BOUND_MARGIN``.

    The finest diameter must be within ``tol``, and the widest at most
    ``flat`` or the finest at most ``DECAY_RATIO`` times the widest: a small
    final window alone is not enough. Radii that cannot prove it read False.
    """
    hi = 2.0 * fine * (1.0 + BOUND_MARGIN)
    return hi <= tol and (2.0 * wide * (1.0 + BOUND_MARGIN) <= flat
                          or hi <= DECAY_RATIO * (wide * (1.0 - BOUND_MARGIN)))


@dataclass(frozen=True)
class ExtensionResult:
    """A continuity verdict at ``center``, with the radii of its widest and
    its finest window, which decide it."""

    ok: bool
    value: complex
    tolerance: float
    decay_ratio: float
    radii: tuple[float, ...]
    center: float = field(repr=False, compare=False)


def continuous_extension(f: BoundarySignal, center: float) -> ExtensionResult:
    """Attempt a continuous extension of ``f`` at the angle ``center`` mod 2 pi.

    Succeeds when the finest ``WIDTH_SCHEDULE`` window's oscillation is
    below the tolerance 10 sup|f| N^{-1/4} *and* either at most
    ``DECAY_RATIO`` times the widest window's or the widest is at the
    roundoff level 1e-12 max(1, sup|f|) of constant data. The extension value
    is the mean over the finest window, in ascending index order.

    A window's radius r, the largest distance of its values from the value
    ``v0`` at the node nearest ``center`` (ties by index; it lies in both
    windows), bounds its oscillation to [r, 2r]; the verdict is True only
    when the rule holds across those bounds (``_verdict``).
    """
    center = _as_real(center, "center") % TWO_PI
    tol, flat = 10.0 * f.sup_abs * f.grid.size ** (-0.25), 1e-12 * max(1.0, f.sup_abs)
    wide, _ = _window(f.grid, center, WIDTH_SCHEDULE[0])
    fine, dist = _window(f.grid, center, WIDTH_SCHEDULE[-1])
    v0 = f.values[fine[np.argmin(dist)]]
    radii = tuple(float(np.abs(f.values[w] - v0).max()) for w in (wide, fine))
    value = _scaled_mean(f.values[fine])
    return ExtensionResult(_verdict(*radii, tol, flat), value, tol, DECAY_RATIO, radii, center)


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


def _probe_angles(f: BoundarySignal) -> list[float]:
    """64 equispaced angles, then the midpoints of the 64 largest local maxima
    of |f_{j+1} - f_j| (circularly)."""
    rise = np.abs(np.roll(f.values, -1) - f.values)
    peaks = np.flatnonzero((rise > np.roll(rise, 1)) & (rise >= np.roll(rise, -1)))
    jumps = peaks[np.argsort(-rise[peaks], kind="stable")[:64]]
    return np.concatenate((np.arange(64) * (TWO_PI / 64), (jumps + 0.5) * f.grid.spacing)).tolist()


def in_disc_algebra(f: BoundarySignal) -> bool:
    """Continuity of the boundary data, probed at ``_probe_angles``."""
    return all(continuous_extension(f, a).ok for a in _probe_angles(f))
