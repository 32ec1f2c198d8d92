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
from .grid import TWO_PI, BoundarySignal, circular_distance, circular_runs

#: Sublevel thresholds e^{-1} .. e^{-8}, finest last.
EPS_SCHEDULE = tuple(float(np.exp(-m)) for m in range(1, 9))

#: Window full widths (radians) 2^{-1} .. 2^{-8}, finest last.
WIDTH_SCHEDULE = tuple(2.0 ** (-j) for j in range(1, 9))

#: Windows and cluster gaps never shrink below this many grid cells.
MIN_WINDOW_CELLS = 8


def window_mask(f: BoundarySignal, center: float, full_width: float) -> np.ndarray:
    """Nodes within the (floored) window centered at ``center``."""
    half = max(full_width / 2.0, MIN_WINDOW_CELLS * f.grid.spacing / 2.0)
    return circular_distance(f.grid.nodes, center) <= half


def value_diameter(values: np.ndarray) -> float:
    """Exact max pairwise distance of a finite complex value set."""
    if values.size <= 1:
        return 0.0
    # Pairwise in one shot; window sizes stay in the hundreds of nodes.
    d = np.abs(values[:, None] - values[None, :])
    return float(d.max())


def oscillation(f: BoundarySignal, center: float, full_width: float) -> float:
    """Diameter of the boundary values over the window at ``center``."""
    return value_diameter(f.values[window_mask(f, center, full_width)])


def extension_tolerance(f: BoundarySignal) -> float:
    """Default oscillation tolerance 10 * sup|f| * N^{-1/4}."""
    return 10.0 * float(np.max(np.abs(f.values))) * f.grid.size ** (-0.25)


@dataclass(frozen=True)
class ExtensionResult:
    ok: bool
    value: complex
    oscillations: tuple[float, ...]
    tolerance: float
    decay_ratio: float


def continuous_extension(
    f: BoundarySignal,
    center: float,
    tol: float | None = None,
    widths: tuple[float, ...] = WIDTH_SCHEDULE,
    decay_ratio: float = 0.5,
) -> ExtensionResult:
    """Attempt a continuous extension of ``f`` at angle ``center``.

    Succeeds when the finest-window oscillation is below ``tol`` *and* below
    ``decay_ratio`` times the largest oscillation seen across the schedule.
    The extension value is the mean over the finest window.
    """
    if tol is None:
        tol = extension_tolerance(f)
    windows = [f.values[window_mask(f, center, w)] for w in widths]
    oscs = tuple(value_diameter(v) for v in windows)
    value = complex(np.mean(windows[-1]))
    worst = max(oscs)
    # A flat profile (constant data up to roundoff) is continuous outright;
    # otherwise require genuine decay, not just a small final window.
    flat = worst <= 1e-12 * max(1.0, float(np.max(np.abs(f.values))))
    ok = oscs[-1] <= tol and (flat or oscs[-1] <= decay_ratio * worst)
    return ExtensionResult(ok, value, oscs, float(tol), decay_ratio)


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

    def covers_angle(self, theta: float, slack: float | None = None) -> bool:
        s = self.resolution if slack is None else slack
        return any(circular_distance(theta, a) <= s for a in self.angles)


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


def essential_zero_set(
    f: BoundarySignal,
    eps_schedule: tuple[float, ...] = EPS_SCHEDULE,
    widths: tuple[float, ...] = WIDTH_SCHEDULE,
) -> ZeroSetEstimate:
    """Estimate the essential zero set of the outer part of ``f``.

    Candidates are midpoints of the finest sublevel set's node clusters
    (clusters closer than the resolution are merged, wrap included); each must
    show positive sublevel measure inside every tested window.
    """
    grid = f.grid
    n = grid.size
    h = grid.spacing
    outer_mod = np.exp(clipped_log_modulus(f).values.real)

    masks = [outer_mod < eps for eps in eps_schedule]
    runs = _merge_runs(circular_runs(masks[-1]), n, MIN_WINDOW_CELLS)

    theta = grid.nodes
    candidates = []
    accepted_angles = []
    for start, length in runs:
        center = float((theta[start] + (length - 1) * h / 2.0) % TWO_PI)
        windows = [window_mask(f, center, w) for w in widths]
        rows = tuple(
            tuple(float(np.count_nonzero(mask & win)) / n for win in windows)
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


def in_zinfty(f: BoundarySignal) -> bool:
    return zinfty_report(f).in_class


def in_disc_algebra(f: BoundarySignal, probes: int = 64) -> bool:
    """Continuity of the boundary data, probed at ``probes`` equispaced angles."""
    step = TWO_PI / probes
    return all(
        continuous_extension(f, j * step).ok for j in range(probes)
    )
