"""Uniform circle grids, boundary signals, and arc-set measure arithmetic.

The circle is discretized at ``N`` equispaced nodes ``theta_j = 2*pi*j/N``
(``N`` a power of two so FFTs apply). Almost-everywhere statements are tested
at grid resolution: each node is treated as a positive-measure atom occupying
the half-open cell ``[theta_j - h/2, theta_j + h/2)`` of normalized measure
``1/N``, where ``h = 2*pi/N``. Arc sets are finite unions of half-open arcs
stored unwrapped in ``[0, 2*pi)``; the half-open convention keeps complement
and union exact (no double-counted endpoints).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import EmptyRegion

TWO_PI = 2.0 * np.pi

# Endpoint slack used only when merging abutting arcs; node membership tests
# never rely on it because cell edges sit half a spacing away from any node.
_MERGE_EPS = 1e-12


@lru_cache(maxsize=8)
def _cached_nodes(size: int) -> np.ndarray:
    nodes = TWO_PI * np.arange(size) / size
    nodes.flags.writeable = False
    return nodes


@dataclass(frozen=True)
class CircleGrid:
    """Equispaced nodes on the unit circle; ``size`` must be a power of two >= 8."""

    size: int

    def __post_init__(self):
        n = self.size
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {n}")

    @property
    def nodes(self) -> np.ndarray:
        return _cached_nodes(self.size)

    @property
    def spacing(self) -> float:
        return TWO_PI / self.size

    def boundary_points(self) -> np.ndarray:
        """The nodes as unimodular complex numbers exp(i*theta_j)."""
        return np.exp(1j * self.nodes)


@dataclass(frozen=True)
class BoundarySignal:
    """Complex samples of a boundary function at the nodes of a grid."""

    grid: CircleGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.size,):
            raise ValueError(
                f"expected {self.grid.size} values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("boundary values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def map(self, fn) -> "BoundarySignal":
        return BoundarySignal(self.grid, fn(self.values))

    def __mul__(self, other: "BoundarySignal") -> "BoundarySignal":
        if other.grid.size != self.grid.size:
            raise ValueError("signals live on different grids")
        return BoundarySignal(self.grid, self.values * other.values)

    def is_real(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.values.imag)) <= tol)


def signal_from_values(grid: CircleGrid, values) -> BoundarySignal:
    return BoundarySignal(grid, np.asarray(values, dtype=complex))


def constant_signal(grid: CircleGrid, c: complex) -> BoundarySignal:
    return BoundarySignal(grid, np.full(grid.size, complex(c)))


# ---------------------------------------------------------------------------
# Arc sets
# ---------------------------------------------------------------------------

def circular_distance(theta, center: float):
    """Shortest angular distance from ``theta`` (array or scalar) to ``center``."""
    d = np.abs((theta - center) % TWO_PI)
    return np.minimum(d, TWO_PI - d)


def circular_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal circular runs of True as (start index, length)."""
    n = mask.size
    if mask.all():
        return [(0, n)]
    if not mask.any():
        return []
    start = int(np.argmin(mask))  # an unmasked index, so no run wraps
    rolled = np.roll(mask, -start)
    edges = np.flatnonzero(np.diff(rolled.astype(np.int8)))
    starts = edges[::2] + 1
    ends = (
        edges[1::2] + 1
        if len(edges) % 2 == 0
        else np.append(edges[1::2] + 1, n)
    )
    return [(int((s + start) % n), int(e - s)) for s, e in zip(starts, ends)]


def _normalize_arcs(raw) -> tuple[tuple[float, float], ...]:
    """Split wrapped arcs, drop empties, sort, and merge overlaps/abutments."""
    flat: list[tuple[float, float]] = []
    for a, b in raw:
        if b - a >= TWO_PI - _MERGE_EPS:
            return ((0.0, TWO_PI),)
        a = float(a) % TWO_PI
        b = float(b) % TWO_PI
        if abs(a - b) <= _MERGE_EPS and a != b:
            b = a  # zero-length after wrap
        if a == b:
            continue
        if a < b:
            flat.append((a, b))
        else:  # wraps through 0
            flat.append((a, TWO_PI))
            if b > 0.0:
                flat.append((0.0, b))
    if not flat:
        return ()
    flat.sort()
    merged = [flat[0]]
    for a, b in flat[1:]:
        pa, pb = merged[-1]
        if a <= pb + _MERGE_EPS:
            merged[-1] = (pa, max(pb, b))
        else:
            merged.append((a, b))
    # A full-circle union may appear as [0, x) + ... + [y, 2*pi); that is fine,
    # measure and membership handle it without special-casing.
    return tuple(merged)


@dataclass(frozen=True)
class ArcSet:
    """Disjoint, sorted, half-open arcs ``[a, b) mod 2*pi``."""

    arcs: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "arcs", _normalize_arcs(self.arcs))

    @staticmethod
    def empty() -> "ArcSet":
        return ArcSet(())

    @staticmethod
    def full() -> "ArcSet":
        return ArcSet(((0.0, TWO_PI),))

    @staticmethod
    def from_node_mask(grid: CircleGrid, mask: np.ndarray) -> "ArcSet":
        """Cover each maximal circular run of masked nodes by its cells."""
        mask = np.asarray(mask, dtype=bool)
        h = grid.spacing
        nodes = grid.nodes
        n = len(mask)
        return ArcSet(tuple(
            (nodes[s] - h / 2.0, nodes[(s + length - 1) % n] + h / 2.0)
            for s, length in circular_runs(mask)
        ))

    def is_empty(self) -> bool:
        return not self.arcs

    def node_mask(self, grid: CircleGrid) -> np.ndarray:
        theta = grid.nodes
        mask = np.zeros(grid.size, dtype=bool)
        for a, b in self.arcs:
            mask |= (theta >= a) & (theta < b)
        return mask

    def contains_angle(self, theta: float) -> bool:
        t = float(theta) % TWO_PI
        return any(a <= t < b for a, b in self.arcs)


def measure(s: ArcSet) -> float:
    """Normalized Lebesgue measure: total arc length / 2*pi."""
    return sum(b - a for a, b in s.arcs) / TWO_PI


def complement(s: ArcSet) -> ArcSet:
    if not s.arcs:
        return ArcSet.full()
    gaps = []
    prev_end = 0.0
    for a, b in s.arcs:
        if a > prev_end:
            gaps.append((prev_end, a))
        prev_end = b
    if prev_end < TWO_PI:
        gaps.append((prev_end, TWO_PI))
    return ArcSet(tuple(gaps))


def union(s: ArcSet, t: ArcSet) -> ArcSet:
    return ArcSet(s.arcs + t.arcs)


def intersect(s: ArcSet, t: ArcSet) -> ArcSet:
    return complement(union(complement(s), complement(t)))


def dilate(s: ArcSet, w: float) -> ArcSet:
    """Extend every arc by ``w`` on both sides (then re-normalize)."""
    if not 0.0 <= w < np.pi:
        raise ValueError("dilation width must lie in [0, pi)")
    return ArcSet(tuple((a - w, b + w) for a, b in s.arcs))


def sublevel_set(f: BoundarySignal, eps: float) -> ArcSet:
    """Arcs covering the nodes where ``|f| < eps`` (exact zeros included)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return ArcSet.from_node_mask(f.grid, np.abs(f.values) < eps)


def ess_sup_on(f: BoundarySignal, s: ArcSet) -> float:
    mask = s.node_mask(f.grid)
    if not mask.any():
        raise EmptyRegion("arc set contains no grid nodes")
    return float(np.max(np.abs(f.values[mask])))


def ess_inf_on(f: BoundarySignal, s: ArcSet) -> float:
    mask = s.node_mask(f.grid)
    if not mask.any():
        raise EmptyRegion("arc set contains no grid nodes")
    return float(np.min(np.abs(f.values[mask])))


# ---------------------------------------------------------------------------
# CSV interchange: header "theta,re,im", strictly increasing theta
# ---------------------------------------------------------------------------

def signal_to_csv(f: BoundarySignal) -> str:
    buf = io.StringIO()
    buf.write("theta,re,im\n")
    for t, v in zip(f.grid.nodes, f.values):
        buf.write(f"{t:.17g},{v.real:.17g},{v.imag:.17g}\n")
    return buf.getvalue()


def signal_from_csv(text: str) -> BoundarySignal:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [c.strip() for c in header] != ["theta", "re", "im"]:
        raise ValueError("expected CSV header 'theta,re,im'")
    rows = [row for row in reader if row]
    if not rows:
        raise ValueError("empty boundary-signal CSV")
    try:
        theta = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed boundary-signal CSV: {exc}") from None
    n = len(theta)
    grid = CircleGrid(n)
    if np.max(np.abs(theta - grid.nodes)) > 1e-9:
        raise ValueError("theta column must be uniform 2*pi*j/N within 1e-9")
    return BoundarySignal(grid, vals)
