"""Seeded inputs evaluated from closed forms, and the benchmark's own writers.

The program under test only ever sees the files written here: boundary
signals as ``theta,re,im`` CSV printed with ``%.17g`` and Taylor symbols as
``AnalyticRep`` JSON. Every input carries the facts its closed form gives
(zero angles, |outer(0)|, inner/outer class, Szego distances), so the
checker never asks the program for its own expectations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


def grid_nodes(n: int) -> np.ndarray:
    """Node angles 2*pi*j/N, formed the same way as the CSV reader expects."""
    return TWO_PI * np.arange(n) / n


def circular_gap(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


# ---------------------------------------------------------------------------
# boundary products  a * prod (1 - conj(zeta_j) z)^k_j * exp(c z) * prod b_beta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Product:
    """A bounded analytic function known in closed form on the circle."""

    n: int
    zeros: tuple[tuple[float, int], ...] = ()   # (angle, order)
    c: complex = 0.0
    scale: float = 1.0
    blaschke: tuple[complex, ...] = ()          # zeros inside the disc

    def values(self) -> np.ndarray:
        theta = grid_nodes(self.n)
        z = np.exp(1j * theta)
        v = np.full(self.n, self.scale, dtype=complex)
        for phi, k in self.zeros:
            # exp(i(theta - phi)) is exactly 1 at a zero sitting on a node,
            # so that sample is an exact 0 rather than roundoff.
            v *= (1.0 - np.exp(1j * (theta - phi))) ** k
        v *= np.exp(self.c * z)
        for beta in self.blaschke:
            v *= (abs(beta) / beta) * (beta - z) / (1.0 - np.conj(beta) * z)
        return v

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(sorted(phi % TWO_PI for phi, _ in self.zeros))

    @property
    def outer_at_zero(self) -> float:
        """|outer part|(0) = exp(mean log|f|) = scale (Jensen, exact)."""
        return self.scale

    @property
    def is_outer(self) -> bool:
        return not self.blaschke

    @property
    def is_inner(self) -> bool:
        return not self.zeros and self.c == 0 and self.scale == 1.0 and bool(self.blaschke)


@dataclass(frozen=True)
class LogModulus:
    """Real trigonometric polynomial k = k0 + Re(sum_m w_m e^{i m theta})."""

    n: int
    k0: float
    modes: tuple[complex, ...]

    def values(self) -> np.ndarray:
        theta = grid_nodes(self.n)
        k = np.full(self.n, self.k0)
        for m, w in enumerate(self.modes, start=1):
            k += (w * np.exp(1j * m * theta)).real
        return k + 0j

    @property
    def outer_at_zero(self) -> float:
        return math.exp(self.k0)


def write_csv(path: Path, n: int, values: np.ndarray) -> Path:
    theta = grid_nodes(n)
    rows = [
        f"{t:.17g},{v.real:.17g},{v.imag:.17g}\n" for t, v in zip(theta.tolist(), values.tolist())
    ]
    path.write_text("theta,re,im\n" + "".join(rows))
    return path


def parse_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta, re, im) columns of ``theta,re,im`` text, by the benchmark's own parser."""
    head, _, body = text.partition("\n")
    if head != "theta,re,im":
        raise ValueError("bad CSV header")
    cols = np.array(body.replace(",", " ").split(), dtype=float).reshape(-1, 3)
    return cols[:, 0], cols[:, 1], cols[:, 2]


def csv_round_trips(text: str, theta: np.ndarray, re: np.ndarray, im: np.ndarray) -> bool:
    """True when re-printing the columns parsed from ``text`` with %.17g gives it back."""
    again = "theta,re,im\n" + "".join(
        f"{t:.17g},{a:.17g},{b:.17g}\n" for t, a, b in zip(theta.tolist(), re.tolist(), im.tolist())
    )
    return again == text


# ---------------------------------------------------------------------------
# Taylor symbols: scale * prod (z - r_i) with distinct roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    roots: tuple[complex, ...]
    scale: complex = 1.0
    law: bool = False   # single root on the circle: dist^2 = 1/(M+1) exactly

    def coefficients(self) -> np.ndarray:
        a = np.array([self.scale], dtype=complex)
        for r in self.roots:
            a = np.convolve(a, np.array([-r, 1.0], dtype=complex))
        return a

    @property
    def inside(self) -> int:
        return sum(1 for r in self.roots if abs(r) < 1.0 - 1e-12)

    def distance_squared(self, order: int) -> float:
        """dist^2(1, {p f : deg p < M}) from reproducing kernels.

        {p f} is the set of polynomials of degree <= D = deg f + M - 1 that
        vanish at the (distinct) roots, so the distance is the norm of the
        projection of 1 onto the span of the degree-D kernels at the roots.
        """
        d = len(self.roots) + order - 1
        ell = np.arange(d + 1)
        cols = []
        for r in self.roots:
            if r == 0:
                col = np.zeros(d + 1, dtype=complex)
                col[0] = 1.0
            else:
                mag = math.log(abs(r))
                top = max(mag, 0.0) * d   # scale the column to max modulus 1
                col = np.exp(ell * mag - top) * np.exp(-1j * ell * np.angle(r))
            cols.append(col)
        q, _ = np.linalg.qr(np.stack(cols, axis=1))
        return float(np.sum(np.abs(q[0, :]) ** 2))


def write_taylor_json(path: Path, poly: Polynomial) -> Path:
    coeffs = [[float(c.real), float(c.imag)] for c in poly.coefficients()]
    path.write_text(json.dumps({"coefficients": coeffs}))
    return path


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------

@dataclass
class Draw:
    """Seeded parameter source; all structure (counts, orders) stays fixed."""

    rng: np.random.Generator
    used: list[float] = field(default_factory=list)

    def node_angle(self, n: int) -> float:
        return self._spread(lambda: TWO_PI * int(self.rng.integers(n)) / n)

    def between_angle(self, n: int) -> float:
        return self._spread(
            lambda: TWO_PI * (int(self.rng.integers(n)) + float(self.rng.uniform(0.05, 0.95))) / n
        )

    def _spread(self, pick) -> float:
        # keep zeros of one input at least 0.7 rad apart so the widest
        # zero-set window (0.5 rad) never holds two of them
        while True:
            a = pick()
            if all(circular_gap(a, b) > 0.7 for b in self.used):
                self.used.append(a)
                return a

    def fresh(self) -> "Draw":
        return Draw(self.rng)

    def c(self, size: float = 0.4) -> complex:
        return complex(self.rng.uniform(-size, size), self.rng.uniform(-size, size))

    def scale(self) -> float:
        return float(self.rng.uniform(0.6, 1.0))

    def disc_point(self, lo: float, hi: float) -> complex:
        return complex(self.rng.uniform(lo, hi) * np.exp(1j * self.rng.uniform(0, TWO_PI)))
