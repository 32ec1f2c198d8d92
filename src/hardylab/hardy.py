"""Analytic projection, conjugate function, Herglotz/Poisson integrals, and
disc evaluation.

Conventions
-----------
Boundary signals are sampled at ``theta_j = 2*pi*j/N``. The discrete Fourier
coefficients are ``c_n = mean_j f(theta_j) exp(-i n theta_j)``, so analytic
(Hardy-class) data has its energy at ``n >= 0``. The conjugate function is the
Fourier multiplier ``-i*sign(n)`` with the ``n = 0`` and Nyquist bins
annihilated; on pure frequencies it sends ``cos(n t) -> sin(n t)``.

All quadrature on the circle is the plain node mean, which coincides with the
trapezoid rule on a uniform periodic grid and is spectrally accurate for
smooth integrands.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NotAnalytic, PointOnBoundary
from .grid import BoundarySignal, CircleGrid

#: Disc evaluations must stay this far from the boundary.
BOUNDARY_MARGIN = 1e-9


@dataclass(frozen=True)
class AnalyticRep:
    """Taylor coefficients ``a_0 .. a_{M-1}`` of ``f(z) = sum a_k z^k``."""

    coefficients: np.ndarray

    def __post_init__(self):
        a = np.array(self.coefficients, dtype=complex, ndmin=1)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "coefficients", a)

    def __len__(self) -> int:
        return int(self.coefficients.size)

    def h2_norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    def sample(self, grid: CircleGrid) -> BoundarySignal:
        """Boundary samples sum a_k exp(i k theta) (requires len <= N)."""
        n = grid.size
        if len(self) > n:
            raise ValueError("too many coefficients for this grid")
        spec = np.zeros(n, dtype=complex)
        spec[: len(self)] = self.coefficients
        return BoundarySignal(grid, np.fft.ifft(spec * n))

    def to_json(self) -> str:
        pairs = [[c.real, c.imag] for c in self.coefficients]
        return json.dumps({"coefficients": pairs})

    @staticmethod
    def from_json(text: str) -> "AnalyticRep":
        data = json.loads(text)
        pairs = data.get("coefficients") if isinstance(data, dict) else None
        if not isinstance(pairs, list) or not all(map(_is_number_pair, pairs)):
            raise ValueError('Taylor JSON must be {"coefficients": [[re, im], ...]}')
        return AnalyticRep(np.array([complex(re, im) for re, im in pairs]))


def _is_number_pair(p) -> bool:
    return isinstance(p, list) and len(p) == 2 and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in p
    )


def _trim_trailing(a: np.ndarray, rel: float = 1e-14) -> np.ndarray:
    floor = rel * (1.0 + float(np.max(np.abs(a))))
    keep = np.flatnonzero(np.abs(a) > floor)
    if keep.size == 0:
        return a[:1]
    return a[: keep[-1] + 1]


def analytic_projection(f: BoundarySignal, leak_tol: float = 1e-8) -> AnalyticRep:
    """Nonnegative-frequency DFT coefficients of ``f``.

    Raises :class:`NotAnalytic` when the energy at negative frequencies
    (Nyquist included, since its sign is ambiguous) exceeds ``leak_tol``
    relative to the total.
    """
    n = f.grid.size
    c = np.fft.fft(f.values) / n
    total = float(np.sum(np.abs(c) ** 2))
    neg = float(np.sum(np.abs(c[n // 2:]) ** 2))
    if total > 0.0 and neg > leak_tol * total:
        raise NotAnalytic(
            f"negative-frequency energy fraction {neg / total:.3e} exceeds "
            f"leak tolerance {leak_tol:.3e}"
        )
    return AnalyticRep(_trim_trailing(c[: n // 2]))


def conjugate_function(k: BoundarySignal) -> BoundarySignal:
    """Harmonic-conjugate boundary values of a real signal (zero mean part)."""
    if not k.is_real():
        raise ValueError("conjugate_function expects a real signal")
    n = k.grid.size
    c = np.fft.fft(k.values.real)
    mult = np.zeros(n, dtype=complex)
    mult[1 : n // 2] = -1j
    mult[n // 2 + 1 :] = 1j
    out = np.fft.ifft(c * mult)
    return BoundarySignal(k.grid, out.real + 0j)


def _check_disc(z: complex) -> complex:
    z = complex(z)
    if abs(z) > 1.0 - BOUNDARY_MARGIN:
        raise PointOnBoundary(f"|z| = {abs(z):.12f} is too close to the circle")
    return z


def herglotz_integral(k: BoundarySignal, z: complex) -> complex:
    """Mean of ``(e^{it}+z)/(e^{it}-z) * k(t)`` over the nodes.

    The real part is the Poisson extension of ``k``; the imaginary part is the
    harmonic-conjugate extension vanishing at the origin.
    """
    z = _check_disc(z)
    if not k.is_real():
        raise ValueError("herglotz_integral expects a real signal")
    e = k.grid.boundary_points()
    kernel = (e + z) / (e - z)
    return complex(np.mean(kernel * k.values.real))


def poisson_integral(k: BoundarySignal, z: complex) -> float:
    return herglotz_integral(k, z).real


def evaluate(f: AnalyticRep, z) -> complex | np.ndarray:
    """Horner evaluation of the Taylor polynomial at points of the open disc."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(np.abs(zs) >= 1.0):
        raise PointOnBoundary("evaluate expects |z| < 1")
    out = np.zeros_like(zs)
    for c in f.coefficients[::-1]:
        out = out * zs + c
    return out if np.ndim(z) else complex(out[0])


def radial_trace(f: AnalyticRep, theta: float, r_schedule) -> np.ndarray:
    """Values ``f(r e^{i theta})`` along an increasing radius schedule."""
    rs = np.asarray(r_schedule, dtype=float)
    if rs.ndim != 1 or np.any(np.diff(rs) <= 0):
        raise ValueError("radius schedule must be strictly increasing")
    if np.any((rs <= 0) | (rs >= 1)):
        raise ValueError("radii must lie in (0, 1)")
    return evaluate(f, rs * np.exp(1j * theta))


def sup_norm(f: BoundarySignal) -> float:
    return float(np.max(np.abs(f.values)))


def h2_norm(f: BoundarySignal) -> float:
    return float(np.sqrt(np.mean(np.abs(f.values) ** 2)))
