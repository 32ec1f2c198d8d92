"""Analytic projection, conjugate function, and the Herglotz integral.

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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NotAnalytic, PointOnBoundary
from .grid import BoundarySignal, CircleGrid, decode_text

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
    def from_json(text: str | bytes) -> "AnalyticRep":
        data = _read_json(text, "Taylor input")
        pairs = data.get("coefficients") if isinstance(data, dict) else None
        if not isinstance(pairs, list) or not all(map(_is_number_pair, pairs)):
            raise ValueError('Taylor JSON must be {"coefficients": [[re, im], ...]}')
        return AnalyticRep(np.array([complex(re, im) for re, im in pairs]))


def _read_json(text: str | bytes, what: str):
    """The value of JSON ``text`` (bytes: their ``decode_text``), integers
    kept as ``int``. Text that is not JSON, nests too deeply to parse or holds
    an integer beyond the float range raises ValueError naming ``what``."""
    if isinstance(text, bytes):
        text = decode_text(text)
    try:
        return json.loads(text, parse_int=_json_int)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None


def _json_int(token: str) -> int:
    value = int(token)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"the {len(token)}-character integer is beyond the float range")
    return value


def _is_number_pair(p) -> bool:
    return isinstance(p, list) and len(p) == 2 and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in p
    )


def _trim_trailing(a: np.ndarray) -> np.ndarray:
    floor = 1e-14 * (1.0 + float(np.max(np.abs(a))))
    keep = np.flatnonzero(np.abs(a) > floor)
    if keep.size == 0:
        return a[:1]
    return a[: keep[-1] + 1]


# Test-only, but kept: perfbench/tracing.py wraps it by name (ROADMAP item 8).
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


def conjugate(k: np.ndarray) -> np.ndarray:
    """Harmonic-conjugate values of real node samples ``k``, as a real array.

    The real FFT keeps the bins n = 0 .. N/2 of the spectrum, where the
    multiplier ``-i*sign(n)`` is -i; the n = 0 and Nyquist bins are set to
    zero, and the inverse real FFT supplies the mirrored negative bins.
    """
    c = np.fft.rfft(k)
    c[0] = c[-1] = 0.0
    c *= -1j
    return np.fft.irfft(c, k.size)


# Test-only, but kept: perfbench/tracing.py wraps it by name (ROADMAP item 8).
def conjugate_function(k: BoundarySignal) -> BoundarySignal:
    """Harmonic-conjugate boundary values of a real signal (zero mean part)."""
    if not k.is_real():
        raise ValueError("conjugate_function expects a real signal")
    return BoundarySignal(k.grid, conjugate(k.values.real) + 0j)


#: Points times nodes per block of the Herglotz kernel product.
HERGLOTZ_BLOCK = 1 << 16


def herglotz_integral(k: BoundarySignal, z) -> complex | np.ndarray:
    """Mean of ``(e^{it}+z)/(e^{it}-z) * k(t)`` over the nodes, at a point
    ``z`` or at each point of an array of them.

    The real part is the Poisson extension of ``k``; the imaginary part is the
    harmonic-conjugate extension vanishing at the origin. Points are taken in
    blocks of about ``HERGLOTZ_BLOCK`` kernel entries, each block one
    points x nodes kernel product with row means; a row is bitwise the node
    mean taken for its point alone.

    Raises :class:`PointOnBoundary` unless |z|^N <= 1e-8 at every point, for N
    nodes. The node mean aliases with an error of about 5 |z|^N: for
    k = cos(theta) at N = 512 and 4096, exp of it misses exp(z) by up to 1e-2
    one cell (2 pi / N) from the circle, 3.4e-8 at three cells and 1.1e-13
    at five.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    n = k.grid.size
    r = np.abs(flat)
    with np.errstate(over="ignore"):  # |z| > 1 may overflow to inf, and is refused
        near = np.flatnonzero(~(r**n <= 1e-8))  # |z| >= 1 and NaN too
    if near.size:
        raise PointOnBoundary(
            f"|z| = {r[near[0]]:.12f} is too close to the circle for {n} nodes"
        )
    if not k.is_real():
        raise ValueError("herglotz_integral expects a real signal")
    e = k.grid.boundary_points()
    kv = k.values.real
    step = max(1, HERGLOTZ_BLOCK // n)
    out = np.empty(flat.size, dtype=complex)
    for start in range(0, flat.size, step):
        w = flat[start : start + step, None]
        out[start : start + step] = np.mean((e + w) / (e - w) * kv, axis=1)
    return out.reshape(zs.shape) if zs.ndim else complex(out[0])
