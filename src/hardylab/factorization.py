"""Outer-function synthesis from boundary log-modulus, elementary inner
functions, inner-outer factorization, and the two pointwise function tests.

An outer function is reconstructed from its boundary log-modulus ``k`` as
``exp(k + i H[k])`` on the circle and ``exp(mean((e^{it}+z)/(e^{it}-z) k))``
in the disc, so its modulus law ``|boundary| = e^k`` and the Jensen equality
``|f(0)| = exp(mean k)`` hold by construction.

Log-modulus samples are clipped at ``CLIP_FLOOR`` to keep quadrature finite
across integrable singularities, always by ``grid._clip_log``: once per signal
for its ``log_abs``, which every reader of log|f| shares, and once for the
data of ``synth_outer`` or of several generators' joint log-modulus. Outer
synthesis refuses data with more than ``CLIP_FRACTION_LIMIT`` of it at the
floor; the clip bias is resolution-dependent and documented wherever it
matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hardy
from .errors import SingularPoint, UnboundedLogData, ZeroFunction
from .grid import CLIP_FLOOR, BoundarySignal, CircleGrid, _clip_log, _scaled_mean

#: More than this fraction of clipped nodes means the log data cannot be
#: trusted as (numerically) integrable at the current resolution.
CLIP_FRACTION_LIMIT = 0.20

#: ``is_inner`` accepts boundary moduli within this of 1.
INNER_TOL = 1e-6

#: ``is_outer`` accepts a Jensen gap up to this fraction of exp(mean log|f|).
JENSEN_TOL = 1e-2


def clipped_log_modulus(f: BoundarySignal) -> BoundarySignal:
    """``f.log_abs``, ``max(log|f|, CLIP_FLOOR)``, as a real signal."""
    return BoundarySignal(f.grid, f.log_abs)


@dataclass(frozen=True)
class OuterFn:
    """An outer function carried as (clipped) log-modulus plus its boundary;
    ``clip_count`` of the log-modulus samples sit at the clip floor."""

    log_modulus: BoundarySignal
    boundary: BoundarySignal
    clip_count: int

    def at(self, z) -> complex | np.ndarray:
        """Disc values exp(Herglotz integral of the log-modulus), at a point
        or at each point of an array of them."""
        out = np.exp(hardy.herglotz_integral(self.log_modulus, z))
        return out if np.ndim(z) else complex(out)

    def value_at_zero(self) -> float:
        """exp(mean log-modulus); positive by the chosen normalization."""
        return float(np.exp(np.mean(self.log_modulus.values.real)))


def outer_values(kc: np.ndarray, conj: np.ndarray) -> np.ndarray:
    """``exp(kc + i conj)`` in a new complex array, for log-modulus samples
    ``kc`` and their harmonic conjugate ``conj = hardy.conjugate(kc)``."""
    out = np.empty(kc.size, dtype=complex)
    out.real = kc
    out.imag = conj
    return np.exp(out, out=out)


def outer_boundary(kc: np.ndarray, clip_count: int) -> np.ndarray:
    """Boundary values ``exp(kc + i H[kc])`` of the outer function with
    clipped log-modulus samples ``kc`` (a real array), ``clip_count`` of them
    at the floor; refused as :class:`UnboundedLogData` when more than
    ``CLIP_FRACTION_LIMIT`` of them are."""
    frac = clip_count / kc.size
    if frac > CLIP_FRACTION_LIMIT:
        raise UnboundedLogData(f"{100 * frac:.1f}% of log-modulus samples sit at the clip floor")
    return outer_values(kc, hardy.conjugate(kc))


def _outer(grid: CircleGrid, kc: np.ndarray, clip_count: int) -> OuterFn:
    """The outer function with clipped log-modulus samples ``kc``."""
    boundary = BoundarySignal(grid, outer_boundary(kc, clip_count))
    return OuterFn(BoundarySignal(grid, kc), boundary, clip_count)


def synth_outer(k: BoundarySignal) -> OuterFn:
    """Outer function with boundary log-modulus ``k`` (clipped at the floor);
    ``k`` must pass ``is_real``, and only its real part is read."""
    if not k.is_real():
        raise ValueError("log-modulus input must be real-valued")
    kc = k.values.real.copy()  # a new array; -0 stays -0, so the CSV writes -0
    return _outer(k.grid, kc, _clip_log(kc))


def blaschke(a: complex, z) -> complex | np.ndarray:
    """Single Blaschke factor through ``a``, normalized positive at 0.

    ``blaschke(0, z) = z``; otherwise ``(|a|/a) * (a - z)/(1 - conj(a) z)``,
    which is unimodular on the circle.
    """
    a = complex(a)
    if not abs(a) < 1:  # refuses NaN too
        raise ValueError("Blaschke zero must lie in the open disc")
    zs = np.asarray(z, dtype=complex)
    if a == 0:
        return zs if np.ndim(z) else complex(zs)
    out = (abs(a) / a) * (a - zs) / (1.0 - np.conj(a) * zs)
    return out if np.ndim(z) else complex(out)


def singular_inner(alpha: complex, z) -> complex | np.ndarray:
    """``exp((z + alpha)/(z - alpha))`` for unimodular ``alpha``.

    Defined on the disc and on the circle away from ``alpha``; the radial
    limit at ``alpha`` itself is 0, and evaluation exactly there raises.
    """
    alpha = complex(alpha)
    if not abs(abs(alpha) - 1.0) <= 1e-12:  # refuses NaN too
        raise ValueError("singular point must be unimodular")
    zs = np.asarray(z, dtype=complex)
    if np.any(zs == alpha):
        raise SingularPoint("evaluation at the singular point itself")
    out = np.exp((zs + alpha) / (zs - alpha))
    return out if np.ndim(z) else complex(out)


def singular_inner_boundary(alpha: complex, grid: CircleGrid) -> BoundarySignal:
    """Boundary samples of ``singular_inner(alpha, .)``; the node at the
    singular point (if any) carries the radial-limit value 0."""
    pts = grid.boundary_points()
    ok = ~(np.abs(pts - complex(alpha)) < 1e-12)  # a NaN alpha reaches the check
    vals = np.zeros(grid.size, dtype=complex)
    vals[ok] = singular_inner(alpha, pts[ok])
    return BoundarySignal(grid, vals)


@dataclass(frozen=True)
class FactorizationResult:
    inner: BoundarySignal
    outer: OuterFn
    #: max | |inner| - 1 | over nodes where the input was above the clip floor
    unimodular_residual: float


def _reject_zero(f: BoundarySignal) -> None:
    """Raise :class:`ZeroFunction` when ``f`` vanishes at every node."""
    if f.sup_abs == 0.0:
        raise ZeroFunction("input is identically zero")


def inner_outer(f: BoundarySignal) -> FactorizationResult:
    """Split ``f`` into a unimodular factor times the outer part of ``|f|``.

    The outer factor is normalized positive at the origin; the unimodular
    constant is absorbed into the inner factor. Nodes where ``|f|`` sits at
    the clip floor are excluded from the innerness residual (the inner value
    there is still reported, as input/outer).
    """
    _reject_zero(f)
    outer = _outer(f.grid, f.log_abs, f.clip_count)
    inner_vals = f.values / outer.boundary.values
    inner = BoundarySignal(f.grid, inner_vals)
    # outer synthesis refused f unless most nodes are above the floor
    residual = float(np.max(np.abs(np.abs(inner_vals[f.log_abs > CLIP_FLOOR]) - 1.0)))
    return FactorizationResult(inner=inner, outer=outer, unimodular_residual=residual)


def is_inner(f: BoundarySignal) -> bool:
    """Unimodular boundary values (away from clip-floor nodes) within INNER_TOL."""
    _reject_zero(f)
    mod = np.abs(f.values[f.log_abs > CLIP_FLOOR])
    return f.clip_count < f.grid.size and bool(np.max(np.abs(mod - 1.0)) <= INNER_TOL)


def is_outer(f: BoundarySignal) -> bool:
    """Jensen-equality test: ``|f(0)| = exp(mean log|f|)`` within relative
    JENSEN_TOL, with ``f(0)`` the mean of the boundary values."""
    _reject_zero(f)
    jensen = float(np.exp(np.mean(f.log_abs)))
    return bool(abs(abs(_scaled_mean(f.values)) - jensen) <= JENSEN_TOL * max(jensen, 1e-300))
