"""Outer-function synthesis from boundary log-modulus, elementary inner
functions, inner-outer factorization, and the two pointwise function tests.

An outer function is reconstructed from its boundary log-modulus ``k`` as
``exp(k + i H[k])`` on the circle and ``exp(mean((e^{it}+z)/(e^{it}-z) k))``
in the disc, so its modulus law ``|boundary| = e^k`` and the Jensen equality
``|f(0)| = exp(mean k)`` hold by construction. Log-modulus samples are clipped
at ``CLIP_FLOOR`` to keep quadrature finite across integrable singularities;
the clip bias is resolution-dependent and documented wherever it matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hardy
from .errors import SingularPoint, UnboundedLogData, ZeroFunction
from .grid import BoundarySignal, CircleGrid

#: Log-modulus values below this are clipped; e**CLIP_FLOOR ~ 9.4e-14.
CLIP_FLOOR = -30.0

#: More than this fraction of clipped nodes means the log data cannot be
#: trusted as (numerically) integrable at the current resolution.
CLIP_FRACTION_LIMIT = 0.20

#: ``is_inner`` accepts boundary moduli within this of 1.
INNER_TOL = 1e-6

#: ``is_outer`` accepts a Jensen gap up to this fraction of exp(mean log|f|).
JENSEN_TOL = 1e-2


def clipped_log_modulus(f: BoundarySignal) -> BoundarySignal:
    """``max(log|f|, CLIP_FLOOR)`` as a real signal (zeros go to the floor)."""
    mod = np.abs(f.values)
    with np.errstate(divide="ignore"):
        k = np.log(mod)
    k = np.maximum(k, CLIP_FLOOR)
    return BoundarySignal(f.grid, k + 0j)


@dataclass(frozen=True)
class OuterFn:
    """An outer function carried as (clipped) log-modulus plus its boundary."""

    log_modulus: BoundarySignal
    boundary: BoundarySignal

    def at(self, z) -> complex | np.ndarray:
        """Disc values exp(Herglotz integral of the log-modulus)."""
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.array(
            [np.exp(hardy.herglotz_integral(self.log_modulus, w)) for w in zs]
        )
        return out if np.ndim(z) else complex(out[0])

    def value_at_zero(self) -> float:
        """exp(mean log-modulus); positive by the chosen normalization."""
        return float(np.exp(np.mean(self.log_modulus.values.real)))


def outer_boundary(k: np.ndarray) -> np.ndarray:
    """Boundary values ``exp(kc + i H[kc])`` of the outer function whose
    log-modulus samples ``k`` (a real array) are clipped to ``kc`` at the floor.

    Raises :class:`UnboundedLogData` when more than ``CLIP_FRACTION_LIMIT`` of
    the samples sit at the floor.
    """
    kc = np.maximum(k, CLIP_FLOOR)
    frac = float(np.mean(kc <= CLIP_FLOOR))
    if frac > CLIP_FRACTION_LIMIT:
        raise UnboundedLogData(
            f"{100 * frac:.1f}% of log-modulus samples sit at the clip floor"
        )
    out = np.empty(kc.size, dtype=complex)
    out.real = kc
    out.imag = hardy.conjugate(kc)
    return np.exp(out, out=out)


def synth_outer(k: BoundarySignal) -> OuterFn:
    """Outer function with boundary log-modulus ``k`` (clipped at the floor)."""
    if not k.is_real():
        raise ValueError("log-modulus data must be real")
    vals = np.maximum(k.values.real, CLIP_FLOOR)
    boundary = BoundarySignal(k.grid, outer_boundary(vals))
    return OuterFn(log_modulus=BoundarySignal(k.grid, vals + 0j), boundary=boundary)


def blaschke(a: complex, z) -> complex | np.ndarray:
    """Single Blaschke factor through ``a``, normalized positive at 0.

    ``blaschke(0, z) = z``; otherwise ``(|a|/a) * (a - z)/(1 - conj(a) z)``,
    which is unimodular on the circle.
    """
    a = complex(a)
    if abs(a) >= 1:
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
    if abs(abs(alpha) - 1.0) > 1e-12:
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
    ok = np.abs(pts - complex(alpha)) >= 1e-12
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
    if float(np.max(np.abs(f.values))) == 0.0:
        raise ZeroFunction("input is identically zero")


def inner_outer(f: BoundarySignal) -> FactorizationResult:
    """Split ``f`` into a unimodular factor times the outer part of ``|f|``.

    The outer factor is normalized positive at the origin; the unimodular
    constant is absorbed into the inner factor. Nodes where ``|f|`` sits at
    the clip floor are excluded from the innerness residual (the inner value
    there is still reported, as input/outer).
    """
    _reject_zero(f)
    outer = synth_outer(clipped_log_modulus(f))
    inner_vals = f.values / outer.boundary.values
    inner = BoundarySignal(f.grid, inner_vals)
    trusted = np.abs(f.values) >= np.exp(CLIP_FLOOR)
    if trusted.any():
        residual = float(np.max(np.abs(np.abs(inner_vals[trusted]) - 1.0)))
    else:
        residual = float("inf")
    return FactorizationResult(inner=inner, outer=outer, unimodular_residual=residual)


def is_inner(f: BoundarySignal) -> bool:
    """Unimodular boundary values (away from clip-floor nodes) within INNER_TOL."""
    _reject_zero(f)
    mod = np.abs(f.values)
    trusted = mod >= np.exp(CLIP_FLOOR)
    return bool(np.max(np.abs(mod[trusted] - 1.0)) <= INNER_TOL)


def is_outer(f: BoundarySignal) -> bool:
    """Jensen-equality test: ``|f(0)| = exp(mean log|f|)`` within relative
    JENSEN_TOL, with ``f(0)`` the mean of the boundary values."""
    _reject_zero(f)
    jensen = float(np.exp(np.mean(clipped_log_modulus(f).values.real)))
    return bool(abs(abs(np.mean(f.values)) - jensen) <= JENSEN_TOL * max(jensen, 1e-300))
