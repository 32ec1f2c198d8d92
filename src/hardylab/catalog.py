"""Built-in corpus of boundary functions.

Every entry carries the routes that make sense for it: an exact boundary
evaluator (closed form wherever one exists), an independent Taylor-coefficient
builder for the polynomial/series entries, and a raw log-modulus callable for
the functions that are *defined* through outer synthesis. Keeping the routes
separate is deliberate — the tests cross-check them against each other instead
of deriving one from the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import UnknownExample
from .factorization import blaschke, clipped_log_modulus, singular_inner_boundary, synth_outer
from .grid import BoundarySignal, CircleGrid, signal_from_values
from .hardy import AnalyticRep


def _wrap_pm_pi(theta: np.ndarray) -> np.ndarray:
    """Map angles in [0, 2*pi) to the symmetric branch (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    return np.where(theta <= np.pi, theta, theta - 2.0 * np.pi)


# ---------------------------------------------------------------------------
# log-modulus profiles for the synthesized entries
# ---------------------------------------------------------------------------

def banded_log_modulus(theta) -> np.ndarray:
    """Piecewise-constant profile with bands accumulating at angle 0.

    On 0 < |t| <= 1 the value is -floor(1/|t|), which drops without bound as
    t -> 0; thin bands just below angle pi take the values 1/n, leaving the
    modulus discontinuous there; everywhere else the value is 1.
    """
    tp = _wrap_pm_pi(theta)
    k = np.ones_like(tp)
    a = np.abs(tp)
    low = (a > 0.0) & (a <= 1.0)
    k[low] = -np.floor(1.0 / a[low])
    # The bands accumulate at t = 0, so the profile is below any floor almost
    # everywhere on a neighbourhood of 0; a sample taken exactly at 0 must
    # report that essential value, not the "elsewhere" constant.
    k[a == 0.0] = -1e9
    for n in range(1, 26):
        hi = np.pi - 2.0 ** -n
        lo = hi - 8.0 ** -n
        band = (tp >= lo) & (tp <= hi)
        k[band] = 1.0 / n
    return k


def ramp_log_modulus(theta) -> np.ndarray:
    """Continuous ramp -t on [0, pi], jumping to -(t^2 + 1) on (-pi, 0)."""
    tp = _wrap_pm_pi(theta)
    return np.where(tp < 0.0, -(tp * tp + 1.0), -tp)


# ---------------------------------------------------------------------------
# Taylor-coefficient builders
# ---------------------------------------------------------------------------

def _exp_of_series(g: np.ndarray) -> np.ndarray:
    """Taylor coefficients of exp(G) where G has coefficients ``g``.

    Standard power-series recurrence: f0 = exp(g0) and
    m*f_m = sum_{j=1..m} j * g_j * f_{m-j}.
    """
    n = g.size
    f = np.zeros(n, dtype=complex)
    f[0] = np.exp(g[0])
    for m in range(1, n):
        j = np.arange(1, m + 1)
        f[m] = np.sum(j * g[j] * f[m - j]) / m
    return f


def _poly(*coeffs) -> AnalyticRep:
    return AnalyticRep(np.asarray(coeffs, dtype=complex))


def _exp_z_taylor() -> AnalyticRep:
    coeffs = 1.0 / np.array([float(math.factorial(j)) for j in range(48)])
    return AnalyticRep(coeffs.astype(complex))


def _blaschke_half_taylor() -> AnalyticRep:
    coeffs = np.empty(220, dtype=complex)
    coeffs[0] = 0.5
    coeffs[1:] = -0.75 * 0.5 ** np.arange(219)
    return AnalyticRep(coeffs)


def _singular_taylor(alpha: complex) -> AnalyticRep:
    """exp((z + alpha)/(z - alpha)) for unimodular alpha, whose exponent has
    coefficients g_0 = -1 and g_k = -2 conj(alpha)^k."""
    g = -2.0 * np.conj(alpha) ** np.arange(320)
    g[0] = -1.0
    return AnalyticRep(_exp_of_series(g))


def _one_minus_singular_i_taylor() -> AnalyticRep:
    s = -_singular_taylor(1j).coefficients
    s[0] += 1.0
    return AnalyticRep(s)


def _conv(a: AnalyticRep, b: AnalyticRep) -> AnalyticRep:
    return AnalyticRep(np.convolve(a.coefficients, b.coefficients))


# ---------------------------------------------------------------------------
# boundary evaluators (closed forms)
# ---------------------------------------------------------------------------

def _on_circle(
    formula: Callable[[np.ndarray], np.ndarray],
) -> Callable[[CircleGrid], BoundarySignal]:
    """Boundary route of a closed form in z, evaluated once at the grid's points."""
    return lambda grid: BoundarySignal(grid, formula(grid.boundary_points()))


def _two_point_boundary(grid: CircleGrid) -> BoundarySignal:
    z = grid.boundary_points()
    s = singular_inner_boundary(1j, grid).values
    return signal_from_values(grid, (1.0 - z) * (1.0 - s))


def _synthesized_boundary(name: str) -> Callable[[CircleGrid], BoundarySignal]:
    """Boundary of the outer function with entry ``name``'s log-modulus."""
    return lambda grid: synth_outer(get_example(name).log_modulus(grid)).boundary


def _offset_ramp_boundary(grid: CircleGrid) -> BoundarySignal:
    ramp = _synthesized_boundary("ramp-logmod")(grid)
    alpha = ramp.values[0]
    return signal_from_values(grid, alpha - ramp.values)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """One named function: exact boundary route plus optional extras."""

    name: str
    kind: str  # "outer", "inner", or "mixed"
    summary: str
    boundary_fn: Callable[[CircleGrid], BoundarySignal] = field(repr=False)
    taylor_fn: Optional[Callable[[], AnalyticRep]] = field(default=None, repr=False)
    log_modulus_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False
    )

    def boundary(self, grid: CircleGrid) -> BoundarySignal:
        return self.boundary_fn(grid)

    def log_modulus(self, grid: CircleGrid) -> BoundarySignal:
        """The defining log-modulus profile on ``grid`` where the entry has
        one, else the clipped log-modulus of its boundary."""
        if self.log_modulus_fn is None:
            return clipped_log_modulus(self.boundary(grid))
        return signal_from_values(grid, self.log_modulus_fn(grid.nodes))

    def taylor(self) -> AnalyticRep:
        if self.taylor_fn is None:
            raise UnknownExample(
                f"{self.name!r} has no Taylor representation; it is defined "
                "through its boundary data"
            )
        return self.taylor_fn()


_ENTRIES: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        CatalogEntry(
            name="constant-one",
            kind="outer",
            summary="the constant function 1",
            boundary_fn=_on_circle(np.ones_like),
            taylor_fn=lambda: _poly(1.0),
        ),
        CatalogEntry(
            name="one-minus-z",
            kind="outer",
            summary="1 - z; outer, single boundary zero at angle 0",
            boundary_fn=_on_circle(lambda z: 1.0 - z),
            taylor_fn=lambda: _poly(1.0, -1.0),
        ),
        CatalogEntry(
            name="one-plus-z",
            kind="outer",
            summary="1 + z; outer, single boundary zero at angle pi",
            boundary_fn=_on_circle(lambda z: 1.0 + z),
            taylor_fn=lambda: _poly(1.0, 1.0),
        ),
        CatalogEntry(
            name="two-plus-z",
            kind="outer",
            summary="2 + z; invertible, hence outer with no boundary zeros",
            boundary_fn=_on_circle(lambda z: 2.0 + z),
            taylor_fn=lambda: _poly(2.0, 1.0),
        ),
        CatalogEntry(
            name="one-minus-half-z",
            kind="outer",
            summary="1 - z/2; invertible, hence outer with no boundary zeros",
            boundary_fn=_on_circle(lambda z: 1.0 - 0.5 * z),
            taylor_fn=lambda: _poly(1.0, -0.5),
        ),
        CatalogEntry(
            name="one-minus-z-squared",
            kind="outer",
            summary="(1 - z)^2; outer with a second-order boundary zero",
            boundary_fn=_on_circle(lambda z: (1.0 - z) ** 2),
            taylor_fn=lambda: _poly(1.0, -2.0, 1.0),
        ),
        CatalogEntry(
            name="exp-z",
            kind="outer",
            summary="exp(z); invertible, hence outer",
            boundary_fn=_on_circle(np.exp),
            taylor_fn=_exp_z_taylor,
        ),
        CatalogEntry(
            name="one-minus-z-times-exp",
            kind="outer",
            summary="(1 - z) exp(z); outer, boundary zero at angle 0",
            boundary_fn=_on_circle(lambda z: (1.0 - z) * np.exp(z)),
            taylor_fn=lambda: _conv(_poly(1.0, -1.0), _exp_z_taylor()),
        ),
        CatalogEntry(
            name="shift",
            kind="inner",
            summary="z; the shift, inner with a zero inside the disc",
            boundary_fn=_on_circle(lambda z: z),
            taylor_fn=lambda: _poly(0.0, 1.0),
        ),
        CatalogEntry(
            name="shift-squared",
            kind="inner",
            summary="z^2; inner with a double zero inside the disc",
            boundary_fn=_on_circle(lambda z: z ** 2),
            taylor_fn=lambda: _poly(0.0, 0.0, 1.0),
        ),
        CatalogEntry(
            name="shift-times-one-minus-z",
            kind="mixed",
            summary="z (1 - z); inner factor z times the outer factor 1 - z",
            boundary_fn=_on_circle(lambda z: z * (1.0 - z)),
            taylor_fn=lambda: _poly(0.0, 1.0, -1.0),
        ),
        CatalogEntry(
            name="shift-exp",
            kind="mixed",
            summary="z exp(z); inner factor z times an invertible outer factor",
            boundary_fn=_on_circle(lambda z: z * np.exp(z)),
            taylor_fn=lambda: _conv(_poly(0.0, 1.0), _exp_z_taylor()),
        ),
        CatalogEntry(
            name="blaschke-half",
            kind="inner",
            summary="Blaschke factor with zero at 1/2",
            boundary_fn=_on_circle(lambda z: blaschke(0.5, z)),
            taylor_fn=_blaschke_half_taylor,
        ),
        CatalogEntry(
            name="blaschke-half-times-one-minus-z",
            kind="mixed",
            summary="Blaschke factor at 1/2 times the outer function 1 - z",
            boundary_fn=_on_circle(lambda z: blaschke(0.5, z) * (1.0 - z)),
            taylor_fn=lambda: _conv(_poly(1.0, -1.0), _blaschke_half_taylor()),
        ),
        CatalogEntry(
            name="singular-inner-1",
            kind="inner",
            summary="exp((z+1)/(z-1)); singular inner, mass at angle 0",
            boundary_fn=lambda grid: singular_inner_boundary(1.0 + 0.0j, grid),
            taylor_fn=lambda: _singular_taylor(1.0 + 0.0j),
        ),
        CatalogEntry(
            name="singular-inner-i",
            kind="inner",
            summary="exp((z+i)/(z-i)); singular inner, mass at angle pi/2",
            boundary_fn=lambda grid: singular_inner_boundary(1j, grid),
            taylor_fn=lambda: _singular_taylor(1j),
        ),
        CatalogEntry(
            name="one-minus-singular-i",
            kind="outer",
            summary="1 - exp((z+i)/(z-i)); outer since its real part is positive; "
                    "zeros at z_k = i(1 + 2 pi i k)/(2 pi i k - 1), k in Z: z_0 = -i, "
                    "and the z_k accumulate at i",
            boundary_fn=lambda grid: signal_from_values(
                grid, 1.0 - singular_inner_boundary(1j, grid).values
            ),
            taylor_fn=_one_minus_singular_i_taylor,
        ),
        CatalogEntry(
            name="two-point-product",
            kind="outer",
            summary="(1 - z)(1 - exp((z+i)/(z-i))); zeros at 1 and at the z_k of "
                    "one-minus-singular-i: -i, and a sequence accumulating at i",
            boundary_fn=_two_point_boundary,
            taylor_fn=lambda: _conv(_poly(1.0, -1.0), _one_minus_singular_i_taylor()),
        ),
        CatalogEntry(
            name="banded-logmod",
            kind="outer",
            summary="outer function synthesized from the banded log-modulus profile",
            boundary_fn=_synthesized_boundary("banded-logmod"),
            log_modulus_fn=banded_log_modulus,
        ),
        CatalogEntry(
            name="ramp-logmod",
            kind="outer",
            summary="outer function synthesized from the ramp log-modulus profile",
            boundary_fn=_synthesized_boundary("ramp-logmod"),
            log_modulus_fn=ramp_log_modulus,
        ),
        CatalogEntry(
            name="offset-ramp",
            kind="outer",
            summary="alpha - ramp where alpha is the ramp's unimodular value at angle 0",
            boundary_fn=_offset_ramp_boundary,
        ),
    )
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_ENTRIES))


def get_example(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        known = ", ".join(catalog_names())
        raise UnknownExample(f"unknown example {name!r}; known names: {known}") from None


def example_boundary(name: str, grid: CircleGrid) -> BoundarySignal:
    return get_example(name).boundary(grid)

