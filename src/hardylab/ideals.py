"""Bounded approximate units for closed ideals, and the certificates they
produce.

Two constructions are implemented. The *sublevel* route synthesizes, for each
stage m, an outer unit whose log-modulus is supported on a shrinking
neighborhood A_m of the generators' essential zero set: the unit has modulus
exactly 1 off A_m and at most e^{-m} on it, so multiplying a generator by it
is a small perturbation. The *peak* route aligns the generator against a
unimodular constant, forms g = (1 + base)/2, and uses u_n = 1 - g^n; the
identity (1-g) u_n - (1-g) = -(1-g) g^n pins the stage error at
sqrt(n^n/(n+1)^{n+1}) for the shift. Finitely many generators are certified
one at a time, and their final units are folded by u + v - uv into one unit
whose distance to 1 is the product of theirs. Their common zeros, read at 8
cells, are those of the joint modulus max_i |f_i|; with none, the ideal is
the whole algebra (Rudin 1957; Carleson's corona theorem for H-infinity).

A certificate is a value, not an exception: failed gates (non-outer
generator, missing continuous extension) come back as a failed certificate
with the reason recorded, while genuine usage errors (wrong generator count,
peak value out of essential range) raise.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (
    HypothesisFailed,
    NormExceeded,
    NotCertified,
    RangeMiss,
    StrategyInapplicable,
)
from .factorization import _reject_zero, is_outer, outer_boundary, outer_values
from .grid import (
    BoundarySignal, CircleGrid, _as_indices, _as_real, _clip_log, _level_cut, common_grid,
)
from .hardy import conjugate
from .zerosets import _log_zero_set, continuous_extension, essential_zero_set, zinfty_report

STRATEGIES = ("auto", "sublevel", "peak", "combined")
DEFAULT_TOL = 0.05
DEFAULT_BOUND = 2.0
#: Peak units need the generator modulus to come within this of zero.
RANGE_TOL = 0.05
DEFAULT_MAIN_STAGES = tuple(range(1, 13))
#: The last stage whose level e^-m is a nonzero double.
MAX_STAGE = 745
DEFAULT_PEAK_SCHEDULE = (1, 2, 4, 8, 16, 32, 64, 128, 200, 400, 800)
#: The divisor's essential lower bound assumed by the analytic prime check.
DEFAULT_DELTA = 0.5

#: Allowed overshoot of sup|unit| past the theoretical bound.
SUP_SLACK = 1e-9


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealSpec:
    """A closed ideal described by finitely many boundary generators."""

    grid: CircleGrid
    generators: tuple[BoundarySignal, ...]
    names: tuple[str, ...]

    @functools.cached_property
    def _base(self) -> np.ndarray:
        """The base of every sublevel unit: the generator's values, or for
        several the outer function with their largest log-modulus."""
        if len(self.generators) == 1:
            return self.generators[0].values
        k = _largest_log(self)
        return outer_boundary(k, _clip_log(k))

    @functools.cached_property
    def _alignment(self) -> PeakPreparation:
        """The alignment of every peak unit: ``prepare_peak`` of the first
        generator."""
        return prepare_peak(self.generators[0])


def ideal(generators: Sequence[BoundarySignal], names: Sequence[str] | None = None) -> IdealSpec:
    gens = tuple(generators)
    if not gens:
        raise ValueError("an ideal needs at least one generator")
    grid = common_grid(*gens)
    for g in gens:
        _reject_zero(g)
    if names is None:
        names = tuple(f"generator-{i}" for i in range(len(gens)))
    names = tuple(names)
    if len(names) != len(gens):
        raise ValueError("one name per generator")
    return IdealSpec(grid=grid, generators=gens, names=names)


# ---------------------------------------------------------------------------
# sublevel-supported units
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitStage:
    """One stage of the sublevel construction. Its support A_m, the nodes where
    k < ``_level_cut(m)`` for the ideal's joint clipped log-modulus k, is
    rebuilt, not kept; ``support_measure`` is their count over N.

    ``sup_norm`` is 1 to rounding (within 1e-14) at every stage: off A_m the
    unit's modulus is |g| e^{-log|g|}, and on it |g| < e^-m. The verdict-only
    commands, ``member`` and ``prime-check``, rely on it to build only the
    last stage."""

    index: int
    eps: float
    support_measure: float
    degenerate: bool
    off_support_deviation: float
    on_support_max: float
    value_at_zero: complex
    cofactor_sup: float
    error: float
    sup_norm: float


def _distance_to_one(
    mod: np.ndarray, mod_minus_one: np.ndarray, half_phase: np.ndarray
) -> np.ndarray:
    """|w - 1| for |w| = ``mod`` and arg w = 2 ``half_phase``, from
    |w - 1|^2 = (|w| - 1)^2 + 4 |w| sin^2(arg w / 2), which has no
    cancellation near w = 1 when ``mod_minus_one`` = |w| - 1 is accurate.
    Overwrites ``half_phase``."""
    s = np.sin(half_phase, out=half_phase)
    np.multiply(s, s, out=s)
    np.multiply(s, 4.0 * mod, out=s)
    return np.sqrt(np.add(np.square(mod_minus_one), s, out=s), out=s)


#: The rule and test of ``_as_real`` for a tolerance, bound or divisor floor.
_POSITIVE = ("finite and positive", lambda x: 0.0 < x < math.inf)


def _read_stages(stages: Sequence[int]) -> tuple[int, ...]:
    """``stages`` by ``_as_indices``; refused when empty or outside 1 .. MAX_STAGE."""
    stages = _as_indices(stages, "a sublevel stage")
    if not stages:
        raise ValueError("sublevel stages must not be empty")
    if min(stages) < 1:
        raise ValueError("sublevel stages must be positive")
    if max(stages) > MAX_STAGE:
        raise ValueError(f"sublevel stages must be at most {MAX_STAGE}; e^-m underflows past it")
    return stages


def _read_schedule(schedule: Sequence[int]) -> tuple[int, ...]:
    """``schedule`` by ``_as_indices``; refused when empty or with a power below 1."""
    schedule = _as_indices(schedule, "a peak power")
    if not schedule:
        raise ValueError("peak schedule must not be empty")
    if min(schedule) < 1:
        raise ValueError("peak powers must be positive")
    return schedule


def _largest_log(spec: IdealSpec) -> np.ndarray:
    """The pointwise-largest clipped generator log-modulus, in a new array."""
    return np.maximum.reduce([g.log_abs for g in spec.generators])


def approx_unit_sublevel(
    spec: IdealSpec,
    stages: Sequence[int] = DEFAULT_MAIN_STAGES,
) -> tuple[UnitStage, ...]:
    """Units supported off shrinking sublevel neighborhoods of the zero set,
    one stage per entry of ``stages``, in stage order.

    Stage m: A_m is the eps = e^{-m} joint sublevel set, the nodes where
    k < ``_level_cut(m)``, measured by their count over N. The unit is base *
    cofactor, the cofactor the outer function with log-modulus -k off A_m, so
    the unit's modulus is e^{k} there times e^{-k} — exactly one — and equals
    the generator modulus (< eps) on A_m. ``stage_unit`` builds a stage's unit.

    So |unit| = |base| e^{kc} and arg(unit) = arg(base) + H[kc] for the
    cofactor's log-modulus kc, and every generator's error is
    |g| |unit - 1|: the statistics need one conjugate and one sine per stage,
    and no complex unit.
    """
    stages = _read_stages(stages)
    grid = spec.grid
    base = spec._base
    base_mod = np.abs(base)
    half_base_phase = 0.5 * np.angle(base)
    gen_mod = base_mod if len(spec.generators) == 1 else np.maximum.reduce(
        [np.abs(g.values) for g in spec.generators])
    neg_k = _largest_log(spec)
    np.negative(neg_k, out=neg_k)
    # a degenerate stage's cofactor is exp(-k) itself
    degenerate_sup = float(np.exp(np.max(neg_k)))
    out: list[UnitStage] = []
    for m in stages:
        eps = float(np.exp(-m))
        on = np.flatnonzero(neg_k > -_level_cut(m))  # the support A_m
        if on.size == 0:
            out.append(UnitStage(
                index=m, eps=eps, support_measure=0.0, degenerate=True, off_support_deviation=0.0,
                on_support_max=0.0, value_at_zero=1.0 + 0.0j, cofactor_sup=degenerate_sup,
                error=0.0, sup_norm=1.0,
            ))
            continue

        support_measure = on.size / grid.size
        # Sublevel masks are nested, so a stage with as many nodes as the one
        # before it has the same mask, and only its index and eps differ.
        if out and out[-1].support_measure == support_measure:
            out.append(replace(out[-1], index=m, eps=eps))
            continue
        log_cof = neg_k.copy()
        log_cof[on] = 0.0
        phase = conjugate(log_cof)
        mod = np.exp(log_cof)
        cofactor_sup = float(np.max(mod))
        mod *= base_mod
        mod_minus_one = mod - 1.0
        phase *= 0.5
        phase += half_base_phase
        dist = _distance_to_one(mod, mod_minus_one, phase)
        # |mod - 1| with the mask nodes zeroed: its max off the mask, or 0
        # where every node is masked
        off = np.abs(mod_minus_one, out=mod_minus_one)
        off[on] = 0.0
        out.append(UnitStage(
            index=m,
            eps=eps,
            support_measure=support_measure,
            degenerate=False,
            off_support_deviation=float(np.max(off)),
            on_support_max=float(np.max(mod[on])),
            value_at_zero=complex(np.exp(-np.sum(neg_k[on]) / grid.size)),
            cofactor_sup=cofactor_sup,
            error=float(np.max(np.multiply(dist, gen_mod, out=dist))),
            sup_norm=float(np.max(mod)),
        ))
        del on, log_cof, phase, mod, mod_minus_one, off, dist  # before the next stage
    return tuple(out)


# ---------------------------------------------------------------------------
# peak-power units
# ---------------------------------------------------------------------------

_NO_SCALE = "no scaling of the generator brings the rebased function into the unit ball"


@dataclass(frozen=True)
class PeakPreparation:
    """Alignment of a generator against a unimodular peak value."""

    alpha: complex
    scale: float
    rescaled: bool
    sup_base: float
    range_gap: float


def _feasible_arc(r: np.ndarray, theta: np.ndarray, slack: float) -> Optional[tuple[float, float]]:
    """The ends of the widest arc of phi with |1 - e^{-i phi} G_j| <= 1 + ``slack``
    at every node, G_j = r_j e^{i theta_j}, or None. Node j allows half-width
    arccos(kappa_j) around theta_j, kappa_j = (r_j^2 - 2 slack - slack^2)/(2 r_j):
    twice the atan2 of the roots of (2 + slack - r)(r + slack) = 2r (1 - kappa)
    and (r - slack)(r + 2 + slack) = 2r (1 + kappa), so no end cancels. The set
    lies in the narrowest arc I; each other arc's open gap is no longer than
    I's, so meets I in one piece at most. Gaps over an end of I trim it, and
    the few inside what is left are sorted to find the widest piece."""
    p = (2.0 + slack - r) * (r + slack)
    if np.min(p) < 0.0:  # a node that allows no angle
        return None
    q = (r - slack) * (r + (2.0 + slack))
    half = np.arctan2(np.sqrt(p, out=p), np.sqrt(np.maximum(q, 0.0, out=q), out=q), out=p)
    j0 = int(np.argmin(half))
    theta0, lo, hi = float(theta[j0]), -2.0 * float(half[j0]), 2.0 * float(half[j0])
    # each gap as an open (a, b) from theta0: centre in [-pi, pi), half-width pi - 2 half
    centre = np.subtract(theta, theta0, out=q)
    centre -= np.copysign(np.pi, centre)
    gap = np.subtract(np.pi, np.multiply(half, 2.0, out=half), out=half)
    a = centre - gap
    b = np.add(centre, gap, out=centre)
    lo = float(np.max(b, where=(a < lo) & (b > lo), initial=lo))
    hi = float(np.min(a, where=(a < hi) & (b > hi), initial=hi))
    inside = np.flatnonzero((b > lo) & (a < hi) & (a < b))
    order = np.argsort(a[inside])
    starts = np.maximum.accumulate(np.append(lo, b[inside][order]))
    ends = np.append(a[inside][order], hi)
    i = int(np.argmax(ends - starts))
    return None if ends[i] < starts[i] else (theta0 + starts[i], theta0 + ends[i])


def _largest_scale(w: np.ndarray) -> float:
    """The largest c with |1 - c w_j| <= 1 + 1e-12 at all j: the least root of |w|^2 c^2 -
    2 Re(w) c - t, t = (1 + 1e-12)^2 - 1, as |w|^2/(Re w + root) where Re w > 0."""
    t = 2e-12 + 1e-24
    with np.errstate(over="ignore"):
        root = np.hypot(w.real, np.sqrt(t) * np.abs(w))
        inv = (root - w.real) / t
        pos = w.real > 0.0
        inv[pos] = np.abs(w[pos]) ** 2 / (w.real[pos] + root[pos])
        return 1.0 / float(np.max(inv))


def prepare_peak(generator: BoundarySignal) -> PeakPreparation:
    """Find alpha on the circle so that 1 - conj(alpha) * G has sup at most 1.

    The essential range of the rebased function must reach the peak value 1,
    which happens exactly where G vanishes; if |G| never gets within
    ``RANGE_TOL`` of zero the construction cannot apply and RangeMiss is
    raised.

    alpha is the centre of the widest arc of angles with sup at most 1 +
    ``SUP_SLACK`` (``_feasible_arc``); while the sup there is below 1, it moves
    to the centre of the narrower arc at that level. With no arc, G is scaled
    down (the ideal is unchanged): |1 - c w_j| <= 1 + 1e-12 holds for c in some
    [0, c_j], so a geometric bisection finds the largest c whose arcs meet, to
    1e-8 relative, each c with an arc lifting the lower end to the largest
    scale at its centre (``_largest_scale``), where alpha is. NormExceeded
    refuses a scale below 1e-8."""
    gv = generator.values
    range_gap = generator.inf_abs
    if range_gap > RANGE_TOL:
        raise RangeMiss(
            f"generator modulus stays above {range_gap:.6g}; "
            f"no unimodular value of the rebased function within {RANGE_TOL:g}"
        )
    # Past sup|G| = 1e10 no scale fits, as c <= (2 + 1e-12) / sup|G| < 1e-8,
    # and the scale would square |w|, which overflows near 1e154.
    if generator.sup_abs > 1e10:
        raise NormExceeded(_NO_SCALE)

    def centred(arc: tuple[float, float]) -> tuple[complex, float]:  # alpha, and the sup there
        alpha = cmath.exp(0.5j * (arc[0] + arc[1]))
        return alpha, float(np.max(np.abs(1.0 - np.conj(alpha) * gv)))

    r, theta = np.abs(gv), np.angle(gv)
    arc = _feasible_arc(r, theta, SUP_SLACK)
    if arc is not None:
        alpha, sup_base = centred(arc)
        while sup_base < 1.0 and (arc := _feasible_arc(r, theta, sup_base - 1.0)) is not None:
            if (lower := centred(arc))[1] >= sup_base:
                break
            alpha, sup_base = lower
        # an arc within rounding of a point can overshoot: it is scaled off
        scale = 1.0 if sup_base <= 1.0 + SUP_SLACK else _largest_scale(np.conj(alpha) * gv)
    else:
        lo, hi, c, alpha = 0.0, 1.0, 1e-8, None
        while hi > max(lo * (1.0 + 1e-8), 1e-8):  # stops at once if c = 1e-8 leaves no arc
            if (arc := _feasible_arc(c * r, theta, 1e-12)) is None:
                hi = c
            else:
                alpha = cmath.exp(0.5j * (arc[0] + arc[1]))
                lo = max(c, scale := _largest_scale(np.conj(alpha) * gv))
            c = math.sqrt(lo * hi)
    if alpha is None or scale < 1e-8:
        raise NormExceeded(_NO_SCALE)
    if scale < 1.0:
        sup_base = float(np.max(np.abs(1.0 - scale * np.conj(alpha) * gv)))
    return PeakPreparation(alpha, scale, scale < 1.0, sup_base, range_gap)


@dataclass(frozen=True)
class PeakStage:
    """One power of the averaged function; error against the half-generator."""

    index: int
    error: float
    sup_norm: float


def _averaged(spec: IdealSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rebased generator w = scale conj(alpha) G, and log|g|^2 and
    arg(g)/2 for the averaged function g = (1 + (1 - w))/2, for the ideal's
    alignment.

    Where |g|^2 >= 1/2, log|g|^2 is the log1p of
    |g|^2 - 1 = Re d (Re d - 2) + (Im d)^2 for d = 1 - g (exact in floating
    point near g = 1), and elsewhere the log of |g|^2 itself, so |g|^n - 1
    keeps full relative precision both where |g| is within rounding of 1
    and sup |u_n| is small, and where g is near 0.
    """
    prep = spec._alignment
    w = prep.scale * np.conj(prep.alpha) * spec.generators[0].values
    g_mid = 0.5 * (1.0 + (1.0 - w))
    mod2 = np.square(g_mid.real) + np.square(g_mid.imag)
    near = mod2 >= 0.5
    with np.errstate(divide="ignore"):  # g = 0 gives |g|^n = 0
        log_mod2 = np.log(mod2)
    d = 1.0 - g_mid[near]
    log_mod2[near] = np.log1p(d.real * (d.real - 2.0) + np.square(d.imag))
    return w, log_mod2, 0.5 * np.angle(g_mid)


def approx_unit_peak(
    spec: IdealSpec,
    schedule: Sequence[int] = DEFAULT_PEAK_SCHEDULE,
    tol: Optional[float] = None,
) -> tuple[PeakPreparation, tuple[PeakStage, ...]]:
    """Powers u_n = 1 - g^n with g the average of 1 and the rebased
    generator, one stage per power of ``schedule``, in schedule order, and
    the ideal's alignment.

    The recorded error is sup |u_n h - h| with h the *half*-generator
    (scale * conj(alpha) * G / 2), which equals sup |(1-g) g^n| identically:
    it is sup |g|^n |h|, and the sup of u_n comes from |g|^n and n arg(g),
    with |g|^n - 1 taken as expm1(n log|g|), so no complex power is taken.
    With ``tol`` given the schedule stops at the first stage under tolerance.
    ``stage_unit`` builds a stage's unit.
    """
    if len(spec.generators) != 1:
        raise StrategyInapplicable("peak units need a single generator")
    schedule = _read_schedule(schedule)
    tol = None if tol is None else _as_real(tol, "tol")
    w, log_mod2, half_phase = _averaged(spec)
    h_mod = np.abs(0.5 * w)
    del w
    out: list[PeakStage] = []
    for n in schedule:
        mod_minus_one = np.expm1(0.5 * n * log_mod2)
        power_mod = mod_minus_one + 1.0
        err = float(np.max(power_mod * h_mod))
        dist = _distance_to_one(power_mod, mod_minus_one, n * half_phase)
        out.append(PeakStage(index=n, error=err, sup_norm=float(np.max(dist))))
        if tol is not None and err <= tol:
            break
    return spec._alignment, tuple(out)


def stage_unit(spec: IdealSpec, stage) -> BoundarySignal:
    """The unit of a sublevel or peak ``stage`` of the ideal ``spec``, in a
    new signal, from the ideal and the stage record alone.

    A sublevel unit is base * exp(kc + i H[kc]) for the stage's cofactor
    log-modulus kc, at the cost of one conjugate, and 1 on a degenerate
    stage. A peak unit is 1 - g^n with g^n = exp(n/2 log|g|^2 + i n arg g)
    for the ideal's alignment: the polar form the stage statistics are read
    from, with one rounding in each exponent where repeated products would
    carry about n.
    """
    if isinstance(stage, PeakStage):
        _, log_mod2, half_phase = _averaged(spec)
        n = stage.index
        values = outer_values(0.5 * n * log_mod2, 2 * n * half_phase)
        np.subtract(1.0, values, out=values)
    elif not isinstance(stage, UnitStage):
        raise TypeError(f"no unit is built from a stage of type {type(stage).__name__}")
    elif stage.degenerate:
        values = np.ones(spec.grid.size, dtype=complex)
    else:
        log_cof = _largest_log(spec)
        np.negative(log_cof, out=log_cof)
        log_cof[log_cof > -_level_cut(stage.index)] = 0.0  # the support
        values = outer_values(log_cof, conjugate(log_cof))
        np.multiply(spec._base, values, out=values)
    return BoundarySignal(spec.grid, values)


def combine_units(u: BoundarySignal, v: BoundarySignal) -> BoundarySignal:
    """Diagonal combination u + v - u v; one minus it factors as (1-u)(1-v)."""
    return BoundarySignal(common_grid(u, v), u.values + v.values - u.values * v.values)


def _fold(subs: Sequence[Certificate]) -> BoundarySignal:
    """The ``combine_units`` fold of the last-stage units of ``subs``, built one at a time."""
    return functools.reduce(combine_units, (stage_unit(c.ideal, c.stages[-1]) for c in subs))


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CombinedUnit:
    """Diagonal unit of a finitely generated ideal, folded by ``combine_units``.
    ``ess_inf`` is its least modulus on the grid, reported and not gated."""

    errors: tuple[float, ...]
    ess_inf: float
    sup_norm: float


@dataclass(frozen=True)
class Certificate:
    ideal: IdealSpec
    strategy: str
    tol: float
    passed: bool
    failure_reason: Optional[str]
    zero_angles: tuple[float, ...]
    resolution: float
    conclusion: str
    stages: tuple = ()
    final_error: float = float("inf")
    sup_bound: float = 0.0
    peak_prep: Optional[PeakPreparation] = None
    sub_certificates: tuple["Certificate", ...] = ()
    notes: tuple[str, ...] = ()

    @functools.cached_property
    def final_unit(self) -> Optional[BoundarySignal]:
        """The last stage's unit, or for a combined certificate the fold of
        its sub-certificates' last-stage units; built on first read and kept."""
        return _fold(self.sub_certificates or (self,)) if self.stages else None


def certify_mideal(
    spec: IdealSpec,
    strategy: str = "auto",
    tol: float = DEFAULT_TOL,
    bound: float = DEFAULT_BOUND,
    stages: Sequence[int] = DEFAULT_MAIN_STAGES,
    schedule: Sequence[int] = DEFAULT_PEAK_SCHEDULE,
) -> Certificate:
    """Certify a bounded approximate unit for the ideal.

    Strategies: ``sublevel`` (unit supported off shrinking zero-set
    neighborhoods; needs the generator continuously extendable to its zero
    set), ``peak`` (powers of the averaged rebased generator), ``combined``
    (k >= 2 generators; per-generator certification folded into one diagonal
    unit), and ``auto`` which picks sublevel/peak for one generator and
    combined for more. ``tol`` and ``bound`` are refused unless finite and positive;
    ``stages`` and ``schedule`` are checked whichever route runs. A
    single-generator certificate passes when the final stage error is at most
    ``tol`` and every stage's unit has sup at most ``bound + SUP_SLACK``. A
    combined certificate gates ``bound`` only through its k sub-certificates:
    the diagonal unit 1 - (1 - u_1)...(1 - u_k) enters ``sup_bound`` but is
    not gated, and it can reach (1 + B)^k - 1 for B = ``bound + SUP_SLACK``.
    Its ``zero_angles`` are the essential zeros of the joint modulus max_i |f_i|,
    at a resolution of 8 cells; with none, the ideal is the whole algebra.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    tol = _as_real(tol, "tol", *_POSITIVE)
    bound = _as_real(bound, "bound", *_POSITIVE)
    stages = _read_stages(stages)
    schedule = _read_schedule(schedule)
    n_gen = len(spec.generators)
    if strategy == "auto" and n_gen > 1:
        strategy = "combined"
    if (strategy == "combined") != (n_gen > 1):
        raise StrategyInapplicable(f"strategy {strategy!r} does not apply to {n_gen} generator(s)")
    if strategy == "combined":
        return _certify_combined(spec, tol=tol, bound=bound, stages=stages, schedule=schedule)

    f = spec.generators[0]
    rep = zinfty_report(f)
    outer = is_outer(f)
    in_zinfty = outer and strategy != "peak" and rep.in_class
    notes: list[str] = []
    if outer and strategy == "auto":
        strategy = "sublevel" if in_zinfty else "peak"
        notes.append(f"auto strategy resolved to {strategy}")

    unit_stages: tuple = ()
    prep = None
    if outer and strategy == "peak":
        prep, unit_stages = approx_unit_peak(spec, schedule, tol=tol)
        if prep.rescaled:
            notes.append(f"generator rescaled by {prep.scale:.6g} during alignment")
    elif in_zinfty:
        unit_stages = approx_unit_sublevel(spec, stages)
        if any(s.degenerate for s in unit_stages):
            notes.append(
                "degenerate stage: empty support, unit identically 1 "
                "(sublevel set vanished at the log-floor)"
            )
    final_error = unit_stages[-1].error if unit_stages else float("inf")
    sup_bound = max((s.sup_norm for s in unit_stages), default=0.0)

    if not outer:
        failure, conclusion = (
            "NotOuter",
            "generator has a nontrivial inner factor, so no bounded "
            "approximate unit can exist for its principal ideal",
        )
    elif strategy == "sublevel" and not in_zinfty:
        failure, conclusion = (
            "NotInZinfty",
            "generator has no continuous extension to its essential zero "
            "set; the sublevel construction does not apply",
        )
    elif not sup_bound <= bound + SUP_SLACK:
        failure, conclusion = "NormExceeded", "a unit escaped the sup bound"
    elif not final_error <= tol:
        failure, conclusion = "tolerance", "stage errors did not reach tolerance"
    elif rep.zero_set.angles:
        failure, conclusion = None, (
            "ideal contains an approximate unit bounded by its stage bound; certified"
        )
    else:
        failure, conclusion = None, "essential zero set is empty; the ideal is the whole algebra"
    return Certificate(
        ideal=spec,
        strategy=strategy,
        tol=tol,
        passed=failure is None,
        failure_reason=failure,
        stages=unit_stages,
        final_error=final_error,
        sup_bound=sup_bound,
        zero_angles=rep.zero_set.angles,
        resolution=rep.zero_set.resolution,
        conclusion=conclusion,
        peak_prep=prep,
        notes=tuple(notes),
    )


def _certify_combined(
    spec: IdealSpec,
    tol: float,
    bound: float,
    stages: Sequence[int],
    schedule: Sequence[int],
) -> Certificate:
    subs = tuple(
        certify_mideal(ideal([g], [name]), tol=tol, bound=bound, stages=stages, schedule=schedule)
        for g, name in zip(spec.generators, spec.names)
    )
    failed_sub = next((c for c in subs if not c.passed), None)
    zeros = _log_zero_set(spec.grid, _largest_log(spec))

    combined_stages: tuple = ()
    final_error, sup_bound = float("inf"), 0.0
    if failed_sub is None:
        zeta = _fold(subs)
        errors = tuple(
            float(np.max(np.abs(zeta.values * g.values - g.values)))
            for g in spec.generators
        )
        # one pass over |zeta|; its cached fields would keep a log it never needs
        zeta_mod = np.abs(zeta.values)
        combined = CombinedUnit(errors, float(np.min(zeta_mod)), float(np.max(zeta_mod)))
        combined_stages = (combined,)
        final_error = max(errors)
        sup_bound = max(combined.sup_norm, *(c.sup_bound for c in subs))

    if failed_sub is not None:
        failure, conclusion = failed_sub.failure_reason, "a generator failed its own certification"
    elif not zeros.angles:
        failure, conclusion = None, (
            "no essential zero is common to all generators; the ideal is the "
            "whole algebra (I = I(1))"
        )
    elif not final_error <= tol:
        failure, conclusion = "tolerance", "combined unit error above tolerance"
    else:
        failure, conclusion = None, (
            "the generators have a common essential zero set; the combined "
            "unit certifies the ideal, which is singly generated by an outer "
            "function with that zero set"
        )
    return Certificate(
        ideal=spec,
        strategy="combined",
        tol=tol,
        passed=failure is None,
        failure_reason=failure,
        stages=combined_stages,
        final_error=final_error,
        sup_bound=sup_bound,
        zero_angles=zeros.angles if failed_sub is None else (),
        resolution=zeros.resolution,
        conclusion=conclusion,
        sub_certificates=subs,
    )


# ---------------------------------------------------------------------------
# consequences of a certificate
# ---------------------------------------------------------------------------

def membership(h: BoundarySignal, cert: Certificate) -> bool:
    """Does h belong to the certified ideal?

    h must essentially vanish at every certified common zero (its own
    estimated zero set must cover the point) and extend continuously there
    with a value at the noise floor. An empty certified zero set means the
    ideal is everything. h must live on the ideal's grid.
    """
    if not cert.passed:
        raise NotCertified("membership requires a passing certificate")
    common_grid(cert.ideal.generators[0], h)
    if not cert.zero_angles:
        return True
    hz = essential_zero_set(h)
    slack = cert.resolution + hz.resolution
    for angle in cert.zero_angles:
        if not hz.covers_angle(angle, slack):
            return False
        ext = continuous_extension(h, angle)
        if not ext.ok or abs(ext.value) > ext.tolerance:
            return False
    return True


def _check_divisor(a: BoundarySignal, delta: float) -> None:
    """The hypotheses of ``analytic_prime_check`` that need no certificate:
    ``delta`` finite and positive (else ValueError), and |a| essentially
    above it (else HypothesisFailed)."""
    delta = _as_real(delta, "delta", *_POSITIVE)
    inf_a = a.inf_abs
    if inf_a <= delta:
        raise HypothesisFailed(
            f"divisor modulus reaches {inf_a:.6g}, not essentially above {delta:g}"
        )


def analytic_prime_check(
    cert: Certificate,
    a: BoundarySignal,
    b: BoundarySignal,
    delta: float = DEFAULT_DELTA,
) -> bool:
    """Division property of the certified ideal.

    Hypotheses: |a| essentially bounded below by delta, and the product a*b in
    the ideal; both are checked and HypothesisFailed raised otherwise. Returns
    whether b itself lands in the ideal — for a certified proper ideal this is
    the prime-like division conclusion. ``delta`` is refused unless finite and positive.
    """
    _check_divisor(a, delta)
    if not membership(a * b, cert):
        raise HypothesisFailed("product does not lie in the certified ideal")
    return membership(b, cert)
