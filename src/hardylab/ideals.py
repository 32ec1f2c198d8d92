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
whose distance to 1 is the product of theirs.

A certificate is a value, not an exception: failed gates (non-outer
generator, missing continuous extension) come back as a failed certificate
with the reason recorded, while genuine usage errors (wrong generator count,
peak value out of essential range) raise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    HypothesisFailed,
    NormExceeded,
    NotCertified,
    RangeMiss,
    StrategyInapplicable,
)
from .factorization import _reject_zero, check_clip_count, is_outer, outer_boundary, outer_values
from .grid import (
    BoundarySignal, CircleGrid, _as_indices, _as_real, _clip_log, circular_distance, common_grid,
)
from .hardy import conjugate
from .zerosets import continuous_extension, essential_zero_set, zinfty_report

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
#: A combined unit of generators with no common zero must stay above this
#: modulus everywhere for the ideal to be the whole algebra.
COMBINED_INF_FLOOR = 0.9

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
    -k > m for the ideal's joint clipped log-modulus k, is rebuilt, not kept;
    ``support_measure`` is their count over N."""

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

    Stage m: A_m is the eps = e^{-m} joint sublevel set, the nodes where -k > m,
    and its measure is their count over N. The unit is base * cofactor where
    the cofactor is the outer function with log-modulus -k on the complement
    of A_m, so the unit's modulus is e^{k} there times e^{-k} — exactly one —
    and equals the generator modulus (< eps) on A_m. ``stage_unit`` builds a stage's unit.

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
    # a degenerate stage's cofactor is exp(-k) itself, unclipped
    degenerate_sup = float(np.exp(np.max(neg_k)))
    # Mask nodes have -k > m >= 1, never at the floor, so each stage's
    # cofactor log-modulus kc is this one clip with its mask nodes zeroed.
    clip_count = _clip_log(neg_k)
    out: list[UnitStage] = []
    for m in stages:
        eps = float(np.exp(-m))
        on = np.flatnonzero(neg_k > m)  # the support A_m
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
        check_clip_count(clip_count, grid.size)
        log_cof = neg_k.copy()
        log_cof[on] = 0.0
        phase = conjugate(log_cof)
        mod = np.exp(log_cof)
        cofactor_sup = float(np.max(mod))
        mod *= base_mod
        mod_minus_one = mod - 1.0
        dist = _distance_to_one(mod, mod_minus_one, np.add(half_base_phase, 0.5 * phase))
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


#: The coarse rotation scan bounds each angle's sup from every this many nodes.
_SCAN_STRIDE = 16
#: Relative allowance for rounding between a subsample bound and a full sup.
_SCAN_MARGIN = 1e-12


def _rotated_sup(gv: np.ndarray) -> Callable[..., float]:
    """phi -> sup_j |1 - e^{-i phi} G_j| for the contiguous complex values
    ``gv``, in real arithmetic on two N-sized buffers: the square is
    q - (Re G, Im G) . (2 cos phi, 2 sin phi) with q = 1 + |G|^2. With
    ``sampled`` the sup is over every ``_SCAN_STRIDE``-th node only, so it
    is never above the full sup but for rounding."""
    pairs = gv.view(float).reshape(-1, 2)
    q = 1.0 + np.einsum("ij,ij->i", pairs, pairs)
    buf = np.empty(q.shape)
    # copies, not strided views: a view is read one cache line per row
    sampled_rows = pairs[::_SCAN_STRIDE].copy(), q[::_SCAN_STRIDE].copy()

    def sup_at(phi: float, sampled: bool = False) -> float:
        rows, q_rows = sampled_rows if sampled else (pairs, q)
        out = buf[:q_rows.size]
        np.matmul(rows, (2.0 * math.cos(phi), 2.0 * math.sin(phi)), out=out)
        np.subtract(q_rows, out, out=out)
        return math.sqrt(max(float(np.max(out)), 0.0))

    return sup_at


def _coarse_argmin(sup_at: Callable[..., float], coarse: np.ndarray) -> int:
    """The first index of the least full sup over the ``coarse`` angles, as
    np.argmin takes it, from as few full sups as the subsample bounds allow.

    Full sups are taken in order of increasing bound, until the next bound is
    above the least full sup found by more than ``_SCAN_MARGIN``. Every angle
    left then has a full sup above that least one, so it cannot be the argmin;
    where the bounds tie with it, every angle is taken in full.
    """
    bounds = [sup_at(phi, sampled=True) for phi in coarse]
    best, i0 = math.inf, 0
    for i in sorted(range(len(coarse)), key=bounds.__getitem__):
        if bounds[i] > best * (1.0 + _SCAN_MARGIN):
            break
        s = sup_at(coarse[i])
        if s < best or (s == best and i < i0):
            best, i0 = s, i
    return i0


def prepare_peak(generator: BoundarySignal) -> PeakPreparation:
    """Find alpha on the circle so that 1 - conj(alpha) * G has sup at most 1.

    The essential range of the rebased function must reach the peak value 1,
    which happens exactly where G vanishes; if |G| never gets within
    ``RANGE_TOL`` of zero the construction cannot apply and RangeMiss is
    raised. If no rotation brings the sup down to 1, the generator is scaled
    down (the ideal is unchanged) by the largest factor that keeps the sup
    within 1e-12 of 1; if that factor is below 1e-8, NormExceeded.

    alpha minimises the sup by a scan of 256 coarse angles, then 72 sups of a
    golden-section search in the coarse cell around the best one. The scan
    bounds each angle's sup from below by its sup over every
    ``_SCAN_STRIDE``-th node and takes full sups only while a bound can still
    beat the best full sup (``_coarse_argmin``), so it picks the angle that
    full sups at all 256 would pick, bit for bit.
    """
    gv = generator.values
    range_gap = generator.inf_abs
    if range_gap > RANGE_TOL:
        raise RangeMiss(
            f"generator modulus stays above {range_gap:.6g}; "
            f"no unimodular value of the rebased function within {RANGE_TOL:g}"
        )
    # The scan squares |G|, which overflows near 1e154. Past sup|G| = 1e10
    # no scale fits: |1 - c w| <= 1 + 1e-12 at the largest |w| forces
    # c <= (2 + 1e-12) / sup|G| < 1e-8, which is refused below.
    if generator.sup_abs > 1e10:
        raise NormExceeded(_NO_SCALE)
    sup_at = _rotated_sup(gv)

    coarse = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    i0 = _coarse_argmin(sup_at, coarse)
    lo = coarse[i0] - coarse[1]
    hi = coarse[i0] + coarse[1]

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = sup_at(c), sup_at(d)
    for _ in range(70):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = sup_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = sup_at(d)
    phi_star = (a + b) / 2.0
    alpha = complex(np.exp(1j * phi_star))
    sup_base = sup_at(phi_star)

    scale = 1.0
    rescaled = False
    if sup_base > 1.0 + SUP_SLACK:
        # The largest c with |1 - c w_j| <= 1 + 1e-12 at every node, where
        # w = conj(alpha) G: squared, |w|^2 c^2 - 2 Re(w) c - t <= 0 with
        # t = (1 + 1e-12)^2 - 1, so c = min_j of the positive root. Its
        # reciprocal is (root - Re w)/t, rewritten as |w|^2/(Re w + root)
        # where Re w > 0 to avoid cancellation; w = 0 gives 0. A generator
        # so large that the reciprocal overflows gets scale 0 and is refused.
        w = np.conj(alpha) * gv
        t = 2e-12 + 1e-24
        with np.errstate(over="ignore"):
            root = np.hypot(w.real, np.sqrt(t) * np.abs(w))
            inv = (root - w.real) / t
            pos = w.real > 0.0
            inv[pos] = np.abs(w[pos]) ** 2 / (w.real[pos] + root[pos])
            scale = 1.0 / float(np.max(inv))
        if scale < 1e-8:
            raise NormExceeded(_NO_SCALE)
        rescaled = True

    return PeakPreparation(
        alpha=alpha,
        scale=scale,
        rescaled=rescaled,
        sup_base=float(np.max(np.abs(1.0 - scale * np.conj(alpha) * gv))),
        range_gap=range_gap,
    )


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
        log_cof[log_cof > stage.index] = 0.0  # the support, before the clip
        check_clip_count(_clip_log(log_cof), spec.grid.size)
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
    """Diagonal unit of a finitely generated ideal, folded by ``combine_units``."""

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
    combined_inf: Optional[float] = None
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

    combined_stages: tuple = ()
    final_error, sup_bound, inf_z, common = float("inf"), 0.0, None, ()
    if failed_sub is None:
        zeta = _fold(subs)
        errors = tuple(
            float(np.max(np.abs(zeta.values * g.values - g.values)))
            for g in spec.generators
        )
        # one pass over |zeta|; its cached fields would keep a log it never needs
        zeta_mod = np.abs(zeta.values)
        inf_z = float(np.min(zeta_mod))
        combined = CombinedUnit(errors, inf_z, float(np.max(zeta_mod)))
        combined_stages = (combined,)
        final_error = max(errors)
        sup_bound = max(combined.sup_norm, *(c.sup_bound for c in subs))
        first, *rest = subs
        common = first.zero_angles
        for c in rest:
            near = first.resolution + c.resolution
            common = tuple(a for a in common if any(circular_distance(a, b) <= near for b in c.zero_angles))

    if failed_sub is not None:
        failure, conclusion = failed_sub.failure_reason, "a generator failed its own certification"
    elif not common and not inf_z > COMBINED_INF_FLOOR:
        failure, conclusion = (
            "combined unit not bounded below",
            "no essential zero is common to all generators, but the combined "
            "unit is not bounded below",
        )
    elif not common:
        failure, conclusion = None, (
            "no essential zero is common to all generators and the combined "
            "unit is bounded below; the ideal is the whole algebra (I = I(1))"
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
        zero_angles=common,
        resolution=max(c.resolution for c in subs),
        conclusion=conclusion,
        combined_inf=inf_z,
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
