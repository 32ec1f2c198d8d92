"""Bounded approximate units for closed ideals, and the certificates they
produce.

Two constructions are implemented. The *sublevel* route synthesizes, for each
stage m, an outer unit whose log-modulus is supported on a shrinking
neighborhood A_m of the generators' essential zero set: the unit has modulus
exactly 1 off A_m and at most e^{-m} on it, so multiplying a generator by it
is a small perturbation. The *peak* route aligns the generator against a
unimodular constant, forms g = (1 + base)/2, and uses u_n = 1 - g^n; the
identity (1-g) u_n - (1-g) = -(1-g) g^n pins the stage error at
sqrt(n^n/(n+1)^{n+1}) for the shift.

A certificate is a value, not an exception: failed gates (non-outer
generator, missing continuous extension) come back as a failed certificate
with the reason recorded, while genuine usage errors (wrong generator count,
peak value out of essential range) raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    HypothesisFailed,
    NormExceeded,
    NotCertified,
    RangeMiss,
    StrategyInapplicable,
    ZeroFunction,
)
from .factorization import CLIP_FLOOR, is_outer, synth_outer
from .grid import (
    ArcSet,
    BoundarySignal,
    CircleGrid,
    circular_distance,
    constant_signal,
    dilate,
    measure,
    signal_from_values,
)
from .zerosets import ZeroSetEstimate, continuous_extension, essential_zero_set

DEFAULT_TOL = 0.05
DEFAULT_RANGE_TOL = 0.05
DEFAULT_MAIN_STAGES = tuple(range(1, 13))
DEFAULT_PEAK_SCHEDULE = (1, 2, 4, 8, 16, 32, 64, 128, 200, 400, 800)

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


def ideal(generators: Sequence[BoundarySignal], names: Sequence[str] | None = None) -> IdealSpec:
    gens = tuple(generators)
    if not gens:
        raise ValueError("an ideal needs at least one generator")
    grid = gens[0].grid
    for g in gens:
        if g.grid.size != grid.size:
            raise ValueError("generators live on different grids")
        if float(np.max(np.abs(g.values))) == 0.0:
            raise ZeroFunction("a generator is identically zero")
    if names is None:
        names = tuple(f"generator-{i}" for i in range(len(gens)))
    names = tuple(names)
    if len(names) != len(gens):
        raise ValueError("one name per generator")
    return IdealSpec(grid=grid, generators=gens, names=names)


def ess_inf(f: BoundarySignal) -> float:
    return float(np.min(np.abs(f.values)))


# ---------------------------------------------------------------------------
# sublevel-supported units
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitStage:
    """One stage of the sublevel construction."""

    index: int
    eps: float
    support: ArcSet
    support_measure: float
    degenerate: bool
    off_support_deviation: float
    on_support_max: float
    value_at_zero: complex
    cofactor_sup: float
    error: float
    sup_norm: float
    unit: BoundarySignal


def _joint_clipped_log(spec: IdealSpec) -> np.ndarray:
    """Clipped log of the pointwise-largest generator modulus."""
    joint = np.maximum.reduce([np.abs(g.values) for g in spec.generators])
    with np.errstate(divide="ignore"):
        k = np.log(joint)
    return np.maximum(k, CLIP_FLOOR)


def dilation_width(stage: int, spacing: float) -> float:
    """Stage-m dilation: 2^-m, capped below half a grid cell so widening the
    support can neither swallow new nodes nor bridge gaps between clusters."""
    return min(2.0 ** -stage, 0.45 * spacing)


def approx_unit_sublevel(
    spec: IdealSpec,
    stages: Sequence[int] = DEFAULT_MAIN_STAGES,
) -> tuple[UnitStage, ...]:
    """Units supported off shrinking sublevel neighborhoods of the zero set.

    Stage m: A_m is the eps = e^{-m} joint sublevel set, dilated by
    ``dilation_width``. The unit is base * cofactor where the cofactor is the
    outer function with log-modulus -k on the complement of A_m, so the
    unit's modulus is e^{k} there times e^{-k} — exactly one — and equals the
    generator modulus (< eps) on A_m.
    """
    grid = spec.grid
    k_c = _joint_clipped_log(spec)
    if len(spec.generators) == 1:
        base = spec.generators[0]
    else:
        base = synth_outer(signal_from_values(grid, k_c.astype(complex))).boundary

    gen_values = [g.values for g in spec.generators]
    joint_mod = np.exp(k_c)
    out: list[UnitStage] = []
    for m in stages:
        eps = float(np.exp(-m))
        # The dilation stays under half a cell, so it adds no node: the
        # support's nodes are exactly the sublevel nodes.
        mask = joint_mod < eps
        if not mask.any():
            unit = constant_signal(grid, 1.0)
            out.append(
                UnitStage(
                    index=m,
                    eps=eps,
                    support=ArcSet.empty(),
                    support_measure=0.0,
                    degenerate=True,
                    off_support_deviation=0.0,
                    on_support_max=0.0,
                    value_at_zero=1.0 + 0.0j,
                    cofactor_sup=float(np.exp(-np.min(k_c))),
                    error=0.0,
                    sup_norm=1.0,
                    unit=unit,
                )
            )
            continue

        support = dilate(ArcSet.from_node_mask(grid, mask), dilation_width(m, grid.spacing))
        k_m = np.where(mask, 0.0, -k_c)
        cofactor = synth_outer(signal_from_values(grid, k_m.astype(complex))).boundary
        u_vals = base.values * cofactor.values
        mod = np.abs(u_vals)
        off = ~mask
        off_dev = float(np.max(np.abs(mod[off] - 1.0))) if off.any() else 0.0
        on_max = float(np.max(mod[mask]))
        error = max(float(np.max(np.abs(u_vals * gv - gv))) for gv in gen_values)
        out.append(
            UnitStage(
                index=m,
                eps=eps,
                support=support,
                support_measure=measure(support),
                degenerate=False,
                off_support_deviation=off_dev,
                on_support_max=on_max,
                value_at_zero=complex(np.exp(np.sum(k_c[mask]) / grid.size)),
                cofactor_sup=float(np.max(np.abs(cofactor.values))),
                error=error,
                sup_norm=float(np.max(mod)),
                unit=signal_from_values(grid, u_vals),
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# peak-power units
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeakPreparation:
    """Alignment of a generator against a unimodular peak value."""

    alpha: complex
    scale: float
    rescaled: bool
    sup_base: float
    range_gap: float
    base: BoundarySignal
    half_generator: BoundarySignal


def _alignment_sup(gv: np.ndarray, phi: float) -> float:
    return float(np.max(np.abs(1.0 - np.exp(-1j * phi) * gv)))


def prepare_peak(
    generator: BoundarySignal, range_tol: float = DEFAULT_RANGE_TOL
) -> PeakPreparation:
    """Find alpha on the circle so that 1 - conj(alpha) * G has sup at most 1.

    The essential range of the rebased function must reach the peak value 1,
    which happens exactly where G vanishes; if |G| never gets within
    ``range_tol`` of zero the construction cannot apply and RangeMiss is
    raised. If no rotation brings the sup down to 1, the generator is scaled
    down (the ideal is unchanged); if even scaling cannot help, NormExceeded.
    """
    gv = generator.values
    range_gap = float(np.min(np.abs(gv)))
    if range_gap > range_tol:
        raise RangeMiss(
            f"generator modulus stays above {range_gap:.6g}; "
            f"no unimodular value of the rebased function within {range_tol:g}"
        )

    coarse = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    sups = np.array([_alignment_sup(gv, p) for p in coarse])
    i0 = int(np.argmin(sups))
    lo = coarse[i0] - coarse[1]
    hi = coarse[i0] + coarse[1]

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = _alignment_sup(gv, c), _alignment_sup(gv, d)
    for _ in range(70):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _alignment_sup(gv, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _alignment_sup(gv, d)
    phi_star = (a + b) / 2.0
    alpha = complex(np.exp(1j * phi_star))
    sup_base = _alignment_sup(gv, phi_star)

    scale = 1.0
    rescaled = False
    if sup_base > 1.0 + SUP_SLACK:
        rotated = np.conj(alpha) * gv

        def feasible(c_try: float) -> bool:
            return float(np.max(np.abs(1.0 - c_try * rotated))) <= 1.0 + 1e-12

        if not feasible(1e-8):
            raise NormExceeded(
                "no scaling of the generator brings the rebased function "
                "into the unit ball"
            )
        lo_c, hi_c = 1e-8, 1.0
        for _ in range(80):
            mid = 0.5 * (lo_c + hi_c)
            if feasible(mid):
                lo_c = mid
            else:
                hi_c = mid
        scale = lo_c
        rescaled = True

    base_vals = 1.0 - scale * np.conj(alpha) * gv
    half_vals = 0.5 * scale * np.conj(alpha) * gv
    return PeakPreparation(
        alpha=alpha,
        scale=scale,
        rescaled=rescaled,
        sup_base=float(np.max(np.abs(base_vals))),
        range_gap=range_gap,
        base=signal_from_values(generator.grid, base_vals),
        half_generator=signal_from_values(generator.grid, half_vals),
    )


@dataclass(frozen=True)
class PeakStage:
    """One power of the averaged function; error against the half-generator."""

    index: int
    error: float
    sup_norm: float
    unit: BoundarySignal


def approx_unit_peak(
    spec: IdealSpec,
    schedule: Sequence[int] = DEFAULT_PEAK_SCHEDULE,
    tol: Optional[float] = None,
    range_tol: float = DEFAULT_RANGE_TOL,
) -> tuple[PeakPreparation, tuple[PeakStage, ...]]:
    """Powers u_n = 1 - g^n with g the average of 1 and the rebased generator.

    The recorded error is sup |u_n h - h| with h the *half*-generator
    (scale * conj(alpha) * G / 2), which equals sup |(1-g) g^n| identically.
    With ``tol`` given the schedule stops at the first stage under tolerance.
    """
    if len(spec.generators) != 1:
        raise StrategyInapplicable("peak units need a single generator")
    prep = prepare_peak(spec.generators[0], range_tol=range_tol)
    g_mid = 0.5 * (1.0 + prep.base.values)
    h = prep.half_generator.values
    stages: list[PeakStage] = []
    for n in schedule:
        if n < 1:
            raise ValueError("peak powers must be positive")
        u = 1.0 - g_mid ** n
        err = float(np.max(np.abs(u * h - h)))
        stages.append(
            PeakStage(
                index=int(n),
                error=err,
                sup_norm=float(np.max(np.abs(u))),
                unit=signal_from_values(spec.grid, u),
            )
        )
        if tol is not None and err <= tol:
            break
    return prep, tuple(stages)


def combine_units(u: BoundarySignal, v: BoundarySignal) -> BoundarySignal:
    """Diagonal combination u + v - u v; one minus it factors as (1-u)(1-v)."""
    if u.grid.size != v.grid.size:
        raise ValueError("units live on different grids")
    return signal_from_values(u.grid, u.values + v.values - u.values * v.values)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CombinedUnit:
    """Diagonal unit for a two-generator ideal."""

    errors: tuple[float, ...]
    ess_inf: float
    sup_norm: float
    unit: BoundarySignal

    @property
    def error(self) -> float:
        return max(self.errors)


@dataclass(frozen=True)
class Certificate:
    ideal: IdealSpec
    strategy: str
    tol: float
    passed: bool
    failure_reason: Optional[str]
    stages: tuple
    final_error: float
    sup_bound: float
    zero_sets: tuple[ZeroSetEstimate, ...]
    zero_angles: tuple[float, ...]
    resolution: float
    conclusion: str
    combined_inf: Optional[float] = None
    peak_prep: Optional[PeakPreparation] = None
    sub_certificates: tuple["Certificate", ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def final_unit(self) -> Optional[BoundarySignal]:
        if not self.stages:
            return None
        return self.stages[-1].unit


def _failed(
    spec: IdealSpec,
    strategy: str,
    tol: float,
    reason: str,
    zero_sets: tuple[ZeroSetEstimate, ...],
    conclusion: str,
    notes: tuple[str, ...] = (),
    sub: tuple[Certificate, ...] = (),
) -> Certificate:
    res = max((z.resolution for z in zero_sets), default=0.0)
    angles = zero_sets[0].angles if len(zero_sets) == 1 else ()
    return Certificate(
        ideal=spec,
        strategy=strategy,
        tol=tol,
        passed=False,
        failure_reason=reason,
        stages=(),
        final_error=float("inf"),
        sup_bound=0.0,
        zero_sets=zero_sets,
        zero_angles=angles,
        resolution=res,
        conclusion=conclusion,
        sub_certificates=sub,
        notes=notes,
    )


def certify_mideal(
    spec: IdealSpec,
    strategy: str = "auto",
    tol: float = DEFAULT_TOL,
    bound: float = 2.0,
    stages: Sequence[int] | None = None,
    schedule: Sequence[int] | None = None,
    range_tol: float = DEFAULT_RANGE_TOL,
) -> Certificate:
    """Certify a bounded approximate unit for the ideal.

    Strategies: ``sublevel`` (unit supported off shrinking zero-set
    neighborhoods; needs the generator continuously extendable to its zero
    set), ``peak`` (powers of the averaged rebased generator), ``combined``
    (two generators; per-generator certification plus the diagonal unit), and
    ``auto`` which picks sublevel/peak for one generator and combined for two.
    A certificate passes when the final stage error is at most ``tol`` and
    every unit stays inside the sup bound.
    """
    if strategy not in {"auto", "sublevel", "peak", "combined"}:
        raise ValueError(f"unknown strategy {strategy!r}")
    n_gen = len(spec.generators)

    if strategy == "combined" or (strategy == "auto" and n_gen == 2):
        return _certify_combined(
            spec, tol=tol, bound=bound, stages=stages, schedule=schedule, range_tol=range_tol
        )
    if n_gen != 1:
        raise StrategyInapplicable(
            f"strategy {strategy!r} applies to a single generator; got {n_gen}"
        )

    f = spec.generators[0]
    zset = essential_zero_set(f)

    if not is_outer(f):
        return _failed(
            spec,
            strategy,
            tol,
            "NotOuter",
            (zset,),
            "generator has a nontrivial inner factor, so no bounded "
            "approximate unit can exist for its principal ideal",
        )

    notes: list[str] = []
    if strategy != "peak":
        # Z-infinity membership: a continuous extension at every zero.
        in_zinfty = all(continuous_extension(f, a).ok for a in zset.angles)
        if strategy == "auto":
            strategy = "sublevel" if in_zinfty else "peak"
            notes.append(f"auto strategy resolved to {strategy}")
        elif not in_zinfty:
            return _failed(
                spec,
                strategy,
                tol,
                "NotInZinfty",
                (zset,),
                "generator has no continuous extension to its essential zero "
                "set; the sublevel construction does not apply",
            )

    if strategy == "sublevel":
        unit_stages: tuple = approx_unit_sublevel(spec, stages or DEFAULT_MAIN_STAGES)
        prep = None
        if any(s.degenerate for s in unit_stages):
            notes.append(
                "degenerate stage: empty support, unit identically 1 "
                "(sublevel set vanished at the log-floor)"
            )
    else:
        prep, unit_stages = approx_unit_peak(
            spec, schedule or DEFAULT_PEAK_SCHEDULE, tol=tol, range_tol=range_tol
        )
        if prep.rescaled:
            notes.append(f"generator rescaled by {prep.scale:.6g} during alignment")

    final_error = unit_stages[-1].error
    sup_bound = max(s.sup_norm for s in unit_stages)
    within_bound = sup_bound <= bound + SUP_SLACK
    passed = bool(final_error <= tol and within_bound)
    if passed:
        conclusion = (
            "ideal contains an approximate unit bounded by its stage bound; "
            "certified"
            if zset.angles
            else "essential zero set is empty; the ideal is the whole algebra"
        )
        failure = None
    elif not within_bound:
        conclusion = "a unit escaped the sup bound"
        failure = "NormExceeded"
    else:
        conclusion = "stage errors did not reach tolerance"
        failure = "tolerance"
    return Certificate(
        ideal=spec,
        strategy=strategy,
        tol=tol,
        passed=passed,
        failure_reason=failure,
        stages=unit_stages,
        final_error=final_error,
        sup_bound=sup_bound,
        zero_sets=(zset,),
        zero_angles=zset.angles,
        resolution=zset.resolution,
        conclusion=conclusion,
        peak_prep=prep,
        notes=tuple(notes),
    )


def _certify_combined(
    spec: IdealSpec,
    tol: float,
    bound: float,
    stages: Sequence[int] | None,
    schedule: Sequence[int] | None,
    range_tol: float,
) -> Certificate:
    if len(spec.generators) != 2:
        raise StrategyInapplicable("combined certification needs exactly two generators")
    subs = tuple(
        certify_mideal(
            ideal([g], [name]),
            strategy="auto",
            tol=tol,
            bound=bound,
            stages=stages,
            schedule=schedule,
            range_tol=range_tol,
        )
        for g, name in zip(spec.generators, spec.names)
    )
    failed_sub = next((c for c in subs if not c.passed), None)
    if failed_sub is not None:
        return _failed(
            spec,
            "combined",
            tol,
            failed_sub.failure_reason or "tolerance",
            tuple(c.zero_sets[0] for c in subs),
            "a generator failed its own certification",
            sub=subs,
        )

    u = subs[0].final_unit
    v = subs[1].final_unit
    zeta = combine_units(u, v)
    errors = tuple(
        float(np.max(np.abs(zeta.values * g.values - g.values)))
        for g in spec.generators
    )
    inf_z = ess_inf(zeta)
    za = subs[0].zero_angles
    zb = subs[1].zero_angles
    threshold = subs[0].resolution + subs[1].resolution
    common = tuple(
        a for a in za if zb and min(circular_distance(a, b) for b in zb) <= threshold
    )
    disjoint = not common

    combined_stage = CombinedUnit(
        errors=errors,
        ess_inf=inf_z,
        sup_norm=float(np.max(np.abs(zeta.values))),
        unit=zeta,
    )
    zero_sets = tuple(c.zero_sets[0] for c in subs)
    resolution = max(c.resolution for c in subs)

    if disjoint:
        passed = inf_z > 0.9
        conclusion = (
            "generators have disjoint essential zero sets and the combined "
            "unit is bounded below; the ideal is the whole algebra (I = I(1))"
            if passed
            else "disjoint zero sets but the combined unit is not bounded below"
        )
        failure = None if passed else "combined unit not bounded below"
        zero_angles: tuple[float, ...] = ()
    else:
        passed = max(errors) <= tol
        conclusion = (
            "generators share their essential zero set; the combined unit "
            "certifies the ideal, which is singly generated by an outer "
            "function with that zero set"
            if passed
            else "combined unit error above tolerance"
        )
        failure = None if passed else "tolerance"
        zero_angles = common

    return Certificate(
        ideal=spec,
        strategy="combined",
        tol=tol,
        passed=passed,
        failure_reason=failure,
        stages=(combined_stage,),
        final_error=max(errors),
        sup_bound=max(combined_stage.sup_norm, *(c.sup_bound for c in subs)),
        zero_sets=zero_sets,
        zero_angles=zero_angles,
        resolution=resolution,
        conclusion=conclusion,
        combined_inf=inf_z,
        sub_certificates=subs,
        notes=(),
    )


# ---------------------------------------------------------------------------
# consequences of a certificate
# ---------------------------------------------------------------------------

def membership(h: BoundarySignal, cert: Certificate) -> bool:
    """Does h belong to the certified ideal?

    h must essentially vanish at every certified common zero (its own
    estimated zero set must cover the point) and extend continuously there
    with a value at the noise floor. An empty certified zero set means the
    ideal is everything.
    """
    if not cert.passed:
        raise NotCertified("membership requires a passing certificate")
    if not cert.zero_angles:
        return True
    hz = essential_zero_set(h)
    slack = cert.resolution + hz.resolution
    for angle in cert.zero_angles:
        if not hz.angles:
            return False
        if min(circular_distance(angle, b) for b in hz.angles) > slack:
            return False
        ext = continuous_extension(h, angle)
        if not ext.ok or abs(ext.value) > ext.tolerance:
            return False
    return True


def analytic_prime_check(
    cert: Certificate,
    a: BoundarySignal,
    b: BoundarySignal,
    delta: float = 0.5,
) -> bool:
    """Division property of the certified ideal.

    Hypotheses: |a| essentially bounded below by delta, and the product a*b in
    the ideal; both are checked and HypothesisFailed raised otherwise. Returns
    whether b itself lands in the ideal — for a certified proper ideal this is
    the prime-like division conclusion.
    """
    inf_a = ess_inf(a)
    if inf_a <= delta:
        raise HypothesisFailed(
            f"divisor modulus reaches {inf_a:.6g}, not essentially above {delta:g}"
        )
    product = signal_from_values(a.grid, a.values * b.values)
    if not membership(product, cert):
        raise HypothesisFailed("product does not lie in the certified ideal")
    return membership(b, cert)
