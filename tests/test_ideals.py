"""Approximate units and ideal certificates.

The frozen decimals in this module were measured once on the reference
16384-node grid and act as regression guards; every structural claim
(dichotomy bounds, nesting, closed-form stage errors) is asserted
independently of them.
"""

from collections import Counter

import numpy as np
import pytest

from hardylab import (
    CircleGrid,
    HypothesisFailed,
    NormExceeded,
    NotCertified,
    RangeMiss,
    StrategyInapplicable,
    ZeroFunction,
    analytic_prime_check,
    approx_unit_peak,
    approx_unit_sublevel,
    certify_mideal,
    combine_units,
    complement,
    constant_signal,
    ess_inf,
    example_boundary,
    ideal,
    intersect,
    measure,
    membership,
    prepare_peak,
    signal_from_values,
)
import hardylab.ideals
import hardylab.zerosets
from hardylab.ideals import DEFAULT_PEAK_SCHEDULE, dilation_width


def peak_error_closed_form(n: int) -> float:
    # sup of |(1-g) g^n| on the circle for g = (1+z)/2: attained where
    # tan^2(t/2) = 1/n, giving sqrt(n^n / (n+1)^(n+1)).
    return float(np.exp(0.5 * (n * np.log(n) - (n + 1) * np.log(n + 1)))) if n > 0 else 0.5


@pytest.fixture(scope="module")
def one_minus_z_spec(grid):
    return ideal([example_boundary("one-minus-z", grid)], ["one-minus-z"])


@pytest.fixture(scope="module")
def one_minus_z_cert(one_minus_z_spec):
    return certify_mideal(one_minus_z_spec)


# ---------------------------------------------------------------------------
# ideal construction
# ---------------------------------------------------------------------------

def test_ideal_rejects_zero_generator(small_grid):
    with pytest.raises(ZeroFunction):
        ideal([constant_signal(small_grid, 0.0)])


def test_ideal_rejects_empty_and_mismatched(grid, small_grid):
    with pytest.raises(ValueError):
        ideal([])
    with pytest.raises(ValueError):
        ideal([constant_signal(grid, 1.0), constant_signal(small_grid, 1.0)])
    with pytest.raises(ValueError):
        ideal([constant_signal(small_grid, 1.0)], ["a", "b"])


def test_ideal_default_names(small_grid):
    spec = ideal([constant_signal(small_grid, 1.0), constant_signal(small_grid, 2.0)])
    assert spec.names == ("generator-0", "generator-1")


def test_ess_inf(small_grid):
    f = example_boundary("two-plus-z", small_grid)
    assert ess_inf(f) == pytest.approx(1.0, abs=1e-12)
    assert ess_inf(example_boundary("one-minus-z", small_grid)) == 0.0


# ---------------------------------------------------------------------------
# sublevel staircase
# ---------------------------------------------------------------------------

# Stage errors for I(1 - z) on the 16384-node grid. The support stabilises
# to the single cell at the zero from stage 8 on, so the tail is constant.
STAIRCASE_ERRORS = (
    0.73360938375633722,
    0.28742537480037161,
    0.12667433375571244,
    0.05825799137072326,
    0.02619211723615961,
    0.011816338429659184,
    0.0056983746911438418,
    0.0021992384929451908,
)


def test_sublevel_staircase_dichotomy(one_minus_z_spec):
    """Each stage is unimodular off its support and below eps on it."""
    stages = approx_unit_sublevel(one_minus_z_spec)
    assert [s.index for s in stages] == list(range(1, 13))
    for s in stages:
        assert not s.degenerate
        assert s.eps == pytest.approx(np.exp(-s.index), rel=1e-15)
        assert s.off_support_deviation <= 1e-12
        assert s.on_support_max <= s.eps
        assert s.sup_norm <= 1.0 + 1e-12
    errors = [s.error for s in stages]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.05


def test_sublevel_staircase_frozen_errors(one_minus_z_spec):
    stages = approx_unit_sublevel(one_minus_z_spec)
    for s, expected in zip(stages, STAIRCASE_ERRORS):
        assert s.error == pytest.approx(expected, rel=1e-6)
    # identical supports from stage 8 on reproduce the stage verbatim
    tail = {s.error for s in stages[7:]}
    assert len(tail) == 1
    floor_mean = np.exp(-30.0 / one_minus_z_spec.grid.size)
    for s in stages[7:]:
        assert s.value_at_zero == pytest.approx(floor_mean, rel=1e-12)


def test_sublevel_supports_nest(small_grid):
    """A_(m+1) sits inside A_m."""
    spec = ideal([example_boundary("one-minus-z", small_grid)], ["one-minus-z"])
    stages = approx_unit_sublevel(spec, range(1, 10))
    for outer, inner in zip(stages, stages[1:]):
        assert measure(intersect(inner.support, complement(outer.support))) == 0.0


def test_dilation_width_caps_at_half_cell():
    spacing = 2.0 * np.pi / 512
    assert dilation_width(1, spacing) == 0.45 * spacing
    assert dilation_width(20, spacing) == 2.0 ** -20


def test_degenerate_stages_for_zero_free_generator(grid):
    """A generator bounded below has an empty sublevel set at every stage;
    the unit collapses to the constant 1 and certification is vacuous."""
    cert = certify_mideal(ideal([example_boundary("two-plus-z", grid)], ["two-plus-z"]))
    assert cert.passed
    assert cert.strategy == "sublevel"
    assert cert.zero_angles == ()
    assert "whole algebra" in cert.conclusion
    assert any("degenerate stage" in note for note in cert.notes)
    stage = cert.stages[0]
    assert stage.degenerate
    assert stage.error == 0.0
    assert stage.sup_norm == 1.0
    assert stage.support_measure == 0.0
    assert stage.value_at_zero == 1.0 + 0.0j
    assert np.all(stage.unit.values == 1.0)


# ---------------------------------------------------------------------------
# peak powers
# ---------------------------------------------------------------------------

def test_peak_errors_match_closed_form(one_minus_z_spec):
    prep, stages = approx_unit_peak(one_minus_z_spec, DEFAULT_PEAK_SCHEDULE, tol=None)
    assert abs(prep.alpha - 1.0) < 1e-6
    assert not prep.rescaled
    assert prep.sup_base <= 1.0 + 1e-9
    for s in stages:
        assert s.error == pytest.approx(peak_error_closed_form(s.index), abs=1e-6)
        assert s.sup_norm <= 2.0
    assert stages[0].error == pytest.approx(0.5, abs=1e-12)


def test_peak_unit_is_one_minus_power(one_minus_z_spec):
    """u_n literally equals 1 - g^n and its error is sup |h g^n|."""
    prep, stages = approx_unit_peak(one_minus_z_spec, (1, 2, 4), tol=None)
    g_mid = 0.5 * (1.0 + prep.base.values)
    h = prep.half_generator.values
    for s in stages:
        assert np.max(np.abs(s.unit.values - (1.0 - g_mid ** s.index))) <= 1e-15
        assert s.error == pytest.approx(float(np.max(np.abs(h * g_mid ** s.index))), abs=1e-12)


def test_peak_schedule_stops_at_tolerance(one_minus_z_spec):
    _, stages = approx_unit_peak(one_minus_z_spec, DEFAULT_PEAK_SCHEDULE, tol=0.05)
    assert stages[-1].index == 200
    assert len(stages) == 9
    assert stages[-1].error == pytest.approx(0.042834698731624196, rel=1e-6)
    assert all(s.error > 0.05 for s in stages[:-1])


def test_peak_rejects_nonpositive_power(one_minus_z_spec):
    with pytest.raises(ValueError):
        approx_unit_peak(one_minus_z_spec, (0,))


def test_peak_needs_single_generator(grid):
    two = ideal(
        [example_boundary("one-minus-z", grid), example_boundary("one-plus-z", grid)]
    )
    with pytest.raises(StrategyInapplicable):
        approx_unit_peak(two)


def test_peak_rescales_oversized_generator(grid):
    """3(1-z) exceeds the unit ball; alignment shrinks it back onto the
    shift, so the stage errors reproduce the closed form almost exactly."""
    big = signal_from_values(grid, 3.0 * example_boundary("one-minus-z", grid).values)
    cert = certify_mideal(ideal([big], ["three-times"]), strategy="peak")
    assert cert.passed
    prep = cert.peak_prep
    assert prep.rescaled
    assert prep.scale == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert any(note.startswith("generator rescaled by") for note in cert.notes)
    for s in cert.stages:
        assert s.error == pytest.approx(peak_error_closed_form(s.index), abs=1e-4)
    assert cert.stages[-1].index == 200


def test_peak_range_miss(grid):
    f = example_boundary("two-plus-z", grid)
    with pytest.raises(RangeMiss, match="stays above"):
        prepare_peak(f)
    with pytest.raises(RangeMiss):
        certify_mideal(ideal([f], ["two-plus-z"]), strategy="peak")


def test_peak_norm_exceeded_for_full_sweep(grid):
    # z(1-z) sweeps every direction, so no rotation-plus-scaling keeps
    # 1 - c * conj(alpha) * f inside the closed unit ball.
    with pytest.raises(NormExceeded):
        prepare_peak(example_boundary("shift-times-one-minus-z", grid))


def test_peak_family_fails_for_singular_inner(grid):
    """The essential range of a singular inner function is the whole circle,
    so the averaged function has modulus 3/2 somewhere and the powers blow
    up instead of converging: no peak-style unit exists."""
    gv = example_boundary("singular-inner-1", grid).values
    coarse = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    sups = [float(np.max(np.abs(1.0 - np.exp(-1j * p) * gv))) for p in coarse]
    alpha = np.exp(1j * coarse[int(np.argmin(sups))])
    assert min(sups) > 1.999
    g_mid = 1.0 - np.conj(alpha) * gv / 2.0
    h = np.conj(alpha) * gv / 2.0
    errors = [float(np.max(np.abs(h * g_mid ** n))) for n in (1, 2, 4, 8, 16)]
    assert errors[0] == pytest.approx(0.75, rel=1e-4)
    assert all(b > a for a, b in zip(errors, errors[1:]))
    assert min(errors) >= 0.3


# ---------------------------------------------------------------------------
# combination
# ---------------------------------------------------------------------------

def test_combine_units_identities(small_grid):
    rng = np.random.default_rng(11)
    u = signal_from_values(
        small_grid, rng.normal(size=512) + 1j * rng.normal(size=512)
    )
    v = signal_from_values(
        small_grid, rng.normal(size=512) + 1j * rng.normal(size=512)
    )
    zeta = combine_units(u, v)
    assert np.max(np.abs((1.0 - zeta.values) - (1.0 - u.values) * (1.0 - v.values))) <= 1e-12
    one = constant_signal(small_grid, 1.0)
    zero = constant_signal(small_grid, 0.0)
    # (1 + v) - v re-rounds, so u = 1 absorbs v only up to an ulp or two
    assert np.max(np.abs(combine_units(one, v).values - 1.0)) <= 1e-12
    assert np.all(combine_units(zero, v).values == v.values)


def test_combine_units_grid_mismatch(grid, small_grid):
    with pytest.raises(ValueError):
        combine_units(constant_signal(grid, 1.0), constant_signal(small_grid, 1.0))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certify_one_minus_z(one_minus_z_cert):
    cert = one_minus_z_cert
    assert cert.passed
    assert cert.strategy == "sublevel"
    assert cert.failure_reason is None
    assert cert.notes == ("auto strategy resolved to sublevel",)
    assert cert.final_error == pytest.approx(0.0021992384929451908, rel=1e-6)
    assert cert.sup_bound <= 1.0 + 1e-9
    assert cert.zero_angles == (0.0,)
    assert cert.resolution == pytest.approx(
        8.0 * cert.ideal.grid.spacing, rel=1e-12
    )
    assert "certified" in cert.conclusion
    assert cert.final_unit is cert.stages[-1].unit


@pytest.mark.parametrize(
    "name", ["shift", "shift-squared", "singular-inner-1", "blaschke-half"]
)
def test_certify_rejects_inner_generators(grid, name):
    cert = certify_mideal(ideal([example_boundary(name, grid)], [name]))
    assert not cert.passed
    assert cert.failure_reason == "NotOuter"
    assert cert.stages == ()
    assert cert.final_error == float("inf")
    assert cert.final_unit is None
    assert "inner factor" in cert.conclusion


def test_certify_sublevel_needs_continuous_extension(grid):
    # the offset ramp vanishes at a point where its phase keeps oscillating
    cert = certify_mideal(
        ideal([example_boundary("offset-ramp", grid)], ["offset-ramp"]),
        strategy="sublevel",
    )
    assert not cert.passed
    assert cert.failure_reason == "NotInZinfty"


def test_certify_offset_ramp_auto_picks_peak(grid):
    cert = certify_mideal(ideal([example_boundary("offset-ramp", grid)], ["offset-ramp"]))
    assert cert.passed
    assert cert.strategy == "peak"
    assert cert.notes == ("auto strategy resolved to peak",)
    assert cert.peak_prep.alpha == pytest.approx(
        -0.831469612302545 + 0.5555702330196025j, abs=1e-9
    )
    assert not cert.peak_prep.rescaled
    assert [s.index for s in cert.stages] == [1, 2, 4, 8, 16]
    expected = (0.464965473606, 0.302675193756, 0.14124120839,
                0.0591043776146, 0.0111350470114)
    for s, e in zip(cert.stages, expected):
        assert s.error == pytest.approx(e, rel=1e-6)
    assert cert.sup_bound == pytest.approx(1.2055684562498414, rel=1e-6)


@pytest.mark.parametrize("strategy, extensions", [("auto", 1), ("peak", 0)])
def test_certify_analyses_the_generator_once(one_minus_z_spec, monkeypatch, strategy, extensions):
    """One zero-set estimate per generator; the peak route tests no extension."""
    calls = Counter()
    for name in ("essential_zero_set", "continuous_extension"):
        def counted(*args, _orig=getattr(hardylab.zerosets, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for module in (hardylab.ideals, hardylab.zerosets):
            monkeypatch.setattr(module, name, counted)
    assert certify_mideal(one_minus_z_spec, strategy=strategy).passed
    assert calls["essential_zero_set"] == 1
    assert calls["continuous_extension"] == extensions


def test_certify_norm_bound_enforced(one_minus_z_spec):
    cert = certify_mideal(one_minus_z_spec, bound=0.5)
    assert not cert.passed
    assert cert.failure_reason == "NormExceeded"
    assert cert.conclusion == "a unit escaped the sup bound"
    # the stages themselves are still reported for inspection
    assert cert.final_unit is not None


def test_certify_strategy_validation(grid, one_minus_z_spec):
    with pytest.raises(ValueError):
        certify_mideal(one_minus_z_spec, strategy="magic")
    two = ideal(
        [example_boundary("one-minus-z", grid), example_boundary("one-plus-z", grid)]
    )
    with pytest.raises(StrategyInapplicable):
        certify_mideal(two, strategy="sublevel")
    with pytest.raises(StrategyInapplicable):
        certify_mideal(one_minus_z_spec, strategy="combined")


def test_combined_disjoint_zero_sets(grid):
    """1-z and 1+z vanish at antipodal points; the diagonal unit is then
    bounded below on the whole circle and the ideal is everything."""
    cert = certify_mideal(
        ideal(
            [example_boundary("one-minus-z", grid), example_boundary("one-plus-z", grid)],
            ["one-minus-z", "one-plus-z"],
        )
    )
    assert cert.passed
    assert cert.strategy == "combined"
    assert cert.zero_angles == ()
    assert cert.combined_inf == pytest.approx(0.9999987900770978, abs=1e-6)
    assert cert.combined_inf > 0.9
    assert "(I = I(1))" in cert.conclusion
    assert cert.final_error < 1e-4
    assert cert.sup_bound <= 2.0
    assert [c.passed for c in cert.sub_certificates] == [True, True]
    assert [c.strategy for c in cert.sub_certificates] == ["sublevel", "sublevel"]
    assert len(cert.stages) == 1
    assert len(cert.stages[0].errors) == 2


MEMBER_PANEL = {
    "one-minus-z": True,
    "one-minus-z-squared": True,
    "shift-times-one-minus-z": True,
    "two-point-product": True,
    "exp-z": False,
    "shift": False,
    "constant-one": False,
    "singular-inner-1": False,
    "one-plus-z": False,
}


def test_combined_shared_zero_set(grid, one_minus_z_cert):
    cert = certify_mideal(
        ideal(
            [
                example_boundary("one-minus-z", grid),
                example_boundary("one-minus-z-squared", grid),
            ],
            ["one-minus-z", "one-minus-z-squared"],
        )
    )
    assert cert.passed
    assert cert.zero_angles == (0.0,)
    assert 0.0 < cert.final_error <= cert.tol
    assert "share their essential zero set" in cert.conclusion
    assert "singly generated" in cert.conclusion
    # membership through the pair certificate agrees with the principal one
    for name, expected in MEMBER_PANEL.items():
        h = example_boundary(name, grid)
        assert membership(h, cert) is expected
        assert membership(h, one_minus_z_cert) is expected


def test_combined_fails_when_a_generator_is_inner(grid):
    cert = certify_mideal(
        ideal(
            [example_boundary("one-minus-z", grid), example_boundary("shift", grid)],
            ["one-minus-z", "shift"],
        )
    )
    assert not cert.passed
    assert cert.failure_reason == "NotOuter"
    assert cert.conclusion == "a generator failed its own certification"
    assert len(cert.sub_certificates) == 2
    assert not cert.sub_certificates[1].passed


def test_membership_requires_passing_certificate(grid):
    failed = certify_mideal(ideal([example_boundary("shift", grid)], ["shift"]))
    assert not failed.passed
    with pytest.raises(NotCertified):
        membership(example_boundary("one-minus-z", grid), failed)


def test_division_property(grid, one_minus_z_cert):
    """Dividing out an essentially invertible factor stays in the ideal."""
    two_plus_z = example_boundary("two-plus-z", grid)
    assert analytic_prime_check(
        one_minus_z_cert, two_plus_z, example_boundary("one-minus-z", grid), delta=0.9
    )
    assert analytic_prime_check(
        one_minus_z_cert, two_plus_z, example_boundary("one-minus-z-times-exp", grid)
    )
    # a unimodular divisor is fine: the shift is bounded below by 1
    assert analytic_prime_check(
        one_minus_z_cert,
        example_boundary("shift", grid),
        example_boundary("one-minus-z", grid),
        delta=0.9,
    )


def test_division_property_hypothesis_gates(grid, one_minus_z_cert):
    with pytest.raises(HypothesisFailed, match="divisor modulus"):
        analytic_prime_check(
            one_minus_z_cert,
            example_boundary("one-minus-z", grid),
            example_boundary("two-plus-z", grid),
        )
    with pytest.raises(HypothesisFailed, match="product"):
        analytic_prime_check(
            one_minus_z_cert,
            example_boundary("two-plus-z", grid),
            example_boundary("exp-z", grid),
        )


def test_banded_profile_two_regimes(grid):
    """The banded log-modulus decays too slowly for the default schedule:
    its stage errors plateau well above tolerance. Pushing the schedule to
    the clip floor empties the sublevel sets and the tail is degenerate."""
    spec = ideal([example_boundary("banded-logmod", grid)], ["banded-logmod"])
    cert = certify_mideal(spec)
    assert not cert.passed
    assert cert.failure_reason == "tolerance"
    assert cert.final_error == pytest.approx(2.7488171959041861, rel=1e-6)
    errors = [s.error for s in cert.stages]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert cert.sup_bound <= 1.0 + 1e-9

    extended = certify_mideal(spec, stages=tuple(range(1, 32)))
    assert extended.passed
    assert extended.final_error == 0.0
    assert [s.index for s in extended.stages if s.degenerate] == [30, 31]
