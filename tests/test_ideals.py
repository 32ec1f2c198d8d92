"""Approximate units and ideal certificates.

The frozen decimals in this module were measured once on the reference
16384-node grid and act as regression guards; every structural claim
(dichotomy bounds, nesting, closed-form stage errors) is asserted
independently of them.
"""

import cmath
import dataclasses
import functools
import itertools
import math
import re
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

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
    catalog_names,
    certify_mideal,
    constant_signal,
    essential_zero_set,
    example_boundary,
    ideal,
    membership,
    signal_from_values,
    synth_outer,
)
import hardylab.hardy
import hardylab.ideals
import hardylab.zerosets
from hardylab.grid import _level_cut, circular_distance
from hardylab.ideals import (
    DEFAULT_MAIN_STAGES,
    DEFAULT_PEAK_SCHEDULE,
    MAX_STAGE,
    SUP_SLACK,
    combine_units,
    prepare_peak,
    stage_unit,
)
from hardylab.serialize import certificate_report, dumps, stage_report
from oracles import (
    SUBLEVEL_FIELDS,
    aligned_or_refused,
    peak_alignment_fault,
    peak_product,
    peak_scale_bisection,
    peak_stages_complex,
    peak_sup_norms_mp,
    peak_unit_error_mp,
    prepare_peak_scan,
    random_product,
    sublevel_stages_complex,
)


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
    with pytest.raises(ZeroFunction, match="^input is identically zero$"):
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
    assert f.inf_abs == pytest.approx(1.0, abs=1e-12)
    assert example_boundary("one-minus-z", small_grid).inf_abs == 0.0


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


def _support(spec, m: int) -> np.ndarray:
    """The node mask of the sublevel support A_m: max_i log|g_i| < _level_cut(m)."""
    return np.maximum.reduce([g.log_abs for g in spec.generators]) < _level_cut(m)


def _level_answers(f) -> tuple:
    """Every answer read from the sublevel sets of ``f``: the support measure of
    stages 1 .. 12 and the essential zero set's angles."""
    stages = approx_unit_sublevel(ideal([f]), range(1, 13))
    return [s.support_measure for s in stages], essential_zero_set(f).angles


@pytest.mark.parametrize("name", catalog_names())
def test_level_answers_survive_a_roundoff_move(name):
    """A node whose log-modulus sits on a level -m stays on one side of it: each
    sample times 1 + 1e-14 u, u uniform in [-1, 1], moves no stage support and
    no zero angle. banded-logmod has hundreds of nodes on its integer levels,
    and exp-z and shift-exp one node on level 1; only the cut's margin keeps
    their side from following the last bit of their logarithm."""
    for size in (512, 4096, 16384):
        grid = CircleGrid(size)
        f = example_boundary(name, grid)
        want = _level_answers(f)
        for draw in range(3):
            u = np.random.default_rng([catalog_names().index(name), size, draw]).uniform(-1.0, 1.0, size)
            assert _level_answers(signal_from_values(grid, f.values * (1.0 + 1e-14 * u))) == want, (size, draw)


def test_sublevel_supports_nest(small_grid):
    """A_(m+1) sits inside A_m, and its measure is no larger."""
    spec = ideal([example_boundary("one-minus-z", small_grid)], ["one-minus-z"])
    stages = approx_unit_sublevel(spec, range(1, 10))
    for outer, inner in zip(stages, stages[1:]):
        assert not np.any(_support(spec, inner.index) & ~_support(spec, outer.index))
        assert inner.support_measure <= outer.support_measure


@pytest.mark.parametrize(
    "masked",
    [[62, 63, 0, 1], [5, 6, 7, 20], list(range(64))],
    ids=["run-through-node-0", "two-runs", "full-circle"],
)
def test_support_measure_counts_support_nodes(masked):
    """A stage measures the nodes it is supported on, one cell of measure 1/N
    each, however they fall into runs; the full circle measures 1."""
    g = CircleGrid(64)
    values = np.ones(64, dtype=complex)
    values[masked] = 1e-6  # below e^-12, so every stage masks the same nodes
    spec = ideal([signal_from_values(g, values)], ["g"])
    stages = approx_unit_sublevel(spec, (1, 6, 12))
    for stage in stages:
        assert np.flatnonzero(_support(spec, stage.index)).tolist() == sorted(masked)
        assert stage.on_support_max == pytest.approx(1e-6, rel=1e-12)
        assert stage.support_measure == len(masked) / 64


@pytest.mark.parametrize("c, n", [
    *((1e-3, n) for n in (512, 4096, 16384)),
    *(pytest.param(1e-4, n, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 6"))
      for n in (512, 4096, 16384)),
])
def test_a_small_constant_generates_the_whole_algebra(c, n):
    """A nonzero constant is invertible, so its ideal is the whole algebra.
    1e-3 sits above the finest level e^-8; 1e-4 sits below it at every node,
    so the whole circle is one sublevel run and its midpoint reads as a zero."""
    f = constant_signal(CircleGrid(n), c)
    assert essential_zero_set(f).angles == ()
    cert = certify_mideal(ideal([f], ["c"]))
    assert cert.passed
    assert cert.zero_angles == ()
    assert "whole algebra" in cert.conclusion


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
    assert all(s.degenerate for s in cert.stages)
    assert np.all(cert.final_unit.values == 1.0)
    # every degenerate stage's unit is the constant 1
    for s in approx_unit_sublevel(cert.ideal, DEFAULT_MAIN_STAGES):
        assert np.all(stage_unit(cert.ideal, s).values == 1.0)


# A certificate keeps its statistics and no per-node array: no stage keeps
# its support or its unit, and a combined certificate keeps no unit of its
# sub-certificates. What is left is each generator's cached log-modulus,
# 0.5 MiB, read by ideal(). The five certificates keep 0.504, 0.506, 0.506,
# 1.013 and 1.517 MiB; each limit leaves under 0.1 MiB over that.
@pytest.mark.parametrize("name, strategy, limit_mib", [
    # every stage degenerate
    ("two-plus-z", "auto", 0.6),
    ("one-minus-z", "sublevel", 0.6),
    ("one-minus-z", "peak", 0.6),
    # two sub-certificates; the fold builds their units one at a time
    ("one-minus-z,one-minus-z-squared", "combined", 1.1),
    ("one-minus-z,one-minus-z-squared,one-minus-z-times-exp", "combined", 1.6),
])
def test_memory_a_certificate_keeps_at_65536_nodes(name, strategy, limit_mib):
    names = name.split(",")
    # numpy imports some submodules on first use; keep that out of the count
    certify_mideal(ideal([example_boundary(n, CircleGrid(4096)) for n in names]), strategy=strategy)
    gens = [example_boundary(n, CircleGrid(65536)) for n in names]
    tracemalloc.start()
    try:  # ideal() reads the generators' cached fields, so they count here
        cert = certify_mideal(ideal(gens, names), strategy=strategy)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cert.passed
    assert kept <= limit_mib * 2**20


def test_memory_peak_of_a_sublevel_certificate_at_65536_nodes():
    # stages build no unit: their statistics come from plain arrays, and
    # they keep none; the certificate peaks at 4.19-4.21 MiB, and the limit
    # is the higher plus 5 %
    certify_mideal(ideal([example_boundary("one-minus-z", CircleGrid(4096))]))
    f = example_boundary("one-minus-z", CircleGrid(65536))
    tracemalloc.start()
    try:
        cert = certify_mideal(ideal([f]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.passed
    assert cert.strategy == "sublevel"
    assert peak <= 4.42 * 2**20


# The fold holds one sub-unit, the running fold and their combination at a
# time, and no stage holds a mask: the pair peaks at 5.67 MiB and the
# triple at 7.08 MiB. A sub-unit and the masks kept per sub-certificate
# would push them past these limits.
@pytest.mark.parametrize("names, limit_mib", [
    (("one-minus-z", "one-minus-z-squared"), 6.2),
    (("one-minus-z", "one-minus-z-squared", "one-minus-z-times-exp"), 7.6),
])
def test_memory_peak_of_a_combined_certificate_at_65536_nodes(names, limit_mib):
    certify_mideal(ideal([example_boundary(n, CircleGrid(4096)) for n in names]))
    gens = [example_boundary(n, CircleGrid(65536)) for n in names]
    tracemalloc.start()
    try:
        cert = certify_mideal(ideal(gens, names))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.passed
    assert cert.strategy == "combined"
    assert peak <= limit_mib * 2**20


def _distinct_masks(table) -> int:
    """The number of stages of ``table`` that computed their statistics: one
    per distinct nonempty mask."""
    return len({s.support_measure for s in table if not s.degenerate})


@pytest.mark.parametrize("stages", [(9, 10, 11, 12), (12, 3, 11, 3)])
@pytest.mark.parametrize("names", [
    ("one-minus-z",), ("two-point-product",), ("one-minus-z", "two-point-product"),
])
def test_repeated_masks_reuse_their_stage_exactly(monkeypatch, names, stages):
    """Stages with equal support counts share one mask wherever they stand in
    the list, and the mask takes one transform: (12, 3, 11, 3) on 1 - z at
    65536 nodes takes two, where a stage-by-stage table takes four. Each
    record is its stage run alone, field by field and bit for bit (the repr
    of a float is its bits), and so is its unit; only index and eps move."""
    spec = ideal([example_boundary(name, CircleGrid(65536)) for name in names], names)
    calls = []
    orig = hardylab.ideals._conjugate_rfft

    def counted(k):
        calls.append(k.size)
        return orig(k)

    monkeypatch.setattr(hardylab.ideals, "_conjugate_rfft", counted)
    table = approx_unit_sublevel(spec, stages)
    # the reuse is exercised: fewer transforms than stages with a mask
    assert len(calls) == _distinct_masks(table) < sum(not s.degenerate for s in table)
    if names == ("one-minus-z",) and stages == (12, 3, 11, 3):
        assert len(calls) == 2
    for m, s in zip(stages, table, strict=True):
        (alone,) = approx_unit_sublevel(spec, (m,))
        assert repr(dataclasses.astuple(s)) == repr(dataclasses.astuple(alone)), m
        assert np.array_equal(stage_unit(spec, s).values, stage_unit(spec, alone).values)


class _CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.mark.parametrize("name", [*catalog_names(), *(f"product-{seed}" for seed in range(6))])
def test_split_stage_table_is_each_stage_alone_bit_for_bit(monkeypatch, name):
    """At 65536 nodes every second distinct mask is computed on a second
    thread; the table is, field by field and bit for bit (the repr of a float
    is its bits), each stage computed alone on the calling thread. A thread
    starts exactly when there are two distinct masks to split."""
    n = 65536
    f = random_product(int(name[8:]), n)[1] if name.startswith("product-") else (
        example_boundary(name, CircleGrid(n)))
    spec = ideal([f], [name])
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    _CountedThread.started = 0
    table = approx_unit_sublevel(spec)
    assert _CountedThread.started == (_distinct_masks(table) >= 2)
    for m, s in zip(DEFAULT_MAIN_STAGES, table, strict=True):
        (alone,) = approx_unit_sublevel(spec, (m,))
        assert repr(dataclasses.astuple(s)) == repr(dataclasses.astuple(alone)), m
    assert _CountedThread.started <= 1


@pytest.mark.parametrize("n", [4096, 16384])
def test_no_thread_starts_below_the_split_floor(monkeypatch, n):
    def refused(*args, **kwargs):
        raise AssertionError("a thread was started")

    spec = ideal([example_boundary("one-minus-z", CircleGrid(n))])
    monkeypatch.setattr(threading, "Thread", refused)
    assert _distinct_masks(approx_unit_sublevel(spec)) >= 2  # enough stages to split


@pytest.mark.parametrize("failing", ["second thread", "calling thread"])
def test_an_error_in_either_half_reaches_the_caller_and_leaves_no_thread(monkeypatch, failing):
    """A MemoryError in a stage of either half leaves ``approx_unit_sublevel``
    with that error, after the second thread has ended."""
    caller = threading.current_thread()
    orig = hardylab.ideals._conjugate_rfft

    def transform(k):
        if (threading.current_thread() is caller) == (failing == "calling thread"):
            raise MemoryError(failing)
        return orig(k)

    spec = ideal([example_boundary("one-minus-z", CircleGrid(65536))])
    assert _distinct_masks(approx_unit_sublevel(spec)) >= 2
    before = threading.active_count()
    monkeypatch.setattr(hardylab.ideals, "_conjugate_rfft", transform)
    with pytest.raises(MemoryError, match=failing):
        approx_unit_sublevel(spec)
    assert threading.active_count() == before


def test_concurrent_callers_each_get_the_one_thread_table(monkeypatch):
    """Four callers at once, each with its own second thread, so eight
    threads share the stage work of one ideal on two cores, with a 10 us
    switch interval: every table is the table computed on one thread."""
    spec = ideal([example_boundary("one-minus-z", CircleGrid(65536))])
    with monkeypatch.context() as patch:
        patch.setattr(hardylab.ideals, "_SPLIT_FLOOR", 1 << 40)
        want = repr(approx_unit_sublevel(spec))
    tables = []
    callers = [threading.Thread(target=lambda: tables.append(repr(approx_unit_sublevel(spec))))
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert tables == [want] * 4


#: (a, b) of outer generators with log-modulus a + b cos(t), which reaches
#: past e^30 on an arc; no node lies below e^-12.
_ABOVE_E30 = [(11.0, 21.0), (12.6, 22.6), (340.0, 365.0)]


def _cosine_outer(grid: CircleGrid, a: float, b: float):
    return synth_outer(signal_from_values(grid, a + b * np.cos(grid.nodes))).boundary


@pytest.mark.parametrize("n", [512, 4096, 65536])
def test_every_sublevel_unit_has_sup_one_to_rounding(n):
    """Off its support a unit has modulus |g| e^{-log|g|}, and on it |g| < e^-m,
    so every stage's sup is 1 to rounding, at every scale of the generator;
    ``member`` and ``prime-check`` gate only the last stage on it."""
    grid = CircleGrid(n)
    gens = [(name, example_boundary(name, grid)) for name in catalog_names()]
    gens += [(f"product-{seed}", random_product(seed, n)[1]) for seed in range(40)]
    gens += [(f"cosine-{a}-{b}", _cosine_outer(grid, a, b)) for a, b in _ABOVE_E30]
    for name, g in gens:
        for s in approx_unit_sublevel(ideal([g], [name])):
            assert abs(s.sup_norm - 1.0) <= 1e-14, (name, s.index, s.sup_norm)


@pytest.mark.parametrize("a, b", _ABOVE_E30[:2])
def test_a_generator_above_e30_passes_the_sup_gate(a, b):
    """A generator past e^30 on 14% or 22% of the nodes is neither refused as
    unbounded log data nor fails the sup gate: its cofactor is not clipped."""
    cert = certify_mideal(ideal([_cosine_outer(CircleGrid(4096), a, b)]))
    assert cert.passed and cert.failure_reason is None
    assert abs(cert.sup_bound - 1.0) <= 1e-14


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
    """u_n literally equals 1 - g^n and its error is sup |h g^n|, at every
    stage."""
    prep, stages = approx_unit_peak(one_minus_z_spec, (1, 2, 4), tol=None)
    w = prep.scale * np.conj(prep.alpha) * one_minus_z_spec.generators[0].values
    g_mid = 0.5 * (1.0 + (1.0 - w))
    h = 0.5 * w
    for s in stages:
        u = stage_unit(one_minus_z_spec, s).values
        assert np.max(np.abs(u - (1.0 - g_mid ** s.index))) <= 1e-15
        assert s.error == pytest.approx(float(np.max(np.abs(h * g_mid ** s.index))), abs=1e-12)
    assert [s.index for s in stages] == [1, 2, 4]


def test_an_ideal_aligns_its_generator_once(monkeypatch):
    """A peak certificate, its final unit and a peak construction on the same
    ideal share one alignment: ``prepare_peak`` runs once."""
    calls = []
    orig = hardylab.ideals.prepare_peak

    def counted(f):
        calls.append(f)
        return orig(f)

    monkeypatch.setattr(hardylab.ideals, "prepare_peak", counted)
    spec = ideal([example_boundary("one-minus-z", CircleGrid(4096))])
    cert = certify_mideal(spec, strategy="peak")
    assert cert.passed and cert.final_unit is not None
    prep, _ = approx_unit_peak(spec, (1, 2), tol=None)
    assert prep is cert.peak_prep
    assert calls == [spec.generators[0]]


def test_a_peak_stage_unit_depends_only_on_the_generator_and_the_stage():
    """A fresh ideal of the same generator builds the construction's unit of
    a peak stage, bit for bit."""
    f = example_boundary("one-minus-z-times-exp", CircleGrid(4096))
    spec = ideal([f])
    _, stages = approx_unit_peak(spec, (1, 8, 64), tol=None)
    for s in stages:
        assert np.array_equal(stage_unit(ideal([f]), s).values, stage_unit(spec, s).values), s.index


def test_peak_schedule_stops_at_tolerance(one_minus_z_spec):
    _, stages = approx_unit_peak(one_minus_z_spec, DEFAULT_PEAK_SCHEDULE, tol=0.05)
    assert stages[-1].index == 200
    assert len(stages) == 9
    assert stages[-1].error == pytest.approx(0.042834698731624196, rel=1e-6)
    assert all(s.error > 0.05 for s in stages[:-1])


def test_sublevel_stage_past_underflow_refused(one_minus_z_spec):
    # e^-745 is the smallest subnormal double; e^-746 rounds to zero
    (stage,) = approx_unit_sublevel(one_minus_z_spec, (MAX_STAGE,))
    assert stage.eps > 0.0 and stage.degenerate
    for m in (MAX_STAGE + 1, 10 ** 20):
        with pytest.raises(ValueError, match="at most 745"):
            approx_unit_sublevel(one_minus_z_spec, (1, m))


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


def assert_scale_matches_bisection(values: np.ndarray, grid: CircleGrid) -> None:
    prep = prepare_peak(signal_from_values(grid, values))
    assert prep.rescaled
    oracle = peak_scale_bisection(np.conj(prep.alpha) * values)
    # the bisection's last steps land inside the predicate's roundoff
    assert prep.scale == pytest.approx(oracle, rel=1e-7)


@pytest.mark.parametrize("factor,name,n", [
    (3.0, "one-minus-z", 4096),
    (3.0, "one-minus-z", 65536),
    (1.5, "one-minus-z-times-exp", 4096),
    (1.5, "one-minus-z-times-exp", 65536),
    (1.0, "one-minus-singular-i", 65536),
])
def test_peak_scale_matches_bisection_oracle(factor, name, n):
    grid = CircleGrid(n)
    assert_scale_matches_bisection(factor * example_boundary(name, grid).values, grid)


@given(
    st.sampled_from(["one-minus-z", "one-minus-z-times-exp"]),
    st.floats(min_value=1.5, max_value=1e6),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
@settings(max_examples=30, deadline=None)
def test_peak_scale_matches_bisection_when_rotated_and_scaled(name, factor, phase):
    grid = CircleGrid(4096)
    values = factor * np.exp(1j * phase) * example_boundary(name, grid).values
    assert_scale_matches_bisection(values, grid)


def test_peak_overflow_guard_refuses_like_the_arcs(monkeypatch):
    # 4e9 (1-z) has sup 8e9 and is refused after the arcs, for its scale;
    # 1e10 (1-z) has sup 2e10 and is refused before them, with the same error
    grid = CircleGrid(4096)
    base = example_boundary("one-minus-z", grid).values
    arcs = []
    feasible_arc = hardylab.ideals._feasible_arc
    monkeypatch.setattr(hardylab.ideals, "_feasible_arc", lambda r, *args: arcs.append(r.size) or feasible_arc(r, *args))
    payloads = []
    for factor in (4e9, 1e10):
        with pytest.raises(NormExceeded) as exc:
            prepare_peak(signal_from_values(grid, factor * base))
        payloads.append(exc.value.payload())
    # no angle at c = 1, nor at c = 1e-8
    assert arcs == [4096, 4096]
    assert payloads[0] == payloads[1]


def assert_holds_to_the_scan(f):
    """The arcs' alignment of ``f`` holds to the rotation scan's
    (``oracles.peak_alignment_fault``)."""
    arc, scan = aligned_or_refused(prepare_peak, f), aligned_or_refused(prepare_peak_scan, f)
    assert peak_alignment_fault(arc, scan, f) == "", (arc, scan)


@pytest.mark.parametrize("n", [512, 4096, 65536])
@pytest.mark.parametrize("name", catalog_names())
def test_arc_alignment_holds_to_the_rotation_scan(name, n):
    f = example_boundary(name, CircleGrid(n))
    assert_holds_to_the_scan(f)
    # on the catalog the two refuse alike
    assert isinstance(aligned_or_refused(prepare_peak, f), str) == isinstance(aligned_or_refused(prepare_peak_scan, f), str)


@given(
    st.lists(st.integers(min_value=0, max_value=2 * 4096 - 1), min_size=1, max_size=3),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
    st.tuples(
        st.integers(min_value=0, max_value=4095),
        st.integers(min_value=1, max_value=15),
        st.floats(min_value=0.0, max_value=4.0),
    ),
)
@settings(max_examples=60, deadline=None)
def test_arc_alignment_holds_to_the_rotation_scan_on_products(half_nodes, c, scale, rotation, spike):
    # zeros on nodes (even) or halfway between them (odd), and a spike of a
    # few nodes, which can bound the arc alone
    zeros = [k / 2 for k in half_nodes]
    assert_holds_to_the_scan(peak_product(4096, zeros, c, scale, rotation, spike))


@given(
    st.integers(min_value=0, max_value=2 * 4096 - 1),
    st.floats(min_value=-0.3, max_value=0.3),
    st.floats(min_value=0.2, max_value=1.0),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
    st.tuples(
        st.integers(min_value=0, max_value=4095),
        st.integers(min_value=1, max_value=15),
        st.floats(min_value=0.0, max_value=0.5),
    ),
)
@settings(max_examples=40, deadline=None)
def test_arc_alignment_holds_to_the_rotation_scan_on_aligned_products(half_node, c, scale, rotation, spike):
    # one zero and small c and scale, so most products align; a zero halfway
    # between nodes leaves a least sup below 1, which the lower arcs reach
    assert_holds_to_the_scan(peak_product(4096, [half_node / 2], c, scale, rotation, spike))


#: The catalog entries that prepare_peak aligns at 4096 and 65536 nodes.
PEAK_CAPABLE = ("offset-ramp", "one-minus-singular-i", "one-minus-z", "one-minus-z-times-exp", "one-plus-z")


def test_the_peak_capable_entries_are_the_catalog_entries_that_align():
    for n in (4096, 65536):
        grid = CircleGrid(n)
        aligned = [name for name in catalog_names()
                   if not isinstance(aligned_or_refused(prepare_peak, example_boundary(name, grid)), str)]
        assert tuple(aligned) == PEAK_CAPABLE


def rotated(f, theta: float):
    return signal_from_values(f.grid, cmath.exp(1j * theta) * f.values)


def seeded_turn(n: int, draw: int) -> float:
    return float(np.random.default_rng([n, draw]).uniform(0.0, 2.0 * np.pi))


@pytest.mark.parametrize("draw", range(4))
@pytest.mark.parametrize("n", [4096, 65536])
@pytest.mark.parametrize("name", PEAK_CAPABLE)
def test_alignment_turns_with_the_generator(name, n, draw):
    # prepare_peak(e^{i theta} G) is prepare_peak(G) turned by theta: no
    # angle of a scan or a search depends on where G points
    f = example_boundary(name, CircleGrid(n))
    prep = prepare_peak(f)
    theta = seeded_turn(n, draw)
    turned = prepare_peak(rotated(f, theta))
    assert abs(turned.alpha - prep.alpha * cmath.exp(1j * theta)) <= 1e-12
    assert turned.scale == pytest.approx(prep.scale, abs=1e-12)
    assert turned.sup_base == pytest.approx(prep.sup_base, abs=1e-12)
    assert turned.rescaled == prep.rescaled


def rotated_sup(f, phi: float) -> float:
    """sup |1 - e^{-i phi} G| in complex arithmetic."""
    return float(np.max(np.abs(1.0 - cmath.exp(-1j * phi) * f.values)))


def arc_of(f, slack: float = SUP_SLACK):
    return hardylab.ideals._feasible_arc(np.abs(f.values), np.angle(f.values), slack)


@pytest.mark.parametrize("draw", range(3))
@pytest.mark.parametrize("n", [4096, 65536])
@pytest.mark.parametrize("name", PEAK_CAPABLE)
def test_the_feasible_arc_is_maximal(name, n, draw):
    # both ends, 1e-12 inwards, keep the sup within SUP_SLACK of 1, and
    # 1e-6 past either end does not, where the arc is wider than 1e-5; an
    # entry that is rescaled has no arc at c = 1
    f = example_boundary(name, CircleGrid(n))
    g = rotated(f, seeded_turn(n, draw) if draw else 0.0)
    arc = arc_of(g)
    if prepare_peak(g).rescaled:
        assert arc is None
        return
    lo, hi = arc
    assert 1e-12 < hi - lo < np.pi
    assert rotated_sup(g, lo + 1e-12) <= 1.0 + SUP_SLACK
    assert rotated_sup(g, hi - 1e-12) <= 1.0 + SUP_SLACK
    if hi - lo > 1e-5:
        assert rotated_sup(g, lo - 1e-6) > 1.0 + SUP_SLACK
        assert rotated_sup(g, hi + 1e-6) > 1.0 + SUP_SLACK


def feasible_angles(f, count: int) -> np.ndarray:
    """Which of ``count`` equally spaced angles keep the sup within
    ``SUP_SLACK`` of 1, from the complex sup at each."""
    phis = np.linspace(-np.pi, np.pi, count, endpoint=False)
    return phis, np.array([rotated_sup(f, phi) <= 1.0 + SUP_SLACK for phi in phis])


def test_an_arc_across_the_cut_at_pi_is_found_whole():
    # offset-ramp's arc at 4096 nodes is 0.62 wide, turned to cover pi from
    # 0.2 before it to 0.42 after it: the arc is found whole across the cut,
    # and alpha, feasible, sits at its centre, as dense angles place it
    f = example_boundary("offset-ramp", CircleGrid(4096))
    lo, hi = arc_of(f)
    width = hi - lo
    assert width == pytest.approx(0.6234, abs=1e-4)
    g = rotated(f, np.pi - 0.2 - lo)
    lo, hi = arc_of(g)
    assert math.remainder(lo, 2 * np.pi) == pytest.approx(np.pi - 0.2, abs=1e-12)
    assert math.remainder(hi, 2 * np.pi) == pytest.approx(-np.pi + width - 0.2, abs=1e-12)
    prep = prepare_peak(g)
    assert not prep.rescaled and prep.sup_base <= 1.0 + SUP_SLACK
    assert abs(prep.alpha - cmath.exp(0.5j * (lo + hi))) <= 1e-12
    phis, ok = feasible_angles(g, 4096)
    # the feasible angles are one run across the cut: every angle but a run
    # of infeasible ones, whose middle is opposite alpha
    bad = np.flatnonzero(~ok)
    assert np.all(np.diff(bad) == 1)
    opposite = 0.5 * (phis[bad[0]] + phis[bad[-1]])
    assert abs(cmath.exp(1j * opposite) + prep.alpha) <= 4 * np.pi / 4096


def test_arcs_that_meet_in_two_pieces_give_one_of_them():
    # values of modulus 2e-9 allow arcs of half-width 2 pi / 3 at
    # SUP_SLACK = 1e-9, so opposite ones meet in two pieces, around pi/2 and
    # -pi/2; a third node trims the second, and alpha sits at the centre of
    # the first, which dense angles confirm is feasible and the wider
    values = np.zeros(8, dtype=complex)
    values[1:4] = 2e-9, -2e-9, 2e-9 * cmath.exp(0.6j)
    f = signal_from_values(CircleGrid(8), values)
    lo, hi = arc_of(f)
    half = math.acos((4e-18 - 2e-9 - 1e-18) / 4e-9)
    assert lo == pytest.approx(np.pi - half, abs=1e-12) and hi == pytest.approx(half, abs=1e-12)
    prep = prepare_peak(f)
    assert prep.alpha == pytest.approx(1j, abs=1e-12) and prep.sup_base <= 1.0 + SUP_SLACK
    phis, ok = feasible_angles(f, 4096)
    runs = np.split(phis[ok], np.flatnonzero(np.diff(np.flatnonzero(ok)) > 1) + 1)
    assert len(runs) == 2
    widest = max(runs, key=lambda run: run[-1] - run[0])
    assert widest[0] <= np.pi / 2 <= widest[-1]


@pytest.mark.parametrize("n", [65536, 2 ** 18])
def test_peak_rescales_where_no_angle_is_left(n):
    # at c = 1 one-minus-singular-i leaves no angle within SUP_SLACK of 1;
    # the bisection on c scales it into the unit ball, to rounding of the
    # closed-form scale, and no less far than the rotation scan does
    f = example_boundary("one-minus-singular-i", CircleGrid(n))
    assert arc_of(f) is None
    prep = prepare_peak(f)
    assert prep.rescaled
    assert prep.sup_base <= 1.0 + 1e-12 + 1e-15
    assert rotated_sup(f, cmath.phase(prep.alpha)) > 1.0 + SUP_SLACK
    assert prep.scale >= prepare_peak_scan(f).scale * (1.0 - 1e-7)


def test_an_alignment_is_one_pass_over_the_arcs(monkeypatch):
    # no scan and no search: one arc for one-minus-z and offset-ramp; a zero
    # between two nodes leaves a least sup below 1, and each further arc is
    # at the level of the last centre, lower each time
    arcs = []
    feasible_arc = hardylab.ideals._feasible_arc
    monkeypatch.setattr(hardylab.ideals, "_feasible_arc", lambda r, *args: arcs.append(args[-1]) or feasible_arc(r, *args))
    for name in ("one-minus-z", "offset-ramp"):
        prepare_peak(example_boundary(name, CircleGrid(65536)))
    assert arcs == [SUP_SLACK, SUP_SLACK]
    arcs.clear()
    prep = prepare_peak(peak_product(4096, [1267.5], 0.284, 0.603, 4.734))
    assert arcs[0] == SUP_SLACK and 0.0 > arcs[1] > arcs[-1] >= prep.sup_base - 1.0


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
    unit = cert.final_unit
    assert unit is not None
    assert cert.final_unit is unit  # built on the first read, then kept
    assert np.array_equal(unit.values, stage_unit(cert.ideal, cert.stages[-1]).values)


@pytest.mark.parametrize("names", [
    ("one-minus-z", "one-minus-z-squared"),
    ("one-minus-z", "one-plus-z", "two-plus-z"),
])
def test_a_combined_certificate_keeps_no_unit_of_its_sub_certificates(names):
    """The combined step folds the sub-certificates' last-stage units one at
    a time and leaves none cached on them; the final unit is that fold, bit
    for bit, and a sub-certificate still builds and keeps its unit when read."""
    grid = CircleGrid(4096)
    cert = certify_mideal(ideal([example_boundary(n, grid) for n in names], names))
    assert cert.passed and len(cert.sub_certificates) == len(names)
    assert all("final_unit" not in vars(sub) for sub in cert.sub_certificates)
    units = [stage_unit(sub.ideal, sub.stages[-1]) for sub in cert.sub_certificates]
    fold = functools.reduce(combine_units, units)
    assert np.array_equal(cert.final_unit.values, fold.values)
    assert all("final_unit" not in vars(sub) for sub in cert.sub_certificates)
    sub = cert.sub_certificates[0]
    assert np.array_equal(sub.final_unit.values, units[0].values)
    assert "final_unit" in vars(sub)


def test_a_certificate_builds_its_unit_once_and_only_when_read(monkeypatch):
    """A sublevel certificate takes one conjugate per distinct stage mask and
    builds no unit; the first read of ``final_unit`` takes one conjugate
    more, and a second read and ``membership`` take none. Each conjugate is
    one call of ``_conjugate_rfft``, the transform and its multiplier: the
    table calls it, and ``stage_unit`` calls it through ``hardy.conjugate``."""
    calls = []
    orig = hardylab.ideals._conjugate_rfft

    def counted(k):
        calls.append(k.size)
        return orig(k)

    monkeypatch.setattr(hardylab.ideals, "_conjugate_rfft", counted)
    monkeypatch.setattr(hardylab.hardy, "_conjugate_rfft", counted)
    grid = CircleGrid(4096)
    cert = certify_mideal(ideal([example_boundary("one-minus-z", grid)]), strategy="sublevel")
    masks = len({_support(cert.ideal, s.index).tobytes() for s in cert.stages})
    assert masks < len(cert.stages)  # a repeated mask takes no conjugate
    assert len(calls) == masks
    unit = cert.final_unit
    assert len(calls) == masks + 1
    assert cert.final_unit is unit
    assert membership(example_boundary("one-minus-z-squared", grid), cert)
    assert len(calls) == masks + 1


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
    # alpha at the centre of the feasible arc, (2.51452, 3.00969)
    assert cert.peak_prep.alpha == pytest.approx(
        -0.9288547902860806 + 0.370444028920161j, abs=1e-9
    )
    assert not cert.peak_prep.rescaled
    assert [s.index for s in cert.stages] == [1, 2, 4, 8, 16]
    expected = (0.39035716920887, 0.276443594972, 0.181959308544,
                0.105536166225, 0.0355022097374)
    for s, e in zip(cert.stages, expected):
        assert s.error == pytest.approx(e, rel=1e-6)
    assert cert.sup_bound == pytest.approx(1.2797788359223785, rel=1e-6)


@pytest.mark.parametrize("strategy, extensions", [("auto", 1), ("peak", 1)])
def test_certify_analyses_the_generator_once(one_minus_z_spec, monkeypatch, strategy, extensions):
    """One zero-set estimate per generator, and one extension test per zero,
    whichever route runs: both come from one ``zinfty_report``."""
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


@pytest.mark.parametrize("names, strategy", [
    ("one-minus-z", "sublevel"),
    ("one-minus-z", "peak"),
    ("shift", "auto"),
    ("one-minus-z,one-plus-z", "combined"),
    ("one-minus-z,one-plus-z,two-plus-z", "combined"),
])
def test_certify_takes_zinfty_from_one_report_per_generator(monkeypatch, names, strategy):
    """Certifying k generators computes ``zinfty_report`` exactly k times,
    once per generator, on every route and whether or not it passes."""
    seen = []
    orig = hardylab.ideals.zinfty_report

    def counted(f):
        seen.append(f)
        return orig(f)

    monkeypatch.setattr(hardylab.ideals, "zinfty_report", counted)
    gens = [example_boundary(n, CircleGrid(4096)) for n in names.split(",")]
    certify_mideal(ideal(gens), strategy=strategy)
    assert len(seen) == len(gens)
    assert all(a is b for a, b in zip(seen, gens))


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
    three = ideal([example_boundary(n, grid) for n in ("one-minus-z", "one-plus-z", "two-plus-z")])
    with pytest.raises(StrategyInapplicable):
        certify_mideal(three, strategy="peak")


def test_combined_disjoint_zero_sets(grid):
    """1-z and 1+z vanish at antipodal points, so their joint modulus has no
    zero and the ideal is everything; the diagonal unit's least modulus is
    reported, not gated."""
    cert = certify_mideal(
        ideal(
            [example_boundary("one-minus-z", grid), example_boundary("one-plus-z", grid)],
            ["one-minus-z", "one-plus-z"],
        )
    )
    assert cert.passed
    assert cert.strategy == "combined"
    assert cert.zero_angles == ()
    assert cert.stages[0].ess_inf == pytest.approx(0.9999987900770978, abs=1e-6)
    assert "(I = I(1))" in cert.conclusion
    assert cert.final_error < 1e-4
    assert cert.sup_bound <= 2.0
    assert [c.passed for c in cert.sub_certificates] == [True, True]
    assert [c.strategy for c in cert.sub_certificates] == ["sublevel", "sublevel"]
    assert len(cert.stages) == 1
    assert len(cert.stages[0].errors) == 2


@pytest.mark.parametrize("bound", [2.0, 1.0])
def test_combined_gates_the_bound_only_through_its_parts(bound):
    """Each generator's units are held to the bound; the diagonal unit
    u + v - uv is reported, not gated, and can reach 2B + B^2."""
    grid = CircleGrid(4096)
    names = ["one-minus-z", "one-minus-z-times-exp"]
    cert = certify_mideal(
        ideal([example_boundary(n, grid) for n in names], names), bound=bound
    )
    assert cert.passed
    assert all(c.sup_bound <= bound + SUP_SLACK for c in cert.sub_certificates)
    b = bound + SUP_SLACK
    assert bound < cert.sup_bound <= 2 * b + b * b
    assert cert.sup_bound == pytest.approx(2.216, abs=1e-3)


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
    # the triple certifies through the same fold, with error 0.0079
    for names in (
        ["one-minus-z", "one-minus-z-squared"],
        ["one-minus-z", "one-minus-z-squared", "one-minus-z-times-exp"],
    ):
        cert = certify_mideal(ideal([example_boundary(n, grid) for n in names], names))
        assert cert.passed
        assert cert.zero_angles == (0.0,)
        assert 0.0 < cert.final_error <= cert.tol
        assert "have a common essential zero set" in cert.conclusion
        assert "singly generated" in cert.conclusion
        assert len(cert.sub_certificates) == len(cert.stages[0].errors) == len(names)
        # membership through the k-generator certificate agrees with the principal one
        for name, expected in MEMBER_PANEL.items():
            h = example_boundary(name, grid)
            assert membership(h, cert) is expected
            assert membership(h, one_minus_z_cert) is expected


def test_combined_shared_zero_set_above_tolerance():
    """Both generators pass at tol 0.02 on their own (errors 0.0074 and
    0.0176), but the diagonal unit's error on the shared zero is 0.0235."""
    grid = CircleGrid(4096)
    names = ["one-minus-z", "one-minus-z-times-exp"]
    cert = certify_mideal(ideal([example_boundary(n, grid) for n in names], names), tol=0.02)
    assert [c.passed for c in cert.sub_certificates] == [True, True]
    assert [c.final_error for c in cert.sub_certificates] == [
        pytest.approx(0.0074, abs=1e-4),
        pytest.approx(0.0176, abs=1e-4),
    ]
    assert not cert.passed
    assert cert.failure_reason == "tolerance"
    assert cert.conclusion == "combined unit error above tolerance"
    assert cert.zero_angles == (0.0,)
    assert cert.final_error == pytest.approx(0.0235, abs=1e-4)
    assert len(cert.stages) == 1


@pytest.mark.parametrize("n", [4096, 16384])
def test_combined_distinct_near_zeros_span_the_whole_algebra(n):
    """1 - e^{-ia} z and 1 - e^{-i(a+d)} z have no common zero for d > 0, so
    they generate the whole algebra. Their joint modulus is least midway, at
    2 sin(d/4); from the d where that exceeds e^-8, no node enters the finest
    sublevel set for any a. That d is 0.44 cells at 4096 and 1.77 at 16384,
    where a pair 1.25 cells apart can still read as one zero, within the
    resolution."""
    grid = CircleGrid(n)
    rng = np.random.default_rng(46)
    start = max(1.25 * grid.spacing, 1.01 * 4.0 * math.asin(0.5 * math.exp(-8)))
    for d in np.geomspace(start, np.pi, 20):
        a = rng.uniform(0.0, 2.0 * np.pi)
        gens = [signal_from_values(grid, 1.0 - np.exp(1j * (grid.nodes - t))) for t in (a, a + d)]
        cert = certify_mideal(ideal(gens))
        assert cert.passed, (a, d)
        assert cert.zero_angles == (), (a, d)
        assert "I = I(1)" in cert.conclusion, (a, d)


def _pairwise_shared_triple(grid):
    """(1-z)(1+z), (1+z)(1+iz) and (1-z)(1+iz): each pair shares a zero, and
    no zero is common to all three."""
    z = grid.boundary_points()
    values = [(1 - z) * (1 + z), (1 + z) * (1 + 1j * z), (1 - z) * (1 + 1j * z)]
    return [signal_from_values(grid, v) for v in values], ["z0-zpi", "zpi-zi", "z0-zi"]


def test_combined_pairwise_shared_zeros_without_a_common_zero():
    """The joint modulus of three generators whose pairs share zeros has no
    zero, so they span the whole algebra. N is 8192 because at 4096
    (1-z)(1+z) is refused as NotOuter: the clipped log-modulus at its two
    zeros biases the outer test (ROADMAP, "Boundary zeros")."""
    gens, names = _pairwise_shared_triple(CircleGrid(8192))
    cert = certify_mideal(ideal(gens, names))
    assert [len(c.zero_angles) for c in cert.sub_certificates] == [2, 2, 2]
    assert cert.passed
    assert cert.zero_angles == ()
    assert "(I = I(1))" in cert.conclusion


def _permutation_cases(grid):
    named = [
        ["one-minus-z", "one-plus-z"],
        ["one-minus-z", "one-minus-z-times-exp"],
        ["one-minus-z", "one-plus-z", "two-plus-z"],
        ["one-minus-z", "one-minus-z-squared", "one-minus-z-times-exp"],
    ]
    yield from (([example_boundary(n, grid) for n in names], names) for names in named)
    yield _pairwise_shared_triple(grid)
    # distinct zeros 3 cells apart: no common zero, whichever generator is first
    near = (1.0 - np.exp(1j * (grid.nodes - t)) for t in (0.0, 3 * grid.spacing))
    yield [signal_from_values(grid, v) for v in near], ["zero-at-0", "zero-at-3-cells"]


def test_combined_verdict_does_not_depend_on_generator_order():
    """Each ordering folds the units in another order, which moves the
    diagonal unit only by rounding; the verdict, the common zeros and the
    error stay put (the errors agree to 6.3e-14 relative or better)."""
    grid = CircleGrid(8192)
    for gens, names in _permutation_cases(grid):
        certs = [
            certify_mideal(ideal([gens[i] for i in order], [names[i] for i in order]))
            for order in itertools.permutations(range(len(gens)))
        ]
        ref = certs[0]
        for cert in certs[1:]:
            assert (cert.passed, cert.failure_reason, cert.conclusion) == (
                ref.passed, ref.failure_reason, ref.conclusion
            ), names
            assert len(cert.zero_angles) == len(ref.zero_angles), names
            for a in cert.zero_angles:
                assert min(circular_distance(a, b) for b in ref.zero_angles) <= cert.resolution, names
            # (1-z, 1+z, 2+z) has error 4.6e-16, pure rounding (the unit of 2+z
            # is identically 1), which orderings move by 1e-16
            assert cert.final_error == pytest.approx(ref.final_error, rel=1e-12, abs=1e-15), names


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


def test_membership_in_the_whole_algebra(grid):
    """A passing certificate with an empty zero set certifies the whole
    algebra, so every function on the grid is a member."""
    cert = certify_mideal(ideal([example_boundary("two-plus-z", grid)], ["two-plus-z"]))
    assert cert.passed
    assert cert.zero_angles == ()
    assert all(membership(example_boundary(name, grid), cert) for name in MEMBER_PANEL)


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


def test_membership_refuses_a_function_on_another_grid(grid, one_minus_z_cert):
    coarse = example_boundary("one-minus-z", CircleGrid(grid.size // 4))
    with pytest.raises(ValueError, match="signals live on different grids"):
        membership(coarse, one_minus_z_cert)


def test_division_property_refuses_a_pair_on_another_grid(grid, one_minus_z_cert):
    coarse = CircleGrid(grid.size // 4)
    with pytest.raises(ValueError, match="signals live on different grids"):
        analytic_prime_check(
            one_minus_z_cert,
            example_boundary("two-plus-z", coarse),
            example_boundary("one-minus-z", coarse),
        )


def test_division_property_refuses_a_divisor_on_another_grid(grid, one_minus_z_cert):
    coarse_divisor = example_boundary("two-plus-z", CircleGrid(grid.size // 4))
    with pytest.raises(ValueError, match="signals live on different grids"):
        analytic_prime_check(
            one_minus_z_cert, coarse_divisor, example_boundary("one-minus-z", grid)
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


def test_sublevel_units_for_two_generators_use_the_joint_outer_base():
    grid = CircleGrid(4096)
    gens = [example_boundary("one-minus-z", grid), example_boundary("one-minus-z-squared", grid)]
    spec = ideal(gens, ["one-minus-z", "one-minus-z-squared"])
    stages = approx_unit_sublevel(spec, (2, 5))
    joint = np.maximum(np.abs(gens[0].values), np.abs(gens[1].values))
    for s in stages:
        # on the support the cofactor is unimodular, so |unit| = |base| = max_i |g_i|
        assert s.on_support_max == pytest.approx(float(np.max(joint[_support(spec, s.index)])), rel=1e-9)
        assert s.off_support_deviation < 1e-9
    # frozen at N=4096; the single-generator errors are 0.2888 and 0.0286
    assert [s.error for s in stages] == pytest.approx([0.2948560043644318, 0.05054637578178825], rel=1e-6)


@pytest.mark.parametrize("value", [2.5, 2.0, "2", float("nan")])
def test_stage_indices_and_peak_powers_must_be_integers(small_grid, value):
    """A stage or power that is not an integer is refused, not rounded: a
    power 2.5 would report power-2.5 statistics for a power-2 unit."""
    spec = ideal([example_boundary("one-minus-z", small_grid)])
    with pytest.raises(ValueError, match="a sublevel stage must be an integer"):
        approx_unit_sublevel(spec, (1, value))
    with pytest.raises(ValueError, match="a peak power must be an integer"):
        approx_unit_peak(spec, (1, value))
    for strategy in ("sublevel", "peak"):
        with pytest.raises(ValueError, match="must be an integer"):
            certify_mideal(spec, strategy=strategy, stages=(value,))
        with pytest.raises(ValueError, match="must be an integer"):
            certify_mideal(spec, strategy=strategy, schedule=(value,))


def test_numpy_integer_stages_and_powers_are_taken_as_their_value(small_grid):
    spec = ideal([example_boundary("one-minus-z", small_grid)])
    assert approx_unit_sublevel(spec, (np.int64(2), np.int32(5))) == approx_unit_sublevel(spec, (2, 5))
    assert approx_unit_peak(spec, (np.int64(2),)) == approx_unit_peak(spec, (2,))


@pytest.mark.parametrize("strategy, option", [("sublevel", "stages"), ("peak", "schedule")])
def test_empty_stage_lists_are_refused(one_minus_z_spec, strategy, option):
    with pytest.raises(ValueError, match="must not be empty"):
        certify_mideal(one_minus_z_spec, strategy=strategy, **{option: ()})


@pytest.fixture(scope="module")
def specs_4096():
    """1 - z and the pair (1 - z, 1 + z) at 4096 nodes, the smallest grid on
    which 1 - z certifies."""
    g = CircleGrid(4096)
    one, two = example_boundary("one-minus-z", g), example_boundary("one-plus-z", g)
    return ideal([one], ["one-minus-z"]), ideal([one, two], ["one-minus-z", "one-plus-z"])


def test_stages_given_once_are_read_once(specs_4096):
    """An iterator of stages certifies as the tuple does: the stages are read
    once, by the check and the loop alike, and handed to each generator."""
    single, pair = specs_4096
    cert = certify_mideal(single, stages=iter(range(1, 13)))
    assert cert.passed and len(cert.stages) == 12
    assert cert == certify_mideal(single, stages=tuple(range(1, 13)))
    cert = certify_mideal(pair, stages=(m for m in range(1, 13)))
    assert cert.passed
    assert [len(c.stages) for c in cert.sub_certificates] == [12, 12]
    assert [s.index for s in approx_unit_sublevel(single, iter([1, 2]))] == [1, 2]
    assert approx_unit_peak(single, iter([1, 2])) == approx_unit_peak(single, (1, 2))


def test_numpy_arrays_of_stages_and_powers_are_lists(specs_4096):
    single, _ = specs_4096
    assert approx_unit_sublevel(single, np.array([1, 2, 3])) == approx_unit_sublevel(single, (1, 2, 3))
    assert approx_unit_peak(single, np.array([1, 2])) == approx_unit_peak(single, (1, 2))
    with pytest.raises(ValueError, match="sublevel stages must not be empty"):
        approx_unit_sublevel(single, np.array([], dtype=int))
    with pytest.raises(ValueError, match="peak schedule must not be empty"):
        approx_unit_peak(single, np.array([], dtype=int))


def test_reports_carry_the_values_read_not_the_arguments_given(specs_4096):
    single, _ = specs_4096
    stage = approx_unit_sublevel(single, (True, 2))[0]
    assert type(stage.index) is int
    assert '"stage": 1,' in dumps(stage_report(stage))
    cert = certify_mideal(single, tol=True)
    assert type(cert.tol) is float
    assert '"tol": 1,' in dumps(certificate_report(cert))
    assert cert == certify_mideal(single, tol=1.0)


@pytest.mark.parametrize("call, message", [
    (lambda s: approx_unit_sublevel(s, 5), "expected a list of integers, each a sublevel stage"),
    (lambda s: approx_unit_peak(s, "12"), "expected a list of integers, each a peak power"),
    (lambda s: certify_mideal(s, tol="0.05"), "tol must be finite and positive, got '0.05'"),
    (lambda s: certify_mideal(s, bound=None), "bound must be finite and positive, got None"),
    (lambda s: approx_unit_peak(s, (1, 2), tol="x"), "tol must be finite, got 'x'"),
    (lambda s: approx_unit_peak(s, (1, 2), tol=math.inf), "tol must be finite, got inf"),
    (lambda s: analytic_prime_check(certify_mideal(s), s.generators[0], s.generators[0], delta="x"),
     "delta must be finite and positive, got 'x'"),
], ids=["stages-int", "schedule-str", "tol-str", "bound-none", "peak-tol-str", "peak-tol-inf",
        "delta-str"])
def test_malformed_arguments_are_refused_with_value_error(specs_4096, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(specs_4096[0])


def test_stage_unit_refuses_a_combined_stage(specs_4096):
    cert = certify_mideal(specs_4096[1])
    assert cert.passed
    with pytest.raises(TypeError, match="CombinedUnit"):
        stage_unit(cert.ideal, cert.stages[-1])


# ---------------------------------------------------------------------------
# stage statistics in real arithmetic, against complex units
# ---------------------------------------------------------------------------

def _near(x: float, ref: float) -> bool:
    return abs(x - ref) <= 1e-13 + 1e-12 * abs(ref)


@st.composite
def _zero_generators(draw, count: int, max_order: int = 2, max_a: float = 0.9):
    """``count`` generators c (1 - conj(zeta) z)^k (1 + a z) on one grid,
    each with a zero of order k <= ``max_order`` at a node zeta, a scale |c|
    in 1e-2..1e2 and |a| <= ``max_a`` < 1, so each has a zero set and no
    other zero in the closed disc."""
    grid = CircleGrid(draw(st.sampled_from([512, 4096])))
    gens = []
    for _ in range(count):
        theta0 = grid.nodes[draw(st.integers(0, grid.size - 1))]
        order = draw(st.integers(1, max_order))
        c = 10.0 ** draw(st.floats(-2.0, 2.0)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        a = draw(st.floats(0.0, max_a)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        z = np.exp(1j * grid.nodes)
        values = c * (1.0 - np.exp(1j * (grid.nodes - theta0))) ** order * (1.0 + a * z)
        gens.append(signal_from_values(grid, values))
    return gens


@given(
    st.integers(1, 2).flatmap(_zero_generators),
    st.sets(st.integers(1, 20), min_size=1, max_size=8).map(sorted),
)
@settings(max_examples=30, deadline=None)
def test_sublevel_stage_statistics_match_complex_units(gens, stages):
    """Every statistic of every non-degenerate stage is within
    1e-13 + 1e-12 |x| of the one read off the complex unit, for one and two
    generators; every such stage's unit is that unit bit for bit, and every
    degenerate stage's unit is 1."""
    spec = ideal(gens)
    run = approx_unit_sublevel(spec, stages)
    ref = sublevel_stages_complex(spec, stages)
    for stage, r in zip(run, ref):
        assert stage.degenerate == (r is None)
        unit = stage_unit(spec, stage).values
        if r is None:
            assert np.all(unit == 1.0), stage.index
            continue
        for name in SUBLEVEL_FIELDS:
            assert _near(getattr(stage, name), r[0][name]), (stage.index, name)
        assert np.array_equal(unit, r[1]), stage.index


@given(
    _zero_generators(1, max_order=1, max_a=0.5),
    st.sets(st.sampled_from(DEFAULT_PEAK_SCHEDULE), min_size=1).map(sorted),
)
@settings(max_examples=30, deadline=None)
def test_peak_stage_statistics_match_complex_units(gens, schedule):
    """The error sup |g|^n |h| and the sup of 1 - g^n from |g|^n and n arg g
    are within 1e-13 + 1e-12 |x| of the complex powers' statistics, and the
    kept unit is within 1e-14 of 1 - g^n taken in 50-digit arithmetic at
    every node. Generators whose values leave every disc through 0 near the
    zero, at any scale, have no peak units and are skipped."""
    spec = ideal(gens)
    try:
        _, run = approx_unit_peak(spec, schedule, tol=None)
    except NormExceeded:
        reject()
    ref = peak_stages_complex(spec, schedule)
    for stage, (error, sup_norm) in zip(run, ref):
        assert _near(stage.error, error), stage.index
        assert _near(stage.sup_norm, sup_norm), stage.index
    unit = stage_unit(spec, run[-1]).values
    assert peak_unit_error_mp(spec, unit, run[-1].index) <= 1e-14


@pytest.mark.parametrize(
    "c, zero_node, a",
    [
        # rescaled to 1.3e-7: |g| is within rounding of 1 and sup |1 - g^n| is small
        (1.5678788438269702, 1, 0.21875),
        # unimodular c, no rescale: g reaches 0 at z = -1
        (-0.8239043424882664 + 0.5667288897074004j, 0, 0.0),
    ],
)
def test_peak_sup_norm_keeps_relative_precision(c, zero_node, a):
    """Each stage's sup |1 - g^n| is within 1e-15 relative of the same
    statistic taken in 50-digit arithmetic, both where sup |1 - g^n| is
    1e-7 and where g passes through 0."""
    grid = CircleGrid(512)
    z = np.exp(1j * grid.nodes)
    values = c * (1.0 - z * np.exp(-1j * grid.nodes[zero_node])) * (1.0 + a * z)
    spec = ideal([signal_from_values(grid, values)])
    _, run = approx_unit_peak(spec, DEFAULT_PEAK_SCHEDULE, tol=None)
    for stage, ref in zip(run, peak_sup_norms_mp(spec, DEFAULT_PEAK_SCHEDULE)):
        assert abs(stage.sup_norm - ref) <= 1e-15 * ref, stage.index


@pytest.mark.parametrize("name", ["one-minus-z", "one-minus-z-times-exp", "one-minus-singular-i"])
def test_peak_unit_keeps_double_precision_at_the_last_power(name):
    """At n = 800 the kept unit is within 5e-15 of 1 - g^n taken in 50-digit
    arithmetic, and its sup within 1e-15 of the reported sup norm: one
    rounding in each of n log|g| and n arg g, where n repeated products
    would carry about n."""
    spec = ideal([example_boundary(name, CircleGrid(512))])
    _, stages = approx_unit_peak(spec, DEFAULT_PEAK_SCHEDULE, tol=None)
    unit = stage_unit(spec, stages[-1]).values
    assert stages[-1].index == DEFAULT_PEAK_SCHEDULE[-1]
    assert peak_unit_error_mp(spec, unit, stages[-1].index) <= 5e-15
    assert abs(float(np.max(np.abs(unit))) - stages[-1].sup_norm) <= 1e-15
