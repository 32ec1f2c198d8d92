"""Essential zero sets, oscillation, and continuous extendability."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardylab import (
    CircleGrid,
    blaschke,
    catalog_names,
    constant_signal,
    continuous_extension,
    essential_zero_set,
    example_boundary,
    get_example,
    in_disc_algebra,
    signal_from_values,
    zinfty_report,
)
from hardylab.factorization import singular_inner_boundary
from hardylab.grid import _level_cut, circular_distance, circular_runs
from hardylab.zerosets import (
    BOUND_MARGIN,
    MIN_WINDOW_CELLS,
    WIDTH_SCHEDULE,
    _log_zero_set,
    _verdict,
    _window,
    in_zinfty,
)
from oracles import continuity_rule, continuous_extension_hull, random_product, reference_radii


def circ_gap(a: float, b: float) -> float:
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


#: The grid sizes at which the catalog's continuity verdicts are pinned.
ALL_SIZES = (512, 1024, 2048, 4096, 8192, 16384, 65536)


#: 16 equispaced window centres plus the catalog's zero angles 0 and 3*pi/2.
ORACLE_CENTRES = tuple(2 * math.pi * k / 16 for k in range(16)) + (0.0, 1.5 * math.pi)


@pytest.mark.parametrize("size", [512, 4096])
@pytest.mark.parametrize("name", catalog_names())
def test_radii_match_reference_on_catalog(name, size):
    f = example_boundary(name, CircleGrid(size))
    for c in ORACLE_CENTRES:
        assert continuous_extension(f, c).radii == reference_radii(f, c), c


#: Window centres a + b h on a grid of spacing h: the origin, exact and half
#: nodes, and both sides of the wrap.
EDGE_CENTRES = {
    "origin": (0.0, 0.0),
    "after-origin": (1e-12, 0.0),
    "half-node": (0.0, 0.5),
    "node-3": (0.0, 3.0),
    "half-node-before-wrap": (2 * math.pi, -0.5),
    "1e-12-before-wrap": (2 * math.pi - 1e-12, 0.0),
    "ulp-before-wrap": (np.nextafter(2 * math.pi, 0.0), 0.0),
    "wrap": (2 * math.pi, 0.0),
    "third-node-below-origin": (0.0, -1 / 3),
    "one-radian": (1.0, 0.0),
}


@pytest.mark.parametrize("size", [8, 16, 32, 64, 512, 4096, 65536])
@pytest.mark.parametrize("a, b", EDGE_CENTRES.values(), ids=EDGE_CENTRES.keys())
@given(st.floats(min_value=-1.0, max_value=1.0))
@example(0.0)
@settings(max_examples=4, deadline=None)
def test_windows_are_their_full_distance_masks(size, a, b, shift):
    """Each window, from below the cell floor up to the schedule's widths,
    holds exactly the nodes that its full distance mask selects, in
    ascending index order, with their distances."""
    g = CircleGrid(size)
    h, floor = g.spacing, MIN_WINDOW_CELLS * g.spacing
    center = a + b * h + shift
    dist = circular_distance(g.nodes, center)
    for w in (0.0, floor / 2, np.nextafter(floor, 0.0), floor, np.nextafter(floor, 1.0),
              floor + h / 2, *WIDTH_SCHEDULE):
        idx, d = _window(g, center, w)
        want = np.flatnonzero(dist <= max(w / 2, floor / 2))
        assert np.array_equal(idx, want), w
        assert np.array_equal(d, dist[want]), w
    if size == 8:  # the widest window covers the whole circle
        assert np.array_equal(_window(g, center, WIDTH_SCHEDULE[0])[0], np.arange(8))


@pytest.mark.parametrize("radii, want", [
    ((8.0, 1.5), False),        # decays, but the finest diameter may exceed tol
    ((4.0, 0.9), True),         # decays: 2 r = 1.8 <= 0.5 * 4
    ((4.0, 1.0), False),        # 2 r sits on the ratio: the margin keeps it open
    ((1e-15, 1e-15), True),     # flat
    ((2.0, 1.0), False),        # [r, 2r] leaves the decay open
    ((1.0, 0.9), False),        # within tol, but neither flat nor decaying
])
def test_verdict_outcomes(radii, want):
    assert _verdict(*radii, 2.5, 1e-12) is want


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e300), st.floats(min_value=0.0, max_value=1.0)),
                min_size=2, max_size=2),
       st.floats(min_value=1e-300, max_value=1e300), st.floats(min_value=1e-300, max_value=1e300))
@settings(max_examples=300, deadline=None)
def test_radius_verdict_implies_the_exact_rule(windows, tol, flat):
    """Radii of a widest and a finest window (the finest at most the widest)
    that read True read True for every pair of diameters they bound: the
    oracle's rule holds on any diameters d with r <= d <= 2r."""
    windows = sorted(windows, reverse=True)
    diameters = [r * (1.0 + t) for r, t in windows]
    assert not _verdict(windows[0][0], windows[1][0], tol, flat) or continuity_rule(diameters, tol, flat)


def test_undecided_exact_diameters_read_as_discontinuous():
    """A small jump keeps every window's diameter equal: within tolerance
    but neither flat nor decaying, so the exact rule reads it as a
    discontinuity, and the extension fails."""
    grid = CircleGrid(512)
    t = (grid.nodes + math.pi) % (2 * math.pi) - math.pi
    f = signal_from_values(grid, np.where(t >= 0.0, 1.0, 1.1))
    ok, _, oscs, tol = continuous_extension_hull(f, 0.0)
    assert len(set(oscs)) == 1 and oscs[-1] <= tol
    assert ok is False
    assert continuous_extension(f, 0.0).ok is False


@pytest.mark.parametrize("center", [1e300, -1e20, -2.0, 2.0 + 2 * math.pi])
def test_extension_reads_its_center_modulo_a_turn(center):
    f = example_boundary("one-minus-z", CircleGrid(4096))
    ext = continuous_extension(f, center)
    assert ext.center == center % (2 * math.pi)
    assert ext == continuous_extension(f, center % (2 * math.pi))


@pytest.mark.parametrize("center", [math.inf, -math.inf, math.nan, "0", None])
def test_extension_refuses_a_center_that_is_not_a_finite_real(center):
    with pytest.raises(ValueError, match="center must be finite"):
        continuous_extension(example_boundary("one-minus-z", CircleGrid(512)), center)


def test_extension_at_full_resolution_allocates_no_pairwise_matrix():
    f = example_boundary("one-minus-z", CircleGrid(65536))
    tracemalloc.start()
    try:
        continuous_extension(f, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the pairwise matrix of its widest (5215-node) window alone took ~650 MB
    assert peak < 16 << 20


def test_oscillation_of_constant_is_zero(small_grid):
    c = constant_signal(small_grid, 2.5 + 1j)
    assert continuous_extension(c, 1.0).radii == (0.0,) * len(WIDTH_SCHEDULE)


def test_oscillation_chord_diameter(grid):
    # the radius of the arc {e^{it}: |t| <= w/2} about 1 is the chord
    # 2 sin(w/4); the grid truncates the window at whole cells, costing at
    # most one spacing
    f = signal_from_values(grid, np.exp(1j * grid.nodes))
    radii = continuous_extension(f, 0.0).radii
    for w, r in zip(WIDTH_SCHEDULE, radii):
        assert abs(r - 2 * math.sin(w / 4)) <= grid.spacing, w
        assert r <= 2 * math.sin(w / 4) + 1e-12, w  # truncation only shrinks it


def test_oscillation_of_singular_inner_stays_full(grid):
    # (e^{it}+1)/(e^{it}-1) sweeps the imaginary axis near t = 0, so the
    # boundary values wind around the whole circle in every window, at
    # distance 1 from the value 0 at the node t = 0
    s = singular_inner_boundary(1.0, grid)
    assert min(continuous_extension(s, 0.0).radii) > 0.99


def test_extension_of_polynomial_at_its_zero(grid):
    f = get_example("one-minus-z").boundary(grid)
    ext = continuous_extension(f, 0.0)
    assert ext.ok
    assert abs(ext.value) < 2e-3
    assert 2 * ext.radii[-1] <= 0.5 * max(ext.radii)


def test_extension_fails_for_singular_inner(grid):
    s = singular_inner_boundary(1.0, grid)
    assert not continuous_extension(s, 0.0).ok


def test_flat_profile_escape(small_grid):
    f = constant_signal(small_grid, 0.7 + 0j)
    ext = continuous_extension(f, 2.0)
    assert ext.ok and ext.value == pytest.approx(0.7)


def test_zero_set_of_one_minus_z(grid):
    est = essential_zero_set(get_example("one-minus-z").boundary(grid))
    assert len(est.angles) == 1
    assert circ_gap(est.angles[0], 0.0) <= est.resolution
    assert est.resolution == pytest.approx(8 * grid.spacing)
    assert est.covers_angle(0.0, est.resolution)
    assert not est.covers_angle(math.pi, est.resolution)


def test_zero_set_of_one_plus_z(grid):
    est = essential_zero_set(get_example("one-plus-z").boundary(grid))
    assert len(est.angles) == 1
    assert circ_gap(est.angles[0], math.pi) <= est.resolution


def test_zero_set_of_invertible_function_is_empty(grid):
    est = essential_zero_set(get_example("two-plus-z").boundary(grid))
    assert est.angles == ()
    assert [f.name for f in dataclasses.fields(est)] == ["angles", "resolution"]
    # the alias perfbench/tracing.py reads; it goes with the tracer (ROADMAP item 8)
    assert est.candidates == est.angles


def test_zero_set_of_banded_profile(grid):
    est = essential_zero_set(get_example("banded-logmod").boundary(grid))
    assert len(est.angles) == 1
    assert circ_gap(est.angles[0], 0.0) <= est.resolution


def test_two_point_product_report(grid):
    rep = zinfty_report(get_example("two-point-product").boundary(grid))
    assert len(rep.zero_set.angles) == 2
    targets = (0.0, 3 * math.pi / 2)
    for t in targets:
        assert min(circ_gap(a, t) for a in rep.zero_set.angles) <= rep.zero_set.resolution
    assert rep.in_class
    # continuous on its zero set but not on the whole circle: the singular
    # factor is discontinuous at angle pi/2
    assert not in_disc_algebra(get_example("two-point-product").boundary(grid))
    assert not continuous_extension(
        get_example("two-point-product").boundary(grid), math.pi / 2
    ).ok


def test_inner_factor_does_not_change_the_zero_set(grid):
    plain = essential_zero_set(get_example("one-minus-z").boundary(grid))
    mixed = essential_zero_set(
        get_example("blaschke-half-times-one-minus-z").boundary(grid)
    )
    assert len(mixed.angles) == len(plain.angles) == 1
    assert circ_gap(mixed.angles[0], plain.angles[0]) <= plain.resolution
    shifted = essential_zero_set(get_example("shift-times-one-minus-z").boundary(grid))
    assert len(shifted.angles) == 1
    assert circ_gap(shifted.angles[0], 0.0) <= plain.resolution


@pytest.mark.parametrize("n", ALL_SIZES)
def test_zinfty_for_ramp_is_false(n):
    # the offset ramp has a jump in its phase at its zero: extension must fail
    f = get_example("offset-ramp").boundary(CircleGrid(n))
    est = essential_zero_set(f)
    assert len(est.angles) == 1 and circ_gap(est.angles[0], 0.0) <= est.resolution
    assert not in_zinfty(f)


@pytest.mark.parametrize("n", ALL_SIZES)
def test_banded_logmod_is_not_in_disc_algebra(n):
    # log|f| = -floor(1/|t|) near angle 0 jumps at every band edge
    assert not in_disc_algebra(get_example("banded-logmod").boundary(CircleGrid(n)))


def test_catalog_verdicts_agree_across_grid_sizes():
    """No catalog entry's in_zinfty, in_disc_algebra or zero-angle count moves
    between N = 512, 4096, 16384 and 65536."""
    moved = {}
    for name in catalog_names():
        table = set()
        for n in (512, 4096, 16384, 65536):
            f = example_boundary(name, CircleGrid(n))
            table.add((in_zinfty(f), in_disc_algebra(f), len(essential_zero_set(f).angles)))
        if len(table) > 1:
            moved[name] = table
    assert moved == {}


def test_polynomials_are_in_disc_algebra(grid):
    assert in_disc_algebra(get_example("one-minus-z").boundary(grid))
    assert in_zinfty(get_example("one-minus-z").boundary(grid))


@given(st.integers(min_value=0, max_value=511))
@settings(max_examples=25, deadline=None)
def test_single_zero_location_tracks_rotation(j):
    """Zero set of z - e^{i phi} follows phi, at any grid alignment."""
    g = CircleGrid(512)
    phi = float(g.nodes[j])
    f = signal_from_values(g, np.exp(1j * g.nodes) - np.exp(1j * phi))
    est = essential_zero_set(f)
    assert len(est.angles) == 1
    assert circ_gap(est.angles[0], phi) <= est.resolution


@given(st.floats(min_value=0.1, max_value=0.85))
@settings(max_examples=20, deadline=None)
def test_blaschke_prefactor_invariance(r):
    g = CircleGrid(512)
    base = np.exp(1j * g.nodes) - 1.0
    plain = essential_zero_set(signal_from_values(g, base))
    twisted = essential_zero_set(
        signal_from_values(g, blaschke(r, g.boundary_points()) * base)
    )
    assert len(twisted.angles) == len(plain.angles) == 1
    assert circ_gap(twisted.angles[0], plain.angles[0]) <= plain.resolution


@pytest.mark.parametrize("zeros, angles", [
    ((100, 104), (102,)),   # runs 3 unmasked nodes apart merge into one cluster
    ((4094, 2), (0,)),      # runs either side of angle 0 merge across the wrap
    ((100, 120), (100, 120)),  # runs 19 nodes apart stay two clusters
])
def test_nearby_zero_clusters_merge_including_across_angle_zero(zeros, angles):
    grid = CircleGrid(4096)
    values = np.ones(grid.size, dtype=complex)
    values[list(zeros)] = 0.0
    est = essential_zero_set(signal_from_values(grid, values))
    assert len(est.angles) == len(angles)
    for got, node in zip(est.angles, angles):
        assert circ_gap(got, grid.nodes[node]) < 1e-12


#: Sizes at which the zero set of ``random_product(seed, n)`` misses a zero,
#: by seed. A simple zero between nodes leaves |f| about |f'| times its
#: distance at the nearest node, above the finest level e^-8, so no sublevel
#: set catches it. At the two nodes around each zero the log-modulus lies at
#: least 1.3e-3 (relative) from the finest level cut, so no case turns on the
#: last bits.
_PRODUCT_MISSES = {
    0: (512,), 1: (512, 4096), 2: (512, 4096), 3: (512, 4096),
    4: (512, 4096, 16384), 5: (512, 4096, 16384), 6: (512,),
    7: (512, 4096, 16384), 8: (512, 4096, 16384), 9: (512, 4096),
    10: (512, 4096), 11: (512,),
}


@pytest.mark.parametrize("seed, n", [
    pytest.param(seed, n, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1"))
    if n in _PRODUCT_MISSES[seed] else (seed, n)
    for seed in _PRODUCT_MISSES
    for n in (512, 4096, 16384, 65536)
])
def test_random_product_zero_set_finds_every_zero(seed, n):
    zeros, f = random_product(seed, n)
    est = essential_zero_set(f)
    for a in zeros:
        assert any(circ_gap(a, b) <= est.resolution for b in est.angles), a


@pytest.mark.parametrize("n", [512, 4096, 8192])
@pytest.mark.parametrize("apart, count", [(8, 1), (9, 1), (10, 2)])
def test_sublevel_dips_up_to_nine_nodes_apart_are_one_zero(n, apart, count):
    # |f| = 1 but for two e^-9 dips. 8 and 9 nodes apart they merge into one
    # cluster whose midpoint is 4 and 4.5 cells from each; 10 apart they stay
    # two clusters, each a zero at its own node.
    values = np.ones(n, dtype=complex)
    dips = [100, 100 + apart]
    values[dips] = math.exp(-9.0)
    grid = CircleGrid(n)
    est = essential_zero_set(signal_from_values(grid, values))
    assert len(est.angles) == count
    for d in dips:
        assert est.covers_angle(grid.nodes[d], est.resolution), d


def _pair_log_moduli(n: int):
    """Joint log-moduli of generator pairs, the largest log-modulus as a
    combined certificate takes it: a simple zero times e^{0.4 z}, with a
    double zero elsewhere (disjoint, so no candidate) or at the same node
    (shared)."""
    grid = CircleGrid(n)
    z = np.exp(1j * grid.nodes)
    simple = signal_from_values(grid, (1.0 - z * np.exp(-1j * grid.nodes[n // 8])) * np.exp(0.4 * z))
    for label, node in (("disjoint-pair", 5 * n // 8), ("shared-pair", n // 8)):
        double = signal_from_values(grid, (1.0 - z * np.exp(-1j * grid.nodes[node])) ** 2)
        yield label, np.maximum(simple.log_abs, double.log_abs)


def _log_moduli(n: int):
    """Labelled log-moduli on n nodes: the catalog, ``random_product`` seeds
    0-11 and the generator pairs."""
    grid = CircleGrid(n)
    for name in catalog_names():
        yield name, get_example(name).boundary(grid).log_abs
    for seed in range(12):
        yield f"product-{seed}", random_product(seed, n)[1].log_abs
    yield from _pair_log_moduli(n)


def _sparse_log_moduli(n: int):
    """Log-moduli on n nodes that are 0 but for -9 on random nodes, at 40
    seeded densities from 0.001 to 0.2, uniform in their logarithm."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        density = math.exp(rng.uniform(math.log(0.001), math.log(0.2)))
        yield f"sparse-{seed}", np.where(rng.random(n) < density, -9.0, 0.0)


@pytest.mark.parametrize("n, inputs", [(n, _log_moduli) for n in (512, 4096, 16384, 65536)]
                         + [(n, _sparse_log_moduli) for n in (512, 4096, 8192)])
def test_every_sublevel_cluster_is_a_zero(n, inputs):
    """The zero set has one angle per cluster of the finest sublevel set, so
    it is empty exactly when no node lies below the cut, and every angle is
    within the resolution of a node of the set."""
    grid = CircleGrid(n)
    for label, log_mod in inputs(n):
        below = log_mod < _level_cut(8)
        est = _log_zero_set(grid, log_mod)
        assert len(est.angles) == len(circular_runs(below, MIN_WINDOW_CELLS)), label
        assert (est.angles == ()) == (not below.any()), label
        for a in est.angles:
            assert circular_distance(grid.nodes[below], a).min() <= est.resolution, (label, a)


# ---------------------------------------------------------------------------
# continuity verdicts from window radii, against exact diameters
# ---------------------------------------------------------------------------

def assert_radius_verdict_is_sound(f, center):
    """The radii bound each exact diameter d to [r, 2r] within the verdict's
    margin, and prove a verdict of True only where the exact rule gives it."""
    ext = continuous_extension(f, center)
    ok, value, oscs, tol = continuous_extension_hull(f, center)
    assert ok or not ext.ok
    assert ext.value == value
    assert ext.tolerance == tol
    for r, d in zip(ext.radii, oscs):
        assert r * (1.0 - BOUND_MARGIN) <= d <= 2.0 * r * (1.0 + BOUND_MARGIN)


def _window_signal(kind: str, n: int, center: float, scale: float, shape: float, phase: float):
    """Data around ``center``: smooth, a jump at it, an oscillation that
    winds ever faster into it, or a power |t|^p whose decay sits near the
    verdict's threshold for small p."""
    grid = CircleGrid(n)
    t = (grid.nodes - center + math.pi) % (2 * math.pi) - math.pi  # signed offset
    if kind == "smooth":
        values = np.exp(1j * phase) + shape * np.exp(1j * t) + 0.3 * np.exp(-2j * t)
    elif kind == "jump":
        values = np.where(t >= 0.0, 1.0, np.exp(1j * phase) * shape)
    elif kind == "oscillating":
        values = np.exp(1j * (phase + (1.0 + 10 * shape) * np.log(np.abs(t) + 1e-9)))
    else:
        values = np.exp(1j * phase) * (np.abs(t) + 1e-12) ** (0.02 + shape)
    return signal_from_values(grid, scale * values.astype(complex))


@given(
    st.sampled_from(["smooth", "jump", "oscillating", "power"]),
    st.sampled_from([512, 4096]),
    st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
    st.floats(min_value=-6.0, max_value=6.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=-0.01, max_value=0.01),
)
@settings(max_examples=80, deadline=None)
def test_radius_verdict_is_sound(kind, n, center, log_scale, shape, phase, miss):
    """The radius bounds read True only where the exact diameters do; the
    probe sits on or beside the feature."""
    f = _window_signal(kind, n, center, 10.0**log_scale, shape, phase)
    assert_radius_verdict_is_sound(f, (center + miss) % (2 * math.pi))


@pytest.mark.parametrize("n", [512, 4096])
@pytest.mark.parametrize("name", catalog_names())
def test_radius_verdict_is_sound_on_catalog(name, n):
    """Every catalog entry at its zero angles and the 64 probe angles of
    ``in_disc_algebra``."""
    f = example_boundary(name, CircleGrid(n))
    for center in essential_zero_set(f).angles + tuple(j * 2 * math.pi / 64 for j in range(64)):
        assert_radius_verdict_is_sound(f, center)
