"""Essential zero sets, oscillation, and continuous extendability."""

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
from hardylab.grid import circular_distance
import hardylab.zerosets
from hardylab.zerosets import (
    EPS_SCHEDULE,
    MIN_WINDOW_CELLS,
    WIDTH_SCHEDULE,
    _verdict,
    _windows,
    in_zinfty,
    value_diameter,
)
from oracles import continuity_rule, continuous_extension_hull, distance_window


def circ_gap(a: float, b: float) -> float:
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def pairwise_oracle_diameter(values: np.ndarray) -> float:
    """Reference: the max over the full w x w matrix of pairwise distances."""
    if values.size <= 1:
        return 0.0
    return float(np.abs(values[:, None] - values[None, :]).max())


#: 16 equispaced window centres plus the catalog's zero angles 0 and 3*pi/2.
ORACLE_CENTRES = tuple(2 * math.pi * k / 16 for k in range(16)) + (0.0, 1.5 * math.pi)


@pytest.mark.parametrize("size", [512, 4096])
@pytest.mark.parametrize("name", catalog_names())
def test_value_diameter_matches_pairwise_oracle_on_catalog(name, size):
    g = CircleGrid(size)
    f = example_boundary(name, g)
    for c in ORACLE_CENTRES:
        for w in WIDTH_SCHEDULE:
            v = f.values[distance_window(g, c, w)]
            assert value_diameter(v) == pairwise_oracle_diameter(v), (c, w)


_coord = st.floats(min_value=-1e300, max_value=1e300)


@st.composite
def value_sets(draw) -> np.ndarray:
    """Scattered points, (near-)duplicates, exactly collinear points, arcs."""
    kind = draw(st.sampled_from(["scatter", "duplicates", "collinear", "arc"]))
    n = draw(st.integers(min_value=1, max_value=60))
    if kind == "scatter":
        return np.array([complex(draw(_coord), draw(_coord)) for _ in range(n)])
    if kind == "duplicates":
        # repeated points, some nudged by far less than their spread
        base = [complex(draw(_coord), draw(_coord)) for _ in range(draw(st.integers(1, 4)))]
        nudge = st.sampled_from([0.0, 1e-300, 1e-20j, 1e-14, -1e-14j])
        return np.array(
            [base[draw(st.integers(0, len(base) - 1))] + draw(nudge) for _ in range(n)]
        )
    if kind == "collinear":
        small = st.integers(min_value=-50, max_value=50)
        origin = complex(draw(small), draw(small))
        step = complex(draw(small), draw(small))
        return np.array([origin + draw(small) * step for _ in range(n)])
    centre = complex(draw(_coord), draw(_coord))
    radius = draw(st.floats(min_value=1e-300, max_value=1e300))
    start = draw(st.floats(min_value=0.0, max_value=2 * math.pi))
    span = draw(st.floats(min_value=0.0, max_value=2 * math.pi))
    t = start + span * np.array([draw(st.floats(0.0, 1.0)) for _ in range(n)])
    return centre + radius * np.exp(1j * t)


@given(value_sets())
@settings(max_examples=300, deadline=None)
# in the unit scale the tiny parts flush to zero and the hull looks collinear
@example(np.array([-4.620404607959493e-126 + 1.1960164332659527e198j, 0, 0,
                   -4.620404607959493e-126]))
def test_value_diameter_matches_pairwise_oracle(values):
    want = pairwise_oracle_diameter(values)
    assert abs(value_diameter(values) - want) <= 1e-15 * want


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
def test_windows_are_nearest_first_prefixes_of_the_distance_masks(size, a, b, shift):
    """Each width's window, from below the cell floor up to the schedule's,
    is the prefix of ``_windows``'s nodes that its full distance mask
    selects, nearest first with ties by index."""
    g = CircleGrid(size)
    h, floor = g.spacing, MIN_WINDOW_CELLS * g.spacing
    center = a + b * h + shift
    widths = sorted((0.0, floor / 2, np.nextafter(floor, 0.0), floor, np.nextafter(floor, 1.0),
                     floor + h / 2, *WIDTH_SCHEDULE), reverse=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hardylab.zerosets, "WIDTH_SCHEDULE", tuple(widths))
        idx, counts = _windows(g, center)
    assert len(counts) == len(widths) and counts[0] == idx.size
    dist = circular_distance(g.nodes, center)
    for w, s in zip(widths, counts):
        want = np.flatnonzero(dist <= max(w / 2, floor / 2))
        assert np.array_equal(idx[:s], want[np.lexsort((want, dist[want]))]), w
    if size == 8:  # the widest window covers the whole circle
        assert np.array_equal(np.sort(idx), np.arange(8))


@pytest.mark.parametrize("lo, hi, want", [
    ((1.0, 3.0), (2.0, 6.0), False),        # finest lower end above tol
    ((4.0, 1.0), (8.0, 2.0), True),         # decays: 2 <= 0.5 * 4
    ((1e-15, 1e-15), (2e-15, 2e-15), True),  # flat
    ((2.0, 1.0), (4.0, 2.0), None),         # [r, 2r] leaves the decay open
    ((1.0, 0.9), (1.0, 0.9), False),        # exact diameters: no decay, not flat
])
def test_verdict_outcomes(lo, hi, want):
    assert _verdict(lo, hi, 2.5, 1e-12) is want


@given(st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=len(WIDTH_SCHEDULE)),
       st.floats(min_value=1e-300, max_value=1e300), st.floats(min_value=1e-300, max_value=1e300))
@settings(max_examples=300, deadline=None)
def test_exact_diameters_always_decide(oscs, tol, flat):
    """Exact diameters (lo == hi) get True or False, never None, and the
    oracle's two-valued rule agrees."""
    assert _verdict(oscs, oscs, tol, flat) is continuity_rule(oscs, tol, flat)


def test_undecided_exact_diameters_read_as_discontinuous():
    """A small jump keeps every window's diameter equal: within tolerance
    but neither flat nor decaying, so the exact rule reads it as a
    discontinuity, and the extension fails."""
    grid = CircleGrid(512)
    t = (grid.nodes + math.pi) % (2 * math.pi) - math.pi
    f = signal_from_values(grid, np.where(t >= 0.0, 1.0, 1.1))
    ext = continuous_extension(f, 0.0)
    flat = 1e-12 * max(1.0, f.sup_abs)
    assert _verdict(ext.oscillations, ext.oscillations, ext.tolerance, flat) is False
    assert ext.ok is False


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
    assert value_diameter(c.values[distance_window(small_grid, 1.0, 0.3)]) == 0.0


def test_oscillation_chord_diameter(grid):
    # diameter of the arc {e^{it}: |t| <= 0.1} is the chord 2 sin(0.1); the
    # grid truncates the window at whole cells, costing at most two spacings
    f = signal_from_values(grid, np.exp(1j * grid.nodes))
    osc = value_diameter(f.values[distance_window(grid, 0.0, 0.2)])
    assert abs(osc - 2 * math.sin(0.1)) <= 2 * grid.spacing
    assert osc <= 2 * math.sin(0.1) + 1e-12  # truncation only shrinks it


def test_oscillation_of_singular_inner_stays_full(grid):
    # (e^{it}+1)/(e^{it}-1) sweeps the imaginary axis near t = 0, so the
    # boundary values wind around the whole circle in every window
    s = singular_inner_boundary(1.0, grid)
    assert value_diameter(s.values[distance_window(grid, 0.0, 0.02)]) > 1.9
    assert value_diameter(s.values[distance_window(grid, 0.0, 0.005)]) > 1.9


def test_extension_of_polynomial_at_its_zero(grid):
    f = get_example("one-minus-z").boundary(grid)
    ext = continuous_extension(f, 0.0)
    assert ext.ok
    assert abs(ext.value) < 2e-3
    assert ext.oscillations[-1] <= 0.5 * max(ext.oscillations)


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
    assert est.candidates == ()


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


def test_evidence_rows_are_monotone_in_eps(grid):
    est = essential_zero_set(get_example("one-minus-z").boundary(grid))
    (cand,) = est.candidates
    assert cand.accepted
    rows = np.array(cand.evidence)  # rows: eps schedule, cols: width schedule
    assert rows.shape == (len(EPS_SCHEDULE), len(WIDTH_SCHEDULE))
    # shrinking eps can only shrink the sublevel mass inside any fixed window
    assert np.all(np.diff(rows, axis=0) <= 1e-15)
    assert np.all(rows > 0)


def test_zinfty_for_ramp_is_false(grid):
    # the offset ramp has a jump in its phase at its zero: extension must fail
    f = get_example("offset-ramp").boundary(grid)
    est = essential_zero_set(f)
    assert len(est.angles) == 1 and circ_gap(est.angles[0], 0.0) <= est.resolution
    assert not in_zinfty(f)


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


# ---------------------------------------------------------------------------
# continuity verdicts from window radii, against the all-hull route
# ---------------------------------------------------------------------------

def assert_extension_matches_hull(f, center):
    ext = continuous_extension(f, center)
    ok, value, oscs, tol = continuous_extension_hull(f, center)
    assert ext.ok == ok
    assert ext.value == value
    assert ext.tolerance == tol
    assert ext.oscillations == oscs  # the exact diameters, bit for bit


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
def test_extension_verdict_matches_hull_route(kind, n, center, log_scale, shape, phase, miss):
    """The radius bounds decide a verdict only where the exact diameters give
    the same one; the probe sits on or beside the feature."""
    f = _window_signal(kind, n, center, 10.0**log_scale, shape, phase)
    assert_extension_matches_hull(f, (center + miss) % (2 * math.pi))


@pytest.mark.parametrize("n", [512, 4096])
@pytest.mark.parametrize("name", catalog_names())
def test_extension_verdict_matches_hull_route_on_catalog(name, n):
    """Every catalog entry at the 64 probe angles of ``in_disc_algebra``."""
    f = example_boundary(name, CircleGrid(n))
    for j in range(64):
        assert_extension_matches_hull(f, j * 2 * math.pi / 64)


def test_disc_algebra_of_one_minus_z_takes_no_hull(monkeypatch):
    """Continuous data is settled by the window radii: no exact diameter."""
    calls = []
    monkeypatch.setattr(hardylab.zerosets, "value_diameter", lambda v: calls.append(v.size) or 0.0)
    assert in_disc_algebra(example_boundary("one-minus-z", CircleGrid(65536)))
    assert calls == []


def test_undecided_verdict_takes_the_hull(monkeypatch):
    """offset-ramp's decay ratio at its zero sits near DECAY_RATIO, where
    [r, 2r] cannot settle it; the hull then decides, and oscillations are
    read from the same diameters."""
    f = example_boundary("offset-ramp", CircleGrid(4096))
    calls = []
    real = hardylab.zerosets.value_diameter
    monkeypatch.setattr(hardylab.zerosets, "value_diameter", lambda v: calls.append(v.size) or real(v))
    ext = continuous_extension(f, 0.0)
    ok, _, oscs, _ = continuous_extension_hull(f, 0.0)
    assert (ext.ok, ext.oscillations) == (ok, oscs)
    assert len(calls) == len(WIDTH_SCHEDULE)
