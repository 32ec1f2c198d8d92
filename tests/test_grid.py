"""Arc-set algebra, boundary signals, and the CSV interchange format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    ArcSet,
    CircleGrid,
    EmptyRegion,
    complement,
    constant_signal,
    dilate,
    ess_inf_on,
    ess_sup_on,
    intersect,
    measure,
    signal_from_csv,
    signal_from_values,
    signal_to_csv,
    sublevel_set,
    union,
)
from hardylab.grid import circular_runs

G64 = CircleGrid(64)


def mask_from_bits(bits: int) -> np.ndarray:
    return np.array([(bits >> i) & 1 == 1 for i in range(64)])


arc_sets = st.integers(min_value=0, max_value=2 ** 64 - 1).map(
    lambda bits: ArcSet.from_node_mask(G64, mask_from_bits(bits))
)


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        CircleGrid(100)
    with pytest.raises(ValueError):
        CircleGrid(4)


def test_nodes_and_spacing():
    g = CircleGrid(8)
    assert g.spacing == pytest.approx(math.pi / 4)
    assert np.allclose(g.nodes, np.arange(8) * math.pi / 4)
    assert np.allclose(np.abs(g.boundary_points()), 1.0)


def test_signal_requires_finite_values():
    g = CircleGrid(8)
    with pytest.raises(ValueError):
        signal_from_values(g, [np.nan] + [0.0] * 7)
    with pytest.raises(ValueError):
        signal_from_values(g, [np.inf] + [0.0] * 7)


def test_signal_values_immutable():
    f = constant_signal(CircleGrid(8), 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_signal_product_needs_matching_grids():
    a = constant_signal(CircleGrid(8), 1.0)
    b = constant_signal(CircleGrid(16), 1.0)
    with pytest.raises(ValueError):
        a * b


@given(arc_sets)
@settings(max_examples=60, deadline=None)
def test_mask_roundtrip_is_exact(s):
    # cells are centered on their nodes, so covering a run and re-reading the
    # mask must be the identity
    m = s.node_mask(G64)
    assert np.array_equal(ArcSet.from_node_mask(G64, m).node_mask(G64), m)
    rebuilt = np.zeros_like(m)
    for start, length in circular_runs(m):
        rebuilt[(start + np.arange(length)) % m.size] = True
    assert np.array_equal(rebuilt, m)


@given(arc_sets)
@settings(max_examples=60, deadline=None)
def test_complement_measure(s):
    assert measure(s) + measure(complement(s)) == pytest.approx(1.0, abs=1e-12)
    assert measure(intersect(s, complement(s))) == pytest.approx(0.0, abs=1e-12)


@given(arc_sets, arc_sets)
@settings(max_examples=60, deadline=None)
def test_union_intersect_inclusion_exclusion(s, t):
    mu = measure(union(s, t)) + measure(intersect(s, t))
    assert mu == pytest.approx(measure(s) + measure(t), abs=1e-10)


@given(arc_sets, arc_sets)
@settings(max_examples=60, deadline=None)
def test_set_operations_match_node_masks(s, t):
    ms, mt = s.node_mask(G64), t.node_mask(G64)
    assert np.array_equal(union(s, t).node_mask(G64), ms | mt)
    assert np.array_equal(intersect(s, t).node_mask(G64), ms & mt)
    assert np.array_equal(complement(s).node_mask(G64), ~ms)


@given(arc_sets, st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_dilate_contains_original(s, w):
    md = dilate(s, w).node_mask(G64)
    assert np.all(md[s.node_mask(G64)])


def test_dilate_rejects_width_out_of_range():
    with pytest.raises(ValueError):
        dilate(ArcSet.full(), math.pi)
    with pytest.raises(ValueError):
        dilate(ArcSet.empty(), -0.1)


def test_small_dilation_preserves_node_mask():
    # widths below half a spacing never pull a new node into the set
    g = CircleGrid(256)
    mask = np.zeros(256, dtype=bool)
    mask[[0, 17, 18, 19, 200]] = True
    s = ArcSet.from_node_mask(g, mask)
    d = dilate(s, 0.45 * g.spacing)
    assert np.array_equal(d.node_mask(g), mask)


def test_wraparound_run_is_single_arc():
    g = CircleGrid(16)
    mask = np.zeros(16, dtype=bool)
    mask[[15, 0, 1]] = True
    s = ArcSet.from_node_mask(g, mask)
    assert s.contains_angle(0.0)
    assert s.contains_angle(2 * math.pi - g.spacing)
    assert measure(s) == pytest.approx(3 / 16)


def test_sublevel_is_strict():
    g = CircleGrid(16)
    f = signal_from_values(g, np.full(16, 0.5 + 0j))
    assert sublevel_set(f, 0.5).is_empty()
    assert measure(sublevel_set(f, 0.5000001)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sublevel_set(f, 0.0)


def test_ess_bounds_on_arcs():
    g = CircleGrid(64)
    f = signal_from_values(g, np.exp(1j * g.nodes) - 1.0)
    right_half = ArcSet(((0.0, math.pi),))
    # the arc is half-open, so the extreme node is at pi - h
    assert ess_sup_on(f, right_half) == pytest.approx(
        2.0 * math.cos(g.spacing / 2.0), abs=1e-12
    )
    assert ess_inf_on(f, right_half) == 0.0
    with pytest.raises(EmptyRegion):
        ess_sup_on(f, ArcSet.empty())


def test_csv_roundtrip_bitwise():
    g = CircleGrid(32)
    f = signal_from_values(g, np.exp(1j * g.nodes) / 3.0 + 0.25j)
    text = signal_to_csv(f)
    back = signal_from_csv(text)
    assert np.array_equal(back.values, f.values)
    assert signal_to_csv(back) == text


def test_csv_rejects_bad_header_and_nonuniform_theta():
    with pytest.raises(ValueError):
        signal_from_csv("a,b,c\n0,1,0\n")
    g = CircleGrid(8)
    rows = ["theta,re,im"] + [f"{t + 0.01:.17g},1,0" for t in g.nodes]
    with pytest.raises(ValueError):
        signal_from_csv("\n".join(rows) + "\n")
