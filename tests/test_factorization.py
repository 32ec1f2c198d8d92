"""Outer synthesis, elementary inner functions, and the factorization split."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    CircleGrid,
    PointOnBoundary,
    SingularPoint,
    UnboundedLogData,
    ZeroFunction,
    blaschke,
    constant_signal,
    get_example,
    inner_outer,
    is_inner,
    is_outer,
    signal_from_values,
    singular_inner,
    synth_outer,
)
from hardylab.factorization import CLIP_FLOOR, clipped_log_modulus, singular_inner_boundary
from hardylab.hardy import analytic_projection, herglotz_integral
from oracles import outer_at_pointwise


def test_constant_log_modulus_gives_constant_outer():
    g = CircleGrid(64)
    f = synth_outer(signal_from_values(g, np.full(64, 0.7 + 0j)))
    assert np.allclose(f.boundary.values, math.exp(0.7))
    assert f.value_at_zero() == pytest.approx(math.exp(0.7))


def test_cosine_log_modulus_synthesizes_exp_z():
    # k = cos(t) is the boundary log-modulus of exp(z); compare Taylor sides
    g = CircleGrid(512)
    f = synth_outer(signal_from_values(g, np.cos(g.nodes).astype(complex)))
    rep = analytic_projection(f.boundary, leak_tol=1.0)
    expect = np.array([1.0 / math.factorial(n) for n in range(10)])
    assert np.allclose(rep.coefficients[:10], expect, atol=1e-10)


def test_modulus_law_and_jensen_hold_by_construction():
    g = CircleGrid(256)
    k = 0.3 * np.cos(g.nodes) - 0.2 * np.sin(3 * g.nodes) + 0.1
    f = synth_outer(signal_from_values(g, k.astype(complex)))
    assert np.allclose(np.abs(f.boundary.values), np.exp(k), rtol=1e-13)
    assert abs(f.at(0.0)) == pytest.approx(math.exp(np.mean(k)), abs=1e-12)


def test_disc_values_match_boundary_taylor():
    g = CircleGrid(256)
    k = np.log(np.abs(1.0 - 0.5 * np.exp(1j * g.nodes)))
    f = synth_outer(signal_from_values(g, k.astype(complex)))
    # outer function of log|1 - z/2| is 1 - z/2 itself
    for z in (0.0, 0.3 + 0.4j, -0.8j):
        assert f.at(z) == pytest.approx(1.0 - 0.5 * z, abs=1e-10)


def test_disc_values_five_cells_from_the_circle():
    # |z|^N = exp(-10 pi) ~ 2e-14 five cells in, so aliasing is below
    # roundoff; one cell in, |z|^N ~ 2e-3 and OuterFn.at refuses instead
    n = 4096
    g = CircleGrid(n)
    f = synth_outer(signal_from_values(g, np.cos(g.nodes).astype(complex)))
    zs = (1.0 - 5 * 2 * math.pi / n) * np.exp(1j * np.linspace(0.0, 2 * math.pi, 16, endpoint=False))
    assert np.max(np.abs(f.at(zs) - np.exp(zs))) <= 1e-12
    with pytest.raises(PointOnBoundary):
        f.at(1.0 - 2 * math.pi / n)


def test_synth_outer_rejects_complex_and_heavy_clipping():
    g = CircleGrid(64)
    with pytest.raises(ValueError):
        synth_outer(signal_from_values(g, np.exp(1j * g.nodes)))
    heavy = np.where(g.nodes < math.pi, -200.0, 0.0)
    with pytest.raises(UnboundedLogData):
        synth_outer(signal_from_values(g, heavy.astype(complex)))


def test_synth_outer_reads_the_real_part_within_the_realness_tolerance():
    g = CircleGrid(512)
    k = np.cos(g.nodes) - 0.25
    want = synth_outer(signal_from_values(g, k))
    got = synth_outer(signal_from_values(g, k + 5e-10j))
    assert got.boundary.values.tobytes() == want.boundary.values.tobytes()
    assert got.log_modulus.values.tobytes() == want.log_modulus.values.tobytes()
    with pytest.raises(ValueError, match="real-valued"):
        synth_outer(signal_from_values(g, k + 2e-9j))


def test_clip_floor_bias_on_a_boundary_zero(grid):
    # Analytic value: |f(0)| = exp(mean log|1-e^{it}|) = 1 (the sine-product
    # mean is exactly 0).  On the grid the node at the zero carries the clip
    # floor and every other node the exact log, so the mean picks up
    # (log N - 30)/N: a one-node bias, vanishing with resolution.
    n = grid.size
    f = get_example("one-minus-z").boundary(grid)
    outer = synth_outer(clipped_log_modulus(f))
    expected = math.exp((math.log(n) + CLIP_FLOOR) / n)
    assert outer.value_at_zero() == pytest.approx(expected, abs=1e-12)
    assert outer.value_at_zero() == pytest.approx(0.99876200, abs=1e-7)


def test_blaschke_factor_properties():
    a = 0.5 + 0.2j
    assert blaschke(a, a) == 0
    assert blaschke(a, 0) == pytest.approx(abs(a))
    theta = np.linspace(0, 2 * math.pi, 37)
    assert np.allclose(np.abs(blaschke(a, np.exp(1j * theta))), 1.0)
    assert blaschke(0.0, 0.3j) == 0.3j
    with pytest.raises(ValueError):
        blaschke(1.0, 0.0)


def test_singular_inner_values():
    # at the origin: exp((0+1)/(0-1)) = 1/e
    assert singular_inner(1.0, 0.0) == pytest.approx(math.exp(-1))
    with pytest.raises(SingularPoint):
        singular_inner(1.0, 1.0)
    with pytest.raises(ValueError):
        singular_inner(0.5, 0.0)


def test_singular_inner_boundary_closed_form():
    g = CircleGrid(256)
    s = singular_inner_boundary(1.0, g)
    # (e^{it}+1)/(e^{it}-1) = -i*cot(t/2), so |s|=1 off the singular node
    t = g.nodes[1:]
    assert np.allclose(s.values[1:], np.exp(-1j / np.tan(t / 2.0)))
    assert s.values[0] == 0.0  # radial limit at the singular point
    assert is_inner(s)


NAN_POINTS = [math.nan, complex(math.nan, 0.0), np.array([0.0, 0.3j, math.nan, -0.2])]


@pytest.mark.parametrize("z", NAN_POINTS, ids=["float", "complex", "array"])
def test_nan_point_is_refused_as_on_the_boundary(z):
    g = CircleGrid(64)
    outer = synth_outer(signal_from_values(g, np.cos(g.nodes).astype(complex)))
    with pytest.raises(PointOnBoundary):
        outer.at(z)
    with pytest.raises(PointOnBoundary):
        herglotz_integral(outer.log_modulus, z)


@pytest.mark.parametrize("a", [math.nan, complex(math.nan, 0.0), complex(0.0, math.nan)],
                         ids=["float", "complex", "imaginary"])
def test_nan_zero_or_singular_point_is_refused(a):
    with pytest.raises(ValueError, match="open disc"):
        blaschke(a, 0.3)
    with pytest.raises(ValueError, match="unimodular"):
        singular_inner(a, 0.3)
    with pytest.raises(ValueError, match="unimodular"):
        singular_inner(a, np.array([0.0, 0.3j]))
    with pytest.raises(ValueError, match="unimodular"):
        singular_inner_boundary(a, CircleGrid(64))


def test_inner_outer_split_of_mixed_function(grid):
    f = get_example("blaschke-half-times-one-minus-z").boundary(grid)
    res = inner_outer(f)
    assert res.unimodular_residual < 1e-12
    # outer modulus reproduces |f| away from the zero
    mask = np.abs(f.values) > 1e-6
    assert np.allclose(
        np.abs(res.outer.boundary.values[mask]), np.abs(f.values[mask]), rtol=1e-10
    )
    # Blaschke zero at 1/2 survives in the inner factor: check against the
    # analytic product formula at a few nodes
    b = blaschke(0.5, grid.boundary_points())
    inner_phase = res.inner.values * np.conj(b)
    assert np.allclose(np.abs(inner_phase[mask]), 1.0, atol=1e-10)


def test_inner_outer_rejects_zero_function():
    g = CircleGrid(64)
    with pytest.raises(ZeroFunction):
        inner_outer(constant_signal(g, 0.0))
    with pytest.raises(ZeroFunction):
        is_outer(constant_signal(g, 0.0))


@pytest.mark.parametrize(
    "name,expected",
    [
        ("one-minus-z", True),
        ("two-plus-z", True),
        ("exp-z", True),
        ("shift", False),
        ("shift-squared", False),
        ("blaschke-half", False),
        ("singular-inner-1", False),
        ("shift-times-one-minus-z", False),
    ],
)
def test_is_outer_on_catalog(grid, name, expected):
    assert is_outer(get_example(name).boundary(grid)) is expected


def test_is_inner_on_catalog(grid):
    for name in ("shift", "shift-squared", "blaschke-half", "singular-inner-1"):
        assert is_inner(get_example(name).boundary(grid))
    assert not is_inner(get_example("one-minus-z").boundary(grid))


def test_is_inner_is_false_when_every_node_is_below_the_clip_floor():
    # no node is trusted, so there is no modulus to hold near 1; this used to
    # raise numpy's ValueError for a max over an empty array
    assert is_inner(constant_signal(CircleGrid(8), 1e-20)) is False


@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_synthesized_functions_pass_the_outer_test(a, b, n):
    """Any bounded real log-modulus yields a function is_outer accepts."""
    g = CircleGrid(256)
    k = a * np.cos(n * g.nodes) + b * np.sin(g.nodes)
    f = synth_outer(signal_from_values(g, k.astype(complex)))
    assert is_outer(f.boundary)


@given(st.floats(min_value=0.05, max_value=0.9), st.floats(min_value=0, max_value=6.28))
@settings(max_examples=30, deadline=None)
def test_blaschke_products_fail_the_outer_test(r, phi):
    g = CircleGrid(256)
    a = r * np.exp(1j * phi)
    f = signal_from_values(g, blaschke(a, g.boundary_points()))
    # Jensen gap: |f(0)| = |a| but exp(mean log|f~|) = 1
    assert not is_outer(f)
    assert is_inner(f)


@given(
    st.sampled_from([64, 512, 4096]),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
    st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)), min_size=1, max_size=40
    ),
)
@settings(max_examples=40, deadline=None)
def test_disc_values_match_pointwise_route(n, coeffs, polar):
    """The blocked kernel product gives every point the value of its own
    node mean, within 1e-15 relative, over the whole admissible disc."""
    g = CircleGrid(n)
    k = sum(c * np.cos(j * g.nodes + j) for j, c in enumerate(coeffs))
    f = synth_outer(signal_from_values(g, k.astype(complex)))
    r_max = 1e-8 ** (1.0 / n) * (1.0 - 1e-12)  # the largest admissible radius
    zs = np.array([r * r_max * np.exp(1j * t) for r, t in polar])
    assert np.all(np.abs(f.at(zs) - outer_at_pointwise(f, zs)) <= 1e-15 * np.abs(outer_at_pointwise(f, zs)))
    assert f.at(zs[0]) == outer_at_pointwise(f, zs[0])


def test_disc_values_refuse_any_point_near_the_circle():
    n = 4096
    g = CircleGrid(n)
    f = synth_outer(signal_from_values(g, np.cos(g.nodes).astype(complex)))
    inside = 0.5 * np.exp(1j * np.linspace(0.0, 6.0, 300))
    for bad in (1.0 - 2 * math.pi / n, 1.0, 2.0j):
        for at in (0, 150, 299):
            zs = inside.copy()
            zs[at] = bad
            with pytest.raises(PointOnBoundary):
                f.at(zs)
