"""Fourier plumbing: projections, conjugates, and disc evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hardylab import (
    AnalyticRep,
    CircleGrid,
    NotAnalytic,
    PointOnBoundary,
    signal_from_values,
)
from hardylab.hardy import analytic_projection, conjugate, conjugate_function, herglotz_integral
from oracles import conjugate_complex_fft, evaluate


def test_projection_recovers_polynomial_coefficients():
    g = CircleGrid(256)
    coeffs = np.array([1.0, -0.5, 0.25j, 0.0, 3.0])
    f = AnalyticRep(coeffs).sample(g)
    rep = analytic_projection(f)
    assert np.allclose(rep.coefficients, coeffs, atol=1e-13)


def test_projection_flags_negative_frequency_energy():
    g = CircleGrid(64)
    f = signal_from_values(g, np.exp(-1j * g.nodes))
    with pytest.raises(NotAnalytic):
        analytic_projection(f)


def test_projection_of_the_zero_signal_is_one_zero_coefficient():
    rep = analytic_projection(signal_from_values(CircleGrid(16), np.zeros(16)))
    assert np.array_equal(rep.coefficients, [0.0])


def test_conjugate_of_cosine_is_sine():
    # every mode strictly between the mean and Nyquist, and sine -> -cosine
    g = CircleGrid(64)
    for n in range(1, 32):
        cos, sin = np.cos(n * g.nodes), np.sin(n * g.nodes)
        conj = conjugate_function(signal_from_values(g, cos.astype(complex)))
        assert np.max(np.abs(conj.values - sin)) <= 1e-13
        assert np.max(np.abs(conjugate(sin) + cos)) <= 1e-13


def test_conjugate_annihilates_mean_and_nyquist():
    g = CircleGrid(16)
    const = signal_from_values(g, np.full(16, 2.0 + 0j))
    assert np.all(conjugate_function(const).values == 0.0)
    alternating = (-1.0) ** np.arange(16)
    for a, b in ((0.0, 1.0), (0.0, -1.75), (1e6, 3e-7)):
        assert np.all(conjugate(a + b * alternating) == 0.0)


@given(
    st.integers(min_value=3, max_value=10).flatmap(
        lambda p: arrays(np.float64, 2 ** p, elements=st.floats(-1e6, 1e6))
    )
)
@settings(max_examples=60, deadline=None)
def test_conjugate_matches_complex_fft_route(k):
    ref = conjugate_complex_fft(k)
    assert np.max(np.abs(conjugate(k) - ref)) <= 1e-14 * (1.0 + np.max(np.abs(k)))


def test_conjugate_requires_real_input():
    g = CircleGrid(16)
    with pytest.raises(ValueError):
        conjugate_function(signal_from_values(g, np.exp(1j * g.nodes)))


@given(st.integers(min_value=1, max_value=7), st.floats(min_value=-2, max_value=2))
@settings(max_examples=40, deadline=None)
def test_herglotz_reproduces_analytic_monomials(n, a):
    # k = a*cos(n t) has analytic completion a*z^n (plus the real mean, zero here)
    g = CircleGrid(128)
    k = signal_from_values(g, (a * np.cos(n * g.nodes)).astype(complex))
    z = 0.37 - 0.21j
    assert herglotz_integral(k, z) == pytest.approx(a * z ** n, abs=1e-12)


def test_herglotz_requires_real_input():
    g = CircleGrid(16)
    with pytest.raises(ValueError, match="real signal"):
        herglotz_integral(signal_from_values(g, np.exp(1j * g.nodes)), 0.1)


def test_poisson_positive_and_mean_value():
    g = CircleGrid(256)
    k = signal_from_values(g, (1.5 + np.cos(g.nodes)).astype(complex))
    assert herglotz_integral(k, 0.0).real == pytest.approx(1.5, abs=1e-13)
    assert herglotz_integral(k, 0.3 + 0.4j).real > 0.0


def test_evaluate_and_radial_trace():
    # the Horner oracle of the catalog tests, along the radius to angle pi
    f = AnalyticRep(np.array([1.0, 1.0]))  # 1 + z
    assert evaluate(f, 0.5j) == pytest.approx(1 + 0.5j)
    rs = np.array([0.1, 0.5, 0.9])
    tr = evaluate(f, rs * np.exp(1j * math.pi))
    assert np.allclose(tr, 1 - rs)
    with pytest.raises(PointOnBoundary):
        evaluate(f, 1.0)


def test_boundary_margin_enforced():
    # the node mean aliases by about 5 |z|^N, 1e-2 one cell from the circle
    for n in (64, 512, 4096):
        g = CircleGrid(n)
        k = signal_from_values(g, np.zeros(n, dtype=complex))
        for r in (1.0 - 0.5e-9, 1.0 - 2 * math.pi / n, 1.0, 1.5):
            with pytest.raises(PointOnBoundary):
                herglotz_integral(k, r * np.exp(0.3j))


def test_norms():
    g = CircleGrid(64)
    f = signal_from_values(g, np.exp(1j * g.nodes))
    assert np.max(np.abs(f.values)) == pytest.approx(1.0)
    assert np.sqrt(np.mean(np.abs(f.values) ** 2)) == pytest.approx(1.0)
    # Parseval on a two-term polynomial
    rep = AnalyticRep(np.array([3.0, 4.0]))
    assert np.linalg.norm(rep.coefficients) == pytest.approx(5.0)
    assert np.sqrt(np.mean(np.abs(rep.sample(g).values) ** 2)) == pytest.approx(5.0, abs=1e-12)


def test_analytic_rep_json_roundtrip():
    rep = AnalyticRep(np.array([1.0 + 2.0j, -0.5]))
    back = AnalyticRep.from_json(rep.to_json())
    assert np.array_equal(back.coefficients, rep.coefficients)


@pytest.mark.parametrize("text, message", [
    ('{"coefficients": [[%s, 0]]}' % ("9" * 401), "beyond the float range"),
    ('{"coefficients": [[1, -%s]]}' % ("9" * 309), "beyond the float range"),
    ("[" * 100_000 + "]" * 100_000, "recursion"),
    ('{"coefficients": ', "Expecting value"),
], ids=["big-integer", "big-negative-integer", "nested", "truncated"])
def test_analytic_rep_json_refuses_what_json_loads_cannot_bound(text, message):
    with pytest.raises(ValueError, match=message):
        AnalyticRep.from_json(text)


def test_analytic_rep_json_reads_integers_within_the_float_range():
    big = 10 ** 308
    rep = AnalyticRep.from_json('{"coefficients": [[%d, 0], [1, -2]]}' % big)
    assert np.array_equal(rep.coefficients, [complex(big, 0), 1 - 2j])


@pytest.mark.parametrize("coefficients", [[], np.ones((2, 2))], ids=["empty", "2-D"])
def test_analytic_rep_rejects_empty_and_2d_coefficients(coefficients):
    with pytest.raises(ValueError, match="nonempty 1-D"):
        AnalyticRep(coefficients)


def test_sample_needs_a_node_per_coefficient():
    assert len(AnalyticRep(np.ones(8)).sample(CircleGrid(8)).values) == 8
    with pytest.raises(ValueError, match="too many coefficients"):
        AnalyticRep(np.ones(9)).sample(CircleGrid(8))


def test_analytic_rep_accepts_non_contiguous_coefficients():
    rep = AnalyticRep(np.array([1, -2j, 0.5])[::-1])
    assert np.array_equal(rep.coefficients, [0.5, -2j, 1])
    assert rep.coefficients.flags.owndata and not rep.coefficients.flags.writeable
    with pytest.raises(ValueError, match="finite"):
        AnalyticRep(np.array([1, np.inf * 1j, 0.5])[::-1])
