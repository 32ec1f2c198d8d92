"""Fourier plumbing: projections, conjugates, and disc evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    AnalyticRep,
    CircleGrid,
    NotAnalytic,
    PointOnBoundary,
    signal_from_values,
)
from hardylab.hardy import (
    BOUNDARY_MARGIN,
    analytic_projection,
    conjugate_function,
    evaluate,
    h2_norm,
    herglotz_integral,
    poisson_integral,
    radial_trace,
    sup_norm,
)


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


def test_conjugate_of_cosine_is_sine():
    g = CircleGrid(128)
    for n in (1, 2, 5):
        k = signal_from_values(g, np.cos(n * g.nodes).astype(complex))
        conj = conjugate_function(k)
        assert np.allclose(conj.values.real, np.sin(n * g.nodes), atol=1e-12)


def test_conjugate_annihilates_mean_and_nyquist():
    g = CircleGrid(16)
    const = signal_from_values(g, np.full(16, 2.0 + 0j))
    assert np.allclose(conjugate_function(const).values, 0.0)
    nyq = signal_from_values(g, np.cos(8 * g.nodes).astype(complex))
    assert np.allclose(conjugate_function(nyq).values, 0.0)


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


def test_poisson_positive_and_mean_value():
    g = CircleGrid(256)
    k = signal_from_values(g, (1.5 + np.cos(g.nodes)).astype(complex))
    assert poisson_integral(k, 0.0) == pytest.approx(1.5, abs=1e-13)
    assert poisson_integral(k, 0.3 + 0.4j) > 0.0


def test_evaluate_and_radial_trace():
    f = AnalyticRep(np.array([1.0, 1.0]))  # 1 + z
    assert evaluate(f, 0.5j) == pytest.approx(1 + 0.5j)
    rs = np.array([0.1, 0.5, 0.9])
    tr = radial_trace(f, math.pi, rs)
    assert np.allclose(tr, 1 - rs)
    with pytest.raises(PointOnBoundary):
        evaluate(f, 1.0)
    with pytest.raises(ValueError):
        radial_trace(f, 0.0, [0.5, 0.5])


def test_boundary_margin_enforced():
    g = CircleGrid(64)
    k = signal_from_values(g, np.zeros(64, dtype=complex))
    with pytest.raises(PointOnBoundary):
        herglotz_integral(k, 1.0 - BOUNDARY_MARGIN / 2)


def test_norms():
    g = CircleGrid(64)
    f = signal_from_values(g, np.exp(1j * g.nodes))
    assert sup_norm(f) == pytest.approx(1.0)
    assert h2_norm(f) == pytest.approx(1.0)
    # Parseval on a two-term polynomial
    rep = AnalyticRep(np.array([3.0, 4.0]))
    assert rep.h2_norm() == pytest.approx(5.0)
    assert h2_norm(rep.sample(g)) == pytest.approx(5.0, abs=1e-12)


def test_analytic_rep_json_roundtrip():
    rep = AnalyticRep(np.array([1.0 + 2.0j, -0.5]))
    back = AnalyticRep.from_json(rep.to_json())
    assert np.array_equal(back.coefficients, rep.coefficients)


def test_analytic_rep_accepts_non_contiguous_coefficients():
    rep = AnalyticRep(np.array([1, -2j, 0.5])[::-1])
    assert np.array_equal(rep.coefficients, [0.5, -2j, 1])
    assert rep.coefficients.flags.owndata and not rep.coefficients.flags.writeable
    with pytest.raises(ValueError, match="finite"):
        AnalyticRep(np.array([1, np.inf * 1j, 0.5])[::-1])
