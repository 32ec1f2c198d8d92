"""Truncated Toeplitz operators and the least-squares density profile."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    AnalyticRep,
    ZeroFunction,
    adjoint_kernel_dim,
    catalog_names,
    density_profile,
    get_example,
    szego_distance,
)
from hardylab.toeplitz import DENSITY_SCHEDULE, density_profile_csv, toeplitz_matrix

#: Absolute agreement required between the single-QR profile and the oracle.
ORACLE_TOL = 1e-13


def qr_oracle_distance(f: AnalyticRep, order: int) -> float:
    """Reference: one reduced QR per order, Q formed, residual projected off."""
    a = f.coefficients
    rows = a.size + order - 1
    conv = np.zeros((rows, order), dtype=complex)
    for k in range(order):
        conv[k : k + a.size, k] = a
    target = np.zeros(rows, dtype=complex)
    target[0] = 1.0
    q, _ = np.linalg.qr(conv, mode="reduced")
    residual = target - q @ (q.conj().T @ target)
    return float(np.linalg.norm(residual))


def test_truncation_is_lower_triangular_with_taylor_diagonals():
    t = toeplitz_matrix(AnalyticRep(np.array([1.0, -1.0])), 4)
    expect = np.array(
        [
            [1, 0, 0, 0],
            [-1, 1, 0, 0],
            [0, -1, 1, 0],
            [0, 0, -1, 1],
        ],
        dtype=complex,
    )
    assert np.array_equal(t, expect)
    with pytest.raises(ValueError):
        toeplitz_matrix(AnalyticRep(np.array([1.0])), 0)


@pytest.mark.parametrize("order", [15, 63, 255])
def test_one_minus_z_distance_closed_form(order):
    # analytic solution: the optimal degree-<M inverse of 1-z leaves
    # squared residual exactly 1/(M+1)
    d = szego_distance(AnalyticRep(np.array([1.0, -1.0])), order)
    assert d * d == pytest.approx(1.0 / (order + 1), abs=1e-12)


def test_shift_distance_is_one():
    # every multiple of z vanishes at 0, so nothing approaches the constant 1
    for order in (1, 8, 64):
        assert szego_distance(AnalyticRep(np.array([0.0, 1.0])), order) == pytest.approx(
            1.0, abs=1e-12
        )


def test_invertible_symbol_distance_vanishes():
    d = szego_distance(get_example("two-plus-z").taylor(), 64)
    assert d < 1e-9
    # a constant symbol hits 1 exactly at every order; its convolution
    # matrix has a zero last row, so it stays taller than it is wide
    prof = density_profile(AnalyticRep(np.array([2.0])), (1, 2, 64))
    assert prof == ((1, 0.0), (2, 0.0), (64, 0.0))


def test_inner_symbol_distance_levels_off(grid):
    # closed-form limit sqrt(1 - |f(0)|^2) for an inner symbol
    d = szego_distance(get_example("blaschke-half").taylor(), 512)
    assert d == pytest.approx(math.sqrt(1 - 0.25), abs=1e-10)


def test_kernel_dimensions():
    assert adjoint_kernel_dim(get_example("one-minus-z").taylor(), 64) == 0
    assert adjoint_kernel_dim(get_example("exp-z").taylor(), 64) == 0
    for order in (2, 5, 8):
        assert adjoint_kernel_dim(get_example("shift-squared").taylor(), order) == 2
    assert adjoint_kernel_dim(AnalyticRep(np.array([0.0, 1.0])), 6) == 1
    # zero symbol: the truncation annihilates everything
    assert adjoint_kernel_dim(AnalyticRep(np.array([0.0])), 5) == 5


def test_zero_symbol_rejected_by_distance():
    with pytest.raises(ZeroFunction):
        szego_distance(AnalyticRep(np.array([0.0])), 4)


def test_density_profile_shape_and_csv():
    prof = density_profile(get_example("one-minus-z").taylor(), (4, 8, 16))
    assert [m for m, _ in prof] == [4, 8, 16]
    text = density_profile_csv(prof)
    lines = text.strip().splitlines()
    assert lines[0] == "M,distance"
    assert len(lines) == 4
    with pytest.raises(ValueError):
        density_profile(get_example("one-minus-z").taylor(), (8, 8))


_COEFFS = st.lists(
    st.floats(min_value=-2, max_value=2).filter(lambda x: abs(x) > 1e-6),
    min_size=1,
    max_size=6,
)


@pytest.mark.parametrize(
    "name", [n for n in catalog_names() if get_example(n).has_taylor]
)
def test_density_profile_matches_qr_oracle_on_catalog(name):
    f = get_example(name).taylor()
    for m, d in density_profile(f, DENSITY_SCHEDULE):
        assert abs(d - qr_oracle_distance(f, m)) <= ORACLE_TOL, m


@given(_COEFFS, st.sets(st.integers(min_value=1, max_value=40), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_density_profile_matches_qr_oracle(coeffs, orders):
    f = AnalyticRep(np.array(coeffs, dtype=complex))
    for m, d in density_profile(f, sorted(orders)):
        assert abs(d - qr_oracle_distance(f, m)) <= ORACLE_TOL


@given(_COEFFS, st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_distance_is_nonincreasing_in_order(coeffs, step):
    """Growing the polynomial space can only move the projection closer."""
    f = AnalyticRep(np.array(coeffs, dtype=complex))
    d1 = szego_distance(f, 4)
    d2 = szego_distance(f, 4 + step)
    assert d2 <= d1 + 1e-10


@given(st.integers(min_value=1, max_value=30))
@settings(max_examples=30, deadline=None)
def test_one_minus_z_law_at_every_order(order):
    d = szego_distance(AnalyticRep(np.array([1.0, -1.0])), order)
    assert d * d == pytest.approx(1.0 / (order + 1), abs=1e-12)
