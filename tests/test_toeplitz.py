"""Truncated Toeplitz operators and the least-squares density profile."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from hardylab.toeplitz import (
    BANDED_ORDER_RATIO,
    DENSITY_SCHEDULE,
    KERNEL_TOL,
    _banded_singular_values,
    density_profile_csv,
)
from oracles import toeplitz_matrix

#: Absolute agreement required between the single-QR profile and the oracle.
ORACLE_TOL = 1e-13

#: Catalog entries with a Taylor route.
TAYLOR_NAMES = [n for n in catalog_names() if get_example(n).taylor_fn is not None]


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


def oracle_singular_values(f: AnalyticRep, order: int) -> np.ndarray:
    """Reference: dense SVD of the truncation, descending."""
    return np.linalg.svd(toeplitz_matrix(f, order), compute_uv=False)


def count_below_tol(sv: np.ndarray, order: int, tol: float = KERNEL_TOL) -> int:
    top = float(sv[0])
    if top == 0.0:
        return order
    return int(np.count_nonzero(sv < tol * top))


def svd_oracle_kernel_dim(f: AnalyticRep, order: int, tol: float = KERNEL_TOL) -> int:
    """Reference: the dense-SVD count, for every bandwidth."""
    return count_below_tol(oracle_singular_values(f, order), order, tol)


def polynomial(roots, scale=1.0) -> AnalyticRep:
    """scale * prod (z - r), lowest coefficient first."""
    a = np.array([scale], dtype=complex)
    for r in roots:
        a = np.convolve(a, [-r, 1.0])
    return AnalyticRep(a)


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
        adjoint_kernel_dim(AnalyticRep(np.array([1.0])), 0)


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 1.5, 1.0, 0.0, -1.0])
def test_kernel_tol_must_lie_strictly_inside_the_unit_interval(tol):
    with pytest.raises(ValueError, match="0 < tol < 1"):
        adjoint_kernel_dim(get_example("one-minus-z").taylor(), 8, tol=tol)


@pytest.mark.parametrize("name", TAYLOR_NAMES)
def test_kernel_dim_matches_svd_oracle_on_catalog(name):
    f = get_example(name).taylor()
    for order in (64, 256):
        assert adjoint_kernel_dim(f, order) == svd_oracle_kernel_dim(f, order), order


# shapes of the density benchmark's symbols (a root on the circle beside one
# inside or outside it, scale 0.5), the shift, the zero symbol, and the
# splitting cases with zeros {0.5} and {0.5, -0.3i}: one vanishing singular
# value per zero inside the disc
_PINNED_1024 = [
    (polynomial([cmath.exp(2.1j), 0.55 * cmath.exp(-0.7j)], 0.5), 1),
    (polynomial([cmath.exp(-2.6j), 1.45 * cmath.exp(1.3j)], 0.5), 0),
    (AnalyticRep(np.array([0.0, 1.0])), 1),
    (AnalyticRep(np.array([0.0, 0.0])), 1024),
    (polynomial([0.5]), 1),
    (polynomial([0.5, -0.3j]), 2),
]


@pytest.mark.parametrize("f, inside", _PINNED_1024)
def test_banded_kernel_dim_matches_svd_oracle_at_1024(f, inside):
    assert BANDED_ORDER_RATIO * (len(f) - 1) <= 1024  # the banded route runs
    dense = oracle_singular_values(f, 1024)
    banded = _banded_singular_values(f.coefficients, 1024)
    assert np.max(np.abs(banded - dense[::-1])) <= 1e-13 * dense[0]
    assert adjoint_kernel_dim(f, 1024) == count_below_tol(dense, 1024) == inside


def _root():
    """A root inside, exactly on (up to rounding) or outside the circle."""
    radius = st.one_of(
        st.floats(min_value=0.0, max_value=0.95),
        st.just(1.0),
        st.floats(min_value=1.05, max_value=3.0),
    )
    angle = st.floats(min_value=0.0, max_value=2 * math.pi)
    return st.builds(lambda r, t: r * cmath.exp(1j * t), radius, angle)


@given(
    st.lists(_root(), min_size=1, max_size=3),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.integers(min_value=0, max_value=120),
)
@settings(max_examples=30, deadline=None)
def test_banded_kernel_dim_matches_svd_oracle(roots, log_scale, phase, extra):
    """Narrow symbols at orders where the banded route runs.

    Examples with a singular value within 1e-12 sigma_max of the threshold
    are skipped: there both routes are right to roundoff yet may count apart.
    """
    f = polynomial(roots, 10.0**log_scale * cmath.exp(1j * phase))
    order = BANDED_ORDER_RATIO * len(roots) + extra
    dense = oracle_singular_values(f, order)
    top = dense[0]
    assume(np.min(np.abs(dense - KERNEL_TOL * top)) > 1e-12 * top)
    banded = _banded_singular_values(f.coefficients, order)
    assert np.max(np.abs(banded - dense[::-1])) <= 1e-13 * top
    assert adjoint_kernel_dim(f, order) == svd_oracle_kernel_dim(f, order)


@pytest.mark.parametrize(
    "coeffs",
    [
        [1e-160 * (0.6 + 0.8j), -0.5 + 0.2j],
        [1e-158 * (0.3 - 0.9j), 1e-80j, 0.7],
        [1e-321 * (1 - 3j), 0.2 - 0.6j, 1.0],
    ],
)
def test_banded_singular_values_survive_tiny_coefficients(coeffs):
    # unless entries below eps^2 of the largest are zeroed, squares this close
    # to underflow cost LAPACK's tridiagonal step up to 1e-5 sigma_max
    f = AnalyticRep(np.array(coeffs))
    dense = oracle_singular_values(f, 256)
    banded = _banded_singular_values(f.coefficients, 256)
    assert np.max(np.abs(banded - dense[::-1])) <= 1e-13 * dense[0]
    assert adjoint_kernel_dim(f, 256) == svd_oracle_kernel_dim(f, 256)


def test_banded_kernel_dim_memory_at_order_2048():
    f = polynomial([0.5, 1.3j])
    tracemalloc.start()
    try:
        assert adjoint_kernel_dim(f, 2048) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense 2048 x 2048 complex matrix alone takes 64 MB
    assert peak < 4 << 20


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


@pytest.mark.parametrize("name", TAYLOR_NAMES)
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
