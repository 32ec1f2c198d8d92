"""Truncated Toeplitz operators and the least-squares density profile."""

import cmath
import contextlib
import functools
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
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
    MAX_ORDER,
    _BLOCK,
    _bidiagonal,
    _distances,
    _golub_kahan,
    density_profile_csv,
)
from hardylab.cli import main
from oracles import density_mp, distances_r_mode, toeplitz_matrix

#: Absolute agreement required between the banded-QR profile and a dense QR
#: oracle.
ORACLE_TOL = 1e-13

#: Catalog entries with a multiple zero on the circle, by its multiplicity.
MULTIPLE_BOUNDARY_ZEROS = {"one-minus-z-squared": 2}

#: Absolute agreement with the 60-digit solve at every order to 1024, by the
#: multiplicity of a zero on the circle. T's smallest singular value falls
#: with the order there, and the banded and the dense QR both lose digits with
#: it. At 1024 (1-z)^2 is 4.9e-13 off (banded) and 1.9e-15 (dense), and
#: (1-iz)^2 (1+z/2) 1.6e-13 and 5.9e-13. (1-z)^3 is 2.8e-11 and 5.7e-11 off.
BOUNDARY_ZERO_TOL = {2: 1e-12, 3: 2e-10}

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


def bidiagonal_singular_values(f: AnalyticRep, order: int) -> np.ndarray:
    """The singular values of ``_bidiagonal`` of f's truncation, ascending:
    the upper half of the spectrum of its Golub–Kahan tridiagonal."""
    off = _golub_kahan(*_bidiagonal(f.coefficients, order))
    return scipy.linalg.eigvalsh_tridiagonal(np.zeros(2 * order), off, lapack_driver="sterf")[order:]


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


@pytest.mark.parametrize("call", [szego_distance, adjoint_kernel_dim,
                                  lambda f, m: density_profile(f, (16, m))])
@pytest.mark.parametrize("order", [32.5, 32.0, "32", float("nan")])
def test_an_order_that_is_not_an_integer_is_refused(call, order):
    with pytest.raises(ValueError, match="order must be an integer"):
        call(AnalyticRep(np.array([1.0, -1.0])), order)


def test_numpy_integer_orders_are_taken_as_their_value():
    f = AnalyticRep(np.array([1.0, -1.0]))
    assert szego_distance(f, np.int64(32)) == szego_distance(f, 32)
    assert adjoint_kernel_dim(f, np.int32(32)) == adjoint_kernel_dim(f, 32)
    profile = density_profile(f, np.array([16, 32]))
    assert profile == density_profile(f, (16, 32))
    assert all(type(m) is int for m, _ in profile)


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


@pytest.mark.parametrize("coeffs, order, banded", [
    ([0.0, 1.0], 1, True),  # z, cut to [0]
    ([0.0, 0.0, 1.0], 2, False),  # z^2, cut to [0, 0]
    ([0.0], 5, True),
    ([0.0, 0.0, 0.0], 2, False),
], ids=["z", "z-squared", "zero-banded", "zero-dense"])
def test_a_truncation_with_no_kept_coefficient_kills_everything(coeffs, order, banded):
    """Every kept coefficient 0 gives the order on either route."""
    kept = min(len(coeffs), order)
    assert (BANDED_ORDER_RATIO * (kept - 1) <= order) == banded
    assert adjoint_kernel_dim(AnalyticRep(np.array(coeffs)), order) == order


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 1.5, 1.0, 0.0, -1.0])
def test_kernel_tol_must_lie_strictly_inside_the_unit_interval(tol):
    with pytest.raises(ValueError, match="0 < tol < 1"):
        adjoint_kernel_dim(get_example("one-minus-z").taylor(), 8, tol=tol)


@pytest.mark.parametrize("tol", ["x", "0.5", None, 0.5j])
def test_a_kernel_tol_that_is_not_a_real_number_is_refused(tol):
    with pytest.raises(ValueError, match="0 < tol < 1"):
        adjoint_kernel_dim(get_example("one-minus-z").taylor(), 8, tol=tol)


@pytest.mark.parametrize("schedule", [16, None, "16,32"])
def test_a_density_schedule_that_is_not_a_list_is_refused(schedule):
    with pytest.raises(ValueError, match="a truncation order"):
        density_profile(get_example("one-minus-z").taylor(), schedule)


def test_a_density_schedule_is_read_once():
    f = get_example("one-minus-z").taylor()
    assert density_profile(f, iter([16, 32])) == density_profile(f, (16, 32))
    assert density_profile(f, np.array([16, 32])) == density_profile(f, (16, 32))
    assert density_profile(f, iter(())) == density_profile(f, np.array([], dtype=int)) == ()


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
    banded = bidiagonal_singular_values(f, 1024)
    assert np.max(np.abs(banded - dense[::-1])) <= 1e-13 * dense[0]
    assert adjoint_kernel_dim(f, 1024) == count_below_tol(dense, 1024) == inside


@pytest.mark.parametrize("b", [4, 8])
def test_banded_kernel_dim_counts_the_roots_inside_at_1024(b):
    # every root at radius 0.3 to 0.7: by the splitting phenomenon (Böttcher &
    # Grudsky) the truncation has one singular value decaying like r^1024 per
    # root, and the others stay bounded away from zero
    roots = [(0.3 + 0.4 * j / (b - 1)) * cmath.exp(2j * math.pi * (j + 0.3) / b) for j in range(b)]
    f = polynomial(roots)
    assert BANDED_ORDER_RATIO * (len(f) - 1) <= 1024  # the banded route runs
    assert adjoint_kernel_dim(f, 1024) == b


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
# a constant coefficient 5e-324 (1 + i) has a subnormal modulus
@example([5e-324 + 5e-324j], 0.0, 0.0, 0)
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
    banded = bidiagonal_singular_values(f, order)
    assert np.max(np.abs(banded - dense[::-1])) <= 1e-13 * top
    assert adjoint_kernel_dim(f, order) == count_below_tol(dense, order)


@given(
    st.lists(
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=13,
    ),
    st.integers(min_value=1, max_value=128),
)
@settings(max_examples=30, deadline=None)
# the cut coefficient 1 once set the scale, and the kept one fell to zero in it
@example([2.225073858507e-311, 1], 1)
def test_bidiagonal_keeps_the_singular_values_across_bandwidths(coeffs, order):
    """The band layout for every bandwidth up to 12, including symbols longer
    than the order, which the truncation cuts."""
    f = AnalyticRep(np.array(coeffs, dtype=complex))
    dense = oracle_singular_values(f, order)
    banded = bidiagonal_singular_values(f, order)
    assert np.max(np.abs(banded - dense[::-1])) <= 1e-13 * dense[0]


@pytest.mark.parametrize("coeffs", [[1e-300, 1e10], [1e-200, 1e200], [2.225073858507e-311, 1]])
def test_kernel_count_takes_its_scale_from_the_kept_coefficients(coeffs):
    """At order 1 the truncation is [a_0], which is nonzero: no kernel,
    however large the coefficients the truncation cuts."""
    f = AnalyticRep(np.array(coeffs, dtype=complex))
    assert adjoint_kernel_dim(f, 1) == svd_oracle_kernel_dim(f, 1) == 0


@pytest.mark.parametrize(
    "coeffs",
    [
        [1e-160 * (0.6 + 0.8j), -0.5 + 0.2j],
        [1e-158 * (0.3 - 0.9j), 1e-80j, 0.7],
        [1e-321 * (1 - 3j), 0.2 - 0.6j, 1.0],
    ],
)
def test_banded_singular_values_survive_tiny_coefficients(coeffs):
    # coefficients whose squares underflow, beside a zero diagonal in the
    # Golub–Kahan tridiagonal
    f = AnalyticRep(np.array(coeffs))
    dense = oracle_singular_values(f, 256)
    banded = bidiagonal_singular_values(f, 256)
    assert np.max(np.abs(banded - dense[::-1])) <= 1e-13 * dense[0]
    assert adjoint_kernel_dim(f, 256) == count_below_tol(dense, 256)


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
    assert density_profile(get_example("one-minus-z").taylor(), ()) == ()


_COEFFS = st.lists(
    st.floats(min_value=-2, max_value=2).filter(lambda x: abs(x) > 1e-6),
    min_size=1,
    max_size=6,
)


def assert_profile_near_high_precision(f: AnalyticRep, tol: float) -> None:
    """The profile and the dense oracle's, at every schedule order, within
    ``tol`` of the 60-digit solve: a bound only one route meets is no gate."""
    dense = distances_r_mode(f, DENSITY_SCHEDULE[-1])
    profile = density_profile(f, DENSITY_SCHEDULE)
    for (m, d), ref in zip(profile, density_mp(f, DENSITY_SCHEDULE)):
        assert abs(d - ref) <= tol, m
        assert abs(dense[m - 1] - ref) <= tol, m


@pytest.mark.parametrize("name", TAYLOR_NAMES)
def test_density_profile_matches_qr_oracle_on_catalog(name):
    f = get_example(name).taylor()
    if name in MULTIPLE_BOUNDARY_ZEROS:
        # two QR routes agree there only to the conditioning, so both are
        # held to the reference instead of to each other
        assert_profile_near_high_precision(f, BOUNDARY_ZERO_TOL[MULTIPLE_BOUNDARY_ZEROS[name]])
        return
    for m, d in density_profile(f, DENSITY_SCHEDULE):
        assert abs(d - qr_oracle_distance(f, m)) <= ORACLE_TOL, m


@pytest.mark.parametrize("coeffs, multiplicity", [
    ([1, -3, 3, -1], 3),                # (1 - z)^3
    ([1, 0.5 - 2j, -1 - 1j, -0.5], 2),  # (1 - iz)^2 (1 + z/2)
])
def test_multiple_boundary_zero_profiles_match_high_precision_solve(coeffs, multiplicity):
    f = AnalyticRep(np.array(coeffs, dtype=complex))
    assert_profile_near_high_precision(f, BOUNDARY_ZERO_TOL[multiplicity])


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


@pytest.mark.parametrize("name", TAYLOR_NAMES)
def test_distances_equal_r_mode_route_bitwise_on_catalog(name):
    # up to max(_BLOCK, len(f)) columns the banded QR is one block, [T | e0]
    # itself, and the symbol is scaled by a power of two: the same LAPACK
    # factorization, the same bits
    f = get_example(name).taylor()
    order = max(_BLOCK, len(f))
    assert np.array_equal(_distances(f, order), distances_r_mode(f, order))


@given(
    st.lists(_root(), min_size=0, max_size=6),
    st.floats(min_value=-6, max_value=6),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.integers(min_value=1, max_value=_BLOCK),
)
@settings(max_examples=30, deadline=None)
# a root of subnormal modulus gives a constant coefficient near 1e-315, whose
# bits the power-of-two scaling moves: both routes must scale alike
@example([-0.48622412715639823 - 0.4482738643222254j, 2.225073858507e-311 * cmath.exp(2j)],
         -4.0, 2.890696403419069, _BLOCK)
def test_distances_equal_r_mode_route_bitwise(roots, log_scale, phase, order):
    """Every order of these symbols (at most 7 coefficients) is one block."""
    f = polynomial(roots, 10.0**log_scale * cmath.exp(1j * phase))
    assert np.array_equal(_distances(f, order), distances_r_mode(f, order))


@st.composite
def _separated_roots(draw):
    """0 to 69 roots, root j at an angle in [2 pi j/n, 2 pi (j + 1/2)/n) so no
    two cluster, each off the circle by at least 0.05 in modulus, or the
    first on it."""
    n = draw(st.integers(min_value=0, max_value=69))
    radius = st.one_of(
        st.floats(min_value=0.0, max_value=0.95), st.floats(min_value=1.05, max_value=3.0)
    )
    radii = draw(st.lists(radius, min_size=n, max_size=n))
    turns = draw(st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        radii[0] = 1.0
    return [r * cmath.exp(2j * math.pi * (j + u) / n) for j, (r, u) in enumerate(zip(radii, turns))]


@given(
    _separated_roots(),
    st.floats(min_value=-6, max_value=6),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
@settings(max_examples=30, deadline=None)
@example([-0.48622412715639823 - 0.4482738643222254j, 2.225073858507e-311 * cmath.exp(2j)],
         -4.0, 2.890696403419069)
def test_distances_agree_with_dense_oracle_across_block_edges(roots, log_scale, phase):
    """Symbols of length 1 to 70, on both sides of k = max(_BLOCK, len(f)),
    at the orders that end just before, on and just after a block edge.

    Each order also ends the factorization on a different block from the
    profile's, which runs to 2k + 1, so the two must agree as well.
    """
    f = polynomial(roots, 10.0**log_scale * cmath.exp(1j * phase))
    k = max(_BLOCK, len(f))
    orders = (k - 1, k, k + 1, 2 * k, 2 * k + 1)
    dist = _distances(f, orders[-1])
    assert np.max(np.abs(dist - distances_r_mode(f, orders[-1]))) <= ORACLE_TOL
    for m, d in density_profile(f, orders):
        assert d == dist[m - 1]
        assert abs(d - szego_distance(f, m)) <= ORACLE_TOL, m


def test_density_distances_memory_at_order_1024():
    f = polynomial([0.5, 1.3j])
    k = max(_BLOCK, len(f))
    block_bytes = (len(f) + k + 1) * (k + len(f)) * 16
    tracemalloc.start()
    try:
        _distances(f, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block and numpy's working copies of it (about 0.3 MiB in all); the
    # whole [T | e0] would take 16 MB
    assert peak <= 8 * block_bytes


def test_density_distances_memory_at_the_largest_order():
    f = AnalyticRep(np.array([1.0, -1.0]))
    tracemalloc.start()
    try:
        d = szego_distance(f, MAX_ORDER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # dist(1-z, M)^2 = 1/(M+1); the whole [T | e0] would take 268 MB
    assert abs(d * d * (MAX_ORDER + 1) - 1) <= 1e-9
    assert peak < 2 << 20


def _cli_report(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    return json.loads(out.getvalue())


def _profile_and_counts(path: str) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The density profile at orders 64 and 1024 and the kernel counts there
    (dense SVD at 64, banded at 1024), through the CLI."""
    profile = _cli_report(["density", "--f", path, "--schedule", "64,1024"])["profile"]
    counts = tuple(
        _cli_report(["toeplitz-kernel", "--f", path, "--M", str(m)])["kernel_dim"]
        for m in (64, 1024)
    )
    return tuple(row["distance"] for row in profile), counts


@functools.cache
def _unscaled(name: str) -> tuple[tuple[float, ...], tuple[int, ...]]:
    return _profile_and_counts(name)


_SCALED_NAMES = ("one-minus-z", "two-plus-z", "shift-times-one-minus-z")


@given(st.sampled_from(_SCALED_NAMES), st.floats(min_value=-320, max_value=308))
@example("one-minus-z", 308.0)
@example("two-plus-z", 308.0)
@example("shift-times-one-minus-z", 308.0)
@example("one-minus-z", -320.0)
@example("two-plus-z", -320.0)
@example("shift-times-one-minus-z", -320.0)
@settings(max_examples=6, deadline=None)
def test_density_and_kernel_counts_ignore_the_symbols_scale(tmp_path_factory, name, log_c):
    """c f for a largest coefficient c = 10^log_c: the profile moves by
    roundoff only, the counts not at all, and nothing reaches stderr."""
    a = get_example(name).taylor().coefficients
    path = tmp_path_factory.mktemp("scaled") / "f.json"
    path.write_text(AnalyticRep(10.0**log_c / np.max(np.abs(a)) * a).to_json())
    dist, counts = _profile_and_counts(str(path))
    ref_dist, ref_counts = _unscaled(name)
    assert np.max(np.abs(np.subtract(dist, ref_dist))) <= 1e-12
    assert counts == ref_counts


@pytest.mark.parametrize("c", [1e308, 1e-320])
def test_one_plus_z_at_the_ends_of_the_float_range(tmp_path, c):
    # dist(1+z, M)^2 = 1/(M+1) for every c != 0, and T_M(c(1+z)) is invertible
    path = tmp_path / "f.json"
    path.write_text(AnalyticRep(np.array([c, c])).to_json())
    profile = _cli_report(["density", "--f", str(path), "--schedule", "1,2,64"])["profile"]
    for row in profile:
        assert row["distance"] == pytest.approx(1 / math.sqrt(row["M"] + 1), abs=1e-12)
    for m in ("64", "1024"):
        assert _cli_report(["toeplitz-kernel", "--f", str(path), "--M", m])["kernel_dim"] == 0


#: Absolute agreement required between the profile and the 60-digit
#: normal-equations solve; (1-z)^2 is 1.9e-13 off at order 512.
MP_TOL = 5e-13


def test_mp_reference_meets_the_closed_form():
    """dist(1 - z, m)^2 = 1/(m + 1) at every order the reference returns."""
    orders = [1, 2, 16, 256, 512]
    ref = density_mp(AnalyticRep(np.array([1.0, -1.0])), orders)
    assert ref == pytest.approx([1.0 / math.sqrt(m + 1) for m in orders], rel=1e-15)


@pytest.mark.parametrize("coeffs", [
    [1, -2, 1],                       # (1 - z)^2
    [2, -1, -1],                      # (1 - z)(2 + z)
    [1, 0.5 - 2j, -1 - 1j, -0.5],     # (1 - iz)^2 (1 + z/2)
])
def test_density_profile_matches_high_precision_solve(coeffs):
    f = AnalyticRep(np.array(coeffs, dtype=complex))
    for (m, d), ref in zip(density_profile(f, (256, 512)), density_mp(f, (256, 512))):
        assert abs(d - ref) <= MP_TOL, m
