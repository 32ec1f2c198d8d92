"""Acceptance gate: one test per release criterion.

Run ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion. Each test pins the quantitative anchor it verifies — closed forms
where one exists, agreement between independent routes otherwise — at the
tolerances the package commits to.
"""

import math

import numpy as np
import pytest

from hardylab import (
    CircleGrid,
    analytic_prime_check,
    adjoint_kernel_dim,
    approx_unit_peak,
    approx_unit_sublevel,
    certify_mideal,
    essential_zero_set,
    example_boundary,
    get_example,
    ideal,
    inner_outer,
    is_inner,
    is_outer,
    membership,
    signal_from_values,
    synth_outer,
    szego_distance,
)
from hardylab.hardy import analytic_projection
from hardylab.reproduce import MEMBERSHIP_PROBES
from oracles import ORACLE_CORPUS


@pytest.fixture(scope="module")
def spec_one_minus_z(grid):
    return ideal([example_boundary("one-minus-z", grid)], ["one-minus-z"])


@pytest.fixture(scope="module")
def cert_one_minus_z(spec_one_minus_z):
    cert = certify_mideal(spec_one_minus_z)
    assert cert.passed
    return cert


def test_criterion_01_outer_synthesis_exactness():
    """k = cos(theta) synthesizes the outer function with Taylor series 1/n!."""
    g = CircleGrid(4096)
    k = signal_from_values(g, np.cos(g.nodes).astype(complex))
    coeffs = analytic_projection(synth_outer(k).boundary).coefficients
    for n in range(13):
        assert abs(coeffs[n] - 1.0 / math.factorial(n)) <= 1e-8


def test_criterion_02_modulus_law_bandlimited():
    """|synth_outer(k)| reproduces e^k and the geometric-mean value at 0."""
    g = CircleGrid(4096)
    rng = np.random.default_rng(7)
    deg = g.size // 16
    cos_amp = rng.normal(size=deg + 1)
    sin_amp = rng.normal(size=deg + 1)
    theta = g.nodes
    k = np.zeros_like(theta)
    for n in range(deg + 1):
        k += cos_amp[n] * np.cos(n * theta)
        if n:
            k += sin_amp[n] * np.sin(n * theta)
    k = 2.0 * k / np.max(np.abs(k))
    outer = synth_outer(signal_from_values(g, k.astype(complex)))
    modulus = np.abs(outer.boundary.values)
    assert np.max(np.abs(modulus - np.exp(k)) / np.exp(k)) <= 1e-6
    assert abs(outer.value_at_zero() - np.exp(np.mean(k))) <= 1e-8


def test_criterion_03_szego_density_law():
    """Squared distance 1/(M+1) for the one-zero symbol; 1 for the shift."""
    one_minus_z = get_example("one-minus-z").taylor()
    for M in (15, 63, 255):
        d = szego_distance(one_minus_z, M)
        assert abs(d * d - 1.0 / (M + 1)) <= 1e-9
    shift = get_example("shift").taylor()
    for M in (1, 8, 64, 256):
        assert abs(szego_distance(shift, M) - 1.0) <= 1e-12


def test_criterion_04_peak_unit_decay(spec_one_minus_z):
    """Stage errors follow sqrt(n^n/(n+1)^(n+1)); tolerance is met by n=200."""
    _, stages = approx_unit_peak(spec_one_minus_z, (3, 8), tol=None)
    for s in stages:
        closed = math.sqrt(s.index ** s.index / float((s.index + 1) ** (s.index + 1)))
        assert abs(s.error - closed) <= 1e-4
    cert = certify_mideal(spec_one_minus_z, strategy="peak", tol=0.05)
    assert cert.passed
    assert cert.stages[-1].index <= 200
    assert cert.final_error <= 0.05


def test_criterion_05_sublevel_unit_dichotomy(spec_one_minus_z):
    """Each stage unit is 1 off its support, under e^-m on it, and the
    certification errors decrease monotonically below 0.05."""
    stages = approx_unit_sublevel(spec_one_minus_z)
    assert stages
    for s in stages:
        assert s.off_support_deviation <= 1e-6
        assert s.on_support_max <= np.exp(-s.index) + 1e-6
    errors = [s.error for s in stages]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.05


def test_criterion_06_reference_zero_sets(grid):
    """The banded profile vanishes only at 1; the two-point product at 1, -i."""
    resolution = 8.0 * grid.spacing

    banded = essential_zero_set(example_boundary("banded-logmod", grid))
    assert len(banded.angles) == 1
    assert min(banded.angles[0], 2.0 * np.pi - banded.angles[0]) <= resolution

    two_point = essential_zero_set(example_boundary("two-point-product", grid))
    assert len(two_point.angles) == 2
    targets = (0.0, 1.5 * np.pi)
    for target in targets:
        gap = min(
            min(abs(a - target), 2.0 * np.pi - abs(a - target))
            for a in two_point.angles
        )
        assert gap <= resolution
    points = sorted((np.exp(1j * a) for a in two_point.angles), key=lambda p: p.real)
    assert abs(points[0] - (-1j)) <= resolution
    assert abs(points[1] - 1.0) <= resolution


@pytest.mark.parametrize("name", ["shift", "shift-squared", "singular-inner-1"])
def test_criterion_07_inner_generators_excluded(grid, name):
    f = example_boundary(name, grid)
    cert = certify_mideal(ideal([f], [name]))
    assert not cert.passed
    assert cert.failure_reason == "NotOuter"
    assert is_inner(f)
    assert inner_outer(f).unimodular_residual < 1e-6


def test_criterion_08_adjoint_kernel_triviality():
    for name in ("one-minus-z", "two-plus-z", "exp-z"):
        rep = get_example(name).taylor()
        assert adjoint_kernel_dim(rep, 64, tol=1e-10) == 0
    shift_squared = get_example("shift-squared").taylor()
    for M in (2, 5, 64):
        assert adjoint_kernel_dim(shift_squared, M, tol=1e-10) == 2


def test_criterion_09_outerness_oracles_agree(grid):
    """Jensen equality and least-squares density must classify the whole
    corpus identically; a single disagreement fails the suite."""
    assert len(ORACLE_CORPUS) >= 10
    for name in ORACLE_CORPUS:
        entry = get_example(name)
        jensen_outer = is_outer(entry.boundary(grid))
        density_outer = szego_distance(entry.taylor(), 512) < 0.05
        assert jensen_outer == density_outer, name


def test_criterion_10_analytic_prime_property(grid, cert_one_minus_z):
    """20 seeded divisor/quotient pairs with ess inf |a| > delta and
    a*b in the ideal all pass the division check."""
    rng = np.random.default_rng(20260816)
    z = np.exp(1j * grid.nodes)
    one_minus_z = example_boundary("one-minus-z", grid).values
    delta = 0.5

    def small_pair():
        r1 = 0.15 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        r2 = 0.15 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        return r1, r2

    for _ in range(20):
        a0 = (1.0 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        a1, a2 = small_pair()
        h1, h2 = small_pair()
        a = signal_from_values(grid, a0 + a1 * z + a2 * z * z)
        b = signal_from_values(grid, one_minus_z * (1.0 + h1 * z + h2 * z * z))
        assert a.inf_abs > delta
        assert analytic_prime_check(cert_one_minus_z, a, b, delta=delta)


def test_criterion_11_finitely_generated_collapse(grid, cert_one_minus_z):
    gens = [example_boundary("one-minus-z", grid), example_boundary("one-plus-z", grid)]
    disjoint = certify_mideal(ideal(gens, ["one-minus-z", "one-plus-z"]))
    assert disjoint.passed
    # |1 - z|^2 + |1 + z|^2 = 4, so the joint modulus is at least sqrt 2
    joint = np.maximum(np.abs(gens[0].values), np.abs(gens[1].values))
    assert joint.min() >= math.sqrt(2.0) - 1e-12
    assert disjoint.zero_angles == ()
    assert "I = I(1)" in disjoint.conclusion

    shared = certify_mideal(
        ideal(
            [
                example_boundary("one-minus-z", grid),
                example_boundary("one-minus-z-times-exp", grid),
            ],
            ["one-minus-z", "one-minus-z-times-exp"],
        )
    )
    assert shared.passed
    assert shared.zero_angles == (0.0,)
    for name in MEMBERSHIP_PROBES:
        h = example_boundary(name, grid)
        assert membership(h, shared) == membership(h, cert_one_minus_z), name
