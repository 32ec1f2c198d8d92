"""The function registry: every Taylor route must agree with its independent
closed-form boundary (or disc) route."""

import math

import numpy as np
import pytest

from hardylab import (
    CircleGrid,
    UnknownExample,
    catalog_names,
    example_boundary,
    get_example,
    is_inner,
    is_outer,
    singular_inner,
)
from hardylab.catalog import banded_log_modulus, ramp_log_modulus
from oracles import ORACLE_CORPUS, evaluate

DISC_PROBES = np.array([0.0, 0.3 + 0.4j, -0.55, 0.1 - 0.6j, 0.7j])


def test_registry_names_sorted_and_sized():
    names = catalog_names()
    assert list(names) == sorted(names)
    assert len(names) == 21
    assert set(ORACLE_CORPUS) <= set(names)
    assert len(ORACLE_CORPUS) >= 10


def test_unknown_name_reports_known_names():
    with pytest.raises(UnknownExample) as err:
        get_example("no-such-function")
    assert "one-minus-z" in str(err.value)


@pytest.mark.parametrize("name", catalog_names())
def test_kind_agrees_with_outer_and_inner_tests(name):
    entry = get_example(name)
    f = entry.boundary(CircleGrid(4096))
    expected = {"outer": (True, False), "inner": (False, True), "mixed": (False, False)}
    # the constant 1 is the one function that is both inner and outer
    want = (True, True) if name == "constant-one" else expected[entry.kind]
    assert (is_outer(f), is_inner(f)) == want


def test_entries_without_taylor_raise():
    with pytest.raises(UnknownExample):
        get_example("banded-logmod").taylor()
    assert get_example("offset-ramp").taylor_fn is None


@pytest.mark.parametrize(
    "name",
    [
        "constant-one",
        "one-minus-z",
        "one-plus-z",
        "two-plus-z",
        "one-minus-half-z",
        "one-minus-z-squared",
        "shift",
        "shift-squared",
        "shift-times-one-minus-z",
    ],
)
def test_polynomial_taylor_matches_boundary(name):
    g = CircleGrid(256)
    entry = get_example(name)
    sampled = entry.taylor().sample(g)
    assert np.allclose(sampled.values, entry.boundary(g).values, atol=1e-12)


@pytest.mark.parametrize("name", ["exp-z", "one-minus-z-times-exp", "shift-exp", "blaschke-half"])
def test_fast_decaying_series_match_boundary(name):
    g = CircleGrid(512)
    entry = get_example(name)
    sampled = entry.taylor().sample(g)
    assert np.allclose(sampled.values, entry.boundary(g).values, atol=1e-11)


@pytest.mark.parametrize("name,alpha", [("singular-inner-1", 1.0), ("singular-inner-i", 1j)])
def test_singular_inner_taylor_in_the_disc(name, alpha):
    # the series converges slowly on the circle, so cross-check in the disc
    # where truncation error is geometrically damped
    rep = get_example(name).taylor()
    got = np.array([evaluate(rep, z) for z in DISC_PROBES])
    expect = np.array([singular_inner(alpha, z) for z in DISC_PROBES])
    assert np.allclose(got, expect, atol=1e-12)
    assert evaluate(rep, 0.0) == pytest.approx(math.exp(-1))


def test_composite_taylor_routes_in_the_disc():
    two_point = get_example("two-point-product").taylor()
    for z in DISC_PROBES:
        expect = (1.0 - z) * (1.0 - singular_inner(1j, z))
        assert evaluate(two_point, z) == pytest.approx(expect, abs=1e-12)
    one_minus_si = get_example("one-minus-singular-i").taylor()
    for z in DISC_PROBES:
        assert evaluate(one_minus_si, z) == pytest.approx(
            1.0 - singular_inner(1j, z), abs=1e-12
        )


def test_inner_entries_are_unimodular_on_the_circle(grid):
    for name in ("shift", "blaschke-half", "singular-inner-1", "singular-inner-i"):
        f = get_example(name).boundary(grid)
        mod = np.abs(f.values)
        # the huge phase arguments next to a singular node cost ~1e-10 in exp
        assert np.max(np.abs(mod[mod > 1e-12] - 1.0)) < 1e-8


def test_banded_profile_values():
    k = banded_log_modulus(np.array([0.6, 0.3, 0.11, 2.0, -0.6, 0.0]))
    assert k[0] == -1.0  # 0.6 in (1/2, 1]
    assert k[1] == -3.0  # floor(1/0.3)
    assert k[2] == -9.0
    assert k[3] == 1.0
    assert k[4] == -1.0
    assert k[5] < -100.0  # the bands accumulate at 0: essential value, not 1
    # one of the thin bands below pi, value 1/n
    n = 3
    inside = math.pi - 2.0 ** -n - 0.5 * 8.0 ** -n
    assert banded_log_modulus(np.array([inside]))[0] == pytest.approx(1 / 3)


def test_ramp_profile_values():
    k = ramp_log_modulus(np.array([-0.5, 0.0, 0.5, 1.0]))
    assert k[0] == pytest.approx(-(0.25 + 1.0))
    assert k[1] == 0.0
    assert k[2] == pytest.approx(-0.5)
    assert k[3] == pytest.approx(-1.0)


def test_offset_ramp_is_unimodular_minus_ramp(grid):
    ramp = get_example("ramp-logmod").boundary(grid)
    offset = get_example("offset-ramp").boundary(grid)
    alpha = ramp.values[0]
    assert abs(abs(alpha) - 1.0) < 1e-12
    assert np.allclose(offset.values, alpha - ramp.values)
    # its essential zero: the offset exactly cancels the ramp at angle 0
    assert offset.values[0] == 0.0


def test_example_boundary_helper(small_grid):
    f = example_boundary("one-minus-z", small_grid)
    assert f.values[0] == pytest.approx(0.0)
