"""Closed-form dimension counts, generating-function prefixes, model comparison."""

from __future__ import annotations

import pytest

from orangesplines.catalog import CATALOG, SWEEP_NAMES, get
from orangesplines.cofactor import spline_dim
from orangesplines.dimension import (
    HilbertPrefix,
    hilbert_prefix,
    layer_count,
    orange_dim_formula,
    orange_hilbert_prefix,
    verify_hilbert_identity,
    verify_standard_orange,
)
from orangesplines.exact import binom


def test_layer_count_zero_fiber_is_a_delta():
    for d in range(5):
        for j in range(d + 1):
            assert layer_count(d, j, 0) == (1 if j == d else 0)


def test_layer_count_partitions_the_simplex_lattice():
    # summing over levels recovers the number of exponents of degree <= d
    for fiber in range(1, 4):
        for d in range(6):
            total = sum(layer_count(d, j, fiber) for j in range(d + 1))
            assert total == binom(d + fiber, fiber)


def test_layer_count_interval_fiber_is_constant_one():
    for d in range(5):
        for j in range(d + 1):
            assert layer_count(d, j, 1) == 1


@pytest.mark.parametrize("name", SWEEP_NAMES)
@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_formula_agrees_with_the_linear_system(name, r, d):
    cx = get(name).complex
    assert orange_dim_formula(cx, r, d) == spline_dim(cx, r, d)


def test_formula_on_single_simplices():
    for name in ("segment", "triangle", "tetrahedron", "four-simplex"):
        cx = get(name).complex
        k = cx.dim
        for r in range(3):
            for d in range(5):
                assert orange_dim_formula(cx, r, d) == binom(d + k, k)


def test_hilbert_prefix_matches_pointwise_dimensions():
    cx = get("two-triangle").complex
    prefix = orange_hilbert_prefix(cx, 1, 4)
    assert prefix.r == 1
    assert prefix.dmax == 4
    assert list(prefix.coeffs) == [orange_dim_formula(cx, 1, d) for d in range(5)]


def test_hilbert_prefix_rejects_wrong_length():
    with pytest.raises(ValueError):
        HilbertPrefix(0, 3, (1, 2))


@pytest.mark.parametrize(
    "prefix", [hilbert_prefix, orange_hilbert_prefix, verify_hilbert_identity]
)
def test_negative_dmax_is_rejected(prefix):
    with pytest.raises(ValueError, match="dmax"):
        prefix(get("two-triangle").complex, 1, -1)


@pytest.mark.parametrize("dimension", [spline_dim, orange_dim_formula])
@pytest.mark.parametrize("d", [-1, 2])
def test_negative_smoothness_is_rejected_at_any_degree(dimension, d):
    with pytest.raises(ValueError, match="smoothness order"):
        dimension(get("two-triangle").complex, -1, d)


def test_hilbert_identity_holds_on_the_catalog():
    for entry in CATALOG:
        for r in range(2):
            ok, residuals = verify_hilbert_identity(entry.complex, r, 4)
            assert ok, (entry.name, r, residuals)
            assert all(v == 0 for v in residuals)


def test_hilbert_identity_residuals_have_prefix_length():
    cx = get("two-tetrahedron").complex
    ok, residuals = verify_hilbert_identity(cx, 0, 5)
    assert ok
    assert len(residuals) == 6


def test_standard_model_has_equal_dimensions():
    for name in ("two-triangle-skew", "tetrahedral-fan", "fan-4d"):
        cx = get(name).complex
        for r in range(2):
            for d in range(4):
                equal, original, standard = verify_standard_orange(cx, r, d)
                assert equal, (name, r, d, original, standard)
                assert original == spline_dim(cx, r, d)


def test_spot_value_thirteen(two_triangle):
    assert orange_dim_formula(two_triangle, 1, 3) == 13
    assert spline_dim(two_triangle, 1, 3) == 13


def test_spot_value_thirty():
    cx = get("two-tetrahedron").complex
    assert orange_dim_formula(cx, 0, 3) == 30
    assert spline_dim(cx, 0, 3) == 30


def test_fiber_dimension_zero_reduces_to_the_star_itself():
    # a full-dimensional intersection pattern keeps the star's own count
    cx = get("planar-star").complex
    for r in range(2):
        for d in range(4):
            assert orange_dim_formula(cx, r, d) == spline_dim(cx, r, d)


def test_univariate_prefix_values(two_intervals, univariate_dim):
    prefix = hilbert_prefix(two_intervals, 1, 5)
    assert list(prefix.coeffs) == [univariate_dim(2, 1, d) for d in range(6)]
