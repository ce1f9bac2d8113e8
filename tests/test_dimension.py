"""Closed-form dimension counts, generating-function prefixes, model comparison."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_cofactor import _dense_image, _recording_builds

from orangesplines import cofactor
from orangesplines.bernstein import bernstein_dim
from orangesplines.catalog import CATALOG, SWEEP_NAMES, get
from orangesplines.complexes import (
    InvalidComplexError, SimplicialComplex, adjacent_pairs, affine_image
)
from orangesplines.cofactor import spline_dim, spline_dims
from orangesplines.dimension import (
    HilbertPrefix,
    hilbert_prefix,
    layer_count,
    orange_dim_formula,
    orange_hilbert_prefix,
    star_dims_closed_form,
    verify_hilbert_identity,
    verify_standard_orange,
)
from orangesplines.exact import binom
from orangesplines.projection import project_orange, standard_form
from orangesplines.sweep import run_sweep


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


@pytest.mark.parametrize("r_values, d_values", [([], range(3)), (range(2), []), ([], [])])
def test_sweep_with_an_empty_grid_is_rejected(r_values, d_values):
    with pytest.raises(ValueError, match="empty"):
        run_sweep(get("two-triangle").complex, r_values, d_values)


@pytest.mark.parametrize("r_values, d_values", [([1], [-1]), ([0, 1], [-1, 2]), ([1], range(-2, 3))])
def test_sweep_with_a_negative_degree_is_rejected(r_values, d_values):
    with pytest.raises(ValueError, match="nonnegative"):
        run_sweep(get("two-triangle").complex, r_values, d_values)


def test_sweep_and_identity_build_one_system_per_prefix(monkeypatch, empty_prefix_cache):
    # from an empty cache: neither the image nor its projected star is in it
    matrix = [[3, 1, 0], [0, 2, 1], [1, 0, 5]]
    cx = affine_image(get("tetrahedral-fan").complex, matrix, [Fraction(7, 3), Fraction(-5, 2), 11])
    built = []
    original = cofactor.build_system

    def counting(complex_, r, d):
        built.append(d)
        return original(complex_, r, d)

    monkeypatch.setattr(cofactor, "build_system", counting)
    report = run_sweep(cx, [1], range(6))
    ok, _ = verify_hilbert_identity(cx, 1, 5)
    assert report.all_match and ok
    # one graded system for the orange and one for its star, each stored
    # under its normal form
    assert built == [5, 5]
    normal = [cofactor._normal_form(c) for c in (cx, project_orange(cx).complex)]
    assert list(empty_prefix_cache) == [
        (n.ambient_dim, n.den, n.nums, n.maximal_faces, 1) for n in normal
    ]


def test_the_model_and_identity_checks_read_two_eliminations_where_they_can(monkeypatch):
    # misses from an empty cache for (orange, standard model) and (orange,
    # projected star), the pairs that verify_standard_orange and
    # verify_hilbert_identity compare: only where the two are affine images
    # of one another (a simplex and its model, i = 0; an orange that is its
    # own star, i = k) do they share one normal form and one elimination.
    # On a simplex the oracle eliminates nothing: it has no facet pair
    for entry in CATALOG:
        i, k = entry.profile.i, entry.profile.k
        want = (1, 2) if i == 0 else (1, 1) if i == k else (2, 2)
        for cx in (entry.complex, _dense_image(entry.complex)):
            got = []
            for other in (standard_form(cx).standard, project_orange(cx).complex):
                cache = cofactor._PrefixCache(maxsize=cofactor._prefixes.maxsize)
                monkeypatch.setattr(cofactor, "_prefixes", cache)
                spline_dims(cx, 1, 3)
                spline_dims(other, 1, 3)
                got.append(cache.misses)
            assert tuple(got) == want, (entry.name, cx is entry.complex)


def _fan(rays, closed: bool) -> SimplicialComplex:
    """The star of the origin over ``rays``, listed counterclockwise: one
    triangle per consecutive pair, and one from the last ray back to the
    first when ``closed``."""
    n = len(rays)
    faces = [[0, j, j + 1] for j in range(1, n)] + ([[0, n, 1]] if closed else [])
    star = SimplicialComplex(2, [(0, 0), *rays], faces)
    star.validate()
    return star


def _slope_count(star: SimplicialComplex) -> int:
    """Distinct slopes of the rays from the centre, over Fraction."""
    return len({
        Fraction(star.vertices[v][1], star.vertices[v][0]) if star.vertices[v][0] else None
        for v in range(1, len(star.vertices))
    })


FANS = {
    # name: counterclockwise rays and their number of distinct slopes
    "two-lines": ([(2, 0), (0, 1), (-1, 0), (0, -3)], 2),
    "two-skew-lines": ([(1, 1), (Fraction(-1, 2), 1), (-3, -3), (1, -2)], 2),
    "three-rays": ([(1, 0), (0, 1), (-1, -1)], 3),
    "three-lines": ([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)], 3),
    "generic-4": ([(1, 0), (1, 2), (-1, 1), (-1, -3)], 4),
    "generic-5": ([(3, 1), (Fraction(1, 3), 2), (-2, 3), (-3, -2), (1, -4)], 5),
}


def _assert_closed_form_matches_both_oracles(star: SimplicialComplex, dmax: int) -> None:
    for r in range(4):
        closed = star_dims_closed_form(star, r, dmax)
        assert closed == spline_dims(star, r, dmax), r
        assert closed == tuple(bernstein_dim(star, r, d) for d in range(dmax + 1)), r


@pytest.mark.parametrize("name", [e.name for e in CATALOG if e.profile.i <= 2])
def test_closed_form_matches_both_oracles_on_catalog_stars(name):
    _assert_closed_form_matches_both_oracles(project_orange(get(name).complex).complex, 8)


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("name", FANS)
def test_closed_form_matches_both_oracles_on_fans(name, closed):
    rays, m = FANS[name]
    star = _fan(rays, closed)
    assert _slope_count(star) == m
    assert (len(adjacent_pairs(star)) == len(star.maximal_faces)) == closed
    _assert_closed_form_matches_both_oracles(star, 8)


FAN_LINES = ((1, 0), (0, 1), (1, 1), (1, -2), (3, 1))


@st.composite
def fans(draw) -> SimplicialComplex:
    """A fan of rays along at most three lines, so that closed fans with
    two slopes and with three are both frequent; ``validate`` must accept
    it."""
    lines = draw(st.lists(st.sampled_from(FAN_LINES), min_size=1, max_size=3, unique=True))
    signed = st.sampled_from([(line, sign) for line in lines for sign in (1, -1)])
    rays = []
    for (a, b), sign in draw(st.lists(signed, min_size=2, max_size=6, unique=True)):
        scale = sign * draw(st.sampled_from((1, 2, Fraction(1, 3))))
        rays.append((scale * a, scale * b))
    rays.sort(key=lambda p: math.atan2(p[1], p[0]))
    closed = len(rays) >= 3 and draw(st.booleans())
    try:
        return _fan(rays, closed)
    except ValueError:
        assume(False)


def test_closed_form_matches_both_oracles_on_random_fans():
    slopes = set()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(fans())
    def check(star):
        if len(adjacent_pairs(star)) == len(star.maximal_faces):
            slopes.add(_slope_count(star))
        _assert_closed_form_matches_both_oracles(star, 6)

    check()
    # closed fans with a repeated slope and with three
    assert {2, 3} <= slopes, slopes


def test_closed_form_edge_cases():
    point = SimplicialComplex(0, [()], [[0]])
    assert star_dims_closed_form(point, 2, 4) == (1,) * 5
    assert star_dims_closed_form(point, 0, -1) == ()
    assert star_dims_closed_form(_fan(FANS["two-lines"][0], True), 1, -1) == ()
    with pytest.raises(ValueError, match="smoothness order"):
        star_dims_closed_form(point, -1, 2)
    # a valid orange in R^3, a star or not, has no closed form: a ValueError
    # that is no InvalidComplexError, which a broken complex raises
    for name in ("vertex-star-3d", "two-tetrahedron"):
        with pytest.raises(ValueError, match="^no closed form for a star in R\\^3$") as error:
            star_dims_closed_form(get(name).complex, 1, 2)
        assert not isinstance(error.value, InvalidComplexError)


def test_the_formula_eliminates_only_stars_in_r3(monkeypatch):
    built = _recording_builds(monkeypatch)
    # an empty cache, so that every star the formula eliminates is built
    monkeypatch.setattr(cofactor, "_prefixes", cofactor._PrefixCache(maxsize=256))
    dense = affine_image(
        get("fan-4d").complex,
        [[2, 1, 0, 1], [0, 3, 1, 0], [1, 0, 2, 1], [0, 1, 0, 1]],
        [Fraction(1, 3), -2, Fraction(5, 7), 4],
    )
    for cx in [e.complex for e in CATALOG if e.profile.i <= 2] + [dense]:
        for r in range(3):
            orange_dim_formula(cx, r, 5)
    assert built == []
    orange_dim_formula(get("vertex-star-3d").complex, 1, 5)
    assert len(built) == 1
