"""Smoothness systems and their nullity against classical dimension counts."""

from __future__ import annotations

import gc
import weakref
from fractions import Fraction

import pytest

from orangesplines.catalog import get
from orangesplines.cofactor import build_system, facet_linear_form, spline_basis, spline_dim
from orangesplines.complexes import SimplicialComplex, affine_image
from orangesplines.dimension import orange_dim_formula
from orangesplines.projection import project_orange
from orangesplines.exact import binom
from orangesplines.polynomials import Polynomial, divisible_by_linear_power


def test_facet_linear_form_for_known_walls():
    # the y-axis wall between the two triangles
    two = get("two-triangle").complex
    ell = facet_linear_form([two.vertices[0], two.vertices[1]])
    # vanishes on the wall, first nonzero coefficient normalized to one
    assert ell.evaluate([Fraction(0), Fraction(0)]) == 0
    assert ell.evaluate([Fraction(0), Fraction(5)]) == 0
    assert ell.evaluate([Fraction(1), Fraction(0)]) == 1

    point = SimplicialComplex(1, [[Fraction(2, 3)]], [[0]])
    ell1 = facet_linear_form([point.vertices[0]])
    assert ell1.evaluate([Fraction(2, 3)]) == 0
    assert ell1.evaluate([Fraction(5, 3)]) == 1


def test_facet_linear_form_rejects_degenerate_input():
    with pytest.raises(ValueError):
        facet_linear_form([(Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))])


def test_system_shape():
    cx = get("two-triangle").complex
    sys = build_system(cx, 1, 3)
    per_face = binom(3 + 2, 2)
    assert sys.face_block_size == per_face
    assert sys.n_faces == 2
    assert len(sys.pairs) == 1
    cof = binom(3 - 1 - 1 + 2, 2)
    assert sys.matrix.ncols == 2 * per_face + cof
    assert sys.matrix.nrows == per_face


def test_disconnected_complex_has_full_dimension():
    # two disjoint segments carry independent polynomials at every smoothness
    cx = SimplicialComplex(1, [[0], [1], [5], [7]], [[0, 1], [2, 3]])
    for r in range(3):
        for d in range(4):
            assert spline_dim(cx, r, d) == 2 * (d + 1)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5])
def test_univariate_dimension_two_intervals(two_intervals, univariate_dim, r, d):
    assert spline_dim(two_intervals, r, d) == univariate_dim(2, r, d)


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_univariate_dimension_three_intervals(univariate_dim, r, d):
    cx = SimplicialComplex(
        1, [[0], [-2], [Fraction(1, 2)], [3]], [[0, 1], [0, 2], [2, 3]]
    )
    assert spline_dim(cx, r, d) == univariate_dim(3, r, d)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_continuous_dimension_planar_star(continuous_dim_2d, d):
    cx = get("planar-star").complex
    assert spline_dim(cx, 0, d) == continuous_dim_2d(5, 8, 4, d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_continuous_dimension_vertex_star(continuous_dim_3d, d):
    cx = get("vertex-star-3d").complex
    assert spline_dim(cx, 0, d) == continuous_dim_3d(5, 10, 10, 4, d)


def test_high_smoothness_collapses_to_global_polynomials():
    # once r >= d every piecewise function is a single polynomial
    for name in ("two-triangle", "planar-star", "two-tetrahedron"):
        cx = get(name).complex
        k = cx.dim
        for d in range(3):
            for r in range(d, d + 2):
                assert spline_dim(cx, r, d) == binom(d + k, k)


def test_basis_members_are_smooth_and_independent():
    cx = get("two-triangle").complex
    r, d = 1, 3
    basis = spline_basis(cx, r, d)
    assert len(basis) == spline_dim(cx, r, d)
    wall = facet_linear_form([cx.vertices[0], cx.vertices[1]])
    seen = set()
    for spline in basis:
        assert len(spline) == 2
        diff = spline[0] - spline[1]
        assert divisible_by_linear_power(diff, wall, r + 1)
        seen.add(
            tuple(tuple(sorted(piece.coeffs.items())) for piece in spline)
        )
    assert len(seen) == len(basis)


def test_basis_contains_all_globals():
    cx = get("two-triangle").complex
    basis = spline_basis(cx, 2, 2)
    # r >= d so every member must be one global polynomial
    for spline in basis:
        assert spline[0] == spline[1]


def test_describe_is_json_ready():
    import json

    cx = get("two-triangle").complex
    sys = build_system(cx, 0, 1)
    blob = json.dumps(sys.describe(), sort_keys=True)
    again = json.dumps(sys.describe(), sort_keys=True)
    assert blob == again
    data = json.loads(blob)
    assert data["r"] == 0
    assert data["d"] == 1
    assert len(data["columns"]) == sys.matrix.ncols


def test_dimension_is_cached_and_consistent():
    cx = get("tetrahedral-fan").complex
    first = spline_dim(cx, 1, 3)
    second = spline_dim(cx, 1, 3)
    assert first == second
    assert first == build_system(cx, 1, 3).dimension()


def test_dimension_cache_keeps_no_complex_alive():
    # a fresh instance whose memo will hold its profile and projected star
    matrix = [[2, 1, 0], [0, 1, 0], [1, 0, 3]]
    image = affine_image(get("two-tetrahedron").complex, matrix, [1, -1, 2])
    value = (image.ambient_dim, image.vertices, image.maximal_faces)
    dim = orange_dim_formula(image, 1, 3)
    assert spline_dim(image, 1, 3) == dim
    refs = [weakref.ref(image), weakref.ref(project_orange(image).complex)]
    del image
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    # an equal complex still reads the same entry
    hits = spline_dim.cache_info().hits
    assert spline_dim(SimplicialComplex(*value), 1, 3) == dim
    assert spline_dim.cache_info().hits == hits + 1
