"""Complex validation, orange recognition, exact geometry predicates."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from orangesplines.complexes import (
    EmptyMedialFaceError,
    InvalidComplexError,
    NotPureError,
    SimplicialComplex,
    UnsupportedOrangeError,
    _affinely_independent,
    _intersection_within_hull,
    adjacent_pairs,
    affine_image,
    barycentric_coordinates,
    detect_orange,
)
from orangesplines.bernstein import bernstein_dim, compute_mds
from orangesplines.catalog import CATALOG, get
from orangesplines.cofactor import spline_dim
from orangesplines.dimension import orange_dim_formula
from orangesplines.exact import solve_linear


def test_catalog_entries_validate_with_expected_profiles():
    for entry in CATALOG:
        entry.complex.validate()
        profile = detect_orange(entry.complex)
        assert profile == entry.profile, entry.name


def test_vertex_arity_checked():
    cx = SimplicialComplex(2, [[0, 0], [1]], [[0, 1]])
    with pytest.raises(InvalidComplexError, match="arity"):
        cx.validate()


def test_face_index_range_checked():
    cx = SimplicialComplex(1, [[0], [1]], [[0, 2]])
    with pytest.raises(InvalidComplexError, match="missing vertex"):
        cx.validate()


def test_face_with_a_repeated_vertex_rejected():
    # set(f) would silently make this triangle the segment (0, 1)
    with pytest.raises(InvalidComplexError, match=r"face \[0, 1, 1\] repeats a vertex"):
        SimplicialComplex(2, [(0, 0), (1, 0), (0, 1)], [[0, 1, 1]])


def test_duplicate_and_nested_faces_rejected():
    dup = SimplicialComplex(2, [[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [2, 1, 0]])
    with pytest.raises(InvalidComplexError, match="nested"):
        dup.validate()
    nested = SimplicialComplex(2, [[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [0, 1]])
    with pytest.raises(InvalidComplexError, match="nested"):
        nested.validate()


def test_degenerate_face_rejected():
    flat = SimplicialComplex(2, [[0, 0], [1, 1], [2, 2]], [[0, 1, 2]])
    with pytest.raises(InvalidComplexError, match="degenerate"):
        flat.validate()


def test_overlapping_triangles_rejected():
    # both triangles sit on the shared edge, the second apex inside the first
    cx = SimplicialComplex(
        2,
        [[0, 0], [2, 0], [0, 2], [1, Fraction(1, 2)]],
        [[0, 1, 2], [0, 1, 3]],
    )
    with pytest.raises(InvalidComplexError, match="overlap"):
        cx.validate()


def test_crossing_segments_rejected():
    cx = SimplicialComplex(
        2,
        [[0, 0], [2, 2], [0, 2], [2, 0]],
        [[0, 1], [2, 3]],
    )
    with pytest.raises(InvalidComplexError, match="overlap"):
        cx.validate()


def test_touching_interiors_rejected():
    # segments meet at (1, 1), which is a vertex of only one of them
    cx = SimplicialComplex(
        2,
        [[0, 0], [1, 1], [0, 2], [2, 0]],
        [[0, 1], [2, 3]],
    )
    with pytest.raises(InvalidComplexError, match="overlap"):
        cx.validate()


def test_disjoint_faces_are_fine():
    for cx in (
        SimplicialComplex(1, [[0], [1], [5], [7]], [[0, 1], [2, 3]]),
        # the lines through the two segments cross outside both of them
        SimplicialComplex(2, [[-2, 1], [1, 2], [2, -1], [2, -2]], [[0, 1], [2, 3]]),
    ):
        cx.validate()
        with pytest.raises(EmptyMedialFaceError):
            detect_orange(cx)


def test_impure_complex_rejected_by_detection():
    cx = SimplicialComplex(2, [[0, 0], [1, 0], [0, 1], [2, 0]], [[0, 1, 2], [1, 3]])
    cx.validate()
    with pytest.raises(NotPureError):
        detect_orange(cx)


BOWTIE = SimplicialComplex(
    2, [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1, 2], [0, 3, 4]]
)
FLAT_ORANGE = SimplicialComplex(
    3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, 0, 0)], [[0, 1, 2], [0, 2, 3]]
)


@pytest.mark.parametrize(
    "cx,reason",
    [(BOWTIE, "shared facets"), (FLAT_ORANGE, "ambient dimension")],
    ids=["bowtie", "flat-in-3d"],
)
def test_oranges_outside_the_domain_are_rejected(cx, reason):
    cx.validate()
    with pytest.raises(UnsupportedOrangeError, match=reason):
        detect_orange(cx)
    with pytest.raises(UnsupportedOrangeError):
        orange_dim_formula(cx, 1, 2)
    with pytest.raises(UnsupportedOrangeError):
        compute_mds(cx, 0, 1)
    with pytest.raises(UnsupportedOrangeError):
        bernstein_dim(cx, 0, 1)


def test_cofactor_oracle_stays_generic_on_the_bowtie():
    # no shared facet, so no smoothness condition: two free linear pieces
    assert spline_dim(BOWTIE, 0, 1) == 6


def test_adjacent_pairs():
    two = SimplicialComplex(
        2, [[0, 0], [0, 1], [-1, 0], [1, 0]], [[0, 1, 2], [0, 1, 3]]
    )
    assert adjacent_pairs(two) == [(0, 1)]
    fan = get("tetrahedral-fan").complex  # a closed cycle of four segments
    assert len(adjacent_pairs(fan)) == 4


def test_barycentric_coordinates():
    verts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    bc = barycentric_coordinates((Fraction(1, 3), Fraction(1, 3)), verts)
    assert bc == [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]
    off = barycentric_coordinates((Fraction(2), Fraction(2)), verts)
    assert off is not None and any(c < 0 for c in off)
    outside_hull = barycentric_coordinates(
        (Fraction(1), Fraction(1)), [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]
    )
    assert outside_hull is None


def test_affine_image_preserves_structure():
    entry = get("two-triangle")
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    t = [Fraction(3), Fraction(-2)]
    img = affine_image(entry.complex, m, t)
    img.validate()
    assert img.maximal_faces == entry.complex.maximal_faces
    assert detect_orange(img).i == entry.profile.i


def test_normalization_sorts_faces_and_vertices_in_faces():
    cx = SimplicialComplex(1, [[0], [1], [2]], [[2, 1], [1, 0]])
    assert cx.maximal_faces == ((0, 1), (1, 2))
    assert cx.dim == 1
    assert cx.is_pure


def _within_hull_by_vertex_enumeration(verts_a, verts_b, common):
    """Reference for ``_intersection_within_hull`` by brute force.

    Points of the intersection are written as convex combinations from both
    sides; the combined linear system cuts out a polytope in the coefficient
    space, every vertex of which is found by basis enumeration and tested
    for membership in conv(common).
    """
    na, nb = len(verts_a), len(verts_b)
    dim = len(verts_a[0])
    nvars = na + nb
    eq_rows = [
        [verts_a[i][c] for i in range(na)] + [-verts_b[j][c] for j in range(nb)]
        for c in range(dim)
    ]
    eq_rhs = [Fraction(0)] * dim
    eq_rows.append([Fraction(1)] * na + [Fraction(0)] * nb)
    eq_rows.append([Fraction(0)] * na + [Fraction(1)] * nb)
    eq_rhs += [Fraction(1), Fraction(1)]
    sol = solve_linear(eq_rows, eq_rhs)
    if sol is None:
        return True
    particular, basis = sol
    f = len(basis)
    cand = []
    for active in combinations(range(nvars), f):
        mat = [[basis[t][idx] for t in range(f)] for idx in active]
        s = solve_linear(mat, [-particular[idx] for idx in active])
        if s is None or s[1]:
            continue
        x = list(particular)
        for t in range(f):
            for idx in range(nvars):
                x[idx] += basis[t][idx] * s[0][t]
        if all(v >= 0 for v in x):
            cand.append(x)
    if cand and not common:
        return False
    for x in cand:
        pt = tuple(sum(x[i] * verts_a[i][c] for i in range(na)) for c in range(dim))
        bc = barycentric_coordinates(pt, common)
        if bc is None or any(c < 0 for c in bc):
            return False
    return True


@st.composite
def simplex_pairs(draw):
    """Two affinely independent simplices with 0..min(k)+1 shared vertices."""
    dim = draw(st.integers(1, 4))
    na = draw(st.integers(1, dim + 1))
    nb = na if draw(st.booleans()) else draw(st.integers(1, dim + 1))
    shared = draw(st.integers(0, min(na, nb)))
    n = na + nb - shared
    coords = st.tuples(*[st.integers(-3, 3)] * dim)
    points = draw(st.lists(coords, min_size=n, max_size=n, unique=True))
    points = [tuple(Fraction(c) for c in p) for p in points]
    common = points[:shared]
    verts_a = common + points[shared:na]
    verts_b = common + points[na:]
    assume(_affinely_independent(verts_a) and _affinely_independent(verts_b))
    return verts_a, verts_b, common


def test_dependence_criterion_matches_vertex_enumeration():
    outcomes = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(simplex_pairs())
    def check(pair):
        expected = _within_hull_by_vertex_enumeration(*pair)
        assert _intersection_within_hull(*pair) == expected
        outcomes.append(expected)

    check()
    # a run in which one outcome never occurs would check nothing
    assert True in outcomes and False in outcomes
