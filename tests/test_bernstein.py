"""Domain points, basis conversion, layer covers, determining sets."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orangesplines.bernstein import (
    CardinalityMismatchError,
    DeterminingSet,
    _ordered_points,
    bernstein_dim,
    complex_domain_points,
    compute_mds,
    layer_decomposition,
    lift_mds,
    bb_to_monomial,
    monomial_to_bb,
    simplex_domain_points,
    simplex_multiindices,
    verify_mds,
)
from orangesplines.catalog import CATALOG, get
from orangesplines.cofactor import spline_basis, spline_dim
from orangesplines.complexes import SimplicialComplex, UnsupportedOrangeError, affine_image
from orangesplines.dimension import orange_dim_formula
from orangesplines.exact import EchelonBasis, RationalMatrix, binom
from orangesplines.polynomials import Polynomial
from orangesplines.projection import standard_form

UNIT = ((Fraction(0),), (Fraction(1),))


def test_multiindices_count_and_order():
    for nverts in (1, 2, 3, 4):
        for d in range(4):
            idx = simplex_multiindices(nverts, d)
            assert len(idx) == binom(d + nverts - 1, nverts - 1)
            assert all(sum(a) == d for a in idx)
            assert list(idx) == sorted(idx, reverse=True)


def test_interval_lattice():
    pts = simplex_domain_points(UNIT, 2)
    assert [p.coordinates for p in pts] == [
        (Fraction(0),),
        (Fraction(1, 2),),
        (Fraction(1),),
    ]


def test_degree_zero_uses_the_first_vertex():
    pts = simplex_domain_points(UNIT, 0)
    assert len(pts) == 1
    assert pts[0].coordinates == (Fraction(0),)
    assert pts[0].multi_index == (0, 0)


def test_triangle_degree_one_lattice_is_the_vertex_set(two_triangle):
    verts = two_triangle.face_points((0, 1, 2))
    pts = simplex_domain_points(verts, 1)
    assert sorted(p.coordinates for p in pts) == sorted(verts)


def test_identification_counts_occurrences(two_triangle):
    pts = complex_domain_points(two_triangle, 2)
    assert len(pts) == 9
    doubled = [p for p in pts if len(p.occurrences) == 2]
    assert len(doubled) == 3
    for p in doubled:
        # the shared wall is the segment x = 0
        assert p.coordinates[0] == 0


def test_identified_points_cover_each_face():
    cx = get("tetrahedral-fan").complex
    d = 2
    pts = complex_domain_points(cx, d)
    per_face = binom(d + cx.dim, cx.dim)
    raw = sum(len(p.occurrences) for p in pts)
    assert raw == per_face * len(cx.maximal_faces)


def test_constant_converts_to_all_ones():
    one = Polynomial.constant(1, 1)
    coeffs = monomial_to_bb(one, UNIT, 3)
    assert set(coeffs.values()) == {Fraction(1)}
    assert len(coeffs) == 4


def test_coordinate_function_on_the_unit_interval():
    x = Polynomial.variable(1, 0)
    coeffs = monomial_to_bb(x, UNIT, 1)
    assert coeffs[(1, 0)] == 0
    assert coeffs[(0, 1)] == 1


def test_square_is_the_last_basis_member():
    x = Polynomial.variable(1, 0)
    coeffs = monomial_to_bb(x * x, UNIT, 2)
    assert [coeffs[a] for a in simplex_multiindices(2, 2)] == [0, 0, 1]


def test_degree_overflow_is_rejected():
    x = Polynomial.variable(1, 0)
    with pytest.raises(ValueError):
        monomial_to_bb(x * x, UNIT, 1)


def test_round_trip_on_random_polynomials(two_triangle):
    import random

    rng = random.Random(20240611)
    verts = two_triangle.face_points((0, 1, 2))
    for _ in range(12):
        d = rng.randint(0, 4)
        coeffs = {}
        for a in range(d + 1):
            for b in range(d + 1 - a):
                coeffs[(a, b)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        p = Polynomial(2, coeffs)
        back = bb_to_monomial(monomial_to_bb(p, verts, d), verts, d)
        assert back == p


def test_layer_decomposition_two_tetrahedra():
    cx = get("two-tetrahedron").complex
    ld = layer_decomposition(cx, 3)
    assert ld.fiber_dim == 2
    assert [(l.level, len(l.base_points), len(l.shifts)) for l in ld.layers] == [
        (0, 1, 4),
        (1, 3, 3),
        (2, 5, 2),
        (3, 7, 1),
    ]
    assert ld.total == 30


def test_layer_decomposition_is_an_exact_cover():
    for name in ("two-triangle", "two-tetrahedron", "tetrahedral-fan", "fan-4d"):
        cx = get(name).complex
        for d in (1, 2, 3):
            ld = layer_decomposition(cx, d)
            flat = [p for layer in ld.layers for p in layer.points]
            assert len(flat) == len({p for p in flat})
            assert ld.total == len(complex_domain_points(cx, d))


def test_layer_decomposition_degree_zero():
    cx = get("two-tetrahedron").complex
    ld = layer_decomposition(cx, 0)
    assert len(ld.layers) == 1
    assert ld.layers[0].level == 0
    assert ld.total == 1
    assert ld.layers[0].points[0] == (Fraction(0),) * 3


def test_layer_decomposition_requires_standard_position():
    with pytest.raises(ValueError):
        layer_decomposition(get("two-triangle-skew").complex, 2)


def test_mds_on_two_intervals(two_intervals):
    ds = compute_mds(two_intervals, 0, 1)
    assert ds.dimension == 3
    assert sorted(p.coordinates for p in ds.points) == [
        (Fraction(-1),),
        (Fraction(0),),
        (Fraction(1),),
    ]


def test_mds_size_r1_d3(two_intervals):
    ds = compute_mds(two_intervals, 1, 3)
    assert ds.dimension == 6
    assert len(ds.points) == 6
    assert verify_mds(two_intervals, 1, 3, ds)


def test_mds_on_a_single_simplex_is_everything():
    cx = get("triangle").complex
    for d in range(4):
        ds = compute_mds(cx, 1, d)
        assert len(ds.points) == binom(d + 2, 2)


def test_mds_is_deterministic(two_intervals):
    first = compute_mds(two_intervals, 1, 3)
    second = compute_mds(two_intervals, 1, 3)
    assert [p.coordinates for p in first.points] == [
        p.coordinates for p in second.points
    ]


def test_mds_verifies_across_the_catalog():
    for name in ("two-triangle", "planar-star", "two-tetrahedron"):
        cx = get(name).complex
        for r in range(2):
            for d in range(4):
                assert verify_mds(cx, r, d), (name, r, d)


def test_verify_rejects_an_undersized_set(two_intervals):
    ds = compute_mds(two_intervals, 1, 3)
    trimmed = type(ds)(ds.r, ds.d, ds.dimension, ds.points[:-1])
    assert not verify_mds(two_intervals, 1, 3, trimmed)


def test_lift_two_triangle():
    lift = lift_mds(get("two-triangle").complex, 1, 3)
    assert lift.per_level == ((0, 1, 1), (1, 2, 1), (2, 4, 1), (3, 6, 1))
    assert lift.total == 13
    assert lift.formula_value == 13
    coords = [p.coordinates for p in lift.points]
    assert len(coords) == len(set(coords))


def test_lift_two_tetrahedron():
    lift = lift_mds(get("two-tetrahedron").complex, 0, 3)
    assert lift.total == 30
    assert lift.formula_value == 30
    assert sum(size * mult for _, size, mult in lift.per_level) == 30


def test_lift_with_full_dimensional_intersection_keeps_top_level_only():
    cx = get("planar-star").complex
    lift = lift_mds(cx, 1, 3)
    assert len(lift.per_level) == 1
    level, size, mult = lift.per_level[0]
    assert level == 3
    assert mult == 1
    assert lift.total == size == spline_dim(cx, 1, 3)


def test_lift_levels_follow_the_counting_rule():
    cx = get("tetrahedral-fan").complex
    r, d = 1, 3
    lift = lift_mds(cx, r, d)
    fiber = 3 - 2
    expected = 0
    for level, size, mult in lift.per_level:
        assert mult == binom(d - level + fiber - 1, fiber - 1)
        expected += size * mult
    assert lift.total == expected == orange_dim_formula(cx, r, d)


def test_lift_requires_standard_position():
    with pytest.raises(ValueError):
        lift_mds(get("two-triangle-skew").complex, 1, 2)


def test_lift_degree_zero():
    lift = lift_mds(get("two-tetrahedron").complex, 1, 0)
    assert lift.total == 1
    assert lift.formula_value == 1
    assert lift.points[0].coordinates == (Fraction(0),) * 3


# ---------------------------------------------------------------------------
# the Bernstein-form system against the spline-basis greedy it replaced
# ---------------------------------------------------------------------------

def _reference_rows(complex_, basis, d, point, bb_cache):
    """Coefficient functionals of one point on a spline basis: one row per
    host, converted to Bernstein form piece by piece, duplicates dropped."""
    rows = []
    for fidx, alpha in point.occurrences:
        verts = complex_.face_points(complex_.maximal_faces[fidx])
        row = []
        for bidx, spline in enumerate(basis):
            if (fidx, bidx) not in bb_cache:
                bb_cache[fidx, bidx] = monomial_to_bb(spline[fidx], verts, d)
            row.append(bb_cache[fidx, bidx][alpha])
        if tuple(row) not in rows:
            rows.append(tuple(row))
    return rows


def _reference_mds(complex_, r, d):
    """The greedy selection on an explicit spline basis: walk the points in
    hub order and keep each one whose functionals raise the rank."""
    basis = spline_basis(complex_, r, d)
    bb_cache = {}
    tracker = EchelonBasis()
    selected = []
    for point in _ordered_points(complex_, d):
        if tracker.rank == len(basis):
            break
        added = False
        for row in _reference_rows(complex_, basis, d, point, bb_cache):
            if tracker.add(row):
                added = True
        if added:
            selected.append(point)
    assert tracker.rank == len(basis)
    return selected


def _reference_verify(complex_, r, d, points):
    """Rank test of the selection matrix on an explicit spline basis."""
    basis = spline_basis(complex_, r, d)
    if len(points) != len(basis):
        return False
    bb_cache = {}
    rows = [_reference_rows(complex_, basis, d, p, bb_cache)[0] for p in points]
    return RationalMatrix.from_rows(rows).rank() == len(basis)


def _catalog_models():
    for entry in CATALOG:
        sf = standard_form(entry.complex)
        yield entry.name, "as given", entry.complex
        yield entry.name, "star", sf.projected.complex
        yield entry.name, "standard", sf.standard


def test_selection_matches_the_spline_basis_greedy_on_the_catalog():
    cells = 0
    for name, kind, cx in _catalog_models():
        for r in range(2):
            for d in range(5):
                got = compute_mds(cx, r, d).points
                assert list(got) == _reference_mds(cx, r, d), (name, kind, r, d)
                cells += 1
    assert cells == 330


@st.composite
def integer_images(draw):
    """An invertible integer affine image of a catalog orange in R^1..R^3."""
    entry = draw(st.sampled_from([e for e in CATALOG if e.complex.ambient_dim <= 3]))
    k = entry.complex.ambient_dim
    entries = st.integers(-2, 2)
    matrix = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k))
    assume(RationalMatrix.from_rows(matrix).rank() == k)
    translation = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    return affine_image(entry.complex, matrix, translation)


def test_selection_and_verification_match_the_reference_on_affine_images():
    swapped = []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(integer_images(), st.integers(0, 1), st.integers(0, 3), st.integers(0, 10**6))
    def check(cx, r, d, pick):
        ds = compute_mds(cx, r, d)
        assert list(ds.points) == _reference_mds(cx, r, d)
        assert verify_mds(cx, r, d, ds) is True
        assert _reference_verify(cx, r, d, ds.points) is True
        trimmed = DeterminingSet(r, d, ds.dimension, ds.points[:-1])
        assert verify_mds(cx, r, d, trimmed) is False
        assert _reference_verify(cx, r, d, trimmed.points) is False
        others = [p for p in complex_domain_points(cx, d) if p not in ds.points]
        if others:
            points = ds.points[:-1] + (others[pick % len(others)],)
            expected = _reference_verify(cx, r, d, points)
            assert verify_mds(cx, r, d, DeterminingSet(r, d, ds.dimension, points)) is expected
            swapped.append(expected)

    check()
    # swapping the last point for another one must both keep and break it
    assert True in swapped and False in swapped


def test_bernstein_dim_matches_the_oracle_and_the_formula():
    cells = 0
    for name, kind, cx in _catalog_models():
        for r in range(3):
            for d in range(6):
                got = bernstein_dim(cx, r, d)
                assert got == spline_dim(cx, r, d), (name, kind, r, d)
                if kind == "as given":
                    assert got == orange_dim_formula(cx, r, d), (name, r, d)
                cells += 1
    assert cells == 594


def test_bernstein_dim_domain():
    cx = get("two-triangle").complex
    with pytest.raises(ValueError):
        bernstein_dim(cx, -1, 2)
    assert bernstein_dim(cx, 1, -1) == 0


def test_verify_checks_the_domain_before_the_set():
    # the Bernstein system (5 points) and the oracle (dimension 6) disagree
    # here, so the typed error must come before any count
    bowtie = SimplicialComplex(
        2, [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1, 2], [0, 3, 4]]
    )
    ds = DeterminingSet(0, 1, 6, tuple(complex_domain_points(bowtie, 1)))
    with pytest.raises(UnsupportedOrangeError):
        verify_mds(bowtie, 0, 1, ds)
    with pytest.raises(UnsupportedOrangeError):
        bernstein_dim(bowtie, 0, 1)
