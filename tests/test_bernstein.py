"""Domain points, basis conversion, layer covers, determining sets."""

from __future__ import annotations

import gc
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_algebra import Echelon, barycentric_coordinates, bb_to_monomial, rank
from test_cofactor import _recording_builds, normal_form_cases
from test_generated_oranges import generated_oranges
from test_projection import _fresh

from orangesplines import bernstein, cofactor, dimension
from orangesplines.bernstein import (
    CardinalityMismatchError,
    DeterminingSet,
    SetMismatchError,
    _system,
    bernstein_dim,
    complex_domain_points,
    compute_mds,
    layer_decomposition,
    lift_mds,
    monomial_to_bb,
    simplex_domain_points,
    simplex_multiindices,
    verify_mds,
)
from orangesplines.catalog import CATALOG, get
from orangesplines.cofactor import spline_basis, spline_dim
from orangesplines.complexes import (
    InvalidComplexError,
    SimplicialComplex,
    UnsupportedOrangeError,
    adjacent_pairs,
    affine_image,
    detect_orange,
)
from orangesplines.dimension import orange_dim_formula
from orangesplines.exact import _integer_row, _strip_content, binom
from orangesplines.polynomials import Polynomial
from orangesplines.projection import project_orange, standard_form

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


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1/2", None])
@pytest.mark.parametrize(
    "convert",
    [
        lambda verts: simplex_domain_points(verts, 1),
        lambda verts: monomial_to_bb(Polynomial.variable(1, 0), verts, 1),
        lambda verts: bb_to_monomial({(1, 0): 1, (0, 1): 0}, verts, 1),
    ],
    ids=["simplex_domain_points", "monomial_to_bb", "bb_to_monomial"],
)
def test_simplex_vertices_take_only_ints_and_fractions(convert, bad):
    with pytest.raises(TypeError, match=r"^vertex 1 coordinate 0 must be an int or a Fraction, got "):
        convert([(0,), (bad,)])
    # ints and Fractions are read exactly
    assert convert([(0,), (Fraction(1, 10),)]) == convert([(Fraction(0),), (Fraction(1, 10),)])


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([(0, 0), (1,), (0, 1)], "arity"),
        ([(0, 0), (1, 1), (2, 2)], "degenerate"),
        ([(0, 0), (1, 0), (0, 0)], "duplicate vertex"),
    ],
    ids=["ragged", "dependent", "duplicate"],
)
@pytest.mark.parametrize(
    "convert",
    [
        lambda verts: simplex_domain_points(verts, 2),
        lambda verts: monomial_to_bb(Polynomial.variable(2, 0), verts, 1),
        lambda verts: bb_to_monomial({(1, 0, 0): 1}, verts, 1),
    ],
    ids=["simplex_domain_points", "monomial_to_bb", "bb_to_monomial"],
)
def test_simplex_vertices_must_be_a_geometric_simplex(convert, vertices, message):
    with pytest.raises(InvalidComplexError, match=message):
        convert(vertices)
    convert([(0, 0), (1, 0), (0, 1)])


def test_a_polynomial_in_other_variables_is_not_converted():
    # a second variable would be dropped, and x_1 read as all zeros
    with pytest.raises(ValueError, match="polynomial in 2 variables on a simplex in R\\^1"):
        monomial_to_bb(Polynomial.variable(2, 1), UNIT, 1)
    with pytest.raises(ValueError, match="polynomial in 0 variables on a simplex in R\\^1"):
        monomial_to_bb(Polynomial.constant(0, 1), UNIT, 1)


def test_a_multi_index_off_the_lattice_is_named():
    with pytest.raises(ValueError, match=r"multi-index \(2, 0\) is not on the degree-1 lattice"):
        bb_to_monomial({(2, 0): 1}, UNIT, 1)
    with pytest.raises(ValueError, match=r"multi-index \(1, 0, 0\) is not on the degree-1 lattice"):
        bb_to_monomial({(1, 0, 0): 1}, UNIT, 1)


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


def test_the_basis_change_cache_is_bounded():
    cubic = Polynomial.variable(2, 0) ** 3
    maxsize = bernstein._bernstein_data.cache_info().maxsize
    triangles = [[(0, 0), (n + 1, 0), (Fraction(1, n + 2), 1)] for n in range(2 * maxsize)]
    gc.collect()
    tracemalloc.start()
    try:
        for verts in triangles[:maxsize]:
            monomial_to_bb(cubic, verts, 3)
        gc.collect()
        full = tracemalloc.get_traced_memory()[0]
        for verts in triangles[maxsize:]:
            monomial_to_bb(cubic, verts, 3)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - full
    finally:
        tracemalloc.stop()
    # unbounded, each distinct triangle kept about 10 KB
    assert retained < 32 * 1024, retained
    info = bernstein._bernstein_data.cache_info()
    assert info.currsize == maxsize
    # the most recent simplex is still kept
    assert monomial_to_bb(cubic, triangles[-1], 3) == monomial_to_bb(cubic, triangles[-1], 3)
    assert bernstein._bernstein_data.cache_info().hits == info.hits + 2


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


def test_layers_build_no_fraction_until_a_view_is_read(monkeypatch):
    calls = []
    coordinates = bernstein._coordinates
    monkeypatch.setattr(
        bernstein, "_coordinates", lambda key, scale: calls.append(key) or coordinates(key, scale)
    )
    decompositions = [
        layer_decomposition(standard_form(entry.complex).standard, 3) for entry in CATALOG
    ]
    assert calls == []
    layer = decompositions[-1].layers[1]
    assert len(layer.points) == len(layer.heads) * len(layer.tails) == len(calls) > 0


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


def test_a_lift_builds_the_star_system_once(monkeypatch):
    # every level j = 0..3 asks for the star's degree-j dimension; one
    # system through degree 3 answers them all
    built = _recording_builds(monkeypatch)
    monkeypatch.setattr(cofactor, "_prefixes", cofactor._PrefixCache(maxsize=256))
    sf = standard_form(get("tetrahedral-fan").complex)
    star = sf.projected.complex
    lift = lift_mds(sf.standard, 1, 3)
    assert [level for level, _, _ in lift.per_level] == [0, 1, 2, 3]
    assert [system.d for system in built if system.complex == star] == [3]


def test_lift_requires_standard_position():
    with pytest.raises(ValueError):
        lift_mds(get("two-triangle-skew").complex, 1, 2)


def test_lift_degree_zero():
    lift = lift_mds(get("two-tetrahedron").complex, 1, 0)
    assert lift.total == 1
    assert lift.formula_value == 1
    assert lift.points[0].coordinates == (Fraction(0),) * 3


def test_degree_zero_when_the_origin_is_not_the_first_vertex():
    # a standard orange whose face (0, 1, 2) starts at (1, 0), not at the
    # origin (vertex 1); its degree-0 lattice, layer and lift are the origin
    cx = SimplicialComplex(2, [(1, 0), (0, 0), (0, 1), (-1, 0)], [[0, 1, 2], [1, 2, 3]])
    cx.validate()
    origin = (Fraction(0),) * 2
    (point,) = complex_domain_points(cx, 0)
    assert point.coordinates == origin
    assert [p.coordinates for p in simplex_domain_points(cx.face_points((0, 1, 2)), 0)] == [
        origin
    ]
    assert [fidx for fidx, _ in point.occurrences] == [0, 1]
    ld = layer_decomposition(cx, 0)
    assert ld.total == 1
    assert [layer.points for layer in ld.layers] == [(origin,)]
    assert layer_decomposition(cx, 1).total == len(complex_domain_points(cx, 1)) == 4
    for r in (0, 1):
        lift = lift_mds(cx, r, 0)
        # the lift's own rank test passed: the point determines S^r_0
        assert [p.coordinates for p in lift.points] == [origin]
        assert lift.total == lift.formula_value == 1


def test_degree_zero_lattice_of_the_catalog_is_each_face_first_vertex():
    # every catalog face starts at the origin or has no vertex there
    for entry in CATALOG:
        cx = entry.complex
        firsts = {cx.vertices[f[0]] for f in cx.maximal_faces}
        assert {p.coordinates for p in complex_domain_points(cx, 0)} == firsts


def test_a_negative_degree_has_an_empty_lattice():
    # the one-point star in R^0 (the projection of a simplex) and a k >= 1 orange
    point_star = standard_form(get("segment").complex).projected.complex
    assert point_star.ambient_dim == 0
    assert simplex_multiindices(1, -1) == simplex_multiindices(3, -1) == ()
    for cx in (point_star, get("two-triangle").complex):
        assert complex_domain_points(cx, -1) == ()
        for r in range(2):
            ds = compute_mds(cx, r, -1)
            assert (ds.dimension, ds.points) == (0, ())
            assert verify_mds(cx, r, -1) is True
            assert bernstein_dim(cx, r, -1) == spline_dim(cx, r, -1) == 0


# ---------------------------------------------------------------------------
# layers and lifts on integer keys against their Fraction bodies
# ---------------------------------------------------------------------------

def _reference_standard_split(complex_):
    """``_standard_split`` on ``Fraction`` coordinates."""
    profile = detect_orange(complex_)
    k, i = profile.k, profile.i
    fiber = k - i
    origin = (Fraction(0),) * k
    medial_points = {complex_.vertices[m]: m for m in profile.medial}
    if origin not in medial_points:
        raise ValueError("standard orange must have a medial vertex at the origin")
    expected_tails = []
    for t in range(fiber):
        e = [Fraction(0)] * k
        e[i + t] = Fraction(1)
        expected_tails.append(tuple(e))
    for e in expected_tails:
        if e not in medial_points:
            raise ValueError(
                "standard orange must have medial vertices at the last unit vectors"
            )
    if len(medial_points) != fiber + 1:
        raise ValueError("medial face of a standard orange has extra vertices")
    tail_ids = [medial_points[e] for e in expected_tails]
    tail_set = set(tail_ids)
    used = {v for f in complex_.maximal_faces for v in f}
    for vid in used:
        if vid in tail_set:
            continue
        if any(complex_.vertices[vid][i + t] for t in range(fiber)):
            raise ValueError(
                "non-medial vertex has nonzero coordinates in the medial span"
            )
    return profile, project_orange(complex_).complex, tail_ids


def _reference_tail_shifts(d, j, i, fiber, k):
    """Shift vectors for level j: tail multi-indices beta with |beta| = d - j
    paired with the points (0, ..., 0, beta/d)."""
    if fiber == 0:
        if j != d:
            return []
        return [((), (Fraction(0),) * k)]
    out = []
    for beta in bernstein.simplex_multiindices(fiber, d - j):
        coords = [Fraction(0)] * k
        for t in range(fiber):
            if beta[t]:
                coords[i + t] = Fraction(beta[t], d)
        out.append((beta, tuple(coords)))
    return out


def _layer_views(decomposition):
    """A decomposition's fields, each layer as its ``Fraction`` views
    (level, factor, base points, shifts, points)."""
    layers = [(l.level, l.factor, l.base_points, l.shifts, l.points) for l in decomposition.layers]
    return decomposition.d, decomposition.fiber_dim, decomposition.star, layers, decomposition.total


def _reference_layer_decomposition(complex_, d):
    """``layer_decomposition`` on ``Fraction`` point sets: the star's lattice
    scaled by ``Fraction(j, d)``, plus ``Fraction`` shifts, returned as
    ``_layer_views`` reads a decomposition."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    profile, star, _ = _reference_standard_split(complex_)
    i, fiber = profile.i, profile.k - profile.i
    k = complex_.ambient_dim
    lattice = {p.coordinates for p in bernstein.complex_domain_points(complex_, d)}

    layers = []
    covered = {}
    total = 0
    for j in range(d + 1):
        factor = Fraction(j, d) if d else Fraction(0)
        star_points = {p.coordinates for p in bernstein.complex_domain_points(star, j)}
        base = sorted(
            {tuple(factor * c for c in p) + (Fraction(0),) * fiber for p in star_points}
        )
        shifts = _reference_tail_shifts(d, j, i, fiber, k)
        points = []
        for _, shift in shifts:
            for b in base:
                pt = tuple(b[c] + shift[c] for c in range(k))
                if pt in covered:
                    raise SetMismatchError(
                        f"levels {covered[pt]} and {j} both produce the point {pt}"
                    )
                covered[pt] = j
                points.append(pt)
        total += len(points)
        layers.append(
            (j, factor, tuple(base), tuple(s for _, s in shifts), tuple(sorted(points)))
        )

    if set(covered) != lattice:
        missing = lattice - set(covered)
        extra = set(covered) - lattice
        raise SetMismatchError(
            f"layer union misses {len(missing)} lattice points and "
            f"adds {len(extra)} foreign ones"
        )
    return d, fiber, star, layers, total


def _reference_lift_mds(complex_, r, d):
    """``lift_mds`` keyed by ``Fraction`` coordinates: star vertices looked
    up by their padded coordinates, lifted points scaled and shifted."""
    profile, star, tail_ids = _reference_standard_split(complex_)
    i, fiber = profile.i, profile.k - profile.i
    k = complex_.ambient_dim

    pad = (Fraction(0),) * fiber
    coord_to_oid = {v: idx for idx, v in enumerate(complex_.vertices)}
    star_oid = {}
    for sid, sv in enumerate(star.vertices):
        key = tuple(sv) + pad
        if key not in coord_to_oid:
            raise ValueError("projected star vertex missing from the standard orange")
        star_oid[sid] = coord_to_oid[key]
    face_index = {f: idx for idx, f in enumerate(complex_.maximal_faces)}

    # a lifted point keeps its numerators over the lattice's scale
    scale = complex_.den * max(d, 1)
    lifted = []
    seen = {}
    per_level = []
    for j in range(d + 1):
        shifts = _reference_tail_shifts(d, j, i, fiber, k)
        if not shifts:
            continue
        mds_j = bernstein.compute_mds(star, r, j)
        per_level.append((j, len(mds_j.points), len(shifts)))
        factor = Fraction(j, d) if d else Fraction(0)
        for point in mds_j.points:
            sfidx, alpha = point.occurrences[0]
            sface = star.maximal_faces[sfidx]
            oface = tuple(sorted([star_oid[v] for v in sface] + tail_ids))
            if oface not in face_index:
                raise ValueError("star face does not lift to a standard-orange face")
            weights = {star_oid[v]: alpha[pos] for pos, v in enumerate(sface)}
            for beta, shift in shifts:
                for t, tid in enumerate(tail_ids):
                    weights[tid] = beta[t]
                multi = tuple(weights.get(vid, 0) for vid in oface)
                base = tuple(factor * c for c in point.coordinates) + pad
                coords = tuple(base[c] + shift[c] for c in range(k))
                if coords in seen:
                    raise CardinalityMismatchError(
                        f"levels {seen[coords]} and {j} lift to the same point {coords}"
                    )
                seen[coords] = j
                key = tuple(c * scale for c in coords)
                assert all(n.denominator == 1 for n in key)
                lifted.append(
                    bernstein.LiftedPoint(
                        key=tuple(map(int, key)),
                        scale=scale,
                        face=face_index[oface],
                        multi_index=multi,
                        level=j,
                    )
                )
                assert lifted[-1].coordinates == coords

    total = len(lifted)
    formula_value = dimension.orange_dim_formula(complex_, r, d)
    if total != formula_value:
        raise CardinalityMismatchError(
            f"lift cardinality {total} differs from the "
            f"closed-form dimension {formula_value}"
        )
    dim = spline_dim(complex_, r, d)
    if dim != total:
        raise CardinalityMismatchError(
            f"spline space has dimension {dim}, lift has {total} points"
        )
    if not bernstein._determines(complex_, r, d, [(p.face, p.multi_index) for p in lifted]):
        raise CardinalityMismatchError("lifted selection matrix is singular")
    return bernstein.LiftedDeterminingSet(
        r=r,
        d=d,
        points=tuple(lifted),
        per_level=tuple(per_level),
        total=total,
        formula_value=formula_value,
    )


def _assert_layers_and_lifts_match(cx, dmax, label):
    for d in range(dmax + 1):
        got = layer_decomposition(cx, d)
        assert _layer_views(got) == _reference_layer_decomposition(_fresh(cx), d), (label, d)
        for r in range(2):
            assert lift_mds(cx, r, d) == _reference_lift_mds(_fresh(cx), r, d), (label, r, d)


def test_integer_layers_and_lifts_match_the_fraction_reference(random_affine_map):
    models = [(entry.name, standard_form(entry.complex).standard) for entry in CATALOG]
    # the same models with their vertices numbered backwards: the origin,
    # vertex 0 of each, is the last vertex of every face
    for name, std in list(models):
        last = len(std.vertices) - 1
        faces = [[last - v for v in f] for f in std.maximal_faces]
        reversed_ = SimplicialComplex(std.ambient_dim, std.vertices[::-1], faces)
        models.append((f"{name} reversed", reversed_))
    rng = random.Random(29)
    for entry in CATALOG:
        for copy in range(3):
            image = affine_image(entry.complex, *random_affine_map(entry.complex.ambient_dim, rng))
            models.append((f"{entry.name} image {copy}", standard_form(image).standard))
    # an unused vertex gives the orange a denominator its star does not have
    std = models[[name for name, _ in models].index("two-tetrahedron")][1]
    extra = SimplicialComplex(3, [*std.vertices, (Fraction(1, 7), 2, 5)], std.maximal_faces)
    models.append(("two-tetrahedron with an unused vertex", extra))
    dens = []
    for name, cx in models:
        star = project_orange(cx).complex
        dens.append((cx.den, star.den))
        _assert_layers_and_lifts_match(cx, 4, name)
    # rational models, and one whose star has a smaller denominator
    assert any(den > 1 for den, _ in dens)
    assert any(any(cx.vertices[0]) for _, cx in models)
    assert any(den != star_den for den, star_den in dens)


def test_integer_layers_and_lifts_match_the_reference_on_generated_oranges():
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(generated_oranges())
    def check(generated):
        cx, _ = generated
        _assert_layers_and_lifts_match(standard_form(cx).standard, 3, cx)

    check()


def _raised(function, *args):
    """(type, message) of what ``function(*args)`` raises."""
    with pytest.raises((SetMismatchError, CardinalityMismatchError)) as info:
        function(*args)
    return type(info.value), str(info.value)


def _both_raise(new, reference, cx, *args):
    """Run the integer body and its reference on fresh copies; both must
    raise the same typed error with the same message."""
    got = _raised(new, _fresh(cx), *args)
    assert got == _raised(reference, _fresh(cx), *args)
    return got


def test_layer_errors_match_the_reference(monkeypatch):
    std = standard_form(get("two-tetrahedron").complex).standard
    # each orange face's lattice without its last point, which both faces
    # share: a layer point is then foreign
    numerators = bernstein._lattice_numerators
    with monkeypatch.context() as m:
        # the fault acts where a lattice is bucketed, which an entry shared
        # by the model's affine images skips: it starts from an empty
        # cache, and the faulty entries go with it
        m.setattr(bernstein, "_shared", cofactor._LRUCache(maxsize=bernstein._shared.maxsize))
        m.setattr(
            bernstein,
            "_lattice_numerators",
            lambda nums, d: numerators(nums, d)[: -1 if len(nums) == 4 else None],
        )
        kind, message = _both_raise(
            layer_decomposition, _reference_layer_decomposition, std, 2
        )
    assert kind is SetMismatchError
    assert message == "layer union misses 0 lattice points and adds 1 foreign ones"
    # level 1 handed the tails of level 0: its origin head meets level 0's
    # the public ``simplex_multiindices`` and the layers' tails both read
    # the unchecked table
    indices = bernstein._multiindices
    fakes = {(2, 1): indices(2, 2)}
    outcomes = []
    for function in (layer_decomposition, _reference_layer_decomposition):
        cx = _fresh(std)
        function(cx, 2)  # lattices built before the tails are faked
        with monkeypatch.context() as m:
            m.setattr(bernstein, "_multiindices", lambda n, d: fakes.get((n, d)) or indices(n, d))
            outcomes.append(_raised(function, cx, 2))
    assert outcomes[0] == outcomes[1] == (
        SetMismatchError,
        "levels 0 and 1 both produce the point "
        "(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1))",
    )


def test_lift_errors_match_the_reference(monkeypatch):
    std = standard_form(get("two-tetrahedron").complex).standard
    star = project_orange(std).complex
    compute = bernstein.compute_mds

    def top_level(change):
        # the star's degree-2 set changed, every other level as computed
        def patched(cx, r, j):
            ds = compute(cx, r, j)
            return ds if j < 2 else DeterminingSet(ds.r, ds.d, ds.dimension, change(ds.points))

        return patched

    (half,) = [p for p in complex_domain_points(star, 2) if p.coordinates == (Fraction(1, 2),)]
    cases = [
        (lambda pts: pts + pts[-1:], "levels 2 and 2 lift to the same point"),
        (lambda pts: pts[:-1], "lift cardinality 10 differs from the closed-form dimension 11"),
        (lambda pts: pts[:-1] + (half,), "lifted selection matrix is singular"),
    ]
    for change, message in cases:
        with monkeypatch.context() as m:
            m.setattr(bernstein, "compute_mds", top_level(change))
            kind, got = _both_raise(lift_mds, _reference_lift_mds, std, 1, 2)
        assert kind is CardinalityMismatchError
        assert got.startswith(message), got
    # the closed form agreeing with a short set leaves the oracle to object
    with monkeypatch.context() as m:
        m.setattr(bernstein, "compute_mds", top_level(lambda pts: pts[:-1]))
        # the reference looks the closed form up on its module, and
        # ``lift_mds`` on its own, which imports it at the top
        for module in (dimension, bernstein):
            m.setattr(module, "orange_dim_formula", lambda cx, r, d: 10)
        kind, got = _both_raise(lift_mds, _reference_lift_mds, std, 1, 2)
    assert (kind, got) == (CardinalityMismatchError, "spline space has dimension 11, lift has 10 points")


def test_bernstein_imports_first_in_a_fresh_interpreter():
    # ``bernstein`` imports the closed form at the top of the module, and
    # ``dimension`` imports no ``bernstein``, so there is no cycle
    code = (
        "import orangesplines.bernstein as bernstein\n"
        "from orangesplines.catalog import get\n"
        "from orangesplines.projection import standard_form\n"
        "std = standard_form(get('two-tetrahedron').complex).standard\n"
        "print(bernstein.lift_mds(std, 1, 3).total)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{orange_dim_formula(get('two-tetrahedron').complex, 1, 3)}\n"


def test_lift_reads_its_points_off_the_lattice(monkeypatch):
    std = standard_form(get("two-tetrahedron").complex).standard
    lattice = complex_domain_points(std, 2)
    lift = lift_mds(std, 1, 2)
    # each lifted point is a lattice point's own tuple and first occurrence
    for p in lift.points:
        (point,) = [q for q in lattice if q.coordinates == p.coordinates]
        assert p.key is point.key and p.scale == point.scale
        assert (p.face, p.multi_index) == point.occurrences[0]
    compute = bernstein.compute_mds
    # level-1 star points off the star's degree-1 lattice (the star's faces
    # run from 0 to -1 and to 1, so its keys over 1 are -1, 0 and 1): with a
    # tail of sum 1 their keys fall before the first lattice key, past the
    # last one and between two of them
    for key, host in (((-3,), (0, (0, 3))), ((3,), (1, (0, 3))), ((-2,), (0, (0, 2)))):
        fake = bernstein.IdentifiedPoint(key=key, scale=1, occurrences=(host,))

        def patched(cx, r, j):
            ds = compute(cx, r, j)
            if j != 1:
                return ds
            return DeterminingSet(ds.r, ds.d, ds.dimension, ds.points[:-1] + (fake,))

        with monkeypatch.context() as m:
            m.setattr(bernstein, "compute_mds", patched)
            with pytest.raises(CardinalityMismatchError, match="off the degree-2 lattice"):
                lift_mds(_fresh(std), 1, 2)


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


def _ordered_points(complex_, d):
    """The system's column order: the lattice by hub layer, then coordinates."""
    lattice = complex_domain_points(complex_, d)
    return tuple(lattice[at] for at in bernstein._hub_order(complex_, d))


def _reference_mds(complex_, r, d):
    """The greedy selection on an explicit spline basis: walk the points in
    hub order and keep each one whose functionals raise the rank."""
    basis = spline_basis(complex_, r, d)
    bb_cache = {}
    tracker = Echelon()
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
    return rank(rows) == len(basis)


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
    assume(rank(matrix) == k)
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
    # the whole reference grid on the i = 3 entries, where the formula's star
    # term and the oracle read one ``spline_dims`` cache entry, so that
    # bernstein_dim is the only independent count there
    reference = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
    )
    cells = 0
    for name, kind, cx in _catalog_models():
        if get(name).profile.i == 3:
            for r, dims in enumerate(reference["dims"][name]):
                for d, dim in enumerate(dims):
                    assert bernstein_dim(cx, r, d) == dim, (name, kind, r, d)
                    cells += 1
    assert cells == 81


def _reference_domain_points(complex_, d):
    """The lattice bucketed by ``Fraction`` coordinates, sorted by them."""
    buckets = {}
    for fidx, face in enumerate(complex_.maximal_faces):
        verts = complex_.face_points(face)
        for alpha in simplex_multiindices(len(face), d):
            if d == 0:
                coords = verts[0]
            else:
                coords = tuple(
                    sum((Fraction(a, d) * v[c] for a, v in zip(alpha, verts)), Fraction(0))
                    for c in range(complex_.ambient_dim)
                )
            buckets.setdefault(coords, []).append((fidx, alpha))
    return [(coords, tuple(sorted(buckets[coords]))) for coords in sorted(buckets)]


def test_lattice_points_derive_the_reference_coordinates(random_affine_map):
    rng = random.Random(24)
    models = []
    for entry in CATALOG:
        models.append((entry.name, _fresh(entry.complex)))
        for _ in range(2):
            image = affine_image(entry.complex, *random_affine_map(entry.complex.ambient_dim, rng))
            models.append((entry.name, image))
    assert len(models) == 33
    assert any(cx.den > 1 for _, cx in models)
    for name, cx in models:
        for d in range(4):
            lattice = complex_domain_points(cx, d)
            # nothing has read the coordinates yet; a read derives them once
            assert not any("coordinates" in vars(p) for p in lattice), (name, d)
            assert all(p.coordinates is p.coordinates for p in lattice), (name, d)
            assert [(p.coordinates, p.occurrences) for p in lattice] == _reference_domain_points(
                cx, d
            ), (name, d)
            # equality and hashing follow (coordinates, occurrences): a
            # fresh copy's lattice is equal point by point, hash included,
            # and distinct points stay distinct
            copy = complex_domain_points(_fresh(cx), d)
            assert copy == lattice and copy is not lattice, (name, d)
            assert [hash(p) for p in copy] == [hash(p) for p in lattice], (name, d)
            assert len(set(lattice)) == len(lattice), (name, d)


def _reference_ordered_points(complex_, d):
    """``_reference_domain_points`` sorted by (hub layer, coordinates)."""
    hub = detect_orange(complex_).medial[0]

    def key(point):
        coords, occurrences = point
        faces = complex_.maximal_faces
        layer = min(
            [d - alpha[faces[f].index(hub)] for f, alpha in occurrences if hub in faces[f]],
            default=d,
        )
        return layer, coords

    return sorted(_reference_domain_points(complex_, d), key=key)


def _reference_smoothness_rows(complex_, r, d, points):
    """The C^r conditions over ``Fraction``, with lambda from
    ``barycentric_coordinates``: the rows before they were built integral."""
    column = {occ: col for col, p in enumerate(points) for occ in p.occurrences}
    faces = complex_.maximal_faces
    rows = []
    for s, t in adjacent_pairs(complex_):
        face_s, face_t = faces[s], faces[t]
        shared = [v for v in face_s if v in face_t]
        (w,) = [v for v in face_t if v not in face_s]
        lam = barycentric_coordinates(
            complex_.vertices[w], [complex_.vertices[v] for v in face_s]
        )
        pos_s = [face_s.index(v) for v in shared]
        pos_t = [face_t.index(v) for v in shared]
        for m in range(min(r, d) + 1):
            weights = []
            for gamma in simplex_multiindices(len(face_s), m):
                weight = Fraction(math.factorial(m))
                for l, g in enumerate(gamma):
                    weight *= lam[l] ** g / math.factorial(g)
                if weight:
                    weights.append((gamma, weight))
            for beta in simplex_multiindices(len(shared), d - m):
                alpha_t = [0] * len(face_t)
                alpha_t[face_t.index(w)] = m
                base_s = [0] * len(face_s)
                for b, ps, pt in zip(beta, pos_s, pos_t):
                    alpha_t[pt] = b
                    base_s[ps] = b
                row = {column[(t, tuple(alpha_t))]: Fraction(1)}
                for gamma, weight in weights:
                    col = column[(s, tuple(a + g for a, g in zip(base_s, gamma)))]
                    row[col] = row.get(col, Fraction(0)) - weight
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


def test_system_rows_are_integer_multiples_of_the_conditions(random_affine_map):
    # the catalog's conditions are integral; these two have fractional weights
    wide = SimplicialComplex(2, [(0, 0), (0, 1), (2, 0), (-1, 0)], [[0, 1, 2], [0, 1, 3]])
    skew_star = SimplicialComplex(
        2,
        [(0, 0), (3, 0), (1, 2), (-2, 1), (-1, -3), (2, -2)],
        [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1]],
    )
    models = [*_catalog_models(), ("wide", "", wide), ("skew star", "", skew_star)]
    rng = random.Random(13)
    for entry in CATALOG:
        for copy in range(3):
            image = affine_image(entry.complex, *random_affine_map(entry.complex.ambient_dim, rng))
            models.append((entry.name, f"image {copy}", image))
            models.append((entry.name, f"standard of image {copy}", standard_form(image).standard))
    fractional = 0
    for name, kind, cx in models:
        for d in range(4):
            lattice = complex_domain_points(cx, d)
            assert [(p.coordinates, p.occurrences) for p in lattice] == _reference_domain_points(
                cx, d
            ), (name, kind, d)
            points = _ordered_points(cx, d)
            assert [(p.coordinates, p.occurrences) for p in points] == _reference_ordered_points(
                cx, d
            ), (name, kind, d)
            for r in range(3):
                reference = _reference_smoothness_rows(cx, r, d, points)
                # equal entries, in the same column order
                assert [list(row.items()) for row in _system(cx, r, d)[1]] == [
                    list(_integer_row(row).items()) for row in reference
                ], (name, kind, r, d)
                fractional += sum(
                    any(v.denominator > 1 for v in row.values()) for row in reference
                )
    # a fractional weight means some lambda = Delta_l / Delta with Delta not +-1
    assert fractional


def _full_loop_rows(complex_, r, d, points):
    """The integer conditions for every m = 0..min(r, d), each row with its
    content stripped and dropped when it cancels to zero."""
    column = {occ: col for col, p in enumerate(points) for occ in p.occurrences}
    faces = complex_.maximal_faces
    rows = []
    for s, t, scale, lam in bernstein._affine_dependences(complex_):
        face_s, face_t = faces[s], faces[t]
        shared = [v for v in face_s if v in face_t]
        (w,) = [v for v in face_t if v not in face_s]
        for m in range(min(r, d) + 1):
            weights = [
                (gamma, math.factorial(m) // math.prod(map(math.factorial, gamma))
                 * math.prod(x**g for x, g in zip(lam, gamma)))
                for gamma in simplex_multiindices(len(face_s), m)
            ]
            for beta in simplex_multiindices(len(shared), d - m):
                alpha_t = [0] * len(face_t)
                alpha_t[face_t.index(w)] = m
                base_s = [0] * len(face_s)
                for b, v in zip(beta, shared):
                    alpha_t[face_t.index(v)] = b
                    base_s[face_s.index(v)] = b
                row = {column[(t, tuple(alpha_t))]: scale**m}
                for gamma, weight in weights:
                    col = column[(s, tuple(a + g for a, g in zip(base_s, gamma)))]
                    row[col] = row.get(col, 0) - weight
                row = _strip_content({c: v for c, v in row.items() if v})
                if row:
                    rows.append(row)
    return rows


def test_smoothness_rows_leave_out_only_vacuous_conditions(random_affine_map):
    # the faces' first vertices differ and neither is the origin, so the
    # two degree-0 points differ and the d = 0 condition is a row
    off_origin = SimplicialComplex(2, [(1, 1), (2, 1), (1, 2), (2, 2)], [[0, 1, 2], [1, 2, 3]])
    models = [*_catalog_models(), ("off origin", "", off_origin)]
    rng = random.Random(29)
    for entry in CATALOG:
        image = affine_image(entry.complex, *random_affine_map(entry.complex.ambient_dim, rng))
        models += [(entry.name, "image", image), (entry.name, "standard", standard_form(image).standard)]
    degree_zero_rows = 0
    for name, kind, cx in models:
        for d in range(5):
            points = _ordered_points(cx, d)
            for r in range(3):
                got = bernstein._smoothness_rows(cx, r, d, [p.occurrences for p in points])
                want = _full_loop_rows(cx, r, d, points)
                assert len(got) == len(want), (name, kind, r, d)
                assert {frozenset(row.items()) for row in got} == {
                    frozenset(row.items()) for row in want
                }, (name, kind, r, d)
                degree_zero_rows += len(got) if d == 0 else 0
    assert degree_zero_rows
    assert bernstein_dim(off_origin, 1, 0) == 1
    # with no condition left to build at r = 0, a flat face still raises
    flat = SimplicialComplex(2, [(0, 0), (1, 1), (2, 2), (1, 0)], [[0, 1, 2], [0, 1, 3]])
    with pytest.raises(InvalidComplexError, match="geometrically degenerate"):
        bernstein_dim(flat, 0, 2)


def test_affine_dependences_are_built_once_per_pair(monkeypatch, empty_bernstein_cache):
    # a fresh image with a memo of its own; every (r, d) system on it reads
    # the pairs' dependences built by the first one.  The cache starts
    # empty, so each system with rows of order >= 1 is built on this image
    # and not read from an entry another image of vertex-star-3d filled
    matrix = [[2, 1, 0], [0, 1, 1], [1, 0, 3]]
    cx = affine_image(get("vertex-star-3d").complex, matrix, [Fraction(1, 3), -2, 5])
    calls = []
    original = bernstein._integer_kernel

    def counting(rows, ncols):
        calls.append(ncols)
        return original(rows, ncols)

    monkeypatch.setattr(bernstein, "_integer_kernel", counting)
    for r in range(3):
        for d in range(4):
            points = _ordered_points(cx, d)
            reference = _reference_smoothness_rows(cx, r, d, points)
            assert [list(row.items()) for row in _system(cx, r, d)[1]] == [
                list(_integer_row(row).items()) for row in reference
            ], (r, d)
    assert len(calls) == len(adjacent_pairs(cx)) == 6


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


@pytest.mark.parametrize(
    "vertices, message",
    [
        # (0, 1, 2) is flat and the apex (1, 0) of the other face is off its line
        ([(0, 0), (1, 1), (2, 2), (1, 0)], r"face \(0, 1, 2\) is geometrically degenerate"),
        # both faces are flat, on one line: the first is named
        ([(0, 0), (1, 1), (2, 2), (3, 3)], r"face \(0, 1, 2\) is geometrically degenerate"),
    ],
)
def test_bernstein_rows_on_a_flat_face_raise_a_typed_error(vertices, message):
    cx = SimplicialComplex(2, vertices, [[0, 1, 2], [0, 1, 3]])
    with pytest.raises(InvalidComplexError, match=message):
        bernstein_dim(cx, 1, 2)
    with pytest.raises(InvalidComplexError, match=message):
        compute_mds(cx, 1, 2)


# ---------------------------------------------------------------------------
# the lattice groups and rows that affine images share
# ---------------------------------------------------------------------------

def test_no_affine_dependence_where_no_order_one_row_is_built(monkeypatch, empty_bernstein_cache):
    # at r = 0 or d = 0 the rows have weight 1 and scale 1, or there are
    # none, so no pair's dependence is read
    matrix = [[2, 1, 0], [0, 1, 1], [1, 0, 3]]
    cx = affine_image(get("vertex-star-3d").complex, matrix, [Fraction(1, 3), -2, 5])
    calls = []
    original = bernstein._integer_kernel
    monkeypatch.setattr(
        bernstein, "_integer_kernel", lambda rows, ncols: calls.append(ncols) or original(rows, ncols)
    )
    for d in range(4):
        _system(cx, 0, d)
    for r in range(3):
        _system(cx, r, 0)
    assert calls == []
    # the first system with an order-1 row reads every pair's dependence
    _system(cx, 1, 1)
    assert len(calls) == len(adjacent_pairs(cx)) == 6


def test_a_one_point_system_reads_no_pair(monkeypatch):
    # a star's degree-0 lattice is its origin alone, so every condition
    # joins that point with itself: no pair is read and no row is built
    reads = []
    for name in ("adjacent_pairs", "_affine_dependences"):
        original = getattr(bernstein, name)
        monkeypatch.setattr(
            bernstein, name, lambda cx, name=name, original=original: reads.append(name) or original(cx)
        )
    for entry in CATALOG:
        star = project_orange(_fresh(entry.complex)).complex
        for r in range(3):
            assert len(complex_domain_points(star, 0)) == 1
            assert _system(star, r, 0)[1] == []
            assert bernstein_dim(star, r, 0) == 1, (entry.name, r)
    assert reads == []
    # the counter sees the pairs read where the lattice has two points
    star = project_orange(_fresh(get("two-triangle").complex)).complex
    assert bernstein_dim(star, 0, 1) == 3
    assert reads == ["adjacent_pairs"]


def _bucketed(cx, d):
    """The lattice bucketed on the complex itself: every face's points by
    key, sorted by key."""
    groups, keys = bernstein._groups(cx, d)
    return sorted(zip(keys, groups))


def test_affine_images_share_lattice_groups_and_rows_in_either_fill_order(monkeypatch):
    orders, sources = set(), set()

    fan = get("fan-4d").complex
    dense = [[1, 2, 0, 1], [0, 1, 3, 0], [1, 0, 1, 1], [2, 1, 0, 0]]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(normal_form_cases(), st.integers(0, 1), st.integers(0, 3), st.booleans())
    @example((fan, affine_image(fan, dense, [Fraction(1, 2), 0, -1, 3])), 1, 1, True)
    def check(case, r, d, image_first):
        source, image = case
        d = min(d, {1: 3, 2: 3, 3: 2, 4: 1}[image.ambient_dim])
        cache = cofactor._LRUCache(maxsize=bernstein._shared.maxsize)
        monkeypatch.setattr(bernstein, "_shared", cache)
        first, second = (image, source) if image_first else (source, image)
        first, second = _fresh(first), _fresh(second)
        compute_mds(first, r, d)
        filled = cache.info()
        ds = compute_mds(second, r, d)
        # d >= 1 fills the lattice groups and the rows once, and the second
        # complex reads both; d = 0 shares nothing
        assert (filled.misses, filled.currsize) == ((2, 2) if d else (0, 0))
        assert cache.info() == filled._replace(hits=filled.hits + (2 if d else 0))
        for cx in (first, second):
            lattice = complex_domain_points(cx, d)
            assert [(p.key, p.occurrences) for p in lattice] == _bucketed(cx, d)
            if d:  # the reference puts a degree-0 point at the first vertex
                assert [(p.coordinates, p.occurrences) for p in lattice] == _reference_domain_points(
                    cx, d
                )
            points = _ordered_points(cx, d)
            assert [list(row.items()) for row in _system(cx, r, d)[1]] == [
                list(_integer_row(row).items())
                for row in _reference_smoothness_rows(cx, r, d, points)
            ]
        assert list(ds.points) == _reference_mds(second, r, d)
        orders.add((image_first, d > 0))
        sources.add((source.ambient_dim, len(source.maximal_faces)))

    check()
    # both fill orders where entries are shared, and degree 0, where none is
    assert {(True, True), (False, True)} <= orders and {False} < {d for _, d in orders}, orders
    # sources in R^1 to R^4, among them stars in R^3 with 4 and 8 faces
    assert {1, 2, 3, 4} <= {k for k, _ in sources}, sources
    assert {(3, 4), (3, 8)} <= sources, sources


def test_degree_zero_is_not_shared_across_affine_images(empty_bernstein_cache):
    # the translate's origin is vertex 2, in one face only: its two faces'
    # degree-0 points differ, joined by one row, where the source's faces
    # both put theirs at the origin, vertex 0
    source = get("two-triangle").complex
    image = SimplicialComplex(2, [(1, 0), (1, 1), (0, 0), (2, 0)], [[0, 1, 2], [0, 1, 3]])
    assert cofactor._normal_key(image) == cofactor._normal_key(source)
    for first, second in ((source, image), (image, source)):
        for cx in (_fresh(first), _fresh(second)):
            assert bernstein_dim(cx, 0, 0) == spline_dim(cx, 0, 0) == 1
            assert len(compute_mds(cx, 0, 0).points) == 1
    assert len(complex_domain_points(image, 0)) == 2
    assert len(complex_domain_points(source, 0)) == 1
    assert len(empty_bernstein_cache) == 0


def _mds_answers(cx):
    std = standard_form(cx).standard
    lift = lift_mds(std, 1, 3)
    return lift.points, verify_mds(std, 1, 3), layer_decomposition(std, 3).layers


def test_a_second_affine_image_reads_every_entry_the_first_filled(monkeypatch, empty_bernstein_cache):
    cache = empty_bernstein_cache
    base = get("tetrahedral-fan").complex
    images = [
        affine_image(base, [[2, 1, 0], [0, 1, 1], [1, 0, 3]], [Fraction(1, 3), -2, 5]),
        affine_image(base, [[0, -1, 0], [3, 0, 1], [1, 1, 1]], [1, Fraction(2, 7), 0]),
    ]
    assert cofactor._normal_key(images[0]) == cofactor._normal_key(images[1])
    answers, fills = [], []
    for cx in images:
        before = cache.info()
        answers.append(_mds_answers(cx))
        after = cache.info()
        fills.append((after.misses - before.misses, after.hits - before.hits))
    # the model's degree-3 lattice and rows, and the star's lattices and
    # rows at degrees 1 to 3; degree 0 is the instance's own
    assert fills == [(8, 0), (0, 8)]
    assert len(cache) == 8 and cache.evictions == 0
    # each image's answers are those it builds from an empty cache
    for cx, answer in zip(images, answers):
        monkeypatch.setattr(bernstein, "_shared", cofactor._LRUCache(maxsize=cache.maxsize))
        assert _mds_answers(_fresh(cx)) == answer


def test_the_shared_cache_is_bounded_and_counts_every_query(monkeypatch):
    cache = cofactor._LRUCache(maxsize=3)
    monkeypatch.setattr(bernstein, "_shared", cache)
    assert bernstein_dim.cache_info() == (0, 0, 3, 0)
    two, planar = get("two-triangle").complex, get("planar-star").complex
    assert bernstein_dim(_fresh(two), 1, 2) == spline_dim(two, 1, 2)
    assert bernstein_dim.cache_info() == (0, 2, 3, 2)
    assert bernstein_dim(_fresh(two), 1, 2) == spline_dim(two, 1, 2)
    assert bernstein_dim.cache_info() == (2, 2, 3, 2)
    # a third and a fourth entry push out the two oldest
    rows = _system(_fresh(planar), 1, 2)[1]
    assert bernstein_dim.cache_info() == (2, 4, 3, 3) and cache.evictions == 1
    assert (cofactor._normal_key(two), 2) not in set(cache)
    # an evicted entry is built again, to the same rows
    assert _system(_fresh(planar), 1, 2)[1] == rows
    assert _system(_fresh(two), 1, 2)[1] == _system(two, 1, 2)[1]
    assert cache.evictions == 3
