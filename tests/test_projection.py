"""Adapted frames, projection onto the star, standard models."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from test_complexes import lifted_oranges
from test_generated_oranges import generated_oranges

from orangesplines import bernstein, projection
from orangesplines.bernstein import layer_decomposition, lift_mds, verify_mds
from orangesplines.catalog import CATALOG, get
from orangesplines.complexes import (
    InvalidComplexError,
    SimplicialComplex,
    _affinely_independent,
    _intersection_within_hull,
    _overlap,
    affine_image,
    detect_orange,
)
from orangesplines.dimension import orange_dim_formula
from orangesplines.projection import (
    ProjectedOrange,
    adapt_coordinates,
    project_face,
    project_orange,
    standard_form,
    standard_orange,
)


def _fresh(cx: SimplicialComplex) -> SimplicialComplex:
    """A value-equal copy with an empty memo."""
    return SimplicialComplex(cx.ambient_dim, cx.vertices, cx.maximal_faces)


def _reference_project(complex_: SimplicialComplex) -> ProjectedOrange:
    """The projection on ``Fraction`` coordinates: vertex images through
    ``AdaptedFrame.apply_point`` and the star's pair test on its
    ``Fraction`` face points, with no verdict kept between calls."""
    profile = detect_orange(complex_)
    complex_._check_shape()
    faces = complex_.maximal_faces
    i = profile.i
    if i == 0:
        if not _affinely_independent(complex_.face_points(profile.medial)):
            raise InvalidComplexError("medial face is geometrically degenerate")
        star = SimplicialComplex(0, [()], [[0]])
        return ProjectedOrange(complex=star, central_vertex=0, face_map=(0,), frame=None)
    frame = adapt_coordinates(complex_)
    image_of = {
        vid: frame.apply_point(complex_.vertices[vid])[:i]
        for vid in sorted({v for f in faces for v in f})
    }
    new_ids = {(Fraction(0),) * i: 0}
    for p in image_of.values():
        new_ids.setdefault(p, len(new_ids))
    points = list(new_ids)
    new_faces = []
    for f in faces:
        nf = tuple(sorted({new_ids[image_of[v]] for v in f}))
        if len(nf) != i + 1 or not _affinely_independent([points[v] for v in nf]):
            raise InvalidComplexError(f"face {f} degenerates under projection")
        new_faces.append(nf)
    if len(set(new_faces)) != len(new_faces):
        raise InvalidComplexError("projection identifies two segments")
    first_with = {}
    for vid, p in image_of.items():
        if vid not in profile.medial and first_with.setdefault(p, vid) != vid:
            owner = first_with[p]
            raise _overlap(next(f for f in faces if owner in f), next(f for f in faces if vid in f))
    star = SimplicialComplex(i, points, new_faces)
    face_map = tuple(star.maximal_faces.index(nf) for nf in new_faces)
    names = [f for _, f in sorted(zip(face_map, faces))]
    star_faces = star.maximal_faces
    for a, b in combinations(range(len(star_faces)), 2):
        common = sorted(set(star_faces[a]) & set(star_faces[b]))
        if not _intersection_within_hull(
            star.face_points(star_faces[a]),
            star.face_points(star_faces[b]),
            star.face_points(common),
        ):
            raise _overlap(names[a], names[b])
    return ProjectedOrange(complex=star, central_vertex=0, face_map=face_map, frame=frame)


def _outcome(project, cx: SimplicialComplex) -> ProjectedOrange | str:
    try:
        return project(_fresh(cx))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_projects_as_the_reference(cx: SimplicialComplex) -> bool:
    """Equal projections, or equal errors; True when the input is valid."""
    got = _outcome(projection._project, cx)
    expected = _outcome(_reference_project, cx)
    assert got == expected, (cx, got, expected)
    if isinstance(got, str):
        return False
    assert all(type(c) is Fraction for v in got.complex.vertices for c in v)
    return True


# two k-simplices on the vertices 0..k - 1, with apexes k and k + 1, that
# are not a geometric orange, and the error that names the fault
INVALID_ORANGES = [
    # the two triangles overlap: both segments project onto [0, 1]
    ([(0, 0), (0, 1), (1, 0), (1, Fraction(1, 2))], "identifies two segments"),
    # one triangle is flat and projects onto the central vertex
    ([(0, 0), (0, 1), (0, 2), (1, 0)], "degenerates under projection"),
    # the shared triangle (0, 1, 2) of two tetrahedra is flat
    (
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0)],
        "medial face is geometrically degenerate",
    ),
    # the second triangle's apex, vertex 3, is missing
    ([(0, 0), (1, 0), (0, 1)], r"face \(0, 1, 3\) references a missing vertex"),
    # the second triangle's apex has three coordinates
    ([(0, 0), (1, 0), (0, 1), (0, -1, 3)], "has arity 3, ambient dimension is 2"),
]


def _two_simplices(vertices) -> SimplicialComplex:
    k = len(vertices[0])
    return SimplicialComplex(k, vertices, [range(k + 1), [*range(k), k + 1]])


def test_adapted_frame_normalizes_the_medial_face():
    for name in ("two-triangle", "two-triangle-skew", "two-tetrahedron", "fan-4d"):
        cx = get(name).complex
        profile = detect_orange(cx)
        frame = adapt_coordinates(cx)
        k, i = profile.k, profile.i
        base = frame.apply_point(cx.vertices[profile.medial[0]])
        assert base == (Fraction(0),) * k
        for pos, m in enumerate(profile.medial[1:]):
            img = frame.apply_point(cx.vertices[m])
            expected = [Fraction(0)] * k
            expected[i + pos] = Fraction(1)
            assert img == tuple(expected), name


def test_projection_produces_a_star_with_center_zero():
    for entry in CATALOG:
        projected = project_orange(entry.complex)
        star = projected.complex
        assert star.ambient_dim == entry.profile.i
        assert projected.central_vertex == 0
        for f in star.maximal_faces:
            assert 0 in f
        # face bijection
        assert sorted(projected.face_map) == list(range(len(star.maximal_faces)))
        assert len(projected.face_map) == len(entry.complex.maximal_faces)


def test_two_triangle_projects_to_two_intervals(two_triangle):
    projected = project_orange(two_triangle)
    star = projected.complex
    assert star.ambient_dim == 1
    assert star.maximal_faces == ((0, 1), (0, 2))
    coords = sorted(v[0] for v in star.vertices)
    assert coords == [Fraction(-1), Fraction(0), Fraction(1)]


def test_single_simplex_projects_to_a_point():
    projected = project_orange(get("tetrahedron").complex)
    assert projected.complex.ambient_dim == 0
    assert projected.complex.maximal_faces == ((0,),)
    assert projected.face_map == (0,)


def test_single_simplex_projection_checks_the_simplex():
    with pytest.raises(InvalidComplexError, match="degenerate"):
        project_orange(SimplicialComplex(2, [(0, 0), (1, 1), (2, 2)], [[0, 1, 2]]))


@pytest.mark.parametrize("vertices, message", INVALID_ORANGES)
def test_invalid_orange_raises_a_typed_error_on_every_path(vertices, message):
    with pytest.raises(InvalidComplexError):
        _two_simplices(vertices).validate()
    for path in (project_orange, standard_form, lambda cx: orange_dim_formula(cx, 1, 2)):
        with pytest.raises(InvalidComplexError, match=message):
            path(_two_simplices(vertices))


def test_integer_projection_matches_the_fraction_reference(monkeypatch, random_affine_map):
    # every star is pair-tested, as the reference does
    monkeypatch.setattr(projection, "_proper_stars", set())
    rng = random.Random(15)
    for entry in CATALOG:
        assert _assert_projects_as_the_reference(entry.complex)
        k = entry.complex.ambient_dim
        for _ in range(3):
            image = affine_image(entry.complex, *random_affine_map(k, rng))
            assert _assert_projects_as_the_reference(image), entry.name
    for vertices, _ in INVALID_ORANGES:
        assert not _assert_projects_as_the_reference(_two_simplices(vertices))
    outcomes = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(lifted_oranges())
    def check(cx):
        outcomes.append(_assert_projects_as_the_reference(cx))

    check()
    # valid and invalid generated inputs both occur
    assert True in outcomes and False in outcomes


def _assert_standard_model_inherits_its_projection(cx: SimplicialComplex) -> None:
    std = standard_form(cx).standard
    assert "projected" in std._memo
    assert std._memo["projected"] == projection._project(_fresh(std))


def test_standard_model_inherits_the_projection_it_would_compute():
    for entry in CATALOG:
        _assert_standard_model_inherits_its_projection(_fresh(entry.complex))
    assert {entry.profile.i for entry in CATALOG} >= {0, 1, 2, 3}

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(generated_oranges())
    def check(generated):
        _assert_standard_model_inherits_its_projection(generated[0])

    check()


def test_standard_orange_join():
    star = SimplicialComplex(1, [[0], [-1], [1]], [[0, 1], [0, 2]])
    standard = standard_orange(star, 2)
    assert standard.ambient_dim == 3
    assert len(standard.vertices) == 5
    standard.validate()
    profile = detect_orange(standard)
    assert (profile.k, profile.i) == (3, 1)
    # every maximal face contains the center and both joined vertices
    for f in standard.maximal_faces:
        assert {0, 3, 4} <= set(f)


def test_standard_form_round_trip():
    for entry in CATALOG:
        sf = standard_form(entry.complex)
        assert (sf.profile.k, sf.profile.i) == (entry.profile.k, entry.profile.i)
        sf.standard.validate()
        std_profile = detect_orange(sf.standard)
        assert (std_profile.k, std_profile.i) == (entry.profile.k, entry.profile.i)
        # re-projecting the standard model gives the same star
        again = project_orange(sf.standard)
        assert again.complex == sf.projected.complex


def test_image_dimension_rule():
    for entry in CATALOG:
        cx = entry.complex
        profile = detect_orange(cx)
        tau = set(profile.medial)
        for face in sorted(cx.faces):
            image = project_face(cx, face)
            common = tau & set(face)
            # collapsing the part inside the medial face keeps one vertex
            expected = len(face) - len(common) + 1 if common else len(face)
            assert len(image) == expected, (entry.name, face)
            assert len(set(image)) == len(image)


def test_skew_orange_has_skew_frame_but_clean_star():
    skew = get("two-triangle-skew").complex
    projected = project_orange(skew)
    star = projected.complex
    star.validate()
    assert star.ambient_dim == 1
    assert len(star.maximal_faces) == 2
    assert projected.central_vertex == 0


def test_each_orange_is_recognized_and_projected_once(monkeypatch):
    # a fresh copy, so no earlier test has filled its memo
    cx = _fresh(get("two-tetrahedron").complex)
    # star pair tests, with the verdicts of earlier tests forgotten
    pair_tests, frames = [], []
    check_pairs, adapt = projection._check_pairs, projection.adapt_coordinates
    monkeypatch.setattr(projection, "_proper_stars", set())
    monkeypatch.setattr(
        projection, "_check_pairs", lambda c, names: pair_tests.append(c) or check_pairs(c, names)
    )
    monkeypatch.setattr(projection, "adapt_coordinates", lambda c: frames.append(c) or adapt(c))
    # Bernstein systems by (complex, r, d); lattices by (complex, degree),
    # one entry per distinct lattice object returned; complexes and
    # lattices are kept alive so that their ids stay unique
    systems, lattices, seen = [], {}, []
    rows, points = bernstein._smoothness_rows, bernstein.complex_domain_points

    def count_rows(c, r, d, pts):
        seen.append(c)
        systems.append((id(c), r, d))
        return rows(c, r, d, pts)

    def count_lattice(c, d):
        out = points(c, d)
        seen.append((c, out))
        lattices.setdefault(id(out), (id(c), d))
        return out

    monkeypatch.setattr(bernstein, "_smoothness_rows", count_rows)
    monkeypatch.setattr(bernstein, "complex_domain_points", count_lattice)
    sf = standard_form(cx)
    assert frames == [cx]
    lift_mds(sf.standard, 1, 3)
    verify_mds(sf.standard, 1, 3)
    layer_decomposition(sf.standard, 3)
    # the standard model inherits its projection: one frame per op
    assert frames == [cx]
    # one star pair test for the orange and its standard model together:
    # the standard model's star is equal by value
    assert pair_tests == [sf.projected.complex]
    # each system and each lattice built once per complex instance
    assert systems and len(set(systems)) == len(systems), systems
    builds = list(lattices.values())
    assert builds and len(set(builds)) == len(builds), builds
    assert (id(sf.standard), 1, 3) in systems
    assert (id(sf.standard), 3) in builds
    assert project_orange(cx) is project_orange(cx) is sf.projected
    assert detect_orange(cx) is detect_orange(cx) is sf.profile
    assert sf.projected.frame is not None
