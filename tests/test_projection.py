"""Adapted frames, projection onto the star, standard models."""

from __future__ import annotations

from fractions import Fraction

import pytest

from orangesplines import bernstein, projection
from orangesplines.bernstein import layer_decomposition, lift_mds, verify_mds
from orangesplines.catalog import CATALOG, get
from orangesplines.complexes import InvalidComplexError, SimplicialComplex, detect_orange
from orangesplines.dimension import orange_dim_formula
from orangesplines.projection import (
    adapt_coordinates,
    project_face,
    project_orange,
    standard_form,
    standard_orange,
)


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


@pytest.mark.parametrize(
    "vertices, message",
    [
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
    ],
)
def test_invalid_orange_raises_a_typed_error_on_every_path(vertices, message):
    # two k-simplices on the vertices 0..k - 1, with apexes k and k + 1
    k = len(vertices[0])

    def fresh():
        return SimplicialComplex(k, vertices, [range(k + 1), [*range(k), k + 1]])

    with pytest.raises(InvalidComplexError):
        fresh().validate()
    for path in (project_orange, standard_form, lambda cx: orange_dim_formula(cx, 1, 2)):
        with pytest.raises(InvalidComplexError, match=message):
            path(fresh())


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
    entry = get("two-tetrahedron").complex
    cx = SimplicialComplex(entry.ambient_dim, entry.vertices, entry.maximal_faces)
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
