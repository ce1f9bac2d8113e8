"""Adapted frames, projection onto the star, standard models."""

from __future__ import annotations

import gc
import math
import random
import re
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import pytest
from hypothesis import given, settings
from reference_algebra import Echelon, inverse
from test_complexes import _integer_points, lifted_oranges
from test_generated_oranges import generated_oranges

from orangesplines import bernstein, cofactor, complexes, exact, projection
from orangesplines.bernstein import (
    IdentifiedPoint,
    LiftedPoint,
    layer_decomposition,
    lift_mds,
    verify_mds,
)
from orangesplines.catalog import CATALOG, get
from orangesplines.cofactor import spline_dim
from orangesplines.complexes import (
    InvalidComplexError,
    Point,
    SimplicialComplex,
    _affinely_independent,
    _intersection_within_hull,
    _overlap,
    adjacent_pairs,
    affine_image,
    detect_orange,
)
from orangesplines.dimension import (
    orange_dim_formula,
    star_dims_closed_form,
    verify_hilbert_identity,
)
from orangesplines.exact import EchelonBasis
from orangesplines.io import complex_from_dict, complex_to_dict
from orangesplines.projection import (
    AdaptedFrame,
    ProjectedOrange,
    adapt_coordinates,
    project_face,
    project_orange,
    standard_form,
    standard_orange,
)
from orangesplines.sweep import run_sweep


def _fresh(cx: SimplicialComplex) -> SimplicialComplex:
    """A value-equal copy with an empty memo."""
    return SimplicialComplex(cx.ambient_dim, cx.vertices, cx.maximal_faces)


def _reference_frame(complex_: SimplicialComplex) -> tuple[tuple[Fraction, ...], ...]:
    """The adapted frame's matrix M on ``Fraction`` coordinates: the inverse
    of the matrix whose columns are a greedy completion by e_j (lowest j
    first), then the medial edge vectors."""
    profile = detect_orange(complex_)
    k = complex_.ambient_dim
    v0 = complex_.vertices[profile.medial[0]]
    medial_edges = [
        tuple(complex_.vertices[m][c] - v0[c] for c in range(k)) for m in profile.medial[1:]
    ]
    span = Echelon()
    if not all(span.add(e) for e in medial_edges):
        raise InvalidComplexError("medial face is geometrically degenerate")
    completion = []
    for j in range(k):
        cand = tuple(Fraction(int(c == j)) for c in range(k))
        if span.rank < k and span.add(cand):
            completion.append(cand)
    cols = completion + medial_edges
    return tuple(map(tuple, inverse([[col[r] for col in cols] for r in range(k)])))


def _reference_images(complex_: SimplicialComplex, face) -> list[Point]:
    """The vertices of ``face`` through the reference matrix's first i rows."""
    profile = detect_orange(complex_)
    matrix = _reference_frame(complex_)[: profile.i]
    v0 = complex_.vertices[profile.medial[0]]
    return [
        tuple(
            sum((m * (x - b) for m, x, b in zip(row, complex_.vertices[v], v0)), Fraction(0))
            for row in matrix
        )
        for v in face
    ]


def _reference_project(complex_: SimplicialComplex) -> ProjectedOrange:
    """The projection on ``Fraction`` coordinates: vertex images through
    the reference frame and the star's pair test on its ``Fraction`` face
    points."""
    profile = detect_orange(complex_)
    complex_._check_shape()
    faces = complex_.maximal_faces
    i = profile.i
    if i == 0:
        if not _affinely_independent(*_integer_points(complex_.face_points(profile.medial))):
            raise InvalidComplexError("medial face is geometrically degenerate")
        star = SimplicialComplex(0, [()], [[0]])
        return ProjectedOrange(complex=star, central_vertex=0, face_map=(0,), frame=None)
    vids = sorted({v for f in faces for v in f})
    image_of = dict(zip(vids, _reference_images(complex_, vids)))
    new_ids = {(Fraction(0),) * i: 0}
    for p in image_of.values():
        new_ids.setdefault(p, len(new_ids))
    points = list(new_ids)
    new_faces = []
    for f in faces:
        nf = tuple(sorted({new_ids[image_of[v]] for v in f}))
        face_points = _integer_points([points[v] for v in nf])
        if len(nf) != i + 1 or not _affinely_independent(*face_points):
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
            *_integer_points(
                star.face_points(star_faces[a]),
                star.face_points(star_faces[b]),
                star.face_points(common),
            )
        ):
            raise _overlap(names[a], names[b])
    frame = adapt_coordinates(complex_)
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


def test_the_frame_checks_the_shape_first():
    # the medial vertex 2 has three coordinates
    ragged = SimplicialComplex(2, [(0, 0), (1, 0), (0, 1, 5), (1, 1)], [[0, 1, 2], [1, 2, 3]])
    with pytest.raises(InvalidComplexError, match="^vertex 2 has arity 3, ambient dimension is 2$"):
        adapt_coordinates(ragged)


def test_integer_projection_matches_the_fraction_reference(random_affine_map):
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
    with pytest.raises(ValueError, match="fiber dimension must be nonnegative"):
        standard_orange(star, -1)


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


def test_project_face_rejects_a_missing_vertex():
    # -1 would otherwise name the last vertex, and 99 overrun the vertices
    for name in ("two-triangle", "segment"):
        for face in ([-1], [0, 99]):
            with pytest.raises(InvalidComplexError, match="references a missing vertex"):
                project_face(get(name).complex, face)


def test_skew_orange_has_skew_frame_but_clean_star():
    skew = get("two-triangle-skew").complex
    projected = project_orange(skew)
    star = projected.complex
    star.validate()
    assert star.ambient_dim == 1
    assert len(star.maximal_faces) == 2
    assert projected.central_vertex == 0


def test_each_orange_is_recognized_and_projected_once(monkeypatch, empty_bernstein_cache):
    # a fresh copy, so no earlier test has filled its memo, and an empty
    # Bernstein cache, so that no earlier test has filled the rows that
    # the affine images of its standard model share
    cx = _fresh(get("two-tetrahedron").complex)
    # star properness tests (by cyclic order or pair by pair) and frames built
    star_tests, frames = [], []
    check_fan, check_pairs = projection._check_fan, projection._check_pairs
    adapt = projection.adapt_coordinates
    monkeypatch.setattr(projection, "_check_fan", lambda c: star_tests.append(c) or check_fan(c))
    monkeypatch.setattr(
        projection, "_check_pairs", lambda c, names: star_tests.append(c) or check_pairs(c, names)
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
    # one star test for the orange and its standard model together
    assert star_tests == [sf.projected.complex]
    # each system and each lattice built once per complex instance
    assert systems and len(set(systems)) == len(systems), systems
    builds = list(lattices.values())
    assert builds and len(set(builds)) == len(builds), builds
    assert (id(sf.standard), 1, 3) in systems
    assert (id(sf.standard), 3) in builds
    assert project_orange(cx) is project_orange(cx) is sf.projected
    assert detect_orange(cx) is detect_orange(cx) is sf.profile
    assert sf.projected.frame is not None


def _assert_the_seeded_profile_is_detected(cx: SimplicialComplex) -> None:
    standard = standard_form(cx).standard
    assert "profile" in standard._memo
    assert detect_orange(standard) == detect_orange(_fresh(standard))


def test_standard_form_seeds_the_profile_it_would_detect():
    for entry in CATALOG:
        _assert_the_seeded_profile_is_detected(_fresh(entry.complex))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(generated_oranges())
    def check(generated):
        _assert_the_seeded_profile_is_detected(generated[0])

    check()


def _assert_frame_is_the_reference(cx: SimplicialComplex) -> None:
    """(L, R), the derived matrix and ``project_face`` equal the ``Fraction``
    reference, or both frames raise the same error."""
    try:
        expected = _reference_frame(cx)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            adapt_coordinates(_fresh(cx))
        return
    frame = adapt_coordinates(_fresh(cx))
    kept = expected[: detect_orange(cx).i]
    scale = math.lcm(*(m.denominator for row in kept for m in row))
    assert frame.scale == scale
    assert frame.rows == tuple(tuple(m * scale for m in row) for row in kept)
    assert all(type(x) is int for row in frame.rows for x in row)
    assert frame.matrix == expected
    try:
        project_orange(cx)
    except InvalidComplexError:
        return
    for face in [*cx.maximal_faces, detect_orange(cx).medial]:
        assert project_face(cx, face) == tuple(sorted(set(_reference_images(cx, face))))


def test_integer_frame_matches_the_fraction_reference(random_affine_map):
    rng = random.Random(18)
    entries = [entry for entry in CATALOG if entry.profile.i > 0]
    for entry in entries:
        _assert_frame_is_the_reference(entry.complex)
        for face in sorted(entry.complex.faces):
            images = set(_reference_images(entry.complex, face))
            assert project_face(entry.complex, face) == tuple(sorted(images))
        k = entry.complex.ambient_dim
        for _ in range(20):
            _assert_frame_is_the_reference(
                affine_image(entry.complex, *random_affine_map(k, rng))
            )

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(lifted_oranges())
    def check(cx):
        _assert_frame_is_the_reference(cx)

    check()


def test_a_degenerate_medial_face_has_no_frame():
    # the shared triangle (0, 1, 2) of two tetrahedra is flat
    cx = _two_simplices(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0)]
    )
    for build in (adapt_coordinates, _reference_frame):
        with pytest.raises(InvalidComplexError, match="medial face is geometrically degenerate"):
            build(cx)


def test_validating_many_images_retains_no_memory():
    # positive diagonal images of fan-4d, each with its own star: the
    # scalings of the two coordinates the orange projects onto differ
    base = get("fan-4d").complex
    wires = []
    for n in range(301):
        scaling = [1 + n % 20, 1 + n // 20, 1, 1]
        matrix = [[scaling[r] * (r == c) for c in range(4)] for r in range(4)]
        wires.append(complex_to_dict(affine_image(base, matrix, [0] * 4)))
    complex_from_dict(wires.pop())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for wire in wires:
            complex_from_dict(wire)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a cache of star values kept about 380 KB here
    assert retained < 64 * 1024, retained


def _dim_general_op(wire: dict) -> None:
    dim = complex_from_dict(wire)
    assert spline_dim(dim, 1, 3) == orange_dim_formula(dim, 1, 3)


def _series_adapted_op(wire: dict) -> None:
    series = complex_from_dict(wire)
    report = run_sweep(series, [1], range(4))
    assert [c.formula for c in report.cells] == [c.oracle for c in report.cells]
    assert verify_hilbert_identity(series, 1, 3)[0]


def _mds_lift_op(wire: dict) -> None:
    # without validation
    cx = SimplicialComplex(
        wire["ambient_dim"],
        [[Fraction(c) for c in v] for v in wire["vertices"]],
        wire["maximal_faces"],
    )
    standard = standard_form(cx).standard
    assert lift_mds(standard, 1, 3).total == orange_dim_formula(cx, 1, 3)
    assert verify_mds(standard, 1, 3)
    layer_decomposition(standard, 3)


# what an op of each benchmark workload does, on one wire complex
WORKLOAD_OPS = {
    "dim_general": _dim_general_op,
    "series_adapted": _series_adapted_op,
    "mds_lift": _mds_lift_op,
}


def _one_op_of_each_workload(wire: dict) -> None:
    for op in WORKLOAD_OPS.values():
        op(wire)


def test_a_workload_op_checks_the_shape_once_and_runs_no_face_loop(monkeypatch, random_affine_map):
    shapes, loops = [], []
    check_shape, check_faces = SimplicialComplex._check_shape, SimplicialComplex._check_faces

    def counted(cx):
        if "checked" not in cx._memo:
            loops.append(cx)
        check_faces(cx)

    monkeypatch.setattr(SimplicialComplex, "_check_shape", lambda cx: shapes.append(cx) or check_shape(cx))
    monkeypatch.setattr(SimplicialComplex, "_check_faces", counted)
    # a cold prefix cache: every system is built
    monkeypatch.setattr(cofactor, "_prefixes", cofactor._PrefixCache(maxsize=256))
    rng = random.Random(26)
    for name in ("fan-4d", "vertex-star-3d", "planar-star", "two-triangle"):
        base = get(name).complex
        wire = complex_to_dict(affine_image(base, *random_affine_map(base.ambient_dim, rng)))
        for workload, op in WORKLOAD_OPS.items():
            shapes.clear()
            loops.clear()
            op(wire)
            # the projection checks the orange's shape, and its pass marks
            # the orange, its star and the complexes derived from them
            assert (len(shapes), loops) == (1, []), (name, workload)
    # the counters see a face loop that does run, on a complex no
    # projection has marked
    shapes.clear()
    unvalidated = SimplicialComplex(2, [(0, 0), (1, 0), (0, 1), (1, 1)], [[0, 1, 2], [1, 2, 3]])
    spline_dim(unvalidated, 1, 3)
    assert (shapes, loops) == ([unvalidated], [unvalidated])


def test_workload_ops_call_no_fraction_solver(monkeypatch, random_affine_map):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    package = [m for n, m in sys.modules.items() if n.split(".")[0] == "orangesplines"]
    for name in ("invert_matrix", "solve_linear"):
        original = getattr(exact, name)
        for module in package:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    monkeypatch.setattr(EchelonBasis, "add", counted("EchelonBasis.add", EchelonBasis.add))

    entry = get("fan-4d")
    image = affine_image(entry.complex, *random_affine_map(4, random.Random(18)))
    for cx in (_fresh(entry.complex), image):
        _one_op_of_each_workload(complex_to_dict(cx))
    assert calls == Counter(), calls
    # the counters see the calls that do happen: the frame's matrix view
    assert adapt_coordinates(image).matrix
    assert calls == Counter({"invert_matrix": 1}), calls


def test_workload_ops_pair_test_no_star(monkeypatch, random_affine_map):
    calls = []
    within = complexes._intersection_within_hull
    monkeypatch.setattr(
        complexes, "_intersection_within_hull", lambda *args: calls.append(1) or within(*args)
    )
    rng = random.Random(20)
    counts = {}
    for name in ("fan-4d", "planar-star", "two-triangle", "vertex-star-3d"):
        base = get(name).complex
        image = affine_image(base, *random_affine_map(base.ambient_dim, rng))
        before = len(calls)
        _one_op_of_each_workload(complex_to_dict(image))
        counts[name] = len(calls) - before
    # a fan (i <= 2) is decided by its cyclic order, a closed i = 3 star by
    # local orientation tests
    assert counts == {"fan-4d": 0, "planar-star": 0, "two-triangle": 0, "vertex-star-3d": 0}
    # the counter sees the pair tests that do happen: a star the cone test rejects
    monkeypatch.setattr(projection, "_check_cone3", lambda star: False)
    with pytest.raises(RuntimeError, match="the cone test rejects"):
        project_orange(_fresh(get("vertex-star-3d").complex))
    assert len(calls) == math.comb(len(get("vertex-star-3d").complex.maximal_faces), 2)


def test_a_dim_general_op_scans_each_face_list_once(monkeypatch, random_affine_map):
    scans = []
    facet_pairs = complexes._facet_pairs
    monkeypatch.setattr(complexes, "_facet_pairs", lambda faces: scans.append(faces) or facet_pairs(faces))
    # a cold prefix cache: the system is built
    monkeypatch.setattr(cofactor, "_prefixes", cofactor._PrefixCache(maxsize=256))
    base = get("fan-4d").complex
    image = affine_image(base, *random_affine_map(4, random.Random(24)))
    cx = complex_from_dict(complex_to_dict(image))
    assert spline_dim(cx, 1, 3) == orange_dim_formula(cx, 1, 3)
    # the orange's faces, which the system of the moved orange shares, and
    # the star's, which the closed form reads
    assert scans == [cx.maximal_faces, project_orange(cx).complex.maximal_faces]


def test_one_mds_lift_op_scans_each_complex_for_pairs_once(monkeypatch, random_affine_map):
    # the faces tuples scanned, kept alive so that their ids stay unique;
    # every complex instance stores a faces tuple of its own
    scanned = []
    scan = complexes._facet_pairs
    monkeypatch.setattr(
        complexes, "_facet_pairs", lambda faces: scanned.append(faces) or scan(faces)
    )
    rng = random.Random(21)
    for name in ("fan-4d", "vertex-star-3d", "planar-star", "two-triangle"):
        base = get(name).complex
        cx = _fresh(affine_image(base, *random_affine_map(base.ambient_dim, rng)))
        scanned.clear()
        sf = standard_form(cx)
        lift_mds(sf.standard, 1, 3)
        verify_mds(sf.standard, 1, 3)
        layer_decomposition(sf.standard, 3)
        # the orange alone, scanned once: its star is seeded with the
        # orange's pairs through the face map, and the standard model with
        # the star's, which a scan of their faces gives
        star = sf.projected.complex
        assert [id(faces) for faces in scanned] == [id(cx.maximal_faces)]
        assert adjacent_pairs(star) == list(scan(star.maximal_faces))
        assert adjacent_pairs(sf.standard) == list(scan(sf.standard.maximal_faces))


def test_a_dim_general_op_validates_once(monkeypatch, random_affine_map):
    calls = []
    fan, validate = projection._check_fan, SimplicialComplex.validate
    monkeypatch.setattr(projection, "_check_fan", lambda star: calls.append("fan") or fan(star))
    monkeypatch.setattr(SimplicialComplex, "validate", lambda cx: calls.append("all") or validate(cx))
    rng = random.Random(25)
    for name in ("fan-4d", "planar-star", "two-triangle"):
        base = get(name).complex
        wire = complex_to_dict(affine_image(base, *random_affine_map(base.ambient_dim, rng)))
        calls.clear()
        cx = complex_from_dict(wire)
        assert spline_dim(cx, 1, 3) == orange_dim_formula(cx, 1, 3)
        # the orange's validation is its star's one fan test; the closed form
        # reads the projected star without checking it again
        assert calls == ["all", "fan"], name
    # the counter sees the check that the public closed form makes, once
    star = project_orange(cx).complex
    assert star_dims_closed_form(star, 1, 3) == star_dims_closed_form(star, 1, 3)
    assert calls == ["all", "fan", "fan"]


def test_a_fan_rejected_only_by_the_fan_test_raises(monkeypatch):
    monkeypatch.setattr(projection, "_check_fan", lambda star: False)
    with pytest.raises(RuntimeError, match="the fan test rejects"):
        project_orange(_fresh(get("planar-star").complex))


def test_workload_ops_build_no_fraction_vertices(monkeypatch, random_affine_map):
    rng = random.Random(19)
    wires = [complex_to_dict(get(name).complex) for name in ("fan-4d", "vertex-star-3d")]
    for name in ("fan-4d", "vertex-star-3d", "planar-star"):
        base = get(name).complex
        wires.append(complex_to_dict(affine_image(base, *random_affine_map(base.ambient_dim, rng))))
    builds = []
    view = SimplicialComplex.vertices

    def counted(cx):
        builds.append(cx)
        return view.func(cx)

    counting = cached_property(counted)
    counting.__set_name__(SimplicialComplex, "vertices")
    monkeypatch.setattr(SimplicialComplex, "vertices", counting)
    # a cold prefix cache: every system is built
    monkeypatch.setattr(cofactor, "_prefixes", cofactor._PrefixCache(maxsize=256))
    for wire in wires:
        _one_op_of_each_workload(wire)
    assert builds == []
    # the counter sees a view that is read
    assert complex_from_dict(wires[0]).vertices
    assert len(builds) == 1


def test_workload_ops_derive_no_medial_points(monkeypatch, random_affine_map):
    rng = random.Random(23)
    wires = []
    for name in ("fan-4d", "vertex-star-3d", "planar-star", "two-triangle"):
        base = get(name).complex
        wires.append(complex_to_dict(affine_image(base, *random_affine_map(base.ambient_dim, rng))))
    builds = []
    view = AdaptedFrame.medial

    def counted(frame):
        builds.append(frame)
        return view.func(frame)

    counting = cached_property(counted)
    counting.__set_name__(AdaptedFrame, "medial")
    monkeypatch.setattr(AdaptedFrame, "medial", counting)
    monkeypatch.setattr(cofactor, "_prefixes", cofactor._PrefixCache(maxsize=256))
    for wire in wires:
        _one_op_of_each_workload(wire)
    assert builds == []
    # the derived points are the medial vertices, on the orange and on its
    # standard model, and the counter sees them read
    cx = complex_from_dict(wires[0])
    sf = standard_form(cx)
    frames = [(cx, adapt_coordinates(cx)), (sf.standard, sf.standard._memo["projected"].frame)]
    for owner, frame in frames:
        medial = detect_orange(owner).medial
        assert frame.medial == tuple(owner.vertices[m] for m in medial)
    assert len(builds) == 2


def test_workload_ops_derive_coordinates_only_for_lifted_points(monkeypatch, random_affine_map):
    # no op derives a point's coordinates; a lifted point derives its own
    # on first read
    builds, lifts = [], []
    for cls in (IdentifiedPoint, LiftedPoint):
        view = cls.coordinates

        def counted(point, view=view):
            builds.append(point)
            return view.func(point)

        counting = cached_property(counted)
        counting.__set_name__(cls, "coordinates")
        monkeypatch.setattr(cls, "coordinates", counting)

    lift = lift_mds

    def recording(cx, r, d):
        lifts.append(lift(cx, r, d))
        return lifts[-1]

    monkeypatch.setattr(sys.modules[__name__], "lift_mds", recording)
    rng = random.Random(22)
    for name in ("fan-4d", "vertex-star-3d", "planar-star"):
        base = get(name).complex
        builds.clear()
        _one_op_of_each_workload(
            complex_to_dict(affine_image(base, *random_affine_map(base.ambient_dim, rng)))
        )
        assert builds == [], name
        # reading each lifted point's coordinates derives them once, from
        # its key and scale
        lifted = lifts[-1].points
        assert lifted
        for p in lifted:
            assert p.coordinates is p.coordinates
            assert p.coordinates == tuple(Fraction(n, p.scale) for n in p.key)
        assert builds == list(lifted), name


def _package_fraction_builds(run) -> list[tuple[str, str, int]]:
    """(module, function, line) of each ``Fraction`` that ``run()`` builds
    in a frame of the ``orangesplines`` package: the nearest caller
    outside the ``fractions`` module of a ``Fraction`` constructor, which
    arithmetic on ``Fraction``s calls too."""
    constructors = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):
        # Python >= 3.12 builds arithmetic results without ``__new__``
        constructors.add(Fraction._from_coprime_ints.__func__.__code__)
    builds = []

    def profile(frame, event, arg):
        if event != "call" or frame.f_code not in constructors:
            return
        caller = frame.f_back
        while caller is not None and caller.f_globals.get("__name__") == "fractions":
            caller = caller.f_back
        module = caller.f_globals.get("__name__", "") if caller is not None else ""
        if module.split(".")[0] == "orangesplines":
            builds.append((module, caller.f_code.co_name, caller.f_lineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return builds


def test_a_workload_op_builds_no_fraction_in_the_package(
    random_affine_map, empty_prefix_cache, empty_bernstein_cache
):
    # cold caches, so that every system and lattice of an op is built
    rng = random.Random(27)
    for name in ("fan-4d", "vertex-star-3d", "planar-star", "two-triangle", "two-triangle-skew"):
        base = get(name).complex
        for cx in (_fresh(base), affine_image(base, *random_affine_map(base.ambient_dim, rng))):
            wire = complex_to_dict(cx)
            for workload, op in WORKLOAD_OPS.items():
                assert _package_fraction_builds(lambda: op(wire)) == [], (name, workload)
    # the counter sees the builds that do happen: a lifted point's
    # coordinates, read after the op, and arithmetic in a package frame
    std = standard_form(_fresh(get("two-tetrahedron").complex)).standard
    point = lift_mds(std, 1, 2).points[-1]
    builds = _package_fraction_builds(lambda: point.coordinates)
    assert [module for module, _, _ in builds] == ["orangesplines.bernstein"] * len(point.key)
    frame = adapt_coordinates(_fresh(get("two-triangle-skew").complex))
    assert _package_fraction_builds(lambda: frame.apply_point((Fraction(1, 2), Fraction(1, 3))))
