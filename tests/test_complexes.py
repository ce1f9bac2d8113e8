"""Complex validation, orange recognition, exact geometry predicates."""

from __future__ import annotations

import ast
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st
from reference_algebra import barycentric_coordinates, solve
from stars_3d import bipyramid_stars_3d, closed_stars_3d, octahedral_star
from test_generated_oranges import generated_oranges

from orangesplines import complexes, projection
from orangesplines.complexes import (
    EmptyMedialFaceError,
    InvalidComplexError,
    NotPureError,
    SimplicialComplex,
    UnsupportedOrangeError,
    _affinely_independent,
    _cross3,
    _from_integer_view,
    _intersection_within_hull,
    adjacent_pairs,
    affine_image,
    detect_orange,
)
from orangesplines.bernstein import bernstein_dim, compute_mds
from orangesplines.catalog import CATALOG, get
from orangesplines.cofactor import spline_dim
from orangesplines.dimension import orange_dim_formula
from orangesplines.io import complex_from_dict, complex_to_dict
from orangesplines.projection import project_orange, standard_form


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


@pytest.mark.parametrize(
    "matrix, translation",
    [
        # a 3 x 3 map on a complex in R^2 once used its top-left block
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0]),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0]),
        ([[1, 0], [0, 1]], [0, 0, 0]),
        # short or ragged matrices and short translations raised IndexError
        ([[1, 0]], [0, 0]),
        ([[1, 0], [0]], [0, 0]),
        ([[1], [0, 1]], [0, 0]),
        ([[1, 0], [0, 1]], [0]),
    ],
)
def test_affine_image_rejects_a_map_of_the_wrong_shape(matrix, translation):
    message = "needs a 2 x 2 matrix and a translation of length 2"
    with pytest.raises(ValueError, match=message):
        affine_image(get("two-triangle").complex, matrix, translation)


@pytest.mark.parametrize("vertex", [(1,), (1, 0, 5)])
def test_affine_image_checks_the_shape_of_its_complex(vertex):
    # a short vertex raised IndexError, a long one lost its last coordinate
    cx = SimplicialComplex(2, [(0, 0), vertex, (0, 1)], [[0, 1, 2]])
    with pytest.raises(InvalidComplexError, match="vertex 1 has arity"):
        affine_image(cx, [[1, 0], [0, 1]], [0, 0])


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
    sol = solve(eq_rows, eq_rhs)
    if sol is None:
        return True
    particular, basis = sol
    f = len(basis)
    cand = []
    for active in combinations(range(nvars), f):
        mat = [[basis[t][idx] for t in range(f)] for idx in active]
        s = solve(mat, [-particular[idx] for idx in active])
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


def _integer_points(*groups):
    """Point groups times the lcm of all their denominators: integer points
    with the same affine dependences and signs."""
    den = math.lcm(*(c.denominator for group in groups for p in group for c in p))
    return [[tuple(int(c * den) for c in p) for p in group] for group in groups]


@st.composite
def simplex_pairs(draw):
    """Two affinely independent simplices with 0..min(k)+1 shared vertices,
    on integer points or, part of the time, on points p/q with q <= 4."""
    dim = draw(st.integers(1, 4))
    na = draw(st.integers(1, dim + 1))
    nb = na if draw(st.booleans()) else draw(st.integers(1, dim + 1))
    shared = draw(st.integers(0, min(na, nb)))
    n = na + nb - shared
    denominators = st.integers(1, 4) if draw(st.booleans()) else st.just(1)
    coordinate = st.builds(Fraction, st.integers(-3, 3), denominators)
    coords = st.tuples(*[coordinate] * dim)
    points = draw(st.lists(coords, min_size=n, max_size=n, unique=True))
    common = points[:shared]
    verts_a = common + points[shared:na]
    verts_b = common + points[na:]
    integer_a, integer_b = _integer_points(verts_a, verts_b)
    assume(_affinely_independent(integer_a) and _affinely_independent(integer_b))
    return verts_a, verts_b, common


def test_dependence_criterion_matches_vertex_enumeration():
    outcomes = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(simplex_pairs())
    def check(pair):
        expected = _within_hull_by_vertex_enumeration(*pair)
        assert _intersection_within_hull(*_integer_points(*pair)) == expected
        outcomes.append(expected)
        verts_a, verts_b, _ = pair
        fractional.append(any(c.denominator > 1 for p in verts_a + verts_b for c in p))

    fractional = []
    check()
    # a run in which one outcome never occurs would check nothing, and the
    # integer kernel clears denominators only when some point has them
    assert True in outcomes and False in outcomes
    assert any(fractional)


def _reference_validate(cx: SimplicialComplex) -> None:
    """Validation with the pair test on every two maximal faces in R^k, as
    it ran before oranges were pair-tested through their projected star."""
    cx._check_faces()
    for fa, fb in combinations(cx.maximal_faces, 2):
        if not _pair_is_proper(cx, fa, fb):
            raise InvalidComplexError(f"faces {fa} and {fb} overlap beyond their shared vertices")


def _pair_is_proper(cx: SimplicialComplex, fa, fb) -> bool:
    common = sorted(set(fa) & set(fb))
    return _intersection_within_hull(
        *_integer_points(cx.face_points(fa), cx.face_points(fb), cx.face_points(common))
    )


def _verdict(check, cx: SimplicialComplex) -> str | None:
    try:
        check(cx)
    except InvalidComplexError as exc:
        return str(exc)
    return None


def _named_faces(message: str) -> list[tuple[int, ...]]:
    return [ast.literal_eval(t) for t in re.findall(r"\([\d, ]+\)", message)]


@st.composite
def lifted_oranges(draw) -> SimplicialComplex:
    """Complexes with a common face in R^2..R^4, most of them invalid.

    A link of i-subsets of small points in R^i, chained by swapping one
    vertex at a time, is lifted over the medial face spanned by the origin
    and e_(i+1), ..., e_k at random heights; the random links cross, fold
    and overlap.  Sometimes one link point gets a second lift for the later
    faces, so that two vertices off the medial face share a projection.  An
    integer shear and a coordinate permutation hide the axes.
    """
    k = draw(st.integers(2, 4))
    i = draw(st.integers(1, k))
    coord = st.integers(-2, 2)
    link = draw(
        st.lists(st.tuples(*[coord] * i).filter(any), min_size=i + 1, max_size=i + 3, unique=True)
    )
    faces = [tuple(range(i))]
    for _ in range(draw(st.integers(2, 5))):
        old = draw(st.sampled_from(faces))
        new = draw(st.sampled_from(sorted(set(range(len(link))) - set(old))))
        face = tuple(sorted(set(old) - {draw(st.sampled_from(old))} | {new}))
        if face not in faces:
            faces.append(face)
    heights = st.tuples(*[st.integers(-1, 1)] * (k - i))
    points = [p + draw(heights) for p in link]
    if i < k and draw(st.booleans()):
        s = draw(st.integers(0, len(link) - 1))
        points.append(link[s] + tuple(h + 1 for h in points[s][i:]))
        cut = draw(st.integers(1, len(faces)))
        faces[cut:] = [tuple(len(link) if v == s else v for v in f) for f in faces[cut:]]
    medial = [tuple(int(c == j) for c in range(k)) for j in range(i - 1, k)]
    medial[0] = (0,) * k
    matrix = [[int(r == c) or (r < c and draw(st.integers(-1, 1))) for c in range(k)] for r in range(k)]
    order = draw(st.permutations(range(k)))
    vertices = [
        tuple(sum(matrix[order[r]][c] * p[c] for c in range(k)) for r in range(k))
        for p in medial + points
    ]
    m = len(medial)
    return SimplicialComplex(
        k, vertices, [list(range(m)) + [m + v for v in f] for f in faces]
    )


def test_star_route_matches_the_all_pairs_reference():
    outcomes = Counter()

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(lifted_oranges())
    def check(cx):
        expected = _verdict(_reference_validate, cx)
        got = _verdict(SimplicialComplex.validate, cx)
        assert (got is None) == (expected is None), (cx, got, expected)
        if got and "overlap" in got:
            # the star's failing pair, mapped back, overlaps in the orange
            fa, fb = _named_faces(got)
            assert fa in cx.maximal_faces and fb in cx.maximal_faces
            assert not _pair_is_proper(cx, fa, fb)
        outcomes["valid" if got is None else got.split()[-1]] += 1

    check()
    # most inputs are invalid, and many of those reach the pair test
    assert 0 < outcomes["valid"] < sum(outcomes.values()) / 2, outcomes
    assert outcomes["vertices"] > outcomes["valid"], outcomes


# the primitive integer directions of the plane with entries in [-2, 2],
# counter-clockwise from the positive x-axis
DIRECTIONS = sorted(
    {(x // math.gcd(x, y), y // math.gcd(x, y)) for x in range(-2, 3) for y in range(-2, 3) if x or y},
    key=lambda v: math.atan2(v[1], v[0]) % (2 * math.pi),
)


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


@st.composite
def fans(draw):
    """A star in R^1 or R^2 around vertex 0 at the origin, the kind of
    fault drawn into it (None for none) and whether its sectors cover the
    whole turn.

    A plane fan starts proper: sectors between consecutive rays, closed
    or not, each ray's vertex at one of two lengths.  The faults are a
    sector whose vertex on a ray it shares with its neighbour lies at the
    other length ("lengths"), one more sector on an existing start ray
    ("shared start"), and one more arbitrary sector ("extra", proper when
    it fills a gap).  A line fan has up to three segments; two on one side
    are the fault "one side"."""
    if draw(st.booleans()):
        ends = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=3, unique=True))
        kind = "one side" if len({e > 0 for e in ends}) < len(ends) else None
        faces = [[0, v] for v in range(1, len(ends) + 1)]
        return _from_integer_view(1, 1, [(0,)] + [(e,) for e in ends], faces), kind, False
    points = [(0, 0)]

    def vertex(ray: int, length: int) -> int:
        p = tuple(length * c for c in DIRECTIONS[ray])
        if p not in points:
            points.append(p)
        return points.index(p)

    rays = sorted(draw(st.lists(st.integers(0, len(DIRECTIONS) - 1), min_size=2, max_size=7, unique=True)))
    ends = [vertex(ray, draw(st.integers(1, 2))) for ray in rays]
    closed = draw(st.booleans())
    steps = list(zip(ends, ends[1:] + ends[:1] if closed else ends[1:]))
    # a step of a half-turn or more spans no sector
    sectors = [[0, a, b] for a, b in steps if _cross(points[a], points[b]) > 0]
    assume(sectors)
    whole_turn = closed and len(sectors) == len(steps)
    kind = draw(st.sampled_from([None, "lengths", "shared start", "extra"]))
    if kind == "lengths":
        # the start vertex of a sector whose start ray ends the one before
        touching = [t for t in range(len(sectors)) if sectors[t][1] == sectors[t - 1][2]]
        assume(touching)
        t = draw(st.sampled_from(touching))
        x, y = points[sectors[t][1]]
        g = math.gcd(x, y)
        sectors[t][1] = vertex(DIRECTIONS.index((x // g, y // g)), 3 - g)
    elif kind == "shared start":
        start, end = draw(st.sampled_from(sectors))[1:]
        targets = [v for v in range(1, len(points)) if v != end and _cross(points[start], points[v]) > 0]
        assume(targets)
        sectors.append([0, start, draw(st.sampled_from(targets))])
    elif kind == "extra":
        a, b = (vertex(draw(st.integers(0, len(DIRECTIONS) - 1)), draw(st.integers(1, 2))) for _ in range(2))
        assume(_cross(points[a], points[b]) and [0, *sorted((a, b))] not in map(sorted, sectors))
        sectors.append([0, a, b])
    return _from_integer_view(2, 1, points, sectors), kind, whole_turn


def test_the_fan_test_matches_the_all_pairs_reference():
    outcomes = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(fans())
    def check(drawn):
        star, kind, whole_turn = drawn
        proper = _verdict(complexes._check_pairs, star) is None
        assert complexes._check_fan(star) == proper, star
        outcomes[kind, proper] += 1
        outcomes["whole turn", proper] += whole_turn

    check()
    for kind in ("one side", "lengths", "shared start", "extra"):
        assert outcomes[kind, False], outcomes
    assert outcomes[None, True] and outcomes["extra", True], outcomes
    assert outcomes["whole turn", True] and outcomes["whole turn", False], outcomes


@st.composite
def faulty_closed_stars(draw):
    """A closed star in R^3 from the shared generators and the fault drawn
    into it (None for none), with every cone nondegenerate.

    The faults: one vertex of a cone reflected through the plane of the
    other two and the origin ("flipped cone"), one more cone on a link
    edge ("extra cone"), a bipyramid whose ring goes twice around its axis
    ("winds twice"), and one vertex moved onto the ray of another,
    non-adjacent one at a different length ("shared ray")."""
    kind = draw(st.sampled_from([None, "flipped cone", "extra cone", "winds twice", "shared ray"]))
    if kind == "winds twice":
        return draw(bipyramid_stars_3d(turns=2)), kind
    star = draw(st.one_of(closed_stars_3d(), bipyramid_stars_3d()))
    points = [tuple(Fraction(x, star.den) for x in v) for v in star.nums]
    faces = [list(f) for f in star.maximal_faces]
    if kind == "flipped cone":
        _, a, b, c = draw(st.sampled_from(faces))
        a, b, c = draw(st.permutations([a, b, c]))
        # c reflected through the plane spanned by a and b
        n = _cross3(points[a], points[b])
        t = 2 * sum(map(mul, n, points[c])) / sum(map(mul, n, n))
        points[c] = tuple(x - t * y for x, y in zip(points[c], n))
    elif kind == "extra cone":
        _, a, b, _ = draw(st.sampled_from(faces))
        w = draw(st.sampled_from([v for v in range(1, len(points)) if v not in (a, b)]))
        assume(sorted([0, a, b, w]) not in faces)
        faces.append([0, a, b, w])
    elif kind == "shared ray":
        linked = {frozenset(e) for f in faces for e in combinations(f[1:], 2)}
        v, u = draw(st.sampled_from([
            (v, u) for v, u in permutations(range(1, len(points)), 2) if {v, u} not in linked
        ]))
        points[v] = tuple(draw(st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(3)])) * x
                          for x in points[u])
    star = SimplicialComplex(3, points, faces)
    assume(len(set(star.nums)) == len(star.nums))
    assume(all(_affinely_independent([star.nums[v] for v in f]) for f in star.maximal_faces))
    return star, kind


def test_the_cone_test_matches_the_all_pairs_reference():
    outcomes = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(faulty_closed_stars())
    def check(drawn):
        star, kind = drawn
        proper = _verdict(complexes._check_pairs, star) is None
        assert complexes._check_cone3(star) is proper, (star, kind)
        outcomes[kind, proper] += 1

    check()
    assert outcomes[None, True], outcomes
    for kind in ("flipped cone", "extra cone", "winds twice", "shared ray"):
        assert outcomes[kind, False], outcomes


def test_the_cone_test_rejects_a_flat_cone():
    # vertex 1 moved onto the plane of vertices 3 and 5: the cone (0, 1, 3, 5) is flat
    star = octahedral_star()
    vertices = [(0, 1, 1) if v == 1 else p for v, p in enumerate(star.nums)]
    assert complexes._check_cone3(SimplicialComplex(3, vertices, star.maximal_faces)) is False


def test_two_vertices_with_one_projection_make_an_orange_invalid():
    # three tetrahedra around the z-axis edge; the last one's apex (1, 0, 1/2)
    # projects onto that of the first, (1, 0, 0).  The projected triangles
    # tile a fan around the origin properly, yet the first and last
    # tetrahedra share a wedge along the edge.
    cx = SimplicialComplex(
        3,
        [(0, 0, 0), (0, 0, 1), (1, 0, 0), (-1, 1, 0), (-1, -1, 0), (1, 0, Fraction(1, 2))],
        [[0, 1, 2, 3], [0, 1, 3, 4], [0, 1, 4, 5]],
    )
    with pytest.raises(InvalidComplexError, match="overlap"):
        _reference_validate(cx)
    message = r"faces \(0, 1, 2, 3\) and \(0, 1, 4, 5\) overlap"
    for check in (SimplicialComplex.validate, project_orange):
        fresh = SimplicialComplex(cx.ambient_dim, cx.vertices, cx.maximal_faces)
        with pytest.raises(InvalidComplexError, match=message):
            check(fresh)


def test_overlap_message_names_the_orange_faces():
    cx = SimplicialComplex(
        3,
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (5, 5, -1)],
        [[0, 1, 2, 3], [0, 1, 2, 4], [0, 2, 4, 5]],
    )
    for check in (SimplicialComplex.validate, project_orange):
        fresh = SimplicialComplex(cx.ambient_dim, cx.vertices, cx.maximal_faces)
        with pytest.raises(InvalidComplexError, match="overlap") as info:
            check(fresh)
        fa, fb = _named_faces(str(info.value))
        assert fa in cx.maximal_faces and fb in cx.maximal_faces
        assert not _pair_is_proper(cx, fa, fb)


def _counting_pair_tests(monkeypatch) -> list[int]:
    """Record the dimension of each pair test."""
    dims = []
    within = complexes._intersection_within_hull

    def counted(verts_a, verts_b, common):
        dims.append(len(verts_a[0]))
        return within(verts_a, verts_b, common)

    monkeypatch.setattr(complexes, "_intersection_within_hull", counted)
    return dims


def _counting_star_tests(monkeypatch) -> list[tuple[str, int]]:
    """Record each properness test of a projected star: the test's name
    and the star's dimension."""
    tests = []
    for name in ("_check_fan", "_check_cone3", "_check_pairs"):
        original = getattr(projection, name)

        def counted(star, *names, name=name, original=original):
            tests.append((name, star.ambient_dim))
            return original(star, *names)

        monkeypatch.setattr(projection, name, counted)
    return tests


def test_an_orange_is_tested_once_through_its_star(monkeypatch):
    tests = _counting_star_tests(monkeypatch)
    dims = _counting_pair_tests(monkeypatch)
    entry = get("fan-4d")
    m = [[Fraction(int(r == c) + (c == r + 1) * (r + 2)) for c in range(4)] for r in range(4)]
    image = affine_image(entry.complex, m, [Fraction(1, 3), -2, 5, Fraction(-7, 2)])
    cx = complex_from_dict(complex_to_dict(image))
    assert entry.profile.i == 2
    # one test of the star, by its cyclic order: no pair of faces is tested
    assert tests == [("_check_fan", 2)]
    orange_dim_formula(cx, 1, 3)
    spline_dim(cx, 1, 3)
    # the standard model inherits the projection: its star is not tested again
    standard_form(standard_form(cx).standard)
    assert tests == [("_check_fan", 2)]
    assert dims == []
    # a closed i = 3 star is tested once, by local orientation tests: no
    # pair of faces is tested either
    vertex_star = complex_from_dict(complex_to_dict(get("vertex-star-3d").complex))
    standard_form(standard_form(vertex_star).standard)
    assert tests == [("_check_fan", 2), ("_check_cone3", 3)]
    assert dims == []
    # a boundary i = 3 star is left to the pair test, once
    hexagon = [(0, 0, 0), (2, 0, 1), (1, 2, 1), (-1, 2, 1), (-2, 0, 1), (-1, -2, 1), (1, -2, 1)]
    cone = SimplicialComplex(3, hexagon, [[0, 1, 3, 5], [0, 1, 2, 3], [0, 3, 4, 5], [0, 5, 6, 1]])
    standard_form(standard_form(cone).standard)
    assert tests[2:] == [("_check_cone3", 3), ("_check_pairs", 3)]
    assert dims == [3] * math.comb(len(cone.maximal_faces), 2)


MORGAN_SCOTT = [(0, 0), (12, 0), (6, 12), (8, Fraction(16, 3)), (4, Fraction(16, 3)), (6, Fraction(4, 3))]
MORGAN_SCOTT_FACES = [[3, 4, 5], [0, 4, 5], [1, 5, 3], [2, 3, 4], [0, 1, 5], [1, 2, 3], [2, 0, 4]]


def test_a_complex_that_is_no_orange_is_pair_tested_directly(monkeypatch):
    dims = _counting_pair_tests(monkeypatch)
    split = SimplicialComplex(2, MORGAN_SCOTT, MORGAN_SCOTT_FACES)
    with pytest.raises(EmptyMedialFaceError):
        detect_orange(split)
    split.validate()
    assert dims == [2] * math.comb(len(MORGAN_SCOTT_FACES), 2)
    # the inner vertex c pushed out through the edge AB: (0, 1, 5) folds
    # over (0, 4, 5)
    crossing = SimplicialComplex(2, MORGAN_SCOTT[:5] + [(6, -1)], MORGAN_SCOTT_FACES)
    with pytest.raises(InvalidComplexError, match="overlap"):
        crossing.validate()


def _midpoint(p, q) -> list[Fraction]:
    return [(a + b) / 2 for a, b in zip(p, q)]


def _faulty_variants(cx: SimplicialComplex) -> dict[str, tuple[list, list]]:
    """(vertices, faces) of invalid copies of an orange, by fault.  Each
    keeps the faces' combinatorics or adds a face adjacent to one, so each
    is still recognized as an orange; a fault that the orange's shape
    cannot carry is left out."""
    profile = detect_orange(cx)
    verts = [list(v) for v in cx.vertices]
    faces = [list(f) for f in cx.maximal_faces]
    used = sorted({v for f in faces for v in f})
    face = faces[0]
    off = [v for v in face if v not in profile.medial]
    out = {}

    def moved(vid, point) -> list:
        return [point if v == vid else p for v, p in enumerate(verts)]

    if off and len(face) >= 3:
        a, b = [v for v in face if v != off[0]][:2]
        out["flat face"] = moved(off[0], _midpoint(verts[a], verts[b])), faces
    if len(profile.medial) >= 3:
        m, a, b = profile.medial[:3]
        out["flat medial face"] = moved(m, _midpoint(verts[a], verts[b])), faces
    out["duplicated used vertex"] = moved(used[-1], verts[used[0]]), faces
    out["duplicated unused vertex"] = verts + [verts[used[0]]], faces
    out["ragged vertex"] = moved(used[-1], verts[used[-1]] + [0]), faces
    out["missing vertex"] = verts[: used[-1]], faces
    if profile.i > 0:
        out["identical faces"] = verts, faces + [face]
        # a copy of the face with one vertex off the medial face moved
        # inside it: the two faces share a facet and overlap
        inside = _midpoint(verts[off[0]], [sum(c) / len(face) for c in zip(*(verts[v] for v in face))])
        copy = [len(verts) if v == off[0] else v for v in face]
        out["overlapping segments"] = verts + [inside], faces + [copy]
    return out


def _outcome(check, ambient_dim, vertices, faces) -> tuple[type, str] | None:
    try:
        check(SimplicialComplex(ambient_dim, vertices, faces))
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def test_an_orange_is_validated_by_its_projection_alone(random_affine_map):
    kinds = Counter()

    def compare(cx):
        variants = {"valid": (cx.vertices, cx.maximal_faces), **_faulty_variants(cx)}
        for kind, (vertices, faces) in variants.items():
            got = _outcome(SimplicialComplex.validate, cx.ambient_dim, vertices, faces)
            assert got == _outcome(project_orange, cx.ambient_dim, vertices, faces), (kind, cx)
            if kind == "valid":
                assert got is None, got
            else:
                assert got is not None and got[0] is InvalidComplexError, (kind, got)
            kinds[kind] += 1

    rng = random.Random(23)
    for entry in CATALOG:
        compare(entry.complex)
        compare(affine_image(entry.complex, *random_affine_map(entry.profile.k, rng)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(generated_oranges())
    def check(generated):
        compare(generated[0])

    check()
    # the valid inputs and all eight faults were checked; a flat medial
    # face needs three medial vertices, which only the catalog has
    assert len(kinds) == 9, kinds


def test_check_faces_runs_only_off_the_orange_route(monkeypatch):
    calls = []
    original = SimplicialComplex._check_faces

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(SimplicialComplex, "_check_faces", counted)
    for entry in CATALOG:
        cx = entry.complex
        SimplicialComplex(cx.ambient_dim, cx.vertices, cx.maximal_faces).validate()
    assert calls == []
    split = SimplicialComplex(2, MORGAN_SCOTT, MORGAN_SCOTT_FACES)
    split.validate()
    assert calls == [split]


@pytest.mark.parametrize(
    "den, nums",
    [
        (1, [(0, 0), (2, 0), (0, 3)]),
        (6, [(0, 0), (4, 0), (0, 6)]),
        (6, [(0, 0), (3, 2), (-2, 9)]),
        (12, [(0, 0, 0), (12, 0, 0), (0, -24, 0), (6, 0, 36)]),
        (5, [()]),
    ],
)
def test_from_integer_view_keeps_the_view_that_integer_view_computes(den, nums):
    faces = [list(range(len(nums)))]
    cx = _from_integer_view(len(nums[0]), den, nums, faces)
    assert cx.vertices == tuple(tuple(Fraction(x, den) for x in v) for v in nums)
    fresh = SimplicialComplex(cx.ambient_dim, cx.vertices, faces)
    assert cx == fresh
    assert (cx.den, cx.nums) == (fresh.den, fresh.nums)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1/2", None])
def test_the_constructor_takes_only_ints_and_fractions(bad):
    message = f"^vertex 2 coordinate 1 must be an int or a Fraction, got {re.escape(repr(bad))}$"
    with pytest.raises(TypeError, match=message):
        SimplicialComplex(2, [(0, 0), (1, 0), (Fraction(1, 3), bad)], [[0, 1, 2]])


def _fraction_value(ambient_dim, vertices, faces):
    """A complex's value as it was when complexes stored ``Fraction``
    vertices: the ambient dimension, the vertices as ``Fraction`` tuples
    and the sorted faces."""
    return (
        ambient_dim,
        tuple(tuple(Fraction(c) for c in v) for v in vertices),
        tuple(sorted(tuple(sorted(f)) for f in faces)),
    )


def test_integer_storage_keeps_the_fraction_value_semantics(random_affine_map):
    rng = random.Random(21)
    # (value, complex) pairs: every catalog orange and three rational
    # images of each, each built from Fraction vertices, from int cells
    # where a coordinate is integral, and from integers over an unreduced
    # denominator, with the faces given in another order
    built = []
    int_cells = 0
    for entry in CATALOG:
        k = entry.complex.ambient_dim
        faces = entry.complex.maximal_faces
        point_sets = [entry.complex.vertices]
        for _ in range(3):
            matrix, translation = random_affine_map(k, rng)
            point_sets.append([
                tuple(sum(m * c for m, c in zip(row, v)) + t for row, t in zip(matrix, translation))
                for v in entry.complex.vertices
            ])
        for points in point_sets:
            value = _fraction_value(k, points, faces)
            mixed = [[int(c) if c.denominator == 1 else c for c in v] for v in points]
            int_cells += sum(type(c) is int for v in mixed for c in v)
            den = math.lcm(*(c.denominator for v in points for c in v))
            variants = [
                SimplicialComplex(k, points, faces),
                SimplicialComplex(k, mixed, [f[::-1] for f in reversed(faces)]),
            ]
            for m in (1, 6):
                nums = [[int(c * den) * m for c in v] for v in points]
                variants.append(_from_integer_view(k, den * m, nums, faces))
            for cx in variants:
                assert cx.vertices == value[1]
                assert all(type(c) is Fraction for v in cx.vertices for c in v)
                assert math.lcm(*(c.denominator for v in cx.vertices for c in v)) == cx.den
                built.append((value, cx))
    assert any(cx.den > 1 for _, cx in built)
    assert int_cells
    for (value_a, a), (value_b, b) in combinations(built, 2):
        assert (a == b) == (value_a == value_b)
        if a == b:
            assert hash(a) == hash(b)
    # equal values from different routes, and different values, both occur
    assert sum(value_a == value_b for (value_a, _), (value_b, _) in combinations(built, 2))
    assert len({value for value, _ in built}) > 3 * len(CATALOG)
