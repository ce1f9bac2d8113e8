"""Smoothness systems and their nullity against classical dimension counts."""

from __future__ import annotations

import gc
import json
import math
import random
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_algebra import Echelon, normal_form_vertices, nullspace, rank
from stars_3d import boundary_stars_3d, closed_stars_3d
from test_generated_oranges import generated_oranges
from test_projection import _fresh

from orangesplines import cofactor, exact
from orangesplines.bernstein import (
    bernstein_dim,
    complex_domain_points,
    layer_decomposition,
    lift_mds,
    verify_mds,
)
from orangesplines.catalog import CATALOG, get
from orangesplines.cofactor import (
    build_system,
    facet_linear_form,
    spline_basis,
    spline_dim,
    spline_dims,
)
from orangesplines.complexes import (
    InvalidComplexError,
    SimplicialComplex,
    _facet_pairs,
    adjacent_pairs,
    affine_image,
    detect_orange,
)
from orangesplines.dimension import orange_dim_formula
from orangesplines.projection import project_face, project_orange, standard_form
from orangesplines.exact import RationalMatrix, binom
from orangesplines.polynomials import Polynomial, divisible_by_linear_power, monomials_upto


def _lead_one(form: tuple[int, ...]) -> Polynomial:
    """The wall form l = L / lead(L) over the rationals, with lead 1."""
    lead = next(a for a in form if a)
    return Polynomial.linear([Fraction(a, lead) for a in form[:-1]], Fraction(form[-1], lead))


def _walls(cx: SimplicialComplex) -> list[tuple[int, ...]]:
    faces = cx.maximal_faces
    return [
        facet_linear_form([cx.vertices[v] for v in sorted(set(faces[s]) & set(faces[t]))])
        for s, t in adjacent_pairs(cx)
    ]


def test_facet_linear_form_for_known_walls():
    # the y-axis wall between the two triangles
    two = get("two-triangle").complex
    ell = _lead_one(facet_linear_form([two.vertices[0], two.vertices[1]]))
    # vanishes on the wall, first nonzero coefficient normalized to one
    assert ell.evaluate([Fraction(0), Fraction(0)]) == 0
    assert ell.evaluate([Fraction(0), Fraction(5)]) == 0
    assert ell.evaluate([Fraction(1), Fraction(0)]) == 1

    point = SimplicialComplex(1, [[Fraction(2, 3)]], [[0]])
    form = facet_linear_form([point.vertices[0]])
    assert form == (3, -2)
    ell1 = _lead_one(form)
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
    wall = _lead_one(facet_linear_form([cx.vertices[0], cx.vertices[1]]))
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


def _per_degree_reference(cx: SimplicialComplex, r: int, dmax: int) -> tuple[int, ...]:
    """The reference: one system per degree, on the complex as given."""
    return tuple(build_system(cx, r, d).dimension() for d in range(dmax + 1))


@st.composite
def inhomogeneous_images(draw):
    """An invertible integer affine image of a catalog orange with a nonzero
    rational translation, so its walls need not pass through the origin."""
    entry = draw(st.sampled_from(CATALOG))
    k = entry.complex.ambient_dim
    matrix = draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), min_size=k, max_size=k)
    )
    assume(rank(matrix) == k)
    numerators = draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k).filter(any))
    denominator = draw(st.integers(1, 4))
    return affine_image(entry.complex, matrix, [Fraction(n, denominator) for n in numerators])


def _cycle_rank(cx: SimplicialComplex) -> int:
    """Independent cycles of the dual graph: pairs - faces + components."""
    pairs = adjacent_pairs(cx)
    root = list(range(len(cx.maximal_faces)))

    def find(u):
        while root[u] != u:
            u = root[u]
        return u

    for s, t in pairs:
        root[find(s)] = find(t)
    components = sum(find(u) == u for u in range(len(root)))
    return len(pairs) - len(root) + components


def test_graded_prefix_matches_one_system_per_degree_on_affine_images():
    inhomogeneous, ranks = [], set()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(inhomogeneous_images(), st.integers(0, 2), st.integers(0, 4))
    def check(cx, r, dmax):
        if cx.ambient_dim == 4:
            dmax = min(dmax, 3)
        assert spline_dims(cx, r, dmax) == _per_degree_reference(cx, r, dmax)
        origin = (0,) * cx.ambient_dim
        walls = [_lead_one(form) for form in _walls(cx)]
        inhomogeneous.append(any(ell.coefficient(origin) for ell in walls))
        ranks.add(_cycle_rank(cx))

    check()
    # the graded path had walls to translate, not only walls through 0
    assert True in inhomogeneous
    # dual graphs that are trees, and with one and with three cycles
    assert {0, 1, 3} <= ranks


@pytest.mark.parametrize(
    "cx",
    [
        # two disjoint segments: two components, no pair
        SimplicialComplex(1, [[0], [1], [5], [7]], [[0, 1], [2, 3]]),
        # two triangles meeting at a vertex: two components sharing it
        SimplicialComplex(
            2, [(1, 1), (2, 1), (1, 3), (0, 1), (1, -1)], [[0, 1, 2], [0, 3, 4]]
        ),
        # a single simplex
        SimplicialComplex(
            3, [(1, 0, 0), (3, 1, 0), (0, 2, 1), (1, 1, Fraction(5, 2))], [[0, 1, 2, 3]]
        ),
        # the one-point star in R^0
        SimplicialComplex(0, [()], [[0]]),
    ],
    ids=["disjoint segments", "bowtie", "simplex", "R^0 star"],
)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_graded_prefix_on_dual_graphs_without_pairs(cx, r):
    assert _cycle_rank(cx) == 0
    assert spline_dims(cx, r, 5) == _per_degree_reference(cx, r, 5)


def _reference_wall(points) -> list[Fraction]:
    """The wall form over the rationals with lead 1, from a nullspace."""
    (vec,) = nullspace([list(p) + [1] for p in points], len(points[0]) + 1)
    dense = [vec.get(c, Fraction(0)) for c in range(len(points[0]) + 1)]
    lead = next(v for v in dense if v)
    return [v / lead for v in dense]


def test_facet_linear_form_is_the_primitive_integer_wall():
    scaled = []

    def check(cx):
        faces = cx.maximal_faces
        for s, t in adjacent_pairs(cx):
            points = [cx.vertices[v] for v in sorted(set(faces[s]) & set(faces[t]))]
            form = facet_linear_form(points)
            ell = _reference_wall(points)
            scale = math.lcm(*(v.denominator for v in ell))
            assert all(type(a) is int for a in form)
            assert math.gcd(*form) == 1
            assert next(a for a in form if a) == scale > 0
            assert form == tuple(scale * v for v in ell)
            scaled.append(scale > 1)

    for entry in CATALOG:
        check(entry.complex)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(inhomogeneous_images())
    def check_images(cx):
        check(cx)

    check_images()
    # some wall had denominators, so D > 1 was exercised
    assert True in scaled


def _reference_build_system(cx: SimplicialComplex, r: int, d: int) -> RationalMatrix:
    """The reference: the system over the rationals, with each wall power
    l**(r+1) taken by ``Polynomial`` products and written term by term."""
    k = cx.ambient_dim
    faces = cx.maximal_faces
    nf = len(faces)
    face_mons = tuple(monomials_upto(k, d))
    cof_mons = tuple(monomials_upto(k, d - r - 1)) if d - r - 1 >= 0 else ()
    pairs = tuple(adjacent_pairs(cx))
    m = len(face_mons)
    mc = len(cof_mons)
    mono_pos = {mono: idx for idx, mono in enumerate(face_mons)}
    rows: list[dict[int, Fraction]] = []
    for p, (s, t) in enumerate(pairs):
        shared = sorted(set(faces[s]) & set(faces[t]))
        ell = _lead_one(facet_linear_form([cx.vertices[v] for v in shared]))
        wall_terms = tuple((ell ** (r + 1)).coeffs.items())
        cof_base = nf * m + p * mc
        pair_rows: list[dict[int, Fraction]] = [
            {s * m + i: Fraction(1), t * m + i: Fraction(-1)} for i in range(m)
        ]
        for u_idx, u in enumerate(cof_mons):
            col = cof_base + u_idx
            for e, c in wall_terms:
                pair_rows[mono_pos[tuple(a + b for a, b in zip(u, e))]][col] = -c
        rows.extend(pair_rows)
    return RationalMatrix.from_sparse(rows, nf * m + len(pairs) * mc)


def test_integer_build_matches_the_rational_reference_on_affine_images(monkeypatch):
    built = []
    original = cofactor.build_system

    def recording(complex_, r, d):
        system = original(complex_, r, d)
        built.append((system, [dict(row) for row in system.rows]))
        return system

    monkeypatch.setattr(cofactor, "build_system", recording)
    scaled, graded_builds = [], []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(inhomogeneous_images(), st.integers(0, 3), st.integers(0, 5))
    def check(cx, r, d):
        if cx.ambient_dim == 4:
            d = min(d, 3)
        system = original(cx, r, d)
        assert system.matrix == _reference_build_system(cx, r, d)
        scaled.append(any(scale > 1 for scale in system.cofactor_scales))
        # the kernel keeps input rows as pivots; it must not change them
        before = [dict(row) for row in system.rows]
        assert system.dimension() == system.ncols - rank(map(dict, system.matrix.rows))
        assert list(system.rows) == before
        built.clear()
        spline_dims(cx, r, d)
        for graded, rows in built:
            assert list(graded.rows) == rows
        graded_builds.append(len(built))

    check()
    # some wall form had denominators, so some cofactor columns were scaled,
    # and some spline_dims call missed the cache and built a system
    assert True in scaled
    assert any(graded_builds)


MORGAN_SCOTT_FACES = [[3, 4, 5], [0, 4, 5], [1, 5, 3], [2, 3, 4], [0, 1, 5], [1, 2, 3], [2, 0, 4]]


def _morgan_scott(c, shift=(0, 0)) -> SimplicialComplex:
    # outer triangle A, B, C and inner triangle a, b, c
    vertices = [(0, 0), (12, 0), (6, 12), (8, Fraction(16, 3)), (4, Fraction(16, 3)), c]
    moved = [[x + s for x, s in zip(v, shift)] for v in vertices]
    cx = SimplicialComplex(2, moved, MORGAN_SCOTT_FACES)
    cx.validate()
    return cx


@pytest.mark.parametrize(
    "c, expected",
    [((6, Fraction(4, 3)), (1, 3, 7, 16, 33)), ((Fraction(13, 2), Fraction(4, 3)), (1, 3, 6, 16, 33))],
)
def test_morgan_scott_split_without_a_shared_vertex(c, expected):
    # the symmetric split has the famous extra C^1 quadratic, which moving
    # c destroys
    cx = _morgan_scott(c)
    assert not set.intersection(*(set(f) for f in cx.maximal_faces))
    assert spline_dims(cx, 1, 4) == _per_degree_reference(cx, 1, 4) == expected


def test_spline_dims_edge_cases(two_triangle):
    assert spline_dims(two_triangle, 1, -1) == ()
    assert spline_dim(two_triangle, 1, -1) == 0
    with pytest.raises(ValueError, match="smoothness order"):
        spline_dims(two_triangle, -1, 3)
    assert spline_dims(two_triangle, 1, 4)[3] == spline_dim(two_triangle, 1, 3) == 13


def _recording_builds(monkeypatch) -> list:
    built = []
    original = cofactor.build_system

    def recording(complex_, r, d):
        built.append(original(complex_, r, d))
        return built[-1]

    monkeypatch.setattr(cofactor, "build_system", recording)
    return built


def test_shared_vertex_system_is_block_diagonal_by_degree(monkeypatch, empty_prefix_cache):
    # an image whose walls miss the origin; the graded pass must move the
    # shared vertex there, so that every row lies in one degree block
    r, dmax = 1, 4
    matrix = [[2, 1, 0], [0, 1, 1], [1, 0, 3]]
    cx = affine_image(get("tetrahedral-fan").complex, matrix, [Fraction(5, 3), -2, Fraction(7, 4)])
    walls = [_lead_one(form) for form in _walls(cx)]
    assert any(ell.coefficient((0, 0, 0)) for ell in walls)
    built = _recording_builds(monkeypatch)
    assert spline_dims(cx, r, dmax) == _per_degree_reference(cx, r, dmax)
    (system,) = built
    # the system eliminated is the normal form's, which the key names
    assert system.complex is cofactor._normal_form(cx)
    assert list(empty_prefix_cache) == [
        (3, system.complex.den, system.complex.nums, cx.maximal_faces, r)
    ]
    face_degrees = [sum(mono) for mono in system.face_monomials]
    cofactor_degrees = [sum(mono) + r + 1 for mono in system.cofactor_monomials]
    degrees = face_degrees * system.n_faces + cofactor_degrees * len(system.pairs)
    assert system.d == dmax
    for row in system.matrix.rows:
        assert len({degrees[c] for c, _ in row}) == 1


def test_one_build_answers_every_lower_degree(monkeypatch):
    # no shared vertex, so the system is eliminated as given; a fresh shift
    # keeps the cache cold
    cx = _morgan_scott((6, Fraction(4, 3)), shift=(Fraction(1, 7), 3))
    built = _recording_builds(monkeypatch)
    misses = spline_dim.cache_info().misses
    assert spline_dim(cx, 1, 4) == 33
    assert [system.d for system in built] == [4]
    assert spline_dims(cx, 1, 3) == (1, 3, 7, 16)
    assert [spline_dim(cx, 1, d) for d in range(5)] == [1, 3, 7, 16, 33]
    assert len(built) == 1
    assert spline_dim.cache_info().misses == misses + 1
    # a longer prefix is one more build, at the new top degree
    assert spline_dims(cx, 1, 5)[:5] == (1, 3, 7, 16, 33)
    assert [system.d for system in built] == [4, 5]


def _spying_echelon(monkeypatch) -> list:
    sent = []
    original = cofactor._echelon

    def spying(rows):
        rows = list(rows)
        sent.append(rows)
        return original(rows)

    monkeypatch.setattr(cofactor, "_echelon", spying)
    return sent


def test_a_tree_dual_graph_sends_no_rows(monkeypatch, empty_prefix_cache):
    cx = affine_image(
        get("two-tetrahedron").complex, [[1, 2, 0], [0, 1, 0], [3, 0, 1]], [Fraction(2, 9), 1, -4]
    )
    assert _cycle_rank(cx) == 0
    sent = _spying_echelon(monkeypatch)
    dims = spline_dims(cx, 1, 5)
    assert sent == [[]]
    assert dims == _per_degree_reference(cx, 1, 5)


def test_the_kernel_sees_only_cycle_rows(monkeypatch, empty_prefix_cache):
    r, dmax = 1, 5
    cx = affine_image(
        get("planar-star").complex, [[2, 1], [1, 3]], [Fraction(-4, 11), Fraction(3, 2)]
    )
    assert _cycle_rank(cx) == 1
    built = _recording_builds(monkeypatch)
    sent = _spying_echelon(monkeypatch)
    dims = spline_dims(cx, r, dmax)
    (system,) = built
    (rows,) = sent
    assert dims == _per_degree_reference(cx, r, dmax)
    assert rows
    # each kernel column ends in its column of the system: key mod ncols
    n_face_cols = system.n_faces * system.face_block_size
    mc = len(system.cofactor_monomials)
    for row in rows:
        cols = {key % system.ncols for key in row}
        assert min(cols) >= n_face_cols
        degrees = {
            sum(system.cofactor_monomials[(c - n_face_cols) % mc]) + r + 1 for c in cols
        }
        assert len(degrees) == 1
    assert len(rows) <= _cycle_rank(cx) * len(monomials_upto(2, dmax))


def _dense_image(cx: SimplicialComplex) -> SimplicialComplex:
    """x -> H x + b with H the Hilbert matrix 1 / (a + b + 1), invertible and
    nonzero everywhere, and b_a = (a + 1) / (a + 2): every wall is dense and
    none passes through the origin."""
    k = cx.ambient_dim
    hilbert = [[Fraction(1, a + b + 1) for b in range(k)] for a in range(k)]
    return affine_image(cx, hilbert, [Fraction(a + 1, a + 2) for a in range(k)])


def test_dense_images_match_the_reference_table_at_its_top_degree(empty_prefix_cache):
    # the largest cells of the benchmark's table: where coefficient growth in
    # the kernel would first show as a wrong count
    table = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
    )
    dmax, rmax = table["grid"]["d_max"], table["grid"]["r_max"]
    for name in ("tetrahedral-fan", "vertex-star-3d", "fan-4d"):
        cx = _dense_image(get(name).complex)
        for r in range(rmax + 1):
            assert list(spline_dims(cx, r, dmax)) == table["dims"][name][r], (name, r)


def test_the_kernel_strips_content_once_per_stored_pivot(monkeypatch, empty_prefix_cache):
    sent = _spying_echelon(monkeypatch)
    cx = _dense_image(get("vertex-star-3d").complex)
    dims = spline_dims(cx, 1, 5)
    (rows,) = sent
    assert dims == _per_degree_reference(cx, 1, 5)
    strips, updates = [], []
    strip, eliminate = exact._strip_content, exact._eliminate
    monkeypatch.setattr(exact, "_strip_content", lambda row: strips.append(1) or strip(row))
    monkeypatch.setattr(exact, "_eliminate", lambda *args: updates.append(1) or eliminate(*args))
    pivots = exact._echelon(rows)
    # many updates per pivot, but one content pass at most for each
    assert 0 < len(strips) <= len(pivots) < len(updates)


def _translated(cx: SimplicialComplex) -> SimplicialComplex:
    """The reference move: the lowest shared vertex to the origin, over
    Fraction; the complex itself when its faces share no vertex."""
    faces = cx.maximal_faces
    shared = set(faces[0]).intersection(*faces[1:])
    if not shared:
        return cx
    origin = cx.vertices[min(shared)]
    moved = [[x - o for x, o in zip(v, origin)] for v in cx.vertices]
    return SimplicialComplex(cx.ambient_dim, moved, faces)


def test_a_shared_vertex_at_the_origin_is_not_moved(monkeypatch, empty_prefix_cache):
    # a projected star has its centre at the origin and its first rays on
    # the axes already, so it is its own normal form: the system is built
    # on the star itself, not on a copy equal to it
    built = _recording_builds(monkeypatch)
    star = project_orange(get("tetrahedral-fan").complex).complex
    spline_dims(star, 1, 3)
    (system,) = built
    assert system.complex is star
    # the normal form of an image is its own normal form, and an equal
    # complex is not copied either
    image = _dense_image(get("tetrahedral-fan").complex)
    normal = cofactor._normal_form(image)
    assert normal is not image and cofactor._normal_form(normal) is normal
    equal = SimplicialComplex(3, normal.vertices, normal.maximal_faces)
    assert cofactor._normal_form(equal) is equal
    spline_dims(equal, 1, 4)
    assert len(built) == 2 and built[1].complex is equal


def _reference_normal_form(cx: SimplicialComplex) -> SimplicialComplex:
    """The normal form built by the constructor from the ``Fraction``
    vertices B^{-1} (x - x_o) of ``reference_algebra``, with the shared
    vertices' directions last."""
    vertices = normal_form_vertices(cx.vertices, cx.maximal_faces)
    return SimplicialComplex(cx.ambient_dim, vertices, cx.maximal_faces)


def test_the_graded_system_is_the_reference_system_of_the_normal_form(monkeypatch):
    built = _recording_builds(monkeypatch)
    dens = []

    def check(cx, r, dmax):
        built.clear()
        cofactor._graded_dims(cofactor._normal_form(cx), r, dmax)
        (system,) = built
        normal = _reference_normal_form(cx)
        assert system.complex == normal
        # the normal form is stored as the constructor stores it
        assert (system.complex.den, system.complex.nums) == (normal.den, normal.nums)
        assert system.matrix == _reference_build_system(normal, r, dmax)
        dens.append(cx.den)

    for entry in CATALOG:
        check(entry.complex, 1, 3)
    # no shared vertex, and coordinates over 3
    check(_morgan_scott((6, Fraction(4, 3))), 1, 4)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(inhomogeneous_images(), st.integers(0, 2), st.integers(0, 4))
    def check_images(cx, r, dmax):
        check(cx, r, min(dmax, 3) if cx.ambient_dim == 4 else dmax)

    check_images()
    assert any(den > 1 for den in dens)


def _identity(k: int) -> list[list[int]]:
    return [[int(i == j) for j in range(k)] for i in range(k)]


def test_cache_keys_hold_only_ints():
    spline_dims(_morgan_scott((6, Fraction(4, 3)), shift=(Fraction(2, 5), 1)), 1, 2)
    spline_dims(affine_image(get("fan-4d").complex, _identity(4), [Fraction(1, 3)] * 4), 1, 2)

    def ints(x) -> bool:
        return all(map(ints, x)) if isinstance(x, tuple) else type(x) is int

    assert cofactor._prefixes
    assert all(ints(key) for key in cofactor._prefixes)


def test_equal_complexes_share_one_entry(monkeypatch):
    # an empty cache: a full one would evict an entry for the new one
    monkeypatch.setattr(cofactor, "_prefixes", cofactor._PrefixCache(maxsize=256))

    def fresh() -> SimplicialComplex:
        return affine_image(
            get("planar-star").complex, [[3, 1], [1, 2]], [Fraction(2, 13), Fraction(-5, 17)]
        )

    a, b = fresh(), fresh()
    assert a == b and a is not b
    size, before = len(cofactor._prefixes), spline_dim.cache_info()
    dims = spline_dims(a, 1, 4)
    assert spline_dims(b, 1, 4) == dims
    after = spline_dim.cache_info()
    assert len(cofactor._prefixes) == size + 1
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)


def _distinct_two_triangle(n: int) -> SimplicialComplex:
    """The n-th of a run of affinely distinct copies of ``two-triangle``:
    its fourth vertex moved along the line x = 1, to (1, n + 1000).  The
    normal forms differ in that vertex, (n + 1000, -1), so each has an
    entry of its own (scaled copies of one complex would share one), and
    their coordinates are ints of one size."""
    base = get("two-triangle").complex
    vertices = [*base.vertices[:3], (1, n + 1000)]
    return SimplicialComplex(2, vertices, base.maximal_faces)


def test_the_prefix_cache_is_bounded(empty_prefix_cache):
    cache = empty_prefix_cache
    assert spline_dim.cache_info().maxsize == cache.maxsize == 256
    size = cache.maxsize
    for n in range(size):
        spline_dims(_distinct_two_triangle(n), 1, 3)
    assert (len(cache), cache.evictions) == (size, 0)
    # entries made while tracing replace the untraced ones, then each
    # other; the interpreter's free lists and the table's resizes settle
    # in the first two rounds
    traced = []
    tracemalloc.start()
    try:
        for start in range(size, 5 * size, size):
            for n in range(start, start + size):
                spline_dims(_distinct_two_triangle(n), 1, 3)
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert (len(cache), cache.evictions) == (size, 4 * size)
    # an unbounded cache kept 512 more entries, about 390 KB here
    assert traced[3] - traced[1] < 8 * 1024, traced


def test_an_evicted_prefix_recomputes_to_the_same_value(empty_prefix_cache, monkeypatch):
    cache = empty_prefix_cache
    first = _distinct_two_triangle(0)
    dims = spline_dims(first, 1, 4)
    # a longer prefix answers a shorter query, and the query keeps it
    for n in range(1, cache.maxsize):
        spline_dims(_distinct_two_triangle(n), 1, 2)
        assert spline_dims(first, 1, 3) == dims[:4]
    assert cache.evictions == 0
    # one more entry evicts the one used last longest ago, not ``first``
    spline_dims(_distinct_two_triangle(cache.maxsize), 1, 2)
    assert cache.evictions == 1
    built = _recording_builds(monkeypatch)
    assert spline_dims(first, 1, 4) == dims
    assert built == []
    assert spline_dims(_distinct_two_triangle(1), 1, 2) == dims[:3]
    assert [(system.complex.maximal_faces, system.d) for system in built] == [
        (first.maximal_faces, 2)
    ]


def test_the_prefix_cache_counts_every_query(empty_prefix_cache):
    cache = empty_prefix_cache
    queries = 0
    for n in range(2 * cache.maxsize):
        for d in (2, 1, 3, n % 4):
            spline_dims(_distinct_two_triangle(n % (cache.maxsize + 10)), 1, d)
            queries += 1
    info = spline_dim.cache_info()
    assert info.hits + info.misses == queries
    assert info.hits and info.misses and cache.evictions
    assert info.currsize == len(cache) == cache.maxsize


def test_build_system_walls_are_facet_linear_form():
    scaled = []

    def check(cx):
        k = cx.ambient_dim
        system = build_system(cx, 0, 1)
        for (s, t), terms, scale in zip(system.pairs, system.wall_powers, system.cofactor_scales):
            # at r = 0 the wall power is the wall L itself
            wall = [0] * (k + 1)
            for e, c in terms:
                wall[e.index(1) if any(e) else k] = c
            faces = cx.maximal_faces
            shared = sorted(set(faces[s]) & set(faces[t]))
            form = facet_linear_form([cx.vertices[v] for v in shared])
            assert tuple(wall) == form
            assert scale == next(a for a in form if a)
            scaled.append(scale > 1)

    for entry in CATALOG:
        check(entry.complex)
    check(_morgan_scott((Fraction(13, 2), Fraction(4, 3))))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(inhomogeneous_images())
    def check_images(cx):
        check(cx)

    check_images()
    assert True in scaled


def test_cofactor_monomials_are_the_face_monomials_up_to_d_minus_r_minus_1():
    point_star = SimplicialComplex(0, [()], [[0]])
    for cx in [point_star] + [get(n).complex for n in ("segment", "two-triangle", "fan-4d")]:
        k = cx.ambient_dim
        for r in range(3):
            for d in range(5):
                system = build_system(cx, r, d)
                assert system.face_monomials == tuple(monomials_upto(k, d))
                assert system.cofactor_monomials == tuple(monomials_upto(k, d - r - 1))


UNVALIDATED_SHAPES = pytest.mark.parametrize(
    "vertices, faces, message",
    [
        ([(0, 0), (1, 0), (0,), (0, -1)], [[0, 1, 2], [0, 1, 3]], "has arity 1"),
        ([(0, 0), (1, 0), (0, 1)], [[0, 1, 2], [0, 1, 5]], "references a missing vertex"),
    ],
    ids=["ragged vertex", "missing vertex"],
)


@UNVALIDATED_SHAPES
def test_spline_dims_checks_the_shape_of_an_unvalidated_complex(vertices, faces, message):
    cx = SimplicialComplex(2, vertices, faces)
    size = len(cofactor._prefixes)
    with pytest.raises(InvalidComplexError, match=message):
        spline_dims(cx, 1, 3)
    with pytest.raises(InvalidComplexError, match=message):
        spline_dim(cx, 1, 3)
    assert len(cofactor._prefixes) == size


@UNVALIDATED_SHAPES
def test_build_system_checks_the_shape_of_an_unvalidated_complex(vertices, faces, message):
    with pytest.raises(InvalidComplexError, match=message):
        build_system(SimplicialComplex(2, vertices, faces), 1, 3)


def test_a_shared_facet_that_spans_no_hyperplane_names_its_faces():
    # two segments in R^2 share the vertex 0, a point and no line
    cx = SimplicialComplex(2, [(0, 0), (1, 0), (0, 1)], [[0, 1], [0, 2]])
    message = r"^faces \(0, 1\) and \(0, 2\) share a facet that spans no hyperplane$"
    with pytest.raises(InvalidComplexError, match=message):
        build_system(cx, 1, 3)
    with pytest.raises(InvalidComplexError, match=message):
        spline_dims(cx, 1, 3)
    with pytest.raises(InvalidComplexError, match="codimension 2"):
        facet_linear_form(cx.face_points((0,)))


def test_a_flat_face_raises_on_the_miss_path_and_stores_nothing(empty_prefix_cache):
    # two vertices coincide and both faces lie on one line: the points are
    # checked before the faces
    cx = affine_image(get("two-triangle").complex, [[1, 1], [1, 1]], [0, 0])
    with pytest.raises(InvalidComplexError, match="^duplicate vertex coordinates$"):
        spline_dims(cx, 1, 3)
    with pytest.raises(InvalidComplexError, match="^duplicate vertex coordinates$"):
        spline_dim(cx, 0, 1)
    # distinct points, and (0, 1, 2) lies on one line
    flat = SimplicialComplex(2, [(0, 0), (1, 1), (2, 2), (1, 0)], [[0, 1, 2], [0, 1, 3]])
    with pytest.raises(InvalidComplexError, match=r"^face \(0, 1, 2\) is geometrically degenerate$"):
        spline_dims(flat, 1, 3)
    assert len(empty_prefix_cache) == 0


def test_an_unvalidated_complex_is_checked_once_across_the_oracles(monkeypatch, empty_prefix_cache):
    shapes, loops = [], []
    check_shape, check_faces = SimplicialComplex._check_shape, SimplicialComplex._check_faces

    def counted(cx):
        if "checked" not in cx._memo:
            loops.append(cx)
        check_faces(cx)

    monkeypatch.setattr(SimplicialComplex, "_check_shape", lambda cx: shapes.append(cx) or check_shape(cx))
    monkeypatch.setattr(SimplicialComplex, "_check_faces", counted)
    matrix = [[2, 1, 0], [0, 1, 1], [1, 0, 3]]
    image = affine_image(get("two-tetrahedron").complex, matrix, [Fraction(1, 3), -2, 5])
    # affine_image checks the shape of the complex it maps
    shapes.clear()
    build_system(image, 1, 2)
    spline_dims(image, 1, 3)
    assert bernstein_dim(image, 1, 2) == spline_dim(image, 1, 2)
    assert complex_domain_points(image, 2)
    # one check, and the normal form that spline_dims eliminates inherits it
    assert (shapes, loops) == ([image], [image])


def test_an_i3_orange_and_its_star_read_one_entry(empty_prefix_cache):
    # an orange with i = k = 3 is an affine image of its star, with the
    # same vertex labels and faces, so both have one normal form
    cx = _dense_image(get("vertex-star-3d").complex)
    dim = orange_dim_formula(cx, 1, 4)
    assert spline_dim(cx, 1, 4) == dim
    info = spline_dim.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert len(empty_prefix_cache) == 1


def test_affine_images_share_one_entry_and_a_perturbation_does_not(empty_prefix_cache):
    matrix = [[3, 1], [1, 2]]
    base = get("planar-star").complex
    a = affine_image(base, matrix, [Fraction(2, 13), Fraction(-5, 17)])
    b = affine_image(base, matrix, [1, Fraction(1, 3)])
    dilated = affine_image(base, [[6, 2], [2, 4]], [1, Fraction(1, 3)])
    assert len({a, b, dilated}) == 3
    dims = spline_dims(a, 1, 4)
    assert spline_dims(b, 1, 4) == spline_dims(dilated, 1, 4) == dims
    assert (len(empty_prefix_cache), empty_prefix_cache.hits) == (1, 2)
    # moving one vertex along its ray keeps every slope, so the dimensions,
    # but no affine map moves it alone: another normal form, another entry
    vertices = list(dilated.vertices)
    vertices[4] = tuple(2 * x - o for x, o in zip(vertices[4], vertices[0]))
    perturbed = SimplicialComplex(2, vertices, dilated.maximal_faces)
    perturbed.validate()
    assert spline_dims(perturbed, 1, 4) == dims
    assert (len(empty_prefix_cache), empty_prefix_cache.misses) == (2, 2)


def test_bernstein_dim_is_the_independent_count_on_dense_i3_images(empty_prefix_cache):
    # the formula's star term and the oracle read one entry on these, so
    # the Bernstein nullity is the count they are checked against
    table = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
    )["dims"]["vertex-star-3d"]
    base = get("vertex-star-3d").complex
    images = [
        _dense_image(base),
        affine_image(
            base, [[2, 1, 1], [1, 3, 1], [1, 1, 4]], [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)]
        ),
        affine_image(
            base,
            [[Fraction(1, 2), -2, 3], [2, Fraction(1, 3), -1], [3, 1, Fraction(2, 5)]],
            [Fraction(-7, 4), 5, Fraction(1, 9)],
        ),
    ]
    for n, cx in enumerate(images):
        for r in range(3):
            for d in range(6):
                want = table[r][d]
                assert bernstein_dim(cx, r, d) == spline_dim(cx, r, d) == want, (n, r, d)
                assert orange_dim_formula(cx, r, d) == want, (n, r, d)


def _largest_entries(monkeypatch) -> list[int]:
    """The bit length of the largest entry of each row that
    ``exact._eliminate`` returns, recorded as it runs."""
    bits = []
    eliminate = exact._eliminate

    def measured(*args):
        out = eliminate(*args)
        bits.append(max(abs(v).bit_length() for v in out.values()) if out else 0)
        return out

    monkeypatch.setattr(exact, "_eliminate", measured)
    return bits


def test_a_dense_image_eliminates_with_small_entries(monkeypatch, empty_prefix_cache):
    # the dense image is eliminated through its normal form, where every
    # wall lies on the first i coordinates, so its entries stay near those
    # of the catalog's axis-aligned walls
    bits = _largest_entries(monkeypatch)
    catalog = get("vertex-star-3d").complex
    dims = spline_dims(_dense_image(catalog), 3, 12)
    assert bits and max(bits) <= 128
    assert dims == cofactor._graded_dims(catalog, 3, 12)


# a perturbed octahedral star: more walls than coordinates and generic
# rays, so its walls stay dense in every basis
OCTAHEDRAL_RAYS = [
    (1, Fraction(1, 3), 0), (-1, 0, Fraction(1, 4)), (Fraction(1, 5), 1, 0),
    (0, -1, Fraction(-1, 3)), (0, Fraction(1, 4), 1), (Fraction(-1, 3), 0, -1),
]


def test_a_dense_walled_image_eliminates_with_bounded_entries(monkeypatch, empty_prefix_cache):
    # the walls stay dense in every basis, so the entries grow with the
    # degree; the bound allows twice the 525 bits the normal form makes
    faces = [[0, 1 + sx, 3 + sy, 5 + sz] for sx in (0, 1) for sy in (0, 1) for sz in (0, 1)]
    star = SimplicialComplex(3, [(0, 0, 0), *OCTAHEDRAL_RAYS], faces)
    star.validate()
    bits = _largest_entries(monkeypatch)
    dims = spline_dims(_dense_image(star), 2, 8)
    assert bits and max(bits) <= 1024
    assert dims[8] == 283
    assert dims == _per_degree_reference(star, 2, 8)


def _invertible(rng: random.Random, k: int) -> list[list[int]]:
    """A random invertible integer k x k matrix with entries in -3..3."""
    while True:
        matrix = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        if rank(matrix) == k:
            return matrix


def _check_linear_image(source: SimplicialComplex, image: SimplicialComplex, r: int) -> bool:
    """Check the image of ``source`` under a linear map against it and
    against the reference; whether some wall is off the origin."""
    k = image.ambient_dim
    dmax = {1: 6, 2: 5, 3: 4, 4: 3}[k]
    # the image and its source share a normal form, so the image is
    # eliminated here moved to its shared vertex, in its own coordinates
    moved = _translated(image)
    dims = cofactor._graded_dims(moved, r, dmax)
    assert dims == spline_dims(source, r, dmax)
    # the input-coordinate system's nullity, by the Fraction reference
    d = min(dmax, 3 if k < 4 else 2)
    system = build_system(image, r, d)
    assert system.ncols - rank(map(dict, system.matrix.rows)) == dims[d]
    return any(form[k] for form in build_system(moved, r, d).walls)


def test_linear_images_keep_every_dimension():
    off_origin = set()
    rng = random.Random(31)
    splits = [_morgan_scott((6, Fraction(4, 3))), _morgan_scott((Fraction(13, 2), Fraction(4, 3)))]
    for source in [entry.complex for entry in CATALOG] + splits:
        for _ in range(2):
            image = affine_image(source, _invertible(rng, source.ambient_dim), [0] * source.ambient_dim)
            for r in range(3):
                off_origin.add(_check_linear_image(source, image, r))
    # walls through the origin and, on the Morgan-Scott splits, walls off it
    assert off_origin == {True, False}

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.one_of(boundary_stars_3d(), closed_stars_3d()), st.integers(0, 2**31), st.integers(0, 2))
    def check_stars(star, seed, r):
        matrix = _invertible(random.Random(seed), 3)
        _check_linear_image(star, affine_image(star, matrix, [0, 0, 0]), r)

    check_stars()


@st.composite
def rational_affine_images(draw, source: SimplicialComplex) -> SimplicialComplex:
    """An invertible rational affine image of ``source``."""
    k = source.ambient_dim
    entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    matrix = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k))
    assume(rank(matrix) == k)
    return affine_image(source, matrix, draw(st.lists(entries, min_size=k, max_size=k)))


@st.composite
def normal_form_cases(draw) -> tuple[SimplicialComplex, SimplicialComplex]:
    """(source, image): a catalog orange, a star in R^3 or a generated
    orange, and an invertible rational affine image of it."""
    source = draw(st.one_of(
        st.sampled_from([entry.complex for entry in CATALOG]),
        boundary_stars_3d(),
        closed_stars_3d(),
        generated_oranges().map(lambda generated: generated[0]),
    ))
    return source, draw(rational_affine_images(source))


def _fields(cx: SimplicialComplex) -> tuple:
    return cx.den, cx.nums, cx.maximal_faces


def test_every_affine_image_has_its_sources_normal_form(monkeypatch):
    sources, fractional = set(), []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(normal_form_cases(), st.integers(0, 2))
    def check(case, r):
        source, image = case
        cache = cofactor._PrefixCache(maxsize=cofactor._prefixes.maxsize)
        monkeypatch.setattr(cofactor, "_prefixes", cache)
        normal = cofactor._normal_form(image)
        assert _fields(normal) == _fields(cofactor._normal_form(source))
        assert _fields(normal) == _fields(_reference_normal_form(source))
        # from a cold cache, the image's prefix is that of the image moved
        # to its shared vertex, and its source reads the same entry
        dmax = {1: 5, 2: 4, 3: 3, 4: 2}[image.ambient_dim]
        dims = spline_dims(image, r, dmax)
        assert dims == cofactor._graded_dims(_translated(image), r, dmax)
        assert spline_dims(source, r, dmax) == dims
        assert (len(cache), cache.misses, cache.hits) == (1, 1, 1)
        sources.add((source.ambient_dim, len(source.maximal_faces)))
        fractional.append(normal.den > 1)

    check()
    # sources in R^1 to R^4, and normal forms with and without denominators
    assert {1, 2, 3, 4} <= {k for k, _ in sources}, sources
    assert {True, False} <= set(fractional)


def _relabelled(cx: SimplicialComplex, labels: list[int]) -> SimplicialComplex:
    """``cx`` with vertex v renamed ``labels[v]``."""
    vertices = [None] * len(labels)
    for v, label in enumerate(labels):
        vertices[label] = cx.vertices[v]
    return SimplicialComplex(
        cx.ambient_dim, vertices, [[labels[v] for v in f] for f in cx.maximal_faces]
    )


@st.composite
def relabelled_images(draw) -> SimplicialComplex:
    """A rational affine image of a catalog orange with its vertex labels
    shuffled, or of a generated orange (medial vertices last)."""
    source = draw(st.one_of(
        st.sampled_from([entry.complex for entry in CATALOG]).flatmap(
            lambda cx: st.permutations(range(len(cx.vertices))).map(
                lambda labels: _relabelled(cx, labels)
            )
        ),
        generated_oranges().map(lambda generated: generated[0]),
    ))
    return draw(rational_affine_images(source))


def test_the_normal_form_puts_the_medial_face_in_standard_position():
    positions = set()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(relabelled_images())
    def check(image):
        profile = detect_orange(image)
        k, i = profile.k, profile.i
        normal = cofactor._normal_form(image)
        # no wall involves the medial face's directions, the last k - i
        for form in build_system(normal, 0, 0).walls:
            assert not any(form[i:k]), form
        origin, *rest = profile.medial
        assert normal.nums[origin] == (0,) * k
        for t, m in enumerate(rest):
            assert normal.nums[m] == tuple(normal.den * (c == i + t) for c in range(k))
        positions.add(origin == 0)

    check()
    # medial vertices first in the labels and elsewhere
    assert positions == {True, False}


def _handed_down_is_fresh(cx: SimplicialComplex) -> bool:
    """``standard_form`` on a fresh copy of ``cx``: the profile and facet
    pairs it seeds its star with, and the normal form its standard model
    reads off that star's, equal those computed afresh.  Whether the model
    is its own normal form."""
    sf = standard_form(_fresh(cx))
    star, std = sf.projected.complex, sf.standard
    assert star._memo["profile"] == detect_orange(_fresh(star))
    assert star._memo["adjacent pairs"] == _facet_pairs(star.maximal_faces)
    fresh = _fresh(std)
    assert "standard of" in std._memo and "standard of" not in fresh._memo
    normal = cofactor._normal_form(std)
    assert _fields(normal) == _fields(cofactor._normal_form(fresh))
    assert cofactor._normal_key(std) == cofactor._normal_key(fresh)
    return normal is std


def test_a_star_and_its_standard_model_inherit_what_a_fresh_copy_computes(random_affine_map):
    own = []
    rng = random.Random(34)
    for entry in CATALOG:
        own.append(_handed_down_is_fresh(entry.complex))
        for _ in range(3):
            image = affine_image(entry.complex, *random_affine_map(entry.complex.ambient_dim, rng))
            own.append(_handed_down_is_fresh(image))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(normal_form_cases())
    def check(case):
        for cx in case:
            own.append(_handed_down_is_fresh(cx))

    check()
    # models that are their own normal form and models that are not
    assert True in own and False in own


def _faces_keep_their_order(cx: SimplicialComplex) -> None:
    """Star face s is the image of orange face s."""
    star = project_orange(cx).complex
    assert len(star.maximal_faces) == len(cx.maximal_faces)
    for face, image in zip(cx.maximal_faces, star.maximal_faces):
        assert project_face(cx, face) == tuple(sorted(star.vertices[v] for v in image))


def test_the_projection_keeps_the_order_of_the_faces():
    for entry in CATALOG:
        _faces_keep_their_order(entry.complex)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(normal_form_cases())
    def check(case):
        for cx in case:
            _faces_keep_their_order(cx)

    check()


def test_a_lift_runs_no_rref_for_the_standard_models_normal_form(
    monkeypatch, random_affine_map, empty_prefix_cache, empty_bernstein_cache
):
    # the complexes whose normal form an RREF is run for
    rrefs = []
    original = cofactor._integer_rref

    def counting(rows):
        owner = sys._getframe(1).f_locals.get("complex_")
        if owner is not None:
            rrefs.append(owner)
        return original(rows)

    monkeypatch.setattr(cofactor, "_integer_rref", counting)
    rng = random.Random(35)
    for name in ("fan-4d", "planar-star", "two-tetrahedron", "vertex-star-3d"):
        base = get(name).complex
        cx = affine_image(base, *random_affine_map(base.ambient_dim, rng))
        rrefs.clear()
        sf = standard_form(cx)
        std, star = sf.standard, sf.projected.complex
        lift_mds(std, 1, 3)
        verify_mds(std, 1, 3)
        layer_decomposition(std, 3)
        # the star's RREF at most, which its own prefix reads too
        assert all(owner is star for owner in rrefs), name
        assert "normal form" in std._memo
    # the counter sees the RREF that a model with no star to read runs
    rrefs.clear()
    fresh = _fresh(std)
    cofactor._normal_form(fresh)
    assert rrefs == [fresh]


def test_the_normal_form_falls_back_to_the_move_or_the_complex(empty_prefix_cache):
    # no shared vertex: the Morgan-Scott split is eliminated as given, so
    # a translate of it has an entry of its own
    split = _morgan_scott((6, Fraction(4, 3)))
    assert cofactor._normal_form(split) is split
    shifted = _morgan_scott((6, Fraction(4, 3)), shift=(Fraction(1, 7), 3))
    assert spline_dims(split, 1, 4) == spline_dims(shifted, 1, 4) == (1, 3, 7, 16, 33)
    assert (len(empty_prefix_cache), empty_prefix_cache.misses) == (2, 2)
    # a segment in R^2 spans one direction: its vertices are only moved
    segment = SimplicialComplex(2, [(1, 1), (Fraction(5, 2), 3)], [[0, 1]])
    moved = cofactor._normal_form(segment)
    assert _fields(moved) == _fields(_translated(segment)) == _fields(_reference_normal_form(segment))
    assert spline_dims(segment, 1, 3) == _per_degree_reference(segment, 1, 3)
