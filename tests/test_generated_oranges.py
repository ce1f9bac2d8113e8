"""Property tests on generated oranges, beyond the catalog.

Random stars (1-D stars {-a, 0, b} and planar fans of rational rays around
the origin) are joined with a coordinate simplex by ``standard_orange`` and
moved by random invertible integer affine maps.  On every such orange the
three derivations of the dimension must agree, and the Hilbert series of
the orange must reduce to that of its star.  Stars in R^3, cones over
perturbed hexagons and perturbed octahedral stars (``stars_3d``), are
joined with fibers of dimension 0 and 1, moved by random invertible
affine maps and checked the same way, determining sets included.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_algebra import rank
from stars_3d import boundary_stars_3d, closed_stars_3d, octahedral_star

from orangesplines import bernstein
from orangesplines.bernstein import bernstein_dim, lift_mds, verify_mds
from orangesplines.catalog import CATALOG
from orangesplines.cofactor import spline_dim
from orangesplines.complexes import (
    SimplicialComplex, adjacent_pairs, affine_image, detect_orange
)
from orangesplines.dimension import orange_dim_formula, verify_hilbert_identity
from orangesplines.exact import binom
from orangesplines.projection import project_orange, standard_form, standard_orange

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def stars(draw) -> SimplicialComplex:
    """A star of the origin in R^1 or R^2 that ``validate`` accepts."""
    if draw(st.booleans()):
        a, b = (draw(rationals.filter(lambda x: x > 0)) for _ in range(2))
        return SimplicialComplex(1, [[0], [-a], [b]], [[0, 1], [0, 2]])
    rays = draw(
        st.lists(st.tuples(rationals, rationals).filter(any), min_size=2, max_size=5)
    )
    rays.sort(key=lambda p: math.atan2(p[1], p[0]))
    n = len(rays)
    faces = [[0, j, j + 1] for j in range(1, n)]
    if n >= 3 and draw(st.booleans()):
        faces.append([0, n, 1])
    star = SimplicialComplex(2, [(0, 0), *rays], faces)
    try:
        star.validate()
    except ValueError:
        assume(False)
    return star


@st.composite
def generated_oranges(draw) -> tuple[SimplicialComplex, int]:
    """An integer affine image of a standard orange over a random star,
    with the star's ambient dimension."""
    star = draw(stars())
    orange = standard_orange(star, draw(st.integers(0, 1)))
    k = orange.ambient_dim
    entries = st.integers(-2, 2)
    matrix = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k))
    assume(rank(matrix) == k)
    translation = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    return affine_image(orange, matrix, translation), star.ambient_dim


def test_three_dimension_counts_and_the_hilbert_identity_agree():
    profiles = set()
    closed_fans = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(generated_oranges())
    def check(generated):
        cx, star_dim = generated
        cx.validate()
        profile = detect_orange(cx)
        assert profile.i <= star_dim
        profiles.add((profile.k, profile.i))
        star = project_orange(cx).complex
        if len(adjacent_pairs(star)) == len(star.maximal_faces) > 1:
            closed_fans.append(star)
        for r in range(2):
            for d in range(4):
                formula = orange_dim_formula(cx, r, d)
                assert formula == spline_dim(cx, r, d) == bernstein_dim(cx, r, d), (r, d)
            ok, residuals = verify_hilbert_identity(cx, r, 3)
            assert ok, (r, residuals)

    check()
    # stars in R^1 and R^2, with and without a fiber, and fans whose rays
    # are so few that the medial face is more than the origin
    assert {(1, 1), (2, 1), (2, 2), (3, 2)} <= profiles, profiles
    # closed fans, whose interior centre brings in the slope term of the
    # closed form
    assert closed_fans


def test_octahedral_star_has_the_tensor_product_dimension():
    star = octahedral_star()
    star.validate()
    profile = detect_orange(star)
    assert (profile.k, profile.i, profile.n, len(star.vertices)) == (3, 3, 8, 7)
    for r in range(3):
        for d in range(6):
            # Hilbert numerator (1 + t^(r+1))^3 over (1 - t)^4
            expected = sum(
                binom(3, m) * binom(d - m * (r + 1) + 3, 3)
                for m in range(4)
                if d >= m * (r + 1)
            )
            assert spline_dim(star, r, d) == expected, (r, d)


def test_octahedral_standard_oranges_agree_on_every_count():
    star = octahedral_star()
    for fiber, dmax in ((0, 3), (1, 2)):
        orange = standard_orange(star, fiber)
        for r in range(2):
            for d in range(dmax + 1):
                dim = spline_dim(orange, r, d)
                assert dim == bernstein_dim(orange, r, d), (fiber, r, d)
                assert dim == orange_dim_formula(orange, r, d), (fiber, r, d)
                assert dim == lift_mds(orange, r, d).total, (fiber, r, d)
                assert verify_mds(orange, r, d) is True, (fiber, r, d)


def test_generated_stars_in_r3_agree_on_every_count(random_affine_map):
    profiles = []

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.one_of(boundary_stars_3d(), closed_stars_3d()), st.randoms(use_true_random=False))
    def check(star, rng):
        closed = len(adjacent_pairs(star)) > len(star.maximal_faces)
        for fiber, dmax in ((0, 3), (1, 2)):
            joined = standard_orange(star, fiber)
            image = affine_image(joined, *random_affine_map(joined.ambient_dim, rng))
            image.validate()
            for orange in (joined, image):
                profile = detect_orange(orange)
                profiles.append((profile.k, profile.i, closed))
                for r in range(2):
                    for d in range(dmax + 1):
                        dim = spline_dim(orange, r, d)
                        assert dim == bernstein_dim(orange, r, d), (fiber, r, d)
                        assert dim == orange_dim_formula(orange, r, d), (fiber, r, d)
                        assert verify_mds(orange, r, d) is True, (fiber, r, d)

    check()
    # boundary and closed stars, each joined with no fiber and with one
    assert set(profiles) == {(k, 3, closed) for k in (3, 4) for closed in (False, True)}, profiles


def test_a_standard_model_pads_its_stars_affine_dependences(monkeypatch):
    kernels = []
    integer_kernel = bernstein._integer_kernel
    monkeypatch.setattr(
        bernstein, "_integer_kernel", lambda rows, ncols: kernels.append(ncols) or integer_kernel(rows, ncols)
    )
    fibers = set()

    def check(orange):
        sf = standard_form(orange)
        std, star = sf.standard, sf.projected.complex
        bernstein._affine_dependences(star)
        kernels.clear()
        inherited = bernstein._affine_dependences(std)
        # no kernel of its own: the star's dependences, padded over the tail
        assert kernels == []
        fresh = SimplicialComplex(std.ambient_dim, std.vertices, std.maximal_faces)
        assert inherited == bernstein._affine_dependences(fresh)
        fibers.add(std.ambient_dim - star.ambient_dim)

    for entry in CATALOG:
        check(entry.complex)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(generated_oranges())
    def check_generated(generated):
        check(generated[0])

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(st.one_of(boundary_stars_3d(), closed_stars_3d()), st.integers(0, 1))
    def check_3d(star, fiber):
        check(standard_orange(star, fiber))

    check_generated()
    check_3d()
    # models with no tail and with tails of one and more coordinates
    assert {0, 1, 2} <= fibers, fibers
