"""Generated stars of the origin in R^3, shared by the property tests.

The octahedral star and its rational perturbations are closed stars (the
link is a sphere), as are the bipyramids over a ring around the z-axis;
a ring that goes twice around makes the link cover the sphere twice.
Cones over perturbed hexagons are boundary stars (the link is a disk).
Every generator but the twice-wound bipyramid returns a star that
``validate`` accepts.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from orangesplines.complexes import SimplicialComplex

small_rationals = st.builds(Fraction, st.integers(-1, 1), st.integers(2, 4))
HEXAGON = ((2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2))


def octahedral_star() -> SimplicialComplex:
    """The star of the origin over the octahedron: one tetrahedron per
    octant, a closed star in R^3 that is not an Alfeld split."""
    vertices = [(0, 0, 0)]
    for axis in range(3):
        for sign in (1, -1):
            e = [0, 0, 0]
            e[axis] = sign
            vertices.append(tuple(e))
    faces = [[0, 1 + sx, 3 + sy, 5 + sz] for sx in (0, 1) for sy in (0, 1) for sz in (0, 1)]
    return SimplicialComplex(3, vertices, faces)


def _accepted(star: SimplicialComplex) -> SimplicialComplex:
    try:
        star.validate()
    except ValueError:
        assume(False)
    return star


@st.composite
def boundary_stars_3d(draw) -> SimplicialComplex:
    """The cone from the origin over a perturbed rational hexagon in z = 1,
    triangulated as a central triangle and three ears, so that no hexagon
    vertex lies in every face: a boundary star in R^3."""
    hexagon = [(x + draw(small_rationals), y + draw(small_rationals), 1) for x, y in HEXAGON]
    faces = [[0, 1, 3, 5], [0, 1, 2, 3], [0, 3, 4, 5], [0, 5, 6, 1]]
    return _accepted(SimplicialComplex(3, [(0, 0, 0), *hexagon], faces))


@st.composite
def closed_stars_3d(draw) -> SimplicialComplex:
    """A rational perturbation of ``octahedral_star`` that ``validate``
    accepts: a closed star in R^3."""
    octahedral = octahedral_star()
    vertices = [(0, 0, 0)] + [
        tuple(c + draw(small_rationals) for c in v) for v in octahedral.vertices[1:]
    ]
    return _accepted(SimplicialComplex(3, vertices, octahedral.maximal_faces))


@st.composite
def bipyramid_stars_3d(draw, turns: int = 1) -> SimplicialComplex:
    """The star of the origin over a double pyramid: poles on the z-axis
    and a ring of m integer points, each a turn of 2 pi * turns / m
    counter-clockwise about the axis from the one before, at drawn
    heights.  One turn gives a closed star that ``validate`` accepts;
    two, with m odd, a closed star whose cones cover space twice."""
    m = draw(st.sampled_from([m for m in range(2 * turns + 1, 8) if math.gcd(m, turns) == 1]))
    ring = [
        (round(6 * math.cos(2 * math.pi * turns * j / m)),
         round(6 * math.sin(2 * math.pi * turns * j / m)),
         draw(st.integers(-1, 1)))
        for j in range(m)
    ]
    poles = [(0, 0, draw(st.integers(1, 4))), (0, 0, -draw(st.integers(1, 4)))]
    faces = [[0, 1 + pole, 3 + j, 3 + (j + 1) % m] for pole in (0, 1) for j in range(m)]
    return SimplicialComplex(3, [(0, 0, 0), *poles, *ring], faces)
