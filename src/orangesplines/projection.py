"""Adapted coordinates and the projection of an orange onto R^i.

An adapted frame moves a designated medial vertex to the origin and the
medial face into the span of the last k - i coordinates.  Forgetting those
coordinates then maps the orange onto a star-shaped complex around the
origin in R^i (one central vertex, every maximal face containing it), which
is where the dimension reduction happens.

The star is computed on integers: each vertex image is an integer vector
over one common denominator, read off the complex's integer coordinate
view, and the star's tests run on those.  ``Fraction`` coordinates are
built once per distinct image, and the star keeps those integers as its
own integer view.  The standard model built by
``standard_form`` inherits its projection instead of computing it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .complexes import (
    InvalidComplexError,
    OrangeProfile,
    Point,
    SimplicialComplex,
    _affinely_independent,
    _check_pairs,
    _from_integer_view,
    _integer_view,
    _overlap,
    detect_orange,
)
from .exact import EchelonBasis, invert_matrix

__all__ = [
    "AdaptedFrame",
    "adapt_coordinates",
    "ProjectedOrange",
    "project_orange",
    "project_face",
    "standard_orange",
    "StandardForm",
    "standard_form",
]


@dataclass(frozen=True)
class AdaptedFrame:
    """Invertible affine map x -> M (x - v0) in R^k.

    ``matrix`` is M stored as dense rows; ``base_point`` is v0, the medial
    vertex sent to the origin.  The projection onto R^i keeps the first i
    coordinates of the image.  ``apply_point`` maps one point on
    ``Fraction`` coordinates; it is the reference for the projection,
    which applies the first i rows of M to integer coordinates.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    base_point: Point

    def apply_point(self, point: Sequence[Fraction]) -> Point:
        shifted = [p - b for p, b in zip(point, self.base_point, strict=True)]
        return tuple(
            sum((m * s for m, s in zip(row, shifted) if m), Fraction(0))
            for row in self.matrix
        )


def adapt_coordinates(complex_: SimplicialComplex) -> AdaptedFrame:
    """Build an adapted frame for an orange.

    The lowest-index medial vertex becomes the origin.  The remaining medial
    vertices span the last k - i coordinate directions; the first i
    directions come from a greedy completion by standard basis vectors
    (lowest index first), so the construction is deterministic.
    """
    profile = detect_orange(complex_)
    k = complex_.ambient_dim
    v0 = complex_.vertices[profile.medial[0]]
    medial_edges = [
        tuple(complex_.vertices[m][c] - v0[c] for c in range(k))
        for m in profile.medial[1:]
    ]
    # columns of B: completion vectors first (they become coordinates
    # 1..i after inversion), then the medial edge vectors
    span = EchelonBasis()
    if not all(span.add(e) for e in medial_edges):
        raise InvalidComplexError("medial face is geometrically degenerate")
    completion: list[tuple[Fraction, ...]] = []
    for j in range(k):
        if span.rank == k:
            break
        cand = tuple(Fraction(1 if c == j else 0) for c in range(k))
        if span.add(cand):
            completion.append(cand)
    cols = completion + medial_edges
    b = [[cols[j][r] for j in range(k)] for r in range(k)]
    m = invert_matrix(b)
    return AdaptedFrame(
        matrix=tuple(tuple(row) for row in m),
        base_point=v0,
    )


@dataclass(frozen=True)
class ProjectedOrange:
    """Result of projecting an orange: the star C in R^i plus bookkeeping.

    ``face_map`` sends each maximal-face index of the original orange to the
    corresponding maximal-face index of ``complex`` (a bijection).
    ``central_vertex`` is the index of the origin vertex in ``complex``.
    ``frame`` is the adapted frame of the projection (None when i = 0).
    """

    complex: SimplicialComplex
    central_vertex: int
    face_map: tuple[int, ...]
    frame: AdaptedFrame | None


def project_orange(complex_: SimplicialComplex) -> ProjectedOrange:
    """Project an orange onto R^i through an adapted frame.

    Vertices that land on the same point are identified (the medial face
    collapses to the origin).  The images are computed on integers, as
    R (N_v - N_0) over L * den: N is the complex's integer coordinate view
    over den, and R the first i rows of the frame's matrix over their
    common denominator L.  The call checks the whole orange, through the
    lemma of the ``complexes`` module docstring: every face must project
    onto an i-simplex, no two segments or vertices off the medial face may
    share an image, and the star must pass the pair test.  A failure
    raises InvalidComplexError naming the orange's own faces.  The
    projection is computed once per complex instance, the standard model
    of ``standard_form`` inherits it, and the pair test runs once per
    distinct star value.
    """
    if "projected" not in complex_._memo:
        complex_._memo["projected"] = _project(complex_)
    return complex_._memo["projected"]


# stars that passed the pair test, keyed by value (ambient dimension,
# vertices, maximal faces): a repeated image is not tested again
_proper_stars: set[tuple] = set()


def _project(complex_: SimplicialComplex) -> ProjectedOrange:
    profile = detect_orange(complex_)
    # the complex may never have been validated: reading its face points
    # needs the right arity and index bounds
    complex_._check_shape()
    den, nums = _integer_view(complex_)
    i = profile.i
    if i == 0:
        # the whole orange is a single simplex, its medial face; the
        # projection is the one-point complex in R^0
        if not _affinely_independent([nums[v] for v in profile.medial]):
            raise InvalidComplexError("medial face is geometrically degenerate")
        star = SimplicialComplex(0, [()], [[0]])
        return ProjectedOrange(complex=star, central_vertex=0, face_map=(0,), frame=None)
    frame = adapt_coordinates(complex_)
    # the first i rows of M over their common denominator L: the image of
    # vertex v is R (N_v - N_0) over L * den, N the integer view and R = L M
    lcd = math.lcm(*(m.denominator for row in frame.matrix[:i] for m in row))
    kept = [[m.numerator * (lcd // m.denominator) for m in row] for row in frame.matrix[:i]]
    base = nums[profile.medial[0]]
    image_of: dict[int, tuple[int, ...]] = {}
    for vid in sorted({v for f in complex_.maximal_faces for v in f}):
        shifted = [a - b for a, b in zip(nums[vid], base)]
        image_of[vid] = tuple(sum(m * s for m, s in zip(row, shifted) if m) for row in kept)

    # the frame sends a medial vertex, which lies in every maximal face, to
    # the origin: it gets id 0, and the remaining images keep scan order
    new_ids: dict[tuple[int, ...], int] = {(0,) * i: 0}
    for p in image_of.values():
        new_ids.setdefault(p, len(new_ids))
    images = list(new_ids)

    # an i-simplex in R^i for each face stands for the affine independence
    # of the face, given that of the medial face; the star's other checks
    # (arity, distinct vertices, index bounds, no nesting) hold by
    # construction once the segments are distinct
    new_faces = []
    for f in complex_.maximal_faces:
        nf = tuple(sorted({new_ids[image_of[v]] for v in f}))
        if len(nf) != i + 1 or not _affinely_independent([images[v] for v in nf]):
            raise InvalidComplexError(f"face {f} degenerates under projection")
        new_faces.append(nf)
    if len(set(new_faces)) != len(new_faces):
        raise InvalidComplexError("projection identifies two segments")
    # two vertices off the medial face with one image: the faces through
    # them share the points near the medial face in that direction
    first_with: dict[tuple[int, ...], int] = {}
    for vid, p in image_of.items():
        if vid not in profile.medial and first_with.setdefault(p, vid) != vid:
            owner = first_with[p]
            raise _overlap(
                next(f for f in complex_.maximal_faces if owner in f),
                next(f for f in complex_.maximal_faces if vid in f),
            )

    star = _from_integer_view(i, lcd * den, images, new_faces)
    face_map = tuple(star.maximal_faces.index(nf) for nf in new_faces)
    key = (i, star.vertices, star.maximal_faces)
    if key not in _proper_stars:
        # the star is an (i, i)-orange whose projection is itself, so its
        # pair test runs here and not through ``star.validate()``
        names = [f for _, f in sorted(zip(face_map, complex_.maximal_faces))]
        _check_pairs(star, names)
        _proper_stars.add(key)
    return ProjectedOrange(complex=star, central_vertex=0, face_map=face_map, frame=frame)


def project_face(complex_: SimplicialComplex, face: Sequence[int]) -> tuple[Point, ...]:
    """Distinct image points of one face under the orange's projection.

    Works for any face (not just maximal ones); the image simplex's
    dimension is one less than the number of returned points.
    """
    projected = project_orange(complex_)
    if projected.frame is None:
        return ((),)
    i = projected.complex.ambient_dim
    images = {projected.frame.apply_point(complex_.vertices[v])[:i] for v in face}
    return tuple(sorted(images))


def standard_orange(
    star: SimplicialComplex, fiber_dim: int
) -> SimplicialComplex:
    """Join the star C in R^i with a standard simplex spanning the last
    ``fiber_dim`` coordinates: the canonical orange with projection C.

    Vertices of C are embedded as (x, 0); the joined medial vertices are the
    origin's partners e_{i+1}, ..., e_k.  The origin of C itself serves as
    the remaining medial vertex.
    """
    i = star.ambient_dim
    k = i + fiber_dim
    zeros = (Fraction(0),) * fiber_dim
    vertices = [tuple(v) + zeros for v in star.vertices]
    tail_ids = []
    for t in range(fiber_dim):
        e = [Fraction(0)] * k
        e[i + t] = Fraction(1)
        tail_ids.append(len(vertices))
        vertices.append(tuple(e))
    faces = [tuple(f) + tuple(tail_ids) for f in star.maximal_faces]
    return SimplicialComplex(k, vertices, faces)


@dataclass(frozen=True)
class StandardForm:
    """An orange together with its projection and its standard model."""

    profile: OrangeProfile
    projected: ProjectedOrange
    standard: SimplicialComplex


def standard_form(complex_: SimplicialComplex) -> StandardForm:
    """Detect, project, and rebuild the standard orange in one pass.

    The standard model inherits its projection: the star it is built from,
    with the identity face map and, for i > 0, the identity frame at the
    origin, which is what ``adapt_coordinates`` builds for it.  By the
    lemma of the ``complexes`` module docstring its checks are the star's,
    which the star passed when the orange was projected.
    """
    profile = detect_orange(complex_)
    projected = project_orange(complex_)
    star = projected.complex
    k = profile.k
    std = standard_orange(star, k - profile.i)
    frame = None
    if profile.i:
        frame = AdaptedFrame(
            matrix=tuple(
                tuple(Fraction(1 if r == c else 0) for c in range(k)) for r in range(k)
            ),
            base_point=(Fraction(0),) * k,
        )
    std._memo["projected"] = ProjectedOrange(
        complex=star,
        central_vertex=0,
        face_map=tuple(range(len(star.maximal_faces))),
        frame=frame,
    )
    return StandardForm(profile=profile, projected=projected, standard=std)
