"""Adapted coordinates and the projection of an orange onto R^i.

An adapted frame moves a designated medial vertex to the origin and the
medial face into the span of the last k - i coordinates.  Forgetting those
coordinates then maps the orange onto a star-shaped complex around the
origin in R^i (one central vertex, every maximal face containing it), which
is where the dimension reduction happens.

The projection is one integer computation.  The frame's first i rows are
read off one kernel of the medial edge vectors on the complex's integer
numerators (``adapt_coordinates``); each vertex image is an integer
vector over one common denominator, the star's tests run on those, and
the star is stored as those integers.  The projection is computed once
per complex instance, and the standard model built by ``standard_form``,
again from the star's integers, inherits it and the orange profile
instead of computing them again; the star is handed its own profile and
facet pairs from the orange's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .complexes import (
    InvalidComplexError,
    OrangeProfile,
    Point,
    SimplicialComplex,
    _affinely_independent,
    _check_cone3,
    _check_fan,
    _check_pairs,
    _from_integer_view,
    _overlap,
    adjacent_pairs,
    detect_orange,
)
from .exact import _check_nonnegative, _integer_kernel, invert_matrix

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

    ``rows`` is R, the first i rows of M over their least common
    denominator L, ``scale``: the projection onto R^i is x -> R (x - v0) / L.
    ``medial_nums`` holds the medial face's vertices, v0 first, as the
    complex's integer numerators over its ``den``; M sends the others to
    e_{i+1}, ..., e_k.  The ``Fraction`` points ``medial`` and the full
    ``matrix`` M, read by ``apply_point``, are derived on first use.
    """

    rows: tuple[tuple[int, ...], ...]
    scale: int
    den: int
    medial_nums: tuple[tuple[int, ...], ...]

    @cached_property
    def medial(self) -> tuple[Point, ...]:
        """The medial vertices as ``Fraction`` points: ``medial_nums`` over ``den``."""
        return tuple(tuple(Fraction(x, self.den) for x in v) for v in self.medial_nums)

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """M: the inverse of the matrix whose columns are e_f, f the first
        nonzero column of each row of R, then the medial edge vectors."""
        v0 = self.medial[0]
        columns = [[int(c == next(f for f, x in enumerate(row) if x)) for c in range(len(v0))]
                   for row in self.rows]
        columns += [[a - b for a, b in zip(m, v0)] for m in self.medial[1:]]
        return tuple(map(tuple, invert_matrix(list(zip(*columns)))))

    def apply_point(self, point: Sequence[Fraction]) -> Point:
        shifted = [p - b for p, b in zip(point, self.medial[0], strict=True)]
        return tuple(
            sum((m * s for m, s in zip(row, shifted) if m), Fraction(0))
            for row in self.matrix
        )


def adapt_coordinates(complex_: SimplicialComplex) -> AdaptedFrame:
    """Build an adapted frame for an orange.

    The lowest-index medial vertex becomes the origin.  The remaining medial
    vertices span the last k - i coordinate directions; the first i
    directions come from a greedy completion by standard basis vectors
    (lowest index first), so the construction is deterministic.  The first
    i rows of M are one ``_integer_kernel`` of the medial edges N_m - N_0
    on the numerators ``nums``, columns reversed: its free columns are then
    the completion, and each vector, primitive and positive at its own
    free column f and zero at the others, is row t of M times its entry at
    f.  The complex's shape is checked first (``_check_shape``), and a
    dependent medial face raises InvalidComplexError.
    """
    profile = detect_orange(complex_)
    complex_._check_shape()
    k = complex_.ambient_dim
    nums = complex_.nums
    base = nums[profile.medial[0]]
    edges = [
        {k - 1 - c: x - b for c, (x, b) in enumerate(zip(nums[m], base)) if x != b}
        for m in profile.medial[1:]
    ]
    # a vector's free column is its last: reversed, the kernel runs through
    # the completion from its lowest column
    kernel = _integer_kernel(edges, k)[::-1]
    if len(kernel) != profile.i:
        raise InvalidComplexError("medial face is geometrically degenerate")
    scale = math.lcm(*(vec[max(vec)] for vec in kernel))
    return AdaptedFrame(
        rows=tuple(
            tuple(vec.get(k - 1 - c, 0) * (scale // vec[max(vec)]) for c in range(k))
            for vec in kernel
        ),
        scale=scale,
        den=complex_.den,
        medial_nums=tuple(nums[m] for m in profile.medial),
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
    R (N_v - N_0) over L * den: N_v is the complex's ``nums[v]`` over
    ``den``, and R and L the frame's ``rows`` and ``scale``.  The call
    is the orange's whole validation (``SimplicialComplex.validate``), by
    the lemma of the ``complexes`` module docstring: arity, index bounds,
    distinct vertices, an independent medial face, an i-simplex image of
    each face, no two segments or vertices off the medial face sharing an
    image, and a proper star: a fan (i <= 2) by its cyclic order
    (``_check_fan``), a closed i = 3 star by local orientation tests
    (``_check_cone3``), and a boundary i = 3 star, or a star in R^4 or
    beyond, pair by pair.  A failure raises InvalidComplexError naming
    the orange's own faces.  The projection, with its one properness test,
    is computed once per complex instance, and the standard model of
    ``standard_form`` inherits it.  By that lemma these tests imply
    ``SimplicialComplex._check_faces``, so a projection that succeeds
    marks the orange and its star as passing it.
    """
    memo = complex_._memo
    if "projected" not in memo:
        projected = _project(complex_)
        memo["checked"] = projected.complex._memo["checked"] = True
        memo["projected"] = projected
    return memo["projected"]


def _project(complex_: SimplicialComplex) -> ProjectedOrange:
    profile = detect_orange(complex_)
    # this is the orange's whole validation: the frame checks the shape,
    # distinct vertices and the medial face, then come the faces' images
    # and the star
    frame = adapt_coordinates(complex_)
    den, nums = complex_.den, complex_.nums
    i = profile.i
    if i == 0:
        # the whole orange is a single simplex, its medial face; the
        # projection is the one-point complex in R^0
        star = SimplicialComplex(0, [()], [[0]])
        return ProjectedOrange(complex=star, central_vertex=0, face_map=(0,), frame=None)
    # the image of vertex v is R (N_v - N_0) over L * den
    base = nums[profile.medial[0]]
    vids = sorted({v for f in complex_.maximal_faces for v in f})
    image_of = {vid: _image(frame, nums[vid], base) for vid in vids}

    # the frame sends a medial vertex, which lies in every maximal face, to
    # the origin: it gets id 0, and the remaining images keep scan order
    new_ids: dict[tuple[int, ...], int] = {(0,) * i: 0}
    for p in image_of.values():
        new_ids.setdefault(p, len(new_ids))
    images = list(new_ids)

    # an i-simplex in R^i for each face stands for the affine independence
    # of the face, given that of the medial face; the star's other checks
    # (arity, distinct vertices, index bounds, no nesting) hold by
    # construction once the segments, equal for identical faces, are distinct
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

    star = _from_integer_view(i, frame.scale * den, images, new_faces)
    face_map = tuple(star.maximal_faces.index(nf) for nf in new_faces)
    # the star is an (i, i)-orange whose projection is itself, so its
    # properness test runs here and not through ``star.validate()``: a fan
    # (i <= 2) by its cyclic order, a closed i = 3 star by local orientation
    # tests, any other star (verdict None) pair by pair.  A star the local
    # test rejects is pair-tested too, for an error naming the failing pair.
    names = [f for _, f in sorted(zip(face_map, complex_.maximal_faces))]
    verdict = _check_fan(star) if i <= 2 else _check_cone3(star) if i == 3 else None
    if not verdict:
        _check_pairs(star, names)
        if verdict is False:
            test = "fan" if i <= 2 else "cone"
            raise RuntimeError(f"the {test} test rejects the star {star} that the pair test accepts")
    return ProjectedOrange(complex=star, central_vertex=0, face_map=face_map, frame=frame)


def project_face(complex_: SimplicialComplex, face: Sequence[int]) -> tuple[Point, ...]:
    """Distinct image points of one face under the orange's projection.

    Works for any face (not just maximal ones); the image simplex's
    dimension is one less than the number of returned points.  A face that
    names a missing vertex raises InvalidComplexError.
    """
    if any(not 0 <= v < len(complex_.nums) for v in face):
        raise InvalidComplexError(f"face {tuple(face)} references a missing vertex")
    frame = project_orange(complex_).frame
    if frame is None:
        return ((),)
    nums = complex_.nums
    base = nums[detect_orange(complex_).medial[0]]
    images = {_image(frame, nums[v], base) for v in face}
    return tuple(sorted(tuple(Fraction(x, frame.scale * complex_.den) for x in p) for p in images))


def _image(frame: AdaptedFrame, num: Sequence[int], base: Sequence[int]) -> tuple[int, ...]:
    """R (N - N_0): L * den times the projection of a vertex N / den."""
    shifted = [a - b for a, b in zip(num, base)]
    return tuple(sum(m * s for m, s in zip(row, shifted) if m) for row in frame.rows)


def standard_orange(
    star: SimplicialComplex, fiber_dim: int
) -> SimplicialComplex:
    """Join the star C in R^i with a standard simplex spanning the last
    ``fiber_dim`` coordinates: the canonical orange with projection C.

    Vertices of C are embedded as (x, 0); the joined medial vertices are the
    origin's partners e_{i+1}, ..., e_k.  The origin of C itself serves as
    the remaining medial vertex.  A negative ``fiber_dim`` raises ValueError.
    """
    _check_nonnegative(fiber_dim, "fiber dimension")
    i = star.ambient_dim
    k = i + fiber_dim
    nums = [v + (0,) * fiber_dim for v in star.nums]
    nums += [tuple(star.den if c == i + t else 0 for c in range(k)) for t in range(fiber_dim)]
    tail = tuple(range(len(star.nums), len(nums)))
    return _from_integer_view(k, star.den, nums, [f + tail for f in star.maximal_faces])


@dataclass(frozen=True)
class StandardForm:
    """An orange together with its projection and its standard model."""

    profile: OrangeProfile
    projected: ProjectedOrange
    standard: SimplicialComplex


def standard_form(complex_: SimplicialComplex) -> StandardForm:
    """Detect, project, and rebuild the standard orange in one pass.

    The projected star is seeded with what the orange fixes: its profile,
    an (i, i)-orange with the origin as its medial face and one face per
    orange face, and its ``adjacent_pairs``, the orange's mapped through
    the face map.  The projection is injective off the medial face, so two
    orange faces share a facet exactly when their images do.  The standard
    model inherits its profile, with the medial face the star's origin and
    the tail vertices, its projection: the star it is built from, with the
    identity face map and, for i > 0, the identity frame at the origin,
    which is what ``adapt_coordinates`` builds for it, and the star's
    ``adjacent_pairs``.  It also names that star under ``"standard of"``,
    from which ``bernstein`` pads its affine dependences and
    ``cofactor._normal_form`` reads its normal form.  By the lemma of the
    ``complexes`` module docstring its checks are the star's, which the
    star passed when the orange was projected, so it is marked as passing
    ``SimplicialComplex._check_faces``.  The star is seeded here and not
    by the projection, so that validation, which projects every orange,
    does not pay for it.
    """
    profile = detect_orange(complex_)
    projected = project_orange(complex_)
    star = projected.complex
    seeds = star._memo
    seeds.setdefault("profile", OrangeProfile(k=profile.i, i=profile.i, medial=(0,), n=profile.n))
    if "adjacent pairs" not in seeds:
        face_map = projected.face_map
        seeds["adjacent pairs"] = tuple(sorted(
            (min(face_map[s], face_map[t]), max(face_map[s], face_map[t]))
            for s, t in adjacent_pairs(complex_)
        ))
    std = standard_orange(star, profile.k - profile.i)
    medial = (0, *range(len(star.nums), len(std.nums)))
    frame = None
    if profile.i:
        # the identity frame at the origin; the medial face is 0, e_{i+1}, ..., e_k
        frame = AdaptedFrame(
            rows=tuple(tuple(int(r == c) for c in range(profile.k)) for r in range(profile.i)),
            scale=1,
            den=std.den,
            medial_nums=tuple(std.nums[m] for m in medial),
        )
    std._memo["checked"] = True
    std._memo["profile"] = replace(profile, medial=medial)
    # the faces are the star's, each followed by the same tail, in the
    # star's order: the facet pairs are the star's
    std._memo["adjacent pairs"] = seeds["adjacent pairs"]
    std._memo["standard of"] = star
    std._memo["projected"] = ProjectedOrange(
        complex=star,
        central_vertex=0,
        face_map=tuple(range(len(star.maximal_faces))),
        frame=frame,
    )
    return StandardForm(profile=profile, projected=projected, standard=std)
