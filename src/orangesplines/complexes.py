"""Simplicial complexes with exact rational geometry.

A complex is stored by its maximal faces over a shared vertex list.  The
validator checks the geometric realization, not just the combinatorics:
any two maximal simplices must intersect exactly in the convex hull of
their common vertices.  All of that runs in exact arithmetic, so skew or
crossing geometries are detected reliably.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .exact import _nullspace_of_rows, solve_linear

__all__ = [
    "Point",
    "Simplex",
    "SimplicialComplex",
    "OrangeProfile",
    "InvalidComplexError",
    "NotPureError",
    "EmptyMedialFaceError",
    "detect_orange",
    "adjacent_pairs",
    "affine_image",
]

Point = tuple[Fraction, ...]
Simplex = tuple[int, ...]


class InvalidComplexError(ValueError):
    """The vertex/face data does not describe a geometric simplicial complex."""


class NotPureError(ValueError):
    """Maximal faces do not all have the same dimension."""


class EmptyMedialFaceError(ValueError):
    """The maximal faces have no common vertex, so no medial face exists."""


def _as_point(coords: Iterable[Fraction | int]) -> Point:
    return tuple(Fraction(c) for c in coords)


def _affinely_independent(points: Sequence[Point]) -> bool:
    if not points:
        return True
    base = points[0]
    vecs = [[p[j] - base[j] for j in range(len(base))] for p in points[1:]]
    if not vecs:
        return True
    # rank of the edge-vector matrix must equal the number of edge vectors
    from .exact import RationalMatrix

    return RationalMatrix.from_rows(vecs).rank() == len(vecs)


def barycentric_coordinates(
    point: Point, vertices: Sequence[Point]
) -> list[Fraction] | None:
    """Exact barycentric coordinates of ``point`` w.r.t. an affinely
    independent vertex tuple, or None when the point is off the affine hull."""
    m = len(vertices)
    dim = len(point)
    matrix = [[vertices[j][i] for j in range(m)] for i in range(dim)]
    matrix.append([Fraction(1)] * m)
    rhs = [Fraction(c) for c in point] + [Fraction(1)]
    sol = solve_linear(matrix, rhs)
    if sol is None:
        return None
    particular, basis = sol
    if basis:
        raise ValueError("vertices are affinely dependent")
    return particular


def _intersection_within_hull(
    verts_a: Sequence[Point], verts_b: Sequence[Point], common: Sequence[Point]
) -> bool:
    """Check conv(verts_a) ∩ conv(verts_b) ⊆ conv(common), exactly.

    Precondition: ``verts_a`` and ``verts_b`` are each affinely independent
    and ``common`` lists the points they share.  Let A' = verts_a ∖ common
    and B' = verts_b ∖ common.  The intersection leaves conv(common) exactly
    when the points A' ∪ B' ∪ common carry an affine dependence x with
    x >= 0 on A', x <= 0 on B' and x != 0 there (the circuit criterion for
    proper intersection; De Loera, Rambau & Santos, *Triangulations*, 2010).

    Such an x is N t over a nullspace basis N of [points; 1].  The sign rows
    G (N on A', -N on B') have full column rank, because a dependence that
    vanishes on A' ∪ B' lives on the independent set ``common`` and is 0.
    So the cone {t : G t >= 0} is pointed, and it is nonzero exactly when
    one of its extreme rays exists: the kernel of f - 1 rows of G, where f
    is the number of basis vectors, taken with either sign.
    """
    shared = set(common)
    only_a = [p for p in verts_a if p not in shared]
    only_b = [p for p in verts_b if p not in shared]
    points = only_a + only_b + list(common)
    dim = len(points[0])
    rows: list[dict[int, Fraction]] = [
        {j: p[c] for j, p in enumerate(points) if p[c]} for c in range(dim)
    ]
    rows.append({j: Fraction(1) for j in range(len(points))})
    basis = _nullspace_of_rows(rows, len(points))
    signs = [1] * len(only_a) + [-1] * len(only_b)
    sign_rows = [
        {t: s * vec[j] for t, vec in enumerate(basis) if j in vec}
        for j, s in enumerate(signs)
    ]
    f = len(basis)
    if f == 0:
        return True
    for active in combinations(sign_rows, f - 1):
        kernel = _nullspace_of_rows(active, f)
        if len(kernel) != 1:
            continue
        ray = kernel[0]
        values = [sum(v * ray.get(t, 0) for t, v in row.items()) for row in sign_rows]
        if all(v >= 0 for v in values) or all(v <= 0 for v in values):
            return False
    return True


@dataclass(frozen=True)
class SimplicialComplex:
    """A pure-data simplicial complex: rational vertices plus maximal faces.

    Vertices are indexed by position; every maximal face is stored as a
    sorted tuple of vertex indices.  Instances are immutable and hashable,
    which lets dimension computations be cached per complex.
    """

    ambient_dim: int
    vertices: tuple[Point, ...]
    maximal_faces: tuple[Simplex, ...]

    def __init__(
        self,
        ambient_dim: int,
        vertices: Iterable[Iterable[Fraction | int]],
        maximal_faces: Iterable[Iterable[int]],
    ) -> None:
        pts = tuple(_as_point(v) for v in vertices)
        faces = tuple(sorted(tuple(sorted(set(f))) for f in maximal_faces))
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "vertices", pts)
        object.__setattr__(self, "maximal_faces", faces)

    @cached_property
    def dim(self) -> int:
        """Dimension of the largest maximal face (-1 when there are none)."""
        if not self.maximal_faces:
            return -1
        return max(len(f) for f in self.maximal_faces) - 1

    @cached_property
    def is_pure(self) -> bool:
        return bool(self.maximal_faces) and all(
            len(f) == len(self.maximal_faces[0]) for f in self.maximal_faces
        )

    @cached_property
    def faces(self) -> frozenset[Simplex]:
        """All nonempty faces of all maximal simplices."""
        out: set[Simplex] = set()
        for mf in self.maximal_faces:
            for r in range(1, len(mf) + 1):
                out.update(combinations(mf, r))
        return frozenset(out)

    def face_points(self, face: Sequence[int]) -> list[Point]:
        return [self.vertices[i] for i in face]

    def validate(self) -> None:
        """Raise InvalidComplexError unless this is a geometric complex.

        Checks coordinate arity, index bounds, duplicate or nested maximal
        faces, affine independence of every maximal face, and the exact
        intersection condition on every pair of maximal simplices.  Checking
        maximal pairs suffices: any two faces lie inside maximal ones, and
        the intersection condition is inherited by subsets.

        A pair intersects improperly exactly when the vertices of the two
        faces carry an affine dependence that is nonnegative on the first
        face's own vertices, nonpositive on the second's and nonzero there;
        ``_intersection_within_hull`` decides that from one nullspace per
        pair.  The decision needs affinely independent faces, so affine
        independence is checked for every face before any pair.
        """
        for v in self.vertices:
            if len(v) != self.ambient_dim:
                raise InvalidComplexError(
                    f"vertex {v} has arity {len(v)}, ambient dimension is {self.ambient_dim}"
                )
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidComplexError("duplicate vertex coordinates")
        if not self.maximal_faces:
            raise InvalidComplexError("no maximal faces")
        nv = len(self.vertices)
        for f in self.maximal_faces:
            if not f:
                raise InvalidComplexError("empty face")
            if f[0] < 0 or f[-1] >= nv:
                raise InvalidComplexError(f"face {f} references a missing vertex")
        fsets = [frozenset(f) for f in self.maximal_faces]
        for a, b in combinations(range(len(fsets)), 2):
            if fsets[a] <= fsets[b] or fsets[b] <= fsets[a]:
                raise InvalidComplexError(
                    f"faces {self.maximal_faces[a]} and {self.maximal_faces[b]} are nested"
                )
        for f in self.maximal_faces:
            if not _affinely_independent(self.face_points(f)):
                raise InvalidComplexError(f"face {f} is geometrically degenerate")
        for a, b in combinations(range(len(self.maximal_faces)), 2):
            fa, fb = self.maximal_faces[a], self.maximal_faces[b]
            common = sorted(set(fa) & set(fb))
            ok = _intersection_within_hull(
                self.face_points(fa),
                self.face_points(fb),
                self.face_points(common),
            )
            if not ok:
                raise InvalidComplexError(
                    f"faces {fa} and {fb} overlap beyond their shared vertices"
                )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.vertices, self.maximal_faces))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.vertices == other.vertices
            and self.maximal_faces == other.maximal_faces
        )


@dataclass(frozen=True)
class OrangeProfile:
    """Shape parameters of a generalized orange.

    ``k`` is the dimension of the maximal faces, ``i`` the codimension of
    the medial face inside them (so the medial face has dimension k - i),
    and ``n`` the number of maximal faces (segments).
    """

    k: int
    i: int
    medial: Simplex
    n: int


def detect_orange(complex_: SimplicialComplex) -> OrangeProfile:
    """Recognize a (k, i)-orange, or raise.

    The medial face is the intersection of all maximal vertex sets; the
    defining property makes it unique, so set intersection recovers it.
    """
    if not complex_.is_pure:
        raise NotPureError("maximal faces have differing dimensions")
    k = complex_.dim
    shared = set(complex_.maximal_faces[0])
    for f in complex_.maximal_faces[1:]:
        shared &= set(f)
    if not shared:
        raise EmptyMedialFaceError("maximal faces share no common vertex")
    medial = tuple(sorted(shared))
    i = k - (len(medial) - 1)
    return OrangeProfile(k=k, i=i, medial=medial, n=len(complex_.maximal_faces))


def adjacent_pairs(complex_: SimplicialComplex) -> list[tuple[int, int]]:
    """Indices (s, t), s < t, of maximal faces sharing a facet (k vertices)."""
    out = []
    faces = complex_.maximal_faces
    for s, t in combinations(range(len(faces)), 2):
        if len(set(faces[s]) & set(faces[t])) == len(faces[s]) - 1:
            out.append((s, t))
    return out


def affine_image(
    complex_: SimplicialComplex,
    matrix: Sequence[Sequence[Fraction]],
    translation: Sequence[Fraction],
) -> SimplicialComplex:
    """Apply x -> M x + b to every vertex (M must be square invertible for
    the image to remain a simplicial complex; the caller owns that)."""
    k = complex_.ambient_dim
    new_vertices = []
    for v in complex_.vertices:
        img = [
            sum((matrix[r][c] * v[c] for c in range(k)), Fraction(0)) + Fraction(translation[r])
            for r in range(k)
        ]
        new_vertices.append(img)
    return SimplicialComplex(k, new_vertices, complex_.maximal_faces)
