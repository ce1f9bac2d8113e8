"""Simplicial complexes with exact rational geometry.

A complex is stored by its maximal faces over a shared vertex list.  The
validator checks the geometric realization, not just the combinatorics:
any two maximal simplices must intersect exactly in the convex hull of
their common vertices.  All of that runs in exact arithmetic, so skew or
crossing geometries are detected reliably.

On an orange that pair test runs on the projected star in R^i, not on
the orange in R^k.  Lemma: let a complex be pure and full-dimensional,
with every maximal face T_s = F * W_s the join of a common face F and
the vertices W_s off F.  Let pi be the projection along aff(F).  The
complex is geometric exactly when pi is injective on the vertices off F
and the star of the simplices conv(pi(F), pi(W_s)) is geometric.
Proof sketch: a point of T_s has unique barycentric coordinates, and pi
keeps those on W_s as the point's coordinates in the projected simplex;
with pi injective off F, two projected simplices share just the images
of the vertices their faces share.  So a proper intersection in the star
lifts to a proper one in the orange.  Conversely, an improper point y
of the star, pulled toward the origin as t*y with t small, lifts into
both faces near relint(F) and is improper there.  If two vertices off F
share an image, a point near relint(F) in the direction of both lies in
two faces but not in the hull of their common vertices.
The face checks follow too.  T_s is independent exactly when F is and
conv(pi(F), pi(W_s)) is an i-simplex, as pi kills just the directions
of F.  In a pure complex a nested pair is two identical faces, which
project onto identical segments.  So ``projection.project_orange``
validates an orange alone, with ``_check_shape`` (arity, index bounds,
distinct vertices) in front, and a projection that succeeds marks the
orange and its star as passing ``_check_faces``, the check of a
complex's points and faces.  Every other complex gets ``_check_faces``
and is pair-tested directly.

For i <= 2 the star is a fan at the origin, and ``_check_fan`` decides
it from the cyclic order of its faces, with no pair test.  Fan lemma: in
R^1 the faces are segments from the origin, and the star is geometric
exactly when no two lie on one side.  In R^2 the faces are sectors
conv(0, a, b) with a x b > 0 (each spans less than a half-turn); sort
them by start ray a.  The star is geometric exactly when each
consecutive pair, the last and the first included, has the next start
ray neither strictly inside the current sector nor on its start ray,
and, when it lies on the current end ray, the same vertex there.
Proof sketch: then the arcs [a, b] follow each other around the circle
without overlap, so two sectors meet at the origin or along one bounding
ray, whose segment is the hull of their common vertices when the vertex
on it is shared.  Conversely, overlapping interiors, or one ray carrying
the vertices of two sectors at different lengths, give a point near the
origin in both sectors but not in that hull.

For i = 3 the faces are cones conv(0, a, b, c), and their link is the
complex of the triangles abc.  A closed star, one whose every link edge
lies in two cones, is decided by ``_check_cone3`` from local orientation
tests on integer determinants, with no pair test.  Cone lemma: a closed
star in R^3 whose cones are connected through shared walls is geometric
exactly when (1) every cone is nondegenerate, det(a, b, c) != 0; (2) the
two cones at every wall conv(0, a, b) lie on opposite sides of it, that
is, with each link triangle oriented by the sign of its determinant,
every directed link edge lies in exactly one triangle; and (3) around
every ray a the cones form one proper fan: on the plane normal to a
their sectors make one cycle that winds once.  Proof sketch: (1) to (3)
make the radial map from the link, a connected closed surface, to the
sphere S^2 a local homeomorphism: inside a triangle by (1), across an
edge by (2), at a vertex by (3).  The link is compact, so the map is a
covering map, and S^2 is simply connected, so the covering has one
sheet: the map is an embedding.  Two cones then meet in the cone over
the common face of their spherical triangles, cut off by both, which is
the hull of their common vertices; in particular no two vertices share a
ray.  Conversely, a flat cone, two cones on one side of a wall, or
sectors that cover the plane normal to a ray more than once give two
cones a common point outside that hull.  A boundary star, some link edge
in one cone only, also needs its boundary curve to be simple on S^2, a
global condition: it is pair-tested, ``_check_pairs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import chain, combinations
from operator import mul
from typing import Iterable, Sequence

from .exact import _check_exact, _check_nonnegative, _echelon, _integer_kernel

__all__ = [
    "Point",
    "Simplex",
    "SimplicialComplex",
    "OrangeProfile",
    "InvalidComplexError",
    "NotPureError",
    "EmptyMedialFaceError",
    "UnsupportedOrangeError",
    "NotStandardOrangeError",
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


class UnsupportedOrangeError(ValueError):
    """The complex has a medial face but lies outside the supported domain:
    its maximal faces are not all connected through shared facets, or their
    dimension differs from the ambient dimension."""


class NotStandardOrangeError(ValueError):
    """The orange is not in the standard position that the layers and the
    lifted determining sets are read in: its medial face is not the origin
    and the last unit vectors, or another vertex leaves the star's span."""


def _affinely_independent(points: Sequence[Sequence[int]]) -> bool:
    if not points:
        return True
    base = points[0]
    edges = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    n = len(edges)
    if n == len(base) and 1 <= n <= 3:
        # n edge vectors in R^n: independent exactly when their determinant is nonzero
        return bool(edges[0][0] if n == 1 else _cross(*edges) if n == 2 else _det3(*edges))
    # rank of the edge vectors must equal their number
    vecs = [{j: x for j, x in enumerate(e) if x} for e in edges]
    return len(_echelon(vecs)) == n


def _intersection_within_hull(
    verts_a: Sequence[Sequence[int]],
    verts_b: Sequence[Sequence[int]],
    common: Sequence[Sequence[int]],
) -> bool:
    """Check conv(verts_a) ∩ conv(verts_b) ⊆ conv(common), exactly.

    The points are integer: rational ones after a common dilation, which
    keeps every affine dependence and every sign.
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
    n = len(points)
    rows = [{j: p[c] for j, p in enumerate(points) if p[c]} for c in range(len(points[0]))]
    rows.append(dict.fromkeys(range(n), 1))
    basis = _integer_kernel(rows, n)
    signs = [1] * len(only_a) + [-1] * len(only_b)
    sign_rows = [
        {t: s * vec[j] for t, vec in enumerate(basis) if j in vec}
        for j, s in enumerate(signs)
    ]
    f = len(basis)
    if f == 0:
        return True
    for active in combinations(sign_rows, f - 1):
        kernel = _integer_kernel(active, f)
        if len(kernel) != 1:
            continue
        ray = kernel[0]
        values = [sum(v * ray.get(t, 0) for t, v in row.items()) for row in sign_rows]
        if all(v >= 0 for v in values) or all(v <= 0 for v in values):
            return False
    return True


def _cross(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _cross3(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _det3(u: Sequence[int], v: Sequence[int], w: Sequence[int]) -> int:
    """det[u; v; w] = u . (v x w), for u, v, w in R^3."""
    return sum(map(mul, u, _cross3(v, w)))


def _same_ray(u: Sequence[int], v: Sequence[int]) -> bool:
    return _cross(u, v) == 0 and u[0] * v[0] + u[1] * v[1] > 0


def _angle_order(u: Sequence[int], v: Sequence[int]) -> int:
    """Compare two nonzero vectors by angle from the positive x-axis, in
    [0, 2 pi): half-plane first, then the sign of the cross product."""
    lower_u = u[1] < 0 or (u[1] == 0 and u[0] < 0)
    lower_v = v[1] < 0 or (v[1] == 0 and v[0] < 0)
    if lower_u != lower_v:
        return 1 if lower_u else -1
    return -_cross(u, v)


def _check_fan(star: SimplicialComplex) -> bool:
    """Whether a star in R^1 or R^2 is a geometric complex, by the fan
    lemma of the module docstring: O(n log n) on exact integer cross
    products of ``nums``, no kernel.

    Precondition, which ``projection.project_orange`` checks first: vertex
    0 is the origin and lies in every face, every face is affinely
    independent, and distinct vertices are distinct points.
    """
    nums = star.nums
    if star.ambient_dim == 1:
        sides = [nums[v][0] > 0 for _, v in star.maximal_faces]
        return len(set(sides)) == len(sides)
    # each sector counter-clockwise from its start ray a to its end ray b
    sectors = [(a, b) if _cross(nums[a], nums[b]) > 0 else (b, a) for _, a, b in star.maximal_faces]
    if len(sectors) < 2:
        return True
    sectors.sort(key=cmp_to_key(lambda s, t: _angle_order(nums[s[0]], nums[t[0]])))
    for (a, b), (c, _) in zip(sectors, sectors[1:] + sectors[:1]):
        start, end, after = nums[a], nums[b], nums[c]
        if _cross(start, after) > 0 and _cross(after, end) > 0:
            return False
        if _same_ray(start, after) or (c != b and _same_ray(end, after)):
            return False
    return True


def _check_cone3(star: SimplicialComplex) -> bool | None:
    """Whether a closed star in R^3 is a geometric complex, by the cone
    lemma of the module docstring: O(n) exact integer determinants of
    ``nums`` and the angular order of ``_check_fan``, no kernel.  None
    when some link edge lies in one cone only: a boundary star, which only
    the pair test decides.  A repeated directed edge rejects either way.

    Condition (3) reads the fan around ray a on a's normal plane, in the
    integer coordinates q(b) = (b . u, b . v) with u = a x e_j, e_j the
    axis of a's smallest entry, and v = a x u.  Then q(b) x q(c) =
    (u x v) . (b x c) = |u|^2 det(a, b, c) > 0 for an oriented triangle
    a -> b -> c, so each sector turns counter-clockwise by less than a
    half-turn.  The sectors around a form cycles, each winding at least
    once, and the number of sectors that go down in angle is their total
    winding: it is 1 exactly when they form one cycle that winds once.

    Precondition, which ``projection.project_orange`` checks first:
    vertex 0 is the origin and lies in every face, distinct vertices are
    distinct points, and the cones are connected through shared walls
    (``detect_orange``).
    """
    nums = star.nums
    # apex[a, b] = c for the link triangle a -> b -> c, det(a, b, c) > 0
    apex: dict[tuple[int, int], int] = {}
    for _, a, b, c in star.maximal_faces:
        det = _det3(nums[a], nums[b], nums[c])
        if not det:
            return False
        if det < 0:
            b, c = c, b
        for edge, w in (((a, b), c), ((b, c), a), ((c, a), b)):
            if edge in apex:
                # two cones on one side of a wall, or three on it
                return False
            apex[edge] = w
    if any((b, a) not in apex for a, b in apex):
        return None
    # around ray a, the triangle a -> b -> c is the sector from b to c; in
    # a closed star with no repeated directed edge the sectors form cycles
    sectors: dict[int, list[tuple[int, int]]] = {}
    for (a, b), c in apex.items():
        sectors.setdefault(a, []).append((b, c))
    for a, around in sectors.items():
        x = nums[a]
        j = min(range(3), key=lambda c: abs(x[c]))
        u = _cross3(x, [int(c == j) for c in range(3)])
        v = _cross3(x, u)
        q = {b: (sum(map(mul, nums[b], u)), sum(map(mul, nums[b], v))) for b, _ in around}
        # each cycle winds at least once, so one descent means one cycle
        # that winds once
        if sum(_angle_order(q[c], q[b]) < 0 for b, c in around) != 1:
            return False
    return True


def _overlap(face_a: Simplex, face_b: Simplex) -> InvalidComplexError:
    face_a, face_b = sorted((face_a, face_b))
    return InvalidComplexError(
        f"faces {face_a} and {face_b} overlap beyond their shared vertices"
    )


def _check_pairs(
    complex_: SimplicialComplex, names: Sequence[Simplex] | None = None
) -> None:
    """Raise InvalidComplexError unless every two maximal faces of
    ``complex_`` meet in the hull of their common vertices.

    A pair meets improperly exactly when the vertices of the two faces
    carry an affine dependence that is nonnegative on the first face's own
    vertices, nonpositive on the second's and nonzero there;
    ``_intersection_within_hull`` decides that from one nullspace per pair.
    It reads the complex's integer numerators ``nums``: a common dilation
    keeps every affine dependence and every sign.  Every face must be
    affinely independent.  The error names the faces by ``names[s]``
    (default: the maximal faces themselves), so that a projected star
    reports the orange faces it stands for.
    """
    faces = complex_.maximal_faces
    names = names or faces
    nums = complex_.nums
    for a, b in combinations(range(len(faces)), 2):
        common = sorted(set(faces[a]) & set(faces[b]))
        if not _intersection_within_hull(
            [nums[v] for v in faces[a]],
            [nums[v] for v in faces[b]],
            [nums[v] for v in common],
        ):
            raise _overlap(names[a], names[b])


@dataclass(frozen=True)
class SimplicialComplex:
    """A pure-data simplicial complex: rational vertices plus maximal faces.

    Vertex v is stored as the integers ``nums[v]`` over ``den``, the lcm of
    all coordinate denominators; validation, the projection, both oracles
    and the lattices read those, as a dilation keeps every affine
    dependence, sign and lattice order.  The ``Fraction`` points
    ``vertices`` are derived on first read.  The constructor takes ``int``
    or ``Fraction`` coordinates (``exact._check_exact``: TypeError
    otherwise); ``_from_integer_view`` takes integers.
    Every maximal face is a sorted tuple of vertex indices.  Instances are
    immutable, and (den, nums) is canonical, so the generated equality and
    hash are by value.  Derived structure is computed once per instance
    and kept in ``_memo``: the pass of ``_check_faces`` (set by the check
    itself, by ``project_orange`` on an orange it validates and its star,
    and handed on to the complexes the package derives), the profile, the
    projection, the ``adjacent_pairs`` (``standard_form`` hands the
    orange's profile and pairs down to its star and the star's to the
    standard model, which also inherits the projection and names the star
    it is built from), the affine normal form that ``cofactor.spline_dims``
    eliminates and its key, which that cache and ``bernstein``'s are keyed
    on (a standard model reads both off its star's), and the domain-point
    lattices, affine dependences and Bernstein C^r systems of
    ``bernstein``.
    """

    ambient_dim: int
    den: int
    nums: tuple[tuple[int, ...], ...]
    maximal_faces: tuple[Simplex, ...]

    def __init__(
        self,
        ambient_dim: int,
        vertices: Iterable[Iterable[Fraction | int]],
        maximal_faces: Iterable[Iterable[int]],
    ) -> None:
        fracs = [
            [_check_exact(c, "vertex {} coordinate {}", vid, j).as_integer_ratio()
             for j, c in enumerate(v)]
            for vid, v in enumerate(vertices)
        ]
        den = math.lcm(*(q for p in fracs for _, q in p))
        nums = tuple(tuple(n * (den // q) for n, q in p) for p in fracs)
        self._store(ambient_dim, den, nums, maximal_faces)

    def _store(self, ambient_dim: int, den: int, nums: tuple, maximal_faces: Iterable) -> None:
        faces = [tuple(f) for f in maximal_faces]
        for f in faces:
            if len(set(f)) != len(f):
                raise InvalidComplexError(f"face {list(f)} repeats a vertex")
        ambient_dim = _check_nonnegative(ambient_dim, "ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "maximal_faces", tuple(sorted(tuple(sorted(f)) for f in faces)))

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        """The vertices as ``Fraction`` points: ``nums`` over ``den``."""
        return tuple(tuple(Fraction(x, self.den) for x in v) for v in self.nums)

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
    def _memo(self) -> dict[object, object]:
        return {}

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

        An orange (``detect_orange`` succeeds) is validated by its
        projection alone, ``project_orange``: shape and duplicate vertices,
        the medial face, each face's image and the star, by cyclic order
        when it is a fan in R^1 or R^2, by local orientation tests when it
        is a closed star in R^3 and pair by pair otherwise; the module
        docstring gives the lemmas that make this the whole check.  Every
        other complex has passed ``_check_faces`` when ``detect_orange``
        rejects it, and then gets the pair test on every two maximal faces,
        ``_check_pairs``, which suffices: any two faces lie inside maximal
        ones, and the condition is inherited by subsets.
        """
        try:
            detect_orange(self)
        except (NotPureError, EmptyMedialFaceError, UnsupportedOrangeError):
            _check_pairs(self)
        else:
            from .projection import project_orange  # projection imports this module

            project_orange(self)

    def _check_faces(self) -> None:
        """The one check of a complex's points and faces, which every
        reading of its geometry relies on: ``_check_shape``, no nested
        faces, affinely independent faces.  Raises InvalidComplexError;
        a pass is kept in ``_memo``, so it runs at most once per instance.
        ``project_orange`` marks the orange it validates and its star, as
        its own tests imply this one (module docstring), and the package
        hands the mark on to the complexes it derives from checked ones."""
        if "checked" in self._memo:
            return
        self._check_shape()
        fsets = [frozenset(f) for f in self.maximal_faces]
        for a, b in combinations(range(len(fsets)), 2):
            if fsets[a] <= fsets[b] or fsets[b] <= fsets[a]:
                raise InvalidComplexError(
                    f"faces {self.maximal_faces[a]} and {self.maximal_faces[b]} are nested"
                )
        for f in self.maximal_faces:
            if not _affinely_independent([self.nums[v] for v in f]):
                raise InvalidComplexError(f"face {f} is geometrically degenerate")
        self._memo["checked"] = True

    def _check_shape(self) -> None:
        """Coordinate arity, face index bounds and distinct vertices: what
        any reading of the vertices of the faces relies on."""
        for vid, v in enumerate(self.nums):
            if len(v) != self.ambient_dim:
                raise InvalidComplexError(
                    f"vertex {vid} has arity {len(v)}, ambient dimension is {self.ambient_dim}"
                )
        if not self.maximal_faces:
            raise InvalidComplexError("no maximal faces")
        nv = len(self.nums)
        for f in self.maximal_faces:
            if not f:
                raise InvalidComplexError("empty face")
            if f[0] < 0 or f[-1] >= nv:
                raise InvalidComplexError(f"face {f} references a missing vertex")
        if len(set(self.nums)) != nv:
            raise InvalidComplexError("duplicate vertex coordinates")

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
    Supported oranges are full-dimensional (k equals the ambient dimension)
    and connected through shared facets (one component of the dual graph,
    ``_dual_forest``); anything else with a medial face raises
    UnsupportedOrangeError.  Smoothness is imposed across facets
    only, so on a complex whose faces meet in lower-dimensional faces the
    dimension formula and the determining sets do not apply.  The profile
    is computed once per complex instance.  A complex that is no orange
    must first pass ``_check_faces``: broken points or faces raise
    InvalidComplexError, never one of the errors above.
    """
    if "profile" not in complex_._memo:
        try:
            complex_._memo["profile"] = _profile(complex_)
        except (NotPureError, EmptyMedialFaceError, UnsupportedOrangeError):
            complex_._check_faces()
            raise
    return complex_._memo["profile"]


def _profile(complex_: SimplicialComplex) -> OrangeProfile:
    """``detect_orange``'s recognition, uncached."""
    if not complex_.is_pure:
        raise NotPureError("maximal faces have differing dimensions")
    k = complex_.dim
    shared = set(complex_.maximal_faces[0])
    for f in complex_.maximal_faces[1:]:
        shared &= set(f)
    if not shared:
        raise EmptyMedialFaceError("maximal faces share no common vertex")
    if k != complex_.ambient_dim:
        raise UnsupportedOrangeError(
            f"faces have dimension {k}, ambient dimension is {complex_.ambient_dim}"
        )
    components, _ = _dual_forest(len(complex_.maximal_faces), adjacent_pairs(complex_))
    if components != 1:
        raise UnsupportedOrangeError("maximal faces are not connected through shared facets")
    medial = tuple(sorted(shared))
    return OrangeProfile(k=k, i=k - (len(medial) - 1), medial=medial, n=len(complex_.maximal_faces))


def adjacent_pairs(complex_: SimplicialComplex) -> list[tuple[int, int]]:
    """Indices (s, t), s < t, of maximal faces sharing a facet (k vertices),
    found once per complex instance."""
    if "adjacent pairs" not in complex_._memo:
        complex_._memo["adjacent pairs"] = _facet_pairs(complex_.maximal_faces)
    return list(complex_._memo["adjacent pairs"])


def _facet_pairs(faces: Sequence[Simplex]) -> tuple[tuple[int, int], ...]:
    """The O(F^2) scan behind ``adjacent_pairs``."""
    return tuple(
        (s, t)
        for s, t in combinations(range(len(faces)), 2)
        if len(set(faces[s]) & set(faces[t])) == len(faces[s]) - 1
    )


def _dual_forest(
    n_faces: int, pairs: Sequence[tuple[int, int]]
) -> tuple[int, dict[int, dict[int, int]]]:
    """A breadth-first spanning forest of the dual graph: faces joined by
    their pairs.

    Give pair p = (s, t) the value x_p = x_s - x_t of some face values x.
    Along the forest every face u has x_u = x_root + sum_q pi_u[q] * x_q,
    with pi_u the signed tree path from its component's root.  Returns the
    number of components and, per pair p = (s, t) off the forest, the
    cycle it closes as {q: sign}: sum_q (pi_s - pi_t)[q] * x_q - x_p = 0.
    """
    neighbours: list[list[tuple[int, int, int]]] = [[] for _ in range(n_faces)]
    for p, (s, t) in enumerate(pairs):
        # reached from s, x_t = x_s - x_p; reached from t, x_s = x_t + x_p
        neighbours[s].append((p, t, -1))
        neighbours[t].append((p, s, 1))
    path: list[dict[int, int] | None] = [None] * n_faces
    components = 0
    for root in range(n_faces):
        if path[root] is not None:
            continue
        components += 1
        path[root] = {}
        queue = [root]
        for u in queue:
            for p, v, sign in neighbours[u]:
                if path[v] is None:
                    path[v] = {**path[u], p: sign}
                    queue.append(v)
    tree = {q for pi in path for q in pi}
    cycles = {}
    for p, (s, t) in enumerate(pairs):
        if p in tree:
            continue
        # a tree pair keeps its sign on every path through it, so the
        # pairs above the two faces' common ancestor cancel
        cycle = dict(path[s])
        for q, sign in path[t].items():
            if cycle.pop(q, None) is None:
                cycle[q] = -sign
        cycle[p] = -1
        cycles[p] = cycle
    return components, cycles


def _from_integer_view(
    ambient_dim: int,
    den: int,
    nums: Sequence[Sequence[int]],
    maximal_faces: Iterable[Iterable[int]],
) -> SimplicialComplex:
    """The complex with vertices ``nums`` / ``den``, den > 0, stored in
    lowest terms as the constructor stores it: the lcm of the coordinate
    denominators is den / g, g the gcd of den and every numerator, and
    the numerators over it are ``nums`` / g."""
    g = math.gcd(den, *chain.from_iterable(nums))
    complex_ = object.__new__(SimplicialComplex)
    nums = tuple(tuple(x // g for x in v) for v in nums)
    complex_._store(ambient_dim, den // g, nums, maximal_faces)
    return complex_


def affine_image(
    complex_: SimplicialComplex,
    matrix: Sequence[Sequence[Fraction]],
    translation: Sequence[Fraction],
) -> SimplicialComplex:
    """Apply x -> M x + b to every vertex.  M must be k x k and b of length
    k, k the ambient dimension, or ValueError says so, and the complex
    must pass ``_check_shape``; the image is a simplicial complex only for
    an invertible M, which the caller owns."""
    complex_._check_shape()
    k = complex_.ambient_dim
    if len(matrix) != k or any(len(row) != k for row in matrix) or len(translation) != k:
        raise ValueError(
            f"an affine map of R^{k} needs a {k} x {k} matrix and a translation of length {k}"
        )
    new_vertices = []
    for v in complex_.vertices:
        img = [
            sum((matrix[r][c] * v[c] for c in range(k)), Fraction(0)) + Fraction(translation[r])
            for r in range(k)
        ]
        new_vertices.append(img)
    return SimplicialComplex(k, new_vertices, complex_.maximal_faces)
