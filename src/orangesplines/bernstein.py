"""Bernstein form on simplicial complexes.

Domain-point lattices, the layer structure of a standard orange's lattice,
determining sets, and the lifting of determining sets from the projected
star to the standard orange together with the cardinality bookkeeping that
reproduces the closed-form dimension.  Lattices, systems, layers and lifts
run on integers; ``Fraction`` coordinates are derived only where read.

A degree-d polynomial on a k-simplex is written in the Bernstein basis
B_a = (d choose a) * lambda^a over barycentric coordinates lambda; its
coefficients sit at the domain points xi_a = sum (a_l / d) v_l.  Degree 0
has a single coefficient (the lattice formula degenerates there), attached
by convention to the origin when it is a vertex of the simplex and to the
simplex's first vertex otherwise.  Every face of a standard orange has the
origin, so its degree-0 lattice is the origin alone: the level-0 layer.

A spline is one coefficient per identified domain point, and C^r
smoothness is one sparse linear system on those coefficients: the
conditions of Lai & Schumaker (*Spline Functions on Triangulations*, 2007,
Thm 2.28) across every shared facet.  A complex instance keeps its
lattice once per degree and that system once per (r, d), and everything
about determining sets is read off the one system.  Both are built on the
complex's stored integers (numerators ``nums`` over ``den``): lattice
points are sorted by their keys, the integer numerators over
den * max(d, 1), a lattice of one point has no condition to build, and
the weights of each row come from Cramer's rule,
lambda_l = Delta_l / Delta, read off one integer affine dependence.  The
order-m rows are scaled by Delta^m (over a gcd), so they are integral as
built and the elimination kernel takes them as they are.

A set M of points determines the spline space exactly when the system's
columns outside M are independent, so by matroid duality the greedy
hub-outward selection is the complement of the greedy column basis taken
from the outside in (Oxley, *Matroid Theory*, §2); its integer columns go
straight to the kernel's ``_reduce``, and verifying a set is one rank
computation.

Invariance.  Let two complexes be invertible affine images of one another
with the same vertex labels and faces, which is what an equal affine
normal form key (``cofactor._normal_key``) says.  At d >= 1 (i) the same
(face, multi-index) pairs coincide as domain points, since the point of
(face, a) is the affine combination sum a_l v_l / d, and (ii) every C^r
condition, read over (face, multi-index) columns, is the same primitive
integer row with a positive t-entry, since its weights are products of
barycentric coordinates, which the map keeps.  Only the points' keys and
coordinates and the column order (hub layer, then coordinates) depend on
the geometry.  So the groups of coinciding pairs are one bounded
least-recently-used entry per (key, d), and the rows, over the groups'
indices, one per (key, r, d): plain ints and tuples, a function of the
key, filled by whichever image misses first.  Each instance computes its
own keys from each group's first occurrence, sorts its own points, and
puts the rows in its own column order; its greedy selection and its rank
tests run on its own system, so every answer is the one it would build
alone.  Degree 0 is not shared: its point is the origin if that is a
vertex, else the first vertex, a convention no affine map keeps (a
translate of ``two-triangle`` that moves the origin to one face's
vertex has two degree-0 points joined by one row, where the catalog
complex has one).  ``bernstein_dim.cache_info()`` reports the entries as
``functools.lru_cache`` would.

A standard orange's lattice is the union of layers: the star's degree-j
lattice, scaled by j/d, copied once per tail shift beta/d with
|beta| = d - j.  On integer keys over den * d a layer point is the star's
degree-j key followed by beta * den, with no multiplication.  The layer
checks compare those tuples with the orange's lattice keys, and the lift
of a determining set finds each of its points among them by bisection and
reads the key, scale, face and multi-index off the lattice point; a
lifted point derives its coordinates only when they are read, so the
lift builds no ``Fraction``.

The system's nullity, ``bernstein_dim``, is the third derivation of the
dimension, next to the cofactor oracle (``cofactor.spline_dim``) and the
closed form through the projected star (``dimension.orange_dim_formula``).
The monomial-to-Bernstein conversion (``monomial_to_bb``) stays available
for single polynomials; no determining-set computation uses it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm, prod
from operator import mul
from typing import Sequence

from .cofactor import _LRUCache, _normal_key, spline_dim, spline_dims
from .complexes import (
    NotStandardOrangeError,
    OrangeProfile,
    Point,
    SimplicialComplex,
    adjacent_pairs,
    detect_orange,
)
from .dimension import orange_dim_formula
from .exact import (
    IntRow, _check_int, _check_nonnegative, _echelon, _integer_kernel, _reduce, _strip_content,
    invert_matrix,
)
from .polynomials import Polynomial, monomials_upto
from .polynomials import _exponents as _multiindices  # length n, sum d, lex descending
from .projection import project_orange

__all__ = [
    "DomainPoint",
    "IdentifiedPoint",
    "simplex_multiindices",
    "simplex_domain_points",
    "complex_domain_points",
    "Layer",
    "LayerDecomposition",
    "SetMismatchError",
    "layer_decomposition",
    "monomial_to_bb",
    "DeterminingSet",
    "bernstein_dim",
    "compute_mds",
    "verify_mds",
    "LiftedPoint",
    "LiftedDeterminingSet",
    "CardinalityMismatchError",
    "lift_mds",
]


class SetMismatchError(RuntimeError):
    """Layer union failed to reproduce the domain-point set exactly."""


class CardinalityMismatchError(RuntimeError):
    """A lifted determining set has the wrong size or a defective rank."""


@dataclass(frozen=True)
class DomainPoint:
    """One lattice point of one host simplex: the integer numerators
    ``key`` over ``scale``, the simplex's denominator times max(d, 1)."""

    key: tuple[int, ...]
    scale: int
    face: int
    multi_index: tuple[int, ...]

    @cached_property
    def coordinates(self) -> Point:
        """The point as ``Fraction``s: ``key`` over ``scale``."""
        return _coordinates(self.key, self.scale)


@dataclass(frozen=True)
class IdentifiedPoint:
    """A lattice point of the whole complex: integer numerators ``key``
    over ``scale``, the complex's denominator times max(d, 1), and in
    ``occurrences`` every (maximal face index, multi-index) pair that has
    it.  Within a lattice, equality and hashing are by coordinates."""

    key: tuple[int, ...]
    scale: int
    occurrences: tuple[tuple[int, tuple[int, ...]], ...]

    @cached_property
    def coordinates(self) -> Point:
        """The point as ``Fraction``s: ``key`` over ``scale``."""
        return _coordinates(self.key, self.scale)


# a lattice point's (maximal face index, multi-index)
_Occurrence = tuple[int, tuple[int, ...]]


def simplex_multiindices(nverts: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices of length nverts summing to d, lex descending;
    none when d < 0, so every lattice is empty at a negative degree.  The
    degree must be an int, and a simplex has at least one vertex."""
    _check_int(d, "degree")
    if nverts <= 0:
        raise ValueError("a simplex has at least one vertex")
    return _multiindices(nverts, d)


def _lattice_numerators(
    nums: Sequence[Sequence[int]], d: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(multi-index, numerators) of each degree-d lattice point of the
    simplex with integer vertices ``nums``: the point of a is the sum of
    a_l * nums[l] over d times the vertices' denominator, and at degree 0
    the origin if it is a vertex, else the first vertex, over that
    denominator alone."""
    indices = _multiindices(len(nums), d)
    if d == 0:
        return [(indices[0], tuple(next((n for n in nums if not any(n)), nums[0])))]
    columns = list(zip(*nums))
    return [(a, tuple(sum(map(mul, a, col)) for col in columns)) for a in indices]


def _coordinates(key: Sequence[int], scale: int) -> Point:
    """The point whose numerators over ``scale`` are ``key``."""
    return tuple(Fraction(n, scale) for n in key)


def _simplex(vertices: Sequence[Sequence[Fraction | int]]) -> SimplicialComplex:
    """The one-face complex on ``vertices``, validated: ragged, dependent or
    duplicate vertices raise InvalidComplexError, and inexact coordinates
    TypeError."""
    verts = [tuple(v) for v in vertices]
    simplex = SimplicialComplex(len(verts[0]) if verts else 0, verts, [range(len(verts))])
    simplex.validate()
    return simplex


def simplex_domain_points(
    vertices: tuple[Point, ...] | list[Point], d: int, face: int = 0
) -> list[DomainPoint]:
    """Degree-d lattice of one simplex, which ``_simplex`` checks:
    binom(d + m, m) points, m = dim."""
    _check_nonnegative(d, "degree")
    simplex = _simplex(vertices)
    scale = simplex.den * max(d, 1)
    return [
        DomainPoint(key=point, scale=scale, face=face, multi_index=a)
        for a, point in _lattice_numerators(simplex.nums, d)
    ]


def complex_domain_points(complex_: SimplicialComplex, d: int) -> tuple[IdentifiedPoint, ...]:
    """Lattice of the whole complex, built once per complex instance and
    degree, after ``SimplicialComplex._check_faces``: each point carries
    every host face and multi-index that produces it, and the points are
    sorted by their keys, which orders them as their coordinates do.  The
    coordinates are derived only where read.

    At d >= 1 which (face, multi-index) pairs coincide is read from the
    entry that all affine images of the complex share (``_lattice``), and
    each point's key is computed from its first occurrence alone.
    """
    return _lattice(complex_, _check_int(d, "degree"))[0]


def _groups(
    complex_: SimplicialComplex, d: int
) -> tuple[tuple[tuple[_Occurrence, ...], ...], list[tuple[int, ...]]]:
    """(groups, keys): every face's degree-d lattice bucketed by key, the
    occurrences of each point sorted, in the order the scan of the faces
    and their multi-indices first meets the points."""
    nums = complex_.nums
    buckets: dict[tuple[int, ...], list[_Occurrence]] = {}
    for fidx, face in enumerate(complex_.maximal_faces):
        for a, point in _lattice_numerators([nums[v] for v in face], d):
            buckets.setdefault(point, []).append((fidx, a))
    return tuple(tuple(sorted(occ)) for occ in buckets.values()), list(buckets)


def _lattice(
    complex_: SimplicialComplex, d: int
) -> tuple[tuple[IdentifiedPoint, ...], tuple[int, ...], tuple[tuple[_Occurrence, ...], ...]]:
    """(points sorted by key, each point's group, groups), once per complex
    instance and degree: the groups are the points' occurrence tuples,
    and a group's index is the column the shared rows give it
    (``_system``).

    At d >= 1 the groups are shared by every complex with the same normal
    form key (``cofactor._normal_key``): the domain point of (face, a) is
    sum a_l v_l / d, an affine combination, so an invertible affine map
    sends the points of a complex to those of its image, with the same
    (face, multi-index) pairs coinciding.  The scan that first meets them
    reads labels alone, so the entry is a function of its key.  Each
    point's key is then computed from its group's first occurrence.  At
    d = 0 the lattice's convention (the origin if it is a vertex, else the
    first vertex) is not affine invariant, so the groups and keys are the
    instance's own.
    """
    memo = ("lattice", d)
    if memo not in complex_._memo:
        complex_._check_faces()
        if d > 0:
            groups = _shared.fetch((_normal_key(complex_), d), lambda: _groups(complex_, d)[0])
            nums = complex_.nums
            columns = [list(zip(*(nums[v] for v in face))) for face in complex_.maximal_faces]
            keys = [
                tuple(sum(map(mul, a, col)) for col in columns[fidx]) for (fidx, a), *_ in groups
            ]
        else:
            groups, keys = _groups(complex_, d)
        order = tuple(sorted(range(len(groups)), key=keys.__getitem__))
        scale = complex_.den * max(d, 1)
        points = tuple(
            IdentifiedPoint(key=keys[g], scale=scale, occurrences=groups[g]) for g in order
        )
        complex_._memo[memo] = (points, order, groups)
    return complex_._memo[memo]


# ---------------------------------------------------------------------------
# layer structure of a standard orange's lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Layer:
    """Level-j slice of the standard orange's lattice: integer keys over
    ``scale`` (see ``layer_decomposition``), the star's sorted degree-j keys
    ``heads`` and the tail shifts ``tails`` (|beta| = d - j, lex descending).
    A point is a head followed by a tail.  The ``Fraction`` views, derived
    on first read, are ``factor`` = j/d, the ``base_points`` (heads, zero
    tail), the ``shifts`` (zero head, tails) and the ``points``, sorted.
    """

    level: int
    d: int
    scale: int
    heads: tuple[tuple[int, ...], ...]
    tails: tuple[tuple[int, ...], ...]

    @cached_property
    def factor(self) -> Fraction:
        return Fraction(self.level, max(self.d, 1))

    @cached_property
    def base_points(self) -> tuple[Point, ...]:
        zero = (0,) * len(self.tails[0]) if self.tails else ()
        return tuple(_coordinates(h + zero, self.scale) for h in self.heads)

    @cached_property
    def shifts(self) -> tuple[Point, ...]:
        zero = (0,) * len(self.heads[0])
        return tuple(_coordinates(zero + t, self.scale) for t in self.tails)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        # ascending heads, then ascending (reversed lex descending) tails
        tails = self.tails[::-1]
        return tuple(_coordinates(h + t, self.scale) for h in self.heads for t in tails)


@dataclass(frozen=True)
class LayerDecomposition:
    d: int
    fiber_dim: int
    star: SimplicialComplex
    layers: tuple[Layer, ...]
    total: int


def _standard_split(
    complex_: SimplicialComplex,
) -> tuple[OrangeProfile, SimplicialComplex]:
    """Check standard position and return (profile, projected star).

    After ``SimplicialComplex._check_faces``, standard position: the medial
    face consists of the origin plus the unit vectors of the last fiber
    coordinates, and every other vertex has zero tail coordinates.  The
    check reads the stored integers, where the unit vectors have the common
    denominator as their one nonzero entry.
    """
    complex_._check_faces()
    profile = detect_orange(complex_)
    k, i = profile.k, profile.i
    den, nums = complex_.den, complex_.nums
    medial_points = {nums[m] for m in profile.medial}
    if (0,) * k not in medial_points:
        raise NotStandardOrangeError("standard orange must have a medial vertex at the origin")
    for t in range(k - i):
        if tuple(den if c == i + t else 0 for c in range(k)) not in medial_points:
            raise NotStandardOrangeError(
                "standard orange must have medial vertices at the last unit vectors"
            )
    if len(medial_points) != k - i + 1:
        raise NotStandardOrangeError("medial face of a standard orange has extra vertices")
    # the medial face is the origin and the unit vectors, so only the
    # other vertices can leave the star's span
    medial = set(profile.medial)
    if any(any(nums[v][i:]) for f in complex_.maximal_faces for v in f if v not in medial):
        raise NotStandardOrangeError("non-medial vertex has nonzero coordinates in the medial span")
    return profile, project_orange(complex_).complex


def _keys(complex_: SimplicialComplex, d: int, q: int) -> list[tuple[int, ...]]:
    """The degree-d lattice's keys times q: the same points over a q times
    larger denominator."""
    points = complex_domain_points(complex_, d)
    return [p.key for p in points] if q == 1 else [tuple(q * n for n in p.key) for p in points]


def layer_decomposition(complex_: SimplicialComplex, d: int) -> LayerDecomposition:
    """Slice the lattice of a standard orange into scaled-star layers.

    For each level j = 0..d the degree-j lattice of the projected star,
    scaled by j/d, reappears once per tail multi-index of sum d - j; the
    function verifies that these slices are pairwise disjoint and cover the
    full lattice exactly, raising SetMismatchError otherwise.

    It runs on integer keys over one denominator L * max(d, 1), L the lcm
    of the orange's and the star's common denominators (both lattices'
    keys are scaled to it by the quotient).  The star's degree-j key over
    den * j, scaled by j/d, is the same integer tuple over den * d; at
    j = 0 (and so at d = 0) the star's degree-0 lattice is the origin by
    convention.  A tail shift
    beta/d is beta * L over L * d, and a layer point is a base head
    followed by a shift tail.  The disjointness and coverage checks
    compare these tuples with the orange's own lattice keys, and each
    ``Layer`` keeps its keys; no ``Fraction`` is built until a view is read.
    """
    _check_nonnegative(d, "degree")
    profile, star = _standard_split(complex_)
    fiber = profile.k - profile.i
    common = lcm(complex_.den, star.den)
    scale = common * max(d, 1)
    lattice = set(_keys(complex_, d, common // complex_.den))
    layers = []
    covered: dict[tuple[int, ...], int] = {}
    for j in range(d + 1):
        # sorted, as the star's lattice keys are
        heads = tuple(_keys(star, j, common // star.den))
        tails = tuple(tuple(common * b for b in beta) for beta in _multiindices(fiber, d - j))
        for tail in tails:
            for head in heads:
                key = head + tail
                if key in covered:
                    raise SetMismatchError(
                        f"levels {covered[key]} and {j} both produce the point "
                        f"{_coordinates(key, scale)}"
                    )
                covered[key] = j
        layers.append(Layer(level=j, d=d, scale=scale, heads=heads, tails=tails))

    if covered.keys() != lattice:
        missing = lattice - covered.keys()
        extra = covered.keys() - lattice
        raise SetMismatchError(
            f"layer union misses {len(missing)} lattice points and "
            f"adds {len(extra)} foreign ones"
        )
    return LayerDecomposition(
        d=d, fiber_dim=fiber, star=star, layers=tuple(layers), total=len(covered)
    )


# ---------------------------------------------------------------------------
# Bernstein basis change
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _bernstein_data(
    vertices: tuple[Point, ...], d: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[Fraction, ...], ...]]:
    """(multi-indices, inverse) for one simplex and degree: the inverse of
    the matrix whose column a holds the Bernstein polynomial B_a in
    monomial coordinates (rows ordered like monomials_upto), which converts
    monomial coefficient vectors to Bernstein ones.  The cache keeps the 32
    most recently used (simplex, degree) pairs, a few KB each at d = 3, so
    converting on ever new simplices holds a bounded amount of memory.
    """
    nv = len(vertices)
    ambient = len(vertices[0]) if nv else 0
    if nv != ambient + 1:
        raise ValueError("Bernstein conversion needs a full-dimensional simplex")
    # barycentric coordinate functions from the inverse vertex matrix
    a = [[Fraction(vertices[j][c]) for j in range(nv)] for c in range(ambient)]
    a.append([Fraction(1)] * nv)
    ainv = invert_matrix(a)
    lambdas = []
    for l in range(nv):
        lambdas.append(
            Polynomial.linear(ainv[l][:ambient], ainv[l][ambient])
            if ambient
            else Polynomial.constant(0, ainv[l][0])
        )
    indices = _multiindices(nv, d)
    monos = monomials_upto(ambient, d)
    mono_pos = {m: r for r, m in enumerate(monos)}
    n = len(monos)
    if len(indices) != n:
        raise AssertionError("lattice size must match monomial count")
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for col, alpha in enumerate(indices):
        coeff = Fraction(factorial(d))
        for x in alpha:
            coeff /= factorial(x)
        b = Polynomial.constant(ambient, coeff)
        for l, x in enumerate(alpha):
            if x:
                b = b * lambdas[l] ** x
        for e, v in b.coeffs.items():
            matrix[mono_pos[e]][col] = v
    return indices, tuple(map(tuple, invert_matrix(matrix)))


def monomial_to_bb(
    poly: Polynomial, vertices: tuple[Point, ...] | list[Point], d: int
) -> dict[tuple[int, ...], Fraction]:
    """Bernstein coefficients (by multi-index) of a degree <= d polynomial
    in the coordinates of the simplex, which ``_simplex`` checks."""
    _check_nonnegative(d, "degree")
    if poly.degree() > d:
        raise ValueError(f"degree {poly.degree()} exceeds the target degree {d}")
    simplex = _simplex(vertices)
    if poly.nvars != simplex.ambient_dim:
        raise ValueError(f"polynomial in {poly.nvars} variables on a simplex in R^{simplex.ambient_dim}")
    indices, inverse = _bernstein_data(simplex.vertices, d)
    monos = monomials_upto(simplex.ambient_dim, d)
    terms = [(c, v) for c, v in enumerate(poly.coefficient(m) for m in monos) if v]
    out = {}
    for row, alpha in enumerate(indices):
        inv = inverse[row]
        out[alpha] = sum((inv[c] * v for c, v in terms if inv[c]), Fraction(0))
    return out


# ---------------------------------------------------------------------------
# determining sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeterminingSet:
    """Greedily selected domain points whose coefficients pin down a spline."""

    r: int
    d: int
    dimension: int
    points: tuple[IdentifiedPoint, ...]


def _hub_order(complex_: SimplicialComplex, d: int) -> list[int]:
    """The lattice's positions ordered by hub distance layer, then
    coordinates.

    The hub is the lowest-index medial vertex of the orange (the center of
    a star); its lattice distance d - alpha_hub grades the points from the
    hub outward, which makes the greedy selection reproducible.
    """
    hub = detect_orange(complex_).medial[0]
    points = complex_domain_points(complex_, d)
    faces = complex_.maximal_faces

    def layer(at: int) -> int:
        best = d
        for fidx, alpha in points[at].occurrences:
            face = faces[fidx]
            if hub in face:
                best = min(best, d - alpha[face.index(hub)])
        return best

    # the lattice comes sorted by coordinates, and the sort is stable
    return sorted(range(len(points)), key=layer)


def _affine_dependences(
    complex_: SimplicialComplex,
) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
    """(s, t, D, [-v_l]) per facet-adjacent pair, kept once per complex
    instance: v is the primitive affine dependence of T_s's vertices and
    w, the vertex of T_t off T_s, on the stored integers, with v_w = D > 0
    (see ``_smoothness_rows``).  It depends on the pair alone, not on
    (r, d).  The caller has checked the faces: T_s is an independent
    k-simplex in R^k, so its k + 1 vertices and w carry exactly one affine
    dependence, and it is nonzero at w.

    A standard model built by ``projection.standard_form`` takes its
    star's dependences, zero-padded over the tail: its faces are the
    star's, each followed by the tail vertices den * e_j, and every other
    vertex has a zero tail, so the tail coordinates force each tail
    entry of the dependence to 0 and leave the star's, which ``lift_mds``
    reads anyway."""
    memo = complex_._memo
    if "affine dependences" in memo:
        return memo["affine dependences"]
    star = memo.get("standard of")
    if star is not None:
        pad = (0,) * (complex_.ambient_dim - star.ambient_dim)
        dependences = [(s, t, scale, lam + pad) for s, t, scale, lam in _affine_dependences(star)]
    else:
        faces = complex_.maximal_faces
        nums = complex_.nums
        dependences = []
        for s, t in adjacent_pairs(complex_):
            face_s = faces[s]
            (w,) = [v for v in faces[t] if v not in face_s]
            n = len(face_s)
            hosts = [nums[v] for v in face_s] + [nums[w]]
            coordinate_rows = [
                {j: x[c] for j, x in enumerate(hosts) if x[c]}
                for c in range(complex_.ambient_dim)
            ]
            (dependence,) = _integer_kernel(
                [*coordinate_rows, dict.fromkeys(range(n + 1), 1)], n + 1
            )
            dependences.append(
                (s, t, dependence[n], tuple(-dependence.get(l, 0) for l in range(n)))
            )
    memo["affine dependences"] = tuple(dependences)
    return memo["affine dependences"]


def _smoothness_rows(
    complex_: SimplicialComplex,
    r: int,
    d: int,
    groups: Sequence[Sequence[_Occurrence]],
) -> list[IntRow]:
    """C^r conditions on Bernstein coefficients, column g for every
    (face, multi-index) occurrence in ``groups[g]``.

    For facet-adjacent faces T_s, T_t with w the vertex of T_t off T_s and
    lambda its barycentric coordinates on T_s, the pieces join C^r exactly
    when, for m = 0..r and every |beta| = d - m on the shared facet,
    c^t_(beta, m) = sum over |gamma| = m of (m! / gamma!) lambda^gamma
    c^s_(beta, 0) + gamma (Lai & Schumaker, *Spline Functions on
    Triangulations*, 2007, Thm 2.28).  Coefficients are looked up through
    the occurrences.  At d > 0 the m = 0 conditions are not built: both
    sides are one identified point of the shared facet.  At d = 0 two
    pieces' points can differ, and a row that cancels to zero is dropped.

    The rows are built over the integers.  The affine dependence of T_s's
    vertices and w, on the complex's stored integers, is one primitive
    kernel vector v with v_w = D > 0 (kept per pair by ``_affine_dependences``),
    so lambda_l = -v_l / D.  By Cramer's rule, (D, -v_l) is (Delta,
    Delta_l) over their gcd, times the sign of Delta: Delta = det[T_s; 1],
    and Delta_l has column l replaced by [w; 1].
    The order-m rows are scaled by D^m: the t-entry is D^m and the
    s-entries are -(m! / gamma!) prod (-v_l)^gamma_l.  With its content
    stripped, each row is the primitive integer multiple of the rational
    condition, with the same signs.  When min(r, d) = 0 no order >= 1 row
    is built, the m = 0 rows have weight 1 and scale D^0 = 1, and the
    pairs come from ``adjacent_pairs`` without a dependence.  A lattice of
    one point, the d = 0 lattice of every star and standard model, reads
    no pair: every condition joins that point with itself, and the
    weights of a condition sum to D^m, so its row cancels.
    """
    if len(groups) == 1:
        # every condition joins the one point with itself
        return []
    column = {occ: g for g, occurrences in enumerate(groups) for occ in occurrences}
    faces = complex_.maximal_faces
    if min(r, d):
        pairs = _affine_dependences(complex_)
    else:
        pairs = [(s, t, 1, ()) for s, t in adjacent_pairs(complex_)]
    rows: list[IntRow] = []
    for s, t, scale, lam in pairs:
        face_s, face_t = faces[s], faces[t]
        shared = [v for v in face_s if v in face_t]
        (w,) = [v for v in face_t if v not in face_s]
        n = len(face_s)
        pos_s = [face_s.index(v) for v in shared]
        pos_t = [face_t.index(v) for v in shared]
        for m in range(1 if d else 0, min(r, d) + 1):
            weights = []
            for gamma in _multiindices(n, m):
                weight = factorial(m) // prod(map(factorial, gamma)) * prod(
                    x**g for x, g in zip(lam, gamma)
                )
                if weight:
                    weights.append((gamma, weight))
            for beta in _multiindices(len(shared), d - m):
                alpha_t = [0] * len(face_t)
                alpha_t[face_t.index(w)] = m
                base_s = [0] * n
                for b, ps, pt in zip(beta, pos_s, pos_t):
                    alpha_t[pt] = b
                    base_s[ps] = b
                row = {column[(t, tuple(alpha_t))]: scale**m}
                for gamma, weight in weights:
                    col = column[(s, tuple(a + g for a, g in zip(base_s, gamma)))]
                    row[col] = row.get(col, 0) - weight
                row = _strip_content({c: v for c, v in row.items() if v})
                if row:
                    rows.append(row)
    return rows


def _system(
    complex_: SimplicialComplex, r: int, d: int
) -> tuple[tuple[IdentifiedPoint, ...], list[IntRow]]:
    """(points in hub order, C^r conditions on them), once per complex
    instance and (r, d), after r and d are checked.  The complex's points
    and faces are checked first (``SimplicialComplex._check_faces``): a
    ragged or flat complex, a missing or duplicate vertex or nested faces
    raise InvalidComplexError.  Then ``_hub_order`` rejects non-oranges
    before anything is built.
    The conditions are integer rows as built, each the rational condition
    scaled by D^m (see ``_smoothness_rows``); row scaling keeps the row
    space and the column matroid, so every rank and greedy pick is that of
    the rational system.

    The rows are built over the lattice's groups (``_lattice``) and then
    put in the instance's column order, hub layer first, then coordinates,
    entry by entry in the order built.  At d >= 1 they are shared: an
    invertible affine map keeps every barycentric coordinate, so each
    condition, read over (face, multi-index) columns, is the same rational
    row on every affine image, and its primitive integer multiple with a
    positive t-entry is the same integer row.  So the rows are one entry
    per normal form key (``cofactor._normal_key``) and (r, d), over the
    shared groups, built on whichever image misses first and identical on
    every other.  At d = 0 the groups are the instance's own, and so are
    the rows."""
    _check_nonnegative(r, "smoothness order")
    memo = ("system", r, _check_int(d, "degree"))
    if memo not in complex_._memo:
        complex_._check_faces()
        order = _hub_order(complex_, d)
        points, group_of, groups = _lattice(complex_, d)
        column = [0] * len(points)
        for col, at in enumerate(order):
            column[group_of[at]] = col

        def build() -> tuple[tuple[tuple[int, int], ...], ...]:
            return tuple(tuple(row.items()) for row in _smoothness_rows(complex_, r, d, groups))

        rows = _shared.fetch((_normal_key(complex_), r, d), build) if d > 0 else build()
        complex_._memo[memo] = (
            tuple(points[at] for at in order),
            [{column[g]: v for g, v in row} for row in rows],
        )
    return complex_._memo[memo]


def _determines(
    complex_: SimplicialComplex, r: int, d: int, hosts: list[tuple[int, tuple[int, ...]]]
) -> bool:
    """Whether the points with these (face, multi-index) hosts form a minimal
    determining set: dim-many hosts, all in the lattice, and the system's
    columns outside them independent."""
    points, rows = _system(complex_, r, d)
    column = {occ: col for col, p in enumerate(points) for occ in p.occurrences}
    if len(hosts) != spline_dim(complex_, r, d) or any(h not in column for h in hosts):
        return False
    chosen = {column[h] for h in hosts}
    rest = [{c: v for c, v in row.items() if c not in chosen} for row in rows]
    return len(_echelon(rest)) == len(points) - len(chosen)


def bernstein_dim(complex_: SimplicialComplex, r: int, d: int) -> int:
    """dim S^r_d of an orange as the nullity of the Bernstein-form system:
    the number of domain points minus the rank of the C^r conditions; 0 at
    a negative degree, whose lattice is empty."""
    points, rows = _system(complex_, r, d)
    return len(points) - len(_echelon(rows))


# a perfbench round of mds_lift (120 ops on affine images of six oranges)
# fills 51 entries, whatever the seed, so no op evicts an entry that a
# later op of its round reads
_shared = _LRUCache(maxsize=256)


def _cache_info():
    return _shared.info()


bernstein_dim.cache_info = _cache_info  # type: ignore[attr-defined]


def compute_mds(complex_: SimplicialComplex, r: int, d: int) -> DeterminingSet:
    """Greedy minimal determining set, grown outward from the hub.

    A set M of points determines the spline space exactly when the
    smoothness system's columns outside M are independent, so the greedy
    hub-order selection is the complement of the greedy column basis taken
    in reverse hub order (matroid duality; Oxley, *Matroid Theory*, §2).
    The system's integer columns go straight to the kernel's ``_reduce``
    on one pivot dict, from the outermost point in; the ones that vanish
    are the selection.  Its size must equal the cofactor oracle's
    dimension.

    ``complex_`` must be an orange: the selection grows outward from its
    medial face, and ``detect_orange`` rejects anything else."""
    points, rows = _system(complex_, r, d)
    columns: list[IntRow] = [{} for _ in points]
    for i, row in enumerate(rows):
        for c, v in row.items():
            columns[c][i] = v
    pivots: dict[int, IntRow] = {}
    rejected = [c for c in reversed(range(len(points))) if not _reduce(columns[c], pivots)]
    selected = tuple(points[c] for c in reversed(rejected))
    dim = spline_dim(complex_, r, d)
    if len(selected) != dim:
        raise AssertionError(
            f"Bernstein system leaves {len(selected)} free coefficients, "
            f"the cofactor oracle says dimension {dim}"
        )
    return DeterminingSet(r=r, d=d, dimension=dim, points=selected)


def verify_mds(
    complex_: SimplicialComplex, r: int, d: int, ds: DeterminingSet | None = None
) -> bool:
    """Whether ``ds`` (by default the greedy set) is a minimal determining
    set: it has dim-many points and the smoothness system's columns outside
    them are independent."""
    if ds is None:
        ds = compute_mds(complex_, r, d)
    return _determines(complex_, r, d, [p.occurrences[0] for p in ds.points])


# ---------------------------------------------------------------------------
# lifting a determining set to the standard orange
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftedPoint:
    """A determining point of the standard orange, tagged with its level:
    the lattice point's integer numerators ``key`` over ``scale``, the
    orange's denominator times max(d, 1), and its first (face,
    multi-index) occurrence."""

    key: tuple[int, ...]
    scale: int
    face: int
    multi_index: tuple[int, ...]
    level: int

    @cached_property
    def coordinates(self) -> Point:
        """The point as ``Fraction``s: ``key`` over ``scale``."""
        return _coordinates(self.key, self.scale)


@dataclass(frozen=True)
class LiftedDeterminingSet:
    r: int
    d: int
    points: tuple[LiftedPoint, ...]
    per_level: tuple[tuple[int, int, int], ...]
    """(level j, star determining-set size, shift multiplicity) triples."""
    total: int
    formula_value: int


def lift_mds(complex_: SimplicialComplex, r: int, d: int) -> LiftedDeterminingSet:
    """Lift determining sets of the projected star to the standard orange.

    Level j carries the star's degree-j determining set, scaled by j/d,
    copied once per tail multi-index of sum d - j.  The union's cardinality
    must equal both the levelwise count and the closed-form dimension, and
    the lifted selection matrix must be invertible; violations raise
    CardinalityMismatchError.

    Each lifted point is read off the orange's degree-d lattice by its
    key, the star point's own key followed by the tail beta, on integers
    over L * d as in ``layer_decomposition``; a key off the lattice raises
    CardinalityMismatchError.  It keeps the lattice point's key and scale,
    and its coordinates are derived only when read.  ``_project`` numbers
    the star's vertices in the orange's order, so the lattice point's
    first occurrence, its face and multi-index, lies on the lift of the
    star point's own face.
    """
    profile, star = _standard_split(complex_)
    fiber = profile.k - profile.i
    common = lcm(complex_.den, star.den)
    lattice = complex_domain_points(complex_, d)
    keys = _keys(complex_, d, common // complex_.den)

    # one star system through degree d answers every level's dimension
    spline_dims(star, r, d)
    lifted: list[LiftedPoint] = []
    seen: dict[int, int] = {}
    per_level = []
    for j in range(d + 1):
        betas = _multiindices(fiber, d - j)
        if not betas:
            continue
        mds_j = compute_mds(star, r, j)
        per_level.append((j, len(mds_j.points), len(betas)))
        for star_point in mds_j.points:
            head = tuple(common // star.den * n for n in star_point.key)
            for beta in betas:
                key = head + tuple(common * b for b in beta)
                at = bisect_left(keys, key)
                if at == len(keys) or keys[at] != key:
                    raise CardinalityMismatchError(
                        f"level {j} lifts {star_point.coordinates} off the degree-{d} lattice"
                    )
                point = lattice[at]
                if at in seen:
                    raise CardinalityMismatchError(
                        f"levels {seen[at]} and {j} lift to the same point {point.coordinates}"
                    )
                seen[at] = j
                lifted.append(LiftedPoint(point.key, point.scale, *point.occurrences[0], j))

    # one point per (star point, shift) pair, so this is the levelwise count
    total = len(lifted)
    formula_value = orange_dim_formula(complex_, r, d)
    if total != formula_value:
        raise CardinalityMismatchError(
            f"lift cardinality {total} differs from the "
            f"closed-form dimension {formula_value}"
        )

    # rank test: the lifted coefficients must pin down every spline
    dim = spline_dim(complex_, r, d)
    if dim != total:
        raise CardinalityMismatchError(
            f"spline space has dimension {dim}, lift has {total} points"
        )
    if not _determines(complex_, r, d, [(p.face, p.multi_index) for p in lifted]):
        raise CardinalityMismatchError("lifted selection matrix is singular")

    return LiftedDeterminingSet(
        r=r,
        d=d,
        points=tuple(lifted),
        per_level=tuple(per_level),
        total=total,
        formula_value=formula_value,
    )
