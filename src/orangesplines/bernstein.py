"""Bernstein form on simplicial complexes.

Domain-point lattices, the layer structure of a standard orange's lattice,
determining sets, and the lifting of determining sets from the projected
star to the standard orange together with the cardinality bookkeeping that
reproduces the closed-form dimension.

A degree-d polynomial on a k-simplex is written in the Bernstein basis
B_a = (d choose a) * lambda^a over barycentric coordinates lambda; its
coefficients sit at the domain points xi_a = sum (a_l / d) v_l.  Degree 0
has a single coefficient, attached by convention to the simplex's first
vertex (the lattice formula degenerates there).

A spline is one coefficient per identified domain point, and C^r
smoothness is one sparse linear system on those coefficients: the
conditions of Lai & Schumaker (*Spline Functions on Triangulations*, 2007,
Thm 2.28) across every shared facet.  Everything about determining sets is
read off that system.  A set M of points determines the spline space
exactly when the system's columns outside M are independent, so by matroid
duality the greedy hub-outward selection is the complement of the greedy
column basis taken from the outside in (Oxley, *Matroid Theory*, §2), and
verifying a set is one rank computation.

The system's nullity, ``bernstein_dim``, is the third derivation of the
dimension, next to the cofactor oracle (``cofactor.spline_dim``) and the
closed form through the projected star (``dimension.orange_dim_formula``).
The monomial-to-Bernstein conversions stay available for single
polynomials; no determining-set computation uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .cofactor import spline_dim
from .complexes import (
    OrangeProfile,
    Point,
    SimplicialComplex,
    adjacent_pairs,
    barycentric_coordinates,
    detect_orange,
)
from .exact import EchelonBasis, RationalMatrix, invert_matrix
from .polynomials import Polynomial, monomials_upto
from .projection import ProjectedOrange, project_orange

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
    "bb_to_monomial",
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
    """One lattice point of one host simplex."""

    coordinates: Point
    face: int
    multi_index: tuple[int, ...]


@dataclass(frozen=True)
class IdentifiedPoint:
    """A lattice point of the whole complex.

    ``occurrences`` lists every (maximal face index, multi-index) pair whose
    lattice point has these exact coordinates.
    """

    coordinates: Point
    occurrences: tuple[tuple[int, tuple[int, ...]], ...]


@lru_cache(maxsize=None)
def simplex_multiindices(nverts: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices of length nverts summing to d, lex descending."""
    if nverts <= 0:
        raise ValueError("a simplex has at least one vertex")
    if nverts == 1:
        return ((d,),)
    out = []
    for first in range(d, -1, -1):
        for rest in simplex_multiindices(nverts - 1, d - first):
            out.append((first,) + rest)
    return tuple(out)


def simplex_domain_points(
    vertices: tuple[Point, ...] | list[Point], d: int, face: int = 0
) -> list[DomainPoint]:
    """Degree-d lattice of one simplex: binom(d + m, m) points, m = dim."""
    if d < 0:
        raise ValueError("degree must take a nonnegative value")
    verts = tuple(tuple(Fraction(c) for c in v) for v in vertices)
    indices = simplex_multiindices(len(verts), d)
    if d == 0:
        return [DomainPoint(coordinates=verts[0], face=face, multi_index=indices[0])]
    # integer numerators over one common denominator: one Fraction per coordinate
    den = lcm(*(c.denominator for v in verts for c in v))
    nums = [[c.numerator * (den // c.denominator) for c in v] for v in verts]
    columns = list(zip(*nums))
    return [
        DomainPoint(
            coordinates=tuple(
                Fraction(sum(x * n for x, n in zip(a, col)), den * d) for col in columns
            ),
            face=face,
            multi_index=a,
        )
        for a in indices
    ]


def complex_domain_points(complex_: SimplicialComplex, d: int) -> list[IdentifiedPoint]:
    """Lattice of the whole complex, identified by exact coordinates.

    Points are returned sorted by coordinates; each carries every host face
    and multi-index that produces it.
    """
    buckets: dict[Point, list[tuple[int, tuple[int, ...]]]] = {}
    for fidx, face in enumerate(complex_.maximal_faces):
        verts = tuple(complex_.vertices[v] for v in face)
        for dp in simplex_domain_points(verts, d, face=fidx):
            buckets.setdefault(dp.coordinates, []).append((fidx, dp.multi_index))
    return [
        IdentifiedPoint(coordinates=coords, occurrences=tuple(sorted(buckets[coords])))
        for coords in sorted(buckets)
    ]


# ---------------------------------------------------------------------------
# layer structure of a standard orange's lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Layer:
    """Level-j slice of the standard orange's lattice.

    ``base_points`` is the degree-j lattice of the projected star scaled by
    j/d and embedded with zero tail coordinates; every point of the layer is
    a base point plus one of the ``shifts`` (tail vectors with index sum
    d - j).
    """

    level: int
    factor: Fraction
    base_points: tuple[Point, ...]
    shifts: tuple[Point, ...]
    points: tuple[Point, ...]


@dataclass(frozen=True)
class LayerDecomposition:
    d: int
    fiber_dim: int
    star: SimplicialComplex
    layers: tuple[Layer, ...]
    total: int


def _standard_split(
    complex_: SimplicialComplex,
) -> tuple[OrangeProfile, ProjectedOrange, list[int]]:
    """Check standard position and return (profile, projection, tail ids).

    Standard position: the medial face consists of the origin plus the unit
    vectors of the last fiber coordinates, and every other vertex has zero
    tail coordinates.
    """
    profile = detect_orange(complex_)
    k, i = profile.k, profile.i
    fiber = k - i
    origin = (Fraction(0),) * k
    medial_points = {complex_.vertices[m]: m for m in profile.medial}
    if origin not in medial_points:
        raise ValueError("standard orange must have a medial vertex at the origin")
    expected_tails = []
    for t in range(fiber):
        e = [Fraction(0)] * k
        e[i + t] = Fraction(1)
        expected_tails.append(tuple(e))
    for e in expected_tails:
        if e not in medial_points:
            raise ValueError(
                "standard orange must have medial vertices at the last unit vectors"
            )
    if len(medial_points) != fiber + 1:
        raise ValueError("medial face of a standard orange has extra vertices")
    tail_ids = [medial_points[e] for e in expected_tails]
    tail_set = set(tail_ids)
    used = {v for f in complex_.maximal_faces for v in f}
    for vid in used:
        if vid in tail_set:
            continue
        if any(complex_.vertices[vid][i + t] for t in range(fiber)):
            raise ValueError(
                "non-medial vertex has nonzero coordinates in the medial span"
            )
    return profile, project_orange(complex_, profile), tail_ids


def _tail_shifts(d: int, j: int, i: int, fiber: int, k: int) -> list[tuple[tuple[int, ...], Point]]:
    """Shift vectors for level j: tail multi-indices beta with |beta| = d - j
    paired with the points (0, ..., 0, beta/d)."""
    if fiber == 0:
        if j != d:
            return []
        return [((), (Fraction(0),) * k)]
    out = []
    for beta in simplex_multiindices(fiber, d - j):
        coords = [Fraction(0)] * k
        for t in range(fiber):
            if beta[t]:
                coords[i + t] = Fraction(beta[t], d)
        out.append((beta, tuple(coords)))
    return out


def layer_decomposition(complex_: SimplicialComplex, d: int) -> LayerDecomposition:
    """Slice the lattice of a standard orange into scaled-star layers.

    For each level j = 0..d the degree-j lattice of the projected star,
    scaled by j/d, reappears once per tail multi-index of sum d - j; the
    function verifies that these slices are pairwise disjoint and cover the
    full lattice exactly, raising SetMismatchError otherwise.
    """
    if d < 0:
        raise ValueError("degree must take a nonnegative value")
    profile, projected, _ = _standard_split(complex_)
    i, fiber, star = profile.i, profile.k - profile.i, projected.complex
    k = complex_.ambient_dim
    lattice = {p.coordinates for p in complex_domain_points(complex_, d)}

    layers = []
    covered: dict[Point, int] = {}
    total = 0
    for j in range(d + 1):
        factor = Fraction(j, d) if d else Fraction(0)
        star_points = {p.coordinates for p in complex_domain_points(star, j)}
        base = sorted(
            {
                tuple(factor * c for c in p) + (Fraction(0),) * fiber
                for p in star_points
            }
        )
        shifts = _tail_shifts(d, j, i, fiber, k)
        points = []
        for _, shift in shifts:
            for b in base:
                pt = tuple(b[c] + shift[c] for c in range(k))
                if pt in covered:
                    raise SetMismatchError(
                        f"levels {covered[pt]} and {j} both produce the point {pt}"
                    )
                covered[pt] = j
                points.append(pt)
        total += len(points)
        layers.append(
            Layer(
                level=j,
                factor=factor,
                base_points=tuple(base),
                shifts=tuple(s for _, s in shifts),
                points=tuple(sorted(points)),
            )
        )

    if set(covered) != lattice:
        missing = lattice - set(covered)
        extra = set(covered) - lattice
        raise SetMismatchError(
            f"layer union misses {len(missing)} lattice points and "
            f"adds {len(extra)} foreign ones"
        )
    return LayerDecomposition(
        d=d, fiber_dim=fiber, star=star, layers=tuple(layers), total=total
    )


# ---------------------------------------------------------------------------
# Bernstein basis change
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernstein_data(
    vertices: tuple[Point, ...], d: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[Fraction, ...], ...], tuple[tuple[Fraction, ...], ...]]:
    """(multi-indices, monomial matrix, inverse) for one simplex and degree.

    The monomial matrix's column a holds the Bernstein polynomial B_a in
    monomial coordinates (rows ordered like monomials_upto); the inverse
    therefore converts monomial coefficient vectors to Bernstein ones.
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
    indices = simplex_multiindices(nv, d)
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
    inverse = invert_matrix(matrix)
    return (
        indices,
        tuple(tuple(row) for row in matrix),
        tuple(tuple(row) for row in inverse),
    )


def monomial_to_bb(
    poly: Polynomial, vertices: tuple[Point, ...] | list[Point], d: int
) -> dict[tuple[int, ...], Fraction]:
    """Bernstein coefficients (by multi-index) of a degree <= d polynomial."""
    if poly.degree() > d:
        raise ValueError(f"degree {poly.degree()} exceeds the target degree {d}")
    verts = tuple(tuple(Fraction(c) for c in v) for v in vertices)
    indices, _, inverse = _bernstein_data(verts, d)
    ambient = len(verts[0])
    monos = monomials_upto(ambient, d)
    terms = [(c, v) for c, v in enumerate(poly.coefficient(m) for m in monos) if v]
    out = {}
    for row, alpha in enumerate(indices):
        inv = inverse[row]
        out[alpha] = sum((inv[c] * v for c, v in terms if inv[c]), Fraction(0))
    return out


def bb_to_monomial(
    coeffs: dict[tuple[int, ...], Fraction],
    vertices: tuple[Point, ...] | list[Point],
    d: int,
) -> Polynomial:
    """Polynomial with the given Bernstein coefficients on the simplex."""
    verts = tuple(tuple(Fraction(c) for c in v) for v in vertices)
    indices, matrix, _ = _bernstein_data(verts, d)
    ambient = len(verts[0])
    monos = monomials_upto(ambient, d)
    col_of = {alpha: c for c, alpha in enumerate(indices)}
    vec = [Fraction(0)] * len(indices)
    for alpha, v in coeffs.items():
        vec[col_of[tuple(alpha)]] = Fraction(v)
    out = {}
    for row, mono in enumerate(monos):
        val = sum((matrix[row][c] * vec[c] for c in range(len(vec))), Fraction(0))
        if val:
            out[mono] = val
    return Polynomial(ambient, out)


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


def _ordered_points(
    complex_: SimplicialComplex, d: int
) -> list[IdentifiedPoint]:
    """Domain points ordered by hub distance layer, then coordinates.

    The hub is the lowest-index medial vertex of the orange (the center of
    a star); its lattice distance d - alpha_hub grades the points from the
    hub outward, which makes the greedy selection reproducible.
    """
    hub = detect_orange(complex_).medial[0]
    points = complex_domain_points(complex_, d)

    def layer(p: IdentifiedPoint) -> int:
        best = d
        for fidx, alpha in p.occurrences:
            face = complex_.maximal_faces[fidx]
            if hub in face:
                best = min(best, d - alpha[face.index(hub)])
        return best

    return sorted(points, key=lambda p: (layer(p), p.coordinates))


def _column_index(
    points: list[IdentifiedPoint],
) -> dict[tuple[int, tuple[int, ...]], int]:
    """(face, multi-index) -> position of its identified point in ``points``."""
    return {occ: col for col, p in enumerate(points) for occ in p.occurrences}


def _smoothness_rows(
    complex_: SimplicialComplex, r: int, d: int, points: list[IdentifiedPoint]
) -> list[dict[int, Fraction]]:
    """C^r conditions on Bernstein coefficients, one column per point.

    For facet-adjacent faces T_s, T_t with w the vertex of T_t off T_s and
    lambda its barycentric coordinates on T_s, the pieces join C^r exactly
    when, for m = 0..r and every |beta| = d - m on the shared facet,
    c^t_(beta, m) = sum over |gamma| = m of (m! / gamma!) lambda^gamma
    c^s_(beta, 0) + gamma (Lai & Schumaker, *Spline Functions on
    Triangulations*, 2007, Thm 2.28).  Coefficients are looked up through
    the points' occurrences; rows that cancel to zero are dropped (the
    m = 0 rows, except at d = 0 where each piece's point is its first
    vertex).
    """
    column = _column_index(points)
    faces = complex_.maximal_faces
    rows = []
    for s, t in adjacent_pairs(complex_):
        face_s, face_t = faces[s], faces[t]
        shared = [v for v in face_s if v in face_t]
        (w,) = [v for v in face_t if v not in face_s]
        lam = barycentric_coordinates(
            complex_.vertices[w], [complex_.vertices[v] for v in face_s]
        )
        pos_s = [face_s.index(v) for v in shared]
        pos_t = [face_t.index(v) for v in shared]
        for m in range(min(r, d) + 1):
            weights = []
            for gamma in simplex_multiindices(len(face_s), m):
                weight = Fraction(factorial(m))
                for l, g in enumerate(gamma):
                    weight *= lam[l] ** g / factorial(g)
                if weight:
                    weights.append((gamma, weight))
            for beta in simplex_multiindices(len(shared), d - m):
                alpha_t = [0] * len(face_t)
                alpha_t[face_t.index(w)] = m
                base_s = [0] * len(face_s)
                for b, ps, pt in zip(beta, pos_s, pos_t):
                    alpha_t[pt] = b
                    base_s[ps] = b
                row = {column[(t, tuple(alpha_t))]: Fraction(1)}
                for gamma, weight in weights:
                    col = column[(s, tuple(a + g for a, g in zip(base_s, gamma)))]
                    row[col] = row.get(col, Fraction(0)) - weight
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


def _columns_independent(
    rows: list[dict[int, Fraction]], ncols: int, chosen: set[int]
) -> bool:
    """Whether the system's columns outside ``chosen`` are independent."""
    rest = [{c: v for c, v in row.items() if c not in chosen} for row in rows]
    return RationalMatrix.from_sparse(rest, ncols).rank() == ncols - len(chosen)


def bernstein_dim(complex_: SimplicialComplex, r: int, d: int) -> int:
    """dim S^r_d of an orange as the nullity of the Bernstein-form system:
    the number of domain points minus the rank of the C^r conditions."""
    if r < 0:
        raise ValueError("smoothness order must be nonnegative")
    detect_orange(complex_)
    if d < 0:
        return 0
    points = complex_domain_points(complex_, d)
    rows = _smoothness_rows(complex_, r, d, points)
    return len(points) - RationalMatrix.from_sparse(rows, len(points)).rank()


def _select(
    complex_: SimplicialComplex,
    r: int,
    d: int,
    ordered: list[IdentifiedPoint],
    rows: list[dict[int, Fraction]],
) -> DeterminingSet:
    """The greedy selection of ``compute_mds`` on an already built system."""
    columns: list[dict[int, Fraction]] = [{} for _ in ordered]
    for i, row in enumerate(rows):
        for c, v in row.items():
            columns[c][i] = v
    tracker = EchelonBasis()
    rejected = []
    for c in reversed(range(len(ordered))):
        if not tracker.add(columns[c]):
            rejected.append(c)
    selected = tuple(ordered[c] for c in reversed(rejected))
    dim = spline_dim(complex_, r, d)
    if len(selected) != dim:
        raise AssertionError(
            f"Bernstein system leaves {len(selected)} free coefficients, "
            f"the cofactor oracle says dimension {dim}"
        )
    return DeterminingSet(r=r, d=d, dimension=dim, points=selected)


def compute_mds(complex_: SimplicialComplex, r: int, d: int) -> DeterminingSet:
    """Greedy minimal determining set, grown outward from the hub.

    A set M of points determines the spline space exactly when the
    smoothness system's columns outside M are independent, so the greedy
    hub-order selection is the complement of the greedy column basis taken
    in reverse hub order (matroid duality; Oxley, *Matroid Theory*, §2).
    The columns go to one ``EchelonBasis`` from the outermost point in; the
    ones it rejects are the selection.  Its size must equal the cofactor
    oracle's dimension.

    ``complex_`` must be an orange: the selection grows outward from its
    medial face, and ``detect_orange`` rejects anything else."""
    ordered = _ordered_points(complex_, d)
    return _select(complex_, r, d, ordered, _smoothness_rows(complex_, r, d, ordered))


def verify_mds(
    complex_: SimplicialComplex, r: int, d: int, ds: DeterminingSet | None = None
) -> bool:
    """Whether ``ds`` (by default the greedy set) is a minimal determining
    set: it has dim-many points and the smoothness system's columns outside
    them are independent."""
    ordered = _ordered_points(complex_, d)
    rows = _smoothness_rows(complex_, r, d, ordered)
    if ds is None:
        ds = _select(complex_, r, d, ordered, rows)
    column = _column_index(ordered)
    hosts = [p.occurrences[0] for p in ds.points]
    if len(hosts) != spline_dim(complex_, r, d) or any(h not in column for h in hosts):
        return False
    return _columns_independent(rows, len(ordered), {column[h] for h in hosts})


# ---------------------------------------------------------------------------
# lifting a determining set to the standard orange
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftedPoint:
    """A determining point of the standard orange, tagged with its level."""

    coordinates: Point
    face: int
    multi_index: tuple[int, ...]
    level: int


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
    """
    from .dimension import orange_dim_formula

    profile, projected, tail_ids = _standard_split(complex_)
    i, fiber, star = profile.i, profile.k - profile.i, projected.complex
    k = complex_.ambient_dim

    # star vertex id -> vertex id in the standard orange, by exact coords
    pad = (Fraction(0),) * fiber
    coord_to_oid = {v: idx for idx, v in enumerate(complex_.vertices)}
    star_oid = {}
    for sid, sv in enumerate(star.vertices):
        key = tuple(sv) + pad
        if key not in coord_to_oid:
            raise ValueError("projected star vertex missing from the standard orange")
        star_oid[sid] = coord_to_oid[key]
    face_index = {f: idx for idx, f in enumerate(complex_.maximal_faces)}

    lifted: list[LiftedPoint] = []
    seen: dict[Point, int] = {}
    per_level = []
    expected_total = 0
    for j in range(d + 1):
        shifts = _tail_shifts(d, j, i, fiber, k)
        if not shifts:
            continue
        mds_j = compute_mds(star, r, j)
        per_level.append((j, len(mds_j.points), len(shifts)))
        expected_total += len(mds_j.points) * len(shifts)
        factor = Fraction(j, d) if d else Fraction(0)
        for point in mds_j.points:
            sfidx, alpha = point.occurrences[0]
            sface = star.maximal_faces[sfidx]
            oface = tuple(sorted([star_oid[v] for v in sface] + tail_ids))
            if oface not in face_index:
                raise ValueError("star face does not lift to a standard-orange face")
            weights = {star_oid[v]: alpha[pos] for pos, v in enumerate(sface)}
            for beta, shift in shifts:
                for t, tid in enumerate(tail_ids):
                    weights[tid] = beta[t]
                multi = tuple(weights.get(vid, 0) for vid in oface)
                if d == 0:
                    coords = complex_.vertices[oface[0]]
                else:
                    base = tuple(factor * c for c in point.coordinates) + pad
                    coords = tuple(base[c] + shift[c] for c in range(k))
                if coords in seen:
                    raise CardinalityMismatchError(
                        f"levels {seen[coords]} and {j} lift to the same point {coords}"
                    )
                seen[coords] = j
                lifted.append(
                    LiftedPoint(
                        coordinates=coords,
                        face=face_index[oface],
                        multi_index=multi,
                        level=j,
                    )
                )

    if len(lifted) != expected_total:
        raise CardinalityMismatchError(
            f"lift produced {len(lifted)} points, levelwise count says {expected_total}"
        )
    formula_value = orange_dim_formula(complex_, r, d, profile, projected)
    if expected_total != formula_value:
        raise CardinalityMismatchError(
            f"lift cardinality {expected_total} differs from the "
            f"closed-form dimension {formula_value}"
        )

    # rank test: the lifted coefficients must pin down every spline
    dim = spline_dim(complex_, r, d)
    if dim != expected_total:
        raise CardinalityMismatchError(
            f"spline space has dimension {dim}, lift has {expected_total} points"
        )
    points = complex_domain_points(complex_, d)
    column = _column_index(points)
    rows = _smoothness_rows(complex_, r, d, points)
    chosen = {column[(p.face, p.multi_index)] for p in lifted}
    if not _columns_independent(rows, len(points), chosen):
        raise CardinalityMismatchError("lifted selection matrix is singular")

    return LiftedDeterminingSet(
        r=r,
        d=d,
        points=tuple(lifted),
        per_level=tuple(per_level),
        total=expected_total,
        formula_value=formula_value,
    )
