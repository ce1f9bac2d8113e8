"""Brute-force spline dimension via the smoothness cofactor criterion.

A piecewise polynomial (one component f_s per maximal face) joins with
order-r smoothness across a shared facet with equation l = 0 exactly when
f_s - f_t is divisible by l**(r+1).  Writing f_s - f_t = c * l**(r+1) with
an unknown cofactor polynomial c of degree d - r - 1 turns membership into
a homogeneous linear system; its solution space projects bijectively onto
the spline space (the cofactor is determined by the difference), so the
spline dimension is the system's nullity.  No structure of the complex is
used beyond facet adjacency, which is what makes this an independent check
for the closed-form computations elsewhere in the package.

The system at degree d is the part of the system at any D >= d in rows
and columns of degree <= d (a cofactor column counts as its monomial's
degree plus r + 1), so ``spline_dims`` builds one system at the top degree
and reads every lower degree off one echelon pass with the columns in
degree order.  When the maximal faces share a vertex (every orange does:
the medial face lies in all of them), every wall passes through it, and
``spline_dims`` first translates that vertex to the origin.  Every wall
form is then homogeneous and the system splits into independent blocks by
exact degree j: the face columns of degree j, the cofactor columns of
degree j - r - 1 and the rows of degree j.  S^r_d is the sum of the blocks
j <= d (Billera & Rose, "A dimension series for multivariate splines",
1991), and the elimination never mixes blocks.  A complex with no shared
vertex (two disjoint segments, the Morgan-Scott split) is eliminated as
given, in one pass all the same.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .complexes import Point, SimplicialComplex, adjacent_pairs
from .exact import RationalMatrix, _echelon, format_rational
from .polynomials import Polynomial, monomials_upto

__all__ = [
    "facet_linear_form",
    "CofactorSystem",
    "build_system",
    "spline_dims",
    "spline_dim",
    "spline_basis",
    "Spline",
]

Spline = tuple[Polynomial, ...]


def facet_linear_form(points: Sequence[Point]) -> Polynomial:
    """Affine form vanishing on the hyperplane through ``points``.

    The points must affinely span a hyperplane (codimension 1).  The form is
    normalized so its first nonzero coefficient, scanning a_1, ..., a_k then
    the constant, equals 1; two calls on the same hyperplane agree exactly.
    """
    k = len(points[0])
    rows = [[Fraction(p[c]) for c in range(k)] + [Fraction(1)] for p in points]
    m = RationalMatrix.from_rows(rows)
    null = m.nullspace()
    if len(null) != 1:
        raise ValueError(
            f"points span a flat of codimension {len(null)}, expected a hyperplane"
        )
    vec = null[0]
    dense = [vec.get(c, Fraction(0)) for c in range(k + 1)]
    lead = next(v for v in dense if v)
    dense = [v / lead for v in dense]
    return Polynomial.linear(dense[:k], dense[k])


@dataclass(frozen=True)
class CofactorSystem:
    """Assembled smoothness system for one complex and one (r, d).

    Columns: first a block of monomial coefficients (total degree <= d,
    graded lex) per maximal face, then a cofactor block (total degree
    <= d - r - 1) per facet-adjacent pair.  Rows: one per pair per monomial
    of degree <= d, expressing f_s - f_t - c * l**(r+1) = 0 coefficientwise.
    """

    complex: SimplicialComplex
    r: int
    d: int
    matrix: RationalMatrix
    n_faces: int
    face_monomials: tuple[tuple[int, ...], ...]
    cofactor_monomials: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[int, int], ...]

    @property
    def face_block_size(self) -> int:
        return len(self.face_monomials)

    def dimension(self) -> int:
        return self.matrix.nullity()

    def describe(self) -> dict:
        """JSON-ready dump of the full system, exact entries as strings."""
        m = self.face_block_size
        mc = len(self.cofactor_monomials)
        nf = self.n_faces
        columns = []
        for s in range(nf):
            for mono in self.face_monomials:
                columns.append({"kind": "coefficient", "face": s, "monomial": list(mono)})
        for s, t in self.pairs:
            for mono in self.cofactor_monomials:
                columns.append(
                    {"kind": "cofactor", "pair": [s, t], "monomial": list(mono)}
                )
        rows = []
        row_iter = iter(self.matrix.rows)
        for s, t in self.pairs:
            for mono in self.face_monomials:
                entries = [[c, format_rational(v)] for c, v in next(row_iter)]
                rows.append({"pair": [s, t], "monomial": list(mono), "entries": entries})
        return {
            "r": self.r,
            "d": self.d,
            "n_faces": nf,
            "face_block_size": m,
            "cofactor_block_size": mc,
            "pairs": [list(p) for p in self.pairs],
            "columns": columns,
            "rows": rows,
        }


def build_system(complex_: SimplicialComplex, r: int, d: int) -> CofactorSystem:
    if r < 0:
        raise ValueError("smoothness order must be nonnegative")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    k = complex_.ambient_dim
    faces = complex_.maximal_faces
    nf = len(faces)
    face_mons = tuple(monomials_upto(k, d))
    cof_mons = tuple(monomials_upto(k, d - r - 1)) if d - r - 1 >= 0 else ()
    pairs = tuple(adjacent_pairs(complex_))
    m = len(face_mons)
    mc = len(cof_mons)
    ncols = nf * m + len(pairs) * mc

    mono_pos = {mono: idx for idx, mono in enumerate(face_mons)}
    rows: list[dict[int, Fraction]] = []
    for p, (s, t) in enumerate(pairs):
        shared = sorted(set(faces[s]) & set(faces[t]))
        ell = facet_linear_form([complex_.vertices[v] for v in shared])
        wall_terms = tuple((ell ** (r + 1)).coeffs.items())
        cof_base = nf * m + p * mc
        pair_rows: list[dict[int, Fraction]] = [
            {s * m + i: Fraction(1), t * m + i: Fraction(-1)} for i in range(m)
        ]
        # u + e is distinct over the terms e of the wall power, so each
        # entry is written once; from_sparse sorts every row
        for u_idx, u in enumerate(cof_mons):
            col = cof_base + u_idx
            for e, c in wall_terms:
                pair_rows[mono_pos[tuple(a + b for a, b in zip(u, e))]][col] = -c
        rows.extend(pair_rows)
    matrix = RationalMatrix.from_sparse(rows, ncols)
    return CofactorSystem(
        complex=complex_,
        r=r,
        d=d,
        matrix=matrix,
        n_faces=nf,
        face_monomials=face_mons,
        cofactor_monomials=cof_mons,
        pairs=pairs,
    )


def spline_dims(complex_: SimplicialComplex, r: int, dmax: int) -> tuple[int, ...]:
    """dim S^r_d for d = 0..dmax, by exact nullity; () when dmax < 0.

    One system is built at dmax and eliminated once.  A face column's
    degree is its monomial's, a cofactor column's is its monomial's plus
    r + 1; a column has entries only in rows of at most its degree, so the
    degree-<=d system is the rows and columns of degree <= d.  With the
    columns ordered by degree, the echelon pass (pivot at each row's lowest
    column) leaves dim S^r_d non-pivot columns of degree <= d.  When the
    maximal faces share a vertex, it is first moved to the origin: every
    wall form is then homogeneous, the system splits into degree blocks
    and the elimination never mixes them, which is much faster.

    The cache keeps the longest prefix computed so far, keyed by value on
    (ambient dimension, vertices, maximal faces, r): no entry keeps a
    complex and its memo alive, equal complexes share entries, and a query
    through any degree already known is a hit.  ``spline_dim.cache_info()``
    reports it as ``functools.lru_cache`` would.
    """
    if r < 0:
        raise ValueError("smoothness order must be nonnegative")
    if dmax < 0:
        return ()
    key = (complex_.ambient_dim, complex_.vertices, complex_.maximal_faces, r)
    dims = _prefixes.get(key, ())
    if len(dims) > dmax:
        _cache_counts[0] += 1
    else:
        _cache_counts[1] += 1
        dims = _prefixes[key] = _graded_dims(*key, dmax)
    return dims[: dmax + 1]


# one lookup per hit: hashing a key's exact vertices is most of a hit's cost
_prefixes: dict[tuple, tuple[int, ...]] = {}
_cache_counts = [0, 0]
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _cache_info() -> _CacheInfo:
    return _CacheInfo(*_cache_counts, None, len(_prefixes))


def _graded_dims(
    ambient_dim: int, vertices: tuple, faces: tuple, r: int, dmax: int
) -> tuple[int, ...]:
    shared = set(faces[0]).intersection(*faces[1:]) if faces else set()
    if shared:
        origin = vertices[min(shared)]
        vertices = [[x - o for x, o in zip(v, origin)] for v in vertices]
    system = build_system(SimplicialComplex(ambient_dim, vertices, faces), r, dmax)
    face_degrees = [sum(mono) for mono in system.face_monomials]
    cofactor_degrees = [sum(mono) + r + 1 for mono in system.cofactor_monomials]
    degrees = face_degrees * system.n_faces + cofactor_degrees * len(system.pairs)
    order = sorted(range(len(degrees)), key=degrees.__getitem__)
    position = {col: at for at, col in enumerate(order)}
    pivots = _echelon({position[c]: v for c, v in row} for row in system.matrix.rows)
    free = [0] * (dmax + 1)
    for at, col in enumerate(order):
        if at not in pivots:
            free[degrees[col]] += 1
    return tuple(accumulate(free))


def spline_dim(complex_: SimplicialComplex, r: int, d: int) -> int:
    """dim of the degree-<=d, order-r spline space, by exact nullity.

    This is the generic facet-adjacency oracle: it accepts any complex,
    orange or not, and imposes smoothness across shared facets only.  It
    reads ``spline_dims(complex_, r, d)[d]``, so ``spline_dim.cache_info()``
    answers for the ``spline_dims`` cache (a hit whenever the prefix through
    degree d is already known).  The projected star of a (k, k)-orange
    centred at the origin (``planar-star``, ``vertex-star-3d``) equals the
    orange, so the formula's star dimensions and the oracle's values are
    one entry.
    """
    dims = spline_dims(complex_, r, d)
    return dims[d] if d >= 0 else 0


spline_dim.cache_info = _cache_info  # type: ignore[attr-defined]


def spline_basis(complex_: SimplicialComplex, r: int, d: int) -> list[Spline]:
    """Canonical basis of the spline space, one polynomial per maximal face.

    Comes from the reduced-echelon nullspace of the smoothness system, so
    the basis is deterministic.  Each returned spline is re-verified: every
    facet difference must be exactly divisible by the wall form's power.
    """
    system = build_system(complex_, r, d)
    k = complex_.ambient_dim
    m = system.face_block_size
    nf = system.n_faces
    basis: list[Spline] = []
    for vec in system.matrix.nullspace():
        pieces = []
        for s in range(nf):
            coeffs = {}
            for idx, mono in enumerate(system.face_monomials):
                v = vec.get(s * m + idx)
                if v:
                    coeffs[mono] = v
            pieces.append(Polynomial(k, coeffs))
        basis.append(tuple(pieces))
    from .polynomials import divisible_by_linear_power

    faces = complex_.maximal_faces
    walls = []
    for s, t in system.pairs:
        shared = sorted(set(faces[s]) & set(faces[t]))
        walls.append((s, t, facet_linear_form([complex_.vertices[v] for v in shared])))
    for spline in basis:
        for s, t, ell in walls:
            if not divisible_by_linear_power(spline[s] - spline[t], ell, r + 1):
                raise AssertionError("nullspace vector violates smoothness")
    return basis
