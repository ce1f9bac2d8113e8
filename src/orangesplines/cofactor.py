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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .complexes import Point, SimplicialComplex, adjacent_pairs
from .exact import RationalMatrix, format_rational
from .polynomials import Polynomial, monomials_upto

__all__ = [
    "facet_linear_form",
    "CofactorSystem",
    "build_system",
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

    def face_column(self, face_index: int, monomial: tuple[int, ...]) -> int:
        return face_index * self.face_block_size + self.face_monomials.index(monomial)

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
        wall = ell ** (r + 1)
        cof_base = nf * m + p * mc
        for mono in face_mons:
            row: dict[int, Fraction] = {
                s * m + mono_pos[mono]: Fraction(1),
                t * m + mono_pos[mono]: Fraction(-1),
            }
            for u_idx, u in enumerate(cof_mons):
                diff = tuple(a - b for a, b in zip(mono, u))
                if any(x < 0 for x in diff):
                    continue
                coeff = wall.coefficient(diff)
                if coeff:
                    row[cof_base + u_idx] = -coeff
            rows.append(row)
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


@lru_cache(maxsize=None)
def spline_dim(complex_: SimplicialComplex, r: int, d: int) -> int:
    """dim of the degree-<=d, order-r spline space, by exact nullity.

    This is the generic facet-adjacency oracle: it accepts any complex,
    orange or not, and imposes smoothness across shared facets only.
    """
    if r < 0:
        raise ValueError("smoothness order must be nonnegative")
    if d < 0:
        return 0
    return build_system(complex_, r, d).dimension()


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
