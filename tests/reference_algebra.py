"""Textbook references for the tests: one Gauss-Jordan elimination over
``Fraction``, and the parts of the monomial side that the package no
longer carries.

The package eliminates on integers only, through one fraction-free kernel
(``exact._echelon``, ``exact._integer_rref``).  The tests check that
kernel, and what is built on it, against the plain computations here.
``Echelon.add`` is the forward step of Gauss-Jordan, ``rref`` adds the
back substitution, and ``rank``, ``nullspace``, ``solve`` and ``inverse``
are read off ``rref``, as is ``normal_form_vertices``, the affine normal
form of a complex built from a matrix inverse (the package reads it off
one integer RREF).  ``bb_to_monomial`` sums the Bernstein polynomials
of one simplex with the package's ``Polynomial``, the inverse of
``bernstein.monomial_to_bb``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from orangesplines.bernstein import _simplex, simplex_multiindices
from orangesplines.exact import _check_nonnegative
from orangesplines.polynomials import Polynomial

Row = dict[int, Fraction]


def _sparse(row: Sequence | Mapping) -> Row:
    """A dense or sparse row as {column: nonzero Fraction}."""
    items = row.items() if isinstance(row, Mapping) else enumerate(row)
    return {c: Fraction(v) for c, v in items if v}


def _subtract(row: Row, factor: Fraction, pivot: Row) -> None:
    """row -= factor * pivot, in place, dropping the zeros."""
    for c, v in pivot.items():
        w = row.get(c, 0) - factor * v
        if w:
            row[c] = w
        else:
            row.pop(c, None)


class Echelon:
    """The forward step of Gauss-Jordan: rows kept so far, each with 1 at
    its pivot, its lowest column, and keyed by it."""

    def __init__(self) -> None:
        self.pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: Sequence | Mapping) -> bool:
        """Reduce ``row`` against the pivots and keep it, normalized, if
        anything is left; returns whether it was kept."""
        rest = _sparse(row)
        while rest:
            c = min(rest)
            if c not in self.pivots:
                self.pivots[c] = {cc: v / rest[c] for cc, v in rest.items()}
                return True
            _subtract(rest, rest[c], self.pivots[c])
        return False


def rref(rows: Iterable[Sequence | Mapping]) -> dict[int, Row]:
    """Reduced row echelon form, {pivot column: row with 1 there}, in
    pivot order; canonical whatever the order of the rows."""
    echelon = Echelon()
    for row in rows:
        echelon.add(row)
    pivots = dict(sorted(echelon.pivots.items()))
    for p in reversed(pivots):
        for q, row in pivots.items():
            if q < p and p in row:
                _subtract(row, row[p], pivots[p])
    return pivots


def rank(rows: Iterable[Sequence | Mapping]) -> int:
    return len(rref(rows))


def _kernel(pivots: dict[int, Row], ncols: int) -> list[Row]:
    """Per free column f < ncols: 1 at f, minus the RREF entries of column
    f at the pivots."""
    return [
        {f: Fraction(1), **{p: -row[f] for p, row in pivots.items() if f in row}}
        for f in range(ncols)
        if f not in pivots
    ]


def nullspace(rows: Iterable[Sequence | Mapping], ncols: int) -> list[Row]:
    """The canonical nullspace basis, one vector per free column."""
    return _kernel(rref(rows), ncols)


def solve(
    matrix: Sequence[Sequence], rhs: Sequence
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """(particular, homogeneous basis) of M x = b, with every free variable
    0 in the particular solution; None when the system is inconsistent."""
    ncols = len(matrix[0]) if matrix else 0
    pivots = rref(
        {**_sparse(row), **({ncols: Fraction(b)} if b else {})}
        for row, b in zip(matrix, rhs, strict=True)
    )
    if ncols in pivots:
        return None
    particular = [pivots[c].get(ncols, Fraction(0)) if c in pivots else Fraction(0)
                  for c in range(ncols)]
    basis = [[vec.get(c, Fraction(0)) for c in range(ncols)] for vec in _kernel(pivots, ncols)]
    return particular, basis


def inverse(matrix: Sequence[Sequence]) -> list[list[Fraction]]:
    """The inverse of a square matrix, read off the RREF of [M | I];
    ValueError if M is singular."""
    n = len(matrix)
    pivots = rref({**_sparse(row), n + i: Fraction(1)} for i, row in enumerate(matrix))
    if any(j not in pivots for j in range(n)):
        raise ValueError("matrix is singular")
    return [[pivots[p].get(n + j, Fraction(0)) for j in range(n)] for p in range(n)]


def normal_form_vertices(
    vertices: Sequence[Sequence], maximal_faces: Sequence[Sequence[int]]
) -> list[list[Fraction]]:
    """The vertices B^{-1} (x_v - x_o): o the lowest vertex in every
    maximal face.  The differences x_v - x_o are scanned shared vertices
    first, each group in vertex order, and the first k that are independent
    of those before are the columns of B, those of the other vertices
    first: the shared vertices' directions become the last coordinates.
    Only the differences when fewer than k are independent, and the
    vertices themselves when the faces share no vertex."""
    shared = set(maximal_faces[0]).intersection(*maximal_faces[1:])
    if not shared:
        return [[Fraction(x) for x in v] for v in vertices]
    origin = vertices[min(shared)]
    moved = [[Fraction(x) - o for x, o in zip(v, origin)] for v in vertices]
    k = len(origin)
    independent, picked = Echelon(), []
    for v in sorted(shared) + [v for v in range(len(moved)) if v not in shared]:
        if independent.add(moved[v]):
            picked.append(v)
    columns = [moved[v] for v in picked if v not in shared]
    columns += [moved[v] for v in picked if v in shared]
    if len(columns) < k:
        return moved
    back = inverse([[column[a] for column in columns] for a in range(k)])
    return [[sum(row[b] * v[b] for b in range(k)) for row in back] for v in moved]


def barycentric_coordinates(point: Sequence, vertices: Sequence[Sequence]) -> list[Fraction] | None:
    """Barycentric coordinates of ``point`` with respect to affinely
    independent ``vertices``, or None off their affine hull."""
    matrix = [[v[c] for v in vertices] for c in range(len(point))] + [[1] * len(vertices)]
    solution = solve(matrix, [*point, 1])
    if solution is None:
        return None
    particular, basis = solution
    if basis:
        raise ValueError("vertices are affinely dependent")
    return particular


# ---------------------------------------------------------------------------
# the monomial side
# ---------------------------------------------------------------------------

def linear_power(ell: Polynomial, e: int) -> Polynomial:
    """ell**e for an affine-linear form (degree-1 input enforced)."""
    if ell.degree() != 1:
        raise ValueError("linear_power expects a polynomial of degree 1")
    return ell**e


def bb_to_monomial(coeffs: Mapping, vertices, d: int) -> Polynomial:
    """sum_a c_a B_a on the simplex, which ``bernstein._simplex`` checks,
    with B_a = d!/a! * lambda^a expanded over the barycentric coordinate
    functions lambda; a multi-index off the lattice raises."""
    _check_nonnegative(d, "degree")
    simplex = _simplex(vertices)
    k, verts = simplex.ambient_dim, simplex.vertices
    # the barycentric coordinate functions are the rows of [v_0 ... v_k; 1 ... 1]^-1
    lambdas = [
        Polynomial.linear(row[:k], row[k])
        for row in inverse([[v[c] for v in verts] for c in range(k)] + [[1] * len(verts)])
    ]
    lattice = set(simplex_multiindices(len(verts), d))
    total = Polynomial.zero(k)
    for alpha, c in coeffs.items():
        if tuple(alpha) not in lattice:
            raise ValueError(f"multi-index {tuple(alpha)} is not on the degree-{d} lattice")
        multinomial = math.factorial(d) // math.prod(map(math.factorial, alpha))
        term = Polynomial.constant(k, Fraction(c) * multinomial)
        for lam, x in zip(lambdas, alpha):
            term = term * lam**x
        total = total + term
    return total
