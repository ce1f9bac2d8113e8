"""Exact rational scalars and fraction-free linear algebra.

Rationals are ``fractions.Fraction``; the geometry and the systems that
the package eliminates run on plain integers, and nothing in this package
touches floating point.

All elimination goes through one fraction-free kernel on integer rows.
Its update step ``_eliminate`` cancels a row's lowest column against the
pivot stored there by cross-multiplying, with no gcd pass; ``_reduce``
repeats it until the row vanishes or is stored as a new pivot, its
content stripped once then if an update changed it.  Scaling a row keeps
whether it vanishes and its lowest column, so every rank and pivot column
is exact.  ``_echelon`` runs ``_reduce`` over the cofactor oracle's cycle
conditions (and ``CofactorSystem.dimension``'s full system) and the
Bernstein oracle's C^r conditions; the determining-set selection
(``bernstein.compute_mds``) calls ``_reduce`` itself.  ``_integer_rref``
back-substitutes through the same step, stripping each row once after its
last update.  The cofactor oracle reads its affine normal form off it
(``cofactor._normal_form``), the solvers below read their answers off it,
and ``_integer_kernel`` (one primitive vector per free column) is read
off it for walls, adapted frames, affine dependences and the pair test.
``_integer_row`` clears ``Fraction`` rows for ``RationalMatrix`` and the
solvers that take and return ``Fraction``s,
which no workload path uses: ``invert_matrix`` serves the Bernstein basis
change and ``projection.AdaptedFrame.matrix``, ``RationalMatrix.nullspace``
the monomial spline basis, and ``solve_linear`` and ``EchelonBasis`` have
no caller in the package.  They eliminate through the same kernel and
read its integer rows as ``Fraction``s.  Results are exact regardless of
conditioning.

Smoothness orders, degrees, dmax and fiber dimensions are checked by
``_check_int`` (TypeError unless the type is int, so not a bool) and
``_check_nonnegative`` (also ValueError below 0); nothing else in the
package raises for those arguments.  Rational entries (vertex
coordinates, polynomial coefficients, the entries of ``RationalMatrix``
and of the solvers' matrices) are checked by ``_check_exact``: TypeError
unless the type is int or Fraction, so a float is never read as the
binary fraction it stores.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "binom",
    "parse_rational",
    "format_rational",
    "RationalMatrix",
    "solve_linear",
    "invert_matrix",
    "EchelonBasis",
]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def binom(n: int, k: int) -> int:
    """Binomial coefficient, 0 whenever ``k < 0`` or ``k > n``."""
    if n < 0:
        raise ValueError(f"binom requires n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def parse_rational(value: str | int) -> Fraction:
    """Parse a rational from the wire form "p/q" (or "p", or a bare int):
    integer numerators and positive integer denominators, no decimals."""
    return Fraction(*_rational_pair(value))


def _rational_pair(value: str | int) -> tuple[int, int]:
    """``parse_rational`` as (numerator, denominator) in lowest terms."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if not isinstance(value, str):
        raise ValueError(f"not a rational: {value!r}")
    text = value.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational 'p/q' string: {value!r}")
    p, _, q = text.partition("/")
    p, q = int(p), int(q or 1)
    g = math.gcd(p, q)
    return p // g, q // g


def format_rational(q: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _check_int(value: int, name: str) -> int:
    """``value`` if its type is int; otherwise TypeError naming ``name``."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    return value


def _check_exact(value: int | Fraction, name: str, *fields: object) -> int | Fraction:
    """``value`` if its type is int or Fraction; otherwise TypeError naming
    it as ``name.format(*fields)``, formatted only then.  A float, a bool or
    a string is no exact rational to read as given: ``Fraction(0.1)`` is
    3602879701896397/36028797018963968."""
    if type(value) is not int and type(value) is not Fraction:
        raise TypeError(f"{name.format(*fields)} must be an int or a Fraction, got {value!r}")
    return value


def _check_nonnegative(value: int, name: str) -> int:
    """``value`` if it is an int >= 0; otherwise ``_check_int``'s TypeError
    or a ValueError naming ``name``."""
    if _check_int(value, name) < 0:
        raise ValueError(f"{name} must be nonnegative")
    return value


# ---------------------------------------------------------------------------
# the fraction-free elimination kernel
# ---------------------------------------------------------------------------

SparseRow = dict[int, Fraction]
IntRow = dict[int, int]


def _strip_content(row: IntRow) -> IntRow:
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _integer_row(row: Mapping[int, Fraction]) -> IntRow:
    """Clear denominators and strip gcd content; {} for a zero row."""
    den = math.lcm(*(v.denominator for v in row.values()))
    return _strip_content(
        {c: int(v.numerator * (den // v.denominator)) for c, v in row.items() if v}
    )


def _eliminate(row: IntRow, col: int, pivot: IntRow) -> IntRow:
    """Cancel ``row[col]`` against ``pivot`` (nonzero at ``col``): p * row -
    a * pivot, a / p the two entries at ``col`` in lowest terms.  No gcd
    pass: the callers strip a row's content once, when they store it."""
    g = math.gcd(row[col], pivot[col])
    a, p = row[col] // g, pivot[col] // g
    out = dict(row) if p == 1 else {c: p * v for c, v in row.items()}
    # the entry at col itself cancels: p * row[col] = a * pivot[col]
    for c, v in pivot.items():
        w = out.get(c, 0) - a * v
        if w:
            out[c] = w
        else:
            del out[c]
    return out


def _reduce(row: IntRow, pivots: dict[int, IntRow]) -> bool:
    """Reduce ``row`` against ``pivots`` (keyed by their lowest column).

    A row that does not vanish is kept as a new pivot at its lowest column,
    as is or, if an update changed it, content stripped; returns whether it
    was kept.  Updates only touch columns at or beyond the pivot's, so rows
    in independent blocks never interact.
    """
    reduced = row
    while reduced:
        c = min(reduced)
        if c not in pivots:
            pivots[c] = reduced if reduced is row else _strip_content(reduced)
            return True
        reduced = _eliminate(reduced, c, pivots[c])
    return False


def _echelon(rows: Iterable[IntRow]) -> dict[int, IntRow]:
    """Integer echelon form, {lowest column: row}.

    The rows hold nonzero integers only.  They are never modified, and a
    row that becomes a pivot unchanged is stored as is.  Rows go in
    sparsest first (a stable sort by nonzero count): short pivots keep fill
    and coefficient growth down on the cofactor systems.
    """
    pivots: dict[int, IntRow] = {}
    for row in sorted(rows, key=len):
        _reduce(row, pivots)
    return pivots


def _integer_rref(rows: Iterable[IntRow]) -> dict[int, IntRow]:
    """Reduced row echelon form up to row scaling, {pivot column: row}.

    The echelon form back-substitutes on integers through the same update
    step, from the last pivot up, so each row is nonzero only at its pivot
    and at non-pivot columns; each row is stripped once, when its own pivot
    is reached, after its last update.  Rows come in pivot-column order;
    each is a nonzero multiple of the canonical RREF row.
    """
    pivots = _echelon(rows)
    cols = sorted(pivots)
    for at, p in reversed(list(enumerate(cols))):
        pivot = pivots[p] = _strip_content(pivots[p])
        for q in cols[:at]:
            if p in pivots[q]:
                pivots[q] = _eliminate(pivots[q], p, pivot)
    return {p: pivots[p] for p in cols}


def _integer_kernel(rows: Iterable[IntRow], ncols: int) -> list[IntRow]:
    """Kernel basis of integer rows, one primitive vector per free column.

    The vector of free column f is the canonical RREF one (1 at f, minus
    the RREF entries of column f at the pivots) times the least positive
    integer that clears it, so it is positive at f.  Pivots involved come
    before f: f is each vector's last column.
    """
    pivots = _integer_rref(rows)
    basis: list[IntRow] = []
    for f in range(ncols):
        if f in pivots:
            continue
        entries = []
        scale = 1
        for p, row in pivots.items():
            if f in row:
                g = math.gcd(row[f], row[p])
                num, den = -row[f] // g, row[p] // g
                if den < 0:
                    num, den = -num, -den
                scale = scale * den // math.gcd(scale, den)
                entries.append((p, num, den))
        vec: IntRow = {f: scale}
        for p, num, den in entries:
            vec[p] = num * (scale // den)
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# public matrix type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalMatrix:
    """Immutable rational matrix stored as sparse rows.

    ``rows[i]`` holds the (column, nonzero Fraction) pairs of row i in
    column order; anything absent is zero.  All linear algebra on it is
    exact.
    """

    nrows: int
    ncols: int
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]

    @classmethod
    def from_sparse(
        cls, rows: Sequence[Mapping[int, Fraction]], ncols: int
    ) -> "RationalMatrix":
        packed = tuple(
            tuple(sorted(
                (c, Fraction(v)) for c, v in row.items() if _check_exact(v, "entry ({}, {})", i, c)
            ))
            for i, row in enumerate(rows)
        )
        for row in packed:
            if row and (row[0][0] < 0 or row[-1][0] >= ncols):
                raise ValueError("column index out of range")
        return cls(len(packed), ncols, packed)

    def rank(self) -> int:
        return len(_echelon(_integer_row(dict(row)) for row in self.rows))

    def nullspace(self) -> list[SparseRow]:
        """Canonical nullspace basis, one sparse vector per free column:
        ``_integer_kernel`` with each vector divided by its entry at its
        free column, its last."""
        basis: list[SparseRow] = []
        for vec in _integer_kernel((_integer_row(dict(row)) for row in self.rows), self.ncols):
            free = vec[max(vec)]
            basis.append({c: Fraction(v, free) for c, v in vec.items()})
        return basis


# ---------------------------------------------------------------------------
# small dense solvers (frames, basis changes)
# ---------------------------------------------------------------------------

def _exact_row(row: Sequence[Fraction], i: int) -> dict[int, int | Fraction]:
    """Row i of a matrix argument as {column: entry}, each entry checked."""
    return {j: _check_exact(v, "matrix entry ({}, {})", i, j) for j, v in enumerate(row)}


def solve_linear(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve M x = b exactly.

    Returns ``(particular, homogeneous_basis)`` or None when inconsistent.
    The particular solution sets every free variable to zero.  Nothing in
    the package calls it.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if len(rhs) != nrows:
        raise ValueError("rhs length mismatch")
    # the integer RREF of [M | b]: each row is a multiple of the canonical
    # one, so an entry over the row's pivot entry is the RREF entry
    pivots = _integer_rref(
        _integer_row({**_exact_row(row, i), ncols: _check_exact(b, "right-hand side entry {}", i)})
        for i, (row, b) in enumerate(zip(matrix, rhs))
    )
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for p, row in pivots.items():
        particular[p] = Fraction(row.get(ncols, 0), row[p])
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            for p, row in pivots.items():
                if f in row:
                    vec[p] = Fraction(-row[f], row[p])
            basis.append(vec)
    return particular, basis


def invert_matrix(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix (ValueError if singular),
    read off the integer RREF of [M | I] as ``solve_linear`` reads its own.

    No projection path uses it: only the Bernstein basis change and the
    full matrix view ``projection.AdaptedFrame.matrix`` do."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix not square")
    pivots = _integer_rref(
        _integer_row({**_exact_row(row, i), n + i: 1}) for i, row in enumerate(matrix)
    )
    if any(j not in pivots for j in range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(pivots[p].get(n + j, 0), pivots[p][p]) for j in range(n)] for p in range(n)]


class EchelonBasis:
    """Incremental exact rank tracker for rational vectors.

    ``add`` clears the vector to integers, reduces it against the rows seen
    so far and keeps it iff it is independent of them.  Nothing in the
    package uses it: the adapted frame reads its completion off one
    ``_integer_kernel`` call, and the determining-set selection has integer
    columns and calls ``_reduce`` directly.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, IntRow] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, vector: Sequence[Fraction] | Mapping[int, Fraction]) -> bool:
        if not isinstance(vector, Mapping):
            vector = dict(enumerate(vector))
        row = {c: _check_exact(v, "entry {}", c) for c, v in vector.items()}
        return _reduce(_integer_row(row), self._pivots)
