"""Exact rational scalars and fraction-free linear algebra.

Everything downstream (geometry, cofactor systems, Bernstein bases) runs on
``fractions.Fraction``; nothing in this package touches floating point.
Ranks are computed by integer elimination after clearing denominators per
row, with gcd content stripping to bound coefficient growth, so results are
exact regardless of conditioning.
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
    "rank",
    "nullity",
    "nullspace",
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
    """Parse a rational from the wire form "p/q" (or "p", or a bare int).

    Only integer numerators and positive integer denominators are accepted;
    decimal notation and zero denominators are rejected.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if _RATIONAL_RE.match(text):
            return Fraction(text)
        raise ValueError(f"not a rational 'p/q' string: {value!r}")
    raise ValueError(f"not a rational: {value!r}")


def format_rational(q: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# sparse elimination kernels
# ---------------------------------------------------------------------------

SparseRow = dict[int, Fraction]


def _integer_row(row: Mapping[int, Fraction]) -> dict[int, int]:
    """Clear denominators and strip gcd content; {} for a zero row."""
    if not row:
        return {}
    den = 1
    for v in row.values():
        den = den * v.denominator // math.gcd(den, v.denominator)
    out = {c: int(v.numerator * (den // v.denominator)) for c, v in row.items() if v}
    if not out:
        return {}
    g = 0
    for v in out.values():
        g = math.gcd(g, v)
        if g == 1:
            return out
    return {c: v // g for c, v in out.items()}


def _strip_content(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _components(rows: list[dict[int, int]]) -> list[list[dict[int, int]]]:
    """Split rows into connected components of the row/column bipartite graph.

    Elimination never mixes rows from different components, so splitting up
    front keeps pivot searches local (the cofactor systems assembled later
    decouple into many small blocks without the caller knowing why).
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for row in rows:
        cols = iter(row)
        first = next(cols)
        parent.setdefault(first, first)
        for c in cols:
            parent.setdefault(c, c)
            union(first, c)

    groups: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        root = find(next(iter(row)))
        groups.setdefault(root, []).append(row)
    return [groups[r] for r in sorted(groups)]


def _eliminate_component(rows: list[dict[int, int]]) -> int:
    """Rank of one component by fraction-free elimination.

    Pivots are chosen Markowitz-style (least fill estimate, deterministic
    ties) and every update row is cross-multiplied then content-stripped,
    which keeps intermediate integers near the size of the minors involved.
    """
    work = rows
    rk = 0
    while work:
        counts: dict[int, int] = {}
        for row in work:
            for c in row:
                counts[c] = counts.get(c, 0) + 1
        best_key = None
        best = (0, 0)
        for ri, row in enumerate(work):
            fill = len(row) - 1
            for c in row:
                key = (fill * (counts[c] - 1), c, ri)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (ri, c)
        pi, pc = best
        pivot = work.pop(pi)
        pv = pivot[pc]
        rk += 1
        updated: list[dict[int, int]] = []
        for row in work:
            if pc not in row:
                updated.append(row)
                continue
            a = row.pop(pc)
            new = {c: pv * v for c, v in row.items()}
            for c, v in pivot.items():
                if c == pc:
                    continue
                w = new.get(c, 0) - a * v
                if w:
                    new[c] = w
                elif c in new:
                    del new[c]
            if new:
                updated.append(_strip_content(new))
        work = updated
    return rk


def _rank_of_rows(rows: Iterable[Mapping[int, Fraction]]) -> int:
    int_rows = [r for r in (_integer_row(row) for row in rows) if r]
    if not int_rows:
        return 0
    return sum(_eliminate_component(comp) for comp in _components(int_rows))


def _rref(rows: Iterable[Mapping[int, Fraction]]) -> dict[int, SparseRow]:
    """Reduced row echelon form, returned as {pivot column: row}.

    Each stored row is normalized (pivot entry 1) and fully reduced, so the
    result is the canonical RREF regardless of input row order.
    """
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        while r:
            c = min(r)
            if c in pivots:
                f = r.pop(c)
                for cc, vv in pivots[c].items():
                    if cc == c:
                        continue
                    w = r.get(cc, 0) - f * vv
                    if w:
                        r[cc] = w
                    elif cc in r:
                        del r[cc]
            else:
                inv = r[c]
                pivots[c] = {cc: vv / inv for cc, vv in r.items()}
                break
    for p in sorted(pivots, reverse=True):
        pr = pivots[p]
        for q in pivots:
            if q >= p:
                continue
            qr = pivots[q]
            if p not in qr:
                continue
            f = qr.pop(p)
            for cc, vv in pr.items():
                if cc == p:
                    continue
                w = qr.get(cc, 0) - f * vv
                if w:
                    qr[cc] = w
                elif cc in qr:
                    del qr[cc]
    return pivots


def _nullspace_of_rows(
    rows: Iterable[Mapping[int, Fraction]], ncols: int
) -> list[SparseRow]:
    pivots = _rref(rows)
    basis: list[SparseRow] = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec: SparseRow = {f: Fraction(1)}
        for p, pr in pivots.items():
            if f in pr:
                vec[p] = -pr[f]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# public matrix type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalMatrix:
    """Immutable rational matrix stored as sparse rows.

    ``rows[i]`` maps column index to a nonzero Fraction; anything absent is
    zero.  All linear algebra on it is exact.
    """

    nrows: int
    ncols: int
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]

    @classmethod
    def from_rows(cls, dense: Sequence[Sequence[Fraction | int]]) -> "RationalMatrix":
        nrows = len(dense)
        ncols = len(dense[0]) if nrows else 0
        rows = []
        for rvals in dense:
            if len(rvals) != ncols:
                raise ValueError("ragged rows")
            rows.append(
                tuple(
                    (j, Fraction(v))
                    for j, v in enumerate(rvals)
                    if v
                )
            )
        return cls(nrows, ncols, tuple(rows))

    @classmethod
    def from_sparse(
        cls, rows: Sequence[Mapping[int, Fraction]], ncols: int, nrows: int | None = None
    ) -> "RationalMatrix":
        packed = tuple(
            tuple(sorted((c, Fraction(v)) for c, v in row.items() if v))
            for row in rows
        )
        n = len(packed) if nrows is None else nrows
        for row in packed:
            if row and row[-1][0] >= ncols:
                raise ValueError("column index out of range")
        return cls(n, ncols, packed)

    def sparse_rows(self) -> list[SparseRow]:
        return [dict(row) for row in self.rows]

    def rank(self) -> int:
        return _rank_of_rows(self.sparse_rows())

    def nullity(self) -> int:
        return self.ncols - self.rank()

    def nullspace(self) -> list[SparseRow]:
        """Canonical nullspace basis, one sparse vector per free column."""
        return _nullspace_of_rows(self.sparse_rows(), self.ncols)


def rank(m: RationalMatrix) -> int:
    return m.rank()


def nullity(m: RationalMatrix) -> int:
    """cols - rank, computed exactly; the dimension of the solution space."""
    return m.nullity()


def nullspace(m: RationalMatrix) -> list[SparseRow]:
    return m.nullspace()


# ---------------------------------------------------------------------------
# small dense solvers (frames, barycentric coordinates, basis changes)
# ---------------------------------------------------------------------------

def solve_linear(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve M x = b exactly.

    Returns ``(particular, homogeneous_basis)`` or None when inconsistent.
    The particular solution sets every free variable to zero.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if len(rhs) != nrows:
        raise ValueError("rhs length mismatch")
    aug = []
    for i in range(nrows):
        row: SparseRow = {j: Fraction(v) for j, v in enumerate(matrix[i]) if v}
        if rhs[i]:
            row[ncols] = Fraction(rhs[i])
        aug.append(row)
    pivots = _rref(aug)
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for p, pr in pivots.items():
        particular[p] = pr.get(ncols, Fraction(0))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for p, pr in pivots.items():
            if f in pr:
                vec[p] = -pr[f]
        basis.append(vec)
    return particular, basis


def invert_matrix(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix (ValueError if singular)."""
    n = len(matrix)
    aug = []
    for i in range(n):
        if len(matrix[i]) != n:
            raise ValueError("matrix not square")
        row: SparseRow = {j: Fraction(v) for j, v in enumerate(matrix[i]) if v}
        row[n + i] = Fraction(1)
        aug.append(row)
    pivots = _rref(aug)
    if any(j not in pivots for j in range(n)):
        raise ValueError("matrix is singular")
    inv = [[Fraction(0)] * n for _ in range(n)]
    for p, pr in pivots.items():
        for c, v in pr.items():
            if c >= n:
                inv[p][c - n] = v
    return inv


class EchelonBasis:
    """Incremental exact rank tracker for dense rational vectors.

    ``add`` reduces the vector against the rows seen so far and keeps it iff
    it is independent of them; used for greedy basis completion and greedy
    minimal-determining-set selection.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, SparseRow] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, vector: Sequence[Fraction] | Mapping[int, Fraction]) -> bool:
        if isinstance(vector, Mapping):
            r = {c: Fraction(v) for c, v in vector.items() if v}
        else:
            r = {c: Fraction(v) for c, v in enumerate(vector) if v}
        while r:
            c = min(r)
            if c not in self._pivots:
                inv = r[c]
                self._pivots[c] = {cc: vv / inv for cc, vv in r.items()}
                return True
            f = r.pop(c)
            for cc, vv in self._pivots[c].items():
                if cc == c:
                    continue
                w = r.get(cc, 0) - f * vv
                if w:
                    r[cc] = w
                elif cc in r:
                    del r[cc]
        return False
