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
``spline_dims`` works on the complex's affine normal form
(``_normal_form``, once per complex instance; a standard model reads it
off its star's), which has that vertex at the origin.  Every wall form
is then homogeneous and the system splits into independent blocks by
exact degree j: the face columns of degree j, the cofactor columns of
degree j - r - 1 and the rows of degree j.
S^r_d is the sum of the blocks j <= d (Billera & Rose, "A dimension
series for multivariate splines", 1991), and the elimination never mixes
blocks.  A complex with no shared vertex (two disjoint segments, the
Morgan-Scott split) is eliminated as given, in one pass all the same.

The normal form.  Let o be the lowest shared vertex and X the k x n
matrix whose column v is N_v - N_o, on the stored integers (numerators
N_v = ``nums[v]`` over the common denominator ``den``), with the shared
vertices' columns first, each group in vertex order.  When X has rank k,
vertex v becomes its column of the RREF of X (``exact._integer_rref``,
each row divided by its pivot entry), with the rows that pivot on a
shared vertex's column moved last, over one common denominator, built
from those integers (``complexes._from_integer_view``).  The pivot
columns are the greedy independent vertices B, taken in that order, and
the RREF is B^{-1} X: the normal form is the image of the complex under
x -> P B^{-1} (x - x_o), P the row permutation, an invertible affine
map.  Such a map keeps degrees and the divisibility of f_s - f_t by a
wall power, so it keeps S^r_d degree by degree (Lai & Schumaker, *Spline
Functions on Triangulations*, 2007).  The RREF of A X is that of X for every
invertible A, so every invertible affine image of a complex with the
same vertex labels and faces has the same normal form, to the byte.  The
dimension cache is keyed on it: all those images share one entry and one
elimination, and so do an orange with i = k = 3 and its projected star.
On an orange the shared vertices are the medial face, which is
independent: its k - i vertices other than o take the first pivots and
land at e_{i+1}, ..., e_k, where ``projection.standard_form`` puts them.
Every wall contains the medial face, so no wall involves the last k - i
coordinates: the wall powers are as sparse as the projected star's, and
the elimination as short.  When X has rank < k (faces of fewer than
k + 1 vertices), the vertices are only moved, N_v - N_o over den, and a
complex whose faces share no vertex is kept as given.  The map is never
formed.

That pass sees only the conformality conditions of the dual graph (faces
joined by their facet-adjacent pairs).  Write g_p = c_p * L_p**(r+1) for
pair p.  Along a spanning forest of the dual graph, each face's polynomial
is its root's plus a signed sum of the forest's g_q, and the forest's rows
are unit pivots on the non-root face columns.  Each pair off the forest
closes one cycle, and substituting the forest into its rows leaves
sum +-g_q = 0 around the cycle, in cofactor columns only (Chui & Wang, "On
smooth multivariate spline functions", Math. Comp. 1983).  The forest's
rows and the cycle rows are an echelon form of the whole system, so the
free columns of degree j are the root faces' (one per component and
monomial of degree j) and the cofactor columns of degree j that the cycle
rows leave free.  A dual graph that is a tree (``two-triangle``,
``two-tetrahedron``, every i = 1 star and every boundary i = 2 star) sends
the kernel no row at all.

The system is assembled over the integers.  Per facet-adjacent pair,
``_wall`` reads the wall off the complex's integers as the primitive
integer form L with a positive lead D, the one primitive kernel vector of
the rows (N_v, den) of the shared vertices: L = D*l, where l is the wall form with
lead 1 and D is the lcm of its denominators.  ``facet_linear_form`` is the
same routine on rational points.  The cofactor monomials are the face
monomials' grlex prefix of degree <= d - r - 1.  L**(r+1) is expanded
by the multinomial theorem in plain ints, and the pair's cofactor columns
are scaled by D**(r+1), so every row is integral as built and goes to the
elimination kernel as it is.  Column scaling changes no rank and no pivot
column, so every dimension is that of the rational system, which
``CofactorSystem.matrix`` derives by dividing the scales back out.  The
system keeps only the per-pair walls; their powers and scales, and from
them its full rows, are derived on first use, for ``dimension``,
``matrix``, ``describe`` and ``spline_basis``.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations_with_replacement
from operator import add
from typing import Callable, Iterator, Sequence

from .complexes import (
    InvalidComplexError,
    Point,
    SimplicialComplex,
    _dual_forest,
    _from_integer_view,
    adjacent_pairs,
)
from .exact import (
    IntRow, RationalMatrix, _check_int, _check_nonnegative, _echelon, _integer_kernel,
    _integer_rref, format_rational,
)
from .polynomials import Polynomial, divisible_by_linear_power, monomials_upto
from .projection import standard_orange

__all__ = [
    "facet_linear_form",
    "CofactorSystem",
    "build_system",
    "spline_dims",
    "spline_dim",
    "spline_basis",
]


def facet_linear_form(points: Sequence[Point]) -> tuple[int, ...]:
    """Primitive integer wall (a_1, ..., a_k, c) through ``points``.

    The points must affinely span a hyperplane (codimension 1), on which
    a_1 x_1 + ... + a_k x_k + c vanishes; otherwise InvalidComplexError
    (a ``ValueError``) is raised.  The entries have gcd 1 and the first
    nonzero one (the lead) is positive, so two calls on the same
    hyperplane agree exactly.  The form is D*l, where l is the form with
    lead 1 and D, the lead, is the lcm of l's denominators.  The points
    are read as the constructor of ``SimplicialComplex`` reads vertices
    (int or Fraction coordinates, else TypeError), as integer numerators
    over their common denominator, and handed to ``_wall``, the routine
    ``build_system`` reads every wall with.
    """
    simplex = SimplicialComplex(len(points[0]), points, [range(len(points))])
    return _wall(simplex.nums, simplex.den)


def _wall(nums: Sequence[Sequence[int]], den: int) -> tuple[int, ...]:
    """The primitive integer wall through the points ``nums`` / ``den``.

    A form (a, c) vanishes on p = N/den exactly when a.N + c*den = 0, so
    the wall is the one primitive kernel vector of the integer rows
    (N, den), up to sign; the sign makes the lead positive.
    """
    k = len(nums[0])
    null = _integer_kernel(
        ({c: x for c, x in enumerate((*n, den)) if x} for n in nums), k + 1
    )
    if len(null) != 1:
        raise InvalidComplexError(
            f"points span a flat of codimension {len(null)}, expected a hyperplane"
        )
    (form,) = null
    sign = 1 if form[min(form)] > 0 else -1
    return tuple(sign * form.get(c, 0) for c in range(k + 1))


def _power_terms(form: tuple[int, ...], n: int) -> list[tuple[tuple[int, ...], int]]:
    """Terms (exponent, coefficient) of the n-th power of the affine form
    ``form`` = (a_1, ..., a_k, constant), over the integers.

    By the multinomial theorem, with the constant as variable k + 1, the
    exponent alpha (|alpha| = n) has coefficient n!/alpha! * prod a_j**alpha_j;
    only variables with a_j != 0 are chosen, so no term is zero.
    """
    k = len(form) - 1
    support = [j for j, a in enumerate(form) if a]
    terms = []
    for choice in combinations_with_replacement(support, n):
        alpha = [0] * (k + 1)
        for j in choice:
            alpha[j] += 1
        multinomial = math.factorial(n) // math.prod(map(math.factorial, alpha))
        coef = multinomial * math.prod(a**b for a, b in zip(form, alpha))
        terms.append((tuple(alpha[:k]), coef))
    return terms


@dataclass(frozen=True)
class CofactorSystem:
    """Assembled smoothness system for one complex and one (r, d).

    Columns: first a block of monomial coefficients (total degree <= d,
    graded lex) per maximal face, then a cofactor block (total degree
    <= d - r - 1) per facet-adjacent pair.  Rows: one per pair per monomial
    of degree <= d, expressing f_s - f_t - c * l**(r+1) = 0 coefficientwise.

    The system is kept as its per-pair data: ``walls[p]`` is the pair's
    primitive integer wall L = D*l (lead D, l the wall form with lead 1).
    Derived from them on first read, ``wall_powers[p]`` holds the integer
    terms (exponent, coefficient) of L**(r+1), and the pair's cofactor
    columns are scaled by ``cofactor_scales[p]`` = D**(r+1).  ``rows`` is
    the system over the integers derived from those on first use, as
    {column: nonzero int} dicts that the elimination
    kernel takes as they are (and must not be modified): face entries are
    +1 and -1 and cofactor entries are minus the coefficients of L**(r+1),
    so no row has a denominator to clear.  Scaling a column by a nonzero
    constant changes neither the rank of any set of columns nor the pivot
    columns of an echelon pass, so the nullity and every graded count are
    those of the rational system.
    ``matrix`` is that rational system, derived from ``rows`` on first use
    by dividing the scales back out.
    """

    complex: SimplicialComplex
    r: int
    d: int
    walls: tuple[tuple[int, ...], ...]
    n_faces: int
    face_monomials: tuple[tuple[int, ...], ...]
    cofactor_monomials: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[int, int], ...]

    @cached_property
    def wall_powers(self) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
        """The terms of L**(r+1), per pair."""
        return tuple(tuple(_power_terms(form, self.r + 1)) for form in self.walls)

    @cached_property
    def cofactor_scales(self) -> tuple[int, ...]:
        """D**(r+1) per pair, D the lead of the pair's wall."""
        return tuple(next(a for a in form if a) ** (self.r + 1) for form in self.walls)

    @property
    def face_block_size(self) -> int:
        return len(self.face_monomials)

    @property
    def ncols(self) -> int:
        return self.n_faces * self.face_block_size + len(self.pairs) * len(
            self.cofactor_monomials
        )

    @cached_property
    def rows(self) -> tuple[IntRow, ...]:
        """The system over the integers, one row per pair per monomial."""
        m = self.face_block_size
        mc = len(self.cofactor_monomials)
        mono_pos = {mono: idx for idx, mono in enumerate(self.face_monomials)}
        rows: list[IntRow] = []
        for p, (s, t) in enumerate(self.pairs):
            cof_base = self.n_faces * m + p * mc
            pair_rows: list[IntRow] = [{s * m + i: 1, t * m + i: -1} for i in range(m)]
            # u + e is distinct over the terms e of the wall power, so each
            # entry is written once
            for e, c in self.wall_powers[p]:
                for col, u in enumerate(self.cofactor_monomials, cof_base):
                    pair_rows[mono_pos[tuple(map(add, u, e))]][col] = -c
            rows.extend(pair_rows)
        return tuple(rows)

    @cached_property
    def matrix(self) -> RationalMatrix:
        """The system over the rationals: coefficients of f_s - f_t - c * l**(r+1)."""
        mc = len(self.cofactor_monomials)
        scale = [1] * (self.n_faces * self.face_block_size)
        for pair_scale in self.cofactor_scales:
            scale += [pair_scale] * mc
        return RationalMatrix.from_sparse(
            [{c: Fraction(v, scale[c]) for c, v in row.items()} for row in self.rows],
            self.ncols,
        )

    def dimension(self) -> int:
        return self.ncols - len(_echelon(self.rows))

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
    """The smoothness system of ``complex_`` at order r and degree <= d.

    The complex's points and faces are checked first, once per instance
    (``SimplicialComplex._check_faces``): a ragged complex, a missing
    vertex, two vertices at one point, nested faces or a flat face raise
    InvalidComplexError, as the system would count them as splines.  Each
    pair's wall is then read off the complex's integers by ``_wall``; a
    shared facet that spans no hyperplane, which only faces of fewer than
    k + 1 vertices have, raises InvalidComplexError naming the two faces.
    """
    _check_nonnegative(r, "smoothness order")
    _check_nonnegative(d, "degree")
    complex_._check_faces()
    k = complex_.ambient_dim
    faces = complex_.maximal_faces
    den, nums = complex_.den, complex_.nums
    face_mons = tuple(monomials_upto(k, d))
    # grlex runs through the degrees in order: the cofactor monomials, of
    # degree <= d - r - 1, are a prefix
    cof_mons = face_mons[: math.comb(k + d - r - 1, k)] if d > r else ()
    pairs = tuple(adjacent_pairs(complex_))
    walls = []
    for s, t in pairs:
        shared = sorted(set(faces[s]) & set(faces[t]))
        try:
            walls.append(_wall([nums[v] for v in shared], den))
        except InvalidComplexError:
            raise InvalidComplexError(
                f"faces {faces[s]} and {faces[t]} share a facet that spans no hyperplane"
            ) from None
    return CofactorSystem(
        complex=complex_,
        r=r,
        d=d,
        walls=tuple(walls),
        n_faces=len(faces),
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
    columns ordered by degree, an echelon pass (pivot at each row's lowest
    column) leaves dim S^r_d non-pivot columns of degree <= d.  The pass
    runs on the dual graph's cycle conditions only (see the module
    docstring): a spanning forest's rows pivot on the non-root face
    columns, so they are counted, not eliminated.  The system is that of
    the complex's affine normal form (``_normal_form``), which has the
    shared vertex at the origin: every wall form is homogeneous, the
    system splits into degree blocks and the elimination never mixes
    them, which is much faster.  On an orange the normal form has the
    medial face at the origin and e_{i+1}, ..., e_k, so no wall involves
    its k - i directions.

    The cache keeps the longest prefix computed so far, keyed by value on
    the normal form's fields (ambient dimension, common denominator,
    numerators, maximal faces) and r: plain ints, which hash fast and
    determine the vertices, as den is the lcm of their denominators.  The
    normal form is an affine image of the complex, and every invertible
    affine image with the same vertex labels and faces has the same one,
    so all those images share an entry and one elimination, and so do an
    orange with i = k = 3 and its projected star.  No entry keeps a
    complex and its memo alive, and a query through any degree already
    known is a hit.  The cache holds the 256 entries used last and evicts
    the oldest beyond that.  The complex's points and faces are checked
    once per instance, before the normal form is taken
    (``SimplicialComplex._check_faces``, which a validated orange has
    passed already): a ragged or flat complex, a missing or duplicate
    vertex or nested faces raise InvalidComplexError, and nothing is
    stored.
    ``spline_dim.cache_info()`` reports the cache as
    ``functools.lru_cache`` would.
    """
    _check_nonnegative(r, "smoothness order")
    if _check_int(dmax, "dmax") < 0:
        return ()
    key = (*_normal_key(complex_), r)
    dims = _prefixes.lookup(key, dmax)
    if dims is None:
        dims = _graded_dims(_normal_form(complex_), r, dmax)
        _prefixes.put(key, dims)
    return dims[: dmax + 1]


def _normal_form(complex_: SimplicialComplex) -> SimplicialComplex:
    """The affine normal form of the complex, once per instance, after its
    points and faces are checked (see the module docstring).

    With o the lowest shared vertex and M_v = N_v - N_o on the stored
    integers, vertex v becomes its column of the RREF of the k x n matrix
    of the M_v, shared vertices first, each group in vertex order: each
    integer RREF row divided by its pivot entry, the rows pivoting on a
    shared vertex last, over their lcm, built as the constructor builds
    it.  When the M_v have rank < k, the vertices are only moved,
    N_v - N_o over den;
    when the faces share no vertex, the complex is kept as it is.  The
    complex itself, too, when it is its own normal form (a projected star
    often is).  The normal form has the original's faces, so its memo
    starts with the original's ``adjacent_pairs`` and its pass of the
    check, and it is its own normal form.

    A standard model (``projection.standard_form``, memo ``"standard
    of"``) reads its normal form off its star's, with no RREF: the star's
    origin is its vertex 0 and the model's lowest shared vertex, and its
    moved vertex matrix is block diagonal, [S 0; 0 den*I].  The tail
    vertices are the model's other shared vertices, so their unit rows
    come last, after the star's RREF block, over the same lcm of pivots.
    That is ``standard_orange`` of the star's normal form, and the model
    itself when the star is its own."""
    memo = complex_._memo
    if "normal form" not in memo:
        complex_._check_faces()
        star = memo.get("standard of")
        if star is None:
            normal = _rref_form(complex_)
        elif _normal_form(star) is star:
            normal = complex_
        else:
            normal = standard_orange(_normal_form(star), complex_.ambient_dim - star.ambient_dim)
        # None stands for the complex itself, so that no memo holds its owner
        memo["normal form"] = None
        if normal is not complex_ and (normal.den, normal.nums) != (complex_.den, complex_.nums):
            normal._memo["adjacent pairs"] = tuple(adjacent_pairs(complex_))
            normal._memo["checked"] = True
            normal._memo["normal form"] = None
            memo["normal form"] = normal
    return memo["normal form"] or complex_


def _rref_form(complex_: SimplicialComplex) -> SimplicialComplex:
    """``_normal_form``'s construction from the complex's integers, or the
    complex itself when its faces share no vertex."""
    faces = complex_.maximal_faces
    shared = set(faces[0]).intersection(*faces[1:])
    if not shared:
        return complex_
    k, nums = complex_.ambient_dim, complex_.nums
    n = len(nums)
    origin = nums[min(shared)]
    # vertex v has column v if it is shared and n + v if not: the shared
    # vertices' columns come first
    columns = [v if v in shared else n + v for v in range(n)]
    rref = _integer_rref(
        {c: x[j] - origin[j] for c, x in zip(columns, nums) if x[j] != origin[j]}
        for j in range(k)
    )
    if len(rref) == k:
        # the rows pivoting on a shared column last, each group in pivot order
        rows = sorted(rref.items(), key=lambda item: item[0] < n)
        den = math.lcm(*(row[p] for p, row in rows))
        scales = [(row, den // row[p]) for p, row in rows]
        moved = [[row.get(c, 0) * scale for row, scale in scales] for c in columns]
    else:
        den, moved = complex_.den, [[x - o for x, o in zip(n, origin)] for n in nums]
    return _from_integer_view(k, den, moved, faces)


def _normal_key(complex_: SimplicialComplex) -> tuple:
    """The normal form's fields (ambient dimension, common denominator,
    numerators, maximal faces), which determine it: equal keys are
    invertible affine images of one another with the same vertex labels
    and faces.  Plain ints and tuples, so no cache entry keyed on it keeps
    a complex alive; kept in the memo, once per instance."""
    memo = complex_._memo
    if "normal key" not in memo:
        normal = _normal_form(complex_)
        memo["normal key"] = (normal.ambient_dim, normal.den, normal.nums, normal.maximal_faces)
    return memo["normal key"]


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _LRUCache:
    """A least-recently-used map that holds at most ``maxsize`` entries and
    counts hits, misses and evictions."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.hits = self.misses = self.evictions = 0
        self._entries: OrderedDict[tuple, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._entries)

    def fetch(self, key: tuple, build: Callable[[], object]) -> object:
        """The entry stored under ``key``, built by ``build()`` and stored
        on a miss."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            value = build()
            self.put(key, value)
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return value

    def put(self, key: tuple, value: object) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def info(self) -> _CacheInfo:
        """The counts as ``functools.lru_cache``'s ``cache_info()`` gives them."""
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self._entries))


class _PrefixCache(_LRUCache):
    """An ``_LRUCache`` of dimension prefixes, where a prefix answers every
    query through a degree it reaches."""

    def lookup(self, key: tuple, dmax: int) -> tuple[int, ...] | None:
        """The prefix stored under ``key`` if it reaches degree ``dmax``."""
        dims = self._entries.get(key, ())
        if len(dims) <= dmax:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return dims


# a perfbench round (100-odd ops on affine images of six oranges) fills 18,
# 21 or 14 entries, whatever the seed, so no op evicts an entry that a later
# op of its round reads
_prefixes = _PrefixCache(maxsize=256)


def _cache_info() -> _CacheInfo:
    return _prefixes.info()


def _graded_dims(complex_: SimplicialComplex, r: int, dmax: int) -> tuple[int, ...]:
    """The prefix through dmax of ``complex_``, eliminated with its walls
    as ``build_system`` reads them.  On a normal form every wall of an
    orange is zero on the last k - i coordinates, the medial face's."""
    system = build_system(complex_, r, dmax)
    powers = system.wall_powers
    face_mons, cof_mons = system.face_monomials, system.cofactor_monomials
    m, mc = len(face_mons), len(cof_mons)
    base = system.n_faces * m
    ncols = system.ncols
    # the forest and cycle conditions of the module docstring: x_p = g_p
    components, cycles = _dual_forest(system.n_faces, system.pairs)
    cofactor_degrees = [sum(u) + r + 1 for u in cof_mons]
    # cofactor column base + q*mc + i, of degree j, is eliminated as column
    # (2j + [q on the forest]) * ncols + base + q*mc + i: in degree order,
    # and within a degree a cycle's own pair, which no other cycle has, first
    keys = [
        [(2 * j + (q not in cycles)) * ncols + col
         for col, j in enumerate(cofactor_degrees, base + q * mc)]
        for q in range(len(system.pairs))
    ]
    mono_pos = {mono: idx for idx, mono in enumerate(face_mons)}
    shifted: dict[tuple[int, ...], list[int]] = {}
    rows: list[IntRow] = []
    for cycle in cycles.values():
        # the coefficients of sum_q sign_q * g_q, one row per monomial; the
        # pairs' columns are disjoint, so each entry is written once
        by_monomial: list[IntRow] = [{} for _ in range(m)]
        for q, sign in cycle.items():
            for e, c in powers[q]:
                if e not in shifted:
                    shifted[e] = [mono_pos[tuple(map(add, u, e))] for u in cof_mons]
                entry = sign * c
                for at, key in zip(shifted[e], keys[q]):
                    by_monomial[at][key] = entry
        rows.extend(row for row in by_monomial if row)
    pivots = _echelon(rows)
    free = [0] * (dmax + 1)
    for mono in face_mons:
        free[sum(mono)] += components
    for pair_keys in keys:
        for key, j in zip(pair_keys, cofactor_degrees):
            if key not in pivots:
                free[j] += 1
    return tuple(accumulate(free))


def spline_dim(complex_: SimplicialComplex, r: int, d: int) -> int:
    """dim of the degree-<=d, order-r spline space, by exact nullity.

    This is the generic facet-adjacency oracle: it accepts any complex,
    orange or not, and imposes smoothness across shared facets only.  It
    reads ``spline_dims(complex_, r, d)[d]``, so ``spline_dim.cache_info()``
    answers for the ``spline_dims`` cache (a hit whenever the prefix through
    degree d is already known).  The formula side reads closed forms for
    stars in R^i with i <= 2, so only an i = 3 star can share this
    oracle's entry: an orange with i = k = 3 (any affine image of
    ``vertex-star-3d``) is an affine image of its projected star, with the
    same vertex labels and faces, so both have one normal form, and the
    formula's star dimensions and the oracle's values are one entry.
    ``bernstein.bernstein_dim`` is the independent count there.
    """
    dims = spline_dims(complex_, r, _check_int(d, "degree"))
    return dims[d] if d >= 0 else 0


spline_dim.cache_info = _cache_info  # type: ignore[attr-defined]


def spline_basis(complex_: SimplicialComplex, r: int, d: int) -> list[tuple[Polynomial, ...]]:
    """Canonical basis of the spline space, one polynomial per maximal face.

    Comes from the reduced-echelon nullspace of the smoothness system, so
    the basis is deterministic.  Each returned spline is re-verified: every
    facet difference must be exactly divisible by the wall form's power.
    """
    system = build_system(complex_, r, d)
    k = complex_.ambient_dim
    m = system.face_block_size
    nf = system.n_faces
    basis: list[tuple[Polynomial, ...]] = []
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
    faces = complex_.maximal_faces
    for s, t in system.pairs:
        shared = sorted(set(faces[s]) & set(faces[t]))
        form = _wall([complex_.nums[v] for v in shared], complex_.den)
        wall = Polynomial.linear(form[:k], form[k])
        if not all(divisible_by_linear_power(b[s] - b[t], wall, r + 1) for b in basis):
            raise AssertionError("nullspace vector violates smoothness")
    return basis
