"""Rational parsing and the exact linear algebra kernel."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orangesplines.exact import (
    EchelonBasis,
    RationalMatrix,
    _integer_kernel,
    _integer_row,
    _nullspace_of_rows,
    _rref,
    binom,
    format_rational,
    invert_matrix,
    parse_rational,
    solve_linear,
)


def test_binom_matches_comb():
    for n in range(10):
        for k in range(n + 1):
            assert binom(n, k) == math.comb(n, k)


def test_binom_out_of_range_is_zero():
    assert binom(3, -1) == 0
    assert binom(3, 4) == 0
    assert binom(0, 0) == 1


def test_binom_negative_n_rejected():
    with pytest.raises(ValueError):
        binom(-1, 0)


@pytest.mark.parametrize(
    "text,value",
    [
        ("3", Fraction(3)),
        ("-7", Fraction(-7)),
        ("+2", Fraction(2)),
        ("1/2", Fraction(1, 2)),
        ("-4/6", Fraction(-2, 3)),
        (5, Fraction(5)),
    ],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("bad", ["1/0", "1.5", "", "a", "1/-2", "2/0", "0x3", True, 2.5, None])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        q = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def _reference_rank(rows: list[list[Fraction]]) -> int:
    """Plain dense Gaussian elimination, used as a cross-check."""
    work = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(work) and col < ncols:
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col] / pv
                for j in range(col, ncols):
                    work[i][j] -= f * work[rank][j]
        rank += 1
        col += 1
    return rank


def test_rank_small_cases():
    m = RationalMatrix.from_rows([[1, 2], [2, 4]])
    assert m.rank() == 1
    assert m.nullity() == 1
    m = RationalMatrix.from_rows([[1, 0], [0, 1]])
    assert m.rank() == 2
    m = RationalMatrix.from_rows([[0, 0], [0, 0]])
    assert m.rank() == 0


def test_from_sparse_rejects_out_of_range_columns():
    for col in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            RationalMatrix.from_sparse([{col: Fraction(1)}], 2)
    # a 1 x 2 zero matrix, for contrast
    assert RationalMatrix.from_sparse([{}], 2).nullity() == 2


def test_rank_matches_reference_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(40):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        m = RationalMatrix.from_rows(rows)
        assert m.rank() == _reference_rank(rows)


def test_nullspace_vectors_are_in_the_kernel():
    rng = random.Random(11)
    for _ in range(25):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-2, 2)) for _ in range(ncols)] for _ in range(nrows)
        ]
        m = RationalMatrix.from_rows(rows)
        basis = m.nullspace()
        assert len(basis) == m.nullity()
        for vec in basis:
            for row in rows:
                total = sum(row[c] * v for c, v in vec.items())
                assert total == 0


def test_nullspace_is_canonical():
    rows = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    a = RationalMatrix.from_rows(rows).nullspace()
    b = RationalMatrix.from_rows(list(reversed(rows))).nullspace()
    assert a == b


def test_solve_linear_unique():
    sol = solve_linear(
        [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]],
        [Fraction(4), Fraction(9)],
    )
    assert sol is not None
    particular, basis = sol
    assert particular == [Fraction(2), Fraction(3)]
    assert basis == []


def test_solve_linear_inconsistent():
    sol = solve_linear(
        [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
        [Fraction(0), Fraction(1)],
    )
    assert sol is None


def test_solve_linear_underdetermined():
    sol = solve_linear([[Fraction(1), Fraction(1)]], [Fraction(5)])
    assert sol is not None
    particular, basis = sol
    assert particular[0] + particular[1] == 5
    assert len(basis) == 1
    assert basis[0][0] + basis[0][1] == 0


def test_invert_matrix():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = invert_matrix(m)
    prod = [
        [sum(m[a][c] * inv[c][b] for c in range(2)) for b in range(2)]
        for a in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        invert_matrix([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_echelon_basis_tracks_rank():
    rng = random.Random(5)
    for _ in range(20):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-2, 2)) for _ in range(ncols)] for _ in range(nrows)
        ]
        tracker = EchelonBasis()
        added = sum(1 for row in rows if tracker.add(row))
        assert added == tracker.rank == RationalMatrix.from_rows(rows).rank()


def _reference_add(pivots: dict[int, dict[int, Fraction]], row: dict[int, Fraction]) -> bool:
    """Forward step of the reference RREF: reduce ``row`` against the
    normalized pivot rows and keep it, normalized, if anything is left."""
    r = {c: v for c, v in row.items() if v}
    while r:
        c = min(r)
        if c not in pivots:
            inv = r[c]
            pivots[c] = {cc: vv / inv for cc, vv in r.items()}
            return True
        f = r.pop(c)
        for cc, vv in pivots[c].items():
            if cc == c:
                continue
            w = r.get(cc, 0) - f * vv
            if w:
                r[cc] = w
            elif cc in r:
                del r[cc]
    return False


def _reference_rref(rows: list[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form over Fraction, row by row in input order."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        _reference_add(pivots, row)
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


@st.composite
def sparse_rational_matrices(draw):
    """Dense rows, about half zeros, with zero rows and scaled repeats mixed in."""
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6)
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    rows += [[Fraction(0)] * ncols] * draw(st.integers(0, 2))
    if rows:
        scale = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
        for idx, factor in draw(
            st.lists(st.tuples(st.integers(0, len(rows) - 1), scale), max_size=3)
        ):
            rows.append([factor * v for v in rows[idx]])
    return ncols, draw(st.permutations(rows))


def test_kernel_matches_fraction_reference():
    full_rank = []

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(sparse_rational_matrices())
    def check(matrix):
        ncols, rows = matrix
        sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
        assert _rref(sparse) == _reference_rref(sparse)
        rank = _reference_rank(rows)
        assert RationalMatrix.from_sparse(sparse, ncols).rank() == rank
        tracker = EchelonBasis()
        reference: dict[int, dict[int, Fraction]] = {}
        for row in sparse:
            assert tracker.add(row) == _reference_add(reference, row)
        assert tracker.rank == rank
        full_rank.append(rank == min(len(rows), ncols))

    check()
    # a run without both kinds of matrix would leave a branch unchecked
    assert True in full_rank and False in full_rank


def test_integer_kernel_scales_the_fraction_rref_basis():
    nullities = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(sparse_rational_matrices())
    def check(matrix):
        ncols, rows = matrix
        sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
        reference = _reference_rref(sparse)
        # the RREF basis over Fraction: 1 at the free column f, minus the
        # RREF entries of column f at the pivots
        expected = [
            {f: Fraction(1), **{p: -row[f] for p, row in sorted(reference.items()) if f in row}}
            for f in range(ncols)
            if f not in reference
        ]
        basis = _integer_kernel(map(_integer_row, sparse), ncols)
        assert len(basis) == len(_nullspace_of_rows(sparse, ncols)) == len(expected)
        for vec, ref in zip(basis, expected):
            f = max(ref)
            assert max(vec) == f and vec[f] > 0
            assert all(type(v) is int for v in vec.values())
            assert math.gcd(*vec.values()) == 1
            assert vec == {c: vec[f] * v for c, v in ref.items()}
        assert RationalMatrix.from_sparse(sparse, ncols).nullspace() == expected
        nullities.append(len(basis))

    check()
    # both a trivial kernel and one with several vectors must occur
    assert 0 in nullities and max(nullities) > 1
