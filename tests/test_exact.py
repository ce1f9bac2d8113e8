"""Rational parsing and the exact linear algebra kernel."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from reference_algebra import Echelon, nullspace, rank, rref

from orangesplines.exact import (
    EchelonBasis,
    RationalMatrix,
    _integer_kernel,
    _integer_row,
    _integer_rref,
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


def _matrix(rows) -> RationalMatrix:
    """Dense rows as a ``RationalMatrix``."""
    ncols = len(rows[0]) if rows else 0
    return RationalMatrix.from_sparse([dict(enumerate(row)) for row in rows], ncols)


def test_rank_small_cases():
    for rows, expected in [([[1, 2], [2, 4]], 1), ([[1, 0], [0, 1]], 2), ([[0, 0], [0, 0]], 0)]:
        assert _matrix(rows).rank() == rank(rows) == expected


def test_from_sparse_rejects_out_of_range_columns():
    for col in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            RationalMatrix.from_sparse([{col: Fraction(1)}], 2)
    # a 1 x 2 zero matrix, for contrast
    zero = RationalMatrix.from_sparse([{}], 2)
    assert (zero.nrows, zero.ncols, zero.rows) == (1, 2, ((),))
    assert (zero.rank(), len(zero.nullspace())) == (0, 2)


def test_rank_matches_reference_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(40):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        assert _matrix(rows).rank() == rank(rows)


def test_nullspace_vectors_are_in_the_kernel():
    rng = random.Random(11)
    for _ in range(25):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-2, 2)) for _ in range(ncols)] for _ in range(nrows)
        ]
        m = _matrix(rows)
        basis = m.nullspace()
        assert len(basis) == m.ncols - rank(rows)
        for vec in basis:
            for row in rows:
                total = sum(row[c] * v for c, v in vec.items())
                assert total == 0


def test_nullspace_is_canonical():
    rows = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    a = _matrix(rows).nullspace()
    b = _matrix(list(reversed(rows))).nullspace()
    assert a == b == nullspace(rows, 3)


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
    # the integer RREF row (2, 1 | 1) is read over its pivot entry
    assert solve_linear([[2, 1]], [1]) == ([Fraction(1, 2), 0], [[Fraction(-1, 2), 1]])


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
        assert added == tracker.rank == _matrix(rows).rank() == rank(rows)


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
        reference = rref(sparse)
        # each integer RREF row is a multiple of the canonical one
        integer = _integer_rref(map(_integer_row, sparse))
        normalized = {p: {c: Fraction(v, row[p]) for c, v in row.items()} for p, row in integer.items()}
        assert normalized == reference
        assert RationalMatrix.from_sparse(sparse, ncols).rank() == len(reference)
        tracker, echelon = EchelonBasis(), Echelon()
        for row in sparse:
            assert tracker.add(row) == echelon.add(row)
        assert tracker.rank == len(reference)
        full_rank.append(len(reference) == min(len(rows), ncols))

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
        # the RREF basis over Fraction: 1 at the free column f, minus the
        # RREF entries of column f at the pivots
        expected = nullspace(sparse, ncols)
        basis = _integer_kernel(map(_integer_row, sparse), ncols)
        assert len(basis) == len(expected)
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
