"""Sparse polynomial arithmetic and linear-form division."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from reference_algebra import linear_power

from orangesplines.exact import binom
from orangesplines.polynomials import (
    Polynomial,
    divide_by_linear,
    divisible_by_linear_power,
    monomials_of_degree,
    monomials_upto,
)


def test_monomial_counts():
    for nvars in range(5):
        for d in range(5):
            assert len(monomials_upto(nvars, d)) == binom(d + nvars, nvars)
            exact = len(monomials_of_degree(nvars, d))
            if nvars == 0:
                assert exact == (1 if d == 0 else 0)
            else:
                assert exact == binom(d + nvars - 1, nvars - 1)


def test_monomial_order_is_graded():
    monos = monomials_upto(3, 4)
    keys = [(sum(e), e) for e in monos]
    assert keys == sorted(keys)
    assert len(set(monos)) == len(monos)


def test_zero_variables():
    assert monomials_upto(0, 3) == [()]
    p = Polynomial.constant(0, Fraction(5))
    assert p.evaluate(()) == 5
    assert p.degree() == 0


def _random_poly(rng: random.Random, nvars: int, d: int) -> Polynomial:
    coeffs = {}
    for e in monomials_upto(nvars, d):
        if rng.random() < 0.4:
            coeffs[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(nvars, coeffs)


def test_binomial_square():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) ** 2
    assert p.coefficient((2, 0)) == 1
    assert p.coefficient((1, 1)) == 2
    assert p.coefficient((0, 2)) == 1
    assert p.degree() == 2


def test_evaluate_agrees_with_expansion():
    rng = random.Random(3)
    for _ in range(20):
        p = _random_poly(rng, 2, 3)
        q = _random_poly(rng, 2, 3)
        point = (Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 3))
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_degree_and_zero():
    z = Polynomial.zero(3)
    assert z.degree() == -1
    assert z.is_zero()
    assert (z * Polynomial.variable(3, 1)).is_zero()
    with pytest.raises(ValueError):
        z.leading()


def test_leading_term_is_graded_lex():
    p = Polynomial(2, {(1, 0): Fraction(1), (0, 2): Fraction(1)})
    e, c = p.leading()
    assert e == (0, 2)
    p = Polynomial(2, {(1, 1): Fraction(2), (0, 2): Fraction(3)})
    e, c = p.leading()
    assert e == (1, 1)
    assert c == 2


def test_linear_power_requires_degree_one():
    x = Polynomial.variable(2, 0)
    assert linear_power(x, 3) == x ** 3
    with pytest.raises(ValueError):
        linear_power(x * x, 2)


def test_division_reconstructs():
    rng = random.Random(17)
    for nvars in (1, 2, 3):
        ell = Polynomial.linear(
            [Fraction(rng.randint(-2, 2)) for _ in range(nvars)], Fraction(1)
        )
        for _ in range(10):
            p = _random_poly(rng, nvars, 4)
            q, rem = divide_by_linear(p, ell)
            assert q * ell + rem == p


def test_exact_divisibility():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    wall = x - y
    p = wall ** 3 * (x + y + Polynomial.constant(2, 1))
    assert divisible_by_linear_power(p, wall, 3)
    assert not divisible_by_linear_power(p, wall, 4)
    assert divisible_by_linear_power(Polynomial.zero(2), wall, 5)


def test_division_by_nonlinear_rejected():
    x = Polynomial.variable(1, 0)
    with pytest.raises(ValueError):
        divide_by_linear(x, x * x)
