"""Shared helpers: catalog access, independent oracles, random transforms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from orangesplines import bernstein, cofactor
from orangesplines.catalog import get
from orangesplines.complexes import SimplicialComplex
from orangesplines.exact import binom


@pytest.fixture
def empty_prefix_cache(monkeypatch):
    """An empty prefix cache of the size that ``spline_dims`` uses."""
    cache = cofactor._PrefixCache(maxsize=cofactor._prefixes.maxsize)
    monkeypatch.setattr(cofactor, "_prefixes", cache)
    return cache


@pytest.fixture
def empty_bernstein_cache(monkeypatch):
    """An empty cache of the size that ``bernstein`` shares its lattice
    groups and smoothness rows across affine images in."""
    cache = cofactor._LRUCache(maxsize=bernstein._shared.maxsize)
    monkeypatch.setattr(bernstein, "_shared", cache)
    return cache


@pytest.fixture
def two_triangle() -> SimplicialComplex:
    return get("two-triangle").complex


@pytest.fixture
def two_intervals() -> SimplicialComplex:
    """The star [-1, 0] u [0, 1] with the center first."""
    return SimplicialComplex(1, [[0], [-1], [1]], [[0, 1], [0, 2]])


@pytest.fixture
def univariate_dim():
    """Classical closed form for splines on a chain of intervals.

    Degree-d polynomials on the first interval, plus max(0, d - r) new
    freedoms per interior knot.
    """

    def formula(n_intervals: int, r: int, d: int) -> int:
        return (d + 1) + (n_intervals - 1) * max(0, d - r)

    return formula


@pytest.fixture
def continuous_dim_2d():
    """Continuous piecewise polynomials on a planar triangulation, d >= 1:
    one coefficient per domain point."""

    def formula(v: int, e: int, f: int, d: int) -> int:
        return v + (d - 1) * e + binom(d - 1, 2) * f

    return formula


@pytest.fixture
def continuous_dim_3d():
    def formula(v: int, e: int, f: int, t: int, d: int) -> int:
        return v + (d - 1) * e + binom(d - 1, 2) * f + binom(d - 1, 3) * t

    return formula


@pytest.fixture
def random_affine_map():
    """Invertible rational affine map as a product of elementary shears."""

    def draw(k: int, rng: random.Random):
        m = [[Fraction(1 if a == b else 0) for b in range(k)] for a in range(k)]
        for _ in range(2 * k):
            a = rng.randrange(k)
            b = rng.randrange(k)
            if a == b:
                continue
            factor = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            for c in range(k):
                m[a][c] += factor * m[b][c]
        translation = [
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)
        ]
        return m, translation

    return draw
