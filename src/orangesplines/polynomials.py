"""Sparse multivariate polynomials over the rationals.

Exponent vectors are tuples of length ``nvars``; monomial order everywhere
is graded lexicographic (total degree first, then lex), which fixes the
column layout of every linear system built downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from .exact import _check_exact, _check_int

__all__ = [
    "Polynomial",
    "monomials_upto",
    "monomials_of_degree",
    "divide_by_linear",
    "divisible_by_linear_power",
]

Exponent = tuple[int, ...]


def _grlex_key(e: Exponent) -> tuple[int, Exponent]:
    return (sum(e), e)


@lru_cache(maxsize=None)
def _exponents(nvars: int, d: int) -> tuple[Exponent, ...]:
    """All exponent vectors in ``nvars`` >= 0 variables of total degree
    exactly d, lex descending; none when d < 0.  The package's one
    enumeration of them, listed once per (nvars, d) for an int d: the
    Bernstein multi-indices and tail shifts read it as it is, and the
    grlex monomial lists (``monomials_of_degree``, ``monomials_upto``, the
    cofactor columns) read it reversed."""
    if d < 0:
        return ()
    if nvars == 0:
        return ((),) if d == 0 else ()
    return tuple(
        (first, *rest) for first in range(d, -1, -1) for rest in _exponents(nvars - 1, d - first)
    )


def monomials_of_degree(nvars: int, d: int) -> list[Exponent]:
    """All exponent vectors of total degree exactly ``d``, in grlex order;
    none when d < 0.  The degree must be an int."""
    return list(reversed(_exponents(nvars, _check_int(d, "degree"))))


def monomials_upto(nvars: int, d: int) -> list[Exponent]:
    """All exponent vectors of total degree at most ``d``, in grlex order;
    none when d < 0.  The degree must be an int."""
    return [e for j in range(_check_int(d, "degree") + 1) for e in reversed(_exponents(nvars, j))]


@dataclass(frozen=True)
class Polynomial:
    """Immutable polynomial: a map from exponent tuple to nonzero Fraction.
    Coefficients are read by ``exact._check_exact``, so each must be an int
    or a Fraction."""

    nvars: int
    coeffs: Mapping[Exponent, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {}
        for e, v in self.coeffs.items():
            if len(e) != self.nvars:
                raise ValueError(f"exponent {e} has wrong arity for {self.nvars} vars")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            if _check_exact(v, "coefficient of {}", tuple(e)):
                clean[tuple(e)] = Fraction(v)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: Fraction | int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        e = [0] * nvars
        e[index] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, exponent: Sequence[int], coeff: Fraction | int = 1) -> "Polynomial":
        e = tuple(exponent)
        return cls(len(e), {e: coeff})

    @classmethod
    def linear(cls, coeffs: Sequence[Fraction | int], constant: Fraction | int = 0) -> "Polynomial":
        """a_1 x_1 + ... + a_n x_n + b."""
        n = len(coeffs)
        terms: dict[Exponent, Fraction | int] = {(0,) * n: constant}
        for i, a in enumerate(coeffs):
            terms[tuple(int(c == i) for c in range(n))] = a
        return cls(n, terms)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def coefficient(self, exponent: Sequence[int]) -> Fraction:
        return self.coeffs.get(tuple(exponent), Fraction(0))

    def terms(self) -> Iterator[tuple[Exponent, Fraction]]:
        """Terms in ascending grlex order."""
        for e in sorted(self.coeffs, key=_grlex_key):
            yield e, self.coeffs[e]

    def leading(self) -> tuple[Exponent, Fraction]:
        """Greatest term in grlex order (ValueError on the zero polynomial)."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.coeffs, key=_grlex_key)
        return e, self.coeffs[e]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            w = out.get(e, Fraction(0)) + v
            if w:
                out[e] = w
            elif e in out:
                del out[e]
        return Polynomial(self.nvars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -v for e, v in self.coeffs.items()})

    def __mul__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if not isinstance(other, Polynomial):
            f = Fraction(_check_exact(other, "scalar factor"))
            if not f:
                return Polynomial.zero(self.nvars)
            return Polynomial(self.nvars, {e: v * f for e, v in self.coeffs.items()})
        self._check(other)
        out: dict[Exponent, Fraction] = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                w = out.get(e, Fraction(0)) + v1 * v2
                if w:
                    out[e] = w
                elif e in out:
                    del out[e]
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        point = [_check_exact(x, "point coordinate {}", j) for j, x in enumerate(point)]
        total = Fraction(0)
        for e, v in self.coeffs.items():
            term = v
            for x, p in zip(point, e):
                if p:
                    term *= x**p
            total += term
        return total

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different variable counts")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, v in self.terms():
            mono = "*".join(
                f"x{i}" if p == 1 else f"x{i}^{p}"
                for i, p in enumerate(e)
                if p
            )
            if mono:
                parts.append(f"{v}*{mono}" if v != 1 else mono)
            else:
                parts.append(str(v))
        return " + ".join(parts)


def divide_by_linear(p: Polynomial, ell: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Divide by a degree-1 form: p = q*ell + r with grlex leading-term steps.

    The remainder is zero exactly when ell divides p, so this doubles as the
    exact divisibility test used to validate smoothness cofactors.
    """
    if ell.degree() != 1:
        raise ValueError("divisor must have degree 1")
    le, lc = ell.leading()
    q = Polynomial.zero(p.nvars)
    rem = Polynomial.zero(p.nvars)
    work = p
    while not work.is_zero():
        we, wc = work.leading()
        quot_e = tuple(a - b for a, b in zip(we, le))
        if all(x >= 0 for x in quot_e):
            t = Polynomial.monomial(quot_e, wc / lc)
            q = q + t
            work = work - t * ell
        else:
            t = Polynomial.monomial(we, wc)
            rem = rem + t
            work = work - t
    return q, rem


def divisible_by_linear_power(p: Polynomial, ell: Polynomial, e: int) -> bool:
    """True iff ell**e divides p exactly."""
    work = p
    for _ in range(e):
        if work.is_zero():
            return True
        work, rem = divide_by_linear(work, ell)
        if not rem.is_zero():
            return False
    return True
