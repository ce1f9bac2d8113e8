"""Dimension reduction for oranges: closed-form counts and series checks.

The spline space of a (k, i)-orange decomposes along monomials in the
k - i coordinates spanned by the medial face: every projected spline of
degree j reappears once for each degree-(d - j) monomial in those tail
variables.  That gives

    dim S^r_d(O) = sum_{j=0}^{d} C(d - j + k - i - 1, k - i - 1) * dim S^r_j(C)

with C the projected star in R^i.  The same identity in generating-function
form says the Hilbert series of the orange equals that of C divided by
(1 - t)^(k - i); both forms are implemented here and cross-checked against
the brute-force cofactor computation by the test suite.

Every series here is read from whole prefixes: the formula takes the star's
dimensions in degrees 0..d from one ``spline_dims`` call, and the identity
check takes one prefix of the orange and one of the star, so each side
costs one graded cofactor system, not one system per degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cofactor import spline_dim, spline_dims
from .complexes import SimplicialComplex, detect_orange
from .exact import binom
from .projection import project_orange, standard_form

__all__ = [
    "layer_count",
    "orange_dim_formula",
    "HilbertPrefix",
    "hilbert_prefix",
    "orange_hilbert_prefix",
    "verify_hilbert_identity",
    "verify_standard_orange",
]


def layer_count(d: int, j: int, fiber_dim: int) -> int:
    """Number of monomials of degree exactly d - j in ``fiber_dim`` variables.

    This is the multiplicity with which degree-j projected splines appear in
    degree d on the orange.  With no tail variables (fiber_dim = 0) only the
    top layer j = d survives.
    """
    if j < 0 or j > d:
        return 0
    if fiber_dim == 0:
        return 1 if j == d else 0
    return binom(d - j + fiber_dim - 1, fiber_dim - 1)


def orange_dim_formula(complex_: SimplicialComplex, r: int, d: int) -> int:
    """dim S^r_d of an orange via the reduction to its projected star."""
    coeffs = _formula_coeffs(complex_, r, d)
    return coeffs[d] if d >= 0 else 0


def _formula_coeffs(complex_: SimplicialComplex, r: int, dmax: int) -> tuple[int, ...]:
    """The reduction formula in degrees 0..dmax, from one star prefix."""
    if r < 0:
        raise ValueError("smoothness order must be nonnegative")
    profile = detect_orange(complex_)
    fiber = profile.k - profile.i
    star = spline_dims(project_orange(complex_).complex, r, dmax)
    return tuple(
        sum(layer_count(d, j, fiber) * star[j] for j in range(d + 1))
        for d in range(dmax + 1)
    )


@dataclass(frozen=True)
class HilbertPrefix:
    """Leading coefficients of a Hilbert series: coeffs[d] = dim in degree d."""

    r: int
    dmax: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.dmax + 1:
            raise ValueError("coefficient count does not match dmax")


def _check_dmax(dmax: int) -> None:
    if dmax < 0:
        raise ValueError(f"dmax must be nonnegative, got {dmax}")


def hilbert_prefix(complex_: SimplicialComplex, r: int, dmax: int) -> HilbertPrefix:
    """Spline dimensions in degrees 0..dmax, by the cofactor computation.

    One ``spline_dims`` call, so one cofactor system at dmax for any
    complex, or none when a prefix through dmax is already cached.
    """
    _check_dmax(dmax)
    return HilbertPrefix(r=r, dmax=dmax, coeffs=spline_dims(complex_, r, dmax))


def orange_hilbert_prefix(
    complex_: SimplicialComplex, r: int, dmax: int
) -> HilbertPrefix:
    """Spline dimensions in degrees 0..dmax, by the reduction formula."""
    _check_dmax(dmax)
    return HilbertPrefix(r=r, dmax=dmax, coeffs=_formula_coeffs(complex_, r, dmax))


def verify_hilbert_identity(
    complex_: SimplicialComplex, r: int, dmax: int
) -> tuple[bool, list[int]]:
    """Check H_orange(t) * (1 - t)^(k - i) == H_star(t) through degree dmax.

    Both sides are computed as truncated integer series from the cofactor
    dimensions alone (no reduction formula involved), so this is a second,
    independent consequence of the decomposition.  Returns (ok, residuals)
    where residuals[d] is the degree-d coefficient of LHS - RHS.
    """
    _check_dmax(dmax)
    profile = detect_orange(complex_)
    fiber = profile.k - profile.i
    star = project_orange(complex_).complex
    orange_coeffs = spline_dims(complex_, r, dmax)
    star_coeffs = spline_dims(star, r, dmax)
    # (1 - t)^fiber has coefficients (-1)^m C(fiber, m)
    residuals = []
    for d in range(dmax + 1):
        lhs = sum(
            (-1) ** m * binom(fiber, m) * orange_coeffs[d - m]
            for m in range(min(fiber, d) + 1)
        )
        residuals.append(lhs - star_coeffs[d])
    return all(x == 0 for x in residuals), residuals


def verify_standard_orange(
    complex_: SimplicialComplex, r: int, d: int
) -> tuple[bool, int, int]:
    """Compare dim S^r_d of an orange and of its standard model.

    The standard model joins the projected star with a coordinate simplex;
    both dimensions are computed by the cofactor oracle, so agreement is a
    nontrivial statement about the geometry mattering only through C.
    Returns (equal, dim_original, dim_standard).
    """
    sf = standard_form(complex_)
    a = spline_dim(complex_, r, d)
    b = spline_dim(sf.standard, r, d)
    return a == b, a, b
