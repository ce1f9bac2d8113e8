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

For i <= 2 the star is a point, one or two segments, or a planar fan of
triangles, and its dimensions have classical closed forms
(``star_dims_closed_form``): the formula then builds no system at all,
which also keeps it independent of the cofactor oracle it is checked
against.  Only a star in R^3 is eliminated, its dimensions in degrees
0..d read from one ``spline_dims`` call.  The identity check takes one
cofactor prefix of the orange and one of the star, so each side costs one
graded cofactor system, not one system per degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cofactor import spline_dim, spline_dims
from .complexes import (
    EmptyMedialFaceError,
    InvalidComplexError,
    NotPureError,
    SimplicialComplex,
    UnsupportedOrangeError,
    adjacent_pairs,
    detect_orange,
)
from .exact import _check_int, _check_nonnegative, binom
from .projection import project_orange, standard_form

__all__ = [
    "layer_count",
    "star_dims_closed_form",
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
    top layer j = d survives.  d and j must be ints and ``fiber_dim`` a
    nonnegative int.
    """
    _check_int(d, "degree")
    _check_int(j, "layer")
    _check_nonnegative(fiber_dim, "fiber dimension")
    if j < 0 or j > d:
        return 0
    if fiber_dim == 0:
        return 1 if j == d else 0
    return binom(d - j + fiber_dim - 1, fiber_dim - 1)


def star_dims_closed_form(star: SimplicialComplex, r: int, dmax: int) -> tuple[int, ...]:
    """dim S^r_d of a star C in R^i, i <= 2, for d = 0..dmax; () when dmax < 0.

    ``star`` must be a valid star of one vertex, as ``project_orange``
    returns it: a point in R^0, one or two segments in R^1, or a fan of
    triangles around a centre in R^2.  Its dual graph (faces joined by
    shared facets) is then a path, or a cycle exactly when the centre is
    interior, and with n its number of edges (the adjacent pairs):

    - a path (every i <= 1 star and a boundary centre):
      C(d+i, i) + n * C(d-r-1+i, i), as each pair's cofactor of degree
      <= d - r - 1 is free;
    - a cycle: C(d+2, 2) for d <= r, else C(r+2, 2) + n * C(d-r+1, 2)
      + sum_{j=1}^{d-r} (r + j + 1 - j*m)_+, with m the number of distinct
      slopes of the shared edges (Schumaker, "On the dimension of spaces
      of piecewise polynomials in two variables", 1979; Lai & Schumaker,
      *Spline Functions on Triangulations*, 2007, ch. 9).

    No system is built.  The complex is checked first: any complex that
    is no such star raises InvalidComplexError, in every ambient
    dimension.  The star must be an orange (``detect_orange``: its
    maximal faces share a vertex, so it is the star of that vertex, and
    are full-dimensional and joined through shared facets) and a
    geometric complex (its projection, ``project_orange``, validates it).
    A valid orange in R^3 or beyond then raises ValueError.
    """
    _check_nonnegative(r, "smoothness order")
    _check_int(dmax, "dmax")
    try:
        project_orange(star)
    except (NotPureError, EmptyMedialFaceError, UnsupportedOrangeError) as error:
        raise InvalidComplexError(f"not a star of one vertex: {error}") from None
    if star.ambient_dim > 2:
        raise ValueError(f"no closed form for a star in R^{star.ambient_dim}")
    return _closed_form(star, r, dmax)


def _closed_form(star: SimplicialComplex, r: int, dmax: int) -> tuple[int, ...]:
    """``star_dims_closed_form`` on a star known to be valid: a projected
    star, which ``project_orange`` has validated."""
    if dmax < 0:
        return ()
    i = star.ambient_dim
    faces = star.maximal_faces
    pairs = adjacent_pairs(star)
    n = len(pairs)
    if n < len(faces):
        return tuple(
            math.comb(d + i, i) + (n * math.comb(d - r - 1 + i, i) if d > r else 0)
            for d in range(dmax + 1)
        )
    # each shared edge runs from the centre to one more vertex; its slope
    # is its primitive integer direction up to sign
    (centre,) = set(faces[0]).intersection(*faces[1:])
    nums = star.nums
    slopes = set()
    for s, t in pairs:
        (v,) = set(faces[s]) & set(faces[t]) - {centre}
        a, b = (x - c for x, c in zip(nums[v], nums[centre]))
        g = math.gcd(a, b) if (a, b) > (0, 0) else -math.gcd(a, b)
        slopes.add((a // g, b // g))
    m = len(slopes)
    dims = [math.comb(d + 2, 2) for d in range(min(r, dmax) + 1)]
    sigma = 0
    for j in range(1, dmax - r + 1):
        sigma += max(r + j + 1 - j * m, 0)
        dims.append(math.comb(r + 2, 2) + n * math.comb(j + 1, 2) + sigma)
    return tuple(dims)


def orange_dim_formula(complex_: SimplicialComplex, r: int, d: int) -> int:
    """dim S^r_d of an orange via the reduction to its projected star."""
    coeffs = _formula_coeffs(complex_, r, _check_int(d, "degree"))
    return coeffs[d] if d >= 0 else 0


def _formula_coeffs(complex_: SimplicialComplex, r: int, dmax: int) -> tuple[int, ...]:
    """The reduction formula in degrees 0..dmax, from one star prefix:
    closed forms for i <= 2, one ``spline_dims`` call for i = 3."""
    _check_nonnegative(r, "smoothness order")
    profile = detect_orange(complex_)
    fiber = profile.k - profile.i
    # the projection validates the star, which the closed forms rely on
    star = project_orange(complex_).complex
    star_dims = (_closed_form if profile.i <= 2 else spline_dims)(star, r, dmax)
    # the multiplicity of layer j in degree d depends on d - j alone
    mult = [layer_count(e, 0, fiber) for e in range(dmax + 1)]
    return tuple(
        sum(mult[d - j] * star_dims[j] for j in range(d + 1)) for d in range(dmax + 1)
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


def hilbert_prefix(complex_: SimplicialComplex, r: int, dmax: int) -> HilbertPrefix:
    """Spline dimensions in degrees 0..dmax, by the cofactor computation.

    One ``spline_dims`` call, so one cofactor system at dmax for any
    complex, or none when a prefix through dmax is already cached.
    """
    _check_nonnegative(dmax, "dmax")
    return HilbertPrefix(r=r, dmax=dmax, coeffs=spline_dims(complex_, r, dmax))


def orange_hilbert_prefix(
    complex_: SimplicialComplex, r: int, dmax: int
) -> HilbertPrefix:
    """Spline dimensions in degrees 0..dmax, by the reduction formula."""
    _check_nonnegative(dmax, "dmax")
    return HilbertPrefix(r=r, dmax=dmax, coeffs=_formula_coeffs(complex_, r, dmax))


def verify_hilbert_identity(
    complex_: SimplicialComplex, r: int, dmax: int
) -> tuple[bool, list[int]]:
    """Check H_orange(t) * (1 - t)^(k - i) == H_star(t) through degree dmax.

    Both sides are computed as truncated integer series from the cofactor
    dimensions alone (no reduction formula involved), so this is a second,
    independent consequence of the decomposition when i < k.  When i = k
    the orange is an affine image of its star, and both sides read one
    cached elimination (``cofactor.spline_dims``).  Returns (ok, residuals)
    where residuals[d] is the degree-d coefficient of LHS - RHS.
    """
    _check_nonnegative(dmax, "dmax")
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
    nontrivial statement about the geometry mattering only through C when
    0 < i < k.  When i = 0 (a single simplex) or i = k (an orange that is
    its own star) the model is an affine image of the orange with the same
    vertex labels and faces, so both read one cached elimination
    (``cofactor.spline_dims`` keys its cache on the affine normal form),
    and agreement holds by construction.
    Returns (equal, dim_original, dim_standard).
    """
    sf = standard_form(complex_)
    a = spline_dim(complex_, r, d)
    b = spline_dim(sf.standard, r, d)
    return a == b, a, b
