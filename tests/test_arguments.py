"""Every public function that takes a smoothness order, degree, dmax or
fiber dimension checks it the same way: the value must be an int (a bool
is not one), and a negative value raises unless a negative degree has a
meaning there (an empty lattice, prefix or monomial list, or dimension
0).  Every public function that counts or builds on a complex rejects a
complex that is none with InvalidComplexError, never with a number."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

import orangesplines
from orangesplines import (
    EmptyMedialFaceError,
    InvalidComplexError,
    NotStandardOrangeError,
    Polynomial,
    SimplicialComplex,
    affine_image,
    bernstein_dim,
    build_system,
    complex_domain_points,
    compute_mds,
    hilbert_prefix,
    layer_count,
    layer_decomposition,
    lift_mds,
    monomial_to_bb,
    monomials_upto,
    orange_dim_formula,
    orange_hilbert_prefix,
    run_sweep,
    simplex_domain_points,
    simplex_multiindices,
    spline_basis,
    spline_dim,
    spline_dims,
    standard_form,
    standard_orange,
    star_dims_closed_form,
    verify_hilbert_identity,
    verify_mds,
    verify_standard_orange,
)
from orangesplines.catalog import get
from orangesplines.cofactor import facet_linear_form
from orangesplines.exact import EchelonBasis, RationalMatrix, invert_matrix, solve_linear
from orangesplines.polynomials import monomials_of_degree

ORANGE = get("planar-star").complex
STAR = standard_form(ORANGE).projected.complex
STANDARD = standard_form(get("two-triangle").complex).standard
TRIANGLE = [(0, 0), (1, 0), (0, 1)]

R, D, DMAX = "smoothness order", "degree", "dmax"

# name: (call with r and d, the name each argument is checked under, the
# outcome at d = -1: a value, or ValueError)
CASES = {
    "build_system": (lambda r, d: build_system(ORANGE, r, d), {"r": R, "d": D}, ValueError),
    "spline_dims": (lambda r, d: spline_dims(ORANGE, r, d), {"r": R, "d": DMAX}, ()),
    "spline_dim": (lambda r, d: spline_dim(ORANGE, r, d), {"r": R, "d": D}, 0),
    "spline_basis": (lambda r, d: spline_basis(ORANGE, r, d), {"r": R, "d": D}, ValueError),
    "star_dims_closed_form": (
        lambda r, d: star_dims_closed_form(STAR, r, d), {"r": R, "d": DMAX}, ()
    ),
    "orange_dim_formula": (lambda r, d: orange_dim_formula(ORANGE, r, d), {"r": R, "d": D}, 0),
    "hilbert_prefix": (lambda r, d: hilbert_prefix(ORANGE, r, d), {"r": R, "d": DMAX}, ValueError),
    "orange_hilbert_prefix": (
        lambda r, d: orange_hilbert_prefix(ORANGE, r, d), {"r": R, "d": DMAX}, ValueError
    ),
    "verify_hilbert_identity": (
        lambda r, d: verify_hilbert_identity(ORANGE, r, d), {"r": R, "d": DMAX}, ValueError
    ),
    "verify_standard_orange": (
        lambda r, d: verify_standard_orange(ORANGE, r, d), {"r": R, "d": D}, (True, 0, 0)
    ),
    "simplex_domain_points": (lambda r, d: simplex_domain_points(TRIANGLE, d), {"d": D}, ValueError),
    "complex_domain_points": (lambda r, d: complex_domain_points(ORANGE, d), {"d": D}, ()),
    "layer_decomposition": (lambda r, d: layer_decomposition(STANDARD, d), {"d": D}, ValueError),
    "bernstein_dim": (lambda r, d: bernstein_dim(ORANGE, r, d), {"r": R, "d": D}, 0),
    "compute_mds": (lambda r, d: compute_mds(ORANGE, r, d).points, {"r": R, "d": D}, ()),
    "verify_mds": (lambda r, d: verify_mds(ORANGE, r, d), {"r": R, "d": D}, True),
    "lift_mds": (lambda r, d: lift_mds(STANDARD, r, d).points, {"r": R, "d": D}, ()),
    "standard_orange": (
        lambda r, d: standard_orange(STAR, d), {"d": "fiber dimension"}, ValueError
    ),
    "run_sweep": (lambda r, d: run_sweep(ORANGE, [r], [d]), {"r": R, "d": D}, ValueError),
    "simplex_multiindices": (lambda r, d: simplex_multiindices(3, d), {"d": D}, ()),
    "monomials_upto": (lambda r, d: monomials_upto(2, d), {"d": D}, []),
    "layer_count": (lambda r, d: layer_count(d, 0, 1), {"d": D}, 0),
    "monomial_to_bb": (
        lambda r, d: monomial_to_bb(Polynomial.constant(2, 1), TRIANGLE, d), {"d": D}, ValueError
    ),
}


def test_the_table_covers_the_public_functions():
    assert len(CASES) == 23
    assert set(CASES) <= set(orangesplines.__all__)


@pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=repr)
@pytest.mark.parametrize("name", CASES)
def test_a_non_int_argument_is_a_type_error_naming_it(name, bad):
    call, checked, _ = CASES[name]
    for arg, label in checked.items():
        args = {"r": 1, "d": 2, arg: bad}
        with pytest.raises(TypeError, match=f"^{label} must be an int, got {re.escape(repr(bad))}$"):
            call(**args)


@pytest.mark.parametrize("name", [name for name in CASES if "r" in CASES[name][1]])
def test_a_negative_order_is_a_value_error(name):
    with pytest.raises(ValueError, match="^smoothness order must be nonnegative$"):
        CASES[name][0](r=-1, d=2)


@pytest.mark.parametrize("name", CASES)
def test_a_negative_degree_keeps_its_meaning(name):
    call, checked, outcome = CASES[name]
    if outcome is ValueError:
        with pytest.raises(ValueError, match=f"^{checked['d']} must be nonnegative$"):
            call(r=1, d=-1)
    else:
        assert call(r=1, d=-1) == outcome


def test_a_sweep_checks_each_value_before_merging_them():
    # as a set, {True, 1} is {True}; the check sees both
    with pytest.raises(TypeError, match="^smoothness order must be an int, got True$"):
        run_sweep(ORANGE, [1, True], [2])
    with pytest.raises(TypeError, match="^degree must be an int, got '1'$"):
        run_sweep(ORANGE, [1], iter([2, "1"]))
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        run_sweep(ORANGE, [0, 1], [3, -1, 2])


def test_layer_count_checks_its_layer_and_fiber_dimension():
    with pytest.raises(TypeError, match="^layer must be an int, got 1.0$"):
        layer_count(3, 1.0, 1)
    with pytest.raises(TypeError, match="^fiber dimension must be an int, got True$"):
        layer_count(3, 1, True)
    with pytest.raises(ValueError, match="^fiber dimension must be nonnegative$"):
        layer_count(3, 1, -1)


@pytest.mark.parametrize("bad", [2.5, True, "2"], ids=repr)
def test_a_non_int_ambient_dimension_is_a_type_error(bad):
    # not rounded, counted or parsed
    with pytest.raises(TypeError, match=f"^ambient dimension must be an int, got {re.escape(repr(bad))}$"):
        SimplicialComplex(bad, TRIANGLE, [[0, 1, 2]])


def test_a_negative_ambient_dimension_is_a_value_error():
    with pytest.raises(ValueError, match="^ambient dimension must be nonnegative$"):
        SimplicialComplex(-1, TRIANGLE, [[0, 1, 2]])


def test_a_warm_cache_does_not_read_a_float_degree():
    # the multi-index table and the basis change are cached by degree, and
    # 1.0 == 1 would find the degree-1 entry
    assert simplex_multiindices(2, 1) == ((1, 0), (0, 1))
    one = Polynomial.constant(2, 1)
    assert monomial_to_bb(one, TRIANGLE, 1) == dict.fromkeys([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 1)
    with pytest.raises(TypeError, match="^degree must be an int, got 1.0$"):
        simplex_multiindices(2, 1.0)
    with pytest.raises(TypeError, match="^degree must be an int, got True$"):
        monomial_to_bb(one, TRIANGLE, True)


def test_monomials_of_degree_checks_its_degree():
    assert monomials_of_degree(2, 1) == [(0, 1), (1, 0)]
    assert monomials_of_degree(2, -1) == []
    with pytest.raises(TypeError, match="^degree must be an int, got True$"):
        monomials_of_degree(2, True)
    with pytest.raises(TypeError, match="^degree must be an int, got 1.0$"):
        monomials_of_degree(2, 1.0)


# name: a call that counts or builds on the complex, cx, at r = 1, d = 2
COMPLEX_CASES = {
    "build_system": lambda cx: build_system(cx, 1, 2),
    "spline_dims": lambda cx: spline_dims(cx, 1, 2),
    "spline_dim": lambda cx: spline_dim(cx, 1, 2),
    "spline_basis": lambda cx: spline_basis(cx, 1, 2),
    "star_dims_closed_form": lambda cx: star_dims_closed_form(cx, 1, 2),
    "orange_dim_formula": lambda cx: orange_dim_formula(cx, 1, 2),
    "hilbert_prefix": lambda cx: hilbert_prefix(cx, 1, 2),
    "orange_hilbert_prefix": lambda cx: orange_hilbert_prefix(cx, 1, 2),
    "verify_hilbert_identity": lambda cx: verify_hilbert_identity(cx, 1, 2),
    "verify_standard_orange": lambda cx: verify_standard_orange(cx, 1, 2),
    "bernstein_dim": lambda cx: bernstein_dim(cx, 1, 2),
    "compute_mds": lambda cx: compute_mds(cx, 1, 2),
    "verify_mds": lambda cx: verify_mds(cx, 1, 2),
    "lift_mds": lambda cx: lift_mds(cx, 1, 2),
    "layer_decomposition": lambda cx: layer_decomposition(cx, 2),
    "run_sweep": lambda cx: run_sweep(cx, [1], [2]),
    "standard_form": standard_form,
}


@pytest.mark.parametrize("name", COMPLEX_CASES)
def test_a_complex_with_a_duplicated_vertex_is_invalid(name):
    # vertices 1 and 3 are both (1, 0): the two triangles lie on one another
    cx = SimplicialComplex(2, [(0, 0), (1, 0), (0, 1), (1, 0)], [[0, 1, 2], [0, 2, 3]])
    with pytest.raises(InvalidComplexError, match="^duplicate vertex coordinates$"):
        COMPLEX_CASES[name](cx)


@pytest.mark.parametrize("name", COMPLEX_CASES)
def test_a_flattened_complex_is_invalid(name):
    # the image of two-triangle under a singular map: two vertices coincide
    # and both triangles are flat
    cx = affine_image(get("two-triangle").complex, [[1, 1], [1, 1]], [0, 0])
    with pytest.raises(InvalidComplexError):
        COMPLEX_CASES[name](cx)


# name: (ambient dimension, vertices, maximal faces, the error), none of
# them validated.  In R^3 the complex is checked before anything reads its
# ambient dimension, so the closed form, which has none there, raises the
# same typed error
TETRAHEDRA = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
BROKEN_COMPLEXES = {
    "ragged": (
        2, [(0, 0), (1, 0), (0, 1, 5), (1, 1)], [[0, 1, 2], [1, 2, 3]],
        "^vertex 2 has arity 3, ambient dimension is 2$",
    ),
    "missing vertex": (
        2, [(0, 0), (1, 0), (0, 1), (1, 1)], [[0, 1, 2], [1, 2, 7]],
        r"^face \(1, 2, 7\) references a missing vertex$",
    ),
    # a projection reports it as two identical segments
    "repeated face": (
        2, [(0, 0), (1, 0), (0, 1), (1, 1)], [[0, 1, 2], [0, 1, 2], [1, 2, 3]],
        r"^faces \(0, 1, 2\) and \(0, 1, 2\) are nested$|^projection identifies two segments$",
    ),
    "nested": (
        2, [(0, 0), (1, 0), (0, 1)], [[0, 1, 2], [0, 1]],
        r"^faces \(0, 1\) and \(0, 1, 2\) are nested$",
    ),
    "duplicated vertex in R^3": (
        3, [*TETRAHEDRA[:4], (1, 0, 0)], [[0, 1, 2, 3], [0, 2, 3, 4]],
        "^duplicate vertex coordinates$",
    ),
    "ragged in R^3": (
        3, [*TETRAHEDRA[:2], (0, 1), *TETRAHEDRA[3:]], [[0, 1, 2, 3], [1, 2, 3, 4]],
        "^vertex 2 has arity 2, ambient dimension is 3$",
    ),
    "missing vertex in R^3": (
        3, TETRAHEDRA, [[0, 1, 2, 3], [1, 2, 3, 9]],
        r"^face \(1, 2, 3, 9\) references a missing vertex$",
    ),
    "repeated face in R^3": (
        3, TETRAHEDRA, [[0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3, 4]],
        r"^faces \(0, 1, 2, 3\) and \(0, 1, 2, 3\) are nested$|^projection identifies two segments$",
    ),
    "nested in R^3": (
        3, TETRAHEDRA[:4], [[0, 1, 2, 3], [0, 1, 2]],
        r"^faces \(0, 1, 2\) and \(0, 1, 2, 3\) are nested$",
    ),
}


@pytest.mark.parametrize("broken", BROKEN_COMPLEXES)
@pytest.mark.parametrize("name", COMPLEX_CASES)
def test_a_broken_complex_is_invalid(name, broken):
    dim, vertices, faces, message = BROKEN_COMPLEXES[broken]
    with pytest.raises(InvalidComplexError, match=message):
        COMPLEX_CASES[name](SimplicialComplex(dim, vertices, faces))


# four triangles in a strip: a geometric complex whose maximal faces share
# no vertex, so no orange
STRIP = ([(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)], [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]])
# the generic oracles count any complex; every other entry needs an orange
# (a star for the closed form)
GENERIC = {"build_system", "spline_dims", "spline_dim", "spline_basis", "hilbert_prefix"}


@pytest.mark.parametrize("name", COMPLEX_CASES)
def test_a_complex_that_is_no_orange_is_a_typed_error(name):
    cx = SimplicialComplex(2, *STRIP)
    if name in GENERIC:
        COMPLEX_CASES[name](cx)
        return
    error = InvalidComplexError if name == "star_dims_closed_form" else EmptyMedialFaceError
    with pytest.raises(error, match="maximal faces share no common vertex$"):
        COMPLEX_CASES[name](cx)


# a translate of planar-star: an orange whose medial vertex is off the origin
NOT_STANDARD = ([(1, 2), (2, 2), (1, 3), (0, 2), (1, 1)], [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]])
# the entries that read a standard orange; every other entry takes any orange
STANDARD_ONLY = {"lift_mds", "layer_decomposition"}


@pytest.mark.parametrize("name", COMPLEX_CASES)
def test_an_orange_off_standard_position_is_a_typed_error_where_one_is_needed(name):
    cx = SimplicialComplex(2, *NOT_STANDARD)
    if name not in STANDARD_ONLY:
        COMPLEX_CASES[name](cx)
        return
    with pytest.raises(NotStandardOrangeError, match="^standard orange must have a medial vertex at the origin$"):
        COMPLEX_CASES[name](cx)
    # its standard model is accepted
    COMPLEX_CASES[name](standard_form(cx).standard)


# name: a call that reads a rational entry, the inexact value given to it
INEXACT_CASES = {
    "SimplicialComplex": (
        lambda x: SimplicialComplex(1, [(0,), (x,)], [[0, 1]]), "vertex 1 coordinate 0"
    ),
    "Polynomial": (lambda x: Polynomial(1, {(1,): x}), r"coefficient of \(1,\)"),
    "solve_linear": (lambda x: solve_linear([[x]], [1]), r"matrix entry \(0, 0\)"),
    "solve_linear rhs": (lambda x: solve_linear([[1]], [x]), "right-hand side entry 0"),
    "invert_matrix": (lambda x: invert_matrix([[x]]), r"matrix entry \(0, 0\)"),
    "RationalMatrix.from_sparse": (
        lambda x: RationalMatrix.from_sparse([{0: x}], 1), r"entry \(0, 0\)"
    ),
    "EchelonBasis.add": (lambda x: EchelonBasis().add([1, x]), "entry 1"),
    "Polynomial.evaluate": (
        lambda x: Polynomial.variable(2, 1).evaluate([0, x]), "point coordinate 1"
    ),
    "facet_linear_form": (
        lambda x: facet_linear_form([(0, 0), (1, x)]), "vertex 1 coordinate 1"
    ),
}


@pytest.mark.parametrize("bad", [0.1, 0.5, 0.25, True, "1/2"], ids=repr)
@pytest.mark.parametrize("name", INEXACT_CASES)
def test_an_inexact_entry_is_a_type_error_naming_it(name, bad):
    call, label = INEXACT_CASES[name]
    message = f"^{label} must be an int or a Fraction, got {re.escape(repr(bad))}$"
    with pytest.raises(TypeError, match=message):
        call(bad)
    # ints and Fractions are read exactly
    assert call(Fraction(1, 2)) == call(Fraction(2, 4))


def test_the_closed_form_takes_only_a_star():
    vertices = [(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)]
    disjoint = SimplicialComplex(2, vertices, [[0, 1, 2], [3, 4, 5]])
    with pytest.raises(InvalidComplexError, match="^not a star of one vertex: maximal faces share no"):
        star_dims_closed_form(disjoint, 1, 2)
