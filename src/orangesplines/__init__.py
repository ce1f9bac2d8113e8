"""Exact dimension computations for piecewise-polynomial spaces on oranges.

An orange is a pure simplicial complex whose maximal faces all share one
common medial face.  This package recognizes oranges, projects them onto
low-dimensional stars, and computes spline-space dimensions three
independent ways: a closed-form reduction through the projection (with
closed-form star dimensions when the star lies in R^1 or R^2), a
brute-force rank computation on the smoothness cofactor system, and the
nullity of the C^r conditions on Bernstein coefficients.  All arithmetic is
exact rational.
"""

from .bernstein import (
    CardinalityMismatchError,
    DeterminingSet,
    DomainPoint,
    IdentifiedPoint,
    Layer,
    LayerDecomposition,
    LiftedDeterminingSet,
    LiftedPoint,
    SetMismatchError,
    bernstein_dim,
    complex_domain_points,
    compute_mds,
    layer_decomposition,
    lift_mds,
    monomial_to_bb,
    simplex_domain_points,
    simplex_multiindices,
    verify_mds,
)
from .catalog import CATALOG, CatalogEntry, SWEEP_NAMES
from .cofactor import CofactorSystem, build_system, spline_basis, spline_dim, spline_dims
from .complexes import (
    EmptyMedialFaceError,
    InvalidComplexError,
    NotPureError,
    NotStandardOrangeError,
    OrangeProfile,
    SimplicialComplex,
    UnsupportedOrangeError,
    adjacent_pairs,
    affine_image,
    detect_orange,
)
from .dimension import (
    HilbertPrefix,
    hilbert_prefix,
    layer_count,
    orange_dim_formula,
    orange_hilbert_prefix,
    star_dims_closed_form,
    verify_hilbert_identity,
    verify_standard_orange,
)
from .exact import RationalMatrix, binom, format_rational, parse_rational
from .io import ComplexFormatError, load_complex, save_complex
from .polynomials import Polynomial, monomials_upto
from .projection import (
    AdaptedFrame,
    ProjectedOrange,
    StandardForm,
    adapt_coordinates,
    project_face,
    project_orange,
    standard_form,
    standard_orange,
)
from .sweep import SweepCell, SweepReport, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AdaptedFrame",
    "CATALOG",
    "CardinalityMismatchError",
    "CatalogEntry",
    "CofactorSystem",
    "ComplexFormatError",
    "DeterminingSet",
    "DomainPoint",
    "EmptyMedialFaceError",
    "HilbertPrefix",
    "IdentifiedPoint",
    "InvalidComplexError",
    "Layer",
    "LayerDecomposition",
    "LiftedDeterminingSet",
    "LiftedPoint",
    "NotPureError",
    "NotStandardOrangeError",
    "OrangeProfile",
    "Polynomial",
    "ProjectedOrange",
    "RationalMatrix",
    "SWEEP_NAMES",
    "SetMismatchError",
    "SimplicialComplex",
    "StandardForm",
    "SweepCell",
    "SweepReport",
    "UnsupportedOrangeError",
    "adapt_coordinates",
    "adjacent_pairs",
    "affine_image",
    "bernstein_dim",
    "binom",
    "build_system",
    "complex_domain_points",
    "compute_mds",
    "detect_orange",
    "format_rational",
    "hilbert_prefix",
    "layer_count",
    "layer_decomposition",
    "lift_mds",
    "load_complex",
    "monomial_to_bb",
    "monomials_upto",
    "orange_dim_formula",
    "orange_hilbert_prefix",
    "parse_rational",
    "project_face",
    "project_orange",
    "run_sweep",
    "save_complex",
    "simplex_domain_points",
    "simplex_multiindices",
    "spline_basis",
    "spline_dim",
    "spline_dims",
    "standard_form",
    "standard_orange",
    "star_dims_closed_form",
    "verify_hilbert_identity",
    "verify_mds",
    "verify_standard_orange",
]
