"""Acceptance gate: one check per shipped guarantee, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
Every expected number here was produced by the independent linear-system
oracle (`spline_dim`) or by a classical closed form, never copied from the
formula under test.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from orangesplines.bernstein import complex_domain_points, compute_mds, layer_decomposition, lift_mds
from orangesplines.catalog import CATALOG, SWEEP_NAMES, get
from orangesplines.cofactor import spline_dim
from orangesplines.complexes import affine_image, detect_orange
from orangesplines.dimension import (
    orange_dim_formula,
    verify_hilbert_identity,
    verify_standard_orange,
)
from orangesplines.exact import binom
from orangesplines.projection import project_face, project_orange, standard_form
from orangesplines.sweep import run_sweep

SINGLE_SIMPLICES = ("segment", "triangle", "tetrahedron", "four-simplex")


def _report(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {status}{suffix}")


def test_criterion_1_single_simplex_dimensions():
    """One simplex carries the full polynomial space at every smoothness."""
    t0 = time.perf_counter()
    failures = []
    for name in SINGLE_SIMPLICES:
        cx = get(name).complex
        k = cx.dim
        for r in range(3):
            for d in range(6):
                expected = binom(d + k, k)
                formula = orange_dim_formula(cx, r, d)
                oracle = spline_dim(cx, r, d)
                if not (formula == oracle == expected):
                    failures.append((name, r, d, formula, oracle, expected))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _report("single-simplex identity", ok, f"{elapsed:.2f}s")
    assert not failures, failures[:5]
    assert elapsed < 10.0, f"took {elapsed:.2f}s, limit is 10s"


def test_criterion_2_formula_oracle_sweep():
    """Closed form versus linear system on the whole sweep grid."""
    t0 = time.perf_counter()
    mismatches = []
    for name in SWEEP_NAMES:
        report = run_sweep(get(name).complex, range(3), range(6))
        mismatches.extend((name, c.r, c.d, c.formula, c.oracle) for c in report.mismatches)
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 300.0
    _report(
        "formula-versus-oracle sweep",
        ok,
        f"{len(SWEEP_NAMES)} entries x 18 cells, {elapsed:.2f}s",
    )
    assert not mismatches, mismatches[:5]
    assert elapsed < 300.0, f"took {elapsed:.2f}s, target is 5 minutes"


def test_criterion_3_spot_values():
    """Two frozen oracle values computed before the formula existed."""
    thirteen = spline_dim(get("two-triangle").complex, 1, 3)
    thirty = spline_dim(get("two-tetrahedron").complex, 0, 3)
    f13 = orange_dim_formula(get("two-triangle").complex, 1, 3)
    f30 = orange_dim_formula(get("two-tetrahedron").complex, 0, 3)
    ok = (thirteen, thirty, f13, f30) == (13, 30, 13, 30)
    _report("spot values 13 and 30", ok, f"got {thirteen} and {thirty}")
    assert ok, (thirteen, thirty, f13, f30)


def test_criterion_4_hilbert_identity():
    """Series of the orange times (1-t)^fiber equals the series of the star."""
    failures = []
    for entry in CATALOG:
        for r in range(3):
            holds, residuals = verify_hilbert_identity(entry.complex, r, 6)
            if not holds or any(v != 0 for v in residuals):
                failures.append((entry.name, r, residuals))
    ok = not failures
    _report("series identity", ok, f"{len(CATALOG)} entries, r <= 2, degree <= 6")
    assert ok, failures[:5]


def test_criterion_5_standard_model_equality():
    """Every orange and its standard model agree degree by degree."""
    failures = []
    for entry in CATALOG:
        for r in range(3):
            for d in range(5):
                equal, original, standard = verify_standard_orange(entry.complex, r, d)
                if not equal:
                    failures.append((entry.name, r, d, original, standard))
    ok = not failures
    _report("standard-model dimensions", ok, f"{len(CATALOG)} entries, r <= 2, d <= 4")
    assert ok, failures[:5]


def test_criterion_6_layer_decomposition():
    """Scaled and shifted star lattices tile the standard orange's lattice."""
    failures = []
    for entry in CATALOG:
        standard = standard_form(entry.complex).standard
        for d in range(1, 5):
            decomposition = layer_decomposition(standard, d)
            flat = sorted(p for layer in decomposition.layers for p in layer.points)
            lattice = sorted(p.coordinates for p in complex_domain_points(standard, d))
            if flat != lattice:
                failures.append((entry.name, d))
    profile = [
        (layer.level, len(layer.base_points), len(layer.shifts))
        for layer in layer_decomposition(
            standard_form(get("two-tetrahedron").complex).standard, 3
        ).layers
    ]
    expected_profile = [(0, 1, 4), (1, 3, 3), (2, 5, 2), (3, 7, 1)]
    total = sum(size * mult for _, size, mult in profile)
    ok = not failures and profile == expected_profile and total == 30
    _report("layer tiling", ok, f"multiplicities {[m for _, _, m in profile]}, total {total}")
    assert not failures, failures[:5]
    assert profile == expected_profile, profile
    assert total == 30


def test_criterion_7_determining_sets():
    """Greedy sets on the star match the oracle; their lifts are invertible."""
    failures = []
    for entry in CATALOG:
        sf = standard_form(entry.complex)
        star = sf.projected.complex
        for r in range(2):
            for j in range(5):
                ds = compute_mds(star, r, j)
                oracle = spline_dim(star, r, j)
                if len(ds.points) != oracle:
                    failures.append((entry.name, "star", r, j, len(ds.points), oracle))
            for d in range(5):
                try:
                    lifted = lift_mds(sf.standard, r, d)
                except Exception as exc:  # any internal check tripping is a failure
                    failures.append((entry.name, "lift", r, d, repr(exc)))
                    continue
                if lifted.total != lifted.formula_value:
                    failures.append(
                        (entry.name, "lift", r, d, lifted.total, lifted.formula_value)
                    )
    ok = not failures
    _report("determining sets and lifts", ok, f"{len(CATALOG)} entries, r <= 1, d <= 4")
    assert ok, failures[:5]


def test_criterion_8_affine_invariance(random_affine_map):
    """Dimension counts cannot see an invertible affine change of coordinates."""
    rng = random.Random(8)
    cells = ((0, 2), (1, 3))
    failures = []
    for entry in CATALOG:
        cx = entry.complex
        k = cx.ambient_dim
        base = {cell: spline_dim(cx, *cell) for cell in cells}
        for trial in range(20):
            matrix, translation = random_affine_map(k, rng)
            image = affine_image(cx, matrix, translation)
            for cell in cells:
                moved_formula = orange_dim_formula(image, *cell)
                moved_oracle = spline_dim(image, *cell)
                if not (moved_formula == moved_oracle == base[cell]):
                    failures.append(
                        (entry.name, trial, cell, moved_formula, moved_oracle, base[cell])
                    )
    ok = not failures
    _report("affine invariance", ok, f"20 transforms x {len(CATALOG)} entries")
    assert ok, failures[:5]


def test_criterion_9_projection_geometry():
    """Projected stars are genuine complexes and faces drop exactly the
    dimension they share with the medial face."""
    failures = []
    for entry in CATALOG:
        cx = entry.complex
        profile = detect_orange(cx)
        projected = project_orange(cx)
        star = projected.complex
        try:
            star.validate()
        except ValueError as exc:
            failures.append((entry.name, "validate", repr(exc)))
            continue
        if any(projected.central_vertex not in f for f in star.maximal_faces):
            failures.append((entry.name, "star-closure"))
        tau = set(profile.medial)
        for face in sorted(cx.faces):
            image = project_face(cx, face)
            common = tau & set(face)
            expected = len(face) - len(common) + 1 if common else len(face)
            if len(image) != expected or len(set(image)) != len(image):
                failures.append((entry.name, "image-dimension", face))
    ok = not failures
    _report("projection geometry", ok, f"{len(CATALOG)} entries, every face")
    assert ok, failures[:5]
