"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402

import orangesplines  # noqa: E402

REFERENCE = run.load_reference()
BASES = REFERENCE["complexes"]
SMALL = ("two-triangle", "planar-star")


def small_ops(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` ops of the stream that act on planar oranges."""
    out = []
    for op in gen.op_stream(workload, seed, BASES):
        if op["orange"] in SMALL:
            out.append(op)
            if len(out) == count:
                return out
    raise AssertionError("unreachable: the stream is endless")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = json.dumps(gen.generate(workload, 7, BASES, 40), sort_keys=True)
    again = json.dumps(gen.generate(workload, 7, BASES, 40), sort_keys=True)
    other = json.dumps(gen.generate(workload, 8, BASES, 40), sort_keys=True)
    prefix = json.dumps(gen.generate(workload, 7, BASES, 15), sort_keys=True)
    assert first.encode() == again.encode()
    assert first != other
    assert json.loads(first)[:15] == json.loads(prefix)


def test_generator_does_not_import_the_package():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gen, json, pathlib;"
        "ref = json.loads(pathlib.Path(sys.argv[1], 'reference.json').read_text());"
        "[gen.generate(w, 1, ref['complexes'], 5) for w in gen.WORKLOADS];"
        "print(sorted(m for m in sys.modules if m.startswith('orangesplines')))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_generated_maps_are_invertible():
    assert gen.determinant([[gen.Fraction(1), gen.Fraction(2)], [gen.Fraction(2), gen.Fraction(4)]]) == 0
    import random

    rng = random.Random(0)
    for k in (2, 3, 4):
        assert gen.determinant(gen.dense_integer_matrix(rng, k)) != 0
        assert gen.determinant(gen.positive_diagonal(rng, k)) > 0


@pytest.mark.parametrize(
    "workload, table",
    [("dim_general", "dims"), ("series_adapted", "dims"), ("mds_lift", "mds")],
)
def test_corrupted_reference_entry_is_a_failure(workload, table):
    ops = small_ops(workload, 3, 2)
    good = run.run_loop(workload, orangesplines, REFERENCE, ops)
    assert (len(good.ops), good.failed) == (2, 0)

    bad = copy.deepcopy(REFERENCE)
    first = ops[0]
    bad[table][first["orange"]][first["r"]][first["d"]] += 1
    corrupted = run.run_loop(workload, orangesplines, bad, ops)
    assert (len(corrupted.ops), corrupted.failed) == (2, 1)


def test_spot_values_are_in_the_reference():
    assert REFERENCE["dims"]["two-triangle"][1][3] == 13
    assert REFERENCE["dims"]["two-tetrahedron"][0][3] == 30


def test_percentile_reports_sample_count():
    assert run.percentile(range(1, 101), 90) == (pytest.approx(90.5), 100)
    assert run.percentile(range(1, 102), 50) == (pytest.approx(51.0), 101)
    assert run.percentile([5.0], 50) == (5.0, 1)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_matrix_blocks():
    rows = [((0, 1), (1, 1)), ((1, 2),), ((3, 1),), ()]
    assert run.matrix_blocks(rows) == [2, 1]


STRUCTURE = (
    "cofactor.rows",
    "cofactor.cols",
    "cofactor.nnz",
    "cofactor.entry_bits_max",
    "exact.blocks",
    "exact.block_rows_max",
    "bernstein.mds_points",
)


def traced(workload: str, ops: list[dict]) -> tuple[dict, object, object]:
    """Trace ``ops`` on a fresh import; return metrics, tracer and package."""
    pkg = run.import_package(ROOT)
    _, metrics, tracer = run.traced_pass(workload, pkg, REFERENCE, ops, struct_ops=len(ops))
    return metrics, tracer, pkg


@pytest.mark.parametrize("workload", ["series_adapted", "mds_lift"])
def test_structure_counts_repeat_exactly(workload):
    ops = small_ops(workload, 5, 3)
    first, _, _ = traced(workload, ops)
    second, _, _ = traced(workload, ops)
    assert {k: first[k] for k in STRUCTURE} == {k: second[k] for k in STRUCTURE}
    assert first["cofactor.nnz"] > 0 and first["exact.blocks"] > 0
    if workload == "mds_lift":
        assert first["bernstein.mds_points"] > 0


def test_tracer_restores_the_package():
    metrics, tracer, pkg = traced("dim_general", small_ops("dim_general", 1, 1))
    assert pkg.cofactor.build_system is tracer.originals["cofactor.build_system"]
    assert pkg.dimension.spline_dim is tracer.originals["cofactor.spline_dim"]
    assert not tracer.missing
    assert metrics["io.complex_from_dict.calls"] == 1
    assert metrics["cofactor.build_system.calls"] >= 1


def test_run_without_the_package_fails_without_a_result(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "dim_general", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_cpu_picker_pins_to_one_allowed_cpu():
    allowed = os.sched_getaffinity(0)
    picker = run.CpuPicker()
    try:
        picker.repin()
        pinned = os.sched_getaffinity(0)
        assert pinned <= allowed
        assert len(pinned) == 1 or len(allowed) == 1
        picker.cpus = []  # nothing to choose from: left where it is
        picker.repin()
        assert os.sched_getaffinity(0) == pinned
    finally:
        os.sched_setaffinity(0, allowed)
