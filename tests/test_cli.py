"""Command line behavior: exit codes, stable output, file round trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orangesplines.cli import main
from orangesplines.io import complex_from_dict, save_complex
from orangesplines.catalog import get


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_catalog_list(capsys):
    rc, out, _ = run(capsys, ["catalog", "list"])
    assert rc == 0
    assert "two-triangle" in out
    assert "fan-4d" in out


def test_package_runs_as_a_module():
    # python -m orangesplines, from a checkout with only src on the path
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-m", "orangesplines", "catalog", "list"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "two-triangle" in result.stdout


def test_catalog_show_json(capsys):
    rc, out, _ = run(capsys, ["catalog", "show", "two-triangle", "--json"])
    assert rc == 0
    data = json.loads(out)
    cx = complex_from_dict(data["complex"])
    assert cx == get("two-triangle").complex


def test_catalog_show_unknown_name(capsys):
    # invalid choice is a usage error, argparse exits with code 2
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "show", "no-such-orange"])
    assert exc.value.code == 2


def test_validate_ok(capsys):
    rc, out, _ = run(capsys, ["validate", "-c", "two-tetrahedron"])
    assert rc == 0
    assert "(3,1)" in out


def test_validate_bad_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(
        json.dumps(
            {
                "ambient_dim": 1,
                "vertices": [["0"], ["1/0"]],
                "maximal_faces": [[0, 1]],
            }
        )
    )
    rc, _, err = run(capsys, ["validate", "-i", str(path)])
    assert rc == 1
    assert "vertices[1][0]" in err


def test_validate_duplicate_face(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(
        json.dumps(
            {
                "ambient_dim": 1,
                "vertices": [["0"], ["1"]],
                "maximal_faces": [[0, 1], [1, 0]],
            }
        )
    )
    rc, _, err = run(capsys, ["validate", "-i", str(path)])
    assert rc == 1
    assert "duplicate" in err


def test_dim_match_exit_zero(capsys):
    rc, out, _ = run(
        capsys, ["dim", "-c", "two-triangle", "--r", "1", "--d", "3", "--json"]
    )
    assert rc == 0
    data = json.loads(out)
    assert data["formula"] == 13
    assert data["cofactor"] == 13
    assert data["match"] is True


def test_dim_single_method(capsys):
    rc, out, _ = run(
        capsys,
        ["dim", "-c", "two-tetrahedron", "--r", "0", "--d", "3",
         "--method", "formula", "--json"],
    )
    assert rc == 0
    data = json.loads(out)
    assert data["formula"] == 30
    assert "cofactor" not in data


def test_json_output_is_byte_stable(capsys):
    argv = ["dim", "-c", "tetrahedral-fan", "--r", "1", "--d", "2", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_hilbert_identity_exit_code(capsys):
    rc, out, _ = run(
        capsys, ["hilbert", "-c", "two-triangle", "--r", "1", "--dmax", "4", "--json"]
    )
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["residuals"] == [0, 0, 0, 0, 0]
    assert len(data["orange"]) == 5


def test_hilbert_negative_dmax_exits_one(capsys):
    rc, out, err = run(capsys, ["hilbert", "-c", "two-triangle", "--r", "1", "--dmax", "-1"])
    assert rc == 1
    assert out == ""
    assert "dmax" in err


@pytest.mark.parametrize("method", ["both", "formula", "cofactor"])
def test_dim_negative_degree_exits_one(capsys, method):
    argv = ["dim", "-c", "two-triangle", "--r", "1", "--d", "-2", "--method", method, "--json"]
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err == "error: degree must be nonnegative\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["domain-points", "-c", "two-triangle", "--d", "-1"],
        ["layers", "-c", "two-triangle", "--d", "-1"],
        ["mds", "-c", "two-triangle", "--r", "1", "--d", "-1"],
    ],
)
def test_lattice_commands_reject_a_negative_degree(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err == "error: degree must be nonnegative\n"


def test_project_round_trips_through_the_wire_format(capsys):
    rc, out, _ = run(capsys, ["project", "-c", "two-triangle-skew", "--json"])
    assert rc == 0
    data = json.loads(out)
    star = complex_from_dict(data["complex"])
    star.validate()
    assert star.ambient_dim == 1
    assert data["central_vertex"] == 0


def test_standard_orange_command(capsys):
    rc, out, _ = run(capsys, ["standard-orange", "-c", "two-triangle-skew", "--json"])
    assert rc == 0
    std = complex_from_dict(json.loads(out))
    std.validate()
    assert std.ambient_dim == 2


def test_domain_points_counts(capsys):
    rc, out, _ = run(
        capsys, ["domain-points", "-c", "two-triangle", "--d", "2", "--json"]
    )
    assert rc == 0
    data = json.loads(out)
    assert data["count"] == 9


def test_layers_command(capsys):
    rc, out, _ = run(capsys, ["layers", "-c", "two-tetrahedron", "--d", "3", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["total"] == 30
    assert [layer["level"] for layer in data["layers"]] == [0, 1, 2, 3]


def test_mds_command(capsys):
    rc, out, _ = run(
        capsys, ["mds", "-c", "two-triangle", "--r", "1", "--d", "3", "--json"]
    )
    assert rc == 0
    data = json.loads(out)
    assert data["total"] == 13
    assert data["formula_value"] == 13


def test_sweep_single_entry(capsys):
    rc, out, err = run(
        capsys,
        ["sweep", "-c", "two-triangle", "--r-max", "1", "--d-max", "3", "--json"],
    )
    assert rc == 0
    data = json.loads(out)
    assert data["all_match"] is True
    assert len(data["entries"]) == 1
    assert len(data["entries"][0]["cells"]) == 2 * 4
    # timings go to stderr so machine output stays reproducible
    assert "elapsed" not in out
    assert "finished" in err


def test_sweep_json_is_byte_stable(capsys):
    argv = ["sweep", "-c", "two-triangle", "--r-max", "1", "--d-max", "2", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


@pytest.mark.parametrize("grid", [["--r-max", "-1"], ["--d-max", "-1"]])
def test_sweep_with_no_cells_exits_one(capsys, grid):
    rc, out, err = run(capsys, ["sweep", "-c", "two-triangle", *grid])
    assert rc == 1
    assert "ok" not in out
    assert "empty" in err


def test_csv_output(tmp_path, capsys):
    target = tmp_path / "cells.csv"
    rc, _, _ = run(
        capsys,
        ["sweep", "-c", "two-triangle", "--r-max", "1", "--d-max", "2",
         "--csv", str(target)],
    )
    assert rc == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "entry,r,d,formula,oracle,match"
    assert len(lines) == 1 + 2 * 3


def test_dump_system(tmp_path, capsys):
    target = tmp_path / "system.json"
    rc, _, _ = run(
        capsys,
        ["dim", "-c", "two-triangle", "--r", "1", "--d", "2",
         "--dump-system", str(target)],
    )
    assert rc == 0
    data = json.loads(target.read_text())
    assert data["r"] == 1
    assert data["d"] == 2
    assert data["rows"]


def test_input_file_path(tmp_path, capsys):
    path = tmp_path / "orange.json"
    save_complex(get("two-triangle").complex, path)
    rc, out, _ = run(capsys, ["dim", "-i", str(path), "--r", "0", "--d", "2", "--json"])
    assert rc == 0
    assert json.loads(out)["formula"] == 9


def test_missing_input_file(capsys):
    rc, _, err = run(capsys, ["validate", "-i", "/no/such/file.json"])
    assert rc == 1
    assert err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "-i", "DIR"],
        ["domain-points", "-c", "two-triangle", "--d", "1", "--csv", "DIR"],
        ["sweep", "-c", "two-triangle", "--r-max", "0", "--d-max", "1", "--csv", "DIR"],
    ],
)
def test_a_directory_for_a_file_is_reported(tmp_path, capsys, argv):
    # IsADirectoryError, an OSError, on reading the input or writing the CSV
    rc, out, err = run(capsys, [str(tmp_path) if a == "DIR" else a for a in argv])
    assert (rc, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "Is a directory" in line


def test_non_orange_input_is_reported(tmp_path, capsys):
    # a chain of three intervals has no face common to all segments
    path = tmp_path / "notorange.json"
    path.write_text(
        json.dumps(
            {
                "ambient_dim": 1,
                "vertices": [["0"], ["1"], ["2"], ["3"]],
                "maximal_faces": [[0, 1], [1, 2], [2, 3]],
            }
        )
    )
    rc, _, err = run(capsys, ["project", "-i", str(path)])
    assert rc == 1
    assert err


def test_dim_outside_the_domain_exits_one(tmp_path, capsys):
    # two triangles sharing only a vertex: not connected through a facet
    path = tmp_path / "bowtie.json"
    path.write_text(
        json.dumps(
            {
                "ambient_dim": 2,
                "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
                "maximal_faces": [[0, 1, 2], [0, 3, 4]],
            }
        )
    )
    rc, out, err = run(capsys, ["dim", "-i", str(path), "--r", "0", "--d", "1"])
    assert rc == 1
    assert out == ""
    assert "facets" in err
