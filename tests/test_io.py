"""Wire format: strict parsing, helpful errors, lossless round trips."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from orangesplines.catalog import CATALOG
from orangesplines.complexes import SimplicialComplex
from orangesplines.io import (
    ComplexFormatError,
    complex_from_dict,
    complex_to_dict,
    load_complex,
    save_complex,
)


def test_round_trip_preserves_every_catalog_entry():
    for entry in CATALOG:
        again = complex_from_dict(complex_to_dict(entry.complex))
        assert again == entry.complex


def test_save_load_round_trip(tmp_path, two_triangle):
    path = tmp_path / "orange.json"
    save_complex(two_triangle, path)
    assert load_complex(path) == two_triangle


def test_serialized_form_is_plain_json(two_triangle):
    blob = json.dumps(complex_to_dict(two_triangle))
    data = json.loads(blob)
    assert data["ambient_dim"] == 2
    assert all(isinstance(c, str) for v in data["vertices"] for c in v)


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ({"ambient_dim": "2"}, "ambient_dim"),
        ({"vertices": [["0", "0"], ["1"]]}, "vertices[1]"),
        ({"vertices": [["0", "0"], ["1", "oops"]]}, "vertices[1][1]"),
        ({"maximal_faces": [[0, 1, 7]]}, "maximal_faces[0]"),
        ({"maximal_faces": "nope"}, "maximal_faces"),
        ({"maximal_faces": [[0, 1, 2, 2]]}, "maximal_faces[0]"),
    ],
)
def test_schema_errors_name_the_field(mutation, fragment):
    base = {
        "ambient_dim": 2,
        "vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
        "maximal_faces": [[0, 1, 2]],
    }
    base.update(mutation)
    with pytest.raises(ComplexFormatError) as exc:
        complex_from_dict(base)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("cell", ["2/4", "-0", "+3", " 7 ", "-6/4", "0/5", "+12/8", 5, -2, 0])
@pytest.mark.parametrize("other", ["0", "1/6", "-5/3"])
def test_cells_build_the_complex_their_fractions_build(cell, other):
    data = {
        "ambient_dim": 2,
        "vertices": [[other, "0"], ["4", "0"], [cell, "1/2"]],
        "maximal_faces": [[0, 1, 2]],
    }
    points = [[Fraction(c.strip() if isinstance(c, str) else c) for c in v] for v in data["vertices"]]
    expected = SimplicialComplex(2, points, data["maximal_faces"])
    got = complex_from_dict(data)
    assert got == expected
    assert hash(got) == hash(expected)
    assert (got.den, got.nums) == (expected.den, expected.nums)
    assert all(type(x) is int for v in got.nums for x in v)


@pytest.mark.parametrize(
    "cell, message",
    [
        ("1/0", "vertices[1][1]: not a rational 'p/q' string: '1/0'"),
        (" 1.5", "vertices[1][1]: not a rational 'p/q' string: ' 1.5'"),
        ("1/-2", "vertices[1][1]: not a rational 'p/q' string: '1/-2'"),
        ("", "vertices[1][1]: not a rational 'p/q' string: ''"),
        (True, "vertices[1][1]: not a rational: True"),
        (2.5, "vertices[1][1]: not a rational: 2.5"),
        (None, "vertices[1][1]: not a rational: None"),
    ],
)
def test_a_bad_cell_is_reported_word_for_word(cell, message):
    data = {
        "ambient_dim": 2,
        "vertices": [["0", "0"], ["1", cell], ["0", "1"]],
        "maximal_faces": [[0, 1, 2]],
    }
    with pytest.raises(ComplexFormatError) as exc:
        complex_from_dict(data)
    assert str(exc.value) == message


def test_missing_key_is_reported():
    with pytest.raises(ComplexFormatError) as exc:
        complex_from_dict({"ambient_dim": 1, "vertices": [["0"]]})
    assert "maximal_faces" in str(exc.value)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"ambient_dim": 1,,}')
    with pytest.raises(ComplexFormatError) as exc:
        load_complex(path)
    assert "line" in str(exc.value)
