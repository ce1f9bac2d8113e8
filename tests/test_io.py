"""Wire format: strict parsing, helpful errors, lossless round trips."""

from __future__ import annotations

import json

import pytest

from orangesplines.catalog import CATALOG
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
