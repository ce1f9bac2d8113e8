"""JSON loading and dumping of simplicial complexes.

The wire format:

    {
      "ambient_dim": 2,
      "vertices": [["0", "0"], ["1", "0"], ["-1/2", "3/4"]],
      "maximal_faces": [[0, 1, 2]]
    }

Coordinates are exact rationals, serialized as "p/q" (or "p"); bare JSON
integers are accepted on input, floats are not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .complexes import SimplicialComplex, _from_integer_view
from .exact import _rational_pair, format_rational

__all__ = ["ComplexFormatError", "complex_from_dict", "complex_to_dict", "load_complex", "save_complex"]


class ComplexFormatError(ValueError):
    """The JSON document does not follow the complex schema."""


def complex_from_dict(data: object) -> SimplicialComplex:
    """Build and validate a complex from parsed JSON.

    Each cell is read as a numerator and a denominator in lowest terms,
    and the complex is built from the numerators over their lcm, with no
    ``Fraction`` per cell."""
    if not isinstance(data, dict):
        raise ComplexFormatError("top level must be a JSON object")
    for key in ("ambient_dim", "vertices", "maximal_faces"):
        if key not in data:
            raise ComplexFormatError(f"missing field {key!r}")
    ambient = data["ambient_dim"]
    if not isinstance(ambient, int) or isinstance(ambient, bool) or ambient < 0:
        raise ComplexFormatError("field 'ambient_dim' must be a nonnegative integer")
    raw_vertices = data["vertices"]
    if not isinstance(raw_vertices, list):
        raise ComplexFormatError("field 'vertices' must be a list")
    vertices = []
    for vi, row in enumerate(raw_vertices):
        if not isinstance(row, list):
            raise ComplexFormatError(f"vertices[{vi}] must be a list of rationals")
        if len(row) != ambient:
            raise ComplexFormatError(
                f"vertices[{vi}] has {len(row)} coordinates, expected {ambient}"
            )
        coords = []
        for ci, cell in enumerate(row):
            try:
                coords.append(_rational_pair(cell))
            except ValueError as exc:
                raise ComplexFormatError(f"vertices[{vi}][{ci}]: {exc}") from exc
        vertices.append(coords)
    raw_faces = data["maximal_faces"]
    if not isinstance(raw_faces, list) or not raw_faces:
        raise ComplexFormatError("field 'maximal_faces' must be a nonempty list")
    faces = []
    for fi, face in enumerate(raw_faces):
        if not isinstance(face, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in face
        ):
            raise ComplexFormatError(f"maximal_faces[{fi}] must be a list of integers")
        bad = [v for v in face if v < 0 or v >= len(vertices)]
        if bad:
            raise ComplexFormatError(
                f"maximal_faces[{fi}] references missing vertex {bad[0]}"
            )
        if len(set(face)) != len(face):
            repeated = max(face, key=face.count)
            raise ComplexFormatError(f"maximal_faces[{fi}] repeats vertex {repeated}")
        faces.append(face)
    normalized = [tuple(sorted(f)) for f in faces]
    seen: dict[tuple[int, ...], int] = {}
    for fi, f in enumerate(normalized):
        if f in seen:
            raise ComplexFormatError(
                f"maximal_faces[{fi}] duplicates maximal_faces[{seen[f]}]"
            )
        seen[f] = fi
    den = math.lcm(*(q for row in vertices for _, q in row))
    nums = [tuple(p * (den // q) for p, q in row) for row in vertices]
    complex_ = _from_integer_view(ambient, den, nums, faces)
    complex_.validate()
    return complex_


def complex_to_dict(complex_: SimplicialComplex) -> dict:
    return {
        "ambient_dim": complex_.ambient_dim,
        "vertices": [[format_rational(c) for c in v] for v in complex_.vertices],
        "maximal_faces": [list(f) for f in complex_.maximal_faces],
    }


def load_complex(path: str | Path) -> SimplicialComplex:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return complex_from_dict(data)


def save_complex(complex_: SimplicialComplex, path: str | Path) -> None:
    Path(path).write_text(json.dumps(complex_to_dict(complex_), indent=2) + "\n")
