"""The checks of a complex's points and faces live in one place: each of
their messages is raised from exactly one site in the package, in
``complexes.py``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orangesplines"

# the message of each check, with "{}" for each replacement field
MESSAGES = [
    "duplicate vertex coordinates",
    "face {} is geometrically degenerate",
    "faces {} and {} are nested",
]


def _template(node: ast.expr) -> str | None:
    """The text of a string literal or an f-string, "{}" per field."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "{}" for part in node.values
        )
    return None


def _templates(node: ast.AST):
    """The string literals and f-strings in ``node``, each one whole."""
    template = _template(node) if isinstance(node, ast.expr) else None
    if template is not None:
        yield template
    else:
        for child in ast.iter_child_nodes(node):
            yield from _templates(child)


def _raised_messages() -> list[tuple[str, str]]:
    """(file name, message template) of every string that a ``raise``
    statement in the package passes to its exception."""
    return [
        (path.name, template)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None
        for template in _templates(node.exc)
    ]


@pytest.mark.parametrize("message", MESSAGES)
def test_a_geometry_message_is_raised_from_one_site(message):
    sites = [name for name, template in _raised_messages() if template == message]
    assert sites == ["complexes.py"]


def test_the_scan_reads_fstrings_and_literals():
    templates = {template for _, template in _raised_messages()}
    # a literal and f-strings with one field and with three, each whole
    assert {
        "no maximal faces",
        "face {} references a missing vertex",
        "vertex {} has arity {}, ambient dimension is {}",
    } <= templates
    assert "face " not in templates
