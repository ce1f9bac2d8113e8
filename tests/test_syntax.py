"""Every source file parses as the oldest Python that pyproject.toml allows."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = tuple(
    int(n)
    for n in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M
    ).groups()
)
SOURCES = sorted(p for d in ("src", "tests", "perfbench", "demos") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_as_the_oldest_supported_python(path):
    # the oldest version in the CI matrix of .github/workflows/tier1.yml
    assert OLDEST == (3, 10)
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)
