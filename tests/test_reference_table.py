"""The benchmark's frozen reference table is reproduced byte for byte."""

from __future__ import annotations

import importlib.util
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_make_reference_reproduces_the_checked_in_table(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "make_reference", PERFBENCH / "make_reference.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "reference.json"
    monkeypatch.setattr(module, "OUT", out)
    module.main()
    assert out.read_bytes() == (PERFBENCH / "reference.json").read_bytes()
