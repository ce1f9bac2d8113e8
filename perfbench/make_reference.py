"""Regenerate the benchmark's frozen reference table.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes ``perfbench/reference.json``: every catalog orange in the JSON wire
format, its dimensions dim S^r_d for r <= 2 and d <= 8, and for r <= 1 and
d <= 3 the size of the lifted minimal determining set and the number of
domain points of the standard orange.  Each dimension is computed twice,
by the closed form and by the cofactor nullity, and written only when the
two agree; each determining-set size must equal the dimension.  The two
acceptance spot values (13 and 30) are checked before anything is written.
"""

from __future__ import annotations

import json
import pathlib

from orangesplines.bernstein import layer_decomposition, lift_mds
from orangesplines.catalog import CATALOG, get
from orangesplines.cofactor import spline_dim
from orangesplines.dimension import orange_dim_formula
from orangesplines.io import complex_to_dict
from orangesplines.projection import standard_form

R_MAX, D_MAX = 2, 8
MDS_R_MAX, MDS_D_MAX = 1, 3
OUT = pathlib.Path(__file__).with_name("reference.json")


def dims(cx) -> list[list[int]]:
    table = []
    for r in range(R_MAX + 1):
        row = []
        for d in range(D_MAX + 1):
            formula = orange_dim_formula(cx, r, d)
            oracle = spline_dim(cx, r, d)
            if formula != oracle:
                raise SystemExit(f"formula {formula} != oracle {oracle} at r={r}, d={d}")
            row.append(oracle)
        table.append(row)
    return table


def mds_sizes(cx) -> tuple[list[list[int]], list[int]]:
    standard = standard_form(cx).standard
    sizes = [
        [lift_mds(standard, r, d).total for d in range(MDS_D_MAX + 1)]
        for r in range(MDS_R_MAX + 1)
    ]
    lattice = [layer_decomposition(standard, d).total for d in range(MDS_D_MAX + 1)]
    return sizes, lattice


def main() -> None:
    if spline_dim(get("two-triangle").complex, 1, 3) != 13:
        raise SystemExit("spot value 13 not reproduced")
    if spline_dim(get("two-tetrahedron").complex, 0, 3) != 30:
        raise SystemExit("spot value 30 not reproduced")
    out = {
        "grid": {"r_max": R_MAX, "d_max": D_MAX, "mds_r_max": MDS_R_MAX, "mds_d_max": MDS_D_MAX},
        "complexes": {},
        "dims": {},
        "mds": {},
        "lattice": {},
    }
    for entry in CATALOG:
        cx = entry.complex
        out["complexes"][entry.name] = complex_to_dict(cx)
        out["dims"][entry.name] = dims(cx)
        sizes, lattice = mds_sizes(cx)
        for r, row in enumerate(sizes):
            if row != out["dims"][entry.name][r][: MDS_D_MAX + 1]:
                raise SystemExit(f"{entry.name}: determining-set sizes {row} differ from dims")
        out["mds"][entry.name] = sizes
        out["lattice"][entry.name] = lattice
        print(entry.name, "done", flush=True)
    if out["dims"]["two-triangle"][1][3] != 13 or out["dims"]["two-tetrahedron"][0][3] != 30:
        raise SystemExit("spot values lost from the table")
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
