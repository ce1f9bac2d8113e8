"""Command-line interface.

Inputs are JSON complexes (--input) or built-in catalog entries
(--catalog).  Machine output (--json, --csv) is byte-stable: fixed key
order, exact rationals as strings, no timing fields.  The exit code is 0
only when every requested check passes.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from . import catalog as catalog_mod
from .bernstein import complex_domain_points, layer_decomposition, lift_mds
from .cofactor import build_system, spline_dim, spline_dims
from .complexes import SimplicialComplex, detect_orange
from .dimension import orange_dim_formula, verify_hilbert_identity
from .exact import _check_nonnegative, format_rational
from .io import complex_to_dict, load_complex
from .projection import project_orange, standard_form
from .sweep import run_sweep

__all__ = ["main"]


def _emit_json(obj: object) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _coords(point) -> list[str]:
    return [format_rational(c) for c in point]


def _add_input_options(parser: argparse.ArgumentParser, required: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("-i", "--input", help="path to a JSON complex")
    group.add_argument(
        "-c", "--catalog", help="name of a built-in catalog entry",
        choices=catalog_mod.names(), metavar="NAME",
    )


def _resolve_complex(args: argparse.Namespace) -> SimplicialComplex:
    if args.catalog:
        return catalog_mod.get(args.catalog).complex
    return load_complex(args.input)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_validate(args: argparse.Namespace) -> int:
    complex_ = _resolve_complex(args)
    complex_.validate()
    profile = detect_orange(complex_)
    payload = {
        "valid": True,
        "profile": {
            "k": profile.k,
            "i": profile.i,
            "n": profile.n,
            "medial": list(profile.medial),
        },
    }
    if args.json:
        _emit_json(payload)
    else:
        print(
            f"valid ({profile.k},{profile.i})-orange: {profile.n} segments, "
            f"medial face {list(profile.medial)}"
        )
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    complex_ = _resolve_complex(args)
    profile = detect_orange(complex_)
    projected = project_orange(complex_)
    payload = {
        "profile": {"k": profile.k, "i": profile.i, "n": profile.n},
        "central_vertex": projected.central_vertex,
        "face_map": list(projected.face_map),
        "complex": complex_to_dict(projected.complex),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"projected star in R^{projected.complex.ambient_dim}")
        print(f"central vertex: {projected.central_vertex}")
        for vid, v in enumerate(projected.complex.vertices):
            print(f"  vertex {vid}: ({', '.join(_coords(v))})")
        for f in projected.complex.maximal_faces:
            print(f"  face {list(f)}")
    return 0


def _cmd_standard_orange(args: argparse.Namespace) -> int:
    complex_ = _resolve_complex(args)
    sf = standard_form(complex_)
    payload = complex_to_dict(sf.standard)
    if args.json:
        _emit_json(payload)
    else:
        print(f"standard ({sf.profile.k},{sf.profile.i})-orange")
        for vid, v in enumerate(sf.standard.vertices):
            print(f"  vertex {vid}: ({', '.join(_coords(v))})")
        for f in sf.standard.maximal_faces:
            print(f"  face {list(f)}")
    return 0


def _cmd_dim(args: argparse.Namespace) -> int:
    complex_ = _resolve_complex(args)
    payload: dict = {"r": args.r, "d": args.d, "method": args.method}
    rc = 0
    if args.method in ("formula", "both"):
        payload["formula"] = orange_dim_formula(complex_, args.r, args.d)
    if args.method in ("cofactor", "both"):
        payload["cofactor"] = spline_dim(complex_, args.r, args.d)
    if args.method == "both":
        payload["match"] = payload["formula"] == payload["cofactor"]
        rc = 0 if payload["match"] else 1
    if args.dump_system:
        system = build_system(complex_, args.r, args.d)
        Path(args.dump_system).write_text(
            json.dumps(system.describe(), indent=2, sort_keys=True) + "\n"
        )
    if args.json:
        _emit_json(payload)
    else:
        for key in ("formula", "cofactor"):
            if key in payload:
                print(f"{key}: {payload[key]}")
        if "match" in payload:
            print(f"match: {payload['match']}")
    return rc


def _cmd_hilbert(args: argparse.Namespace) -> int:
    complex_ = _resolve_complex(args)
    profile = detect_orange(complex_)
    star = project_orange(complex_).complex
    ok, residuals = verify_hilbert_identity(complex_, args.r, args.dmax)
    payload = {
        "r": args.r,
        "dmax": args.dmax,
        "orange": list(spline_dims(complex_, args.r, args.dmax)),
        "star": list(spline_dims(star, args.r, args.dmax)),
        "fiber_dim": profile.k - profile.i,
        "residuals": residuals,
        "ok": ok,
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"orange series:   {payload['orange']}")
        print(f"star series:     {payload['star']}")
        print(f"residuals:       {payload['residuals']}")
        print(f"identity holds:  {ok}")
    return 0 if ok else 1


def _cmd_domain_points(args: argparse.Namespace) -> int:
    complex_ = _resolve_complex(args)
    points = complex_domain_points(complex_, args.d)
    payload = {
        "d": args.d,
        "count": len(points),
        "points": [
            {
                "coordinates": _coords(p.coordinates),
                "occurrences": [
                    {"face": f, "multi_index": list(a)} for f, a in p.occurrences
                ],
            }
            for p in points
        ],
    }
    if args.csv:
        rows = [
            _coords(p.coordinates) + [f, " ".join(map(str, a))]
            for p in points
            for f, a in p.occurrences
        ]
        header = [f"x{c + 1}" for c in range(complex_.ambient_dim)]
        _write_csv(args.csv, header + ["face", "multi_index"], rows)
    if args.json:
        _emit_json(payload)
    else:
        print(f"{len(points)} domain points at degree {args.d}")
        for p in points:
            hosts = ", ".join(f"{f}:{list(a)}" for f, a in p.occurrences)
            print(f"  ({', '.join(_coords(p.coordinates))})  [{hosts}]")
    return 0


def _cmd_layers(args: argparse.Namespace) -> int:
    complex_ = _resolve_complex(args)
    sf = standard_form(complex_)
    decomposition = layer_decomposition(sf.standard, args.d)
    payload = {
        "d": args.d,
        "fiber_dim": decomposition.fiber_dim,
        "total": decomposition.total,
        "layers": [
            {
                "level": layer.level,
                "factor": format_rational(layer.factor),
                "size": len(layer.heads),
                "multiplicity": len(layer.tails),
                "shifts": [_coords(s) for s in layer.shifts],
                "points": [_coords(p) for p in layer.points],
            }
            for layer in decomposition.layers
        ],
    }
    if args.csv:
        rows = [[layer.level] + _coords(p) for layer in decomposition.layers for p in layer.points]
        header = [f"x{c + 1}" for c in range(sf.standard.ambient_dim)]
        _write_csv(args.csv, ["level"] + header, rows)
    if args.json:
        _emit_json(payload)
    else:
        print(
            f"lattice of the standard orange at degree {args.d}: "
            f"{decomposition.total} points in {args.d + 1} layers"
        )
        for layer in decomposition.layers:
            print(
                f"  level {layer.level}: {len(layer.heads)} points "
                f"x {len(layer.tails)} shifts (scale {format_rational(layer.factor)})"
            )
    return 0


def _cmd_mds(args: argparse.Namespace) -> int:
    complex_ = _resolve_complex(args)
    sf = standard_form(complex_)
    lifted = lift_mds(sf.standard, args.r, args.d)
    payload = {
        "r": args.r,
        "d": args.d,
        "total": lifted.total,
        "formula_value": lifted.formula_value,
        "per_level": [list(t) for t in lifted.per_level],
        "points": [
            {
                "coordinates": _coords(p.coordinates),
                "face": p.face,
                "multi_index": list(p.multi_index),
                "level": p.level,
            }
            for p in lifted.points
        ],
    }
    if args.csv:
        rows = [
            [p.level, p.face, " ".join(map(str, p.multi_index))] + _coords(p.coordinates)
            for p in lifted.points
        ]
        header = [f"x{c + 1}" for c in range(sf.standard.ambient_dim)]
        _write_csv(args.csv, ["level", "face", "multi_index"] + header, rows)
    if args.json:
        _emit_json(payload)
    else:
        print(f"determining set of size {lifted.total} (dimension {lifted.formula_value})")
        for j, size, mult in lifted.per_level:
            print(f"  level {j}: {size} points x {mult} shifts")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.catalog or args.input:
        targets = [(args.catalog or args.input, _resolve_complex(args))]
    else:
        targets = [
            (name, catalog_mod.get(name).complex) for name in catalog_mod.SWEEP_NAMES
        ]
    t0 = time.perf_counter()
    entries = []
    all_match = True
    for name, complex_ in targets:
        report = run_sweep(
            complex_, range(args.r_max + 1), range(args.d_max + 1)
        )
        all_match = all_match and report.all_match
        entries.append((name, report))
    elapsed = time.perf_counter() - t0
    payload = {
        "r_max": args.r_max,
        "d_max": args.d_max,
        "all_match": all_match,
        "entries": [
            {
                "name": name,
                "cells": [
                    {
                        "r": c.r,
                        "d": c.d,
                        "formula": c.formula,
                        "oracle": c.oracle,
                        "match": c.match,
                    }
                    for c in report.cells
                ],
            }
            for name, report in entries
        ],
    }
    if args.csv:
        rows = [
            [name, c.r, c.d, c.formula, c.oracle, c.match]
            for name, report in entries
            for c in report.cells
        ]
        _write_csv(args.csv, ["entry", "r", "d", "formula", "oracle", "match"], rows)
    if args.json:
        _emit_json(payload)
    else:
        for name, report in entries:
            status = "ok" if report.all_match else "MISMATCH"
            print(f"{name}: {status}")
            for c in report.cells:
                flag = "" if c.match else "   <-- mismatch"
                print(f"  r={c.r} d={c.d}: formula={c.formula} oracle={c.oracle}{flag}")
    print(f"sweep finished in {elapsed:.2f}s", file=sys.stderr)
    return 0 if all_match else 1


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        if args.json:
            _emit_json(
                [
                    {
                        "name": e.name,
                        "k": e.profile.k,
                        "i": e.profile.i,
                        "segments": e.profile.n,
                        "notes": e.notes,
                    }
                    for e in catalog_mod.CATALOG
                ]
            )
        else:
            for e in catalog_mod.CATALOG:
                unit = "segment" if e.profile.n == 1 else "segments"
                print(
                    f"{e.name:20s} ({e.profile.k},{e.profile.i})-orange, "
                    f"{e.profile.n} {unit}: {e.notes}"
                )
        return 0
    entry = catalog_mod.get(args.name)
    payload = {
        "name": entry.name,
        "notes": entry.notes,
        "profile": {
            "k": entry.profile.k,
            "i": entry.profile.i,
            "n": entry.profile.n,
            "medial": list(entry.profile.medial),
        },
        "complex": complex_to_dict(entry.complex),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"{entry.name}: {entry.notes}")
        print(json.dumps(complex_to_dict(entry.complex), indent=2))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orangesplines",
        description="exact spline-space dimensions on generalized oranges",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a complex and recognize its profile")
    _add_input_options(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("project", help="project an orange onto its star")
    _add_input_options(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("standard-orange", help="build the standard model of an orange")
    _add_input_options(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_standard_orange)

    p = sub.add_parser("dim", help="spline-space dimension")
    _add_input_options(p)
    p.add_argument("--r", type=int, required=True, help="smoothness order")
    p.add_argument("--d", type=int, required=True, help="polynomial degree")
    p.add_argument(
        "--method", choices=("formula", "cofactor", "both"), default="both"
    )
    p.add_argument("--dump-system", metavar="PATH", help="write the cofactor system as JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("hilbert", help="verify the Hilbert series identity")
    _add_input_options(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--dmax", type=int, default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("domain-points", help="lattice points of a complex")
    _add_input_options(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=_cmd_domain_points)

    p = sub.add_parser("layers", help="layer decomposition of the standard orange")
    _add_input_options(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=_cmd_layers)

    p = sub.add_parser("mds", help="lifted minimal determining set")
    _add_input_options(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=_cmd_mds)

    p = sub.add_parser("sweep", help="formula-versus-oracle sweep")
    _add_input_options(p, required=False)
    p.add_argument("--r-max", type=int, default=2)
    p.add_argument("--d-max", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("catalog", help="list or show built-in oranges")
    catalog_sub = p.add_subparsers(dest="action", required=True)
    pl = catalog_sub.add_parser("list")
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(func=_cmd_catalog, action="list")
    ps = catalog_sub.add_parser("show")
    ps.add_argument("name", choices=catalog_mod.names(), metavar="NAME")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=_cmd_catalog, action="show")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "d"):
            # every command with --d rejects d < 0 before it reads its input
            _check_nonnegative(args.d, "degree")
        return args.func(args)
    except (ValueError, OSError) as exc:  # ComplexFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
