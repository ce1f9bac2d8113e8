"""Seeded benchmark inputs, generated without the package under test.

Every input is a catalog orange moved by an exact rational map and written
in the JSON wire format that ``orangesplines.io.complex_from_dict`` reads.
Op n's map is a signed permutation of the coordinates, drawn from
``random.Random`` seeded by the workload name and the seed, after a base
map drawn from a stream seeded by the workload name alone.  The seed thus
changes every input's coordinates but not their sizes, so the exact
arithmetic costs about the same on every seed and runs on different seeds
compare.  The base maps are checked for invertibility here with a
pure-``Fraction`` determinant; nothing in this file depends on the code it
measures.

    python3 perfbench/gen.py --workload dim_general --seed 1 --count 3

prints the first three inputs; the same seed prints the same bytes.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from itertools import islice
from typing import Iterator

# The six oranges the benchmark sweeps, as named in the catalog.
ORANGES = (
    "two-triangle",
    "planar-star",
    "two-tetrahedron",
    "tetrahedral-fan",
    "vertex-star-3d",
    "fan-4d",
)

# Each workload cycles through a fixed list of cells (orange, r, d); the
# list order is a fixed shuffle, the same for every seed, so any window of
# consecutive ops has roughly the whole mix in it.  For series_adapted the
# cell's d is the top degree of the sweep.  The degree limits, by ambient
# dimension, keep a round of 100 ops near ten seconds on two vCPUs while
# leaving each workload's target layer the largest one.
DIM_GENERAL_DMAX = 5
SERIES_DMAX = {2: 7, 3: 5, 4: 4}
MDS_DMAX = {2: 3, 3: 2, 4: 2}


WORKLOADS = ("dim_general", "series_adapted", "mds_lift")


def cells(workload: str, bases: dict[str, dict]) -> list[tuple[str, int, int]]:
    """The workload's op cycle, given the base complexes by name."""
    out = []
    for name in ORANGES:
        k = bases[name]["ambient_dim"]
        if workload == "dim_general":
            out += [(name, r, d) for r in range(3) for d in range(DIM_GENERAL_DMAX + 1)]
        elif workload == "series_adapted":
            out += [(name, r, SERIES_DMAX[k]) for r in range(3)]
        elif workload == "mds_lift":
            out += [(name, r, d) for r in range(2) for d in range(MDS_DMAX[k] + 1)]
        else:
            raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"cells:{workload}").shuffle(out)
    return out


# ---------------------------------------------------------------------------
# exact helpers
# ---------------------------------------------------------------------------

def fmt(q: Fraction) -> str:
    """Wire form of a rational: "p" or "p/q"."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over Fraction."""
    a = [list(row) for row in matrix]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for cc in range(c, n):
                    a[r][cc] -= f * a[c][cc]
    return det


def dense_integer_matrix(rng: random.Random, k: int) -> list[list[Fraction]]:
    """Invertible k x k matrix with every entry a nonzero integer in [-3, 3]."""
    while True:
        m = [[Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(k)] for _ in range(k)]
        if determinant(m):
            return m


def rational_translation(rng: random.Random, k: int) -> list[Fraction]:
    """Translation with every coordinate a nonzero rational p/q, q <= 5."""
    return [
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
        for _ in range(k)
    ]


def positive_diagonal(rng: random.Random, k: int) -> list[list[Fraction]]:
    """Diagonal matrix of positive rationals p/q with p, q <= 5."""
    m = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        m[i][i] = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    return m


def signed_permutation(rng: random.Random, k: int) -> list[list[Fraction]]:
    """k x k permutation matrix with a random sign in each row."""
    cols = list(range(k))
    rng.shuffle(cols)
    m = [[Fraction(0)] * k for _ in range(k)]
    for i, j in enumerate(cols):
        m[i][j] = Fraction(rng.choice((-1, 1)))
    return m


def compose(
    outer: list[list[Fraction]], matrix: list[list[Fraction]], shift: list[Fraction]
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The affine map x -> outer (matrix x + shift), as (linear part, shift)."""
    k = len(outer)
    return (
        [[sum((outer[i][l] * matrix[l][j] for l in range(k)), Fraction(0)) for j in range(k)] for i in range(k)],
        [sum((outer[i][l] * shift[l] for l in range(k)), Fraction(0)) for i in range(k)],
    )


def apply_affine(base: dict, matrix: list[list[Fraction]], shift: list[Fraction]) -> dict:
    """Wire-format image of a wire-format complex under x -> M x + b."""
    k = base["ambient_dim"]
    vertices = []
    for row in base["vertices"]:
        x = [Fraction(c) for c in row]
        vertices.append(
            [fmt(sum((matrix[i][j] * x[j] for j in range(k)), Fraction(0)) + shift[i]) for i in range(k)]
        )
    return {
        "ambient_dim": k,
        "vertices": vertices,
        "maximal_faces": [list(f) for f in base["maximal_faces"]],
    }


# ---------------------------------------------------------------------------
# op stream
# ---------------------------------------------------------------------------

def op_stream(workload: str, seed: int, bases: dict[str, dict]) -> Iterator[dict]:
    """Endless, deterministic stream of ops for one workload and seed.

    Op n runs cell n mod len(cycle) on a fresh image of the cell's orange.
    The base map is a dense affine map for dim_general and mds_lift and a
    positive diagonal scaling for series_adapted; a signed permutation of
    the coordinates follows it, and neither moves the medial vertex of
    series_adapted off the origin.  Any prefix of the stream depends only
    on the seed.
    """
    cycle = cells(workload, bases)
    maps = random.Random(f"maps:{workload}")
    rng = random.Random(f"{workload}:{seed}")
    n = 0
    while True:
        name, r, d = cycle[n % len(cycle)]
        base = bases[name]
        k = base["ambient_dim"]
        if workload == "series_adapted":
            matrix, shift = positive_diagonal(maps, k), [Fraction(0)] * k
        else:
            matrix, shift = dense_integer_matrix(maps, k), rational_translation(maps, k)
        image = apply_affine(base, *compose(signed_permutation(rng, k), matrix, shift))
        yield {"id": n, "orange": name, "r": r, "d": d, "complex": image}
        n += 1


def generate(workload: str, seed: int, bases: dict[str, dict], count: int) -> list[dict]:
    return list(islice(op_stream(workload, seed, bases), count))


def main() -> None:
    import pathlib

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=10)
    args = parser.parse_args()
    reference = json.loads((pathlib.Path(__file__).parent / "reference.json").read_text())
    for op in generate(args.workload, args.seed, reference["complexes"], args.count):
        print(json.dumps(op, sort_keys=True))


if __name__ == "__main__":
    main()
