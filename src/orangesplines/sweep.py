"""Formula-versus-oracle sweeps over (r, d) grids.

Each cell computes the closed-form dimension of an orange and the
brute-force cofactor dimension and records whether they agree.  Cells are
computed one after another in (r, d) order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from .cofactor import spline_dim
from .complexes import SimplicialComplex, detect_orange
from .dimension import orange_dim_formula
from .projection import project_orange

__all__ = ["SweepCell", "SweepReport", "run_sweep"]


@dataclass(frozen=True)
class SweepCell:
    r: int
    d: int
    formula: int
    oracle: int
    elapsed: float

    @property
    def match(self) -> bool:
        return self.formula == self.oracle


@dataclass(frozen=True)
class SweepReport:
    cells: tuple[SweepCell, ...]

    @property
    def all_match(self) -> bool:
        return all(c.match for c in self.cells)

    @property
    def mismatches(self) -> list[SweepCell]:
        return [c for c in self.cells if not c.match]

    @property
    def total_elapsed(self) -> float:
        return sum(c.elapsed for c in self.cells)


def run_sweep(
    complex_: SimplicialComplex,
    r_values: Iterable[int],
    d_values: Iterable[int],
) -> SweepReport:
    profile = detect_orange(complex_)
    projected = project_orange(complex_, profile)
    grid = sorted((r, d) for r in set(r_values) for d in set(d_values))

    def cell(rd: tuple[int, int]) -> SweepCell:
        r, d = rd
        t0 = time.perf_counter()
        formula = orange_dim_formula(complex_, r, d, profile, projected)
        oracle = spline_dim(complex_, r, d)
        return SweepCell(
            r=r, d=d, formula=formula, oracle=oracle,
            elapsed=time.perf_counter() - t0,
        )

    return SweepReport(cells=tuple(cell(rd) for rd in grid))
