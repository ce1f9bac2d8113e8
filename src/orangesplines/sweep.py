"""Formula-versus-oracle sweeps over (r, d) grids.

Each cell computes the closed-form dimension of an orange and the
brute-force cofactor dimension and records whether they agree.  Cells are
computed one after another in (r, d) order; a sweep with no cells is an
error, not a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cofactor import spline_dim
from .complexes import SimplicialComplex
from .dimension import orange_dim_formula

__all__ = ["SweepCell", "SweepReport", "run_sweep"]


@dataclass(frozen=True)
class SweepCell:
    r: int
    d: int
    formula: int
    oracle: int

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


def run_sweep(
    complex_: SimplicialComplex,
    r_values: Iterable[int],
    d_values: Iterable[int],
) -> SweepReport:
    grid = sorted((r, d) for r in set(r_values) for d in set(d_values))
    if not grid:
        raise ValueError("sweep grid is empty: no r or no d values")
    return SweepReport(
        cells=tuple(
            SweepCell(
                r=r,
                d=d,
                formula=orange_dim_formula(complex_, r, d),
                oracle=spline_dim(complex_, r, d),
            )
            for r, d in grid
        )
    )
