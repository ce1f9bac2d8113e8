"""Formula-versus-oracle sweeps over (r, d) grids.

Each cell holds the closed-form dimension of an orange and the brute-force
cofactor dimension and records whether they agree.  Both are read, per r,
from one prefix at the grid's top degree (``orange_hilbert_prefix`` and
``spline_dims``).  A sweep with no cells, or with a negative degree, is an
error, not a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cofactor import spline_dims
from .complexes import SimplicialComplex
from .dimension import orange_hilbert_prefix
from .exact import _check_int, _check_nonnegative

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
    # checked before the sets, where True and 1 would merge
    r_values = {_check_int(r, "smoothness order") for r in r_values}
    d_values = {_check_int(d, "degree") for d in d_values}
    grid = sorted((r, d) for r in r_values for d in d_values)
    if not grid:
        raise ValueError("sweep grid is empty: no r or no d values")
    _check_nonnegative(min(d_values), "degree")
    top = dict(grid)  # grid is sorted, so each r keeps its largest d
    formula = {r: orange_hilbert_prefix(complex_, r, dmax).coeffs for r, dmax in top.items()}
    oracle = {r: spline_dims(complex_, r, dmax) for r, dmax in top.items()}
    return SweepReport(
        cells=tuple(
            SweepCell(r=r, d=d, formula=formula[r][d], oracle=oracle[r][d])
            for r, d in grid
        )
    )
