"""Exact rational simplex for the packing master LP.

The fractional-coloring LP (cover every vertex by weighted independent sets,
minimize total weight) is solved through its packing dual
    max 1.y   s.t.  y(I) <= 1 per pooled set, y >= 0,
which starts feasible at y = 0 and accepts new pool rows incrementally.
Pivoting uses Dantzig's rule with a Bland fallback after degenerate stalls,
so termination is guaranteed while typical runs stay fast.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import ResourceCap
from .independence import iter_bits

_ZERO = Fraction(0)
_ONE = Fraction(1)
_STALL_LIMIT = 12
_PIVOT_CAP = 2_000_000


class PackingMaster:
    """Incremental exact solver for the packing LP over a growing pool."""

    def __init__(self, vertex_count: int):
        self.V = vertex_count
        self.rows: list[list[Fraction]] = []
        self.basis: list[int] = []
        self.ncols = vertex_count
        self.obj: list[Fraction] = [_ONE] * vertex_count  # reduced costs
        self.objrhs = _ZERO  # negated objective value
        self.pool: list[int] = []
        self._pivots = 0

    def add_constraint(self, iset_mask: int) -> None:
        self.pool.append(iset_mask)
        for row in self.rows:
            row.insert(-1, _ZERO)
        self.obj.append(_ZERO)
        self.ncols += 1
        slack = self.ncols - 1
        row = [_ZERO] * self.ncols + [_ONE]
        for v in iter_bits(iset_mask):
            row[v] = _ONE
        row[slack] = _ONE
        # rewrite in the current basis before appending
        for i, b in enumerate(self.basis):
            f = row[b]
            if f:
                rb = self.rows[i]
                row = [a - f * c for a, c in zip(row, rb)]
        self.rows.append(row)
        self.basis.append(slack)

    def _pivot(self, r: int, j: int) -> None:
        self._pivots += 1
        if self._pivots > _PIVOT_CAP:
            raise ResourceCap(f"simplex exceeded {_PIVOT_CAP} pivots")
        rr = self.rows[r]
        # only the pivot row's non-zero columns (the rhs included) change
        nz = [c for c, x in enumerate(rr) if x]
        piv = rr[j]
        if piv != 1:
            for c in nz:
                rr[c] /= piv
        for i, row in enumerate(self.rows):
            f = row[j]
            if i != r and f:
                for c in nz:
                    row[c] -= f * rr[c]
        f = self.obj[j]
        if f:
            obj = self.obj
            for c in nz:
                if c < self.ncols:
                    obj[c] -= f * rr[c]
            self.objrhs -= f * rr[-1]
        self.basis[r] = j

    def primal_simplex(self) -> None:
        stall = 0
        last = self.objrhs
        while True:
            bland = stall > _STALL_LIMIT
            enter, best_c = -1, _ZERO
            for j in range(self.ncols):
                c = self.obj[j]
                if c > 0:
                    if bland:
                        enter = j
                        break
                    if c > best_c:
                        best_c, enter = c, j
            if enter < 0:
                return
            leave, ratio = -1, None
            for i, row in enumerate(self.rows):
                if row[enter] > 0:
                    r = row[-1] / row[enter]
                    if ratio is None or r < ratio or (
                            r == ratio and self.basis[i] < self.basis[leave]):
                        ratio, leave = r, i
            if leave < 0:
                raise ResourceCap("packing LP unbounded; pool misses a vertex")
            self._pivot(leave, enter)
            stall = stall + 1 if self.objrhs == last else 0
            last = self.objrhs

    def dual_simplex(self) -> None:
        stall = 0
        last = self.objrhs
        while True:
            bland = stall > _STALL_LIMIT
            leave, worst = -1, _ZERO
            for i, row in enumerate(self.rows):
                r = row[-1]
                if r < 0:
                    if bland:
                        if leave < 0 or self.basis[i] < self.basis[leave]:
                            leave = i
                    elif r < worst:
                        worst, leave = r, i
            if leave < 0:
                return
            row = self.rows[leave]
            enter, ratio = -1, None
            for j in range(self.ncols):
                if row[j] < 0:
                    r = self.obj[j] / row[j]  # both <= 0, ratio >= 0
                    if ratio is None or r < ratio or (r == ratio and j < enter):
                        ratio, enter = r, j
            if enter < 0:
                raise ResourceCap("dual simplex found the LP infeasible")
            self._pivot(leave, enter)
            stall = stall + 1 if self.objrhs == last else 0
            last = self.objrhs

    def solution(self) -> tuple[Fraction, list[Fraction], list[Fraction]]:
        """(optimal value, dual vertex weights y, covering weights w per pool set)."""
        y = [_ZERO] * self.V
        for i, b in enumerate(self.basis):
            if b < self.V:
                y[b] = self.rows[i][-1]
        w = [-self.obj[self.V + i] for i in range(len(self.pool))]
        return -self.objrhs, y, w
