"""Exact simplex on an integer tableau for the packing master LP.

The fractional-coloring LP (cover every vertex by weighted independent sets,
minimize total weight) is solved through its packing dual
    max 1.y   s.t.  y(I) <= 1 per pooled set, y >= 0,
which starts feasible at y = 0 and accepts new pool rows incrementally.
Each row, the objective row and every right-hand side included, is a list
of ints over one positive denominator, divided by its gcd after each update
(integer-preserving elimination, Bareiss 1968), and rows are compared by
cross-multiplication; `Fraction`s appear only in `solution()`.  Pivoting
uses Dantzig's rule with a Bland fallback after degenerate stalls, so
termination is guaranteed while typical runs stay fast.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ResourceCap
from .independence import iter_bits

_STALL_LIMIT = 12
_PIVOT_CAP = 2_000_000


def _eliminate(row: list[int], d: int, f: int, piv: list[int], p: int,
               nz: list[int]) -> tuple[list[int], int]:
    """row/d less f/d times piv/p, as ints over one denominator in lowest
    terms; nz holds the non-zero columns of piv, the only ones that change
    besides the scaling (row is updated in place when no scaling is due)."""
    g = gcd(f, p)
    f, p = f // g, p // g
    if p != 1:
        row = [a * p for a in row]
        d *= p
    for c in nz:
        row[c] -= f * piv[c]
    if d > 1:
        g = gcd(d, *row)
        if g > 1:
            row = [a // g for a in row]
            d //= g
    return row, d


class PackingMaster:
    """Incremental exact solver for the packing LP over a growing pool."""

    def __init__(self, vertex_count: int):
        self.V = vertex_count
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        self.ncols = vertex_count
        # reduced costs, then the negated objective value
        self.obj: list[int] = [1] * vertex_count + [0]
        self.objden = 1
        self.pool: list[int] = []
        self._pivots = 0

    def add_constraint(self, iset_mask: int) -> None:
        self.pool.append(iset_mask)
        for row in self.rows:
            row.insert(-1, 0)
        self.obj.insert(-1, 0)
        self.ncols += 1
        slack = self.ncols - 1
        row = [0] * self.ncols + [1]
        for v in iter_bits(iset_mask):
            row[v] = 1
        row[slack] = 1
        den = 1
        # rewrite in the current basis before appending
        for i, b in enumerate(self.basis):
            f = row[b]
            if f:
                rb = self.rows[i]
                row, den = _eliminate(row, den, f, rb, self.dens[i],
                                      [c for c, x in enumerate(rb) if x])
        self.rows.append(row)
        self.dens.append(den)
        self.basis.append(slack)

    def _pivot(self, r: int, j: int) -> None:
        self._pivots += 1
        if self._pivots > _PIVOT_CAP:
            raise ResourceCap(f"simplex exceeded {_PIVOT_CAP} pivots")
        # row r over its pivot entry, the sign moved to the numerators
        rr = self.rows[r]
        g = gcd(*rr) if rr[j] > 0 else -gcd(*rr)
        if g != 1:
            rr = [a // g for a in rr]
        self.rows[r] = rr
        self.dens[r] = p = rr[j]
        # other rows are scaled, and change beyond that only in the pivot
        # row's non-zero columns (the rhs included)
        nz = [c for c, x in enumerate(rr) if x]
        for i, row in enumerate(self.rows):
            f = row[j]
            if i != r and f:
                self.rows[i], self.dens[i] = _eliminate(row, self.dens[i], f, rr, p, nz)
        f = self.obj[j]
        if f:
            self.obj, self.objden = _eliminate(self.obj, self.objden, f, rr, p, nz)
        self.basis[r] = j

    def primal_simplex(self) -> None:
        stall = 0
        while True:
            # the reduced costs share one denominator: compare numerators; the
            # first index of the first positive one is Bland's choice
            obj = self.obj[:-1]
            best = next((c for c in obj if c > 0), 0) if stall > _STALL_LIMIT else max(obj)
            enter = obj.index(best) if best > 0 else -1
            if enter < 0:
                return
            # a row's denominator cancels in its ratio rhs / entry
            leave, num, den = -1, 0, 0
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    x, y = row[-1] * den, num * a
                    if leave < 0 or x < y or (x == y and self.basis[i] < self.basis[leave]):
                        leave, num, den = i, row[-1], a
            if leave < 0:
                raise ResourceCap("packing LP unbounded; pool misses a vertex")
            self._pivot(leave, enter)
            stall = stall + 1 if num == 0 else 0  # a zero step: objective unchanged

    def dual_simplex(self) -> None:
        stall = 0
        while True:
            bland = stall > _STALL_LIMIT
            leave, num, den = -1, 0, 1
            for i, (row, d) in enumerate(zip(self.rows, self.dens)):
                r = row[-1]
                if r < 0 and (leave < 0 or (self.basis[i] < self.basis[leave] if bland
                                            else r * den < num * d)):
                    leave, num, den = i, r, d
            if leave < 0:
                return
            # the ratio reduced cost / entry, up to one positive factor
            row = self.rows[leave]
            enter, num, den = -1, 0, 0
            for j, (c, a) in enumerate(zip(self.obj[:-1], row)):
                if a < 0 and (enter < 0 or c * den < num * a):
                    enter, num, den = j, c, a
            if enter < 0:
                raise ResourceCap("dual simplex found the LP infeasible")
            self._pivot(leave, enter)
            stall = stall + 1 if num == 0 else 0  # a zero reduced cost: objective unchanged

    def solution(self) -> tuple[Fraction, list[Fraction], list[Fraction]]:
        """(optimal value, dual vertex weights y, covering weights w per pool set)."""
        y = [Fraction(0)] * self.V
        for i, b in enumerate(self.basis):
            if b < self.V:
                y[b] = Fraction(self.rows[i][-1], self.dens[i])
        w = [Fraction(-self.obj[self.V + i], self.objden) for i in range(len(self.pool))]
        return Fraction(-self.obj[-1], self.objden), y, w
