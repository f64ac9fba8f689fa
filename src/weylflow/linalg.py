"""Exact sparse Gaussian elimination over the rationals, on integer rows.

Rows arrive as sparse mappings column -> int (or Fraction) plus a
right-hand-side entry; a row with Fraction entries is first cleared of
denominators (times the lcm of its entry denominators).  Elimination is
fraction-free: a pivot row with leading entry ``a`` removes the leading
entry ``b`` of the incoming row by ``a*row - b*pivot`` (both divided by
gcd(a, b)).  After each step that scaled the row (a != 1), and before the
row is stored as a pivot, it is divided by the gcd of its entries,
right-hand side included, so every stored row is primitive with a positive
leading entry and the entries stay small.  The solver keeps an incremental
row-echelon basis, from which rank, consistency, and a nullspace basis of
the homogeneous part are read off.  The pivot columns and the nullspace
vector of each free column depend only on the row space, so they match
those of any other exact elimination and any row order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence


class EchelonSystem:
    """Incremental echelon form of a sparse linear system A c = b."""

    def __init__(self, n_cols: int):
        self.n_cols = n_cols
        self.pivots: dict[int, dict[int, int]] = {}   # pivot col -> integer row
        self.rhs: dict[int, int] = {}                 # pivot col -> rhs
        self.inconsistent = False
        self.rows_seen = 0

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def nullity(self) -> int:
        return self.n_cols - self.rank

    def add_row(self, row: Mapping[int, int | Fraction],
                rhs: int | Fraction = 0) -> None:
        self.rows_seen += 1
        scale = lcm(rhs.denominator, *(v.denominator for v in row.values()))
        work = {c: v.numerator * (scale // v.denominator)
                for c, v in row.items() if v}
        b_work = rhs.numerator * (scale // rhs.denominator)
        while work:
            lead = min(work)
            pivot_row = self.pivots.get(lead)
            if pivot_row is None:
                g = gcd(b_work, *work.values())
                if work[lead] < 0:
                    g = -g
                if g != 1:
                    work = {c: v // g for c, v in work.items()}
                    b_work //= g
                self.pivots[lead] = work
                self.rhs[lead] = b_work
                return
            a, b = pivot_row[lead], work[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                work = {c: a * v for c, v in work.items()}
                b_work *= a
            for c, v in pivot_row.items():
                s = work.get(c, 0) - b * v
                if s:
                    work[c] = s
                else:
                    work.pop(c, None)
            b_work -= b * self.rhs[lead]
            if a != 1 and work:
                g = gcd(b_work, *work.values())
                if g != 1:
                    work = {c: v // g for c, v in work.items()}
                    b_work //= g
        if b_work != 0:
            self.inconsistent = True

    def residual(self, row: Mapping[int, int | Fraction], rhs: int | Fraction,
                 solution: Sequence[int | Fraction]) -> int | Fraction:
        """row . solution - rhs, in ints when all three hold ints."""
        total = -rhs
        for c, v in row.items():
            if solution[c]:
                total += v * solution[c]
        return total

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the homogeneous nullspace, one vector per free column."""
        pivot_cols = sorted(self.pivots)
        pivot_set = set(pivot_cols)
        free_cols = [c for c in range(self.n_cols) if c not in pivot_set]
        basis = []
        zero = Fraction(0)
        for f in free_cols:
            vec = [zero] * self.n_cols
            vec[f] = Fraction(1)
            # echelon rows only reference columns right of their pivot, so
            # walking pivots from the largest column upward back-substitutes
            for p in reversed(pivot_cols):
                row = self.pivots[p]
                s = zero
                for c, v in row.items():
                    if c != p and vec[c]:
                        s += v * vec[c]
                if s:
                    vec[p] = -s / row[p]
            basis.append(vec)
        return basis
