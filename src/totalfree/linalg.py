"""Exact linear algebra over the rationals.

One fraction-free (Bareiss) elimination, ``_eliminate``, on integer rows
only: the other layers pass it their integer normals as they are.
``Matrix``, an immutable grid of ``fractions.Fraction``, clears its rows'
denominators before it calls that kernel.  There is no floating point
anywhere (``_frac`` refuses a float or a bool), and every predicate built on
top of this module (codimension tests, membership tests, Saito
determinants) is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Scalar = int | Fraction
Vector = tuple[Fraction, ...]


def _frac(x: Scalar) -> Fraction:
    """An int or a Fraction as a Fraction; a float, a bool or any other value is a TypeError."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"not an exact scalar (an int or a Fraction): {x!r}")
    return x if isinstance(x, Fraction) else Fraction(x)


def _eliminate(rows: Iterable[Sequence[int]], cols: int, reduce: bool
               ) -> tuple[list[list[int]], tuple[int, ...]]:
    """Fraction-free (Bareiss) elimination of integer rows.

    Each update divides exactly by the previous pivot (Bareiss, Math. Comp.
    1968), so entries stay integers.  Rows below a pivot are cleared; with
    ``reduce`` also the rows above, after which each pivot row holds the last
    pivot in its pivot column and the rows past the rank are zero.

    Returns the rows and the pivot columns.
    """
    m = [list(row) for row in rows]
    n = len(m)
    pivots: list[int] = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == n:
            break
        for p in range(r, n):
            if m[p][c]:
                break
        else:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
        pivot_row = m[r]
        piv = pivot_row[c]
        for i in range(0 if reduce else r + 1, n):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            if f:
                m[i] = [(piv * a - f * b) // prev for a, b in zip(row, pivot_row)]
            elif piv != prev:
                m[i] = [piv * a // prev for a in row]
        pivots.append(c)
        prev = piv
    return m, tuple(pivots)


class Matrix:
    """Immutable rational matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[Scalar]]):
        grid = tuple(tuple(_frac(x) for x in row) for row in entries)
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("ragged rows")
        self.entries: tuple[Vector, ...] = grid
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def _scaled(self) -> list[list[int]]:
        """Each row times the lcm of its denominators: the same span, in integers."""
        dens = [lcm(*(x.denominator for x in row)) for row in self.entries]
        return [[x.numerator * (d // x.denominator) for x in row]
                for d, row in zip(dens, self.entries)]

    def rref(self) -> tuple[Matrix, tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        rows, pivots = _eliminate(self._scaled(), self.cols, reduce=True)
        reduced = [[Fraction(x, row[p]) for x in row] for row, p in zip(rows, pivots)]
        return Matrix(reduced + rows[len(pivots):]), pivots

    def rank(self) -> int:
        """Exact rank over the rationals."""
        return len(_eliminate(self._scaled(), self.cols, reduce=False)[1])

    def kernel_basis(self) -> list[Vector]:
        """Basis of the right null space; empty iff the columns are independent.

        The basis is canonical: it comes from the reduced echelon form, one
        vector per free column in ascending column order, with a 1 in the
        free position.
        """
        red, pivots = self.rref()
        basis = []
        for f in [c for c in range(self.cols) if c not in pivots]:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -red.entries[i][f]
            basis.append(tuple(v))
        return basis
