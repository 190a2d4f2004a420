"""Exact linear algebra over the rationals.

One fraction-free (Bareiss) elimination, ``_eliminate``, on integer rows
only: the other layers pass it their integer normals as they are.
``Matrix``, an immutable grid of ``fractions.Fraction``, clears its rows'
denominators before it calls that kernel and keeps their product for
``det``.  There is no floating point anywhere (``_frac`` refuses a float or
a bool), and every predicate built on top of this module (codimension
tests, membership tests, Saito determinants) is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence

Scalar = int | Fraction
Vector = tuple[Fraction, ...]


def _frac(x: Scalar) -> Fraction:
    """An int or a Fraction as a Fraction; a float, a bool or any other value is a TypeError."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"not an exact scalar (an int or a Fraction): {x!r}")
    return x if isinstance(x, Fraction) else Fraction(x)


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dot of length {len(u)} against {len(v)}")
    return sum((_frac(a) * b for a, b in zip(u, v)), Fraction(0))


def _eliminate(rows: Iterable[Sequence[int]], cols: int, reduce: bool
               ) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Fraction-free (Bareiss) elimination of integer rows.

    Each update divides exactly by the previous pivot (Bareiss, Math. Comp.
    1968), so entries stay integers.  Rows below a pivot are cleared; with
    ``reduce`` also the rows above, after which each pivot row holds the last
    pivot in its pivot column and the rows past the rank are zero.

    Returns the rows, the pivot columns and the last pivot signed by the row
    swaps: for a square matrix of full rank, its determinant.
    """
    m = [list(row) for row in rows]
    n = len(m)
    pivots: list[int] = []
    prev, sign = 1, 1
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
            sign = -sign
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
    return m, tuple(pivots), sign * prev


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

    def _scaled(self) -> tuple[list[list[int]], int]:
        """Each row times the lcm of its denominators (the same span), and their product."""
        dens = [lcm(*(x.denominator for x in row)) for row in self.entries]
        return [[x.numerator * (d // x.denominator) for x in row]
                for d, row in zip(dens, self.entries)], prod(dens)

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix times column vector."""
        return tuple(dot(row, v) for row in self.entries)

    def rref(self) -> tuple[Matrix, tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        rows, pivots, _ = _eliminate(self._scaled()[0], self.cols, reduce=True)
        reduced = [[Fraction(x, row[p]) for x in row] for row, p in zip(rows, pivots)]
        return Matrix(reduced + rows[len(pivots):]), pivots

    def rank(self) -> int:
        """Exact rank over the rationals."""
        return len(_eliminate(self._scaled()[0], self.cols, reduce=False)[1])

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

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        rows, scale = self._scaled()
        _, pivots, last = _eliminate(rows, self.cols, reduce=False)
        return Fraction(last, scale) if len(pivots) == self.rows else Fraction(0)

    def inverse(self) -> Matrix:
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = Matrix([list(row) + [1 if i == j else 0 for j in range(n)]
                      for i, row in enumerate(self.entries)])
        red, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix([row[n:] for row in red.entries])
