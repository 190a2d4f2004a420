"""Product decomposition through connectivity of the linear matroid of normals.

An arrangement is a product exactly when its index set splits into blocks
with additive rank, and the finest such partition is the set of connected
components of the matroid of normals.  Components are computed from
fundamental circuits with respect to one greedy basis: link every non-basis
element to the basis elements of its fundamental circuit; the connected
components of that graph are the matroid components.  One fraction-free
reduced elimination of the normals, taken as columns, yields the basis and
every circuit.  Each factor is the essentialization of its block: the
block's normals restricted to the block's pivot coordinates.  All of it is
integer pivoting with no change-of-basis matrix, so the ambient dimension
enters the cost only as the length of the normals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import Arrangement, essentialize, subarrangement
from .linalg import _eliminate


def connected_components(arr: Arrangement) -> list[tuple[int, ...]]:
    """Finest partition of hyperplane indices with additive rank.

    Blocks are returned sorted by smallest member; the empty arrangement
    yields the empty partition.  Correctness: in the reduced echelon form
    of the matrix whose columns are the normals (the fraction-free reduced
    rows are nonzero multiples of its rows), the pivot columns are the
    greedy basis and a non-pivot column holds its normal's coordinates in
    that basis, so the nonzero rows of the column are the basis elements of
    its fundamental circuit.  Row i is nonzero exactly on basis element i
    and the non-basis elements whose circuits contain it; merging the
    supports of the rows joins along every fundamental circuit, which
    reaches every pair that shares any circuit.
    """
    if arr.n == 0:
        return []
    rows, basis, _, _ = _eliminate(list(zip(*arr.normals())), arr.n, reduce=True)
    blocks: list[set[int]] = []
    for row in rows[:len(basis)]:
        block = {e for e, x in enumerate(row) if x != 0}
        for other in [b for b in blocks if b & block]:
            block |= other
            blocks.remove(other)
        blocks.append(block)
    return sorted(tuple(sorted(b)) for b in blocks)


@dataclass(frozen=True)
class Factor:
    """One irreducible factor, essential in its own coordinates."""

    arrangement: Arrangement
    indices: tuple[int, ...]   # original hyperplane indices, ascending

    @property
    def rank(self) -> int:
        return self.arrangement.dim


@dataclass(frozen=True)
class Decomposition:
    """Product decomposition into irreducible factors plus trivial directions.

    The factors' ranks and ``trivial_directions`` sum to ``ambient_dim``.
    """

    ambient_dim: int
    factors: tuple[Factor, ...]
    trivial_directions: int

    def max_factor_rank(self) -> int:
        return max((f.rank for f in self.factors), default=0)


def decompose(arr: Arrangement) -> Decomposition:
    """Split into irreducible essential factors ordered by smallest index."""
    factors = tuple(Factor(essentialize(subarrangement(arr, block)), block)
                    for block in connected_components(arr))
    return Decomposition(arr.dim, factors, arr.dim - sum(f.rank for f in factors))
