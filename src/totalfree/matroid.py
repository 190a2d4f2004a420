"""Product decomposition through connectivity of the linear matroid of normals.

An arrangement is a product exactly when its index set splits into blocks
with additive rank, and the finest such partition is the set of connected
components of the matroid of normals.  Components are computed from
fundamental circuits with respect to one greedy basis: link every non-basis
element to the basis elements of its fundamental circuit; the connected
components of that graph are the matroid components, for any basis
(Oxley, *Matroid Theory*, the chapter on connectivity).  One fraction-free
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


def _fundamental_circuits(normals) -> list[set[int]]:
    """Fundamental circuits for the last-first greedy basis: the pivots of the
    normals as columns, last first.  Pivot row i is nonzero on basis element
    i, its largest index, and on each non-basis element whose circuit holds it."""
    n = len(normals)
    rows, basis, _ = _eliminate(zip(*normals[::-1]), n, reduce=True)
    return [{n - 1 - c for c, x in enumerate(row) if x} for row in rows[:len(basis)]]


def _blocks(supports) -> list[set[int]]:
    """The sets merged wherever they meet."""
    blocks: list[set[int]] = []
    for block in supports:
        for other in [b for b in blocks if b & block]:
            block = block | other  # the callers' sets stay as they are
            blocks.remove(other)
        blocks.append(block)
    return blocks


def connected_components(arr: Arrangement) -> list[tuple[int, ...]]:
    """Finest partition of hyperplane indices with additive rank.

    Blocks are returned sorted by smallest member; the empty arrangement
    yields the empty partition.  Merging the fundamental circuits where
    they meet joins along every edge of the fundamental-circuit graph.
    """
    return sorted(tuple(sorted(b)) for b in _blocks(_fundamental_circuits(arr.normals())))


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
