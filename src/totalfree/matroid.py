"""Product decomposition through connectivity of the linear matroid of normals.

An arrangement is a product exactly when its index set splits into blocks
with additive rank, and the finest such partition is the set of connected
components of the matroid of normals.  Components are computed from
fundamental circuits with respect to one greedy basis: link every non-basis
element to the basis elements of its fundamental circuit; the connected
components of that graph are the matroid components.  One reduced echelon
form of the normals, taken as columns, yields the basis and every circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import Arrangement, essentialize, subarrangement
from .errors import InternalInvariantError
from .linalg import Matrix


def connected_components(arr: Arrangement) -> list[tuple[int, ...]]:
    """Finest partition of hyperplane indices with additive rank.

    Blocks are returned sorted by smallest member; the empty arrangement
    yields the empty partition.  Correctness: in the reduced echelon form
    of the matrix whose columns are the normals, the pivot columns are the
    greedy basis and a non-pivot column holds its normal's coordinates in
    that basis, so the nonzero rows of the column are the basis elements of
    its fundamental circuit.  Row i is nonzero exactly on basis element i
    and the non-basis elements whose circuits contain it; merging the
    supports of the rows joins along every fundamental circuit, which
    reaches every pair that shares any circuit.
    """
    if arr.n == 0:
        return []
    red, basis = Matrix(zip(*arr.normals())).rref()
    blocks: list[set[int]] = []
    for row in red.entries[:len(basis)]:
        block = {e for e, x in enumerate(row) if x != 0}
        for other in [b for b in blocks if b & block]:
            block |= other
            blocks.remove(other)
        blocks.append(block)
    return sorted(tuple(sorted(b)) for b in blocks)


def is_irreducible(arr: Arrangement) -> bool:
    """No product structure: essential and matroid-connected.

    The empty arrangement and anything with a trivial direction are
    reducible by convention (they factor off empty one-dimensional pieces);
    a single hyperplane in dimension 1 is irreducible.
    """
    if arr.n == 0:
        return False
    if arr.rank() < arr.dim:
        return False
    return len(connected_components(arr)) == 1


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

    ``change_of_basis`` is an invertible matrix sending the padded product
    normals (factor normals laid out block by block, zero on the trivial
    coordinates) to covectors proportional to the original normals.
    """

    ambient_dim: int
    factors: tuple[Factor, ...]
    trivial_directions: int
    change_of_basis: Matrix

    def factor_ranks(self) -> tuple[int, ...]:
        return tuple(f.rank for f in self.factors)

    def max_factor_rank(self) -> int:
        return max((f.rank for f in self.factors), default=0)


def decompose(arr: Arrangement) -> Decomposition:
    """Split into irreducible essential factors ordered by smallest index."""
    factors = []
    basis_rows: list[tuple] = []
    for block in connected_components(arr):
        ess = essentialize(subarrangement(arr, block))
        factors.append(Factor(ess.arrangement, block))
        basis_rows.extend(ess.old_to_new.entries)
    rank = len(basis_rows)
    # Complete the stacked factor bases to an invertible matrix with
    # standard basis vectors, greedily in coordinate order.
    completion: list[tuple] = []
    for i in range(arr.dim):
        if rank + len(completion) == arr.dim:
            break
        candidate = tuple(1 if j == i else 0 for j in range(arr.dim))
        trial = basis_rows + completion + [candidate]
        if Matrix(trial).rank() == len(trial):
            completion.append(candidate)
    change = Matrix(basis_rows + completion) if arr.dim else Matrix([])
    if arr.dim and change.det() == 0:
        raise InternalInvariantError("change of basis is singular")
    return Decomposition(arr.dim, tuple(factors), arr.dim - rank, change)


def reassemble_normals(decomp: Decomposition) -> list[tuple]:
    """Original-coordinate covectors recovered from the decomposition.

    For each factor hyperplane, pad its normal into the product coordinates
    and push it through the change of basis.  The results are proportional
    to the original normals, in original index order.
    """
    offsets = []
    at = 0
    for f in decomp.factors:
        offsets.append(at)
        at += f.rank
    rows: dict[int, tuple] = {}
    for f, off in zip(decomp.factors, offsets):
        for local, orig in enumerate(f.indices):
            padded = [0] * decomp.ambient_dim
            normal = f.arrangement.hyperplanes[local].normal
            for j, c in enumerate(normal):
                padded[off + j] = c
            rows[orig] = tuple(
                sum(padded[k] * decomp.change_of_basis.entries[k][c]
                    for k in range(decomp.ambient_dim))
                for c in range(decomp.ambient_dim))
    return [rows[i] for i in sorted(rows)]
