"""Product decomposition through connectivity of the linear matroid of normals.

An arrangement is a product exactly when its index set splits into blocks
with additive rank, and the finest such partition is the set of connected
components of the matroid of normals.  Components are computed from
fundamental circuits with respect to one greedy basis: link every non-basis
element to the basis elements of its fundamental circuit; the connected
components of that graph are the matroid components, for any basis
(Oxley, *Matroid Theory*, the chapter on connectivity).  One fraction-free
reduced elimination of the normals, taken as columns, yields the basis and
every circuit (``arrangement._fundamental_circuits``).  Each factor is the
essentialization of its block: the block's normals restricted to the block's
pivot coordinates.  That map is injective on the span, so it keeps circuits,
and the last-first greedy basis of a direct sum restricts to each component:
the same elimination gives each factor's own circuits, which ``decompose``
stores as the factor arrangement's memo entry.  All of it is integer pivoting
with no change-of-basis matrix, so the ambient dimension enters the cost only
as the length of the normals.  The decomposition is memoized on the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import Arrangement, _circuits, _essential, _memo


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
    """Finest partition of hyperplane indices with additive rank: the factors'
    indices, sorted by smallest member; the empty arrangement has none."""
    return [f.indices for f in decompose(arr).factors]


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
    """Split into irreducible essential factors ordered by smallest index, once per object.
    The blocks are the fundamental circuits merged where they meet, which joins
    along every edge of the fundamental-circuit graph."""
    return _memo(arr, "decompose", lambda: _decompose(arr))


def _decompose(arr: Arrangement) -> Decomposition:
    """``decompose``; each factor arrangement gets its circuits, by position in its block."""
    normals, circuits = arr.normals(), _circuits(arr)
    factors = []
    for block in sorted(tuple(sorted(b)) for b in _blocks(circuits)):
        position = {e: k for k, e in enumerate(block)}
        own = [c for c in circuits if max(c) in position]
        factor = _essential([normals[i] for i in block], arr.dim, [normals[max(c)] for c in own])
        _memo(factor, "circuits", lambda: tuple([frozenset([position[e] for e in c]) for c in own]))
        factors.append(Factor(factor, block))
    return Decomposition(arr.dim, tuple(factors), arr.dim - sum(f.rank for f in factors))
