"""Expected outputs, computed without the totalfree package.

The output checks of the benchmark compare the package against these
closed forms and against a fixed table, so a wrong answer cannot pass by
agreeing with itself.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

# Braid arrangement of ambient dimension d (hyperplanes x_i - x_j, i < j, in
# lexicographic order), multiplicity k0 on the generic circuit and 1
# elsewhere: (circuit indices, k0, LMP2, GMP2max).  A change of coordinates
# leaves every entry unchanged, because all of them depend on the matroid
# and the hyperplane order only.
BRAID = {
    4: ((1, 2, 3, 4), 9, 523, 481),
    5: ((2, 5, 6, 7, 8), 31, 10205, 9600),
    6: ((3, 7, 10, 11, 12, 13), 73, 83245, 79923),
    7: ((4, 9, 13, 16, 17, 18, 19), 141, 429555, 417500),
    8: ((5, 11, 16, 20, 23, 24, 25, 26), 242, 1674308, 1639686),
}


def gmp2_max(rank: int, total: int) -> int:
    """Second elementary symmetric function of the balanced partition."""
    q, r = divmod(total, rank)
    parts = [q + 1] * r + [q] * (rank - r)
    return (total * total - sum(p * p for p in parts)) // 2


def k0_threshold(rank: int, n: int) -> int:
    """Least k with C(rank+1, 2) k^2 > gmp2_max(rank, (k-1)(rank+1) + n)."""
    k = 1
    while comb(rank + 1, 2) * k * k <= gmp2_max(rank, (k - 1) * (rank + 1) + n):
        k += 1
    return k


def three_line_exponents(m) -> tuple[int, int]:
    """Wakamiko's exponents of three distinct lines in the plane."""
    k1, k2, k3 = sorted(m)
    if k3 >= k1 + k2 - 1:
        return tuple(sorted((k1 + k2, k3)))
    total = k1 + k2 + k3
    return total // 2, total - total // 2


def dominant_exponents(m) -> tuple[int, int] | None:
    """(|m| - max m, max m) when one multiplicity dominates, else None."""
    total, top = sum(m), max(m)
    if 2 * top < total:
        return None
    return total - top, top


def braid_pairs(dim: int) -> list[tuple[int, int]]:
    """Coordinate pair (i, j) of each braid hyperplane, in index order."""
    return list(combinations(range(dim), 2))


def braid_flats(dim: int) -> list[tuple[int, ...]]:
    """Members of each rank-2 flat, ordered by their two smallest members.

    Two hyperplanes sharing a coordinate span a triangle flat with the third
    edge of that triangle; two disjoint ones form a flat of their own.
    """
    pairs = braid_pairs(dim)
    index = {p: i for i, p in enumerate(pairs)}
    covered: set[tuple[int, int]] = set()
    flats = []
    for a, b in combinations(range(len(pairs)), 2):
        if (a, b) in covered:
            continue
        ends = set(pairs[a]) | set(pairs[b])
        if len(ends) == 3:
            members = tuple(sorted(index[p] for p in combinations(sorted(ends), 2)))
        else:
            members = (a, b)
        covered.update(combinations(members, 2))
        flats.append(members)
    return flats


def braid_lmp2(dim: int, m) -> int:
    """LMP2 of the braid arrangement under ``m`` from closed-form local exponents."""
    total = 0
    for members in braid_flats(dim):
        local = [m[i] for i in members]
        if len(local) == 2:
            total += local[0] * local[1]
        else:
            d1, d2 = three_line_exponents(local)
            total += d1 * d2
    return total


def is_braid_generic_circuit(dim: int, indices) -> bool:
    """dim edges of K_dim, no three of which close a triangle (rank 2)."""
    pairs = braid_pairs(dim)
    if len(set(indices)) != dim:
        return False
    return all(len(set(pairs[a]) | set(pairs[b]) | set(pairs[c])) > 3
               for a, b, c in combinations(indices, 3))
