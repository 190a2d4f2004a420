"""Named arrangement families for corpora and the generate command."""

from __future__ import annotations

import random

from .arrangement import Arrangement, Hyperplane, normalize_hyperplane, span_key


def boolean_arrangement(dim: int) -> Arrangement:
    """The coordinate hyperplanes x_1, ..., x_dim."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    rows = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    return Arrangement(dim, tuple(Hyperplane(r) for r in rows))


def braid_arrangement(dim: int) -> Arrangement:
    """All x_i - x_j for 1 <= i < j <= dim, in ambient dimension dim (rank max(dim-1, 0))."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    rows = []
    for i in range(dim):
        for j in range(i + 1, dim):
            r = [0] * dim
            r[i], r[j] = 1, -1
            rows.append(tuple(r))
    return Arrangement(dim, tuple(Hyperplane(r) for r in rows))


def generic_arrangement(n: int, dim: int, seed: int = 0) -> Arrangement:
    """Seeded random integer normals with every triple of rank min(3, dim).

    Candidates are drawn with entries in [-9, 9] and rejected until the
    genericity condition holds, so the output is deterministic per seed.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if dim == 1 and n > 1:
        raise ValueError("dimension 1 admits only one hyperplane")
    rng = random.Random(seed)
    chosen: list[Hyperplane] = []
    normals: set[tuple[int, ...]] = set()
    attempts = 0
    while len(chosen) < n:
        attempts += 1
        if attempts > 20000 * (n + 1):
            raise ValueError(f"could not draw {n} generic normals in dimension {dim}")
        coeffs = [rng.randint(-9, 9) for _ in range(dim)]
        if all(c == 0 for c in coeffs):
            continue
        h = normalize_hyperplane(coeffs)
        if h.normal in normals:
            continue
        if dim >= 3 and len(chosen) >= 2:
            ok = all(span_key(a.normal, b.normal) != span_key(a.normal, h.normal)
                     for i, a in enumerate(chosen) for b in chosen[i + 1:])
            if not ok:
                continue
        chosen.append(h)
        normals.add(h.normal)
    return Arrangement(dim, tuple(chosen))
