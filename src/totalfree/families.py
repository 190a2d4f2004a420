"""Named arrangement families for corpora and the generate command."""

from __future__ import annotations

import random

from .arrangement import Arrangement, Hyperplane, normalize_hyperplane, span_key

MAX_COEFFICIENTS = 10**7  # dim x hyperplanes of one generated arrangement
MAX_REJECTIONS = 20_000   # consecutive rejected draws before generic_arrangement gives up


def check_size(family: str, dim: int, n: int) -> None:
    """Refuse, before anything is built, more than MAX_COEFFICIENTS coefficients."""
    if dim * n > MAX_COEFFICIENTS:
        raise ValueError(f"{family}: {n} hyperplanes in dimension {dim} are {dim * n} "
                         f"coefficients, above the bound of {MAX_COEFFICIENTS}")


def boolean_arrangement(dim: int) -> Arrangement:
    """The coordinate hyperplanes x_1, ..., x_dim."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    check_size(f"boolean {dim}", dim, dim)
    rows = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    return Arrangement(dim, tuple(Hyperplane(r) for r in rows))


def braid_arrangement(dim: int) -> Arrangement:
    """All x_i - x_j for 1 <= i < j <= dim, in ambient dimension dim (rank max(dim-1, 0))."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    check_size(f"braid {dim}", dim, dim * (dim - 1) // 2)
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
    A candidate h is rejected when it lies in the plane of two chosen
    normals a, b; as the chosen normals are generic, that happens iff the
    plane of (a, h) is the plane of some chosen pair, so one span_key per
    chosen normal decides.  The keys of the pairs are kept, up to
    dim(dim+1)/2 integers each, and count against MAX_COEFFICIENTS too.
    After MAX_REJECTIONS rejections in a row the draw fails with ValueError.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if dim == 1 and n > 1:
        raise ValueError("dimension 1 admits only one hyperplane")
    check_size(f"generic {n} {dim}", dim, n)
    held = n * (n - 1) // 2 * dim * (dim + 1) // 2 if dim >= 3 else 0
    if held > MAX_COEFFICIENTS:
        raise ValueError(f"generic {n} {dim}: the plane keys of {n} normals hold up to "
                         f"{held} integers, above the bound of {MAX_COEFFICIENTS}")
    rng = random.Random(seed)
    chosen: list[Hyperplane] = []
    normals: set[tuple[int, ...]] = set()
    planes: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()  # spans of chosen pairs
    rejections = 0
    while len(chosen) < n:
        if rejections == MAX_REJECTIONS:
            raise ValueError(f"could not draw {n} generic normals in dimension {dim}: "
                             f"{MAX_REJECTIONS} draws in a row were rejected after "
                             f"{len(chosen)} were chosen")
        rejections += 1
        coeffs = [rng.randint(-9, 9) for _ in range(dim)]
        if all(c == 0 for c in coeffs):
            continue
        h = normalize_hyperplane(coeffs)
        if h.normal in normals:
            continue
        keys = [span_key(a.normal, h.normal) for a in chosen] if dim >= 3 else []
        if not planes.isdisjoint(keys):
            continue
        planes.update(keys)
        chosen.append(h)
        normals.add(h.normal)
        rejections = 0
    return Arrangement(dim, tuple(chosen))
