"""Quantitative non-freeness certificates and the total-freeness verdict.

The decision itself is structural: an arrangement is totally free iff every
irreducible factor of its product decomposition has rank at most 2.  For a
rank >= 3 factor this module also produces a machine-checkable witness:

* a generic circuit B of rank+1 hyperplanes in which every three intersect
  in codimension 3, built either by the deletion/restriction induction from
  the connectivity argument or by brute-force lexicographic scan;
* the threshold k0 such that putting multiplicity k >= k0 on B and 1
  elsewhere forces the second local mixed product LMP2 above the maximum
  possible second global mixed product GMP2 of a free multiarrangement
  with the same total multiplicity, which refutes freeness.

A certificate compares exact integers: LMP2 as a sum of local exponent
products over rank-2 flats, against the sharp balanced-partition maximum of
GMP2 (never the looser real-valued bound, which is reported only for
traceability).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt

from .arrangement import (
    Arrangement,
    Flat2,
    Multiplicity,
    check_multiplicity,
    deletion,
    localization,
    rank2_flats,
    restriction,
    span_key,
    subarrangement,
)
from .errors import DimensionMismatchError, InternalInvariantError, ReducibleInputError
from .matroid import Decomposition, Factor, connected_components, decompose
from .rank2 import ExponentPair, rank2_exponents

# -- mixed products ----------------------------------------------------------


def lmp2_breakdown(arr: Arrangement, m: Multiplicity
                   ) -> list[tuple[Flat2, ExponentPair]]:
    """Per-flat localized exponent pairs; lmp2 is the sum of their products."""
    check_multiplicity(arr, m)
    out = []
    for flat in rank2_flats(arr):
        local_m = tuple(m[k] for k in flat.members)
        out.append((flat, rank2_exponents(localization(arr, flat), local_m)))
    return out


def lmp2(arr: Arrangement, m: Multiplicity) -> int:
    """Second local mixed product: sum of d1*d2 over all rank-2 flats."""
    return sum(pair.product for _, pair in lmp2_breakdown(arr, m))


def gmp2_from_exponents(exponents: tuple[int, ...]) -> int:
    """Second global mixed product: elementary symmetric e2 of the exponents."""
    s = sum(exponents)
    return (s * s - sum(d * d for d in exponents)) // 2


def gmp2_max(rank: int, total: int) -> int:
    """Exact maximum of e2 over nonnegative integer rank-tuples summing to total.

    For every integer d, (d - q)(d - q - 1) >= 0.  Summed over d_1..d_r with
    sum s and q = s // r: sum d_i^2 >= (2q + 1) s - r q (q + 1), with
    equality at the balanced partition (every d_i is q or q + 1).  So the
    maximum of e2 = (s^2 - sum d_i^2) / 2 is the value returned, in O(1);
    its numerator is even, as s (s - 2q - 1) and q (q + 1) are.
    """
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if total < 0:
        raise ValueError("total must be nonnegative")
    q = total // rank
    return (total * total - (2 * q + 1) * total + rank * q * (q + 1)) // 2


def gmp2_real_bound(rank: int, total: int) -> Fraction:
    """The real-valued bound C(rank,2) * (total/rank)^2; >= gmp2_max."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    return comb(rank, 2) * Fraction(total, rank) ** 2


def gmp2_max_exhaustive(rank: int, total: int, limit: int = 500_000) -> int | None:
    """Brute-force maximum of e2 over all partitions; None when past ``limit``.

    Independent cross-check of gmp2_max: enumerates non-increasing
    nonnegative tuples instead of trusting the balanced-partition argument.
    """
    best = 0
    count = 0

    def rec(remaining: int, parts_left: int, max_part: int, acc_sq: int) -> bool:
        nonlocal best, count
        if parts_left == 1:
            if remaining > max_part:
                return True
            count += 1
            if count > limit:
                return False
            sq = acc_sq + remaining * remaining
            e2 = (total * total - sq) // 2
            best = max(best, e2)
            return True
        low = -(-remaining // parts_left)  # ceiling: keep parts non-increasing
        for part in range(min(max_part, remaining), low - 1, -1):
            if not rec(remaining - part, parts_left - 1, part, acc_sq + part * part):
                return False
        return True

    if not rec(total, rank, total, 0):
        return None
    return best


# -- generic circuits --------------------------------------------------------


@dataclass(frozen=True)
class GenericCircuit:
    """rank+1 hyperplane indices, every three of rank 3."""

    indices: tuple[int, ...]


def is_generic_circuit(arr: Arrangement, indices: tuple[int, ...]) -> bool:
    """Check the defining property: every triple of normals has rank 3."""
    if len(set(indices)) != len(indices):
        return False
    if len(indices) != arr.rank() + 1:
        return False
    return _all_triples_rank3(arr, indices)


def _all_triples_rank3(arr: Arrangement, indices) -> bool:
    """Every three of these distinct hyperplanes have rank 3 (see span_key)."""
    normals = [arr.hyperplanes[i].normal for i in indices]
    return all(span_key(a, b) != span_key(a, c)
               for a, b, c in combinations(normals, 3))


def _require_connected_rank3(arr: Arrangement) -> int:
    """Shared precondition of the witness operations; returns the rank.

    Essentiality is not required: trivial directions change neither ranks
    nor circuits, and the matroid is all that matters here.
    """
    if arr.n == 0:
        raise ReducibleInputError("empty arrangement")
    rank = arr.rank()
    if rank < 3:
        raise ReducibleInputError(f"rank {rank} < 3: no irreducible factor of rank >= 3")
    if len(connected_components(arr)) != 1:
        raise ReducibleInputError("arrangement is reducible")
    return rank


def _brute_circuit(arr: Arrangement, rank: int) -> list[int]:
    """Lexicographically first (rank+1)-subset whose triples all have rank 3."""
    n = arr.n
    size = rank + 1
    chosen: list[int] = []

    def extend(start: int) -> list[int] | None:
        if len(chosen) == size:
            return list(chosen)
        for i in range(start, n - (size - len(chosen)) + 1):
            if all(_all_triples_rank3(arr, (a, b, i))
                   for a, b in combinations(chosen, 2)):
                chosen.append(i)
                found = extend(i + 1)
                if found is not None:
                    return found
                chosen.pop()
        return None

    found = extend(0)
    if found is None:
        raise InternalInvariantError(
            "no generic circuit found; contradicts the connectivity lemma")
    return found


def _proof_circuit(arr: Arrangement, rank: int) -> list[int]:
    """Deletion/restriction induction; returns indices into ``arr``.

    Mirrors the inductive argument: delete the first hyperplane if that
    keeps the matroid connected, otherwise recurse into the restriction
    (connected by the deletion/contraction alternative of matroid
    connectivity) and lift back through smallest preimages.  A connected
    matroid has no coloop, so deletion keeps ``rank`` and restriction
    lowers it by one.  Rank 3 is the base of the induction, split into the
    all-images-distinct case and the collision case.
    """
    n = arr.n
    if n == rank + 1:
        if not _all_triples_rank3(arr, range(n)):
            raise InternalInvariantError(
                "connected arrangement of size rank+1 with a dependent triple")
        return list(range(n))
    deleted = deletion(arr, 0)
    if len(connected_components(deleted)) == 1:
        return [i + 1 for i in _proof_circuit(deleted, rank)]
    restr = restriction(arr, 0)
    if len(connected_components(restr.arrangement)) != 1:
        raise InternalInvariantError(
            "both deletion and restriction disconnected; contradicts matroid "
            "connectivity")
    imap = restr.index_map
    if rank == 3:
        if restr.arrangement.n == n - 1:
            # All images distinct: any independent triple avoiding index 0
            # completes a valid quadruple.
            for i, j, k in combinations(range(1, n), 3):
                if _all_triples_rank3(arr, (i, j, k)):
                    return [0, i, j, k]
            raise InternalInvariantError("no independent triple in a rank-3 deletion")
        # Collision case: two hyperplanes sharing an image intersect inside
        # hyperplane 0; one of them completes the quadruple.
        collision = next(((a, b) for a in range(1, n) for b in range(a + 1, n)
                          if imap[a] == imap[b]), None)
        if collision is None:
            raise InternalInvariantError("restriction shrank without a collision")
        a, b = collision
        helpers: list[int] = []
        seen_images = {imap[a]}
        for i in range(1, n):
            if i in (a, b) or imap[i] in seen_images:
                continue
            seen_images.add(imap[i])
            helpers.append(i)
            if len(helpers) == 2:
                break
        if len(helpers) < 2:
            raise InternalInvariantError("connected restriction with fewer than 3 images")
        for candidate in ([0, helpers[0], helpers[1], a], [0, helpers[0], helpers[1], b]):
            if _all_triples_rank3(arr, candidate):
                return sorted(candidate)
        raise InternalInvariantError("collision case produced no valid quadruple")
    sub = _proof_circuit(restr.arrangement, rank - 1)
    lifted = [0]
    for r_idx in sub:
        lifted.append(next(i for i in range(1, n) if imap[i] == r_idx))
    return sorted(lifted)


def find_generic_circuit(arr: Arrangement, method: str = "proof") -> GenericCircuit:
    """Generic circuit of a connected arrangement of rank >= 3.

    ``method`` selects the proof-following induction (default) or the
    brute-force lexicographic scan; both outputs satisfy the triple
    invariant but need not coincide.
    """
    rank = _require_connected_rank3(arr)
    if method == "proof":
        indices = _proof_circuit(arr, rank)
    elif method == "brute":
        indices = _brute_circuit(arr, rank)
    else:
        raise ValueError(f"unknown method {method!r}")
    circuit = GenericCircuit(tuple(sorted(indices)))
    if not is_generic_circuit(arr, circuit.indices):
        raise InternalInvariantError(f"{method} circuit fails the triple condition")
    return circuit


@dataclass(frozen=True)
class CircuitCheck:
    """Why a generic circuit in rank l can never be free."""

    lmp2: int                  # C(l+1, 2): every pair of the circuit is a flat
    gmp2_real_bound: Fraction  # C(l, 2) * ((l+1)/l)^2
    gap: Fraction              # (l+1) / (2l) > 0


def circuit_is_nonfree_check(rank: int) -> CircuitCheck:
    """Closed-form LMP2/GMP2 comparison for a rank-``rank`` generic circuit."""
    if rank < 3:
        raise ValueError("generic circuits need rank >= 3")
    value = comb(rank + 1, 2)
    bound = comb(rank, 2) * Fraction(rank + 1, rank) ** 2
    gap = Fraction(rank + 1, 2 * rank)
    if value - bound != gap:
        raise InternalInvariantError("closed-form gap identity failed")
    return CircuitCheck(value, bound, gap)


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class CertificateExplanation:
    """Which theorem fired and on which hyperplanes."""

    theorem: str
    factor_indices: tuple[int, ...]
    circuit_indices: tuple[int, ...] | None
    k0: int | None
    subset_lower_bound: int | None   # C(rank+1, 2) * k0^2 over the circuit's flats
    gmp2_real_bound: Fraction


@dataclass(frozen=True)
class NonFreenessCertificate:
    """Checkable witness that a multiarrangement is not free.

    ``lmp2_lower``, ``gmp2_upper``, ``rank`` and ``total_multiplicity``
    refer to the multiarrangement on ``explanation.factor_indices`` with
    the restriction of ``multiplicity`` (the full input multiplicity);
    for an irreducible input that is the whole arrangement.  The
    inequality lmp2_lower > gmp2_upper is what refutes freeness.
    """

    lmp2_lower: int
    lmp2_is_exact: bool
    gmp2_upper: int
    rank: int
    total_multiplicity: int
    multiplicity: Multiplicity
    explanation: CertificateExplanation

    def __post_init__(self):
        if self.lmp2_lower <= self.gmp2_upper:
            raise InternalInvariantError(
                f"certificate inequality fails: {self.lmp2_lower} <= {self.gmp2_upper}")


def nonfree_by_lmp_gmp(arr: Arrangement, m: Multiplicity
                       ) -> NonFreenessCertificate | None:
    """Sound non-freeness test: exact LMP2 against the GMP2 maximum.

    Returns a certificate iff LMP2 exceeds gmp2_max(rank, total); a None
    result is inconclusive, never a freeness proof.
    """
    check_multiplicity(arr, m)
    rank = arr.rank()
    if rank < 2:
        return None
    value = lmp2(arr, m)
    total = sum(m)
    if value <= gmp2_max(rank, total):
        return None
    return _certificate(value, rank, total, tuple(m), tuple(range(arr.n)))


def _certificate(value: int, rank: int, total: int, multiplicity: Multiplicity,
                 factor_indices: tuple[int, ...],
                 circuit_indices: tuple[int, ...] | None = None,
                 k0: int | None = None) -> NonFreenessCertificate:
    """The LMP2>GMP2max certificate of exact LMP2 ``value`` on a factor of
    this rank and total multiplicity; with a k0 it records the subset bound.
    Every certificate the module returns is built here and rechecked."""
    cert = NonFreenessCertificate(
        lmp2_lower=value,
        lmp2_is_exact=True,
        gmp2_upper=gmp2_max(rank, total),
        rank=rank,
        total_multiplicity=total,
        multiplicity=multiplicity,
        explanation=CertificateExplanation(
            theorem="LMP2>GMP2max",
            factor_indices=factor_indices,
            circuit_indices=circuit_indices,
            k0=k0,
            subset_lower_bound=None if k0 is None else comb(rank + 1, 2) * k0 * k0,
            gmp2_real_bound=gmp2_real_bound(rank, total),
        ),
    )
    _emission_recheck(cert)
    return cert


def nonfree_multiplicity_family(arr: Arrangement
                                ) -> tuple[GenericCircuit, int, Multiplicity]:
    """Generic circuit B and the smallest k making (arr, m_k) certifiably non-free.

    m_k puts k on B and 1 elsewhere.  k0 is the least k with
    C(rank+1,2) * k^2 > gmp2_max(rank, (k-1)(rank+1) + n), exactly the
    subset bound of the infinite-family argument; the positive quadratic
    gap guarantees k0 exists and the inequality persists for every k >= k0
    beyond the larger root of the real-bound quadratic.
    """
    circuit = find_generic_circuit(arr)
    rank = len(circuit.indices) - 1
    n = arr.n
    pairs = comb(rank + 1, 2)
    # Termination cap from the real-bound quadratic c2*k^2 - c1*k - c0.
    slack = n - (rank + 1)
    c2 = Fraction(rank + 1, 2 * rank)
    c1 = Fraction((rank - 1) * (rank + 1) * slack, rank)
    c0 = Fraction((rank - 1) * slack * slack, 2 * rank)
    cap = int(c1 / c2) + isqrt(int(c0 / c2)) + 3
    k = 1
    while True:
        total = (k - 1) * (rank + 1) + n
        if pairs * k * k > gmp2_max(rank, total):
            break
        k += 1
        if k > cap:
            raise InternalInvariantError("k0 search exceeded its provable cap")
    members = set(circuit.indices)
    m = tuple(k if i in members else 1 for i in range(n))
    return circuit, k, m


# -- the verdict -------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """Everything needed to refute total freeness of the input."""

    factor: Factor
    circuit: GenericCircuit              # indices into factor.arrangement
    circuit_original: tuple[int, ...]    # the same hyperplanes as input indices
    k0: int
    certificate: NonFreenessCertificate


@dataclass(frozen=True)
class Verdict:
    """TotallyFree with the decomposition, or NotTotallyFree with a witness."""

    totally_free: bool
    decomposition: Decomposition
    witness: Witness | None

    def __post_init__(self):
        if self.totally_free != (self.decomposition.max_factor_rank() <= 2):
            raise InternalInvariantError("verdict tag contradicts the decomposition")
        if self.totally_free != (self.witness is None):
            raise InternalInvariantError("witness presence contradicts the verdict tag")


def decide_totally_free(arr: Arrangement) -> Verdict:
    """Decide total freeness via the product decomposition.

    Totally free iff every irreducible factor has rank at most 2; otherwise
    the first rank >= 3 factor yields a generic circuit, the threshold k0,
    and a non-freeness certificate for the multiplicity that is k0 on the
    circuit and 1 elsewhere.
    """
    decomp = decompose(arr)
    if decomp.max_factor_rank() <= 2:
        return Verdict(True, decomp, None)
    factor = next(f for f in decomp.factors if f.rank >= 3)
    circuit, k0, m_factor = nonfree_multiplicity_family(factor.arrangement)
    original = tuple(sorted(factor.indices[i] for i in circuit.indices))
    members = set(original)
    m_full = tuple(k0 if i in members else 1 for i in range(arr.n))
    certificate = _certificate(lmp2(factor.arrangement, m_factor), factor.rank,
                               sum(m_factor), m_full, factor.indices, original, k0)
    return Verdict(False, decomp, Witness(factor, circuit, original, k0, certificate))


def _emission_recheck(cert: NonFreenessCertificate) -> None:
    """From-scratch sanity pass before a certificate leaves the module.

    The GMP2 bound is compared with ``gmp2_max``, whose docstring proves
    it, in O(1) at every rank; the tests also compare it with
    ``gmp2_max_exhaustive`` at ranks 1..7.
    """
    if cert.lmp2_lower <= cert.gmp2_upper:
        raise InternalInvariantError("emission recheck: inequality fails")
    sb = cert.explanation.subset_lower_bound
    if sb is not None and sb > cert.lmp2_lower:
        raise InternalInvariantError("emission recheck: exact LMP2 below subset bound")
    if cert.gmp2_upper > cert.explanation.gmp2_real_bound:
        raise InternalInvariantError("emission recheck: integer max above real bound")
    if gmp2_max(cert.rank, cert.total_multiplicity) != cert.gmp2_upper:
        raise InternalInvariantError("emission recheck: balanced maximum is wrong")


def verify_certificate(arr: Arrangement, cert: NonFreenessCertificate) -> bool:
    """Recompute a certificate through checked bases; True iff it stands.

    LMP2 is rebuilt by ``lmp2``, whose rank-2 exponents come only from
    bases checked in integers, as binary forms, before they were cached
    (``rank2._min_degree``); no HomPoly or Fraction is built.  The GMP2
    maximum is checked against ``gmp2_max``, an O(1) closed form with its
    proof.  Indices must be distinct ints in range, multiplicities one
    positive int per hyperplane, and the rank, LMP2, GMP2 and total ints,
    the rank >= 1; anything else is False.

    The indices must be closed: every other hyperplane raises the rank.
    A closed set is a localization A_X, and localization keeps a
    multiarrangement free (Ziegler 1989), so LMP2 > GMP2max on it refutes
    freeness of the whole; on another subset it refutes nothing.
    """
    indices = cert.explanation.factor_indices
    numbers = (*indices, cert.rank, cert.lmp2_lower, cert.gmp2_upper, cert.total_multiplicity)
    if any(type(x) is not int for x in numbers):
        return False
    try:
        check_multiplicity(arr, cert.multiplicity)
    except (DimensionMismatchError, ValueError):
        return False
    if len(set(indices) & set(range(arr.n))) != len(indices):
        return False
    sub = subarrangement(arr, indices)
    m_sub = tuple(cert.multiplicity[i] for i in indices)
    if sum(m_sub) != cert.total_multiplicity or sub.rank() != cert.rank or cert.rank < 1:
        return False
    if any(subarrangement(arr, (*indices, i)).rank() == cert.rank
           for i in range(arr.n) if i not in indices):
        return False
    recomputed = lmp2(sub, m_sub)
    if cert.lmp2_is_exact and recomputed != cert.lmp2_lower:
        return False
    if recomputed < cert.lmp2_lower:
        return False
    upper = gmp2_max(cert.rank, cert.total_multiplicity)
    if upper != cert.gmp2_upper:
        return False
    return recomputed > upper
