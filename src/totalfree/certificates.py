"""Quantitative non-freeness certificates and the total-freeness verdict.

The decision itself is structural: an arrangement is totally free iff every
irreducible factor of its product decomposition has rank at most 2.  For a
rank >= 3 factor this module also produces a machine-checkable witness:

* a generic circuit B of rank+1 hyperplanes in which every three intersect
  in codimension 3, built by the deletion/restriction induction from the
  connectivity argument (the ``witness`` command also runs a brute-force
  lexicographic scan, ``_brute_circuit``);
* the threshold k0 such that putting multiplicity k >= k0 on B and 1
  elsewhere forces the second local mixed product LMP2 above the maximum
  possible second global mixed product GMP2 of a free multiarrangement
  with the same total multiplicity, which refutes freeness.

A certificate compares exact integers: LMP2 as a sum of local exponent
products over rank-2 flats, against the sharp balanced-partition maximum of
GMP2 (never the looser real-valued bound, which is reported only for
traceability).  LMP2 is summed by the pair term (``_lmp2``): a flat of two
lines adds m_i * m_j without the sweep, on the emitting and the verifying
side alike; every flat of three or more lines, and every row of
``lmp2_breakdown``, has its exponents from a checked basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import comb, isqrt
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .arrangement import (
    Arrangement,
    Flat2,
    IntVector,
    Multiplicity,
    _circuits,
    _flats,
    _fundamental_circuits,
    _images,
    _memo,
    _rank2_flats,
    _restrict,
    check_multiplicity,
    rank2_flats,
)
from .errors import InternalInvariantError, ReducibleInputError
from .linalg import _eliminate
from .matroid import Decomposition, Factor, _blocks, decompose
from .rank2 import ExponentPair, line_degrees, line_exponents

# -- mixed products ----------------------------------------------------------


def lmp2_breakdown(arr: Arrangement, m: Multiplicity
                   ) -> list[tuple[Flat2, ExponentPair]]:
    """Per-flat exponent pairs from the checked sweep; lmp2 sums their products (oracle)."""
    check_multiplicity(arr, m)
    return [(flat, line_exponents(flat.lines, tuple([m[k] for k in flat.members])))
            for flat in rank2_flats(arr)]


def lmp2(arr: Arrangement, m: Multiplicity) -> int:
    """Second local mixed product: sum of d1*d2 over all rank-2 flats."""
    check_multiplicity(arr, m)
    return _lmp2(_flats(arr), m, range(arr.n))


def _lmp2(flats: Sequence[tuple], m: Multiplicity, block: Iterable[int]) -> int:
    """LMP2 on ``block`` under a checked ``m``, from its ``_rank2_flats``, by the pair
    term: two hyperplanes lie in exactly one rank-2 flat and two lines have exponents
    (m_i, m_j), so LMP2 = e2(m on the block) + (d1*d2 - e2(m on X)) over X of 3+ lines,
    where d1 + d2 = |m on X| makes a term (sum m_k^2 - d1^2 - d2^2) / 2: twice LMP2 is
    summed from the ints ``line_degrees`` reads, then halved."""
    ms = [m[i] for i in block]
    twice = sum(ms) ** 2 - sum(map(mul, ms, ms))
    for members, lines in flats:
        if len(members) > 2:
            ms = itemgetter(*members)(m)
            d1, d2 = line_degrees(lines, ms)
            twice += sum(map(mul, ms, ms)) - d1 * d1 - d2 * d2
    return twice // 2


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
    def squares(remaining: int, parts: int, largest: int):
        """The sum of squares of each non-increasing completion with parts <= largest."""
        if parts == 1:
            if remaining <= largest:
                yield remaining * remaining
            return
        for part in range(min(largest, remaining), -(-remaining // parts) - 1, -1):
            for sq in squares(remaining - part, parts - 1, part):
                yield part * part + sq

    found = squares(total, rank, total)
    least = min(islice(found, limit), default=total * total)
    return None if next(found, None) is not None else (total * total - least) // 2


# -- generic circuits --------------------------------------------------------


def is_generic_circuit(arr: Arrangement, indices: tuple[int, ...]) -> bool:
    """The defining property: rank+1 distinct ints in range, every triple of rank 3.
    The rank is the memoized one, from the decomposition's elimination if it ran;
    the triple check is independent of every elimination."""
    if (any(type(i) is not int or not 0 <= i < arr.n for i in indices)
            or len(set(indices)) != len(indices) or len(indices) != arr.rank() + 1):
        return False
    return _all_triples_rank3([arr.hyperplanes[i].normal for i in indices])


def _all_triples_rank3(normals: list[IntVector]) -> bool:
    """Every three of these pairwise independent normals have rank 3: a < b < c
    are dependent iff b and c have one image under a (``_images``)."""
    return all(len(set(_images(a, normals[i + 1:]))) == len(normals) - i - 1
               for i, a in enumerate(normals[:-2]))


def _checked(arr: Arrangement, indices: Sequence[int]) -> tuple[int, ...]:
    """Both circuit searches' postcondition: sorted ``indices`` pass ``is_generic_circuit``."""
    circuit = tuple(sorted(indices))
    if not is_generic_circuit(arr, circuit):
        raise InternalInvariantError(f"circuit {circuit} fails the triple condition")
    return circuit


def _brute_circuit(arr: Arrangement, rank: int) -> list[int]:
    """Lexicographically first (rank+1)-subset whose triples all have rank 3: the chosen are
    generic, so only triples a, b, i are new, dependent iff a and b have one image under i."""
    normals = arr.normals()

    def extend(chosen: list[int]) -> list[int] | None:
        if len(chosen) == rank + 1:
            return chosen
        for i in range(chosen[-1] + 1 if chosen else 0, arr.n + len(chosen) - rank):
            if len(set(_images(normals[i], [normals[k] for k in chosen]))) == len(chosen):
                found = extend(chosen + [i])
                if found is not None:
                    return found
        return None

    found = extend([])
    if found is None:
        raise InternalInvariantError(
            "no generic circuit found; contradicts the connectivity lemma")
    _checked(arr, found)
    return found


def _connected_level(circuits: Sequence[frozenset[int]], rank: int) -> None:
    """Check that a level's fundamental circuits are ``rank`` in one block."""
    if len(circuits) != rank or len(_blocks(circuits)) != 1:
        raise InternalInvariantError(f"induction level is not a connected rank-{rank} matroid")


def _proof_circuit(normals: list[IntVector], rank: int,
                   circuits: Sequence[frozenset[int]]) -> list[int]:
    """Deletion/restriction induction on normals and their circuits; returns their indices.

    Mirrors the inductive argument: delete the first hyperplane while that
    keeps the matroid connected, otherwise recurse into the restriction
    (connected by the deletion/contraction alternative of matroid
    connectivity) and lift back through smallest preimages.  A connected
    matroid has no coloop, so deletion keeps ``rank`` and restriction
    lowers it by one.  Rank 3 is the base of the induction, split into the
    all-images-distinct case and the collision case.

    Each level below the first runs one elimination.  No hyperplane deleted or
    restricted to is a coloop, so none is in the last-first basis, which then
    stays a basis of the rest with the same fundamental circuits: the rest is
    connected iff those circuits, less the deleted hyperplanes, form one block.
    """
    _connected_level(circuits, rank)
    n = len(normals)
    s = 0  # hyperplanes before s are deleted
    while n - s > rank + 1 and len(_blocks([{e for e in c if e > s} for c in circuits])) == 1:
        s += 1
    if min(max(c) for c in circuits) <= s:
        raise InternalInvariantError("circuit induction: a connected level has a coloop")
    if n - s == rank + 1:
        if not _all_triples_rank3(normals[s:]):
            raise InternalInvariantError(
                "connected arrangement of size rank+1 with a dependent triple")
        return list(range(s, n))
    images, imap = _restrict(normals[s:], 0)
    imap = [None] * s + imap
    if rank == 3:
        _connected_level(_fundamental_circuits(images), 2)
        if len(images) == n - s - 1:
            # All images distinct: any independent triple avoiding index s
            # completes a valid quadruple.
            for i, j, k in combinations(range(s + 1, n), 3):
                if _all_triples_rank3([normals[i], normals[j], normals[k]]):
                    return [s, i, j, k]
            raise InternalInvariantError("no independent triple in a rank-3 deletion")
        # Collision case: two hyperplanes sharing an image intersect inside
        # hyperplane s; one of them completes the quadruple.
        collision = next(((a, b) for a in range(s + 1, n) for b in range(a + 1, n)
                          if imap[a] == imap[b]), None)
        if collision is None:
            raise InternalInvariantError("restriction shrank without a collision")
        a, b = collision
        first = {imap[a]: a}  # the first hyperplane of each image, a's first
        for i in range(s + 1, n):
            first.setdefault(imap[i], i)
        helpers = list(first.values())[1:3]
        if len(helpers) < 2:
            raise InternalInvariantError("connected restriction with fewer than 3 images")
        for candidate in ([s, helpers[0], helpers[1], a], [s, helpers[0], helpers[1], b]):
            if _all_triples_rank3([normals[i] for i in candidate]):
                return sorted(candidate)
        raise InternalInvariantError("collision case produced no valid quadruple")
    sub = _proof_circuit(images, rank - 1, _fundamental_circuits(images))
    return sorted([s] + [next(i for i in range(s + 1, n) if imap[i] == r) for r in sub])


def find_generic_circuit(arr: Arrangement) -> tuple[int, ...]:
    """Generic circuit of a connected arrangement of rank >= 3, by the
    proof-following induction: rank+1 sorted hyperplane indices, every three
    of rank 3.  Essentiality is not required.  Rank and connectivity are read
    from the memoized fundamental circuits, the induction's first level.
    """
    if arr.n == 0:
        raise ReducibleInputError("empty arrangement")
    circuits = _circuits(arr)
    if len(circuits) < 3:
        raise ReducibleInputError(
            f"rank {len(circuits)} < 3: no irreducible factor of rank >= 3")
    if len(_blocks(circuits)) != 1:
        raise ReducibleInputError("arrangement is reducible")
    return _checked(arr, _proof_circuit(arr.normals(), len(circuits), circuits))


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
    value, rank, total = lmp2(arr, m), arr.rank(), sum(m)  # lmp2 checks m
    if rank < 2 or value <= gmp2_max(rank, total):
        return None
    return _certificate(value, rank, total, tuple(m), tuple(range(len(m))))


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
                                ) -> tuple[tuple[int, ...], int, Multiplicity]:
    """Generic circuit B and the smallest k making (arr, m_k) certifiably non-free.

    m_k puts k on B and 1 elsewhere.  k0 is the least k with
    C(rank+1,2) * k^2 > gmp2_max(rank, (k-1)(rank+1) + n), exactly the
    subset bound of the infinite-family argument; the positive quadratic
    gap guarantees k0 exists and the inequality persists for every k >= k0
    beyond the larger root of the real-bound quadratic.
    """
    circuit = find_generic_circuit(arr)
    k = _k0(len(circuit) - 1, arr.n)
    return circuit, k, tuple(k if i in circuit else 1 for i in range(arr.n))


def _k0(rank: int, n: int) -> int:
    """The least k with C(r+1,2) k^2 > gmp2_max(r, s), s = (r+1)k + t, t = n - r - 1.

    A balanced partition has sum d_i^2 <= s^2/r + r/4, so gmp2_max(r, s) >=
    C(r,2)(s/r)^2 - r/8, and k fails if 8r (C(r+1,2)k^2 - C(r,2)(s/r)^2 + r/8) =
    4(r+1)k^2 - 8(r^2-1)tk - 4(r-1)t^2 + r^2 <= 0.  That is convex and negative at
    k = 1 for t >= 1, so every k up to its larger root (r-1)t + r sqrt(E) / (2(r+1)),
    E = (r+1)(4(r-1)t^2 - 1), fails: the scan starts past it, in integers (t = 0: at 1).
    """
    pairs, t = comb(rank + 1, 2), n - (rank + 1)
    k = 1 if t == 0 else (rank - 1) * t + 1 + isqrt(
        rank * rank * (rank + 1) * (4 * (rank - 1) * t * t - 1)) // (2 * (rank + 1))
    while pairs * k * k <= gmp2_max(rank, (k - 1) * (rank + 1) + n):
        k += 1
        if k > _k0_cap(rank, t):
            raise InternalInvariantError("k0 search exceeded its provable cap")
    return k


def _k0_cap(rank: int, slack: int) -> int:
    """floor(c1/c2) + isqrt(floor(c0/c2)) + 3 in integers, the k0 search's cap from the real
    bound c2 k^2 - c1 k - c0: c2 = (r+1)/(2r), c1 = (r-1)(r+1)s/r, c0 = (r-1)s^2/(2r)."""
    return 2 * (rank - 1) * slack + isqrt((rank - 1) * slack * slack // (rank + 1)) + 3


def _factor_family(arr: Arrangement
                   ) -> tuple[Factor, tuple[int, ...], int, tuple[int, ...], Multiplicity]:
    """The first factor of rank >= 3 of ``arr``'s decomposition, its generic circuit
    (from the fundamental circuits ``decompose`` stored on it), k0, the circuit's
    input indices, and the multiplicity on ``arr`` that is k0 there and 1 elsewhere."""
    factor = next(f for f in decompose(arr).factors if f.rank >= 3)
    circuit = find_generic_circuit(factor.arrangement)
    k0 = _k0(factor.rank, factor.arrangement.n)
    original = tuple(sorted(factor.indices[i] for i in circuit))
    return factor, circuit, k0, original, tuple(k0 if i in original else 1 for i in range(arr.n))


# -- the verdict -------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """Everything needed to refute total freeness of the input."""

    factor: Factor
    circuit: tuple[int, ...]             # indices into factor.arrangement
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

    The factor's LMP2 comes from the memoized flats of ``arr`` inside its block,
    the factor's flats: essentialization is linear and injective on the span, so
    their lines keep their exponents.  A flat meeting two blocks, of ranks adding
    up to 2, is a pair.  The induction starts from the circuits of the
    decomposition's elimination and rechecks rank and connectivity.
    """
    decomp = decompose(arr)
    if decomp.max_factor_rank() <= 2:
        return Verdict(True, decomp, None)
    factor, circuit, k0, original, m_full = _factor_family(arr)
    block = set(factor.indices)
    large = [f for f in _flats(arr) if len(f[0]) > 2]
    shared = [len(block.intersection(f[0])) for f in large]
    if any(0 < k < len(f[0]) for f, k in zip(large, shared)):
        raise InternalInvariantError("a rank-2 flat across two factors is not a pair")
    value = _lmp2([f for f, k in zip(large, shared) if k], m_full, factor.indices)
    total = sum([m_full[i] for i in factor.indices])
    certificate = _certificate(value, factor.rank, total, m_full, factor.indices, original, k0)
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

    The checks, in order, each False on failure: (1) the indices, rank, LMP2, GMP2
    and total are of type int (no bool); (2) the multiplicity is one int >= 1 per
    hyperplane; (3) the indices are in range; (4) they are distinct, their
    multiplicities sum to the total, and the rank is >= 1; (5) their normals have
    that rank and are closed: every other hyperplane raises it; (6) LMP2, rebuilt
    by the pair term (``_lmp2``) from their rank-2 flats, is the claim (at least
    it, for a lower bound); (7) GMP2 is ``gmp2_max``, an O(1) closed form with its
    proof, and LMP2 exceeds it.  A closed set is a localization A_X, which keeps a
    multiarrangement free (Ziegler 1989), so LMP2 > GMP2max on it refutes freeness
    of the whole; on another subset it refutes nothing.  Flats of 3+ lines read
    their exponents as ints from bases checked before they were cached
    (``rank2.line_degrees``); no Arrangement, HomPoly, Fraction or ExponentPair is
    built.  Rank, closure and flats are memoized by index tuple (``_closure_facts``).
    """
    indices = tuple(cert.explanation.factor_indices)
    m, rank, total, n = cert.multiplicity, cert.rank, cert.total_multiplicity, arr.n
    for x in (*indices, rank, cert.lmp2_lower, cert.gmp2_upper, total):
        if type(x) is not int:
            return False
    if len(m) != n:
        return False
    for x in m:
        if type(x) is not int or x < 1:
            return False
    m_sub = []
    for i in indices:
        if not 0 <= i < n:
            return False
        m_sub.append(m[i])
    if len(set(indices)) != len(indices) or sum(m_sub) != total or rank < 1:
        return False
    found, closed, flats = _memo(arr, ("verify", indices), lambda: _closure_facts(arr, indices))
    if found != rank or not closed:
        return False
    recomputed = _lmp2(flats, m_sub, range(len(indices)))
    if recomputed < cert.lmp2_lower or cert.lmp2_is_exact and recomputed != cert.lmp2_lower:
        return False
    upper = gmp2_max(rank, total)
    return upper == cert.gmp2_upper and recomputed > upper


def _closure_facts(arr: Arrangement, indices: tuple[int, ...]) -> tuple[int, bool, tuple]:
    """The indexed normals' rank, whether every other hyperplane raises it, and if
    so their rank-2 flats of three or more lines."""
    normals = [arr.hyperplanes[i].normal for i in indices]
    rank = len(_eliminate(zip(*normals), len(normals), reduce=False)[1])
    members = set(indices)
    closed = not any(len(_eliminate(zip(*normals, h.normal), len(normals) + 1, reduce=False)[1])
                     == rank for i, h in enumerate(arr.hyperplanes) if i not in members)
    flats = tuple([f for f in _rank2_flats(normals) if len(f[0]) > 2]) if closed else ()
    return rank, closed, flats
