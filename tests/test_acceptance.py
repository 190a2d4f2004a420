"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is exact (integers and rationals); there are no
tolerances anywhere.  Each criterion also checks its runtime budget.
"""

import random
import time
from fractions import Fraction

from totalfree import (
    arrangement,
    boolean_arrangement,
    braid_arrangement,
    circuit_is_nonfree_check,
    decide_totally_free,
    exponents_totally_free,
    find_generic_circuit,
    generic_arrangement,
    gmp2_max,
    is_generic_circuit,
    lmp2,
    nonfree_by_lmp_gmp,
    product,
    rank2_basis,
    rank2_exponents,
    saito_verify,
    verify_certificate,
)
from totalfree.certificates import _brute_circuit, nonfree_multiplicity_family
from oracles import (
    bipartition_decompose, deletion, e2, kernel_basis_restriction, random_invertible,
    rank_rows)

THREE_LINES = arrangement(2, [(1, 0), (0, 1), (1, -1)])


def _report(number, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {label} ({elapsed:.2f}s / budget {budget}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.2f}s"


def _corpus():
    members = []
    for dim in range(1, 6):
        members.append((f"boolean-{dim}", boolean_arrangement(dim)))
    for dim in (4, 5, 6):  # braid arrangements of rank 3, 4, 5
        members.append((f"braid-S{dim}", braid_arrangement(dim)))
    members.append(("3lines x line", product(THREE_LINES, arrangement(1, [(1,)]))))
    members.append(("3lines x 3lines", product(THREE_LINES, THREE_LINES)))
    members.append(("4lines x boolean-2",
                    product(generic_arrangement(4, 2, seed=21), boolean_arrangement(2))))
    members.append(("generic 4 in dim 3", generic_arrangement(4, 3, seed=22)))
    members.append(("generic 5 in dim 3", generic_arrangement(5, 3, seed=23)))
    members.append(("generic 6 in dim 3", generic_arrangement(6, 3, seed=24)))
    members.append(("generic 5 in dim 4", generic_arrangement(5, 4, seed=25)))
    return members


def _totally_free_corpus():
    return [(name, arr) for name, arr in _corpus()
            if decide_totally_free(arr).totally_free]


def test_criterion_1_decision_matches_oracle():
    start = time.monotonic()
    ok = True
    for name, arr in _corpus():
        verdict = decide_totally_free(arr)
        blocks = bipartition_decompose(arr)
        normals = arr.normals()
        oracle_ranks = sorted(rank_rows([normals[i] for i in b]) for b in blocks)
        oracle_tag = all(r <= 2 for r in oracle_ranks)
        if arr.n == 0:
            oracle_tag = True
        got_ranks = sorted(tuple(f.rank for f in verdict.decomposition.factors))
        if verdict.totally_free != oracle_tag or got_ranks != oracle_ranks:
            print(f"  mismatch on {name}: verdict {verdict.totally_free} "
                  f"ranks {got_ranks}, oracle {oracle_tag} ranks {oracle_ranks}")
            ok = False
    _report(1, "totally-free decision equals bipartition oracle on the corpus",
            ok, time.monotonic() - start, 5)


def test_criterion_2_lmp2_equals_gmp2_when_free():
    start = time.monotonic()
    rng = random.Random(1002)
    free = _totally_free_corpus()
    assert len(free) >= 5
    samples = 0
    ok = True
    for name, arr in free:
        if arr.n == 0:
            continue
        for _ in range(7):
            m = tuple(rng.randint(1, 5) for _ in range(arr.n))
            left = lmp2(arr, m)
            right = e2(exponents_totally_free(arr, m))
            if left != right:
                print(f"  mismatch on {name} m={m}: LMP2 {left} != GMP2 {right}")
                ok = False
            samples += 1
    ok = ok and samples >= 50
    _report(2, f"LMP2 == GMP2 on {samples} multiplicities over {len(free)} "
               "totally free arrangements", ok, time.monotonic() - start, 30)


def _compositions(total, parts):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_criterion_3_rank2_saito_sweep():
    start = time.monotonic()
    corpus = [
        arrangement(2, [(1, 0)]),
        arrangement(2, [(1, 0), (0, 1)]),
        THREE_LINES,
        generic_arrangement(4, 2, seed=31),
        generic_arrangement(5, 2, seed=32),
    ]
    ok = True
    checked = 0
    for arr in corpus:
        for total in range(arr.n, 11):
            for m in _compositions(total, arr.n):
                pair = rank2_exponents(arr, m)
                if pair.d1 + pair.d2 != total:
                    ok = False
                if arr.n >= 2:
                    t1, t2 = rank2_basis(arr, m).thetas
                    if not saito_verify(arr, m, (t1, t2)):
                        ok = False
                    if (t1.degree, t2.degree) != pair.as_tuple():
                        ok = False
                checked += 1
    spot1 = rank2_exponents(THREE_LINES, (1, 1, 1)).as_tuple() == (1, 2)
    spot2 = rank2_exponents(THREE_LINES, (2, 2, 2)).as_tuple() == (3, 3)
    ok = ok and spot1 and spot2
    _report(3, f"rank-2 bases pass the Saito check on {checked} multiarrangements "
               "(spot values (1,2) and (3,3))", ok, time.monotonic() - start, 60)


def test_criterion_4_circuit_witnesses():
    start = time.monotonic()
    ok = True
    for rank in (3, 4, 5):
        arr = braid_arrangement(rank + 1)
        for circuit in (find_generic_circuit(arr), tuple(_brute_circuit(arr, rank))):
            if len(circuit) != rank + 1:
                ok = False
            if not is_generic_circuit(arr, circuit):
                ok = False
        check = circuit_is_nonfree_check(rank)
        if check.gap != Fraction(rank + 1, 2 * rank):
            ok = False
        if check.lmp2 - check.gmp2_real_bound != check.gap:
            ok = False
    _report(4, "both circuit algorithms valid on braid ranks 3..5, "
               "gap equals (l+1)/2l exactly", ok, time.monotonic() - start, 5)


def test_criterion_5_k0_thresholds():
    start = time.monotonic()
    ok = True
    expected = {4: 9, 5: 31}
    for dim, k0_expected in expected.items():
        arr = braid_arrangement(dim)
        circuit, k0, m = nonfree_multiplicity_family(arr)
        if k0 != k0_expected:
            print(f"  braid-S{dim}: k0 {k0} != {k0_expected}")
            ok = False
        rank = arr.rank()
        pairs = (rank + 1) * rank // 2
        # threshold definition: fails at k0-1, holds at k0
        below = (k0 - 2) * (rank + 1) + arr.n
        at = (k0 - 1) * (rank + 1) + arr.n
        if not (pairs * (k0 - 1) ** 2 <= gmp2_max(rank, below)
                and pairs * k0 ** 2 > gmp2_max(rank, at)):
            ok = False
        # emitted certificates at k0, k0+1, k0+5 are independently recomputable
        members = set(circuit)
        for k in (k0, k0 + 1, k0 + 5):
            mk = tuple(k if i in members else 1 for i in range(arr.n))
            cert = nonfree_by_lmp_gmp(arr, mk)
            if cert is None or cert.lmp2_lower <= cert.gmp2_upper:
                ok = False
                continue
            if not verify_certificate(arr, cert):
                print(f"  braid-S{dim}: certificate at k={k} failed recomputation")
                ok = False
    _report(5, "k0 = 9 (braid-S4) and 31 (braid-S5); certificates verified "
               "at k0, k0+1, k0+5", ok, time.monotonic() - start, 30)


def test_criterion_6_closure_under_deletion_restriction():
    start = time.monotonic()
    ok = True
    for name, arr in _totally_free_corpus():
        for h in range(arr.n):
            if not decide_totally_free(deletion(arr, h)).totally_free:
                print(f"  deletion {h} of {name} not totally free")
                ok = False
            if not decide_totally_free(kernel_basis_restriction(arr, h)[0]).totally_free:
                print(f"  restriction {h} of {name} not totally free")
                ok = False
    braid = braid_arrangement(4)
    ok = ok and not decide_totally_free(braid).totally_free
    ok = ok and any(decide_totally_free(kernel_basis_restriction(braid, h)[0]).totally_free
                    for h in range(braid.n))
    _report(6, "total freeness closed under deletion and restriction; braid-S4 "
               "has a totally free restriction", ok, time.monotonic() - start, 10)


def test_criterion_7_lattice_invariance():
    start = time.monotonic()
    rng = random.Random(1007)
    ok = True
    for name, arr in _corpus():
        if arr.n == 0:
            continue
        base = decide_totally_free(arr).totally_free
        for _ in range(10):
            change = random_invertible(rng, arr.dim)
            rows = [[sum(h.normal[k] * change.entries[k][j] for k in range(arr.dim))
                     for j in range(arr.dim)] for h in arr.hyperplanes]
            moved = arrangement(arr.dim, rows)
            if decide_totally_free(moved).totally_free != base:
                print(f"  verdict changed for {name} under a coordinate change")
                ok = False
    _report(7, "verdict tag invariant under 10 random coordinate changes per "
               "corpus member", ok, time.monotonic() - start, 10)
