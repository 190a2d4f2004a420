import copy
import dataclasses
import json
import os
import pickle
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings, strategies as st

import totalfree.certificates
import totalfree.rank2
from totalfree import (
    Arrangement,
    ExponentPair,
    InternalInvariantError,
    ReducibleInputError,
    arrangement,
    boolean_arrangement,
    braid_arrangement,
    circuit_is_nonfree_check,
    decide_totally_free,
    find_generic_circuit,
    generic_arrangement,
    gmp2_max,
    gmp2_max_exhaustive,
    gmp2_real_bound,
    is_generic_circuit,
    lmp2,
    lmp2_breakdown,
    exponents_totally_free,
    nonfree_by_lmp_gmp,
    normalize_hyperplane,
    product,
    rank2_basis,
    rank2_exponents,
    rank2_flats,
    verify_certificate,
)
from totalfree.arrangement import (
    _essential, _fundamental_circuits, _restrict, format_arrangement)
from totalfree.cli import main
from totalfree.matroid import connected_components, decompose
from totalfree.certificates import (
    CertificateExplanation, NonFreenessCertificate, _brute_circuit, _certificate, _k0,
    _k0_cap, nonfree_multiplicity_family)
from oracles import (
    deletion, deletion_restriction_circuit, e2, exhaustive_e2_max, fraction_components,
    fraction_rank, kernel_basis_restriction, linear_k0, random_invertible, random_unimodular,
    reference_verify)

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench"))
from reference import braid_lmp2  # noqa: E402  the benchmark's closed forms
from workloads import tamper  # noqa: E402  and tamperings

THREE_LINES = arrangement(2, [(1, 0), (0, 1), (1, -1)])


def _transformed(arr, change):
    rows = [[sum(h.normal[k] * change.entries[k][j] for k in range(arr.dim))
             for j in range(arr.dim)] for h in arr.hyperplanes]
    return arrangement(arr.dim, rows)


# -- mixed products ----------------------------------------------------------


def test_lmp2_braid_s4_simple():
    assert lmp2(braid_arrangement(4), (1,) * 6) == 11


def test_lmp2_boolean():
    assert lmp2(boolean_arrangement(3), (1, 2, 3)) == 11


def test_lmp2_three_lines_double():
    assert lmp2(THREE_LINES, (2, 2, 2)) == 9


def test_lmp2_breakdown_consistency():
    breakdown = lmp2_breakdown(braid_arrangement(4), (1,) * 6)
    assert len(breakdown) == 7
    products = sorted(pair.product for _, pair in breakdown)
    assert products == [1, 1, 1, 2, 2, 2, 2]


def test_lmp2_builds_no_arrangement_and_checks_m_once(monkeypatch):
    # Each flat's lines come from the pass over the pairs, not from a
    # localized Arrangement, and the multiplicity is checked once in all.
    arr = braid_arrangement(6)
    cert = decide_totally_free(arr).witness.certificate
    built, checked = [], []
    post_init = Arrangement.__post_init__
    monkeypatch.setattr(Arrangement, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    for module in (totalfree.certificates, totalfree.rank2):
        check = module.check_multiplicity
        monkeypatch.setattr(module, "check_multiplicity",
                            lambda a, mult, check=check: checked.append(1) or check(a, mult))
    assert lmp2(arr, cert.multiplicity) == cert.lmp2_lower == 83245
    assert (len(built), len(checked)) == (0, 1)


def test_lmp2_cache_keys_do_not_depend_on_coordinates():
    # A unit upper-triangular integer change of coordinates keeps every braid
    # normal primitive with first nonzero entry 1, and a flat's lines are its
    # normals in the basis of its first two: the same lines in every copy,
    # so a second copy finds every flat's exponents in the cache.
    braid = braid_arrangement(6)
    m = decide_totally_free(braid).witness.certificate.multiplicity
    rng = random.Random(6)
    copies = []
    for _ in range(2):
        change = [[int(i == j) if j <= i else rng.randint(-2, 2) for j in range(6)]
                  for i in range(6)]
        copies.append(arrangement(6, [[sum(n[i] * change[i][j] for i in range(6))
                                       for j in range(6)] for n in braid.normals()]))
    totalfree.rank2._min_degree.cache_clear()
    first = lmp2_breakdown(copies[0], m)
    before = totalfree.rank2._min_degree.cache_info()
    second = lmp2_breakdown(copies[1], m)
    after = totalfree.rank2._min_degree.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (len(second), 0)
    assert copies[0] != copies[1] and first == second


def test_gmp2_from_exponents():
    # GMP2 of free exponents is their e2; the balanced tuple attains gmp2_max.
    assert e2((1, 2, 3)) == 11 == lmp2(boolean_arrangement(3), (1, 2, 3))
    assert e2((7, 0, 0, 0)) == 0
    assert e2((3, 3)) == 9 == gmp2_max(2, 6)


def test_gmp2_max_examples():
    assert gmp2_max(3, 3) == 3
    assert gmp2_max(2, 5) == 6
    assert gmp2_max(3, 38) == 481
    assert gmp2_max(3, 6) == 12
    assert gmp2_max(1, 9) == 0


def test_gmp2_max_matches_exhaustive():
    for rank in range(1, 8):
        for total in range(0, 31):
            assert gmp2_max(rank, total) == exhaustive_e2_max(rank, total)
    assert gmp2_max_exhaustive(3, 38) == 481


def test_gmp2_real_bound_dominates():
    for rank in range(1, 6):
        for total in range(0, 25):
            assert gmp2_max(rank, total) <= gmp2_real_bound(rank, total)


# -- nonfree_by_lmp_gmp ------------------------------------------------------


def test_braid_s4_simple_inconclusive():
    assert nonfree_by_lmp_gmp(braid_arrangement(4), (1,) * 6) is None


def test_rank2_always_inconclusive():
    rng = random.Random(51)
    for arr in (THREE_LINES, generic_arrangement(5, 2, seed=5)):
        for _ in range(6):
            m = tuple(rng.randint(1, 5) for _ in range(arr.n))
            assert nonfree_by_lmp_gmp(arr, m) is None


def test_braid_s4_circuit_multiplicity_certificate():
    arr = braid_arrangement(4)
    # multiplicity 9 on the circuit {x1-x2, x3-x4, x1-x3, x2-x4}, 1 elsewhere
    circuit = {0, 5, 1, 4}
    m = tuple(9 if i in circuit else 1 for i in range(6))
    cert = nonfree_by_lmp_gmp(arr, m)
    assert cert is not None
    assert cert.lmp2_lower >= 6 * 81 == 486
    assert cert.gmp2_upper == 481
    assert cert.rank == 3 and cert.total_multiplicity == 38
    assert verify_certificate(arr, cert)


# -- generic circuits --------------------------------------------------------


def _both_circuits(arr):
    """The induction's circuit and the brute-force scan's, each checked."""
    proof, brute = find_generic_circuit(arr), tuple(_brute_circuit(arr, arr.rank()))
    assert is_generic_circuit(arr, proof) and is_generic_circuit(arr, brute)
    return proof, brute


def test_find_circuit_braid_s4_both_methods():
    proof, brute = _both_circuits(braid_arrangement(4))
    assert len(proof) == len(brute) == 4
    assert brute == (0, 1, 4, 5)  # lexicographically first valid subset


def test_find_circuit_boolean_rejected():
    with pytest.raises(ReducibleInputError):
        find_generic_circuit(boolean_arrangement(3))


def test_find_circuit_rank2_rejected():
    with pytest.raises(ReducibleInputError):
        find_generic_circuit(THREE_LINES)


def test_find_circuit_braid_s5_and_s6():
    for dim in (5, 6):
        arr = braid_arrangement(dim)
        for circuit in _both_circuits(arr):
            assert len(circuit) == dim  # rank is dim-1


def test_find_circuit_generic_input():
    arr = generic_arrangement(6, 4, seed=8)
    if arr.rank() >= 3 and len(connected_components(arr)) == 1:
        _both_circuits(arr)


def test_find_circuit_case1_branch():
    # Deleting the first hyperplane disconnects {x, y, x+y} from {z}, and the
    # restriction to x+2y+z has no image collisions, so the rank-3 base case
    # runs its all-images-distinct branch.
    arr = arrangement(3, [(1, 2, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    assert len(connected_components(arr)) == 1
    assert len(connected_components(deletion(arr, 0))) == 2
    images, _ = _restrict(arr.normals(), 0)
    assert len(images) == 4  # injective restriction
    circuit = find_generic_circuit(arr)
    assert circuit == (0, 1, 2, 4)
    assert is_generic_circuit(arr, circuit)


def test_circuit_search_computes_the_rank_once(monkeypatch):
    # The precondition's fundamental circuits are the first level of the
    # induction and the postcondition's rank; each lower level eliminates
    # once.  Before the rank was memoized the postcondition eliminated again.
    counts = _counting(monkeypatch)
    for dim, expected, eliminations in ((5, (2, 5, 6, 7, 8), 2),
                                        (7, (4, 9, 13, 16, 17, 18, 19), 4)):
        arr = _essential(braid_arrangement(dim).normals(), dim)
        counts.clear()
        assert find_generic_circuit(arr) == expected
        assert counts == {"elim": eliminations}
        assert find_generic_circuit(arr) == expected and counts["elim"] == 2 * eliminations - 1


def test_circuit_induction_builds_no_arrangement(monkeypatch):
    # Each level is a list of normals, restricted by arrangement._restrict;
    # the parent built 8 Arrangements here, one restriction per level.
    arr = _essential(braid_arrangement(8).normals(), 8)
    built = []
    post_init = Arrangement.__post_init__
    monkeypatch.setattr(Arrangement, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    assert find_generic_circuit(arr) == (5, 11, 16, 20, 23, 24, 25, 26)
    assert built == []


def test_is_generic_circuit_refuses_negative_indices():
    # -5..-2 would wrap around to 1..4, a generic circuit of braid dim 4.
    arr = braid_arrangement(4)
    assert is_generic_circuit(arr, (1, 2, 3, 4))
    assert not is_generic_circuit(arr, (-5, -4, -3, -2))


def test_is_generic_circuit_refuses_indices_out_of_range_and_bools():
    arr = braid_arrangement(4)
    assert not is_generic_circuit(arr, (0, 1, 2, 99))  # no IndexError
    assert is_generic_circuit(arr, (0, 1, 4, 5))
    assert not is_generic_circuit(arr, (False, True, 4, 5))


def test_is_generic_circuit_refuses_a_dependent_triple():
    # rank + 1 distinct indices in range, so only the triple check can refuse:
    # x1 - x2, x1 - x3 and x2 - x3 (indices 0, 1, 3) lie in one plane.
    assert not is_generic_circuit(braid_arrangement(4), (0, 1, 2, 3))


def test_is_generic_circuit_refuses_the_index_n():
    arr = braid_arrangement(4)
    assert is_generic_circuit(arr, (1, 2, 3, 4))
    assert is_generic_circuit(arr, (1, 2, 3, arr.n)) is False  # no IndexError


@st.composite
def _connected_rank3_inputs(draw, max_braid: int = 9):
    """A random connected arrangement (dims 3-6, entries in [-3, 3]) or a
    braid arrangement of dim 4 to ``max_braid`` in unimodular coordinates;
    with its rank."""
    if draw(st.booleans()):
        dim = draw(st.integers(4, max_braid))
        change = random_unimodular(draw(st.randoms(use_true_random=False)), dim)
        rows = [[sum(a[i] * change[i][j] for i in range(dim)) for j in range(dim)]
                for a in braid_arrangement(dim).normals()]
        return arrangement(dim, rows), dim - 1
    dim = draw(st.integers(3, 6))
    vectors = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    rows = draw(st.lists(vectors, min_size=dim + 1, max_size=dim + 5))
    arr = arrangement(dim, dict.fromkeys(normalize_hyperplane(r).normal for r in rows))
    rank = fraction_rank(arr.normals(), dim)
    assume(rank >= 3 and len(fraction_components(arr)) == 1)
    return arr, rank


@settings(max_examples=150)
@given(_connected_rank3_inputs())
def test_one_elimination_per_level_matches_the_deletion_induction(case):
    # Deletions read off the level's fundamental circuits give the circuit
    # that a new arrangement and a new elimination per deletion give.
    arr, rank = case
    assert find_generic_circuit(arr) == tuple(deletion_restriction_circuit(arr, rank))


@settings(max_examples=60)
@given(st.lists(_connected_rank3_inputs(), min_size=1, max_size=2),
       st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2).filter(any),
                max_size=4),
       st.randoms(use_true_random=False))
def test_verdict_lmp2_from_the_input_flats_matches_the_factor_pass(cases, lines, rng):
    # A product with a rank-2 factor, in new coordinates that mix the
    # blocks: the factor's LMP2 from the input's flats inside its block is
    # the LMP2 of a pass over the essentialized factor.
    parts = [arr for arr, _ in cases]
    if any(lines):
        parts.append(arrangement(2, dict.fromkeys(normalize_hyperplane(v).normal for v in lines)))
    arr = parts[0]
    for part in parts[1:]:
        arr = product(arr, part)
    change = random_unimodular(rng, arr.dim)
    arr = arrangement(arr.dim, [[sum(a[i] * change[i][j] for i in range(arr.dim))
                                 for j in range(arr.dim)] for a in arr.normals()])
    verdict = decide_totally_free(arr)
    fresh = arrangement(arr.dim, arr.normals())
    assert decompose(arr) == decompose(fresh) and verdict == decide_totally_free(fresh)
    for factor in verdict.decomposition.factors:  # the circuits decompose stored
        stored = vars(factor.arrangement)["_memo"]["circuits"]
        assert stored == _fundamental_circuits(factor.arrangement.normals())
    w = verdict.witness
    m_factor = tuple(w.k0 if i in w.circuit else 1 for i in range(w.factor.arrangement.n))
    assert w.certificate.lmp2_lower == lmp2(w.factor.arrangement, m_factor)


@settings(max_examples=80)
@given(st.lists(_connected_rank3_inputs(max_braid=5), max_size=2),
       st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2).filter(any),
                max_size=4),
       st.lists(st.integers(1, 5), min_size=26, max_size=26),
       st.randoms(use_true_random=False))
def test_pair_term_matches_the_sweep_on_every_flat(cases, lines, mults, rng):
    # lmp2, the verdict's certificate and verify_certificate's recomputation
    # add m_i * m_j for a two-line flat; lmp2_breakdown sweeps every flat.
    # Each must equal the breakdown's sum over the flats inside its block:
    # the whole input, or a factor of a product in coordinates that mix them.
    parts = [arr for arr, _ in cases]
    if any(lines):
        parts.append(arrangement(2, dict.fromkeys(normalize_hyperplane(v).normal for v in lines)))
    assume(parts)
    arr = parts[0]
    for part in parts[1:]:
        arr = product(arr, part)
    change = random_unimodular(rng, arr.dim)
    arr = arrangement(arr.dim, [[sum(a[i] * change[i][j] for i in range(arr.dim))
                                 for j in range(arr.dim)] for a in arr.normals()])
    m = tuple(mults[:arr.n])

    def swept(m, block):
        return sum(pair.product for flat, pair in lmp2_breakdown(arr, m)
                   if block.issuperset(flat.members))

    assert lmp2(arr, m) == swept(m, set(range(arr.n)))
    verdict = decide_totally_free(arr)
    if not verdict.totally_free:
        cert = verdict.witness.certificate
        assert cert.lmp2_lower == swept(cert.multiplicity, set(verdict.witness.factor.indices))
    blocks = [(tuple(range(arr.n)), arr.rank())]
    blocks += [(f.indices, f.rank) for f in decompose(arr).factors]
    event(f"{len(blocks) - 1} factors, totally free: {verdict.totally_free}")
    for block, rank in blocks:
        total = sum(m[i] for i in block)
        bound = gmp2_max(rank, total)
        # lmp2_lower passes the inequality, so verification reaches the recomputation.
        claim = totalfree.NonFreenessCertificate(
            bound + 1, False, bound, rank, total, m,
            CertificateExplanation("LMP2>GMP2max", block, None, None, None,
                                   gmp2_real_bound(rank, total)))
        recomputed = []
        pass_term = totalfree.certificates._lmp2

        def recording(*args):
            recomputed.append(pass_term(*args))
            return recomputed[-1]

        with mock.patch.object(totalfree.certificates, "_lmp2", recording):
            verify_certificate(arr, claim)
        assert recomputed == [swept(m, set(block))]


def _counting(monkeypatch) -> Counter:
    """Counts of eliminations, Arrangement builds, flat passes and exponent reads."""
    counts = Counter()

    def counted(name, fn):
        return lambda *args, **kwargs: counts.update([name]) or fn(*args, **kwargs)

    modules = [sys.modules[f"totalfree.{name}"]  # totalfree.arrangement is a function
               for name in ("linalg", "arrangement", "certificates")]
    for module in modules:
        monkeypatch.setattr(module, "_eliminate", counted("elim", module._eliminate))
    for module in modules[1:]:
        monkeypatch.setattr(module, "_rank2_flats", counted("flats", module._rank2_flats))
    monkeypatch.setattr(totalfree.certificates, "line_degrees",
                        counted("reads", totalfree.certificates.line_degrees))
    post_init = Arrangement.__post_init__
    monkeypatch.setattr(Arrangement, "__post_init__",
                        lambda self: counts.update(["built"]) or post_init(self))
    return counts


def test_analyze_builds_each_structure_once(monkeypatch, tmp_path, capsys):
    # Braid dim 8: the decomposition's elimination gives the induction its
    # first level (an elimination of its own made 8) and the rank that the
    # circuit's postcondition and the report read (one more made 7), the factor is built
    # once (a copy of its hyperplanes essentialized through arrangement() made
    # 3 builds), one pass finds the 266 flats and the pair term reads
    # exponents for the 56 flats of three lines only.
    path = tmp_path / "braid8.arr"
    path.write_text(format_arrangement(braid_arrangement(8)))
    counts = _counting(monkeypatch)
    assert main(["analyze", "--json", "-i", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert len(result["rank2_flats"]) == 266
    assert result["verdict"]["witness"]["certificate"]["lmp2"] == 1674308
    assert counts == {"elim": 6, "built": 2, "flats": 1, "reads": 56}


def test_verify_certificate_builds_no_arrangement(monkeypatch):
    # Rank, closure and flats come from the indexed normals; braid dim 5 has
    # C(5, 3) = 10 flats of three lines.
    arr = braid_arrangement(5)
    cert = decide_totally_free(arr).witness.certificate
    counts = _counting(monkeypatch)
    assert verify_certificate(arr, cert)
    assert counts == {"elim": 1, "flats": 1, "reads": 10}


def _family_certificates(arr):
    """nonfree_by_lmp_gmp at k0..k0+8 on ``arr``'s generic circuit."""
    witness = decide_totally_free(arr).witness
    members = set(witness.circuit_original)
    return [nonfree_by_lmp_gmp(arr, tuple(witness.k0 + j if i in members else 1
                                          for i in range(arr.n))) for j in range(9)]


def test_reverification_reuses_the_verifiers_structure(monkeypatch):
    # Nine certificates (k0..k0+8) on one new braid-dim-4 arrangement: one
    # flats pass and one rank elimination, no closure elimination (the
    # certificates cover every hyperplane); each reads its 4 three-line flats.
    certs = _family_certificates(braid_arrangement(4))
    arr = braid_arrangement(4)
    counts = _counting(monkeypatch)
    assert all([verify_certificate(arr, cert) for cert in certs])
    assert counts == {"elim": 1, "flats": 1, "reads": 36}


def test_the_emitter_finds_its_flats_once_per_arrangement(monkeypatch):
    # A verdict and nonfree_by_lmp_gmp at k0..k0+8 on one arrangement: one
    # flats pass.  The verdict eliminates 3 times (the circuits, the factor's
    # essentialization, one induction level) and builds its factor; each
    # certificate reads the rank the decomposition left (13 eliminations before).
    arr = braid_arrangement(4)
    counts = _counting(monkeypatch)
    certs = _family_certificates(arr)
    assert [cert.lmp2_lower for cert in certs] == [braid_lmp2(4, c.multiplicity) for c in certs]
    assert counts == {"elim": 3, "built": 1, "flats": 1, "reads": 40}


def _claim(cert, indices, rank):
    """An inexact claim on ``indices`` at ``rank`` that passes the inequality."""
    total = sum(cert.multiplicity[i] for i in indices)
    bound = gmp2_max(rank, total)
    return NonFreenessCertificate(
        bound + 1, False, bound, rank, total, cert.multiplicity,
        CertificateExplanation("LMP2>GMP2max", indices, None, None, None,
                               gmp2_real_bound(rank, total)))


_CHECKS = ("genuine", "lmp2", "mult", "circuit", "flat", "rank")


@settings(max_examples=40, derandomize=True)
@given(st.sampled_from([4, 5]),
       st.lists(st.tuples(st.integers(0, 8), st.sampled_from(_CHECKS)), min_size=2, max_size=14),
       st.randoms(use_true_random=False))
def test_memoized_verdicts_equal_verdicts_on_fresh_arrangements(dim, checks, rng):
    # Genuine and tampered certificates interleaved on one Arrangement object:
    # the benchmark's tamperings, a non-closed index set (the generic circuit),
    # a closed one of rank 2 (a three-line flat) and a wrong rank.  Each
    # verdict equals the verdict on a new equal arrangement, with no memo.
    change = random_unimodular(rng, dim)
    arr = arrangement(dim, [[sum(a[i] * change[i][j] for i in range(dim)) for j in range(dim)]
                            for a in braid_arrangement(dim).normals()])
    certs = _family_certificates(arrangement(dim, arr.normals()))
    circuit = find_generic_circuit(arr)
    flat = next(f.members for f in rank2_flats(arr) if len(f.members) == 3)
    shared = arrangement(dim, arr.normals())
    for j, how in checks:
        cert = certs[j]
        if how in ("lmp2", "mult"):
            cert = tamper(cert, how, rng)
        elif how == "circuit":
            cert = _claim(cert, circuit, dim - 1)
        elif how == "flat":
            cert = _claim(cert, flat, 2)
        elif how == "rank":
            cert = dataclasses.replace(cert, rank=cert.rank + 1)
        verdict = verify_certificate(shared, cert)
        assert verdict == verify_certificate(arrangement(dim, arr.normals()), cert)
        assert verdict == (how == "genuine")


def _forged(obj, **fields):
    """A copy of a frozen certificate or explanation with ``fields`` set, past
    __post_init__: a claim a caller can still hand the verifier."""
    forged = copy.copy(obj)
    for name, value in fields.items():
        object.__setattr__(forged, name, value)
    return forged


def _reindexed(cert, indices, **fields):
    return _forged(cert, explanation=_forged(cert.explanation, factor_indices=indices), **fields)


def _malformed(arr, cert, circuit, rng):
    """Claims that differ from ``cert`` in one respect, the other fields adjusted
    where that keeps every other check passing."""
    n, indices, m = arr.n, tuple(cert.explanation.factor_indices), tuple(cert.multiplicity)
    rank, total, lmp2_lower = cert.rank, cert.total_multiplicity, cert.lmp2_lower
    j = rng.randrange(len(indices))
    i = indices[j]

    def swapped(index):
        return indices[:j] + (index,) + indices[j + 1:]

    claims = [_reindexed(cert, swapped(float(i))),
              _reindexed(cert, swapped(i - n)),  # the same hyperplane, wrapped around
              _reindexed(cert, swapped(n + rng.randrange(3))),
              _reindexed(cert, indices + (i,), total_multiplicity=total + m[i]),
              _forged(cert, multiplicity=m + (1,)),
              _forged(cert, multiplicity=m[:-1])]
    claims += [_reindexed(cert, tuple(bool(k) if k == b else k for k in indices))
               for b in (0, 1) if b in indices]
    # An entry outside the block, or one equal to 1, leaves the total and LMP2 as they were.
    spare = [k for k in range(n) if k not in indices or m[k] == 1] or list(indices)
    for value in (0, -1, True, 1.0):
        k = rng.choice(spare)
        claims.append(_forged(cert, multiplicity=m[:k] + (value,) + m[k + 1:],
                              total_multiplicity=total - m[k] + value if k in indices else total))
    claims += [_forged(cert, rank=float(rank)), _forged(cert, lmp2_lower=float(lmp2_lower)),
               _forged(cert, gmp2_upper=float(cert.gmp2_upper)),
               _forged(cert, total_multiplicity=float(total)),
               _forged(cert, rank=0),
               _reindexed(cert, (), rank=0, total_multiplicity=0, lmp2_lower=0, gmp2_upper=-1),
               _forged(cert, total_multiplicity=total - 1, gmp2_upper=gmp2_max(rank, total - 1)),
               _forged(cert, rank=rank + 1, gmp2_upper=gmp2_max(rank + 1, total)),
               _forged(cert, lmp2_is_exact=False, lmp2_lower=lmp2_lower + 1),
               _forged(cert, gmp2_upper=cert.gmp2_upper - 1),
               _claim(cert, circuit, rank),
               tamper(cert, "lmp2", rng), tamper(cert, "mult", rng)]
    # A closed rank-2 flat whose exact LMP2 does not exceed GMP2max.
    for flat, pair in lmp2_breakdown(arr, m):
        if len(flat.members) > 2:
            flat_total = sum(m[k] for k in flat.members)
            claims.append(_reindexed(cert, flat.members, rank=2, total_multiplicity=flat_total,
                                     lmp2_lower=pair.product, lmp2_is_exact=True,
                                     gmp2_upper=gmp2_max(2, flat_total)))
            break
    return claims


@st.composite
def _verifier_inputs(draw):
    """A braid arrangement of dim 4-6 or a random connected one of rank 3-4, times
    a line or not, in unimodular coordinates that keep the hyperplane order."""
    if draw(st.booleans()):
        arr = braid_arrangement(draw(st.integers(4, 6)))
    else:
        dim = draw(st.integers(3, 4))
        vectors = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
        rows = draw(st.lists(vectors, min_size=dim + 1, max_size=dim + 4))
        arr = arrangement(dim, dict.fromkeys(normalize_hyperplane(r).normal for r in rows))
        assume(fraction_rank(arr.normals(), dim) == dim and len(fraction_components(arr)) == 1)
    if draw(st.booleans()):
        arr = product(arr, arrangement(1, [(1,)]))
    change = random_unimodular(draw(st.randoms(use_true_random=False)), arr.dim)
    return arrangement(arr.dim, [[sum(a[i] * change[i][j] for i in range(arr.dim))
                                  for j in range(arr.dim)] for a in arr.normals()])


@settings(max_examples=40, derandomize=True)
@given(_verifier_inputs(), st.integers(0, 8), st.randoms(use_true_random=False))
def test_verdicts_equal_the_reference_verifier(arr, j, rng):
    # Genuine certificates at k0..k0+8 (the verdict's own where the input is a
    # product), the benchmark's tamperings and malformed claims: each verdict on
    # one reused Arrangement and on a new one equals reference_verify's.
    witness = decide_totally_free(arrangement(arr.dim, arr.normals())).witness
    family = _family_certificates(arrangement(arr.dim, arr.normals()))
    genuine = [witness.certificate, *[c for c in family[1:] if c is not None]]
    claims = genuine + _malformed(arr, genuine[j % len(genuine)], witness.circuit_original, rng)
    shared = arrangement(arr.dim, arr.normals())
    verdicts = []
    for claim in claims:
        verdicts.append(reference_verify(arrangement(arr.dim, arr.normals()), claim))
        assert verify_certificate(shared, claim) is verdicts[-1]
        assert verify_certificate(arrangement(arr.dim, arr.normals()), claim) is verdicts[-1]
    assert verdicts[:len(genuine)] == [True] * len(genuine)


def test_the_pair_term_builds_no_exponent_pair(monkeypatch):
    # LMP2, the verdict and the verifier read degree pairs as ints
    # (rank2.line_degrees); lmp2_breakdown and rank2_exponents still wrap them.
    expected = {}
    for dim in (4, 5, 6):
        verdict = decide_totally_free(braid_arrangement(dim))
        m = verdict.witness.certificate.multiplicity
        expected[dim] = verdict, m, lmp2(braid_arrangement(dim), m)

    def refuse(*args):
        raise AssertionError("an ExponentPair was built")

    monkeypatch.setattr(totalfree.rank2, "ExponentPair", refuse)
    for dim, (verdict, m, value) in expected.items():
        assert decide_totally_free(braid_arrangement(dim)) == verdict
        assert verify_certificate(braid_arrangement(dim), verdict.witness.certificate) is True
        assert lmp2(braid_arrangement(dim), m) == value
    with pytest.raises(AssertionError, match="ExponentPair"):
        lmp2_breakdown(braid_arrangement(4), expected[4][1])
    monkeypatch.undo()
    assert all(type(pair) is ExponentPair for _, pair in lmp2_breakdown(braid_arrangement(4),
                                                                         expected[4][1]))
    assert type(rank2_exponents(THREE_LINES, (2, 3, 4))) is ExponentPair


def _immutable(value) -> bool:
    """Tuples, frozensets and frozen dataclasses all the way down."""
    if dataclasses.is_dataclass(value):
        return (value.__dataclass_params__.frozen
                and all(_immutable(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if type(value) in (tuple, frozenset):
        return all(_immutable(v) for v in value)
    return type(value) in (int, bool, str)


def test_the_memo_changes_nothing_about_an_arrangement():
    arr, twin = braid_arrangement(5), braid_arrangement(5)
    assert verify_certificate(arr, decide_totally_free(arr).witness.certificate)
    memo = vars(arr)["_memo"]
    assert len(memo) == 4 and all(_immutable(entry) for entry in memo.values())
    factor = decompose(arr).factors[0].arrangement
    assert all(_immutable(entry) for entry in vars(factor)["_memo"].values())
    assert "_memo" not in vars(twin)
    assert arr == twin and hash(arr) == hash(twin) and repr(arr) == repr(twin)
    for other in (pickle.loads(pickle.dumps(arr)), copy.copy(arr), copy.deepcopy(arr),
                  dataclasses.replace(arr)):
        assert other == arr and hash(other) == hash(arr) and repr(other) == repr(arr)
        assert "_memo" not in vars(other)  # a fresh memo


def test_find_circuit_fuzz_random_connected():
    rng = random.Random(63)
    found = 0
    while found < 12:
        dim = rng.randint(3, 5)
        n = rng.randint(dim + 1, dim + 4)
        rows = []
        while len(rows) < n:
            v = tuple(rng.randint(-3, 3) for _ in range(dim))
            if any(v):
                h = normalize_hyperplane(v).normal
                if h not in rows:
                    rows.append(h)
        arr = arrangement(dim, rows)
        if arr.rank() < 3 or len(connected_components(arr)) != 1:
            continue
        found += 1
        _both_circuits(arr)


def test_circuit_check_values():
    chk3 = circuit_is_nonfree_check(3)
    assert (chk3.lmp2, chk3.gmp2_real_bound, chk3.gap) == (6, Fraction(16, 3), Fraction(2, 3))
    chk4 = circuit_is_nonfree_check(4)
    assert (chk4.lmp2, chk4.gmp2_real_bound, chk4.gap) == (10, Fraction(75, 8), Fraction(5, 8))
    chk5 = circuit_is_nonfree_check(5)
    assert (chk5.lmp2, chk5.gmp2_real_bound, chk5.gap) == (15, Fraction(72, 5), Fraction(3, 5))
    with pytest.raises(ValueError):
        circuit_is_nonfree_check(2)


# -- the k0 family -----------------------------------------------------------


def test_k0_braid_s4():
    arr = braid_arrangement(4)
    circuit, k0, m = nonfree_multiplicity_family(arr)
    assert k0 == 9
    assert sorted(m, reverse=True) == [9, 9, 9, 9, 1, 1]
    assert all(m[i] == 9 for i in circuit)
    # both sides at k0-1 and k0, as in the threshold definition
    assert 6 * 8 * 8 <= gmp2_max(3, 34)
    assert 6 * 9 * 9 > gmp2_max(3, 38)
    assert gmp2_max(3, 34) == 385


def test_k0_braid_s5():
    circuit, k0, m = nonfree_multiplicity_family(braid_arrangement(5))
    assert k0 == 31
    assert 10 * 30 * 30 <= gmp2_max(4, 155) == 9009
    assert 10 * 31 * 31 > gmp2_max(4, 160) == 9600


def test_lmp_gmp_certificate_passes_emission_recheck(monkeypatch):
    import totalfree.certificates as certificates
    arr = braid_arrangement(4)
    _, k0, m = nonfree_multiplicity_family(arr)
    calls = []
    recheck = certificates._emission_recheck
    monkeypatch.setattr(certificates, "_emission_recheck",
                        lambda cert: calls.append(cert) or recheck(cert))
    cert = nonfree_by_lmp_gmp(arr, m)
    assert calls == [cert] and cert.multiplicity == m
    assert cert.explanation.k0 is None and cert.explanation.subset_lower_bound is None


def test_k0_rejects_rank2():
    with pytest.raises(ReducibleInputError):
        nonfree_multiplicity_family(THREE_LINES)


def test_k0_of_a_bare_circuit_is_one():
    # A generic circuit itself is never free, so already m=1 certifies.
    arr = arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    circuit, k0, m = nonfree_multiplicity_family(arr)
    assert k0 == 1 and m == (1, 1, 1, 1)
    assert 6 > gmp2_max(3, 4) == 5


def test_k0_scan_from_the_real_bound_matches_the_linear_scan():
    # Every n up to rank + 60, then every 9th up to rank + 400; the linear
    # scan over every n up to rank + 400 would take about 1.7e7 steps.
    for rank in range(3, 16):
        for n in [*range(rank + 1, rank + 61), *range(rank + 61, rank + 401, 9)]:
            assert _k0(rank, n) == linear_k0(rank, n)


def test_k0_cap_in_integers_is_the_fraction_form():
    # The reference reads the real-bound quadratic c2 k^2 - c1 k - c0 in
    # Fractions: floor(c1/c2) + isqrt(floor(c0/c2)) + 3.
    for rank in range(3, 41):
        for slack in range(201):
            c2 = Fraction(rank + 1, 2 * rank)
            c1 = Fraction((rank - 1) * (rank + 1) * slack, rank)
            c0 = Fraction((rank - 1) * slack * slack, 2 * rank)
            assert _k0_cap(rank, slack) == int(c1 / c2) + isqrt(int(c0 / c2)) + 3


# -- decide_totally_free -----------------------------------------------------


def test_decide_product_of_small_factors():
    arr = product(product(THREE_LINES, arrangement(1, [(1,)])), arrangement(1, [(1,)]))
    verdict = decide_totally_free(arr)
    assert verdict.totally_free
    assert tuple(f.rank for f in verdict.decomposition.factors) == (2, 1, 1)
    assert verdict.witness is None


def test_decide_braid_s4():
    verdict = decide_totally_free(braid_arrangement(4))
    assert not verdict.totally_free
    w = verdict.witness
    assert w.k0 == 9
    assert len(w.circuit_original) == 4
    assert is_generic_circuit(braid_arrangement(4), w.circuit_original)
    cert = w.certificate
    assert cert.lmp2_lower == 523  # exact LMP2 at the k0 multiplicity
    assert cert.gmp2_upper == 481
    assert cert.multiplicity == tuple(9 if i in set(w.circuit_original) else 1
                                      for i in range(6))
    assert verify_certificate(braid_arrangement(4), cert)


def test_decide_empty():
    from totalfree import Arrangement
    verdict = decide_totally_free(Arrangement(3, ()))
    assert verdict.totally_free
    assert verdict.decomposition.factors == ()
    assert verdict.decomposition.trivial_directions == 3


def test_decide_reducible_with_rank3_factor():
    # braid-S4 x {z}: certificate numbers are computed on the braid factor
    arr = product(braid_arrangement(4), arrangement(1, [(1,)]))
    verdict = decide_totally_free(arr)
    assert not verdict.totally_free
    w = verdict.witness
    assert w.factor.indices == tuple(range(6))
    assert w.k0 == 9
    assert w.certificate.rank == 3
    assert w.certificate.total_multiplicity == 38
    assert len(w.certificate.multiplicity) == 7
    assert w.certificate.multiplicity[6] == 1
    assert verify_certificate(arr, w.certificate)


# -- theorem-level invariants ------------------------------------------------


def test_lmp_gmp_consistency_on_totally_free():
    rng = random.Random(71)
    corpus = [
        boolean_arrangement(3),
        boolean_arrangement(4),
        THREE_LINES,
        product(THREE_LINES, arrangement(1, [(1,)])),
        product(THREE_LINES, THREE_LINES),
        product(generic_arrangement(4, 2, seed=13), boolean_arrangement(2)),
    ]
    checked = 0
    for arr in corpus:
        assert decide_totally_free(arr).totally_free
        for _ in range(10):
            m = tuple(rng.randint(1, 5) for _ in range(arr.n))
            exps = exponents_totally_free(arr, m)
            assert lmp2(arr, m) == e2(exps)
            checked += 1
    assert checked >= 50


def test_certificate_tail_k0_plus():
    for dim in (4, 5):
        arr = braid_arrangement(dim)
        circuit, k0, _ = nonfree_multiplicity_family(arr)
        rank = arr.rank()
        n = arr.n
        members = set(circuit)
        for k in (k0, k0 + 1, k0 + 5):
            total = (k - 1) * (rank + 1) + n
            subset_bound = (rank + 1) * rank // 2 * k * k
            assert subset_bound > gmp2_max(rank, total)
            m = tuple(k if i in members else 1 for i in range(n))
            cert = nonfree_by_lmp_gmp(arr, m)
            assert cert is not None and cert.lmp2_lower > cert.gmp2_upper


def test_closure_under_deletion_and_restriction():
    corpus = [
        boolean_arrangement(4),
        product(THREE_LINES, boolean_arrangement(2)),
        product(THREE_LINES, THREE_LINES),
    ]
    for arr in corpus:
        assert decide_totally_free(arr).totally_free
        for h in range(arr.n):
            assert decide_totally_free(deletion(arr, h)).totally_free
            assert decide_totally_free(kernel_basis_restriction(arr, h)[0]).totally_free


def test_braid_restriction_becomes_totally_free():
    arr = braid_arrangement(4)
    assert not decide_totally_free(arr).totally_free
    tags = [decide_totally_free(kernel_basis_restriction(arr, h)[0]).totally_free
            for h in range(arr.n)]
    assert any(tags)


def test_verdict_invariant_under_coordinate_change():
    rng = random.Random(97)
    for arr in (braid_arrangement(4), boolean_arrangement(3),
                product(THREE_LINES, arrangement(1, [(1,)]))):
        base = decide_totally_free(arr).totally_free
        for _ in range(4):
            moved = _transformed(arr, random_invertible(rng, arr.dim))
            assert decide_totally_free(moved).totally_free == base


def test_verify_rejects_tampered_certificate():
    arr = braid_arrangement(4)
    cert = decide_totally_free(arr).witness.certificate
    weakened = dataclasses.replace(cert, multiplicity=(1,) * 6,
                                   total_multiplicity=6)
    assert not verify_certificate(arr, weakened)
    inflated = dataclasses.replace(cert, lmp2_lower=cert.lmp2_lower + 1)
    assert not verify_certificate(arr, inflated)


def _with_indices(cert, indices):
    return dataclasses.replace(
        cert, explanation=dataclasses.replace(cert.explanation, factor_indices=indices))


def _with_multiplicity(cert, m):
    return dataclasses.replace(cert, multiplicity=m)


def _moved(cert, amount):
    # moves multiplicity from the first hyperplane to the second; the total stays
    m = cert.multiplicity
    return _with_multiplicity(cert, (m[0] - amount, m[1] + amount) + m[2:])


@pytest.mark.parametrize("tamper", [
    lambda c: _with_indices(c, (0, 1, 2, 3, 4, 6)),
    lambda c: _with_indices(c, (0, 1, 2, 3, 4, -1)),
    lambda c: _with_indices(c, (0, 1, 2, 3, 4, 4)),
    lambda c: _with_multiplicity(c, c.multiplicity[:-1]),
    lambda c: _with_multiplicity(c, c.multiplicity + (1,)),
    lambda c: _moved(c, c.multiplicity[0]),
    lambda c: _moved(c, c.multiplicity[0] + 1),
    lambda c: _moved(c, Fraction(1, 2)),
    lambda c: dataclasses.replace(_with_indices(c, ()), rank=0, total_multiplicity=0,
                                  lmp2_lower=0, gmp2_upper=-1),
    lambda c: _with_indices(c, (0.0,) + c.explanation.factor_indices[1:]),
    lambda c: _with_indices(c, (True,) + c.explanation.factor_indices[1:]),
    lambda c: dataclasses.replace(c, rank=float(c.rank)),
    lambda c: dataclasses.replace(c, lmp2_lower=float(c.lmp2_lower)),
    lambda c: dataclasses.replace(c, total_multiplicity=float(c.total_multiplicity)),
    lambda c: dataclasses.replace(c, gmp2_upper=float(c.gmp2_upper)),
], ids=["index-out-of-range", "negative-index", "repeated-index", "short-multiplicity",
        "long-multiplicity", "zero-multiplicity", "negative-multiplicity",
        "fractional-multiplicity", "rank-zero", "float-index", "bool-index", "float-rank",
        "float-lmp2", "float-total", "float-gmp2"])
def test_verify_rejects_malformed_certificate(tamper):
    arr = braid_arrangement(4)
    cert = decide_totally_free(arr).witness.certificate
    assert verify_certificate(arr, cert) is True
    assert verify_certificate(arr, tamper(cert)) is False


@pytest.mark.parametrize("call", [
    lambda cert: rank2_exponents(THREE_LINES, (2, 2, 2)),
    lambda cert: lmp2(braid_arrangement(4), (1,) * 6),
    lambda cert: decide_totally_free(braid_arrangement(4)),
    lambda cert: rank2_basis(THREE_LINES, (2, 2, 2)),
    lambda cert: verify_certificate(braid_arrangement(4), cert),
], ids=["rank2_exponents", "lmp2", "decide_totally_free", "rank2_basis",
        "verify_certificate"])
def test_basis_check_runs_on_every_cache_fill(monkeypatch, call):
    cert = decide_totally_free(braid_arrangement(4)).witness.certificate
    monkeypatch.setattr(totalfree.rank2, "_is_basis", lambda *args: False)
    totalfree.rank2._min_degree.cache_clear()
    with pytest.raises(InternalInvariantError):
        call(cert)
    assert totalfree.rank2._min_degree.cache_info().currsize == 0


def test_basis_check_runs_once_per_cache_miss(monkeypatch):
    arr = braid_arrangement(5)
    cert = decide_totally_free(arr).witness.certificate
    checked = []
    is_basis = totalfree.rank2._is_basis
    monkeypatch.setattr(totalfree.rank2, "_is_basis",
                        lambda *args: checked.append(args) or is_basis(*args))
    totalfree.rank2._min_degree.cache_clear()
    assert verify_certificate(arr, cert) and verify_certificate(arr, cert)
    info = totalfree.rank2._min_degree.cache_info()
    assert info.misses > 0 and info.hits >= info.misses
    assert len(checked) == info.misses


def test_verify_rejects_shifted_gmp2_upper_at_rank_5():
    # Braid dim 6 has rank 5, past the reach of the exhaustive partition search.
    arr = braid_arrangement(6)
    cert = nonfree_by_lmp_gmp(arr, decide_totally_free(arr).witness.certificate.multiplicity)
    assert verify_certificate(arr, cert) is True
    shifts = [s for s in (-1, 1) if cert.lmp2_lower > cert.gmp2_upper + s]
    assert shifts == [-1, 1]
    for shift in shifts:
        shifted = dataclasses.replace(cert, gmp2_upper=cert.gmp2_upper + shift)
        assert verify_certificate(arr, shifted) is False


def test_verify_braid_8_cold_under_half_a_second():
    arr = braid_arrangement(8)
    cert = decide_totally_free(arr).witness.certificate
    totalfree.rank2._min_degree.cache_clear()
    start = time.perf_counter()
    assert verify_certificate(arr, cert) is True
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("dim", [6, 7, 8])
def test_verify_rejects_inexact_lmp2_and_changed_multiplicity(dim):
    arr = braid_arrangement(dim)
    cert = dataclasses.replace(decide_totally_free(arr).witness.certificate, lmp2_is_exact=True)
    assert verify_certificate(arr, cert) is True
    for shift in (-1, 1):
        shifted = dataclasses.replace(cert, lmp2_lower=cert.lmp2_lower + shift)
        assert verify_certificate(arr, shifted) is False
    # A lower bound stands only while it is not claimed exact.
    lowered = dataclasses.replace(cert, lmp2_lower=cert.lmp2_lower - 1, lmp2_is_exact=False)
    assert verify_certificate(arr, lowered) is True
    # One unit moved off a heavy hyperplane keeps |m| and GMP2max but not LMP2.
    heavy, light = cert.multiplicity.index(max(cert.multiplicity)), cert.multiplicity.index(1)
    m = list(cert.multiplicity)
    m[heavy], m[light] = m[heavy] - 1, m[light] + 1
    assert verify_certificate(arr, _with_multiplicity(cert, tuple(m))) is False


def test_certificate_inequality_enforced_at_construction():
    from totalfree import InternalInvariantError, NonFreenessCertificate
    from totalfree.certificates import CertificateExplanation
    from fractions import Fraction as F
    expl = CertificateExplanation("LMP2>GMP2max", (0, 1), None, None, None, F(1))
    with pytest.raises(InternalInvariantError):
        NonFreenessCertificate(5, True, 5, 2, 4, (2, 2), expl)


def test_emission_recheck_rejects_unbalanced_gmp2():
    # At rank 6 the exhaustive partition search is far past any practical
    # limit, so only the comparison with gmp2_max can catch this.
    from totalfree import InternalInvariantError, NonFreenessCertificate
    from totalfree.certificates import CertificateExplanation, _emission_recheck
    rank, total = 6, 1001
    unbalanced = e2((168, 167, 167, 167, 166, 166))
    assert unbalanced < gmp2_max(rank, total)
    expl = CertificateExplanation("LMP2>GMP2max", tuple(range(7)), None, None, None,
                                  gmp2_real_bound(rank, total))
    cert = NonFreenessCertificate(unbalanced + 1, True, unbalanced, rank, total,
                                  (1,) * 6 + (995,), expl)
    with pytest.raises(InternalInvariantError, match="balanced maximum"):
        _emission_recheck(cert)


def test_subarrangement_certificate_path():
    # verify_certificate rebuilds the factor's flats from the original input
    arr = braid_arrangement(4)
    verdict = decide_totally_free(arr)
    cert = verdict.witness.certificate
    assert [arr.hyperplanes[i] for i in cert.explanation.factor_indices] == list(arr.hyperplanes)


# -- certificates sit on closed index sets -----------------------------------


def _closure(arr, indices) -> tuple[int, ...]:
    """The indices of every hyperplane in the span of these (rational reference)."""
    normals = [arr.hyperplanes[i].normal for i in indices]
    rank = fraction_rank(normals, arr.dim)
    return tuple(i for i, h in enumerate(arr.hyperplanes)
                 if i in indices or fraction_rank(normals + [h.normal], arr.dim) == rank)


def test_verify_rejects_generic_circuit_of_free_braid_4():
    # Braid dim 4 with m = 1 is free, but its generic circuit (0, 1, 4, 5)
    # alone has LMP2 6 > 5 = GMP2max(3, 4); hyperplanes 2 and 3 lie in its span.
    arr = braid_arrangement(4)
    cert = _certificate(6, 3, 4, (1,) * 6, (0, 1, 4, 5))
    assert _closure(arr, (0, 1, 4, 5)) == tuple(range(6))
    assert verify_certificate(arr, cert) is False


@st.composite
def _subset_certificates(draw):
    """A small arrangement, a multiplicity, and an index subset, closed or not."""
    if draw(st.booleans()):
        arr = braid_arrangement(draw(st.sampled_from([4, 5])))
    else:
        dim = draw(st.integers(3, 4))
        rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                             min_size=4, max_size=7))
        arr = arrangement(dim, dict.fromkeys(normalize_hyperplane(r).normal
                                             for r in rows if any(r)))
    m = tuple(draw(st.lists(st.integers(1, 4), min_size=arr.n, max_size=arr.n)))
    chosen = draw(st.lists(st.booleans(), min_size=arr.n, max_size=arr.n))
    indices = tuple(i for i, c in enumerate(chosen) if c)
    return arr, m, _closure(arr, indices) if draw(st.booleans()) else indices


@settings(max_examples=500)
@given(_subset_certificates())
def test_verify_accepts_exactly_the_closed_subsets(case):
    arr, m, indices = case
    sub = Arrangement(arr.dim, tuple(arr.hyperplanes[i] for i in indices))
    rank, total = sub.rank(), sum(m[i] for i in indices)
    value = lmp2(sub, tuple(m[i] for i in indices))
    if rank < 3 or value <= gmp2_max(rank, total):
        return  # no certificate to build; rank <= 2 never has one
    cert = _certificate(value, rank, total, m, indices)
    closed = _closure(arr, indices) == indices
    event(f"closed={closed}")
    assert verify_certificate(arr, cert) is closed
