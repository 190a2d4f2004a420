import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

import totalfree.certificates
import totalfree.rank2
from totalfree import (
    Arrangement,
    InternalInvariantError,
    ReducibleInputError,
    arrangement,
    boolean_arrangement,
    braid_arrangement,
    circuit_is_nonfree_check,
    decide_totally_free,
    essentialize,
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
    subarrangement,
    verify_certificate,
)
from totalfree.arrangement import restriction
from totalfree.certificates import (
    _certificate, _generic_circuit, _verdict, nonfree_multiplicity_family)
from oracles import (
    deletion, deletion_restriction_circuit, e2, exhaustive_e2_max, fraction_components,
    fraction_rank, random_invertible, random_unimodular)

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


def test_find_circuit_braid_s4_both_methods():
    arr = braid_arrangement(4)
    proof = find_generic_circuit(arr, method="proof")
    brute = find_generic_circuit(arr, method="brute")
    assert len(proof) == len(brute) == 4
    assert is_generic_circuit(arr, proof)
    assert is_generic_circuit(arr, brute)
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
        for method in ("proof", "brute"):
            circuit = find_generic_circuit(arr, method=method)
            assert len(circuit) == dim  # rank is dim-1
            assert is_generic_circuit(arr, circuit)


def test_find_circuit_generic_input():
    arr = generic_arrangement(6, 4, seed=8)
    if arr.rank() >= 3 and len(__import__("totalfree").connected_components(arr)) == 1:
        for method in ("proof", "brute"):
            assert is_generic_circuit(arr, find_generic_circuit(arr, method))


def test_find_circuit_case1_branch():
    # Deleting the first hyperplane disconnects {x, y, x+y} from {z}, and the
    # restriction to x+2y+z has no image collisions, so the rank-3 base case
    # runs its all-images-distinct branch.
    arr = arrangement(3, [(1, 2, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    from totalfree import connected_components
    assert len(connected_components(arr)) == 1
    assert len(connected_components(deletion(arr, 0))) == 2
    res = restriction(arr, 0)
    assert res.arrangement.n == 4  # injective restriction
    circuit = find_generic_circuit(arr, method="proof")
    assert circuit == (0, 1, 2, 4)
    assert is_generic_circuit(arr, circuit)


def test_circuit_search_computes_the_rank_once(monkeypatch):
    calls = []
    rank = Arrangement.rank
    monkeypatch.setattr(Arrangement, "rank", lambda self: calls.append(self) or rank(self))
    for dim, expected in ((5, (2, 5, 6, 7, 8)), (7, (4, 9, 13, 16, 17, 18, 19))):
        arr = essentialize(braid_arrangement(dim))
        calls.clear()
        assert find_generic_circuit(arr) == expected
        assert len(calls) == 1  # the postcondition; the precondition is the first elimination


def test_circuit_induction_builds_no_arrangement(monkeypatch):
    # Each level is a list of normals, restricted by arrangement._restrict;
    # the parent built 8 Arrangements here, one restriction per level.
    arr = essentialize(braid_arrangement(8))
    built = []
    post_init = Arrangement.__post_init__
    monkeypatch.setattr(Arrangement, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    assert _generic_circuit(arr, 7, "proof") == (5, 11, 16, 20, 23, 24, 25, 26)
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


@st.composite
def _connected_rank3_inputs(draw):
    """A random connected arrangement (dims 3-6, entries in [-3, 3]) or a
    braid arrangement of dim 4-9 in unimodular coordinates; with its rank."""
    if draw(st.booleans()):
        dim = draw(st.integers(4, 9))
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
    verdict = _verdict(arr, rank2_flats(arr))
    assert verdict == decide_totally_free(arr)
    w = verdict.witness
    m_factor = tuple(w.k0 if i in w.circuit else 1 for i in range(w.factor.arrangement.n))
    assert w.certificate.lmp2_lower == lmp2(w.factor.arrangement, m_factor)


def test_find_circuit_fuzz_random_connected():
    rng = random.Random(63)
    from totalfree import connected_components
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
        for method in ("proof", "brute"):
            circuit = find_generic_circuit(arr, method=method)
            assert is_generic_circuit(arr, circuit)


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
            assert decide_totally_free(restriction(arr, h).arrangement).totally_free


def test_braid_restriction_becomes_totally_free():
    arr = braid_arrangement(4)
    assert not decide_totally_free(arr).totally_free
    tags = [decide_totally_free(restriction(arr, h).arrangement).totally_free
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
    sub = subarrangement(arr, cert.explanation.factor_indices)
    assert sub == arr


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
    sub = subarrangement(arr, indices)
    rank, total = sub.rank(), sum(m[i] for i in indices)
    value = lmp2(sub, tuple(m[i] for i in indices))
    if rank < 3 or value <= gmp2_max(rank, total):
        return  # no certificate to build; rank <= 2 never has one
    cert = _certificate(value, rank, total, m, indices)
    closed = _closure(arr, indices) == indices
    event(f"closed={closed}")
    assert verify_certificate(arr, cert) is closed
