import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from totalfree import (
    Arrangement,
    DimensionMismatchError,
    DuplicateHyperplaneError,
    Hyperplane,
    MalformedFlatError,
    ParseError,
    arrangement,
    boolean_arrangement,
    braid_arrangement,
    derivation,
    essentialize,
    format_arrangement,
    generic_arrangement,
    lmp2_breakdown,
    normalize_hyperplane,
    parse_arrangement,
    product,
    rank2_exponents,
    rank2_flats,
)
from totalfree.arrangement import is_member_at, localization, restriction, span_key
from totalfree.certificates import _all_triples_rank3
from totalfree.linalg import Matrix
from oracles import (
    assert_pivot_restriction, brute_rank2_flats, deletion, euler_derivation, fraction_rank,
    kernel_basis_restriction, monomial, pairwise_generic_normals, primitive, random_invertible,
    rref_localization)

THREE_LINES = arrangement(2, [(1, 0), (0, 1), (1, -1)])


# -- normalization -----------------------------------------------------------


def test_normalize_examples():
    assert normalize_hyperplane((-2, 4, 0)).normal == (1, -2, 0)
    assert normalize_hyperplane((0, 0, 3)).normal == (0, 0, 1)
    assert normalize_hyperplane((Fraction(1, 2), Fraction(-1, 3), 0)).normal == (3, -2, 0)


def test_normalize_idempotent_and_equality():
    rng = random.Random(5)
    for _ in range(50):
        v = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(3)]
        if all(c == 0 for c in v):
            continue
        h = normalize_hyperplane(v)
        assert normalize_hyperplane(h.normal) == h
        assert normalize_hyperplane([c * Fraction(-7, 3) for c in v]) == h


@settings(max_examples=200)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=6).filter(any),
       st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)))
def test_normalize_int_fraction_and_rescaled_agree(v, scale):
    h = normalize_hyperplane(v)
    assert all(type(c) is int for c in h.normal) and h.normal == primitive(v)
    assert normalize_hyperplane([Fraction(c) for c in v]) == h
    assert normalize_hyperplane([c * scale for c in v]) == h


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize_hyperplane((0, 0, 0))


def test_duplicates_rejected():
    with pytest.raises(DuplicateHyperplaneError):
        arrangement(2, [(1, 0), (-2, 0)])
    # Built directly, proportional normals are still one hyperplane.
    with pytest.raises(DuplicateHyperplaneError):
        Arrangement(2, (Hyperplane((1, 0)), Hyperplane((-1, 0)), Hyperplane((0, 1))))


# -- essentialization --------------------------------------------------------


def test_essentialize_braid_a3():
    arr = arrangement(3, [(1, -1, 0), (1, 0, -1), (0, 1, -1)])
    ess = essentialize(arr)
    # pivot columns x1, x2; the dropped x3 is the trivial direction
    assert ess == arrangement(2, [(1, -1), (1, 0), (0, 1)])
    assert_pivot_restriction(arr, ess)


def test_essentialize_already_essential():
    assert essentialize(THREE_LINES) == THREE_LINES


def test_essentialize_empty():
    assert essentialize(Arrangement(2, ())) == Arrangement(0, ())


def test_essentialize_pivots_past_the_first_columns():
    # pivot column x2 only: the restricted normal (2) normalizes to (1)
    arr = arrangement(3, [(0, 2, 1)])
    assert essentialize(arr) == arrangement(1, [(1,)])
    arr = arrangement(4, [(0, 1, 0, 2), (0, 0, 0, 1), (0, 1, 0, 1)])
    assert essentialize(arr) == arrangement(2, [(1, 2), (0, 1), (1, 1)])
    assert_pivot_restriction(arr, essentialize(arr))


# -- deletion / restriction --------------------------------------------------


def test_deletion_examples():
    assert deletion(THREE_LINES, 2) == arrangement(2, [(1, 0), (0, 1)])
    single = arrangement(1, [(1,)])
    assert deletion(single, 0).n == 0
    assert deletion(braid_arrangement(4), 0).n == 5
    with pytest.raises(IndexError):
        deletion(single, 1)


def test_restriction_braid_s4():
    res = restriction(braid_arrangement(4), 0)  # restrict to x1 - x2
    assert res.arrangement.dim == 3
    assert res.arrangement.n == 3
    # x1-x3 and x2-x3 collide, x1-x4 and x2-x4 collide, x3-x4 survives alone
    assert res.index_map[0] is None
    assert res.index_map[1] == res.index_map[3]
    assert res.index_map[2] == res.index_map[4]
    assert len({res.index_map[1], res.index_map[2], res.index_map[5]}) == 3


def test_restriction_boolean_two():
    res = restriction(arrangement(2, [(1, 0), (0, 1)]), 0)
    assert res.arrangement.dim == 1
    assert res.arrangement.n == 1


def test_restriction_generic_injective():
    arr = generic_arrangement(4, 3, seed=2)
    res = restriction(arr, 1)
    assert res.arrangement.n == 3  # genericity: no image collisions
    ids = [i for i in res.index_map if i is not None]
    assert len(set(ids)) == len(ids)


def test_restriction_count_bound():
    for arr in (braid_arrangement(4), THREE_LINES, generic_arrangement(5, 3, seed=4)):
        for h0 in range(arr.n):
            res = restriction(arr, h0)
            assert res.arrangement.n <= arr.n - 1
            ids = [i for i in res.index_map if i is not None]
            injective = len(set(ids)) == len(ids)
            assert (res.arrangement.n == arr.n - 1) == injective


# -- rank-2 flats ------------------------------------------------------------


def test_flats_braid_s4():
    flats = rank2_flats(braid_arrangement(4))
    sizes = sorted((len(f.members) for f in flats), reverse=True)
    assert sizes == [3, 3, 3, 3, 2, 2, 2]


def test_flats_three_lines():
    flats = rank2_flats(THREE_LINES)
    assert len(flats) == 1 and flats[0].members == (0, 1, 2)


def test_flats_generic():
    flats = rank2_flats(generic_arrangement(4, 3, seed=2))
    assert sorted(len(f.members) for f in flats) == [2] * 6


@st.composite
def small_arrangements(draw):
    """Integer normals in [-3, 3] of dims 2..5, or braid 4/5 in new coordinates."""
    if draw(st.booleans()):
        braid = braid_arrangement(draw(st.sampled_from([4, 5])))
        change = random_invertible(random.Random(draw(st.integers(0, 10**6))), braid.dim)
        return arrangement(braid.dim, [
            [sum(h.normal[k] * change.entries[k][j] for k in range(braid.dim))
             for j in range(braid.dim)] for h in braid.hyperplanes])
    dim = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
                         .filter(any), min_size=1, max_size=8))
    return arrangement(dim, dict.fromkeys(normalize_hyperplane(r).normal for r in rows))


@settings(max_examples=120)
@given(small_arrangements(), st.data())
def test_restriction_matches_the_kernel_basis_form(arr, data):
    # One 2x2 minor per coordinate is the dot product with the kernel basis.
    h0 = data.draw(st.integers(0, arr.n - 1))
    assert restriction(arr, h0) == kernel_basis_restriction(arr, h0)


def test_span_key_names_the_plane():
    u, v = (1, -1, 0, 0), (0, 1, -1, 0)
    key = span_key(u, v)
    assert key == ((0, 1, 2), (1, -1, 1))
    assert span_key(v, u) == span_key((2, -1, -1, 0), (-1, 2, -1, 0)) == key
    assert span_key(u, (0, 0, 1, -1)) != key
    with pytest.raises(ValueError):
        span_key(u, (-2, 2, 0, 0))


@settings(max_examples=120)
@given(small_arrangements())
def test_rank2_structure_matches_fraction_reference(arr):
    normals = arr.normals()
    flats = rank2_flats(arr)
    assert [f.members for f in flats] == brute_rank2_flats(normals)
    for triple in combinations(range(arr.n), 3):
        expected = fraction_rank([normals[i] for i in triple], arr.dim) == 3
        assert _all_triples_rank3([normals[i] for i in triple]) == expected


@settings(max_examples=200)
@given(small_arrangements(), st.data())
def test_triple_check_from_pair_keys_matches_fraction_rank(arr, data):
    # C(k, 2) span keys decide the rank of all C(k, 3) triples, in any order.
    assume(arr.n >= 3)
    normals = arr.normals()
    size = data.draw(st.integers(3, min(7, arr.n)))
    indices = data.draw(st.permutations(range(arr.n)))[:size]
    expected = all(fraction_rank([normals[i] for i in triple], arr.dim) == 3
                   for triple in combinations(indices, 3))
    assert _all_triples_rank3([normals[i] for i in indices]) == expected


@settings(max_examples=120)
@given(small_arrangements())
def test_localization_matches_fraction_rref(arr):
    normals = arr.normals()
    for f in rank2_flats(arr):
        local = localization(arr, f)
        assert local.dim == 2
        u, v = (normals[k] for k in f.members[:2])
        assert local.normals() == rref_localization(normals, f.members, u, v)


@st.composite
def plane_rich_multiarrangements(draw):
    """Normals that are small combinations of two of a few sparse base vectors,
    in dims 2..5 or 50..70: negative entries, and several normals per plane,
    so flats of three or more members; with multiplicities 1..4."""
    dim = draw(st.one_of(st.integers(2, 5), st.integers(50, 70)))
    entries = st.integers(-3, 3)
    bases = [{c: draw(entries.filter(bool)) for c in draw(
                st.lists(st.integers(0, dim - 1), min_size=1, max_size=4, unique=True))}
             for _ in range(draw(st.integers(2, 4)))]
    rows = []
    for _ in range(draw(st.integers(2, 9))):
        b1, b2 = draw(st.permutations(bases))[:2]
        c1, c2 = draw(entries), draw(entries)
        rows.append([c1 * b1.get(k, 0) + c2 * b2.get(k, 0) for k in range(dim)])
    arr = arrangement(dim, dict.fromkeys(normalize_hyperplane(r).normal for r in rows if any(r)))
    return arr, tuple(draw(st.lists(st.integers(1, 4), min_size=arr.n, max_size=arr.n)))


@settings(max_examples=150)
@given(plane_rich_multiarrangements())
def test_rank2_pass_matches_the_oracles(case):
    arr, m = case
    normals = arr.normals()
    flats = rank2_flats(arr)
    assert [f.members for f in flats] == brute_rank2_flats(normals)
    for f in flats:
        u, v = (normals[k] for k in f.members[:2])
        assert list(f.lines) == rref_localization(normals, f.members, u, v)
    assert lmp2_breakdown(arr, m) == [
        (f, rank2_exponents(localization(arr, f), tuple(m[k] for k in f.members)))
        for f in flats]


def test_flats_partition_pairs():
    for arr in (braid_arrangement(4), braid_arrangement(5),
                generic_arrangement(5, 3, seed=9), boolean_arrangement(4)):
        flats = rank2_flats(arr)
        seen = {}
        for fi, f in enumerate(flats):
            for a in range(len(f.members)):
                for b in range(a + 1, len(f.members)):
                    pair = (f.members[a], f.members[b])
                    assert pair not in seen
                    seen[pair] = fi
        expected = {(i, j) for i in range(arr.n) for j in range(i + 1, arr.n)}
        assert set(seen) == expected


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_generic_draws_match_the_pairwise_rule(dim):
    # One plane key per chosen normal accepts exactly what the test against
    # every chosen pair accepts, so every seed keeps its output.
    for n, seed in [(n, seed) for n in (0, 1, 3, 6, 12) for seed in range(4)] + [(60, 5)]:
        expected = pairwise_generic_normals(n, dim, seed)
        assert generic_arrangement(n, dim, seed).normals() == expected


# -- localization ------------------------------------------------------------


def test_localization_braid_triple():
    arr = braid_arrangement(4)
    flat = next(f for f in rank2_flats(arr) if f.members == (0, 1, 3))
    local = localization(arr, flat)
    assert local.dim == 2 and local.n == 3


def test_localization_pair_is_two_independent_lines():
    arr = braid_arrangement(4)
    flat = next(f for f in rank2_flats(arr) if len(f.members) == 2)
    local = localization(arr, flat)
    assert local.n == 2
    assert Matrix(local.normals()).rank() == 2


def test_localization_of_rank2_arrangement_is_itself():
    (flat,) = rank2_flats(THREE_LINES)
    assert localization(THREE_LINES, flat) == THREE_LINES


@pytest.mark.parametrize("members, message", [
    ((0, 0, 1), "two distinct"),
    ((0,), "two distinct"),
    ((0, 1, 6), "out of range"),
    ((0, 1, 2), "does not lie"),
], ids=["repeated-first-member", "single-member", "member-out-of-range",
        "member-outside-span"])
def test_localization_rejects_foreign_flat(members, message):
    from totalfree import Flat2
    with pytest.raises(MalformedFlatError, match=message):
        localization(braid_arrangement(4), Flat2(members, ()))


# -- product -----------------------------------------------------------------


def test_product_examples():
    p = product(arrangement(1, [(1,)]), arrangement(1, [(1,)]))
    assert p.dim == 2 and p.normals() == [(1, 0), (0, 1)]
    q = product(THREE_LINES, arrangement(1, [(1,)]))
    assert q.dim == 3 and q.n == 4
    from totalfree import Arrangement
    r = product(THREE_LINES, Arrangement(1, ()))
    assert r.dim == 3 and r.n == 3


def test_product_associative_and_rank_additive():
    a = THREE_LINES
    b = boolean_arrangement(2)
    c = arrangement(1, [(1,)])
    assert product(product(a, b), c) == product(a, product(b, c))
    assert essentialize(product(a, b)).dim == a.rank() + b.rank()


# -- derivation membership ---------------------------------------------------


def is_member(theta, arr, m):
    return all(is_member_at(theta, h, mult) for h, mult in zip(arr.hyperplanes, m))


def test_euler_membership():
    assert is_member(euler_derivation(2), THREE_LINES, (1, 1, 1))


def test_non_member():
    # d/dx on {x} with multiplicity 2: theta(x) = 1 is not divisible by x^2
    ddx = derivation([monomial(1, (0,))])
    assert not is_member(ddx, arrangement(1, [(1,)]), (2,))


def test_squares_derivation_member():
    xx = monomial(2, (2, 0))
    yy = monomial(2, (0, 2))
    theta = derivation([xx, yy])
    assert is_member(theta, THREE_LINES, (1, 1, 1))
    assert not is_member(theta, THREE_LINES, (1, 1, 2))


def test_euler_on_random_arrangements():
    rng = random.Random(31)
    for _ in range(10):
        dim = rng.randint(1, 4)
        n = rng.randint(1, min(5, 1 if dim == 1 else 5))
        arr = generic_arrangement(n, dim, seed=rng.randint(0, 999))
        assert is_member(euler_derivation(dim), arr, (1,) * n)


def test_is_member_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        is_member(euler_derivation(3), THREE_LINES, (1, 1, 1))


# -- text format -------------------------------------------------------------


def test_parse_roundtrip():
    arr = braid_arrangement(4)
    m = (1, 2, 1, 1, 3, 1)
    text = format_arrangement(arr, m)
    arr2, m2 = parse_arrangement(text)
    assert arr2 == arr and m2 == m


def test_parse_rationals_and_comments():
    text = """
# a comment
dim 2
hyperplane 1/2 -1/3   # inline comment
hyperplane 0 1 mult 4
"""
    arr, m = parse_arrangement(text)
    assert arr.normals() == [(3, -2), (0, 1)]
    assert m == (1, 4)


def test_parse_integer_and_unit_fraction_tokens_agree():
    # Integer tokens are read by int, p/q tokens by Fraction; both normalize alike.
    ints, _ = parse_arrangement("dim 3\nhyperplane 3 -6 +9\nhyperplane 0 -0 007\n")
    fracs, _ = parse_arrangement("dim 3\nhyperplane 3/1 -6/1 +9/1\nhyperplane 0/1 -0/5 14/2\n")
    assert ints == fracs
    assert ints.normals() == [(1, -2, 3), (0, 0, 1)]
    assert all(type(c) is int for h in ints.normals() for c in h)
    with pytest.raises(DuplicateHyperplaneError):
        parse_arrangement("dim 2\nhyperplane 3 1\nhyperplane 3/1 1/1\n")


def test_parse_duplicate_names_both_lines():
    text = "dim 2\nhyperplane 1 0\nhyperplane -3 0\n"
    with pytest.raises(DuplicateHyperplaneError) as exc:
        parse_arrangement(text)
    assert "line 3" in str(exc.value) and "line 2" in str(exc.value)


@pytest.mark.parametrize("text,fragment", [
    ("hyperplane 1 0\n", "before dim"),
    ("dim 2\nhyperplane 1\n", "expected 2 coefficients"),
    ("dim 2\nhyperplane 1 0.5\n", "bad coefficient"),
    ("dim 2\nhyperplane 0 0\n", "zero covector"),
    ("dim 2\nhyperplane 1 0 mult 0\n", "mult"),
    ("dim x\n", "dim"),
    ("", "missing dim"),
    ("dim 2\nwhatever\n", "unknown directive"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_arrangement(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("text,lineno", [
    ("dim \u00b2\n", 1),                                   # superscript two
    ("dim \u0663\n", 1),                                   # Arabic-Indic three
    ("dim 2\nhyperplane \u0661 0\n", 2),
    ("dim 2\nhyperplane 1/\u0662 0\n", 2),
    ("dim 2\nhyperplane 1 0 mult \u00b2\n", 2),
    ("dim 2\nhyperplane 1 0 mult \u0662\n", 2),
], ids=["dim-superscript", "dim-arabic", "coefficient", "denominator",
        "mult-superscript", "mult-arabic"])
def test_parse_rejects_non_ascii_digits(text, lineno):
    with pytest.raises(ParseError) as exc:
        parse_arrangement(text)
    assert exc.value.line == lineno
