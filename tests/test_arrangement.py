import hashlib
import random
from fractions import Fraction
from functools import reduce
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
    format_arrangement,
    generic_arrangement,
    lmp2_breakdown,
    normalize_hyperplane,
    parse_arrangement,
    product,
    rank2_exponents,
    rank2_flats,
)
from totalfree.arrangement import (
    Flat2, _essential, _images, _rank2_flats, _restrict, is_member_at, localization)
from totalfree.certificates import _all_triples_rank3, _brute_circuit
from totalfree.linalg import Matrix
from oracles import (
    all_triples_brute_circuit, assert_pivot_restriction, brute_rank2_flats, deletion, euler_derivation,
    fraction_components, fraction_rank, kernel_basis_restriction, monomial,
    pairwise_generic_normals, primitive, random_invertible, random_unimodular, rank_rows,
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


def test_floats_and_bools_are_refused_by_name():
    # Fraction would take the float 0.1 as 3602879701896397/36028797018963968
    # and True as 1, silently.
    with pytest.raises(TypeError, match="0.1"):
        arrangement(2, [[0.1, 1], [1, 0]])
    with pytest.raises(TypeError, match="True"):
        normalize_hyperplane([True, 2])
    with pytest.raises(TypeError, match="2.0"):
        normalize_hyperplane([Fraction(1, 2), 2.0])


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
    ess = _essential(arr.normals(), arr.dim)
    # pivot columns x1, x2; the dropped x3 is the trivial direction
    assert ess == arrangement(2, [(1, -1), (1, 0), (0, 1)])
    assert_pivot_restriction(arr, ess)


def test_essentialize_already_essential():
    assert _essential(THREE_LINES.normals(), 2) == THREE_LINES


def test_essentialize_empty():
    assert _essential([], 2) == Arrangement(0, ())


def test_essentialize_pivots_past_the_first_columns():
    # pivot column x2 only: the restricted normal (2) normalizes to (1)
    arr = arrangement(3, [(0, 2, 1)])
    assert _essential(arr.normals(), arr.dim) == arrangement(1, [(1,)])
    arr = arrangement(4, [(0, 1, 0, 2), (0, 0, 0, 1), (0, 1, 0, 1)])
    assert _essential(arr.normals(), arr.dim) == arrangement(2, [(1, 2), (0, 1), (1, 1)])
    assert_pivot_restriction(arr, _essential(arr.normals(), arr.dim))


# -- deletion / restriction --------------------------------------------------


def test_deletion_examples():
    assert deletion(THREE_LINES, 2) == arrangement(2, [(1, 0), (0, 1)])
    single = arrangement(1, [(1,)])
    assert deletion(single, 0).n == 0
    assert deletion(braid_arrangement(4), 0).n == 5
    with pytest.raises(IndexError):
        deletion(single, 1)


def test_restriction_braid_s4():
    images, index_map = _restrict(braid_arrangement(4).normals(), 0)  # to x1 - x2
    assert len(images) == 3 and all(len(img) == 3 for img in images)
    # x1-x3 and x2-x3 collide, x1-x4 and x2-x4 collide, x3-x4 survives alone
    assert index_map[0] is None
    assert index_map[1] == index_map[3]
    assert index_map[2] == index_map[4]
    assert len({index_map[1], index_map[2], index_map[5]}) == 3


def test_restriction_boolean_two():
    assert _restrict([(1, 0), (0, 1)], 0) == ([(1,)], [None, 0])


def test_restriction_generic_injective():
    images, index_map = _restrict(generic_arrangement(4, 3, seed=2).normals(), 1)
    assert len(images) == 3  # genericity: no image collisions
    ids = [i for i in index_map if i is not None]
    assert len(set(ids)) == len(ids)


def test_restriction_count_bound():
    for arr in (braid_arrangement(4), THREE_LINES, generic_arrangement(5, 3, seed=4)):
        for h0 in range(arr.n):
            images, index_map = _restrict(arr.normals(), h0)
            assert len(images) <= arr.n - 1
            ids = [i for i in index_map if i is not None]
            injective = len(set(ids)) == len(ids)
            assert (len(images) == arr.n - 1) == injective


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
    restricted, index_map = kernel_basis_restriction(arr, h0)
    assert _restrict(arr.normals(), h0) == (restricted.normals(), index_map)


@st.composite
def plane_triples(draw):
    """Integer u, b, c of dims 2..6, b and c independent of u; c is often in
    the plane of u and b."""
    dim = draw(st.integers(2, 6))
    vector = st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)
    u = draw(vector.filter(any))
    b = draw(vector.filter(lambda b: rank_rows([u, b]) == 2))
    if draw(st.booleans()):
        x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3).filter(bool))
        c = [x * s + y * t for s, t in zip(u, b)]
    else:
        c = draw(vector.filter(lambda c: rank_rows([u, c]) == 2))
    return u, b, c


@settings(max_examples=300, derandomize=True)
@given(plane_triples())
def test_images_are_equal_exactly_in_one_plane(triple):
    # b and c lie in one rank-2 flat with u iff they have one image under u.
    u, b, c = triple
    image_b, image_c = _images(u, [b, c])
    assert len(image_b) == len(u) - 1
    assert (image_b == image_c) == (rank_rows([u, b, c]) == 2)


@settings(max_examples=100, derandomize=True)
@given(small_arrangements())
def test_triple_check_matches_integer_rank_on_every_triple(arr):
    normals = arr.normals()
    for triple in combinations(normals, 3):
        assert _all_triples_rank3(list(triple)) == (rank_rows(triple) == 3)


def _first_generic_subset(normals, size):
    """The lexicographically first index subset of this size with every triple of rank 3."""
    return next((list(c) for c in combinations(range(len(normals)), size)
                 if all(rank_rows([normals[i] for i in t]) == 3 for t in combinations(c, 3))),
                None)


def test_brute_circuit_is_the_first_generic_subset_in_lexicographic_order():
    rng = random.Random(11)
    cases = [braid_arrangement(dim) for dim in (4, 5, 6)]
    while len(cases) < 33:
        dim = rng.randint(3, 4)
        rows = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(4, 8))]
        arr = arrangement(dim, dict.fromkeys(normalize_hyperplane(r).normal
                                             for r in rows if any(r)))
        if fraction_rank(arr.normals(), dim) >= 3 and len(fraction_components(arr)) == 1:
            cases.append(arr)
    for arr in cases:
        rank = fraction_rank(arr.normals(), arr.dim)
        expected = _first_generic_subset(arr.normals(), rank + 1)
        assert expected is not None
        assert _brute_circuit(arr, rank) == expected


@settings(max_examples=150, derandomize=True)
@given(small_arrangements())
def test_brute_circuit_through_each_candidate_matches_the_all_triples_scan(arr):
    # The chosen indices are generic, so testing the images under each
    # candidate finds the circuit that re-testing every triple finds.
    rank = fraction_rank(arr.normals(), arr.dim)
    assume(rank >= 3 and len(fraction_components(arr)) == 1)
    assert _brute_circuit(arr, rank) == all_triples_brute_circuit(arr, rank)


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
    # C(k, 2) images decide the rank of all C(k, 3) triples, in any order.
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


_PIECES = [braid_arrangement(d) for d in (3, 4, 5, 6)] + [
    boolean_arrangement(2), THREE_LINES, generic_arrangement(5, 3, seed=4)]


@st.composite
def sparse_or_dense_arrangements(draw):
    """Products of one to three braids, boolean, three-line and generic pieces: in
    standard coordinates, where most supports are not full (sparse), or in unimodular
    coordinates that mix the pieces (dense)."""
    arr = reduce(product, draw(st.lists(st.sampled_from(_PIECES), min_size=1, max_size=3)))
    if draw(st.booleans()):
        change = random_unimodular(random.Random(draw(st.integers(0, 10**6))), arr.dim)
        arr = arrangement(arr.dim, [[sum(a[i] * change[i][j] for i in range(arr.dim))
                                     for j in range(arr.dim)] for a in arr.normals()])
    return arr


@settings(max_examples=60)
@given(sparse_or_dense_arrangements())
def test_flats_pass_is_the_public_flats_and_partitions_the_pairs(arr):
    # The plain (members, lines) pairs are the public Flat2s, their lines are
    # the localization's, and each pair of hyperplanes lies in exactly one flat.
    flats = _rank2_flats(arr.normals())
    assert rank2_flats(arr) == [Flat2(members, lines) for members, lines in flats]
    pairs = []
    for members, lines in flats:
        assert list(lines) == localization(arr, Flat2(members, lines)).normals()
        pairs += combinations(members, 2)
    assert sorted(pairs) == list(combinations(range(arr.n), 2))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_generic_draws_match_the_pairwise_rule(dim):
    # One image per chosen normal accepts exactly what the test against
    # every chosen pair accepts, so every seed keeps its output.
    for n, seed in [(n, seed) for n in (0, 1, 3, 6, 12) for seed in range(4)] + [(60, 5)]:
        expected = pairwise_generic_normals(n, dim, seed)
        assert generic_arrangement(n, dim, seed).normals() == expected


def test_generic_draws_keep_their_digest():
    # Every draw, and every refusal, of these families as they were drawn
    # with 2x2-minor plane keys: any change in the draws changes the digest.
    digest = hashlib.sha256()
    for dim in range(1, 8):
        for n in (0, 1, 2, 5, 12, 30):
            for seed in range(6):
                try:
                    out = repr(generic_arrangement(n, dim, seed).normals())
                except ValueError as exc:
                    out = f"ValueError: {exc}"
                digest.update(f"{dim} {n} {seed} {out}\n".encode())
    assert digest.hexdigest() == (
        "925c807615117920de6d6802ccfb4a9d9232330b1698042b3215fb5af8b1649d")


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
    ab = product(a, b)
    assert _essential(ab.normals(), ab.dim).dim == a.rank() + b.rank()


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
